//! Report formatting for the bench binaries.
//!
//! Every bench prints (a) an aligned text table mirroring the paper's
//! figure/table, and (b) one JSON line per row so EXPERIMENTS.md numbers
//! are regenerable by machines.

/// An aligned text table builder.
///
/// # Examples
///
/// ```
/// use icache_sim::report::Table;
///
/// let mut t = Table::new(vec!["model".into(), "speedup".into()]);
/// t.row(vec!["shufflenet".into(), "2.3x".into()]);
/// let s = t.render();
/// assert!(s.contains("shufflenet"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_columns(cols: &[&str]) -> Self {
        Table::new(cols.iter().map(|c| c.to_string()).collect())
    }

    /// Append a row. Short rows are padded with empty cells; long rows
    /// extend the header with empty column names.
    pub fn row(&mut self, cells: Vec<String>) {
        while self.header.len() < cells.len() {
            self.header.push(String::new());
        }
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut out = String::new();
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                out.push_str(&format!("{cell:width$}"));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        for row in &self.rows {
            out.push('\n');
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// Format a speedup like the paper: `2.3x`.
pub fn speedup(baseline_secs: f64, system_secs: f64) -> String {
    if system_secs <= 0.0 {
        return "inf".into();
    }
    format!("{:.2}x", baseline_secs / system_secs)
}

/// Format seconds with adaptive precision.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Format a ratio as percent.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Render a [`crate::RunMetrics`] as a plotting-ready CSV string
/// (one row per epoch).
pub fn run_metrics_csv(metrics: &crate::RunMetrics) -> String {
    let mut out = String::from(
        "epoch,wall_s,stall_s,compute_s,fetched,trained,hit_ratio,fetch_p50_us,fetch_p99_us,top1,top5\n",
    );
    for e in &metrics.epochs {
        out.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{},{},{:.4},{:.1},{:.1},{:.2},{:.2}\n",
            e.epoch.0,
            e.wall_time.as_secs_f64(),
            e.stall_time.as_secs_f64(),
            e.compute_time.as_secs_f64(),
            e.samples_fetched,
            e.samples_trained,
            e.hit_ratio(),
            e.fetch_p50.as_micros_f64(),
            e.fetch_p99.as_micros_f64(),
            e.top1,
            e.top5
        ));
    }
    out
}

/// Build the machine-readable run summary the bench binaries write for
/// `--json <path>`: per-job metrics plus the observability registry
/// (counters, gauges, latency histograms) and trace accounting.
///
/// The output is canonical — insertion-ordered objects, no timestamps —
/// so identical runs serialize to identical bytes.
pub fn run_summary(runs: &[crate::RunMetrics], obs: &icache_obs::Obs) -> icache_obs::Json {
    use icache_obs::{Json, ToJson};
    let jobs: Vec<Json> = runs.iter().map(|r| r.to_json()).collect();
    let events: Vec<(String, Json)> = obs
        .trace_event_counts()
        .into_iter()
        .map(|(name, n)| (name, n.to_json()))
        .collect();
    Json::Obj(vec![
        ("jobs".into(), Json::Arr(jobs)),
        ("metrics".into(), obs.metrics_snapshot()),
        (
            "trace".into(),
            Json::Obj(vec![
                ("emitted".into(), obs.trace_emitted().to_json()),
                ("recorded".into(), (obs.trace_len() as u64).to_json()),
                ("dropped".into(), obs.trace_dropped().to_json()),
                ("events".into(), Json::Obj(events)),
            ]),
        ),
    ])
}

/// [`run_summary`] for a distributed run: appends a `"nodes"` array with
/// the per-node hit/miss classification counters recorded by the
/// [`icache_core::CacheService`], one object per rank.
///
/// Every fetch lands in exactly one of the three buckets, so across the
/// array `local_hits + remote_hits + storage_fetches` sums to the total
/// sample fetches of the run.
pub fn run_summary_distributed(
    runs: &[crate::RunMetrics],
    obs: &icache_obs::Obs,
    nodes: usize,
) -> icache_obs::Json {
    use icache_obs::{Json, ToJson};
    let per_node: Vec<Json> = (0..nodes)
        .map(|i| {
            let c = |suffix: &str| obs.counter(&format!("dist.node{i}.{suffix}")).to_json();
            Json::Obj(vec![
                ("node".into(), (i as u64).to_json()),
                ("local_hits".into(), c("local_hits")),
                ("remote_hits".into(), c("remote_hits")),
                ("storage_fetches".into(), c("storage_fetches")),
            ])
        })
        .collect();
    match run_summary(runs, obs) {
        Json::Obj(mut fields) => {
            fields.push(("nodes".into(), Json::Arr(per_node)));
            Json::Obj(fields)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::with_columns(&["a", "bb"]);
        t.row(vec!["xxxx".into(), "y".into()]);
        t.row(vec!["z".into(), "wwww".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // all lines equal width (trailing trimmed on shorter cells)
        assert!(lines[0].starts_with("a     bb"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::with_columns(&["a"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["x".into()]);
        let r = t.render();
        assert!(r.contains('3'));
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        use icache_types::{Epoch, SimDuration};
        let run = crate::RunMetrics {
            system: "x".into(),
            model: "m".into(),
            epochs: vec![crate::EpochMetrics {
                epoch: Epoch(0),
                wall_time: SimDuration::from_millis(10),
                stall_time: SimDuration::from_millis(4),
                compute_time: SimDuration::from_millis(6),
                fetch_time: SimDuration::ZERO,
                preprocess_time: SimDuration::ZERO,
                samples_fetched: 100,
                samples_trained: 100,
                served_from_cache: 30,
                distinct_trained: 100,
                substitutions_h: 0,
                substitutions_l: 0,
                cache: Default::default(),
                storage: Default::default(),
                fetch_p50: SimDuration::from_micros(50),
                fetch_p99: SimDuration::from_micros(900),
                coverage: 1.0,
                quality: 1.0,
                top1: 50.0,
                top5: 80.0,
            }],
        };
        let csv = run_metrics_csv(&run);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("epoch,wall_s"));
        assert!(csv.contains("0,0.010000,0.004000,0.006000,100,100"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(speedup(4.0, 2.0), "2.00x");
        assert_eq!(speedup(1.0, 0.0), "inf");
        assert_eq!(secs(0.5), "500.0ms");
        assert_eq!(secs(2.5), "2.50s");
        assert_eq!(secs(250.0), "250s");
        assert_eq!(pct(0.256), "25.6%");
    }
}
