//! The only file of the benchmark that names the repository's APIs.
//!
//! Everything the harness does to the program under test — building
//! caches, storage and the service, the fetch call, the epoch hooks,
//! stepping jobs, the isolated loops over single layers — goes through
//! here, and only through public items, so a change to those items
//! (merging the two cache traits, merging the replay drivers) needs a
//! correction in this file alone. The replay loops are the benchmark's
//! own on purpose: `icache_sim::replay::{replay, replay_concurrent}`
//! are slated for merging, and a benchmark must not move with them.
//!
//! The program never sees a workload's name: [`prepare`] turns a
//! [`Shape`] and a seed into generated inputs, and the program receives
//! those.

use crate::trace::{self, Key, Kind, Recording};
use icache_baselines::{IlfuCache, LruCache, MinIoCache, QuiverCache};
use icache_core::{
    CacheService, CacheStats, CacheSystem, ConcurrentCache, ConcurrentManager, Fetch, FetchOutcome,
    IcacheConfig, IcacheManager, MutexCache, ServiceConfig,
};
use icache_dnn::{LossModel, LossModelConfig};
use icache_obs::{Obs, Observable};
use icache_sampling::{HList, IisSelector, ImportanceTable, Selector};
use icache_sim::replay::AccessPattern;
use icache_sim::{
    report, run_multi_job_with_obs, ChurnSpec, JobConfig, RunMetrics, Scenario, StorageKind,
    SystemKind, TrainingJob,
};
use icache_storage::{Pfs, PfsConfig, StorageBackend, StorageStats};
use icache_types::{
    ByteSize, Dataset, DatasetBuilder, Epoch, JobId, LatencyHistogram, SampleId, SeedSequence,
    SimDuration, SimTime, SizeModel,
};
use rand::rngs::StdRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The JSON value type of the program's own `obs` crate, which the
/// harness also uses to read `BENCHMARK.json` and its children's output.
pub use icache_obs::Json;

type Res<T> = Result<T, String>;

/// Values keyed by per-layer metric name.
pub type Facts = Vec<(&'static str, f64)>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The five kinds of input the benchmark generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One `TrainingJob` on the ImageNet scenario, stepped to the end.
    Train,
    /// Zipf trace through the sequential manager.
    ReplayHot,
    /// Epoch-shuffle trace through the sequential manager.
    ReplayCold,
    /// The Zipf trace through the striped manager from two threads.
    Loaders,
    /// Four sharded jobs on a four-node `CacheService`.
    Cluster,
}

impl Shape {
    /// Threads that issue fetches.
    pub fn threads(self) -> usize {
        match self {
            Shape::Loaders => LOADER_THREADS,
            _ => 1,
        }
    }
}

/// Whether the program's `Obs` keeps trace events (`Obs::new`) or only
/// counters (`Obs::noop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    Live,
    Noop,
}

impl ObsMode {
    fn build(self) -> Obs {
        match self {
            ObsMode::Live => Obs::new(),
            ObsMode::Noop => Obs::noop(),
        }
    }

    pub fn other(self) -> ObsMode {
        match self {
            ObsMode::Live => ObsMode::Noop,
            ObsMode::Noop => ObsMode::Live,
        }
    }
}

/// The five steady-state numbers a user of the simulator reads. Passes
/// or epochs from the second on; the first fills the cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    pub epoch_s: f64,
    pub stall_s: f64,
    pub hit_ratio: f64,
    pub subst_share: f64,
    pub storage_kib_per_fetch: f64,
}

impl SimMetrics {
    /// Exact comparison: a deterministic simulation repeats to the bit.
    pub fn bit_equal(&self, other: &SimMetrics) -> bool {
        let bits = |m: &SimMetrics| {
            [
                m.epoch_s,
                m.stall_s,
                m.hit_ratio,
                m.subst_share,
                m.storage_kib_per_fetch,
            ]
            .map(f64::to_bits)
        };
        bits(self) == bits(other)
    }
}

/// One repetition of a workload.
pub struct Rep {
    /// Host wall-clock of the timed body.
    pub wall_ns: u64,
    /// Fetches the repetition attempted.
    pub fetches: u64,
    pub sim: SimMetrics,
    /// Per-layer facts read from the program's own counters, keyed by
    /// per-layer metric name.
    pub layer: Facts,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// The spans of a traced repetition.
    pub recording: Option<Recording>,
}

impl Rep {
    /// Host nanoseconds per fetch served.
    pub fn ns_per_fetch(&self) -> f64 {
        ratio(self.wall_ns as f64, self.fetches as f64)
    }
}

#[derive(Debug, Clone, Copy)]
struct Access {
    id: SampleId,
    size: ByteSize,
}

struct ReplayInputs {
    dataset: Dataset,
    accesses: Vec<Access>,
    /// `accesses` dealt round-robin to the loader threads.
    shards: Vec<Vec<Access>>,
    hlist: HList,
    cache_frac: f64,
    passes: u32,
    /// Each pass replays its own slice of `accesses` (a fresh
    /// permutation per epoch) instead of the whole trace again.
    fresh_per_pass: bool,
    stripes: usize,
    seed: u64,
    tracegen_ms: f64,
}

impl ReplayInputs {
    fn pass(&self, pass: u32) -> &[Access] {
        if self.fresh_per_pass {
            let len = self.accesses.len() / self.passes as usize;
            &self.accesses[pass as usize * len..][..len]
        } else {
            &self.accesses
        }
    }

    /// The same inputs with only the first `requests` of the trace: the
    /// baselines' rows replay one dataset-sized epoch per pass.
    fn truncated(&self, requests: usize) -> ReplayInputs {
        ReplayInputs {
            dataset: self.dataset.clone(),
            accesses: self.accesses[..requests.min(self.accesses.len())].to_vec(),
            shards: Vec::new(),
            hlist: self.hlist.clone(),
            ..*self
        }
    }

    /// Fetches one repetition attempts.
    fn fetches(&self) -> u64 {
        (0..self.passes).map(|p| self.pass(p).len() as u64).sum()
    }
}

enum Inputs {
    Train(Scenario),
    Replay(ReplayInputs),
    Cluster(Scenario),
}

/// A workload's generated inputs.
pub struct Prepared {
    shape: Shape,
    inputs: Inputs,
}

const JOB: JobId = JobId(0);
const CLUSTER_NODES: usize = 4;
const LOADER_THREADS: usize = 2;

fn train_scenario(seed: u64) -> Res<Scenario> {
    // Scenario::imagenet: SqueezeNet, OrangeFS, 20 % cache, IIS 0.7,
    // batch 256, 6 workers, 5 epochs.
    Ok(Scenario::imagenet(SystemKind::Icache)
        .scale_dataset(0.25)
        .map_err(err)?
        .seed(seed))
}

fn cluster_scenario(seed: u64) -> Res<Scenario> {
    Ok(Scenario::imagenet(SystemKind::Icache)
        .scale_dataset(0.1)
        .map_err(err)?
        .epochs(4)
        .seed(seed))
}

/// An H-list over `losses` (one per sample id): the top half.
fn hlist_of(losses: impl Iterator<Item = f64>, universe: u64) -> HList {
    let mut table = ImportanceTable::new(universe);
    for (id, loss) in losses.enumerate() {
        table.record_loss(SampleId(id as u64), loss);
    }
    HList::top_fraction(&table, 0.5)
}

fn replay_inputs(shape: Shape, seed: u64) -> Res<ReplayInputs> {
    let seq = SeedSequence::new(seed);
    let threads = shape.threads();
    let (dataset, pattern, requests, passes) = match shape {
        Shape::ReplayHot | Shape::Loaders => (
            DatasetBuilder::new("zipf-3k", 200_000)
                .size_model(SizeModel::Fixed(ByteSize::kib(3)))
                .seed(seq.seed("dataset"))
                .build()
                .map_err(err)?,
            AccessPattern::Zipf { s: 1.1 },
            2_000_000,
            if shape == Shape::Loaders { 3 } else { 5 },
        ),
        _ => {
            let base = Dataset::imagenet_1k().scaled(0.15).map_err(err)?;
            let dataset = DatasetBuilder::new("imagenet-1k@0.15", base.len())
                .size_model(base.size_model())
                .seed(seq.seed("dataset"))
                .build()
                .map_err(err)?;
            // One permutation of the dataset per pass.
            let requests = dataset.len() as usize * 5;
            (dataset, AccessPattern::EpochShuffle, requests, 5)
        }
    };
    let universe = dataset.len();
    let t0 = Instant::now();
    let trace = pattern
        .generate(universe, requests, JOB, seq.seed("trace"))
        .map_err(err)?;
    let tracegen_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Sizes are a pure function of the dataset; looking them up once
    // here keeps the log-normal arithmetic out of the timed loop.
    let accesses: Vec<Access> = trace
        .records()
        .iter()
        .map(|r| Access {
            id: r.sample,
            size: dataset.sample_size(r.sample),
        })
        .collect();
    let hlist = match shape {
        // What a warmed-up H-list would hold: popularity in the trace.
        Shape::ReplayHot | Shape::Loaders => {
            let mut counts = vec![0.0f64; universe as usize];
            for a in &accesses {
                counts[a.id.0 as usize] += 1.0;
            }
            hlist_of(counts.into_iter(), universe)
        }
        // Importance unrelated to the access order, fixed by the seed.
        _ => {
            let mut rng = seq.rng("importance");
            hlist_of(
                (0..universe).map(|_| rand::Rng::gen_range(&mut rng, 0.0..1.0)),
                universe,
            )
        }
    };
    let mut shards: Vec<Vec<Access>> = (0..threads).map(|_| Vec::new()).collect();
    if threads > 1 {
        for (i, a) in accesses.iter().enumerate() {
            shards[i % threads].push(*a);
        }
    }
    Ok(ReplayInputs {
        dataset,
        accesses,
        shards,
        hlist,
        cache_frac: 0.1,
        passes,
        fresh_per_pass: pattern == AccessPattern::EpochShuffle,
        stripes: threads,
        seed,
        tracegen_ms,
    })
}

/// Generate `shape`'s inputs from `seed`.
pub fn prepare(shape: Shape, seed: u64) -> Res<Prepared> {
    let inputs = match shape {
        Shape::Train => Inputs::Train(train_scenario(seed)?),
        Shape::Cluster => Inputs::Cluster(cluster_scenario(seed)?),
        _ => Inputs::Replay(replay_inputs(shape, seed)?),
    };
    Ok(Prepared { shape, inputs })
}

// ---------------------------------------------------------------------
// The timed decorators of the traced pass.
// ---------------------------------------------------------------------

/// Decorates a cache or a storage backend: every call into it is a
/// span, and every `Fetch` it returns is checked. Caches are decorated
/// boxed (`Timed<Box<C>>`, `C` possibly a trait object), because that
/// is how the program's builders hand them out.
pub struct Timed<T> {
    inner: T,
    /// Indexed by the `K_*` constants; storage uses the first three.
    keys: [Key; 4],
    universe: u64,
    /// Fetches that broke an output check.
    bad_fetches: AtomicU64,
}

const K_FETCH: usize = 0;
const K_UPDATE_HLIST: usize = 1;
const K_EPOCH_START: usize = 2;
const K_EPOCH_END: usize = 3;
const K_READ_SAMPLE: usize = 0;
const K_READ_SAMPLES: usize = 1;
const K_READ_PACKAGE: usize = 2;

impl<T> Timed<T> {
    /// Decorate a cache whose spans are filed under `layer`.
    fn cache(inner: T, layer: &'static str, universe: u64) -> Self {
        Timed {
            inner,
            keys: [
                trace::key(layer, "fetch", Kind::Request),
                trace::key(layer, "update_hlist", Kind::Hook),
                trace::key(layer, "on_epoch_start", Kind::Hook),
                trace::key(layer, "on_epoch_end", Kind::Hook),
            ],
            universe,
            bad_fetches: AtomicU64::new(0),
        }
    }

    /// Decorate a storage backend. `release_before` is forwarded without
    /// a span: it is the driver's call, cheaper than a clock read, and
    /// its cost stays with the driver.
    fn storage(inner: T) -> Self {
        let read_package = trace::key("storage", "read_package", Kind::Plain);
        Timed {
            inner,
            keys: [
                trace::key("storage", "read_sample", Kind::Plain),
                trace::key("storage", "read_samples", Kind::Plain),
                read_package,
                read_package,
            ],
            universe: 0,
            bad_fetches: AtomicU64::new(0),
        }
    }

    fn check(&self, requested: SampleId, now: SimTime, f: &Fetch) {
        let substituted = matches!(f.outcome, FetchOutcome::Substituted { .. });
        let ok = f.ready_at >= now
            && f.served_id.0 < self.universe
            && (substituted || f.served_id == requested);
        if !ok {
            // Relaxed: a statistic read after the threads are joined.
            self.bad_fetches.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn bad_fetches(&self) -> u64 {
        self.bad_fetches.load(Ordering::Relaxed)
    }
}

impl<C: CacheSystem + ?Sized> CacheSystem for Timed<Box<C>> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn fetch(
        &mut self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        trace::enter(self.keys[K_FETCH]);
        let f = self.inner.fetch(job, id, size, now, storage);
        trace::exit();
        self.check(id, now, &f);
        f
    }
    fn update_hlist(&mut self, job: JobId, hlist: &HList) {
        trace::span(self.keys[K_UPDATE_HLIST], || {
            self.inner.update_hlist(job, hlist)
        })
    }
    fn on_epoch_start(&mut self, job: JobId, epoch: Epoch) {
        trace::span(self.keys[K_EPOCH_START], || {
            self.inner.on_epoch_start(job, epoch)
        })
    }
    fn on_epoch_end(&mut self, job: JobId, epoch: Epoch) {
        trace::span(self.keys[K_EPOCH_END], || {
            self.inner.on_epoch_end(job, epoch)
        })
    }
    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs)
    }
    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn used_bytes(&self) -> ByteSize {
        self.inner.used_bytes()
    }
    fn capacity(&self) -> ByteSize {
        self.inner.capacity()
    }
}

impl<C: ConcurrentCache + ?Sized> ConcurrentCache for Timed<Box<C>> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn fetch(
        &self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
        rng: &mut StdRng,
    ) -> Fetch {
        trace::enter(self.keys[K_FETCH]);
        let f = self.inner.fetch(job, id, size, now, storage, rng);
        trace::exit();
        self.check(id, now, &f);
        f
    }
    fn update_hlist(&self, job: JobId, hlist: &HList) {
        trace::span(self.keys[K_UPDATE_HLIST], || {
            self.inner.update_hlist(job, hlist)
        })
    }
    fn on_epoch_start(&self, job: JobId, epoch: Epoch) {
        trace::span(self.keys[K_EPOCH_START], || {
            self.inner.on_epoch_start(job, epoch)
        })
    }
    fn on_epoch_end(&self, job: JobId, epoch: Epoch) {
        trace::span(self.keys[K_EPOCH_END], || {
            self.inner.on_epoch_end(job, epoch)
        })
    }
    fn set_obs(&self, obs: Obs) {
        self.inner.set_obs(obs)
    }
    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
    fn used_bytes(&self) -> ByteSize {
        self.inner.used_bytes()
    }
    fn capacity(&self) -> ByteSize {
        self.inner.capacity()
    }
    fn contended(&self) -> u64 {
        self.inner.contended()
    }
}

impl<S: StorageBackend> StorageBackend for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn read_sample(&mut self, id: SampleId, size: ByteSize, now: SimTime) -> SimTime {
        trace::enter(self.keys[K_READ_SAMPLE]);
        let t = self.inner.read_sample(id, size, now);
        trace::exit();
        t
    }
    fn read_samples(&mut self, reqs: &[(SampleId, ByteSize)], now: SimTime) -> SimTime {
        trace::enter(self.keys[K_READ_SAMPLES]);
        let t = self.inner.read_samples(reqs, now);
        trace::exit();
        t
    }
    fn read_package(&mut self, size: ByteSize, now: SimTime) -> SimTime {
        trace::enter(self.keys[K_READ_PACKAGE]);
        let t = self.inner.read_package(size, now);
        trace::exit();
        t
    }
    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs)
    }
    fn release_before(&mut self, t: SimTime) {
        self.inner.release_before(t)
    }
}

// ---------------------------------------------------------------------
// Facts read from the program's counters.
// ---------------------------------------------------------------------

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn kib(bytes: ByteSize) -> f64 {
    bytes.as_f64() / 1024.0
}

/// Steady-state metrics from the counter deltas of the steady passes
/// and the simulated times per pass.
fn steady(
    cache: &CacheStats,
    storage: &StorageStats,
    epoch_s: f64,
    stall_s: f64,
    hit_ratio: f64,
) -> SimMetrics {
    let requests = cache.requests() as f64;
    SimMetrics {
        epoch_s,
        stall_s,
        hit_ratio,
        subst_share: ratio(cache.substitutions as f64, requests),
        storage_kib_per_fetch: ratio(kib(storage.total_bytes()), requests),
    }
}

/// The `core.*` and `storage.*` facts of a whole repetition.
fn counter_facts(cache: &CacheStats, storage: &StorageStats, obs: &Obs, out: &mut Facts) {
    let req = cache.requests() as f64;
    let kfetch = req / 1e3;
    out.extend([
        ("core.h_hit_share", ratio(cache.h_hits as f64, req)),
        ("core.l_hit_share", ratio(cache.l_hits as f64, req)),
        ("core.subst_share", ratio(cache.substitutions as f64, req)),
        ("core.miss_share", ratio(cache.misses as f64, req)),
        (
            "core.insertions_per_kfetch",
            ratio(cache.insertions as f64, kfetch),
        ),
        (
            "core.evictions_per_kfetch",
            ratio(cache.evictions as f64, kfetch),
        ),
        (
            "core.rejections_per_kfetch",
            ratio(cache.rejections as f64, kfetch),
        ),
        ("core.packages_built", storage.package_reads as f64),
        (
            "core.package_kib_mean",
            ratio(kib(storage.package_bytes), storage.package_reads as f64),
        ),
        (
            "storage.reads_per_fetch",
            ratio(storage.total_reads() as f64, req),
        ),
        (
            "storage.package_read_share",
            ratio(storage.package_reads as f64, storage.total_reads() as f64),
        ),
        (
            "storage.sim_service_ms_per_read",
            ratio(
                storage.service_time.as_millis_f64(),
                storage.total_reads() as f64,
            ),
        ),
    ]);
    if let (Some(h), Some(l)) = (obs.gauge("cache.h_capacity"), obs.gauge("cache.l_capacity")) {
        out.push(("core.h_capacity_share", ratio(h, h + l)));
    }
}

/// What the program's `Obs` recorded, and what reading it costs.
fn obs_facts(obs: &Obs, mode: ObsMode, out: &mut Facts) {
    if mode != ObsMode::Live {
        return;
    }
    let emitted = obs.trace_emitted() as f64;
    out.push(("obs.trace_events", emitted));
    out.push((
        "obs.trace_dropped_share",
        ratio(obs.trace_dropped() as f64, emitted),
    ));
    let t0 = Instant::now();
    let rendered = obs.metrics_snapshot().to_string();
    out.push(("obs.snapshot_ms", t0.elapsed().as_secs_f64() * 1e3));
    black_box(rendered);
}

fn conservation(label: &str, cache: &CacheStats, fetches: u64, failures: &mut Vec<String>) {
    if cache.requests() != fetches {
        failures.push(format!(
            "{label}: h_hits+l_hits+pm_hits+substitutions+misses = {} but {fetches} fetches were attempted",
            cache.requests()
        ));
    }
}

fn bad_fetch_failure(label: &str, bad: u64, failures: &mut Vec<String>) {
    if bad > 0 {
        failures.push(format!(
            "{label}: {bad} fetches broke ready_at >= now, served_id in the universe, or served_id == requested unless substituted"
        ));
    }
}

// ---------------------------------------------------------------------
// Repetition bodies.
// ---------------------------------------------------------------------

struct Keys {
    rep: Key,
    step: Key,
    run_multi_job: Key,
    report_render: Key,
    loader_pass: Key,
    join_wait: Key,
}

fn keys() -> Keys {
    Keys {
        rep: trace::key("bench", "rep", Kind::Plain),
        step: trace::key("sim", "step", Kind::Request),
        run_multi_job: trace::key("sim", "run_multi_job", Kind::Plain),
        report_render: trace::key("sim", "report_render", Kind::Plain),
        loader_pass: trace::key("bench", "loader_pass", Kind::Plain),
        join_wait: trace::key(JOIN_WAIT.0, JOIN_WAIT.1, Kind::Plain),
    }
}

/// The span the main thread's wait for its loaders is filed under: idle
/// time, which the shares of work leave out.
pub const JOIN_WAIT: (&str, &str) = ("bench", "join_wait");

/// What `run_single_job_with_obs` does, with the stepping loop in the
/// harness so each step can be a span.
fn drive_job(
    config: JobConfig,
    cache: &mut dyn CacheSystem,
    storage: &mut dyn StorageBackend,
    obs: &Obs,
    step: Option<Key>,
) -> Res<(RunMetrics, u64)> {
    cache.set_obs(obs.clone());
    storage.set_obs(obs.clone());
    let system = cache.name().to_string();
    let mut job = TrainingJob::new(config).map_err(err)?;
    job.set_obs(obs.clone());
    let mut steps = 0u64;
    match step {
        None => {
            while job.step(cache, storage) {
                steps += 1;
            }
        }
        Some(key) => {
            while trace::span(key, || job.step(cache, storage)) {
                steps += 1;
            }
        }
    }
    Ok((job.into_metrics(&system), steps + 1))
}

/// Steady-state metrics of a job-driven run, read from rank 0 as the
/// CLI does; the counter deltas are the shared cache's over rank 0's
/// epochs.
fn job_sim_metrics(run: &RunMetrics) -> SimMetrics {
    let tail = if run.epochs.len() > 1 {
        &run.epochs[1..]
    } else {
        &run.epochs[..]
    };
    let mut cache = CacheStats::default();
    let mut storage = StorageStats::default();
    for e in tail {
        cache.h_hits += e.cache.h_hits;
        cache.l_hits += e.cache.l_hits;
        cache.pm_hits += e.cache.pm_hits;
        cache.substitutions += e.cache.substitutions;
        cache.misses += e.cache.misses;
        storage.sample_reads += e.storage.sample_reads;
        storage.package_reads += e.storage.package_reads;
        storage.sample_bytes += e.storage.sample_bytes;
        storage.package_bytes += e.storage.package_bytes;
    }
    steady(
        &cache,
        &storage,
        run.avg_epoch_time_steady().as_secs_f64(),
        run.avg_stall_time_steady().as_secs_f64(),
        run.avg_hit_ratio_steady(),
    )
}

fn run_train(scenario: &Scenario, mode: ObsMode, traced: bool) -> Res<Rep> {
    let universe = scenario.dataset_ref().len();
    let obs = mode.build();
    let k = keys();
    let mut cache = scenario.build_cache().map_err(err)?;
    let mut storage = scenario.build_storage().map_err(err)?;
    let mut failures = Vec::new();
    let t0 = Instant::now();
    let (run, steps, recording) = if traced {
        let mut tc = Timed::cache(cache, "core", universe);
        let mut ts = Timed::storage(storage);
        trace::enter(k.rep);
        let driven = drive_job(
            scenario.job_config(JOB),
            &mut tc,
            &mut ts,
            &obs,
            Some(k.step),
        );
        trace::exit();
        let (run, steps) = driven?;
        bad_fetch_failure("train", tc.bad_fetches(), &mut failures);
        cache = tc.inner;
        storage = ts.inner;
        (run, steps, Some(trace::take()))
    } else {
        let (run, steps) = drive_job(
            scenario.job_config(JOB),
            cache.as_mut(),
            storage.as_mut(),
            &obs,
            None,
        )?;
        (run, steps, None)
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let fetches: u64 = run.epochs.iter().map(|e| e.samples_fetched).sum();
    let stats = cache.stats();
    conservation("train", &stats, fetches, &mut failures);
    let mut layer = vec![
        ("sim.steps", steps as f64),
        (
            "sim.fetch_p99_ms",
            run.epochs
                .last()
                .map_or(0.0, |e| e.fetch_p99.as_millis_f64()),
        ),
        ("dnn.top1_final_pct", run.final_top1()),
    ];
    counter_facts(&stats, &storage.stats(), &obs, &mut layer);
    obs_facts(&obs, mode, &mut layer);
    Ok(Rep {
        wall_ns,
        fetches,
        sim: job_sim_metrics(&run),
        layer,
        failures,
        recording,
    })
}

fn run_cluster(scenario: &Scenario, mode: ObsMode, traced: bool) -> Res<Rep> {
    let dataset = scenario.dataset_ref();
    let obs = mode.build();
    let k = keys();
    let config = ServiceConfig::for_dataset(dataset, CLUSTER_NODES, 0.2).map_err(err)?;
    let mut service = Box::new(CacheService::new(config, dataset).map_err(err)?);
    let mut storage = scenario.build_storage().map_err(err)?;
    let configs = |scenario: &Scenario| -> Vec<JobConfig> {
        (0..CLUSTER_NODES as u32)
            .map(|rank| {
                let mut cfg = scenario.job_config(JobId(rank));
                cfg.shard = Some((rank, CLUSTER_NODES as u32));
                // Shards share one epoch plan: same seed on every rank.
                cfg.seed = scenario.job_config(JOB).seed;
                cfg
            })
            .collect()
    };
    // What `icache_sim --nodes 4 --json --trace` renders after the run.
    let render = |runs: &[RunMetrics], obs: &Obs| {
        let summary = report::run_summary_distributed(runs, obs, CLUSTER_NODES).to_string();
        let events = obs.trace_jsonl();
        black_box(summary.len() + events.len());
    };
    let mut failures = Vec::new();
    let t0 = Instant::now();
    let (runs, recording) = if traced {
        let mut tc = Timed::cache(service, "core.service", dataset.len());
        let mut ts = Timed::storage(storage);
        trace::enter(k.rep);
        let runs = trace::span(k.run_multi_job, || {
            run_multi_job_with_obs(configs(scenario), &mut tc, &mut ts, &obs)
        });
        if let Ok(runs) = &runs {
            trace::span(k.report_render, || render(runs, &obs));
        }
        trace::exit();
        bad_fetch_failure("cluster", tc.bad_fetches(), &mut failures);
        service = tc.inner;
        storage = ts.inner;
        (runs.map_err(err)?, Some(trace::take()))
    } else {
        let runs =
            run_multi_job_with_obs(configs(scenario), service.as_mut(), storage.as_mut(), &obs)
                .map_err(err)?;
        render(&runs, &obs);
        (runs, None)
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let fetches: u64 = runs
        .iter()
        .flat_map(|r| r.epochs.iter())
        .map(|e| e.samples_fetched)
        .sum();
    let stats = service.stats();
    conservation("cluster", &stats, fetches, &mut failures);
    let node = |suffix: &str| -> u64 {
        (0..CLUSTER_NODES)
            .map(|i| obs.counter(&format!("dist.node{i}.{suffix}")))
            .sum()
    };
    let (local, remote, from_storage) = (
        node("local_hits"),
        node("remote_hits"),
        node("storage_fetches"),
    );
    if local + remote + from_storage != fetches {
        failures.push(format!(
            "cluster: sum of dist.node{{i}}.* = {} but {fetches} fetches were attempted",
            local + remote + from_storage
        ));
    }
    let f = fetches as f64;
    let mut layer = vec![
        (
            "sim.fetch_p99_ms",
            runs[0]
                .epochs
                .last()
                .map_or(0.0, |e| e.fetch_p99.as_millis_f64()),
        ),
        ("dnn.top1_final_pct", runs[0].final_top1()),
        ("core.service.local_share", ratio(local as f64, f)),
        ("core.service.remote_share", ratio(remote as f64, f)),
        ("core.service.storage_share", ratio(from_storage as f64, f)),
        (
            "core.service.net_msgs_per_fetch",
            ratio(obs.counter("svc.net.sent") as f64, f),
        ),
        (
            "core.service.dir_lookups_per_fetch",
            ratio(obs.counter("dist.directory.lookups") as f64, f),
        ),
    ];
    counter_facts(&stats, &storage.stats(), &obs, &mut layer);
    obs_facts(&obs, mode, &mut layer);
    Ok(Rep {
        wall_ns,
        fetches,
        sim: job_sim_metrics(&runs[0]),
        layer,
        failures,
        recording,
    })
}

/// Counter marks at a pass boundary.
#[derive(Clone, Copy)]
struct Mark {
    cache: CacheStats,
    storage: StorageStats,
    now: SimTime,
}

fn steady_from_marks(first: &Mark, last: &Mark, passes_between: u32) -> SimMetrics {
    let cache = last.cache.delta_since(&first.cache);
    let storage = last.storage.delta_since(&first.storage);
    let per_pass =
        last.now.saturating_since(first.now).as_secs_f64() / passes_between.max(1) as f64;
    // A replay has no compute to overlap with: the whole pass is stall.
    steady(&cache, &storage, per_pass, per_pass, cache.hit_ratio())
}

/// The benchmark's own sequential replay loop: back to back, each
/// access submitted when the previous one completes, the epoch hooks
/// around every pass.
fn replay_passes(
    inp: &ReplayInputs,
    cache: &mut dyn CacheSystem,
    storage: &mut dyn StorageBackend,
    obs: &Obs,
) -> (Mark, Mark) {
    cache.set_obs(obs.clone());
    storage.set_obs(obs.clone());
    let mut now = SimTime::ZERO;
    let mut after_first = None;
    for pass in 0..inp.passes {
        // The client's periodic H-list push (§III-A), then the epoch.
        cache.update_hlist(JOB, &inp.hlist);
        cache.on_epoch_start(JOB, Epoch(pass));
        for a in inp.pass(pass) {
            // The clock only moves forward, so the storage model may
            // retire bookings from the virtual past.
            storage.release_before(now);
            now = cache.fetch(JOB, a.id, a.size, now, storage).ready_at;
        }
        cache.on_epoch_end(JOB, Epoch(pass));
        after_first.get_or_insert(Mark {
            cache: cache.stats(),
            storage: storage.stats(),
            now,
        });
    }
    let last = Mark {
        cache: cache.stats(),
        storage: storage.stats(),
        now,
    };
    (after_first.unwrap_or(last), last)
}

/// A policy of the replay lineup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Icache,
    Lru,
    CoorDl,
    Ilfu,
    Quiver,
}

fn icache_config(inp: &ReplayInputs) -> Res<IcacheConfig> {
    let mut cfg = IcacheConfig::for_dataset(&inp.dataset, inp.cache_frac).map_err(err)?;
    cfg.seed = inp.seed;
    Ok(cfg)
}

fn build_policy(policy: Policy, inp: &ReplayInputs) -> Res<Box<dyn CacheSystem + Send>> {
    let cap = inp.dataset.total_bytes().scaled(inp.cache_frac);
    Ok(match policy {
        Policy::Icache => {
            Box::new(IcacheManager::new(icache_config(inp)?, &inp.dataset).map_err(err)?)
        }
        Policy::Lru => Box::new(LruCache::new(cap)),
        Policy::CoorDl => Box::new(MinIoCache::new(cap)),
        Policy::Ilfu => Box::new(IlfuCache::new(cap)),
        Policy::Quiver => Box::new(QuiverCache::new(&inp.dataset, cap, inp.seed).map_err(err)?),
    })
}

fn run_replay(inp: &ReplayInputs, policy: Policy, mode: ObsMode, traced: bool) -> Res<Rep> {
    let obs = mode.build();
    let k = keys();
    let mut cache = build_policy(policy, inp)?;
    let mut storage = StorageKind::OrangeFs.build().map_err(err)?;
    let mut failures = Vec::new();
    let t0 = Instant::now();
    let (marks, recording) = if traced {
        let mut tc = Timed::cache(cache, "core", inp.dataset.len());
        let mut ts = Timed::storage(storage);
        trace::enter(k.rep);
        let marks = replay_passes(inp, &mut tc, &mut ts, &obs);
        trace::exit();
        bad_fetch_failure("replay", tc.bad_fetches(), &mut failures);
        cache = tc.inner;
        storage = ts.inner;
        (marks, Some(trace::take()))
    } else {
        (
            replay_passes(inp, cache.as_mut(), storage.as_mut(), &obs),
            None,
        )
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let fetches = inp.fetches();
    let stats = cache.stats();
    conservation("replay", &stats, fetches, &mut failures);
    let mut layer = Vec::new();
    counter_facts(&stats, &storage.stats(), &obs, &mut layer);
    obs_facts(&obs, mode, &mut layer);
    Ok(Rep {
        wall_ns,
        fetches,
        sim: steady_from_marks(&marks.0, &marks.1, inp.passes - 1),
        layer,
        failures,
        recording,
    })
}

/// Which shared cache the loader threads fetch from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shared {
    /// The lock-striped `ConcurrentManager`.
    Striped { stripes: usize },
    /// An LRU behind one coarse lock: the contention baseline.
    MutexLru,
}

/// One loader thread's private state, as `replay_concurrent` gives each
/// thread: its own storage model, RNG stream and virtual clock.
struct Loader<S> {
    storage: S,
    rng: StdRng,
    now: SimTime,
}

fn loader_pass<S: StorageBackend>(
    cache: &dyn ConcurrentCache,
    loader: &mut Loader<S>,
    shard: &[Access],
    span: Option<Key>,
) -> (u64, Option<Recording>) {
    let t0 = Instant::now();
    if let Some(key) = span {
        trace::enter(key);
    }
    for a in shard {
        loader.storage.release_before(loader.now);
        loader.now = cache
            .fetch(
                JOB,
                a.id,
                a.size,
                loader.now,
                &mut loader.storage,
                &mut loader.rng,
            )
            .ready_at;
    }
    let recording = span.map(|_| {
        trace::exit();
        trace::take()
    });
    (t0.elapsed().as_nanos() as u64, recording)
}

/// What the pass loop of [`loaders_body`] measured.
struct LoadersOutcome {
    wall_ns: u64,
    /// Sum over passes of the slowest loader's busy time.
    busy_max_ns: u64,
    /// Per pass, (slowest − fastest) ÷ slowest loader.
    imbalance: Vec<f64>,
    first: Mark,
    last: Mark,
    failures: Vec<String>,
    recording: Recording,
}

/// The benchmark's own concurrent replay loop: each pass hands every
/// scoped loader thread its share of the trace; the threads share one
/// cache; the epoch hooks run on the main thread between passes, and a
/// pass ends in virtual time when its slowest loader does. `decorate`
/// wraps each thread's storage model (identity when untraced).
fn loaders_body<S: StorageBackend + Send>(
    inp: &ReplayInputs,
    cache: &dyn ConcurrentCache,
    shards: &[Vec<Access>],
    obs: &Obs,
    traced: bool,
    decorate: impl Fn(Pfs) -> S,
) -> Res<LoadersOutcome> {
    let k = keys();
    let mut loaders = Vec::new();
    for t in 0..shards.len() {
        // As `replay_concurrent` builds them: no shared Obs handle, so
        // the loaders' storage models share nothing at all.
        let storage = Pfs::new(PfsConfig::orangefs_default()).map_err(err)?;
        loaders.push(Loader {
            storage: decorate(storage),
            rng: SeedSequence::new(inp.seed).rng(&format!("loader{t}")),
            now: SimTime::ZERO,
        });
    }
    let mark = |cache: &dyn ConcurrentCache, loaders: &[Loader<S>], now: SimTime| {
        let mut storage = StorageStats::default();
        for l in loaders {
            let s = l.storage.stats();
            storage.sample_reads += s.sample_reads;
            storage.package_reads += s.package_reads;
            storage.sample_bytes += s.sample_bytes;
            storage.package_bytes += s.package_bytes;
            storage.service_time += s.service_time;
        }
        Mark {
            cache: cache.stats(),
            storage,
            now,
        }
    };
    let mut failures = Vec::new();
    let mut recording = Recording::default();
    let mut busy_max_ns = 0u64;
    let mut imbalance = Vec::new();
    let mut first = None;
    let pass_span = traced.then_some(k.loader_pass);

    let t0 = Instant::now();
    if traced {
        trace::enter(k.rep);
    }
    cache.set_obs(obs.clone());
    let mut now = SimTime::ZERO;
    for pass in 0..inp.passes {
        cache.update_hlist(JOB, &inp.hlist);
        cache.on_epoch_start(JOB, Epoch(pass));
        if traced {
            trace::enter(k.join_wait);
        }
        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = loaders
                .iter_mut()
                .zip(shards)
                .map(|(loader, shard)| {
                    s.spawn(move || loader_pass(cache, loader, shard, pass_span))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        if traced {
            trace::exit();
        }
        let mut busy = Vec::new();
        for (t, result) in joined.into_iter().enumerate() {
            match result {
                Ok((ns, rec)) => {
                    busy.push(ns);
                    if let Some(rec) = rec {
                        recording.merge(rec);
                    }
                }
                Err(_) => failures.push(format!("loaders: thread {t} panicked in pass {pass}")),
            }
        }
        let lo = busy.iter().copied().min().unwrap_or(0);
        let hi = busy.iter().copied().max().unwrap_or(0);
        busy_max_ns += hi;
        imbalance.push(ratio((hi - lo) as f64, hi as f64));
        // The pass ends when its slowest loader does.
        now = loaders.iter().map(|l| l.now).max().unwrap_or(now);
        for l in &mut loaders {
            l.now = now;
        }
        cache.on_epoch_end(JOB, Epoch(pass));
        first.get_or_insert_with(|| mark(cache, &loaders, now));
    }
    if traced {
        trace::exit();
        let mut main = trace::take();
        main.merge(recording);
        recording = main;
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let last = mark(cache, &loaders, now);
    Ok(LoadersOutcome {
        wall_ns,
        busy_max_ns,
        imbalance,
        first: first.unwrap_or(last),
        last,
        failures,
        recording,
    })
}

fn run_loaders(
    inp: &ReplayInputs,
    shared: Shared,
    threads: usize,
    mode: ObsMode,
    traced: bool,
) -> Res<Rep> {
    let obs = mode.build();
    let built: Box<dyn ConcurrentCache> = match shared {
        Shared::Striped { stripes } => Box::new(
            ConcurrentManager::new(icache_config(inp)?, &inp.dataset, stripes).map_err(err)?,
        ),
        Shared::MutexLru => Box::new(MutexCache::new(build_policy(Policy::Lru, inp)?)),
    };
    let shards: &[Vec<Access>] = if threads == 1 {
        std::slice::from_ref(&inp.accesses)
    } else {
        assert_eq!(
            threads,
            inp.shards.len(),
            "inputs were dealt for other threads"
        );
        &inp.shards
    };
    let (mut out, cache) = if traced {
        let timed = Timed::cache(built, "core.concurrent", inp.dataset.len());
        let mut out = loaders_body(inp, &timed, shards, &obs, true, Timed::storage)?;
        bad_fetch_failure("loaders", timed.bad_fetches(), &mut out.failures);
        (out, timed.inner)
    } else {
        let out = loaders_body(inp, built.as_ref(), shards, &obs, false, |pfs| pfs)?;
        (out, built)
    };
    let fetches = inp.fetches();
    if out.failures.is_empty() {
        conservation("loaders", &out.last.cache, fetches, &mut out.failures);
    }
    let mut layer = vec![
        (
            "core.concurrent.contended_per_kfetch",
            ratio(cache.contended() as f64, fetches as f64 / 1e3),
        ),
        (
            "core.concurrent.thread_imbalance",
            ratio(out.imbalance.iter().sum(), out.imbalance.len() as f64),
        ),
        (
            "core.concurrent.barrier_ms",
            out.wall_ns.saturating_sub(out.busy_max_ns) as f64 / 1e6,
        ),
    ];
    counter_facts(&out.last.cache, &out.last.storage, &obs, &mut layer);
    obs_facts(&obs, mode, &mut layer);
    Ok(Rep {
        wall_ns: out.wall_ns,
        fetches,
        sim: steady_from_marks(&out.first, &out.last, inp.passes - 1),
        layer,
        failures: out.failures,
        recording: traced.then_some(out.recording),
    })
}

// ---------------------------------------------------------------------
// Probes: one untraced repetition of a variant, or a timed loop over a
// single layer's public function at the workload's size.
// ---------------------------------------------------------------------

/// Nanoseconds per call of `f` over `n` calls.
fn time_loop(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    ratio(t0.elapsed().as_nanos() as f64, n as f64)
}

/// Milliseconds of one call of `f`, the median of three.
fn time_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut ms: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("elapsed time is a number"));
    ms[1]
}

/// Loops over single layers, sized to a dataset of `universe` samples
/// whose sizes follow `dataset`'s model.
fn isolated_probes(dataset: &Dataset, seed: u64, out: &mut Facts) -> Res<()> {
    let universe = dataset.len();
    let seq = SeedSequence::new(seed).child("probe");
    const CALLS: u64 = 1_000_000;
    let id = |i: u64| SampleId(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % universe);

    // sampling: a table with every loss observed once.
    let mut table = ImportanceTable::new(universe);
    let mut losses = LossModel::new(universe, LossModelConfig::default(), seq.seed("loss"));
    out.push((
        "dnn.loss_observe_ns",
        time_loop(CALLS, |i| {
            black_box(losses.observe(id(i)));
        }),
    ));
    for i in 0..universe {
        table.record_loss(SampleId(i), losses.observe(SampleId(i)));
    }
    out.push((
        "sampling.record_loss_ns",
        time_loop(CALLS, |i| table.record_loss(id(i), 1.0 + (i % 7) as f64)),
    ));
    let mut selector = IisSelector::new(0.7).map_err(err)?;
    let mut rng = seq.rng("selector");
    out.push((
        "sampling.plan_epoch_ms",
        time_ms(|| selector.plan_epoch(&table, Epoch(1), &mut rng).len()),
    ));
    out.push((
        "sampling.hlist_top_fraction_ms",
        time_ms(|| HList::top_fraction(&table, 0.5).len()),
    ));

    // obs and types: the per-fetch bookkeeping calls.
    let obs = Obs::new();
    out.push(("obs.inc_ns", time_loop(CALLS, |_| obs.inc("cache.h_hits"))));
    out.push((
        "obs.observe_ns",
        time_loop(CALLS, |i| {
            obs.observe("cache.fetch", SimDuration::from_nanos(1_000 + i % 4_096))
        }),
    ));
    let mut hist = LatencyHistogram::new();
    out.push((
        "types.hist_record_ns",
        time_loop(CALLS, |i| {
            hist.record(SimDuration::from_nanos(1_000 + i % 4_096))
        }),
    ));
    black_box(hist.count());
    out.push((
        "types.dataset_build_ms",
        time_ms(|| {
            DatasetBuilder::new("probe", universe)
                .size_model(dataset.size_model())
                .seed(seq.seed("dataset"))
                .build()
                .map(|d| d.total_bytes())
        }),
    ));

    // storage: the PFS queueing model alone. Monotone is the replay
    // regime (each read submitted when the last completes, the past
    // retired); out-of-order is the prefetch pump's (a window of reads
    // submitted at one instant, nothing ever retired).
    const READS: u64 = 200_000;
    let size = dataset.mean_sample_size();
    let mut pfs = Pfs::new(PfsConfig::orangefs_default()).map_err(err)?;
    let mut now = SimTime::ZERO;
    out.push((
        "storage.pfs.read_sample_ns_mono",
        time_loop(READS, |i| {
            pfs.release_before(now);
            now = pfs.read_sample(id(i), size, now);
        }),
    ));
    let mut pfs = Pfs::new(PfsConfig::orangefs_default()).map_err(err)?;
    let mut window_start = SimTime::ZERO;
    let mut window_end = SimTime::ZERO;
    out.push((
        "storage.pfs.read_sample_ns_ooo",
        time_loop(READS, |i| {
            if i % 8 == 0 {
                window_start = window_end;
            }
            window_end = window_end.max(pfs.read_sample(id(i), size, window_start));
        }),
    ));
    Ok(())
}

/// `train-1node` with the clairvoyant prefetcher at depth 8.
fn prefetch_probe(scenario: &Scenario, out: &mut Facts) -> Res<()> {
    let scenario = scenario.clone().prefetch_depth(8);
    let obs = Obs::noop();
    let mut cache = scenario.build_cache().map_err(err)?;
    let mut storage = scenario.build_storage().map_err(err)?;
    let t0 = Instant::now();
    let (run, _) = drive_job(
        scenario.job_config(JOB),
        cache.as_mut(),
        storage.as_mut(),
        &obs,
        None,
    )?;
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let fetches: u64 = run.epochs.iter().map(|e| e.samples_fetched).sum();
    let (hits, late) = (obs.counter("prefetch.hits"), obs.counter("prefetch.late"));
    out.extend([
        (
            "core.prefetch.ns_per_fetch_d8",
            ratio(wall_ns, fetches as f64),
        ),
        (
            "core.prefetch.sim_stall_s_d8",
            run.avg_stall_time_steady().as_secs_f64(),
        ),
        (
            "core.prefetch.late_share_d8",
            ratio(late as f64, (hits + late) as f64),
        ),
    ]);
    Ok(())
}

/// The service's churn path at a fiftieth of ImageNet: node 1 killed in
/// epoch 1, rejoining warm from its recovery index.
fn churn_probe(seed: u64, out: &mut Facts) -> Res<()> {
    let scenario = Scenario::imagenet(SystemKind::Icache)
        .scale_dataset(0.02)
        .map_err(err)?
        .epochs(4)
        .seed(seed);
    let obs = Obs::new();
    let t0 = Instant::now();
    let (runs, _service) = scenario
        .run_distributed_churn_with_obs(
            CLUSTER_NODES as u32,
            &ChurnSpec::kill_and_rejoin(1, 1),
            &obs,
        )
        .map_err(err)?;
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let fetches: u64 = runs
        .iter()
        .flat_map(|r| r.epochs.iter())
        .map(|e| e.samples_fetched)
        .sum();
    out.extend([
        (
            "core.service.churn_ns_per_fetch",
            ratio(wall_ns, fetches as f64),
        ),
        (
            "core.service.recovery_index_writes",
            obs.counter("svc.recovery.index_writes") as f64,
        ),
        (
            "core.service.recovery_mib",
            obs.counter("svc.recovery.bytes") as f64 / (1024.0 * 1024.0),
        ),
    ]);
    Ok(())
}

impl Prepared {
    /// The `Obs` the workload's CLI path runs with.
    pub fn default_obs(&self) -> ObsMode {
        match self.shape {
            // `Scenario::run`, the fig08 path, installs `Obs::noop()`.
            Shape::Train => ObsMode::Noop,
            _ => ObsMode::Live,
        }
    }

    /// Threads that issue fetches.
    pub fn threads(&self) -> usize {
        self.shape.threads()
    }

    /// Whether the simulated metrics repeat to the bit.
    pub fn deterministic(&self) -> bool {
        self.threads() == 1
    }

    fn dataset(&self) -> &Dataset {
        match &self.inputs {
            Inputs::Train(s) | Inputs::Cluster(s) => s.dataset_ref(),
            Inputs::Replay(inp) => &inp.dataset,
        }
    }

    /// One repetition from a cold cache: build cache and storage, then
    /// time the run.
    pub fn run(&self, mode: ObsMode, traced: bool) -> Res<Rep> {
        match (&self.inputs, self.shape) {
            (Inputs::Train(s), _) => run_train(s, mode, traced),
            (Inputs::Cluster(s), _) => run_cluster(s, mode, traced),
            (Inputs::Replay(inp), Shape::Loaders) => run_loaders(
                inp,
                Shared::Striped {
                    stripes: inp.stripes,
                },
                LOADER_THREADS,
                mode,
                traced,
            ),
            (Inputs::Replay(inp), _) => run_replay(inp, Policy::Icache, mode, traced),
        }
    }

    /// The per-layer numbers that need runs of their own: variants of
    /// the workload (one untraced repetition each) and the isolated
    /// loops. `host_ns_per_fetch` is the workload's own untraced median.
    pub fn probes(&self, host_ns_per_fetch: f64) -> Res<Facts> {
        let mut out = Facts::new();
        let seed = match &self.inputs {
            Inputs::Replay(inp) => inp.seed,
            Inputs::Train(s) | Inputs::Cluster(s) => s.job_config(JOB).seed,
        };
        match (&self.inputs, self.shape) {
            (Inputs::Train(s), _) => prefetch_probe(s, &mut out)?,
            (Inputs::Cluster(_), _) => churn_probe(seed, &mut out)?,
            (Inputs::Replay(inp), Shape::ReplayHot) => {
                out.push(("sim.tracegen_ms", inp.tracegen_ms));
                // An epoch is one pass over the dataset: Quiver refills
                // its substitution pool at epoch start and crawls once
                // it is drained, so the per-policy rows replay a
                // dataset-sized slice of the trace per pass.
                let epoch_sized = inp.truncated(inp.dataset.len() as usize);
                for (policy, ns, hits) in [
                    (
                        Policy::Lru,
                        "baselines.lru.ns_per_fetch",
                        "baselines.lru.hit_ratio",
                    ),
                    (
                        Policy::CoorDl,
                        "baselines.coordl.ns_per_fetch",
                        "baselines.coordl.hit_ratio",
                    ),
                    (
                        Policy::Ilfu,
                        "baselines.ilfu.ns_per_fetch",
                        "baselines.ilfu.hit_ratio",
                    ),
                    (
                        Policy::Quiver,
                        "baselines.quiver.ns_per_fetch",
                        "baselines.quiver.hit_ratio",
                    ),
                ] {
                    let rep = run_replay(&epoch_sized, policy, ObsMode::Live, false)?;
                    out.push((ns, rep.ns_per_fetch()));
                    out.push((hits, rep.sim.hit_ratio));
                }
            }
            (Inputs::Replay(inp), Shape::Loaders) => {
                out.push(("sim.tracegen_ms", inp.tracegen_ms));
                let stripes = inp.stripes;
                let one = run_loaders(inp, Shared::Striped { stripes }, 1, ObsMode::Live, false)?;
                out.push(("core.concurrent.ns_per_fetch_1t", one.ns_per_fetch()));
                out.push((
                    "core.concurrent.speedup_2t",
                    ratio(one.ns_per_fetch(), host_ns_per_fetch),
                ));
                let coarse =
                    run_loaders(inp, Shared::MutexLru, LOADER_THREADS, ObsMode::Live, false)?;
                out.push((
                    "core.concurrent.mutex_lru_ns_per_fetch_2t",
                    coarse.ns_per_fetch(),
                ));
                // The sequential manager is the reference the striped
                // one is held to: same trace, one thread, one stripe.
                let reference = run_replay(inp, Policy::Icache, ObsMode::Live, false)?;
                let single =
                    run_loaders(inp, Shared::Striped { stripes: 1 }, 1, ObsMode::Live, false)?;
                out.push((
                    "core.concurrent.hit_ratio_gap_1t",
                    reference.sim.hit_ratio - single.sim.hit_ratio,
                ));
            }
            (Inputs::Replay(inp), _) => out.push(("sim.tracegen_ms", inp.tracegen_ms)),
        }
        isolated_probes(self.dataset(), seed, &mut out)?;
        Ok(out)
    }
}
