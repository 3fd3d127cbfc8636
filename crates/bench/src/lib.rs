//! The experiment suite and the tools built on the simulator.
//!
//! [`experiments::EXPERIMENTS`] is the one registry of the paper's tables
//! and figures (plus the extension studies); the `icache_experiments`
//! binary runs it (see `DESIGN.md` §3 for the index and `EXPERIMENTS.md`
//! for the recorded results). Every experiment prints an aligned table in
//! the paper's layout, `JSON <tag> {...}` lines for machine consumption,
//! and computed `shape check:` verdicts.
//!
//! Runs are scaled down by default so the full suite finishes in under a
//! minute; `icache_experiments` flags unlock larger runs:
//!
//! | Flag | Default | Meaning |
//! |---|---|---|
//! | `--cifar-scale` | `0.1` | Fraction of CIFAR-10 to simulate |
//! | `--imagenet-scale` | `0.01` | Fraction of ImageNet-1K to simulate |
//! | `--perf-epochs` | `4` | Epochs for timing experiments |
//! | `--acc-epochs` | `90` | Epochs for accuracy experiments |
//! | `--seed` | `0x5EED` | Run seed, decimal or `0x`-hex |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod sweep;
pub mod workload;

use icache_sim::{Scenario, SystemKind};
use icache_types::Dataset;

/// Scaling knobs shared by the experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchEnv {
    /// Fraction of CIFAR-10 simulated.
    pub cifar_scale: f64,
    /// Fraction of ImageNet-1K simulated.
    pub imagenet_scale: f64,
    /// Epochs for timing experiments.
    pub perf_epochs: u32,
    /// Epochs for accuracy experiments.
    pub acc_epochs: u32,
    /// Run seed.
    pub seed: u64,
}

impl Default for BenchEnv {
    fn default() -> Self {
        BenchEnv {
            cifar_scale: 0.1,
            imagenet_scale: 0.01,
            perf_epochs: 4,
            acc_epochs: 90,
            seed: 0x5EED,
        }
    }
}

impl BenchEnv {
    /// Read the scaling knobs from `icache_experiments`' flags.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unparseable number, a scale
    /// outside `(0, 1]` (or one that leaves the dataset empty), fewer
    /// than two timing epochs (steady-state averages skip the first) or
    /// zero accuracy epochs.
    pub fn from_args(args: &cli::Args) -> Result<Self, String> {
        let d = BenchEnv::default();
        let env = BenchEnv {
            cifar_scale: args.parsed("cifar-scale", d.cifar_scale)?,
            imagenet_scale: args.parsed("imagenet-scale", d.imagenet_scale)?,
            perf_epochs: args.parsed("perf-epochs", d.perf_epochs)?,
            acc_epochs: args.parsed("acc-epochs", d.acc_epochs)?,
            seed: args.seed("seed", d.seed)?,
        };
        Dataset::cifar10()
            .scaled(env.cifar_scale)
            .map_err(|e| format!("--cifar-scale: {e}"))?;
        Dataset::imagenet_1k()
            .scaled(env.imagenet_scale)
            .map_err(|e| format!("--imagenet-scale: {e}"))?;
        if env.perf_epochs < 2 {
            return Err("--perf-epochs: must be at least 2".into());
        }
        if env.acc_epochs < 1 {
            return Err("--acc-epochs: must be at least 1".into());
        }
        Ok(env)
    }

    /// CIFAR-10 scaled per this environment.
    ///
    /// # Panics
    ///
    /// Panics if `cifar_scale` is out of range ([`BenchEnv::from_args`]
    /// rejects such a value before anything runs).
    pub fn cifar_dataset(&self) -> Dataset {
        Dataset::cifar10()
            .scaled(self.cifar_scale)
            .expect("cifar_scale lies in (0, 1] and keeps at least one sample")
    }

    /// A CIFAR-10 scenario scaled per this environment.
    ///
    /// # Panics
    ///
    /// Panics if `cifar_scale` is out of range.
    pub fn cifar(&self, system: SystemKind) -> Scenario {
        Scenario::cifar10(system)
            .dataset(self.cifar_dataset())
            .seed(self.seed)
    }

    /// An ImageNet scenario scaled per this environment.
    ///
    /// # Panics
    ///
    /// Panics if `imagenet_scale` is out of range.
    pub fn imagenet(&self, system: SystemKind) -> Scenario {
        Scenario::imagenet(system)
            .scale_dataset(self.imagenet_scale)
            .expect("imagenet_scale lies in (0, 1] and keeps at least one sample")
            .seed(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let e = BenchEnv::default();
        assert!(e.cifar_scale > 0.0 && e.cifar_scale <= 1.0);
        assert!(e.perf_epochs >= 2);
        assert!(e.acc_epochs >= 10);
    }

    #[test]
    fn scenarios_build_from_env() {
        let e = BenchEnv::default();
        let s = e.cifar(SystemKind::Icache);
        assert_eq!(s.dataset_ref().len(), 5_000);
        assert_eq!(e.cifar_dataset().len(), 5_000);
        let s = e.imagenet(SystemKind::Default);
        assert_eq!(s.dataset_ref().len(), 12_812);
    }
}
