//! Shared scaffolding for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §3 for the index and `EXPERIMENTS.md` for the
//! recorded results). Binaries print an aligned table in the paper's
//! layout plus `JSON <tag> {...}` lines for machine consumption.
//!
//! Runs are scaled-down by default so the full suite finishes in minutes;
//! environment variables unlock larger runs:
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `ICACHE_CIFAR_SCALE` | `0.1` | Fraction of CIFAR-10 to simulate |
//! | `ICACHE_IMAGENET_SCALE` | `0.01` | Fraction of ImageNet-1K to simulate |
//! | `ICACHE_PERF_EPOCHS` | `4` | Epochs for timing experiments |
//! | `ICACHE_ACC_EPOCHS` | `90` | Epochs for accuracy experiments |
//! | `ICACHE_SEED` | `0x5EED` | Run seed |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod sweep;
pub mod workload;

use icache_sim::{Scenario, SystemKind};

/// Scaling knobs shared by the experiment binaries.
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

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl BenchEnv {
    /// Read the scaling knobs from the environment.
    pub fn from_env() -> Self {
        let d = BenchEnv::default();
        BenchEnv {
            cifar_scale: env_f64("ICACHE_CIFAR_SCALE", d.cifar_scale),
            imagenet_scale: env_f64("ICACHE_IMAGENET_SCALE", d.imagenet_scale),
            perf_epochs: env_u64("ICACHE_PERF_EPOCHS", d.perf_epochs as u64) as u32,
            acc_epochs: env_u64("ICACHE_ACC_EPOCHS", d.acc_epochs as u64) as u32,
            seed: env_u64("ICACHE_SEED", d.seed),
        }
    }

    /// A CIFAR-10 scenario scaled per this environment.
    ///
    /// # Panics
    ///
    /// Panics if the configured scale is out of range (user error in the
    /// environment variables).
    pub fn cifar(&self, system: SystemKind) -> Scenario {
        Scenario::cifar10(system)
            .scale_dataset(self.cifar_scale)
            .expect("ICACHE_CIFAR_SCALE out of range")
            .seed(self.seed)
    }

    /// An ImageNet scenario scaled per this environment.
    ///
    /// # Panics
    ///
    /// Panics if the configured scale is out of range.
    pub fn imagenet(&self, system: SystemKind) -> Scenario {
        Scenario::imagenet(system)
            .scale_dataset(self.imagenet_scale)
            .expect("ICACHE_IMAGENET_SCALE out of range")
            .seed(self.seed)
    }
}

/// Print the standard experiment banner.
pub fn banner(id: &str, paper_claim: &str, env: &BenchEnv) {
    println!("=== {id} ===");
    println!("paper: {paper_claim}");
    println!(
        "run:   cifar x{}, imagenet x{}, perf {} epochs, acc {} epochs, seed {:#x}",
        env.cifar_scale, env.imagenet_scale, env.perf_epochs, env.acc_epochs, env.seed
    );
    println!();
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
        let s = e.imagenet(SystemKind::Default);
        assert_eq!(s.dataset_ref().len(), 12_812);
    }
}
