//! A seeded end-to-end and per-layer benchmark for the esm engine.
//!
//! Three workloads (see `README.md` beside this crate) each build their
//! engine only through `ShardedEngineServer`, `NetServer`,
//! `RemoteEngine` and `SubscriptionClient`, and drive it only through the
//! `Engine` trait. [`run`] executes one workload and returns what it
//! measured; `main` prints the result line.

pub mod durable_2pc;
pub mod fixture;
pub mod harness;
pub mod large_mixed;
pub mod report;
pub mod socket_small;

use std::path::PathBuf;

pub use report::Outcome;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["large_mixed", "socket_small", "durable_2pc"];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics and spans instead of end-to-end ones.
    pub trace: bool,
    /// Scratch space for durable engines and the trace file.
    pub work_dir: PathBuf,
    /// Small tables and few repetitions, for the benchmark's own tests.
    pub tiny: bool,
}

impl Config {
    /// Load before the measured window (shortened for tiny runs).
    pub fn warmup(&self) -> std::time::Duration {
        if self.tiny {
            std::time::Duration::from_millis(100)
        } else {
            harness::WARMUP
        }
    }
}

/// Run `workload`; `None` when no workload has that name.
pub fn run(workload: &str, cfg: &Config) -> Option<Outcome> {
    let mut out = match workload {
        "large_mixed" => large_mixed::run(cfg),
        "socket_small" => socket_small::run(cfg),
        "durable_2pc" => durable_2pc::run(cfg),
        _ => return None,
    };
    out.end_to_end.insert("ok_frac", out.ok_frac());
    if cfg.trace {
        report::fill_absent_layers(&mut out);
    }
    Some(out)
}
