//! The repository benchmark.
//!
//! One command runs one named workload in its own process against the
//! public APIs of `serve`, `stream`, `sgns`, `core`, `corpus` and `eval`,
//! checks the answers, and prints one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reruns the measured
//! window with spans around every call the benchmark makes into a layer
//! and reports the per-layer metrics instead. `README.md` in this
//! directory records why each workload exists and which end-to-end
//! metric each per-layer metric should move.

pub mod load;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use report::{Metric, Outcome};
pub use workloads::{run_workload, RunConfig, Scale, Workload};
