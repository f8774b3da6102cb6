//! The four workloads. Each stresses different layers, so an optimisation
//! of one layer has a workload that exercises it and one that bypasses it.

mod collect;
mod ingest;
mod query_mix;
mod subscribe;

use crate::harness::{Config, Report};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["ingest", "query_mix", "subscribe", "collect"];

/// Run one workload in this process.
pub fn run(name: &str, cfg: &Config) -> Result<Report, String> {
    match name {
        "ingest" => ingest::run(cfg),
        "query_mix" => query_mix::run(cfg),
        "subscribe" => subscribe::run(cfg),
        "collect" => collect::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}
