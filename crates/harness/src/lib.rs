//! # harness — the simulated-cluster experiment harness (§8)
//!
//! The paper's evaluation runs RUBiS on a ten-machine cluster and measures
//! peak throughput as cache size, staleness limit, and consistency mode vary.
//! This crate reproduces those experiments on one machine:
//!
//! * [`SimCluster`] assembles the real components — the `mvdb` database, the
//!   versioned cache nodes, the pincushion, and the TxCache library — on a
//!   shared simulated clock and loads a scaled RUBiS dataset;
//! * the workload runner drives the bidding mix through real transactions,
//!   so hit rates, invalidations, consistency misses, and pin-set behaviour
//!   are all measured, not modelled;
//! * [`CostModel`] converts the measured per-request resource usage into the
//!   peak throughput of the paper's cluster (database-bound unless caching
//!   shifts the bottleneck), which is what Figures 5 and 7 plot.
//!
//! See "Regenerating the paper's figures" in the root README for the
//! experiment-by-experiment index, and the `bench` crate for the binaries
//! that regenerate each figure and table.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod concurrent;
pub mod costmodel;
pub mod experiment;
pub mod history;
pub mod report;

pub use chaos::{
    repro_command, run_chaos_scenario, seed_from_env, ChaosBackend, ChaosOutcome,
    ChaosScenarioConfig, PartitionWindow,
};
pub use concurrent::{run_concurrent, ConcurrentResult, LatencyStats, ThreadReport};
pub use costmodel::{Bottleneck, CostModel, ResourceUsage};
pub use experiment::{run_experiment, DbKind, ExperimentConfig, ExperimentResult, SimCluster};
pub use history::{CheckSummary, CommitRecord, History, ReadRecord, Violation};
pub use report::{
    hit_rate_table, miss_breakdown_table, scalability_table, summary_line, throughput_table,
};
