//! # perfbench — end-to-end serving benchmark
//!
//! Drives the flat serving stack (`rankengine::QueryEngine` over one
//! `RankingEngine` per method) the way clients do, with inputs generated
//! from a workload seed, checks every answer it samples against a naive
//! oracle, and reports end-to-end and per-layer metrics. See the
//! directory's README for the workloads, metrics and rules.
//!
//! The library holds what the runner and the determinism tests share:
//! the input streams ([`workload`]), the oracle ([`oracle`]), the span
//! recorder ([`trace`]), and small numeric helpers.

#![forbid(unsafe_code)]

pub mod oracle;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workload;
