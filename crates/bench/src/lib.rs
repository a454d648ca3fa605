//! # rdx-bench — shared pieces of the figure-reproduction harness
//!
//! The `figures` binary (one subcommand per table/figure of the paper's §4
//! evaluation) and the Criterion benches both build on the helpers here:
//! scale presets, timed single-figure measurement routines and a small
//! fixed-width table printer.
//!
//! Absolute milliseconds will differ from the paper's 2.2 GHz Pentium 4; what
//! the harness reproduces is the *shape* of every figure — who wins, where the
//! knees sit relative to the cache parameters, and by roughly what factor.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod measure;
pub mod scale;
pub mod stats;
pub mod table;

pub use baseline::{Baseline, BaselineMetric, EnvMeta, BASELINE_SCHEMA};
pub use measure::*;
pub use scale::Scale;
pub use stats::{bootstrap_median_ci, classify, BootstrapCi, Comparison, MIN_SAMPLES};
pub use table::Table;
