//! # spmm-harness
//!
//! The SpMM-Bench benchmark suite (the paper's first contribution).
//!
//! The thesis structures its C++ suite as a core library owning parameter
//! parsing, timing, FLOPS reporting and verification, with one overridable
//! `format()`/`calc()` pair per kernel. This crate reproduces that design:
//!
//! * [`params::Params`] — the suite's command-line flags (`-n`, `-t`,
//!   `-b`, `-k`, thread lists, debug);
//! * [`benchmark`] — the [`benchmark::SpmmBenchmark`] trait mirroring the
//!   C++ class, a concrete [`benchmark::SuiteBenchmark`] covering every
//!   (format × backend × variant) combination, and the timing loop;
//! * [`capability`] — the kernel-support table: every runnable
//!   (op × backend × variant) and the formats it covers, read by
//!   validation, the planner, the executor and the verify matrix;
//! * [`engine`] — the plan/execute split behind the benchmark: a
//!   [`engine::Planner`] that picks conversion route, tile shape and
//!   strategy up front, and an [`engine::Executor`] whose workspace
//!   arenas make the timed loop allocation-free;
//! * [`report`] — FLOPS/MFLOPS/GFLOPS reporting with matrix properties,
//!   CSV and JSON output;
//! * [`errors`] — the typed [`errors::HarnessError`] the whole API speaks;
//! * [`telemetry`] — sinks for the `spmm-trace` observability layer
//!   (chrome://tracing files, metrics JSON blocks);
//! * [`verifydrv`] — the differential-oracle driver behind
//!   `spmm-bench --verify`: a `spmm-verify` [`spmm_verify::CaseRunner`]
//!   implemented over the Planner/Executor pair;
//! * [`chart`] — ASCII bar rendering for the terminal;
//! * [`studies`] — one driver per study of the paper's Chapter 5, each
//!   regenerating the corresponding figure's data series.
//!
//! Two binaries front the library: `spmm-bench` (run one kernel, like the
//! thesis's per-kernel binaries) and `run-studies` (regenerate every
//! table/figure into `results/`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod benchmark;
pub mod capability;
pub mod chart;
pub mod engine;
pub mod errors;
pub mod json;
pub mod params;
pub mod report;
pub mod studies;
pub mod svg;
pub mod telemetry;
pub mod timer;
pub mod verifydrv;

pub use benchmark::{run, Backend, Op, SpmmBenchmark, SuiteBenchmark, Variant};
pub use engine::{ExecStrategy, Executor, Plan, Planner};
pub use errors::HarnessError;
pub use params::{Params, ParamsBuilder};
pub use report::Report;
pub use verifydrv::{run_verify, CorpusKind, EngineRunner};
