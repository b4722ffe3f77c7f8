//! Steady-state allocation audit for the plan/execute engine.
//!
//! Each executor counts its own buffer growth, so these tests hold while
//! other tests in the process prepare executors of their own.

use spmm_core::SparseFormat;
use spmm_harness::{run, Backend, SuiteBenchmark, Variant};
use spmm_harness::{Executor, Params, Planner};

fn small_params(format: SparseFormat) -> Params {
    Params {
        matrix: "bcsstk13".into(),
        scale: 0.2,
        k: 16,
        iterations: 3,
        threads: 3,
        format,
        ..Params::default()
    }
}

/// After `prepare`, repeated `execute` calls must not grow any workspace
/// or GPU scratch buffer — the executor's own growth count is unchanged
/// across the steady-state loop for every format × strategy.
#[test]
fn steady_state_executes_allocate_nothing() {
    let cases: Vec<(SparseFormat, Backend, Variant)> = SparseFormat::ALL
        .iter()
        .map(|&f| (f, Backend::Serial, Variant::Normal))
        .chain([
            (SparseFormat::Csr, Backend::Parallel, Variant::Normal),
            (SparseFormat::Csr, Backend::Serial, Variant::Simd),
            (SparseFormat::Csr, Backend::Serial, Variant::Tiled),
            (SparseFormat::Ell, Backend::Parallel, Variant::Tiled),
            (SparseFormat::Csr, Backend::GpuH100, Variant::Normal),
            (SparseFormat::Sell, Backend::GpuH100, Variant::Normal),
            (SparseFormat::Csr, Backend::GpuA100, Variant::Vendor),
        ])
        .collect();

    for (format, backend, variant) in cases {
        let params = Params {
            backend,
            variant,
            ..small_params(format)
        };
        let bench = SuiteBenchmark::from_params(params.clone()).unwrap();
        let plan = Planner::new()
            .plan(bench.properties(), &params)
            .unwrap_or_else(|e| panic!("{format}/{}/{}: {e}", backend.name(), variant.name()));
        let mut exec = Executor::new(plan);
        let b = bench.b().clone();
        exec.prepare(bench.coo(), &b).unwrap();
        exec.execute(&b, &[]).unwrap();

        let before = exec.alloc_bytes();
        assert!(before > 0, "prepare acquired the buffers");
        for _ in 0..3 {
            exec.execute(&b, &[]).unwrap();
        }
        assert_eq!(
            exec.alloc_bytes() - before,
            0,
            "{format}/{}/{} allocated in the steady state",
            backend.name(),
            variant.name()
        );
    }
}

/// The full `run()` loop under `--trace-level full` reports the
/// steady-state allocation delta and fails the run if it is nonzero —
/// this is the same check the CI smoke step relies on.
#[test]
fn run_reports_zero_steady_alloc_under_full_tracing() {
    if !spmm_trace::COMPILED_IN {
        return;
    }
    let params = Params {
        trace_level: spmm_trace::TraceLevel::Full,
        ..small_params(SparseFormat::Bcsr)
    };
    spmm_trace::set_trace_level(spmm_trace::TraceLevel::Full);
    let mut bench = SuiteBenchmark::from_params(params).unwrap();
    let report = run(&mut bench).unwrap();
    spmm_trace::set_trace_level(spmm_trace::TraceLevel::Off);
    assert_eq!(report.steady_alloc_bytes, Some(0));
    assert_eq!(report.verified, Some(true));
}
