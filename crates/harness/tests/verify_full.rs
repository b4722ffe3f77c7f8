//! The full differential matrix: every (format × backend × variant ×
//! schedule × op) combination the capability table lists, over both the
//! adversarial and random corpora, routed through the Planner/Executor
//! engine and compared against the Kahan oracle.
//!
//! This is the acceptance run behind `spmm-bench --verify --verify-corpus
//! both`; CI's `verify` job executes the same matrix through the binary.

use spmm_harness::verifydrv::{build_corpus, CorpusKind, EngineRunner};
use spmm_verify::{run_differential, DiffConfig};

#[test]
fn full_matrix_passes_both_corpora() {
    let cases = build_corpus(CorpusKind::Both, 42);
    let mut runner = EngineRunner::default();
    let report = run_differential(&mut runner, &cases, &DiffConfig::default());
    assert!(report.passed(), "{}", report.render());
    // The matrix is actually exercised, not skipped away.
    assert!(
        report.runs() > 1000,
        "suspiciously few runs: {}",
        report.runs()
    );
    // Every op/backend family shows up in the table.
    for needle in [
        "spmm/",
        "spmv/",
        "/omp/",
        "/gpu-h100/",
        "/cusparse/",
        "/tiled/",
    ] {
        assert!(
            report.combos.keys().any(|l| l.contains(needle)),
            "no combination matching {needle}"
        );
    }
}
