//! The kernel-support table: which (op × backend × variant) kernels exist
//! and which formats each one covers.
//!
//! [`TABLE`] is the one statement of the suite's kernel grid. Parameter
//! validation ([`crate::params::ParamsBuilder::build`]), planning
//! ([`crate::engine::Planner::plan`]), execution (each row names the
//! [`ExecStrategy`] the executor calls) and the differential-verify
//! combination matrix ([`crate::verifydrv::EngineRunner`]) all read it.
//! `spmm-bench --verify` prints every supported combination, and the test
//! below pins each row to what its entry point actually runs.

use spmm_core::SparseFormat;
use spmm_kernels::optimized::SUPPORTED_K;

use crate::benchmark::{Backend, Op, Variant};
use crate::engine::ExecStrategy;
use crate::errors::HarnessError;
use crate::params::Params;

use SparseFormat as F;

/// The backend classes the table tells apart: every simulated GPU runs
/// the same kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendClass {
    /// Single-threaded CPU.
    Serial,
    /// The CPU thread pool.
    Parallel,
    /// Any simulated GPU.
    Gpu,
}

impl BackendClass {
    /// The class a backend belongs to.
    pub fn of(backend: Backend) -> Self {
        match backend {
            Backend::Serial => BackendClass::Serial,
            Backend::Parallel => BackendClass::Parallel,
            Backend::GpuH100 | Backend::GpuA100 => BackendClass::Gpu,
        }
    }

    /// The backends of this class.
    pub fn backends(self) -> &'static [Backend] {
        match self {
            BackendClass::Serial => &[Backend::Serial],
            BackendClass::Parallel => &[Backend::Parallel],
            BackendClass::Gpu => &[Backend::GpuH100, Backend::GpuA100],
        }
    }
}

/// One runnable kernel family: its key, its entry point and the facts
/// the rest of the harness needs about it.
#[derive(Debug)]
pub struct Capability {
    /// Operation.
    pub op: Op,
    /// Backend class.
    pub backend: BackendClass,
    /// Kernel variant.
    pub variant: Variant,
    /// The entry point the executor calls.
    pub strategy: ExecStrategy,
    /// The formats the entry point has a kernel for.
    pub formats: &'static [SparseFormat],
    /// The `k` values a const-`K` kernel is instantiated for (`None`: any).
    pub fixed_k: Option<&'static [usize]>,
    /// Whether the kernel reorders or fuses sums (SIMD lanes, FMA,
    /// unrolled accumulators, thread or GPU reductions), which gives it
    /// the reassociating error budget in the verify oracle.
    pub reassociates: bool,
}

const ALL: &[F] = &F::ALL;
const PAPER: &[F] = &F::PAPER;
const TILED: &[F] = &[F::Csr, F::Ell, F::Bcsr];
const K: Option<&[usize]> = Some(&SUPPORTED_K);

const fn row(
    op: Op,
    backend: BackendClass,
    variant: Variant,
    strategy: ExecStrategy,
    reassociates: bool,
    fixed_k: Option<&'static [usize]>,
    formats: &'static [F],
) -> Capability {
    Capability {
        op,
        backend,
        variant,
        strategy,
        formats,
        fixed_k,
        reassociates,
    }
}

/// Every runnable (op × backend class × variant), one row each. Columns:
/// key, entry point, reassociates, const-`K` values, formats.
#[rustfmt::skip]
pub const TABLE: [Capability; 14] = {
    use BackendClass::{Gpu, Parallel, Serial};
    use ExecStrategy as S;
    use Op::{Spmm, Spmv};
    use Variant::{FixedK, Normal, Simd, Tiled, TransposedB, Vendor};
    [
        row(Spmm, Serial,   Normal,      S::Serial,             false, None, ALL),
        row(Spmm, Parallel, Normal,      S::Parallel,           true,  None, ALL),
        // Study 8: the paper built transposed-B kernels for its four formats.
        // Their scatter fuses with `mul_add`, so even the serial one reassociates.
        row(Spmm, Serial,   TransposedB, S::SerialTransposed,   true,  None, PAPER),
        row(Spmm, Parallel, TransposedB, S::ParallelTransposed, true,  None, PAPER),
        // Study 9: the paper re-ran only the CSR/ELL row loops in parallel.
        row(Spmm, Serial,   FixedK,      S::SerialFixedK,       true,  K,    PAPER),
        row(Spmm, Parallel, FixedK,      S::ParallelFixedK,     true,  K,    &[F::Csr, F::Ell]),
        // The SIMD micro-kernels are serial; the pool reaches them tiled.
        row(Spmm, Serial,   Simd,        S::SerialSimd,         true,  None, &[F::Csr, F::Ell, F::Bcsr, F::Sell]),
        row(Spmm, Serial,   Tiled,       S::SerialTiled,        true,  None, TILED),
        row(Spmm, Parallel, Tiled,       S::ParallelTiled,      true,  None, TILED),
        row(Spmm, Gpu,      Normal,      S::Gpu,                true,  None, &[F::Coo, F::Csr, F::Ell, F::Bcsr, F::Sell]),
        row(Spmm, Gpu,      Vendor,      S::GpuVendor,          true,  None, &[F::Coo, F::Csr]),
        row(Spmv, Serial,   Normal,      S::SpmvSerial,         false, None, PAPER),
        row(Spmv, Parallel, Normal,      S::SpmvParallel,       true,  None, PAPER),
        // SELL's SpMV vectorizes across slice lanes; it has no scalar twin.
        row(Spmv, Serial,   Simd,        S::SpmvSimd,           true,  None, &[F::Csr, F::Sell]),
    ]
};

/// The row for an (op, backend, variant), if that kernel family exists.
pub(crate) fn find(op: Op, backend: Backend, variant: Variant) -> Option<&'static Capability> {
    let class = BackendClass::of(backend);
    TABLE
        .iter()
        .find(|r| r.op == op && r.backend == class && r.variant == variant)
}

/// The row that runs `p`, or why none does: no kernel family for its
/// (op, backend, variant), no kernel for its format, or no const-`K`
/// instantiation for its `k`.
pub(crate) fn lookup(p: &Params) -> Result<&'static Capability, HarnessError> {
    let invalid = |msg: String| Err(HarnessError::InvalidParams(msg));
    let Some(row) = find(p.op, p.backend, p.variant) else {
        return invalid(format!(
            "no {} kernel for the {} variant on the {} backend \
             (`spmm-bench --verify` lists every supported combination)",
            p.op.name(),
            p.variant.name(),
            p.backend.name()
        ));
    };
    if !row.formats.contains(&p.format) {
        let names: Vec<&str> = row.formats.iter().map(|f| f.name()).collect();
        return invalid(format!(
            "the {}/{} {} kernels cover {} only (got {})",
            p.backend.name(),
            p.variant.name(),
            p.op.name(),
            names.join("/"),
            p.format
        ));
    }
    if let Some(ks) = row.fixed_k.filter(|ks| !ks.contains(&p.k)) {
        return invalid(format!(
            "k={} has no fixed-k instantiation (supported: {ks:?})",
            p.k
        ));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_kernel, Executor, Plan, Planner};
    use spmm_core::{max_rel_error, CooMatrix, DenseMatrix};
    use spmm_gpusim::GpuScratch;
    use spmm_kernels::tiled::TileConfig;
    use spmm_kernels::{FormatData, Workspace};

    const BACKENDS: [Backend; 4] = [
        Backend::Serial,
        Backend::Parallel,
        Backend::GpuH100,
        Backend::GpuA100,
    ];
    const VARIANTS: [Variant; 6] = [
        Variant::Normal,
        Variant::TransposedB,
        Variant::FixedK,
        Variant::Simd,
        Variant::Tiled,
        Variant::Vendor,
    ];

    /// One grid cell as a struct literal, the way `e2ebench` builds one.
    fn cell(op: Op, format: F, backend: Backend, variant: Variant, k: usize) -> Params {
        Params {
            op,
            format,
            backend,
            variant,
            k,
            block: 2,
            threads: 3,
            iterations: 1,
            ..Params::default()
        }
    }

    /// The same cell through the builder.
    fn build(p: &Params) -> Result<Params, HarnessError> {
        Params::builder()
            .op(p.op)
            .format(p.format)
            .backend(p.backend)
            .variant(p.variant)
            .k(p.k)
            .block(p.block)
            .threads(p.threads)
            .iterations(p.iterations)
            .build()
    }

    fn refused<T>(r: Result<T, HarnessError>) -> bool {
        matches!(r, Err(HarnessError::InvalidParams(_)))
    }

    /// Whether `row`'s entry point runs on `data`, called directly with
    /// every workspace buffer in place.
    fn entry_point_runs(row: &Capability, p: Params, data: &FormatData<f64>) -> bool {
        let b = DenseMatrix::from_fn(data.cols(), p.k, |i, j| (i + j) as f64);
        let x = vec![1.0; data.cols()];
        let mut ws = Workspace::new();
        ws.acquire_c(data.rows(), p.k);
        ws.acquire_bt(&b);
        ws.acquire_packed(&b, p.k, p.k);
        ws.acquire_y(data.rows());
        let plan = Plan {
            route: Vec::new(),
            tile: Some(TileConfig::for_k(p.k)),
            predicted_mflops: None,
            conversion_s: 0.0,
            strategy: row.strategy,
            params: p,
        };
        run_kernel(&plan, data, &b, &x, &mut ws, &mut GpuScratch::new()).is_ok()
    }

    /// Walks every op × format × backend × variant cell. A cell in the
    /// table plans, executes and matches the reference; a cell outside it
    /// is a typed error from both the builder and the planner; and every
    /// row's entry point runs exactly the formats the row lists.
    #[test]
    fn the_table_is_the_kernel_grid() {
        let mut trips = Vec::new();
        for i in 0..40usize {
            for d in 0..(i % 4 + 1) {
                trips.push((i, (i + d * 11) % 25, 1.0 + (i * d) as f64 * 0.1));
            }
        }
        let coo = CooMatrix::from_triplets(40, 25, &trips).unwrap();
        let props = coo.properties();
        let b = DenseMatrix::from_fn(25, 8, |i, j| ((i + j) % 5) as f64 - 2.0);
        let x: Vec<f64> = (0..25).map(|i| b.get(i, 0)).collect();
        let want_c = coo.spmm_reference_k(&b, 8);
        let want_y = DenseMatrix::from_vec(40, 1, coo.spmv_reference(&x)).unwrap();
        let planner = Planner::new();
        let mut ran = 0;
        let grid = [Op::Spmm, Op::Spmv].into_iter().flat_map(|op| {
            F::ALL.into_iter().flat_map(move |format| {
                BACKENDS.into_iter().flat_map(move |backend| {
                    VARIANTS.map(|variant| cell(op, format, backend, variant, 8))
                })
            })
        });
        for p in grid {
            let label = (p.op, p.format, p.backend, p.variant);
            let family = find(p.op, p.backend, p.variant);
            if let Some(row) = family {
                let data = FormatData::from_coo(p.format, &coo, 2).unwrap();
                let listed = row.formats.contains(&p.format);
                assert_eq!(entry_point_runs(row, p.clone(), &data), listed, "{label:?}");
            }
            let Some(row) = family.filter(|r| r.formats.contains(&p.format)) else {
                assert!(refused(build(&p)), "{label:?}");
                assert!(refused(planner.plan(&props, &p)), "{label:?}");
                continue;
            };
            assert_eq!(build(&p).unwrap(), p, "{label:?}");
            let mut exec = Executor::new(planner.plan(&props, &p).unwrap());
            assert_eq!(exec.plan().strategy, row.strategy, "{label:?}");
            exec.prepare(&coo, &b).unwrap();
            exec.execute(&b, &x).unwrap();
            let err = match p.op {
                Op::Spmm => max_rel_error(exec.result(), &want_c),
                Op::Spmv => max_rel_error(
                    &DenseMatrix::from_vec(40, 1, exec.y().to_vec()).unwrap(),
                    &want_y,
                ),
            };
            assert!(err < 1e-12, "{label:?}: error {err:e}");
            if let Some(ks) = row.fixed_k {
                // A k without an instantiation is refused in both places.
                let bad = Params { k: 9, ..p.clone() };
                assert!(!ks.contains(&9));
                assert!(build(&bad).is_err() && planner.plan(&props, &bad).is_err());
            }
            ran += 1;
        }
        let cells: usize = TABLE
            .iter()
            .map(|r| r.formats.len() * r.backend.backends().len())
            .sum();
        assert_eq!(ran, cells);
    }
}
