//! The plan/execute engine: decide once, run N times.
//!
//! Historically [`crate::benchmark`] interleaved deciding *what* to run
//! (format conversion, kernel selection, scratch shapes) with running it.
//! This module splits the two:
//!
//! * [`Planner`] consults the [`spmm_perfmodel`] machine model and the
//!   [`spmm_core`] conversion graph to build a [`Plan`]: the conversion
//!   route, the execution strategy, the tile shape (when tiling), and the
//!   predicted MFLOPS — all from matrix *statistics*, before any data is
//!   converted.
//! * [`Executor`] owns the buffers: the formatted matrix, a
//!   [`spmm_kernels::Workspace`] arena (output C, SpMV y, transposed B,
//!   packed panels) and the GPU accumulator scratch. `prepare` grows them
//!   once; `execute` runs one timed iteration allocation-free, which the
//!   harness checks through the `workspace.*` metrics when full tracing
//!   is on.
//!
//! [`crate::benchmark::run`] and both binaries drive this pair; studies
//! that benchmark whole (format × kernel) grids reuse the same plan
//! metadata through [`Plan::route_string`].

use spmm_core::convert::{default_edge_cost, route_string};
use spmm_core::{CooMatrix, DenseMatrix, MatrixProperties, MatrixStats, SparseFormat};
use spmm_gpusim::{DeviceProfile, GpuScratch, LaunchStats};
use spmm_kernels::tiled::TileConfig;
use spmm_kernels::{FormatData, Workspace};
use spmm_parallel::global_pool;
use spmm_perfmodel::{
    conversion_seconds, estimate_spmm_mflops, select_tile_shape, simd_speedup, MachineProfile,
    SpmmWorkload,
};

use crate::benchmark::{Op, Variant};
use crate::capability::{self, BackendClass};
use crate::errors::HarnessError;
use crate::params::Params;

/// The kernel entry point the executor calls each iteration: one per row
/// of the [`capability::TABLE`]. CPU strategies name a [`FormatData`]
/// method; the GPU ones the simulator's kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// [`FormatData::spmm_serial`].
    Serial,
    /// [`FormatData::spmm_parallel`].
    Parallel,
    /// [`FormatData::spmm_serial_bt`] against the workspace's transposed B.
    SerialTransposed,
    /// [`FormatData::spmm_parallel_bt`].
    ParallelTransposed,
    /// [`FormatData::spmm_serial_fixed_k`].
    SerialFixedK,
    /// [`FormatData::spmm_parallel_fixed_k`].
    ParallelFixedK,
    /// [`FormatData::spmm_serial_simd`].
    SerialSimd,
    /// [`FormatData::spmm_serial_tiled`] against workspace-packed B panels.
    SerialTiled,
    /// [`FormatData::spmm_parallel_tiled`].
    ParallelTiled,
    /// The simulated GPU's OpenMP-offload kernels.
    Gpu,
    /// The simulated GPU's cuSPARSE-style library kernels.
    GpuVendor,
    /// [`FormatData::spmv_serial`].
    SpmvSerial,
    /// [`FormatData::spmv_parallel`].
    SpmvParallel,
    /// [`FormatData::spmv_serial_simd_at`] at the active SIMD level.
    SpmvSimd,
}

/// Everything decided before the first byte is converted: the route, the
/// strategy, the tile shape and the model's predictions.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The parameters the plan was built for.
    pub params: Params,
    /// Conversion route from COO to the target format, endpoints included.
    pub route: Vec<SparseFormat>,
    /// Tile shape for the tiled strategy (`None` otherwise).
    pub tile: Option<TileConfig>,
    /// Model-predicted MFLOPS for host CPU SpMM strategies.
    pub predicted_mflops: Option<f64>,
    /// Modelled one-core seconds the conversion route costs.
    pub conversion_s: f64,
    /// How the executor will run each iteration.
    pub strategy: ExecStrategy,
}

impl Plan {
    /// The route as `"coo->csr->bcsr"`.
    pub fn route_string(&self) -> String {
        route_string(&self.route)
    }
}

/// Estimated stored slots (padding included) a format keeps for a matrix
/// with these statistics — the planner's stand-in for the real
/// `stored_entries()` it cannot know before converting.
fn estimated_stored_entries(format: SparseFormat, s: &MatrixStats) -> usize {
    match format {
        SparseFormat::Ell => s.rows.saturating_mul(s.max_row_nnz),
        SparseFormat::Sell => (s.nnz as f64 * 1.15) as usize,
        SparseFormat::Bcsr | SparseFormat::Bell => (s.nnz as f64 * 1.5) as usize,
        _ => s.nnz,
    }
}

/// Builds [`Plan`]s from matrix statistics and parameters.
#[derive(Debug, Clone)]
pub struct Planner {
    machine: MachineProfile,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// A planner modelling the local host.
    pub fn new() -> Self {
        Planner {
            machine: MachineProfile::container_host(),
        }
    }

    /// A planner modelling an explicit machine (the studies' Arm/x86
    /// profiles).
    pub fn with_machine(machine: MachineProfile) -> Self {
        Planner { machine }
    }

    /// The machine being modelled.
    pub fn machine(&self) -> &MachineProfile {
        &self.machine
    }

    /// Build the plan for one benchmark: strategy, conversion route, tile
    /// shape and predictions. Fails when the parameter combination has no
    /// row in the [`capability::TABLE`], the table `ParamsBuilder` checks
    /// up front, so struct-built [`Params`] are held to it too.
    pub fn plan(&self, props: &MatrixProperties, params: &Params) -> Result<Plan, HarnessError> {
        let _span = spmm_trace::span!("plan");
        let row = capability::lookup(params)?;

        let stats = MatrixStats {
            rows: props.rows,
            cols: props.cols,
            nnz: props.nnz,
            max_row_nnz: props.max_row_nnz,
            block: params.block.max(1),
        };
        let route = spmm_core::ConversionGraph::shared()
            .route(SparseFormat::Coo, params.format, &stats)
            .map_err(HarnessError::Conversion)?;
        let route_bytes: f64 = route
            .windows(2)
            .map(|w| default_edge_cost(w[0], w[1], &stats))
            .sum();

        let workload = SpmmWorkload::new(
            params.format,
            props.rows,
            props.cols,
            props.nnz,
            estimated_stored_entries(params.format, &stats),
            props.max_row_nnz,
            spmm_core::convert::estimated_format_bytes(params.format, &stats) as usize,
            params.block,
            params.k,
        )
        .with_col_window(props.bandwidth.max(1));

        let tile = (row.variant == Variant::Tiled).then(|| {
            let shape = select_tile_shape(
                &self.machine,
                &workload,
                &spmm_kernels::optimized::SUPPORTED_K,
            );
            TileConfig::new(shape.panel_w, shape.row_block)
        });

        // The model has no GPU or SpMV roofline.
        let cpu_spmm = row.op == Op::Spmm && row.backend != BackendClass::Gpu;
        let predicted_mflops = cpu_spmm.then(|| {
            let threads = match row.backend {
                BackendClass::Parallel => params.threads,
                _ => 1,
            };
            let simd = match row.variant {
                Variant::Simd => simd_speedup(&self.machine, &workload),
                _ => 1.0,
            };
            estimate_spmm_mflops(&self.machine, &workload, threads) * simd
        });

        Ok(Plan {
            params: params.clone(),
            route,
            tile,
            predicted_mflops,
            conversion_s: conversion_seconds(&self.machine, route_bytes),
            strategy: row.strategy,
        })
    }
}

/// Owns a [`Plan`] plus every buffer it needs; `prepare` once, `execute`
/// N times with zero steady-state allocations.
pub struct Executor {
    plan: Plan,
    data: Option<FormatData<f64>>,
    ws: Workspace<f64>,
    gpu: GpuScratch<f64>,
    last_gpu_stats: Option<LaunchStats>,
}

impl Executor {
    /// Wrap a plan with empty buffers.
    pub fn new(plan: Plan) -> Self {
        Executor {
            plan,
            data: None,
            ws: Workspace::new(),
            gpu: GpuScratch::new(),
            last_gpu_stats: None,
        }
    }

    /// The plan being executed. After `prepare`, `plan.route` is the
    /// route the conversion graph actually took.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The formatted matrix, once `prepare` has run.
    pub fn data(&self) -> Option<&FormatData<f64>> {
        self.data.as_ref()
    }

    /// Simulated stats of the last GPU execute.
    pub fn last_gpu_stats(&self) -> Option<&LaunchStats> {
        self.last_gpu_stats.as_ref()
    }

    /// The SpMM output of the last execute.
    pub fn result(&self) -> &DenseMatrix<f64> {
        self.ws.c()
    }

    /// The SpMV output of the last execute.
    pub fn y(&self) -> &[f64] {
        self.ws.y()
    }

    /// Bytes this executor's workspace and GPU scratch have grown by since
    /// it was made. Counted per executor, so concurrent executors cannot
    /// land in each other's steady-state audit.
    pub fn alloc_bytes(&self) -> u64 {
        self.ws.alloc_bytes() + self.gpu.alloc_bytes()
    }

    /// Convert the matrix along the planned route and grow every buffer
    /// the strategy needs. This is the benchmark's "formatting" phase.
    pub fn prepare(
        &mut self,
        coo: &CooMatrix<f64>,
        b: &DenseMatrix<f64>,
    ) -> Result<(), HarnessError> {
        let _span = spmm_trace::span!("prepare");
        let params = &self.plan.params;
        let (data, route) = FormatData::from_coo_routed(params.format, coo, params.block)
            .map_err(HarnessError::Conversion)?;
        // The graph is shared state: record the route it actually took.
        self.plan.route = route;

        match self.plan.strategy {
            ExecStrategy::SerialTransposed | ExecStrategy::ParallelTransposed => {
                self.ws.acquire_bt(b);
                self.ws.acquire_c(coo.rows(), params.k);
            }
            ExecStrategy::SerialTiled | ExecStrategy::ParallelTiled => {
                let cfg = self
                    .plan
                    .tile
                    .unwrap_or_else(|| TileConfig::for_k(params.k));
                self.plan.tile = Some(cfg);
                self.ws.acquire_packed(b, params.k, cfg.panel_w);
                self.ws.acquire_c(coo.rows(), params.k);
            }
            ExecStrategy::SpmvSerial | ExecStrategy::SpmvParallel | ExecStrategy::SpmvSimd => {
                self.ws.acquire_y(coo.rows());
            }
            _ => {
                self.ws.acquire_c(coo.rows(), params.k);
            }
        }
        self.data = Some(data);
        Ok(())
    }

    /// Run one iteration of the planned kernel. `x` is the SpMV operand
    /// (ignored by SpMM strategies). Performs no allocations: every
    /// buffer was grown by `prepare`.
    pub fn execute(&mut self, b: &DenseMatrix<f64>, x: &[f64]) -> Result<(), HarnessError> {
        let data = self
            .data
            .as_ref()
            .ok_or_else(|| HarnessError::Calc("calc() before format()".into()))?;
        self.last_gpu_stats = run_kernel(&self.plan, data, b, x, &mut self.ws, &mut self.gpu)?;
        Ok(())
    }
}

/// Call `plan.strategy`'s entry point on `data`, writing into the
/// workspace's C (or y). Returns the simulated launch stats of a GPU
/// strategy, and a typed error when the entry point has no kernel for
/// `data`'s format (the planner's table lookup rules that out).
pub(crate) fn run_kernel(
    plan: &Plan,
    data: &FormatData<f64>,
    b: &DenseMatrix<f64>,
    x: &[f64],
    ws: &mut Workspace<f64>,
    gpu: &mut GpuScratch<f64>,
) -> Result<Option<LaunchStats>, HarnessError> {
    use ExecStrategy as S;
    let params = &plan.params;
    let (k, threads, schedule) = (params.k, params.threads, params.schedule);
    let view = ws.split();
    let tile = || plan.tile.expect("prepare pinned the tile shape");
    let mut stats = None;
    let ran = match plan.strategy {
        S::Serial => {
            data.spmm_serial(b, k, view.c);
            true
        }
        S::Parallel => {
            data.spmm_parallel(global_pool(), threads, schedule, b, k, view.c);
            true
        }
        S::SerialTransposed => data.spmm_serial_bt(view.bt, k, view.c),
        S::ParallelTransposed => {
            data.spmm_parallel_bt(global_pool(), threads, schedule, view.bt, k, view.c)
        }
        S::SerialFixedK => data.spmm_serial_fixed_k(b, k, view.c),
        S::ParallelFixedK => {
            data.spmm_parallel_fixed_k(global_pool(), threads, schedule, b, k, view.c)
        }
        S::SerialSimd => data.spmm_serial_simd(b, k, view.c),
        S::SerialTiled => data.spmm_serial_tiled(view.packed, tile(), view.c),
        S::ParallelTiled => data.spmm_parallel_tiled(
            global_pool(),
            threads,
            schedule,
            view.packed,
            tile(),
            view.c,
        ),
        S::Gpu | S::GpuVendor => {
            let device = params
                .backend
                .device()
                .expect("gpu strategy implies a device");
            stats = gpu_spmm(
                &device,
                plan.strategy == S::GpuVendor,
                data,
                b,
                k,
                view.c,
                gpu,
            );
            stats.is_some()
        }
        S::SpmvSerial => data.spmv_serial(x, view.y),
        S::SpmvParallel => data.spmv_parallel(global_pool(), threads, schedule, x, view.y),
        S::SpmvSimd => data.spmv_serial_simd_at(spmm_kernels::simd::active_level(), x, view.y),
    };
    if !ran {
        return Err(HarnessError::Unsupported(format!(
            "the {:?} kernel has no {} implementation",
            plan.strategy,
            data.format()
        )));
    }
    Ok(stats)
}

/// The simulated GPU's SpMM for `data`'s format: the cuSPARSE-style
/// library kernels when `vendor`, else the OpenMP-offload ones. `None`
/// for formats without a kernel.
fn gpu_spmm(
    device: &DeviceProfile,
    vendor: bool,
    data: &FormatData<f64>,
    b: &DenseMatrix<f64>,
    k: usize,
    c: &mut DenseMatrix<f64>,
    scratch: &mut GpuScratch<f64>,
) -> Option<LaunchStats> {
    use spmm_gpusim::{kernels as offload, vendor as lib};
    Some(match (vendor, data) {
        (true, FormatData::Coo(m)) => lib::cusparse_coo_spmm(device, m, b, k, c),
        (true, FormatData::Csr(m)) => lib::cusparse_csr_spmm(device, m, b, k, c),
        (false, FormatData::Coo(m)) => offload::coo_spmm_gpu(device, m, b, k, c),
        (false, FormatData::Csr(m)) => offload::csr_spmm_gpu_in(device, m, b, k, c, scratch),
        (false, FormatData::Ell(m)) => offload::ell_spmm_gpu_in(device, m, b, k, c, scratch),
        (false, FormatData::Bcsr(m)) => offload::bcsr_spmm_gpu(device, m, b, k, c),
        (false, FormatData::Sell(m)) => offload::sell_spmm_gpu_in(device, m, b, k, c, scratch),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Backend;

    fn props_and_coo() -> (CooMatrix<f64>, MatrixProperties) {
        let mut trips = Vec::new();
        for i in 0..64usize {
            for d in 0..(i % 4 + 1) {
                trips.push((i, (i * 3 + d * 11) % 48, 1.0 + (i + d) as f64 * 0.25));
            }
        }
        let coo = CooMatrix::from_triplets(64, 48, &trips).unwrap();
        let props = coo.properties();
        (coo, props)
    }

    #[test]
    fn plan_routes_blocked_formats_through_csr() {
        let (_, props) = props_and_coo();
        let params = Params {
            format: SparseFormat::Bcsr,
            ..Params::default()
        };
        let plan = Planner::new().plan(&props, &params).unwrap();
        assert_eq!(
            plan.route,
            vec![SparseFormat::Coo, SparseFormat::Csr, SparseFormat::Bcsr]
        );
        assert_eq!(plan.route_string(), "coo->csr->bcsr");
        assert!(plan.conversion_s > 0.0);
        assert!(plan.predicted_mflops.unwrap() > 0.0);
    }

    #[test]
    fn tiled_plans_pin_a_tile_shape_and_execute() {
        let (coo, props) = props_and_coo();
        let params = Params {
            format: SparseFormat::Csr,
            variant: Variant::Tiled,
            k: 16,
            ..Params::default()
        };
        let plan = Planner::new().plan(&props, &params).unwrap();
        assert_eq!(plan.strategy, ExecStrategy::SerialTiled);
        let tile = plan.tile.unwrap();
        assert!(tile.panel_w >= 1 && tile.panel_w <= 16);

        let b = DenseMatrix::from_fn(48, 16, |i, j| ((i + j) % 5) as f64 - 2.0);
        let expected = coo.spmm_reference_k(&b, 16);
        let mut exec = Executor::new(plan);
        exec.prepare(&coo, &b).unwrap();
        exec.execute(&b, &[]).unwrap();
        assert_eq!(exec.result(), &expected);
    }

    #[test]
    fn gpu_and_spmv_plans_have_no_cpu_prediction() {
        let (_, props) = props_and_coo();
        let gpu = Params {
            backend: Backend::GpuH100,
            ..Params::default()
        };
        let plan = Planner::new().plan(&props, &gpu).unwrap();
        assert_eq!(plan.strategy, ExecStrategy::Gpu);
        assert!(plan.predicted_mflops.is_none());

        let spmv = Params {
            op: Op::Spmv,
            ..Params::default()
        };
        let plan = Planner::new().plan(&props, &spmv).unwrap();
        assert_eq!(plan.strategy, ExecStrategy::SpmvSerial);
        assert!(plan.predicted_mflops.is_none());

        let gpu_spmv = Params {
            op: Op::Spmv,
            backend: Backend::GpuA100,
            ..Params::default()
        };
        assert!(Planner::new().plan(&props, &gpu_spmv).is_err());
    }
}
