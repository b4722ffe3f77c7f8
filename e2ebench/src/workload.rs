//! The three workloads and the measured path: plan -> prepare (convert,
//! pack, acquire) -> execute -> the program's own verify, repeated in
//! whole rounds until the run's time is up.

use std::time::{Duration, Instant};

use spmm_core::{suggested_tolerance, verify, CooMatrix, DenseMatrix, SparseFormat};
use spmm_harness::{Backend, Executor, HarnessError, Params, Planner, Variant};
use spmm_kernels::Workspace;
use spmm_parallel::Schedule;
use spmm_trace::{span, SpanEvent};

use crate::check::Reference;
use crate::stats::{median, tail};
use crate::trace;

/// The traced run's separate B-pack timing (see `run_case`).
pub const PACK_PROBE: &str = "kernels.pack";

/// One workload: an input replica and the cases run on it each round.
pub struct Workload {
    pub name: &'static str,
    /// spmm-matgen suite replica and the share of its full row count.
    pub matrix: &'static str,
    pub scale: f64,
    pub k: usize,
    /// Untimed executes per case per round, then timed ones.
    pub warmups: usize,
    pub executes: usize,
    pub cases: Vec<Params>,
}

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 2] = ["fem-tiled", "format-sweep"];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let base = |k: usize| Params {
        k,
        threads: 1,
        ..Params::default()
    };
    Some(match name {
        // Execute-bound steady state: the serial tiled engine on a banded
        // FEM matrix, set-up about 2% of the wall time.
        "fem-tiled" => Workload {
            name: "fem-tiled",
            matrix: "cant",
            scale: 0.25,
            k: 128,
            warmups: 2,
            executes: 120,
            cases: vec![Params {
                variant: Variant::Tiled,
                ..base(128)
            }],
        },
        // A one-shot format study: every format converted from COO
        // through the graph, a few thin-k serial executes each, then CSR
        // once more on the 2-thread pool, whose rows of up to 184 nonzeros
        // leave the dynamic schedule to balance.
        "format-sweep" => Workload {
            name: "format-sweep",
            matrix: "pdb1HYS",
            scale: 0.6,
            k: 8,
            warmups: 1,
            executes: 6,
            cases: SparseFormat::ALL
                .iter()
                .map(|&format| Params { format, ..base(8) })
                .chain([Params {
                    backend: Backend::Parallel,
                    threads: 2,
                    schedule: Schedule::Dynamic(32),
                    ..base(8)
                }])
                .collect(),
        },
        _ => return None,
    })
}

/// The generated input: A as COO, the dense B, and the benchmark's own
/// reference product for `A * B[:, :k]`.
pub struct Input {
    pub coo: CooMatrix<f64>,
    pub b: DenseMatrix<f64>,
    pub reference: Reference,
}

impl Input {
    /// Generate A with spmm-matgen and B from `seed`; neither is timed.
    pub fn generate(w: &Workload, seed: u64) -> Result<Input, String> {
        let spec =
            spmm_matgen::by_name(w.matrix).ok_or_else(|| format!("no replica {}", w.matrix))?;
        let coo = spec.generate(w.scale, seed);
        let mut state = seed ^ 0x5EED_B0B5_DEAD_BEEF;
        let b = DenseMatrix::from_fn(coo.cols(), w.k, |_, _| {
            // Uniform in [-1, 1): the top 53 bits of a splitmix64 draw.
            (splitmix64(&mut state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        });
        let reference = Reference::new(
            coo.rows(),
            coo.cols(),
            coo.row_indices(),
            coo.col_indices(),
            coo.values(),
            b.as_slice(),
            b.rows(),
            b.cols(),
            w.k,
        )
        .map_err(|e| e.to_string())?;
        Ok(Input { coo, b, reference })
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one case recorded over the whole run.
#[derive(Default)]
pub struct CaseRecord {
    /// Seconds of every timed execute.
    pub exec_s: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub nnz: usize,
    pub stored: usize,
    pub footprint_bytes: usize,
    pub route_hops: usize,
    /// C plus packed or transposed B held by the workspace (computed).
    pub workspace_bytes: usize,
    /// A footprint + B read + C written by one execute (computed).
    pub bytes_per_exec: usize,
    pub errors: Vec<String>,
}

/// Program-call seconds of one round, summed over its cases.
#[derive(Default, Clone, Copy)]
pub struct RoundTimes {
    /// The round's wall time with its timed executes counted at their
    /// median, so a preempted execute cannot move it.
    pub wall_s: f64,
    pub setup_s: f64,
    /// The round's program-call time as it elapsed.
    pub elapsed_s: f64,
}

/// Everything a run measured.
pub struct RunRecord {
    pub cases: Vec<CaseRecord>,
    pub rounds: Vec<RoundTimes>,
    /// The benchmark's own check rejected an output that the program
    /// reported as good.
    pub wrong: bool,
    /// Spans of the measured rounds (traced runs only).
    pub spans: Vec<SpanEvent>,
}

/// Run whole rounds of every case until `seconds` have passed.
pub fn run(w: &Workload, input: &Input, seconds: f64, traced: bool) -> RunRecord {
    let mut cases: Vec<CaseRecord> = w.cases.iter().map(|_| CaseRecord::default()).collect();
    let mut rounds = Vec::new();
    let mut wrong = false;
    if traced {
        spmm_trace::clear_spans();
        spmm_trace::set_trace_level(spmm_trace::TraceLevel::Spans);
    }
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < budget {
        let mut times = RoundTimes::default();
        for (params, rec) in w.cases.iter().zip(cases.iter_mut()) {
            wrong |= run_case(w, input, params, rec, &mut times, traced);
        }
        rounds.push(times);
    }
    let spans = if traced {
        spmm_trace::set_trace_level(spmm_trace::TraceLevel::Off);
        spmm_trace::take_spans()
    } else {
        Vec::new()
    };
    RunRecord {
        cases,
        rounds,
        wrong,
        spans,
    }
}

/// One case of one round. Returns true when the benchmark's own check
/// found the output wrong.
fn run_case(
    w: &Workload,
    input: &Input,
    params: &Params,
    rec: &mut CaseRecord,
    times: &mut RoundTimes,
    traced: bool,
) -> bool {
    let calls = w.warmups + w.executes;
    rec.attempted += calls;
    let t0 = Instant::now();
    let prepared = (|| -> Result<(Executor, f64), HarnessError> {
        let (plan, tol) = {
            let _s = span("engine.plan");
            let props = {
                let _s = span("core.properties");
                input.coo.properties()
            };
            let tol = suggested_tolerance::<f64>(props.max_row_nnz.max(1));
            (Planner::new().plan(&props, params)?, tol)
        };
        let mut exec = Executor::new(plan);
        {
            let _s = span("engine.prepare");
            exec.prepare(&input.coo, &input.b)?;
        }
        Ok((exec, tol))
    })();
    let setup = t0.elapsed().as_secs_f64();
    let (mut exec, tol) = match prepared {
        Ok(v) => v,
        Err(e) => {
            rec.failed += calls;
            rec.errors.push(format!("{}: {e}", params.format));
            let elapsed = t0.elapsed().as_secs_f64();
            times.setup_s += setup;
            times.wall_s += elapsed;
            times.elapsed_s += elapsed;
            return false;
        }
    };

    let mut failed = 0;
    let (mut warmup_s, mut timed_s) = (0.0, Vec::with_capacity(w.executes));
    for i in 0..calls {
        let t = Instant::now();
        let ran = {
            let _s = span("engine.execute");
            exec.execute(&input.b, &[])
        };
        let dt = t.elapsed().as_secs_f64();
        if i < w.warmups {
            warmup_s += dt;
        } else {
            timed_s.push(dt);
        }
        match ran {
            Ok(()) if i >= w.warmups => rec.exec_s.push(dt),
            Ok(()) => {}
            Err(e) => {
                failed += 1;
                rec.errors.push(format!("{}: {e}", params.format));
            }
        }
    }
    let tv = Instant::now();
    let own_check = {
        let _s = span("core.verify");
        let want = input.coo.spmm_reference_k(&input.b, w.k);
        verify(exec.result(), &want, tol)
    };
    let verify_s = tv.elapsed().as_secs_f64();
    times.setup_s += setup;
    times.wall_s += setup + warmup_s + timed_s.len() as f64 * median(&timed_s) + verify_s;
    times.elapsed_s += t0.elapsed().as_secs_f64();

    // The benchmark's independent check, outside every timed region.
    let c = exec.result();
    let independent = input.reference.check(c.as_slice(), c.rows(), c.cols());
    let mut wrong = false;
    if let Err(e) = &own_check {
        rec.errors
            .push(format!("{}: program check: {e}", params.format));
        failed = calls;
    }
    if let Err(e) = &independent {
        rec.errors
            .push(format!("{}: independent check: {e}", params.format));
        failed = calls;
        wrong = own_check.is_ok();
    }
    rec.failed += failed;

    let data = exec.data().expect("prepare formatted the matrix");
    let value = std::mem::size_of::<f64>();
    let (rows, cols, k) = (input.coo.rows(), input.coo.cols(), w.k);
    rec.nnz = data.nnz();
    rec.stored = data.stored_entries();
    rec.footprint_bytes = data.memory_footprint();
    rec.route_hops = exec.plan().route.len().saturating_sub(1);
    let b_held = match exec.plan().tile {
        Some(t) => cols * k.div_ceil(t.panel_w) * t.panel_w,
        None => 0,
    };
    rec.workspace_bytes = (rows * k + b_held) * value;
    rec.bytes_per_exec = rec.footprint_bytes + (cols + rows) * k * value;

    // `Executor::prepare` packs B inside, where the benchmark can place
    // no span. The traced run times the same pack into a fresh workspace
    // here, off the measured path.
    if let (true, Some(tile)) = (traced, exec.plan().tile) {
        let mut ws = Workspace::<f64>::new();
        let _s = span(PACK_PROBE);
        ws.acquire_packed(&input.b, k, tile.panel_w);
    }
    wrong
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Peak resident set of this process in bytes (`VmHWM`).
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

fn useful_flops(w: &Workload, c: &CaseRecord) -> f64 {
    2.0 * c.nnz as f64 * w.k as f64
}

/// The five end-to-end metrics of an untraced run.
pub fn end_to_end(w: &Workload, r: &RunRecord) -> Vec<Metric> {
    let wall: Vec<f64> = r.rounds.iter().map(|t| t.wall_s).collect();
    let setup: Vec<f64> = r.rounds.iter().map(|t| t.setup_s).collect();
    let (mut flops, mut secs) = (0.0, 0.0);
    for c in r.cases.iter().filter(|c| !c.exec_s.is_empty()) {
        let n = c.exec_s.len() as f64;
        flops += useful_flops(w, c) * n;
        secs += n * median(&c.exec_s);
    }
    let format_bytes: usize = r.cases.iter().map(|c| c.footprint_bytes).sum();
    vec![
        ("wall_s".into(), median(&wall), "s"),
        ("setup_s".into(), median(&setup), "s"),
        ("exec_gflops".into(), flops / secs / 1e9, "GFLOP/s"),
        ("format_mb".into(), format_bytes as f64 / 1e6, "MB"),
        (
            "peak_rss_mb".into(),
            peak_rss_bytes().unwrap_or(f64::NAN) / 1e6,
            "MB",
        ),
    ]
}

/// The per-layer metrics of a traced run. Times are per round (the
/// run's total over its round count); counts and flops cover the run.
pub fn per_layer(w: &Workload, r: &RunRecord) -> Vec<Metric> {
    let rounds = r.rounds.len() as f64;
    let per_round =
        |name: &str, label: Option<&str>| trace::total_seconds(&r.spans, name, label) / rounds;
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    let (probe, path): (Vec<SpanEvent>, Vec<SpanEvent>) =
        r.spans.iter().cloned().partition(|s| s.name == PACK_PROBE);
    let self_s = trace::self_seconds(&path);
    let traced_s: f64 = r.rounds.iter().map(|t| t.elapsed_s).sum();
    for (layer, s) in &self_s {
        put(&format!("{layer}.self_s"), s / rounds, "s");
    }
    put(
        "trace.coverage",
        self_s.values().sum::<f64>() / traced_s,
        "ratio",
    );
    put(
        "trace.wall_s",
        median(&r.rounds.iter().map(|t| t.wall_s).collect::<Vec<_>>()),
        "s",
    );

    put("engine.plan_s", per_round("engine.plan", None), "s");
    put("engine.prepare_s", per_round("engine.prepare", None), "s");

    let convert_s = per_round("convert", None);
    let nnz_converted: usize = r.cases.iter().map(|c| c.nnz).sum();
    put("core.convert_s", convert_s, "s");
    put(
        "core.convert_mnnz_per_s",
        nnz_converted as f64 / convert_s / 1e6,
        "Mnnz/s",
    );
    put(
        "core.route_hops",
        r.cases.iter().map(|c| c.route_hops).sum::<usize>() as f64,
        "count",
    );
    let (stored, nnz) = r
        .cases
        .iter()
        .fold((0, 0), |(s, n), c| (s + c.stored, n + c.nnz));
    put("core.stored_per_nnz", stored as f64 / nnz as f64, "ratio");
    put("core.verify_s", per_round("core.verify", None), "s");

    put(
        "kernels.pack_s",
        trace::total_seconds(&probe, PACK_PROBE, None) / rounds,
        "s",
    );
    let ws: usize = r.cases.iter().map(|c| c.workspace_bytes).sum();
    put("kernels.workspace_mb", ws as f64 / 1e6, "MB");
    let calls: usize = r.cases.iter().map(|c| c.attempted - c.failed).sum();
    put("kernels.exec_calls", calls as f64, "count");
    let all_exec: Vec<f64> = r
        .cases
        .iter()
        .flat_map(|c| c.exec_s.iter().copied())
        .collect();
    put("kernels.exec_ms_p50", median(&all_exec) * 1e3, "ms");
    // Below forty samples there is no tail; the median stands in.
    let tail_s = tail(&all_exec).unwrap_or_else(|| median(&all_exec));
    put("kernels.exec_ms_tail", tail_s * 1e3, "ms");
    put("kernels.exec_samples", all_exec.len() as f64, "count");
    let (mut useful, mut padded, mut bytes, mut n_exec) = (0.0, 0.0, 0.0, 0.0);
    for c in &r.cases {
        let n = (c.attempted - c.failed) as f64;
        useful += useful_flops(w, c) * n;
        padded += 2.0 * c.stored as f64 * w.k as f64 * n;
        bytes += c.bytes_per_exec as f64 * n;
        n_exec += n;
    }
    put("kernels.useful_gflop", useful / 1e9, "GFLOP");
    put("kernels.padded_gflop", padded / 1e9, "GFLOP");
    put("kernels.bytes_mb", bytes / n_exec / 1e6, "MB");
    put("kernels.flop_per_byte", useful / bytes, "flop/B");

    // The parallel case against the serial case of the same format; a
    // workload without one is its own baseline (one thread, speed-up 1).
    let parallel = w.cases.iter().position(|p| p.backend == Backend::Parallel);
    let serial = parallel.and_then(|i| {
        let format = w.cases[i].format;
        w.cases
            .iter()
            .position(|p| p.backend == Backend::Serial && p.format == format)
    });
    let (base, run, threads) = match (serial, parallel) {
        (Some(s), Some(p)) => (
            median(&r.cases[s].exec_s),
            median(&r.cases[p].exec_s),
            w.cases[p].threads as f64,
        ),
        _ => {
            let med = median(&all_exec);
            (med, med, 1.0)
        }
    };
    put("parallel.serial_exec_ms_p50", base * 1e3, "ms");
    put("parallel.exec_ms_p50", run * 1e3, "ms");
    put("parallel.speedup", base / run, "ratio");
    put("parallel.efficiency", base / run / threads, "ratio");

    // Per format: seconds per conversion into it, and the serial case's
    // padding and median execute.
    for f in SparseFormat::ALL {
        let fname = f.name();
        let builds = w.cases.iter().filter(|p| p.format == f).count();
        let c = r
            .cases
            .iter()
            .zip(&w.cases)
            .find(|(_, p)| p.format == f && p.backend == Backend::Serial)
            .map(|(c, _)| c);
        put(
            &format!("core.convert_s.{fname}"),
            if builds == 0 {
                0.0
            } else {
                per_round("convert", Some(fname)) / builds as f64
            },
            "s",
        );
        put(
            &format!("core.stored_per_nnz.{fname}"),
            c.map_or(0.0, |c| c.stored as f64 / c.nnz as f64),
            "ratio",
        );
        put(
            &format!("kernels.exec_ms_p50.{fname}"),
            c.filter(|c| !c.exec_s.is_empty())
                .map_or(0.0, |c| median(&c.exec_s) * 1e3),
            "ms",
        );
    }
    m
}
