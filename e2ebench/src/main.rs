//! End-to-end SpMM benchmark: COO in, checked C out.
//!
//! ```text
//! e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! e2ebench suite   [--seed N] [--seconds S]
//! e2ebench steady  --runs N --out FILE [--seed N] [--seconds S]
//! e2ebench compare FILE_A FILE_B [--spec BENCHMARK.json]
//! ```
//!
//! A run prints its metrics, then one JSON line: `correct`, `attempted`,
//! `failed` and `metrics`, the five end-to-end metrics untraced or the
//! per-layer ones with `--trace 1`. See README.md for the workloads.

mod check;
mod stats;
mod steady;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Input, Metric};

/// Defaults of a run when a flag is absent.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 10.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("suite") => steady::suite(&args[1..]),
        Some("steady") => steady::steady(&args[1..]),
        Some("compare") => steady::compare(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Flags shared by every mode: `--name value` pairs.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    pub fn parse(args: &[String], known: &[&str]) -> Result<(Flags, Vec<String>), String> {
        let (mut pairs, mut rest) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if known.contains(&name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name.to_string(), v.clone()));
                }
                Some(name) => return Err(format!("unknown flag --{name}")),
                None => rest.push(a.clone()),
            }
        }
        Ok((Flags(pairs), rest))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn seed(&self) -> Result<u64, String> {
        self.get("seed").map_or(Ok(DEFAULT_SEED), |s| {
            s.parse().map_err(|_| format!("bad --seed {s}"))
        })
    }

    pub fn seconds(&self) -> Result<f64, String> {
        match self.get("seconds") {
            None => Ok(DEFAULT_SECONDS),
            Some(s) => match s.parse::<f64>() {
                Ok(v) if v > 0.0 && v <= 3600.0 => Ok(v),
                _ => Err(format!("bad --seconds {s} (0 < seconds <= 3600)")),
            },
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (flags, rest) = Flags::parse(args, &["workload", "seed", "seconds", "trace", "trace-out"])?;
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument {extra}"));
    }
    let name = flags.get("workload").ok_or("--workload is required")?;
    let w = workload::workload(name)
        .ok_or_else(|| format!("unknown workload {name} (one of {:?})", workload::NAMES))?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other} (0 or 1)")),
    };
    let seed = flags.seed()?;
    let seconds = flags.seconds()?;

    let input = Input::generate(&w, seed)?;
    let p = input.coo.properties();
    let mb = |values: usize| (values * 8) as f64 / 1e6;
    println!(
        "input {} x{}: {} x {}, nnz {}, max row nnz {}, k {}; A as CSR {:.1} MB, B {:.1} MB, C {:.1} MB",
        w.matrix,
        w.scale,
        p.rows,
        p.cols,
        p.nnz,
        p.max_row_nnz,
        w.k,
        mb(2 * p.nnz + p.rows + 1),
        mb(p.cols * w.k),
        mb(p.rows * w.k)
    );
    let rec = workload::run(&w, &input, seconds, traced);

    let attempted: usize = rec.cases.iter().map(|c| c.attempted).sum();
    let failed: usize = rec.cases.iter().map(|c| c.failed).sum();
    for e in rec.cases.iter().flat_map(|c| c.errors.iter()).take(8) {
        eprintln!("e2ebench: {}: {e}", w.name);
    }
    let metrics = if traced {
        let out = match flags.get("trace-out") {
            Some(p) => PathBuf::from(p),
            None => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}-{seed}.json", w.name)),
        };
        write_trace(&out, &rec.spans)?;
        println!("trace: {} spans -> {}", rec.spans.len(), out.display());
        workload::per_layer(&w, &rec)
    } else {
        workload::end_to_end(&w, &rec)
    };
    println!(
        "workload {} seed {seed}: {} rounds, {attempted} executes attempted, {failed} failed",
        w.name,
        rec.rounds.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>14.6} {unit}");
    }
    println!("{}", result_line(!rec.wrong, attempted, failed, &metrics));
    Ok(ExitCode::SUCCESS)
}

fn write_trace(path: &std::path::Path, spans: &[spmm_trace::SpanEvent]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, spmm_trace::chrome_trace_json(spans))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The run's result as one JSON line. Values print with every digit
/// (Rust's shortest round-trip form); a value that is not finite prints
/// as `null`.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
