//! The suite, steadiness and compare commands. Each run is a child
//! process of this binary, so every workload starts from a fresh heap
//! and a fresh peak-RSS mark.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use spmm_harness::json::Json;

use crate::stats::{median, quartiles, relative_iqr};
use crate::workload::NAMES;
use crate::Flags;

/// One run's parsed result line.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
}

/// Run one workload in a child process; its parsed last stdout line,
/// and that line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(RunResult, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line)
        .and_then(|j| parse_result(&j))
        .map(|r| (r, line.to_string()))
        .map_err(|e| format!("{workload} seed {seed}: bad result line: {e}"))
}

fn parse_result(j: &Json) -> Result<RunResult, String> {
    let num = |k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("no {k}"));
    let metrics = match j.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                (name.clone(), v, unit.to_string())
            })
            .collect(),
        _ => return Err("no metrics".into()),
    };
    Ok(RunResult {
        correct: j.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

fn metric(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.0 == name)
        .map_or(f64::NAN, |m| m.1)
}

/// `suite`: every workload untraced, then traced; end-to-end table,
/// per-layer self times, coverage and tracing overhead.
pub fn suite(args: &[String]) -> Result<ExitCode, String> {
    let (flags, _) = Flags::parse(args, &["seed", "seconds"])?;
    let (seed, seconds) = (flags.seed()?, flags.seconds()?);
    let mut ok = true;
    println!("seed {seed}, {seconds} s per run, untraced");
    for w in NAMES {
        let (r, _) = run_child(w, seed, seconds, false)?;
        ok &= r.correct && r.failed == 0.0;
        println!(
            "{w}: attempted {} failed {} correct {}",
            r.attempted, r.failed, r.correct
        );
        for (name, v, unit) in &r.metrics {
            println!("  {name:<14} {v:>12.5} {unit}");
        }
        let (t, _) = run_child(w, seed, seconds, true)?;
        ok &= t.correct && t.failed == 0.0;
        let traced_wall = metric(&t, "trace.wall_s");
        println!(
            "  traced: wall {traced_wall:.5} s (overhead {:+.2}%), layer self time covers {:.2}%",
            (traced_wall / metric(&r, "wall_s") - 1.0) * 100.0,
            metric(&t, "trace.coverage") * 100.0
        );
        for layer in crate::trace::LAYERS {
            println!(
                "    {layer:<9} self {:>10.5} s/round",
                metric(&t, &format!("{layer}.self_s"))
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `steady`: the untraced suite `--runs` times, alternating the workload
/// order and stepping the seed; each run's result is appended to
/// `--out` and the spread of every (workload, metric) printed.
pub fn steady(args: &[String]) -> Result<ExitCode, String> {
    let (flags, _) = Flags::parse(args, &["runs", "out", "seed", "seconds", "spec"])?;
    let runs: u64 = flags
        .get("runs")
        .ok_or("--runs is required")?
        .parse()
        .map_err(|_| "bad --runs")?;
    if !(1..=1000).contains(&runs) {
        return Err("--runs must be 1..=1000".into());
    }
    let out = PathBuf::from(flags.get("out").ok_or("--out is required")?);
    let (seed, seconds) = (flags.seed()?, flags.seconds()?);
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    for pass in 0..runs {
        let mut order = NAMES.to_vec();
        if pass % 2 == 1 {
            order.reverse();
        }
        let s = seed + pass;
        for w in order {
            let (r, line) = run_child(w, s, seconds, false)?;
            eprintln!(
                "pass {pass} {w} seed {s}: wall_s {:.4}",
                metric(&r, "wall_s")
            );
            writeln!(
                file,
                "{{\"workload\": \"{w}\", \"seed\": {s}, \"result\": {line}}}"
            )
            .map_err(|e| format!("{}: {e}", out.display()))?;
        }
    }
    file.flush()
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let bounds = load_bounds(flags.get("spec")).unwrap_or_default();
    let set = load_set(&out)?;
    for (w, runs) in &set {
        println!(
            "{w} ({} runs, failed share {:?})",
            runs.len(),
            failed_share(runs)
        );
        for name in metric_names(runs) {
            let v: Vec<f64> = runs.iter().map(|r| metric(r, &name)).collect();
            let (q1, q3) = if v.len() >= 2 {
                quartiles(&v)
            } else {
                (v[0], v[0])
            };
            let spread = if v.len() >= 2 { relative_iqr(&v) } else { 0.0 };
            let bound = bounds.get(&name).map(|b| b.bound);
            println!(
                "  {name:<14} median {:>12.5}  q1 {q1:>12.5}  q3 {q3:>12.5}  iqr/median {:>6.2}%{}",
                median(&v),
                spread * 100.0,
                bound.map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0))
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// An end-to-end metric's direction and bound from BENCHMARK.json.
#[derive(Clone, Copy)]
struct Bound {
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds(spec: Option<&str>) -> Result<BTreeMap<String, Bound>, String> {
    let path = Path::new(spec.unwrap_or("BENCHMARK.json"));
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(metrics)) = j.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            Ok((
                name.to_string(),
                Bound {
                    lower_is_better: better == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

/// A result file: results grouped by workload.
fn load_set(path: &Path) -> Result<BTreeMap<String, Vec<RunResult>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{}:{}", path.display(), i + 1);
        let j = Json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        let w = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{at}: no workload"))?;
        let r = j
            .get("result")
            .ok_or("no result".to_string())
            .and_then(parse_result)
            .map_err(|e| format!("{at}: {e}"))?;
        set.entry(w.to_string()).or_default().push(r);
    }
    Ok(set)
}

fn metric_names(runs: &[RunResult]) -> Vec<String> {
    runs.first()
        .map(|r| r.metrics.iter().map(|m| m.0.clone()).collect())
        .unwrap_or_default()
}

/// Failed operations over attempted ones, summed over the runs.
fn failed_share(runs: &[RunResult]) -> (f64, f64) {
    runs.iter()
        .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted))
}

/// `compare A B`: the two sets' spreads must stay within each metric's
/// bound (set-up time excepted), B's median may be worse than A's by at
/// most the bound, and both sets must fail the same share of operations.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (flags, files) = Flags::parse(args, &["spec"])?;
    let [a, b] = files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let bounds = load_bounds(flags.get("spec"))?;
    let (set_a, set_b) = (load_set(Path::new(a))?, load_set(Path::new(b))?);
    let mut ok = true;
    for (w, runs_a) in &set_a {
        let Some(runs_b) = set_b.get(w) else {
            println!("{w}: missing from {b}");
            ok = false;
            continue;
        };
        let (fa, aa) = failed_share(runs_a);
        let (fb, ab) = failed_share(runs_b);
        // Cross-multiplied, so equal shares compare exactly.
        let same_share = fa * ab == fb * aa;
        ok &= same_share;
        println!(
            "{w}: failed {fa}/{aa} vs {fb}/{ab}{}",
            if same_share { "" } else { "  DIFFERENT SHARE" }
        );
        for (name, bound) in &bounds {
            let va: Vec<f64> = runs_a.iter().map(|r| metric(r, name)).collect();
            let vb: Vec<f64> = runs_b.iter().map(|r| metric(r, name)).collect();
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!("{w}: need at least two runs per set"));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if bound.lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let (sa, sb) = (relative_iqr(&va), relative_iqr(&vb));
            let spread_ok = name == "setup_s" || (sa <= bound.bound && sb <= bound.bound);
            let median_ok = worse <= bound.bound;
            ok &= spread_ok && median_ok;
            println!(
                "  {name:<14} median {ma:>11.5} -> {mb:>11.5} ({:+6.2}% worse)  spread {:5.2}% / {:5.2}%  bound {:.0}%{}{}",
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound.bound * 100.0,
                if spread_ok { "" } else { "  SPREAD" },
                if median_ok { "" } else { "  REGRESSION" }
            );
        }
    }
    println!("{}", if ok { "within bounds" } else { "OUT OF BOUNDS" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
