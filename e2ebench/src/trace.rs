//! Layer attribution of the traced run's spans.
//!
//! The benchmark opens its own spans around every call it makes into the
//! program (`engine.plan`, `core.properties`, `engine.prepare`,
//! `engine.execute`, `core.verify`). The program's calls to
//! `FormatData::from_coo_routed` and `TileConfig::pack` happen inside
//! `Executor::prepare`, out of the benchmark's reach; the `convert` and
//! `pack` spans those two functions already record give that split, and
//! the kernels' `compute` spans split `Executor::execute`. A layer's self
//! time is the time its spans cover minus the time their child spans do.

use std::collections::BTreeMap;

use spmm_trace::SpanEvent;

/// The program's layers, named after its modules.
pub const LAYERS: [&str; 4] = ["engine", "core", "kernels", "parallel"];

/// The layer a span belongs to, or `None` for spans no layer claims.
pub fn layer_of(ev: &SpanEvent) -> Option<&'static str> {
    if let Some(layer) = LAYERS.iter().find(|l| {
        ev.name
            .strip_prefix(**l)
            .is_some_and(|r| r.starts_with('.'))
    }) {
        return Some(layer);
    }
    match ev.name {
        "plan" | "prepare" => Some("engine"),
        "convert" => Some("core"),
        "pack" => Some("kernels"),
        // Compute regions that run on the pool belong to its schedules.
        "compute" if matches!(ev.label, "parallel" | "tiled_parallel" | "balanced") => {
            Some("parallel")
        }
        "compute" => Some("kernels"),
        _ => None,
    }
}

/// Self seconds per layer, over every span given. A span's self time is
/// its duration minus that of the spans nested directly inside it on
/// the same thread; spans no layer claims count toward no layer.
pub fn self_seconds(spans: &[SpanEvent]) -> BTreeMap<&'static str, f64> {
    let mut order: Vec<&SpanEvent> = spans.iter().collect();
    // Parents open no later than their children and nest one level up.
    order.sort_by(|a, b| {
        a.tid
            .cmp(&b.tid)
            .then(a.start_us.total_cmp(&b.start_us))
            .then(a.depth.cmp(&b.depth))
    });
    let mut own: Vec<f64> = order.iter().map(|s| s.dur_us).collect();
    let mut open: Vec<usize> = Vec::new();
    for i in 0..order.len() {
        let s = order[i];
        while let Some(&top) = open.last() {
            let p = order[top];
            if p.tid == s.tid && p.depth < s.depth {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            own[parent] -= s.dur_us;
        }
        open.push(i);
    }
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (s, us) in order.iter().zip(own) {
        if let Some(layer) = layer_of(s) {
            *out.get_mut(layer).expect("every layer is listed") += us.max(0.0) * 1e-6;
        }
    }
    out
}

/// Total seconds of the spans with this name (and label, when given).
pub fn total_seconds(spans: &[SpanEvent], name: &str, label: Option<&str>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
        .fold(0.0, |t, s| t + s.dur_us * 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, label: &'static str, depth: u32, start: f64, dur: f64) -> SpanEvent {
        SpanEvent {
            name,
            label,
            tid: 0,
            depth,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // engine.prepare [0, 100) holds prepare [1, 99), which holds
        // convert [2, 52) and pack [60, 90); then engine.execute
        // [100, 140) holds a parallel compute [101, 139).
        let spans = vec![
            ev("convert", "csr", 2, 2.0, 50.0),
            ev("pack", "", 2, 60.0, 30.0),
            ev("prepare", "", 1, 1.0, 98.0),
            ev("engine.prepare", "", 0, 0.0, 100.0),
            ev("compute", "parallel", 1, 101.0, 38.0),
            ev("engine.execute", "", 0, 100.0, 40.0),
        ];
        let t = self_seconds(&spans);
        let us = |l: &str| (t[l] * 1e6 * 1e3).round() / 1e3;
        assert_eq!(us("engine"), 2.0 + 18.0 + 2.0);
        assert_eq!(us("core"), 50.0);
        assert_eq!(us("kernels"), 30.0);
        assert_eq!(us("parallel"), 38.0);
        let covered: f64 = t.values().sum::<f64>() * 1e6;
        assert!((covered - 140.0).abs() < 1e-6);
        assert!((total_seconds(&spans, "convert", Some("csr")) - 50e-6).abs() < 1e-12);
    }
}
