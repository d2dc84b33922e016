//! The run's result: end-to-end metrics, per-layer metrics, output-check
//! failures, and the one-line JSON the benchmark ends with.

use std::fmt::Write as _;

use crate::common::Ledger;
use crate::trace::{Layer, Tracer};

/// Providers of the `llsc_mix` workload, by registry name.
pub const MIX_PROVIDERS: [&str; 6] = [
    "fig4-native",
    "fig4-emu",
    "fig5-rll",
    "fig7-bounded",
    "constant",
    "dynamic",
];

/// Layers whose self time is reported, with the span layers they cover.
const SELF_TIMES: [(&str, &[Layer]); 12] = [
    ("self_ms.loadgen", &[Layer::LoadGen]),
    ("self_ms.admit", &[Layer::Admit]),
    ("self_ms.ring_push", &[Layer::RingPush]),
    ("self_ms.ring_pop", &[Layer::RingPop, Layer::RingPopEmpty]),
    (
        "self_ms.map",
        &[Layer::MapInsert, Layer::MapDelete, Layer::MapGet],
    ),
    ("self_ms.metrics", &[Layer::Metrics]),
    ("self_ms.counter", &[Layer::Counter]),
    ("self_ms.prim", &[Layer::Prim]),
    ("self_ms.dpor", &[Layer::Dpor]),
    ("self_ms.exec", &[Layer::Exec]),
    ("self_ms.lin", &[Layer::Lin]),
    ("self_ms.llx_check", &[Layer::LlxCheck]),
];

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not run reads 0.
#[must_use]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 39] = [
        ("loadgen.next_ns", "ns"),
        ("loadgen.late_us_p99", "us"),
        ("loadgen.late_p99_samples", "count"),
        ("loadgen.late_us_max", "us"),
        ("admit.ns", "ns"),
        ("admit.refill_frac", "ratio"),
        ("admit.shed_frac", "ratio"),
        ("ring.push_ns", "ns"),
        ("ring.push_full", "count"),
        ("ring.pop_ns", "ns"),
        ("ring.pop_empty_frac", "ratio"),
        ("ring.wait_us_p50", "us"),
        ("metrics.flush_ns", "ns"),
        ("metrics.flushes_per_req", "ratio"),
        ("map.insert_ns", "ns"),
        ("map.delete_ns", "ns"),
        ("map.get_ns", "ns"),
        ("map.update_effective_frac", "ratio"),
        ("map.records_per_op", "ratio"),
        ("llx.help_per_op", "ratio"),
        ("llx.scx_abort_per_op", "ratio"),
        ("llsc.sc_fail_per_op", "ratio"),
        ("llsc.ll_restart_per_op", "ratio"),
        ("llsc.help_given_per_op", "ratio"),
        ("backoff.saturated_per_op", "ratio"),
        ("exec.run_us_p50", "us"),
        ("exec.steps_per_exec", "ratio"),
        ("dpor.self_ms", "ms"),
        ("dpor.executions", "count"),
        ("dpor.sleep_blocked", "count"),
        ("lin.check_us_p50", "us"),
        ("lin.checks", "count"),
        ("lat_us_p99", "us"),
        ("lat_p99_samples", "count"),
        ("fail_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans_kept", "count"),
        ("host.stalled_frac", "ratio"),
        ("counter.increment_ns", "ns"),
    ];
    let mut v: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for id in MIX_PROVIDERS {
        for (m, u) in [
            ("op_ns", "ns"),
            ("sc_fail_per_op", "ratio"),
            ("ll_ns", "ns"),
            ("vl_ns", "ns"),
            ("sc_ns", "ns"),
        ] {
            v.push((format!("prim.{id}.{m}"), u));
        }
    }
    v.extend(SELF_TIMES.iter().map(|&(n, _)| (n.to_string(), "ms")));
    v
}

/// The result of one run.
#[derive(Default)]
pub struct Out {
    /// Units attempted in timed windows.
    pub attempted: u64,
    /// Units that failed: shed requests, `StructureError`s, wrong or
    /// capped verdicts.
    pub failed: u64,
    /// Failed output checks; any entry fails the run.
    pub errors: Vec<String>,
    e2e: Vec<(String, &'static str, f64)>,
    layers: Vec<(String, &'static str, f64)>,
    /// Kept spans, JSON lines.
    pub spans: String,
}

impl Out {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.e2e.push((name.to_string(), unit, value));
    }

    /// Records `fail_frac` from the attempted/failed counts so far. It is
    /// printed with the end-to-end metrics but, since no workload is
    /// meant to fail, it is not one of the bounded metrics.
    pub fn e2e_fail_frac(&mut self) {
        let f = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.layer("fail_frac", "ratio", f);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layers.push((name.to_string(), unit, value));
    }

    /// Records every layer's self time.
    pub fn self_times(&mut self, t: &Tracer) {
        for (name, layers) in SELF_TIMES {
            let ns: u64 = layers.iter().map(|&l| t.agg(l).self_ns).sum();
            self.layer(name, "ms", ns as f64 / 1e6);
        }
    }

    /// Keeps the tracer's sampled spans for writing at exit.
    pub fn spans(&mut self, t: &Tracer) {
        self.spans = t.spans_jsonl();
        let kept = self.spans.lines().count();
        self.layer("trace.spans_kept", "count", kept as f64);
    }

    /// The human-readable lines and the final JSON line. With `traced`
    /// the JSON carries every per-layer metric, else the end-to-end ones.
    /// A metric that is not a finite number (an empty median, a rate over
    /// no time) is a failed check: the run then reports no numbers.
    pub fn render(&mut self, workload: &str, traced: bool) -> String {
        let mut text = String::new();
        let mut metrics: Vec<(String, &'static str, f64)> = Vec::new();
        if traced {
            for (name, unit) in per_layer_names() {
                let v = self
                    .layers
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(0.0, |m| m.2);
                metrics.push((name, unit, v));
            }
        } else {
            metrics.clone_from(&self.e2e);
        }
        for (name, _, v) in &metrics {
            if !v.is_finite() {
                self.errors
                    .push(format!("{name} is not a finite number ({v})"));
            }
        }
        let correct = self.errors.is_empty();
        for e in &self.errors {
            let _ = writeln!(text, "[perfbench] {workload}: output check failed: {e}");
        }
        if !correct {
            metrics.clear();
        } else if !traced {
            if let Some(f) = self.layers.iter().find(|m| m.0 == "fail_frac") {
                let _ = writeln!(text, "[perfbench] {workload}: fail_frac = {} ratio", f.2);
            }
        }
        for (name, unit, v) in &metrics {
            let _ = writeln!(text, "[perfbench] {workload}: {name} = {v} {unit}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        let _ = writeln!(
            text,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        text
    }
}

/// The ordered-map layer metrics shared by both map workloads.
pub fn map_layers(t: &Tracer, ledger: &Ledger, records_used: u64, out: &mut Out) {
    out.layer("map.insert_ns", "ns", t.agg(Layer::MapInsert).mean_ns());
    out.layer("map.delete_ns", "ns", t.agg(Layer::MapDelete).mean_ns());
    out.layer("map.get_ns", "ns", t.agg(Layer::MapGet).mean_ns());
    let updates = ledger.inserts + ledger.deletes;
    let effective = ledger.eff_inserts + ledger.eff_deletes;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.layer(
        "map.update_effective_frac",
        "ratio",
        ratio(effective, updates),
    );
    out.layer(
        "map.records_per_op",
        "ratio",
        ratio(records_used, ledger.ops()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer_names();
        let mut seen = std::collections::HashSet::new();
        for (n, _) in &names {
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(names.len() <= 128);
    }

    #[test]
    fn a_failed_check_reports_no_numbers() {
        let mut out = Out::default();
        out.e2e("setup_s", "s", 1.0);
        out.errors.push("lost an update".into());
        let text = out.render("w", false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": false"));
        assert!(last.ends_with("\"metrics\": {}}"));
    }

    #[test]
    fn a_metric_that_is_not_finite_fails_the_run() {
        let mut out = Out {
            attempted: 1,
            ..Out::default()
        };
        out.e2e("setup_s", "s", f64::NAN);
        out.e2e("ops_per_s", "1/s", 2.5);
        let text = out.render("w", false);
        assert_eq!(out.errors.len(), 1);
        assert!(text.contains("setup_s is not a finite number"));
        assert!(text.lines().last().unwrap().ends_with("\"metrics\": {}}"));

        let mut fine = Out {
            attempted: 1,
            ..Out::default()
        };
        fine.e2e("ops_per_s", "1/s", 2.5);
        let text = fine.render("w", false);
        assert!(fine.errors.is_empty());
        assert!(text.contains("\"ops_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}"));
    }
}
