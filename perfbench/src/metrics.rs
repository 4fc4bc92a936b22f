//! The benchmark's metric names and units, the values one run measured,
//! and the result line that reports them.

use crate::stats;
use ptdg_core::obs::{obj, Json};
use std::collections::BTreeMap;

/// A reported metric: name, unit and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the runtime sees; reported by the untraced run
/// (`--trace 0`). `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[Metric] = &[
    m("solve_s", "s", "lower"),
    m("iter_ms.p50", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Single-layer metrics; reported by the traced run (`--trace 1`). A
/// metric that does not apply to a workload reads 0 and prints `n/a`.
pub const PER_LAYER: &[Metric] = &[
    m("iter_ms.p90", "ms", "lower"),
    m("kernel.seq_s", "s", "lower"),
    m("kernel.gflops_computed", "GFLOP/s", "higher"),
    m("graph.tasks", "count", "lower"),
    m("graph.edges_per_task", "count", "lower"),
    m("graph.depend_items_per_task", "count", "lower"),
    m("graph.redirects", "count", "lower"),
    m("graph.dup_skipped", "count", "higher"),
    m("graph.capture_ms", "ms", "lower"),
    m("exec.cold_solve_s", "s", "lower"),
    m("exec.submit_ns_per_task", "ns", "lower"),
    m("exec.submit_share", "frac", "lower"),
    m("exec.wait_all_s", "s", "lower"),
    m("exec.throttle_help_s", "s", "lower"),
    m("rt.rearm_ns_per_task", "ns", "lower"),
    m("rt.parks_per_ktask", "count", "lower"),
    m("rt.steal_success_ratio", "frac", "higher"),
    m("rt.ready_hwm", "count", "lower"),
    m("rt.live_hwm", "count", "lower"),
    m("obs.profile_overhead", "frac", "lower"),
    m("simrt.ns_per_sim_task", "ns", "lower"),
    m("simrt.virtual_makespan_s", "s", "lower"),
    m("simrt.overlap_ratio", "frac", "higher"),
    m("simmpi.comm_virtual_s", "s", "lower"),
    m("memsim.l3_misses", "count", "lower"),
    m("bench.trace_overhead", "ratio", "lower"),
    m("bench.solves", "count", "higher"),
    m("bench.tail_pct", "pct", "higher"),
    m("bench.tail_solve_s", "s", "lower"),
    m("failed_frac", "frac", "lower"),
];

/// Named values one run measured.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Adds every value of `other`, replacing values of the same name.
    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&name, &value)| (name, value))
    }
}

/// Per-solve samples of named values, reduced to their medians.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn medians(&self) -> Values {
        let mut v = Values::default();
        for (&name, xs) in &self.0 {
            if let Some(med) = stats::median(xs) {
                v.set(name, med);
            }
        }
        v
    }
}

/// Prints one line per metric for a reader, `n/a` where a metric does not
/// apply.
pub fn print_table(metrics: &[Metric], values: &Values) {
    for metric in metrics {
        match values.get(metric.name) {
            Some(v) => println!(
                "  {:<28} {v:>16.6} {:<8} {} is better",
                metric.name, metric.unit, metric.better
            ),
            None => println!("  {:<28} {:>16} {}", metric.name, "n/a", metric.unit),
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `metrics` with its unit (0 where it does not apply).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    values: &Values,
) -> String {
    let fields = metrics
        .iter()
        .map(|metric| {
            let value = values.get(metric.name).unwrap_or(0.0);
            (
                metric.name.to_string(),
                obj([("value", value.into()), ("unit", metric.unit.into())]),
            )
        })
        .collect();
    obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(fields)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(a.name.len() <= 64 && a.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(a
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(a.unit.len() <= 16);
            assert!(a.better == "lower" || a.better == "higher");
            assert!(all[i + 1..].iter().all(|b| b.name != a.name), "{}", a.name);
        }
    }

    #[test]
    fn benchmark_manifest_lists_the_same_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                r#""name": "{}", "unit": "{}", "better": "{}""#,
                metric.name, metric.unit, metric.better
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches(r#""unit": "#).count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut v = Values::default();
        v.set("solve_s", 1.25);
        let line = result_line(true, 3, 0, &END_TO_END[..2], &v);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"solve_s":{"value":1.25,"unit":"s"},"iter_ms.p50":{"value":0,"unit":"ms"}}}"#
        );
    }
}
