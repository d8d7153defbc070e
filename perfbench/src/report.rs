//! What one run prints: a header, the correctness checks, the workload's
//! metrics by name with unit and sample count, and, as the last line, one
//! JSON object in the format `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off. Each
/// workload defines its "op" and "item" (see the benchmark README).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("host_ms_p50", "ms"),
];

/// Per-layer metrics of the traced run, reported by every workload;
/// layers a workload does not exercise read 0. Host times are per op.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("gpu.functional_s", "s"),
    ("gpu.worker_busy_frac", "frac"),
    ("gpu.blocks", "count"),
    ("gpu.blocks_per_host_s", "1/s"),
    ("gpu.launches", "count"),
    ("gpu.opaque_launches", "count"),
    ("detector.calls", "count"),
    ("detector.call_s", "s"),
    ("detector.call_ms_p50", "ms"),
    ("detector.call_ms_tail", "ms"),
    ("detector.outside_functional_s", "s"),
    ("detector.group_s", "s"),
    ("detector.frames_per_call", "count"),
    ("detector.cpu_ref_match_frac", "frac"),
    ("detector.tpr", "frac"),
    ("detector.fp_per_frame", "count"),
    ("serve.run_s", "s"),
    ("serve.bookkeeping_s", "s"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.batch_occupancy", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.steals", "count"),
    ("serve.migrations", "count"),
    ("serve.device_busy_frac", "frac"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.goodput", "frac"),
    ("serve.max_rate_rps", "1/s"),
    ("boost.fit_round_s", "s"),
    ("boost.fit_round_ms_p50", "ms"),
    ("boost.rounds", "count"),
    ("boost.row_ops_per_host_s", "1/s"),
    ("boost.outside_rounds_s", "s"),
    ("device.ms_p50", "ms"),
    ("device.sm_utilization", "frac"),
    ("device.mean_theoretical_occupancy", "frac"),
    ("device.launches_per_frame", "count"),
    ("device.limit.registers", "count"),
    ("device.limit.smem", "count"),
    ("device.limit.warps", "count"),
    ("device.limit.threads", "count"),
    ("device.limit.blocks", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.layer_sum_err_frac", "frac"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single measurement).
    pub n: usize,
}

/// One pass/fail correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// The end-to-end metrics `BENCHMARK.json` declares, by name.
    pub e2e: BTreeMap<&'static str, Metric>,
    /// Figures printed for people that no metric table holds (for
    /// example `frames_per_host_s`).
    pub named: Vec<Metric>,
    /// Per-layer metrics: all of them in traced runs, the virtual-clock
    /// and accuracy ones in every run. Only traced runs put them in the
    /// JSON line.
    pub layers: BTreeMap<&'static str, Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's metric table"))
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, n: usize) {
        let (key, unit) = unit_of(&END_TO_END, name);
        self.e2e.insert(
            key,
            Metric {
                name: key.to_string(),
                value,
                unit,
                n,
            },
        );
    }

    pub fn layer(&mut self, name: &str, value: f64, n: usize) {
        let (key, unit) = unit_of(&PER_LAYER, name);
        self.layers.insert(
            key,
            Metric {
                name: key.to_string(),
                value,
                unit,
                n,
            },
        );
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.named.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.pass)
    }

    /// Human-readable body followed by the one-line JSON result.
    pub fn render(&self, trace: bool) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let verdict = if c.pass { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {:<34} {}", c.name, c.detail);
        }
        let _ = writeln!(
            out,
            "{:<36} {:>16} {:<6} {:>7}",
            "metric", "value", "unit", "n"
        );
        let shown = self
            .e2e
            .values()
            .chain(&self.named)
            .chain(self.layers.values());
        for m in shown {
            let _ = writeln!(
                out,
                "{:<36} {:>16.6} {:<6} {:>7}",
                m.name, m.value, m.unit, m.n
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out.push_str(&self.json(trace));
        out.push('\n');
        out
    }

    /// The result line: every end-to-end metric with tracing off, every
    /// per-layer metric with tracing on (unexercised layers read 0).
    pub fn json(&self, trace: bool) -> String {
        let (table, values) = if trace {
            (&PER_LAYER[..], &self.layers)
        } else {
            (&END_TO_END[..], &self.e2e)
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).map_or(0.0, |m| m.value);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit `f64` carries; non-finite
/// values (which a correct run never produces) become 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_of_the_mode_in_table_order() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.e2e("host_ms_p50", 812.125, 20);
        r.layer("gpu.blocks", 139_000.0, 1);
        let e2e = r.json(false);
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(e2e.contains("\"host_ms_p50\": {\"value\": 812.125, \"unit\": \"ms\"}"));
        for (name, _) in END_TO_END {
            assert!(e2e.contains(&format!("\"{name}\"")), "{name} missing");
        }
        let layers = r.json(true);
        assert!(layers.contains("\"gpu.blocks\": {\"value\": 139000, \"unit\": \"count\"}"));
        assert!(layers.contains("\"serve.steals\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(!layers.contains("host_ms_p50"));
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check("a", true, "");
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.check("b", false, "mismatch");
        assert!(!r.correct());
        assert!(r.json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
