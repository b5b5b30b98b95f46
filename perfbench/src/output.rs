//! Metric catalog, summary statistics and the result line.
//!
//! The catalog here is the single list of metric names; `BENCHMARK.json`
//! at the repository root declares the same names (a test keeps the two
//! in step).

use std::fmt::Write as _;

/// End-to-end metrics, reported with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("first_row_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("mc_iters_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`: `(name, unit)`. A layer
/// a workload does not run reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cache.train_s", "s"),
    ("cache.load_ms", "ms"),
    ("dataset.generate_ms", "ms"),
    ("neural.software_accuracy_ms", "ms"),
    ("core.testbatch_new_ms", "ms"),
    ("cache.mapping_ms", "ms"),
    ("core.nominal_accuracy_ms", "ms"),
    ("queue.compile_ms", "ms"),
    ("prepare.replay_ms", "ms"),
    ("prepare.first_row_cover", "frac"),
    ("core.realize_us", "us"),
    ("core.forward_us.reference", "us"),
    ("core.forward_us.fma", "us"),
    ("runner.point_ms", "ms"),
    ("runner.parallel_eff", "frac"),
    ("rowcache.hit_ratio", "frac"),
    ("rowcache.get_us", "us"),
    ("serve.head_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("spec.parse_us", "us"),
    ("serve.assemble_us", "us"),
    ("shard.dispatch_ms", "ms"),
    ("shard.dispatch_skew", "ratio"),
    ("shard.partial_parse_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("report.encode_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("count.mc_iters_per_op", "count"),
    ("count.rows_computed_per_op", "count"),
    ("count.rows_replayed_per_op", "count"),
    ("count.prepare_per_op", "count"),
    ("count.shards_per_op", "count"),
    ("count.http_429", "count"),
];

#[cfg(test)]
/// `true` when `name` is a valid metric or workload name: 1 to 64 of
/// letters, digits, `_`, `.`, `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
/// `true` when `unit` is a valid unit: 1 to 16 of letters, digits, `_`,
/// `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One run's result: the fields of the final stdout line.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Ops started in the timed window.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned wrong output.
    pub failed: u64,
    /// `(name, value)` in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// The metrics this run must report (`trace` selects the catalog).
    pub fn catalog(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Renders the result line. Every catalog metric must be present and
    /// finite; a missing one is a bug in this program.
    ///
    /// # Panics
    ///
    /// Panics if a catalog metric is missing or not finite.
    pub fn to_json(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in Self::catalog(trace).iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            assert!(value.is_finite(), "metric {name} is {value}");
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                json_num(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A finite float in JSON form, with every digit Rust's shortest
/// round-trip formatting gives.
fn json_num(v: f64) -> String {
    let s = v.to_string();
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(trace: bool) -> RunResult {
        RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: RunResult::catalog(trace)
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (*n, 0.125 + i as f64))
                .collect(),
        }
    }

    #[test]
    fn every_name_and_unit_is_valid_and_used_once() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        assert!(!valid_name(".x") && !valid_name("a/b") && !valid_name(""));
        assert!(!valid_name(&"a".repeat(65)) && valid_name(&"a".repeat(64)));
        assert!(!valid_unit("m s") && valid_unit("1/s"));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        for (section, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            let declared: Vec<(String, String)> = body
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, expected, "{section}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for trace in [false, true] {
            let line = full(trace).to_json(trace);
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"
            ));
            assert!(line.ends_with("}}"));
            assert!(!line.contains('\n'));
            for (name, unit) in RunResult::catalog(trace) {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert_eq!(line.matches(&entry).count(), 1, "{name}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert_eq!(
                line.matches("\"value\"").count(),
                RunResult::catalog(trace).len()
            );
        }
        assert!(full(false).to_json(false).contains("\"value\": 0.125,"));
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(1e-7), "0.0000001");
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        let mut r = full(false);
        r.metrics.pop();
        let _ = r.to_json(false);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(
            (quantile(
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
                0.9
            ) - 10.0)
                .abs()
                < 1e-12
        );
    }
}
