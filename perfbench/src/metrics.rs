//! The metrics the benchmark prints, and the result line.
//!
//! Every name here is declared in `BENCHMARK.json` with the same unit and
//! direction (a test checks both ways), and a result line must carry
//! exactly one of the two sets: the end-to-end set untraced, the per-layer
//! set traced.

use std::collections::BTreeMap;
use std::fmt::Write;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that holds this table to `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    lower("p50_ms", "ms"),
    lower("tail_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

pub const PER_LAYER: &[Metric] = &[
    lower("problems.compile_us", "us"),
    lower("topo.detect_us", "us"),
    lower("domain.mask_op_ns", "ns"),
    lower("engine.fixpoint_ns", "ns"),
    lower("engine.seq_solve_ms", "ms"),
    lower("search.step_ns", "ns"),
    lower("search.nodes", "count"),
    lower("search.node_ratio", "ratio"),
    lower("pool.push_pop_ns", "ns"),
    lower("pool.release_ns", "ns"),
    lower("pool.steal_ns", "ns"),
    lower("gpi.round_trip_ns", "ns"),
    lower("runtime.working_ms", "ms"),
    lower("runtime.searching_ms", "ms"),
    lower("runtime.releasing_ms", "ms"),
    lower("runtime.poll_ms", "ms"),
    lower("runtime.idle_ms", "ms"),
    lower("runtime.wait_remote_ms", "ms"),
    lower("runtime.local_steals", "count"),
    lower("runtime.remote_steals", "count"),
    lower("runtime.polls", "count"),
    higher("runtime.steal_hit_ratio", "ratio"),
    higher("runtime.speedup", "ratio"),
    lower("runtime.residue_ms", "ms"),
    lower("core.outside_runtime_ms", "ms"),
    lower("sim.cost_load_us", "us"),
    lower("sim.virtual_makespan_ms", "ms"),
    lower("sim.events", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.peak_live_items", "count"),
    lower("sim.steals_d1", "count"),
    lower("sim.steals_d2", "count"),
    lower("sim.steals_d3", "count"),
    lower("sim.steals_d4", "count"),
    lower("sim.steals_d5", "count"),
    lower("sim.remote_steals", "count"),
    lower("sim.fabric_queue_ms", "ms"),
    lower("service.wait_ms", "ms"),
    lower("service.run_ms", "ms"),
    lower("service.resizes", "count"),
    lower("service.max_queue_depth", "count"),
    lower("service.sched_ns", "ns"),
    lower("self.bench_us", "us"),
    lower("self.core_us", "us"),
    lower("self.sim_us", "us"),
    lower("self.service_us", "us"),
    lower("bench.trace_overhead_ms", "ms"),
];

/// Metric values of one run, keyed by declared name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(name, value);
    }

    /// The result line: exactly the metrics of `set`, each with its unit.
    /// Panics if one is missing or one from outside `set` was recorded.
    pub fn result_line(
        &self,
        set: &[Metric],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        for name in self.0.keys() {
            assert!(
                set.iter().any(|m| m.name == *name),
                "metric {name} recorded but not in the printed set"
            );
        }
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in set.iter().enumerate() {
            let v = self
                .0
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} not measured", m.name));
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_prints_every_metric_of_the_set() {
        let mut v = Values::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            v.set(m.name, 1.5 + i as f64);
        }
        let line = v.result_line(END_TO_END, true, 40, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 40, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 4.5, \"unit\": \"MB\"}"));
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn a_missing_metric_is_refused() {
        let mut v = Values::default();
        v.set("p50_ms", 1.0);
        v.result_line(END_TO_END, true, 1, 0);
    }

    #[test]
    #[should_panic(expected = "not in the printed set")]
    fn a_metric_of_the_other_set_is_refused() {
        let mut v = Values::default();
        for m in END_TO_END {
            v.set(m.name, 1.0);
        }
        v.set("sim.events", 1.0);
        v.result_line(END_TO_END, true, 1, 0);
    }

    /// Just enough JSON to read `BENCHMARK.json`.
    #[derive(Debug)]
    enum Json {
        /// `true`, `false` or `null`.
        Literal,
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => {
                    &kv.iter()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("no {key}"))
                        .1
                }
                _ => panic!("{key} looked up in a non-object"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("{other:?} is not a string"),
            }
        }
    }

    fn parse(text: &str) -> Json {
        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[u8], i: &mut usize) -> Json {
            ws(b, i);
            match b[*i] {
                b'{' | b'[' => {
                    let obj = b[*i] == b'{';
                    *i += 1;
                    let (mut kv, mut arr) = (Vec::new(), Vec::new());
                    loop {
                        ws(b, i);
                        if b[*i] == b'}' || b[*i] == b']' {
                            *i += 1;
                            return if obj { Json::Obj(kv) } else { Json::Arr(arr) };
                        }
                        if obj {
                            let Json::Str(k) = value(b, i) else {
                                panic!("object key")
                            };
                            ws(b, i);
                            assert_eq!(b[*i], b':');
                            *i += 1;
                            kv.push((k, value(b, i)));
                        } else {
                            arr.push(value(b, i));
                        }
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'"' => {
                    let start = *i + 1;
                    *i = start
                        + b[start..]
                            .iter()
                            .position(|&c| c == b'"')
                            .expect("closing quote");
                    let s = String::from_utf8(b[start..*i].to_vec()).expect("utf-8");
                    assert!(!s.contains('\\'), "escapes are not needed here");
                    *i += 1;
                    Json::Str(s)
                }
                b't' | b'f' | b'n' => {
                    let word = [&b"true"[..], b"false", b"null"]
                        .into_iter()
                        .find(|w| b[*i..].starts_with(w))
                        .expect("literal");
                    *i += word.len();
                    Json::Literal
                }
                _ => {
                    let start = *i;
                    while *i < b.len() && b"+-.eE0123456789".contains(&b[*i]) {
                        *i += 1;
                    }
                    Json::Num(
                        std::str::from_utf8(&b[start..*i])
                            .unwrap()
                            .parse()
                            .expect("number"),
                    )
                }
            }
        }
        let mut i = 0;
        let v = value(text.as_bytes(), &mut i);
        ws(text.as_bytes(), &mut i);
        assert_eq!(i, text.len(), "trailing text");
        v
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let bench = parse(include_str!("../../BENCHMARK.json"));
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Json::Arr(declared) = bench.get(key) else {
                panic!("{key} is not a list")
            };
            let names: Vec<&str> = declared.iter().map(|m| m.get("name").str()).collect();
            let printed: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(names, printed, "{key}: declared and printed names differ");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(d.get("unit").str(), m.unit, "unit of {}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(d.get("better").str(), better, "direction of {}", m.name);
                if key == "end_to_end" {
                    let Json::Num(bound) = d.get("bound") else {
                        panic!("{} has no bound", m.name)
                    };
                    assert!(*bound > 0.0 && *bound <= 0.25, "bound of {}", m.name);
                }
            }
        }
        let Json::Arr(workloads) = bench.get("workloads") else {
            panic!("workloads is not a list")
        };
        // svc-open runs by hand only: it is too unsteady on a shared host
        // to gate (see the README).
        let names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
        assert_eq!(names, ["queens-local", "qap-remote", "sim-4k"]);
        for name in names {
            assert!(crate::workloads::Workload::ALL
                .iter()
                .any(|w| w.name() == name));
        }
        assert!(matches!(bench.get("run_seconds"), Json::Num(_)));
    }
}
