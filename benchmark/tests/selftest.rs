//! Tiny-size self-test: every workload, untraced and traced, passes its
//! checks and emits every metric `BENCHMARK.json` names, finite and with
//! the listed unit, and its result line has exactly the four keys.
//!
//! The workloads share the process-global obs registry, so they run one
//! after another inside a single test.

use serde::Value;
use sisg_repo_bench::report::result_line;
use sisg_repo_bench::{run_workload, Metric, RunConfig, Scale, Workload};

/// (name, unit) of every metric in one `BENCHMARK.json` list.
fn listed(doc: &Value, list: &str) -> Vec<(String, String)> {
    let Ok(Value::Array(items)) = doc.get_field(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| match (m.get_field("name"), m.get_field("unit")) {
            (Ok(Value::Str(n)), Ok(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed {list} entry"),
        })
        .collect()
}

fn assert_emits(workload: &str, emitted: &[Metric], wanted: &[(String, String)]) {
    for (name, unit) in wanted {
        let m = emitted
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
        assert_eq!(&m.unit, unit, "{workload}: {name} unit");
        assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
    }
    for m in emitted {
        assert!(
            wanted.iter().any(|(n, _)| n == m.name),
            "{workload}: {} is emitted but not listed",
            m.name
        );
    }
}

#[test]
fn every_listed_metric_is_emitted_finite_and_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    let Ok(Value::Array(workloads)) = doc.get_field("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    assert_eq!(workloads.len(), Workload::ALL.len());

    for workload in Workload::ALL {
        for traced in [false, true] {
            let cfg = RunConfig {
                workload,
                seed: 3,
                seconds: 1.0,
                traced,
                scale: Scale::tiny(),
            };
            let outcome = run_workload(&cfg);
            let name = format!("{} trace {}", workload.name(), u8::from(traced));
            for c in &outcome.checks {
                assert!(c.pass, "{name}: check failed: {} ({})", c.name, c.detail);
            }
            assert!(
                outcome.correct() && outcome.attempted > 0,
                "{name}: not correct"
            );
            for m in &outcome.workload_metrics {
                assert!(
                    m.value.is_finite() && !m.unit.is_empty(),
                    "{name}: {} = {}",
                    m.name,
                    m.value
                );
            }
            let metrics = if traced {
                &outcome.per_layer
            } else {
                &outcome.end_to_end
            };
            assert_emits(
                &name,
                metrics,
                if traced { &per_layer } else { &end_to_end },
            );
            assert_eq!(
                traced,
                outcome.tracer.as_ref().is_some_and(|t| !t.is_empty()),
                "{name}: spans"
            );

            let line: Value =
                serde_json::from_str(&result_line(&outcome, metrics)).expect("result line parses");
            let Value::Object(fields) = &line else {
                panic!("{name}: result line is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{name}"
            );
        }
    }
}
