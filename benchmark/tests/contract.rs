//! `BENCHMARK.json` at the repo root must say what the code measures.

use scidive_perf::gen::{Spec, WORKLOADS};
use scidive_perf::report::{self, MetricDef, END_TO_END, PER_LAYER};
use serde_json::Value;

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    report::field(value, key).unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Seq(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn assert_mirrors(declared: &Value, defs: &[MetricDef]) {
    let declared = items(declared);
    assert_eq!(declared.len(), defs.len());
    for (entry, def) in declared.iter().zip(defs) {
        assert_eq!(text(field(entry, "name")), def.name);
        assert_eq!(text(field(entry, "unit")), def.unit, "{}", def.name);
        assert_eq!(text(field(entry, "better")), def.better, "{}", def.name);
        if let Some(bound) = def.bound {
            assert_eq!(field(entry, "bound").as_f64(), Some(bound), "{}", def.name);
            assert!(
                bound <= 0.25,
                "{}: bounds are capped at a quarter",
                def.name
            );
        }
    }
}

#[test]
fn benchmark_json_mirrors_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("readable"))
        .expect("BENCHMARK.json parses");
    assert_mirrors(field(&doc, "end_to_end"), &END_TO_END);
    assert_mirrors(field(&doc, "per_layer"), &PER_LAYER);
    let workloads = items(field(&doc, "workloads"));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, name) in workloads.iter().zip(WORKLOADS) {
        let spec = Spec::named(name).expect("known workload");
        assert_eq!(text(field(entry, "name")), name);
        assert_eq!(text(field(entry, "why")), spec.why);
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }
    // The largest bound belongs to set-up time, which must be declared.
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s declared");
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
}

#[test]
fn metric_names_are_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total);
}
