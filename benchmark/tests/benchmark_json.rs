//! `BENCHMARK.json` and the binary must agree in both directions: the
//! same workloads, and exactly the metric names, units and directions
//! the binary emits. Also guards build settings: a `[profile.*]` table
//! in the root manifest must be mirrored here, so the benchmark is
//! built as optimised as the product it measures.

use drfrlx_bench::json::{parse_json, Json};
use drfrlx_benchmark::catalog::{MetricDef, Workload, END_TO_END, PER_LAYER};
use drfrlx_benchmark::run::{end_to_end_metrics, metrics_json, package_dir, LayerAcc};
use std::collections::BTreeMap;

fn repo_file(name: &str) -> String {
    let path = package_dir().join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_json() -> Json {
    parse_json(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {obj:?}"),
    }
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string `{key}` in {obj:?}"))
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn assert_metrics_match(listed: &[Json], defs: &[MetricDef], extra_key: Option<&str>) {
    let names: Vec<&str> = listed.iter().map(|m| str_of(m, "name")).collect();
    let catalog: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, catalog, "BENCHMARK.json and the catalog list different metrics");
    for (m, d) in listed.iter().zip(defs) {
        let mut want = vec!["name", "unit", "better"];
        want.extend(extra_key);
        assert_eq!(keys(m), want, "{}: keys", d.name);
        assert_eq!(str_of(m, "unit"), d.unit, "{}: unit", d.name);
        assert_eq!(str_of(m, "better"), d.better.as_str(), "{}: direction", d.name);
        assert!(valid_name(d.name), "{}: invalid name", d.name);
        assert!(valid_unit(d.unit), "{}: invalid unit", d.name);
    }
}

#[test]
fn top_level_shape_and_command() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let list = |key: &str| -> Vec<&str> {
        let arr = doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("no `{key}`"));
        arr.iter().map(|v| v.as_str().expect("a string")).collect()
    };
    let paths = list("paths");
    assert_eq!(paths, ["benchmark"]);
    let command = list("command");
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
    let run_seconds = doc.get("run_seconds").and_then(Json::as_num).expect("run_seconds");
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
}

#[test]
fn workloads_match_in_both_directions() {
    let doc = benchmark_json();
    let listed = doc.get("workloads").and_then(Json::as_arr).expect("workloads");
    let names: Vec<&str> = listed.iter().map(|w| str_of(w, "name")).collect();
    let catalog: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, catalog);
    for w in listed {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    for name in names {
        assert_eq!(Workload::from_name(name).map(Workload::name), Some(name));
    }
}

#[test]
fn metrics_match_the_catalog_in_both_directions() {
    let doc = benchmark_json();
    let e2e = doc.get("end_to_end").and_then(Json::as_arr).expect("end_to_end");
    let layer = doc.get("per_layer").and_then(Json::as_arr).expect("per_layer");
    assert_metrics_match(e2e, &END_TO_END, Some("bound"));
    assert_metrics_match(layer, &PER_LAYER, None);

    let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "a metric name is used twice");

    let bounds: BTreeMap<&str, f64> = e2e
        .iter()
        .map(|m| (str_of(m, "name"), m.get("bound").and_then(Json::as_num).expect("a bound")))
        .collect();
    for (name, b) in &bounds {
        assert!(*b > 0.0 && *b <= 0.25, "{name}: bound {b} outside (0, 0.25]");
    }
    let setup = bounds["setup_s"];
    assert!(bounds.values().all(|b| *b <= setup), "setup_s must carry the largest bound");
}

#[test]
fn the_binary_emits_exactly_the_listed_metrics() {
    // `metrics_json` refuses a metric missing from the values or one
    // the catalog does not list, and the run prints through it.
    let per_op = vec![vec![0.01, 0.02], vec![0.03, 0.02]];
    let e2e = end_to_end_metrics(&[0.5, 0.4], &per_op, 200.0, 1.0);
    metrics_json(&END_TO_END, &e2e).expect("untraced metrics match the catalog");
    let layers = LayerAcc::default().metrics(&BTreeMap::new(), 3, 2);
    metrics_json(&PER_LAYER, &layers).expect("traced metrics match the catalog");

    let mut extra = e2e.clone();
    extra.insert("fail_ratio", 0.0);
    assert!(metrics_json(&END_TO_END, &extra).is_err());
    let mut missing = e2e;
    missing.remove("setup_s");
    assert!(metrics_json(&END_TO_END, &missing).is_err());
}

/// `[profile.*]` tables of a manifest: header line plus body lines.
fn profile_tables(manifest: &str) -> Vec<Vec<String>> {
    let mut tables: Vec<Vec<String>> = Vec::new();
    let mut in_profile = false;
    for line in manifest.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        if line.starts_with('[') {
            in_profile = line.starts_with("[profile");
            if in_profile {
                tables.push(vec![line.to_string()]);
            }
        } else if in_profile {
            tables.last_mut().expect("inside a table").push(line.to_string());
        }
    }
    tables
}

#[test]
fn root_build_profiles_are_mirrored() {
    let root = profile_tables(&repo_file("Cargo.toml"));
    let ours = profile_tables(&repo_file("benchmark/Cargo.toml"));
    for table in &root {
        assert!(ours.contains(table), "benchmark/Cargo.toml must mirror {table:?}");
    }
    assert_eq!(
        profile_tables(
            "[package]\nname = \"x\"\n[profile.release]\nlto = true\n\n[dependencies]\n"
        ),
        vec![vec!["[profile.release]".to_string(), "lto = true".to_string()]]
    );
}
