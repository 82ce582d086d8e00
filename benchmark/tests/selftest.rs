//! The benchmark's self-test: the manifest and `BENCHMARK.json` agree
//! and stay inside the contract's limits, and every workload, at 1/100
//! size, emits every metric exactly once with a finite value and the
//! manifest's unit, leaves well-formed result and span files, and
//! repeats its counts exactly for one seed.

use idivm_benchmark::json::{parse, Json};
use idivm_benchmark::manifest::{self, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing or not a string in {v:?}"))
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_metrics(listed: &Json, expected: &[Metric], gated: bool) {
    let listed = listed.as_arr().expect("metric list");
    assert_eq!(listed.len(), expected.len());
    for (j, m) in listed.iter().zip(expected) {
        assert_eq!(str_of(j, "name"), m.name);
        assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(str_of(j, "better"), m.better.label(), "{}", m.name);
        assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        let keys = if gated { 4 } else { 3 };
        assert!(matches!(j, Json::Obj(o) if o.len() == keys), "{}", m.name);
    }
}

#[test]
fn manifest_and_benchmark_json_agree_within_the_contract() {
    let j = benchmark_json();
    assert!(
        matches!(&j, Json::Obj(o) if o.len() == 6),
        "exactly six keys"
    );
    assert_eq!(
        j.get("run_seconds").and_then(Json::as_f64),
        Some(manifest::RUN_SECONDS as f64)
    );
    assert!((1..=60).contains(&manifest::RUN_SECONDS));
    let paths = j.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths, [Json::Str("benchmark".into())]);
    let command = j.get("command").and_then(Json::as_arr).expect("command");
    assert!(command.len() <= 32);
    assert!(command
        .iter()
        .any(|a| a.as_str() == Some("benchmark/Cargo.toml")));

    let workloads = j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), manifest::WORKLOADS.len());
    assert!((2..=8).contains(&workloads.len()));
    for (w, (name, why)) in workloads.iter().zip(manifest::WORKLOADS) {
        assert_eq!(str_of(w, "name"), name);
        assert_eq!(str_of(w, "why"), why);
        assert!(
            name_ok(name) && why.len() <= 200 && !why.contains('\n'),
            "{name}"
        );
    }

    check_metrics(
        j.get("end_to_end").expect("end_to_end"),
        &manifest::END_TO_END,
        true,
    );
    check_metrics(
        j.get("per_layer").expect("per_layer"),
        &manifest::PER_LAYER,
        false,
    );
    assert!(manifest::PER_LAYER.len() <= 128 && manifest::END_TO_END.len() <= 16);
    for m in &manifest::END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are gated");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    let setup = manifest::find("setup_s").expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));

    let mut names: Vec<&str> = manifest::END_TO_END
        .iter()
        .chain(&manifest::PER_LAYER)
        .map(|m| m.name)
        .chain(manifest::WORKLOADS.iter().map(|(n, _)| *n))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

/// Run the built benchmark at smoke size; returns the parsed result
/// line and the output directory.
fn smoke(workload: &str, trace: bool, tag: &str) -> (Json, PathBuf) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}"));
    let output = Command::new(env!("CARGO_BIN_EXE_idivm-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (
        parse(last).expect("the last line is one JSON object"),
        out_dir,
    )
}

/// The result's metrics as name -> value, checked against `expected`.
fn metrics(result: &Json, expected: &[Metric]) -> BTreeMap<String, f64> {
    assert!(
        matches!(result, Json::Obj(o) if o.len() == 4),
        "exactly four keys"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    let Some(Json::Obj(listed)) = result.get("metrics") else {
        panic!("`metrics` is not an object");
    };
    // The parser rejects duplicate keys, so equal sets means every
    // metric is there exactly once.
    let want: Vec<&str> = {
        let mut names: Vec<&str> = expected.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names
    };
    assert_eq!(listed.keys().map(String::as_str).collect::<Vec<_>>(), want);
    expected
        .iter()
        .map(|m| {
            let entry = &listed[m.name];
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{} has no numeric value", m.name));
            assert!(value.is_finite(), "{} = {value}", m.name);
            assert_eq!(str_of(entry, "unit"), m.unit, "{}", m.name);
            (m.name.to_string(), value)
        })
        .collect()
}

fn check_span_file(path: &Path) {
    let doc = parse(&std::fs::read_to_string(path).expect("span file")).expect("span file parses");
    let passes = doc.get("passes").and_then(Json::as_arr).expect("passes");
    assert!(!passes.is_empty());
    for pass in passes {
        assert!(!str_of(pass, "pass").is_empty());
        let factors = pass
            .get("segment_factors")
            .and_then(Json::as_arr)
            .expect("segment_factors");
        assert!(factors.iter().all(|f| f.as_f64() > Some(0.0)));
        let spans = pass.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(
            !spans.is_empty(),
            "pass {} recorded nothing",
            str_of(pass, "pass")
        );
        for (i, s) in spans.iter().enumerate() {
            assert!(!str_of(s, "name").is_empty());
            assert_eq!(s.get("id").and_then(Json::as_f64), Some(i as f64));
            let start = s.get("start_ns").and_then(Json::as_f64).expect("start_ns");
            let end = s.get("end_ns").and_then(Json::as_f64).expect("end_ns");
            assert!(start <= end, "span {i} ends before it starts");
            assert!(
                s.get("round").and_then(Json::as_f64).is_some(),
                "span {i} has no round"
            );
            let segment = s.get("segment").and_then(Json::as_f64).expect("segment");
            assert!((segment as usize) < factors.len(), "span {i} has no factor");
            match s.get("parent").expect("parent") {
                Json::Null => {}
                Json::Num(p) => assert!(*p < i as f64, "span {i}'s parent comes after it"),
                other => panic!("span {i} has parent {other:?}"),
            }
        }
    }
}

/// Every workload at 1/100 size, untraced and traced: every metric once,
/// finite, with the manifest's unit; well-formed files; and, run twice,
/// the counts of one seed repeat exactly.
#[test]
fn every_workload_at_smoke_size() {
    for (workload, _) in manifest::WORKLOADS {
        let (result, dir) = smoke(workload, false, "a");
        let e2e = metrics(&result, &manifest::END_TO_END);
        for (name, value) in &e2e {
            assert!(
                *value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }
        assert!(dir.join(format!("{workload}.json")).is_file());
        let again = metrics(&smoke(workload, false, "b").0, &manifest::END_TO_END);
        assert_eq!(
            e2e["accesses_per_event"], again["accesses_per_event"],
            "{workload}: the paper's cost unit must repeat exactly"
        );

        let (result, dir) = smoke(workload, true, "a");
        let layers = metrics(&result, &manifest::PER_LAYER);
        check_span_file(&dir.join(format!("{workload}.trace.json")));
        let history = std::fs::read_to_string(dir.join("history.jsonl")).expect("history");
        for line in history.lines() {
            let entry = parse(line).expect("history line parses");
            assert!(!str_of(&entry, "commit").is_empty());
            assert_eq!(str_of(&entry, "workload"), workload);
        }
        // Scratch stores are gone when the run ends.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("out dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("scratch-"))
            .collect();
        assert!(leftovers.is_empty(), "{workload} left {leftovers:?}");

        let repeating: &[&str] = match workload {
            "durable-multiview" => &[
                "durability.wal_bytes_per_event",
                "durability.checkpoint_bytes",
            ],
            "engine-fig12" => &["core.dummy_diff_ratio"],
            _ => continue,
        };
        let again = metrics(&smoke(workload, true, "b").0, &manifest::PER_LAYER);
        for name in repeating {
            assert!(layers[*name] > 0.0, "{name} was not measured");
            assert_eq!(layers[*name], again[*name], "{name}");
        }
    }
}
