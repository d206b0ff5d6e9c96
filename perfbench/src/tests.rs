//! Benchmark self-test: a tiny run of every workload emits every named
//! metric with its unit and passes its checks, `BENCHMARK.json` declares
//! exactly the catalogue, and the identity check trips on one altered
//! snapshot byte. Run with
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use super::*;
use crate::report::unit_of;
use std::collections::BTreeMap;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The string value of `"key": "…"` inside one JSON object's text.
fn field(object: &str, key: &str) -> String {
    let pattern = format!("\"{key}\":");
    let at =
        object.find(&pattern).unwrap_or_else(|| panic!("no {key} in {object}")) + pattern.len();
    let rest = object[at..].trim_start().strip_prefix('"').expect("string value");
    rest[..rest.find('"').expect("closing quote")].to_string()
}

/// The objects of list `section` in BENCHMARK.json, as text.
fn section(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).unwrap_or_else(|| panic!("no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list end")];
    body.split('{').skip(1).map(str::to_string).collect()
}

fn declared(name: &str) -> Vec<(String, String)> {
    for o in section(name) {
        let higher = field(&o, "better") == "higher";
        assert_eq!(higher, report::higher_is_better(&field(&o, "name")), "direction of {o}");
    }
    section(name).iter().map(|o| (field(o, "name"), field(o, "unit"))).collect()
}

fn catalogue(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    assert_eq!(declared("end_to_end"), catalogue(END_TO_END));
    assert_eq!(declared("per_layer"), catalogue(PER_LAYER));
    let workloads: Vec<String> = section("workloads").iter().map(|o| field(o, "name")).collect();
    // `taxi-serial` runs on demand but is not gated (see README.md).
    assert_eq!(workloads, ["fleet-bulk", "fleet-trickle"]);
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
}

fn tiny(workload: Workload, trace: bool) -> (Report, Option<Arc<Tracer>>) {
    let args = Args { workload, seed: 7, seconds: 0.2, trace };
    let dir = repo_root().join(OUT_DIR).join(format!(
        "selftest-{}-{}-{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    ));
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome.expect("tiny run completes")
}

/// Names of the spans a traced run recorded in `layers` (name prefixes).
fn spans_in(tracer: &Tracer, layers: &[&str]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = tracer
        .spans()
        .iter()
        .map(|s| s.name)
        .filter(|n| layers.iter().any(|l| n.starts_with(l)))
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn assert_emits(report: &Report, names: &[(&str, &str)]) {
    assert!(report.correct(), "{}", report.render("self-test"));
    for &(name, _) in report::REPORTED {
        assert!(report.get(name).is_some_and(f64::is_finite), "{name} not printed");
    }
    let line = report.result_json(names);
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    for &(name, unit) in names {
        assert!(report.get(name).is_some_and(f64::is_finite), "{name} not emitted");
        assert_eq!(unit_of(name), Some(unit));
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} not in {line}");
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
}

#[test]
fn taxi_serial_emits_every_metric_and_crosses_no_pool_or_codec() {
    assert_emits(&tiny(Workload::TaxiSerial, false).0, END_TO_END);
    let (traced, tracer) = tiny(Workload::TaxiSerial, true);
    assert_emits(&traced, PER_LAYER);
    let tracer = tracer.expect("spans");
    assert_eq!(spans_in(&tracer, &["runtime.", "codec."]), Vec::<&str>::new());
    assert!(!spans_in(&tracer, &["core.", "stream."]).is_empty());
    for name in ["runtime.coalescing", "codec.wal_records"] {
        assert!(traced.not_applicable.contains(&name), "{name} not marked not applicable");
    }
    assert!(traced.get("core.ingest_us").is_some_and(|v| v > 0.0));
}

#[test]
fn fleet_bulk_emits_every_metric() {
    assert_emits(&tiny(Workload::FleetBulk, false).0, END_TO_END);
    let (traced, tracer) = tiny(Workload::FleetBulk, true);
    assert_emits(&traced, PER_LAYER);
    assert!(traced.not_applicable.is_empty());
    let recorded = spans_in(&tracer.expect("spans"), &["runtime.", "codec."]);
    assert!(recorded.contains(&"runtime.submit") && recorded.contains(&"codec.wal_record"));
    assert!(traced.get("runtime.coalescing").is_some_and(|c| c >= 1.0));
    assert!(traced.get("codec.wal_records").is_some_and(|n| n > 0.0));
    assert!(traced.checks.iter().any(|c| c.name == "pooled_equals_serial" && c.ok));
}

#[test]
fn fleet_trickle_emits_every_metric() {
    assert_emits(&tiny(Workload::FleetTrickle, false).0, END_TO_END);
    let (traced, _) = tiny(Workload::FleetTrickle, true);
    assert_emits(&traced, PER_LAYER);
    assert_eq!(traced.get("runtime.coalescing"), Some(1.0), "round-robin traffic never coalesces");
}

#[test]
fn identity_check_trips_on_one_altered_snapshot_byte() {
    let tenant = inputs::small_tenant(5, 9, 64);
    let sent = vec![(2u64, 0..32), (3, 32..64)];
    let (engine, _) = layers::mirror(&tenant, &sent, &Tracer::new(false)).expect("mirror");
    let snapshot = layers::mirror_snapshot(&tenant, engine.as_ref(), 64).expect("capture");
    let bytes = sns_codec::to_bytes(&snapshot);
    let reference = BTreeMap::from([(5u64, bytes.clone())]);
    assert_eq!(layers::count_identical(&reference, [(5, bytes.clone())]), 1);
    for at in [0, bytes.len() / 2, bytes.len() - 1] {
        let mut altered = bytes.clone();
        altered[at] ^= 0x01;
        assert_eq!(layers::count_identical(&reference, [(5, altered)]), 0, "byte {at} altered");
    }
    assert_eq!(layers::count_identical(&reference, [(6, bytes)]), 0, "another stream's bytes");
}

#[test]
fn arguments_parse_and_reject() {
    let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let a =
        parse_args(&argv("--workload fleet-bulk --seed 3 --seconds 10 --trace 1")).expect("valid");
    assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::FleetBulk, 3, 10.0, true));
    assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
    assert!(parse_args(&argv("--seed 1")).is_err());
    assert!(parse_args(&argv("--workload taxi-serial --seconds 0")).is_err());
}
