//! End-to-end tests for the scenario engine: every shipped spec in
//! `scenarios/` must parse, round-trip through the TOML renderer, and
//! produce a schema-valid, seed-deterministic `BENCH_*.json` on both
//! backends.

use std::sync::{Mutex, MutexGuard, PoisonError};

use persephone::scenario::{run_scenario, Backend, Meta, ScenarioSpec};
use persephone_scenario::json::{validate_bench, Json};
use persephone_scenario::toml;

fn scenario_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn shipped_specs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(scenario_dir()).expect("scenarios/ directory") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        out.push((stem, std::fs::read_to_string(&path).unwrap()));
    }
    out.sort();
    out
}

/// A spec small enough that the threaded backend replays it in well
/// under a second even on a single-core machine.
const TINY: &str = r#"
name = "tiny"
description = "integration-test spec"
seed = 99
workers = 2
policies = ["darc"]
load = 0.5
duration_ms = 10.0

[engine]
darc_min_samples = 200

[threaded]
grace_ms = 100

[[types]]
name = "SHORT"
ratio = 0.5
service = { dist = "constant", mean_us = 1.0 }

[[types]]
name = "LONG"
ratio = 0.5
service = { dist = "constant", mean_us = 20.0 }
"#;

#[test]
fn all_shipped_scenarios_parse_and_name_their_file() {
    let specs = shipped_specs();
    assert!(
        specs.len() >= 4,
        "expected the curated suite to ship at least 4 scenarios, found {}",
        specs.len()
    );
    for (stem, text) in &specs {
        let spec = ScenarioSpec::from_toml(text)
            .unwrap_or_else(|e| panic!("scenarios/{stem}.toml rejected: {e}"));
        assert_eq!(
            &spec.name, stem,
            "scenarios/{stem}.toml must set name = \"{stem}\" so the BENCH file matches"
        );
    }
}

#[test]
fn shipped_scenarios_round_trip_through_the_renderer() {
    for (stem, text) in shipped_specs() {
        let table = toml::parse(&text).unwrap_or_else(|e| panic!("scenarios/{stem}.toml: {e}"));
        let rendered = toml::render(&table);
        let reparsed = toml::parse(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of rendered scenarios/{stem}.toml: {e}"));
        assert_eq!(
            table, reparsed,
            "scenarios/{stem}.toml changed across a render/parse round trip"
        );
        // The rendered form must describe the same scenario.
        let a = ScenarioSpec::from_table(&table).unwrap();
        let b = ScenarioSpec::from_table(&reparsed).unwrap();
        assert_eq!(a.build_trace(), b.build_trace(), "scenarios/{stem}.toml");
    }
}

#[test]
fn corrupting_a_shipped_scenario_yields_actionable_errors() {
    let smoke = std::fs::read_to_string(scenario_dir().join("smoke.toml")).unwrap();

    // Typo in a top-level key: rejected, and the error names the typo.
    let typo = smoke.replace("workers = 4", "wrokers = 4");
    let e = ScenarioSpec::from_toml(&typo).expect_err("typo must be rejected");
    let msg = e.to_string();
    assert!(msg.contains("wrokers"), "error should name the typo: {msg}");

    // Ratios that stop summing to 1: rejected with the actual sum.
    let skew = smoke.replace("ratio = 0.5", "ratio = 0.4");
    let e = ScenarioSpec::from_toml(&skew).expect_err("bad ratio sum must be rejected");
    assert!(e.to_string().contains("sum"), "{e}");

    // Broken TOML: the parse error carries a line number.
    let broken = smoke.replace("load = 0.6", "load = ");
    let e = ScenarioSpec::from_toml(&broken).expect_err("broken TOML must be rejected");
    assert!(e.to_string().contains("line"), "{e}");
}

#[test]
fn same_seed_sim_bench_is_byte_identical() {
    let spec = ScenarioSpec::from_toml(TINY).unwrap();
    let a = run_scenario(&spec, &[Backend::Sim], Meta::fixed()).render();
    let b = run_scenario(&spec, &[Backend::Sim], Meta::fixed()).render();
    assert_eq!(a, b, "sim backend must be fully deterministic per seed");

    let report = Json::parse(&a).unwrap();
    let problems = validate_bench(&report);
    assert!(problems.is_empty(), "schema violations: {problems:?}");
}

#[test]
fn changing_the_seed_changes_the_schedule_hash() {
    let spec = ScenarioSpec::from_toml(TINY).unwrap();
    let mut reseeded = ScenarioSpec::from_toml(TINY).unwrap();
    reseeded.seed = 100;
    let a = run_scenario(&spec, &[Backend::Sim], Meta::fixed());
    let b = run_scenario(&reseeded, &[Backend::Sim], Meta::fixed());
    assert_ne!(a.deterministic.schedule_hash, b.deterministic.schedule_hash);
    assert_eq!(a.deterministic.schedule_hash.len(), 16);
}

/// Serialises the threaded-backend tests of this binary: run side by side
/// on a two-core host, their busy-polling threads starve one another and
/// most requests time out.
static THREADED: Mutex<()> = Mutex::new(());

fn threaded_turn() -> MutexGuard<'static, ()> {
    // The mutex guards no data, so a test that failed holding it has
    // left nothing half-done for the next one.
    THREADED.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn threaded_backend_agrees_on_the_deterministic_section() {
    let spec = ScenarioSpec::from_toml(TINY).unwrap();
    let sim = run_scenario(&spec, &[Backend::Sim], Meta::fixed());
    let threaded = {
        let _turn = threaded_turn();
        run_scenario(&spec, &[Backend::Threaded], Meta::fixed())
    };

    // Everything derived from (spec, seed) is identical across backends;
    // only the measured `runs` may differ.
    let det = |r: &persephone::scenario::BenchReport| {
        let json = Json::parse(&r.render()).unwrap();
        json.get("deterministic").unwrap().render()
    };
    assert_eq!(det(&sim), det(&threaded));

    // The threaded report is schema-valid too, and actually did work.
    let json = Json::parse(&threaded.render()).unwrap();
    let problems = validate_bench(&json);
    assert!(problems.is_empty(), "schema violations: {problems:?}");
    let runs = json.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), 1);
    // How many requests a busy host answers in time is not this test's
    // business; that every request sent is accounted for is.
    let count = |key: &str| runs[0].get(key).unwrap().as_f64().unwrap();
    let outcomes = ["completions", "dropped", "rejected", "timed_out"];
    let accounted: f64 = outcomes.iter().map(|key| count(key)).sum();
    assert!(count("completions") > 0.0);
    assert_eq!(accounted, count("sent"), "{}", runs[0].render());
}

#[test]
fn smoke_scenario_runs_on_the_threaded_backend() {
    // The exact spec CI replays: scenarios/smoke.toml, threaded, but with
    // the duration cut down so the test stays fast on small machines.
    let text = std::fs::read_to_string(scenario_dir().join("smoke.toml")).unwrap();
    let mut spec = ScenarioSpec::from_toml(&text).unwrap();
    spec.phases[0].duration_ms = 10.0;
    let report = {
        let _turn = threaded_turn();
        run_scenario(&spec, &[Backend::Threaded], Meta::fixed())
    };
    let json = Json::parse(&report.render()).unwrap();
    assert!(validate_bench(&json).is_empty());
    assert_eq!(report.runs.len(), 2, "smoke ships two policies");
    for run in &report.runs {
        assert!(run.completions > 0, "{} completed nothing", run.policy);
    }
}
