//! The repo benchmark: one process per workload, every metric by name.
//!
//! `run.sh` builds this package and forwards its arguments:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`. The last
//! line of standard output is the result object the driver reads.

mod live;
mod micro;
mod pipe;
mod sim;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use persephone::scenario::json::Json;

use stats::spread;

pub const WORKLOADS: [&str; 5] = [
    "pipe_loopback",
    "pipe_udp",
    "pipe_churn",
    "xbimodal_sim",
    "bimodal_live",
];

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("short_mean_us", "us"),
    ("short_p99_us", "us"),
    ("long_p99_us", "us"),
    ("short_slo_share", "share"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0 (README: applicability).
pub const PER_LAYER: [(&str, &str); 69] = [
    // Stage self-times of the stepped pipeline (pipe_*), ns per request.
    ("net.encode_tx_ns", "ns"),
    ("net.server_rx_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("core.classify_ns", "ns"),
    ("core.enqueue_ns", "ns"),
    ("core.poll_ns", "ns"),
    ("net.work_ring_ns", "ns"),
    ("runtime.handler_ns", "ns"),
    ("net.server_tx_ns", "ns"),
    ("net.completion_ring_ns", "ns"),
    ("core.complete_ns", "ns"),
    ("net.client_rx_ns", "ns"),
    ("pipe.request_ns", "ns"),
    ("pipe.split_cost_ns", "ns"),
    ("pipe.unaccounted_ns", "ns"),
    ("trace.overhead_share", "share"),
    ("telemetry.overhead_ns", "ns"),
    ("telemetry.events_overwritten", "count"),
    // Isolated tight loops: the paper's §4.3 budget lines (pipe_loopback).
    ("net.spsc_op_ns", "ns"),
    ("net.mpsc_op_ns", "ns"),
    ("net.pool_cycle_ns", "ns"),
    ("core.profile_update_ns", "ns"),
    ("core.update_check_ns", "ns"),
    ("core.reserve_ns", "ns"),
    ("core.engine_cycle_ns.darc", "ns"),
    ("core.engine_cycle_ns.cfcfs", "ns"),
    ("core.engine_cycle_ns.sjf", "ns"),
    ("core.engine_cycle_ns.fp", "ns"),
    ("core.engine_cycle_ns.dfcfs", "ns"),
    ("core.darc_idle_poll_ns", "ns"),
    ("telemetry.hist_record_ns", "ns"),
    ("telemetry.event_push_ns", "ns"),
    ("telemetry.snapshot_us", "us"),
    ("host.clock_ghz", "GHz"),
    // Counts at the boundaries.
    ("core.reservation_updates", "count"),
    ("runtime.received", "count"),
    ("runtime.dispatched", "count"),
    ("runtime.completed", "count"),
    ("runtime.dropped", "count"),
    ("runtime.expired", "count"),
    ("runtime.shed_at_shutdown", "count"),
    ("runtime.tx_give_ups", "count"),
    ("runtime.guaranteed_short", "count"),
    ("net.udp_tx_would_block", "count"),
    ("net.udp_rx_allocs", "count"),
    // Live attribution (bimodal_live).
    ("runtime.client_short_p50_us", "us"),
    ("runtime.client_short_p99_us", "us"),
    ("runtime.client_long_p99_us", "us"),
    ("runtime.server_sojourn_p99_us", "us"),
    ("runtime.client_overhead_p50_us", "us"),
    ("runtime.worker_busy_share", "share"),
    ("runtime.handler_oversleep_p50_us", "us"),
    ("runtime.start_ms", "ms"),
    ("runtime.stop_ms", "ms"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    // Simulator and scenario engine (xbimodal_sim).
    ("sim.trace_gen_ns", "ns"),
    ("sim.simulate_ns.darc", "ns"),
    ("sim.simulate_ns.cfcfs", "ns"),
    ("sim.short_p50_us", "us"),
    ("sim.short_slowdown_p999", "ratio"),
    ("sim.long_slowdown_p999", "ratio"),
    ("sim.cfcfs_short_slowdown_p999", "ratio"),
    ("sim.slo_load", "load"),
    ("sim.darc_guaranteed_short", "count"),
    ("scenario.parse_us", "us"),
    ("scenario.materialize_ns", "ns"),
    ("scenario.json_emit_us", "us"),
    ("fail.share", "share"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One built-in correctness check; any failure makes the run incorrect.
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, pass: bool, detail: String) -> Self {
        Check { name, pass, detail }
    }
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub ok: u64,
    pub checks: Vec<Check>,
    /// Every end-to-end metric.
    pub e2e: Vec<(&'static str, f64)>,
    /// The per-layer metrics this workload measures (trace runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Per-repetition samples behind a median, for the noise floor.
    pub spreads: Vec<(&'static str, Vec<f64>)>,
    pub schedule_hash: u64,
    /// Whether packets crossed in-process rings or the host's `lo`.
    pub transport: &'static str,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|&s| s >= 1)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    WORKLOADS.contains(&args.workload.as_str()).then_some(args)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Time the hypervisor ran something else on this VM's cores, summed over
/// them, in the kernel's ticks of 10 ms (`/proc/stat`, eighth value).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn print_fingerprint(outcome: &Outcome, args: &Args, stolen_ticks: u64) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    // The host's cores, not this process's: run.sh pins some workloads.
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    println!("host: cpu=\"{cpu}\" nproc={nproc} kernel={kernel}");
    println!(
        "host: rustc=\"{}\" commit={}",
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "--short", "HEAD"])
    );
    println!(
        "run: workload={} seed={} seconds={} trace={} transport=\"{}\" schedule_hash={:016x} stolen_ms={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        outcome.transport,
        outcome.schedule_hash,
        stolen_ticks * 10
    );
}

/// The metric names of `BENCHMARK.json` must be the tables above, or the
/// driver would look for keys this program never prints.
fn manifest_matches() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect()
    };
    let same = |key: &str, ours: Vec<&str>| -> Result<(), String> {
        let theirs = names(key);
        if theirs == ours {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json `{key}` differs from the program's table"
            ))
        }
    };
    same("workloads", WORKLOADS.to_vec())?;
    same("end_to_end", END_TO_END.iter().map(|m| m.0).collect())?;
    same("per_layer", PER_LAYER.iter().map(|m| m.0).collect())
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if let Err(e) = manifest_matches() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }

    let steal_before = steal_ticks();
    let mut outcome = match args.workload.as_str() {
        "pipe_loopback" | "pipe_udp" | "pipe_churn" => pipe::run(&args),
        "xbimodal_sim" => sim::run(&args),
        _ => live::run(&args),
    };
    let failed = outcome.attempted - outcome.ok;
    outcome.layers.push((
        "fail.share",
        failed as f64 / outcome.attempted.max(1) as f64,
    ));

    print_fingerprint(&outcome, &args, steal_ticks() - steal_before);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let measured = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = measured.iter().find(|m| m.0 == *name).map_or(0.0, |m| m.1);
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, samples) in &outcome.spreads {
        let s = spread(samples);
        println!(
            "noise {name}: min={} q1={} median={} q3={} mad={} reps={}",
            s.min, s.q1, s.median, s.q3, s.mad, s.reps
        );
    }
    let mut correct = true;
    for c in &outcome.checks {
        println!(
            "check {}: {} ({})",
            if c.pass { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
        correct &= c.pass;
    }
    println!(
        "ledger: attempted={} ok={} failed={failed}",
        outcome.attempted, outcome.ok
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
