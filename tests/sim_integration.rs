//! Cross-crate simulation integration tests: queueing-theory baselines,
//! paper-workload dominance relations, and determinism.

use persephone::core::dist::Dist;
use persephone::core::policy::{Policy, TimeSharingParams};
use persephone::core::time::Nanos;
use persephone::sim::experiment::{capacity_at_slo, run_point, sweep, Slo, SweepConfig};
use persephone::sim::workload::{TypeMix, Workload};

fn mm1_workload(mean_us: u64) -> Workload {
    Workload::new(
        "mm1",
        vec![TypeMix::new(
            "X",
            1.0,
            Dist::Exponential(Nanos::from_micros(mean_us)),
        )],
    )
}

/// M/M/1 sojourn time is S/(1−ρ); check the simulator end to end against
/// the closed form at ρ = 0.5 (expected sojourn = 2S).
#[test]
fn mm1_matches_closed_form() {
    let wl = mm1_workload(10);
    let cfg = SweepConfig::new(wl, 1, vec![0.5], Nanos::from_millis(600));
    let out = run_point(&Policy::CFcfs, &cfg, 0.5, 99);
    let mean = out.summary.per_type[0].latency_ns.mean;
    assert!(
        (mean - 20_000.0).abs() < 1_200.0,
        "M/M/1 mean sojourn = {mean} ns, expected ≈ 20000"
    );
}

/// Same seed ⇒ bit-identical percentile results (full determinism).
#[test]
fn simulation_is_deterministic() {
    let cfg = SweepConfig::new(
        Workload::extreme_bimodal(),
        8,
        vec![0.8],
        Nanos::from_millis(50),
    );
    let a = run_point(&Policy::Darc, &cfg, 0.8, 1234);
    let b = run_point(&Policy::Darc, &cfg, 0.8, 1234);
    assert_eq!(
        a.summary.overall_slowdown.p999,
        b.summary.overall_slowdown.p999
    );
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.end_time, b.end_time);
    let c = run_point(&Policy::Darc, &cfg, 0.8, 1235);
    assert_ne!(
        a.completions, c.completions,
        "different seed, different run"
    );
}

/// The paper's core dominance claim, on every evaluation workload: at
/// high load DARC's overall p99.9 slowdown beats c-FCFS's.
#[test]
fn darc_dominates_cfcfs_on_every_paper_workload() {
    for wl in [
        Workload::high_bimodal(),
        Workload::extreme_bimodal(),
        Workload::tpcc(),
        Workload::rocksdb(),
    ] {
        // RocksDB's 318 µs mean needs more simulated time per sample; the
        // paper's TPC-C headline comparison point is 85 % load (five types
        // keep the allocation boundary hotter than the bimodals).
        let ms = if wl.mean_service() > Nanos::from_micros(100) {
            2_000
        } else {
            300
        };
        let load = if wl.num_types() > 2 { 0.85 } else { 0.9 };
        let cfg = SweepConfig {
            darc_min_samples: 10_000,
            ..SweepConfig::new(wl.clone(), 14, vec![load], Nanos::from_millis(ms))
        };
        let darc = run_point(&Policy::Darc, &cfg, load, 7);
        let cfcfs = run_point(&Policy::CFcfs, &cfg, load, 7);
        assert!(
            darc.summary.overall_slowdown.p999 < cfcfs.summary.overall_slowdown.p999,
            "{}: DARC {} !< c-FCFS {}",
            wl.name,
            darc.summary.overall_slowdown.p999,
            cfcfs.summary.overall_slowdown.p999
        );
    }
}

/// Figure 1's ordering of policies by sustainable load under the
/// per-type 10× slowdown SLO: DARC > TS(1 µs) ≥ c-FCFS > d-FCFS.
#[test]
fn fig1_policy_ordering_holds() {
    let loads: Vec<f64> = (1..=9).map(|i| i as f64 * 0.1).collect();
    let cfg = SweepConfig {
        darc_min_samples: 5_000,
        ..SweepConfig::new(
            Workload::extreme_bimodal(),
            16,
            loads,
            Nanos::from_millis(150),
        )
    };
    let slo = Slo::PerTypeSlowdown(10.0);
    let cap = |p: &Policy| capacity_at_slo(&sweep(p, &cfg), slo).unwrap_or(0.0);
    let darc = cap(&Policy::Darc);
    let ts = cap(&Policy::TimeSharing(TimeSharingParams::shinjuku_fig1()));
    let cfcfs = cap(&Policy::CFcfs);
    let dfcfs = cap(&Policy::DFcfs);
    assert!(darc > ts, "DARC {darc} !> TS {ts}");
    assert!(ts >= cfcfs, "TS {ts} !>= c-FCFS {cfcfs}");
    assert!(cfcfs > dfcfs, "c-FCFS {cfcfs} !> d-FCFS {dfcfs}");
}

/// Long requests are the price of DARC: their tail is allowed to be worse
/// than under c-FCFS, but they must never be starved (they complete, and
/// their p50 stays within a small multiple).
#[test]
fn darc_does_not_starve_long_requests() {
    let cfg = SweepConfig {
        darc_min_samples: 3_000,
        ..SweepConfig::new(
            Workload::high_bimodal(),
            14,
            vec![0.8],
            Nanos::from_millis(400),
        )
    };
    let darc = run_point(&Policy::Darc, &cfg, 0.8, 3);
    let cfcfs = run_point(&Policy::CFcfs, &cfg, 0.8, 3);
    let d_long = &darc.summary.per_type[1];
    let c_long = &cfcfs.summary.per_type[1];
    assert!(d_long.latency_ns.count > 0, "long requests completed");
    assert!(
        d_long.latency_ns.p50 < c_long.latency_ns.p50 * 10.0,
        "long p50 exploded: {} vs {}",
        d_long.latency_ns.p50,
        c_long.latency_ns.p50
    );
}

/// The non-work-conserving trade-off is real: DARC leaves cores idle
/// (its peak utilization is below c-FCFS's at the same offered load when
/// the load saturates the reserved split), yet still wins on slowdown.
#[test]
fn darc_idles_reserved_cores() {
    let cfg = SweepConfig {
        darc_min_samples: 3_000,
        ..SweepConfig::new(Workload::rocksdb(), 8, vec![0.9], Nanos::from_millis(3_000))
    };
    let darc = run_point(&Policy::Darc, &cfg, 0.9, 5);
    // The GET-reserved core is nearly idle: total busy cores must sit
    // clearly below the worker count even at 90 % offered load.
    let busy = darc.mean_busy_cores();
    assert!(busy < 7.9, "busy cores = {busy}, expected idle reserve");
    assert!(busy > 6.0, "busy cores = {busy}, load should still flow");
}

/// DARC's selective work conservation absorbs bursts of short requests
/// (paper §3: stealing exists so reduced core counts don't destroy burst
/// tolerance): under MMPP-modulated bursty arrivals, DARC still keeps the
/// short tail far below c-FCFS.
#[test]
fn darc_absorbs_bursts_via_stealing() {
    use persephone::sim::engine::{simulate, SimConfig};
    use persephone::sim::policies::{cfcfs::CFcfs, darc::DarcSim};
    use persephone::sim::workload::{ArrivalGen, BurstModel};

    let wl = Workload::extreme_bimodal();
    let dur = Nanos::from_millis(200);
    let bursty = |seed| {
        ArrivalGen::uniform(&wl, 14, 0.75, dur, seed).with_bursts(BurstModel {
            calm_mean: Nanos::from_millis(4),
            burst_mean: Nanos::from_millis(1),
            amplification: 3.0,
        })
    };
    let mut darc = DarcSim::dynamic(&wl, 14, 5_000);
    let darc_out = simulate(&mut darc, bursty(21), 2, dur, &SimConfig::new(14));
    let mut cf = CFcfs::new(14);
    let cf_out = simulate(&mut cf, bursty(21), 2, dur, &SimConfig::new(14));
    let d = darc_out.summary.per_type[0].slowdown.p999;
    let c = cf_out.summary.per_type[0].slowdown.p999;
    assert!(
        d < c / 3.0,
        "bursty shorts: DARC p999 slowdown {d} must be well under c-FCFS {c}"
    );
    // Every burst is eventually absorbed: nothing stranded, all complete.
    assert!(darc_out.completions > 100_000);
}

/// SLO helpers behave sensibly across the sweep API.
#[test]
fn capacity_search_is_monotone_in_slo() {
    let loads: Vec<f64> = (1..=9).map(|i| i as f64 * 0.1).collect();
    let cfg = SweepConfig::new(
        Workload::extreme_bimodal(),
        8,
        loads,
        Nanos::from_millis(100),
    );
    let points = sweep(&Policy::CFcfs, &cfg);
    let tight = capacity_at_slo(&points, Slo::OverallSlowdown(5.0)).unwrap_or(0.0);
    let loose = capacity_at_slo(&points, Slo::OverallSlowdown(500.0)).unwrap_or(0.0);
    assert!(
        loose >= tight,
        "looser SLO must admit at least as much load"
    );
}
