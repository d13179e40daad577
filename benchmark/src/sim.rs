//! `xbimodal_sim`: the paper's Extreme Bimodal workload on the simulator.
//!
//! Scheduling *quality* is exact here: virtual-time results repeat
//! bit-for-bit for a seed, so a change to reservation, grouping, stealing
//! or spillway logic shows as a diff. Mechanism speed shows only as
//! simulated requests per wall second.

use std::time::Instant;

use persephone::core::dispatch::ScheduleEngine;
use persephone::core::rng::Rng;
use persephone::core::time::Nanos;
use persephone::scenario::bench::schedule_hash;
use persephone::scenario::json::Json;
use persephone::scenario::ScenarioSpec;
use persephone::sim::engine::{Core, Event, SimOutput, SimPolicy};
use persephone::sim::experiment::PointResult;
use persephone::sim::policies::cfcfs::CFcfs;
use persephone::sim::policies::darc::DarcSim;
use persephone::sim::workload::{Arrival, ArrivalGen, Workload};
use persephone::sim::{capacity_at_slo, simulate, Percentiles, SimConfig, Slo};

use crate::stats::{median, peak_rss_mb};
use crate::{Args, Check, Outcome};

const WORKERS: usize = 14;
/// Offered loads, as shares of the 14-worker peak rate.
const LADDER: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
/// The ladder point whose per-type latencies are reported.
const REPORT_POINT: usize = 2;
/// Arrivals per ladder point; the recorder discards the first 10 %.
const REQUESTS_PER_POINT: f64 = 2_000_000.0;
/// The paper's profiling window (§4.3.3).
const MIN_SAMPLES: u64 = 50_000;
/// Latency limit of the SLO metrics: 10× the type's service time.
const SLO_SLOWDOWN: f64 = 10.0;

/// Records every post-warm-up sojourn of the wrapped policy, exactly:
/// the simulator's own recorder keeps log-bucketed histograms, whose
/// quantiles move in 0.8 % steps.
struct Tap<P> {
    inner: P,
    warmup_end: Nanos,
    arrival: Vec<Nanos>,
    sojourn_ns: Vec<Vec<u64>>,
}

impl<P: SimPolicy> Tap<P> {
    fn new(inner: P, num_types: usize, warmup_end: Nanos) -> Self {
        Tap {
            inner,
            warmup_end,
            arrival: Vec::new(),
            sojourn_ns: vec![Vec::new(); num_types],
        }
    }
}

impl<P: SimPolicy> SimPolicy for Tap<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        match ev {
            Event::Arrival(id) => {
                let i = id as usize;
                if i >= self.arrival.len() {
                    self.arrival.resize(i + 1, Nanos::ZERO);
                }
                self.arrival[i] = core.req(id).arrival;
            }
            Event::Completed { req, ty, .. } => {
                let arrival = self.arrival[req as usize];
                if arrival >= self.warmup_end {
                    self.sojourn_ns[ty.index()].push(core.now.saturating_sub(arrival).as_nanos());
                }
            }
            Event::SliceExpired { .. } | Event::Timer(_) => {}
        }
        self.inner.handle(ev, core);
    }
}

/// Exact per-type results of one tapped run.
#[derive(Clone, Debug, PartialEq)]
struct Quality {
    short_mean_us: f64,
    short_p50_us: f64,
    short_p99_us: f64,
    long_p99_us: f64,
    short_slo_share: f64,
    short_slowdown_p999: f64,
    long_slowdown_p999: f64,
}

fn quality(mut sojourn_ns: Vec<Vec<u64>>, service_ns: &[u64]) -> Quality {
    let short = Percentiles::of_u64(&mut sojourn_ns[0]);
    let long = Percentiles::of_u64(&mut sojourn_ns[1]);
    // `of_u64` leaves its samples sorted.
    let limit = (service_ns[0] as f64 * SLO_SLOWDOWN) as u64;
    let within = sojourn_ns[0].partition_point(|&s| s <= limit);
    Quality {
        short_mean_us: short.mean / 1e3,
        short_p50_us: short.p50 / 1e3,
        short_p99_us: short.p99 / 1e3,
        long_p99_us: long.p99 / 1e3,
        short_slo_share: within as f64 / short.count as f64,
        short_slowdown_p999: short.p999 / service_ns[0] as f64,
        long_slowdown_p999: long.p999 / service_ns[1] as f64,
    }
}

/// Everything one pass over the ladder produces.
struct Pass {
    trace_gen_ns: f64,
    /// Wall time inside each `simulate` call: per ladder point, DARC
    /// then c-FCFS.
    simulate_ns: Vec<[f64; 2]>,
    /// Arrivals over the ladder; each is simulated under both policies.
    arrivals: u64,
    completed: u64,
    /// Exact results at the reported ladder point.
    darc: Quality,
    cfcfs: Quality,
    slo_load: f64,
    darc_updates: u64,
    darc_guaranteed_short: usize,
    schedule_hash: u64,
}

impl Pass {
    /// Wall ns inside `simulate` over the ladder: 0 = DARC, 1 = c-FCFS.
    fn policy_ns(&self, policy: usize) -> f64 {
        self.simulate_ns.iter().map(|ns| ns[policy]).sum()
    }
}

/// The FNV-1a-64 the committed `BENCH_*.json` files pin their traces with.
fn trace_hash(trace: &[Arrival]) -> u64 {
    u64::from_str_radix(&schedule_hash(trace), 16).expect("sixteen hex digits")
}

fn point_duration(wl: &Workload, load: f64) -> Nanos {
    let rate = wl.peak_rate(WORKERS) * load;
    Nanos::from_nanos((REQUESTS_PER_POINT / rate * 1e9) as u64)
}

/// One ladder point under one policy; `tap` asks for exact sojourns.
struct Point<'a> {
    wl: &'a Workload,
    trace: &'a [Arrival],
    duration: Nanos,
    tap: bool,
}

impl Point<'_> {
    /// Returns the simulator's output, the policy, the wall ns spent in
    /// `simulate`, and the exact results when tapped.
    fn simulate<P: SimPolicy>(&self, policy: P) -> (SimOutput, P, f64, Option<Quality>) {
        let cfg = SimConfig::new(WORKERS);
        let types = self.wl.num_types();
        let arrivals = self.trace.iter().copied();
        if !self.tap {
            let mut policy = policy;
            let t = Instant::now();
            let out = simulate(&mut policy, arrivals, types, self.duration, &cfg);
            return (out, policy, t.elapsed().as_nanos() as f64, None);
        }
        let warmup_end =
            Nanos::from_nanos((self.duration.as_nanos() as f64 * cfg.warmup_fraction) as u64);
        let mut tap = Tap::new(policy, types, warmup_end);
        let t = Instant::now();
        let out = simulate(&mut tap, arrivals, types, self.duration, &cfg);
        let ns = t.elapsed().as_nanos() as f64;
        let service_ns: Vec<u64> = self
            .wl
            .types
            .iter()
            .map(|t| t.service.mean().as_nanos())
            .collect();
        (
            out,
            tap.inner,
            ns,
            Some(quality(tap.sojourn_ns, &service_ns)),
        )
    }
}

/// `trace` is the one buffer every ladder point of every pass is
/// materialised into: fresh pages for each put the kernel's page faults
/// into `setup_s`, where they were a quarter of it.
fn run_pass(wl: &Workload, seeds: &[u64], trace: &mut Vec<Arrival>) -> Pass {
    let (mut trace_gen_ns, mut simulate_ns) = (0.0, Vec::new());
    let (mut arrivals, mut completed) = (0u64, 0u64);
    let mut reported = None;
    let mut darc_points = Vec::new();
    for (i, &load) in LADDER.iter().enumerate() {
        let duration = point_duration(wl, load);
        let t = Instant::now();
        trace.clear();
        trace.extend(ArrivalGen::uniform(wl, WORKERS, load, duration, seeds[i]));
        trace_gen_ns += t.elapsed().as_nanos() as f64;
        arrivals += trace.len() as u64;
        let point = Point {
            wl,
            trace,
            duration,
            tap: i == REPORT_POINT,
        };

        // Unhinted DARC: c-FCFS warm-up, one profiling window, Algorithm 2.
        let (out, darc, darc_ns, darc_quality) =
            point.simulate(DarcSim::dynamic(wl, WORKERS, MIN_SAMPLES));
        completed += out.completions;
        darc_points.push(PointResult {
            load,
            offered_rps: wl.peak_rate(WORKERS) * load,
            output: Some(out),
        });
        let (out, _, cfcfs_ns, cfcfs_quality) = point.simulate(CFcfs::new(WORKERS));
        simulate_ns.push([darc_ns, cfcfs_ns]);
        completed += out.completions;

        if let (Some(darc_quality), Some(cfcfs_quality)) = (darc_quality, cfcfs_quality) {
            let report = ScheduleEngine::report(darc.engine());
            reported = Some((darc_quality, cfcfs_quality, report, trace_hash(trace)));
        }
    }
    let (darc, cfcfs, report, schedule_hash) =
        reported.expect("the ladder holds the reported point");
    Pass {
        trace_gen_ns,
        simulate_ns,
        arrivals,
        completed,
        darc,
        cfcfs,
        slo_load: capacity_at_slo(&darc_points, Slo::PerTypeSlowdown(SLO_SLOWDOWN)).unwrap_or(0.0),
        darc_updates: report.updates,
        darc_guaranteed_short: report.guaranteed[0],
        schedule_hash,
    }
}

/// Median time of parsing every shipped scenario, materialising one
/// scenario trace (per arrival), and re-emitting a committed report.
fn scenario_layer(layers: &mut Vec<(&'static str, f64)>) {
    let mut specs = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir("scenarios")
        .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    names.sort();
    let texts: Vec<String> = names
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .collect();
    let mut parse_us = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        specs = texts
            .iter()
            .filter_map(|s| ScenarioSpec::from_toml(s).ok())
            .collect::<Vec<_>>();
        parse_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    layers.push(("scenario.parse_us", median(&mut parse_us)));

    if let Some(spec) = specs.iter().find(|s| s.name == "extreme_bimodal") {
        let mut per_arrival = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let trace = spec.build_trace();
            per_arrival.push(t.elapsed().as_nanos() as f64 / trace.len().max(1) as f64);
        }
        layers.push(("scenario.materialize_ns", median(&mut per_arrival)));
    }

    if let Ok(doc) = std::fs::read_to_string("BENCH_rack_scale.json")
        .map_err(|e| e.to_string())
        .and_then(|s| Json::parse(&s).map_err(|e| format!("{e:?}")))
    {
        let mut emit_us = Vec::new();
        for _ in 0..9 {
            let t = Instant::now();
            std::hint::black_box(doc.render());
            emit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        layers.push(("scenario.json_emit_us", median(&mut emit_us)));
    }
}

pub fn run(args: &Args) -> Outcome {
    let wl = Workload::extreme_bimodal();
    // One forked stream per concern: each ladder point draws its own
    // trace seed (ArrivalGen forks arrival/type/service streams from it).
    let mut root = Rng::new(args.seed);
    let seeds: Vec<u64> = LADDER.iter().map(|_| root.fork().next_u64()).collect();

    let started = Instant::now();
    // Room for the largest point at once (its Poisson count strays from
    // the mean by a thousandth): growing by doubling would make the peak
    // resident set depend on where the allocator found room.
    let mut trace = Vec::with_capacity((REQUESTS_PER_POINT * 1.02) as usize);
    let mut passes = vec![run_pass(&wl, &seeds, &mut trace)];
    // Later passes repeat the identical work: they exist to time it, and
    // to show that the quality metrics repeat bit-for-bit.
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if elapsed + per_pass > args.seconds as f64 {
            break;
        }
        passes.push(run_pass(&wl, &seeds, &mut trace));
    }

    let first = &passes[0];
    let setup: Vec<f64> = passes.iter().map(|p| p.trace_gen_ns / 1e9).collect();
    let goodput: Vec<f64> = passes
        .iter()
        .map(|p| 2.0 * p.arrivals as f64 / (p.policy_ns(0) + p.policy_ns(1)) * 1e9)
        .collect();
    // Every `simulate` call repeats identical work in every pass, and the
    // neighbours of this VM only ever slow one down: the quietest time of
    // each call over the passes, summed, is the time of a pass nobody
    // disturbed. A whole pass is rarely that lucky; one call in six is.
    let quietest_ns: f64 = (0..LADDER.len())
        .flat_map(|i| [(i, 0), (i, 1)])
        .map(|(i, policy)| {
            passes
                .iter()
                .map(|p| p.simulate_ns[i][policy])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();

    // Determinism self-test on the schedule: same seed, same hash; next
    // seed, another hash. A prefix of the reported point's trace suffices.
    let prefix = |seed: u64| -> u64 {
        let d = point_duration(&wl, LADDER[REPORT_POINT]);
        let t: Vec<Arrival> = ArrivalGen::uniform(&wl, WORKERS, LADDER[REPORT_POINT], d, seed)
            .take(100_000)
            .collect();
        trace_hash(&t)
    };
    let (h1, h2, h3) = (
        prefix(seeds[REPORT_POINT]),
        prefix(seeds[REPORT_POINT]),
        prefix(seeds[REPORT_POINT].wrapping_add(1)),
    );

    let checks = vec![
        Check::new(
            "sim completions = arrivals sent, under both policies",
            passes.iter().all(|p| p.completed == 2 * p.arrivals),
            format!("{} of {}", first.completed, 2 * first.arrivals),
        ),
        Check::new(
            "quality metrics repeat bit-for-bit across passes",
            passes.iter().all(|p| {
                p.darc == first.darc && p.cfcfs == first.cfcfs && p.slo_load == first.slo_load
            }),
            format!("{} passes", passes.len()),
        ),
        Check::new(
            "DARC short p99.9 slowdown < c-FCFS",
            first.darc.short_slowdown_p999 < first.cfcfs.short_slowdown_p999,
            format!(
                "{:.2} vs {:.2}",
                first.darc.short_slowdown_p999, first.cfcfs.short_slowdown_p999
            ),
        ),
        Check::new(
            "same seed, same schedule hash; next seed, another",
            h1 == h2 && h1 != h3,
            format!("{h1:016x} {h2:016x} {h3:016x}"),
        ),
        Check::new(
            "DARC left warm-up and reserved for the short type",
            first.darc_updates >= 1 && first.darc_guaranteed_short >= 1,
            format!(
                "{} updates, {} cores",
                first.darc_updates, first.darc_guaranteed_short
            ),
        ),
    ];

    let e2e = vec![
        ("setup_s", median(&mut setup.clone())),
        (
            "goodput_rps",
            2.0 * first.arrivals as f64 / quietest_ns * 1e9,
        ),
        ("short_mean_us", first.darc.short_mean_us),
        ("short_p99_us", first.darc.short_p99_us),
        ("long_p99_us", first.darc.long_p99_us),
        ("short_slo_share", first.darc.short_slo_share),
        ("peak_rss_mb", peak_rss_mb()),
    ];

    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    if args.trace {
        let per = |f: fn(&Pass) -> f64| -> f64 {
            let mut v: Vec<f64> = passes.iter().map(f).collect();
            median(&mut v)
        };
        layers.push((
            "sim.trace_gen_ns",
            per(|p| p.trace_gen_ns / p.arrivals as f64),
        ));
        layers.push((
            "sim.simulate_ns.darc",
            per(|p| p.policy_ns(0) / p.arrivals as f64),
        ));
        layers.push((
            "sim.simulate_ns.cfcfs",
            per(|p| p.policy_ns(1) / p.arrivals as f64),
        ));
        layers.push(("sim.short_p50_us", first.darc.short_p50_us));
        layers.push(("sim.short_slowdown_p999", first.darc.short_slowdown_p999));
        layers.push(("sim.long_slowdown_p999", first.darc.long_slowdown_p999));
        layers.push((
            "sim.cfcfs_short_slowdown_p999",
            first.cfcfs.short_slowdown_p999,
        ));
        layers.push(("sim.slo_load", first.slo_load));
        layers.push((
            "sim.darc_guaranteed_short",
            first.darc_guaranteed_short as f64,
        ));
        layers.push(("core.reservation_updates", first.darc_updates as f64));
        scenario_layer(&mut layers);
    }

    Outcome {
        attempted: 2 * first.arrivals,
        ok: first.completed,
        checks,
        e2e,
        layers,
        spreads: vec![("setup_s", setup), ("goodput_rps", goodput)],
        schedule_hash: first.schedule_hash,
        transport: "none (simulator, virtual time)",
    }
}
