//! Isolated tight loops: the cost lines of the paper's §4.3, in ns and in
//! cycles at this host's clock, measured once in `pipe_loopback`'s traced
//! process. Engine cycles run without telemetry, as `BENCH_hotpath.json`
//! measures them, so the two trajectories line up.

use std::hint::black_box;
use std::time::Instant;

use persephone::core::dispatch::{
    CfcfsEngine, DarcEngine, DfcfsEngine, EngineConfig, FixedPriorityEngine, ScheduleEngine,
    SjfEngine,
};
use persephone::core::profile::{Profiler, ProfilerConfig, TypeStat};
use persephone::core::reserve::{reserve, ReserveConfig};
use persephone::core::time::Nanos;
use persephone::core::types::TypeId;
use persephone::net::pool::BufferPool;
use persephone::net::{mpsc, spsc};
use persephone::telemetry::{
    AtomicHist, EventRing, SchedEvent, Telemetry, TelemetryConfig, DEFAULT_PRECISION_BITS,
};

use crate::stats::median;

const REPS: usize = 7;
const ITERS: u64 = 200_000;

/// Median over repetitions of the ns one call of `op` takes.
fn time_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        for i in 0..iters {
            op(i);
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&mut samples)
}

/// Clock of the first core, from `/proc/cpuinfo`, in GHz.
fn clock_ghz() -> f64 {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu MHz"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |mhz| mhz / 1e3)
}

fn hot_config(workers: usize) -> EngineConfig {
    let mut cfg = EngineConfig::darc(workers);
    // Profiling window never fills: the cycle is dispatch alone.
    cfg.profiler.min_samples = u64::MAX;
    cfg
}

/// enqueue → poll → complete on one engine, engine only.
fn engine_cycle<E: ScheduleEngine<u64>>(mut eng: E) -> f64 {
    let mut seq = 0u64;
    time_op(ITERS, |_| {
        let now = Nanos::from_nanos(seq);
        eng.enqueue(TypeId::new((seq % 2) as u32), seq, now)
            .expect("unbounded queues");
        let d = eng.poll(now).expect("a worker is free");
        eng.complete(d.worker, Nanos::from_micros(1), now);
        seq += 1;
    })
}

fn tpcc_stats() -> Vec<TypeStat> {
    [
        (5_700.0, 0.44),
        (6_000.0, 0.04),
        (20_000.0, 0.44),
        (88_000.0, 0.04),
        (100_000.0, 0.04),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(mean_service_ns, ratio))| TypeStat {
        ty: TypeId::new(i as u32),
        mean_service_ns,
        ratio,
    })
    .collect()
}

pub fn run(layers: &mut Vec<(&'static str, f64)>) {
    let ghz = clock_ghz();
    let mut line = |name: &'static str, ns: f64, paper_cycles: Option<u32>| {
        let paper = paper_cycles.map_or(String::new(), |c| format!(" (paper: ~{c} cycles)"));
        println!(
            "budget {name}: {ns:.2} ns = {:.0} cycles at {ghz:.2} GHz{paper}",
            ns * ghz
        );
        layers.push((name, ns));
    };

    // Channel operation: one push or one pop of the dispatcher↔worker ring.
    let (mut tx, mut rx) = spsc::channel::<u64>(8);
    let pair = time_op(ITERS, |i| {
        let _ = tx.push(black_box(i));
        black_box(rx.pop());
    });
    line("net.spsc_op_ns", pair / 2.0, Some(88));

    let (mtx, mut mrx) = mpsc::channel::<u64>(256);
    let pair = time_op(ITERS, |i| {
        let _ = mtx.push(black_box(i));
        black_box(mrx.pop());
    });
    line("net.mpsc_op_ns", pair / 2.0, None);

    let mut pool = BufferPool::new(64, 128);
    let mut releaser = pool.releaser();
    let cycle = time_op(ITERS, |_| {
        let buf = pool.alloc().expect("the buffer released last round");
        releaser.release(buf);
        releaser.flush();
    });
    line("net.pool_cycle_ns", cycle, None);

    // Profile update, update check and reservation over TPC-C's five types.
    let hints: Vec<Option<Nanos>> = tpcc_stats()
        .iter()
        .map(|s| Some(Nanos::from_nanos(s.mean_service_ns as u64)))
        .collect();
    let cfg = ProfilerConfig {
        min_samples: 1_000,
        ..ProfilerConfig::default()
    };
    let mut profiler = Profiler::new(cfg, 5, &hints);
    let update = time_op(ITERS, |i| {
        profiler.record_completion(
            TypeId::new((i % 5) as u32),
            Nanos::from_nanos(5_000 + i % 7),
        );
    });
    line("core.profile_update_ns", update, Some(75));

    // Window full and delay signalled, so the check folds the demand vector.
    for i in 0..5_000u64 {
        profiler.record_arrival(TypeId::new((i % 5) as u32));
    }
    profiler.record_dispatch_delay(TypeId::new(0), Nanos::from_millis(10));
    let check = time_op(ITERS, |_| {
        black_box(profiler.update_ready());
    });
    line("core.update_check_ns", check, Some(300));

    let stats = tpcc_stats();
    let rcfg = ReserveConfig::new(14);
    let res = time_op(ITERS / 4, |_| {
        black_box(reserve(black_box(&stats), &rcfg));
    });
    line("core.reserve_ns", res, Some(1000));

    let hints = [Some(Nanos::from_micros(1)), Some(Nanos::from_micros(100))];
    line(
        "core.engine_cycle_ns.darc",
        engine_cycle(DarcEngine::new(hot_config(8), 2, &hints)),
        None,
    );
    line(
        "core.engine_cycle_ns.cfcfs",
        engine_cycle(CfcfsEngine::new(hot_config(8), 2, &hints)),
        None,
    );
    line(
        "core.engine_cycle_ns.sjf",
        engine_cycle(SjfEngine::new(hot_config(8), 2, &hints)),
        None,
    );
    line(
        "core.engine_cycle_ns.fp",
        engine_cycle(FixedPriorityEngine::new(hot_config(8), 2, &hints)),
        None,
    );
    line(
        "core.engine_cycle_ns.dfcfs",
        engine_cycle(DfcfsEngine::new(hot_config(8), 2, &hints)),
        None,
    );

    // The "idling is ideal" decision: every worker busy, work queued.
    let mut eng: DarcEngine<u64> = DarcEngine::new(hot_config(8), 2, &hints);
    for i in 0..16u64 {
        ScheduleEngine::enqueue(
            &mut eng,
            TypeId::new((i % 2) as u32),
            i,
            Nanos::from_nanos(i),
        )
        .expect("unbounded queues");
    }
    while ScheduleEngine::poll(&mut eng, Nanos::ZERO).is_some() {}
    let idle = time_op(ITERS, |i| {
        black_box(ScheduleEngine::poll(&mut eng, Nanos::from_nanos(i)));
    });
    line("core.darc_idle_poll_ns", idle, None);

    let hist = AtomicHist::new(DEFAULT_PRECISION_BITS);
    let record = time_op(ITERS, |i| hist.record(black_box(1_000 + i)));
    line("telemetry.hist_record_ns", record, None);

    let ring = EventRing::new(1_024);
    let push = time_op(ITERS, |i| {
        black_box(ring.push(&SchedEvent::CycleSteal {
            now_ns: i,
            type_id: 0,
            worker: 1,
        }));
    });
    line("telemetry.event_push_ns", push, None);

    let tel = Telemetry::new(TelemetryConfig::new(2, 8));
    for i in 0..10_000u64 {
        tel.record_completion((i % 2) as usize, (i % 8) as usize, 1_000 + i, 500 + i);
    }
    let snap_us = time_op(200, |_| {
        black_box(tel.snapshot());
    }) / 1e3;
    println!("budget telemetry.snapshot_us: {snap_us:.2} us");
    layers.push(("telemetry.snapshot_us", snap_us));
    layers.push(("host.clock_ghz", ghz));
}
