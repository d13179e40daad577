//! Decision-parity tests for the extracted baseline engines.
//!
//! The dispatch.rs split (PR 4) must not change a single scheduling
//! decision: the dedicated [`CfcfsEngine`] has to replay `DarcEngine`'s
//! c-FCFS warm-up placement path decision for decision,
//! and [`SjfEngine`] has to order a hinted trace exactly as the
//! simulator's pre-adapterization shortest-job-first did. Both tests
//! drive the engines through the [`ScheduleEngine`] trait with the same
//! seeded arrival trace and compare the full `(worker, request)` dispatch
//! sequences, not just aggregate counts.
//!
//! [`every_live_policy_replays_its_pinned_decisions`] additionally pins
//! all six live policies to an FNV-1a hash of their full
//! `(worker, request, kind)` sequence, captured before the engine family
//! collapsed onto one core: any refactor of `dispatch/` that moves a
//! single placement fails it.

use persephone::prelude::*;
use persephone::telemetry::DispatchKind;

/// A deterministic arrival trace: `(type, request id, arrival time)`.
/// SplitMix64 keeps it seed-stable across runs and platforms.
fn trace(seed: u64, n: u64, num_types: u32, gap_ns: u64) -> Vec<(TypeId, u64, Nanos)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|i| {
            let ty = TypeId::new((next() % num_types as u64) as u32);
            // Irregular but monotone arrival times.
            let at = Nanos::from_nanos(i * gap_ns + next() % gap_ns);
            (ty, i, at)
        })
        .collect()
}

/// Drives `engine` through arrivals, polls, and completions, recording
/// every dispatch decision. `service(ty)` is the deterministic service
/// time; completions retire in dispatch order, `inflight_cap` at a time,
/// so both engines see identical free-worker sequences.
fn drive<E: ScheduleEngine<u64> + ?Sized>(
    engine: &mut E,
    trace: &[(TypeId, u64, Nanos)],
    service: impl Fn(TypeId) -> Nanos,
) -> Vec<(usize, u64, DispatchKind)> {
    let mut decisions = Vec::new();
    let mut inflight: std::collections::VecDeque<(WorkerId, TypeId)> =
        std::collections::VecDeque::new();
    for (i, &(ty, id, at)) in trace.iter().enumerate() {
        engine.enqueue(ty, id, at).expect("unbounded queues");
        while let Some(d) = engine.poll(at) {
            decisions.push((d.worker.index(), d.req, d.kind));
            inflight.push_back((d.worker, d.ty));
        }
        // Retire the oldest in-flight request every other arrival so the
        // engines alternate between queue pressure and free workers.
        if i % 2 == 1 {
            if let Some((w, wty)) = inflight.pop_front() {
                engine.complete(w, service(wty), at);
                while let Some(d) = engine.poll(at) {
                    decisions.push((d.worker.index(), d.req, d.kind));
                    inflight.push_back((d.worker, d.ty));
                }
            }
        }
    }
    // Drain: complete everything still running, polling as workers free.
    let end = trace.last().map(|&(_, _, at)| at).unwrap_or(Nanos::ZERO);
    while let Some((w, wty)) = inflight.pop_front() {
        engine.complete(w, service(wty), end);
        while let Some(d) = engine.poll(end) {
            decisions.push((d.worker.index(), d.req, d.kind));
            inflight.push_back((d.worker, d.ty));
        }
    }
    decisions
}

/// `DarcEngine`'s c-FCFS warm-up phase and the dedicated `CfcfsEngine`
/// make byte-identical decisions on the same trace (they share the same
/// FCFS placement path).
#[test]
fn cfcfs_engine_replays_darc_warmup_fcfs() {
    let hints = [Some(Nanos::from_micros(1)), Some(Nanos::from_micros(100))];
    let service = |ty: TypeId| hints[ty.index()].unwrap();
    let arrivals = trace(0xC0FFEE, 4_000, 2, 700);

    // Unhinted + an unfillable window: the engine stays in c-FCFS
    // warm-up for the whole trace.
    let mut warmup_cfg = EngineConfig::darc(6);
    warmup_cfg.profiler.min_samples = u64::MAX;
    let mut warmup: DarcEngine<u64> = DarcEngine::new(warmup_cfg, 2, &[None, None]);
    let warmup_decisions = drive(&mut warmup, &arrivals, service);

    let mut dedicated: CfcfsEngine<u64> = CfcfsEngine::new(EngineConfig::darc(6), 2, &hints);
    let dedicated_decisions = drive(&mut dedicated, &arrivals, service);

    assert_eq!(
        warmup_decisions.len(),
        arrivals.len(),
        "every request dispatched exactly once"
    );
    assert_eq!(
        warmup_decisions, dedicated_decisions,
        "the split must not change a single c-FCFS decision"
    );
    assert_eq!(ScheduleEngine::total_pending(&warmup), 0);
    assert_eq!(ScheduleEngine::total_pending(&dedicated), 0);
    assert_eq!(
        ScheduleEngine::free_workers(&warmup),
        ScheduleEngine::free_workers(&dedicated)
    );
}

/// `build_engine(Policy::CFcfs)` routes to the same decisions as the
/// concrete engine — the boxed and monomorphized paths agree.
#[test]
fn boxed_cfcfs_engine_matches_concrete() {
    let hints = [Some(Nanos::from_micros(2)), Some(Nanos::from_micros(50))];
    let service = |ty: TypeId| hints[ty.index()].unwrap();
    let arrivals = trace(0xBEEF, 1_000, 2, 900);

    let mut boxed = build_engine::<u64>(&Policy::CFcfs, EngineConfig::darc(4), 2, &hints);
    let boxed_decisions = drive(boxed.as_mut(), &arrivals, service);

    let mut concrete: CfcfsEngine<u64> = CfcfsEngine::new(EngineConfig::darc(4), 2, &hints);
    let concrete_decisions = drive(&mut concrete, &arrivals, service);

    assert_eq!(boxed_decisions, concrete_decisions);
}

/// Reference shortest-job-first exactly as the simulator's pre-adapter
/// `sjf.rs` implemented it: a min-heap keyed by `(service, seq)` with
/// FIFO tie-breaks, dispatching to the lowest-indexed free worker.
struct ReferenceSjf {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Nanos, u64, u64)>>,
    seq: u64,
    free: Vec<bool>,
}

impl ReferenceSjf {
    fn new(workers: usize) -> Self {
        ReferenceSjf {
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
            free: vec![true; workers],
        }
    }

    fn push(&mut self, svc: Nanos, id: u64) {
        self.seq += 1;
        self.heap.push(std::cmp::Reverse((svc, self.seq, id)));
    }

    fn poll(&mut self) -> Option<(usize, u64)> {
        let w = self.free.iter().position(|&f| f)?;
        let std::cmp::Reverse((_, _, id)) = self.heap.pop()?;
        self.free[w] = false;
        Some((w, id))
    }
}

/// With per-type (hinted) service times, `SjfEngine` reproduces the
/// simulator's old heap-based SJF decision for decision.
#[test]
fn sjf_engine_matches_presplit_simulator_sjf() {
    let hints = [
        Some(Nanos::from_micros(1)),
        Some(Nanos::from_micros(10)),
        Some(Nanos::from_micros(100)),
    ];
    let service = |ty: TypeId| hints[ty.index()].unwrap();
    let arrivals = trace(0x5EED, 3_000, 3, 800);
    let workers = 4;

    // Freeze profiling so estimates stay at the hints, matching the
    // oracle's fixed per-type service times.
    let mut cfg = EngineConfig::darc(workers);
    cfg.profiler.min_samples = u64::MAX;
    let mut engine: SjfEngine<u64> = SjfEngine::new(cfg, 3, &hints);
    let engine_decisions: Vec<(usize, u64)> = drive(&mut engine, &arrivals, service)
        .into_iter()
        .map(|(w, id, _)| (w, id))
        .collect();

    // Replay the same drive schedule against the reference heap.
    let mut reference = ReferenceSjf::new(workers);
    let mut expected = Vec::new();
    let mut inflight: std::collections::VecDeque<(usize, TypeId)> =
        std::collections::VecDeque::new();
    let mut ty_of = std::collections::HashMap::new();
    for (i, &(ty, id, _at)) in arrivals.iter().enumerate() {
        ty_of.insert(id, ty);
        reference.push(service(ty), id);
        while let Some((w, rid)) = reference.poll() {
            expected.push((w, rid));
            inflight.push_back((w, ty_of[&rid]));
        }
        if i % 2 == 1 {
            if let Some((w, _)) = inflight.pop_front() {
                reference.free[w] = true;
                while let Some((w2, rid)) = reference.poll() {
                    expected.push((w2, rid));
                    inflight.push_back((w2, ty_of[&rid]));
                }
            }
        }
    }
    while let Some((w, _)) = inflight.pop_front() {
        reference.free[w] = true;
        while let Some((w2, rid)) = reference.poll() {
            expected.push((w2, rid));
            inflight.push_back((w2, ty_of[&rid]));
        }
    }

    assert_eq!(engine_decisions.len(), arrivals.len());
    assert_eq!(
        engine_decisions, expected,
        "SjfEngine must replay the simulator's heap-based SJF"
    );
}

/// FNV-1a over the little-endian `(worker, request, kind)` triples.
fn decision_hash(decisions: &[(usize, u64, DispatchKind)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(worker, req, kind) in decisions {
        eat(&(worker as u64).to_le_bytes());
        eat(&req.to_le_bytes());
        eat(&[match kind {
            DispatchKind::Reserved => 0,
            DispatchKind::Stolen => 1,
            DispatchKind::Spillway => 2,
            DispatchKind::Fcfs => 3,
        }]);
    }
    h
}

/// All six live policies, driven over the c-FCFS parity trace through
/// `build_engine`, reproduce the decision sequences captured at the
/// commit before `dispatch/` collapsed onto one engine core.
#[test]
fn every_live_policy_replays_its_pinned_decisions() {
    let hints = [Some(Nanos::from_micros(1)), Some(Nanos::from_micros(100))];
    let service = |ty: TypeId| hints[ty.index()].unwrap();
    let inverted = [hints[1], hints[0]];
    let arrivals = trace(0xC0FFEE, 4_000, 2, 700);

    struct Pinned<'a> {
        name: &'static str,
        policy: Policy,
        hints: &'a [Option<Nanos>],
        hash: u64,
    }
    let pin = |name, policy, hints, hash| Pinned {
        name,
        policy,
        hints,
        hash,
    };
    let cases = [
        // Unhinted: boots in c-FCFS warm-up, then reserves and re-reserves.
        pin("DARC", Policy::Darc, &[None, None], 0x23f8_6794_fe8a_c5a5),
        pin(
            "DARC-static",
            Policy::DarcStatic { reserved_short: 2 },
            &hints,
            0x7250_781b_e707_1faa,
        ),
        pin("c-FCFS", Policy::CFcfs, &hints, 0x3501_6a0e_625d_c778),
        // Hints that contradict the measured service times: SJF re-sorts
        // on profiled means, FP keeps the configured order.
        pin("SJF", Policy::Sjf, &inverted, 0x6d0a_85dd_a406_78a6),
        pin(
            "FP",
            Policy::FixedPriority,
            &inverted,
            0xf0e9_1708_480e_98da,
        ),
        pin("d-FCFS", Policy::DFcfs, &hints, 0x01cb_8d22_65bc_824b),
    ];
    let mut moved = Vec::new();
    for Pinned {
        name,
        policy,
        hints,
        hash: pinned,
    } in cases
    {
        let mut cfg = EngineConfig::darc(6);
        if policy == Policy::Darc {
            // A small window, so dynamic DARC leaves its warm-up and
            // re-reserves while the trace is still running.
            cfg.profiler.min_samples = 200;
        }
        let mut engine = build_engine::<u64>(&policy, cfg, 2, hints);
        let decisions = drive(engine.as_mut(), &arrivals, service);
        assert_eq!(decisions.len(), arrivals.len(), "{name}: one dispatch each");
        let report = engine.report();
        if name == "DARC" {
            assert!(
                report.updates >= 2,
                "{name}: must leave warm-up and re-reserve, got {} installs",
                report.updates
            );
            let kinds = |k| decisions.iter().filter(|d| d.2 == k).count();
            assert!(kinds(DispatchKind::Fcfs) > 0, "{name}: warm-up decisions");
            assert!(kinds(DispatchKind::Reserved) > 0, "{name}: reserved cores");
        }
        let hash = decision_hash(&decisions);
        if hash != pinned {
            moved.push(format!("{name}: {hash:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(moved.is_empty(), "decision sequences moved: {moved:#?}");
}
