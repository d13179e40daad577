//! Pins the simulator's event order: which event fires at which time, and
//! in which order events at the *same* time fire (time, then the order in
//! which they were scheduled).
//!
//! Every handled event is folded into an FNV-1a hash by a recording
//! wrapper, over policies that between them use run-to-completion starts,
//! slices, preemption and timers, on two traces: the paper's Extreme
//! Bimodal at load 0.9, and a *tie storm* whose arrival, slice-end and
//! timer times collide on most events. The constants below were captured
//! before the event core was rebuilt without its heap; an engine change
//! that reorders anything moves them.

use persephone::core::dist::Dist;
use persephone::core::policy::{TimeSharingParams, TsDiscipline};
use persephone::core::time::Nanos;
use persephone::sim::engine::{Core, Event, SimOutput, SimPolicy};
use persephone::sim::policies::cfcfs::CFcfs;
use persephone::sim::policies::cscq::Cscq;
use persephone::sim::policies::darc::DarcSim;
use persephone::sim::policies::dfcfs::DFcfs;
use persephone::sim::policies::ts::TimeSharing;
use persephone::sim::workload::{Arrival, ArrivalGen, TypeMix, Workload};
use persephone::sim::{simulate, SimConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash = (*hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
}

/// Hashes every event `(now, variant, worker, req, ty)` before handing it
/// to the wrapped policy. No shipped policy sets timers, so the wrapper
/// sets its own — a future one on every 7th arrival, one in the past
/// (clamped to `now`) on every 11th — and keeps their events to itself.
struct Recording<P> {
    inner: P,
    hash: u64,
    events: u64,
    arrivals: u64,
}

impl<P: SimPolicy> Recording<P> {
    fn new(inner: P) -> Self {
        Recording {
            inner,
            hash: FNV_OFFSET,
            events: 0,
            arrivals: 0,
        }
    }
}

impl<P: SimPolicy> SimPolicy for Recording<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        const NONE: u64 = u64::MAX;
        let (variant, worker, req, ty) = match ev {
            Event::Arrival(id) => (0, NONE, id as u64, core.req(id).ty.index() as u64),
            Event::Completed {
                worker, req, ty, ..
            } => (1, worker as u64, req as u64, ty.index() as u64),
            Event::SliceExpired { worker, req } => (
                2,
                worker as u64,
                req as u64,
                core.req(req).ty.index() as u64,
            ),
            Event::Timer(tag) => (3, NONE, tag, NONE),
        };
        for word in [core.now.as_nanos(), variant, worker, req, ty] {
            fnv(&mut self.hash, word);
        }
        self.events += 1;
        match ev {
            Event::Timer(_) => return,
            Event::Arrival(_) => {
                self.arrivals += 1;
                if self.arrivals.is_multiple_of(7) {
                    core.timer(core.now + Nanos::from_micros(3), self.arrivals);
                }
                if self.arrivals.is_multiple_of(11) {
                    let past = core.now.saturating_sub(Nanos::from_micros(1));
                    core.timer(past, self.arrivals);
                }
            }
            _ => {}
        }
        self.inner.handle(ev, core);
    }
}

/// A digest of what a run reports (bar its end time, which a trailing
/// timer of the wrapper moves): counts, per-worker
/// busy and overhead time, and every percentile of the summary, bit for bit.
fn output_digest(out: &SimOutput) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, out.completions);
    fnv(&mut h, out.summary.completions);
    fnv(&mut h, out.summary.dropped);
    for t in out.busy.iter().chain(&out.overhead) {
        fnv(&mut h, t.as_nanos());
    }
    let s = &out.summary;
    let sets = s
        .per_type
        .iter()
        .flat_map(|t| [t.latency_ns, t.slowdown])
        .chain([s.overall_slowdown]);
    for p in sets {
        for v in [p.p50, p.p99, p.p999, p.max, p.mean, p.count as f64] {
            fnv(&mut h, v.to_bits());
        }
    }
    h
}

struct Trace {
    arrivals: Vec<Arrival>,
    workers: usize,
    duration: Nanos,
}

/// The paper's Extreme Bimodal at load 0.9 on 14 workers.
fn extreme_bimodal() -> (Workload, Trace) {
    let wl = Workload::extreme_bimodal();
    let duration = Nanos::from_millis(20);
    let mut gen = ArrivalGen::uniform(&wl, 14, 0.9, duration, 0x5EED);
    let arrivals = std::iter::from_fn(|| gen.next()).collect();
    let trace = Trace {
        arrivals,
        workers: 14,
        duration,
    };
    (wl, trace)
}

/// Arrivals quantised to 1 µs with constant 1 µs / 4 µs services on 4
/// workers: every start, slice end and timer lands on the same 1 µs grid
/// as the arrivals, several to a grid point.
fn tie_storm() -> (Workload, Trace) {
    let wl = Workload::new(
        "TieStorm",
        vec![
            TypeMix::new("ONE", 0.8, Dist::const_micros(1.0)),
            TypeMix::new("FOUR", 0.2, Dist::const_micros(4.0)),
        ],
    );
    let duration = Nanos::from_millis(20);
    let mut gen = ArrivalGen::uniform(&wl, 4, 0.9, duration, 0x71E5);
    let arrivals = std::iter::from_fn(|| gen.next())
        .map(|a| Arrival {
            at: Nanos::from_micros(a.at.as_nanos() / 1_000),
            ..a
        })
        .collect();
    let trace = Trace {
        arrivals,
        workers: 4,
        duration,
    };
    (wl, trace)
}

/// What one (policy, trace) pair pins: the hash over its events, their
/// number, and the digest of its output.
type Pin = (u64, u64, u64);

/// Runs `policy` plain and recorded. The wrapper's timers never reach the
/// policy, so both runs must report the same output.
fn pin<P: SimPolicy>(make: impl Fn() -> P, trace: &Trace) -> (Pin, P) {
    let cfg = SimConfig::new(trace.workers);
    let run = |policy: &mut dyn SimPolicy| {
        let arrivals = trace.arrivals.iter().copied();
        simulate(policy, arrivals, 2, trace.duration, &cfg)
    };
    let plain = run(&mut make());
    let mut rec = Recording::new(make());
    let out = run(&mut rec);
    assert_eq!(out.completions, trace.arrivals.len() as u64);
    assert_eq!(
        output_digest(&out),
        output_digest(&plain),
        "{}: swallowed timers changed the run",
        rec.name()
    );
    ((rec.hash, rec.events, output_digest(&out)), rec.inner)
}

fn ts(quantum_us: u64, discipline: TsDiscipline) -> TimeSharing {
    let params = TimeSharingParams {
        quantum: Nanos::from_micros(quantum_us),
        overhead: Nanos::from_micros(1),
        propagation: Nanos::ZERO,
        discipline,
    };
    TimeSharing::new(params, 2)
}

/// Pins all six policies on one trace, in the order of `expected`.
fn pin_all(wl: &Workload, trace: &Trace, quantum_us: u64, donors: usize, expected: [Pin; 6]) {
    let w = trace.workers;
    let (darc_pin, darc) = pin(|| DarcSim::dynamic(wl, w, 5_000), trace);
    assert!(
        darc.reservation_log().len() > 1,
        "dynamic DARC never installed a reservation"
    );
    let got = [
        pin(|| CFcfs::new(w), trace).0,
        pin(|| DFcfs::new(w, 0xD15), trace).0,
        darc_pin,
        pin(|| Cscq::new(donors), trace).0,
        pin(|| ts(quantum_us, TsDiscipline::SingleQueue), trace).0,
        pin(|| ts(quantum_us, TsDiscipline::MultiQueue), trace).0,
    ];
    let names = ["c-FCFS", "d-FCFS", "DARC", "CSCQ", "TS single", "TS multi"];
    let all: String = got
        .iter()
        .map(|(hash, events, output)| format!("\n({hash:#018x}, {events}, {output:#018x}),"))
        .collect();
    for ((name, got), want) in names.iter().zip(&got).zip(&expected) {
        assert_eq!(got, want, "{name} on {}; all six:{all}", wl.name);
    }
}

#[test]
fn extreme_bimodal_event_order_is_pinned() {
    let (wl, trace) = extreme_bimodal();
    assert_eq!(trace.arrivals.len(), 84_018);
    pin_all(
        &wl,
        &trace,
        5,
        2,
        [
            (0x5fcf65f41e28ad1d, 187676, 0xc1b9d3e1485099d9),
            (0x8cd8c0667b1d2332, 187676, 0x0ede665081be8211),
            (0x093a161c6c58ef42, 187676, 0x9388aa16ddcbaf99),
            (0x4850b8078b21cd12, 187676, 0xc64c71ef609aa49d),
            (0x3239898ac55312db, 223712, 0x90622a31956b8714),
            (0xee0be37a3b9547ad, 223712, 0x11fc6f87b4442888),
        ],
    );
}

#[test]
fn tie_storm_event_order_is_pinned() {
    let (wl, trace) = tie_storm();
    assert_eq!(trace.arrivals.len(), 45_312);
    // Most arrivals share their microsecond with another one.
    let distinct = {
        let mut at: Vec<Nanos> = trace.arrivals.iter().map(|a| a.at).collect();
        at.dedup();
        at.len()
    };
    assert!(distinct * 2 < trace.arrivals.len(), "{distinct}");
    pin_all(
        &wl,
        &trace,
        1,
        1,
        [
            (0xad83b9f3c7383173, 101216, 0xebe5341a7e057114),
            (0x04d47c2de56be028, 101216, 0x5092f796137d7455),
            (0x964bfd2dd827466f, 101216, 0x44fc651b78488cf9),
            (0x8c225247f13614bc, 101216, 0x4d74485da0f641fa),
            (0x4acb64a08dd8a70c, 128297, 0xf6d60cca37a95f25),
            (0x103abe672f1f2406, 128297, 0xdafdbd68ae78e2ef),
        ],
    );
}
