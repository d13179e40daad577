//! Randomized tests on DARC's reservation and dispatch invariants.
//!
//! These check the *algebra* of Algorithm 2 and the engine's bookkeeping
//! over arbitrary workload statistics — not just the paper's workloads.
//! Seeded with the repo's own xoshiro256++ RNG; a smoke-sized case count
//! runs by default, `--features heavy-testing` deepens the sweep.

use persephone::core::dispatch::{DarcEngine, EngineConfig, ScheduleEngine};
use persephone::core::profile::{demands_of, TypeStat};
use persephone::core::queue::TypedQueue;
use persephone::core::reserve::{reserve, ReserveConfig};
use persephone::core::rng::Rng;
use persephone::core::time::Nanos;
use persephone::core::types::TypeId;

#[cfg(feature = "heavy-testing")]
const CASES: u64 = 256;
#[cfg(not(feature = "heavy-testing"))]
const CASES: u64 = 32;

fn random_stats(rng: &mut Rng, max_types: u64) -> Vec<TypeStat> {
    let n = 1 + rng.next_below(max_types) as usize;
    let raw: Vec<(f64, f64)> = (0..n)
        .map(|_| (1.0 + rng.next_f64() * 999_999.0, rng.next_f64()))
        .collect();
    let total: f64 = raw.iter().map(|(_, r)| r).sum();
    raw.into_iter()
        .enumerate()
        .map(|(i, (mean, r))| TypeStat {
            ty: TypeId::new(i as u32),
            mean_service_ns: mean,
            ratio: if total > 0.0 { r / total } else { 0.0 },
        })
        .collect()
}

/// Eq. 1: the demand vector is a probability vector whenever any type
/// carries weight.
#[test]
fn demands_form_a_distribution() {
    let mut rng = Rng::new(0xD15);
    for _ in 0..CASES * 4 {
        let stats = random_stats(&mut rng, 8);
        let d = demands_of(&stats);
        assert_eq!(d.len(), stats.len());
        let total: f64 = d.iter().sum();
        let has_weight = stats.iter().any(|s| s.weight() > 0.0);
        if has_weight {
            assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
            assert!(d.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        } else {
            assert_eq!(total, 0.0);
        }
    }
}

/// Algorithm 2 invariants, for any statistics, worker count, and δ.
#[test]
fn reservation_invariants() {
    let mut rng = Rng::new(0xA160);
    for _ in 0..CASES * 4 {
        let stats = random_stats(&mut rng, 8);
        let workers = 1 + rng.next_below(31) as usize;
        let delta = 1.0 + rng.next_f64() * 7.0;
        let cfg = ReserveConfig::new(workers).with_delta(delta);
        let r = reserve(&stats, &cfg);

        // Groups are ordered by ascending mean service time.
        for w in r.groups.windows(2) {
            assert!(w[0].mean_service_ns <= w[1].mean_service_ns + 1e-9);
        }
        // Every group holds at least one worker (min-1 rule / spillway).
        for g in &r.groups {
            assert!(!g.reserved.is_empty(), "empty group reservation");
        }
        // Non-spillway reserved sets are pairwise disjoint.
        let spill: Vec<usize> = r.spillway.iter().map(|w| w.index()).collect();
        let mut seen = vec![false; workers];
        for g in &r.groups {
            for w in &g.reserved {
                let idx = w.index();
                assert!(idx < workers);
                if !spill.contains(&idx) {
                    assert!(!seen[idx], "worker {idx} reserved twice");
                    seen[idx] = true;
                }
            }
        }
        // Stealable workers come strictly after the group's own cores and
        // belong to later groups or the free pool (cycle stealing goes
        // from short to long only).
        for g in &r.groups {
            let own_max = g.reserved.iter().map(|w| w.index()).max().unwrap_or(0);
            for s in &g.stealable {
                assert!(
                    s.index() > own_max || spill.contains(&own_max),
                    "stealable {s} not after reserved {own_max}"
                );
            }
        }
        // Every type with positive weight belongs to exactly one group.
        for s in &stats {
            if s.weight() > 0.0 {
                assert!(r.group_of(s.ty).is_some());
            } else {
                assert!(r.group_of(s.ty).is_none());
            }
        }
        // Eq. 2: waste is bounded by half a core per group.
        assert!(r.expected_waste >= 0.0);
        assert!(r.expected_waste <= 0.5 * r.groups.len() as f64 + 1e-9);
        // Priority order covers exactly the grouped types.
        let order: Vec<TypeId> = r.priority_order().collect();
        let grouped: usize = r.groups.iter().map(|g| g.types.len()).sum();
        assert_eq!(order.len(), grouped);
    }
}

/// Grouping respects δ: within a group, every mean is within δ× the
/// group's shortest mean.
#[test]
fn grouping_respects_delta() {
    let mut rng = Rng::new(0xDE17A);
    for _ in 0..CASES * 4 {
        let stats = random_stats(&mut rng, 8);
        let workers = 1 + rng.next_below(31) as usize;
        let delta = 1.0 + rng.next_f64() * 7.0;
        let cfg = ReserveConfig::new(workers).with_delta(delta);
        let r = reserve(&stats, &cfg);
        let mean = |t: TypeId| stats[t.index()].mean_service_ns;
        for g in &r.groups {
            let base = g.types.iter().map(|t| mean(*t)).fold(f64::MAX, f64::min);
            for t in &g.types {
                assert!(
                    mean(*t) <= base * delta * (1.0 + 1e-12),
                    "type {} mean {} exceeds delta {} x base {}",
                    t,
                    mean(*t),
                    delta,
                    base
                );
            }
        }
    }
}

/// Typed queues are exact FIFOs with exact drop accounting.
#[test]
fn typed_queue_fifo_and_drops() {
    let mut rng = Rng::new(0xF1F0);
    for _ in 0..CASES * 2 {
        let capacity = rng.next_below(16) as usize;
        let ops = rng.next_below(200);
        let mut q: TypedQueue<u64> = TypedQueue::new(capacity);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut drops = 0u64;
        let mut seq = 0u64;
        for _ in 0..ops {
            if rng.next_below(2) == 0 {
                let ok = q.push(seq, Nanos::from_nanos(seq), seq).is_ok();
                if capacity != 0 && model.len() >= capacity {
                    assert!(!ok);
                    drops += 1;
                } else {
                    assert!(ok);
                    model.push_back(seq);
                }
                seq += 1;
            } else {
                assert_eq!(q.pop().map(|e| e.req), model.pop_front());
            }
        }
        assert_eq!(q.len(), model.len());
        assert_eq!(q.drops(), drops);
    }
}

/// The engine conserves requests: everything enqueued is either
/// dropped at enqueue or eventually dispatched exactly once.
#[test]
fn engine_conserves_requests() {
    let mut rng = Rng::new(0xC0)
        // independent stream per case keeps failures reproducible
        .fork();
    for _ in 0..CASES {
        let workers = 1 + rng.next_below(7) as usize;
        let n_arrivals = 1 + rng.next_below(299);
        let mut cfg = EngineConfig::darc(workers);
        cfg.profiler.min_samples = 50;
        let mut eng: DarcEngine<u64> = DarcEngine::new(cfg, 3, &[None, None, None]);
        let mut now = Nanos::ZERO;
        let mut enqueued = 0u64;
        let mut completed = 0u64;
        for i in 0..n_arrivals {
            let ty = rng.next_below(3) as u32;
            let service_ns = 1 + rng.next_below(199_999);
            now += Nanos::from_nanos(100);
            if eng.enqueue(TypeId::new(ty), i, now).is_ok() {
                enqueued += 1;
            }
            while let Some(d) = eng.poll(now) {
                now += Nanos::from_nanos(service_ns);
                eng.complete(d.worker, Nanos::from_nanos(service_ns), now);
                completed += 1;
            }
        }
        // Drain whatever is left queued.
        let mut guard = 0;
        while eng.total_pending() > 0 {
            while let Some(d) = eng.poll(now) {
                now += Nanos::from_nanos(1_000);
                eng.complete(d.worker, Nanos::from_nanos(1_000), now);
                completed += 1;
            }
            guard += 1;
            assert!(guard < 10_000, "engine failed to drain");
        }
        assert_eq!(completed, enqueued);
        assert_eq!(eng.free_workers(), workers);
    }
}
