//! Model-checked tests for the real seqlock event ring.
//!
//! `EventRing` publishes multi-word events with Relaxed word stores
//! bracketed by an odd/even sequence protocol — the one place in the
//! workspace where correctness rests on fences rather than per-location
//! release/acquire pairs. Race detection alone cannot catch a weakened
//! publish here (the words are atomics), so these tests rely on the
//! checker's stale-value exploration: a reader that accepts a snapshot
//! must never observe a half-written event. The mutation self-tests in
//! `persephone-check/tests/mutation.rs` prove the same explorer flags
//! the seeded weakening; these tests prove the *shipped* ring survives
//! it.

#![cfg(feature = "model-check")]

use persephone_check::{model, thread};
use persephone_telemetry::ring::{EventRing, SchedEvent};
use std::sync::Arc;

fn steal(n: u64) -> SchedEvent {
    SchedEvent::CycleSteal {
        now_ns: n,
        type_id: (n % 3) as u32,
        worker: (n % 5) as u32,
    }
}

/// Writer-vs-reader: one thread pushes two events while the main
/// thread drains. Every event the collector accepts must decode to a
/// well-formed steal (fields mutually consistent), and the accounting
/// `collected + overwritten == pushed` must reconcile against the head
/// the collector saw — under every interleaving and every
/// stale-but-coherent value the reader's Relaxed word loads can return.
#[test]
fn seqlock_reader_never_accepts_torn_event() {
    model(|| {
        let ring = Arc::new(EventRing::new(2));
        let writer = {
            let ring = ring.clone();
            thread::spawn(move || {
                ring.push(&steal(3));
                ring.push(&steal(4));
            })
        };
        let log = ring.collect();
        for (pos, ev) in &log.events {
            match ev {
                SchedEvent::CycleSteal {
                    now_ns,
                    type_id,
                    worker,
                } => {
                    assert_eq!(*now_ns, pos + 3, "event matches its position");
                    assert_eq!(*type_id as u64, now_ns % 3, "fields from one write");
                    assert_eq!(*worker as u64, now_ns % 5, "fields from one write");
                }
                other => panic!("torn or foreign event decoded: {other:?}"),
            }
        }
        assert_eq!(
            log.events.len() as u64 + log.overwritten,
            log.pushed,
            "accounting reconciles against the observed head"
        );
        writer.join();
        // Quiescent drain sees everything that survived the 2-slot ring.
        let after = ring.collect();
        assert_eq!(after.pushed, 2);
        assert_eq!(after.events.len() as u64 + after.overwritten, 2);
    });
}

/// Two writers race `fetch_add` claims for the *same slot* (capacity 1)
/// so their odd/even sequence transitions and word stores interleave on
/// one seqlock. After both finish, the drain recovers at most one
/// event, fully formed — never a blend — and whichever writer's publish
/// landed last determines the surviving sequence (the position-0 writer
/// can overwrite position 1's publish; the sequence check then discards
/// the slot rather than misattribute it). The accounting must cover
/// everything that did not survive.
#[test]
fn seqlock_overlapping_writers_never_blend() {
    model(|| {
        let ring = Arc::new(EventRing::new(1));
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let ring = ring.clone();
                thread::spawn(move || {
                    ring.push(&steal(10 + t));
                })
            })
            .collect();
        for w in writers {
            w.join();
        }
        let log = ring.collect();
        assert_eq!(log.pushed, 2);
        // A mid-write or stale-sequence slot is discarded and counted,
        // never decoded.
        assert!(log.events.len() <= 1);
        for (pos, ev) in &log.events {
            assert!(*pos <= 1, "surviving position is one that was pushed");
            match ev {
                SchedEvent::CycleSteal {
                    now_ns,
                    type_id,
                    worker,
                } => {
                    assert!((10..=11).contains(now_ns), "a pushed event, intact");
                    assert_eq!(*type_id as u64, now_ns % 3);
                    assert_eq!(*worker as u64, now_ns % 5);
                }
                other => panic!("torn or foreign event decoded: {other:?}"),
            }
        }
        assert_eq!(log.events.len() as u64 + log.overwritten, 2);
    });
}

/// A slot recovers after a collision. Two writers race for the one slot;
/// the loser backs off and — when it held the *newer* position — leaves
/// the slot's sequence a lap behind what the next claimant used to
/// expect. Whatever the race left behind, a quiescent third push must
/// claim the slot and be collected intact.
#[test]
fn seqlock_slot_recovers_after_a_collision() {
    model(|| {
        let ring = Arc::new(EventRing::new(1));
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let ring = ring.clone();
                thread::spawn(move || {
                    ring.push(&steal(10 + t));
                })
            })
            .collect();
        for w in writers {
            w.join();
        }
        assert_eq!(ring.push(&steal(12)), 2);
        let log = ring.collect();
        assert_eq!(log.pushed, 3);
        assert_eq!(log.events, vec![(2, steal(12))]);
        assert_eq!(log.overwritten, 2);
    });
}
