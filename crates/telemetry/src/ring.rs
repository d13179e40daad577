//! Bounded, lock-free ring of scheduler decision events.
//!
//! The ring records *why* the scheduler did what it did — reservation
//! updates with the old→new guaranteed-core map, cycle-steals, spillway
//! hits, and drops — without ever blocking the dispatch loop. Each slot
//! is a seqlock over a fixed block of `AtomicU64` words:
//!
//! * A writer claims a position with one `fetch_add` on the head, CAS's
//!   the slot's sequence from whatever older published value it holds to
//!   odd (dropping the event if another writer holds the slot — see
//!   [`EventRing::push`]), stores the encoded event words, then
//!   publishes an even sequence derived from the position.
//! * A reader loads the sequence, copies the words, and re-checks the
//!   sequence; any concurrent overwrite changes the sequence and the
//!   read is discarded.
//!
//! Because the published sequence encodes the absolute position, a
//! collector can tell exactly how many events were overwritten (lost)
//! since the last drain — overwrites are *detectable*, never silent.
//! Pushing is wait-free for a single writer and lock-free for many; no
//! path allocates.

use crate::padded::CachePadded;
use crate::sync::{fence, AtomicU64, Ordering};

/// Fixed number of payload words per event.
pub const EVENT_WORDS: usize = 8;

/// Per-type guaranteed-core counts, truncated to the first
/// [`MAX_MAP_TYPES`] request types (plenty for the paper's workloads).
pub const MAX_MAP_TYPES: usize = 16;

/// A scheduler decision worth remembering.
///
/// Identifiers are raw indices (`u32` type ids, `u32` worker ids,
/// nanosecond timestamps) so the crate stays dependency-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // timestamp/id fields are self-describing
pub enum SchedEvent {
    /// A new reservation was committed and installed.
    ReservationUpdate {
        /// Engine clock at install time, in nanoseconds.
        now_ns: u64,
        /// Monotone id of this update (the engine's update counter).
        update_id: u64,
        /// Demand shift that triggered the update, in millionths of a
        /// core (the max per-type |Δ| the profiler observed).
        trigger_delta_millionths: u64,
        /// Guaranteed cores per type *before* the update.
        old_guaranteed: [u8; MAX_MAP_TYPES],
        /// Guaranteed cores per type *after* the update.
        new_guaranteed: [u8; MAX_MAP_TYPES],
    },
    /// A request was served by a worker outside its type's guaranteed
    /// set (work conservation kicking in).
    CycleSteal {
        now_ns: u64,
        type_id: u32,
        worker: u32,
    },
    /// A request was routed through the spillway path.
    SpillwayHit {
        now_ns: u64,
        type_id: u32,
        worker: u32,
    },
    /// A request was dropped because its typed queue was full.
    Drop {
        now_ns: u64,
        type_id: u32,
        queue_depth: u64,
    },
    /// A head-of-queue request's queueing delay exceeded its type's
    /// deadline and was shed before dispatch (overload control).
    DeadlineExpired {
        now_ns: u64,
        type_id: u32,
        /// How long the request had waited when it was expired.
        waited_ns: u64,
    },
    /// A worker's in-flight request ran far beyond its type's profiled
    /// mean; the worker was excluded from the free pool.
    WorkerQuarantine {
        now_ns: u64,
        worker: u32,
        type_id: u32,
        /// How long the in-flight request had been running.
        running_ns: u64,
    },
    /// A quarantined worker finally completed and rejoined the pool.
    WorkerRelease {
        now_ns: u64,
        worker: u32,
        /// Total wall time the releasing request spent on the worker.
        stalled_ns: u64,
    },
}

const TAG_RESERVATION: u64 = 1;
const TAG_STEAL: u64 = 2;
const TAG_SPILLWAY: u64 = 3;
const TAG_DROP: u64 = 4;
const TAG_EXPIRED: u64 = 5;
const TAG_QUARANTINE: u64 = 6;
const TAG_RELEASE: u64 = 7;

fn pack_map(map: &[u8; MAX_MAP_TYPES]) -> [u64; 2] {
    let mut words = [0u64; 2];
    for (i, &b) in map.iter().enumerate() {
        // audit:allow(A1): i < MAX_MAP_TYPES = 16, so i/8 < 2 = words.len()
        words[i / 8] |= (b as u64) << ((i % 8) * 8);
    }
    words
}

fn unpack_map(words: [u64; 2]) -> [u8; MAX_MAP_TYPES] {
    let mut map = [0u8; MAX_MAP_TYPES];
    for (i, b) in map.iter_mut().enumerate() {
        // In bounds like pack_map's mirror image; only the cold collect
        // path decodes, so no audit suppression is needed here.
        *b = (words[i / 8] >> ((i % 8) * 8)) as u8;
    }
    map
}

impl SchedEvent {
    /// Encodes into a fixed block of words (word 0 is the tag).
    pub fn encode(&self) -> [u64; EVENT_WORDS] {
        let mut w = [0u64; EVENT_WORDS];
        match *self {
            SchedEvent::ReservationUpdate {
                now_ns,
                update_id,
                trigger_delta_millionths,
                old_guaranteed,
                new_guaranteed,
            } => {
                w[0] = TAG_RESERVATION;
                w[1] = now_ns;
                w[2] = update_id;
                w[3] = trigger_delta_millionths;
                let old = pack_map(&old_guaranteed);
                let new = pack_map(&new_guaranteed);
                w[4] = old[0];
                w[5] = old[1];
                w[6] = new[0];
                w[7] = new[1];
            }
            SchedEvent::CycleSteal {
                now_ns,
                type_id,
                worker,
            } => {
                w[0] = TAG_STEAL;
                w[1] = now_ns;
                w[2] = type_id as u64;
                w[3] = worker as u64;
            }
            SchedEvent::SpillwayHit {
                now_ns,
                type_id,
                worker,
            } => {
                w[0] = TAG_SPILLWAY;
                w[1] = now_ns;
                w[2] = type_id as u64;
                w[3] = worker as u64;
            }
            SchedEvent::Drop {
                now_ns,
                type_id,
                queue_depth,
            } => {
                w[0] = TAG_DROP;
                w[1] = now_ns;
                w[2] = type_id as u64;
                w[3] = queue_depth;
            }
            SchedEvent::DeadlineExpired {
                now_ns,
                type_id,
                waited_ns,
            } => {
                w[0] = TAG_EXPIRED;
                w[1] = now_ns;
                w[2] = type_id as u64;
                w[3] = waited_ns;
            }
            SchedEvent::WorkerQuarantine {
                now_ns,
                worker,
                type_id,
                running_ns,
            } => {
                w[0] = TAG_QUARANTINE;
                w[1] = now_ns;
                w[2] = worker as u64;
                w[3] = type_id as u64;
                w[4] = running_ns;
            }
            SchedEvent::WorkerRelease {
                now_ns,
                worker,
                stalled_ns,
            } => {
                w[0] = TAG_RELEASE;
                w[1] = now_ns;
                w[2] = worker as u64;
                w[3] = stalled_ns;
            }
        }
        w
    }

    /// Decodes a word block; `None` on an unknown tag (e.g. a slot that
    /// was never written).
    pub fn decode(w: &[u64; EVENT_WORDS]) -> Option<SchedEvent> {
        match w[0] {
            TAG_RESERVATION => Some(SchedEvent::ReservationUpdate {
                now_ns: w[1],
                update_id: w[2],
                trigger_delta_millionths: w[3],
                old_guaranteed: unpack_map([w[4], w[5]]),
                new_guaranteed: unpack_map([w[6], w[7]]),
            }),
            TAG_STEAL => Some(SchedEvent::CycleSteal {
                now_ns: w[1],
                type_id: w[2] as u32,
                worker: w[3] as u32,
            }),
            TAG_SPILLWAY => Some(SchedEvent::SpillwayHit {
                now_ns: w[1],
                type_id: w[2] as u32,
                worker: w[3] as u32,
            }),
            TAG_DROP => Some(SchedEvent::Drop {
                now_ns: w[1],
                type_id: w[2] as u32,
                queue_depth: w[3],
            }),
            TAG_EXPIRED => Some(SchedEvent::DeadlineExpired {
                now_ns: w[1],
                type_id: w[2] as u32,
                waited_ns: w[3],
            }),
            TAG_QUARANTINE => Some(SchedEvent::WorkerQuarantine {
                now_ns: w[1],
                worker: w[2] as u32,
                type_id: w[3] as u32,
                running_ns: w[4],
            }),
            TAG_RELEASE => Some(SchedEvent::WorkerRelease {
                now_ns: w[1],
                worker: w[2] as u32,
                stalled_ns: w[3],
            }),
            _ => None,
        }
    }

    /// Short kind label, used by the exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            SchedEvent::ReservationUpdate { .. } => "reservation_update",
            SchedEvent::CycleSteal { .. } => "cycle_steal",
            SchedEvent::SpillwayHit { .. } => "spillway_hit",
            SchedEvent::Drop { .. } => "drop",
            SchedEvent::DeadlineExpired { .. } => "deadline_expired",
            SchedEvent::WorkerQuarantine { .. } => "worker_quarantine",
            SchedEvent::WorkerRelease { .. } => "worker_release",
        }
    }
}

#[derive(Debug)]
struct Slot {
    /// Seqlock word: `2*pos + 1` while position `pos` is being written,
    /// `2*pos + 2` once it is published, 0 if never written.
    seq: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; EVENT_WORDS],
        }
    }
}

/// The bounded event ring. See the module docs for the protocol.
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[CachePadded<Slot>]>,
    mask: u64,
    head: CachePadded<AtomicU64>,
}

impl EventRing {
    /// Creates a ring holding the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is a power of two.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity > 0,
            "ring capacity must be a power of two, got {capacity}"
        );
        let slots: Box<[CachePadded<Slot>]> = (0..capacity)
            .map(|_| CachePadded::new(Slot::new()))
            .collect();
        EventRing {
            slots,
            mask: capacity as u64 - 1,
            head: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (the next position to claim).
    pub fn pushed(&self) -> u64 {
        // audit:ordering: statistics read of a monotone claim counter —
        // per-slot seqlock sequences carry the real synchronization
        self.head.load(Ordering::Relaxed)
    }

    /// Records an event, overwriting the oldest if the ring is full.
    /// Never blocks, never allocates; returns the event's position.
    ///
    /// If a writer stalls for an entire lap, the writer that laps it
    /// collides with it on the same slot. A classic seqlock is
    /// single-writer, and two writers blindly storing odd/even
    /// sequences can publish a *blend* of their payload words under an
    /// even sequence — the model checker found exactly that schedule
    /// (see `tests/model_seqlock.rs`). The claim below is therefore a
    /// CAS from an older *published* sequence: whichever colliding
    /// writer loses simply drops its event, which readers count as lost
    /// via the sequence-gap accounting. Losses stay detectable; blends
    /// become impossible.
    ///
    /// The claim accepts *any* older even sequence, not just the
    /// previous lap's. A writer that backed off leaves its slot a lap
    /// behind; were the claim to insist on exactly `2*(pos-cap)+2`,
    /// every later writer would miss and the slot would never record
    /// again.
    pub fn push(&self, ev: &SchedEvent) -> u64 {
        // audit:ordering: the RMW only claims a position; publication is
        // ordered by the slot's seqlock (Release fence + seq stores below)
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        let claim = 2 * pos + 1;
        // The slot is claimable only while quiescent and older than this
        // position: an odd value means another writer is mid-write, a
        // larger one that a newer writer already took the slot — back
        // off. Sequences only ever grow, so the CAS on the loaded value
        // cannot be fooled by a value coming back.
        // audit:ordering: a stale load at worst fails the CAS below,
        // which drops the event like any other collision
        let seen = slot.seq.load(Ordering::Relaxed);
        if seen % 2 == 1
            || seen > claim
            || slot
                .seq
                // audit:ordering: the CAS only claims the slot; the Release
                // fence below orders the payload against the odd sequence
                .compare_exchange(seen, claim, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return pos;
        }
        // The slot is marked dirty; fence so no payload store can become
        // visible before the odd sequence (classic seqlock writer).
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(ev.encode()) {
            // audit:ordering: seqlock payload stores — ordered by the
            // Release fence above and the seq Release store below
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(claim + 1, Ordering::Release);
        pos
    }

    /// Drains a consistent copy of the ring's surviving contents.
    ///
    /// Events arrive ordered by position. Events pushed before
    /// `from_pos`, overwritten by newer pushes, or caught mid-write are
    /// counted in [`EventLog::overwritten`] / skipped, so the caller can
    /// always reconcile `collected + lost == pushed - from_pos`.
    ///
    /// Collector-thread lane (writers never call this) — cold marks the
    /// audit frontier; the builds-a-Vec cost lands off the record path.
    #[cold]
    pub fn collect_from(&self, from_pos: u64) -> EventLog {
        let head = self.head.load(Ordering::Acquire);
        let lo = from_pos.max(head.saturating_sub(self.slots.len() as u64));
        let mut events = Vec::with_capacity((head - lo) as usize);
        let mut torn = 0u64;
        for pos in lo..head {
            let slot = &self.slots[(pos & self.mask) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * pos + 2 {
                // Overwritten by a newer generation or still being
                // written — either way this position is lost.
                torn += 1;
                continue;
            }
            let mut words = [0u64; EVENT_WORDS];
            for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
                // audit:ordering: seqlock payload reads — validated by the
                // Acquire fence and seq re-check below; torn reads retry
                *dst = src.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            // audit:ordering: the Acquire fence above orders this re-check
            // after the payload reads (classic seqlock reader)
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s2 != s1 {
                torn += 1;
                continue;
            }
            if let Some(ev) = SchedEvent::decode(&words) {
                events.push((pos, ev));
            } else {
                torn += 1;
            }
        }
        EventLog {
            events,
            pushed: head,
            overwritten: (lo - from_pos) + torn,
        }
    }

    /// Drains everything the ring still holds (see [`collect_from`]).
    ///
    /// [`collect_from`]: EventRing::collect_from
    pub fn collect(&self) -> EventLog {
        self.collect_from(0)
    }
}

/// A drained, owned copy of the event ring's contents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventLog {
    /// Surviving events, each tagged with its absolute position.
    pub events: Vec<(u64, SchedEvent)>,
    /// Total events pushed to the ring over its lifetime.
    pub pushed: u64,
    /// Events in the requested range that were lost to overwrites (or
    /// torn by a concurrent writer) — sequence-gap accounting.
    pub overwritten: u64,
}

impl EventLog {
    /// Merges another log (e.g. from a second engine shard): events are
    /// interleaved by position, loss counts add up.
    pub fn merge(&mut self, other: &EventLog) {
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|(pos, _)| *pos);
        self.pushed += other.pushed;
        self.overwritten += other.overwritten;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steal(n: u64) -> SchedEvent {
        SchedEvent::CycleSteal {
            now_ns: n,
            type_id: (n % 3) as u32,
            worker: (n % 5) as u32,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let evs = [
            SchedEvent::ReservationUpdate {
                now_ns: 123,
                update_id: 7,
                trigger_delta_millionths: 250_000,
                old_guaranteed: [1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255],
                new_guaranteed: [2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            },
            steal(42),
            SchedEvent::SpillwayHit {
                now_ns: 9,
                type_id: 1,
                worker: 3,
            },
            SchedEvent::Drop {
                now_ns: 77,
                type_id: 2,
                queue_depth: 1024,
            },
            SchedEvent::DeadlineExpired {
                now_ns: 88,
                type_id: 0,
                waited_ns: 150_000,
            },
            SchedEvent::WorkerQuarantine {
                now_ns: 99,
                worker: 4,
                type_id: 1,
                running_ns: 5_000_000,
            },
            SchedEvent::WorkerRelease {
                now_ns: 111,
                worker: 4,
                stalled_ns: 9_000_000,
            },
        ];
        for ev in evs {
            assert_eq!(SchedEvent::decode(&ev.encode()), Some(ev));
        }
        assert_eq!(SchedEvent::decode(&[99, 0, 0, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn collects_in_order_without_loss_when_not_full() {
        let ring = EventRing::new(8);
        for n in 0..5 {
            ring.push(&steal(n));
        }
        let log = ring.collect();
        assert_eq!(log.pushed, 5);
        assert_eq!(log.overwritten, 0);
        let got: Vec<u64> = log.events.iter().map(|(p, _)| *p).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(log.events[3].1, steal(3));
    }

    #[test]
    fn overwrites_are_detected_exactly() {
        let ring = EventRing::new(4);
        for n in 0..11 {
            ring.push(&steal(n));
        }
        let log = ring.collect();
        assert_eq!(log.pushed, 11);
        // 4 slots survive; positions 0..7 were overwritten.
        assert_eq!(log.overwritten, 7);
        let got: Vec<u64> = log.events.iter().map(|(p, _)| *p).collect();
        assert_eq!(got, vec![7, 8, 9, 10]);
    }

    #[test]
    fn collect_from_skips_already_drained_positions() {
        let ring = EventRing::new(8);
        for n in 0..6 {
            ring.push(&steal(n));
        }
        let log = ring.collect_from(4);
        assert_eq!(log.overwritten, 0);
        let got: Vec<u64> = log.events.iter().map(|(p, _)| *p).collect();
        assert_eq!(got, vec![4, 5]);
    }

    /// Two writers hammering `ring` until told to stop; returns once both
    /// have pushed, so callers never race thread start-up.
    fn spawn_writers(
        ring: &std::sync::Arc<EventRing>,
        stop: &std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> Vec<std::thread::JoinHandle<()>> {
        let started = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let writers = (0..2)
            .map(|t| {
                let (ring, stop, started) = (ring.clone(), stop.clone(), started.clone());
                std::thread::spawn(move || {
                    let mut n = t;
                    ring.push(&steal(n));
                    started.fetch_add(1, std::sync::atomic::Ordering::Release);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        n += 2;
                        ring.push(&steal(n));
                    }
                })
            })
            .collect();
        while started.load(std::sync::atomic::Ordering::Acquire) < 2 {
            std::thread::yield_now();
        }
        writers
    }

    #[test]
    fn concurrent_push_and_collect_never_tears() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring = Arc::new(EventRing::new(16));
        let stop = Arc::new(AtomicBool::new(false));
        let writers = spawn_writers(&ring, &stop);
        let mut total_seen = 0u64;
        for _ in 0..200 {
            let log = ring.collect();
            total_seen += log.events.len() as u64;
            for (_, ev) in &log.events {
                // Decoded events must be well-formed steals, never a mix
                // of two writes.
                match ev {
                    SchedEvent::CycleSteal {
                        now_ns,
                        type_id,
                        worker,
                    } => {
                        assert_eq!(*type_id as u64, now_ns % 3);
                        assert_eq!(*worker as u64, now_ns % 5);
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
            // Accounting always reconciles against the head we saw.
            assert_eq!(log.events.len() as u64 + log.overwritten, log.pushed);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert!(total_seen > 0);
    }

    /// Regression: a push that backs off from a collision leaves its slot
    /// a lap behind. The claim used to accept only the exact
    /// previous-lap sequence, so such a slot never recorded again.
    #[test]
    fn slot_recovers_after_a_backed_off_push() {
        let ring = EventRing::new(4);
        for n in 0..4 {
            ring.push(&steal(n));
        }
        // One lap of pushes that each claimed a position and then lost
        // their slot to a collision: the head moved, the slots did not.
        ring.head.fetch_add(4, Ordering::Relaxed);
        for n in 8..12 {
            assert_eq!(ring.push(&steal(n)), n);
        }
        let log = ring.collect();
        let got: Vec<u64> = log.events.iter().map(|(p, _)| *p).collect();
        assert_eq!(got, vec![8, 9, 10, 11]);
        assert_eq!(log.overwritten, 8);
    }

    /// The same defect as it showed up in practice: after 200 ms of two
    /// racing writers a quiescent ring kept 0 of 16 fresh events.
    #[test]
    fn slots_recover_after_writer_collisions() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring = Arc::new(EventRing::new(16));
        let stop = Arc::new(AtomicBool::new(false));
        let writers = spawn_writers(&ring, &stop);
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        // Quiescent now: one full lap of single-threaded pushes must all
        // land, whatever state the race left each slot in.
        let first = ring.pushed();
        for n in 0..16 {
            ring.push(&steal(1_000 + n));
        }
        let log = ring.collect();
        let got: Vec<u64> = log.events.iter().map(|(p, _)| *p).collect();
        assert_eq!(got, (first..first + 16).collect::<Vec<_>>());
        for (pos, ev) in &log.events {
            assert_eq!(*ev, steal(1_000 + pos - first));
        }
    }
}
