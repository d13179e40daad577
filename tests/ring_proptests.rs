//! Randomized property tests for the lock-free rings against a model
//! queue, plus wire-format round trips.
//!
//! Seeded with the repo's own xoshiro256++ [`persephone::core::rng::Rng`]
//! so the suite is deterministic and dependency-free. A smoke-sized set
//! of cases runs by default; build with `--features heavy-testing` for
//! the deep sweep.

use std::collections::VecDeque;

use persephone::core::rng::Rng;
use persephone::net::{mpsc, spsc};

#[cfg(feature = "heavy-testing")]
const CASES: u64 = 256;
#[cfg(not(feature = "heavy-testing"))]
const CASES: u64 = 32;

/// The SPSC ring agrees with a FIFO model on random interleavings.
#[test]
fn spsc_matches_model() {
    let mut rng = Rng::new(0x5150);
    for _ in 0..CASES {
        let capacity = 1 + rng.next_below(63) as usize;
        let ops = rng.next_below(400);
        let (mut tx, mut rx) = spsc::channel::<u64>(capacity);
        let real_cap = tx.capacity();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut seq = 0u64;
        for _ in 0..ops {
            if rng.next_below(2) == 0 {
                let ok = tx.push(seq).is_ok();
                if model.len() < real_cap {
                    assert!(ok, "push rejected below capacity");
                    model.push_back(seq);
                } else {
                    assert!(!ok, "push accepted beyond capacity");
                }
                seq += 1;
            } else {
                assert_eq!(rx.pop(), model.pop_front());
            }
        }
        assert_eq!(rx.len(), model.len());
    }
}

/// The MPSC ring agrees with a FIFO model when used single-producer.
#[test]
fn mpsc_matches_model() {
    let mut rng = Rng::new(0x3153);
    for _ in 0..CASES {
        let capacity = 1 + rng.next_below(63) as usize;
        let ops = rng.next_below(400);
        let (tx, mut rx) = mpsc::channel::<u64>(capacity);
        let real_cap = tx.capacity();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut seq = 0u64;
        for _ in 0..ops {
            if rng.next_below(2) == 0 {
                let ok = tx.push(seq).is_ok();
                if model.len() < real_cap {
                    assert!(ok);
                    model.push_back(seq);
                } else {
                    assert!(!ok);
                }
                seq += 1;
            } else {
                assert_eq!(rx.pop(), model.pop_front());
            }
        }
    }
}

/// Two-thread SPSC transfer delivers every value exactly once, in
/// order, for random capacities and message counts.
#[test]
fn spsc_two_thread_transfer() {
    let mut rng = Rng::new(0x7152);
    let rounds = CASES.min(24);
    for _ in 0..rounds {
        let capacity = 1 + rng.next_below(31) as usize;
        let count = 1 + rng.next_below(20_000);
        let (mut tx, mut rx) = spsc::channel::<u64>(capacity);
        let producer = std::thread::spawn(move || {
            for i in 0..count {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(spsc::Full(back)) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expect = 0u64;
        while expect < count {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expect);
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None);
    }
}

/// Randomized *structural* parameters driven through the exhaustive
/// model checker: the seeded generator picks ring capacity, message
/// count, and single-vs-batch API, and `persephone_check::model`
/// explores every bounded interleaving of each generated scenario
/// against the real SPSC code. Randomization covers the parameter
/// space; the checker covers the schedule space. Enable with
/// `--features model-check` (stack with `heavy-testing` for more
/// scenarios and a deeper preemption bound via `Config::auto`).
#[cfg(feature = "model-check")]
mod model_props {
    use super::{Rng, VecDeque};
    use persephone::net::spsc;
    use persephone_check::{model, thread};

    #[cfg(feature = "heavy-testing")]
    const SCENARIOS: u64 = 8;
    #[cfg(not(feature = "heavy-testing"))]
    const SCENARIOS: u64 = 4;

    fn transfer_scenario(capacity: usize, count: u64, batch: bool) -> impl Fn() + Send + Sync {
        move || {
            let (mut tx, mut rx) = spsc::channel::<u64>(capacity);
            let producer = thread::spawn(move || {
                if batch {
                    let mut src: VecDeque<u64> = (0..count).collect();
                    while !src.is_empty() {
                        if tx.push_batch(&mut src) == 0 {
                            thread::yield_now();
                        }
                    }
                } else {
                    for i in 0..count {
                        let mut v = i;
                        loop {
                            match tx.push(v) {
                                Ok(()) => break,
                                Err(spsc::Full(back)) => {
                                    v = back;
                                    thread::yield_now();
                                }
                            }
                        }
                    }
                }
            });
            let mut expect = 0u64;
            while expect < count {
                match rx.pop() {
                    Some(v) => {
                        assert_eq!(v, expect, "in-order, exactly-once delivery");
                        expect += 1;
                    }
                    None => thread::yield_now(),
                }
            }
            producer.join();
            assert_eq!(rx.pop(), None);
        }
    }

    /// Each generated (capacity, count, api) scenario is explored
    /// exhaustively within the checker's bounds. Scenarios stay tiny —
    /// the schedule space, not the message count, is the coverage axis.
    #[test]
    fn generated_spsc_scenarios_hold_under_model() {
        let mut rng = Rng::new(0x5EED);
        for case in 0..SCENARIOS {
            let capacity = 1 + rng.next_below(2) as usize; // 1..=2 (cap rounds to 2)
            let count = 1 + rng.next_below(3); // 1..=3 values
            let batch = rng.next_below(2) == 1;
            eprintln!("model scenario {case}: capacity={capacity} count={count} batch={batch}");
            model(transfer_scenario(capacity, count, batch));
        }
    }
}

/// Wire-format round trips for random payloads and ids.
mod wire_props {
    use super::{Rng, CASES};
    use persephone::net::wire;

    fn random_bytes(rng: &mut Rng, max_len: u64) -> Vec<u8> {
        let len = rng.next_below(max_len) as usize;
        (0..len).map(|_| rng.next_below(256) as u8).collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut rng = Rng::new(0xA11CE);
        for _ in 0..CASES * 4 {
            let ty = rng.next_u64() as u32;
            let id = rng.next_u64();
            let payload = random_bytes(&mut rng, 512);
            let mut buf = vec![0u8; wire::HEADER_LEN + payload.len()];
            let len = wire::encode_request(&mut buf, ty, id, &payload).unwrap();
            assert_eq!(len, buf.len());
            let (hdr, got) = wire::decode(&buf).unwrap();
            assert_eq!(hdr.kind, wire::Kind::Request);
            assert_eq!(hdr.ty, ty);
            assert_eq!(hdr.id, id);
            assert_eq!(got, &payload[..]);
        }
    }

    #[test]
    fn decode_never_panics_on_garbage() {
        let mut rng = Rng::new(0xBAD);
        for _ in 0..CASES * 8 {
            // Any byte soup must either decode or produce a typed error.
            let bytes = random_bytes(&mut rng, 256);
            let _ = wire::decode(&bytes);
        }
    }

    #[test]
    fn in_place_response_preserves_payload() {
        let mut rng = Rng::new(0xC0DE);
        for _ in 0..CASES * 4 {
            let ty = rng.next_below(1_000) as u32;
            let id = rng.next_u64();
            let payload = random_bytes(&mut rng, 128);
            let mut buf = vec![0u8; wire::HEADER_LEN + payload.len()];
            wire::encode_request(&mut buf, ty, id, &payload).unwrap();
            wire::request_to_response_in_place(&mut buf, wire::Status::Ok).unwrap();
            let (hdr, got) = wire::decode(&buf).unwrap();
            assert_eq!(hdr.kind, wire::Kind::Response);
            assert_eq!(hdr.id, id);
            assert_eq!(got, &payload[..]);
        }
    }
}
