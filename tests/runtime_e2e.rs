//! End-to-end tests of the threaded Perséphone runtime: full
//! client → NIC → net-worker/dispatcher → DARC → worker → NIC → client
//! round trips, with real threads and the real engine.

// These tests drive the threaded runtime against wall-clock deadlines;
// under `--features model-check` the rings run on the checker's fallback
// shims (orders of magnitude slower), which breaks the timing assumptions.
// The model-check tier covers the rings directly in `model_rings.rs` /
// `model_seqlock.rs`; the default-features tier runs this binary as-is.
#![cfg(not(feature = "model-check"))]

use std::time::Duration;

use persephone::prelude::*;

fn spin_services() -> [Nanos; 2] {
    [Nanos::from_micros(5), Nanos::from_micros(200)]
}

fn spin_server(workers: usize, port: ServerPort, hints: bool) -> ServerHandle {
    let services = spin_services();
    let cal = SpinCalibration::calibrate();
    let mut builder = ServerBuilder::new(workers, 2);
    if hints {
        builder = builder.hints(services.iter().map(|s| Some(*s)).collect());
    } else {
        builder = builder.tune_engine(|e| e.profiler.min_samples = 100);
    }
    builder
        .classifier(HeaderClassifier::new(wire::TYPE_OFFSET, 2))
        .handler_factory(move |_| Box::new(SpinHandler::new(cal, &services)))
        .transport(Transport::Port(port))
        .start()
        .expect("in-process start cannot fail")
        .0
}

#[test]
fn round_trip_under_mixed_load() {
    let (mut client, server_port) = nic::loopback(512);
    let handle = spin_server(2, server_port, true);
    let mut pool = BufferPool::new(256, 128);
    let spec = LoadSpec::new(vec![
        LoadType {
            ty: 0,
            ratio: 0.8,
            payload: b"s".to_vec(),
        },
        LoadType {
            ty: 1,
            ratio: 0.2,
            payload: b"l".to_vec(),
        },
    ]);
    let report = run_open_loop(
        &mut client,
        &mut pool,
        &spec,
        2_000.0,
        Duration::from_millis(500),
        Duration::from_secs(2),
        13,
    );
    let server = handle.stop();
    assert!(report.sent > 100, "sent = {}", report.sent);
    assert_eq!(
        report.received + report.dropped,
        report.sent,
        "every request is answered or explicitly dropped"
    );
    assert_eq!(server.handled(), report.received);
    assert_eq!(server.dispatcher.malformed, 0);
    assert_eq!(server.dispatcher.unknown, 0);
    // Both types actually flowed.
    assert!(report.latencies_ns[0].len() > 10);
    assert!(report.latencies_ns[1].len() > 2);

    // The telemetry snapshot agrees with the dispatcher's own counters.
    let tel = &server.dispatcher.telemetry;
    assert_eq!(tel.completions(), server.handled());
    assert!(tel.types[0].sojourn.count() > 10);
    assert!(tel.types[0].sojourn.quantile(0.5) > 0);
    // Workers recorded their measured busy time.
    assert!(tel.workers.iter().any(|w| w.busy_ns > 0));
}

#[test]
fn warmup_profiles_and_installs_a_reservation() {
    let (mut client, server_port) = nic::loopback(512);
    let handle = spin_server(2, server_port, false);
    let mut pool = BufferPool::new(256, 128);
    let spec = LoadSpec::new(vec![
        LoadType {
            ty: 0,
            ratio: 0.5,
            payload: vec![],
        },
        LoadType {
            ty: 1,
            ratio: 0.5,
            payload: vec![],
        },
    ]);
    let _ = run_open_loop(
        &mut client,
        &mut pool,
        &spec,
        2_000.0,
        Duration::from_millis(800),
        Duration::from_secs(2),
        17,
    );
    let server = handle.stop();
    assert!(
        server.dispatcher.reservation_updates >= 1,
        "the c-FCFS warm-up must hand over to DARC"
    );
    // The short type ends up with at least one guaranteed core.
    assert!(server.dispatcher.guaranteed[0] >= 1);

    // The event ring logged the warm-up handover, and the last update's
    // new guaranteed map matches the engine's final reservation.
    let updates: Vec<_> = server
        .dispatcher
        .telemetry
        .events
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            persephone::telemetry::ring::SchedEvent::ReservationUpdate {
                new_guaranteed, ..
            } => Some(*new_guaranteed),
            _ => None,
        })
        .collect();
    assert!(!updates.is_empty(), "reservation update event recorded");
    let last = updates.last().unwrap();
    for (i, g) in server.dispatcher.guaranteed.iter().enumerate() {
        assert_eq!(last[i] as usize, *g, "type {i} guaranteed mismatch");
    }
}

#[test]
fn unknown_types_ride_the_spillway() {
    let (mut client, server_port) = nic::loopback(512);
    let handle = spin_server(2, server_port, true);
    let mut pool = BufferPool::new(64, 128);
    // Type 7 is unregistered: classified UNKNOWN, still served.
    let spec = LoadSpec::new(vec![LoadType {
        ty: 7,
        ratio: 1.0,
        payload: b"???".to_vec(),
    }]);
    let report = run_open_loop(
        &mut client,
        &mut pool,
        &spec,
        500.0,
        Duration::from_millis(300),
        Duration::from_secs(2),
        19,
    );
    let server = handle.stop();
    assert!(
        report.received > 10,
        "UNKNOWN requests must still be served"
    );
    assert_eq!(server.dispatcher.unknown, report.sent);
    assert_eq!(server.dispatcher.classified, 0);
    // UNKNOWN traffic lands in the telemetry's dedicated UNKNOWN slot.
    let tel = &server.dispatcher.telemetry;
    let unknown = tel.unknown.as_ref().expect("unknown slot present");
    assert_eq!(unknown.counters.completions, report.received);
    assert!(tel.types.iter().all(|t| t.counters.arrivals == 0));
}

#[test]
fn malformed_packets_get_bad_request() {
    let (mut client, server_port) = nic::loopback(64);
    let handle = spin_server(1, server_port, true);
    // Hand-craft garbage: too short, bad magic.
    let mut pool = BufferPool::new(8, 64);
    let mut garbage = pool.alloc().unwrap();
    garbage.fill(&[0xFF; 32]);
    client.send(garbage).unwrap();
    let mut short = pool.alloc().unwrap();
    short.fill(&[1, 2, 3]);
    client.send(short).unwrap();

    // And one valid request to prove the server still works.
    let mut ok = pool.alloc().unwrap();
    let len = wire::encode_request(ok.raw_mut(), 0, 1, b"x").unwrap();
    ok.set_len(len);
    client.send(ok).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut responses = Vec::new();
    while responses.len() < 2 && std::time::Instant::now() < deadline {
        if let Some(pkt) = client.recv() {
            responses.push(pkt);
        } else {
            std::thread::yield_now();
        }
    }
    let server = handle.stop();
    assert_eq!(server.dispatcher.malformed, 2);
    assert_eq!(server.dispatcher.classified, 1);
    // At least the BadRequest for the decodable-but-bad-magic packet is
    // undeliverable (magic mismatch ⇒ discarded), so expect the valid
    // response plus at most one control response.
    assert!(!responses.is_empty());
    let ok_resp = responses
        .iter()
        .filter_map(|p| wire::decode(p.as_slice()).ok())
        .any(|(h, _)| wire::response_status(&h) == Some(wire::Status::Ok));
    assert!(ok_resp, "the valid request must be served");
}

#[test]
fn flow_control_sheds_only_the_overloaded_type() {
    let (mut client, server_port) = nic::loopback(2048);
    let services = [Nanos::from_micros(1), Nanos::from_millis(5)];
    let cal = SpinCalibration::calibrate();
    let handle = ServerBuilder::new(2, 2)
        .hints(services.iter().map(|s| Some(*s)).collect())
        .tune_engine(|e| e.queue_capacity = 4) // Tiny typed queues force drops.
        .classifier(HeaderClassifier::new(wire::TYPE_OFFSET, 2))
        .handler_factory(move |_| Box::new(SpinHandler::new(cal, &services)))
        .transport(Transport::Port(server_port))
        .start()
        .expect("in-process start cannot fail")
        .0;
    let mut pool = BufferPool::new(1024, 128);
    // Flood with long requests (5 ms each): their queue must overflow.
    let spec = LoadSpec::new(vec![
        LoadType {
            ty: 0,
            ratio: 0.5,
            payload: vec![],
        },
        LoadType {
            ty: 1,
            ratio: 0.5,
            payload: vec![],
        },
    ]);
    let report = run_open_loop(
        &mut client,
        &mut pool,
        &spec,
        2_000.0,
        Duration::from_millis(400),
        Duration::from_secs(3),
        23,
    );
    let server = handle.stop();
    assert!(server.dispatcher.dropped > 0, "overload must shed load");
    assert_eq!(report.dropped, server.dispatcher.dropped);
    // Short requests keep flowing despite the long-type overload.
    assert!(
        report.latencies_ns[0].len() > 50,
        "shorts served: {}",
        report.latencies_ns[0].len()
    );
}

#[test]
fn five_type_service_end_to_end() {
    // Table 4's TPC-C mix, replayed as calibrated spins: each request
    // carries its type's profiled service time (8 LE nanosecond bytes).
    // No hints, so the server profiles under c-FCFS and then installs a
    // DARC reservation.
    let workload = persephone::sim::workload::Workload::tpcc();
    let types = workload.num_types();
    let (mut client, server_port) = nic::loopback(256);
    let cal = SpinCalibration::calibrate();
    let handle = ServerBuilder::new(2, types)
        .tune_engine(|e| e.profiler.min_samples = 100)
        .classifier(HeaderClassifier::new(wire::TYPE_OFFSET, types as u32))
        .handler_factory(move |_| Box::new(PayloadSpinHandler::new(cal, Nanos::from_millis(1))))
        .transport(Transport::Port(server_port))
        .start()
        .expect("in-process start cannot fail")
        .0;
    let mut pool = BufferPool::new(128, 128);
    let spec = LoadSpec::new(
        workload
            .types
            .iter()
            .enumerate()
            .map(|(ty, t)| LoadType {
                ty: ty as u32,
                ratio: t.ratio,
                payload: t.service.mean().as_nanos().to_le_bytes().to_vec(),
            })
            .collect(),
    );
    let report = run_open_loop(
        &mut client,
        &mut pool,
        &spec,
        1_500.0,
        Duration::from_millis(800),
        Duration::from_secs(2),
        31,
    );
    let server = handle.stop();
    for (ty, lat) in report.latencies_ns.iter().enumerate() {
        assert!(!lat.is_empty(), "type {ty} was never answered");
    }
    assert!(
        server.dispatcher.reservation_updates >= 1,
        "the profiled warm-up must install a reservation"
    );
    assert_eq!(server.handled(), report.received);
    assert_eq!(
        report.received + report.dropped + report.rejected + report.timed_out,
        report.sent,
        "every sent request is accounted for"
    );
    assert_eq!(server.dispatcher.malformed, 0);
    assert_eq!(server.dispatcher.unknown, 0);
}

#[test]
fn content_classifier_works_in_the_full_pipeline() {
    // A payload-parsing classifier instead of the header one: classify by
    // the first byte of the body.
    let (mut client, server_port) = nic::loopback(256);
    let services = spin_services();
    let cal = SpinCalibration::calibrate();
    let classifier = FnClassifier::new(|msg: &[u8]| match msg.get(wire::HEADER_LEN) {
        Some(b'S') => TypeId::new(0),
        Some(b'L') => TypeId::new(1),
        _ => TypeId::UNKNOWN,
    });
    let handle = ServerBuilder::new(2, 2)
        .hints(services.iter().map(|s| Some(*s)).collect())
        .classifier(classifier)
        .handler_factory(move |_| Box::new(SpinHandler::new(cal, &services)))
        .transport(Transport::Port(server_port))
        .start()
        .expect("in-process start cannot fail")
        .0;
    let mut pool = BufferPool::new(128, 128);
    let spec = LoadSpec::new(vec![LoadType {
        // The wire type field says 1, but the classifier reads 'S'.
        ty: 1,
        ratio: 1.0,
        payload: b"S-marked".to_vec(),
    }]);
    let report = run_open_loop(
        &mut client,
        &mut pool,
        &spec,
        500.0,
        Duration::from_millis(200),
        Duration::from_secs(2),
        37,
    );
    let server = handle.stop();
    assert!(report.received > 10);
    assert_eq!(server.dispatcher.classified, report.sent);
    assert_eq!(server.dispatcher.unknown, 0);
}
