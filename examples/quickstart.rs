//! Quickstart: a complete Perséphone server in ~60 lines.
//!
//! Spawns the threaded runtime with two synthetic request types (a 5 µs
//! SHORT and a 500 µs LONG), drives it with the open-loop Poisson client,
//! and prints what DARC decided: how many cores each type was guaranteed,
//! and the per-type latency the client observed.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Duration;

use persephone::prelude::*;

fn main() {
    // Service times: type 0 = 5 µs, type 1 = 500 µs (100x dispersion).
    let services = [Nanos::from_micros(5), Nanos::from_micros(500)];

    // 1. A loopback "NIC" connecting client and server.
    let (mut client, server_port) = nic::loopback(1024);

    // 2. The server: 2 workers, a header classifier reading the type field,
    //    and a calibrated busy-wait handler standing in for application code.
    //    Service-time hints let DARC reserve cores at boot; without hints it
    //    starts in c-FCFS and profiles the live traffic instead. Idle
    //    threads park for 20 µs instead of yield-spinning, so on a small
    //    host the client, the dispatcher and the workers share the cores.
    let cal = SpinCalibration::calibrate();
    let handle = ServerBuilder::new(2, 2)
        .idle_backoff(Duration::from_micros(20))
        .hints(services.iter().map(|s| Some(*s)).collect())
        .classifier(HeaderClassifier::new(wire::TYPE_OFFSET, 2))
        .handler_factory(move |_worker| Box::new(SpinHandler::new(cal, &services)))
        .transport(Transport::Port(server_port))
        .start()
        .expect("in-process start cannot fail")
        .0;

    // 3. An open-loop Poisson client: 90 % short, 10 % long.
    let mut pool = BufferPool::new(512, 256);
    let spec = LoadSpec::new(vec![
        LoadType {
            ty: 0,
            ratio: 0.9,
            payload: b"short work".to_vec(),
        },
        LoadType {
            ty: 1,
            ratio: 0.1,
            payload: b"long work".to_vec(),
        },
    ]);
    println!("offering 3k req/s for 2 seconds...");
    let report = run_open_loop(
        &mut client,
        &mut pool,
        &spec,
        3_000.0,
        Duration::from_secs(2),
        Duration::from_millis(500),
        42,
    );

    // 4. Shut down and inspect both sides.
    let server_report = handle.stop();
    println!(
        "client: sent={} received={} dropped={} starved={}",
        report.sent, report.received, report.dropped, report.starved
    );
    for (i, name) in ["SHORT(5us)", "LONG(500us)"].iter().enumerate() {
        if let (Some(p50), Some(p999)) =
            (report.percentile_ns(i, 0.5), report.percentile_ns(i, 0.999))
        {
            println!(
                "  {name:12} p50 = {:>8.1} us   p99.9 = {:>8.1} us",
                p50 as f64 / 1e3,
                p999 as f64 / 1e3
            );
        }
    }
    let d = &server_report.dispatcher;
    println!(
        "server: classified={} unknown={} dispatched={} reservation updates={}",
        d.classified, d.unknown, d.dispatched, d.reservation_updates
    );
    println!(
        "DARC guaranteed cores per type: {:?} (short types are protected \
         from dispersion-based head-of-line blocking)",
        d.guaranteed
    );
}
