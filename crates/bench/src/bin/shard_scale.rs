//! Sharded dispatch plane scaling sweep (threaded runtime).
//!
//! The paper's deployment runs one dispatcher, which Perséphone's own
//! evaluation (§4.3) identifies as the eventual throughput ceiling. This
//! sweep holds the worker pool fixed and splits the dispatch plane into
//! K = 1..4 RSS-fed shards, driving each configuration with the same
//! over-capacity open-loop mix and reporting the saturation goodput and
//! the short type's p99.9 slowdown.
//!
//! Unlike the `fig*` binaries this exercises the *threaded runtime*, so
//! absolute numbers depend on the host's core count; the interesting
//! signal is the K=1 → K=4 trend.
//!
//! Run with: `cargo run --release -p persephone-bench --bin shard_scale`
//! (`--quick` shrinks the sweep for CI).

use std::time::Duration;

use persephone_bench::BenchOpts;
use persephone_core::classifier::HeaderClassifier;
use persephone_core::time::Nanos;
use persephone_net::nic::{loopback_mq, Steering};
use persephone_net::pool::BufferPool;
use persephone_net::wire;
use persephone_runtime::handler::SpinHandler;
use persephone_runtime::loadgen::{run_open_loop, LoadSpec, LoadType};
use persephone_runtime::server::{ServerBuilder, Transport};
use persephone_runtime::spin::SpinCalibration;
use persephone_sim::report::Table;

fn main() {
    let opts = BenchOpts::from_args();
    let workers = if opts.quick { 4 } else { 8 };
    let services = [Nanos::from_micros(2), Nanos::from_micros(50)];
    let offered_rps = if opts.quick { 40_000.0 } else { 120_000.0 };
    let duration = Duration::from_nanos(opts.duration(2_000).as_nanos());
    let grace = Duration::from_secs(2);
    let cal = SpinCalibration::calibrate();

    println!(
        "shard_scale: {workers} workers, 90/10 {}/{} us mix, {offered_rps:.0} rps offered, {} ms",
        services[0].as_nanos() / 1_000,
        services[1].as_nanos() / 1_000,
        duration.as_millis()
    );

    let mut table = Table::new(vec![
        "shards",
        "sent",
        "achieved_rps",
        "short_p50_us",
        "short_p999_us",
        "short_p999_slowdown",
        "long_p999_us",
        "queue_spread",
    ]);

    for k in 1..=4usize {
        let (mut client, server_port) = loopback_mq(1024, k, Steering::Rss);
        let handle = ServerBuilder::new(workers, 2)
            .shards(k)
            .hints(services.iter().map(|s| Some(*s)).collect())
            .classifier_factory(|_shard| Box::new(HeaderClassifier::new(wire::TYPE_OFFSET, 2)))
            .handler_factory(move |_worker| Box::new(SpinHandler::new(cal, &services)))
            .transport(Transport::Port(server_port))
            .start()
            .expect("in-process start cannot fail")
            .0;

        let mut pool = BufferPool::new(1024, 128);
        let spec = LoadSpec::new(vec![
            LoadType {
                ty: 0,
                ratio: 0.9,
                payload: b"short".to_vec(),
            },
            LoadType {
                ty: 1,
                ratio: 0.1,
                payload: b"long".to_vec(),
            },
        ]);
        let report = run_open_loop(
            &mut client,
            &mut pool,
            &spec,
            offered_rps,
            duration,
            grace,
            opts.seed,
        );
        let server = handle.stop();

        let achieved = report.received as f64 / duration.as_secs_f64();
        let p50 = report.percentile_ns(0, 0.5).unwrap_or(0);
        let p999_short = report.percentile_ns(0, 0.999).unwrap_or(0);
        let p999_long = report.percentile_ns(1, 0.999).unwrap_or(0);
        let slowdown = p999_short as f64 / services[0].as_nanos() as f64;
        let spread = report
            .per_queue_sent
            .iter()
            .map(|q| format!("{:.0}%", *q as f64 * 100.0 / report.sent.max(1) as f64))
            .collect::<Vec<_>>()
            .join("/");

        println!(
            "  K={k}: received {}/{} ({achieved:.0} rps), short p99.9 {:.1} us \
             ({slowdown:.0}x), shards received {:?}",
            report.received,
            report.sent,
            p999_short as f64 / 1e3,
            server.shards.iter().map(|s| s.received).collect::<Vec<_>>()
        );

        table.push(vec![
            k.to_string(),
            report.sent.to_string(),
            format!("{achieved:.0}"),
            format!("{:.1}", p50 as f64 / 1e3),
            format!("{:.1}", p999_short as f64 / 1e3),
            format!("{slowdown:.1}"),
            format!("{:.1}", p999_long as f64 / 1e3),
            spread,
        ]);
    }

    println!("\n## Dispatch-plane scaling (fixed {workers}-worker pool)\n");
    print!("{}", table.to_markdown());
    opts.write_csv("shard_scale.csv", &table);
}
