//! Figure 5 companion on the *threaded runtime*: c-FCFS vs SJF vs DARC.
//!
//! The paper's Figure 5 sweeps policies in simulation; this binary runs
//! the same comparison live through `ServerBuilder::policy(...)` — real
//! threads, real rings, real spin work — at a fixed offered load on a
//! 95/5 short/long mix. Each policy monomorphizes its own dispatcher
//! loop, so the numbers compare scheduling disciplines, not dispatch
//! overheads.
//!
//! Expected shape (the paper's story): c-FCFS lets rare 100 µs requests
//! disperse across all workers and crush the short type's tail; SJF
//! prioritizes queued shorts but cannot preempt in-flight longs; DARC
//! reserves cores the longs can never take, keeping the short tail flat.
//! Absolute numbers depend on the host; the per-policy ordering is the
//! signal.
//!
//! Run with: `cargo run --release -p persephone-bench --bin fig05_live`
//! (`--quick` shrinks the run for CI).

use std::time::Duration;

use persephone_bench::BenchOpts;
use persephone_core::classifier::HeaderClassifier;
use persephone_core::policy::Policy;
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
    let services = [Nanos::from_micros(5), Nanos::from_micros(100)];
    let offered_rps = if opts.quick { 20_000.0 } else { 60_000.0 };
    let duration = Duration::from_nanos(opts.duration(2_000).as_nanos());
    let grace = Duration::from_secs(2);
    let cal = SpinCalibration::calibrate();

    println!(
        "fig05_live: {workers} workers, 95/5 {}/{} us mix, {offered_rps:.0} rps offered, {} ms",
        services[0].as_nanos() / 1_000,
        services[1].as_nanos() / 1_000,
        duration.as_millis()
    );

    let mut table = Table::new(vec![
        "policy",
        "sent",
        "achieved_rps",
        "short_p50_us",
        "short_p999_us",
        "short_p999_slowdown",
        "long_p999_us",
    ]);

    for policy in [Policy::CFcfs, Policy::Sjf, Policy::Darc] {
        let name = policy.name();
        let (mut client, server_port) = loopback_mq(1024, 1, Steering::Rss);
        let handle = ServerBuilder::new(workers, 2)
            .policy(policy)
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
                ratio: 0.95,
                payload: b"short".to_vec(),
            },
            LoadType {
                ty: 1,
                ratio: 0.05,
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

        println!(
            "  {name}: received {}/{} ({achieved:.0} rps), short p99.9 {:.1} us \
             ({slowdown:.0}x), long p99.9 {:.1} us [engine: {}]",
            report.received,
            report.sent,
            p999_short as f64 / 1e3,
            p999_long as f64 / 1e3,
            server.dispatcher.policy
        );

        table.push(vec![
            name,
            report.sent.to_string(),
            format!("{achieved:.0}"),
            format!("{:.1}", p50 as f64 / 1e3),
            format!("{:.1}", p999_short as f64 / 1e3),
            format!("{slowdown:.1}"),
            format!("{:.1}", p999_long as f64 / 1e3),
        ]);
    }

    println!("\n## Live policy sweep ({workers} workers, threaded runtime)\n");
    print!("{}", table.to_markdown());
    opts.write_csv("fig05_live.csv", &table);
}
