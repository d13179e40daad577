//! Threaded backend: replays the trace through the real runtime.
//!
//! The scenario's scripted time can be compressed by
//! `threaded.time_scale`: arrival times *and* service demands are both
//! scaled, preserving utilization (and therefore slowdown shape) while a
//! long script replays in bounded wall time. Per-request service demands
//! ride in the request payload and are burned by
//! [`persephone_runtime::handler::PayloadSpinHandler`], so both backends
//! execute the exact same sampled distributions.

use std::time::Duration;

use persephone_core::classifier::HeaderClassifier;
use persephone_net::nic::{loopback_mq_with_faults, NicFaultPlan, Steering};
use persephone_net::pool::BufferPool;
use persephone_net::udp::{self, UdpConfig};
use persephone_net::wire;
use persephone_rack::{build_rack_policy, run_rack_scheduled, RackMember, RackReport};
use persephone_runtime::fault::FaultPlan;
use persephone_runtime::handler::{PayloadSleepHandler, PayloadSpinHandler, RequestHandler};
use persephone_runtime::loadgen::{run_scheduled, ScheduledRequest};
use persephone_runtime::server::{ServerBuilder, Transport};
use persephone_runtime::spin::SpinCalibration;
use persephone_sim::workload::Arrival;

use persephone_core::time::Nanos;

use crate::bench::{RunResult, TelemetrySummary, TypeResult};
use crate::runner::{mean_offered_load, pcts_of};
use crate::spec::{RackSpec, ScenarioSpec};

/// Time-scales the trace into the wall-clock schedule plus the per-type
/// mean scaled demand (the slowdown denominator).
fn scaled_schedule(spec: &ScenarioSpec, trace: &[Arrival]) -> (Vec<ScheduledRequest>, Vec<f64>) {
    let num_types = spec.types.len();
    let ts = spec.threaded.time_scale;
    let schedule: Vec<ScheduledRequest> = trace
        .iter()
        .map(|a| ScheduledRequest {
            at_ns: (a.at.as_nanos() as f64 * ts) as u64,
            ty: a.ty.index() as u32,
            service_ns: ((a.service.as_nanos() as f64 * ts) as u64).max(1),
        })
        .collect();
    let mut svc_sum = vec![0u64; num_types];
    let mut svc_n = vec![0u64; num_types];
    for r in &schedule {
        if let Some(i) = svc_sum.get_mut(r.ty as usize) {
            *i += r.service_ns;
            svc_n[r.ty as usize] += 1;
        }
    }
    let mean_svc_ns: Vec<f64> = svc_sum
        .iter()
        .zip(&svc_n)
        .map(|(&s, &n)| if n == 0 { 1.0 } else { s as f64 / n as f64 })
        .collect();
    (schedule, mean_svc_ns)
}

/// The worker handler the spec asked for: a calibrated spinner (exact,
/// costs CPU) or an OS sleeper (occupancy without CPU — how a many-server
/// rack fits on a small machine).
fn make_handler(sleepy: bool, cal: SpinCalibration, max: Nanos) -> Box<dyn RequestHandler> {
    if sleepy {
        Box::new(PayloadSleepHandler::new(max))
    } else {
        Box::new(PayloadSpinHandler::new(cal, max))
    }
}

/// The spec's idle park, `None` when `idle_backoff_us = 0` (busy-yield).
fn idle_backoff(spec: &ScenarioSpec) -> Option<Duration> {
    (spec.threaded.idle_backoff_us > 0.0)
        .then(|| Duration::from_nanos((spec.threaded.idle_backoff_us * 1_000.0) as u64))
}

/// Runs every policy in the spec on the threaded runtime.
pub fn run(spec: &ScenarioSpec, trace: &[Arrival]) -> Vec<RunResult> {
    let num_types = spec.types.len();
    let ts = spec.threaded.time_scale;
    let (schedule, mean_svc_ns) = scaled_schedule(spec, trace);

    let cal = SpinCalibration::calibrate();
    let max_spin = Nanos::from_micros_f64(spec.threaded.max_service_ms * 1_000.0);
    let scaled_secs = spec.total_duration().as_secs_f64() * ts;

    let mut runs = Vec::with_capacity(spec.policies.len());
    for policy in &spec.policies {
        let steering = match spec.threaded.steering.as_str() {
            "by_type" => Steering::ByType((0..num_types).map(|t| t % spec.shards).collect()),
            _ => Steering::Rss,
        };
        let nic_faults = if spec.faults.nic_drop_every > 0 {
            NicFaultPlan::drop_every(spec.faults.nic_drop_every)
        } else {
            NicFaultPlan::default()
        };
        let mut fault_plan = FaultPlan::none();
        for stall in &spec.faults.stalls {
            fault_plan = fault_plan.stall_worker(
                stall.worker,
                stall.after_requests,
                Duration::from_secs_f64(stall.stall_ms / 1_000.0),
            );
        }
        let mut builder = ServerBuilder::new(spec.workers, num_types)
            .shards(spec.shards)
            .policy(policy.clone())
            .hints(spec.hints())
            .faults(fault_plan)
            .tune_engine(|e| {
                e.profiler.min_samples = spec.engine.darc_min_samples;
                e.queue_capacity = spec.engine.queue_capacity;
            })
            .classifier_factory(move |_shard| {
                Box::new(HeaderClassifier::new(wire::TYPE_OFFSET, num_types as u32))
            })
            .handler_factory({
                let sleepy = spec.threaded.handler == "sleep";
                move |_worker| make_handler(sleepy, cal, max_spin)
            });
        if let Some(park) = idle_backoff(spec) {
            builder = builder.idle_backoff(park);
        }
        // Same runtime, different wire: in-process rings, or one real
        // 127.0.0.1 socket per shard (the client steers by destination
        // address, so steering and fault injection behave identically).
        let (mut client, handle) = match spec.threaded.transport.as_str() {
            "udp" => {
                let cfg = UdpConfig {
                    buf_size: spec.threaded.buf_size,
                    pool_buffers: spec.threaded.pool_buffers,
                };
                let port = udp::server(
                    std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
                    spec.shards,
                    cfg,
                )
                .expect("binding the scenario's shard sockets");
                let addrs = port
                    .local_addrs()
                    .expect("a UDP server port always knows its socket addresses");
                let (handle, _) = builder
                    .transport(Transport::Port(port))
                    .start()
                    .expect("starting the scenario server");
                let client = udp::client(&addrs, steering, nic_faults, cfg)
                    .expect("binding the scenario's client socket");
                (client, handle)
            }
            _ => {
                let (client, server) = loopback_mq_with_faults(
                    spec.threaded.ring_depth,
                    spec.shards,
                    steering,
                    nic_faults,
                );
                let (handle, _) = builder
                    .transport(Transport::Port(server))
                    .start()
                    .expect("starting the scenario server");
                (client, handle)
            }
        };

        let mut pool = BufferPool::new(spec.threaded.pool_buffers, spec.threaded.buf_size);
        let report = run_scheduled(
            &mut client,
            &mut pool,
            num_types,
            &schedule,
            Duration::from_millis(spec.threaded.grace_ms),
        );
        let rt = handle.stop();

        let mut overall_slowdown: Vec<f64> = Vec::new();
        let per_type = spec
            .types
            .iter()
            .enumerate()
            .map(|(i, ty)| {
                let mut lat_us: Vec<f64> = report.latencies_ns[i]
                    .iter()
                    .map(|&ns| ns as f64 / 1e3)
                    .collect();
                let mut slow: Vec<f64> = report.latencies_ns[i]
                    .iter()
                    .map(|&ns| ns as f64 / mean_svc_ns[i])
                    .collect();
                overall_slowdown.extend_from_slice(&slow);
                TypeResult {
                    name: ty.name.clone(),
                    count: report.latencies_ns[i].len() as u64,
                    latency_us: pcts_of(&mut lat_us),
                    slowdown: pcts_of(&mut slow),
                }
            })
            .collect();

        runs.push(RunResult {
            backend: "threaded".into(),
            policy: policy.name(),
            rack_policy: None,
            servers: 1,
            offered_load: mean_offered_load(spec),
            achieved_rps: report.received as f64 / scaled_secs,
            sent: report.sent,
            completions: report.received,
            dropped: report.dropped,
            rejected: report.rejected,
            timed_out: report.timed_out,
            expired: rt.dispatcher.expired,
            shed_at_shutdown: rt.dispatcher.shed_at_shutdown,
            quarantines: rt.dispatcher.quarantines,
            overall_slowdown: pcts_of(&mut overall_slowdown),
            per_type,
            telemetry: Some(TelemetrySummary::from_snapshot(&rt.dispatcher.telemetry)),
        });
    }
    runs
}

/// Runs the rack tier live: for each steering policy, `rack.servers`
/// full servers (each with `workers_per_server` workers) in one process
/// behind [`run_rack_scheduled`], replaying `trace`. The 1-server
/// baseline passes all the rack's workers as one pooled server, holding
/// total capacity constant. Fault injection stays a single-server
/// concern and is not applied to rack members.
pub fn run_rack(
    spec: &ScenarioSpec,
    rack: &RackSpec,
    workers_per_server: usize,
    trace: &[Arrival],
) -> Vec<RunResult> {
    let num_types = spec.types.len();
    let (schedule, mean_svc_ns) = scaled_schedule(spec, trace);
    let cal = SpinCalibration::calibrate();
    let max_spin = Nanos::from_micros_f64(spec.threaded.max_service_ms * 1_000.0);
    let scaled_secs = spec.total_duration().as_secs_f64() * spec.threaded.time_scale;
    let hints = spec.hints();
    let intra = &spec.policies[0];

    let mut runs = Vec::with_capacity(rack.policies.len());
    for name in &rack.policies {
        let mut members = Vec::with_capacity(rack.servers);
        let mut handles = Vec::with_capacity(rack.servers);
        for _ in 0..rack.servers {
            let steering = match spec.threaded.steering.as_str() {
                "by_type" => Steering::ByType((0..num_types).map(|t| t % spec.shards).collect()),
                _ => Steering::Rss,
            };
            let mut builder = ServerBuilder::new(workers_per_server, num_types)
                .shards(spec.shards)
                .policy(intra.clone())
                .hints(hints.clone())
                .tune_engine(|e| {
                    e.profiler.min_samples = spec.engine.darc_min_samples;
                    e.queue_capacity = spec.engine.queue_capacity;
                })
                .classifier_factory(move |_shard| {
                    Box::new(HeaderClassifier::new(wire::TYPE_OFFSET, num_types as u32))
                })
                .handler_factory({
                    let sleepy = spec.threaded.handler == "sleep";
                    move |_worker| make_handler(sleepy, cal, max_spin)
                });
            if let Some(park) = idle_backoff(spec) {
                builder = builder.idle_backoff(park);
            }
            let (client, handle) = match spec.threaded.transport.as_str() {
                "udp" => {
                    let cfg = UdpConfig {
                        buf_size: spec.threaded.buf_size,
                        pool_buffers: spec.threaded.pool_buffers,
                    };
                    let port = udp::server(
                        std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
                        spec.shards,
                        cfg,
                    )
                    .expect("binding a rack member's shard sockets");
                    let addrs = port
                        .local_addrs()
                        .expect("a UDP server port always knows its socket addresses");
                    let (handle, _) = builder
                        .transport(Transport::Port(port))
                        .start()
                        .expect("starting a rack member");
                    let client = udp::client(&addrs, steering, NicFaultPlan::default(), cfg)
                        .expect("binding a rack member's client socket");
                    (client, handle)
                }
                _ => {
                    let (client, server) = loopback_mq_with_faults(
                        spec.threaded.ring_depth,
                        spec.shards,
                        steering,
                        NicFaultPlan::default(),
                    );
                    let (handle, _) = builder
                        .transport(Transport::Port(server))
                        .start()
                        .expect("starting a rack member");
                    (client, handle)
                }
            };
            members.push(RackMember {
                client,
                telemetries: handle.telemetries().to_vec(),
            });
            handles.push(handle);
        }

        let mut policy = build_rack_policy(name, spec.seed).expect("validated at parse time");
        let mut pool = BufferPool::new(spec.threaded.pool_buffers, spec.threaded.buf_size);
        let report = run_rack_scheduled(
            &mut members,
            policy.as_mut(),
            &mut pool,
            num_types,
            workers_per_server,
            &hints,
            &schedule,
            Duration::from_millis(spec.threaded.grace_ms),
            idle_backoff(spec),
        );
        let rack_report = RackReport {
            servers: handles.into_iter().map(|h| h.stop()).collect(),
        };
        let merged = rack_report.merged();

        let mut overall_slowdown: Vec<f64> = Vec::new();
        let per_type = spec
            .types
            .iter()
            .enumerate()
            .map(|(i, ty)| {
                let mut lat_us: Vec<f64> = report.latencies_ns[i]
                    .iter()
                    .map(|&ns| ns as f64 / 1e3)
                    .collect();
                let mut slow: Vec<f64> = report.latencies_ns[i]
                    .iter()
                    .map(|&ns| ns as f64 / mean_svc_ns[i])
                    .collect();
                overall_slowdown.extend_from_slice(&slow);
                TypeResult {
                    name: ty.name.clone(),
                    count: report.latencies_ns[i].len() as u64,
                    latency_us: pcts_of(&mut lat_us),
                    slowdown: pcts_of(&mut slow),
                }
            })
            .collect();

        runs.push(RunResult {
            backend: "threaded".into(),
            policy: intra.name(),
            rack_policy: Some(name.clone()),
            servers: rack.servers as u64,
            offered_load: mean_offered_load(spec),
            achieved_rps: report.received as f64 / scaled_secs,
            sent: report.sent,
            completions: report.received,
            dropped: report.dropped,
            rejected: report.rejected,
            timed_out: report.timed_out,
            expired: merged.expired,
            shed_at_shutdown: merged.shed_at_shutdown,
            quarantines: merged.quarantines,
            overall_slowdown: pcts_of(&mut overall_slowdown),
            per_type,
            telemetry: Some(TelemetrySummary::from_snapshot(&merged.telemetry)),
        });
    }
    runs
}
