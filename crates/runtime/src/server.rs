//! Server assembly: spawns the dispatch plane and worker threads and
//! wires the rings between them (paper Figure 2).
//!
//! The dispatch plane is **sharded**: [`ServerBuilder::shards`] splits the
//! server into `K` independent dispatchers, each owning a disjoint slice
//! of the workers and its own scheduling engine, fed by one RX queue of a
//! multi-queue [`ServerPort`] (see `persephone_net::nic::Steering` for
//! how clients spread requests across queues). `K = 1` reproduces the
//! paper's single-dispatcher deployment exactly.
//!
//! Which engine the shards run is picked by [`ServerBuilder::policy`]
//! (default [`Policy::Darc`]). Every live policy of the paper's Table 5 —
//! d-FCFS, c-FCFS, FP, SJF, DARC-static, DARC — maps onto a concrete
//! [`ScheduleEngine`] type, and each policy monomorphizes its own copy of
//! the dispatcher loop, so no per-packet dynamic dispatch is introduced.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use persephone_core::classifier::Classifier;
use persephone_core::dispatch::{
    live_engine_config, Cfcfs, Darc, Dfcfs, Engine, EngineConfig, FixedPriority, ScheduleEngine,
    Select, Sjf,
};
use persephone_core::policy::Policy;
use persephone_core::time::Nanos;
use persephone_net::nic::{self, ClientPort, ServerPort, Steering};
use persephone_net::spsc;
use persephone_net::udp::{self, UdpConfig};
use persephone_telemetry::{Telemetry, TelemetryConfig};

use crate::clock::RuntimeClock;
use crate::dispatcher::{run_dispatcher, DispatcherReport, Pending};
use crate::fault::FaultPlan;
use crate::handler::RequestHandler;
use crate::messages::{Completion, WorkMsg};
use crate::worker::{run_worker, WorkerReport};

/// Which wire [`ServerBuilder::start`] puts the server on.
///
/// The transport only decides how packets reach the dispatcher shards;
/// scheduling, workers, and telemetry are identical on all of them. With
/// [`Transport::Udp`] the port in the given address is the *base* port:
/// shard `i` binds `base + i` (port 0 binds every shard ephemerally —
/// read the actual sockets back from [`BoundTransport::Udp`]).
pub enum Transport {
    /// In-process loopback rings ([`nic::loopback_mq`] with RSS steering
    /// and paper-default ring depth).
    Loopback,
    /// One nonblocking UDP socket per dispatcher shard, rooted at this
    /// address (see [`udp::server`]).
    Udp(std::net::SocketAddr),
    /// A pre-built [`ServerPort`] whose client half the caller already
    /// holds — custom steering ([`Steering::ByType`]), NIC fault plans,
    /// or a hand-rolled depth all come in through here.
    Port(ServerPort),
}

/// What [`ServerBuilder::start`] bound: the client half of the chosen
/// [`Transport`].
pub enum BoundTransport {
    /// The loopback [`ClientPort`] wired to the server's RX queues.
    Loopback(ClientPort),
    /// The per-shard socket addresses a remote client (e.g.
    /// `loadgen --connect`) should send to, in shard order.
    Udp(Vec<std::net::SocketAddr>),
    /// The server ran on a caller-supplied [`Transport::Port`]; the
    /// caller already owns the matching client half.
    External,
}

impl BoundTransport {
    /// Unwraps the loopback client half.
    ///
    /// # Panics
    ///
    /// Panics if the server was started on another transport.
    pub fn into_loopback(self) -> ClientPort {
        match self {
            BoundTransport::Loopback(client) => client,
            BoundTransport::Udp(_) => panic!("server bound UDP sockets, not a loopback port"),
            BoundTransport::External => {
                panic!("server ran on a caller-supplied port; the client half is yours already")
            }
        }
    }

    /// Unwraps the per-shard UDP socket addresses.
    ///
    /// # Panics
    ///
    /// Panics if the server was started on another transport.
    pub fn into_udp_addrs(self) -> Vec<std::net::SocketAddr> {
        match self {
            BoundTransport::Udp(addrs) => addrs,
            BoundTransport::Loopback(_) => panic!("server bound a loopback port, not UDP sockets"),
            BoundTransport::External => {
                panic!("server ran on a caller-supplied port; the client half is yours already")
            }
        }
    }
}

/// NIC-ring depth [`ServerBuilder::start`] uses for
/// [`Transport::Loopback`] (distinct from the dispatcher↔worker
/// [`ServerBuilder::ring_depth`], which stays a builder knob).
const LOOPBACK_NIC_DEPTH: usize = 256;

/// Where shard classifiers come from.
enum ClassifierSource {
    /// One classifier instance; only valid for a single-shard server.
    Single(Box<dyn Classifier>),
    /// Builds shard `s`'s classifier (each dispatcher thread owns its own).
    Factory(Box<dyn Fn(usize) -> Box<dyn Classifier>>),
}

type HandlerFactory = Box<dyn Fn(usize) -> Box<dyn RequestHandler>>;

/// Typed builder for a Perséphone server.
///
/// Every optional knob has a named method and a paper-default value;
/// sharding (`K > 1` dispatchers) and the wire ([`Transport`]) are both
/// builder knobs, and [`ServerBuilder::start`] is the single entry point
/// for every deployment shape — in-process loopback, real UDP sockets,
/// or a caller-supplied port.
///
/// ```no_run
/// use persephone_core::classifier::HeaderClassifier;
/// use persephone_core::time::Nanos;
/// use persephone_net::wire;
/// use persephone_runtime::handler::SpinHandler;
/// use persephone_runtime::server::ServerBuilder;
/// use persephone_runtime::spin::SpinCalibration;
///
/// let cal = SpinCalibration::calibrate();
/// let (handle, bound) = ServerBuilder::new(4, 2)
///     .classifier(HeaderClassifier::new(wire::TYPE_OFFSET, 2))
///     .handler_factory(move |_| {
///         Box::new(SpinHandler::new(cal, &[Nanos::from_micros(1)]))
///     })
///     .start()
///     .expect("loopback start cannot fail");
/// let _client = bound.into_loopback();
/// let report = handle.stop();
/// # let _ = report;
/// ```
pub struct ServerBuilder {
    workers: usize,
    num_types: usize,
    hints: Vec<Option<Nanos>>,
    engine: EngineConfig,
    policy: Option<Policy>,
    ring_depth: usize,
    faults: FaultPlan,
    shards: usize,
    classifier: Option<ClassifierSource>,
    handler_factory: Option<HandlerFactory>,
    transport: Transport,
    idle_backoff: Option<Duration>,
}

impl ServerBuilder {
    /// A dynamic-DARC server with `workers` worker threads, `num_types`
    /// request types, and paper-default parameters (one dispatcher shard,
    /// no hints, no faults, ring depth 8).
    pub fn new(workers: usize, num_types: usize) -> Self {
        ServerBuilder {
            workers,
            num_types,
            hints: vec![None; num_types],
            engine: EngineConfig::darc(workers),
            policy: None,
            ring_depth: 8,
            faults: FaultPlan::none(),
            shards: 1,
            classifier: None,
            handler_factory: None,
            transport: Transport::Loopback,
            idle_backoff: None,
        }
    }

    /// Selects the wire [`ServerBuilder::start`] binds (default
    /// [`Transport::Loopback`]).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Selects the scheduling policy all dispatcher shards run (default
    /// [`Policy::Darc`]).
    ///
    /// Every live policy is the one [`Engine`] under its own [`Select`]
    /// rule: [`Policy::Darc`] and [`Policy::DarcStatic`] run [`Darc`],
    /// [`Policy::CFcfs`] runs [`Cfcfs`], [`Policy::Sjf`] runs [`Sjf`],
    /// [`Policy::FixedPriority`] runs [`FixedPriority`], and
    /// [`Policy::DFcfs`] runs [`Dfcfs`]. The dispatcher loop is
    /// monomorphized per rule, so policy selection costs nothing per
    /// packet.
    ///
    /// [`ServerBuilder::start`] panics for [`Policy::TimeSharing`]: it
    /// requires preempting a running request, which the
    /// run-to-completion runtime cannot do (`Policy::runs_live` is
    /// `false`; it stays simulator-only).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets per-type service-time hints (one per type; `Some` for all
    /// types skips the c-FCFS warm-up).
    pub fn hints(mut self, hints: Vec<Option<Nanos>>) -> Self {
        self.hints = hints;
        self
    }

    /// Installs a fault plan for chaos runs.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Splits the dispatch plane into `shards` independent dispatchers,
    /// each owning a disjoint worker slice and one RX queue of the
    /// server port. Requires a multi-queue port with exactly this many
    /// queues and a [`ServerBuilder::classifier_factory`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the depth of each dispatcher↔worker ring.
    pub fn ring_depth(mut self, depth: usize) -> Self {
        self.ring_depth = depth;
        self
    }

    /// Parks dispatcher and worker threads for `park` per idle iteration
    /// once they have been unproductive for a short yield-spin phase,
    /// instead of busy-yielding forever (the default).
    ///
    /// Busy-yielding gives the lowest wake-up latency and is right when
    /// the server has cores to spare — which is why it stays the default.
    /// But on a machine with fewer cores than server threads (CI, rack
    /// tests running several servers side by side), a pile of always-
    /// runnable idle threads starves the ones with actual work and the
    /// tail measurements drown in scheduler noise. Parking trades up to
    /// `park` (plus OS wake-up latency) of added response time on an idle
    /// server for a quiet machine; with millisecond-scale service times a
    /// 50–100µs park is invisible in the measurements.
    pub fn idle_backoff(mut self, park: Duration) -> Self {
        self.idle_backoff = Some(park);
        self
    }

    /// Replaces the whole engine configuration.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Tweaks the engine configuration in place (profiler windows, queue
    /// capacities, overload control, reservation tuning, …).
    pub fn tune_engine(mut self, f: impl FnOnce(&mut EngineConfig)) -> Self {
        f(&mut self.engine);
        self
    }

    /// Sets the request classifier (single-shard servers only; sharded
    /// servers need one classifier per dispatcher thread, see
    /// [`ServerBuilder::classifier_factory`]).
    pub fn classifier(mut self, classifier: impl Classifier + 'static) -> Self {
        self.classifier = Some(ClassifierSource::Single(Box::new(classifier)));
        self
    }

    /// Sets a per-shard classifier factory: `f(s)` builds dispatcher
    /// shard `s`'s classifier. Required when `shards > 1`.
    pub fn classifier_factory(
        mut self,
        f: impl Fn(usize) -> Box<dyn Classifier> + 'static,
    ) -> Self {
        self.classifier = Some(ClassifierSource::Factory(Box::new(f)));
        self
    }

    /// Sets the handler factory: `f(g)` builds worker `g`'s application
    /// handler (`g` is the *global* worker index, stable across shard
    /// counts).
    pub fn handler_factory(
        mut self,
        f: impl Fn(usize) -> Box<dyn RequestHandler> + 'static,
    ) -> Self {
        self.handler_factory = Some(Box::new(f));
        self
    }

    /// Spawns the server on an explicit, pre-built `port`.
    ///
    /// Internal rule-selection step of [`ServerBuilder::start`] (which
    /// is the public entry point; `Transport::Port(port)` routes here).
    fn spawn_on(self, port: ServerPort) -> ServerHandle {
        let policy = self.policy.clone().unwrap_or(Policy::Darc);
        match policy {
            Policy::CFcfs => self.spawn_with::<Cfcfs>(port, &policy),
            Policy::Sjf => self.spawn_with::<Sjf>(port, &policy),
            Policy::FixedPriority => self.spawn_with::<FixedPriority>(port, &policy),
            Policy::DFcfs => self.spawn_with::<Dfcfs>(port, &policy),
            // Both DARC variants run the DARC rule. `live_engine_config`
            // gives DarcStatic its reservation and rejects TimeSharing
            // when the first shard's engine is built, before any thread
            // is spawned.
            Policy::Darc | Policy::DarcStatic { .. } | Policy::TimeSharing(_) => {
                self.spawn_with::<Darc>(port, &policy)
            }
        }
    }

    /// Binds the configured [`Transport`] and spawns the server on it,
    /// returning the handle plus the client half of the wire: a loopback
    /// [`ClientPort`], the per-shard socket addresses a remote load
    /// generator should target, or [`BoundTransport::External`] when the
    /// caller supplied the port (and therefore already holds its client
    /// half).
    ///
    /// This is the single construction path — single-server and rack
    /// deployments, in-process and real-socket wires all come through
    /// here; switching an in-process experiment to real sockets is one
    /// [`ServerBuilder::transport`] call, zero dispatcher changes.
    ///
    /// # Errors
    ///
    /// Returns the bind error if a UDP shard socket cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if no classifier or handler factory was set, if
    /// `workers == 0`, `shards == 0`, `workers < shards`, the hint arity
    /// mismatches `num_types`, the port's queue count differs from the
    /// shard count, or `shards > 1` with a single (non-factory)
    /// classifier. Also panics for [`Policy::TimeSharing`] (preemptive,
    /// simulator-only) and for [`Policy::DarcStatic`] without any
    /// service-time hint (the shortest type is undefined).
    pub fn start(mut self) -> std::io::Result<(ServerHandle, BoundTransport)> {
        match std::mem::replace(&mut self.transport, Transport::Loopback) {
            Transport::Loopback => {
                let (client, server) =
                    nic::loopback_mq(LOOPBACK_NIC_DEPTH, self.shards, Steering::Rss);
                Ok((self.spawn_on(server), BoundTransport::Loopback(client)))
            }
            Transport::Udp(addr) => {
                let port = udp::server(addr, self.shards, UdpConfig::default())?;
                let addrs = port
                    .local_addrs()
                    .expect("a UDP server port always knows its socket addresses");
                Ok((self.spawn_on(port), BoundTransport::Udp(addrs)))
            }
            Transport::Port(port) => Ok((self.spawn_on(port), BoundTransport::External)),
        }
    }

    /// Spawns the server with every shard running `policy` under the
    /// selection rule `S`. Generic over the rule so every policy's
    /// dispatcher loop monomorphizes.
    fn spawn_with<S: Select + 'static>(self, port: ServerPort, policy: &Policy) -> ServerHandle {
        assert!(self.workers > 0, "server needs at least one worker");
        assert!(self.shards > 0, "server needs at least one shard");
        assert!(
            self.workers >= self.shards,
            "need at least one worker per shard ({} workers, {} shards)",
            self.workers,
            self.shards
        );
        assert_eq!(
            self.hints.len(),
            self.num_types,
            "hint arity mismatches num_types"
        );
        assert_eq!(
            port.num_queues(),
            self.shards,
            "port has {} RX queues but the server has {} shards; build the \
             port with nic::loopback_mq(depth, shards, steering)",
            port.num_queues(),
            self.shards
        );
        let classifier = self.classifier.expect("ServerBuilder: classifier not set");
        if self.shards > 1 && matches!(classifier, ClassifierSource::Single(_)) {
            panic!(
                "a sharded server needs one classifier per dispatcher; use \
                 .classifier_factory(|shard| ...) instead of .classifier(...)"
            );
        }
        let handler_factory = self
            .handler_factory
            .expect("ServerBuilder: handler_factory not set");

        let clock = RuntimeClock::start();
        let shutdown = Arc::new(AtomicBool::new(false));
        let shard_ports = port.split();

        // Contiguous worker partition: shard s owns global workers
        // [offset, offset + n_s), with the remainder spread over the
        // first shards so counts differ by at most one.
        let base = self.workers / self.shards;
        let rem = self.workers % self.shards;
        let mut offset = 0usize;

        let (mut single, factory) = match classifier {
            ClassifierSource::Single(c) => (Some(c), None),
            ClassifierSource::Factory(f) => (None, Some(f)),
        };

        let mut shards = Vec::with_capacity(self.shards);
        let mut telemetries = Vec::with_capacity(self.shards);
        for (s, shard_port) in shard_ports.into_iter().enumerate() {
            let n_s = base + usize::from(s < rem);
            let mut engine_cfg = self.engine.clone();
            engine_cfg.num_workers = n_s;
            let engine_cfg = live_engine_config(policy, engine_cfg, self.num_types, &self.hints);
            let mut engine: Engine<Pending, S> =
                Engine::new(engine_cfg, self.num_types, &self.hints);
            let telemetry = Arc::new(Telemetry::new(TelemetryConfig::new(self.num_types, n_s)));
            engine.set_telemetry(telemetry.clone());
            telemetries.push(telemetry.clone());

            let mut work_tx = Vec::with_capacity(n_s);
            let mut completion_rx = Vec::with_capacity(n_s);
            let mut workers = Vec::with_capacity(n_s);
            for local in 0..n_s {
                let g = offset + local;
                let (wtx, wrx) = spsc::channel::<WorkMsg>(self.ring_depth);
                let (ctx_tx, crx) = spsc::channel::<Completion>(self.ring_depth);
                work_tx.push(wtx);
                completion_rx.push(crx);
                let nic_ctx = shard_port.context();
                let handler = handler_factory(g);
                let tel = Some((local, telemetry.clone()));
                let fault = self.faults.for_worker(g);
                let backoff = self.idle_backoff;
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("psp-worker-{g}"))
                        .spawn(move || {
                            run_worker(wrx, ctx_tx, nic_ctx, handler, tel, fault, backoff)
                        })
                        .expect("spawn worker"),
                );
            }
            offset += n_s;

            let shard_classifier = match &factory {
                Some(f) => f(s),
                None => single.take().expect("single classifier consumed twice"),
            };
            let dispatcher_ctx = shard_port.context();
            let flag = shutdown.clone();
            let backoff = self.idle_backoff;
            let dispatcher = std::thread::Builder::new()
                .name(format!("psp-dispatcher-{s}"))
                .spawn(move || {
                    run_dispatcher(
                        shard_port,
                        dispatcher_ctx,
                        shard_classifier,
                        engine,
                        work_tx,
                        completion_rx,
                        flag,
                        clock,
                        backoff,
                    )
                })
                .expect("spawn dispatcher");
            shards.push(ShardThreads {
                dispatcher,
                workers,
            });
        }

        ServerHandle {
            shutdown,
            shards,
            telemetries,
        }
    }
}

/// One shard's threads, joined together on shutdown.
struct ShardThreads {
    dispatcher: JoinHandle<DispatcherReport>,
    workers: Vec<JoinHandle<WorkerReport>>,
}

/// A running server; `stop` for an orderly drain and join.
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    shards: Vec<ShardThreads>,
    telemetries: Vec<Arc<Telemetry>>,
}

/// Aggregated reports after shutdown.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Server-wide dispatcher view: per-shard reports folded through
    /// [`DispatcherReport::merged`].
    pub dispatcher: DispatcherReport,
    /// Per-shard dispatcher reports, in shard order (one entry for an
    /// unsharded server).
    pub shards: Vec<DispatcherReport>,
    /// Per-worker reports, in global worker order.
    pub workers: Vec<WorkerReport>,
}

impl RuntimeReport {
    /// Total requests handled across workers.
    pub fn handled(&self) -> u64 {
        self.workers.iter().map(|w| w.handled).sum()
    }
}

impl ServerHandle {
    /// Per-shard telemetry registries, in shard order — a *live* view of
    /// the running server (queue depths, per-type counters, sojourns),
    /// safe to snapshot at any time. A rack steering plane polls these to
    /// feed load estimates (e.g. shortest-expected-delay) without
    /// touching the dispatcher hot path.
    pub fn telemetries(&self) -> &[Arc<Telemetry>] {
        &self.telemetries
    }

    /// Requests an orderly shutdown, waits for the pipeline to drain, and
    /// returns the aggregated reports.
    pub fn stop(self) -> RuntimeReport {
        self.shutdown.store(true, Ordering::Release);
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut workers = Vec::new();
        for shard in self.shards {
            shards.push(shard.dispatcher.join().expect("dispatcher panicked"));
            for w in shard.workers {
                workers.push(w.join().expect("worker panicked"));
            }
        }
        RuntimeReport {
            dispatcher: DispatcherReport::merged(&shards),
            shards,
            workers,
        }
    }
}
