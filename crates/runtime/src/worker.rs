//! Application worker loop (paper §4.3.4).
//!
//! Each worker spins on its downstream SPSC ring. For every request it:
//! dereferences the buffer, runs the application handler (which formats
//! the response payload in place), rewrites the wire header into a
//! response, transmits on its own NIC context, and signals completion to
//! the dispatcher with the measured service time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use persephone_core::time::Nanos;
use persephone_net::nic::NetContext;
use persephone_net::spsc;
use persephone_net::wire;
use persephone_telemetry::Telemetry;

use crate::fault::StallFault;
use crate::handler::RequestHandler;
use crate::messages::{Completion, WorkMsg};

/// Retry budget for a worker's response transmission. With the
/// spin/yield/sleep backoff ladder in
/// [`persephone_net::nic::NetContext::send_with_retry`], exhausting the
/// budget against a dead client takes tens of milliseconds of mostly
/// idle time — bounded, and off the core the moment the spin tier ends.
const TX_RETRY_ATTEMPTS: usize = 2_048;

/// Consecutive unproductive loop iterations before an `idle_backoff`
/// thread parks instead of yielding. The yield-spin phase keeps the
/// common case (work arrives within microseconds) park-free; only a
/// genuinely idle thread pays the wake-up latency.
pub(crate) const IDLE_SPINS_BEFORE_PARK: u32 = 64;

/// Final report returned when a worker terminates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Requests handled.
    pub handled: u64,
    /// Total busy time across all requests.
    pub busy: Nanos,
    /// Responses abandoned after the bounded TX retry gave up.
    pub tx_give_ups: u64,
    /// Requests whose buffer could not hold a wire header — dropped
    /// without running the handler (see the guard in the loop).
    pub rx_malformed: u64,
    /// Injected stalls that fired (chaos runs only).
    pub stalls_injected: u64,
}

/// Runs the worker loop until a [`WorkMsg::Shutdown`] arrives.
///
/// `telemetry` carries this worker's index plus the shared recorder; when
/// present the worker accounts its measured busy time there (one relaxed
/// atomic add per request — never on the handler's critical path).
///
/// Idle iterations yield to the OS scheduler so oversubscribed test
/// environments (more threads than cores) stay live. When `idle_backoff`
/// is set, a worker that stays idle past a short yield-spin phase parks
/// for that long per iteration instead — see
/// [`crate::ServerBuilder::idle_backoff`] for the trade-off.
///
/// `fault` optionally injects a one-shot [`StallFault`]: once the worker
/// has handled `after_requests` requests, it blocks for the configured
/// duration *before* the timed handler section of its next request. The
/// stall is invisible to service-time profiling (the handler itself is
/// still fast) but very visible to the dispatcher's wall-clock health
/// check — exactly the failure mode quarantine exists for.
pub fn run_worker(
    mut work_rx: spsc::Consumer<WorkMsg>,
    mut completion_tx: spsc::Producer<Completion>,
    nic: NetContext,
    mut handler: Box<dyn RequestHandler>,
    telemetry: Option<(usize, Arc<Telemetry>)>,
    mut fault: Option<StallFault>,
    idle_backoff: Option<Duration>,
) -> WorkerReport {
    let mut report = WorkerReport::default();
    let mut idle_spins: u32 = 0;
    loop {
        let msg = match work_rx.pop() {
            Some(m) => m,
            None => {
                idle_spins = idle_spins.saturating_add(1);
                match idle_backoff {
                    // audit:allow(A3): the opt-in idle-backoff ladder —
                    // parks only after sustained unproductive spins
                    Some(park) if idle_spins > IDLE_SPINS_BEFORE_PARK => std::thread::sleep(park),
                    _ => std::thread::yield_now(),
                }
                continue;
            }
        };
        idle_spins = 0;
        match msg {
            WorkMsg::Shutdown => return report,
            WorkMsg::Request { mut buf, ty, id: _ } => {
                if let Some(f) = fault {
                    if report.handled >= f.after_requests {
                        fault = None;
                        report.stalls_injected += 1;
                        // audit:allow(A3): deliberate fault injection — the
                        // stall IS the failure mode under test
                        std::thread::sleep(f.stall);
                    }
                }
                // A buffer too short for a wire header cannot carry a
                // payload or be rewritten into a response. The dispatcher
                // validates ingress, but a real-socket path can hand over
                // kernel-truncated datagrams — slicing `raw[HEADER_LEN..]`
                // below would then panic the worker. Drop it, count it,
                // and still signal completion so the engine frees the
                // core.
                if buf.len() < wire::HEADER_LEN || buf.capacity() < wire::HEADER_LEN {
                    report.rx_malformed += 1;
                    if let Some((_, tel)) = &telemetry {
                        tel.record_rx_malformed();
                    }
                    drop(buf);
                    let mut c = Completion {
                        service: Nanos::ZERO,
                    };
                    while let Err(back) = completion_tx.push(c) {
                        c = back.0;
                        std::thread::yield_now();
                    }
                    continue;
                }
                let started = Instant::now();
                // The handler sees only the payload region; the header is
                // rewritten in place below (zero-copy response, §4.3.1).
                let total_len = buf.len();
                let payload_len = total_len.saturating_sub(wire::HEADER_LEN);
                let resp_payload_len = {
                    let raw = buf.raw_mut();
                    // audit:allow(A1): capacity >= HEADER_LEN, checked by the
                    // malformed-datagram guard above
                    let payload = &mut raw[wire::HEADER_LEN..];
                    handler.handle(ty, payload, payload_len)
                };
                let service = Nanos::from_nanos(started.elapsed().as_nanos() as u64);
                report.handled += 1;
                report.busy = report.busy.saturating_add(service);
                if let Some((idx, tel)) = &telemetry {
                    tel.record_worker_busy(*idx, service.as_nanos());
                }

                buf.set_len(wire::HEADER_LEN + resp_payload_len);
                let status = wire::Status::Ok;
                if wire::request_to_response_in_place(
                    // audit:allow(A1): capacity >= HEADER_LEN, checked by
                    // the malformed-datagram guard above
                    &mut buf.raw_mut()[..wire::HEADER_LEN],
                    status,
                )
                .is_ok()
                {
                    // Retry on a briefly full TX queue; if the client has
                    // vanished (queue stays full), drop the response after
                    // a bounded number of attempts instead of wedging the
                    // pipeline — and account the give-up.
                    if nic.send_with_retry(buf, TX_RETRY_ATTEMPTS).is_err() {
                        report.tx_give_ups += 1;
                        if let Some((idx, tel)) = &telemetry {
                            tel.record_tx_give_up(*idx);
                        }
                    }
                }
                // Signal completion; the ring is sized for the worker's
                // in-flight bound, so a full ring is a protocol bug we
                // surface by spinning (visible in tests as a hang).
                let mut c = Completion { service };
                while let Err(back) = completion_tx.push(c) {
                    c = back.0;
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::SpinHandler;
    use crate::spin::SpinCalibration;
    use persephone_core::types::TypeId;
    use persephone_net::nic;
    use persephone_net::pool::PacketBuf;

    fn request_packet(ty: u32, id: u64, payload: &[u8]) -> PacketBuf {
        let mut buf = PacketBuf::with_capacity(256);
        let len = wire::encode_request(buf.raw_mut(), ty, id, payload).unwrap();
        buf.set_len(len);
        buf
    }

    #[test]
    fn worker_serves_and_signals_completion() {
        let (mut work_tx, work_rx) = spsc::channel::<WorkMsg>(8);
        let (completion_tx, mut completion_rx) = spsc::channel::<Completion>(8);
        let (mut client, server) = nic::loopback(8);
        let handler = Box::new(SpinHandler::new(
            SpinCalibration::fixed(0.001),
            &[Nanos::from_micros(1)],
        ));
        let ctx = server.context();
        let tel = Arc::new(Telemetry::new(persephone_telemetry::TelemetryConfig::new(
            1, 2,
        )));
        let tel_worker = Some((1, tel.clone()));
        let t = std::thread::spawn(move || {
            run_worker(work_rx, completion_tx, ctx, handler, tel_worker, None, None)
        });

        work_tx
            .push(WorkMsg::Request {
                buf: request_packet(0, 77, b"hi"),
                ty: TypeId::new(0),
                id: 77,
            })
            .unwrap();
        work_tx.push(WorkMsg::Shutdown).unwrap();
        let report = t.join().unwrap();
        assert_eq!(report.handled, 1);

        // The completion carries a measured service time.
        let c = completion_rx.pop().expect("completion signalled");
        assert!(c.service > Nanos::ZERO);

        // The response reached the NIC with the id echoed.
        let resp = client.recv().expect("response transmitted");
        let (hdr, _) = wire::decode(resp.as_slice()).unwrap();
        assert_eq!(hdr.kind, wire::Kind::Response);
        assert_eq!(hdr.id, 77);
        assert_eq!(wire::response_status(&hdr), Some(wire::Status::Ok));

        // The worker accounted its busy time under its own slot.
        let snap = tel.snapshot();
        assert_eq!(snap.workers[0].busy_ns, 0);
        assert!(snap.workers[1].busy_ns > 0);
    }

    #[test]
    fn truncated_request_is_counted_not_a_panic() {
        // Regression (wire-path hardening): a buffer shorter than the
        // wire header used to panic the worker thread at the payload
        // slice (`raw[HEADER_LEN..]` past capacity). It must instead be
        // dropped, counted as malformed, and still free the core.
        let (mut work_tx, work_rx) = spsc::channel::<WorkMsg>(8);
        let (completion_tx, mut completion_rx) = spsc::channel::<Completion>(8);
        let (_client, server) = nic::loopback(8);
        let handler = Box::new(SpinHandler::new(
            SpinCalibration::fixed(0.001),
            &[Nanos::from_micros(1)],
        ));
        let ctx = server.context();
        let tel = Arc::new(Telemetry::new(persephone_telemetry::TelemetryConfig::new(
            1, 1,
        )));
        let tel_worker = Some((0, tel.clone()));
        // Capacity 8 < HEADER_LEN: the pre-fix slice panics outright.
        let runt = PacketBuf::with_capacity(8);
        // A full-capacity buffer with a short valid prefix is the
        // kernel-truncated-datagram shape: capacity fits a header, the
        // received bytes do not.
        let mut short = PacketBuf::with_capacity(256);
        short.fill(b"tiny");
        work_tx
            .push(WorkMsg::Request {
                buf: runt,
                ty: TypeId::new(0),
                id: 1,
            })
            .unwrap();
        work_tx
            .push(WorkMsg::Request {
                buf: short,
                ty: TypeId::new(0),
                id: 2,
            })
            .unwrap();
        work_tx.push(WorkMsg::Shutdown).unwrap();
        let report = std::thread::spawn(move || {
            run_worker(work_rx, completion_tx, ctx, handler, tel_worker, None, None)
        })
        .join()
        .expect("malformed buffers must not panic the worker");
        assert_eq!(report.rx_malformed, 2);
        assert_eq!(report.handled, 0, "the handler never ran");
        // Both requests still signalled completion (the engine frees the
        // worker either way).
        let mut completions = 0;
        while completion_rx.pop().is_some() {
            completions += 1;
        }
        assert_eq!(completions, 2);
        assert_eq!(tel.snapshot().rx_malformed, 2);
    }

    #[test]
    fn worker_report_accumulates() {
        let (mut work_tx, work_rx) = spsc::channel::<WorkMsg>(16);
        let (completion_tx, mut completion_rx) = spsc::channel::<Completion>(16);
        let (_client, server) = nic::loopback(16);
        let handler = Box::new(SpinHandler::new(
            SpinCalibration::fixed(0.001),
            &[Nanos::from_micros(1)],
        ));
        let ctx = server.context();
        for i in 0..5 {
            work_tx
                .push(WorkMsg::Request {
                    buf: request_packet(0, i, b""),
                    ty: TypeId::new(0),
                    id: i,
                })
                .unwrap();
        }
        work_tx.push(WorkMsg::Shutdown).unwrap();
        let report = std::thread::spawn(move || {
            run_worker(work_rx, completion_tx, ctx, handler, None, None, None)
        })
        .join()
        .unwrap();
        assert_eq!(report.handled, 5);
        assert!(report.busy > Nanos::ZERO);
        let mut completions = 0;
        while completion_rx.pop().is_some() {
            completions += 1;
        }
        assert_eq!(completions, 5);
    }

    #[test]
    fn worker_stall_fault_fires_once() {
        let (mut work_tx, work_rx) = spsc::channel::<WorkMsg>(16);
        let (completion_tx, mut completion_rx) = spsc::channel::<Completion>(16);
        let (_client, server) = nic::loopback(16);
        let handler = Box::new(SpinHandler::new(
            SpinCalibration::fixed(0.001),
            &[Nanos::from_micros(1)],
        ));
        let ctx = server.context();
        for i in 0..4 {
            work_tx
                .push(WorkMsg::Request {
                    buf: request_packet(0, i, b""),
                    ty: TypeId::new(0),
                    id: i,
                })
                .unwrap();
        }
        work_tx.push(WorkMsg::Shutdown).unwrap();
        let fault = Some(StallFault {
            after_requests: 1,
            stall: std::time::Duration::from_millis(5),
        });
        let report = std::thread::spawn(move || {
            run_worker(work_rx, completion_tx, ctx, handler, None, fault, None)
        })
        .join()
        .unwrap();
        assert_eq!(report.handled, 4, "the stall delays, never drops");
        assert_eq!(report.stalls_injected, 1, "one-shot: fires exactly once");
        assert_eq!(report.tx_give_ups, 0);
        let mut completions = 0;
        while completion_rx.pop().is_some() {
            completions += 1;
        }
        assert_eq!(completions, 4);
    }
}
