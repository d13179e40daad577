//! Application request handlers.
//!
//! A [`RequestHandler`] is the application code an application worker runs
//! for each dispatched request (paper §4.3.4): it reads the request
//! payload, performs the work, and formats the response payload *in
//! place* into the same packet buffer (zero-copy reuse, §4.3.1).
//!
//! Provided handlers:
//!
//! * [`SpinHandler`] — calibrated synthetic service times (the paper's
//!   bimodal workloads).
//! * [`PayloadSpinHandler`] / [`PayloadSleepHandler`] — spin or sleep
//!   for the service time the request payload carries (scenario and
//!   profiled-trace replays).

use persephone_core::time::Nanos;
use persephone_core::types::TypeId;

use crate::spin::SpinCalibration;

/// Application logic executed on worker cores.
pub trait RequestHandler: Send {
    /// Handles one request.
    ///
    /// `payload` is the request payload region of the packet buffer
    /// (everything after the wire header); on entry its first
    /// `request_len` bytes hold the request body. The handler writes the
    /// response body into the same region and returns its length (which
    /// must not exceed `payload.len()`).
    fn handle(&mut self, ty: TypeId, payload: &mut [u8], request_len: usize) -> usize;
}

/// Synthetic handler: burns a per-type calibrated amount of CPU.
pub struct SpinHandler {
    cal: SpinCalibration,
    service_ns: Vec<u64>,
}

impl SpinHandler {
    /// Creates a spinner with one service time per type; UNKNOWN and
    /// out-of-range types use the first entry.
    ///
    /// # Panics
    ///
    /// Panics if `service` is empty.
    pub fn new(cal: SpinCalibration, service: &[Nanos]) -> Self {
        assert!(!service.is_empty());
        SpinHandler {
            cal,
            service_ns: service.iter().map(|n| n.as_nanos()).collect(),
        }
    }
}

impl RequestHandler for SpinHandler {
    fn handle(&mut self, ty: TypeId, _payload: &mut [u8], _request_len: usize) -> usize {
        let idx = if ty.is_unknown() || ty.index() >= self.service_ns.len() {
            0
        } else {
            ty.index()
        };
        self.cal.spin_for_ns(self.service_ns[idx]);
        0
    }
}

/// Synthetic handler for scenario replays: burns the per-request service
/// time carried in the request payload's first 8 bytes (little-endian
/// nanoseconds), so arbitrary service-time distributions execute exactly
/// as the load generator sampled them (see
/// [`crate::loadgen::run_scheduled`]).
pub struct PayloadSpinHandler {
    cal: SpinCalibration,
    /// Safety clamp on a single request's demand, so a corrupt payload
    /// cannot wedge a worker for minutes.
    max_ns: u64,
}

impl PayloadSpinHandler {
    /// Creates a payload-driven spinner; single-request demand is clamped
    /// to `max` (pick comfortably above the workload's slowest type).
    pub fn new(cal: SpinCalibration, max: Nanos) -> Self {
        PayloadSpinHandler {
            cal,
            max_ns: max.as_nanos(),
        }
    }
}

impl RequestHandler for PayloadSpinHandler {
    fn handle(&mut self, _ty: TypeId, payload: &mut [u8], request_len: usize) -> usize {
        let ns = if request_len >= 8 {
            u64::from_le_bytes(payload[..8].try_into().expect("sliced to 8 bytes"))
        } else {
            0
        };
        self.cal.spin_for_ns(ns.min(self.max_ns));
        0
    }
}

/// Like [`PayloadSpinHandler`] but the worker *sleeps* for the requested
/// service time instead of burning CPU. Occupancy (a busy worker) is
/// modeled identically, but the core is free while the request "runs" —
/// which is what makes many-server rack scenarios runnable in one
/// process on a small machine, where K servers' worth of spinning would
/// oversubscribe every core and drown the scheduling signal in
/// contention. Accurate only for service times well above the OS sleep
/// granularity (hundreds of microseconds and up).
pub struct PayloadSleepHandler {
    /// Safety clamp on a single request's demand (see
    /// [`PayloadSpinHandler`]).
    max_ns: u64,
}

impl PayloadSleepHandler {
    /// Creates a payload-driven sleeper; single-request demand is clamped
    /// to `max`.
    pub fn new(max: Nanos) -> Self {
        PayloadSleepHandler {
            max_ns: max.as_nanos(),
        }
    }
}

impl RequestHandler for PayloadSleepHandler {
    fn handle(&mut self, _ty: TypeId, payload: &mut [u8], request_len: usize) -> usize {
        let ns = if request_len >= 8 {
            u64::from_le_bytes(payload[..8].try_into().expect("sliced to 8 bytes"))
        } else {
            0
        };
        let ns = ns.min(self.max_ns);
        if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spin_handler_burns_roughly_the_requested_time() {
        let cal = SpinCalibration::calibrate();
        let mut h = SpinHandler::new(cal, &[Nanos::from_micros(200)]);
        let mut buf = [0u8; 4];
        let start = std::time::Instant::now();
        h.handle(TypeId::new(0), &mut buf, 0);
        let took = start.elapsed().as_micros();
        assert!(took >= 50, "200 µs spin finished in {took} µs");
    }

    #[test]
    fn sleep_handler_sleeps_roughly_the_requested_time_and_clamps() {
        let mut h = PayloadSleepHandler::new(Nanos::from_micros(500));
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&2_000_000u64.to_le_bytes()); // asks for 2 ms
        let start = std::time::Instant::now();
        h.handle(TypeId::new(0), &mut buf, 8);
        let took = start.elapsed();
        assert!(took >= Duration::from_micros(400), "slept at least ~500 µs");
        assert!(took < Duration::from_millis(50), "clamped well below 2 ms");
        // A short payload means zero demand: no sleep at all.
        let start = std::time::Instant::now();
        h.handle(TypeId::new(0), &mut buf, 4);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn spin_handler_falls_back_for_unknown_types() {
        let mut h = SpinHandler::new(SpinCalibration::fixed(0.0), &[Nanos::ZERO]);
        let mut buf = [0u8; 4];
        assert_eq!(h.handle(TypeId::UNKNOWN, &mut buf, 0), 0);
        assert_eq!(h.handle(TypeId::new(9), &mut buf, 0), 0);
    }
}
