//! In-memory spans around the layer calls of the stepped pipeline.
//!
//! A clock read costs about as much as a stage spends on one request, so
//! reading the clock around every stage of every dispatch round would
//! time the tracer, not the program. Each traced batch therefore times
//! *one* stage — batch `b` samples stage `b mod 13`, the thirteenth being an
//! empty span that prices the tracer itself — and a stage's cost
//! per request is its sampled time over the requests of the batches that
//! sampled it. Both reads of a span are amortised over the 8 to 64
//! requests the stage handles between them.

use std::fmt::Write as _;
use std::time::Instant;

/// Stage names, in pipeline order; also the per-layer metric names.
pub const STAGES: [&str; 12] = [
    "net.encode_tx_ns",
    "net.server_rx_ns",
    "net.decode_ns",
    "core.classify_ns",
    "core.enqueue_ns",
    "core.poll_ns",
    "net.work_ring_ns",
    "runtime.handler_ns",
    "net.server_tx_ns",
    "net.completion_ring_ns",
    "core.complete_ns",
    "net.client_rx_ns",
];

pub const ENCODE_TX: usize = 0;
pub const SERVER_RX: usize = 1;
pub const DECODE: usize = 2;
pub const CLASSIFY: usize = 3;
pub const ENQUEUE: usize = 4;
pub const POLL: usize = 5;
pub const WORK_RING: usize = 6;
pub const HANDLER: usize = 7;
pub const SERVER_TX: usize = 8;
pub const COMPLETION_RING: usize = 9;
pub const COMPLETE: usize = 10;
pub const CLIENT_RX: usize = 11;
/// Not a stage: an empty span taken once per dispatch round, in place, so
/// that what a span costs is measured under the conditions the stage
/// spans run in (a tight calibration loop reads the clock far cheaper).
pub const NULL: usize = 12;
const SLOTS: usize = STAGES.len() + 1;

/// Spans kept for the trace file; totals cover every batch regardless.
const SPAN_CAP: usize = 20_000;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the log, `None` for a batch.
    pub parent: Option<u32>,
    pub batch: u64,
}

pub struct Tracer {
    /// Run every group one pass per stage, sampled or not.
    split: bool,
    on: bool,
    base: Instant,
    /// The stage this batch times; the others pass through untimed.
    sampled: usize,
    entered_ns: u64,
    batch: u64,
    batch_span: Option<u32>,
    /// Per stage: sampled nanoseconds, spans taken, requests covered.
    pub total_ns: [u64; SLOTS],
    pub spans_taken: [u64; SLOTS],
    pub requests: [u64; SLOTS],
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// A tracer that samples nothing: untraced runs go through the same
    /// code with every span skipped.
    pub fn off() -> Self {
        Tracer {
            split: false,
            on: false,
            base: Instant::now(),
            sampled: usize::MAX,
            entered_ns: 0,
            batch: 0,
            batch_span: None,
            total_ns: [0; SLOTS],
            spans_taken: [0; SLOTS],
            requests: [0; SLOTS],
            spans: Vec::new(),
        }
    }

    /// No spans either, but every group runs one pass per stage, the way
    /// a traced batch runs the group it samples: what that form costs
    /// over the fused one is a term of the ledger, not of the program.
    pub fn off_split() -> Self {
        Tracer {
            split: true,
            ..Tracer::off()
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Whether this batch times one of `stages`.
    #[inline]
    pub fn samples(&self, stages: std::ops::RangeInclusive<usize>) -> bool {
        self.split || stages.contains(&self.sampled)
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens the span of a batch of `requests` and picks its stage.
    pub fn begin_batch(&mut self, batch: u64, requests: usize) {
        if !self.on {
            return;
        }
        self.sampled = (batch % SLOTS as u64) as usize;
        self.requests[self.sampled] += requests as u64;
        self.batch = batch;
        self.batch_span = None;
        if self.spans.len() < SPAN_CAP {
            let now = self.now_ns();
            self.batch_span = Some(self.spans.len() as u32);
            self.spans.push(Span {
                name: "batch",
                start_ns: now,
                end_ns: now,
                parent: None,
                batch,
            });
        }
    }

    pub fn end_batch(&mut self) {
        if let Some(span) = self.batch_span {
            self.spans[span as usize].end_ns = self.now_ns();
        }
    }

    #[inline]
    pub fn enter(&mut self, stage: usize) {
        if stage == self.sampled {
            self.entered_ns = self.now_ns();
        }
    }

    #[inline]
    pub fn exit(&mut self, stage: usize) {
        if stage != self.sampled {
            return;
        }
        let now = self.now_ns();
        self.total_ns[stage] += now - self.entered_ns;
        self.spans_taken[stage] += 1;
        if let Some(parent) = self.batch_span {
            if self.spans.len() < SPAN_CAP && stage != NULL {
                self.spans.push(Span {
                    name: STAGES[stage],
                    start_ns: self.entered_ns,
                    end_ns: now,
                    parent: Some(parent),
                    batch: self.batch,
                });
            }
        }
    }

    /// Nanoseconds an empty span reads in place: the tracer's own share
    /// of every span, to be subtracted from the stage totals.
    pub fn span_ns(&self) -> f64 {
        self.total_ns[NULL] as f64 / self.spans_taken[NULL].max(1) as f64
    }

    /// Writes the kept spans and each name's self time (a span minus the
    /// part its children cover) as JSON.
    pub fn write_json(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&'static str> = vec!["batch"];
        names.extend(STAGES);
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"self_ns\": {{");
        for (i, name) in names.iter().enumerate() {
            let self_ns: u64 = self
                .spans
                .iter()
                .zip(&child_ns)
                .filter(|(s, _)| s.name == *name)
                .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
                .sum();
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {self_ns}");
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"batch\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.batch
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
