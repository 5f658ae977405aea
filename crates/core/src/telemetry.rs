//! End-to-end telemetry: a unified metrics registry plus a structured
//! NDJSON trace-event sink.
//!
//! `sst serve` spans dispatch → keyed lane / shared pool queue → race →
//! session repair → durable journal; until this module the only window
//! into that path was one mutex-guarded latency histogram. This module
//! provides the two halves of a first-class observability layer, both
//! hand-rolled (no crates.io access in this workspace):
//!
//! * **[`MetricsRegistry`]** — named [`Counter`]s, [`Gauge`]s and
//!   log₂-bucketed [`Histogram`]s, created on first use and shared as
//!   `Arc`s so the hot path holds no registry lock: a worker resolves its
//!   handle once and then records through an atomic (counters/gauges) or
//!   a short histogram mutex. [`MetricsRegistry::snapshot`] returns a
//!   consistent, name-sorted image for the `{"metrics": true}` probe;
//!   per-worker histograms aggregate with
//!   [`LatencyHistogram::merge`].
//! * **[`TraceSink`]** — a ring-buffered, non-blocking NDJSON writer of
//!   [`TraceEvent`]s. [`TraceSink::emit`] encodes the event, stamps it
//!   with microseconds since the sink's epoch, and enqueues the line; a
//!   background thread drains the ring to the underlying writer (a file,
//!   stderr, or an in-memory buffer in tests). When the ring is full the
//!   event is **dropped and counted** — serving traffic never blocks on
//!   trace I/O. Closing the sink flushes the ring and appends a final
//!   `sink_close` event carrying the dropped count, so a trace file is
//!   self-describing about its own completeness.
//!
//! Events are span-style: every request-path event carries the request
//! `id`, so `enqueue → dequeue → race_start → solver_* → incumbent →
//! respond` chains reconstruct per-request timelines from the flat file
//! (`sst trace summarize` does exactly that). Naming conventions for the
//! registry live in [`stage`] and the `solver_*` helpers so producers
//! (the service) and consumers (the probe encoder, the summarizer) agree
//! on one schema.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::io::json::Escaped;
use crate::stats::LatencyHistogram;

/// A monotonically increasing counter (events since start).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depth, workers alive).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared log₂-bucketed latency histogram (see [`LatencyHistogram`]);
/// the mutex guards a couple of arithmetic instructions per record.
#[derive(Debug)]
pub struct Histogram(Mutex<LatencyHistogram>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Mutex::named("telemetry.histogram", LatencyHistogram::new()))
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.lock().record(value);
    }

    /// A copy of the current histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.lock().clone()
    }

    /// Folds `other` into this histogram (cross-worker aggregation).
    pub fn merge(&self, other: &LatencyHistogram) {
        self.0.lock().merge(other);
    }
}

/// A consistent, name-sorted image of a [`MetricsRegistry`] — what the
/// `{"metrics": true}` probe and the periodic self-report line render.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Every gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Every histogram, sorted by name.
    pub histograms: Vec<(String, LatencyHistogram)>,
}

impl RegistrySnapshot {
    /// The counter named `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// The histogram named `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| &self.histograms[i].1)
            .ok()
    }
}

/// The unified metrics registry: named instruments, created on first use,
/// shared as `Arc`s. The registry lock is held only for get-or-create and
/// snapshot — never on the recording hot path (resolve the handle once,
/// then record through it).
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: Mutex::named("telemetry.registry.counters", BTreeMap::new()),
            gauges: Mutex::named("telemetry.registry.gauges", BTreeMap::new()),
            histograms: Mutex::named("telemetry.registry.histograms", BTreeMap::new()),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::default());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// A name-sorted image of every instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters =
            self.counters.lock().iter().map(|(n, c)| (n.clone(), c.get())).collect::<Vec<_>>();
        let gauges =
            self.gauges.lock().iter().map(|(n, g)| (n.clone(), g.get())).collect::<Vec<_>>();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect::<Vec<_>>();
        RegistrySnapshot { counters, gauges, histograms }
    }
}

/// Registry names of the built-in per-stage histograms (all in
/// microseconds). One shared vocabulary keeps the recorder (`sst serve`),
/// the probe encoder and `sst trace summarize` in agreement.
pub mod stage {
    /// Dispatch accept → worker dequeue (queue wait).
    pub const QUEUE_WAIT_US: &str = "stage.queue_wait_us";
    /// Race wall time (the solve itself).
    pub const RACE_US: &str = "stage.race_us";
    /// The race's serial prologue inside [`RACE_US`]: feature extraction,
    /// member selection and the pre-published floors (session floor and
    /// greedy baseline), before any member starts.
    pub const FLOOR_US: &str = "stage.floor_us";
    /// Enqueue → response written (total request latency).
    pub const TOTAL_US: &str = "stage.total_us";
    /// Journal record append, including the policy's flush/fsync.
    pub const JOURNAL_APPEND_US: &str = "stage.journal_append_us";
    /// The flush + fsync portion of a journal append alone.
    pub const JOURNAL_FSYNC_US: &str = "stage.journal_fsync_us";
    /// Snapshot file write (encode + write + rename).
    pub const SNAPSHOT_US: &str = "stage.snapshot_us";
    /// Crash-recovery replay at startup.
    pub const RECOVERY_US: &str = "stage.recovery_us";
    /// Budget expiry → solver actually stopped (cancellation latency).
    pub const CANCEL_US: &str = "stage.cancel_us";
    /// Request decode at parse time — JSON line parse or binary frame
    /// decode — so ingest cost is visible per-stage instead of folded
    /// into [`TOTAL_US`].
    pub const DECODE_US: &str = "stage.decode_us";
    /// A lane's wait for its journal record to become durable (enqueue →
    /// its record's batch flushed/synced, by this lane as leader or by
    /// another).
    pub const COMMIT_WAIT_US: &str = "stage.commit_wait_us";
    /// Records per coalesced group-commit batch. Deliberately *not*
    /// `stage.`-prefixed: it counts records, not microseconds, so it must
    /// not render as a latency stage row.
    pub const JOURNAL_BATCH_LEN: &str = "journal_batch_len";
}

/// Registry name of solver `name`'s time-to-first-incumbent histogram
/// (µs from race start to its first improvement of the incumbent).
pub fn solver_first_incumbent(name: &str) -> String {
    format!("solver.{name}.first_incumbent_us")
}

/// Registry name of solver `name`'s incumbent-improvements counter.
pub fn solver_improvements(name: &str) -> String {
    format!("solver.{name}.improvements")
}

/// Registry name of solver `name`'s races-won counter.
pub fn solver_wins(name: &str) -> String {
    format!("solver.{name}.wins")
}

/// One structured trace event. Request-path events carry the request `id`
/// (the span key); session-durability events carry the session `sid`.
/// Encoded as one JSON object per line:
/// `{"ts_us": <µs since sink epoch>, "event": "<kind>", ...fields}`.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Request `id` accepted into the pool/lane queue.
    Enqueue {
        /// Request id.
        id: u64,
    },
    /// Request `id` claimed by worker/lane `worker` after waiting
    /// `queue_wait_us` µs.
    Dequeue {
        /// Request id.
        id: u64,
        /// Claiming worker (pool) or lane (session verbs) index.
        worker: u64,
        /// Dispatch accept → claim, in µs.
        queue_wait_us: u64,
    },
    /// Request `id`'s payload was decoded (JSON line parse or binary
    /// frame decode) in `micros` µs.
    Decode {
        /// Request id.
        id: u64,
        /// `"json"` or `"binary"`.
        codec: String,
        /// Decode wall time, µs.
        micros: u64,
    },
    /// The race for request `id` started with `members` portfolio members.
    RaceStart {
        /// Request id.
        id: u64,
        /// Raced portfolio members (excluding the greedy floor).
        members: u64,
    },
    /// One portfolio member began its attempt.
    SolverStart {
        /// Request id.
        id: u64,
        /// Solver name.
        solver: String,
    },
    /// One portfolio member finished (or was cancelled).
    SolverEnd {
        /// Request id.
        id: u64,
        /// Solver name.
        solver: String,
        /// `"completed"` or `"cancelled"`.
        outcome: String,
        /// Attempt wall time, µs.
        micros: u64,
        /// The makespan it achieved, when it produced a solution.
        makespan: Option<f64>,
    },
    /// The shared incumbent improved.
    Incumbent {
        /// Request id.
        id: u64,
        /// The improving solver.
        solver: String,
        /// µs since race start.
        at_us: u64,
        /// The new best makespan.
        makespan: f64,
    },
    /// A cancelled solver overran its budget by `micros` µs before it
    /// observed the token.
    CancelLatency {
        /// Request id.
        id: u64,
        /// Solver name.
        solver: String,
        /// Budget expiry → solver return, µs.
        micros: u64,
    },
    /// The response line for request `id` was written.
    Respond {
        /// Request id.
        id: u64,
        /// Whether the response was a success (vs. an error line).
        ok: bool,
        /// Enqueue → response written, µs.
        total_us: u64,
    },
    /// A journal record was appended (and flushed per policy).
    JournalAppend {
        /// Session id.
        sid: u64,
        /// Record bytes written.
        bytes: u64,
        /// Append wall time including flush/fsync, µs.
        micros: u64,
        /// Whether the policy synced the file (`--durability fsync`).
        fsync: bool,
    },
    /// A group-commit leader appended one coalesced batch of journal
    /// records (one write + one flush/fsync for the whole batch).
    JournalCommit {
        /// Records in the batch.
        batch: u64,
        /// Coalesced bytes written.
        bytes: u64,
        /// Batch write wall time including flush/fsync, µs.
        micros: u64,
        /// Whether the policy synced the file (`--durability fsync`).
        fsync: bool,
    },
    /// A session snapshot file was written.
    Snapshot {
        /// Session id.
        sid: u64,
        /// Write wall time, µs.
        micros: u64,
    },
    /// An LRU victim was spilled to its snapshot.
    Spill {
        /// Session id.
        sid: u64,
    },
    /// A cold (spilled) session was reloaded on touch.
    ColdReload {
        /// Session id.
        sid: u64,
    },
    /// Crash recovery finished at startup.
    Recovery {
        /// Live sessions rebuilt.
        sessions: u64,
        /// Snapshot files loaded.
        snapshots_loaded: u64,
        /// Journal records replayed.
        replayed: u64,
        /// Bytes of torn/corrupt journal suffix dropped.
        dropped_bytes: u64,
        /// Recovery wall time, µs.
        micros: u64,
    },
    /// The sink closed; `dropped` events were lost to ring overflow (0
    /// means the trace is complete).
    SinkClose {
        /// Events dropped over the sink's lifetime.
        dropped: u64,
    },
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    // Always a JSON number with a decimal point, never an integer literal.
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

impl TraceEvent {
    /// The event's `"event"` discriminator string.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Dequeue { .. } => "dequeue",
            TraceEvent::Decode { .. } => "decode",
            TraceEvent::RaceStart { .. } => "race_start",
            TraceEvent::SolverStart { .. } => "solver_start",
            TraceEvent::SolverEnd { .. } => "solver_end",
            TraceEvent::Incumbent { .. } => "incumbent",
            TraceEvent::CancelLatency { .. } => "cancel",
            TraceEvent::Respond { .. } => "respond",
            TraceEvent::JournalAppend { .. } => "journal_append",
            TraceEvent::JournalCommit { .. } => "journal_commit",
            TraceEvent::Snapshot { .. } => "snapshot",
            TraceEvent::Spill { .. } => "spill",
            TraceEvent::ColdReload { .. } => "cold_reload",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::SinkClose { .. } => "sink_close",
        }
    }

    /// Appends the event's one-line JSON encoding (no trailing newline)
    /// stamped with `ts_us` (µs since the sink's epoch).
    pub fn write_json(&self, ts_us: u64, out: &mut String) {
        let _ = write!(out, "{{\"ts_us\": {ts_us}, \"event\": \"{}\"", self.kind());
        let solver_field = |out: &mut String, solver: &str| {
            let _ = write!(out, ", \"solver\": \"{}\"", Escaped(solver));
        };
        match self {
            TraceEvent::Enqueue { id } => {
                let _ = write!(out, ", \"id\": {id}");
            }
            TraceEvent::Dequeue { id, worker, queue_wait_us } => {
                let _ = write!(
                    out,
                    ", \"id\": {id}, \"worker\": {worker}, \"queue_wait_us\": {queue_wait_us}"
                );
            }
            TraceEvent::Decode { id, codec, micros } => {
                let _ = write!(
                    out,
                    ", \"id\": {id}, \"codec\": \"{}\", \"micros\": {micros}",
                    Escaped(codec)
                );
            }
            TraceEvent::RaceStart { id, members } => {
                let _ = write!(out, ", \"id\": {id}, \"members\": {members}");
            }
            TraceEvent::SolverStart { id, solver } => {
                let _ = write!(out, ", \"id\": {id}");
                solver_field(out, solver);
            }
            TraceEvent::SolverEnd { id, solver, outcome, micros, makespan } => {
                let _ = write!(out, ", \"id\": {id}");
                solver_field(out, solver);
                let _ =
                    write!(out, ", \"outcome\": \"{}\", \"micros\": {micros}", Escaped(outcome));
                if let Some(ms) = makespan {
                    out.push_str(", \"makespan\": ");
                    write_f64(out, *ms);
                }
            }
            TraceEvent::Incumbent { id, solver, at_us, makespan } => {
                let _ = write!(out, ", \"id\": {id}");
                solver_field(out, solver);
                let _ = write!(out, ", \"at_us\": {at_us}, \"makespan\": ");
                write_f64(out, *makespan);
            }
            TraceEvent::CancelLatency { id, solver, micros } => {
                let _ = write!(out, ", \"id\": {id}");
                solver_field(out, solver);
                let _ = write!(out, ", \"micros\": {micros}");
            }
            TraceEvent::Respond { id, ok, total_us } => {
                let _ = write!(out, ", \"id\": {id}, \"ok\": {ok}, \"total_us\": {total_us}");
            }
            TraceEvent::JournalAppend { sid, bytes, micros, fsync } => {
                let _ = write!(
                    out,
                    ", \"sid\": {sid}, \"bytes\": {bytes}, \"micros\": {micros}, \"fsync\": {fsync}"
                );
            }
            TraceEvent::JournalCommit { batch, bytes, micros, fsync } => {
                let _ = write!(
                    out,
                    ", \"batch\": {batch}, \"bytes\": {bytes}, \"micros\": {micros}, \
                     \"fsync\": {fsync}"
                );
            }
            TraceEvent::Snapshot { sid, micros } => {
                let _ = write!(out, ", \"sid\": {sid}, \"micros\": {micros}");
            }
            TraceEvent::Spill { sid } => {
                let _ = write!(out, ", \"sid\": {sid}");
            }
            TraceEvent::ColdReload { sid } => {
                let _ = write!(out, ", \"sid\": {sid}");
            }
            TraceEvent::Recovery {
                sessions,
                snapshots_loaded,
                replayed,
                dropped_bytes,
                micros,
            } => {
                let _ = write!(
                    out,
                    ", \"sessions\": {sessions}, \"snapshots_loaded\": {snapshots_loaded}, \
                     \"replayed\": {replayed}, \"dropped_bytes\": {dropped_bytes}, \
                     \"micros\": {micros}"
                );
            }
            TraceEvent::SinkClose { dropped } => {
                let _ = write!(out, ", \"dropped\": {dropped}");
            }
        }
        out.push('}');
    }
}

/// Ring capacity of a [`TraceSink`] unless overridden: deep enough to
/// absorb a burst of per-solver events while the writer thread drains,
/// small enough that a wedged writer bounds memory.
pub const DEFAULT_SINK_CAPACITY: usize = 8192;

struct SinkState {
    queue: VecDeque<String>,
    closed: bool,
}

struct SinkShared {
    state: Mutex<SinkState>,
    cv: Condvar,
    dropped: AtomicU64,
    epoch: Instant,
    capacity: usize,
}

/// A ring-buffered, non-blocking NDJSON trace-event writer. Cheap to
/// clone (all clones share one ring and writer thread); see the module
/// docs for the drop semantics.
#[derive(Clone)]
pub struct TraceSink {
    shared: Arc<SinkShared>,
    writer: Arc<Mutex<Option<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("capacity", &self.shared.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceSink {
    /// A sink draining to `out` with the default ring capacity.
    pub fn to_writer(out: Box<dyn Write + Send>) -> TraceSink {
        TraceSink::with_capacity(out, DEFAULT_SINK_CAPACITY)
    }

    /// A sink draining to `out` with a bounded ring of `capacity` events;
    /// events emitted while the ring is full are dropped and counted.
    pub fn with_capacity(mut out: Box<dyn Write + Send>, capacity: usize) -> TraceSink {
        let shared = Arc::new(SinkShared {
            state: Mutex::named(
                "telemetry.sink.state",
                SinkState { queue: VecDeque::new(), closed: false },
            ),
            cv: Condvar::new(),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            capacity: capacity.max(1),
        });
        let writer_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let mut batch: Vec<String> = Vec::new();
            loop {
                {
                    let mut state = writer_shared.state.lock();
                    while state.queue.is_empty() && !state.closed {
                        writer_shared.cv.wait(&mut state);
                    }
                    if state.queue.is_empty() && state.closed {
                        break;
                    }
                    batch.extend(state.queue.drain(..));
                }
                for line in batch.drain(..) {
                    if out.write_all(line.as_bytes()).is_err() {
                        writer_shared.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let _ = out.flush();
            }
            // The final event makes the trace self-describing: a reader
            // (and the CI smoke gate) checks `dropped` without access to
            // the producing process.
            let dropped = writer_shared.dropped.load(Ordering::Relaxed);
            let ts = writer_shared.epoch.elapsed().as_micros() as u64;
            let mut line = String::new();
            TraceEvent::SinkClose { dropped }.write_json(ts, &mut line);
            line.push('\n');
            let _ = out.write_all(line.as_bytes());
            let _ = out.flush();
        });
        TraceSink { shared, writer: Arc::new(Mutex::named("telemetry.sink.writer", Some(handle))) }
    }

    /// A sink appending to the file at `path` (created/truncated).
    pub fn to_file(path: &std::path::Path) -> std::io::Result<TraceSink> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSink::to_writer(Box::new(std::io::BufWriter::new(file))))
    }

    /// A sink writing to the process's stderr.
    pub fn to_stderr() -> TraceSink {
        TraceSink::to_writer(Box::new(std::io::stderr()))
    }

    /// A sink draining into a shared in-memory buffer — the test harness
    /// shape (read the buffer after [`TraceSink::close`]).
    pub fn to_shared_buffer() -> (TraceSink, Arc<Mutex<Vec<u8>>>) {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::named("telemetry.test.buffer", Vec::new()));
        let sink = TraceSink::to_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        (sink, buf)
    }

    /// Emits one event: encodes it, stamps it with µs since the sink's
    /// epoch, and enqueues it. Never blocks on I/O; a full ring (or a
    /// closed sink) drops the event and increments the dropped counter.
    pub fn emit(&self, event: TraceEvent) {
        let ts = self.shared.epoch.elapsed().as_micros() as u64;
        let mut line = String::with_capacity(96);
        event.write_json(ts, &mut line);
        line.push('\n');
        {
            let mut state = self.shared.state.lock();
            if state.closed || state.queue.len() >= self.shared.capacity {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            state.queue.push_back(line);
        }
        self.shared.cv.notify_one();
    }

    /// Events dropped so far (ring overflow or write failure).
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Closes the sink: stops accepting events, drains the ring, writes
    /// the final `sink_close` event and joins the writer thread.
    /// Idempotent; safe to call from any clone.
    pub fn close(&self) {
        {
            let mut state = self.shared.state.lock();
            state.closed = true;
        }
        self.shared.cv.notify_all();
        let handle = self.writer.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// The two telemetry halves bundled for threading through the service:
/// one shared registry plus an optional trace sink. Cloning shares both.
/// [`Telemetry::disabled`] gives the no-op shape for benches and tests
/// that opt out — `emit` on it is a branch and nothing else.
#[derive(Debug, Clone)]
pub struct Telemetry {
    registry: Arc<MetricsRegistry>,
    trace: Option<TraceSink>,
}

impl Telemetry {
    /// A fresh registry, tracing into `trace` when given.
    pub fn new(trace: Option<TraceSink>) -> Telemetry {
        Telemetry { registry: Arc::new(MetricsRegistry::new()), trace }
    }

    /// A registry with no trace sink (metrics still work; `emit` no-ops).
    pub fn disabled() -> Telemetry {
        Telemetry::new(None)
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The trace sink, when tracing is on.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Emits a trace event when tracing is on; no-op otherwise.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.trace {
            sink.emit(event);
        }
    }

    /// Records `value` into the histogram named `name`. Convenience for
    /// cold paths; hot paths should resolve the `Arc<Histogram>` once.
    pub fn record(&self, name: &str, value: u64) {
        self.registry.histogram(name).record(value);
    }

    /// Increments the counter named `name`. Convenience for cold paths.
    pub fn incr(&self, name: &str) {
        self.registry.counter(name).incr();
    }

    /// Trace events dropped so far (0 when tracing is off).
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map(|t| t.dropped()).unwrap_or(0)
    }

    /// Closes the trace sink, flushing buffered events (no-op when off).
    pub fn close_trace(&self) {
        if let Some(sink) = &self.trace {
            sink.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_instruments_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests.ok");
        let b = reg.counter("requests.ok");
        a.incr();
        b.add(2);
        assert_eq!(reg.counter("requests.ok").get(), 3);
        reg.gauge("pool.queued").set(7);
        assert_eq!(reg.gauge("pool.queued").get(), 7);
        let h = reg.histogram(stage::RACE_US);
        h.record(100);
        h.record(200);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("requests.ok"), 3);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauges, vec![("pool.queued".to_string(), 7)]);
        let hist = snap.histogram(stage::RACE_US).expect("recorded");
        assert_eq!(hist.count(), 2);
        assert!(snap.histogram("absent").is_none());
    }

    #[test]
    fn histogram_merge_aggregates_workers() {
        let reg = MetricsRegistry::new();
        let total = reg.histogram("stage.total_us");
        let mut local = LatencyHistogram::new();
        local.record(10);
        local.record(1000);
        total.merge(&local);
        total.record(50);
        assert_eq!(total.snapshot().count(), 3);
    }

    #[test]
    fn sink_writes_ndjson_and_appends_sink_close() {
        let (sink, buf) = TraceSink::to_shared_buffer();
        sink.emit(TraceEvent::Enqueue { id: 1 });
        sink.emit(TraceEvent::Dequeue { id: 1, worker: 0, queue_wait_us: 42 });
        sink.emit(TraceEvent::Respond { id: 1, ok: true, total_us: 99 });
        sink.close();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("\"event\": \"enqueue\"") && lines[0].contains("\"id\": 1"));
        assert!(lines[1].contains("\"queue_wait_us\": 42"));
        assert!(lines[2].contains("\"ok\": true"));
        assert!(lines[3].contains("\"event\": \"sink_close\""));
        assert!(lines[3].contains("\"dropped\": 0"));
        // Emitting after close is counted, not lost silently.
        sink.emit(TraceEvent::Enqueue { id: 2 });
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn full_ring_drops_and_counts_instead_of_blocking() {
        // A writer that never completes a write: the ring must fill, then
        // drop, and `close` must still terminate (write errors are not
        // retried forever).
        struct Blackhole;
        impl Write for Blackhole {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("down"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = TraceSink::with_capacity(Box::new(Blackhole), 4);
        for id in 0..64 {
            sink.emit(TraceEvent::Enqueue { id });
        }
        sink.close();
        assert!(sink.dropped() > 0, "overflow must be counted");
    }

    #[test]
    fn timestamps_are_monotone_per_sink() {
        let (sink, buf) = TraceSink::to_shared_buffer();
        for id in 0..16 {
            sink.emit(TraceEvent::Enqueue { id });
        }
        sink.close();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let ts: Vec<u64> = text
            .lines()
            .map(|l| {
                let rest = l.strip_prefix("{\"ts_us\": ").expect("schema prefix");
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn event_encoding_escapes_strings_and_formats_floats() {
        let mut out = String::new();
        TraceEvent::SolverEnd {
            id: 3,
            solver: "a\"b\\c".into(),
            outcome: "completed".into(),
            micros: 12,
            makespan: Some(151.0),
        }
        .write_json(0, &mut out);
        assert!(out.contains("\"solver\": \"a\\\"b\\\\c\""), "{out}");
        assert!(out.contains("\"makespan\": 151.0"), "floats keep a decimal point: {out}");
        let mut out = String::new();
        TraceEvent::SolverEnd {
            id: 3,
            solver: "x".into(),
            outcome: "cancelled".into(),
            micros: 5,
            makespan: None,
        }
        .write_json(7, &mut out);
        assert!(!out.contains("makespan"), "absent optional fields are omitted: {out}");
        assert!(out.starts_with("{\"ts_us\": 7, \"event\": \"solver_end\""), "{out}");
    }

    #[test]
    fn disabled_telemetry_is_a_noop_but_metrics_work() {
        let t = Telemetry::disabled();
        t.emit(TraceEvent::Enqueue { id: 1 });
        assert_eq!(t.trace_dropped(), 0);
        t.incr("requests.ok");
        t.record(stage::RACE_US, 10);
        let snap = t.registry().snapshot();
        assert_eq!(snap.counter("requests.ok"), 1);
        assert_eq!(snap.histogram(stage::RACE_US).unwrap().count(), 1);
        t.close_trace();
    }
}
