//! Durability for the session tier: a write-ahead verb journal, per-session
//! snapshots, and crash recovery by replay.
//!
//! The service's sessions (see [`crate::session`]) are the only state the
//! serve protocol accumulates. This module makes them survive a process
//! death. The design is the classic WAL pair:
//!
//! * **Journal** (`<data-dir>/journal.log`): every *accepted*
//!   `create`/`delta`/`close` verb is appended — one line per record,
//!   `<16-hex FNV-1a-64 checksum> <space> <JSON record>` — **before** the
//!   response is written to the client, so an acknowledged verb is never
//!   lost. `solve` is deliberately not journaled: it changes only the
//!   incumbent (an optimization, re-derivable), never the instance.
//! * **Snapshots** (`<data-dir>/sessions/<sid>.snap`): a full session image
//!   — instance, incumbent, cost, proxy — in one checksummed packed frame
//!   ([`encode_snapshot_packed`]), stamped with the journal sequence
//!   number it folds in. Written atomically (temp file + rename)
//!   on spill, periodically every [`SNAPSHOT_EVERY`] journaled verbs, and
//!   at graceful shutdown. A snapshot truncates *replay*: only
//!   journal records with `seq` greater than the snapshot's are applied on
//!   recovery.
//!
//! The journal *file* is truncated only at quiescent points — after
//! recovery and at graceful shutdown, once every live session has a fresh
//! snapshot — never concurrently with serving (a concurrent truncation
//! could erase a record appended after the snapshot images were
//! collected).
//!
//! **Recovery** ([`DurableStore::recover`]) loads all snapshots, replays
//! the journal tail in sequence order (create → greedy incumbent, delta →
//! [`crate::model::ModelOps::repair_deltas`], close → drop), and stops at
//! the first torn or corrupt line, keeping the prefix and reporting the
//! dropped suffix — a half-written final line after SIGKILL is data loss
//! of exactly the unacknowledged verb, not a crash loop. Recovered
//! incumbents are clamped by a fresh greedy run, so a recovered session
//! never answers worse than the stateless greedy floor.
//!
//! The fsync policy is a knob ([`Durability`]): `none` buffers in process
//! (fastest, loses the buffered tail on any death), `flush` pushes every
//! record to the OS (survives process death — SIGKILL, abort — the CI
//! kill-and-replay gate), `fsync` additionally syncs the file (survives
//! power loss).
//!
//! **Group commit** ([`DurableStore::with_group_commit`]): appending lanes
//! commit the journal themselves, leader/follower style. A lane encodes
//! its record and enqueues it on a batch buffer with the next sequence
//! number. If no commit is in flight it becomes the *leader*: it takes up
//! to 64 pending records, appends them as **one** coalesced write, pays
//! one flush/fsync for the whole batch, publishes the new durable horizon
//! and wakes every waiting lane. Otherwise it waits until a leader has
//! made its record durable, leading the next batch itself if its record
//! is still pending when the leader finishes. An appender returns (and
//! the service responds) only after its record is on storage at the
//! configured durability; the flush/fsync cost is amortized across every
//! lane that joined the batch, which is what makes contended `fsync`
//! traffic scale. Batches form naturally (records pile up while a leader
//! is inside a flush); the builder can also cap the batch or let the
//! leader linger for stragglers. No background thread exists, so nothing
//! is ever left to drain or join. The on-disk bytes do not depend on the
//! batch size, so recovery is oblivious to batching — a property pinned
//! by the differential proptests in `proptest_journal.rs`.
//!
//! **Fail-stop.** The first failed journal write, flush or fsync poisons
//! the store: the buffered bytes are discarded unwritten, every pending
//! and later append is refused with that error, and the file is never
//! touched again by this process. A failed fsync is not retried (the
//! kernel may already have dropped the dirty pages it reported), and no
//! record can land after a torn line, where replay would never reach it.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use sst_core::delta::InstanceDelta;
use sst_core::io::json::Parser;
use sst_core::io::IoError;
use sst_core::telemetry::{stage, Telemetry, TraceEvent};
use sst_core::wire::{self, fnv1a64, Cursor};

use crate::protocol::{req_uint, verb_at, write_verb, SessionVerb, VerbRef};
use crate::session::SessionEntry;

/// How hard an accepted verb is pushed toward stable storage before the
/// response line is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Buffer in process; flush only at graceful shutdown. Fastest; any
    /// non-graceful death loses the buffered journal tail (snapshots
    /// already on disk still recover).
    None,
    /// Flush every record to the OS (`BufWriter::flush`). Survives process
    /// death — SIGKILL, `abort()` — but not power loss. The default when
    /// `--data-dir` is set.
    #[default]
    Flush,
    /// Flush and `fsync` every record. Survives power loss; slowest.
    Fsync,
}

impl Durability {
    /// Parses the `--durability` flag value.
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "none" => Some(Durability::None),
            "flush" => Some(Durability::Flush),
            "fsync" => Some(Durability::Fsync),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Flush => "flush",
            Durability::Fsync => "fsync",
        }
    }
}

/// One journaled session verb (the accepted mutations; `solve` mutates
/// only the incumbent and is not journaled).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Session `sid` was created (or replaced) with this instance.
    Create {
        /// Session id.
        sid: u64,
        /// The full initial instance.
        instance: crate::solver::ProblemInstance,
    },
    /// A delta batch was accepted (repair succeeded) on session `sid`.
    Delta {
        /// Session id.
        sid: u64,
        /// The edits, in application order.
        deltas: Vec<InstanceDelta>,
    },
    /// Session `sid` was closed.
    Close {
        /// Session id.
        sid: u64,
    },
}

impl JournalRecord {
    /// The verb body the record is journaled as.
    fn as_verb(&self) -> VerbRef<'_> {
        match self {
            JournalRecord::Create { sid, instance } => VerbRef::Create { sid: *sid, instance },
            JournalRecord::Delta { sid, deltas } => VerbRef::Delta { sid: *sid, deltas },
            &JournalRecord::Close { sid } => VerbRef::Close { sid },
        }
    }
}

// The journal line checksum is FNV-1a-64 — not cryptographic; it detects
// torn writes and bit rot, which is all replay needs. The implementation
// is shared with the binary wire format (`sst_core::wire::fnv1a64`): one
// checksum discipline guards journal lines, wire frames and packed
// snapshots.

/// Encodes one journal line (no trailing newline):
/// `<16-hex checksum> {"seq": N, <verb body>}`, the verb body being the
/// one session request lines carry.
pub fn encode_journal_line(seq: u64, rec: &JournalRecord) -> String {
    journal_line(seq, rec.as_verb())
}

fn journal_line(seq: u64, verb: VerbRef<'_>) -> String {
    let mut payload = format!("{{\"seq\": {seq}, ");
    write_verb(&mut payload, verb);
    payload.push('}');
    format!("{:016x} {payload}", fnv1a64(payload.as_bytes()))
}

/// Parses one journal line back into `(seq, record)`. Errors on a short
/// line, a checksum mismatch, or a malformed record — the conditions that
/// stop replay at a torn tail.
pub fn parse_journal_line(line: &str) -> Result<(u64, JournalRecord), String> {
    let bytes = line.as_bytes();
    if bytes.len() < 18 || bytes[16] != b' ' {
        return Err("short or malformed journal line".into());
    }
    let sum = u64::from_str_radix(&line[..16], 16).map_err(|_| "bad checksum hex".to_string())?;
    let payload = &line[17..];
    if fnv1a64(payload.as_bytes()) != sum {
        return Err("journal checksum mismatch".into());
    }
    let mut p = Parser::new(payload);
    let fields = p.fields(["seq", "create", "delta", "close"])?;
    p.finish()?;
    let [seq, create, delta, close] = fields.ok_or("journal record must be a JSON object")?;
    let seq = req_uint(seq, "seq").map_err(|e| e.to_string())?;
    // `solve` is never journaled: a record naming one reads as if it did not.
    let rec = match verb_at([create, delta, None, close]).map_err(|e| e.to_string())? {
        SessionVerb::Create { sid, instance } => JournalRecord::Create { sid, instance },
        SessionVerb::Delta { sid, deltas } => JournalRecord::Delta { sid, deltas },
        SessionVerb::Close { sid } => JournalRecord::Close { sid },
        SessionVerb::Solve { .. } => return Err("journal records never hold a solve".into()),
    };
    Ok((seq, rec))
}

/// Why (and how much of) a journal suffix was dropped during a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalTail {
    /// Bytes from the first bad line to end of file.
    pub dropped_bytes: u64,
    /// What stopped the scan.
    pub reason: String,
}

/// Scans a whole journal, returning every record of the longest
/// well-formed prefix, plus a [`JournalTail`] describing the dropped
/// suffix when the scan stopped early (torn final line after a crash, a
/// corrupted line, a line that is not UTF-8, …). Never panics on
/// malformed input.
pub fn scan_journal(bytes: &[u8]) -> (Vec<(u64, JournalRecord)>, Option<JournalTail>) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    for piece in bytes.split_inclusive(|&b| b == b'\n') {
        let (body, complete) = match piece.strip_suffix(b"\n") {
            Some(b) => (b, true),
            None => (piece, false),
        };
        let body = body.strip_suffix(b"\r").unwrap_or(body);
        if body.is_empty() {
            offset += piece.len();
            continue;
        }
        let parsed = if complete {
            std::str::from_utf8(body)
                .map_err(|_| "journal line is not UTF-8".to_string())
                .and_then(parse_journal_line)
        } else {
            Err("torn final line (no newline)".to_string())
        };
        match parsed {
            Ok(rec) => records.push(rec),
            Err(reason) => {
                let tail = JournalTail { dropped_bytes: (bytes.len() - offset) as u64, reason };
                return (records, Some(tail));
            }
        }
        offset += piece.len();
    }
    (records, None)
}

/// Encodes a session snapshot as a packed [`wire::FT_SNAPSHOT`] frame:
/// `sid u64, seq u64`, the kind-tagged packed instance, the cost, the
/// incumbent solution, and an optional proxy schedule. The frame checksum
/// detects a torn or corrupt file; recovery then counts it as a snapshot
/// error and falls back to journal replay.
pub fn encode_snapshot_packed(sid: u64, seq: u64, entry: &SessionEntry) -> Vec<u8> {
    let mut payload = Vec::new();
    wire::put_u64(&mut payload, sid);
    wire::put_u64(&mut payload, seq);
    crate::wire::write_problem_instance(&mut payload, &entry.instance);
    crate::wire::write_cost(&mut payload, &entry.cost);
    crate::wire::write_solution(&mut payload, &entry.incumbent);
    match &entry.proxy {
        None => wire::put_u8(&mut payload, 0),
        Some(proxy) => {
            wire::put_u8(&mut payload, 1);
            wire::write_schedule(&mut payload, proxy);
        }
    }
    wire::encode_frame(wire::FT_SNAPSHOT, &payload)
}

/// Parses a packed snapshot frame back into `(sid, seq, entry)`.
pub fn parse_snapshot_packed(bytes: &[u8]) -> Result<(u64, u64, SessionEntry), IoError> {
    let bad = |e: wire::WireError| IoError::Format(format!("packed snapshot: {e}"));
    let (frame_type, payload) = wire::decode_frame(bytes).map_err(bad)?;
    if frame_type != wire::FT_SNAPSHOT {
        return Err(IoError::Format(format!(
            "packed snapshot has frame type 0x{frame_type:02x}, expected 0x{:02x}",
            wire::FT_SNAPSHOT
        )));
    }
    let mut cur = Cursor::new(payload);
    let inner = |cur: &mut Cursor<'_>| -> Result<(u64, u64, SessionEntry), wire::WireError> {
        let sid = cur.u64()?;
        let seq = cur.u64()?;
        let instance = crate::wire::read_problem_instance(cur)?;
        let cost = crate::wire::read_cost(cur)?;
        let incumbent = crate::wire::read_solution(cur)?;
        let proxy = match cur.u8()? {
            0 => None,
            1 => Some(wire::read_schedule(cur)?),
            t => return Err(wire::WireError::Malformed(format!("bad proxy tag {t}"))),
        };
        cur.finish()?;
        Ok((sid, seq, SessionEntry { instance: Arc::new(instance), incumbent, cost, proxy }))
    };
    inner(&mut cur).map_err(bad)
}

/// A session entry rebuilt with the *claimed* state double-checked: the
/// incumbent is re-evaluated against the instance (fixing a drifted cost)
/// and replaced by a fresh greedy run when it no longer validates; a proxy
/// whose shape no longer matches the instance is dropped. Corrupt-but-
/// parseable state degrades to the greedy floor instead of poisoning
/// later repairs.
fn sanitize(mut entry: SessionEntry) -> SessionEntry {
    if let Some(proxy) = &entry.proxy {
        if proxy.assignment().len() != entry.instance.n() {
            entry.proxy = None;
        }
    }
    match entry.instance.evaluate(&entry.incumbent) {
        Ok(cost) => entry.cost = cost,
        Err(_) => {
            let greedy = entry.instance.greedy();
            entry.incumbent = greedy.solution;
            entry.cost = greedy.cost;
            entry.proxy = None;
        }
    }
    entry
}

/// What [`DurableStore::recover`] rebuilt and what it had to drop.
#[derive(Debug)]
pub struct Recovery {
    /// Every recovered live session: `(sid, seq, entry)`.
    pub sessions: Vec<(u64, u64, SessionEntry)>,
    /// Snapshot files loaded successfully.
    pub snapshots_loaded: u64,
    /// Snapshot files skipped (unparseable or mislabeled).
    pub snapshot_errors: u64,
    /// Journal records applied (newer than their session's snapshot).
    pub replayed: u64,
    /// Journal records whose repair failed (skipped; the session keeps its
    /// pre-record state).
    pub replay_errors: u64,
    /// The dropped journal suffix, when the scan stopped early.
    pub dropped: Option<JournalTail>,
}

/// Cumulative durability counters, merged into
/// [`crate::session::SessionStats`] by the store.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityCounters {
    /// Journal records appended since start.
    pub journal_appends: u64,
    /// Journal bytes written since start.
    pub journal_bytes: u64,
    /// Snapshot files written since start.
    pub snapshots: u64,
    /// Sessions rebuilt by the last recovery.
    pub recovered: u64,
}

/// An encoded record parked on the group-commit batch buffer.
struct PendingRecord {
    seq: u64,
    line: String,
}

/// Sequence bookkeeping of the group-commit handoff: the only sequence
/// counter. An appender's record is acknowledged once `durable_seq` covers
/// it and refused once the store is `poisoned` — after which `durable_seq`
/// never advances again.
struct CommitState {
    /// Last sequence number handed to an enqueued record.
    assigned_seq: u64,
    /// Last sequence number durably on storage (at the configured
    /// durability level).
    durable_seq: u64,
    /// The first journal IO error; once set the journal is fail-stop.
    poisoned: Option<String>,
    /// A leader is writing a batch; every other appender waits on `done`.
    committing: bool,
    /// Encoded records awaiting a leader, in sequence order.
    pending: Vec<PendingRecord>,
}

/// Pushes the writer's bytes toward storage as far as `durability` asks.
fn sync(file: &mut BufWriter<File>, durability: Durability) -> std::io::Result<()> {
    match durability {
        Durability::None => Ok(()),
        Durability::Flush => file.flush(),
        Durability::Fsync => {
            file.flush()?;
            file.get_ref().sync_data()
        }
    }
}

/// Journaled verbs per session between periodic snapshots.
pub const SNAPSHOT_EVERY: u64 = 32;

/// The on-disk half of the session tier: one append-only journal plus a
/// directory of per-session snapshots under one `--data-dir`.
pub struct DurableStore {
    sessions_dir: PathBuf,
    journal_path: PathBuf,
    durability: Durability,
    /// Records per coalesced commit batch.
    journal_batch: usize,
    /// Extra time a leader may wait for stragglers on a non-full batch;
    /// zero = natural batching only.
    group_commit_window: std::time::Duration,
    /// Guards [`CommitState`]; never held across IO and never nested with
    /// `writer` (both are released before the other is taken).
    state: Mutex<CommitState>,
    /// Leader → followers: `durable_seq` advanced, the store was poisoned,
    /// or the leader stepped down.
    done: Condvar,
    /// The journal file itself. Held by the leader for the coalesced
    /// batch write and by `flush_journal`/`truncate_journal` at quiescent
    /// points. `None` once poisoned: the writer and its buffered bytes
    /// were discarded.
    writer: Mutex<Option<BufWriter<File>>>,
    journal_appends: AtomicU64,
    journal_bytes: AtomicU64,
    snapshots: AtomicU64,
    recovered: AtomicU64,
    telemetry: Telemetry,
}

impl DurableStore {
    /// Opens (creating as needed) `<root>/journal.log` and
    /// `<root>/sessions/`.
    pub fn open(root: impl AsRef<Path>, durability: Durability) -> std::io::Result<DurableStore> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let sessions_dir = root.join("sessions");
        fs::create_dir_all(&sessions_dir)?;
        let journal_path = root.join("journal.log");
        let file = OpenOptions::new().create(true).append(true).open(&journal_path)?;
        Ok(DurableStore {
            sessions_dir,
            journal_path,
            durability,
            journal_batch: 64,
            group_commit_window: std::time::Duration::ZERO,
            state: Mutex::named(
                "durable.commit",
                CommitState {
                    assigned_seq: 0,
                    durable_seq: 0,
                    poisoned: None,
                    committing: false,
                    pending: Vec::new(),
                },
            ),
            done: Condvar::new(),
            writer: Mutex::named("durable.journal", Some(BufWriter::new(file))),
            journal_appends: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            telemetry: Telemetry::disabled(),
        })
    }

    /// Configures the group-commit journal writer (builder-style; call
    /// before the first append): each leader commits at most `batch`
    /// pending records with one write and one flush/fsync. `batch <= 1`
    /// commits every record on its own (one write and one flush/fsync per
    /// record). `window_us > 0` lets a leader wait that long for
    /// stragglers when its batch is not yet full; 0 (the default) commits
    /// whatever piled up while the previous batch was being written.
    pub fn with_group_commit(mut self, batch: usize, window_us: u64) -> DurableStore {
        self.journal_batch = batch.max(1);
        self.group_commit_window = std::time::Duration::from_micros(window_us);
        self
    }

    /// Installs the serving process's telemetry: journal appends (with the
    /// fsync portion timed separately), snapshot writes, and recovery then
    /// feed the `stage.journal_*`/`stage.snapshot_us` histograms and emit
    /// trace events.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configured fsync policy.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    fn snapshot_path(&self, sid: u64) -> PathBuf {
        self.sessions_dir.join(format!("{sid}.snap"))
    }

    /// The one journal append path: encode and enqueue under the state
    /// lock, then either lead a commit (when none is in flight) or wait
    /// for the leader, until `durable_seq` covers the record. Returns —
    /// i.e. the verb gets acknowledged — only once the record is on
    /// storage at the configured durability; a poisoned store refuses it.
    fn append(&self, sid: u64, verb: VerbRef<'_>) -> std::io::Result<u64> {
        let t0 = std::time::Instant::now();
        let mut st = self.state.lock();
        if let Some(poison) = &st.poisoned {
            return Err(std::io::Error::other(poison.clone()));
        }
        let seq = st.assigned_seq + 1;
        st.assigned_seq = seq;
        // Encoding under the state lock keeps `pending` in sequence order
        // — the invariant that lets a leader write any prefix of the
        // buffer as one contiguous byte range.
        let mut line = journal_line(seq, verb);
        line.push('\n');
        let bytes = line.len() as u64;
        st.pending.push(PendingRecord { seq, line });
        let wait_t0 = std::time::Instant::now();
        // Coverage first is sound only because poisoning freezes
        // `durable_seq`: a covered record really is on storage.
        while st.durable_seq < seq {
            if let Some(poison) = &st.poisoned {
                return Err(std::io::Error::other(poison.clone()));
            }
            if st.committing {
                self.done.wait(&mut st);
                continue;
            }
            // Lead: no commit is in flight, so this record is still
            // pending. Take the oldest records, write them outside the
            // state lock, publish the outcome and wake every waiter.
            st.committing = true;
            if !self.group_commit_window.is_zero() && st.pending.len() < self.journal_batch {
                // One bounded linger for stragglers; an early wakeup just
                // commits a smaller batch.
                self.done.wait_timeout(&mut st, self.group_commit_window);
            }
            let take = st.pending.len().min(self.journal_batch);
            let batch: Vec<PendingRecord> = st.pending.drain(..take).collect();
            drop(st);
            let wrote = self.write_batch(&batch);
            st = self.state.lock();
            st.committing = false;
            match wrote {
                // This record was pending, so the batch is never empty.
                Ok(()) => st.durable_seq = batch[batch.len() - 1].seq,
                // Fail-stop: `write_batch` poisoned the store; the records
                // still pending are refused unwritten.
                Err(_) => st.pending.clear(),
            }
            self.done.notify_all();
        }
        drop(st);
        let wait_us = wait_t0.elapsed().as_micros() as u64;
        let fsync = self.durability == Durability::Fsync;
        let micros = t0.elapsed().as_micros() as u64;
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
        self.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.telemetry.record(stage::JOURNAL_APPEND_US, micros);
        self.telemetry.record(stage::COMMIT_WAIT_US, wait_us);
        self.telemetry.emit(TraceEvent::JournalAppend { sid, bytes, micros, fsync });
        Ok(seq)
    }

    /// A leader's batch: one coalesced write and one flush/fsync, then
    /// the batch telemetry and `journal_commit` trace event. Called with
    /// the state lock released; a failure poisons the store.
    fn write_batch(&self, batch: &[PendingRecord]) -> std::io::Result<()> {
        let t0 = std::time::Instant::now();
        let buf: String = batch.iter().map(|rec| rec.line.as_str()).collect();
        let mut sync_us = 0u64;
        self.with_writer(|file| {
            file.write_all(buf.as_bytes())?;
            let sync_t0 = std::time::Instant::now();
            sync(file, self.durability)?;
            sync_us = sync_t0.elapsed().as_micros() as u64;
            Ok(())
        })?;
        let fsync = self.durability == Durability::Fsync;
        self.telemetry.record(stage::JOURNAL_BATCH_LEN, batch.len() as u64);
        if fsync {
            self.telemetry.record(stage::JOURNAL_FSYNC_US, sync_us);
        }
        self.telemetry.emit(TraceEvent::JournalCommit {
            batch: batch.len() as u64,
            bytes: buf.len() as u64,
            micros: t0.elapsed().as_micros() as u64,
            fsync,
        });
        Ok(())
    }

    /// Runs `op` on the journal writer, poisoning the store on failure:
    /// the writer is dropped with its buffer discarded (so no later flush
    /// can write those bytes). Fails without running `op` once poisoned.
    fn with_writer(
        &self,
        op: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let cause = {
            let mut slot = self.writer.lock();
            match slot.as_mut().map(op) {
                Some(Ok(())) => return Ok(()),
                Some(Err(e)) => {
                    let _ = slot.take().map(BufWriter::into_parts);
                    format!("journal failed: {e}")
                }
                None => "journal closed by an earlier failure".to_string(),
            }
        };
        let poison = self.state.lock().poisoned.get_or_insert(cause).clone();
        Err(std::io::Error::other(poison))
    }

    /// Journals an accepted `create`. Returns the record's sequence number.
    pub fn append_create(
        &self,
        sid: u64,
        instance: &crate::solver::ProblemInstance,
    ) -> std::io::Result<u64> {
        self.append(sid, VerbRef::Create { sid, instance })
    }

    /// Journals an accepted `delta` batch (call only after the repair
    /// succeeded: a rejected batch is not part of the session's history).
    pub fn append_delta(&self, sid: u64, deltas: &[InstanceDelta]) -> std::io::Result<u64> {
        self.append(sid, VerbRef::Delta { sid, deltas })
    }

    /// Journals an accepted `close`.
    pub fn append_close(&self, sid: u64) -> std::io::Result<u64> {
        self.append(sid, VerbRef::Close { sid })
    }

    /// Writes session `sid`'s packed snapshot atomically (temp file +
    /// rename).
    pub fn write_snapshot(&self, sid: u64, seq: u64, entry: &SessionEntry) -> std::io::Result<()> {
        let t0 = std::time::Instant::now();
        let bytes = encode_snapshot_packed(sid, seq, entry);
        let tmp = self.sessions_dir.join(format!("{sid}.snap.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            if self.durability == Durability::Fsync {
                f.sync_data()?;
            }
        }
        fs::rename(&tmp, self.snapshot_path(sid))?;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        let micros = t0.elapsed().as_micros() as u64;
        self.telemetry.record(stage::SNAPSHOT_US, micros);
        self.telemetry.emit(TraceEvent::Snapshot { sid, micros });
        Ok(())
    }

    /// Loads (and sanitizes) session `sid`'s snapshot; `None` when absent
    /// or unusable.
    pub fn load_snapshot(&self, sid: u64) -> Option<(SessionEntry, u64)> {
        let bytes = fs::read(self.snapshot_path(sid)).ok()?;
        let (file_sid, seq, entry) = parse_snapshot_packed(&bytes).ok()?;
        if file_sid != sid {
            return None;
        }
        Some((sanitize(entry), seq))
    }

    /// Removes session `sid`'s snapshot file. Returns whether one existed.
    pub fn remove_snapshot(&self, sid: u64) -> bool {
        fs::remove_file(self.snapshot_path(sid)).is_ok()
    }

    /// Flushes the journal to the OS (and syncs under `fsync`) — the
    /// graceful-shutdown path for `--durability none`. Every acknowledged
    /// append has already written its record, so this covers the whole
    /// journal. Fails with the poison error once the journal has failed.
    pub fn flush_journal(&self) -> std::io::Result<()> {
        let durability = match self.durability {
            Durability::None => Durability::Flush,
            d => d,
        };
        self.with_writer(|file| sync(file, durability))
    }

    /// Truncates the journal file. Only sound at quiescent points (after
    /// recovery, at graceful shutdown) once every live session has a
    /// snapshot at least as new as every journal record. The sequence
    /// counter keeps running — snapshot stamps stay comparable. Fails with
    /// the poison error once the journal has failed.
    pub fn truncate_journal(&self) -> std::io::Result<()> {
        self.with_writer(|file| {
            file.flush()?;
            OpenOptions::new().write(true).truncate(true).open(&self.journal_path)?;
            *file = BufWriter::new(OpenOptions::new().append(true).open(&self.journal_path)?);
            Ok(())
        })
    }

    /// The cumulative counters (for the metrics probe).
    pub fn counters(&self) -> DurabilityCounters {
        DurabilityCounters {
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
        }
    }

    /// Rebuilds every live session from snapshots plus the journal tail,
    /// then compacts: fresh snapshots for everything recovered, journal
    /// truncated, sequence counter resumed past everything seen. Torn or
    /// corrupt journal suffixes are dropped (reported in the returned
    /// [`Recovery`]), never fatal. A missing journal reads as empty; any
    /// other journal read error, and any snapshot read error, fails
    /// recovery before a file is changed. A snapshot that reads but does
    /// not parse counts in `snapshot_errors`.
    pub fn recover(&self) -> std::io::Result<Recovery> {
        let journal = match fs::read(&self.journal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut live: BTreeMap<u64, (u64, SessionEntry)> = BTreeMap::new();
        let mut snapshots_loaded = 0u64;
        let mut snapshot_errors = 0u64;
        let mut leftovers = Vec::new();
        for dirent in fs::read_dir(&self.sessions_dir)? {
            let path = dirent?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(stem) = name.strip_suffix(".snap") else {
                // Leftover `.snap.tmp` from a crash mid-write: the rename
                // never happened, so the old `.snap` (if any) is intact.
                if name.ends_with(".snap.tmp") {
                    leftovers.push(path);
                }
                continue;
            };
            let Ok(sid) = stem.parse::<u64>() else {
                snapshot_errors += 1;
                continue;
            };
            // A snapshot that cannot be read is not a corrupt one: counting
            // it as corrupt would skip its session's journal deltas, and the
            // compaction below would truncate them away.
            match parse_snapshot_packed(&fs::read(&path)?) {
                Ok((file_sid, seq, entry)) if file_sid == sid => {
                    live.insert(sid, (seq, sanitize(entry)));
                    snapshots_loaded += 1;
                }
                _ => snapshot_errors += 1,
            }
        }
        for path in leftovers {
            let _ = fs::remove_file(path);
        }
        let (records, dropped) = scan_journal(&journal);
        let mut replayed = 0u64;
        let mut replay_errors = 0u64;
        let mut max_seq = live.values().map(|(seq, _)| *seq).max().unwrap_or(0);
        for (seq, rec) in records {
            max_seq = max_seq.max(seq);
            match rec {
                JournalRecord::Create { sid, instance } => {
                    // A snapshot at a newer seq already folds this in.
                    if live.get(&sid).is_none_or(|(s, _)| seq > *s) {
                        let greedy = instance.greedy();
                        let entry = SessionEntry {
                            instance: Arc::new(instance),
                            incumbent: greedy.solution,
                            cost: greedy.cost,
                            proxy: None,
                        };
                        live.insert(sid, (seq, entry));
                        replayed += 1;
                    }
                }
                JournalRecord::Delta { sid, deltas } => {
                    // A missing entry means a later `close` already removed
                    // the snapshot — the record is moot, not an error.
                    let Some((snap_seq, entry)) = live.get_mut(&sid) else { continue };
                    if seq <= *snap_seq {
                        continue;
                    }
                    match entry.instance.ops().repair_deltas(
                        &entry.incumbent,
                        entry.proxy.as_ref(),
                        &deltas,
                    ) {
                        Ok(repaired) => {
                            *entry = SessionEntry {
                                instance: Arc::new(repaired.instance),
                                incumbent: repaired.incumbent,
                                cost: repaired.cost,
                                proxy: repaired.proxy,
                            };
                            *snap_seq = seq;
                            replayed += 1;
                        }
                        Err(_) => {
                            *snap_seq = seq;
                            replay_errors += 1;
                        }
                    }
                }
                JournalRecord::Close { sid } => {
                    // A snapshot newer than the close means the session was
                    // re-created afterwards; keep it.
                    if live.get(&sid).is_some_and(|(s, _)| seq > *s) {
                        live.remove(&sid);
                        replayed += 1;
                    }
                }
            }
        }
        // A recovered session must never answer worse than a stateless
        // greedy run on its final instance.
        for (_, (_, entry)) in live.iter_mut() {
            let greedy = entry.instance.greedy();
            if greedy.cost.better_than(&entry.cost) {
                entry.incumbent = greedy.solution;
                entry.cost = greedy.cost;
            }
        }
        // Compact: everything recovered gets a fresh snapshot, the journal
        // restarts empty, and new records continue past every seq seen.
        for (sid, (seq, entry)) in &live {
            self.write_snapshot(*sid, *seq, entry)?;
        }
        self.truncate_journal()?;
        {
            // The next record continues past everything seen. Never lower
            // the counter: snapshots can carry seqs older than records
            // already appended this run. No append is in flight at a
            // quiescent point, so both horizons move together.
            let mut st = self.state.lock();
            st.assigned_seq = st.assigned_seq.max(max_seq);
            st.durable_seq = st.assigned_seq;
        }
        self.recovered.store(live.len() as u64, Ordering::Relaxed);
        Ok(Recovery {
            sessions: live.into_iter().map(|(sid, (seq, entry))| (sid, seq, entry)).collect(),
            snapshots_loaded,
            snapshot_errors,
            replayed,
            replay_errors,
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ProblemInstance;
    use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sst-durable-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn uniform_instance(extra: u64) -> ProblemInstance {
        ProblemInstance::Uniform(
            UniformInstance::identical(
                2,
                vec![2],
                (0..5).map(|i| Job::new(0, 1 + (i + extra) % 4)).collect(),
            )
            .unwrap(),
        )
    }

    fn entry_of(instance: ProblemInstance) -> SessionEntry {
        let greedy = instance.greedy();
        SessionEntry {
            instance: Arc::new(instance),
            incumbent: greedy.solution,
            cost: greedy.cost,
            proxy: None,
        }
    }

    #[test]
    fn journal_lines_roundtrip_every_verb() {
        let records = [
            JournalRecord::Create { sid: 7, instance: uniform_instance(0) },
            JournalRecord::Delta {
                sid: 7,
                deltas: vec![
                    InstanceDelta::AddJob { class: 0, times: vec![4] },
                    InstanceDelta::RemoveJob { job: 1 },
                ],
            },
            JournalRecord::Close { sid: 7 },
        ];
        for (i, rec) in records.iter().enumerate() {
            let line = encode_journal_line(i as u64 + 1, rec);
            assert!(!line.contains('\n'));
            let (seq, parsed) = parse_journal_line(&line).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(&parsed, rec, "{line}");
        }
    }

    #[test]
    fn corrupt_and_torn_lines_stop_the_scan_with_the_prefix_kept() {
        let l1 = encode_journal_line(
            1,
            &JournalRecord::Create { sid: 1, instance: uniform_instance(0) },
        );
        let l2 = encode_journal_line(2, &JournalRecord::Close { sid: 1 });
        // Torn tail: second line cut mid-payload, no newline.
        let torn = format!("{l1}\n{}", &l2[..l2.len() / 2]);
        let (records, tail) = scan_journal(torn.as_bytes());
        assert_eq!(records.len(), 1);
        let tail = tail.expect("torn tail reported");
        assert!(tail.reason.contains("torn"), "{tail:?}");
        assert_eq!(tail.dropped_bytes as usize, l2.len() / 2);
        // Corrupt middle byte: checksum catches it, prefix survives.
        let mut corrupted = format!("{l1}\n{l2}\n").into_bytes();
        let flip = l1.len() + 1 + l2.len() / 2;
        corrupted[flip] = corrupted[flip].wrapping_add(1);
        let (records, tail) = scan_journal(&corrupted);
        assert_eq!(records.len(), 1);
        assert!(tail.unwrap().reason.contains("checksum"), "corruption must be detected");
        // Clean journal: no tail.
        let (records, tail) = scan_journal(format!("{l1}\n{l2}\n").as_bytes());
        assert_eq!((records.len(), tail), (2, None));
    }

    #[test]
    fn snapshot_roundtrips_all_solution_shapes() {
        let integral = entry_of(uniform_instance(1));
        let bytes = encode_snapshot_packed(9, 42, &integral);
        let (sid, seq, parsed) = parse_snapshot_packed(&bytes).unwrap();
        assert_eq!((sid, seq), (9, 42));
        assert_eq!(parsed.instance.as_ref(), integral.instance.as_ref());
        assert_eq!(parsed.cost, integral.cost);
        assert!(matches!(parsed.incumbent, crate::model::Solution::Assignment(_)));

        let split_inst = ProblemInstance::Splittable(crate::model::SplittableInstance(
            UnrelatedInstance::new(
                2,
                vec![0, 1],
                vec![vec![3, 5], vec![6, 4]],
                vec![vec![1, 1], vec![2, 2]],
            )
            .unwrap(),
        ));
        let split = entry_of(split_inst);
        let bytes = encode_snapshot_packed(3, 7, &split);
        let (sid, seq, parsed) = parse_snapshot_packed(&bytes).unwrap();
        assert_eq!((sid, seq), (3, 7));
        assert!(matches!(parsed.incumbent, crate::model::Solution::Split(_)));
    }

    #[test]
    fn packed_snapshot_roundtrips_and_sniffs_both_formats() {
        let mut with_proxy = entry_of(uniform_instance(1));
        with_proxy.proxy = Some(sst_core::schedule::Schedule::new(vec![0, 1, 0, 1, 0]));
        let bytes = encode_snapshot_packed(9, 42, &with_proxy);
        let (sid, seq, parsed) = parse_snapshot_packed(&bytes).unwrap();
        assert_eq!((sid, seq), (9, 42));
        assert_eq!(parsed.instance.as_ref(), with_proxy.instance.as_ref());
        assert_eq!(parsed.cost, with_proxy.cost);
        assert_eq!(parsed.proxy, with_proxy.proxy);

        // The frame magic tells the formats apart: a JSON snapshot in the
        // schema of builds before packed snapshots is refused as a format
        // error, never half-read.
        let json = "{\"v\": 1, \"sid\": 5, \"seq\": 11, \"instance\": {\"version\": 1, \
                    \"kind\": \"uniform\", \"speeds\": [1], \"setups\": [0], \"jobs\": []}, \
                    \"cost\": {\"num\": 0, \"den\": 1}, \"assignment\": []}";
        let err = parse_snapshot_packed(json.as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err:?}");
    }

    #[test]
    fn packed_snapshot_rejects_torn_and_corrupt_bytes() {
        let entry = entry_of(uniform_instance(0));
        let bytes = encode_snapshot_packed(1, 2, &entry);
        // Torn tail: every strict prefix must fail, never panic.
        for cut in 0..bytes.len() {
            assert!(parse_snapshot_packed(&bytes[..cut]).is_err(), "prefix of {cut} accepted");
        }
        // Any single flipped byte is caught by the frame checksum (or the
        // header validators for the first 20 bytes).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(parse_snapshot_packed(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn recover_counts_a_json_snapshot_as_unreadable() {
        let dir = tmp_dir("json-snapshot");
        // A packed snapshot written by the store, and a JSON one in the
        // schema that builds before packed snapshots used: the JSON file
        // fails the frame magic and counts as a snapshot error.
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        store.write_snapshot(1, 0, &entry_of(uniform_instance(0))).unwrap();
        let json = "{\"v\": 1, \"sid\": 2, \"seq\": 0, \"instance\": {\"version\": 1, \
                    \"kind\": \"uniform\", \"speeds\": [1], \"setups\": [0], \"jobs\": []}, \
                    \"cost\": {\"num\": 0, \"den\": 1}, \"assignment\": []}";
        fs::write(dir.join("sessions").join("2.snap"), json).unwrap();
        let rec = store.recover().unwrap();
        let sids: Vec<u64> = rec.sessions.iter().map(|(sid, _, _)| *sid).collect();
        assert_eq!(sids, vec![1]);
        assert_eq!((rec.snapshots_loaded, rec.snapshot_errors), (1, 1));
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_replays_snapshot_plus_journal_tail() {
        let dir = tmp_dir("replay");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        // Session 1: snapshot only. Session 2: journal only. Session 3:
        // created then closed — must not be recovered.
        store.write_snapshot(1, 0, &entry_of(uniform_instance(0))).unwrap();
        store.append_create(2, &uniform_instance(1)).unwrap();
        store.append_delta(2, &[InstanceDelta::AddJob { class: 0, times: vec![6] }]).unwrap();
        store.append_create(3, &uniform_instance(2)).unwrap();
        store.append_close(3).unwrap();
        drop(store);

        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store.recover().unwrap();
        assert!(rec.dropped.is_none());
        assert_eq!(rec.snapshots_loaded, 1);
        let sids: Vec<u64> = rec.sessions.iter().map(|(sid, _, _)| *sid).collect();
        assert_eq!(sids, vec![1, 2]);
        for (_, _, entry) in &rec.sessions {
            let greedy = entry.instance.greedy();
            assert!(
                !greedy.cost.better_than(&entry.cost),
                "recovered incumbent must hold the greedy floor"
            );
            assert!(entry.instance.evaluate(&entry.incumbent).is_ok());
        }
        // Session 2's delta was applied: 6 jobs, not 5.
        let two = rec.sessions.iter().find(|(sid, _, _)| *sid == 2).unwrap();
        assert_eq!(two.2.instance.n(), 6);
        // Recovery compacted: a second recovery sees snapshots only.
        let rec2 = store.recover().unwrap();
        assert_eq!(rec2.replayed, 0, "journal was truncated after recovery");
        assert_eq!(rec2.sessions.len(), 2);
        // New appends continue past every seq seen before compaction.
        let seq = store.append_close(1).unwrap();
        assert!(seq > 4, "sequence numbers must not repeat after compaction: {seq}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_survives_a_torn_journal_tail() {
        let dir = tmp_dir("torn");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        store.append_create(5, &uniform_instance(0)).unwrap();
        store.append_delta(5, &[InstanceDelta::AddJob { class: 0, times: vec![9] }]).unwrap();
        store.flush_journal().unwrap();
        drop(store);
        // Cut the final record mid-line, as a crash mid-write would.
        let path = dir.join("journal.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store.recover().unwrap();
        let tail = rec.dropped.expect("the torn tail is reported");
        assert!(tail.dropped_bytes > 0);
        assert_eq!(rec.sessions.len(), 1, "the prefix (the create) is kept");
        assert_eq!(rec.sessions[0].2.instance.n(), 5, "the torn delta was dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_keeps_the_prefix_before_a_non_utf8_record() {
        let dir = tmp_dir("non-utf8");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        store.append_create(1, &uniform_instance(0)).unwrap();
        store.append_create(2, &uniform_instance(1)).unwrap();
        drop(store);
        let path = dir.join("journal.log");
        let mut bytes = fs::read(&path).unwrap();
        let second = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let damaged = second + (bytes.len() - second) / 2;
        bytes[damaged] = 0xFF;
        fs::write(&path, &bytes).unwrap();

        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store.recover().unwrap();
        let sids: Vec<u64> = rec.sessions.iter().map(|(sid, _, _)| *sid).collect();
        assert_eq!(sids, vec![1], "the intact first record is kept");
        let tail = rec.dropped.expect("the damaged record is reported");
        assert_eq!(tail.dropped_bytes as usize, bytes.len() - second);
        assert!(tail.reason.contains("UTF-8"), "{tail:?}");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failing_journal_read_fails_recovery_and_changes_nothing() {
        let dir = tmp_dir("unreadable");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        store.write_snapshot(1, 0, &entry_of(uniform_instance(0))).unwrap();
        store.append_create(2, &uniform_instance(1)).unwrap();
        drop(store);
        let path = dir.join("journal.log");
        let journal = fs::read(&path).unwrap();
        let snap = dir.join("sessions").join("1.snap");
        let snap_bytes = fs::read(&snap).unwrap();
        let leftover = dir.join("sessions").join("3.snap.tmp");
        fs::write(&leftover, b"half-written").unwrap();
        // A directory in the journal's place: opening it succeeds, reading
        // it fails.
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        fs::remove_file(&path).unwrap();
        fs::create_dir(&path).unwrap();
        assert!(store.recover().is_err(), "an unreadable journal is not an empty one");
        assert_eq!(fs::read(&snap).unwrap(), snap_bytes);
        assert!(leftover.exists(), "recovery stopped before touching the sessions dir");
        drop(store);
        // With the journal back, recovery sees both sessions.
        fs::remove_dir(&path).unwrap();
        fs::write(&path, &journal).unwrap();
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store.recover().unwrap();
        let sids: Vec<u64> = rec.sessions.iter().map(|(sid, _, _)| *sid).collect();
        assert_eq!(sids, vec![1, 2]);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failing_snapshot_read_fails_recovery_and_keeps_the_journal() {
        let dir = tmp_dir("unreadable-snap");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        store.append_create(1, &uniform_instance(0)).unwrap();
        store.recover().unwrap(); // compacts: 1.snap written, journal emptied
        store.append_delta(1, &[InstanceDelta::AddJob { class: 0, times: vec![6] }]).unwrap();
        drop(store);
        let path = dir.join("journal.log");
        let journal = fs::read(&path).unwrap();
        assert!(!journal.is_empty());
        let snap = dir.join("sessions").join("1.snap");
        let snap_bytes = fs::read(&snap).unwrap();
        let leftover = dir.join("sessions").join("3.snap.tmp");
        fs::write(&leftover, b"half-written").unwrap();
        // A directory in the snapshot's place: listing it succeeds,
        // reading it fails.
        fs::remove_file(&snap).unwrap();
        fs::create_dir(&snap).unwrap();
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        assert!(store.recover().is_err(), "an unreadable snapshot is not a corrupt one");
        assert_eq!(fs::read(&path).unwrap(), journal, "the delta is still journaled");
        assert!(leftover.exists(), "recovery stopped before changing a file");
        drop(store);
        // With the snapshot back, recovery replays the delta onto it.
        fs::remove_dir(&snap).unwrap();
        fs::write(&snap, &snap_bytes).unwrap();
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!((rec.snapshots_loaded, rec.snapshot_errors, rec.replayed), (1, 0, 1));
        assert_eq!(rec.sessions[0].2.instance.n(), uniform_instance(0).n() + 1);
        assert!(!leftover.exists(), "a successful recovery removes leftovers");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lingering_group_commit_lands_every_record_through_flush_and_drop() {
        let dir = tmp_dir("linger");
        let path = dir.join("journal.log");
        // A 2 ms linger: each leader waits for stragglers on a non-full
        // batch, so concurrent appenders share batches.
        let store =
            DurableStore::open(&dir, Durability::Fsync).unwrap().with_group_commit(64, 2000);
        std::thread::scope(|scope| {
            for sid in 1..=4u64 {
                let store = &store;
                scope.spawn(move || store.append_create(sid, &uniform_instance(sid)).unwrap());
            }
        });
        store.flush_journal().unwrap();
        let (records, tail) = scan_journal(&fs::read(&path).unwrap());
        assert_eq!((records.len(), tail), (4, None));
        // An acknowledged append has written its record before it
        // returns, so dropping the store leaves every record on the file.
        store.append_close(4).unwrap();
        drop(store);
        let (records, tail) = scan_journal(&fs::read(&path).unwrap());
        let seqs: Vec<u64> = records.iter().map(|(seq, _)| *seq).collect();
        assert_eq!((seqs, tail), (vec![1, 2, 3, 4, 5], None));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_beats_stale_snapshot_only_when_newer() {
        let dir = tmp_dir("close-seq");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        // Snapshot at seq 10; a close at seq 3 predates it (the session
        // was re-created and snapshotted afterwards) and must be ignored.
        store.write_snapshot(4, 10, &entry_of(uniform_instance(0))).unwrap();
        let line = encode_journal_line(3, &JournalRecord::Close { sid: 4 });
        fs::write(dir.join("journal.log"), format!("{line}\n")).unwrap();
        let store2 = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store2.recover().unwrap();
        assert_eq!(rec.sessions.len(), 1, "stale close must not drop the newer snapshot");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_commit_poisons_the_journal() {
        let dir = tmp_dir("poison");
        fs::create_dir_all(&dir).unwrap();
        // Every write to /dev/full fails with ENOSPC.
        std::os::unix::fs::symlink("/dev/full", dir.join("journal.log")).unwrap();
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        let first = store.append_create(1, &uniform_instance(0)).unwrap_err().to_string();
        assert!(first.contains("journal failed"), "{first}");
        // Fail-stop: later appends and flushes are refused with the same
        // error, never retried against the file.
        let second = store.append_close(1).unwrap_err().to_string();
        assert_eq!(second, first);
        assert_eq!(store.flush_journal().unwrap_err().to_string(), first);
        assert_eq!(store.truncate_journal().unwrap_err().to_string(), first);
        assert_eq!(store.counters().journal_appends, 0, "nothing was acknowledged");
        // The discarded buffer must not be written (or panic) on drop.
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_commit_refuses_every_concurrent_appender() {
        let dir = tmp_dir("poison-concurrent");
        fs::create_dir_all(&dir).unwrap();
        std::os::unix::fs::symlink("/dev/full", dir.join("journal.log")).unwrap();
        // A 1 ms linger holds the first leader's batch open, so the other
        // appenders are waiting on it when its write fails.
        let store =
            DurableStore::open(&dir, Durability::Flush).unwrap().with_group_commit(64, 1000);
        let barrier = std::sync::Barrier::new(8);
        let errors: Vec<String> = std::thread::scope(|scope| {
            let lanes: Vec<_> = (1..=8u64)
                .map(|sid| {
                    let (store, barrier) = (&store, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        store.append_create(sid, &uniform_instance(sid)).unwrap_err().to_string()
                    })
                })
                .collect();
            lanes.into_iter().map(|lane| lane.join().unwrap()).collect()
        });
        // Every lane returns, each with the one poison error.
        assert!(errors[0].contains("journal failed"), "{errors:?}");
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
        assert_eq!(store.counters().journal_appends, 0, "nothing was acknowledged");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
