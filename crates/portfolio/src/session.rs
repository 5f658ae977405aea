//! The session store: id → live instance + incumbent solution, the state
//! behind the stateful half of the serve protocol.
//!
//! A *session* keeps an instance alive across requests so dynamic traffic
//! — jobs arriving, finishing, resizing (see [`sst_core::delta`]) — is
//! answered by **repairing** the previous solution instead of recomputing
//! it: the `delta` verb routes through
//! [`ModelOps::repair_deltas`](crate::model::ModelOps::repair_deltas) and
//! the `solve` verb races with the repaired incumbent pre-published as the
//! floor ([`crate::race::race_observed`]).
//!
//! The store is **LRU-bounded** at `max_sessions` (the `--max-sessions`
//! flag). What the bound means depends on durability:
//!
//! * **Without a [`DurableStore`]** (no `--data-dir`), creating a session
//!   at capacity *evicts* the least-recently-used one — the evicted
//!   client's next request gets an `unknown session` error line and the
//!   eviction shows up in the `{"metrics": true}` session stats.
//! * **With a [`DurableStore`]**, capacity *spills* instead: the LRU
//!   victim's snapshot is written to disk **before** the hot entry is
//!   dropped, and a later touch of the cold session transparently reloads
//!   it ([`SessionStore::snapshot`]). The LRU bounds memory, not session
//!   lifetime; spills and cold reloads are separate metrics counters.
//!
//! **Sharding:** the map is split into per-lane shards keyed by the same
//! splitmix64 hash ([`shard_of`]) the service uses to pick a session's
//! FIFO lane, so verbs on distinct lanes never contend on a shard lock.
//! Each shard is one `session.shard` mutex around a plain member map:
//! a read (entry lookup + LRU touch) locks the sid's shard, bumps the
//! slot's recency stamp and clones an `Arc`; a membership change (create /
//! close / spill / reload) is one in-place insert or remove; a write-back
//! swaps the slot's state pointer. The LRU bound and every counter stay
//! **global**: victim selection scans the shards for the minimum stamp,
//! locking one shard at a time, and revalidates under the victim's shard
//! lock, so a concurrent touch or write-back can never lose state to a
//! spill. A new member first reserves its slot on one global atomic count
//! of hot slots plus reservations, displacing victims until the
//! reservation fits, so concurrent creates on different lanes never
//! overshoot the bound. No code path ever holds two shard locks at once,
//! nor a shard lock across journal or snapshot IO. The metrics probe
//! ([`SessionStore::stats`]) reads atomics only.
//!
//! Entries are stored behind `Arc`s, so reads clone a pointer and writes
//! swap one — a shard lock is held for pointer-sized work only; repairs,
//! races and snapshot file writes run outside it on the shared entry, and
//! a replaced entry is freed outside the lock.
//! Two concurrent requests on the *same* session id are last-write-wins.
//!
//! **Ordering:** session verbs do not ride the shared pool (whose workers
//! run several requests at once, so they may finish in any order) — the
//! service routes them through one-worker lanes keyed by session id, so
//! each session's
//! `create`/`delta`/`solve` sequence executes in arrival order while
//! distinct sessions run in parallel (see [`crate::service`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sst_core::schedule::Schedule;
use sst_core::telemetry::{Telemetry, TraceEvent};

use crate::durable::{DurableStore, SNAPSHOT_EVERY};
use crate::model::Solution;
use crate::solver::{Cost, ProblemInstance};

/// Default shard count, matching the service's default `--session-lanes`.
pub const DEFAULT_SHARDS: usize = 4;

/// Maps a session id to its shard index — the same splitmix64 mix the
/// service uses to key its FIFO session lanes, so (at equal counts) a
/// lane's sessions all live in one shard and distinct lanes never contend.
pub fn shard_of(sid: u64, shards: usize) -> usize {
    // splitmix64: adjacent sids land on unrelated shards.
    let mut h = sid.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h % shards.max(1) as u64) as usize
}

/// One live session: the current instance, the best-known solution with
/// its exact cost, and the splittable model's integral proxy assignment.
#[derive(Debug, Clone)]
pub struct SessionEntry {
    /// The session's current (post-delta) instance (shared with in-flight
    /// repairs/races; replaced wholesale by deltas).
    pub instance: Arc<ProblemInstance>,
    /// Best-known solution for [`Self::instance`].
    pub incumbent: Solution,
    /// Exact cost of [`Self::incumbent`].
    pub cost: Cost,
    /// Integral proxy assignment (splittable sessions; see
    /// [`crate::model::Repaired::proxy`]).
    pub proxy: Option<Schedule>,
}

/// Counters of the session store, reported by `{"metrics": true}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions currently hot (in memory; spilled sessions stay live on
    /// disk and do not count here).
    pub live: u64,
    /// Sessions destroyed by the LRU bound since start (non-durable mode
    /// only; with a data dir the bound spills instead).
    pub evicted: u64,
    /// Session solves the warm incumbent won outright (no raced member
    /// improved the repaired floor).
    pub warm_hits: u64,
    /// Session solves where a raced member beat the warm floor.
    pub warm_misses: u64,
    /// LRU victims spilled to a snapshot instead of destroyed.
    pub spills: u64,
    /// Cold sessions transparently reloaded from their snapshot.
    pub cold_reloads: u64,
    /// Sessions rebuilt by crash recovery at startup.
    pub recovered: u64,
    /// Journal records appended since start.
    pub journal_appends: u64,
    /// Journal bytes written since start.
    pub journal_bytes: u64,
    /// Snapshot files written since start.
    pub snapshots: u64,
}

/// A session's current state, replaced wholesale on every write-back, so
/// a spill's revalidation can tell by pointer identity whether the state
/// it wrote to disk is still current.
struct Stamped {
    entry: Arc<SessionEntry>,
    /// Last journal sequence number folded into `entry` (0 = none).
    seq: u64,
    /// Journaled verbs applied since the last on-disk snapshot — the
    /// periodic-snapshot trigger.
    fresh: u64,
}

/// One member of a shard map.
struct Slot {
    /// LRU recency stamp, a tick of the store-global clock. Every tick is
    /// unique, so spills revalidate against it.
    stamp: u64,
    /// The session's state; see [`Stamped`].
    state: Arc<Stamped>,
}

/// One shard: its members behind one lock. Every shard's lock shares the
/// `session.shard` lockdep name (one graph node), so the no-two-shard-locks
/// rule is machine-checked: nesting any two would record a self-edge,
/// i.e. a cycle.
type Shard = Mutex<BTreeMap<u64, Slot>>;

fn new_shard() -> Shard {
    Mutex::named("session.shard", BTreeMap::new())
}

/// What one attempt to free a hot slot did.
enum Displaced {
    /// The LRU victim left memory (destroyed or spilled).
    Victim(u64),
    /// Lost a race with a close, touch, update or in-flight insert: try
    /// again.
    Retry,
    /// The victim's snapshot write failed: no room can be made.
    Stuck,
}

/// Thread-safe, LRU-bounded session store shared by all pool workers,
/// optionally backed by a [`DurableStore`] (journal + snapshot spill).
/// Sharded per lane, one lock per shard; see the module docs.
pub struct SessionStore {
    max: usize,
    shards: Vec<Shard>,
    /// Hot slots plus reservations whose inserts are in flight; the LRU
    /// bound is enforced on this count (see [`Self::reserve`]).
    hot: AtomicUsize,
    /// Global LRU clock; touches stamp slots with its ticks.
    clock: AtomicU64,
    evicted: AtomicU64,
    warm_hits: AtomicU64,
    warm_misses: AtomicU64,
    spills: AtomicU64,
    cold_reloads: AtomicU64,
    persist: Option<Arc<DurableStore>>,
    telemetry: Telemetry,
}

impl SessionStore {
    /// An empty in-memory store holding at most `max_sessions` live
    /// sessions (floored at 1); capacity evicts.
    pub fn new(max_sessions: usize) -> Self {
        Self::build(max_sessions, None)
    }

    /// An empty store backed by `persist`: capacity spills to snapshots,
    /// touches of cold sessions reload them, and `checkpoint` flushes
    /// everything hot at shutdown.
    pub fn durable(max_sessions: usize, persist: Arc<DurableStore>) -> Self {
        Self::build(max_sessions, Some(persist))
    }

    fn build(max_sessions: usize, persist: Option<Arc<DurableStore>>) -> Self {
        SessionStore {
            max: max_sessions.max(1),
            shards: (0..DEFAULT_SHARDS).map(|_| new_shard()).collect(),
            hot: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            warm_misses: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            cold_reloads: AtomicU64::new(0),
            persist,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Reconfigures the shard count — one per session lane is the intended
    /// shape (`--session-lanes`). Only meaningful on an empty store; call
    /// it right after construction.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = (0..shards.max(1)).map(|_| new_shard()).collect();
        self
    }

    /// Installs the serving process's telemetry: capacity spills and cold
    /// reloads emit trace events (`spill`/`cold_reload`) in addition to
    /// the counters already surfaced by [`SessionStore::stats`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configured capacity.
    pub fn max_sessions(&self) -> usize {
        self.max
    }

    /// The backing durable store, when one is configured.
    pub fn persist(&self) -> Option<&Arc<DurableStore>> {
        self.persist.as_ref()
    }

    fn shard(&self, sid: u64) -> &Shard {
        &self.shards[shard_of(sid, self.shards.len())]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Global LRU scan, one shard lock at a time: the minimum-stamp slot
    /// across every shard, with the evidence (stamp + state pointer) the
    /// caller needs to revalidate under the victim's shard lock.
    fn lru_victim(&self) -> Option<(u64, u64, Arc<Stamped>)> {
        let mut best: Option<(u64, u64, Arc<Stamped>)> = None;
        for shard in &self.shards {
            let map = shard.lock();
            let oldest = map.iter().min_by_key(|(_, slot)| slot.stamp);
            if let Some((&sid, slot)) = oldest {
                if best.as_ref().is_none_or(|(_, b, _)| slot.stamp < *b) {
                    best = Some((sid, slot.stamp, Arc::clone(&slot.state)));
                }
            }
        }
        best
    }

    /// Reserves one hot slot for an incoming session, displacing LRU
    /// victims while the store is full, and returns the last session
    /// displaced. Every new member inserts against a reservation, so
    /// concurrent creates and reloads on different lanes cannot overshoot
    /// `max`; only a failed snapshot write makes the store run over
    /// capacity rather than destroy state.
    fn reserve(&self) -> Option<u64> {
        let mut displaced = None;
        loop {
            let room = self.hot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |hot| {
                (hot < self.max).then_some(hot + 1)
            });
            if room.is_ok() {
                return displaced;
            }
            match self.displace_lru() {
                Displaced::Victim(vsid) => displaced = Some(vsid),
                Displaced::Retry => std::thread::yield_now(),
                Displaced::Stuck => {
                    self.hot.fetch_add(1, Ordering::Relaxed);
                    return displaced;
                }
            }
        }
    }

    /// Drops the LRU victim's hot entry: destroyed in an in-memory store,
    /// spilled to its snapshot first in a durable one. The snapshot is
    /// written **outside** any lock, and the victim is only removed if it
    /// was neither touched nor updated in between (stamp + state-pointer
    /// revalidation under the victim's shard lock), so a concurrent lane
    /// can never lose state to a spill.
    fn displace_lru(&self) -> Displaced {
        // No member yet: the slots are reservations whose inserts are in
        // flight.
        let Some((vsid, vstamp, vstate)) = self.lru_victim() else { return Displaced::Retry };
        if let Some(persist) = self.persist.as_ref() {
            if persist.write_snapshot(vsid, vstate.seq, &vstate.entry).is_err() {
                return Displaced::Stuck;
            }
        }
        {
            let mut map = self.shard(vsid).lock();
            let unchanged = map
                .get(&vsid)
                .is_some_and(|slot| slot.stamp == vstamp && Arc::ptr_eq(&slot.state, &vstate));
            // Closed, touched or updated meanwhile: re-pick the victim.
            if !unchanged {
                return Displaced::Retry;
            }
            map.remove(&vsid);
            self.hot.fetch_sub(1, Ordering::Relaxed);
        }
        if self.persist.is_some() {
            self.spills.fetch_add(1, Ordering::Relaxed);
            self.telemetry.emit(TraceEvent::Spill { sid: vsid });
        } else {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        Displaced::Victim(vsid)
    }

    /// Inserts (or replaces) session `sid`, recording `seq` as the last
    /// journal record folded into it (0 when not journaled). At capacity
    /// the least-recently-used session is evicted (in-memory store) or
    /// spilled to its snapshot (durable store) first. Returns the hot
    /// count and the displaced session id, if any.
    pub fn create(&self, sid: u64, entry: SessionEntry, seq: u64) -> (usize, Option<u64>) {
        // Allocation and room-making outside the lock; each critical
        // section is one map insert.
        let state = Arc::new(Stamped { entry: Arc::new(entry), seq, fresh: u64::from(seq > 0) });
        let mut displaced = None;
        if !self.publish(sid, &state, false) {
            displaced = self.reserve();
            self.publish(sid, &state, true);
        }
        (self.live(), displaced)
    }

    /// Inserts `state` as session `sid`'s slot under its shard lock.
    /// Replacing a hot session hands a `reserved` slot back; a new member
    /// needs the reservation, so without one nothing is inserted and the
    /// result is `false`.
    fn publish(&self, sid: u64, state: &Arc<Stamped>, reserved: bool) -> bool {
        let replaced = {
            let mut map = self.shard(sid).lock();
            let hot = map.contains_key(&sid);
            if !hot && !reserved {
                return false;
            }
            if hot && reserved {
                self.hot.fetch_sub(1, Ordering::Relaxed);
            }
            map.insert(sid, Slot { stamp: self.tick(), state: Arc::clone(state) })
        };
        // The replaced state deallocates outside the critical section.
        drop(replaced);
        true
    }

    /// Shares session `sid`'s state out, touching its recency — repairs
    /// and races run on the shared entry, outside any store lock; the hot
    /// path holds the shard lock for one lookup, one stamp and one `Arc`
    /// clone. A cold (spilled) session is transparently reloaded from its
    /// on-disk snapshot.
    pub fn snapshot(&self, sid: u64) -> Option<Arc<SessionEntry>> {
        let shard = self.shard(sid);
        if let Some(slot) = shard.lock().get_mut(&sid) {
            slot.stamp = self.tick();
            return Some(Arc::clone(&slot.state.entry));
        }
        // Cold path: reload from disk, then insert hot (which may in turn
        // spill the new LRU victim).
        let persist = self.persist.as_ref()?;
        let (entry, seq) = persist.load_snapshot(sid)?;
        let entry = Arc::new(entry);
        self.reserve();
        self.telemetry.emit(TraceEvent::ColdReload { sid });
        self.cold_reloads.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.lock();
        let stamp = self.tick();
        // A racing reload of the same sid keeps the first entry (both came
        // from the same snapshot) and hands the reservation back.
        if let Some(slot) = map.get_mut(&sid) {
            slot.stamp = stamp;
            self.hot.fetch_sub(1, Ordering::Relaxed);
            return Some(Arc::clone(&slot.state.entry));
        }
        let state = Arc::new(Stamped { entry: Arc::clone(&entry), seq, fresh: 0 });
        map.insert(sid, Slot { stamp, state });
        Some(entry)
    }

    /// Writes a session's state back after a journaled verb, advancing its
    /// sequence number. Returns `false` when the session vanished in
    /// between (closed or evicted) — the write is dropped.
    pub fn update(&self, sid: u64, entry: SessionEntry, seq: u64) -> bool {
        self.write_back(sid, entry, Some(seq))
    }

    /// Writes back an incumbent-only improvement (a session `solve` —
    /// not journaled, so the sequence number stays put).
    pub fn update_incumbent(&self, sid: u64, entry: SessionEntry) -> bool {
        self.write_back(sid, entry, None)
    }

    fn write_back(&self, sid: u64, entry: SessionEntry, seq: Option<u64>) -> bool {
        let entry = Arc::new(entry);
        // The replaced state outlives the guard so its (possibly large)
        // entry deallocates outside the critical section.
        let replaced = {
            let mut map = self.shard(sid).lock();
            let Some(slot) = map.get_mut(&sid) else { return false };
            slot.stamp = self.tick();
            let (mut next_seq, mut fresh) = (slot.state.seq, slot.state.fresh);
            if let Some(seq) = seq {
                if seq > next_seq {
                    next_seq = seq;
                    fresh += 1;
                }
            }
            std::mem::replace(&mut slot.state, Arc::new(Stamped { entry, seq: next_seq, fresh }))
        };
        drop(replaced);
        true
    }

    /// Writes session `sid`'s periodic snapshot when enough journaled
    /// verbs accumulated since the last one. Purely an optimization —
    /// the journal already covers every accepted verb — so write errors
    /// are swallowed (replay just gets longer).
    pub fn maybe_snapshot(&self, sid: u64) {
        let Some(persist) = self.persist.as_ref() else { return };
        let image = self.shard(sid).lock().get(&sid).and_then(|slot| {
            let state = &slot.state;
            (state.fresh >= SNAPSHOT_EVERY).then(|| (Arc::clone(&state.entry), state.seq))
        });
        let Some((entry, seq)) = image else { return };
        if persist.write_snapshot(sid, seq, &entry).is_ok() {
            self.reset_fresh(sid, seq);
        }
    }

    /// Zeroes the periodic-snapshot counter of `sid` if its state still
    /// sits at `seq` (no newer journaled verb raced the snapshot write).
    fn reset_fresh(&self, sid: u64, seq: u64) {
        if let Some(slot) = self.shard(sid).lock().get_mut(&sid) {
            let state = &slot.state;
            if state.seq == seq && state.fresh != 0 {
                let entry = Arc::clone(&state.entry);
                slot.state = Arc::new(Stamped { entry, seq, fresh: 0 });
            }
        }
    }

    /// Snapshots every hot session and truncates the journal — the
    /// graceful-shutdown (and post-recovery) checkpoint. Only sound at
    /// quiescent points: no lane may append concurrently, or a record
    /// newer than the collected images could be truncated away.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        let Some(persist) = self.persist.as_ref() else { return Ok(()) };
        let mut hot: Vec<(u64, Arc<SessionEntry>, u64)> = Vec::new();
        for shard in &self.shards {
            for (&sid, slot) in shard.lock().iter() {
                hot.push((sid, Arc::clone(&slot.state.entry), slot.state.seq));
            }
        }
        for (sid, entry, seq) in &hot {
            persist.write_snapshot(*sid, *seq, entry)?;
        }
        persist.truncate_journal()?;
        for (sid, _, seq) in &hot {
            self.reset_fresh(*sid, *seq);
        }
        Ok(())
    }

    /// Closes session `sid` — the hot entry and (in durable mode) its
    /// on-disk snapshot. Returns whether either existed, so closing a
    /// cold (spilled) session works too.
    pub fn close(&self, sid: u64) -> bool {
        let removed = {
            let mut map = self.shard(sid).lock();
            let removed = map.remove(&sid);
            if removed.is_some() {
                self.hot.fetch_sub(1, Ordering::Relaxed);
            }
            removed
        };
        let hot = removed.is_some();
        // The closed entry deallocates outside the critical section.
        drop(removed);
        let cold = match self.persist.as_ref() {
            Some(persist) => persist.remove_snapshot(sid),
            None => false,
        };
        hot || cold
    }

    /// Sessions currently hot, counting inserts in flight. Lock-free: one
    /// atomic load, so never a torn sum across shards.
    pub fn live(&self) -> usize {
        self.hot.load(Ordering::Relaxed)
    }

    /// Records a warm re-solve outcome: `hit` when the repaired incumbent
    /// survived the race unbeaten.
    pub fn record_warm(&self, hit: bool) {
        if hit {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.warm_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The running counters, durability counters merged in. Lock-free —
    /// safe to call from a metrics probe at any rate.
    pub fn stats(&self) -> SessionStats {
        let durable = self.persist.as_ref().map(|p| p.counters()).unwrap_or_default();
        SessionStats {
            live: self.live() as u64,
            evicted: self.evicted.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_misses: self.warm_misses.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            cold_reloads: self.cold_reloads.load(Ordering::Relaxed),
            recovered: durable.recovered,
            journal_appends: durable.journal_appends,
            journal_bytes: durable.journal_bytes,
            snapshots: durable.snapshots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::Durability;
    use sst_core::instance::{Job, UniformInstance};

    fn entry(seed: u64) -> SessionEntry {
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(2, vec![1], vec![Job::new(0, 1 + seed)]).unwrap(),
        );
        let greedy = inst.greedy();
        SessionEntry {
            instance: Arc::new(inst),
            incumbent: greedy.solution,
            cost: greedy.cost,
            proxy: None,
        }
    }

    fn durable_store(name: &str, max: usize) -> (SessionStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("sst-session-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persist = Arc::new(DurableStore::open(&dir, Durability::Flush).unwrap());
        (SessionStore::durable(max, persist), dir)
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let store = SessionStore::new(2);
        assert_eq!(store.create(1, entry(1), 0), (1, None));
        assert_eq!(store.create(2, entry(2), 0), (2, None));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.snapshot(1).is_some());
        let (live, evicted) = store.create(3, entry(3), 0);
        assert_eq!((live, evicted), (2, Some(2)));
        assert!(store.snapshot(2).is_none(), "evicted session is gone");
        assert!(store.snapshot(1).is_some(), "recently used session survives");
        let stats = store.stats();
        assert_eq!((stats.live, stats.evicted), (2, 1));
    }

    #[test]
    fn recreate_same_id_does_not_evict() {
        let store = SessionStore::new(1);
        store.create(7, entry(1), 0);
        let (live, evicted) = store.create(7, entry(2), 0);
        assert_eq!((live, evicted), (1, None), "replacing in place needs no eviction");
    }

    #[test]
    fn update_after_close_is_dropped() {
        let store = SessionStore::new(4);
        store.create(1, entry(1), 0);
        let snap = store.snapshot(1).unwrap();
        assert!(store.close(1));
        assert!(!store.close(1));
        assert!(
            !store.update(1, (*snap).clone(), 1),
            "stale write-back must not resurrect the session"
        );
        assert_eq!(store.live(), 0);
    }

    #[test]
    fn warm_counters_accumulate() {
        let store = SessionStore::new(4);
        store.record_warm(true);
        store.record_warm(true);
        store.record_warm(false);
        let stats = store.stats();
        assert_eq!((stats.warm_hits, stats.warm_misses), (2, 1));
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for sid in 0..256u64 {
            let s = shard_of(sid, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(sid, 4), "shard mapping is deterministic");
        }
        assert_eq!(shard_of(7, 1), 0, "single shard takes everything");
        // 256 consecutive sids must spread over all 8 shards — the point
        // of the mix is that adjacent ids do not pile onto one lane.
        let mut seen = [false; 8];
        for sid in 0..256u64 {
            seen[shard_of(sid, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "every shard owns some of 256 consecutive sids");
    }

    #[test]
    fn sharded_membership_counters_and_lru_stay_global() {
        let store = SessionStore::new(64).with_shards(8);
        assert_eq!(store.shards.len(), 8);
        for sid in 0..32 {
            store.create(sid, entry(sid), 0);
        }
        assert_eq!(store.live(), 32);
        for sid in 0..32 {
            assert!(store.snapshot(sid).is_some(), "session {sid} lives in its shard");
        }
        for sid in (0..32).step_by(2) {
            assert!(store.close(sid));
        }
        assert_eq!(store.live(), 16);
        // LRU is global across shards: fill to capacity with 48 more,
        // touching one old session so it survives the next eviction.
        for sid in 100..148 {
            store.create(sid, entry(sid), 0);
        }
        assert_eq!(store.live(), 64);
        assert!(store.snapshot(1).is_some(), "touch keeps 1 recent");
        let (live, displaced) = store.create(200, entry(200), 0);
        assert_eq!(live, 64);
        assert_eq!(displaced, Some(3), "the globally least-recent session is the victim");
        assert!(store.snapshot(1).is_some(), "the touched session survived");
    }

    #[test]
    fn concurrent_creates_never_overshoot_the_bound() {
        // Every round releases eight creates on distinct sids (spread over
        // the shards) at once through a barrier, then counts the shard
        // maps' members while every lane waits. Lanes only record what
        // they saw (a panicking lane would strand the others at the
        // barrier); the asserts run after the joins.
        const MAX: usize = 2;
        const LANES: u64 = 8;
        const ROUNDS: u64 = 50;
        let store = Arc::new(SessionStore::new(MAX).with_shards(4));
        let barrier = Arc::new(std::sync::Barrier::new(LANES as usize));
        let peak_live = Arc::new(AtomicUsize::new(0));
        let peak_members = Arc::new(AtomicUsize::new(0));
        let lanes: Vec<_> = (0..LANES)
            .map(|lane| {
                let (store, barrier) = (Arc::clone(&store), Arc::clone(&barrier));
                let (peak_live, peak_members) = (Arc::clone(&peak_live), Arc::clone(&peak_members));
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        let sid = round * LANES + lane;
                        barrier.wait();
                        let (live, _) = store.create(sid, entry(sid), 0);
                        peak_live.fetch_max(live, Ordering::Relaxed);
                        barrier.wait();
                        if lane == 0 {
                            let members: usize =
                                store.shards.iter().map(|shard| shard.lock().len()).sum();
                            peak_members.fetch_max(members, Ordering::Relaxed);
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        for t in lanes {
            t.join().expect("lane thread");
        }
        assert!(peak_live.load(Ordering::Relaxed) <= MAX, "a create saw more than {MAX} hot");
        assert_eq!(peak_members.load(Ordering::Relaxed), MAX, "a round ended over the bound");
        let stats = store.stats();
        assert_eq!(stats.live, MAX as u64);
        assert_eq!(
            stats.evicted,
            ROUNDS * LANES - MAX as u64,
            "every displaced session is counted"
        );
    }

    #[test]
    fn concurrent_lanes_on_distinct_shards_keep_every_write() {
        let store = Arc::new(SessionStore::new(256).with_shards(4));
        let threads: Vec<_> = (0..4u64)
            .map(|lane| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..32u64 {
                        let sid = lane * 1000 + i;
                        store.create(sid, entry(sid), 0);
                        assert!(store.snapshot(sid).is_some());
                        assert!(store.update_incumbent(sid, entry(sid + 1)));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("lane thread");
        }
        assert_eq!(store.live(), 128);
        let stats = store.stats();
        assert_eq!(stats.evicted, 0, "capacity 256 never evicts 128 sessions");
    }

    /// Runs `body` while a second thread keeps reading `hot` (sessions of
    /// the same shard as the ones `body` works on). A panic in `body`
    /// stops the reader before it propagates, so it cannot hang the scope.
    fn while_reading(store: &SessionStore, hot: &[u64], body: impl FnOnce()) {
        let stop = std::sync::atomic::AtomicBool::new(false);
        let reads = AtomicUsize::new(0);
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    for &sid in hot {
                        store.snapshot(sid);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
            while reads.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            stop.store(true, Ordering::Relaxed);
            outcome
        });
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    }

    /// A weak handle on session `sid`'s current entry; the strong `Arc`
    /// the store shared out is dropped at once.
    fn weak_entry(store: &SessionStore, sid: u64) -> std::sync::Weak<SessionEntry> {
        Arc::downgrade(&store.snapshot(sid).expect("session is hot"))
    }

    #[test]
    fn dropped_entries_are_freed_while_the_shard_is_read() {
        const ROUNDS: u64 = 50;
        const FREED: &str = "the old entry must be freed once no caller holds it";
        let shards = 4;
        let same: Vec<u64> =
            (0..u64::MAX).filter(|&sid| shard_of(sid, shards) == 0).take(4).collect();
        let (hot, a, b) = (&same[..2], same[2], same[3]);
        let fill = |store: &SessionStore| {
            for &sid in hot {
                store.create(sid, entry(sid), 0);
            }
        };

        // Replaced (by a create, an update and an incumbent write-back),
        // then closed.
        let store = SessionStore::new(8).with_shards(shards);
        fill(&store);
        while_reading(&store, hot, || {
            for round in 0..ROUNDS {
                store.create(a, entry(round), 0);
                let weak = weak_entry(&store, a);
                store.create(a, entry(round + 1), 0);
                assert!(weak.upgrade().is_none(), "replaced by create: {FREED}");
                let weak = weak_entry(&store, a);
                store.update(a, entry(round + 2), round + 1);
                assert!(weak.upgrade().is_none(), "replaced by update: {FREED}");
                let weak = weak_entry(&store, a);
                store.update_incumbent(a, entry(round + 3));
                assert!(weak.upgrade().is_none(), "replaced by incumbent: {FREED}");
                let weak = weak_entry(&store, a);
                store.close(a);
                assert!(weak.upgrade().is_none(), "closed: {FREED}");
            }
        });

        // Evicted (in memory) and spilled (durable): the subject is the
        // only member older than the hot pair, so it is the LRU victim.
        let displace = |store: &SessionStore, what: &str| {
            fill(store);
            store.create(a, entry(0), 0);
            while_reading(store, hot, || {
                for round in 0..ROUNDS {
                    let (old, new) = if round % 2 == 0 { (a, b) } else { (b, a) };
                    let weak = weak_entry(store, old);
                    for &sid in hot {
                        store.snapshot(sid);
                    }
                    assert_eq!(store.create(new, entry(round), 0).1, Some(old), "{what}");
                    assert!(weak.upgrade().is_none(), "{what}: {FREED}");
                }
            });
        };
        displace(&SessionStore::new(3).with_shards(shards), "evicted");
        let (durable, dir) = durable_store("freed", 3);
        displace(&durable.with_shards(shards), "spilled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_capacity_spills_and_touch_reloads() {
        let (store, dir) = durable_store("spill", 2);
        store.create(1, entry(1), 1);
        store.create(2, entry(2), 2);
        assert!(store.snapshot(1).is_some());
        // 2 is the LRU victim: spilled, not destroyed.
        let (live, displaced) = store.create(3, entry(3), 3);
        assert_eq!((live, displaced), (2, Some(2)));
        let stats = store.stats();
        assert_eq!((stats.evicted, stats.spills), (0, 1));
        // Touching the cold session reloads it (and spills a new victim).
        let reloaded = store.snapshot(2).expect("cold session reloads transparently");
        assert_eq!(reloaded.instance.n(), 1);
        let stats = store.stats();
        assert_eq!(stats.cold_reloads, 1);
        assert!(stats.live <= 2, "the LRU bound holds across reloads");
        assert!(stats.spills >= 2, "the reload displaced another victim");
        // Closing a cold session removes its snapshot file.
        let cold_sid = [1u64, 3].into_iter().find(|s| store.snapshot(*s).is_none());
        if let Some(sid) = cold_sid {
            assert!(store.close(sid), "cold close removes the on-disk snapshot");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_snapshots_every_hot_session() {
        let (store, dir) = durable_store("checkpoint", 4);
        let persist = Arc::clone(store.persist().unwrap());
        let seq = persist.append_create(1, &entry(1).instance).unwrap();
        store.create(1, entry(1), seq);
        let seq = persist.append_create(2, &entry(2).instance).unwrap();
        store.create(2, entry(2), seq);
        store.checkpoint().unwrap();
        assert!(persist.load_snapshot(1).is_some());
        assert!(persist.load_snapshot(2).is_some());
        let rec = persist.recover().unwrap();
        assert_eq!(rec.sessions.len(), 2);
        assert_eq!(rec.replayed, 0, "checkpoint truncated the journal");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
