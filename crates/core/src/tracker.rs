//! Incremental load tracking: `O(1)` move evaluation for search
//! heuristics, written **once** against [`crate::model::MachineModel`].
//!
//! The full-recompute evaluators in [`crate::schedule`] walk all `n` jobs
//! for every makespan query, which makes one local-search sweep
//! `O(n² · m)`. [`LoadTracker`] maintains, per machine:
//!
//! * the current **load** in the model's raw units (time units on
//!   unrelated machines; work units on uniform ones),
//! * a per-machine × per-class **job count** (so a move knows in `O(1)`
//!   whether it adds a setup on the target / removes one from the source),
//! * the per-machine × per-class **time sum** (whole-class moves know the
//!   departing work in `O(1)`),
//! * the **job list** per (machine, class) slot (swap-remove `O(1)`
//!   membership; enumerating a batch costs its size, not `n`),
//!
//! plus a flat **load index**: every machine's [`MachineModel::Key`] in an
//! array, and the three largest `(key, machine)` entries cached beside it.
//! The makespan, its machine, and the makespan *after a hypothetical
//! move* — the largest key outside the move's two endpoints, against the
//! endpoints' new keys — are `O(1)` reads of that cache instead of an
//! `O(n)` recompute. Each mutator writes its changed keys and then rescans
//! the array once, in `O(m)`; at the machine counts the search heuristics
//! run (a handful to a few dozen), that scan is cheaper than keeping an
//! ordered tree, and evaluations outnumber applied moves by far.
//!
//! ## Complexity
//!
//! | operation | [`UniformLoadTracker`] | [`UnrelatedLoadTracker`] / [`SplittableLoadTracker`] |
//! |---|---|---|
//! | `new` | `O(n + m + K)` | `O(n + m + K)` |
//! | `makespan` / `bottleneck` | `O(1)` | `O(1)` |
//! | `eval_job_move` / `job_move_target` | `O(1)` | `O(1)` |
//! | `apply_job_move` | `O(m)` | `O(m)` |
//! | `eval_class_move` / `class_move_target` | `O(1)` | `O(B)` |
//! | `apply_class_move` | `O(B + m)` | `O(B + m)` |
//! | `insert_job_greedy` / `remove_job` | `O(m)` | `O(m)` |
//! | `retime_job` | `O(m)` | `O(m)` |
//! | `retime_setup` | `O(m)`† | `O(m)`† |
//! | `add_class` | `O(m)` | `O(m)` |
//!
//! ## Structural edits
//!
//! A tracker can additionally be **repaired in place** after instance
//! deltas ([`crate::delta::InstanceDelta`]) instead of being rebuilt:
//! `insert_job_greedy` / `remove_job` / `retime_job` / `retime_setup` /
//! `add_class` mirror the edits in the bookkeeping. The methods are
//! *value-based*: incoming times arrive as per-machine accessors (the
//! delta payloads layered over the pre-batch instance — see
//! `sst_algos::repair`) and outgoing contributions come from the
//! tracker's own caches (per-job raw times, per-slot charged setups), so
//! a whole delta batch repairs without materializing one intermediate
//! instance; `rebind` then re-attaches the batch-applied instance for
//! further move evaluation. The slot table is laid out class-major
//! (`slots[k * m + i]`) precisely so `add_class` appends `m` fresh slots
//! without invalidating an index, and job removal uses the same
//! swap-remove renaming the delta applies to the instance. († plus `O(m)`
//! for each job evicted because its class's new setup is infinite on its
//! machine; each edit rescans the load index once, however many machines
//! it touches.)
//!
//! `B` = number of jobs of the moved class on the source machine. Models
//! without machine-independent times ([`MachineModel::MACHINE_INDEPENDENT_TIMES`]
//! false) pay `O(B)` in `eval_class_move` because the arriving work
//! `Σ_{j∈batch} p_{to,j}` depends on both endpoints and cannot be cached
//! for all machine pairs in `o(m²K)` space; machine-independent models
//! reuse the cached per-slot sum on both ends.
//!
//! Loads are tracked with plain (non-saturating) arithmetic; instances whose
//! total work approaches `u64::MAX` are outside the tracker's contract (the
//! full evaluators saturate instead). All candidate moves must be *feasible*
//! — finite processing and setup times on the target — and the `eval_*`
//! methods return `None` otherwise, so a tracked schedule can never become
//! invalid.
//!
//! ```
//! use sst_core::instance::{Job, UniformInstance};
//! use sst_core::schedule::Schedule;
//! use sst_core::tracker::UniformLoadTracker;
//!
//! let inst = UniformInstance::identical(
//!     2,
//!     vec![1],
//!     vec![Job::new(0, 4), Job::new(0, 6)],
//! ).unwrap();
//! let mut t = UniformLoadTracker::new(&inst, &Schedule::new(vec![0, 0])).unwrap();
//! // Moving job 1 to machine 1 pays a second setup but halves the bottleneck.
//! let new_ms = t.eval_job_move(1, 1).unwrap();
//! assert!(new_ms < t.makespan());
//! t.apply_job_move(1, 1);
//! assert_eq!(t.makespan(), new_ms);
//! ```

use std::marker::PhantomData;

use crate::error::ScheduleError;
use crate::instance::{ClassId, JobId, MachineId};
use crate::model::{MachineModel, Splittable, Uniform, Unrelated};
use crate::schedule::Schedule;

/// Per-machine load keys plus the three largest `(key, machine)` entries,
/// largest first. Entries order by key, then by machine id, so the maximum
/// is deterministically the *highest-numbered* machine among tied ones.
///
/// Queries — the maximum, its machine, and the maximum with up to two
/// machines excluded (the endpoints of a hypothetical move) — read the
/// cached top three in `O(1)`. Writes go through [`Self::set`], which does
/// not touch the cache; the caller ends each batch of writes with one
/// [`Self::rescan`], `O(m)`.
#[derive(Debug, Clone)]
struct LoadIndex<K: Ord + Copy> {
    keys: Vec<K>,
    /// `None` past the last machine when `m < 3` (`None` orders below
    /// every entry, so the rescan needs no special case).
    top: [Option<(K, u32)>; 3],
}

impl<K: Ord + Copy> LoadIndex<K> {
    fn new(keys: Vec<K>) -> Self {
        let mut index = LoadIndex { keys, top: [None; 3] };
        index.rescan();
        index
    }

    /// Records machine `i`'s new key; queries see it after the next
    /// [`Self::rescan`].
    #[inline]
    fn set(&mut self, i: MachineId, key: K) {
        self.keys[i] = key;
    }

    /// Recomputes the top three entries from the key array, in `O(m)`.
    fn rescan(&mut self) {
        let mut top: [Option<(K, u32)>; 3] = [None; 3];
        for (i, &key) in self.keys.iter().enumerate() {
            let e = Some((key, i as u32));
            if e > top[2] {
                // Replace the smallest and bubble the entry into place.
                top[2] = e;
                if top[2] > top[1] {
                    top.swap(1, 2);
                    if top[1] > top[0] {
                        top.swap(0, 1);
                    }
                }
            }
        }
        self.top = top;
    }

    /// The maximum `(key, machine)` entry.
    #[inline]
    fn max_entry(&self) -> Option<(K, MachineId)> {
        self.top[0].map(|(k, i)| (k, i as MachineId))
    }

    /// Maximum key over the machines other than `a` and `b`. Excluding two
    /// machines leaves at least one of the top three whenever `m >= 3`.
    #[inline]
    fn max_excluding(&self, a: MachineId, b: MachineId) -> Option<K> {
        self.top
            .iter()
            .flatten()
            .find(|&&(_, i)| i as MachineId != a && i as MachineId != b)
            .map(|&(k, _)| k)
    }
}

/// One (machine, class) slot: the jobs of that class currently on that
/// machine, in arbitrary but deterministic order (swap-remove).
#[derive(Debug, Clone, Default)]
struct Slot {
    jobs: Vec<JobId>,
}

/// Per-(machine × class) bookkeeping, shared by every machine model.
///
/// The slot arrays are laid out **class-major** (`slots[k * m + i]`), not
/// machine-major: appending a class ([`SlotTable::grow_class`], the
/// [`crate::delta::InstanceDelta::AddClass`] structural edit) then extends
/// the arrays by `m` fresh slots at the end without disturbing a single
/// existing index, so a live tracker absorbs the edit in `O(m)` instead of
/// being rebuilt. `pos` grows/shrinks with the job population the same way
/// (append on insert, swap-remove on removal).
#[derive(Debug, Clone)]
struct SlotTable {
    m: usize,
    num_classes: usize,
    /// `slots[k * m + i]` — jobs of class `k` on machine `i`.
    slots: Vec<Slot>,
    /// `pos[j]` — index of job `j` inside its slot's `jobs` vector.
    pos: Vec<u32>,
    /// `ptime_sum[k * m + i]` — Σ raw time (or size) units of the slot.
    ptime_sum: Vec<u64>,
    /// `setup_charge[k * m + i]` — the setup units currently included in
    /// machine `i`'s load for class `k` (meaningful while the slot is
    /// non-empty). Cached so structural edits can refund or adjust a
    /// setup without consulting an instance that may already have been
    /// edited past it.
    setup_charge: Vec<u64>,
}

impl SlotTable {
    fn new(m: usize, num_classes: usize, n: usize) -> Self {
        SlotTable {
            m,
            num_classes,
            slots: vec![Slot::default(); m * num_classes],
            pos: vec![0; n],
            ptime_sum: vec![0; m * num_classes],
            setup_charge: vec![0; m * num_classes],
        }
    }

    #[inline]
    fn idx(&self, i: MachineId, k: ClassId) -> usize {
        k * self.m + i
    }

    #[inline]
    fn charge(&self, i: MachineId, k: ClassId) -> u64 {
        self.setup_charge[self.idx(i, k)]
    }

    #[inline]
    fn set_charge(&mut self, i: MachineId, k: ClassId, s: u64) {
        let idx = self.idx(i, k);
        self.setup_charge[idx] = s;
    }

    /// Appends one empty class: `m` fresh slots at the back, every
    /// existing index untouched (class-major layout).
    fn grow_class(&mut self) {
        self.num_classes += 1;
        self.slots.resize(self.num_classes * self.m, Slot::default());
        self.ptime_sum.resize(self.num_classes * self.m, 0);
        self.setup_charge.resize(self.num_classes * self.m, 0);
    }

    #[inline]
    fn count(&self, i: MachineId, k: ClassId) -> usize {
        self.slots[self.idx(i, k)].jobs.len()
    }

    #[inline]
    fn jobs(&self, i: MachineId, k: ClassId) -> &[JobId] {
        &self.slots[self.idx(i, k)].jobs
    }

    #[inline]
    fn ptime_sum(&self, i: MachineId, k: ClassId) -> u64 {
        self.ptime_sum[self.idx(i, k)]
    }

    fn push(&mut self, i: MachineId, k: ClassId, j: JobId, p: u64) {
        let idx = self.idx(i, k);
        self.pos[j] = self.slots[idx].jobs.len() as u32;
        self.slots[idx].jobs.push(j);
        self.ptime_sum[idx] += p;
    }

    fn remove(&mut self, i: MachineId, k: ClassId, j: JobId, p: u64) {
        let idx = self.idx(i, k);
        let at = self.pos[j] as usize;
        let jobs = &mut self.slots[idx].jobs;
        let last = jobs.pop().expect("slot not empty");
        if last != j {
            jobs[at] = last;
            self.pos[last] = at as u32;
        }
        self.ptime_sum[idx] -= p;
    }

    /// Moves the whole slot `(from, k)` onto `(to, k)`. `arriving` is the
    /// time sum of the batch measured on `to`.
    fn drain_slot(&mut self, from: MachineId, k: ClassId, to: MachineId, arriving: u64) {
        let from_idx = self.idx(from, k);
        let to_idx = self.idx(to, k);
        let batch = std::mem::take(&mut self.slots[from_idx].jobs);
        let base = self.slots[to_idx].jobs.len();
        for (off, &j) in batch.iter().enumerate() {
            self.pos[j] = (base + off) as u32;
        }
        self.slots[to_idx].jobs.extend_from_slice(&batch);
        // Reuse the drained allocation so steady-state churn allocates
        // nothing.
        self.slots[from_idx].jobs = batch;
        self.slots[from_idx].jobs.clear();
        self.ptime_sum[to_idx] += arriving;
        self.ptime_sum[from_idx] = 0;
    }
}

fn validate_shape(assignment: &[MachineId], n: usize, m: usize) -> Result<(), ScheduleError> {
    if assignment.len() != n {
        return Err(ScheduleError::WrongLength { expected: n, got: assignment.len() });
    }
    for (j, &i) in assignment.iter().enumerate() {
        if i >= m {
            return Err(ScheduleError::MachineOutOfRange { job: j, machine: i, m });
        }
    }
    Ok(())
}

/// The incremental load tracker, generic over the machine model.
///
/// See the [module docs](self) for the data structures and complexity
/// table. [`UniformLoadTracker`], [`UnrelatedLoadTracker`] and
/// [`SplittableLoadTracker`] are the per-model aliases; every model gets
/// this implementation by implementing
/// [`MachineModel`] — nothing here is
/// per-model code.
#[derive(Debug, Clone)]
pub struct LoadTracker<'a, M: MachineModel> {
    inst: &'a M::Instance,
    assignment: Vec<MachineId>,
    /// Raw per-machine loads in the model's load units.
    loads: Vec<u64>,
    /// Raw units job `j` currently contributes to its machine's load.
    /// Cached (and maintained by every move and structural edit) so the
    /// outgoing side of an edit never consults the instance — which,
    /// mid-delta-batch, may already describe a later state.
    job_times: Vec<u64>,
    /// Class of job `j`, maintained through swap-remove renames.
    job_class: Vec<ClassId>,
    table: SlotTable,
    index: LoadIndex<M::Key>,
    _model: PhantomData<M>,
}

/// Incremental tracker for [`crate::instance::UniformInstance`] schedules.
/// Loads are tracked in *work* units (`Σ p_j + Σ s_k`); the load index is
/// keyed by the exact [`crate::ratio::Ratio`] `work_i / v_i`. Because sizes
/// are machine-independent, *both* `eval_job_move` and `eval_class_move`
/// are `O(1)`.
pub type UniformLoadTracker<'a> = LoadTracker<'a, Uniform>;

/// Incremental tracker for [`crate::instance::UnrelatedInstance`]
/// schedules (loads in time units, `∞` cells rejected as infeasible).
pub type UnrelatedLoadTracker<'a> = LoadTracker<'a, Unrelated>;

/// Incremental tracker for the integral sub-space of the splittable model
/// (see [`crate::model::Splittable`]): job-granular split schedules
/// evaluate exactly like unrelated schedules, so the splittable descent
/// reuses the whole tracker machinery.
pub type SplittableLoadTracker<'a> = LoadTracker<'a, Splittable>;

impl<'a, M: MachineModel> LoadTracker<'a, M> {
    /// Builds the tracker from a valid schedule in `O(n + m + K)`.
    ///
    /// Fails (like the full-recompute evaluators) if the schedule has the
    /// wrong shape or assigns a job/setup where its time is infinite.
    pub fn new(inst: &'a M::Instance, sched: &Schedule) -> Result<Self, ScheduleError> {
        let (n, m, kk) = (M::n(inst), M::m(inst), M::num_classes(inst));
        validate_shape(sched.assignment(), n, m)?;
        let assignment = sched.assignment().to_vec();
        let mut loads = vec![0u64; m];
        let mut table = SlotTable::new(m, kk, n);
        let mut job_times = vec![0u64; n];
        let mut job_class = vec![0usize; n];
        for (j, &i) in assignment.iter().enumerate() {
            let p = M::job_time(inst, i, j)
                .ok_or(ScheduleError::InfiniteProcessingTime { job: j, machine: i })?;
            let k = M::class_of(inst, j);
            if table.count(i, k) == 0 {
                let s = M::setup_time(inst, i, k)
                    .ok_or(ScheduleError::InfiniteSetup { class: k, machine: i })?;
                loads[i] += s;
                table.set_charge(i, k, s);
            }
            loads[i] += p;
            table.push(i, k, j, p);
            job_times[j] = p;
            job_class[j] = k;
        }
        let index =
            LoadIndex::new(loads.iter().enumerate().map(|(i, &l)| M::key(inst, i, l)).collect());
        Ok(LoadTracker {
            inst,
            assignment,
            loads,
            job_times,
            job_class,
            table,
            index,
            _model: PhantomData,
        })
    }

    /// The instance this tracker evaluates against.
    #[inline]
    pub fn instance(&self) -> &'a M::Instance {
        self.inst
    }

    /// Current per-machine loads in the model's raw units (time units for
    /// unrelated machines; work units — divide by `v_i` for time — on
    /// uniform ones).
    #[inline]
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Current makespan, in the model's key arithmetic.
    #[inline]
    pub fn makespan(&self) -> M::Key {
        self.index.max_entry().map(|(l, _)| l).unwrap_or_else(M::zero_key)
    }

    /// Machine currently holding job `j`.
    #[inline]
    pub fn machine_of(&self, j: JobId) -> MachineId {
        self.assignment[j]
    }

    /// Class of job `j` per the tracker's own bookkeeping (tracks
    /// swap-remove renames through structural edits, unlike the possibly
    /// pre-batch bound instance).
    #[inline]
    pub fn class_of_job(&self, j: JobId) -> ClassId {
        self.job_class[j]
    }

    /// Number of class-`k` jobs on machine `i`.
    #[inline]
    pub fn count(&self, i: MachineId, k: ClassId) -> usize {
        self.table.count(i, k)
    }

    /// Jobs of class `k` on machine `i` (deterministic order, no allocation).
    #[inline]
    pub fn jobs_of_class_on(&self, i: MachineId, k: ClassId) -> &[JobId] {
        self.table.jobs(i, k)
    }

    /// A machine attaining the current makespan, in `O(1)` (the highest
    /// machine id among tied ones).
    pub fn bottleneck(&self) -> MachineId {
        self.index.max_entry().expect("non-empty by construction").1
    }

    /// The tracked assignment as a [`Schedule`].
    pub fn schedule(&self) -> Schedule {
        Schedule::new(self.assignment.clone())
    }

    #[inline]
    fn key(&self, i: MachineId, load: u64) -> M::Key {
        M::key(self.inst, i, load)
    }

    /// Sets machine `i`'s load and its key in the index, without the
    /// index rescan that every public mutator ends with.
    #[inline]
    fn set_load(&mut self, i: MachineId, load: u64) {
        self.loads[i] = load;
        self.index.set(i, self.key(i, load));
    }

    /// Makespan given the new keys of the two endpoints of a move.
    #[inline]
    fn makespan_after(&self, from: MachineId, new_from: u64, to: MachineId, new_to: u64) -> M::Key {
        let rest = self.index.max_excluding(from, to).unwrap_or_else(M::zero_key);
        rest.max(self.key(from, new_from)).max(self.key(to, new_to))
    }

    /// Machine `to`'s new load if job `j` moved there; `None` when the move
    /// is a no-op or infeasible (infinite time on `to`). Only the target
    /// side: the source machine's caches are not read. This and the other
    /// target-side accessors are always inlined: the annealer calls them
    /// once per proposal, and a call keeps its RNG state in memory.
    #[inline(always)]
    fn job_move_target_load(&self, j: JobId, to: MachineId) -> Option<u64> {
        if self.assignment[j] == to {
            return None;
        }
        let p_to = M::job_time(self.inst, to, j)?;
        let k = self.job_class[j];
        let s_to = M::setup_time(self.inst, to, k)?;
        let setup = if self.table.count(to, k) == 0 { s_to } else { 0 };
        Some(self.loads[to] + p_to + setup)
    }

    /// New `(load_from, load_to)` if job `j` moved to `to`; `None` when the
    /// move is a no-op or infeasible. The outgoing side reads the
    /// tracker's own caches; only the hypothetical target consults the
    /// instance.
    #[inline]
    fn job_move_loads(&self, j: JobId, to: MachineId) -> Option<(u64, u64)> {
        let new_to = self.job_move_target_load(j, to)?;
        let (from, k) = (self.assignment[j], self.job_class[j]);
        let mut new_from = self.loads[from] - self.job_times[j];
        if self.table.count(from, k) == 1 {
            new_from -= self.table.charge(from, k);
        }
        Some((new_from, new_to))
    }

    /// Makespan after moving job `j` to machine `to`, in `O(1)`, without
    /// mutating anything. `None` if the move is a no-op or infeasible.
    pub fn eval_job_move(&self, j: JobId, to: MachineId) -> Option<M::Key> {
        let (new_from, new_to) = self.job_move_loads(j, to)?;
        Some(self.makespan_after(self.assignment[j], new_from, to, new_to))
    }

    /// Key of machine `to` after moving job `j` there: the same `None`
    /// cases as [`Self::eval_job_move`], one key computation and no index
    /// read. The source machine only sheds load, so when this key is at
    /// least [`Self::makespan`] it *is* the new makespan (keys are
    /// non-decreasing in load, see [`MachineModel::key`]).
    #[inline(always)]
    pub fn job_move_target(&self, j: JobId, to: MachineId) -> Option<M::Key> {
        let new_to = self.job_move_target_load(j, to)?;
        Some(self.key(to, new_to))
    }

    /// Applies a feasible job move in `O(m)` (one index rescan).
    ///
    /// # Panics
    /// Panics if the move is a no-op or infeasible (check with
    /// [`Self::eval_job_move`] first).
    pub fn apply_job_move(&mut self, j: JobId, to: MachineId) {
        let from = self.assignment[j];
        let (new_from, new_to) =
            self.job_move_loads(j, to).expect("apply_job_move: infeasible or no-op move");
        let k = self.job_class[j];
        let p_to = M::job_time(self.inst, to, j).expect("checked by job_move_loads");
        if self.table.count(to, k) == 0 {
            let s_to = M::setup_time(self.inst, to, k).expect("checked by job_move_loads");
            self.table.set_charge(to, k, s_to);
        }
        self.table.remove(from, k, j, self.job_times[j]);
        self.table.push(to, k, j, p_to);
        self.job_times[j] = p_to;
        self.set_load(from, new_from);
        self.set_load(to, new_to);
        self.index.rescan();
        self.assignment[j] = to;
    }

    /// Machine `to`'s new load and the arriving sum for a whole-class
    /// move; `None` when empty, no-op or infeasible. The arriving sum is
    /// the cached slot sum when the model's times are machine-independent
    /// and an `O(B)` re-sum otherwise. Like
    /// [`Self::job_move_target_load`], only the target side.
    #[inline(always)]
    fn class_move_target_load(
        &self,
        from: MachineId,
        k: ClassId,
        to: MachineId,
    ) -> Option<(u64, u64)> {
        if from == to || self.table.count(from, k) == 0 {
            return None;
        }
        let s_to = M::setup_time(self.inst, to, k)?;
        let arriving = if M::MACHINE_INDEPENDENT_TIMES {
            self.table.ptime_sum(from, k)
        } else {
            let mut sum = 0u64;
            for &j in self.table.jobs(from, k) {
                sum += M::job_time(self.inst, to, j)?;
            }
            sum
        };
        let setup = if self.table.count(to, k) == 0 { s_to } else { 0 };
        Some((self.loads[to] + arriving + setup, arriving))
    }

    /// New `(load_from, load_to, arriving_sum)` for a whole-class move;
    /// `None` when empty, no-op or infeasible.
    fn class_move_loads(
        &self,
        from: MachineId,
        k: ClassId,
        to: MachineId,
    ) -> Option<(u64, u64, u64)> {
        let (new_to, arriving) = self.class_move_target_load(from, k, to)?;
        let departing = self.table.ptime_sum(from, k) + self.table.charge(from, k);
        Some((self.loads[from] - departing, new_to, arriving))
    }

    /// Makespan after migrating *all* class-`k` jobs on `from` to `to`, in
    /// `O(1)` for machine-independent models and `O(B)` otherwise, where
    /// `B` is the batch size. `None` if the batch is empty, the move is a
    /// no-op, or any time on `to` is infinite.
    pub fn eval_class_move(&self, from: MachineId, k: ClassId, to: MachineId) -> Option<M::Key> {
        let (new_from, new_to, _) = self.class_move_loads(from, k, to)?;
        Some(self.makespan_after(from, new_from, to, new_to))
    }

    /// Key of machine `to` after migrating all class-`k` jobs on `from`
    /// there: [`Self::job_move_target`] for whole-class moves, with the
    /// `None` cases and cost of [`Self::eval_class_move`].
    #[inline(always)]
    pub fn class_move_target(&self, from: MachineId, k: ClassId, to: MachineId) -> Option<M::Key> {
        let (new_to, _) = self.class_move_target_load(from, k, to)?;
        Some(self.key(to, new_to))
    }

    /// Applies a feasible whole-class move in `O(B + m)`.
    ///
    /// # Panics
    /// Panics if the move is empty, a no-op, or infeasible (check with
    /// [`Self::eval_class_move`] first).
    pub fn apply_class_move(&mut self, from: MachineId, k: ClassId, to: MachineId) {
        let (new_from, new_to, arriving) = self
            .class_move_loads(from, k, to)
            .expect("apply_class_move: infeasible, empty or no-op move");
        for &j in self.table.jobs(from, k) {
            debug_assert_eq!(self.assignment[j], from);
        }
        let batch_start = self.table.count(to, k);
        if batch_start == 0 {
            let s_to = M::setup_time(self.inst, to, k).expect("checked by class_move_loads");
            self.table.set_charge(to, k, s_to);
        }
        self.table.drain_slot(from, k, to, arriving);
        for idx in batch_start..self.table.count(to, k) {
            let j = self.table.jobs(to, k)[idx];
            self.assignment[j] = to;
            if !M::MACHINE_INDEPENDENT_TIMES {
                // Machine-dependent times: refresh the per-job cache for
                // the batch (machine-independent times are unchanged).
                self.job_times[j] =
                    M::job_time(self.inst, to, j).expect("checked by class_move_loads");
            }
        }
        self.set_load(from, new_from);
        self.set_load(to, new_to);
        self.index.rescan();
    }

    // ------------------------------------------------------------------
    // Structural edits (see `sst_core::delta`): repair a live tracker
    // after instance deltas instead of rebuilding it. The methods are
    // *value-based* — incoming times arrive as per-machine accessors
    // resolved by the caller (delta payloads layered over the pre-batch
    // instance; see `sst_algos::repair`), and outgoing contributions come
    // from the tracker's own caches (`job_times`, `setup_charge`) — so a
    // whole delta batch repairs against ONE bound instance with no
    // intermediate instance materialized. After the batch, `rebind` the
    // tracker to the batch-applied instance to resume move evaluation.
    // ------------------------------------------------------------------

    /// Adds job `j` (already sized into the bookkeeping) to machine `i`
    /// with `p` raw units, charging `setup` if it is the first of its
    /// class there.
    fn attach(&mut self, j: JobId, i: MachineId, p: u64, setup: u64) {
        let k = self.job_class[j];
        let mut new_load = self.loads[i] + p;
        if self.table.count(i, k) == 0 {
            new_load += setup;
            self.table.set_charge(i, k, setup);
        }
        self.table.push(i, k, j, p);
        self.job_times[j] = p;
        self.set_load(i, new_load);
        self.assignment[j] = i;
    }

    /// Removes job `j` from its machine (contribution from the caches),
    /// refunding the charged setup when it was the last of its class
    /// there. Returns the machine it left.
    fn detach(&mut self, j: JobId) -> MachineId {
        let i = self.assignment[j];
        let k = self.job_class[j];
        self.table.remove(i, k, j, self.job_times[j]);
        let mut new_load = self.loads[i] - self.job_times[j];
        if self.table.count(i, k) == 0 {
            new_load -= self.table.charge(i, k);
        }
        self.set_load(i, new_load);
        i
    }

    /// Places job `j` on the feasible machine minimizing its resulting
    /// load key (the setup-aware greedy rule), in `O(m)`.
    /// `None` when no machine is feasible (the caller surfaces it as a
    /// stranded-job error; batches that keep the instance valid at every
    /// prefix never produce one).
    fn greedy_place(
        &mut self,
        j: JobId,
        time_on: &dyn Fn(MachineId) -> Option<u64>,
        setup_on: &dyn Fn(MachineId) -> Option<u64>,
    ) -> Option<MachineId> {
        let k = self.job_class[j];
        let mut best: Option<(M::Key, MachineId, u64, u64)> = None;
        for i in 0..self.loads.len() {
            let Some(p) = time_on(i) else { continue };
            let Some(s) = setup_on(i) else { continue };
            let extra = if self.table.count(i, k) == 0 { s } else { 0 };
            let key = self.key(i, self.loads[i] + p + extra);
            if best.is_none_or(|(bk, bi, _, _)| (key, i) < (bk, bi)) {
                best = Some((key, i, p, s));
            }
        }
        let (_, i, p, s) = best?;
        self.attach(j, i, p, s);
        Some(i)
    }

    /// Structural edit — [`crate::delta::InstanceDelta::AddJob`]: a job
    /// of class `class` (taking the next job id) arrives; places it by
    /// the setup-aware greedy rule in `O(m)`. `time_on`/`setup_on`
    /// resolve the new job's per-machine raw units and its class's
    /// *current* setups (`None` = infeasible). Returns the chosen machine,
    /// or `None` (without mutating) when no machine is feasible.
    pub fn insert_job_greedy(
        &mut self,
        class: ClassId,
        time_on: &dyn Fn(MachineId) -> Option<u64>,
        setup_on: &dyn Fn(MachineId) -> Option<u64>,
    ) -> Option<MachineId> {
        assert!(class < self.table.num_classes, "insert_job_greedy: class {class} out of range");
        let j = self.assignment.len();
        self.assignment.push(0);
        self.table.pos.push(0);
        self.job_times.push(0);
        self.job_class.push(class);
        match self.greedy_place(j, time_on, setup_on) {
            Some(i) => {
                self.index.rescan();
                Some(i)
            }
            None => {
                self.assignment.pop();
                self.table.pos.pop();
                self.job_times.pop();
                self.job_class.pop();
                None
            }
        }
    }

    /// Structural edit — [`crate::delta::InstanceDelta::RemoveJob`]:
    /// removes job `j` and renames the last job to `j` (the same
    /// swap-remove the delta applies to the instance), in `O(m)`.
    pub fn remove_job(&mut self, j: JobId) {
        let n_old = self.assignment.len();
        assert!(j < n_old, "remove_job: job {j} out of range ({n_old} jobs)");
        self.detach(j);
        let last = n_old - 1;
        // Vec::swap_remove performs exactly the delta's rename.
        self.assignment.swap_remove(j);
        self.job_times.swap_remove(j);
        self.job_class.swap_remove(j);
        self.table.pos.swap_remove(j);
        if last != j {
            // The renamed job's slot entry still says `last`: point it at
            // its new id.
            let idx = self.table.idx(self.assignment[j], self.job_class[j]);
            let at = self.table.pos[j] as usize;
            self.table.slots[idx].jobs[at] = j;
        }
        self.index.rescan();
    }

    /// Structural edit — [`crate::delta::InstanceDelta::ResizeJob`]:
    /// job `j`'s times changed to `time_on`. Adjusts the load in place
    /// when `j` stays feasible on its machine, else evicts and greedily
    /// re-places it; `O(m)` either way. Returns `Some(true)`
    /// when the job stayed put, `Some(false)` when it migrated, `None`
    /// when no machine is feasible any more (the job is left detached
    /// only logically — the tracker re-attaches it nowhere and the caller
    /// must treat the whole repair as failed).
    pub fn retime_job(
        &mut self,
        j: JobId,
        time_on: &dyn Fn(MachineId) -> Option<u64>,
        setup_on: &dyn Fn(MachineId) -> Option<u64>,
    ) -> Option<bool> {
        let i = self.detach(j);
        let k = self.job_class[j];
        // The machine still hosts the class (setup already charged) or can
        // re-pay its setup.
        let in_place = time_on(i).and_then(|p| {
            let setup = if self.table.count(i, k) > 0 { Some(0) } else { setup_on(i) };
            setup.map(|s| (p, s))
        });
        let stayed = match in_place {
            Some((p, s)) => {
                self.attach(j, i, p, s);
                Some(true)
            }
            None => self.greedy_place(j, time_on, setup_on).map(|_| false),
        };
        self.index.rescan();
        stayed
    }

    /// Structural edit — [`crate::delta::InstanceDelta::ResizeSetup`]:
    /// class `k`'s setup times changed to `setup_on`. Hosting machines get
    /// their load adjusted in place; machines where the new setup is
    /// infinite have their class-`k` jobs evicted and greedily re-placed
    /// (`job_time_on` resolves an evicted job's per-machine times).
    /// Returns the number of re-placed jobs, or `Err(j)` when evicted job
    /// `j` has no feasible machine left. `O((B + 1) m)` for `B` evicted
    /// jobs: the index is rescanned once for the whole edit.
    pub fn retime_setup(
        &mut self,
        k: ClassId,
        setup_on: &dyn Fn(MachineId) -> Option<u64>,
        job_time_on: &dyn Fn(JobId, MachineId) -> Option<u64>,
    ) -> Result<usize, JobId> {
        assert!(k < self.table.num_classes, "retime_setup: class {k} out of range");
        let mut orphans: Vec<JobId> = Vec::new();
        for i in 0..self.loads.len() {
            if self.table.count(i, k) == 0 {
                continue;
            }
            match setup_on(i) {
                Some(new_s) => {
                    let new_load = self.loads[i] - self.table.charge(i, k) + new_s;
                    self.table.set_charge(i, k, new_s);
                    self.set_load(i, new_load);
                }
                None => {
                    while let Some(&j) = self.table.jobs(i, k).last() {
                        self.detach(j);
                        orphans.push(j);
                    }
                }
            }
        }
        let placed = orphans.iter().try_for_each(|&j| {
            self.greedy_place(j, &|i| job_time_on(j, i), setup_on).map(drop).ok_or(j)
        });
        self.index.rescan();
        placed.map(|()| orphans.len())
    }

    /// Structural edit — [`crate::delta::InstanceDelta::AddClass`]:
    /// registers an appended (empty) class, in `O(m)` (class-major slot
    /// layout: `m` fresh slots at the back, no index disturbed).
    pub fn add_class(&mut self) {
        self.table.grow_class();
    }

    /// Re-binds the tracker to the batch-applied instance after a
    /// structural-edit sequence, re-enabling move evaluation (`eval_*` /
    /// `apply_*` read candidate times from the bound instance). The
    /// instance must describe exactly the state the edits produced — the
    /// shape is asserted, the cell values are the caller's contract (the
    /// repair driver derives both from the same delta batch).
    pub fn rebind(&mut self, inst: &'a M::Instance) {
        assert_eq!(M::n(inst), self.assignment.len(), "rebind: job count mismatch");
        assert_eq!(M::m(inst), self.loads.len(), "rebind: machine count mismatch");
        assert_eq!(M::num_classes(inst), self.table.num_classes, "rebind: class count mismatch");
        self.inst = inst;
    }
}

impl LoadTracker<'_, Uniform> {
    /// Current per-machine loads in work units (divide by `v_i` for time).
    /// Alias of [`Self::loads`] under the uniform model's historical name.
    #[inline]
    pub fn work(&self) -> &[u64] {
        self.loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Job, UniformInstance, UnrelatedInstance, INF};
    use crate::ratio::Ratio;
    use crate::schedule::{uniform_loads, uniform_makespan, unrelated_loads, unrelated_makespan};

    fn unrelated_fixture() -> UnrelatedInstance {
        UnrelatedInstance::new(
            2,
            vec![0, 0, 1],
            vec![vec![3, 9], vec![INF, 4], vec![5, 5]],
            vec![vec![1, 2], vec![7, INF]],
        )
        .unwrap()
    }

    #[test]
    fn matches_full_recompute_unrelated() {
        let inst = unrelated_fixture();
        let sched = Schedule::new(vec![0, 1, 0]);
        let t = UnrelatedLoadTracker::new(&inst, &sched).unwrap();
        assert_eq!(t.loads(), &unrelated_loads(&inst, &sched).unwrap()[..]);
        assert_eq!(t.makespan(), unrelated_makespan(&inst, &sched).unwrap());
    }

    #[test]
    fn rejects_invalid_schedules_like_full_recompute() {
        let inst = unrelated_fixture();
        // Job 1 has p = INF on machine 0.
        let bad = Schedule::new(vec![0, 0, 0]);
        assert_eq!(
            UnrelatedLoadTracker::new(&inst, &bad).unwrap_err(),
            unrelated_loads(&inst, &bad).unwrap_err()
        );
        // Class 1 has s = INF on machine 1.
        let bad_setup = Schedule::new(vec![0, 1, 1]);
        assert_eq!(
            UnrelatedLoadTracker::new(&inst, &bad_setup).unwrap_err(),
            unrelated_loads(&inst, &bad_setup).unwrap_err()
        );
    }

    #[test]
    fn job_move_eval_matches_apply_and_recompute() {
        let inst = unrelated_fixture();
        let mut t = UnrelatedLoadTracker::new(&inst, &Schedule::new(vec![0, 1, 0])).unwrap();
        // Move job 2 (class 1) from machine 0 to machine 1? setup INF → None.
        assert_eq!(t.eval_job_move(2, 1), None);
        // Move job 0 (class 0) to machine 1.
        let predicted = t.eval_job_move(0, 1).unwrap();
        t.apply_job_move(0, 1);
        let sched = t.schedule();
        assert_eq!(t.makespan(), predicted);
        assert_eq!(t.makespan(), unrelated_makespan(&inst, &sched).unwrap());
        assert_eq!(t.loads(), &unrelated_loads(&inst, &sched).unwrap()[..]);
    }

    #[test]
    fn infeasible_and_noop_moves_are_none() {
        let inst = unrelated_fixture();
        let t = UnrelatedLoadTracker::new(&inst, &Schedule::new(vec![0, 1, 0])).unwrap();
        assert_eq!(t.eval_job_move(0, 0), None, "no-op");
        assert_eq!(t.eval_job_move(1, 0), None, "INF ptime");
        assert_eq!(t.eval_class_move(0, 1, 1), None, "INF setup on target");
        assert_eq!(t.eval_class_move(1, 1, 0), None, "empty batch");
        assert_eq!(t.eval_class_move(0, 0, 0), None, "no-op class move");
    }

    #[test]
    fn class_move_merges_batches() {
        let inst = unrelated_fixture();
        // Machine 0: job 0 (class 0); machine 1: jobs 1 (class 0), 2 is on 0.
        let mut t = UnrelatedLoadTracker::new(&inst, &Schedule::new(vec![0, 1, 0])).unwrap();
        let predicted = t.eval_class_move(1, 0, 0);
        // Batch {job 1} has p = INF on machine 0 → infeasible.
        assert_eq!(predicted, None);
        // Move class 0 off machine 0 instead (job 0 → machine 1).
        let predicted = t.eval_class_move(0, 0, 1).unwrap();
        t.apply_class_move(0, 0, 1);
        assert_eq!(t.makespan(), predicted);
        let sched = t.schedule();
        assert_eq!(t.loads(), &unrelated_loads(&inst, &sched).unwrap()[..]);
        assert_eq!(t.count(1, 0), 2);
        assert_eq!(t.count(0, 0), 0);
        assert_eq!(t.machine_of(0), 1);
    }

    #[test]
    fn uniform_tracker_matches_full_recompute() {
        let inst = UniformInstance::new(
            vec![2, 1],
            vec![3, 5],
            vec![Job::new(0, 4), Job::new(1, 6), Job::new(0, 2)],
        )
        .unwrap();
        let sched = Schedule::new(vec![0, 1, 1]);
        let mut t = UniformLoadTracker::new(&inst, &sched).unwrap();
        assert_eq!(t.work(), &uniform_loads(&inst, &sched).unwrap()[..]);
        assert_eq!(t.makespan(), uniform_makespan(&inst, &sched).unwrap());

        let predicted = t.eval_job_move(2, 0).unwrap();
        t.apply_job_move(2, 0);
        assert_eq!(t.makespan(), predicted);
        let now = t.schedule();
        assert_eq!(t.work(), &uniform_loads(&inst, &now).unwrap()[..]);
        assert_eq!(t.makespan(), uniform_makespan(&inst, &now).unwrap());

        // Whole-class move: class 0 = {0, 2} on machine 0 → machine 1.
        let predicted = t.eval_class_move(0, 0, 1).unwrap();
        t.apply_class_move(0, 0, 1);
        assert_eq!(t.makespan(), predicted);
        let now = t.schedule();
        assert_eq!(t.work(), &uniform_loads(&inst, &now).unwrap()[..]);
    }

    #[test]
    fn bottleneck_attains_makespan() {
        let inst =
            UniformInstance::identical(3, vec![1], vec![Job::new(0, 9), Job::new(0, 2)]).unwrap();
        let t = UniformLoadTracker::new(&inst, &Schedule::new(vec![0, 1])).unwrap();
        assert_eq!(t.bottleneck(), 0);
        assert_eq!(t.makespan(), Ratio::new(10, 1));
    }

    #[test]
    fn splittable_tracker_is_the_integral_view_of_the_unrelated_one() {
        let inst = unrelated_fixture();
        let sched = Schedule::new(vec![0, 1, 0]);
        let s = SplittableLoadTracker::new(&inst, &sched).unwrap();
        let r = UnrelatedLoadTracker::new(&inst, &sched).unwrap();
        assert_eq!(s.loads(), r.loads());
        assert_eq!(s.makespan(), r.makespan());
        assert_eq!(s.eval_job_move(0, 1), r.eval_job_move(0, 1));
    }

    #[test]
    fn empty_instance() {
        let inst = UnrelatedInstance::new(2, vec![], vec![], vec![]).unwrap();
        let t = UnrelatedLoadTracker::new(&inst, &Schedule::new(vec![])).unwrap();
        assert_eq!(t.makespan(), 0);
    }

    #[test]
    fn structural_edits_match_a_fresh_tracker() {
        use crate::delta::InstanceDelta;
        use crate::model::{MachineModel, Unrelated};

        let base = unrelated_fixture();
        let mut t = UnrelatedLoadTracker::new(&base, &Schedule::new(vec![0, 1, 0])).unwrap();

        // Add a class, then a job of it, then remove job 0 (swap-remove),
        // then resize a setup — the tracker repaired in place throughout,
        // value-based (payload accessors), with ONE final instance built
        // by the batch applier.
        let deltas = vec![
            InstanceDelta::AddClass { times: vec![2, 2] },
            InstanceDelta::AddJob { class: 2, times: vec![6, 1] },
            InstanceDelta::RemoveJob { job: 0 },
            InstanceDelta::ResizeSetup { class: 0, times: vec![4, 4] },
        ];
        let final_inst = Unrelated::apply_deltas(&base, &deltas).unwrap();

        t.add_class();
        let chosen = t
            .insert_job_greedy(2, &|i| Some([6, 1][i]), &|i| Some([2, 2][i]))
            .expect("feasible somewhere");
        assert_eq!(t.machine_of(3), chosen);
        t.remove_job(0);
        // The new job (old id 3) took id 0 and kept its machine.
        assert_eq!(t.machine_of(0), chosen);
        t.retime_setup(0, &|i| Some([4u64, 4][i]), &|_, _| unreachable!("no eviction"))
            .expect("no stranded jobs");
        t.rebind(&final_inst);

        let fresh = UnrelatedLoadTracker::new(&final_inst, &t.schedule()).unwrap();
        assert_eq!(t.loads(), fresh.loads());
        assert_eq!(t.makespan(), fresh.makespan());
        // The repaired + rebound tracker keeps answering moves like a
        // fresh one.
        for j in 0..final_inst.n() {
            for i in 0..final_inst.m() {
                assert_eq!(t.eval_job_move(j, i), fresh.eval_job_move(j, i), "job {j} -> {i}");
            }
        }
    }

    #[test]
    fn retime_job_evicts_infeasible_placements() {
        use crate::delta::InstanceDelta;
        use crate::model::{MachineModel, Unrelated};

        let base = unrelated_fixture();
        let mut t = UnrelatedLoadTracker::new(&base, &Schedule::new(vec![0, 1, 0])).unwrap();
        // Job 0 (machine 0, class 0) becomes infinite there: must migrate.
        let edited = Unrelated::apply_delta(
            &base,
            &InstanceDelta::ResizeJob { job: 0, times: vec![INF, 2] },
        )
        .unwrap();
        let setup0 = |i: usize| Unrelated::setup_time(&edited, i, 0);
        assert_eq!(
            t.retime_job(0, &|i| [None, Some(2)][i], &setup0),
            Some(false),
            "eviction reported"
        );
        assert_eq!(t.machine_of(0), 1);
        t.rebind(&edited);
        let fresh = UnrelatedLoadTracker::new(&edited, &t.schedule()).unwrap();
        assert_eq!(t.loads(), fresh.loads());

        // An in-place resize keeps the job put and adjusts the load.
        let shrunk = Unrelated::apply_delta(
            &edited,
            &InstanceDelta::ResizeJob { job: 2, times: vec![1, 5] },
        )
        .unwrap();
        let setup1 = |i: usize| Unrelated::setup_time(&shrunk, i, 1);
        assert_eq!(t.retime_job(2, &|i| Some([1, 5][i]), &setup1), Some(true));
        t.rebind(&shrunk);
        let fresh = UnrelatedLoadTracker::new(&shrunk, &t.schedule()).unwrap();
        assert_eq!(t.loads(), fresh.loads());
        assert_eq!(t.makespan(), fresh.makespan());
    }

    #[test]
    fn stranded_inserts_fail_cleanly_without_mutation() {
        let base = unrelated_fixture();
        let mut t = UnrelatedLoadTracker::new(&base, &Schedule::new(vec![0, 1, 0])).unwrap();
        let before = t.loads().to_vec();
        // A class-1 arrival that is feasible nowhere (class 1's setup is
        // infinite on machine 1, and we make its time infinite on 0).
        assert_eq!(t.insert_job_greedy(1, &|i| [None, Some(3)][i], &|i| [Some(7), None][i]), None);
        assert_eq!(t.loads(), &before[..], "failed insert must not mutate");
        assert_eq!(t.schedule().n(), 3);
        // Feasible only on machine 0 → greedy must pick it.
        assert_eq!(t.insert_job_greedy(1, &|_| Some(3), &|i| [Some(7), None][i]), Some(0));
        assert_eq!(t.machine_of(3), 0);
    }

    #[test]
    fn uniform_structural_edits_keep_exact_keys() {
        use crate::delta::InstanceDelta;
        use crate::model::{MachineModel, Uniform};

        let base = UniformInstance::new(
            vec![2, 1],
            vec![3, 5],
            vec![Job::new(0, 4), Job::new(1, 6), Job::new(0, 2)],
        )
        .unwrap();
        let mut t = UniformLoadTracker::new(&base, &Schedule::new(vec![0, 1, 1])).unwrap();
        let deltas = vec![
            InstanceDelta::AddJob { class: 1, times: vec![8] },
            InstanceDelta::RemoveJob { job: 1 },
            InstanceDelta::ResizeSetup { class: 0, times: vec![1] },
        ];
        let final_inst = Uniform::apply_deltas(&base, &deltas).unwrap();
        t.insert_job_greedy(1, &|_| Some(8), &|_| Some(5)).expect("uniform is always feasible");
        t.remove_job(1);
        t.retime_setup(0, &|_| Some(1), &|_, _| unreachable!("no eviction"))
            .expect("no stranded jobs");
        t.rebind(&final_inst);
        let fresh = UniformLoadTracker::new(&final_inst, &t.schedule()).unwrap();
        assert_eq!(t.work(), fresh.work());
        assert_eq!(t.makespan(), fresh.makespan());
        assert_eq!(t.bottleneck(), fresh.bottleneck());
    }
}
