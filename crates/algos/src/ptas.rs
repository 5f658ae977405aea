//! The PTAS for uniformly related machines with setup times (Section 2).
//!
//! Pipeline per makespan guess `T` (the decision procedure of the dual
//! approximation):
//!
//! 1. **Simplify** the instance (Lemmas 2.2–2.4, [`sst_core::simplify`]) and
//!    build the speed groups of Figure 1 ([`sst_core::groups`]).
//! 2. **Search for a relaxed schedule** (Definition in Section 2): fringe
//!    jobs are placed integrally on machines of their *native group*, core
//!    jobs on *core machines* in their class's *core group*, or either is
//!    declared *fractional* — pushed to machines two groups up. Fractional
//!    volume is tracked by the paper's `λ = (λ₁, λ₂, λ₃)` recurrence, with
//!    the exact transition `λ₃' = λ₂ + max(0, λ₃ − Σ_retiring A_i)`;
//!    feasibility requires `λ₁ = λ₂ = 0` and a vanishing final `λ₃`.
//! 3. **Convert** the relaxed schedule into a regular one (Lemma 2.8's
//!    constructive proof): fractional core jobs either ride along a fringe
//!    job of their class (`F₁`), travel as a sealed *container* with one
//!    setup (`F₂`), or stream class-sorted through the greedy fill (`F₃`);
//!    the greedy fill pours the item sequence into each group's retiring
//!    machines.
//! 4. **Lift** the schedule back to the original instance
//!    ([`sst_core::simplify::Simplified::lift_schedule`]).
//!
//! The paper's DP has `(nmK)^{poly(1/ε)}` states — with exponents like
//! `ε⁻¹¹` it is not executable verbatim for any useful `ε`. Step 2 explores
//! exactly the paper's state components `(g, k, ι, ξ, µ, λ)` as a
//! depth-first search with a failed-state memo (a reachability search over
//! the same graph, visiting only reachable states and each at most once),
//! which preserves the decision exactly and is practical for the instance
//! sizes the E2 experiment (`e2_ptas` in `crates/bench/src/lib.rs`)
//! certifies against exact optima.

use std::collections::{BTreeMap, HashSet};

use sst_core::bounds::uniform_lower_bound;
use sst_core::cancel::CancelToken;
use sst_core::dual::{geometric_search, Decision};
use sst_core::groups::SpeedGroups;
use sst_core::instance::UniformInstance;
use sst_core::ratio::Ratio;
use sst_core::schedule::{uniform_makespan, Schedule};
use sst_core::simplify::{simplify, Simplified};

/// Search nodes between cancel polls.
const CANCEL_CHECK_MASK: u64 = 0xFF;

/// Cap on the failed-state memo of one relaxed-schedule search. A full
/// memo ends the search as the node limit does: every further node fails.
/// A key holds one `(speed, load, flag)` triple per active machine; a full
/// memo on a 48-job, 5-machine production line peaked at about 24 MiB.
const FAILED_MEMO_LIMIT: usize = 1 << 16;

/// Tuning parameters of the PTAS.
#[derive(Debug, Clone, Copy)]
pub struct PtasConfig {
    /// Accuracy `ε = 1/q`; `q` must be a power of two ≥ 2.
    pub q: u64,
    /// Cap on relaxed-schedule search states per decision call. Exceeding
    /// it makes the decision answer `Infeasible`, which can only push the
    /// binary search to a larger (still valid) guess — soundness is kept,
    /// the `(1+ε)` quality claim is certified only for completed searches.
    /// A search whose failed-state memo fills up (a fixed cap of 2¹⁶
    /// states) gives up the same way.
    pub node_limit: u64,
}

impl Default for PtasConfig {
    fn default() -> Self {
        PtasConfig { q: 2, node_limit: 2_000_000 }
    }
}

/// Result of the full PTAS pipeline.
#[derive(Debug, Clone)]
pub struct PtasResult {
    /// The schedule for the original instance.
    pub schedule: Schedule,
    /// Its exact makespan.
    pub makespan: Ratio,
    /// The smallest grid guess the decision procedure accepted.
    pub t_star: Ratio,
}

/// One unit of placement work in the relaxed-schedule search.
#[derive(Debug, Clone)]
struct Item {
    /// Job id in the *simplified* instance.
    job: usize,
    /// Size in the simplified instance.
    size: u64,
    /// `Some(k)` for a core job of class `k`; `None` for a fringe job.
    core_class: Option<usize>,
}

/// Static preparation shared by the search and the conversion.
struct Prep {
    simp: Simplified,
    groups: SpeedGroups,
    /// Per group: items to place while processing that group (core classes
    /// first, grouped and ordered by class id, then fringe jobs), sizes
    /// non-increasing within each block.
    items_by_group: BTreeMap<i64, Vec<Item>>,
    /// Per class of the simplified instance: does it own a fringe job?
    has_fringe: Vec<bool>,
    /// Active machine ids per group (machines of that group).
    machines_of_group: BTreeMap<i64, Vec<usize>>,
    /// Machines retiring after each group (`M_g \ M_{g+1}`, i.e. base g−1).
    retiring_after: BTreeMap<i64, Vec<usize>>,
    /// Capacity `t1·v_i` per simplified machine.
    caps: Vec<Ratio>,
}

/// Outcome of a successful relaxed-schedule search.
struct RelaxedOutcome {
    /// Integral machine per simplified job (`usize::MAX` = fractional).
    assignment: Vec<usize>,
    /// Fractional jobs per source group.
    fractional: BTreeMap<i64, Vec<usize>>,
}

fn prepare(inst: &UniformInstance, t: Ratio, q: u64, inflation_exp: u32) -> Option<Prep> {
    let simp = simplify(inst, t, q);
    // Capacity bound: t_scaled·(1+ε)^e. The lemmas guarantee a relaxed
    // schedule exists at e = 5 whenever the original instance has a
    // schedule of makespan ≤ t; smaller e tightens the produced schedule
    // without affecting soundness (see decide_uniform).
    let t_cap = simp.t_scaled.mul(Ratio::new(q + 1, q).pow(inflation_exp));
    let s = simp.instance.clone();
    let groups = SpeedGroups::new(&s, q, t_cap);
    let g_max = groups.max_group();

    let mut has_fringe = vec![false; s.num_classes()];
    // First pass: fringe flags (needed before ξ surcharges are decided).
    for j in 0..s.n() {
        let job = s.job(j);
        if !groups.is_core_job(job, s.setup(job.class)) {
            has_fringe[job.class] = true;
        }
    }
    let mut per_group: BTreeMap<i64, (BTreeMap<usize, Vec<Item>>, Vec<Item>)> = BTreeMap::new();
    for j in 0..s.n() {
        let job = s.job(j);
        let setup = s.setup(job.class);
        let item = |core| Item { job: j, size: job.size, core_class: core };
        if groups.is_core_job(job, setup) {
            let g = groups.core_group(setup).expect("core jobs exist only for s > 0");
            if g > g_max {
                return None; // neither core nor fringe machines exist for k
            }
            per_group
                .entry(g)
                .or_default()
                .0
                .entry(job.class)
                .or_default()
                .push(item(Some(job.class)));
        } else {
            let g = match groups.native_group(job.size) {
                Some(g) => g,
                None => continue, // size 0 after simplification cannot occur,
                                  // but a free job would be placeable anywhere
            };
            if g > g_max {
                return None; // huge for every machine
            }
            per_group.entry(g).or_default().1.push(item(None));
        }
    }
    let mut items_by_group: BTreeMap<i64, Vec<Item>> = BTreeMap::new();
    for (g, (core_by_class, mut fringe)) in per_group {
        let mut v = Vec::new();
        for (_k, mut jobs) in core_by_class {
            jobs.sort_by_key(|j| std::cmp::Reverse(j.size));
            v.extend(jobs);
        }
        fringe.sort_by_key(|j| std::cmp::Reverse(j.size));
        v.extend(fringe);
        items_by_group.insert(g, v);
    }

    let mut machines_of_group = BTreeMap::new();
    let mut retiring_after: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for g in 0..=g_max {
        machines_of_group.insert(g, groups.machines_of_group(g));
        retiring_after.insert(g, Vec::new());
    }
    for i in 0..s.m() {
        let (base, _) = groups.machine_groups(i);
        // Active in groups base and base+1; retires after group base+1.
        retiring_after.entry(base + 1).or_default().push(i);
    }
    let caps: Vec<Ratio> = (0..s.m()).map(|i| t_cap.mul_int(s.speed(i))).collect();
    Some(Prep { simp, groups, items_by_group, has_fringe, machines_of_group, retiring_after, caps })
}

/// Hashable search-state key. Only active machines matter: retired loads
/// are folded into λ₃ and not-yet-active machines are all at load zero.
#[derive(Hash, PartialEq, Eq)]
struct StateKey {
    group: i64,
    idx: usize,
    machines: Vec<(u64, u64, bool)>,
    xi: u64,
    lambda: (u64, u64, u64, u64), // λ₁, λ₂ (scaled ints), λ₃ (num, den)
}

struct Search<'a> {
    prep: &'a Prep,
    loads: Vec<u64>,
    /// Setup already paid on machine `i` for the class currently streaming.
    flags: Vec<bool>,
    /// Classes whose fractional-setup surcharge already went into λ₁ (ξ).
    xi: Vec<bool>,
    assignment: Vec<usize>,
    fractional: BTreeMap<i64, Vec<usize>>,
    failed: HashSet<StateKey>,
    /// The search gives up once `failed` holds this many states.
    memo_limit: usize,
    nodes: u64,
    node_limit: u64,
    /// Polled every 256 nodes; once it fires every node fails, so the
    /// search unwinds without exploring further.
    cancel: &'a CancelToken,
    g_max: i64,
}

impl Search<'_> {
    fn key(&self, g: i64, idx: usize, l1: u64, l2: u64, l3: Ratio) -> StateKey {
        let mut machines: Vec<(u64, u64, bool)> = self
            .prep
            .machines_of_group
            .get(&g)
            .map(|ms| {
                ms.iter()
                    .map(|&i| (self.prep.simp.instance.speed(i), self.loads[i], self.flags[i]))
                    .collect()
            })
            .unwrap_or_default();
        machines.sort_unstable();
        // ξ of the class currently streaming (if any).
        let cur_xi = self
            .prep
            .items_by_group
            .get(&g)
            .and_then(|v| v.get(idx))
            .and_then(|it| it.core_class)
            .map(|k| u64::from(self.xi[k]))
            .unwrap_or(0);
        StateKey { group: g, idx, machines, xi: cur_xi, lambda: (l1, l2, l3.numer(), l3.denom()) }
    }

    /// Explores the decision at `(group g, item idx)` given λ carried in.
    /// On success, `assignment`/`fractional` describe a relaxed schedule.
    fn run(&mut self, g: i64, idx: usize, l1: u64, l2: u64, l3: Ratio) -> bool {
        if self.nodes >= self.node_limit
            || self.failed.len() >= self.memo_limit
            || (self.nodes & CANCEL_CHECK_MASK == 0 && self.cancel.is_cancelled())
        {
            return false;
        }
        self.nodes += 1;
        let items_len = self.prep.items_by_group.get(&g).map(|v| v.len()).unwrap_or(0);
        if idx >= items_len {
            // Transition after group g: retire machines, fold λ.
            let mut free = Ratio::ZERO;
            for &i in self.prep.retiring_after.get(&g).map(|v| v.as_slice()).unwrap_or(&[]) {
                free = free.add(self.prep.caps[i].saturating_sub(Ratio::from_int(self.loads[i])));
            }
            let l3_next = Ratio::from_int(l2).add(l3.saturating_sub(free));
            if g == self.g_max {
                // End state (paper: λ'₁ = λ'₂ = 0, λ'₃ absorbed): fractional
                // choices were disallowed in groups G−1 and G, so l1 = 0 and
                // the folded pool must vanish.
                return l1 == 0 && l3_next.is_zero();
            }
            return self.descend(g + 1, 0, 0, l1, l3_next);
        }
        let item = self.prep.items_by_group[&g][idx].clone();
        let setup = item.core_class.map(|k| self.prep.simp.instance.setup(k)).unwrap_or(0);
        // Flags describe the current class only: reset at class boundaries.
        let boundary =
            idx == 0 || self.prep.items_by_group[&g][idx - 1].core_class != item.core_class;
        let saved_flags = if boundary { Some(self.flags.clone()) } else { None };
        if boundary {
            self.flags.iter_mut().for_each(|f| *f = false);
        }

        let mut ok = false;
        // Option A: integral placement on an eligible active machine.
        let active = self.prep.machines_of_group[&g].clone();
        let mut tried: Vec<(u64, u64, bool)> = Vec::new();
        for &i in &active {
            let s_inst = &self.prep.simp.instance;
            if let Some(k) = item.core_class {
                if !self.prep.groups.is_core_machine(s_inst.speed(i), s_inst.setup(k)) {
                    continue;
                }
            }
            let sig = (s_inst.speed(i), self.loads[i], self.flags[i]);
            if tried.contains(&sig) {
                continue; // symmetry: an indistinguishable machine was tried
            }
            tried.push(sig);
            let pays_setup = item.core_class.is_some() && !self.flags[i];
            let add = item.size + if pays_setup { setup } else { 0 };
            if Ratio::from_int(self.loads[i] + add) > self.prep.caps[i] {
                continue;
            }
            let had_flag = self.flags[i];
            self.loads[i] += add;
            if item.core_class.is_some() {
                self.flags[i] = true;
            }
            self.assignment[item.job] = i;
            ok = self.descend(g, idx + 1, l1, l2, l3);
            if ok {
                return true;
            }
            self.loads[i] -= add;
            self.flags[i] = had_flag;
            self.assignment[item.job] = usize::MAX;
        }
        // Option B: fractional — pushed to groups ≥ g+2, hence forbidden in
        // the two fastest groups (their pools could never land).
        if g <= self.g_max - 2 {
            let mut surcharge = 0u64;
            let mut xi_set = false;
            if let Some(k) = item.core_class {
                if !self.prep.has_fringe[k] && !self.xi[k] {
                    surcharge = setup;
                    self.xi[k] = true;
                    xi_set = true;
                }
            }
            self.fractional.entry(g).or_default().push(item.job);
            ok = self.descend(g, idx + 1, l1 + item.size + surcharge, l2, l3);
            if !ok {
                self.fractional.get_mut(&g).expect("just pushed").pop();
                if xi_set {
                    self.xi[item.core_class.expect("surcharge implies core")] = false;
                }
            }
        }
        if !ok {
            if let Some(saved) = saved_flags {
                self.flags = saved;
            }
        }
        ok
    }

    /// Memoized recursion step. A failed `run` restores every state
    /// component it touched, so the key built on entry is the failed
    /// state's key; a full memo takes no more.
    fn descend(&mut self, g: i64, idx: usize, l1: u64, l2: u64, l3: Ratio) -> bool {
        let key = self.key(g, idx, l1, l2, l3);
        if self.failed.contains(&key) {
            return false;
        }
        if self.run(g, idx, l1, l2, l3) {
            true
        } else {
            if self.failed.len() < self.memo_limit {
                self.failed.insert(key);
            }
            false
        }
    }
}

/// Runs the relaxed-schedule search for prepared data with a failed-state
/// memo of at most `memo_limit` states; `None` also when `cancel` fires.
fn search_relaxed(
    prep: &Prep,
    node_limit: u64,
    memo_limit: usize,
    cancel: &CancelToken,
) -> Option<RelaxedOutcome> {
    let s = &prep.simp.instance;
    let g_max = prep.groups.max_group();
    // Items whose target group is negative can never be integral (machines
    // start at group 0); they seed λ as the paper's start state does.
    let mut pre_fractional: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    let mut xi = vec![false; s.num_classes()];
    let mut l2_seed = 0u64; // W_{-1}
    let mut l3_seed = Ratio::ZERO; // Σ_{g ≤ -2} W_g
    for (&g, items) in &prep.items_by_group {
        if g >= 0 {
            continue;
        }
        let mut w = 0u64;
        for it in items {
            w += it.size;
            if let Some(k) = it.core_class {
                if !prep.has_fringe[k] && !xi[k] {
                    w += s.setup(k);
                    xi[k] = true;
                }
            }
            pre_fractional.entry(g).or_default().push(it.job);
        }
        if g == -1 {
            l2_seed = w;
        } else {
            l3_seed = l3_seed.add(Ratio::from_int(w));
        }
    }
    let mut search = Search {
        prep,
        loads: vec![0; s.m()],
        flags: vec![false; s.m()],
        xi,
        assignment: vec![usize::MAX; s.n()],
        fractional: pre_fractional,
        failed: HashSet::new(),
        memo_limit,
        nodes: 0,
        node_limit,
        cancel,
        g_max,
    };
    if search.run(0, 0, 0, l2_seed, l3_seed) {
        Some(RelaxedOutcome { assignment: search.assignment, fractional: search.fractional })
    } else {
        None
    }
}

/// Lemma 2.8's constructive conversion: relaxed → regular schedule on the
/// *simplified* instance.
fn convert(prep: &Prep, outcome: &RelaxedOutcome) -> Schedule {
    let s = &prep.simp.instance;
    let g_max = prep.groups.max_group();
    let mut assignment = outcome.assignment.clone();

    // Group the fractional jobs per (source group, class | fringe).
    #[derive(Default)]
    struct Pool {
        core: BTreeMap<usize, Vec<usize>>,
        fringe: Vec<usize>,
    }
    let mut pools: BTreeMap<i64, Pool> = BTreeMap::new();
    for (&g, jobs) in &outcome.fractional {
        let pool = pools.entry(g).or_default();
        for &j in jobs {
            let job = s.job(j);
            if prep.groups.is_core_job(job, s.setup(job.class)) {
                pool.core.entry(job.class).or_default().push(j);
            } else {
                pool.fringe.push(j);
            }
        }
    }

    enum SeqItem {
        Job(usize),
        Container(Vec<usize>),
    }
    let mut queue: std::collections::VecDeque<SeqItem> = std::collections::VecDeque::new();
    let mut postponed: Vec<(usize, Vec<usize>)> = Vec::new(); // F₁ classes

    // Track machine loads incrementally (jobs only; the evaluator re-adds
    // setups when the final makespan is computed).
    let mut load = vec![0u64; s.m()];
    for (j, &i) in assignment.iter().enumerate() {
        if i != usize::MAX {
            load[i] += s.job(j).size;
        }
    }

    let q = prep.groups.q();
    for g in 0..=g_max {
        // Pools feeding this group's fill: F_{g−2}, plus everything below
        // −1 when g = 0.
        let feeding: Vec<i64> =
            if g == 0 { pools.keys().copied().filter(|&x| x <= -2).collect() } else { vec![g - 2] };
        for fg in feeding {
            if let Some(pool) = pools.remove(&fg) {
                for (k, jobs) in pool.core {
                    let total: u64 = jobs.iter().map(|&j| s.job(j).size).sum();
                    let setup = s.setup(k);
                    if total > setup.saturating_mul(q) {
                        // F₃: large enough to amortize its setups; streams
                        // through the queue sorted by class.
                        for j in jobs {
                            queue.push_back(SeqItem::Job(j));
                        }
                    } else if prep.has_fringe[k] {
                        postponed.push((k, jobs)); // F₁
                    } else {
                        queue.push_back(SeqItem::Container(jobs)); // F₂
                    }
                }
                for j in pool.fringe {
                    queue.push_back(SeqItem::Job(j));
                }
            }
        }
        // Pour the sequence into this group's retiring machines.
        for &i in prep.retiring_after.get(&g).map(|v| v.as_slice()).unwrap_or(&[]) {
            while Ratio::from_int(load[i]) < prep.caps[i] {
                let Some(item) = queue.pop_front() else { break };
                match item {
                    SeqItem::Job(j) => {
                        assignment[j] = i;
                        load[i] += s.job(j).size;
                    }
                    SeqItem::Container(jobs) => {
                        for &j in &jobs {
                            assignment[j] = i;
                            load[i] += s.job(j).size;
                        }
                    }
                }
            }
        }
    }
    // Safety net: exact λ bookkeeping leaves the queue empty for accepted
    // guesses; anything residual still becomes a *valid* schedule.
    if !queue.is_empty() {
        let fastest = (0..s.m()).max_by_key(|&i| s.speed(i)).expect("non-empty");
        while let Some(item) = queue.pop_front() {
            match item {
                SeqItem::Job(j) => assignment[j] = fastest,
                SeqItem::Container(jobs) => {
                    for j in jobs {
                        assignment[j] = fastest;
                    }
                }
            }
        }
    }
    // F₁: co-locate with a fringe job of the class (it exists and is placed
    // by now — integrally or via the pour).
    for (k, jobs) in postponed {
        let host = (0..s.n())
            .find(|&j| {
                s.job(j).class == k
                    && assignment[j] != usize::MAX
                    && !prep.groups.is_core_job(s.job(j), s.setup(k))
            })
            .map(|j| assignment[j])
            .unwrap_or_else(|| (0..s.m()).max_by_key(|&i| s.speed(i)).expect("non-empty"));
        for j in jobs {
            assignment[j] = host;
        }
    }
    debug_assert!(assignment.iter().all(|&i| i != usize::MAX));
    Schedule::new(assignment)
}

/// Ablation hook: the decision at one fixed capacity-inflation exponent
/// `(1+ε)^e` (the production path tries `e ∈ {1,3,5}`; see
/// [`decide_uniform`]). `e = 5` is the lemmas' completeness level.
pub fn decide_uniform_with_inflation(
    inst: &UniformInstance,
    t: Ratio,
    cfg: &PtasConfig,
    inflation_exp: u32,
) -> Decision<Schedule> {
    let Some(prep) = prepare(inst, t, cfg.q, inflation_exp) else {
        return Decision::Infeasible;
    };
    match search_relaxed(&prep, cfg.node_limit, FAILED_MEMO_LIMIT, &CancelToken::new()) {
        Some(outcome) => {
            let simplified_sched = convert(&prep, &outcome);
            Decision::Feasible(prep.simp.lift_schedule(&simplified_sched, inst))
        }
        None => Decision::Infeasible,
    }
}

/// The dual-approximation decision procedure at guess `t`: returns a
/// schedule for the *original* instance of makespan `≤ (1+O(ε))·t`, or
/// `Infeasible` certifying that no schedule of makespan `≤ t` exists
/// (modulo the node-limit caveat on [`PtasConfig`]).
pub fn decide_uniform(inst: &UniformInstance, t: Ratio, cfg: &PtasConfig) -> Decision<Schedule> {
    decide(inst, t, cfg, &CancelToken::new())
}

/// [`decide_uniform`], answering `Infeasible` once `cancel` fires.
fn decide(
    inst: &UniformInstance,
    t: Ratio,
    cfg: &PtasConfig,
    cancel: &CancelToken,
) -> Decision<Schedule> {
    // Acceptance semantics use the lemmas' full (1+ε)⁵ inflation (complete:
    // a schedule of makespan ≤ t implies a relaxed schedule there). The
    // *returned* schedule, however, comes from the tightest inflation level
    // whose search succeeds — same soundness, visibly better schedules
    // (the constants inside the lemmas' O(ε) are large).
    for e in [1u32, 3, 5] {
        let Some(prep) = prepare(inst, t, cfg.q, e) else {
            if e == 5 {
                return Decision::Infeasible;
            }
            continue;
        };
        if let Some(outcome) = search_relaxed(&prep, cfg.node_limit, FAILED_MEMO_LIMIT, cancel) {
            let simplified_sched = convert(&prep, &outcome);
            return Decision::Feasible(prep.simp.lift_schedule(&simplified_sched, inst));
        }
    }
    Decision::Infeasible
}

/// The full PTAS: geometric search over `(1+ε)`-spaced guesses between the
/// combinatorial lower bound and the LPT upper bound (Lemma 2.1 brackets
/// the optimum within a constant factor, keeping the grid short).
pub fn ptas_uniform(inst: &UniformInstance, cfg: &PtasConfig) -> PtasResult {
    ptas_uniform_budgeted(inst, cfg, &CancelToken::new()).expect("the token never fires")
}

/// [`ptas_uniform`] under a deadline: polls `cancel` in the relaxed-schedule
/// search (every 256 nodes, next to the node limit) and before every guess
/// of the geometric search. `None` once the token has fired; otherwise the
/// answer of [`ptas_uniform`].
pub fn ptas_uniform_budgeted(
    inst: &UniformInstance,
    cfg: &PtasConfig,
    cancel: &CancelToken,
) -> Option<PtasResult> {
    if inst.n() == 0 {
        return Some(PtasResult {
            schedule: Schedule::new(vec![]),
            makespan: Ratio::ZERO,
            t_star: Ratio::ZERO,
        });
    }
    let lb = uniform_lower_bound(inst);
    let (lpt_sched, lpt_ms) = crate::lpt::lpt_with_setups_makespan(inst);
    let ub = lpt_ms.max(lb);
    let step = Ratio::new(cfg.q + 1, cfg.q);
    let found = geometric_search(lb, ub, step, |t| {
        if cancel.is_cancelled() {
            Decision::Infeasible
        } else {
            decide(inst, t, cfg, cancel)
        }
    });
    if cancel.is_cancelled() {
        return None;
    }
    Some(match found {
        Some((t_star, schedule)) => {
            let makespan = uniform_makespan(inst, &schedule).expect("PTAS schedules are valid");
            // The decision never undershoots; if LPT happened to beat it on
            // a tiny instance, keep the better schedule.
            if lpt_ms < makespan {
                PtasResult { schedule: lpt_sched, makespan: lpt_ms, t_star }
            } else {
                PtasResult { schedule, makespan, t_star }
            }
        }
        None => PtasResult { schedule: lpt_sched, makespan: lpt_ms, t_star: ub },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::Job;

    fn cfg() -> PtasConfig {
        PtasConfig { q: 2, node_limit: 5_000_000 }
    }

    #[test]
    fn identical_machines_no_setups_reaches_near_optimum() {
        // 4 jobs of size 5 on 2 machines: optimum 10.
        let inst = UniformInstance::identical(2, vec![0], vec![Job::new(0, 5); 4]).unwrap();
        let res = ptas_uniform(&inst, &cfg());
        let exact = crate::exact::exact_uniform(&inst, 1 << 22);
        assert!(exact.complete);
        let ratio = res.makespan.to_f64() / exact.makespan.to_f64();
        assert!(ratio <= 2.6, "ratio {ratio} too large for q=2 (1+O(ε) budget)");
    }

    #[test]
    fn setups_are_respected() {
        let inst = UniformInstance::identical(
            2,
            vec![4, 4],
            vec![Job::new(0, 3), Job::new(0, 3), Job::new(1, 3), Job::new(1, 3)],
        )
        .unwrap();
        let res = ptas_uniform(&inst, &cfg());
        let exact = crate::exact::exact_uniform(&inst, 1 << 22);
        assert!(exact.complete);
        assert_eq!(exact.makespan, Ratio::new(10, 1)); // one class per machine
        let ratio = res.makespan.to_f64() / exact.makespan.to_f64();
        assert!(ratio <= 2.6, "ratio {ratio}");
    }

    #[test]
    fn speed_spread_instance() {
        let inst = UniformInstance::new(
            vec![1, 2, 8],
            vec![2, 5],
            vec![Job::new(0, 16), Job::new(0, 2), Job::new(1, 10), Job::new(1, 5), Job::new(0, 1)],
        )
        .unwrap();
        let res = ptas_uniform(&inst, &cfg());
        let exact = crate::exact::exact_uniform(&inst, 1 << 23);
        assert!(exact.complete);
        let ratio = res.makespan.to_f64() / exact.makespan.to_f64();
        assert!(ratio <= 2.6, "ratio {ratio} vs exact {}", exact.makespan);
        assert!(res.t_star >= uniform_lower_bound(&inst));
    }

    #[test]
    fn decision_is_monotone_on_a_sample() {
        let inst = UniformInstance::new(
            vec![1, 3],
            vec![3],
            vec![Job::new(0, 4), Job::new(0, 6), Job::new(0, 2)],
        )
        .unwrap();
        let c = cfg();
        let lb = uniform_lower_bound(&inst);
        let mut last_feasible = false;
        for mult in 1..=8u64 {
            let t = lb.mul_int(mult);
            let d = decide_uniform(&inst, t, &c).is_feasible();
            assert!(!last_feasible || d, "feasibility flipped off at {mult}×lb");
            last_feasible = last_feasible || d;
        }
        assert!(last_feasible, "decision never accepted even at 8×lb");
    }

    #[test]
    fn single_machine_is_exact() {
        let inst = UniformInstance::new(
            vec![3],
            vec![2, 7],
            vec![Job::new(0, 5), Job::new(1, 8), Job::new(0, 1)],
        )
        .unwrap();
        let res = ptas_uniform(&inst, &cfg());
        // Only one machine: everything serial = (5+8+1+2+7)/3.
        assert_eq!(res.makespan, Ratio::new(23, 3));
    }

    #[test]
    fn finer_epsilon_does_not_hurt_much() {
        let inst = UniformInstance::new(
            vec![2, 3],
            vec![3, 1],
            vec![Job::new(0, 6), Job::new(0, 4), Job::new(1, 5), Job::new(1, 7)],
        )
        .unwrap();
        let coarse = ptas_uniform(&inst, &PtasConfig { q: 2, node_limit: 5_000_000 });
        let fine = ptas_uniform(&inst, &PtasConfig { q: 4, node_limit: 5_000_000 });
        assert!(
            fine.makespan.to_f64() <= coarse.makespan.to_f64() * 1.51,
            "q=4 ({}) much worse than q=2 ({})",
            fine.makespan,
            coarse.makespan
        );
    }

    /// The race's PTAS configuration (`PtasSolver`).
    fn race_cfg() -> PtasConfig {
        PtasConfig { q: 4, node_limit: 1 << 22 }
    }

    #[test]
    fn a_never_firing_token_keeps_the_answer() {
        let inst = sst_gen::scenarios::production_line(48, 5, 6, 3);
        let res = ptas_uniform_budgeted(&inst, &race_cfg(), &CancelToken::new())
            .expect("a never-firing token answers");
        // Pinned from `ptas_uniform` as it was before it polled a token:
        // polling must not change the answer.
        let want = [
            1, 2, 2, 2, 1, 1, 2, 2, 4, 4, 0, 2, 2, 2, 0, 1, 2, 2, 0, 0, 1, 1, 4, 4, 0, 2, 2, 0, 4,
            0, 4, 4, 4, 2, 1, 4, 2, 4, 2, 2, 1, 0, 4, 2, 2, 1, 4, 2,
        ];
        assert_eq!(res.schedule.assignment(), want);
        assert_eq!((res.makespan, res.t_star), (Ratio::new(708, 1), Ratio::new(508, 1)));
    }

    #[test]
    fn a_fired_token_stops_the_search() {
        // Without a token this instance searches for about 60 ms in a
        // release build and 0.5 s in a debug one (its searches fill the
        // failed-state memo and give up). With a fired token the search
        // unwinds at its next poll, within microseconds; the time bound is
        // generous enough that only a search ignoring the token misses it.
        let inst = sst_gen::scenarios::production_line(48, 5, 6, 30);
        let bound = std::time::Duration::from_secs(3);
        let fired = CancelToken::new();
        fired.cancel();
        let t0 = std::time::Instant::now();
        assert!(ptas_uniform_budgeted(&inst, &race_cfg(), &fired).is_none());
        assert!(t0.elapsed() < bound, "{:?}", t0.elapsed());
        // A deadline that passes mid-search unwinds within a few polls.
        let deadline = CancelToken::with_deadline(std::time::Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        assert!(ptas_uniform_budgeted(&inst, &race_cfg(), &deadline).is_none());
        assert!(t0.elapsed() < bound, "{:?}", t0.elapsed());
    }

    #[test]
    fn a_full_failed_memo_ends_the_search() {
        // A decision search on the instance pinned above that passes
        // through failed states before it succeeds: under the real cap it
        // finds a relaxed schedule; with room for one failed state it
        // gives up as it does at the node limit.
        let inst = sst_gen::scenarios::production_line(48, 5, 6, 3);
        let cfg = race_cfg();
        let prep = prepare(&inst, Ratio::new(552, 1), cfg.q, 1).expect("prepares");
        let never = CancelToken::new();
        assert!(search_relaxed(&prep, cfg.node_limit, FAILED_MEMO_LIMIT, &never).is_some());
        assert!(search_relaxed(&prep, cfg.node_limit, 1, &never).is_none());
    }

    #[test]
    fn produces_valid_schedules_on_stress_mix() {
        let jobs: Vec<Job> = (0..12).map(|x| Job::new(x % 3, 1 + ((x * 37) % 23) as u64)).collect();
        let inst = UniformInstance::new(vec![1, 4, 16], vec![6, 2, 11], jobs).unwrap();
        let res = ptas_uniform(&inst, &cfg());
        assert_eq!(res.schedule.n(), inst.n());
        // Quality versus the certified lower bound.
        let lb = uniform_lower_bound(&inst);
        let ratio = res.makespan.to_f64() / lb.to_f64();
        assert!(ratio <= crate::lpt::LPT_FACTOR + 1e-9, "worse than LPT bound: {ratio}");
    }
}
