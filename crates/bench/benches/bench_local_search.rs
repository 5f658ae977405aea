//! Tracker kernels: the incremental (tracker-based) local-search descent
//! and the annealer's proposal loop.
//!
//! The descent row runs from the greedy start of generated 200×10×20 and
//! 2000×50×100 unrelated instances. The O(n) full-recompute descent it
//! replaced is no longer built; its last timings on these two instances
//! are recorded in `ROADMAP.md`.
//!
//! The anneal row runs the race's annealer configuration (400 000
//! proposals) from the descent of the greedy schedule on the five integral
//! solve-complete families at 48×5×6, 16 instances each, and prints per
//! family the mean µs per anneal, the nanoseconds per proposal, the
//! proposals run, how many walks the stall stop ended, the plateau phase's
//! mean entry iteration (over the walks that entered it, and how many
//! did), its share of the proposals and its accept rate, and an FNV-1a
//! digest of every answer (schedule, `accepted`, `improvements`). Read the
//! µs per anneal first: a walk that stops earlier raises ns/proposal
//! without costing more. Timing is reported, not gated; the digest must
//! not change unless the walk itself is meant to.
//!
//! The deadline anneal row runs the same configuration from greedy, the
//! served start at that shape, on the four unrelated solve-deadline
//! families at 800×10×16, 16 instances each, where the stall stop's
//! window is twice the time to the walk's last new best, 20 000 to 80 000
//! proposals. It prints per family the mean µs per anneal, the proposals
//! run, how many walks the stall stop ended, the mean makespan of the
//! answers and their digest (same digest rule).
//!
//! The race-prologue row times the serial work before a served race's
//! members start — feature extraction and the model's greedy floor — on
//! the five solve-deadline families at 800×10×16, 16 instances each, and
//! prints per family the mean µs of each plus an FNV-1a digest of the
//! features, greedy schedules and greedy costs. As above, the timing is
//! reported and the digest must not change.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sst_algos::annealing::{anneal, AnnealConfig, AnnealExit};
use sst_algos::list::{greedy_uniform, greedy_unrelated};
use sst_algos::local_search::{improve, improve_unrelated};
use sst_core::instance::UnrelatedInstance;
use sst_core::model::{MachineModel, Uniform, Unrelated};
use sst_core::schedule::{unrelated_makespan, Schedule};
use sst_core::wire::fnv1a64;
use sst_gen::{scenarios, SetupWeight, UnrelatedParams};
use sst_portfolio::{extract_features, ProblemInstance};

fn params(n: usize, m: usize, k: usize) -> UnrelatedParams {
    UnrelatedParams {
        n,
        m,
        k,
        size_range: (1, 1000),
        machine_effect_quarters: (2, 12),
        noise_pct: 25,
        setups: SetupWeight::Moderate,
        inf_pct: 0,
        seed: 42,
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_search_descent");
    g.sample_size(10);
    for &(n, m, k) in &[(200usize, 10usize, 20usize), (2000, 50, 100)] {
        let inst = sst_gen::unrelated(&params(n, m, k));
        let start = greedy_unrelated(&inst);
        let label = format!("{n}x{m}x{k}");
        g.bench_with_input(
            BenchmarkId::new("incremental", &label),
            &(&inst, &start),
            |b, (inst, start)| b.iter(|| improve_unrelated(inst, start, 10_000)),
        );
    }
    g.finish();
}

/// Instances per family in the anneal row.
const ANNEAL_INSTANCES: u64 = 16;

/// Time, proposal and plateau-phase totals of one family's anneals, and
/// the running digest of their answers.
#[derive(Default)]
struct AnnealRow {
    nanos: u128,
    anneals: usize,
    proposals: usize,
    /// Walks that entered the plateau phase, and the sum of their entry
    /// iterations.
    plateau_walks: usize,
    plateau_entries: usize,
    plateau_proposals: usize,
    plateau_accepted: usize,
    /// Walks the stall stop ended.
    stalled: usize,
    digest: Vec<u8>,
}

impl AnnealRow {
    /// Anneals `inst` from `start` under `cfg`; returns the answer.
    fn run<M: MachineModel>(
        &mut self,
        inst: &M::Instance,
        start: &Schedule,
        cfg: &AnnealConfig,
    ) -> Schedule {
        let t0 = Instant::now();
        let res = anneal::<M>(inst, start, cfg);
        self.nanos += t0.elapsed().as_nanos();
        self.anneals += 1;
        self.proposals += res.proposals;
        self.stalled += usize::from(res.exit == AnnealExit::Stalled);
        if let Some(entry) = res.plateau_entry {
            self.plateau_walks += 1;
            self.plateau_entries += entry;
            self.plateau_proposals += res.proposals - entry;
            self.plateau_accepted += res.plateau_accepted;
        }
        for &i in res.schedule.assignment() {
            self.digest.extend_from_slice(&(i as u32).to_le_bytes());
        }
        for v in [res.accepted, res.improvements] {
            self.digest.extend_from_slice(&(v as u64).to_le_bytes());
        }
        res.schedule
    }
}

/// The race's annealer configuration.
fn served_config() -> AnnealConfig {
    AnnealConfig { iterations: 400_000, seed: 41, ..AnnealConfig::default() }
}

/// Instance `seed` of an unrelated scenario family ("unrelated" and
/// "unrelated-correlated" are both the correlated generator's defaults).
fn unrelated_family(family: &str, n: usize, m: usize, k: usize, seed: u64) -> UnrelatedInstance {
    match family {
        "compute-cluster" => scenarios::compute_cluster(n, m, k, seed),
        "print-shop" => scenarios::print_shop(n, m, k, seed),
        "ci-build-farm" => scenarios::ci_build_farm(n, m, k, seed),
        _ => sst_gen::unrelated(&UnrelatedParams { n, m, k, seed, ..Default::default() }),
    }
}

/// Anneals `inst` from the descent of `greedy`, as the race does, into
/// `row`.
fn anneal_from_descent<M: MachineModel>(
    row: &mut AnnealRow,
    inst: &M::Instance,
    greedy: &Schedule,
) {
    let start = improve::<M>(inst, greedy, usize::MAX).schedule;
    row.run::<M>(inst, &start, &served_config());
}

fn anneal_row(_c: &mut Criterion) {
    let (n, m, k) = (48, 5, 6);
    let mut all = Vec::new();
    for family in [
        "production-line",
        "compute-cluster",
        "print-shop",
        "ci-build-farm",
        "unrelated-correlated",
    ] {
        let mut row = AnnealRow::default();
        for seed in 1..=ANNEAL_INSTANCES {
            if family == "production-line" {
                let inst = scenarios::production_line(n, m, k, seed);
                anneal_from_descent::<Uniform>(&mut row, &inst, &greedy_uniform(&inst));
                continue;
            }
            let inst = unrelated_family(family, n, m, k, seed);
            anneal_from_descent::<Unrelated>(&mut row, &inst, &greedy_unrelated(&inst));
        }
        let ratio = |a: usize, b: usize| a as f64 / b.max(1) as f64;
        println!(
            "anneal_400k/{family:<22} {:>8.1} us/anneal  {:>6.1} ns/proposal  proposals {:>8}  \
             stalled {:>2}/{}  plateau entry {:>7.0} ({:>2}/{}) share {:>5.1} %  \
             accept {:>5.2} %  digest {:016x}",
            row.nanos as f64 / 1e3 / row.anneals.max(1) as f64,
            row.nanos as f64 / row.proposals.max(1) as f64,
            row.proposals,
            row.stalled,
            row.anneals,
            ratio(row.plateau_entries, row.plateau_walks),
            row.plateau_walks,
            row.anneals,
            100.0 * ratio(row.plateau_proposals, row.proposals),
            100.0 * ratio(row.plateau_accepted, row.plateau_proposals),
            fnv1a64(&row.digest),
        );
        all.extend_from_slice(&row.digest);
    }
    println!("anneal_400k/all-families digest {:016x}", fnv1a64(&all));
}

fn anneal_deadline_row(_c: &mut Criterion) {
    let (n, m, k) = (800, 10, 16);
    let mut all = Vec::new();
    for family in ["compute-cluster", "print-shop", "ci-build-farm", "unrelated"] {
        let mut row = AnnealRow::default();
        let mut makespans = 0u64;
        for seed in 1..=ANNEAL_INSTANCES {
            let inst = unrelated_family(family, n, m, k, seed);
            let answer = row.run::<Unrelated>(&inst, &greedy_unrelated(&inst), &served_config());
            makespans += unrelated_makespan(&inst, &answer).expect("the annealer keeps it valid");
        }
        println!(
            "anneal_400k/{n}x{m}x{k}/{family:<16} {:>8.1} us/anneal  proposals {:>8}  \
             stalled {:>2}/{}  mean makespan {:>8.1}  digest {:016x}",
            row.nanos as f64 / 1e3 / row.anneals.max(1) as f64,
            row.proposals,
            row.stalled,
            row.anneals,
            makespans as f64 / row.anneals.max(1) as f64,
            fnv1a64(&row.digest),
        );
        all.extend_from_slice(&row.digest);
    }
    println!("anneal_400k/{n}x{m}x{k}/all-families digest {:016x}", fnv1a64(&all));
}

fn race_prologue_row(_c: &mut Criterion) {
    let (n, m, k) = (800, 10, 16);
    let mut all = Vec::new();
    for family in ["production-line", "compute-cluster", "print-shop", "ci-build-farm", "unrelated"]
    {
        let (mut features_ns, mut greedy_ns) = (0u128, 0u128);
        let mut digest = Vec::new();
        for seed in 1..=ANNEAL_INSTANCES {
            let inst = match family {
                "production-line" => {
                    ProblemInstance::Uniform(scenarios::production_line(n, m, k, seed))
                }
                _ => ProblemInstance::Unrelated(unrelated_family(family, n, m, k, seed)),
            };
            let t0 = Instant::now();
            let feat = extract_features(&inst);
            let t1 = Instant::now();
            let floor = inst.greedy();
            features_ns += (t1 - t0).as_nanos();
            greedy_ns += t1.elapsed().as_nanos();
            let text = format!("{feat:?} {:?} {:?}", floor.solution, floor.cost);
            digest.extend_from_slice(text.as_bytes());
        }
        let per = |ns: u128| ns as f64 / 1e3 / ANNEAL_INSTANCES as f64;
        println!(
            "race_prologue/{n}x{m}x{k}/{family:<16} features {:>7.1} us  greedy {:>7.1} us  digest {:016x}",
            per(features_ns),
            per(greedy_ns),
            fnv1a64(&digest),
        );
        all.extend_from_slice(&digest);
    }
    println!("race_prologue/{n}x{m}x{k}/all-families digest {:016x}", fnv1a64(&all));
}

criterion_group!(benches, bench, anneal_row, anneal_deadline_row, race_prologue_row);
criterion_main!(benches);
