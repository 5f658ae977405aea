//! Warm re-solve vs from-scratch solve after small instance deltas — the
//! session path's reason to exist, measured and gated.
//!
//! Scenario: a session holds an instance and an incumbent accumulated
//! from earlier traffic (modeled as a deterministic iterated local
//! search); a delta batch touching ≤ 2% of the jobs arrives (arrivals,
//! departures, re-estimates — the `dynamic-queue` regime of `sst-gen`).
//! Both designs first **ingest** the batch — materialize the mutated
//! instance (`MachineModel::apply_deltas`, one batched rebuild; reported
//! as its own column since any consumer of the delta stream pays it) —
//! and then answer. The timed *solve work* is what the session machinery
//! actually changes:
//!
//! * **warm** — `repair_schedule` alone: tracker structural edits plus
//!   greedy re-placement of the touched jobs, `O(m + log m)` per edit, no
//!   intermediate instance, no descent sweep. Its answer — the repaired
//!   incumbent — is exactly what the session `delta` verb returns;
//! * **scratch** — setup-aware greedy on the mutated instance and a full
//!   descent from it (the stateless pipeline's answer to the same
//!   mutation).
//!
//! The work is deterministic, so the **quality** gates cannot flake. Two
//! families are quality-gated: their mean warm makespan must stay
//! equal-or-better than the mean scratch makespan (the repaired incumbent
//! inherits the session's accumulated optimization, which the stateless
//! pipeline re-derives only partially) *and* their mean solve-work
//! speedup must stay above a conservative floor — the speedup side is a
//! wall-clock measurement, hardened against scheduler noise by taking
//! the best of [`TIMING_REPEATS`] identical runs per side and by the
//! floor sitting at half the idle-hardware ratio. The remaining families
//! are reported ungated — dense unrelated instances descend to
//! near-identical quality from any start, so there the repaired incumbent
//! lands within ~1% either side of the stateless answer; the serve path's
//! `solve` verb closes that gap by racing *both* floors (see
//! `race_observed`).
//!
//! A second section replays a `dynamic-queue` trace through the real
//! `Service` session verbs (create → delta → solve per step) and asserts
//! the repaired-incumbent floor per response — the serve-path half of the
//! same claim. It runs before the table, so a speedup gate that fires on
//! a noisy host still leaves the replay's assertions run.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sst_algos::list::{greedy_uniform, greedy_unrelated};
use sst_algos::local_search::improve;
use sst_algos::repair::repair_schedule;
use sst_core::delta::InstanceDelta;
use sst_core::model::{makespan_key, MachineModel, Uniform, Unrelated};
use sst_core::schedule::Schedule;
use sst_portfolio::protocol::{
    parse_response, session_request_to_json, Response, SessionRequest, SessionVerb,
};
use sst_portfolio::service::{testing, ServeConfig, Service};
use sst_portfolio::ProblemInstance;

const SEEDS: u64 = 5;
/// Delta batch size as a fraction of n: the "small change" regime.
const TOUCH_FRACTION: f64 = 0.02;
/// Conservative CI floor for the gated families' mean solve-work speedup;
/// the measured ratio — printed for the ROADMAP table — sits well above
/// it on idle hardware.
const SPEEDUP_FLOOR: f64 = 3.5;
/// Identical timed runs per measured side; the minimum is kept, so one
/// scheduler preemption inside a ~100 µs section cannot sink the gate.
const TIMING_REPEATS: usize = 3;

/// Runs `work` [`TIMING_REPEATS`] times and returns (best-run µs, last
/// result). The work is a pure function of its inputs, so repeats are
/// byte-identical and the minimum is the least-noise estimate.
fn timed_min<R>(mut work: impl FnMut() -> R) -> (f64, R) {
    let mut best_us = f64::INFINITY;
    let mut last = None;
    for _ in 0..TIMING_REPEATS {
        let t0 = Instant::now();
        let result = work();
        best_us = best_us.min(t0.elapsed().as_secs_f64() * 1e6);
        last = Some(result);
    }
    (best_us, last.expect("TIMING_REPEATS >= 1"))
}

/// A ≤ `TOUCH_FRACTION·n` delta batch: arrivals, departures and
/// re-estimates drawn like the dynamic-queue generator's mix.
fn delta_batch(n: usize, m: usize, k: usize, uniform_times: bool, seed: u64) -> Vec<InstanceDelta> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
    let budget = ((n as f64 * TOUCH_FRACTION) as usize).max(4);
    let times = |rng: &mut StdRng| -> Vec<u64> {
        if uniform_times {
            vec![rng.gen_range(1..=100)]
        } else {
            (0..m).map(|_| rng.gen_range(1..=100)).collect()
        }
    };
    let mut n_cur = n;
    let mut deltas = Vec::with_capacity(budget);
    for _ in 0..budget {
        let roll = rng.gen_range(0..100);
        deltas.push(if roll < 40 {
            n_cur += 1;
            InstanceDelta::AddJob { class: rng.gen_range(0..k), times: times(&mut rng) }
        } else if roll < 80 && n_cur > 2 {
            n_cur -= 1;
            InstanceDelta::RemoveJob { job: rng.gen_range(0..n_cur + 1) }
        } else {
            InstanceDelta::ResizeJob { job: rng.gen_range(0..n_cur), times: times(&mut rng) }
        });
    }
    deltas
}

struct Row {
    ingest_us: f64,
    warm_us: f64,
    scratch_us: f64,
    warm_ms: f64,
    scratch_ms: f64,
}

/// One warm-vs-scratch measurement, written once against the model trait.
fn measure<M: MachineModel>(
    base: &M::Instance,
    greedy: impl Fn(&M::Instance) -> Schedule,
    deltas: &[InstanceDelta],
) -> Row
where
    M::Instance: Clone,
{
    // The session's standing incumbent: what earlier session traffic left
    // behind — an iterated local search (descend, kick a few jobs,
    // descend again, keep the best; deterministic), i.e. genuinely more
    // optimization than one stateless pipeline run. The warm path's whole
    // point is that this accumulated work survives the deltas; the
    // stateless path starts from a construction every time.
    let n = M::n(base);
    let m = M::m(base);
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let mut incumbent = improve::<M>(base, &greedy(base), usize::MAX).schedule;
    let mut best = makespan_key::<M>(base, &incumbent).expect("valid");
    for _ in 0..8 {
        let mut kicked = incumbent.clone();
        for _ in 0..12 {
            let j = rng.gen_range(0..n);
            let i = rng.gen_range(0..m);
            let k = M::class_of(base, j);
            if M::job_time(base, i, j).is_some() && M::setup_time(base, i, k).is_some() {
                kicked.set(j, i);
            }
        }
        let cand = improve::<M>(base, &kicked, usize::MAX).schedule;
        let ms = makespan_key::<M>(base, &cand).expect("kicks keep feasibility");
        if ms < best {
            best = ms;
            incumbent = cand;
        }
    }

    // Shared ingest: one batched instance rebuild (both designs pay it —
    // the session to serve future requests, the stateless service to see
    // the mutated instance at all).
    let (ingest_us, mutated) = timed_min(|| M::apply_deltas(base, deltas).expect("valid batch"));

    // Warm solve work: the tracker repair alone — exactly what the
    // session's delta verb answers with. The repaired incumbent inherits
    // the session's accumulated optimization (no descent sweep needed; a
    // sweep over a 2000-job instance costs more than the whole repair).
    let (warm_us, out) =
        timed_min(|| repair_schedule::<M>(base, &incumbent, deltas).expect("valid batch"));
    let warm_ms = makespan_key::<M>(&mutated, &out.schedule).expect("valid");

    // Scratch solve work: fresh construction + descent.
    let (scratch_us, scratch) =
        timed_min(|| improve::<M>(&mutated, &greedy(&mutated), usize::MAX).schedule);
    let scratch_ms = makespan_key::<M>(&mutated, &scratch).expect("valid");

    Row {
        ingest_us,
        warm_us,
        scratch_us,
        warm_ms: M::key_to_f64(warm_ms),
        scratch_ms: M::key_to_f64(scratch_ms),
    }
}

struct FamilyRow {
    ingest_us: f64,
    warm_us: f64,
    scratch_us: f64,
    warm_ms_sum: f64,
    scratch_ms_sum: f64,
    wins: usize,
    ties: usize,
}

fn family_row(name: &str) -> FamilyRow {
    let mut acc = FamilyRow {
        ingest_us: 0.0,
        warm_us: 0.0,
        scratch_us: 0.0,
        warm_ms_sum: 0.0,
        scratch_ms_sum: 0.0,
        wins: 0,
        ties: 0,
    };
    for seed in 0..SEEDS {
        let row = match name {
            "production-line" => {
                let base = sst_gen::scenarios::production_line(2000, 10, 12, seed);
                let deltas = delta_batch(2000, 10, 12, true, seed);
                measure::<Uniform>(&base, greedy_uniform, &deltas)
            }
            "compute-cluster" => {
                let base = sst_gen::scenarios::compute_cluster(2000, 10, 40, seed);
                let deltas = delta_batch(2000, 10, 40, false, seed);
                measure::<Unrelated>(&base, greedy_unrelated, &deltas)
            }
            "print-shop" => {
                let base = sst_gen::scenarios::print_shop(2000, 10, 14, seed);
                let deltas = delta_batch(2000, 10, 14, false, seed);
                measure::<Unrelated>(&base, greedy_unrelated, &deltas)
            }
            "dynamic-queue" => {
                let params = sst_gen::DynamicQueueParams {
                    base: sst_gen::DynamicBase::Unrelated,
                    n: 2000,
                    m: 10,
                    k: 30,
                    steps: 1,
                    deltas_per_step: 40,
                    seed,
                    ..Default::default()
                };
                let (inst, trace) = sst_gen::dynamic_queue(&params);
                let sst_gen::DynamicInstance::Unrelated(base) = inst else { unreachable!() };
                measure::<Unrelated>(&base, greedy_unrelated, &trace[0].deltas)
            }
            other => panic!("unknown family {other}"),
        };
        println!(
            "    {name} seed {seed}: warm {:.1} vs scratch {:.1} ({:.1}us vs {:.1}us, ingest {:.1}us)",
            row.warm_ms, row.scratch_ms, row.warm_us, row.scratch_us, row.ingest_us
        );
        acc.ingest_us += row.ingest_us;
        acc.warm_us += row.warm_us;
        acc.scratch_us += row.scratch_us;
        acc.warm_ms_sum += row.warm_ms;
        acc.scratch_ms_sum += row.scratch_ms;
        if row.warm_ms < row.scratch_ms {
            acc.wins += 1;
        } else if row.warm_ms == row.scratch_ms {
            acc.ties += 1;
        }
    }
    acc.ingest_us /= SEEDS as f64;
    acc.warm_us /= SEEDS as f64;
    acc.scratch_us /= SEEDS as f64;
    acc
}

/// Families whose mean makespan must be equal-or-better warm AND whose
/// solve-work speedup is floor-gated in CI (margins verified comfortable
/// at the pinned seeds; the other families are reported ungated).
const GATED: [&str; 2] = ["production-line", "print-shop"];

fn warm_vs_scratch_table() {
    println!(
        "\nwarm re-solve vs from-scratch after a ≤{:.0}% delta batch (n=2000, m=10, mean over {SEEDS} seeds, full descents):",
        TOUCH_FRACTION * 100.0
    );
    for name in ["production-line", "compute-cluster", "print-shop", "dynamic-queue"] {
        let row = family_row(name);
        let speedup = row.scratch_us / row.warm_us;
        let quality = row.warm_ms_sum / row.scratch_ms_sum;
        println!(
            "  {name:<16} ingest {:>6.1} µs  warm {:>7.1} µs  scratch {:>8.1} µs  speedup {speedup:>5.1}×  mean-makespan ratio {quality:.4}  ({} wins / {} ties / {} losses)",
            row.ingest_us,
            row.warm_us,
            row.scratch_us,
            row.wins,
            row.ties,
            SEEDS as usize - row.wins - row.ties
        );
        if GATED.contains(&name) {
            assert!(
                row.warm_ms_sum <= row.scratch_ms_sum,
                "{name}: warm re-solve lost the mean-makespan gate ({} vs {})",
                row.warm_ms_sum,
                row.scratch_ms_sum
            );
            assert!(
                speedup >= SPEEDUP_FLOOR,
                "{name}: warm solve-work speedup collapsed ({speedup:.1}× < {SPEEDUP_FLOOR}×)"
            );
        }
    }
}

/// Replays a dynamic-queue trace through the service's session verbs —
/// with durability at `flush`, so every delta pays the write-ahead
/// journal append — and asserts the repaired-incumbent floor on every
/// solve response.
fn session_serve_replay() {
    let params = sst_gen::DynamicQueueParams {
        base: sst_gen::DynamicBase::Unrelated,
        n: 48,
        m: 5,
        k: 8,
        steps: 6,
        deltas_per_step: 3,
        seed: 11,
        ..Default::default()
    };
    let (inst, trace) = sst_gen::dynamic_queue(&params);
    let sst_gen::DynamicInstance::Unrelated(base) = inst else { unreachable!() };
    let data_dir = std::env::temp_dir().join(format!("sst-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    // One worker → strict FIFO over the lifecycle; the journal rides the
    // hot path (append before response), so the floor gates below also
    // certify that durability does not break the session contract.
    let svc = Service::start(ServeConfig {
        workers: 1,
        budget_ms: 25,
        data_dir: Some(data_dir.clone()),
        durability: sst_portfolio::Durability::Flush,
        ..Default::default()
    });
    let sink = Arc::new(Mutex::new(Vec::new()));
    let mut id = 0u64;
    let mut send = |verb: SessionVerb, svc: &Service| {
        let line = session_request_to_json(&SessionRequest { id, verb });
        id += 1;
        svc.dispatch(line, testing::writer_to(&sink));
    };
    send(SessionVerb::Create { sid: 1, instance: ProblemInstance::Unrelated(base) }, &svc);
    for step in &trace {
        send(SessionVerb::Delta { sid: 1, deltas: step.deltas.clone() }, &svc);
        send(
            SessionVerb::Solve { sid: 1, budget_ms: Some(25), top_k: Some(2), seed: Some(1) },
            &svc,
        );
    }
    let summary = svc.shutdown();
    assert_eq!(summary.errors, 0, "session replay must serve every request");
    let text = String::from_utf8(sink.lock().clone()).unwrap();
    let responses: Vec<Response> =
        text.lines().map(|l| parse_response(l).expect("parses")).collect();
    assert_eq!(responses.len(), 1 + 2 * trace.len());
    let mut floor = None;
    let mut floored_solves = 0usize;
    for resp in &responses[1..] {
        let Response::Ok { solver, makespan, .. } = resp else { panic!("{resp:?}") };
        if solver == "delta-repair" {
            floor = Some(*makespan);
        } else {
            let f = floor.expect("solve follows a delta");
            assert!(!f.better_than(makespan), "solve lost to its repaired floor");
            floored_solves += 1;
        }
    }
    assert!(
        summary.sessions.journal_appends > trace.len() as u64,
        "every create/delta must hit the journal under --durability flush"
    );
    let warm = summary.sessions.warm_hits;
    println!(
        "  session replay (durability=flush): {} delta steps, {floored_solves} floored solves, \
         {} journal appends ({} bytes), warm-hit rate {warm}/{}",
        trace.len(),
        summary.sessions.journal_appends,
        summary.sessions.journal_bytes,
        summary.sessions.warm_hits + summary.sessions.warm_misses,
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}

fn bench(c: &mut Criterion) {
    // The replay first: a fired speedup gate must not skip its floor
    // assertions.
    session_serve_replay();
    warm_vs_scratch_table();
    // Criterion tracking of the schedule-repair primitive itself.
    let base = sst_gen::scenarios::compute_cluster(400, 8, 24, 42);
    let incumbent = improve::<Unrelated>(&base, &greedy_unrelated(&base), usize::MAX).schedule;
    let deltas = delta_batch(400, 8, 24, false, 42);
    let mut g = c.benchmark_group("session_repair");
    g.bench_function("repair_schedule_400x8_8edits", |b| {
        b.iter(|| repair_schedule::<Unrelated>(&base, &incumbent, &deltas).expect("valid"))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
