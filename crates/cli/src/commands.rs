//! The `sst` subcommands, factored as library functions returning their
//! output as a `String` so tests drive them without a subprocess.

use crate::args::{ArgError, Args};
use rayon::prelude::*;
use sst_algos::cupt::solve_class_uniform_ptimes;
use sst_algos::exact::{exact_uniform, exact_unrelated};
use sst_algos::list::{greedy_uniform, greedy_unrelated};
use sst_algos::local_search::{improve_uniform, improve_unrelated};
use sst_algos::lpt::lpt_with_setups_makespan;
use sst_algos::ptas::{ptas_uniform, PtasConfig};
use sst_algos::ra::solve_ra_class_uniform;
use sst_algos::rounding::{solve_unrelated_randomized, RoundingConfig};
use sst_core::bounds::{uniform_lower_bound, unrelated_area_lower_bound, unrelated_lower_bound};
use sst_core::io;
use sst_core::schedule::{uniform_makespan, unrelated_makespan, Schedule};
use sst_core::timeline::{render_gantt, render_gantt_svg, Timeline};
use sst_gen::{SetupWeight, SpeedProfile, UniformParams, UnrelatedParams};
use sst_portfolio::{protocol, wire, ProblemInstance, SplittableInstance};

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub enum CliError {
    /// The command line does not fit the usage: an unknown command or
    /// flag, a missing argument, an unparseable flag value. `sst` exits 2
    /// and prints the command's [`usage`].
    Usage(String),
    /// The command ran and failed. `sst` exits 1.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Failed(format!("io error: {e}"))
    }
}

impl From<io::IoError> for CliError {
    fn from(e: io::IoError) -> Self {
        CliError::Failed(e.to_string())
    }
}

/// Loads an instance file, sniffing its format by the first byte (`S`
/// of the frame magic = packed container, anything else = JSON with a
/// `kind` field). Both formats go through the decoders `sst serve` uses
/// ([`wire::instance_from_container`], [`protocol::instance_from_doc`]),
/// so a file gets the errors a request would. Splittable-kind files share
/// the unrelated payload; the integral commands (solve, evaluate, info, …)
/// treat them as unrelated data — the split *solution space* is served by
/// `sst serve` (`instance.kind: "splittable"`).
pub fn load_instance(path: &str) -> Result<ProblemInstance, CliError> {
    let bytes = std::fs::read(path)?;
    if bytes.first() == Some(&sst_core::wire::MAGIC[0]) {
        return wire::instance_from_container(&bytes)
            .map_err(|e| CliError::Failed(format!("{path}: {e}")));
    }
    let text = String::from_utf8(bytes).map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
    Ok(protocol::instance_from_doc(Some(io::InstanceDoc::parse(&text)?))?)
}

/// `sst pack <in.json> <out.sst>` — converts an instance file to the
/// packed container format, preserving the kind tag.
pub fn pack(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    let input = args.pos(0, "instance.json")?;
    let output = args.pos(1, "out.sst")?;
    let inst = load_instance(input)?;
    let bytes = wire::instance_to_container(&inst);
    std::fs::write(output, &bytes)?;
    Ok(format!("packed {} instance {input} -> {output} ({} bytes)", inst.kind(), bytes.len()))
}

/// `sst unpack <in.sst> <out.json>` — converts a packed container back to
/// the JSON instance schema, preserving the kind tag.
pub fn unpack(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    let input = args.pos(0, "in.sst")?;
    let output = args.pos(1, "instance.json")?;
    let bytes = std::fs::read(input)?;
    let inst = wire::instance_from_container(&bytes)
        .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
    std::fs::write(output, protocol::instance_to_json(&inst, true))?;
    Ok(format!("unpacked {} instance {input} -> {output}", inst.kind()))
}

/// `sst help` — the usage text.
pub fn help() -> String {
    "sst — scheduling with setup times (Jansen, Maack, Mäcker 2019)

USAGE
  sst generate <family> --out FILE [--n N] [--m M] [--k K] [--seed S]
               [--setups light|moderate|heavy] [--format json|packed]
      families: uniform | identical | unrelated | ra | cupt |
                production-line | compute-cluster | print-shop |
                ci-build-farm | cdn-transcode | splittable-stress |
                dynamic-queue
      (cdn-transcode and splittable-stress write kind \"splittable\":
       the split model served by `sst serve`; dynamic-queue writes a
       base instance plus a timed delta trace — the session workload:
       [--base uniform|unrelated] [--steps S] [--deltas-per-step D])
  sst solve <instance.json> --algo ALGO [--q Q] [--seed S] [--out sched.json]
            [--polish steps]
      algos (uniform):   lpt | ptas | greedy | exact
      algos (unrelated): rounding | ra2 | cupt3 | greedy | exact
  sst evaluate <instance.json> <schedule.json>
  sst gantt <instance.json> <schedule.json> [--width W] [--svg FILE]
  sst info <instance.json>
  sst bound <instance.json> [--max-t T]
      separately certified lower bounds, one per line: combinatorial,
      area, assignment-LP, configuration-LP (the last is weaker when a
      guess hits a column or round limit)
  sst compare <instance.json> [--seed S] [--q Q] [--nodes N]
  sst sweep --family uniform|identical|unrelated|ra|cupt --algo ALGO
            [--n-list 20,40,80] [--m M] [--k K] [--seeds S] [--setups W]
      prints one CSV row per (n, seed), computed in parallel
  sst serve [--tcp HOST:PORT] [--workers N] [--top-k K] [--budget-ms MS]
            [--seed S] [--max-queue N] [--max-sessions N]
            [--fault-injection true]
            [--data-dir DIR] [--durability none|flush|fsync]
            [--session-lanes N] [--trace-out FILE|stderr]
      solver-portfolio service speaking NDJSON: one request object per
      line ({\"id\": .., \"instance\": {..}, \"budget_ms\": ..}), one
      response per line; instance.kind is uniform | unrelated |
      splittable (splittable responses carry per-class \"shares\"
      instead of an \"assignment\"); {\"metrics\": true} returns running
      latency percentiles, session-store stats and win-rate standings.
      Stateful sessions ride the same connection:
        {\"id\": 1, \"session\": {\"create\": {\"sid\": 7, \"instance\": {..}}}}
        {\"id\": 2, \"session\": {\"delta\": {\"sid\": 7, \"deltas\":
            [{\"add_job\": {\"class\": 0, \"times\": [..]}},
             {\"remove_job\": 3}]}}}
        {\"id\": 3, \"session\": {\"solve\": {\"sid\": 7, \"budget_ms\": 50}}}
        {\"id\": 4, \"session\": {\"close\": {\"sid\": 7}}}
      delta answers with the repaired incumbent (solver \"delta-repair\");
      solve races warm from that floor and can only improve on it. The
      store is LRU-bounded at --max-sessions. Session verbs run on
      --session-lanes one-worker lanes keyed by sid (per-session order
      preserved, distinct sessions concurrent). With --data-dir DIR
      sessions are durable: accepted verbs hit a write-ahead journal
      before the response, capacity spills LRU victims to snapshots
      instead of evicting them, and a restart with the same --data-dir
      recovers every live session by replay (--durability: none buffers
      until graceful exit, flush [default] pushes each append to the OS
      — survives SIGKILL — and fsync also survives power loss). The
      session store is sharded per lane, each shard behind its own
      lock, so distinct lanes never contend on a read; journal appends
      from concurrent lanes coalesce into group commits — one write
      and one flush/fsync per batch of up to 64 records. Responses
      still wait for their own record to be durable.
      Requests flow through a worker pool over one shared FIFO queue
      (adaptive top-k: a scored win-rate × recency ranking demotes
      members whose score decays). Beyond --max-queue pending requests
      (per lane for session verbs) the service answers
      with overload errors instead of queueing. --fault-injection true
      honors {\"kill_worker\": true} and process-aborting
      {\"crash\": true} chaos probes. Default reads stdin until EOF;
      --tcp serves every connection concurrently and prints the bound
      address first.
      --trace-out streams structured NDJSON trace events (enqueue,
      dequeue, race/solver spans, incumbents, journal appends,
      snapshots, recovery) to a file or stderr, non-blocking: under
      backpressure events are dropped and counted, never stalled on.
  sst pack <instance.json> <out.sst>
  sst unpack <in.sst> <instance.json>
      convert between the JSON instance schema and the packed binary
      container (kind-preserving; every command that reads an instance
      sniffs the format, so packed files work anywhere JSON does —
      `sst serve` additionally speaks packed request frames on the same
      socket as NDJSON, negotiated per message by the first byte)
  sst trace summarize <trace.ndjson>
      aggregates a --trace-out file into per-stage latency percentiles
      (queue-wait, decode, solver, total, journal-append, …), per-solver
      standings (runs, outcomes, incumbent improvements, time to first
      incumbent) and the dropped-event count.
  sst lint [--root DIR] [--allowlist FILE]
      workspace convention lint (CI gate): no raw std::sync locks
      outside crates/compat (all locking funnels through the
      lockdep-instrumented compat parking_lot), every non-Relaxed
      atomic ordering justified by an `ordering:` comment, no
      unwrap/expect in serve-path non-test code, and no sleeping
      outside tests. Suppress with `lint: allow(<rule>)` inline
      comments or entries in lint.allow at the workspace root; stale
      allowlist entries are reported.
  sst help
"
    .to_string()
}

/// The text printed after a usage error in `command`: its synopsis from
/// [`help`], or the whole help when the command is missing or unknown.
pub fn usage(command: Option<&str>) -> String {
    let help = help();
    let names_command = |line: &&str| {
        let name = line.strip_prefix("  sst ").and_then(|rest| rest.split(' ').next());
        name.is_some() && name == command
    };
    let mut lines = help.lines().skip_while(|l| !names_command(l));
    let Some(first) = lines.next() else { return help };
    // A synopsis continues on lines indented past its description's.
    let rest = lines.take_while(|l| l.starts_with("        "));
    ["usage:", first].into_iter().chain(rest).collect::<Vec<_>>().join("\n")
}

/// The flags `sst serve` accepts; its synopsis in [`help`] names exactly
/// these.
const SERVE_FLAGS: &[&str] = &[
    "tcp",
    "workers",
    "top-k",
    "budget-ms",
    "seed",
    "max-queue",
    "max-sessions",
    "fault-injection",
    "data-dir",
    "durability",
    "session-lanes",
    "trace-out",
];

/// `sst serve` — the portfolio service (see `sst_portfolio::service`).
/// Stdin mode returns the final metrics summary as its output; TCP mode
/// runs until killed.
pub fn serve(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(SERVE_FLAGS)?;
    let data_dir = args.flag("data-dir").map(std::path::PathBuf::from);
    let durability = match args.flag("durability") {
        None => sst_portfolio::Durability::default(),
        Some(_) if data_dir.is_none() => {
            return Err(CliError::Failed("--durability requires --data-dir".into()))
        }
        Some(s) => sst_portfolio::Durability::parse(s).ok_or_else(|| {
            CliError::Failed(format!("unknown --durability '{s}' (none|flush|fsync)"))
        })?,
    };
    let trace = match args.flag("trace-out") {
        None => None,
        Some("stderr") => Some(sst_core::telemetry::TraceSink::to_stderr()),
        Some(path) => Some(
            sst_core::telemetry::TraceSink::to_file(std::path::Path::new(path))
                .map_err(|e| CliError::Failed(format!("--trace-out {path}: {e}")))?,
        ),
    };
    let defaults = sst_portfolio::service::ServeConfig::default();
    let cfg = sst_portfolio::service::ServeConfig {
        workers: args.flag_parse("workers", defaults.workers)?,
        top_k: args.flag_parse("top-k", defaults.top_k)?,
        budget_ms: args.flag_parse("budget-ms", defaults.budget_ms)?,
        seed: args.flag_parse("seed", defaults.seed)?,
        max_queue: args.flag_parse("max-queue", defaults.max_queue)?,
        max_sessions: args.flag_parse("max-sessions", defaults.max_sessions)?,
        fault_injection: args.flag_parse("fault-injection", defaults.fault_injection)?,
        data_dir,
        durability,
        session_lanes: args.flag_parse("session-lanes", defaults.session_lanes)?,
        trace,
    };
    match args.flag("tcp") {
        Some(addr) => {
            sst_portfolio::service::serve_tcp(cfg, addr)
                .map_err(|e| CliError::Failed(format!("serve: {e}")))?;
            Ok(String::new())
        }
        None => {
            let m = sst_portfolio::service::serve_stdin(cfg)
                .map_err(|e| CliError::Failed(format!("serve: {e}")))?;
            // Responses stream to stdout as NDJSON; the human-readable
            // summary goes to stderr so stdout stays machine-parseable.
            let race = m.stage("race_us").cloned().unwrap_or_default();
            eprintln!(
                "served {} requests ({} errors) in {} ms — {:.1} req/s, race µs p50/p90/p99 = {}/{}/{} (max {})",
                m.count,
                m.errors,
                m.uptime_ms,
                m.rps_x1000 as f64 / 1000.0,
                race.p50_us,
                race.p90_us,
                race.p99_us,
                race.max_us,
            );
            Ok(String::new())
        }
    }
}

/// `sst trace` — offline analysis of `--trace-out` NDJSON files.
/// `summarize` aggregates events into per-stage latency percentiles and
/// per-solver standings, mirroring the live `{"metrics": true}` probe.
pub fn trace(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    match args.pos(0, "subcommand")? {
        "summarize" => trace_summarize(args.pos(1, "trace-file")?),
        other => {
            Err(CliError::Usage(format!("unknown trace subcommand '{other}' (try: summarize)")))
        }
    }
}

/// Per-solver aggregation state for [`trace_summarize`].
#[derive(Default)]
struct SolverAgg {
    runs: sst_core::stats::LatencyHistogram,
    completed: u64,
    cancelled: u64,
    declined: u64,
    improvements: u64,
    /// Time from race start to each *first* incumbent this solver posted
    /// for a request id (later improvements go to `improvements` only).
    first_incumbent: sst_core::stats::LatencyHistogram,
    seen_ids: std::collections::BTreeSet<u64>,
}

fn trace_summarize(path: &str) -> Result<String, CliError> {
    use sst_core::io::json::Parser;
    use sst_core::stats::LatencyHistogram;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("trace summarize {path}: {e}")))?;

    // Every member any event kind reads, located in one pass per line.
    let keys = [
        "event",
        "queue_wait_us",
        "total_us",
        "ok",
        "solver",
        "micros",
        "outcome",
        "id",
        "at_us",
        "batch",
        "sessions",
        "dropped",
    ];

    let mut stages: BTreeMap<&'static str, LatencyHistogram> = BTreeMap::new();
    let mut record = |stage: &'static str, us: u64| {
        stages.entry(stage).or_default().record(us);
    };
    let mut solvers: BTreeMap<String, SolverAgg> = BTreeMap::new();
    let mut events = 0u64;
    let mut unparseable = 0u64;
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut recoveries = 0u64;
    let mut recovered_sessions = 0u64;
    let mut spills = 0u64;
    let mut cold_reloads = 0u64;
    let mut commits = 0u64;
    let mut committed_records = 0u64;
    let mut dropped: Option<u64> = None;

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // A line must be one object and nothing else.
        let mut p = Parser::new(line);
        let at = p.fields(keys).ok().flatten().filter(|_| p.finish().is_ok());
        let Some(
            [event, queue_wait_us, total_us, ok_flag, solver, micros, outcome, id, at_us, batch, sessions, dropped_n],
        ) = at
        else {
            unparseable += 1;
            continue;
        };
        let Some(kind) = event.and_then(|mut e| e.string()) else {
            unparseable += 1;
            continue;
        };
        let uint = |at: Option<Parser<'_>>| at.and_then(|mut p| p.u64());
        let string = |at: Option<Parser<'_>>| at.and_then(|mut p| p.string());
        let micros = uint(micros);
        events += 1;
        match kind.as_str() {
            "dequeue" => {
                if let Some(us) = uint(queue_wait_us) {
                    record("queue_wait", us);
                }
            }
            "respond" => {
                if let Some(us) = uint(total_us) {
                    record("total", us);
                }
                match ok_flag.and_then(|mut p| p.bool()) {
                    Some(true) => ok += 1,
                    _ => errors += 1,
                }
            }
            "solver_end" => {
                if let (Some(solver), Some(us)) = (string(solver), micros) {
                    record("solver", us);
                    let agg = solvers.entry(solver).or_default();
                    agg.runs.record(us);
                    match string(outcome).as_deref() {
                        Some("completed") => agg.completed += 1,
                        Some("cancelled") => agg.cancelled += 1,
                        _ => agg.declined += 1,
                    }
                }
            }
            "incumbent" => {
                if let (Some(solver), Some(id), Some(at_us)) =
                    (string(solver), uint(id), uint(at_us))
                {
                    let agg = solvers.entry(solver).or_default();
                    agg.improvements += 1;
                    if agg.seen_ids.insert(id) {
                        agg.first_incumbent.record(at_us);
                    }
                }
            }
            "cancel" => {
                if let Some(us) = micros {
                    record("cancel", us);
                }
            }
            "decode" => {
                if let Some(us) = micros {
                    record("decode", us);
                }
            }
            "journal_append" => {
                if let Some(us) = micros {
                    record("journal_append", us);
                }
            }
            "journal_commit" => {
                commits += 1;
                committed_records += uint(batch).unwrap_or(0);
                if let Some(us) = micros {
                    record("journal_commit", us);
                }
            }
            "snapshot" => {
                if let Some(us) = micros {
                    record("snapshot", us);
                }
            }
            "recovery" => {
                recoveries += 1;
                recovered_sessions += uint(sessions).unwrap_or(0);
                if let Some(us) = micros {
                    record("recovery", us);
                }
            }
            "spill" => spills += 1,
            "cold_reload" => cold_reloads += 1,
            "sink_close" => {
                dropped = Some(dropped.unwrap_or(0) + uint(dropped_n).unwrap_or(0));
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "trace summary: {events} events ({unparseable} unparseable lines)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50_us", "p90_us", "p99_us", "max_us"
    );
    for (stage, hist) in &stages {
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
            stage,
            hist.count(),
            hist.percentile(0.50),
            hist.percentile(0.90),
            hist.percentile(0.99),
            hist.max(),
        );
    }
    if !solvers.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>10} {:>10} {:>9} {:>10} {:>14} {:>14}",
            "solver",
            "runs",
            "completed",
            "cancelled",
            "declined",
            "improves",
            "first_inc_p50",
            "first_inc_p99"
        );
        for (name, agg) in &solvers {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>10} {:>10} {:>9} {:>10} {:>14} {:>14}",
                name,
                agg.runs.count(),
                agg.completed,
                agg.cancelled,
                agg.declined,
                agg.improvements,
                agg.first_incumbent.percentile(0.50),
                agg.first_incumbent.percentile(0.99),
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "requests: {ok} ok, {errors} errors; recoveries: {recoveries} ({recovered_sessions} sessions); spills: {spills}, cold reloads: {cold_reloads}"
    );
    let _ =
        writeln!(out, "group commits: {commits} batches ({committed_records} records coalesced)");
    let _ = match dropped {
        Some(n) => writeln!(out, "dropped events: {n}"),
        None => writeln!(out, "dropped events: unknown (no sink_close event; truncated trace?)"),
    };
    Ok(out)
}

/// `sst generate` — builds an instance once, writes it as JSON or as a
/// packed container (`--format`), and reports its shape.
pub fn generate(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[
        "out",
        "n",
        "m",
        "k",
        "seed",
        "setups",
        "eligible",
        "base",
        "steps",
        "deltas-per-step",
        "format",
    ])?;
    let family = args.pos(0, "family")?;
    let out = args.flag("out").ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;
    let n: usize = args.flag_parse("n", 40)?;
    let m: usize = args.flag_parse("m", 5)?;
    let k: usize = args.flag_parse("k", 6)?;
    let seed: u64 = args.flag_parse("seed", 1)?;
    let setups = match args.flag("setups").unwrap_or("moderate") {
        "light" => SetupWeight::Light,
        "moderate" => SetupWeight::Moderate,
        "heavy" => SetupWeight::Heavy,
        other => return Err(CliError::Failed(format!("unknown --setups '{other}'"))),
    };
    let uniform = |inst| Some(ProblemInstance::Uniform(inst));
    let unrelated = |inst| Some(ProblemInstance::Unrelated(inst));
    let splittable = |inst| Some(ProblemInstance::Splittable(SplittableInstance(inst)));
    // `None`: the family writes no single instance (dynamic-queue).
    let instance = match family {
        "uniform" => uniform(sst_gen::uniform(&UniformParams {
            n,
            m,
            k,
            setups,
            seed,
            ..Default::default()
        })),
        "identical" => uniform(sst_gen::uniform(&UniformParams {
            n,
            m,
            k,
            setups,
            seed,
            speeds: SpeedProfile::Identical,
            ..Default::default()
        })),
        "unrelated" => unrelated(sst_gen::unrelated(&UnrelatedParams {
            n,
            m,
            k,
            setups,
            seed,
            ..Default::default()
        })),
        "ra" => {
            let eligible: usize = args.flag_parse("eligible", 3)?;
            unrelated(sst_gen::ra_class_uniform(n, m, k, eligible, (1, 40), setups, seed))
        }
        "cupt" => unrelated(sst_gen::class_uniform_ptimes(n, m, k, (1, 40), setups, seed)),
        "production-line" => uniform(sst_gen::scenarios::production_line(n, m, k, seed)),
        "compute-cluster" => unrelated(sst_gen::scenarios::compute_cluster(n, m, k, seed)),
        "print-shop" => unrelated(sst_gen::scenarios::print_shop(n, m, k, seed)),
        "ci-build-farm" => unrelated(sst_gen::scenarios::ci_build_farm(n, m, k, seed)),
        "cdn-transcode" => splittable(sst_gen::scenarios::cdn_transcode(n, m, k, seed)),
        // n is taken as jobs-per-class × classes via k; keep the CLI
        // contract n ≈ total jobs.
        "splittable-stress" => {
            splittable(sst_gen::splittable_stress(k, m, n.div_ceil(k.max(1)), seed))
        }
        "dynamic-queue" => None,
        other => return Err(CliError::Failed(format!("unknown family '{other}'; see `sst help`"))),
    };
    let bytes = match (args.flag("format").unwrap_or("json"), &instance) {
        ("json", Some(inst)) => protocol::instance_to_json(inst, true).into_bytes(),
        ("json", None) => dynamic_queue_json(args, n, m, k, setups, seed)?.into_bytes(),
        ("packed", Some(inst)) => wire::instance_to_container(inst),
        ("packed", None) => {
            return Err(CliError::Failed(
                "dynamic-queue writes a delta trace, which has no packed container; \
                 use --format json"
                    .into(),
            ))
        }
        (other, _) => {
            return Err(CliError::Failed(format!("unknown --format '{other}' (json|packed)")))
        }
    };
    std::fs::write(out, bytes)?;
    Ok(format!("wrote {family} instance (n={n}, m={m}, K={k}, seed={seed}) to {out}"))
}

/// The `dynamic-queue` file: a base instance line plus a timed delta
/// trace (the session workload), as JSON.
fn dynamic_queue_json(
    args: &Args,
    n: usize,
    m: usize,
    k: usize,
    setups: SetupWeight,
    seed: u64,
) -> Result<String, CliError> {
    let base = match args.flag("base").unwrap_or("unrelated") {
        "uniform" => sst_gen::DynamicBase::Uniform,
        "unrelated" => sst_gen::DynamicBase::Unrelated,
        other => return Err(CliError::Failed(format!("unknown --base '{other}'"))),
    };
    let params = sst_gen::DynamicQueueParams {
        base,
        n,
        m,
        k,
        steps: args.flag_parse("steps", 8usize)?,
        deltas_per_step: args.flag_parse("deltas-per-step", 4usize)?,
        setups,
        seed,
    };
    let (inst, trace) = sst_gen::dynamic_queue(&params);
    let base_json = match &inst {
        sst_gen::DynamicInstance::Uniform(u) => io::uniform_to_json(u, false),
        sst_gen::DynamicInstance::Unrelated(r) => io::unrelated_to_json(r, "unrelated", false),
    };
    let mut out = format!(
        "{{\n  \"version\": 1,\n  \"kind\": \"dynamic-queue\",\n  \"base\": {base_json},\n  \"trace\": ["
    );
    for (i, step) in trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"at_ms\": {}, \"deltas\": {}}}",
            step.at_ms,
            sst_core::delta::deltas_to_json(&step.deltas)
        ));
    }
    out.push_str("\n  ]\n}");
    Ok(out)
}

/// `sst solve` — runs an algorithm and reports/persists the schedule.
pub fn solve(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["algo", "q", "seed", "out", "polish", "nodes"])?;
    let path = args.pos(0, "instance.json")?;
    let algo = args.flag("algo").unwrap_or("auto");
    let seed: u64 = args.flag_parse("seed", 1)?;
    let polish: usize = args.flag_parse("polish", 0)?;
    let nodes: u64 = args.flag_parse("nodes", 1 << 24)?;
    let mut out = String::new();
    let schedule: Schedule = match load_instance(path)? {
        ProblemInstance::Uniform(inst) => {
            let lb = uniform_lower_bound(&inst);
            let algo = if algo == "auto" { "lpt" } else { algo };
            let (sched, label) = match algo {
                "lpt" => {
                    let (s, _) = lpt_with_setups_makespan(&inst);
                    (s, "LPT (Lemma 2.1, ≤4.74·Opt)".to_string())
                }
                "ptas" => {
                    let q: u64 = args.flag_parse("q", 4)?;
                    let res = ptas_uniform(&inst, &PtasConfig { q, node_limit: nodes });
                    (res.schedule, format!("PTAS (Section 2, ε=1/{q})"))
                }
                "greedy" => (greedy_uniform(&inst), "setup-aware greedy".to_string()),
                "exact" => {
                    let res = exact_uniform(&inst, nodes);
                    let tag =
                        if res.complete { "exact (certified)" } else { "exact (node-capped)" };
                    (res.schedule, tag.to_string())
                }
                other => {
                    return Err(CliError::Failed(format!(
                        "algo '{other}' not valid for uniform instances"
                    )))
                }
            };
            let sched = if polish > 0 {
                let r = improve_uniform(&inst, &sched, polish);
                out.push_str(&format!("local search applied {} moves\n", r.moves));
                r.schedule
            } else {
                sched
            };
            let ms = uniform_makespan(&inst, &sched)
                .map_err(|e| CliError::Failed(format!("produced schedule invalid: {e}")))?;
            out.push_str(&format!(
                "{label}\nmakespan: {ms}\nlower bound: {lb}\ncertified ratio ≤ {:.3}\n",
                ms.to_f64() / lb.to_f64().max(f64::MIN_POSITIVE)
            ));
            sched
        }
        ProblemInstance::Unrelated(inst)
        | ProblemInstance::Splittable(SplittableInstance(inst)) => {
            let lb = unrelated_area_lower_bound(&inst);
            let algo = if algo == "auto" { "rounding" } else { algo };
            let (sched, label, cert): (Schedule, String, Option<u64>) = match algo {
                "rounding" => {
                    let res = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed });
                    (res.schedule, "randomized rounding (Thm 3.3)".into(), Some(res.t_star))
                }
                "ra2" => {
                    let res = solve_ra_class_uniform(&inst);
                    (res.schedule, "RA 2-approximation (Thm 3.10)".into(), Some(res.t_star))
                }
                "cupt3" => {
                    let res = solve_class_uniform_ptimes(&inst);
                    (res.schedule, "CUPT 3-approximation (Thm 3.11)".into(), Some(res.t_star))
                }
                "greedy" => (greedy_unrelated(&inst), "setup-aware greedy".into(), None),
                "exact" => {
                    let res = exact_unrelated(&inst, nodes);
                    let tag =
                        if res.complete { "exact (certified)" } else { "exact (node-capped)" };
                    (res.schedule, tag.into(), None)
                }
                other => {
                    return Err(CliError::Failed(format!(
                        "algo '{other}' not valid for unrelated instances"
                    )))
                }
            };
            let sched = if polish > 0 {
                let r = improve_unrelated(&inst, &sched, polish);
                out.push_str(&format!("local search applied {} moves\n", r.moves));
                r.schedule
            } else {
                sched
            };
            let ms = unrelated_makespan(&inst, &sched)
                .map_err(|e| CliError::Failed(format!("produced schedule invalid: {e}")))?;
            out.push_str(&format!("{label}\nmakespan: {ms}\nlower bound: {lb}\n"));
            if let Some(t_star) = cert {
                out.push_str(&format!(
                    "LP-certified bound T* = {t_star} → ratio ≤ {:.3}\n",
                    ms as f64 / t_star.max(1) as f64
                ));
            }
            sched
        }
    };
    if let Some(out_path) = args.flag("out") {
        std::fs::write(out_path, io::schedule_to_json(&schedule))?;
        out.push_str(&format!("schedule written to {out_path}\n"));
    }
    Ok(out)
}

/// `sst evaluate` — loads instance + schedule and prints exact loads.
pub fn evaluate(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    let inst_path = args.pos(0, "instance.json")?;
    let sched_path = args.pos(1, "schedule.json")?;
    let sched = io::schedule_from_json(&std::fs::read_to_string(sched_path)?)?;
    match load_instance(inst_path)? {
        ProblemInstance::Uniform(inst) => {
            let loads = sst_core::schedule::uniform_loads(&inst, &sched)
                .map_err(|e| CliError::Failed(format!("invalid schedule: {e}")))?;
            let ms = uniform_makespan(&inst, &sched).expect("loads computed");
            let mut out = format!("makespan: {ms}\n");
            for (i, w) in loads.iter().enumerate() {
                out.push_str(&format!(
                    "machine {i}: work {w}, speed {}, time {}\n",
                    inst.speed(i),
                    sst_core::Ratio::new(*w.max(&0), inst.speed(i))
                ));
            }
            Ok(out)
        }
        ProblemInstance::Unrelated(inst)
        | ProblemInstance::Splittable(SplittableInstance(inst)) => {
            let loads = sst_core::schedule::unrelated_loads(&inst, &sched)
                .map_err(|e| CliError::Failed(format!("invalid schedule: {e}")))?;
            let ms = loads.iter().copied().max().unwrap_or(0);
            let mut out = format!("makespan: {ms}\n");
            for (i, l) in loads.iter().enumerate() {
                out.push_str(&format!("machine {i}: load {l}\n"));
            }
            Ok(out)
        }
    }
}

/// The `kind:` line of `sst info` and `sst bound`. A splittable file also
/// says that the integral commands read its data as unrelated machines, so
/// their bounds are not bounds on a split schedule.
fn kind_header(inst: &ProblemInstance) -> String {
    let mut out = format!("kind: {}\n", inst.kind());
    if let ProblemInstance::Splittable(_) = inst {
        out.push_str(
            "(read as unrelated machines: the bounds below are for integral schedules, \
             and a split schedule can be shorter)\n",
        );
    }
    out
}

/// `sst info` — instance statistics and bounds.
pub fn info(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    let path = args.pos(0, "instance.json")?;
    let inst = load_instance(path)?;
    let header = kind_header(&inst);
    match inst {
        ProblemInstance::Uniform(inst) => Ok(format!(
            "{header}n: {}\nm: {}\nK: {}\nspeeds: {:?}\ntotal work (jobs+min setups): {}\nlower bound: {}\n{}\n",
            inst.n(),
            inst.m(),
            inst.num_classes(),
            inst.speeds(),
            inst.total_work_with_min_setups(),
            uniform_lower_bound(&inst),
            sst_core::stats::uniform_stats(&inst),
        )),
        ProblemInstance::Unrelated(inst) | ProblemInstance::Splittable(SplittableInstance(inst)) => {
            let mut out = format!(
                "{header}n: {}\nm: {}\nK: {}\nlower bound: {}\n",
                inst.n(),
                inst.m(),
                inst.num_classes(),
                unrelated_area_lower_bound(&inst),
            );
            out.push_str(&format!(
                "restricted assignment: {}\nclass-uniform restrictions: {}\nclass-uniform ptimes: {}\n",
                inst.is_restricted_assignment(),
                inst.has_class_uniform_restrictions(),
                inst.has_class_uniform_ptimes(),
            ));
            out.push_str(&format!("{}\n", sst_core::stats::unrelated_stats(&inst)));
            Ok(out)
        }
    }
}

/// `sst compare` — runs every algorithm applicable to the instance and
/// prints a ranked comparison (the CLI face of experiment E8).
pub fn compare(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["seed", "q", "nodes"])?;
    let path = args.pos(0, "instance.json")?;
    let seed: u64 = args.flag_parse("seed", 1)?;
    let nodes: u64 = args.flag_parse("nodes", 1 << 22)?;
    let mut rows: Vec<(String, f64, String)> = Vec::new();
    match load_instance(path)? {
        ProblemInstance::Uniform(inst) => {
            let lb = uniform_lower_bound(&inst).to_f64();
            let (_, lpt) = lpt_with_setups_makespan(&inst);
            rows.push(("lpt (Lemma 2.1)".into(), lpt.to_f64(), "≤4.74·Opt".into()));
            let q: u64 = args.flag_parse("q", 4)?;
            let p = ptas_uniform(&inst, &PtasConfig { q, node_limit: nodes });
            rows.push((format!("ptas ε=1/{q}"), p.makespan.to_f64(), "≤(1+O(ε))·Opt".into()));
            let grd = uniform_makespan(&inst, &greedy_uniform(&inst)).expect("valid");
            rows.push(("greedy".into(), grd.to_f64(), "no guarantee".into()));
            let mf = sst_algos::multifit::multifit_uniform(&inst, 8);
            rows.push(("multifit/ffd".into(), mf.makespan.to_f64(), "no guarantee".into()));
            if inst.n() <= 14 {
                let e = exact_uniform(&inst, nodes);
                let tag = if e.complete { "optimum" } else { "incumbent" };
                rows.push(("exact b&b".into(), e.makespan.to_f64(), tag.into()));
            }
            rows.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut out = format!(
                "lower bound: {lb:.3}
"
            );
            for (name, ms, tag) in rows {
                out.push_str(&format!(
                    "{name:<16} {ms:>12.3}  ({tag})
"
                ));
            }
            Ok(out)
        }
        ProblemInstance::Unrelated(inst)
        | ProblemInstance::Splittable(SplittableInstance(inst)) => {
            let lb = unrelated_area_lower_bound(&inst);
            let rr = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed });
            rows.push((
                "rounding (Thm 3.3)".into(),
                rr.makespan as f64,
                format!("T*={}", rr.t_star),
            ));
            if inst.is_restricted_assignment() && inst.has_class_uniform_restrictions() {
                let r = solve_ra_class_uniform(&inst);
                rows.push((
                    "ra2 (Thm 3.10)".into(),
                    r.makespan as f64,
                    format!("≤2·T*={}", 2 * r.t_star),
                ));
            }
            if inst.has_class_uniform_ptimes() {
                let r = solve_class_uniform_ptimes(&inst);
                rows.push((
                    "cupt3 (Thm 3.11)".into(),
                    r.makespan as f64,
                    format!("≤3·T*={}", 3 * r.t_star),
                ));
            }
            let grd = unrelated_makespan(&inst, &greedy_unrelated(&inst)).expect("valid");
            rows.push(("greedy".into(), grd as f64, "no guarantee".into()));
            if inst.n() <= 14 {
                let e = exact_unrelated(&inst, nodes);
                let tag = if e.complete { "optimum" } else { "incumbent" };
                rows.push(("exact b&b".into(), e.makespan as f64, tag.into()));
            }
            rows.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut out = format!(
                "lower bound: {lb}
"
            );
            for (name, ms, tag) in rows {
                out.push_str(&format!(
                    "{name:<20} {ms:>12.0}  ({tag})
"
                ));
            }
            Ok(out)
        }
    }
}

/// `sst gantt` — renders a schedule as an ASCII Gantt chart (setups `#`,
/// jobs by class digit; all rows share one time scale).
pub fn gantt(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["width", "svg"])?;
    let inst_path = args.pos(0, "instance.json")?;
    let sched_path = args.pos(1, "schedule.json")?;
    let width: usize = args.flag_parse("width", 60)?;
    let sched = io::schedule_from_json(&std::fs::read_to_string(sched_path)?)?;
    let (mut out, svg) = match load_instance(inst_path)? {
        ProblemInstance::Uniform(inst) => {
            let tl = Timeline::from_uniform(&inst, &sched)
                .map_err(|e| CliError::Failed(format!("invalid schedule: {e}")))?;
            tl.validate()
                .map_err(|e| CliError::Failed(format!("timeline invariant broken: {e}")))?;
            let chart = render_gantt(&tl, |j| inst.job(j).class, width);
            let svg = render_gantt_svg(&tl, |j| inst.job(j).class, 800);
            (format!("{chart}makespan: {}\n", tl.makespan()), svg)
        }
        ProblemInstance::Unrelated(inst)
        | ProblemInstance::Splittable(SplittableInstance(inst)) => {
            let tl = Timeline::from_unrelated(&inst, &sched)
                .map_err(|e| CliError::Failed(format!("invalid schedule: {e}")))?;
            tl.validate()
                .map_err(|e| CliError::Failed(format!("timeline invariant broken: {e}")))?;
            let chart = render_gantt(&tl, |j| inst.class_of(j), width);
            let svg = render_gantt_svg(&tl, |j| inst.class_of(j), 800);
            (format!("{chart}makespan: {}\n", tl.makespan()), svg)
        }
    };
    if let Some(path) = args.flag("svg") {
        std::fs::write(path, svg)?;
        out.push_str(&format!("svg written to {path}\n"));
    }
    Ok(out)
}

/// `sst sweep` — runs one algorithm over an (n × seed) grid of generated
/// instances in parallel (rayon) and prints a CSV of makespans and
/// certified ratios. The rows are sorted, so the output is deterministic
/// regardless of thread scheduling.
pub fn sweep(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["family", "algo", "n-list", "m", "k", "seeds", "setups", "q"])?;
    let family = args.flag("family").unwrap_or("uniform").to_string();
    let algo = args.flag("algo").unwrap_or("auto").to_string();
    let m: usize = args.flag_parse("m", 5)?;
    let k: usize = args.flag_parse("k", 6)?;
    let seeds: u64 = args.flag_parse("seeds", 3)?;
    let q: u64 = args.flag_parse("q", 4)?;
    let setups = match args.flag("setups").unwrap_or("moderate") {
        "light" => SetupWeight::Light,
        "moderate" => SetupWeight::Moderate,
        "heavy" => SetupWeight::Heavy,
        other => return Err(CliError::Failed(format!("unknown --setups '{other}'"))),
    };
    let n_list: Vec<usize> = args
        .flag("n-list")
        .unwrap_or("20,40,80")
        .split(',')
        .map(|t| t.trim().parse().map_err(|_| CliError::Failed(format!("bad n '{t}'"))))
        .collect::<Result<_, _>>()?;
    let grid: Vec<(usize, u64)> =
        n_list.iter().flat_map(|&n| (0..seeds).map(move |s| (n, s))).collect();

    #[derive(Debug)]
    struct Row {
        n: usize,
        seed: u64,
        makespan: f64,
        bound: f64,
    }
    let run_one = |&(n, seed): &(usize, u64)| -> Result<Row, CliError> {
        match family.as_str() {
            "uniform" | "identical" => {
                let speeds = if family == "identical" {
                    SpeedProfile::Identical
                } else {
                    SpeedProfile::UniformRandom { lo: 1, hi: 8 }
                };
                let inst = sst_gen::uniform(&UniformParams {
                    n,
                    m,
                    k,
                    setups,
                    seed,
                    speeds,
                    ..Default::default()
                });
                let algo = if algo == "auto" { "lpt" } else { algo.as_str() };
                let sched = match algo {
                    "lpt" => lpt_with_setups_makespan(&inst).0,
                    "ptas" => ptas_uniform(&inst, &PtasConfig { q, node_limit: 1 << 22 }).schedule,
                    "greedy" => greedy_uniform(&inst),
                    "wrap" if family == "identical" => sst_algos::identical::wrap_identical(&inst),
                    other => {
                        return Err(CliError::Failed(format!(
                            "algo '{other}' not valid for {family}"
                        )))
                    }
                };
                let ms = uniform_makespan(&inst, &sched)
                    .map_err(|e| CliError::Failed(e.to_string()))?
                    .to_f64();
                Ok(Row { n, seed, makespan: ms, bound: uniform_lower_bound(&inst).to_f64() })
            }
            "unrelated" | "ra" | "cupt" => {
                let inst = match family.as_str() {
                    "unrelated" => sst_gen::unrelated(&UnrelatedParams {
                        n,
                        m,
                        k,
                        setups,
                        seed,
                        ..Default::default()
                    }),
                    "ra" => {
                        sst_gen::ra_class_uniform(n, m, k, (m / 2).max(2), (1, 40), setups, seed)
                    }
                    _ => sst_gen::class_uniform_ptimes(n, m, k, (1, 40), setups, seed),
                };
                let algo = if algo == "auto" { "rounding" } else { algo.as_str() };
                let (sched, bound) = match algo {
                    "rounding" => {
                        let r = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed });
                        (r.schedule, r.t_star as f64)
                    }
                    "ra2" if family == "ra" => {
                        let r = solve_ra_class_uniform(&inst);
                        (r.schedule, r.t_star as f64)
                    }
                    "cupt3" if family == "cupt" => {
                        let r = solve_class_uniform_ptimes(&inst);
                        (r.schedule, r.t_star as f64)
                    }
                    "greedy" => (greedy_unrelated(&inst), unrelated_lower_bound(&inst) as f64),
                    other => {
                        return Err(CliError::Failed(format!(
                            "algo '{other}' not valid for {family}"
                        )))
                    }
                };
                let ms = unrelated_makespan(&inst, &sched)
                    .map_err(|e| CliError::Failed(e.to_string()))? as f64;
                Ok(Row { n, seed, makespan: ms, bound })
            }
            other => Err(CliError::Failed(format!("unknown family '{other}'"))),
        }
    };
    let mut rows: Vec<Row> = grid.par_iter().map(run_one).collect::<Result<Vec<_>, _>>()?;
    rows.sort_by_key(|r| (r.n, r.seed));
    let mut out = String::from("family,algo,n,m,k,seed,makespan,bound,ratio\n");
    for r in rows {
        out.push_str(&format!(
            "{family},{algo},{},{m},{k},{},{:.3},{:.3},{:.3}\n",
            r.n,
            r.seed,
            r.makespan,
            r.bound,
            r.makespan / r.bound.max(f64::MIN_POSITIVE)
        ));
    }
    Ok(out)
}

/// `sst bound` — prints four lower bounds for an unrelated instance: the
/// combinatorial (max-job) bound, the area bound that `sst info`, `solve`
/// and `compare` print ([`unrelated_area_lower_bound`], which grows with
/// the total work), the assignment-LP `T*` (Section 3.1) and the
/// configuration-LP bound (the configuration IP of Jansen, Klein, Maack
/// and Rau, arXiv 1801.06460). Each line is a separately certified lower
/// bound, not a chain: a configuration guess that hits the column or
/// round limit counts as feasible, so under `ConfigLpLimits::default()`
/// that line is often below the assignment LP. The configuration LP needs
/// `n ≤ 64`; larger instances report the first three.
pub fn bound(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["max-t"])?;
    let path = args.pos(0, "instance.json")?;
    let max_t: u64 = args.flag_parse("max-t", 1 << 13)?;
    let inst = load_instance(path)?;
    let header = kind_header(&inst);
    match inst {
        ProblemInstance::Uniform(inst) => Ok(format!(
            "{header}combinatorial lower bound: {}\n(LP bounds apply to unrelated instances; uniform bounds are exact rationals)\n",
            uniform_lower_bound(&inst)
        )),
        ProblemInstance::Unrelated(inst) | ProblemInstance::Splittable(SplittableInstance(inst)) => {
            let comb = unrelated_lower_bound(&inst);
            let area = unrelated_area_lower_bound(&inst);
            let assign = sst_algos::lp_relax::lp_makespan_lower_bound(&inst);
            let mut out = format!(
                "{header}combinatorial lower bound: {comb}\narea lower bound:          {area}\n\
                 assignment-LP T* (Sec 3.1): {assign}\n"
            );
            if inst.n() <= 64 {
                let limits = sst_algos::configlp::ConfigLpLimits {
                    max_t,
                    ..Default::default()
                };
                let config = sst_algos::configlp::config_lp_lower_bound(&inst, &limits);
                out.push_str(&format!("configuration-LP bound:     {config}\n"));
            } else {
                out.push_str("configuration-LP bound:     skipped (n > 64)\n");
            }
            Ok(out)
        }
    }
}

/// `sst lint` — the workspace convention lint (see `sst_check::lint`):
/// no raw `std::sync` locks outside the compat layer, justified
/// non-`Relaxed` atomic orderings, no `unwrap` in serve-path non-test
/// code, no `thread::sleep` outside tests. Non-empty findings are an
/// error (the CI gate); suppressions live in `lint.allow` at the
/// workspace root or inline `lint: allow(<rule>)` comments.
pub fn lint(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["root", "allowlist"])?;
    let root = match args.flag("root") {
        Some(r) => std::path::PathBuf::from(r),
        None => workspace_root()?,
    };
    let allow_path = match args.flag("allowlist") {
        Some(p) => std::path::PathBuf::from(p),
        None => root.join("lint.allow"),
    };
    let allowlist = sst_check::lint::Allowlist::load(&allow_path)?;
    let report = sst_check::lint::run(&root, allowlist)?;
    let mut out = String::new();
    for stale in &report.stale_entries {
        out.push_str(&format!("stale allowlist entry (matched nothing): {stale}\n"));
    }
    if report.clean() {
        out.push_str(&format!(
            "lint clean: {} files scanned, {} finding(s) allowlisted\n",
            report.files_scanned, report.allowed
        ));
        Ok(out)
    } else {
        let mut msg = String::new();
        for finding in &report.findings {
            msg.push_str(&format!("{finding}\n"));
        }
        let rules: Vec<&str> = sst_check::lint::rules_hit(&report.findings).into_iter().collect();
        msg.push_str(&format!(
            "{} finding(s) across rules {:?}; fix them or add entries to {}",
            report.findings.len(),
            rules,
            allow_path.display()
        ));
        Err(CliError::Failed(msg))
    }
}

/// Walks up from the current directory to the enclosing Cargo workspace
/// root (the directory whose `Cargo.toml` has a `[workspace]` table).
fn workspace_root() -> Result<std::path::PathBuf, CliError> {
    let mut dir = std::env::current_dir()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(CliError::Failed(
                "no Cargo workspace root found above the current directory; pass --root".into(),
            ));
        }
    }
}

/// Dispatches a parsed command line.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => {
            args.reject_unknown_flags(&[])?;
            Ok(help())
        }
        "generate" => generate(args),
        "solve" => solve(args),
        "evaluate" => evaluate(args),
        "gantt" => gantt(args),
        "info" => info(args),
        "bound" => bound(args),
        "compare" => compare(args),
        "sweep" => sweep(args),
        "serve" => serve(args),
        "trace" => trace(args),
        "pack" => pack(args),
        "unpack" => unpack(args),
        "lint" => lint(args),
        other => Err(CliError::Usage(format!("unknown command '{other}'; see `sst help`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("sst-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn serve_help_names_exactly_the_accepted_flags() {
        let flags_in = |text: &str| -> std::collections::BTreeSet<String> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"))
                .map(str::to_string)
                .collect()
        };
        let accepted: std::collections::BTreeSet<String> =
            SERVE_FLAGS.iter().map(|f| f.to_string()).collect();
        // The synopsis names every accepted flag and no other.
        assert_eq!(flags_in(&usage(Some("serve"))), accepted);
        // The description below it mentions no flag serve rejects.
        let help = help();
        let section: Vec<&str> = help
            .lines()
            .skip_while(|l| !l.starts_with("  sst serve"))
            .skip(1)
            .take_while(|l| !l.starts_with("  sst "))
            .collect();
        let stale: Vec<String> =
            flags_in(&section.join("\n")).difference(&accepted).cloned().collect();
        assert!(stale.is_empty(), "help mentions flags serve rejects: {stale:?}");
        let removed = serve(&parse(&toks(&["serve", "--journal-batch", "1"])).unwrap());
        assert!(matches!(removed, Err(CliError::Usage(_))), "{removed:?}");
    }

    #[test]
    fn generate_solve_evaluate_roundtrip_uniform() {
        let inst_path = tmp("u.json");
        let sched_path = tmp("u_sched.json");
        let g = run(&parse(&toks(&[
            "generate", "uniform", "--out", &inst_path, "--n", "12", "--m", "3", "--seed", "5",
        ]))
        .unwrap())
        .unwrap();
        assert!(g.contains("n=12"));
        let s =
            run(&parse(&toks(&["solve", &inst_path, "--algo", "lpt", "--out", &sched_path]))
                .unwrap())
            .unwrap();
        assert!(s.contains("makespan:"), "{s}");
        let e = run(&parse(&toks(&["evaluate", &inst_path, &sched_path])).unwrap()).unwrap();
        assert!(e.contains("machine 0:"));
    }

    #[test]
    fn packed_generate_pack_unpack_roundtrip() {
        // For every single-instance family: generate --format packed writes
        // the bytes `pack` makes of generate --format json, and `unpack`
        // gives that JSON back byte for byte (the kind tag included).
        for family in [
            "uniform",
            "identical",
            "unrelated",
            "ra",
            "cupt",
            "production-line",
            "compute-cluster",
            "print-shop",
            "ci-build-farm",
            "cdn-transcode",
            "splittable-stress",
        ] {
            let json_path = tmp(&format!("rt-{family}.json"));
            let packed_path = tmp(&format!("rt-{family}.sst"));
            let shape = ["--n", "12", "--m", "3", "--k", "4", "--seed", "3"];
            for (path, format) in [(&json_path, "json"), (&packed_path, "packed")] {
                let mut cmd = vec!["generate", family, "--out", path, "--format", format];
                cmd.extend(shape);
                let g = run(&parse(&toks(&cmd)).unwrap()).unwrap();
                assert!(g.contains("n=12"), "{g}");
            }
            let packed = std::fs::read(&packed_path).unwrap();
            assert_eq!(packed[..4], sst_core::wire::MAGIC, "{family}");

            let repacked = tmp(&format!("rt-{family}-repacked.sst"));
            let p = run(&parse(&toks(&["pack", &json_path, &repacked])).unwrap()).unwrap();
            assert_eq!(packed, std::fs::read(&repacked).unwrap(), "{family}: {p}");

            let unpacked = tmp(&format!("rt-{family}-unpacked.json"));
            run(&parse(&toks(&["unpack", &packed_path, &unpacked])).unwrap()).unwrap();
            let json = std::fs::read(&json_path).unwrap();
            assert_eq!(json, std::fs::read(&unpacked).unwrap(), "{family}");
        }

        // `solve` reads a packed container directly.
        let packed_path = tmp("rt-uniform.sst");
        let s = run(&parse(&toks(&["solve", &packed_path, "--algo", "lpt"])).unwrap()).unwrap();
        assert!(s.contains("makespan:"), "{s}");

        // dynamic-queue has no packed container.
        let err = run(&parse(&toks(&[
            "generate",
            "dynamic-queue",
            "--out",
            &tmp("dq.sst"),
            "--format",
            "packed",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.to_string().contains("dynamic-queue"), "{err}");
    }

    #[test]
    fn unhostable_splittable_file_gets_the_servers_error() {
        // Valid unrelated data, but class 1 fits whole on no machine, which
        // the splittable model requires (the fixture of the portfolio wire
        // codec's `infeasible_splittable_is_rejected_like_json`).
        let inner = sst_core::UnrelatedInstance::new(
            2,
            vec![0, 1, 1],
            vec![vec![3, 9], vec![2, sst_core::INF], vec![sst_core::INF, 2]],
            vec![vec![1, 2], vec![5, 7]],
        )
        .unwrap();
        let line = io::unrelated_to_json(&inner, "splittable", false);
        let request = format!("{{\"id\": 1, \"instance\": {line}}}");
        let want = protocol::parse_incoming(&request).unwrap_err().to_string();
        assert!(want.contains("host it whole"), "{want}");

        let path = tmp("unhostable.json");
        std::fs::write(&path, io::unrelated_to_json(&inner, "splittable", true)).unwrap();
        for cmd in [vec!["info", path.as_str()], vec!["solve", path.as_str(), "--algo", "greedy"]] {
            let err = run(&parse(&toks(&cmd)).unwrap()).unwrap_err();
            assert_eq!(err.to_string(), want, "{cmd:?}");
        }
    }

    #[test]
    fn generate_solve_unrelated_with_certificate() {
        let inst_path = tmp("r.json");
        run(&parse(&toks(&[
            "generate", "ra", "--out", &inst_path, "--n", "16", "--m", "3", "--seed", "2",
        ]))
        .unwrap())
        .unwrap();
        let s = run(&parse(&toks(&["solve", &inst_path, "--algo", "ra2"])).unwrap()).unwrap();
        assert!(s.contains("T* ="), "{s}");
    }

    #[test]
    fn info_reports_model_checks() {
        let inst_path = tmp("c.json");
        run(&parse(&toks(&["generate", "cupt", "--out", &inst_path, "--n", "10"])).unwrap())
            .unwrap();
        let i = run(&parse(&toks(&["info", &inst_path])).unwrap()).unwrap();
        assert!(i.contains("class-uniform ptimes: true"), "{i}");
    }

    #[test]
    fn generate_splittable_kind_and_info_loads_it() {
        for family in ["cdn-transcode", "splittable-stress"] {
            let inst_path = tmp(&format!("{family}.json"));
            run(&parse(&toks(&[
                "generate", family, "--out", &inst_path, "--n", "20", "--m", "4", "--k", "5",
            ]))
            .unwrap())
            .unwrap();
            let text = std::fs::read_to_string(&inst_path).unwrap();
            assert!(text.contains("\"kind\": \"splittable\""), "{text}");
            // Integral commands name the kind, and say they read the
            // shared payload as unrelated data.
            let i = run(&parse(&toks(&["info", &inst_path])).unwrap()).unwrap();
            assert!(
                i.starts_with("kind: splittable\n(read as unrelated machines"),
                "{family}: {i}"
            );
            let b = run(&parse(&toks(&["bound", &inst_path])).unwrap()).unwrap();
            assert!(
                b.starts_with("kind: splittable\n(read as unrelated machines"),
                "{family}: {b}"
            );
            if family == "cdn-transcode" {
                assert!(i.contains("class-uniform ptimes: true"), "{i}");
            }
        }
    }

    #[test]
    fn generate_dynamic_queue_writes_base_and_replayable_trace() {
        use sst_core::io::json;
        use sst_core::model::{MachineModel, Unrelated};

        let path = tmp("dq.json");
        let g = run(&parse(&toks(&[
            "generate",
            "dynamic-queue",
            "--out",
            &path,
            "--n",
            "12",
            "--m",
            "3",
            "--steps",
            "5",
            "--seed",
            "4",
        ]))
        .unwrap())
        .unwrap();
        assert!(g.contains("dynamic-queue"), "{g}");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut p = json::Parser::new(&text);
        let [kind, base, trace] = p.fields(["kind", "base", "trace"]).unwrap().unwrap();
        assert_eq!(kind.unwrap().string().as_deref(), Some("dynamic-queue"));
        // The base instance and every trace delta parse back and replay.
        let base = io::InstanceDoc::scan(&mut base.unwrap()).unwrap().unwrap();
        let mut inst = base.unrelated("unrelated").unwrap();
        let steps = trace.unwrap().items().unwrap().unwrap();
        assert_eq!(steps.len(), 5);
        for mut step in steps {
            let [at_ms, deltas] = step.fields(["at_ms", "deltas"]).unwrap().unwrap();
            assert!(at_ms.unwrap().u64().is_some(), "{text}");
            let deltas = sst_core::delta::deltas_at(deltas.unwrap()).unwrap();
            for d in &deltas {
                inst = Unrelated::apply_delta(&inst, d).expect("trace replays cleanly");
            }
        }
    }

    #[test]
    fn polish_never_reports_invalid() {
        let inst_path = tmp("p.json");
        run(&parse(&toks(&[
            "generate", "uniform", "--out", &inst_path, "--n", "15", "--setups", "heavy",
        ]))
        .unwrap())
        .unwrap();
        let s =
            run(&parse(&toks(&["solve", &inst_path, "--algo", "greedy", "--polish", "50"]))
                .unwrap())
            .unwrap();
        assert!(s.contains("makespan:"));
    }

    #[test]
    fn compare_ranks_algorithms() {
        let inst_path = tmp("cmp.json");
        run(&parse(&toks(&["generate", "uniform", "--out", &inst_path, "--n", "10", "--m", "3"]))
            .unwrap())
        .unwrap();
        let c = run(&parse(&toks(&["compare", &inst_path])).unwrap()).unwrap();
        assert!(c.contains("lpt"), "{c}");
        assert!(c.contains("optimum") || c.contains("incumbent"), "{c}");
        // Ranked: first listed makespan ≤ last listed.
        let values: Vec<f64> =
            c.lines().skip(1).filter_map(|l| l.split_whitespace().nth(1)?.parse().ok()).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{c}");
    }

    #[test]
    fn bound_lines_are_lower_bounds_on_the_exact_optimum() {
        let inst_path = tmp("b.json");
        run(&parse(&toks(&[
            "generate",
            "unrelated",
            "--out",
            &inst_path,
            "--n",
            "9",
            "--m",
            "3",
            "--seed",
            "6",
        ]))
        .unwrap())
        .unwrap();
        let b = run(&parse(&toks(&["bound", &inst_path])).unwrap()).unwrap();
        let grab = |tag: &str| -> u64 {
            b.lines()
                .find(|l| l.contains(tag))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("missing {tag} in {b}"))
        };
        let comb = grab("combinatorial");
        let area = grab("area lower bound");
        let assign = grab("assignment-LP");
        let config = grab("configuration-LP");
        let ProblemInstance::Unrelated(inst) = load_instance(&inst_path).unwrap() else {
            panic!("an unrelated instance")
        };
        let opt = sst_algos::exact::exact_unrelated(&inst, 1 << 24);
        assert!(opt.complete, "9 jobs on 3 machines solve to optimality");
        for (line, value) in
            [("combinatorial", comb), ("area", area), ("assignment-LP", assign), ("config", config)]
        {
            assert!(value <= opt.makespan, "{line} {value} > optimum {}: {b}", opt.makespan);
        }
        // The LP bisection starts at the combinatorial bound, and the
        // area bound bisects up from it, so neither reports less.
        assert!(comb <= assign, "{b}");
        assert!(comb <= area, "{b}");
    }

    #[test]
    fn bound_uniform_reports_combinatorial_only() {
        let inst_path = tmp("b_u.json");
        run(&parse(&toks(&["generate", "uniform", "--out", &inst_path, "--n", "8"])).unwrap())
            .unwrap();
        let b = run(&parse(&toks(&["bound", &inst_path])).unwrap()).unwrap();
        assert!(b.contains("kind: uniform"), "{b}");
    }

    #[test]
    fn gantt_renders_both_kinds() {
        let u_path = tmp("g_u.json");
        let u_sched = tmp("g_u_sched.json");
        run(&parse(&toks(&[
            "generate", "uniform", "--out", &u_path, "--n", "8", "--m", "2", "--seed", "4",
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&["solve", &u_path, "--algo", "lpt", "--out", &u_sched])).unwrap())
            .unwrap();
        let g =
            run(&parse(&toks(&["gantt", &u_path, &u_sched, "--width", "40"])).unwrap()).unwrap();
        assert!(g.contains("m0"), "{g}");
        assert!(g.contains("makespan:"), "{g}");
        assert!(g.contains('#'), "setups must render: {g}");

        let r_path = tmp("g_r.json");
        let r_sched = tmp("g_r_sched.json");
        run(&parse(&toks(&[
            "generate",
            "unrelated",
            "--out",
            &r_path,
            "--n",
            "10",
            "--m",
            "3",
            "--seed",
            "4",
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&["solve", &r_path, "--algo", "greedy", "--out", &r_sched])).unwrap())
            .unwrap();
        let g = run(&parse(&toks(&["gantt", &r_path, &r_sched])).unwrap()).unwrap();
        assert!(g.contains("<- makespan"), "{g}");
    }

    #[test]
    fn gantt_rejects_mismatched_schedule() {
        let a_path = tmp("g_a.json");
        let b_path = tmp("g_b.json");
        let b_sched = tmp("g_b_sched.json");
        run(&parse(&toks(&["generate", "uniform", "--out", &a_path, "--n", "6"])).unwrap())
            .unwrap();
        run(&parse(&toks(&["generate", "uniform", "--out", &b_path, "--n", "9"])).unwrap())
            .unwrap();
        run(&parse(&toks(&["solve", &b_path, "--algo", "lpt", "--out", &b_sched])).unwrap())
            .unwrap();
        assert!(run(&parse(&toks(&["gantt", &a_path, &b_sched])).unwrap()).is_err());
    }

    #[test]
    fn sweep_produces_sorted_csv() {
        let c = run(&parse(&toks(&[
            "sweep", "--family", "uniform", "--algo", "lpt", "--n-list", "10,20", "--m", "3",
            "--seeds", "2",
        ]))
        .unwrap())
        .unwrap();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "family,algo,n,m,k,seed,makespan,bound,ratio");
        assert_eq!(lines.len(), 1 + 2 * 2, "{c}");
        // Deterministic despite parallel execution.
        let c2 = run(&parse(&toks(&[
            "sweep", "--family", "uniform", "--algo", "lpt", "--n-list", "10,20", "--m", "3",
            "--seeds", "2",
        ]))
        .unwrap())
        .unwrap();
        assert_eq!(c, c2);
        // Ratios parse and stay under the Lemma 2.1 guarantee.
        for line in &lines[1..] {
            let ratio: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(ratio < 4.74, "{line}");
        }
    }

    #[test]
    fn sweep_ra_family_with_certified_bound() {
        let c = run(&parse(&toks(&[
            "sweep", "--family", "ra", "--algo", "ra2", "--n-list", "12", "--m", "3", "--seeds",
            "2",
        ]))
        .unwrap())
        .unwrap();
        for line in c.lines().skip(1) {
            let ratio: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(ratio <= 2.0 + 1e-9, "Theorem 3.10 bound violated: {line}");
        }
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(run(&parse(&toks(&["sweep", "--family", "nope"])).unwrap()).is_err());
        assert!(run(&parse(&toks(&["sweep", "--family", "uniform", "--n-list", "5,x"])).unwrap())
            .is_err());
        assert!(run(&parse(&toks(&["sweep", "--family", "uniform", "--algo", "cupt3"])).unwrap())
            .is_err());
    }

    #[test]
    fn serve_flag_validation_rejects_bad_combinations() {
        // Error paths only: a valid stdin serve would block on input.
        let err = run(&parse(&toks(&["serve", "--mode", "sharded"])).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown flag --mode"), "--mode is gone: {err}");
        let err = run(&parse(&toks(&["serve", "--shards", "2"])).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown flag --shards"), "--shards is gone: {err}");
        let err = run(&parse(&toks(&["serve", "--metrics-interval", "5"])).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --metrics-interval"),
            "--metrics-interval is gone: {err}"
        );
        let err = run(&parse(&toks(&["serve", "--fault-injection", "maybe"])).unwrap());
        assert!(err.is_err(), "--fault-injection takes true|false");
        let err = run(&parse(&toks(&["serve", "--typo", "1"])).unwrap());
        assert!(err.is_err(), "unknown flags stay rejected");
        let err = run(&parse(&toks(&["serve", "--durability", "flush"])).unwrap());
        assert!(err.is_err(), "--durability without --data-dir must be rejected");
        let err =
            run(&parse(&toks(&["serve", "--data-dir", "/tmp/x", "--durability", "paranoid"]))
                .unwrap());
        assert!(err.is_err(), "unknown durability tier must be rejected");
    }

    #[test]
    fn trace_summarize_aggregates_stages_solvers_and_drop_count() {
        let path = tmp("trace-summary.ndjson");
        let lines = [
            r#"{"event": "enqueue", "id": 1, "ts_us": 0}"#,
            r#"{"event": "dequeue", "id": 1, "worker": 0, "queue_wait_us": 50, "ts_us": 1}"#,
            r#"{"event": "race_start", "id": 1, "members": 2, "ts_us": 2}"#,
            r#"{"event": "incumbent", "id": 1, "solver": "lpt", "at_us": 120, "makespan": 99.0, "ts_us": 3}"#,
            r#"{"event": "incumbent", "id": 1, "solver": "lpt", "at_us": 200, "makespan": 90.0, "ts_us": 4}"#,
            r#"{"event": "solver_end", "id": 1, "solver": "lpt", "outcome": "completed", "micros": 300, "makespan": 90.0, "ts_us": 5}"#,
            r#"{"event": "solver_end", "id": 1, "solver": "exact-bb", "outcome": "cancelled", "micros": 400, "ts_us": 5}"#,
            r#"{"event": "respond", "id": 1, "ok": true, "total_us": 600, "ts_us": 6}"#,
            r#"{"event": "journal_append", "sid": 7, "bytes": 32, "micros": 80, "fsync": false, "ts_us": 7}"#,
            r#"{"event": "journal_commit", "batch": 5, "bytes": 160, "micros": 240, "fsync": true, "ts_us": 7}"#,
            r#"{"event": "journal_commit", "batch": 2, "bytes": 64, "micros": 150, "fsync": true, "ts_us": 8}"#,
            r#"{"event": "recovery", "sessions": 2, "snapshots_loaded": 1, "replayed": 3, "dropped_bytes": 0, "micros": 900, "ts_us": 8}"#,
            "not json",
            r#"{"event": "sink_close", "dropped": 4, "ts_us": 9}"#,
        ];
        std::fs::write(&path, lines.join("\n")).unwrap();
        let out = run(&parse(&toks(&["trace", "summarize", &path])).unwrap()).unwrap();
        assert!(out.contains("13 events (1 unparseable"), "{out}");
        for stage in
            ["queue_wait", "total", "solver", "journal_append", "journal_commit", "recovery"]
        {
            assert!(out.contains(stage), "missing stage '{stage}' in:\n{out}");
        }
        assert!(out.contains("lpt") && out.contains("exact-bb"), "{out}");
        assert!(out.contains("requests: 1 ok, 0 errors; recoveries: 1 (2 sessions)"), "{out}");
        assert!(out.contains("group commits: 2 batches (7 records coalesced)"), "{out}");
        assert!(out.contains("dropped events: 4"), "{out}");
        // Unknown subcommands and missing files fail cleanly.
        assert!(run(&parse(&toks(&["trace", "tail", &path])).unwrap()).is_err());
        assert!(
            run(&parse(&toks(&["trace", "summarize", "/nonexistent/t.ndjson"])).unwrap()).is_err()
        );
    }

    #[test]
    fn unknown_command_and_bad_algo_error_cleanly() {
        assert!(run(&parse(&toks(&["frobnicate"])).unwrap()).is_err());
        let inst_path = tmp("u2.json");
        run(&parse(&toks(&["generate", "uniform", "--out", &inst_path])).unwrap()).unwrap();
        let err = run(&parse(&toks(&["solve", &inst_path, "--algo", "rounding"])).unwrap());
        assert!(err.is_err(), "rounding must be rejected for uniform instances");
    }
}
