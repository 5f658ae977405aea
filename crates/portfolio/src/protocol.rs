//! The NDJSON request/response codec of `sst serve`.
//!
//! One JSON object per line, both directions. Requests embed an instance
//! envelope, the schema of `sst` instance files too: [`instance_to_json`]
//! writes it and [`instance_from_doc`] reads it, for the requests and for
//! the CLI's files alike, on the per-model codecs of [`sst_core::io`];
//! responses carry the winning solution, its exact makespan, and
//! per-solver attribution. A uniform-machines makespan is an exact
//! rational and serializes as `{"num": N, "den": D}`; an unrelated
//! makespan is a plain integer; a splittable makespan is a float (always
//! written with a decimal point, so the three cost shapes stay
//! distinguishable on the wire).
//!
//! Request (`instance.kind` is `"uniform"`, `"unrelated"` or
//! `"splittable"` — the splittable kind shares the unrelated payload
//! schema):
//!
//! ```json
//! {"id": 7, "budget_ms": 50, "top_k": 3, "seed": 1,
//!  "instance": {"version": 1, "kind": "uniform", "speeds": [2, 1],
//!               "setups": [3], "jobs": [{"class": 0, "size": 4}]}}
//! ```
//!
//! Response for the integral kinds (`"assignment"` maps jobs to
//! machines):
//!
//! ```json
//! {"id": 7, "status": "ok", "kind": "uniform", "solver": "lpt",
//!  "micros": 184, "makespan": {"num": 7, "den": 2}, "assignment": [0],
//!  "solvers": [{"name": "lpt", "makespan": {"num": 7, "den": 2},
//!               "micros": 90, "completed": true}]}
//! ```
//!
//! Response for the splittable kind (`"shares"` lists, per class, the
//! machines carrying a positive workload fraction):
//!
//! ```json
//! {"id": 9, "status": "ok", "kind": "splittable", "solver": "split2",
//!  "micros": 310, "makespan": 22.0,
//!  "shares": [[{"machine": 0, "fraction": 0.5},
//!              {"machine": 1, "fraction": 0.5}]], "solvers": []}
//! ```
//!
//! The line `{"metrics": true}` asks the service for its running
//! throughput/latency summary (`"status": "metrics"`); `{"kill_worker":
//! true}` and `{"crash": true}` are the fault-injection probes (see
//! [`Incoming::KillWorker`] and [`Incoming::Crash`]).
//! Parse errors come back as `"status": "error"` lines; the connection
//! stays usable.

use std::fmt::Write as _;

use sst_algos::splittable::{SplitSchedule, SplitShare};
use sst_core::delta::{deltas_at, deltas_to_json, InstanceDelta};
use sst_core::io::json::{self, Escaped, Parser};
use sst_core::io::{self, InstanceDoc, IoError};
use sst_core::model::{MachineModel, Splittable, Unrelated};
use sst_core::ratio::Ratio;

use crate::model::{Solution, SplittableInstance};
use crate::session::SessionStats;
use crate::solver::{Cost, ProblemInstance};

/// A solve request: one instance plus racing knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The instance to schedule.
    pub instance: ProblemInstance,
    /// Per-request deadline in milliseconds (service default when absent).
    pub budget_ms: Option<u64>,
    /// Portfolio members raced concurrently (service default when absent).
    pub top_k: Option<usize>,
    /// Seed for the randomized members (service default when absent).
    pub seed: Option<u64>,
}

/// Anything a client may send on one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A solve request (boxed: an instance is hundreds of bytes, the
    /// metrics probe is zero).
    Solve(Box<Request>),
    /// A session request (`{"id": .., "session": {<verb>: {..}}}`) — the
    /// stateful protocol: create/delta/solve/close against a live
    /// session in the service's [`crate::session::SessionStore`].
    Session(Box<SessionRequest>),
    /// `{"metrics": true}` — ask for the running metrics summary.
    Metrics,
    /// `{"kill_worker": true}` — fault injection: terminate the worker
    /// that picks this line up. Honored only when the service was started
    /// with fault injection enabled (`sst serve --fault-injection true`);
    /// otherwise answered with an error line. The chaos probe behind the
    /// killed-worker CI gate: remaining workers must keep serving, and
    /// once none remain every request must still get an error response.
    KillWorker,
    /// `{"crash": true}` — fault injection: abort the whole process
    /// immediately (`std::process::abort`), a real non-graceful death for
    /// the kill-and-replay durability gate. Honored only with
    /// `--fault-injection true`; otherwise answered with an error line.
    Crash,
}

/// One request of the session protocol. The wire shape is
/// `{"id": .., "session": {"create"|"delta"|"solve"|"close": {..}}}`:
///
/// ```json
/// {"id": 1, "session": {"create": {"sid": 7, "instance": {..}}}}
/// {"id": 2, "session": {"delta": {"sid": 7, "deltas": [
///     {"add_job": {"class": 0, "times": [4, 6]}}, {"remove_job": 2}]}}}
/// {"id": 3, "session": {"solve": {"sid": 7, "budget_ms": 50}}}
/// {"id": 4, "session": {"close": {"sid": 7}}}
/// ```
///
/// `create` answers with a `"status": "session"` ack carrying the greedy
/// incumbent's cost; `delta` answers with a normal `"ok"` response whose
/// solution is the **repaired incumbent** (solver `"delta-repair"`) — the
/// floor the next solve can only improve on; `solve` races warm from that
/// floor and answers like a one-shot solve (winner `"warm-incumbent"`
/// when nothing beat the floor); `close` acks with `"session"`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The session verb.
    pub verb: SessionVerb,
}

/// The four verbs of the session protocol (see [`SessionRequest`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SessionVerb {
    /// Open (or replace) session `sid` with a full instance.
    Create {
        /// Client-chosen session id.
        sid: u64,
        /// The session's initial instance.
        instance: ProblemInstance,
    },
    /// Apply a delta batch to session `sid` and repair its incumbent.
    Delta {
        /// Session id.
        sid: u64,
        /// The edits, applied in order (see [`sst_core::delta`]).
        deltas: Vec<InstanceDelta>,
    },
    /// Warm re-solve session `sid` from its repaired incumbent.
    Solve {
        /// Session id.
        sid: u64,
        /// Per-request deadline (service default when absent).
        budget_ms: Option<u64>,
        /// Raced members (service default when absent).
        top_k: Option<usize>,
        /// Seed (service default when absent).
        seed: Option<u64>,
    },
    /// Close session `sid` and free its slot.
    Close {
        /// Session id.
        sid: u64,
    },
}

/// Per-solver attribution inside an OK response.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverLine {
    /// Solver name.
    pub name: String,
    /// Cost it achieved (`None` when it declined or failed).
    pub makespan: Option<Cost>,
    /// Wall-clock microseconds it ran.
    pub micros: u64,
    /// Whether it ran to natural completion.
    pub completed: bool,
}

/// One `(family, solver)` row of the win-rate standings inside the
/// metrics summary (score scaled by 1000 so the codec stays integral).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandingLine {
    /// Coarse feature family key.
    pub family: String,
    /// Solver name.
    pub solver: String,
    /// Races in which the solver held a slot.
    pub races: u64,
    /// Races it won.
    pub wins: u64,
    /// Recency-decayed win score × 1000, rounded.
    pub score_x1000: u64,
}

/// One per-stage latency row of the metrics summary: a named stage of the
/// request path (queue wait, race, journal append, …) with the percentile
/// image of its registry histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageLine {
    /// Stage name without the `stage.` prefix (e.g. `queue_wait_us`).
    pub stage: String,
    /// Samples recorded.
    pub count: u64,
    /// Median (µs, log₂-bucket interpolated).
    pub p50_us: u64,
    /// 90th percentile (µs).
    pub p90_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
    /// Largest sample (µs, exact).
    pub max_us: u64,
}

/// One per-solver observability row of the metrics summary: incumbent
/// improvements, race wins, and the time-to-first-incumbent percentiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverLatencyLine {
    /// Solver name (includes the virtual `greedy-baseline` and
    /// `warm-incumbent` members).
    pub solver: String,
    /// Incumbent improvements the solver produced across races.
    pub improvements: u64,
    /// Races whose final incumbent it produced.
    pub wins: u64,
    /// Median time-to-first-incumbent within a race (µs).
    pub first_p50_us: u64,
    /// 99th-percentile time-to-first-incumbent (µs).
    pub first_p99_us: u64,
}

/// Running service metrics (all integers so the codec stays exact).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSummary {
    /// Requests answered OK.
    pub count: u64,
    /// Requests answered with an error line.
    pub errors: u64,
    /// Service uptime in milliseconds.
    pub uptime_ms: u64,
    /// Throughput in requests per second, scaled by 1000.
    pub rps_x1000: u64,
    /// Session-store counters (live/evicted/warm-start hit rate).
    pub sessions: SessionStats,
    /// Group-commit batches written by appending leaders (0 when the
    /// store is non-durable).
    pub journal_batches: u64,
    /// Median records per committed batch.
    pub journal_batch_p50: u64,
    /// Largest batch committed so far.
    pub journal_batch_max: u64,
    /// Win-rate tracker standings, most-raced first (capped by the
    /// service).
    pub standings: Vec<StandingLine>,
    /// Per-stage latency histograms of the request path, name-sorted.
    pub stages: Vec<StageLine>,
    /// Per-solver improvement/win counters and time-to-first-incumbent
    /// percentiles, name-sorted.
    pub solver_latency: Vec<SolverLatencyLine>,
    /// Trace events dropped by the ring-buffered sink (0 when tracing is
    /// off or keeping up).
    pub trace_dropped: u64,
}

impl MetricsSummary {
    /// The latency row of `stage` (e.g. `race_us`), when recorded.
    pub fn stage(&self, stage: &str) -> Option<&StageLine> {
        self.stages.iter().find(|row| row.stage == stage)
    }
}

/// A response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful solve.
    Ok {
        /// Echoed request id.
        id: u64,
        /// `"uniform"`, `"unrelated"` or `"splittable"`.
        kind: String,
        /// Winning solver name.
        solver: String,
        /// Total race wall-clock in microseconds.
        micros: u64,
        /// Exact makespan of [`Response::Ok::solution`].
        makespan: Cost,
        /// The winning solution — an `"assignment"` array for the
        /// integral kinds, a `"shares"` table for the splittable one.
        solution: Solution,
        /// Per-raced-solver attribution.
        solvers: Vec<SolverLine>,
    },
    /// The request could not be served.
    Error {
        /// Echoed id when the request parsed far enough to have one.
        id: Option<u64>,
        /// Human-readable reason.
        message: String,
    },
    /// Session lifecycle ack (`create` / `close`): `{"status":
    /// "session", ...}`.
    Session {
        /// Echoed request id.
        id: u64,
        /// Session id the verb acted on.
        sid: u64,
        /// `"create"` or `"close"`.
        verb: String,
        /// Live sessions after the verb.
        live: u64,
        /// The session's incumbent cost (`create` acks carry the greedy
        /// incumbent's cost; `close` acks carry none).
        makespan: Option<Cost>,
    },
    /// Metrics summary (reply to `{"metrics": true}`).
    Metrics(MetricsSummary),
}

/// Writes an `f64` so it parses back as a float, never as an integer:
/// integral values get a trailing `.0`. Rust's shortest-roundtrip float
/// formatting guarantees `parse::<f64>` returns the identical bits.
fn write_f64(out: &mut String, x: f64) {
    if x == x.trunc() && x.is_finite() {
        let _ = write!(out, "{x:.1}");
    } else {
        let _ = write!(out, "{x}");
    }
}

pub(crate) fn write_cost(out: &mut String, cost: &Cost) {
    match cost {
        Cost::Time(t) => json::write_u64(out, *t),
        Cost::Frac(r) => {
            out.push_str("{\"num\": ");
            json::write_u64(out, r.numer());
            out.push_str(", \"den\": ");
            json::write_u64(out, r.denom());
            out.push('}');
        }
        Cost::Real(x) => write_f64(out, *x),
    }
}

/// Reads the cost at `p`: an unsigned integer is a [`Cost::Time`], any
/// other number a [`Cost::Real`], `{"num": N, "den": D}` a [`Cost::Frac`].
pub(crate) fn cost_at(p: Parser<'_>) -> Result<Cost, IoError> {
    // Each shape is tried on its own copy of the parser.
    let (mut int, mut real, mut frac) = (p, p, p);
    if let Some(t) = int.u64() {
        return Ok(Cost::Time(t));
    }
    if let Some(x) = real.f64() {
        return Ok(Cost::Real(x));
    }
    let [num, den] = frac
        .fields(["num", "den"])
        .map_err(IoError::Json)?
        .ok_or_else(|| IoError::Json("makespan must be a number or {num, den}".into()))?;
    let num = num
        .and_then(|mut p| p.u64())
        .ok_or_else(|| IoError::Json("makespan.num must be an integer".into()))?;
    let den = den
        .and_then(|mut p| p.u64())
        .filter(|&d| d > 0)
        .ok_or_else(|| IoError::Json("makespan.den must be a positive integer".into()))?;
    Ok(Cost::Frac(Ratio::new(num, den)))
}

/// Serializes an instance envelope: one JSON line (the request, session,
/// journal and snapshot paths) or, with `pretty`, the layout of an
/// instance file (`sst generate`, `sst unpack`).
pub fn instance_to_json(instance: &ProblemInstance, pretty: bool) -> String {
    match instance {
        ProblemInstance::Uniform(u) => io::uniform_to_json(u, pretty),
        ProblemInstance::Unrelated(r) => io::unrelated_to_json(r, Unrelated::KIND, pretty),
        ProblemInstance::Splittable(s) => {
            io::unrelated_to_json(s.inner(), Splittable::KIND, pretty)
        }
    }
}

/// Serializes a request to one NDJSON line.
pub fn request_to_json(req: &Request) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"id\": {}", req.id);
    if let Some(b) = req.budget_ms {
        let _ = write!(out, ", \"budget_ms\": {b}");
    }
    if let Some(k) = req.top_k {
        let _ = write!(out, ", \"top_k\": {k}");
    }
    if let Some(s) = req.seed {
        let _ = write!(out, ", \"seed\": {s}");
    }
    out.push_str(", \"instance\": ");
    out.push_str(&instance_to_json(&req.instance, false));
    out.push('}');
    out
}

/// The unsigned integer member `v` (`None` when absent).
fn uint(v: Option<Parser<'_>>, k: &str) -> Result<Option<u64>, IoError> {
    v.map(|mut p| {
        p.u64().ok_or_else(|| IoError::Json(format!("field '{k}' must be an unsigned integer")))
    })
    .transpose()
}

/// The unsigned integer member `v`, required.
pub(crate) fn req_uint(v: Option<Parser<'_>>, k: &str) -> Result<u64, IoError> {
    uint(v, k)?.ok_or_else(|| IoError::Json(format!("missing field '{k}'")))
}

/// The string member `v`, required.
fn string(v: Option<Parser<'_>>, k: &str) -> Result<String, IoError> {
    v.and_then(|mut p| p.string())
        .ok_or_else(|| IoError::Json(format!("missing string field '{k}'")))
}

/// The members `keys` of the object at `p` (see [`Parser::fields`]);
/// `what` names the value in the error when it is not an object.
fn object<'a, const N: usize>(
    mut p: Parser<'a>,
    keys: [&str; N],
    what: &str,
) -> Result<[Option<Parser<'a>>; N], IoError> {
    p.fields(keys)
        .map_err(IoError::Json)?
        .ok_or_else(|| IoError::Json(format!("{what} must be an object")))
}

/// The elements of the array at `p`; `what` names the value in the error
/// when it is not an array.
fn array<'a>(mut p: Parser<'a>, what: &str) -> Result<Vec<Parser<'a>>, IoError> {
    p.items()
        .map_err(IoError::Json)?
        .ok_or_else(|| IoError::Json(format!("{what} must be an array")))
}

/// Decodes the instance envelope (`{"kind": .., ..}`) at `p` into the
/// right model (see [`instance_from_doc`]). Shared by the session,
/// journal and snapshot paths.
pub(crate) fn instance_at(mut p: Parser<'_>) -> Result<ProblemInstance, IoError> {
    instance_from_doc(InstanceDoc::scan(&mut p).map_err(IoError::Json)?)
}

/// Builds the right model from a scanned instance envelope (`None`: the
/// value was not an object), enforcing the splittable feasibility gate.
/// Request lines and instance files (`sst` commands) both decode here.
pub fn instance_from_doc(doc: Option<InstanceDoc<'_>>) -> Result<ProblemInstance, IoError> {
    let doc = doc.ok_or_else(|| IoError::Json("field 'instance' must be an object".into()))?;
    let kind = doc.kind().ok_or_else(|| IoError::Json("instance.kind must be a string".into()))?;
    match kind.as_str() {
        "uniform" => Ok(ProblemInstance::Uniform(doc.uniform()?)),
        "unrelated" => Ok(ProblemInstance::Unrelated(doc.unrelated("unrelated")?)),
        "splittable" => {
            let inner = doc.unrelated("splittable")?;
            let split = SplittableInstance::new(inner).map_err(|e| IoError::Format(e.into()))?;
            Ok(ProblemInstance::Splittable(split))
        }
        other => Err(IoError::Format(format!("unknown instance kind '{other}'"))),
    }
}

/// The session verbs in reading precedence: a body naming several decodes
/// as the first one present.
pub(crate) const VERBS: [&str; 4] = ["create", "delta", "solve", "close"];

/// Decodes a session verb from the members of its body, given in
/// [`VERBS`] order. Session request lines and journal records share it.
pub(crate) fn verb_at(
    [create, delta, solve, close]: [Option<Parser<'_>>; 4],
) -> Result<SessionVerb, IoError> {
    let payload = |p, key: &str| {
        object(
            p,
            ["sid", "instance", "deltas", "budget_ms", "top_k", "seed"],
            &format!("session.{key}"),
        )
    };
    let sid_of =
        |v| uint(v, "sid")?.ok_or_else(|| IoError::Json("session verb missing 'sid'".into()));
    Ok(if let Some(p) = create {
        let [sid, instance, ..] = payload(p, "create")?;
        let instance = instance.ok_or_else(|| IoError::Json("create missing 'instance'".into()))?;
        SessionVerb::Create { sid: sid_of(sid)?, instance: instance_at(instance)? }
    } else if let Some(p) = delta {
        let [sid, _, deltas, ..] = payload(p, "delta")?;
        let deltas = deltas.ok_or_else(|| IoError::Json("delta missing 'deltas'".into()))?;
        SessionVerb::Delta { sid: sid_of(sid)?, deltas: deltas_at(deltas)? }
    } else if let Some(p) = solve {
        let [sid, _, _, budget_ms, top_k, seed] = payload(p, "solve")?;
        SessionVerb::Solve {
            sid: sid_of(sid)?,
            budget_ms: uint(budget_ms, "budget_ms")?,
            top_k: uint(top_k, "top_k")?.map(|k| k as usize),
            seed: uint(seed, "seed")?,
        }
    } else if let Some(p) = close {
        let [sid, ..] = payload(p, "close")?;
        SessionVerb::Close { sid: sid_of(sid)? }
    } else {
        return Err(IoError::Json(
            "session verb must be one of create | delta | solve | close".into(),
        ));
    })
}

/// Parses one incoming NDJSON line (one-shot request, session request, or
/// metrics probe). One syntax-checking pass locates the top-level members
/// and reads the instance's matrices straight into their flat buffers.
pub fn parse_incoming(line: &str) -> Result<Incoming, IoError> {
    const KEYS: [&str; 8] =
        ["metrics", "kill_worker", "crash", "id", "session", "budget_ms", "top_k", "seed"];
    let mut p = Parser::new(line);
    let mut at = [None; KEYS.len()];
    let mut instance = None;
    if !p.at_object() {
        p.skip_value().and_then(|()| p.finish()).map_err(IoError::Json)?;
        return Err(IoError::Json("request must be a JSON object".into()));
    }
    p.object(|p, key| {
        if key == "instance" {
            instance = Some(InstanceDoc::scan(p)?);
        } else {
            if let Some(i) = KEYS.iter().position(|k| *k == key) {
                at[i] = Some(*p);
            }
            p.skip_value()?;
        }
        Ok(())
    })
    .and_then(|()| p.finish())
    .map_err(IoError::Json)?;
    let [metrics, kill_worker, crash, id, session, budget_ms, top_k, seed] = at;
    let is_true = |v: Option<Parser<'_>>| v.and_then(|mut p| p.bool()) == Some(true);
    if is_true(metrics) {
        return Ok(Incoming::Metrics);
    }
    if is_true(kill_worker) {
        return Ok(Incoming::KillWorker);
    }
    if is_true(crash) {
        return Ok(Incoming::Crash);
    }
    let id = req_uint(id, "id")?;
    if let Some(session) = session {
        let verbs = object(session, VERBS, "field 'session'")?;
        return Ok(Incoming::Session(Box::new(SessionRequest { id, verb: verb_at(verbs)? })));
    }
    let instance = instance.ok_or_else(|| IoError::Json("missing field 'instance'".into()))?;
    let instance = instance_from_doc(instance)?;
    Ok(Incoming::Solve(Box::new(Request {
        id,
        instance,
        budget_ms: uint(budget_ms, "budget_ms")?,
        top_k: uint(top_k, "top_k")?.map(|k| k as usize),
        seed: uint(seed, "seed")?,
    })))
}

/// A session verb by reference: what [`write_verb`] encodes.
pub(crate) enum VerbRef<'a> {
    Create { sid: u64, instance: &'a ProblemInstance },
    Delta { sid: u64, deltas: &'a [InstanceDelta] },
    Solve { sid: u64, budget_ms: Option<u64>, top_k: Option<usize>, seed: Option<u64> },
    Close { sid: u64 },
}

impl SessionVerb {
    fn as_ref(&self) -> VerbRef<'_> {
        match self {
            SessionVerb::Create { sid, instance } => VerbRef::Create { sid: *sid, instance },
            SessionVerb::Delta { sid, deltas } => VerbRef::Delta { sid: *sid, deltas },
            &SessionVerb::Solve { sid, budget_ms, top_k, seed } => {
                VerbRef::Solve { sid, budget_ms, top_k, seed }
            }
            &SessionVerb::Close { sid } => VerbRef::Close { sid },
        }
    }
}

/// Writes a session verb body, `"<verb>": {"sid": .., ..}`, as one member
/// of an enclosing object. Session request lines and journal records share
/// it.
pub(crate) fn write_verb(out: &mut String, verb: VerbRef<'_>) {
    match verb {
        VerbRef::Create { sid, instance } => {
            let _ = write!(out, "\"create\": {{\"sid\": {sid}, \"instance\": ");
            out.push_str(&instance_to_json(instance, false));
            out.push('}');
        }
        VerbRef::Delta { sid, deltas } => {
            let _ = write!(
                out,
                "\"delta\": {{\"sid\": {sid}, \"deltas\": {}}}",
                deltas_to_json(deltas)
            );
        }
        VerbRef::Solve { sid, budget_ms, top_k, seed } => {
            let _ = write!(out, "\"solve\": {{\"sid\": {sid}");
            if let Some(b) = budget_ms {
                let _ = write!(out, ", \"budget_ms\": {b}");
            }
            if let Some(k) = top_k {
                let _ = write!(out, ", \"top_k\": {k}");
            }
            if let Some(s) = seed {
                let _ = write!(out, ", \"seed\": {s}");
            }
            out.push('}');
        }
        VerbRef::Close { sid } => {
            let _ = write!(out, "\"close\": {{\"sid\": {sid}}}");
        }
    }
}

/// Serializes a session request to one NDJSON line (the client half; see
/// [`SessionRequest`] for the shape).
pub fn session_request_to_json(req: &SessionRequest) -> String {
    let mut out = format!("{{\"id\": {}, \"session\": {{", req.id);
    write_verb(&mut out, req.verb.as_ref());
    out.push_str("}}");
    out
}

/// Best-effort id extraction from a request line that failed full parsing
/// (bad instance, missing fields, …): error responses echo the id when the
/// line was at least a JSON object carrying one, so pipelined clients can
/// correlate the failure. `None` for lines that never parsed that far.
/// The line is syntax-checked by skipping, without building values.
pub fn extract_request_id(line: &str) -> Option<u64> {
    let mut p = Parser::new(line);
    let [id] = p.fields(["id"]).ok()??;
    p.finish().ok()?;
    id?.u64()
}

pub(crate) fn write_solution(out: &mut String, solution: &Solution) {
    match solution {
        Solution::Assignment(sched) => {
            out.push_str("\"assignment\": ");
            json::write_usize_array(out, sched.assignment());
        }
        Solution::Split(split) => {
            out.push_str("\"shares\": [");
            for (k, row) in split.shares().iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                for (i, share) in row.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("{\"machine\": ");
                    json::write_u64(out, share.machine as u64);
                    out.push_str(", \"fraction\": ");
                    write_f64(out, share.fraction);
                    out.push('}');
                }
                out.push(']');
            }
            out.push(']');
        }
    }
}

/// Reads the `shares` table of a split schedule at `p`.
pub(crate) fn shares_at(p: Parser<'_>) -> Result<SplitSchedule, IoError> {
    let share = |p| {
        let [machine, fraction] = object(p, ["machine", "fraction"], "shares[][]")?;
        let machine = machine
            .and_then(|mut p| p.u64())
            .and_then(|i| usize::try_from(i).ok())
            .ok_or_else(|| IoError::Json("share.machine must be an integer".into()))?;
        let fraction = fraction
            .and_then(|mut p| p.f64())
            .ok_or_else(|| IoError::Json("share.fraction must be a number".into()))?;
        Ok(SplitShare { machine, fraction })
    };
    let rows = array(p, "'shares'")?.into_iter().map(|row| {
        array(row, "shares[] row")?.into_iter().map(share).collect::<Result<Vec<_>, IoError>>()
    });
    Ok(SplitSchedule::new(rows.collect::<Result<_, _>>()?))
}

/// Bytes reserved per response line beyond its assignment: the envelope,
/// the solver rows and the newline [`crate::service`] appends, so a
/// typical line is written without growing its buffer.
const RESPONSE_SLACK: usize = 512;

/// Serializes a response to one NDJSON line (without the newline). The
/// integers of the OK, error and session lines go through
/// [`json::write_u64`].
pub fn response_to_json(resp: &Response) -> String {
    let jobs = match resp {
        Response::Ok { solution: Solution::Assignment(s), .. } => s.assignment().len(),
        _ => 0,
    };
    // Up to two digits and the ", " separator per job.
    let mut out = String::with_capacity(RESPONSE_SLACK + 4 * jobs);
    match resp {
        Response::Ok { id, kind, solver, micros, makespan, solution, solvers } => {
            out.push_str("{\"id\": ");
            json::write_u64(&mut out, *id);
            let _ = write!(
                out,
                ", \"status\": \"ok\", \"kind\": \"{kind}\", \"solver\": \"{}\", \"micros\": ",
                Escaped(solver)
            );
            json::write_u64(&mut out, *micros);
            out.push_str(", \"makespan\": ");
            write_cost(&mut out, makespan);
            out.push_str(", ");
            write_solution(&mut out, solution);
            out.push_str(", \"solvers\": [");
            for (i, s) in solvers.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"name\": \"{}\", \"makespan\": ", Escaped(&s.name));
                match &s.makespan {
                    Some(c) => write_cost(&mut out, c),
                    None => out.push_str("null"),
                }
                out.push_str(", \"micros\": ");
                json::write_u64(&mut out, s.micros);
                out.push_str(if s.completed {
                    ", \"completed\": true}"
                } else {
                    ", \"completed\": false}"
                });
            }
            out.push_str("]}");
        }
        Response::Error { id, message } => {
            out.push('{');
            if let Some(id) = id {
                out.push_str("\"id\": ");
                json::write_u64(&mut out, *id);
                out.push_str(", ");
            }
            let _ = write!(out, "\"status\": \"error\", \"message\": \"{}\"}}", Escaped(message));
        }
        Response::Session { id, sid, verb, live, makespan } => {
            out.push_str("{\"id\": ");
            json::write_u64(&mut out, *id);
            out.push_str(", \"status\": \"session\", \"sid\": ");
            json::write_u64(&mut out, *sid);
            let _ = write!(out, ", \"verb\": \"{}\", \"live\": ", Escaped(verb));
            json::write_u64(&mut out, *live);
            if let Some(cost) = makespan {
                out.push_str(", \"makespan\": ");
                write_cost(&mut out, cost);
            }
            out.push('}');
        }
        Response::Metrics(m) => {
            let _ = write!(
                out,
                "{{\"status\": \"metrics\", \"count\": {}, \"errors\": {}, \"uptime_ms\": {}, \"rps_x1000\": {}",
                m.count, m.errors, m.uptime_ms, m.rps_x1000
            );
            let s = &m.sessions;
            let _ = write!(
                out,
                ", \"sessions\": {{\"live\": {}, \"evicted\": {}, \"warm_hits\": {}, \"warm_misses\": {}, \"spills\": {}, \"cold_reloads\": {}, \"recovered\": {}, \"journal_appends\": {}, \"journal_bytes\": {}, \"snapshots\": {}}}",
                s.live, s.evicted, s.warm_hits, s.warm_misses, s.spills, s.cold_reloads,
                s.recovered, s.journal_appends, s.journal_bytes, s.snapshots
            );
            let _ = write!(
                out,
                ", \"journal_batch\": {{\"batches\": {}, \"p50\": {}, \"max\": {}}}",
                m.journal_batches, m.journal_batch_p50, m.journal_batch_max
            );
            out.push_str(", \"standings\": [");
            for (i, s) in m.standings.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"family\": \"{}\", \"solver\": \"{}\", \"races\": {}, \"wins\": {}, \"score_x1000\": {}}}",
                    Escaped(&s.family),
                    Escaped(&s.solver),
                    s.races,
                    s.wins,
                    s.score_x1000
                );
            }
            out.push(']');
            out.push_str(", \"stages\": [");
            for (i, st) in m.stages.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"stage\": \"{}\", \"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                    Escaped(&st.stage),
                    st.count,
                    st.p50_us,
                    st.p90_us,
                    st.p99_us,
                    st.max_us
                );
            }
            out.push(']');
            out.push_str(", \"solver_latency\": [");
            for (i, sl) in m.solver_latency.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"solver\": \"{}\", \"improvements\": {}, \"wins\": {}, \"first_p50_us\": {}, \"first_p99_us\": {}}}",
                    Escaped(&sl.solver),
                    sl.improvements,
                    sl.wins,
                    sl.first_p50_us,
                    sl.first_p99_us
                );
            }
            out.push(']');
            let _ = write!(out, ", \"trace_dropped\": {}}}", m.trace_dropped);
        }
    }
    out
}

/// Parses one response line (the client half of the codec; the integration
/// tests and any Rust client use this).
pub fn parse_response(line: &str) -> Result<Response, IoError> {
    let mut p = Parser::new(line);
    let fields = p.fields(["status"]).and_then(|f| p.finish().map(|()| f));
    let [status] = fields
        .map_err(IoError::Json)?
        .ok_or_else(|| IoError::Json("response must be a JSON object".into()))?;
    let status = status.and_then(|mut p| p.string());
    let status = status.ok_or_else(|| IoError::Json("missing field 'status'".into()))?;
    let p = Parser::new(line);
    match status.as_str() {
        "ok" => {
            const KEYS: [&str; 8] =
                ["id", "kind", "solver", "micros", "makespan", "assignment", "shares", "solvers"];
            let [id, kind, solver, micros, makespan, assignment, shares, solvers] =
                object(p, KEYS, "response")?;
            let id = req_uint(id, "id")?;
            let kind = string(kind, "kind")?;
            let solver = string(solver, "solver")?;
            let micros = req_uint(micros, "micros")?;
            let makespan =
                cost_at(makespan.ok_or_else(|| IoError::Json("missing 'makespan'".into()))?)?;
            let solution = if let Some(p) = assignment {
                let bad = |_| IoError::Json("bad 'assignment'".into());
                Solution::Assignment(io::schedule_at(p).map_err(bad)?)
            } else if let Some(p) = shares {
                Solution::Split(shares_at(p)?)
            } else {
                return Err(IoError::Json("missing 'assignment' or 'shares'".into()));
            };
            // A `solvers` member that is not an array reads as empty.
            let solvers = solvers.and_then(|mut p| p.items().ok()?).unwrap_or_default();
            let solvers = solvers.into_iter().map(|p| {
                let [name, makespan, micros, completed] =
                    object(p, ["name", "makespan", "micros", "completed"], "solvers[]")?;
                Ok(SolverLine {
                    name: string(name, "solvers[].name")?,
                    makespan: makespan.filter(|p| !p.is_null()).map(cost_at).transpose()?,
                    micros: uint(micros, "micros")?.unwrap_or(0),
                    completed: completed.and_then(|mut p| p.bool()) == Some(true),
                })
            });
            let solvers = solvers.collect::<Result<_, IoError>>()?;
            Ok(Response::Ok { id, kind, solver, micros, makespan, solution, solvers })
        }
        "error" => {
            let [id, message] = object(p, ["id", "message"], "response")?;
            let message = string(message, "message")?;
            Ok(Response::Error { id: uint(id, "id")?, message })
        }
        "session" => {
            let [id, sid, verb, live, makespan] =
                object(p, ["id", "sid", "verb", "live", "makespan"], "response")?;
            Ok(Response::Session {
                id: req_uint(id, "id")?,
                sid: req_uint(sid, "sid")?,
                verb: string(verb, "verb")?,
                live: req_uint(live, "live")?,
                makespan: makespan.map(cost_at).transpose()?,
            })
        }
        "metrics" => parse_metrics(p),
        other => Err(IoError::Format(format!("unknown status '{other}'"))),
    }
}

/// Reads a metrics summary line; every member the writer emits is
/// required.
fn parse_metrics<'a>(p: Parser<'a>) -> Result<Response, IoError> {
    const KEYS: [&str; 10] = [
        "count",
        "errors",
        "uptime_ms",
        "rps_x1000",
        "sessions",
        "journal_batch",
        "standings",
        "stages",
        "solver_latency",
        "trace_dropped",
    ];
    let [count, errors, uptime_ms, rps_x1000, sessions, batch, standings, stages, solvers, dropped] =
        object(p, KEYS, "response")?;
    let required = |v: Option<Parser<'a>>, k: &str| {
        v.ok_or_else(|| IoError::Json(format!("missing field '{k}'")))
    };
    const SESSION_KEYS: [&str; 10] = [
        "live",
        "evicted",
        "warm_hits",
        "warm_misses",
        "spills",
        "cold_reloads",
        "recovered",
        "journal_appends",
        "journal_bytes",
        "snapshots",
    ];
    let [live, evicted, warm_hits, warm_misses, spills, cold_reloads, recovered, appends, bytes, snaps] =
        object(required(sessions, "sessions")?, SESSION_KEYS, "'sessions'")?;
    let sessions = SessionStats {
        live: req_uint(live, "live")?,
        evicted: req_uint(evicted, "evicted")?,
        warm_hits: req_uint(warm_hits, "warm_hits")?,
        warm_misses: req_uint(warm_misses, "warm_misses")?,
        spills: req_uint(spills, "spills")?,
        cold_reloads: req_uint(cold_reloads, "cold_reloads")?,
        recovered: req_uint(recovered, "recovered")?,
        journal_appends: req_uint(appends, "journal_appends")?,
        journal_bytes: req_uint(bytes, "journal_bytes")?,
        snapshots: req_uint(snaps, "snapshots")?,
    };
    let [batches, batch_p50, batch_max] =
        object(required(batch, "journal_batch")?, ["batches", "p50", "max"], "'journal_batch'")?;
    let rows = |v, k: &str| array(required(v, k)?, k);
    let standings = rows(standings, "standings")?.into_iter().map(|p| {
        let [family, solver, races, wins, score] =
            object(p, ["family", "solver", "races", "wins", "score_x1000"], "standings[]")?;
        Ok(StandingLine {
            family: string(family, "family")?,
            solver: string(solver, "solver")?,
            races: req_uint(races, "races")?,
            wins: req_uint(wins, "wins")?,
            score_x1000: req_uint(score, "score_x1000")?,
        })
    });
    let stages = rows(stages, "stages")?.into_iter().map(|p| {
        let [stage, count, p50, p90, p99, max] =
            object(p, ["stage", "count", "p50_us", "p90_us", "p99_us", "max_us"], "stages[]")?;
        Ok(StageLine {
            stage: string(stage, "stage")?,
            count: req_uint(count, "count")?,
            p50_us: req_uint(p50, "p50_us")?,
            p90_us: req_uint(p90, "p90_us")?,
            p99_us: req_uint(p99, "p99_us")?,
            max_us: req_uint(max, "max_us")?,
        })
    });
    let solver_latency = rows(solvers, "solver_latency")?.into_iter().map(|p| {
        const KEYS: [&str; 5] = ["solver", "improvements", "wins", "first_p50_us", "first_p99_us"];
        let [solver, improvements, wins, first_p50, first_p99] =
            object(p, KEYS, "solver_latency[]")?;
        Ok(SolverLatencyLine {
            solver: string(solver, "solver")?,
            improvements: req_uint(improvements, "improvements")?,
            wins: req_uint(wins, "wins")?,
            first_p50_us: req_uint(first_p50, "first_p50_us")?,
            first_p99_us: req_uint(first_p99, "first_p99_us")?,
        })
    });
    Ok(Response::Metrics(MetricsSummary {
        count: req_uint(count, "count")?,
        errors: req_uint(errors, "errors")?,
        uptime_ms: req_uint(uptime_ms, "uptime_ms")?,
        rps_x1000: req_uint(rps_x1000, "rps_x1000")?,
        sessions,
        journal_batches: req_uint(batches, "batches")?,
        journal_batch_p50: req_uint(batch_p50, "p50")?,
        journal_batch_max: req_uint(batch_max, "max")?,
        standings: standings.collect::<Result<_, IoError>>()?,
        stages: stages.collect::<Result<_, IoError>>()?,
        solver_latency: solver_latency.collect::<Result<_, IoError>>()?,
        trace_dropped: req_uint(dropped, "trace_dropped")?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
    use sst_core::schedule::Schedule;

    #[test]
    fn request_roundtrip_all_kinds() {
        let u = Request {
            id: 7,
            instance: ProblemInstance::Uniform(
                UniformInstance::new(vec![2, 1], vec![3], vec![Job::new(0, 4)]).unwrap(),
            ),
            budget_ms: Some(50),
            top_k: Some(3),
            seed: None,
        };
        let line = request_to_json(&u);
        assert!(!line.contains('\n'));
        assert_eq!(parse_incoming(&line).unwrap(), Incoming::Solve(Box::new(u)));

        let r = Request {
            id: 9,
            instance: ProblemInstance::Unrelated(
                UnrelatedInstance::new(
                    2,
                    vec![0, 1],
                    vec![vec![3, INF], vec![INF, 4]],
                    vec![vec![1, 1], vec![2, 2]],
                )
                .unwrap(),
            ),
            budget_ms: None,
            top_k: None,
            seed: Some(11),
        };
        let line = request_to_json(&r);
        assert_eq!(parse_incoming(&line).unwrap(), Incoming::Solve(Box::new(r)));

        let s = Request {
            id: 11,
            instance: ProblemInstance::Splittable(SplittableInstance(
                UnrelatedInstance::new(
                    2,
                    vec![0, 1],
                    vec![vec![3, 5], vec![6, 4]],
                    vec![vec![1, 1], vec![2, 2]],
                )
                .unwrap(),
            )),
            budget_ms: Some(40),
            top_k: None,
            seed: None,
        };
        let line = request_to_json(&s);
        assert!(line.contains("\"kind\": \"splittable\""), "{line}");
        assert_eq!(parse_incoming(&line).unwrap(), Incoming::Solve(Box::new(s)));
    }

    #[test]
    fn splittable_requests_with_unhostable_classes_are_rejected() {
        // Job-wise schedulable, but class 0 fits whole on no machine.
        let line = "{\"id\": 3, \"instance\": {\"version\": 1, \"kind\": \"splittable\", \
                    \"m\": 2, \"job_class\": [0, 0], \
                    \"ptimes\": [[4, 18446744073709551615], [18446744073709551615, 4]], \
                    \"setups\": [[1, 1]]}}";
        let err = parse_incoming(line).unwrap_err();
        assert!(err.to_string().contains("host it whole"), "{err}");
    }

    #[test]
    fn metrics_probe_and_errors() {
        assert_eq!(parse_incoming("{\"metrics\": true}").unwrap(), Incoming::Metrics);
        assert_eq!(parse_incoming("{\"kill_worker\": true}").unwrap(), Incoming::KillWorker);
        assert_eq!(parse_incoming("{\"crash\": true}").unwrap(), Incoming::Crash);
        assert!(parse_incoming("{\"kill_worker\": false}").is_err(), "only `true` is a probe");
        assert!(parse_incoming("{\"crash\": false}").is_err(), "only `true` is a probe");
        assert!(parse_incoming("not json").is_err());
        assert!(parse_incoming("{\"id\": 1}").is_err(), "missing instance");
        assert!(parse_incoming("[1, 2]").is_err(), "non-object");
    }

    #[test]
    fn response_roundtrip_with_rational_makespan() {
        let resp = Response::Ok {
            id: 3,
            kind: "uniform".into(),
            solver: "lpt".into(),
            micros: 1234,
            makespan: Cost::Frac(Ratio::new(7, 2)),
            solution: Solution::Assignment(Schedule::new(vec![0, 1, 0])),
            solvers: vec![
                SolverLine {
                    name: "lpt".into(),
                    makespan: Some(Cost::Frac(Ratio::new(7, 2))),
                    micros: 200,
                    completed: true,
                },
                SolverLine { name: "anneal".into(), makespan: None, micros: 900, completed: false },
            ],
        };
        let line = response_to_json(&resp);
        assert!(!line.contains('\n'));
        assert_eq!(parse_response(&line).unwrap(), resp);
    }

    #[test]
    fn split_response_roundtrips_shares_and_float_makespan() {
        let resp = Response::Ok {
            id: 4,
            kind: "splittable".into(),
            solver: "split2".into(),
            micros: 310,
            makespan: Cost::Real(22.0),
            solution: Solution::Split(SplitSchedule::new(vec![
                vec![
                    SplitShare { machine: 0, fraction: 0.5 },
                    SplitShare { machine: 1, fraction: 0.5 },
                ],
                vec![SplitShare { machine: 1, fraction: 1.0 }],
            ])),
            solvers: vec![SolverLine {
                name: "split2".into(),
                makespan: Some(Cost::Real(22.25)),
                micros: 300,
                completed: true,
            }],
        };
        let line = response_to_json(&resp);
        assert!(!line.contains('\n'));
        // Integral floats keep a decimal point so they parse back as Real,
        // never as Time.
        assert!(line.contains("\"makespan\": 22.0"), "{line}");
        assert_eq!(parse_response(&line).unwrap(), resp);
    }

    #[test]
    fn error_and_metrics_roundtrip() {
        let e = Response::Error { id: Some(4), message: "bad \"instance\"\nline".into() };
        assert_eq!(parse_response(&response_to_json(&e)).unwrap(), e);
        let anon = Response::Error { id: None, message: "unparseable".into() };
        assert_eq!(parse_response(&response_to_json(&anon)).unwrap(), anon);
        let m = Response::Metrics(MetricsSummary {
            count: 10,
            errors: 1,
            uptime_ms: 5000,
            rps_x1000: 2000,
            sessions: SessionStats {
                live: 3,
                evicted: 1,
                warm_hits: 4,
                warm_misses: 2,
                spills: 5,
                cold_reloads: 2,
                recovered: 3,
                journal_appends: 17,
                journal_bytes: 4096,
                snapshots: 6,
            },
            journal_batches: 5,
            journal_batch_p50: 3,
            journal_batch_max: 17,
            standings: vec![StandingLine {
                family: "uniform|setup-light|mid".into(),
                solver: "lpt".into(),
                races: 9,
                wins: 7,
                score_x1000: 633,
            }],
            stages: vec![
                StageLine {
                    stage: "queue_wait_us".into(),
                    count: 11,
                    p50_us: 40,
                    p90_us: 90,
                    p99_us: 200,
                    max_us: 250,
                },
                StageLine {
                    stage: "race_us".into(),
                    count: 10,
                    p50_us: 900,
                    p90_us: 1800,
                    p99_us: 2500,
                    max_us: 2600,
                },
            ],
            solver_latency: vec![SolverLatencyLine {
                solver: "local-search".into(),
                improvements: 6,
                wins: 4,
                first_p50_us: 300,
                first_p99_us: 1200,
            }],
            trace_dropped: 2,
        });
        assert_eq!(parse_response(&response_to_json(&m)).unwrap(), m);
        // The reader requires every member the writer emits.
        let line = response_to_json(&m);
        assert!(!line.contains("mean_us"), "{line}");
        for key in ["\"sessions\"", "\"journal_batch\"", "\"stages\"", "\"trace_dropped\""] {
            let renamed = line.replacen(key, "\"renamed\"", 1);
            assert!(matches!(parse_response(&renamed), Err(IoError::Json(_))), "{renamed}");
        }
    }

    #[test]
    fn session_requests_roundtrip_every_verb() {
        let instance = ProblemInstance::Uniform(
            UniformInstance::new(vec![2, 1], vec![3], vec![Job::new(0, 4)]).unwrap(),
        );
        let reqs = vec![
            SessionRequest { id: 1, verb: SessionVerb::Create { sid: 7, instance } },
            SessionRequest {
                id: 2,
                verb: SessionVerb::Delta {
                    sid: 7,
                    deltas: vec![
                        InstanceDelta::AddJob { class: 0, times: vec![5] },
                        InstanceDelta::RemoveJob { job: 0 },
                        InstanceDelta::ResizeSetup { class: 0, times: vec![9] },
                    ],
                },
            },
            SessionRequest {
                id: 3,
                verb: SessionVerb::Solve {
                    sid: 7,
                    budget_ms: Some(50),
                    top_k: Some(2),
                    seed: None,
                },
            },
            SessionRequest { id: 4, verb: SessionVerb::Close { sid: 7 } },
        ];
        for req in reqs {
            let line = session_request_to_json(&req);
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(
                parse_incoming(&line).unwrap(),
                Incoming::Session(Box::new(req.clone())),
                "{line}"
            );
        }
        // Malformed session envelopes fail cleanly.
        assert!(parse_incoming("{\"id\": 1, \"session\": {\"nope\": {}}}").is_err());
        assert!(parse_incoming("{\"id\": 1, \"session\": {\"create\": {\"sid\": 2}}}").is_err());
        assert!(parse_incoming("{\"id\": 1, \"session\": {\"close\": {}}}").is_err());
        assert!(parse_incoming("{\"session\": {\"close\": {\"sid\": 1}}}").is_err(), "id required");
    }

    #[test]
    fn session_response_roundtrips_with_and_without_cost() {
        let create = Response::Session {
            id: 1,
            sid: 7,
            verb: "create".into(),
            live: 3,
            makespan: Some(Cost::Frac(Ratio::new(7, 2))),
        };
        assert_eq!(parse_response(&response_to_json(&create)).unwrap(), create);
        let close =
            Response::Session { id: 4, sid: 7, verb: "close".into(), live: 2, makespan: None };
        assert_eq!(parse_response(&response_to_json(&close)).unwrap(), close);
    }
}
