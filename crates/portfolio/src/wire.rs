//! Binary request/response framing for the serve protocol — the
//! portfolio-level half of the wire format whose header, checksum and
//! per-model payload codecs live in [`sst_core::wire`].
//!
//! The kind-tagged instance is read and written here only
//! ([`write_problem_instance`] / [`read_problem_instance`]): the `KIND_*`
//! byte, then the model payload. Requests, session creates, durable
//! snapshots and the on-disk [`FT_INSTANCE`] container
//! ([`instance_to_container`], the `--format packed` file) all carry it.
//!
//! Every NDJSON message of [`crate::protocol`] has a framed counterpart:
//!
//! * [`FT_REQUEST`] — one-shot solve: `id u64, flags u8` (bit 0
//!   `budget_ms`, bit 1 `top_k`, bit 2 `seed`, each a `u64` when present),
//!   then the kind-tagged packed instance.
//! * [`FT_SESSION`] — session verb: `id u64, sid u64, verb u8`
//!   (0 create, 1 delta, 2 solve, 3 close), then the verb body. The sid
//!   sits at the fixed payload offset 8, so lane routing reads 8 bytes
//!   instead of decoding the body.
//! * [`FT_METRICS`] — empty payload, the `{"metrics": true}` probe.
//! * [`FT_RESPONSE_OK`] / [`FT_RESPONSE_ERROR`] / [`FT_RESPONSE_SESSION`]
//!   — the packed responses.
//! * [`FT_JSON`] — an NDJSON line in a frame, both directions: inbound it
//!   carries any JSON verb a binary client wants framed (the
//!   fault-injection probes), outbound it carries the metrics summary,
//!   whose wide observability schema has no packed encoding on purpose.
//!
//! Costs encode as a tag byte (`0` integral `u64`, `1` exact rational
//! `num/den`, `2` an `f64` **by bits** — so a binary round-trip is
//! bit-identical, matching the JSON codec's shortest-roundtrip float
//! guarantee). Splittable shares encode fractions the same way.
//!
//! Decoding enforces the same semantic gates as the JSON path: instances
//! revalidate once per frame via the normal constructors, and splittable
//! instances must pass [`SplittableInstance::new`]'s hostability gate.

use sst_algos::splittable::{SplitSchedule, SplitShare};
use sst_core::model::{MachineModel, Splittable, Uniform, Unrelated};
use sst_core::ratio::Ratio;
use sst_core::wire::{
    decode_frame, encode_frame, put_str, put_u32, put_u64, put_u8, read_deltas, read_schedule,
    read_uniform, read_unrelated, write_deltas, write_schedule, write_uniform, write_unrelated,
    Cursor, WireError, KIND_SPLITTABLE, KIND_UNIFORM, KIND_UNRELATED,
};
pub use sst_core::wire::{
    FT_INSTANCE, FT_JSON, FT_METRICS, FT_REQUEST, FT_RESPONSE_ERROR, FT_RESPONSE_OK,
    FT_RESPONSE_SESSION, FT_SESSION,
};

use crate::model::{Solution, SplittableInstance};
use crate::protocol::{
    parse_incoming, response_to_json, Incoming, Request, Response, SessionRequest, SessionVerb,
    SolverLine,
};
use crate::solver::{Cost, ProblemInstance};

const VERB_CREATE: u8 = 0;
const VERB_DELTA: u8 = 1;
const VERB_SOLVE: u8 = 2;
const VERB_CLOSE: u8 = 3;

const COST_TIME: u8 = 0;
const COST_FRAC: u8 = 1;
const COST_REAL: u8 = 2;

const SOLUTION_ASSIGNMENT: u8 = 0;
const SOLUTION_SPLIT: u8 = 1;

/// Each instance kind's protocol name and packed tag byte: the one table
/// between the two, read by the response codec.
const KINDS: [(&str, u8); 3] = [
    (Uniform::KIND, KIND_UNIFORM),
    (Unrelated::KIND, KIND_UNRELATED),
    (Splittable::KIND, KIND_SPLITTABLE),
];

// ---------------------------------------------------------------------------
// Shared value codecs (also used by the packed durable snapshots)
// ---------------------------------------------------------------------------

/// Appends a kind-tagged packed instance: the `KIND_*` byte, then the
/// model payload of [`sst_core::wire`] (the splittable model shares the
/// unrelated one).
pub fn write_problem_instance(out: &mut Vec<u8>, instance: &ProblemInstance) {
    match instance {
        ProblemInstance::Uniform(u) => {
            put_u8(out, KIND_UNIFORM);
            write_uniform(out, u);
        }
        ProblemInstance::Unrelated(u) => {
            put_u8(out, KIND_UNRELATED);
            write_unrelated(out, u);
        }
        ProblemInstance::Splittable(s) => {
            put_u8(out, KIND_SPLITTABLE);
            write_unrelated(out, s.inner());
        }
    }
}

/// Reads a kind-tagged packed instance, with the gate the JSON decoder
/// ([`crate::protocol::instance_from_doc`]) applies: a splittable instance
/// must have every nonempty class hostable whole on some machine.
pub fn read_problem_instance(cur: &mut Cursor<'_>) -> Result<ProblemInstance, WireError> {
    match cur.u8()? {
        KIND_UNIFORM => Ok(ProblemInstance::Uniform(read_uniform(cur)?)),
        KIND_UNRELATED => Ok(ProblemInstance::Unrelated(read_unrelated(cur)?)),
        KIND_SPLITTABLE => SplittableInstance::new(read_unrelated(cur)?)
            .map(ProblemInstance::Splittable)
            .map_err(|e| WireError::Malformed(e.into())),
        t => Err(WireError::Malformed(format!("unknown instance kind tag {t}"))),
    }
}

/// Encodes an instance as a standalone [`FT_INSTANCE`] container frame —
/// the on-disk packed format (`sst generate --format packed`, `sst pack`).
pub fn instance_to_container(instance: &ProblemInstance) -> Vec<u8> {
    let mut payload = Vec::new();
    write_problem_instance(&mut payload, instance);
    encode_frame(FT_INSTANCE, &payload)
}

/// Decodes a packed container file produced by [`instance_to_container`].
pub fn instance_from_container(bytes: &[u8]) -> Result<ProblemInstance, WireError> {
    let (frame_type, payload) = decode_frame(bytes)?;
    if frame_type != FT_INSTANCE {
        return Err(WireError::UnknownFrameType(frame_type));
    }
    let mut cur = Cursor::new(payload);
    let instance = read_problem_instance(&mut cur)?;
    cur.finish()?;
    Ok(instance)
}

pub(crate) fn write_cost(out: &mut Vec<u8>, cost: &Cost) {
    match cost {
        Cost::Time(t) => {
            put_u8(out, COST_TIME);
            put_u64(out, *t);
        }
        Cost::Frac(r) => {
            put_u8(out, COST_FRAC);
            put_u64(out, r.numer());
            put_u64(out, r.denom());
        }
        Cost::Real(x) => {
            put_u8(out, COST_REAL);
            put_u64(out, x.to_bits());
        }
    }
}

pub(crate) fn read_cost(cur: &mut Cursor<'_>) -> Result<Cost, WireError> {
    match cur.u8()? {
        COST_TIME => Ok(Cost::Time(cur.u64()?)),
        COST_FRAC => {
            let num = cur.u64()?;
            let den = cur.u64()?;
            if den == 0 {
                return Err(WireError::Malformed("rational cost with zero denominator".into()));
            }
            Ok(Cost::Frac(Ratio::new(num, den)))
        }
        COST_REAL => Ok(Cost::Real(f64::from_bits(cur.u64()?))),
        t => Err(WireError::Malformed(format!("unknown cost tag {t}"))),
    }
}

fn write_opt_cost(out: &mut Vec<u8>, cost: &Option<Cost>) {
    match cost {
        None => put_u8(out, 0),
        Some(c) => {
            put_u8(out, 1);
            write_cost(out, c);
        }
    }
}

fn read_opt_cost(cur: &mut Cursor<'_>) -> Result<Option<Cost>, WireError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_cost(cur)?)),
        t => Err(WireError::Malformed(format!("bad option tag {t}"))),
    }
}

pub(crate) fn write_solution(out: &mut Vec<u8>, solution: &Solution) {
    match solution {
        Solution::Assignment(sched) => {
            put_u8(out, SOLUTION_ASSIGNMENT);
            write_schedule(out, sched);
        }
        Solution::Split(split) => {
            put_u8(out, SOLUTION_SPLIT);
            let shares = split.shares();
            put_u32(out, shares.len() as u32);
            for row in shares {
                put_u32(out, row.len() as u32);
                for share in row {
                    put_u32(out, share.machine as u32);
                    put_u64(out, share.fraction.to_bits());
                }
            }
        }
    }
}

pub(crate) fn read_solution(cur: &mut Cursor<'_>) -> Result<Solution, WireError> {
    match cur.u8()? {
        SOLUTION_ASSIGNMENT => Ok(Solution::Assignment(read_schedule(cur)?)),
        SOLUTION_SPLIT => {
            let classes = cur.len(4)?;
            let mut shares = Vec::with_capacity(classes);
            for _ in 0..classes {
                let n = cur.len(12)?;
                let mut row = Vec::with_capacity(n);
                for _ in 0..n {
                    let machine = cur.u32()? as usize;
                    let fraction = f64::from_bits(cur.u64()?);
                    row.push(SplitShare { machine, fraction });
                }
                shares.push(row);
            }
            Ok(Solution::Split(SplitSchedule::new(shares)))
        }
        t => Err(WireError::Malformed(format!("unknown solution tag {t}"))),
    }
}

fn kind_to_byte(kind: &str) -> Result<u8, WireError> {
    KINDS
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, b)| *b)
        .ok_or_else(|| WireError::Malformed(format!("unknown instance kind '{kind}'")))
}

fn kind_from_byte(b: u8) -> Result<&'static str, WireError> {
    KINDS
        .iter()
        .find(|(_, v)| *v == b)
        .map(|(k, _)| *k)
        .ok_or_else(|| WireError::Malformed(format!("unknown kind byte {b}")))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

fn write_options(
    out: &mut Vec<u8>,
    budget_ms: Option<u64>,
    top_k: Option<usize>,
    seed: Option<u64>,
) {
    let mut flags = 0u8;
    if budget_ms.is_some() {
        flags |= 1;
    }
    if top_k.is_some() {
        flags |= 2;
    }
    if seed.is_some() {
        flags |= 4;
    }
    put_u8(out, flags);
    if let Some(b) = budget_ms {
        put_u64(out, b);
    }
    if let Some(k) = top_k {
        put_u64(out, k as u64);
    }
    if let Some(s) = seed {
        put_u64(out, s);
    }
}

type Options = (Option<u64>, Option<usize>, Option<u64>);

fn read_options(cur: &mut Cursor<'_>) -> Result<Options, WireError> {
    let flags = cur.u8()?;
    if flags & !0b111 != 0 {
        return Err(WireError::Malformed(format!("unknown option flags {flags:#04x}")));
    }
    let budget_ms = if flags & 1 != 0 { Some(cur.u64()?) } else { None };
    let top_k = if flags & 2 != 0 { Some(cur.u64()? as usize) } else { None };
    let seed = if flags & 4 != 0 { Some(cur.u64()?) } else { None };
    Ok((budget_ms, top_k, seed))
}

/// Encodes a one-shot solve request as a complete [`FT_REQUEST`] frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, req.id);
    write_options(&mut payload, req.budget_ms, req.top_k, req.seed);
    write_problem_instance(&mut payload, &req.instance);
    encode_frame(FT_REQUEST, &payload)
}

/// Encodes a session verb as a complete [`FT_SESSION`] frame.
pub fn encode_session(req: &SessionRequest) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, req.id);
    match &req.verb {
        SessionVerb::Create { sid, instance } => {
            put_u64(&mut payload, *sid);
            put_u8(&mut payload, VERB_CREATE);
            write_problem_instance(&mut payload, instance);
        }
        SessionVerb::Delta { sid, deltas } => {
            put_u64(&mut payload, *sid);
            put_u8(&mut payload, VERB_DELTA);
            write_deltas(&mut payload, deltas);
        }
        SessionVerb::Solve { sid, budget_ms, top_k, seed } => {
            put_u64(&mut payload, *sid);
            put_u8(&mut payload, VERB_SOLVE);
            write_options(&mut payload, *budget_ms, *top_k, *seed);
        }
        SessionVerb::Close { sid } => {
            put_u64(&mut payload, *sid);
            put_u8(&mut payload, VERB_CLOSE);
        }
    }
    encode_frame(FT_SESSION, &payload)
}

/// Decodes a verified frame payload into the same [`Incoming`] the JSON
/// parser produces. [`FT_JSON`] payloads are routed through
/// [`parse_incoming`], so a binary client can frame any NDJSON verb.
pub fn decode_incoming(frame_type: u8, payload: &[u8]) -> Result<Incoming, WireError> {
    let mut cur = Cursor::new(payload);
    let incoming = match frame_type {
        FT_REQUEST => {
            let id = cur.u64()?;
            let (budget_ms, top_k, seed) = read_options(&mut cur)?;
            let instance = read_problem_instance(&mut cur)?;
            Incoming::Solve(Box::new(Request { id, instance, budget_ms, top_k, seed }))
        }
        FT_SESSION => {
            let id = cur.u64()?;
            let sid = cur.u64()?;
            let verb = match cur.u8()? {
                VERB_CREATE => {
                    SessionVerb::Create { sid, instance: read_problem_instance(&mut cur)? }
                }
                VERB_DELTA => SessionVerb::Delta { sid, deltas: read_deltas(&mut cur)? },
                VERB_SOLVE => {
                    let (budget_ms, top_k, seed) = read_options(&mut cur)?;
                    SessionVerb::Solve { sid, budget_ms, top_k, seed }
                }
                VERB_CLOSE => SessionVerb::Close { sid },
                t => return Err(WireError::Malformed(format!("unknown session verb tag {t}"))),
            };
            Incoming::Session(Box::new(SessionRequest { id, verb }))
        }
        FT_METRICS => Incoming::Metrics,
        FT_JSON => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| WireError::Malformed("FT_JSON payload is not UTF-8".into()))?;
            return parse_incoming(text.trim())
                .map_err(|e| WireError::Malformed(format!("framed JSON: {e}")));
        }
        t => return Err(WireError::UnknownFrameType(t)),
    };
    cur.finish()?;
    Ok(incoming)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encodes a response as a complete frame. The metrics summary — a wide
/// observability schema, not a hot-path payload — rides in an
/// [`FT_JSON`] frame wrapping its NDJSON line.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Ok { id, kind, solver, micros, makespan, solution, solvers } => {
            let mut payload = Vec::new();
            put_u64(&mut payload, *id);
            // An exotic kind string cannot arise from a decoded instance;
            // fall back to the JSON frame rather than panic if it ever does.
            let Ok(kind_byte) = kind_to_byte(kind) else {
                return encode_frame(FT_JSON, response_to_json(resp).as_bytes());
            };
            put_u8(&mut payload, kind_byte);
            put_str(&mut payload, solver);
            put_u64(&mut payload, *micros);
            write_cost(&mut payload, makespan);
            write_solution(&mut payload, solution);
            put_u32(&mut payload, solvers.len() as u32);
            for line in solvers {
                put_str(&mut payload, &line.name);
                write_opt_cost(&mut payload, &line.makespan);
                put_u64(&mut payload, line.micros);
                put_u8(&mut payload, u8::from(line.completed));
            }
            encode_frame(FT_RESPONSE_OK, &payload)
        }
        Response::Error { id, message } => {
            let mut payload = Vec::new();
            match id {
                None => put_u8(&mut payload, 0),
                Some(id) => {
                    put_u8(&mut payload, 1);
                    put_u64(&mut payload, *id);
                }
            }
            put_str(&mut payload, message);
            encode_frame(FT_RESPONSE_ERROR, &payload)
        }
        Response::Session { id, sid, verb, live, makespan } => {
            let mut payload = Vec::new();
            put_u64(&mut payload, *id);
            put_u64(&mut payload, *sid);
            put_str(&mut payload, verb);
            put_u64(&mut payload, *live);
            write_opt_cost(&mut payload, makespan);
            encode_frame(FT_RESPONSE_SESSION, &payload)
        }
        Response::Metrics(_) => encode_frame(FT_JSON, response_to_json(resp).as_bytes()),
    }
}

/// Decodes a verified response frame payload. [`FT_JSON`] payloads route
/// through the NDJSON parser, so every framed answer decodes.
pub fn decode_response(frame_type: u8, payload: &[u8]) -> Result<Response, WireError> {
    let mut cur = Cursor::new(payload);
    let resp = match frame_type {
        FT_RESPONSE_OK => {
            let id = cur.u64()?;
            let kind = kind_from_byte(cur.u8()?)?.to_string();
            let solver = cur.str()?;
            let micros = cur.u64()?;
            let makespan = read_cost(&mut cur)?;
            let solution = read_solution(&mut cur)?;
            let n = cur.len(1)?;
            let mut solvers = Vec::with_capacity(n);
            for _ in 0..n {
                let name = cur.str()?;
                let makespan = read_opt_cost(&mut cur)?;
                let micros = cur.u64()?;
                let completed = match cur.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(WireError::Malformed(format!("bad bool byte {t}"))),
                };
                solvers.push(SolverLine { name, makespan, micros, completed });
            }
            Response::Ok { id, kind, solver, micros, makespan, solution, solvers }
        }
        FT_RESPONSE_ERROR => {
            let id = match cur.u8()? {
                0 => None,
                1 => Some(cur.u64()?),
                t => return Err(WireError::Malformed(format!("bad option tag {t}"))),
            };
            Response::Error { id, message: cur.str()? }
        }
        FT_RESPONSE_SESSION => {
            let id = cur.u64()?;
            let sid = cur.u64()?;
            let verb = cur.str()?;
            let live = cur.u64()?;
            let makespan = read_opt_cost(&mut cur)?;
            Response::Session { id, sid, verb, live, makespan }
        }
        FT_JSON => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| WireError::Malformed("FT_JSON payload is not UTF-8".into()))?;
            return crate::protocol::parse_response(text.trim())
                .map_err(|e| WireError::Malformed(format!("framed JSON: {e}")));
        }
        t => return Err(WireError::UnknownFrameType(t)),
    };
    cur.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Cheap header-level peeks (dispatch must not decode bodies)
// ---------------------------------------------------------------------------

/// The request id of a request/session frame payload without decoding the
/// body — the binary analogue of `extract_request_id`.
pub fn request_id(frame_type: u8, payload: &[u8]) -> Option<u64> {
    match frame_type {
        FT_REQUEST | FT_SESSION if payload.len() >= 8 => Some(u64::from_le_bytes(
            // lint: allow(serve-unwrap) 8-byte slice guarded by the match arm
            payload[..8].try_into().expect("checked length"),
        )),
        FT_JSON => std::str::from_utf8(payload)
            .ok()
            .and_then(|t| crate::protocol::extract_request_id(t.trim())),
        _ => None,
    }
}

/// The session id of an [`FT_SESSION`] payload — fixed offset 8, read
/// without decoding the verb body, so keyed-lane routing stays O(1).
pub fn session_sid(frame_type: u8, payload: &[u8]) -> Option<u64> {
    if frame_type == FT_SESSION && payload.len() >= 16 {
        // lint: allow(serve-unwrap) 8-byte slice guarded by the length check
        Some(u64::from_le_bytes(payload[8..16].try_into().expect("checked length")))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::{InstanceDelta, Schedule, UniformInstance, UnrelatedInstance, INF};

    fn unrelated() -> UnrelatedInstance {
        UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![3, 9], vec![2, 4]],
            vec![vec![1, 2], vec![5, 7]],
        )
        .unwrap()
    }

    fn uniform() -> UniformInstance {
        UniformInstance::new(
            vec![2, 1],
            vec![3, 5],
            vec![sst_core::Job::new(0, 4), sst_core::Job::new(1, 6)],
        )
        .unwrap()
    }

    fn decode_whole(frame: &[u8]) -> Incoming {
        let (ft, payload) = decode_frame(frame).unwrap();
        decode_incoming(ft, payload).unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let frame = encode_response(resp);
        let (ft, payload) = decode_frame(&frame).unwrap();
        decode_response(ft, payload).unwrap()
    }

    #[test]
    fn request_roundtrips_for_every_model() {
        for instance in [
            ProblemInstance::Uniform(uniform()),
            ProblemInstance::Unrelated(unrelated()),
            ProblemInstance::Splittable(SplittableInstance(unrelated())),
        ] {
            let req = Request { id: 41, instance, budget_ms: Some(60), top_k: None, seed: Some(7) };
            let back = decode_whole(&encode_request(&req));
            assert_eq!(back, Incoming::Solve(Box::new(req)));
        }
    }

    #[test]
    fn session_verbs_roundtrip_and_expose_sid_at_fixed_offset() {
        let verbs = vec![
            SessionVerb::Create { sid: 99, instance: ProblemInstance::Uniform(uniform()) },
            SessionVerb::Delta {
                sid: 99,
                deltas: vec![
                    InstanceDelta::AddJob { class: 0, times: vec![4, 6] },
                    InstanceDelta::RemoveJob { job: 1 },
                ],
            },
            SessionVerb::Solve { sid: 99, budget_ms: Some(5), top_k: Some(2), seed: None },
            SessionVerb::Close { sid: 99 },
        ];
        for verb in verbs {
            let req = SessionRequest { id: 3, verb };
            let frame = encode_session(&req);
            let (ft, payload) = decode_frame(&frame).unwrap();
            assert_eq!(session_sid(ft, payload), Some(99));
            assert_eq!(request_id(ft, payload), Some(3));
            assert_eq!(decode_incoming(ft, payload).unwrap(), Incoming::Session(Box::new(req)));
        }
    }

    #[test]
    fn metrics_and_fault_probes_roundtrip() {
        assert_eq!(decode_whole(&encode_frame(FT_METRICS, &[])), Incoming::Metrics);
        let kill = encode_frame(FT_JSON, b"{\"kill_worker\": true}");
        assert_eq!(decode_whole(&kill), Incoming::KillWorker);
        assert_eq!(decode_whole(&encode_frame(FT_JSON, b"{\"crash\": true}")), Incoming::Crash);
    }

    #[test]
    fn infeasible_splittable_is_rejected_like_json() {
        // Job 1 runs only on machine 0, job 2 only on machine 1: a valid
        // unrelated instance, but class 1 fits *whole* nowhere, which the
        // splittable model requires (a positive share pays the full setup).
        let inner = UnrelatedInstance::new(
            2,
            vec![0, 1, 1],
            vec![vec![3, 9], vec![2, INF], vec![INF, 2]],
            vec![vec![1, 2], vec![5, 7]],
        )
        .unwrap();
        assert!(SplittableInstance::new(inner.clone()).is_err());
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        write_options(&mut payload, None, None, None);
        put_u8(&mut payload, KIND_SPLITTABLE);
        write_unrelated(&mut payload, &inner);
        assert!(matches!(decode_incoming(FT_REQUEST, &payload), Err(WireError::Malformed(_))));
    }

    #[test]
    fn container_roundtrip_preserves_kind() {
        for instance in [
            ProblemInstance::Uniform(uniform()),
            ProblemInstance::Unrelated(unrelated()),
            ProblemInstance::Splittable(SplittableInstance(unrelated())),
        ] {
            let bytes = instance_to_container(&instance);
            assert_eq!(instance_from_container(&bytes).unwrap(), instance);
        }
        // An unknown kind tag is malformed, not a panic.
        let mut cur = Cursor::new(&[9u8]);
        assert!(matches!(read_problem_instance(&mut cur), Err(WireError::Malformed(_))));
    }

    #[test]
    fn responses_roundtrip() {
        let ok = Response::Ok {
            id: 1,
            kind: "unrelated".to_string(),
            solver: "local-search".to_string(),
            micros: 1234,
            makespan: Cost::Time(42),
            solution: Solution::Assignment(Schedule::new(vec![0, 1])),
            solvers: vec![
                SolverLine {
                    name: "greedy-baseline".to_string(),
                    makespan: Some(Cost::Frac(Ratio::new(7, 2))),
                    micros: 10,
                    completed: true,
                },
                SolverLine {
                    name: "anneal".to_string(),
                    makespan: None,
                    micros: 9,
                    completed: false,
                },
            ],
        };
        assert_eq!(roundtrip_response(&ok), ok);

        let split = Response::Ok {
            id: 2,
            kind: "splittable".to_string(),
            solver: "split-greedy".to_string(),
            micros: 55,
            makespan: Cost::Real(13.5),
            solution: Solution::Split(SplitSchedule::new(vec![
                vec![
                    SplitShare { machine: 0, fraction: 0.25 },
                    SplitShare { machine: 1, fraction: 0.75 },
                ],
                vec![],
            ])),
            solvers: vec![],
        };
        assert_eq!(roundtrip_response(&split), split);

        let err = Response::Error { id: None, message: "bad frame: checksum".to_string() };
        assert_eq!(roundtrip_response(&err), err);
        let err = Response::Error { id: Some(9), message: "nope".to_string() };
        assert_eq!(roundtrip_response(&err), err);

        let sess = Response::Session {
            id: 4,
            sid: 7,
            verb: "create".to_string(),
            live: 3,
            makespan: Some(Cost::Time(11)),
        };
        assert_eq!(roundtrip_response(&sess), sess);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let req = Request {
            id: 1,
            instance: ProblemInstance::Uniform(uniform()),
            budget_ms: None,
            top_k: None,
            seed: None,
        };
        let frame = encode_request(&req);
        let (ft, payload) = decode_frame(&frame).unwrap();
        let mut longer = payload.to_vec();
        longer.push(0);
        assert!(matches!(decode_incoming(ft, &longer), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_frame_type_is_reported_as_such() {
        assert!(matches!(decode_incoming(0x77, &[]), Err(WireError::UnknownFrameType(0x77))));
        assert!(matches!(decode_response(0x77, &[]), Err(WireError::UnknownFrameType(0x77))));
    }
}
