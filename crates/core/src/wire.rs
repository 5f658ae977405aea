//! Binary wire format: versioned, length-prefixed, checksummed frames
//! with packed encodings of the core types.
//!
//! The hand-rolled JSON layer ([`crate::io`]) is the serve path's ingest
//! bottleneck at production traffic: on the n=2000 session families, JSON
//! parsing and instance rebuild rival the warm repair work itself. The
//! instance data already lives in row-major flat `p_ij`/`s_ik` buffers
//! ([`UnrelatedInstance`]), so a length-prefixed binary encoding decodes
//! with one validated bulk copy instead of per-cell text parsing: lengths,
//! class counts and eligibility are checked **once per frame** (by the
//! normal validating constructors), never per cell.
//!
//! ## Frame layout
//!
//! Every frame is a fixed 20-byte header followed by the payload. All
//! integers are little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"SST\x01"  (4th byte = format version)
//!      4     1  frame type        (FT_* registry below)
//!      5     3  reserved, zero
//!      8     4  payload length    u32, <= MAX_PAYLOAD
//!     12     8  4-lane FNV-1a-64  over the payload bytes
//!     20     …  payload
//! ```
//!
//! The first magic byte (`0x53`, `'S'`) can never open an NDJSON message
//! (`0x7B`, `'{'`), so one sniffed byte routes a connection between the
//! two framings. The checksum reuses the journal's FNV-1a-64 discipline —
//! same basis, same prime, verify-before-decode — in the word-wide
//! four-lane form ([`fnv1a64_wide`]) so checksumming large frames runs at
//! memory speed instead of one multiply per byte; a torn or bit-flipped
//! frame is rejected as [`WireError::ChecksumMismatch`] instead of being
//! decoded into garbage.
//!
//! ## Packed payloads
//!
//! This module owns the payload codecs for the core vocabulary: one per
//! machine model ([`write_uniform`] / [`write_unrelated`] and their
//! readers, without a kind byte), delta batches, and schedules. The
//! kind-tagged instance — the `KIND_*` byte, then the model payload —
//! belongs to `sst_portfolio::wire`, whose `ProblemInstance` is the one
//! kind-tagged instance type; it also owns request/response framing and
//! the on-disk container, on this header and type registry.
//!
//! Decode hot loops must not allocate per cell — bulk `u64` rows are read
//! with one `Vec::with_capacity` + `chunks_exact` pass. `sst lint`
//! enforces this (rule `wire-alloc`).

use crate::delta::InstanceDelta;
use crate::error::InstanceError;
use crate::instance::{Job, UniformInstance, UnrelatedInstance};
use crate::schedule::Schedule;

/// Frame magic: `b"SST"` plus the format version in the fourth byte.
pub const MAGIC: [u8; 4] = [b'S', b'S', b'T', 0x01];

/// Fixed header length in bytes (magic + type + reserved + len + checksum).
pub const HEADER_LEN: usize = 20;

/// Upper bound on a frame payload (64 MiB). A header claiming more is
/// rejected *before* any payload is read, so a corrupt length field can
/// neither allocate unbounded memory nor stall the connection waiting for
/// bytes that will never arrive.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Solve request (`sst_portfolio::wire`): id + options + instance.
pub const FT_REQUEST: u8 = 0x01;
/// Session verb (`sst_portfolio::wire`): id + sid + verb body. The sid
/// sits at a fixed payload offset so lane routing never decodes the body.
pub const FT_SESSION: u8 = 0x02;
/// Metrics probe (binary analogue of `{"metrics": true}`); empty payload.
pub const FT_METRICS: u8 = 0x03;
/// Successful solve response.
pub const FT_RESPONSE_OK: u8 = 0x04;
/// Error response (also the structured answer to a malformed frame).
pub const FT_RESPONSE_ERROR: u8 = 0x05;
/// Session lifecycle ack.
pub const FT_RESPONSE_SESSION: u8 = 0x06;
/// A JSON text line wrapped in a frame — used where no packed encoding
/// exists (the metrics summary) so binary clients still get every answer
/// framed. Payload is the UTF-8 NDJSON line without the newline.
pub const FT_JSON: u8 = 0x0f;
/// On-disk packed instance container (`sst generate --format packed`,
/// `sst pack`): exactly one instance payload.
pub const FT_INSTANCE: u8 = 0x10;
/// Packed per-session durable snapshot (`sst_portfolio::durable`).
pub const FT_SNAPSHOT: u8 = 0x11;

/// Instance kind tag inside packed payloads (read and written by
/// `sst_portfolio::wire`).
pub const KIND_UNIFORM: u8 = 0;
/// Instance kind tag: unrelated machines.
pub const KIND_UNRELATED: u8 = 1;
/// Instance kind tag: splittable model (unrelated payload schema).
pub const KIND_SPLITTABLE: u8 = 2;

/// FNV-1a-64 over `bytes` — the same checksum discipline as the durable
/// journal, now shared: one implementation guards both the write-ahead
/// log lines and every wire frame.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = FNV_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Four-lane word-wide FNV-1a-64 — the *frame* checksum.
///
/// Byte-wise FNV-1a is a strict multiply chain (~3 cycles of latency per
/// byte), which made checksumming dominate packed-frame decode: a 137 KiB
/// n=2000 unrelated payload spent ~170 µs in [`fnv1a64`] against ~30 µs
/// for the actual decode. This variant keeps the same basis and prime but
/// interleaves four accumulators over 32-byte blocks, absorbing one
/// little-endian 64-bit word per lane per block; the tail is byte-stepped
/// and the lanes plus the length are folded with the same xor-multiply.
/// The four independent chains hide the multiply latency, so large frames
/// checksum at memory speed while any flipped bit still flips its lane's
/// word and thereby the folded digest.
///
/// Journal lines keep the canonical byte-wise [`fnv1a64`]: their on-disk
/// format predates this function and they are tens of bytes, where the
/// chain latency is irrelevant.
pub fn fnv1a64_wide(bytes: &[u8]) -> u64 {
    // Lane tweaks keep the four chains distinct so a 32-byte block of
    // identical words does not collapse them into one.
    let mut lanes = [
        FNV_BASIS,
        FNV_BASIS ^ 0x9e37_79b9_7f4a_7c15,
        FNV_BASIS ^ 0xc2b2_ae3d_27d4_eb4f,
        FNV_BASIS ^ 0x1656_67b1_9e37_79f9,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes([
                word[0], word[1], word[2], word[3], word[4], word[5], word[6], word[7],
            ]);
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    let mut hash = FNV_BASIS;
    for &b in blocks.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(FNV_PRIME);
    }
    (hash ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

/// Why a frame or packed payload could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`] (wrong protocol or version).
    BadMagic([u8; 4]),
    /// The header claims a payload larger than [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The buffer ended before the struct being decoded did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// Payload bytes do not hash to the header's FNV-1a-64.
    ChecksumMismatch {
        /// Checksum the header promised.
        expected: u64,
        /// Checksum of the bytes received.
        got: u64,
    },
    /// The frame type byte names no known frame.
    UnknownFrameType(u8),
    /// The payload is structurally invalid (bad tag, count overflow,
    /// trailing bytes, non-UTF-8 string, …).
    Malformed(String),
    /// The payload decoded structurally but fails instance validation
    /// (the once-per-frame bounds/eligibility check).
    Invalid(InstanceError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::Oversized(len) => {
                write!(f, "frame payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::ChecksumMismatch { expected, got } => {
                write!(f, "frame checksum mismatch: header {expected:016x}, payload {got:016x}")
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            WireError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
            WireError::Invalid(e) => write!(f, "frame decodes to an invalid instance: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<InstanceError> for WireError {
    fn from(e: InstanceError) -> Self {
        WireError::Invalid(e)
    }
}

/// A parsed frame header (magic already verified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame type byte (`FT_*`).
    pub frame_type: u8,
    /// Payload length in bytes (`<= MAX_PAYLOAD`).
    pub len: u32,
    /// FNV-1a-64 the payload must hash to.
    pub checksum: u64,
}

impl FrameHeader {
    /// Parses and validates the fixed 20-byte header.
    pub fn parse(bytes: &[u8]) -> Result<FrameHeader, WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated { needed: HEADER_LEN, got: bytes.len() });
        }
        if bytes[..4] != MAGIC {
            return Err(WireError::BadMagic([bytes[0], bytes[1], bytes[2], bytes[3]]));
        }
        let frame_type = bytes[4];
        // Reserved bytes must be zero so a future revision can claim them
        // without old decoders silently misreading the frame.
        if bytes[5] != 0 || bytes[6] != 0 || bytes[7] != 0 {
            return Err(WireError::Malformed("nonzero reserved header bytes".into()));
        }
        let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized(len));
        }
        let checksum = u64::from_le_bytes([
            bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
        ]);
        Ok(FrameHeader { frame_type, len, checksum })
    }

    /// Verifies `payload` against the header's length and checksum.
    pub fn verify(&self, payload: &[u8]) -> Result<(), WireError> {
        if payload.len() != self.len as usize {
            return Err(WireError::Truncated { needed: self.len as usize, got: payload.len() });
        }
        let got = fnv1a64_wide(payload);
        if got != self.checksum {
            return Err(WireError::ChecksumMismatch { expected: self.checksum, got });
        }
        Ok(())
    }
}

/// Encodes a complete frame (header + payload) for `payload`.
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — encoders build payloads
/// from validated in-memory values, so an oversized one is a logic error,
/// not an input error.
pub fn encode_frame(frame_type: u8, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame payload fits u32");
    assert!(len <= MAX_PAYLOAD, "frame payload exceeds MAX_PAYLOAD");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(frame_type);
    out.extend_from_slice(&[0, 0, 0]);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a64_wide(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes one whole frame from `bytes` (header, checksum, exact length —
/// trailing bytes are an error). The one-shot entry point for container
/// files and tests; streaming readers parse the header and payload
/// separately.
pub fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let header = FrameHeader::parse(bytes)?;
    let payload = &bytes[HEADER_LEN..];
    header.verify(payload)?;
    Ok((header.frame_type, payload))
}

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as `u32`, panicking past 4 Gi entries (instances that
/// large exceed [`MAX_PAYLOAD`] long before this fires).
pub fn put_len(out: &mut Vec<u8>, v: usize) {
    put_u32(out, u32::try_from(v).expect("length fits u32"));
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `u64` slice as raw little-endian bytes (no per-element work
/// beyond the byte copy).
pub fn put_u64_slice(out: &mut Vec<u8>, xs: &[u64]) {
    out.reserve(xs.len() * 8);
    for &x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// A bounds-checked forward reader over a payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading `buf` at offset 0.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed(format!("{} trailing payload bytes", self.remaining())))
        }
    }

    /// Consumes `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { needed: n, got: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `u32` length prefix as `usize`, capped by the bytes that
    /// could possibly back it (`remaining / elem_size`) so a corrupt count
    /// cannot drive a huge allocation before the bounds check fires.
    pub fn len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let cap = self.remaining().checked_div(elem_size).unwrap_or(n);
        if n > cap {
            return Err(WireError::Truncated {
                needed: n * elem_size.max(1),
                got: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Reads `n` little-endian `u64`s in one bulk pass: one allocation,
    /// one `chunks_exact` sweep — the zero-copy-in-spirit row read the
    /// packed instance codecs are built on.
    pub fn u64_vec(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        let raw = self.bytes(n * 8)?;
        let mut out = Vec::with_capacity(n);
        for chunk in raw.chunks_exact(8) {
            out.push(u64::from_le_bytes([
                chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
            ]));
        }
        Ok(out)
    }

    /// Reads `n` little-endian `u32`s as `usize`s (job classes,
    /// assignments) in one bulk pass.
    pub fn u32_vec_usize(&mut self, n: usize) -> Result<Vec<usize>, WireError> {
        let raw = self.bytes(n * 4)?;
        let mut out = Vec::with_capacity(n);
        for chunk in raw.chunks_exact(4) {
            out.push(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) as usize);
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".to_string()))
    }
}

// ---------------------------------------------------------------------------
// Packed instances
// ---------------------------------------------------------------------------

/// Appends the packed encoding of a uniform instance (no kind byte):
/// `m u32, K u32, n u32, speeds[m] u64, setups[K] u64, n × (class u32,
/// size u64)`.
pub fn write_uniform(out: &mut Vec<u8>, inst: &UniformInstance) {
    put_len(out, inst.m());
    put_len(out, inst.num_classes());
    put_len(out, inst.n());
    put_u64_slice(out, inst.speeds());
    put_u64_slice(out, inst.setups());
    for job in inst.jobs() {
        put_len(out, job.class);
        put_u64(out, job.size);
    }
}

/// Reads a packed uniform instance, validating once via
/// [`UniformInstance::new`].
pub fn read_uniform(cur: &mut Cursor<'_>) -> Result<UniformInstance, WireError> {
    let m = cur.len(8)?;
    let k = cur.len(8)?;
    let n = cur.len(12)?;
    let speeds = cur.u64_vec(m)?;
    let setups = cur.u64_vec(k)?;
    let mut jobs = Vec::with_capacity(n);
    for _ in 0..n {
        let class = cur.u32()? as usize;
        let size = cur.u64()?;
        jobs.push(Job::new(class, size));
    }
    Ok(UniformInstance::new(speeds, setups, jobs)?)
}

/// Appends the packed encoding of an unrelated/splittable instance (no
/// kind byte): `m u32, K u32, n u32, job_class[n] u32, ptimes[n*m] u64,
/// setups[K*m] u64` — the flat row-major buffers verbatim.
pub fn write_unrelated(out: &mut Vec<u8>, inst: &UnrelatedInstance) {
    let m = inst.m();
    put_len(out, m);
    put_len(out, inst.num_classes());
    put_len(out, inst.n());
    out.reserve(inst.n() * 4);
    for &c in inst.job_classes() {
        put_len(out, c);
    }
    for j in 0..inst.n() {
        put_u64_slice(out, inst.ptimes_row(j));
    }
    for k in 0..inst.num_classes() {
        put_u64_slice(out, inst.setups_row(k));
    }
}

/// Reads a packed unrelated instance: three bulk reads straight into the
/// flat buffers, then **one** validation pass via
/// [`UnrelatedInstance::from_flat`] (bounds, class counts, eligibility —
/// once per frame, not per cell).
pub fn read_unrelated(cur: &mut Cursor<'_>) -> Result<UnrelatedInstance, WireError> {
    let m = cur.len(1)?;
    let k = cur.len(1)?;
    let n = cur.len(4)?;
    let cells = n
        .checked_mul(m)
        .and_then(|nm| k.checked_mul(m).map(|km| (nm, km)))
        .ok_or_else(|| WireError::Malformed("instance dimensions overflow".to_string()))?;
    let job_class = cur.u32_vec_usize(n)?;
    let ptimes = cur.u64_vec(cells.0)?;
    let setups = cur.u64_vec(cells.1)?;
    Ok(UnrelatedInstance::from_flat(m, job_class, ptimes, setups)?)
}

// ---------------------------------------------------------------------------
// Packed schedules
// ---------------------------------------------------------------------------

/// Appends a packed schedule: `n u32, assignment[n] u32`.
pub fn write_schedule(out: &mut Vec<u8>, sched: &Schedule) {
    let a = sched.assignment();
    put_len(out, a.len());
    out.reserve(a.len() * 4);
    for &i in a {
        put_len(out, i);
    }
}

/// Reads a packed schedule (validation against an instance happens at
/// evaluation time, exactly like the JSON codec).
pub fn read_schedule(cur: &mut Cursor<'_>) -> Result<Schedule, WireError> {
    let n = cur.len(4)?;
    Ok(Schedule::new(cur.u32_vec_usize(n)?))
}

// ---------------------------------------------------------------------------
// Packed deltas
// ---------------------------------------------------------------------------

const DELTA_ADD_JOB: u8 = 0;
const DELTA_REMOVE_JOB: u8 = 1;
const DELTA_RESIZE_JOB: u8 = 2;
const DELTA_RESIZE_SETUP: u8 = 3;
const DELTA_ADD_CLASS: u8 = 4;

fn put_times(out: &mut Vec<u8>, times: &[u64]) {
    put_len(out, times.len());
    put_u64_slice(out, times);
}

/// Appends one packed delta: a variant tag byte, then the variant fields
/// (ids as `u32`, `times` as a length-prefixed `u64` row).
pub fn write_delta(out: &mut Vec<u8>, delta: &InstanceDelta) {
    match delta {
        InstanceDelta::AddJob { class, times } => {
            put_u8(out, DELTA_ADD_JOB);
            put_len(out, *class);
            put_times(out, times);
        }
        InstanceDelta::RemoveJob { job } => {
            put_u8(out, DELTA_REMOVE_JOB);
            put_len(out, *job);
        }
        InstanceDelta::ResizeJob { job, times } => {
            put_u8(out, DELTA_RESIZE_JOB);
            put_len(out, *job);
            put_times(out, times);
        }
        InstanceDelta::ResizeSetup { class, times } => {
            put_u8(out, DELTA_RESIZE_SETUP);
            put_len(out, *class);
            put_times(out, times);
        }
        InstanceDelta::AddClass { times } => {
            put_u8(out, DELTA_ADD_CLASS);
            put_times(out, times);
        }
    }
}

/// Reads one packed delta. Structural only — semantic validation (id
/// bounds, row lengths) happens at apply time, exactly like the JSON
/// codec.
pub fn read_delta(cur: &mut Cursor<'_>) -> Result<InstanceDelta, WireError> {
    match cur.u8()? {
        DELTA_ADD_JOB => {
            let class = cur.u32()? as usize;
            let n = cur.len(8)?;
            Ok(InstanceDelta::AddJob { class, times: cur.u64_vec(n)? })
        }
        DELTA_REMOVE_JOB => Ok(InstanceDelta::RemoveJob { job: cur.u32()? as usize }),
        DELTA_RESIZE_JOB => {
            let job = cur.u32()? as usize;
            let n = cur.len(8)?;
            Ok(InstanceDelta::ResizeJob { job, times: cur.u64_vec(n)? })
        }
        DELTA_RESIZE_SETUP => {
            let class = cur.u32()? as usize;
            let n = cur.len(8)?;
            Ok(InstanceDelta::ResizeSetup { class, times: cur.u64_vec(n)? })
        }
        DELTA_ADD_CLASS => {
            let n = cur.len(8)?;
            Ok(InstanceDelta::AddClass { times: cur.u64_vec(n)? })
        }
        t => Err(WireError::Malformed(format!("unknown delta tag {t}"))),
    }
}

/// Appends a packed delta batch: `count u32`, then each delta.
pub fn write_deltas(out: &mut Vec<u8>, deltas: &[InstanceDelta]) {
    put_len(out, deltas.len());
    for d in deltas {
        write_delta(out, d);
    }
}

/// Reads a packed delta batch.
pub fn read_deltas(cur: &mut Cursor<'_>) -> Result<Vec<InstanceDelta>, WireError> {
    let n = cur.len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_delta(cur)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::INF;

    fn unrelated_fixture() -> UnrelatedInstance {
        UnrelatedInstance::new(
            2,
            vec![0, 1, 0],
            vec![vec![3, 9], vec![INF, 4], vec![5, 5]],
            vec![vec![1, 2], vec![INF, 7]],
        )
        .unwrap()
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a64_wide_is_pinned_and_flip_sensitive() {
        // Golden digests pin the frame-checksum function: a change here is
        // a wire-format break, version-bump the magic.
        let goldens = [
            (&b""[..], fnv1a64_wide(b"")),
            (&b"a"[..], fnv1a64_wide(b"a")),
            (&b"foobar"[..], fnv1a64_wide(b"foobar")),
        ];
        for (bytes, digest) in goldens {
            assert_eq!(fnv1a64_wide(bytes), digest);
        }
        // Distinct from each other and from byte-wise FNV (the length fold
        // alone separates the empty digest).
        assert_ne!(fnv1a64_wide(b""), fnv1a64(b""));
        assert_ne!(fnv1a64_wide(b"a"), fnv1a64_wide(b"b"));

        // Every single-bit flip in a buffer spanning blocks AND a tail
        // changes the digest (the torn/corrupt-frame detection contract).
        let buf: Vec<u8> = (0..77u8).map(|i| i.wrapping_mul(37)).collect();
        let clean = fnv1a64_wide(&buf);
        for pos in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[pos] ^= 1 << bit;
                assert_ne!(fnv1a64_wide(&bad), clean, "flip bit {bit} at {pos} undetected");
            }
        }
        // Length matters even when the added bytes are zero.
        let mut extended = buf.clone();
        extended.push(0);
        assert_ne!(fnv1a64_wide(&extended), clean);
        // A permutation of two different words must not collapse (lane
        // tweaks keep lanes distinct).
        let mut swapped = buf.clone();
        swapped.swap(0, 8);
        assert_ne!(fnv1a64_wide(&swapped), clean);
    }

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(FT_INSTANCE, b"payload");
        assert_eq!(frame.len(), HEADER_LEN + 7);
        let (ft, payload) = decode_frame(&frame).unwrap();
        assert_eq!(ft, FT_INSTANCE);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn header_rejects_bad_magic_and_oversize() {
        let mut frame = encode_frame(FT_INSTANCE, b"x");
        frame[0] = b'X';
        assert!(matches!(decode_frame(&frame), Err(WireError::BadMagic(_))));

        let mut frame = encode_frame(FT_INSTANCE, b"x");
        frame[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode_frame(&frame), Err(WireError::Oversized(_))));
    }

    #[test]
    fn corrupt_payload_byte_is_a_checksum_mismatch() {
        let mut frame = encode_frame(FT_INSTANCE, b"payload");
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        assert!(matches!(decode_frame(&frame), Err(WireError::ChecksumMismatch { .. })));
    }

    #[test]
    fn truncated_frame_reports_truncation() {
        let frame = encode_frame(FT_INSTANCE, b"payload");
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 3]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(FrameHeader::parse(&frame[..10]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn uniform_roundtrip() {
        let inst =
            UniformInstance::new(vec![2, 1], vec![3, 5], vec![Job::new(0, 4), Job::new(1, 6)])
                .unwrap();
        let mut buf = Vec::new();
        write_uniform(&mut buf, &inst);
        let mut cur = Cursor::new(&buf);
        let back = read_uniform(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn unrelated_roundtrip_with_infinities() {
        let inst = unrelated_fixture();
        let mut buf = Vec::new();
        write_unrelated(&mut buf, &inst);
        let mut cur = Cursor::new(&buf);
        let back = read_unrelated(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn invalid_instance_is_rejected_once_per_frame() {
        // Job 1's row is all-INF: structurally fine, semantically invalid.
        let mut buf = Vec::new();
        put_len(&mut buf, 1); // m
        put_len(&mut buf, 1); // K
        put_len(&mut buf, 1); // n
        put_len(&mut buf, 0); // job 0 class
        put_u64_slice(&mut buf, &[INF]); // ptimes
        put_u64_slice(&mut buf, &[1]); // setups
        let mut cur = Cursor::new(&buf);
        assert!(matches!(read_unrelated(&mut cur), Err(WireError::Invalid(_))));
    }

    #[test]
    fn corrupt_count_cannot_drive_a_huge_allocation() {
        let mut buf = Vec::new();
        put_len(&mut buf, 2); // m
        put_len(&mut buf, 1); // K
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // n: absurd
        let mut cur = Cursor::new(&buf);
        assert!(matches!(read_unrelated(&mut cur), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn schedule_roundtrip() {
        let sched = Schedule::new(vec![0, 2, 1, 0]);
        let mut buf = Vec::new();
        write_schedule(&mut buf, &sched);
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_schedule(&mut cur).unwrap(), sched);
        cur.finish().unwrap();
    }

    #[test]
    fn delta_batch_roundtrip() {
        let deltas = vec![
            InstanceDelta::AddJob { class: 1, times: vec![4, 6] },
            InstanceDelta::RemoveJob { job: 2 },
            InstanceDelta::ResizeJob { job: 0, times: vec![9] },
            InstanceDelta::ResizeSetup { class: 0, times: vec![1, INF] },
            InstanceDelta::AddClass { times: vec![5, 5] },
        ];
        let mut buf = Vec::new();
        write_deltas(&mut buf, &deltas);
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_deltas(&mut cur).unwrap(), deltas);
        cur.finish().unwrap();
    }

    #[test]
    fn unknown_tags_are_malformed_not_panics() {
        let mut cur = Cursor::new(&[9u8]);
        assert!(matches!(read_delta(&mut cur), Err(WireError::Malformed(_))));
    }
}
