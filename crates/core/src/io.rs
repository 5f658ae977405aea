//! JSON import/export of instances and schedules.
//!
//! Deserialization re-validates through the normal constructors, so a
//! hand-edited or corrupted file can never produce an invalid in-memory
//! instance. The format is a direct, versioned mirror of the model:
//!
//! ```json
//! { "version": 1, "kind": "uniform",
//!   "speeds": [2, 1], "setups": [3, 5],
//!   "jobs": [{ "class": 0, "size": 4 }] }
//! ```
//!
//! The build environment has no crates.io access, so this module ships its
//! own small JSON reader/writer (see [`json`]) instead of depending on
//! `serde`/`serde_json`. The on-disk format is unchanged.

use crate::error::InstanceError;
use crate::instance::{Job, UniformInstance, UnrelatedInstance};
use crate::schedule::Schedule;

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors of the I/O layer.
#[derive(Debug)]
pub enum IoError {
    /// The JSON was syntactically invalid or of the wrong shape.
    Json(String),
    /// The decoded data failed instance validation.
    Invalid(InstanceError),
    /// Unknown `version` or `kind` field.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::Invalid(e) => write!(f, "invalid instance: {e}"),
            IoError::Format(s) => write!(f, "format error: {s}"),
        }
    }
}

impl std::error::Error for IoError {}

pub mod json {
    //! Minimal JSON reader and writer — just enough for the
    //! instance/schedule format: objects, arrays, `u64` numbers (including
    //! `u64::MAX`, the `∞` sentinel) and strings.
    //!
    //! [`Parser`] is the one reader. Its typed reads ([`Parser::fields`],
    //! [`Parser::items`], [`Parser::u64`], [`Parser::skip_value`], …) decode
    //! straight into caller buffers without building values.

    use std::borrow::Cow;
    use std::fmt::Write as _;

    /// Maximum nesting depth accepted by the parser (matches serde_json's
    /// default); deeper input is a parse error, not a stack overflow.
    const MAX_DEPTH: u32 = 128;

    /// A cursor over JSON text. Every read skips the whitespace before the
    /// value it reads.
    ///
    /// Typed decoding reports a syntax error anywhere in a document ahead
    /// of a type error in any member, and lets a duplicate key's last
    /// occurrence win. Two ways keep that: [`Parser::fields`] (for arrays,
    /// [`Parser::items`]) checks a whole value in one pass and returns a
    /// parser at each wanted member, for typed reads in whatever order the
    /// schema checks them; or a member is read during the scan itself and,
    /// when it has another shape, the parser rewinds (it is `Copy`) and
    /// skips it (`InstanceDoc` reads the instance matrices this way).
    #[derive(Clone, Copy)]
    pub struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
        depth: u32,
    }

    impl<'a> Parser<'a> {
        /// A parser at the start of `text`.
        pub fn new(text: &'a str) -> Self {
            Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 }
        }

        /// A parser over the same text positioned at byte `pos` — an
        /// offset [`Parser::pos`] reported.
        pub fn at(&self, pos: usize) -> Self {
            Parser { pos, depth: 0, ..*self }
        }

        /// The byte offset of the next token (pass it to [`Parser::at`]).
        pub fn pos(&self) -> usize {
            self.pos
        }

        /// Whether the next value is an object.
        pub fn at_object(&mut self) -> bool {
            self.skip_ws();
            self.peek() == Some(b'{')
        }

        /// Requires nothing but whitespace after the last value read.
        pub fn finish(&mut self) -> Result<(), String> {
            self.skip_ws();
            if self.pos != self.bytes.len() {
                return Err(format!("trailing data at byte {}", self.pos));
            }
            Ok(())
        }

        fn skip_ws(&mut self) {
            self.pos = skip_ws_from(self.bytes, self.pos);
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn literal(&mut self, lit: &str) -> Result<(), String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(())
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        /// Skips one value, checking its syntax without building it (only
        /// an object key holding escapes is copied).
        pub fn skip_value(&mut self) -> Result<(), String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(|p, _| p.skip_value()),
                Some(b'[') => self.array(|p| p.skip_value()),
                Some(b'"') => self.skip_string(),
                Some(b'0'..=b'9') => {
                    // Unsigned integers (every cell of an instance matrix)
                    // skip without a parse; other numbers take the full
                    // number grammar.
                    let start = *self;
                    if self.u64().is_none() {
                        *self = start;
                        self.number()?;
                    }
                    Ok(())
                }
                Some(b'-') => self.number().map(drop),
                Some(b't') => self.literal("true"),
                Some(b'f') => self.literal("false"),
                Some(b'n') => self.literal("null"),
                None => Err("unexpected end of input".to_string()),
                Some(c) => {
                    Err(format!("unexpected character {:?} at byte {}", c as char, self.pos))
                }
            }
        }

        fn enter(&mut self) -> Result<(), String> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
            }
            Ok(())
        }

        /// Walks an object, calling `member` with each key and the parser
        /// on that member's value, which `member` must consume.
        pub fn object(
            &mut self,
            mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
        ) -> Result<(), String> {
            self.skip_ws();
            self.enter()?;
            self.expect(b'{')?;
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(());
            }
            loop {
                self.skip_ws();
                let key = self.string_cow()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                member(self, &key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        /// Walks an array, calling `item` with the parser on each element,
        /// which `item` must consume.
        pub(crate) fn array(
            &mut self,
            mut item: impl FnMut(&mut Self) -> Result<(), String>,
        ) -> Result<(), String> {
            self.skip_ws();
            self.enter()?;
            self.expect(b'[')?;
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(());
            }
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        /// Scans the object at the parser in one syntax-checking pass and
        /// returns, per entry of `keys`, a parser at that member's value
        /// (the last duplicate wins). Every member is skipped without
        /// building values. `Ok(None)` when the value is not an object; it
        /// is skipped all the same.
        pub fn fields<const N: usize>(
            &mut self,
            keys: [&str; N],
        ) -> Result<Option<[Option<Parser<'a>>; N]>, String> {
            if !self.at_object() {
                self.skip_value()?;
                return Ok(None);
            }
            let mut at = [None; N];
            self.object(|p, key| {
                if let Some(i) = keys.iter().position(|k| *k == key) {
                    at[i] = Some(*p);
                }
                p.skip_value()
            })?;
            Ok(Some(at))
        }

        /// Scans the array at the parser in one syntax-checking pass and
        /// returns a parser at each element. `Ok(None)` when the value is
        /// not an array; it is skipped all the same.
        pub fn items(&mut self) -> Result<Option<Vec<Parser<'a>>>, String> {
            self.skip_ws();
            if self.peek() != Some(b'[') {
                self.skip_value()?;
                return Ok(None);
            }
            let mut items = Vec::new();
            self.array(|p| {
                items.push(*p);
                p.skip_value()
            })?;
            Ok(Some(items))
        }

        /// Reads an unsigned integer; `None` when the value is anything
        /// else (a negative, fractional or out-of-range number included).
        pub fn u64(&mut self) -> Option<u64> {
            self.skip_ws();
            let (v, end) = uint_at(self.bytes, self.pos)?;
            self.pos = end;
            Some(v)
        }

        /// Reads any number as an `f64` (an integer too large for `u64`
        /// included); `None` for any other value.
        pub fn f64(&mut self) -> Option<f64> {
            self.skip_ws();
            if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                return None;
            }
            self.number().ok()
        }

        /// Reads `true` or `false`; `None` for any other value.
        pub fn bool(&mut self) -> Option<bool> {
            self.skip_ws();
            match self.peek() {
                Some(b't') => self.literal("true").ok().map(|()| true),
                Some(b'f') => self.literal("false").ok().map(|()| false),
                _ => None,
            }
        }

        /// Whether the value at the parser is `null` (nothing is consumed).
        pub fn is_null(&self) -> bool {
            let mut p = *self;
            p.skip_ws();
            p.literal("null").is_ok()
        }

        /// Reads a string; `None` for any other value.
        pub fn string(&mut self) -> Option<String> {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return None;
            }
            self.string_cow().ok().map(Cow::into_owned)
        }

        /// Appends the array of unsigned integers at the parser to `out`
        /// and returns how many it held; `None` when the value is not such
        /// an array (and `out` is left as it was).
        pub fn u64_array_into(&mut self, out: &mut Vec<u64>) -> Option<usize> {
            let before = out.len();
            let read = self.u64_cells_into(out);
            if read.is_none() {
                out.truncate(before);
            }
            read.map(|()| out.len() - before)
        }

        /// [`Parser::u64_array_into`] without the count and without the
        /// truncation on failure.
        ///
        /// One loop over the bytes, with the syntax and nesting rules of
        /// [`Parser::items`] over [`Parser::u64`] reads. It keeps a bit
        /// mask of which of the next 64 bytes are digits ([`digit_mask`]),
        /// so a cell's length is a count of trailing ones rather than a
        /// load-and-test per byte, and a cell of up to eight digits is
        /// read in one go ([`digits_value`]). A longer cell, and any
        /// whitespace other than the `", "` the writers put between cells,
        /// take the general step ([`uint_at`], [`skip_ws_from`]).
        fn u64_cells_into(&mut self, out: &mut Vec<u64>) -> Option<()> {
            self.skip_ws();
            // The array would be one level deeper than the parser.
            if self.depth >= MAX_DEPTH || self.peek() != Some(b'[') {
                return None;
            }
            let bytes = self.bytes;
            let mut pos = skip_ws_from(bytes, self.pos + 1);
            if bytes.get(pos) == Some(&b']') {
                self.pos = pos + 1;
                return Some(());
            }
            // Bit k of `digits`: `bytes[base + k]` is a digit. Refilled
            // while 16 bytes are left, so an eight-digit run and the byte
            // after it always lie inside the window.
            let (mut base, mut digits) = (pos, digit_mask(bytes, pos));
            loop {
                if pos - base > 48 {
                    (base, digits) = (pos, digit_mask(bytes, pos));
                }
                let run = (!(digits >> (pos - base))).trailing_zeros() as usize;
                // A run of up to eight digits is read whole, and `∞` is
                // matched as text.
                let end = match (run, bytes.get(pos..pos + 8)) {
                    (1..=8, Some(block)) => {
                        let word = u64::from_le_bytes(block.try_into().expect("eight bytes"));
                        out.push(digits_value(word, run));
                        pos + run
                    }
                    // A number that goes on past these 20 digits fails at
                    // the separator check below, as it fails in `uint_at`.
                    (9.., _) if bytes.get(pos..pos + 20) == Some(INF_DIGITS) => {
                        out.push(u64::MAX);
                        pos + 20
                    }
                    _ => {
                        let (v, end) = uint_at(bytes, skip_ws_from(bytes, pos))?;
                        out.push(v);
                        end
                    }
                };
                if bytes.get(end..end + 2) == Some(b", ") {
                    pos = end + 2;
                    continue;
                }
                pos = skip_ws_from(bytes, end);
                match bytes.get(pos) {
                    Some(b',') => pos += 1,
                    Some(b']') => {
                        self.pos = pos + 1;
                        return Some(());
                    }
                    _ => return None,
                }
            }
        }

        /// Consumes a string, borrowing its text when it holds no escapes.
        /// Unescaped runs are copied whole: one pass over the string.
        fn string_cow(&mut self) -> Result<Cow<'a, str>, String> {
            self.expect(b'"')?;
            let start = self.pos;
            let mut owned: Option<String> = None;
            loop {
                let run_start = self.pos;
                self.skip_run()?;
                let run = &self.text[run_start..self.pos];
                if self.peek() == Some(b'"') {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(&self.text[start..self.pos - 1]),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                let c = self.escape()?;
                let s = owned.get_or_insert_with(String::new);
                s.push_str(run);
                s.push(c);
            }
        }

        fn skip_string(&mut self) -> Result<(), String> {
            self.expect(b'"')?;
            loop {
                self.skip_run()?;
                if self.peek() == Some(b'"') {
                    self.pos += 1;
                    return Ok(());
                }
                self.escape()?;
            }
        }

        /// Advances to the next `"` or `\` of the current string. Both are
        /// ASCII, so the run ends on a UTF-8 boundary of the text.
        fn skip_run(&mut self) -> Result<(), String> {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += run;
            Ok(())
        }

        /// Decodes the escape sequence at the parser (on its `\`).
        fn escape(&mut self) -> Result<char, String> {
            self.pos += 1;
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'u') => {
                    if self.pos + 4 >= self.bytes.len() {
                        return Err("truncated \\u escape".to_string());
                    }
                    let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                        .map_err(|_| "bad \\u escape".to_string())?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                _ => return Err("bad escape".to_string()),
            };
            self.pos += 1;
            Ok(c)
        }

        /// Consumes a number of the full JSON number grammar and returns
        /// its value.
        fn number(&mut self) -> Result<f64, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            self.text[start..self.pos]
                .parse::<f64>()
                .map_err(|_| format!("invalid number at byte {start}"))
        }
    }

    /// The offset of the first non-whitespace byte at or after `pos`.
    #[inline]
    fn skip_ws_from(bytes: &[u8], mut pos: usize) -> usize {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(pos) {
            pos += 1;
        }
        pos
    }

    /// Reads the unsigned integer whose digits start at `start` and returns
    /// it with the offset past it; `None` when there is no digit, the
    /// number goes on with a fraction or exponent, or it exceeds `u64`.
    /// Any 19 digits fit in a `u64`, so only digits past the 19th pay
    /// checked arithmetic (and fail only if the value, not the digit
    /// count, exceeds `u64`: `0…01` still fits).
    #[inline]
    fn uint_at(bytes: &[u8], start: usize) -> Option<(u64, usize)> {
        let mut pos = start;
        let mut v: u64 = 0;
        while let Some(&b) = bytes.get(pos) {
            if !b.is_ascii_digit() {
                break;
            }
            let d = u64::from(b - b'0');
            v = if pos - start < 19 { v * 10 + d } else { v.checked_mul(10)?.checked_add(d)? };
            pos += 1;
        }
        if pos == start || matches!(bytes.get(pos), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        Some((v, pos))
    }

    /// The digits of `u64::MAX`, the `∞` sentinel of the instance format.
    const INF_DIGITS: &[u8] = b"18446744073709551615";

    /// Bit `k` set iff `bytes[base + k]` is an ASCII digit, for the 64
    /// bytes from `base` (bytes past the end count as non-digits).
    #[inline]
    fn digit_mask(bytes: &[u8], base: usize) -> u64 {
        const ONES: u64 = 0x0101_0101_0101_0101;
        let mut mask = 0;
        for k in 0..8 {
            let at = base + 8 * k;
            let digits = match bytes.get(at..at + 8) {
                Some(block) => {
                    // High bit of each byte: `byte ^ '0'` is 10 or more.
                    let x =
                        u64::from_le_bytes(block.try_into().expect("eight bytes")) ^ (0x30 * ONES);
                    let high = ((x & (0x7F * ONES)).wrapping_add(0x76 * ONES) | x) & (0x80 * ONES);
                    // Gather the eight high bits into the top byte, inverted.
                    !(high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
                }
                None => bytes
                    .get(at..)
                    .unwrap_or_default()
                    .iter()
                    .rev()
                    .fold(0, |bits, b| (bits << 1) | u64::from(b.is_ascii_digit())),
            };
            mask |= (digits & 0xFF) << (8 * k);
        }
        mask
    }

    /// The value of the first `run` (1 to 8) digit bytes of `word`. They
    /// are shifted to the top of the word, so the vacated low bytes read
    /// as leading zeros, and the eight digits are combined pairwise in
    /// three multiplications.
    #[inline]
    fn digits_value(word: u64, run: usize) -> u64 {
        // Bytes past the run may borrow, but only into higher bytes, which
        // the shift drops.
        let d = word.wrapping_sub(0x3030_3030_3030_3030) << (8 * (8 - run));
        let pairs = d.wrapping_mul(10).wrapping_add(d >> 8);
        let mask = 0x0000_00FF_0000_00FF;
        let quads = (pairs & mask)
            .wrapping_mul(100 + (1_000_000 << 32))
            .wrapping_add(((pairs >> 16) & mask).wrapping_mul(1 + (10_000 << 32)));
        quads >> 32
    }

    /// Displays a string with its JSON escapes, without the quotes: the
    /// one string escaper of every JSON writer.
    pub struct Escaped<'s>(pub &'s str);

    impl std::fmt::Display for Escaped<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\t' => f.write_str("\\t")?,
                    '\r' => f.write_str("\\r")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => f.write_char(c)?,
                }
            }
            Ok(())
        }
    }

    /// Appends the decimal digits of `x`: what `write!(out, "{x}")` writes,
    /// formatted in place without the `fmt` machinery.
    #[inline]
    pub fn write_u64(out: &mut String, x: u64) {
        if x < 10 {
            out.push(char::from(b'0' + x as u8));
            return;
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = x;
        while rest > 0 {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    /// Serializes a `u64` array on one line: `[1, 2, 3]`.
    pub fn write_u64_array(out: &mut String, xs: &[u64]) {
        out.push('[');
        for (i, &x) in xs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_u64(out, x);
        }
        out.push(']');
    }

    /// Serializes a `usize` array on one line.
    pub fn write_usize_array(out: &mut String, xs: &[usize]) {
        out.push('[');
        for (i, &x) in xs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_u64(out, x as u64);
        }
        out.push(']');
    }
}

/// The schema fields an instance document may carry (both schemas).
const INSTANCE_FIELDS: [&str; 8] =
    ["version", "kind", "speeds", "setups", "jobs", "m", "job_class", "ptimes"];

/// One instance object located in its text by a single syntax-checking
/// scan: where each schema field's value starts (the last duplicate key
/// wins; unknown keys are skipped). The `p_ij` / `s_ik` matrices and the
/// `job_class` array are read into flat row-major buffers during that
/// scan, so their digits are visited once. The kind decoders then check
/// the fields in schema order — header first, so a wrong `version` or
/// `kind` is a format error even when later fields are malformed — and
/// end in one constructor validation.
pub struct InstanceDoc<'a> {
    text: json::Parser<'a>,
    at: [Option<usize>; INSTANCE_FIELDS.len()],
    job_class: Option<Vec<u64>>,
    ptimes: Option<Rows>,
    setups: Option<Rows>,
    jobs: Option<Vec<Job>>,
}

/// A matrix field read during the scan: its cells row-major, the row
/// count, and the shortest and longest row.
struct Rows {
    flat: Vec<u64>,
    rows: usize,
    min_len: usize,
    max_len: usize,
}

impl Rows {
    /// Reads an array of unsigned-integer rows, each by
    /// [`json::Parser::u64_array_into`] into room reserved from the widest
    /// row so far.
    fn read(p: &mut json::Parser<'_>) -> Result<Rows, String> {
        let mut m = Rows { flat: Vec::new(), rows: 0, min_len: usize::MAX, max_len: 0 };
        p.array(|p| {
            m.flat.reserve(m.max_len);
            let len = p.u64_array_into(&mut m.flat).ok_or_else(String::new)?;
            m.rows += 1;
            m.min_len = m.min_len.min(len);
            m.max_len = m.max_len.max(len);
            Ok(())
        })?;
        Ok(m)
    }

    /// The length of a row that is not `width` long, if any.
    fn ragged(&self, width: usize) -> Option<usize> {
        if self.rows == 0 || (self.min_len == width && self.max_len == width) {
            None
        } else if self.min_len != width {
            Some(self.min_len)
        } else {
            Some(self.max_len)
        }
    }
}

/// Reads the uniform `jobs` array of `{"class", "size"}` objects (the last
/// duplicate key wins, unknown keys are skipped).
fn read_jobs(p: &mut json::Parser<'_>) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    p.array(|p| {
        let (mut class, mut size) = (None, None);
        p.object(|p, key| {
            let slot = match key {
                "class" => &mut class,
                "size" => &mut size,
                _ => return p.skip_value(),
            };
            *slot = read_or_skip(p, |p| p.u64().ok_or_else(String::new))?;
            Ok(())
        })?;
        let class = class.and_then(|c| usize::try_from(c).ok());
        jobs.push(Job::new(class.ok_or_else(String::new)?, size.ok_or_else(String::new)?));
        Ok(())
    })?;
    Ok(jobs)
}

/// Reads an array of unsigned integers.
fn read_u64s(p: &mut json::Parser<'_>) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    p.u64_array_into(&mut out).ok_or_else(String::new)?;
    Ok(out)
}

/// Reads the value at `p` with `read`. When `read` fails — a value of
/// another shape, or a syntax error `skip_value` then reports — the parser
/// rewinds and skips the value instead, and the answer is `None`.
fn read_or_skip<'a, T>(
    p: &mut json::Parser<'a>,
    read: impl FnOnce(&mut json::Parser<'a>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let start = *p;
    match read(p) {
        Ok(value) => Ok(Some(value)),
        Err(_) => {
            *p = start;
            p.skip_value()?;
            Ok(None)
        }
    }
}

impl<'a> InstanceDoc<'a> {
    /// Scans the value at `p` (consuming it). `Ok(None)` when the value is
    /// not an object; `Err` carries a syntax error.
    pub fn scan(p: &mut json::Parser<'a>) -> Result<Option<Self>, String> {
        if !p.at_object() {
            p.skip_value()?;
            return Ok(None);
        }
        let mut doc = InstanceDoc {
            text: *p,
            at: [None; INSTANCE_FIELDS.len()],
            job_class: None,
            ptimes: None,
            setups: None,
            jobs: None,
        };
        p.object(|p, key| {
            let Some(i) = INSTANCE_FIELDS.iter().position(|f| *f == key) else {
                return p.skip_value();
            };
            doc.at[i] = Some(p.pos());
            match key {
                "job_class" => doc.job_class = read_or_skip(p, read_u64s)?,
                "ptimes" => doc.ptimes = read_or_skip(p, Rows::read)?,
                "setups" => doc.setups = read_or_skip(p, Rows::read)?,
                "jobs" => doc.jobs = read_or_skip(p, read_jobs)?,
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        Ok(Some(doc))
    }

    /// Scans a whole text holding one instance object and nothing else.
    pub fn parse(text: &'a str) -> Result<Self, IoError> {
        let mut p = json::Parser::new(text);
        let doc = Self::scan(&mut p).map_err(IoError::Json)?;
        p.finish().map_err(IoError::Json)?;
        doc.ok_or_else(|| IoError::Json("expected a JSON object".to_string()))
    }

    fn field(&self, name: &str) -> Result<json::Parser<'a>, IoError> {
        let i = INSTANCE_FIELDS.iter().position(|f| *f == name).expect("a schema field");
        self.at[i]
            .map(|pos| self.text.at(pos))
            .ok_or_else(|| IoError::Json(format!("missing field '{name}'")))
    }

    fn uint(&self, name: &str) -> Result<u64, IoError> {
        self.field(name)?
            .u64()
            .ok_or_else(|| IoError::Json(format!("field '{name}' must be an unsigned integer")))
    }

    fn u64_vec(&self, name: &str) -> Result<Vec<u64>, IoError> {
        let mut out = Vec::new();
        self.field(name)?.u64_array_into(&mut out).ok_or_else(|| {
            IoError::Json(format!("field '{name}' must be an array of unsigned integers"))
        })?;
        Ok(out)
    }

    /// The matrix field `name` as the scan read it.
    fn matrix(&self, name: &str, rows: Option<Rows>) -> Result<Rows, IoError> {
        self.field(name)?;
        rows.ok_or_else(|| {
            IoError::Json(format!("field '{name}' must be an array of unsigned-integer rows"))
        })
    }

    /// The `kind` tag, when present and a string.
    pub fn kind(&self) -> Option<String> {
        self.field("kind").ok()?.string()
    }

    fn check_header(&self, expected_kind: &str) -> Result<(), IoError> {
        let version = self.uint("version")?;
        if version != u64::from(FORMAT_VERSION) {
            return Err(IoError::Format(format!("unsupported version {version}")));
        }
        let kind = self
            .field("kind")?
            .string()
            .ok_or_else(|| IoError::Json("field 'kind' must be a string".to_string()))?;
        if kind != expected_kind {
            return Err(IoError::Format(format!("expected kind '{expected_kind}', got '{kind}'")));
        }
        Ok(())
    }

    /// Decodes and validates a uniform instance.
    pub fn uniform(mut self) -> Result<UniformInstance, IoError> {
        self.check_header("uniform")?;
        let speeds = self.u64_vec("speeds")?;
        let setups = self.u64_vec("setups")?;
        self.field("jobs")?;
        let jobs = self.jobs.take().ok_or_else(|| {
            IoError::Json("field 'jobs' must be an array of {class, size} objects".to_string())
        })?;
        UniformInstance::new(speeds, setups, jobs).map_err(IoError::Invalid)
    }

    /// Decodes and validates an unrelated-schema payload tagged `kind`
    /// (`"unrelated"` or `"splittable"`): the `p_ij` and `s_ik` matrices
    /// go straight into the flat row-major buffers of
    /// [`UnrelatedInstance::from_flat`].
    pub fn unrelated(mut self, kind: &str) -> Result<UnrelatedInstance, IoError> {
        self.check_header(kind)?;
        let m = usize::try_from(self.uint("m")?)
            .map_err(|_| IoError::Json("m out of range".to_string()))?;
        self.field("job_class")?;
        let job_class = self.job_class.take().ok_or_else(|| {
            IoError::Json("field 'job_class' must be an array of unsigned integers".to_string())
        })?;
        let job_class = job_class
            .into_iter()
            .map(usize::try_from)
            .collect::<Result<Vec<usize>, _>>()
            .map_err(|_| IoError::Json("field 'job_class' entry out of range".to_string()))?;
        let (ptimes, setups) = (self.ptimes.take(), self.setups.take());
        let ptimes = self.matrix("ptimes", ptimes)?;
        let setups = self.matrix("setups", setups)?;
        let mismatch = |what, expected, got| {
            IoError::Invalid(InstanceError::DimensionMismatch { what, expected, got })
        };
        if m == 0 {
            return Err(IoError::Invalid(InstanceError::NoMachines));
        }
        if ptimes.rows != job_class.len() {
            return Err(mismatch("ptimes rows", job_class.len(), ptimes.rows));
        }
        if let Some(len) = ptimes.ragged(m) {
            return Err(mismatch("ptimes columns", m, len));
        }
        if let Some(len) = setups.ragged(m) {
            return Err(mismatch("setup columns", m, len));
        }
        UnrelatedInstance::from_flat(m, job_class, ptimes.flat, setups.flat)
            .map_err(IoError::Invalid)
    }
}

/// Serializes a uniform instance under `"kind": "uniform"`: pretty JSON
/// for files, or one compact line (no newlines) for NDJSON. One writer for
/// both layouts, so a field change cannot diverge between them.
pub fn uniform_to_json(inst: &UniformInstance, pretty: bool) -> String {
    use std::fmt::Write as _;
    let (open, sep, pad) = if pretty { ("{\n  ", ",\n  ", " ") } else { ("{", ", ", "") };
    let mut out = String::new();
    let _ = write!(out, "{open}\"version\": {FORMAT_VERSION}{sep}\"kind\": \"uniform\"{sep}");
    out.push_str("\"speeds\": ");
    json::write_u64_array(&mut out, inst.speeds());
    out.push_str(sep);
    out.push_str("\"setups\": ");
    json::write_u64_array(&mut out, inst.setups());
    out.push_str(sep);
    out.push_str("\"jobs\": [");
    for (j, job) in inst.jobs().iter().enumerate() {
        if j > 0 {
            out.push(',');
            if !pretty {
                out.push(' ');
            }
        }
        if pretty {
            out.push_str("\n    ");
        }
        let _ = write!(out, "{{{pad}\"class\": {}, \"size\": {}{pad}}}", job.class, job.size);
    }
    if pretty && inst.n() > 0 {
        out.push_str("\n  ");
    }
    out.push_str(if pretty { "]\n}" } else { "]}" });
    out
}

/// Serializes an unrelated-schema instance under `"kind": kind` (see
/// [`uniform_to_json`] for `pretty`). `kind` is `"unrelated"` or
/// `"splittable"`: the splittable model of Section 3.3 shares the unrelated
/// instance data and differs only in its solution space, so the two kinds
/// share one schema.
pub fn unrelated_to_json(inst: &UnrelatedInstance, kind: &str, pretty: bool) -> String {
    use std::fmt::Write as _;
    let (open, sep) = if pretty { ("{\n  ", ",\n  ") } else { ("{", ", ") };
    let mut out = String::new();
    let _ = write!(out, "{open}\"version\": {FORMAT_VERSION}{sep}\"kind\": \"{kind}\"{sep}");
    let _ = write!(out, "\"m\": {}{sep}", inst.m());
    out.push_str("\"job_class\": ");
    json::write_usize_array(&mut out, inst.job_classes());
    out.push_str(sep);
    let matrix = |out: &mut String, name: &str, rows: &[&[u64]]| {
        let _ = write!(out, "\"{name}\": [");
        for (r, row) in rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
                if !pretty {
                    out.push(' ');
                }
            }
            if pretty {
                out.push_str("\n    ");
            }
            json::write_u64_array(out, row);
        }
        if pretty && !rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
    };
    let ptimes: Vec<&[u64]> = (0..inst.n()).map(|j| inst.ptimes_row(j)).collect();
    matrix(&mut out, "ptimes", &ptimes);
    out.push_str(sep);
    let setups: Vec<&[u64]> = (0..inst.num_classes()).map(|k| inst.setups_row(k)).collect();
    matrix(&mut out, "setups", &setups);
    out.push_str(if pretty { "\n}" } else { "}" });
    out
}

/// Serializes a schedule (assignment vector) to JSON.
pub fn schedule_to_json(sched: &Schedule) -> String {
    let mut out = String::new();
    json::write_usize_array(&mut out, sched.assignment());
    out
}

/// Parses a schedule from JSON. Validation against an instance happens at
/// evaluation time ([`crate::schedule::uniform_loads`] etc.).
pub fn schedule_from_json(text: &str) -> Result<Schedule, IoError> {
    let mut p = json::Parser::new(text);
    p.skip_value().and_then(|()| p.finish()).map_err(IoError::Json)?;
    schedule_at(json::Parser::new(text))
}

/// Reads the schedule (an array of machine ids) at `p`.
pub fn schedule_at(mut p: json::Parser<'_>) -> Result<Schedule, IoError> {
    let mut ids = Vec::new();
    p.u64_array_into(&mut ids).ok_or_else(|| {
        IoError::Json("a schedule must be an array of unsigned integers".to_string())
    })?;
    let ids = ids.into_iter().map(usize::try_from).collect::<Result<_, _>>();
    ids.map(Schedule::new).map_err(|_| IoError::Json("schedule entry out of range".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::INF;

    fn decode_uniform(text: &str) -> Result<UniformInstance, IoError> {
        InstanceDoc::parse(text)?.uniform()
    }

    fn decode_unrelated(text: &str, kind: &str) -> Result<UnrelatedInstance, IoError> {
        InstanceDoc::parse(text)?.unrelated(kind)
    }

    #[test]
    fn uniform_roundtrip() {
        let inst =
            UniformInstance::new(vec![2, 1], vec![3, 5], vec![Job::new(0, 4), Job::new(1, 6)])
                .unwrap();
        let json = uniform_to_json(&inst, true);
        let back = decode_uniform(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn unrelated_roundtrip_with_infinities() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![3, INF], vec![INF, 4]],
            vec![vec![1, 1], vec![2, 2]],
        )
        .unwrap();
        let json = unrelated_to_json(&inst, "unrelated", true);
        let back = decode_unrelated(&json, "unrelated").unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn corrupted_data_is_rejected_not_trusted() {
        // Speed 0 fails validation even though the JSON parses.
        let bad = r#"{"version":1,"kind":"uniform","speeds":[0],"setups":[],"jobs":[]}"#;
        assert!(matches!(decode_uniform(bad), Err(IoError::Invalid(_))));
        // Wrong kind.
        let wrong = r#"{"version":1,"kind":"unrelated","speeds":[1],"setups":[],"jobs":[]}"#;
        assert!(matches!(decode_uniform(wrong), Err(IoError::Format(_))));
        // Future version.
        let future = r#"{"version":9,"kind":"uniform","speeds":[1],"setups":[],"jobs":[]}"#;
        assert!(matches!(decode_uniform(future), Err(IoError::Format(_))));
        // Garbage.
        assert!(matches!(decode_uniform("{nope"), Err(IoError::Json(_))));
    }

    #[test]
    fn json_line_is_single_line_and_parses_back() {
        let u = UniformInstance::new(vec![2, 1], vec![3, 5], vec![Job::new(0, 4), Job::new(1, 6)])
            .unwrap();
        let line = uniform_to_json(&u, false);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(decode_uniform(&line).unwrap(), u);
        let r = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![3, INF], vec![INF, 4]],
            vec![vec![1, 1], vec![2, 2]],
        )
        .unwrap();
        let line = unrelated_to_json(&r, "unrelated", false);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(decode_unrelated(&line, "unrelated").unwrap(), r);
    }

    #[test]
    fn splittable_kind_roundtrips_and_is_not_confused_with_unrelated() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![3, 5], vec![2, 4]],
            vec![vec![1, 1], vec![2, 2]],
        )
        .unwrap();
        let json = unrelated_to_json(&inst, "splittable", true);
        assert!(json.contains("\"kind\": \"splittable\""), "{json}");
        assert_eq!(decode_unrelated(&json, "splittable").unwrap(), inst);
        // The kinds are distinct on the wire even though the payload is
        // shared: each decoder rejects the other's tag.
        assert!(matches!(decode_unrelated(&json, "unrelated"), Err(IoError::Format(_))));
        let unrelated = unrelated_to_json(&inst, "unrelated", true);
        assert!(matches!(decode_unrelated(&unrelated, "splittable"), Err(IoError::Format(_))));
        let line = unrelated_to_json(&inst, "splittable", false);
        assert!(!line.contains('\n'));
        assert_eq!(decode_unrelated(&line, "splittable").unwrap(), inst);
    }

    #[test]
    fn schedule_roundtrip() {
        let s = Schedule::new(vec![0, 2, 1]);
        let json = schedule_to_json(&s);
        assert_eq!(schedule_from_json(&json).unwrap(), s);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let deep = "[".repeat(100_000);
        assert!(matches!(decode_uniform(&deep), Err(IoError::Json(_))));
        // At the limit boundary: 127 wrappers around a number still parse.
        let ok = format!("{}7{}", "[".repeat(127), "]".repeat(127));
        let mut p = json::Parser::new(&ok);
        assert!(p.skip_value().is_ok());
        assert!(p.finish().is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A string's unescaped runs are copied whole. Re-validating the
        // whole remaining input per character made a 2 MB string take
        // minutes.
        let body = "é".repeat(1 << 20);
        let line = format!("{{\"note\": \"{body}\\n\", \"id\": 1}}");
        let started = std::time::Instant::now();
        let mut p = json::Parser::new(&line);
        let [note, id] = p.fields(["note", "id"]).unwrap().unwrap();
        let note = note.unwrap().string();
        assert!(started.elapsed() < std::time::Duration::from_secs(10), "{:?}", started.elapsed());
        assert_eq!(id.unwrap().u64(), Some(1));
        assert_eq!(note, Some(format!("{body}\n")));
    }

    #[test]
    fn escapes_decode_in_values_and_keys() {
        let mut p = json::Parser::new(r#"{"a\u0062": "x\"y\\z\/\u00e9\n"}"#);
        let [ab] = p.fields(["ab"]).unwrap().unwrap();
        assert_eq!(ab.unwrap().string(), Some("x\"y\\z/é\n".into()));
        for bad in [r#""\q""#, r#""\u12""#, r#""abc"#, r#""\"#] {
            assert!(json::Parser::new(bad).string().is_none(), "{bad}");
            assert!(json::Parser::new(bad).skip_value().is_err(), "{bad}");
        }
    }

    #[test]
    fn inf_survives_the_text_format() {
        // u64::MAX is the ∞ sentinel; it must parse back exactly.
        let text = format!("[{}]", u64::MAX);
        let mut out = Vec::new();
        assert_eq!(json::Parser::new(&text).u64_array_into(&mut out), Some(1));
        assert_eq!(out, [u64::MAX]);
    }
}
