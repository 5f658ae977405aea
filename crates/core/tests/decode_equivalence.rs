//! Differential tests pinning the JSON matrix and array reader to the
//! reader it replaced. `old` below is a verbatim copy of that reader: the
//! parser, the instance document scan and the instance and schedule
//! decoders, without the writers. Every input must decode to the same
//! value, or fail with the same error, on both: random matrices with `∞`
//! cells, 19-, 20- and 21-digit numbers (`18446744073709551616` among
//! them), leading zeros, every JSON whitespace, cells that start with `-`
//! or hold a `.` or an `e`, ragged and empty rows, and every truncation of
//! a document.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_core::instance::INF;
use sst_core::io::json::Parser;
use sst_core::io::{schedule_from_json, InstanceDoc};

#[allow(dead_code, clippy::all)]
mod old {
    use sst_core::error::InstanceError;
    use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};
    use sst_core::io::{IoError, FORMAT_VERSION};
    use sst_core::schedule::Schedule;

    pub mod json {
        use std::borrow::Cow;

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
                while let Some(&b) = self.bytes.get(self.pos) {
                    if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
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
                let start = self.pos;
                let mut v: u64 = 0;
                while let Some(&b) = self.bytes.get(self.pos) {
                    if !b.is_ascii_digit() {
                        break;
                    }
                    v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
                    self.pos += 1;
                }
                if self.pos == start || matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return None;
                }
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
            /// an array (what was appended before the mismatch stays).
            pub fn u64_array_into(&mut self, out: &mut Vec<u64>) -> Option<usize> {
                let before = out.len();
                self.array(|p| {
                    out.push(p.u64().ok_or_else(String::new)?);
                    Ok(())
                })
                .ok()?;
                Some(out.len() - before)
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
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
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
    }

    /// The schema fields an instance document may carry (both schemas).
    const INSTANCE_FIELDS: [&str; 8] =
        ["version", "kind", "speeds", "setups", "jobs", "m", "job_class", "ptimes"];

    /// One instance object located in its text by a single syntax-checking
    /// scan: where each schema field's value starts (the last duplicate key
    /// wins; unknown keys are skipped). The `p_ij` / `s_ik` matrices are read
    /// into flat row-major buffers during that scan, so their digits are
    /// visited once. The kind decoders then check the fields in schema order —
    /// header first, so a wrong `version` or `kind` is a format error even when
    /// later fields are malformed — and end in one constructor validation.
    pub struct InstanceDoc<'a> {
        text: json::Parser<'a>,
        at: [Option<usize>; INSTANCE_FIELDS.len()],
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
        /// Reads an array of unsigned-integer rows.
        fn read(p: &mut json::Parser<'_>) -> Result<Rows, String> {
            let mut m = Rows { flat: Vec::new(), rows: 0, min_len: usize::MAX, max_len: 0 };
            p.array(|p| {
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
                return Err(IoError::Format(format!(
                    "expected kind '{expected_kind}', got '{kind}'"
                )));
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
            let job_class = self
                .u64_vec("job_class")?
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

    /// Parses and validates a uniform instance from JSON.
    pub fn uniform_from_json(text: &str) -> Result<UniformInstance, IoError> {
        InstanceDoc::parse(text)?.uniform()
    }

    /// Parses and validates an unrelated instance from JSON.
    pub fn unrelated_from_json(text: &str) -> Result<UnrelatedInstance, IoError> {
        InstanceDoc::parse(text)?.unrelated("unrelated")
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
}

/// One JSON whitespace run (often none or one space).
fn ws() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just(String::new()),
        Just(" ".to_string()),
        Just(" ".to_string()),
        Just("\t".to_string()),
        Just("\n".to_string()),
        Just("\r".to_string()),
        Just(" \r\n\t  ".to_string()),
    ]
}

/// A cell as text: unsigned integers of every length class, and tokens
/// that are not unsigned integers.
fn cell() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..1000).prop_map(|v| v.to_string()),
        (0u64..1000).prop_map(|v| v.to_string()),
        (0u64..100_000_000).prop_map(|v| v.to_string()),
        Just(INF.to_string()),
        Just(INF.to_string()),
        // 19 and 20 digits.
        (10u64.pow(18)..u64::MAX).prop_map(|v| v.to_string()),
        // 21 digits: past `u64` unless led by zeros.
        Just("18446744073709551616".to_string()),
        Just("99999999999999999999".to_string()),
        (1u64..u64::MAX).prop_map(|v| format!("{v}7")),
        (0u64..1000, 1usize..25).prop_map(|(v, z)| format!("{}{v}", "0".repeat(z))),
        Just(format!("0{INF}")),
        Just(format!("{INF}0")),
        Just(format!("{INF}.5")),
        (0u64..1000).prop_map(|v| format!("-{v}")),
        (0u64..1000).prop_map(|v| format!("{v}.5")),
        (0u64..1000).prop_map(|v| format!("{v}e2")),
        (0u64..1000).prop_map(|v| format!("{v}E+2")),
        Just(String::new()),
        Just("x".to_string()),
        Just("\"7\"".to_string()),
        Just("null".to_string()),
        Just("[3]".to_string()),
    ]
}

/// What follows a cell: mostly the separator, sometimes none or two.
fn separator() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(",".to_string()),
        Just(",".to_string()),
        Just(",".to_string()),
        Just(", ".to_string()),
        Just(", ".to_string()),
        Just(String::new()),
        Just(",,".to_string()),
        Just(" ".to_string()),
    ]
}

/// An array of cells, with whitespace around every token and a closing
/// bracket that may be missing or doubled.
fn array_text() -> impl Strategy<Value = String> {
    let item = (ws(), cell(), ws(), separator());
    let close = prop_oneof![Just("]"), Just("]"), Just("]"), Just(""), Just("]]"), Just(",]")];
    (ws(), vec(item, 0..40), ws(), close).prop_map(|(lead, items, trail, close)| {
        let mut text = format!("{lead}[");
        for (i, (a, c, b, sep)) in items.iter().enumerate() {
            if i > 0 {
                text.push_str(sep);
            }
            text.push_str(a);
            text.push_str(c);
            text.push_str(b);
        }
        text.push_str(&trail);
        text.push_str(close);
        text
    })
}

/// A cell of a valid matrix: small, large or `∞`, written in one of the
/// ways that still reads as that integer.
fn valid_cell() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..100).prop_map(|v| v.to_string()),
        (0u64..100).prop_map(|v| v.to_string()),
        (0u64..100_000).prop_map(|v| v.to_string()),
        (0u64..1_000_000_000_000).prop_map(|v| v.to_string()),
        Just(INF.to_string()),
        Just(INF.to_string()),
        (0u64..100).prop_map(|v| format!("00{v}")),
    ]
}

/// A matrix of `rows` rows of about `width` cells: mostly well formed,
/// sometimes ragged or holding a cell that is not an unsigned integer.
fn matrix(rows: usize, width: usize) -> impl Strategy<Value = String> {
    let cell = prop_oneof![
        valid_cell(),
        valid_cell(),
        valid_cell(),
        valid_cell(),
        valid_cell(),
        valid_cell(),
        valid_cell(),
        valid_cell(),
        valid_cell(),
        cell(),
    ];
    let row_len = prop_oneof![
        Just(width),
        Just(width),
        Just(width),
        Just(width),
        Just(width),
        Just(width),
        Just(width + 1),
        Just(width.saturating_sub(1)),
        Just(0),
    ];
    let row = (row_len, vec((cell, ws()), width + 1)).prop_map(|(len, mut cells)| {
        cells.truncate(len);
        cells
    });
    (vec(row, rows), ws()).prop_map(|(rows, pad)| {
        let rows: Vec<String> = rows
            .iter()
            .map(|cells| {
                let cells: Vec<String> = cells.iter().map(|(c, w)| format!("{c}{w}")).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        format!("[{pad}{}]", rows.join(&format!(",{pad}")))
    })
}

/// An unrelated-instance document of up to 6 jobs on 1 to 4 machines.
fn unrelated_doc() -> impl Strategy<Value = String> {
    (0usize..7, 1usize..5, 1usize..4).prop_flat_map(|(n, m, k)| {
        (
            vec(0usize..k + 1, n),
            matrix(n, m),
            matrix(k, m),
            ws(),
            prop_oneof![Just(m), Just(m), Just(m), Just(m + 1)],
        )
            .prop_map(move |(classes, ptimes, setups, pad, width)| {
                let classes: Vec<String> = classes.iter().map(usize::to_string).collect();
                format!(
                    "{{\"version\": 1,{pad}\"kind\": \"unrelated\", \"m\": {width}, \
                     \"job_class\": [{}],{pad}\"ptimes\": {ptimes}, \"setups\":{pad}{setups}}}",
                    classes.join(",")
                )
            })
    })
}

/// A uniform-instance document: speeds and setups arrays and job objects.
fn uniform_doc() -> impl Strategy<Value = String> {
    (array_text(), array_text(), vec((valid_cell(), valid_cell(), ws()), 0..5)).prop_map(
        |(speeds, setups, jobs)| {
            let jobs: Vec<String> = jobs
                .iter()
                .map(|(k, p, w)| format!("{{\"class\":{w}{k}, \"size\": {p}{w}}}"))
                .collect();
            format!(
                "{{\"version\": 1, \"kind\": \"uniform\", \"speeds\": {speeds}, \
                 \"setups\": {setups}, \"jobs\": [{}]}}",
                jobs.join(", ")
            )
        },
    )
}

/// Both readers on one array: the same answer, the same values and, on
/// success, the same end; `skip_value` and `u64` (which read cells with
/// the same number reader) agree too.
fn same_array(text: &str) -> Result<(), TestCaseError> {
    let (mut was, mut is) = (vec![7], vec![7]);
    let (mut p_was, mut p_is) = (old::json::Parser::new(text), Parser::new(text));
    let (r_was, r_is) = (p_was.u64_array_into(&mut was), p_is.u64_array_into(&mut is));
    prop_assert_eq!(r_was, r_is, "{:?}", text);
    if r_was.is_some() {
        prop_assert_eq!(&was, &is, "{:?}", text);
        prop_assert_eq!(p_was.pos(), p_is.pos(), "{:?}", text);
    } else {
        prop_assert_eq!(&is, &vec![7], "a failed read leaves the buffer: {:?}", text);
    }
    let (mut p_was, mut p_is) = (old::json::Parser::new(text), Parser::new(text));
    prop_assert_eq!(p_was.skip_value(), p_is.skip_value(), "{:?}", text);
    prop_assert_eq!(p_was.pos(), p_is.pos(), "{:?}", text);
    let (p_was, p_is) = (old::json::Parser::new(text), Parser::new(text));
    prop_assert_eq!(p_was.at(1).u64(), p_is.at(1).u64(), "{:?}", text);
    Ok(())
}

/// Both decoders on one document: the same instance or the same error.
fn same_doc(text: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        format!("{:?}", old::unrelated_from_json(text)),
        format!("{:?}", InstanceDoc::parse(text).and_then(|doc| doc.unrelated("unrelated"))),
        "{:?}",
        text
    );
    prop_assert_eq!(
        format!("{:?}", old::uniform_from_json(text)),
        format!("{:?}", InstanceDoc::parse(text).and_then(|doc| doc.uniform())),
        "{:?}",
        text
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arrays_read_as_before(text in array_text()) {
        same_array(&text)?;
        prop_assert_eq!(
            format!("{:?}", old::schedule_from_json(&text)),
            format!("{:?}", schedule_from_json(&text)),
            "{:?}",
            text
        );
    }

    #[test]
    fn unrelated_documents_decode_as_before(text in unrelated_doc()) {
        same_doc(&text)?;
    }

    #[test]
    fn uniform_documents_decode_as_before(text in uniform_doc()) {
        same_doc(&text)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_truncation_fails_as_before(text in unrelated_doc(), array in array_text()) {
        for cut in 0..=text.len() {
            same_doc(&text[..cut])?;
        }
        for cut in 0..=array.len() {
            same_array(&array[..cut])?;
        }
    }
}

#[test]
fn long_rows_and_the_end_of_the_text_read_as_before() {
    // Rows longer than the 64-byte digit mask, and cells that end within
    // the last eight bytes of the text.
    let cells: Vec<String> = (0..200u64)
        .map(|i| match i % 5 {
            0 => INF.to_string(),
            1 => (i * 7919 % 1_000_003).to_string(),
            _ => (i * i * 7919 * 7919 % 10u64.pow(i as u32 % 13 + 1)).to_string(),
        })
        .collect();
    for sep in [",", ", ", " , ", ",\n"] {
        let row = format!("[{}]", cells.join(sep));
        for cut in (row.len() - 30)..=row.len() {
            same_array(&row[..cut]).unwrap();
        }
        let inf_row = format!("[{}]", vec![INF.to_string(); 40].join(sep));
        same_array(&inf_row).unwrap();
    }
    for text in
        ["[1", "[12", "[123", "[0]", "[00000000000000000000000000001]", "[18446744073709551616]"]
    {
        same_array(text).unwrap();
    }
}
