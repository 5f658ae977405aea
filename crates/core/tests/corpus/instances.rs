// Instance-decoding corpus shared by `crates/core/tests/proptest_io.rs`
// and `crates/portfolio/tests/proptest_protocol.rs` (pulled in with
// `include!`, so it lives in a subdirectory cargo does not build as a test
// target of its own).
//
// Every case is an instance document of one kind, written as an ordered
// list of top-level fields (duplicates allowed: the last one wins). The
// `EXPECTED` table records, per case, the outcome of the tree-based JSON
// decoder the streaming decoder replaced — through the kind's
// `sst_core::io::InstanceDoc` decoder, through `parse_incoming` on a one-shot
// request line, and through `parse_incoming` on a session `create` line.
// An outcome is the `IoError` variant name, or `ok:` followed by the
// decoded instance re-encoded as one canonical JSON line.

#[allow(dead_code)]
mod corpus {
    /// The `u64::MAX` ∞ sentinel as it appears on the wire.
    pub const INF: &str = "18446744073709551615";

    /// One corpus document.
    pub struct Case {
        /// `<kind>/<mutation>`, the key into [`EXPECTED`].
        pub name: String,
        /// The kind the document is decoded as.
        pub kind: &'static str,
        /// Top-level fields in document order.
        pub fields: Vec<(String, String)>,
        /// Replaces the rendered object outright (documents that are not a
        /// well-formed object).
        pub raw: Option<String>,
    }

    impl Case {
        /// The document as compact JSON, fields in list order.
        pub fn render(&self) -> String {
            if let Some(raw) = &self.raw {
                return raw.clone();
            }
            render_fields(&self.fields)
        }

        /// The same document presented differently: fields shuffled (the
        /// relative order of duplicate keys kept, so the same one still
        /// wins), unknown keys with nested junk values mixed in, and random
        /// whitespace around every structural character. A decoder must
        /// give every presentation the outcome of [`Case::render`].
        pub fn render_scrambled(&self, seed: u64) -> String {
            let mut rng = SplitMix(seed);
            let text = match &self.raw {
                Some(raw) => raw.clone(),
                None => {
                    let mut fields = shuffle_keeping_duplicate_order(&self.fields, &mut rng);
                    for _ in 0..rng.below(4) {
                        let name = JUNK_KEYS[rng.below(JUNK_KEYS.len() as u64) as usize];
                        let value = JUNK_VALUES[rng.below(JUNK_VALUES.len() as u64) as usize];
                        let at = rng.below(fields.len() as u64 + 1) as usize;
                        fields.insert(at, (name.to_string(), value.to_string()));
                    }
                    render_fields(&fields)
                }
            };
            scatter_whitespace(&text, &mut rng)
        }
    }

    /// Keys no decoder knows.
    pub const JUNK_KEYS: [&str; 6] = ["note", "Kind", "versions", "ptimes_", "_meta", "jobs2"];

    /// Values unknown keys carry: every JSON shape, strings holding
    /// escapes and quoted key names, numbers no field accepts.
    pub const JUNK_VALUES: [&str; 7] = [
        r#""a \"quoted\" \\ string é with {\"kind\": \"uniform\", \"id\": 5}""#,
        r#"{"nested": [1, -2, 3.5e10, {"deep": [[[]]]}], "t": true, "f": false, "n": null}"#,
        r#"[18446744073709551616, -0, 1e-3, "x", {}]"#,
        "-17",
        "null",
        r#""😀 \/ \n\r\t \u00e9""#,
        r#"{"ptimes": [[1]], "version": 9}"#,
    ];

    pub fn render_fields(fields: &[(String, String)]) -> String {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }

    /// A tiny deterministic generator (splitmix64) driving the scrambling.
    pub struct SplitMix(pub u64);

    impl SplitMix {
        pub fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next() % n
            }
        }
    }

    fn shuffle_keeping_duplicate_order(
        fields: &[(String, String)],
        rng: &mut SplitMix,
    ) -> Vec<(String, String)> {
        let mut order: Vec<(u64, usize)> = (0..fields.len()).map(|i| (rng.next(), i)).collect();
        order.sort();
        let mut out: Vec<(String, String)> =
            order.iter().map(|&(_, i)| fields[i].clone()).collect();
        // Re-deal each duplicated key's values in their original order
        // over the slots the shuffle gave that key.
        for (key, _) in fields {
            let values: Vec<&String> =
                fields.iter().filter(|(k, _)| k == key).map(|(_, v)| v).collect();
            let slots: Vec<usize> = (0..out.len()).filter(|&i| out[i].0 == *key).collect();
            for (slot, value) in slots.into_iter().zip(values) {
                out[slot].1 = value.clone();
            }
        }
        out
    }

    fn scatter_whitespace(text: &str, rng: &mut SplitMix) -> String {
        const WS: [&str; 5] = [" ", "\n", "\t", "\r\n", "   "];
        let mut out = String::with_capacity(text.len() * 2);
        let (mut in_string, mut escaped) = (false, false);
        for c in text.chars() {
            let structural = !in_string && matches!(c, '{' | '}' | '[' | ']' | ',' | ':');
            if structural && rng.below(3) == 0 {
                out.push_str(WS[rng.below(WS.len() as u64) as usize]);
            }
            out.push(c);
            if structural && rng.below(3) == 0 {
                out.push_str(WS[rng.below(WS.len() as u64) as usize]);
            }
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
            } else if c == '"' {
                in_string = true;
            }
        }
        out
    }

    fn base(kind: &'static str) -> Vec<(String, String)> {
        let f = |k: &str, v: &str| (k.to_string(), v.to_string());
        let head = vec![f("version", "1"), f("kind", &format!("\"{kind}\""))];
        let body = match kind {
            "uniform" => vec![
                f("speeds", "[2, 1]"),
                f("setups", "[3, 5]"),
                f("jobs", r#"[{"class": 0, "size": 4}, {"class": 1, "size": 6}]"#),
            ],
            "unrelated" => vec![
                f("m", "2"),
                f("job_class", "[0, 1]"),
                f("ptimes", &format!("[[3, {INF}], [{INF}, 4]]")),
                f("setups", "[[1, 1], [2, 2]]"),
            ],
            _ => vec![
                f("m", "2"),
                f("job_class", "[0, 1]"),
                f("ptimes", &format!("[[3, {INF}], [2, 4]]")),
                f("setups", "[[1, 1], [2, 2]]"),
            ],
        };
        head.into_iter().chain(body).collect()
    }

    /// Edits to a base document.
    enum Edit {
        Set(&'static str, String),
        Drop(&'static str),
        /// Insert another occurrence of the key just before its first one.
        DupBefore(&'static str, &'static str),
        /// Append another occurrence of the key at the end.
        DupAfter(&'static str, &'static str),
        Push(&'static str, &'static str),
    }

    fn apply(mut fields: Vec<(String, String)>, edits: Vec<Edit>) -> Vec<(String, String)> {
        for edit in edits {
            match edit {
                Edit::Set(k, v) => {
                    for field in fields.iter_mut().filter(|(key, _)| key == k) {
                        field.1 = v.clone();
                    }
                }
                Edit::Drop(k) => fields.retain(|(key, _)| key != k),
                Edit::DupBefore(k, v) => {
                    let at = fields.iter().position(|(key, _)| key == k).expect("key present");
                    fields.insert(at, (k.to_string(), v.to_string()));
                }
                Edit::DupAfter(k, v) | Edit::Push(k, v) => {
                    fields.push((k.to_string(), v.to_string()))
                }
            }
        }
        fields
    }

    /// The whole corpus: the same mutation menu over each kind, plus the
    /// mutations specific to each schema.
    pub fn cases() -> Vec<Case> {
        use Edit::*;
        let s = |v: &str| v.to_string();
        let mut out = Vec::new();
        for kind in ["uniform", "unrelated", "splittable"] {
            let other = match kind {
                "uniform" => "unrelated",
                "unrelated" => "splittable",
                _ => "uniform",
            };
            let data_fields: &[&'static str] = if kind == "uniform" {
                &["speeds", "setups", "jobs"]
            } else {
                &["m", "job_class", "ptimes", "setups"]
            };
            let first = data_fields[0];
            let mut edits: Vec<(String, Vec<Edit>)> = vec![
                (s("base"), vec![]),
                (s("version-missing"), vec![Drop("version")]),
                (s("version-2"), vec![Set("version", s("2"))]),
                (s("version-string"), vec![Set("version", s("\"1\""))]),
                (s("version-float"), vec![Set("version", s("1.0"))]),
                (s("kind-missing"), vec![Drop("kind")]),
                (s("kind-number"), vec![Set("kind", s("7"))]),
                (s("kind-unknown"), vec![Set("kind", s("\"weird\""))]),
                (s("kind-other"), vec![Set("kind", format!("\"{other}\""))]),
                (s("kind-missing-version-2"), vec![Drop("kind"), Set("version", s("2"))]),
                (
                    s("version-2-then-type-error"),
                    vec![Set("version", s("2")), Set(first, s("\"x\""))],
                ),
                (s("dup-version-last-wins"), vec![DupBefore("version", "9")]),
                (s("dup-version-last-bad"), vec![DupAfter("version", "9")]),
                (s("dup-kind-last-wins"), vec![DupBefore("kind", "\"nope\"")]),
                (
                    s("unknown-keys"),
                    vec![
                        Push("comment", "\"hi \\\"there\\\"\""),
                        Push("extra", r#"{"m": 0, "kind": "uniform", "jobs": [1.5, -2]}"#),
                        Push("flags", "[true, false, null]"),
                    ],
                ),
            ];
            for &field in data_fields {
                edits.push((format!("{field}-missing"), vec![Drop(field)]));
                edits.push((format!("{field}-string"), vec![Set(field, s("\"x\""))]));
                edits.push((format!("{field}-null"), vec![Set(field, s("null"))]));
                edits.push((
                    format!("{field}-dup-garbage-first"),
                    vec![DupBefore(field, "\"garbage\"")],
                ));
                edits.push((
                    format!("{field}-dup-garbage-last"),
                    vec![DupAfter(field, r#"{"x": 1}"#)],
                ));
            }
            if kind == "uniform" {
                let jobs = |v: &str| vec![Set("jobs", s(v))];
                edits.extend([
                    (s("speeds-negative"), vec![Set("speeds", s("[2, -1]"))]),
                    (s("speeds-float"), vec![Set("speeds", s("[2, 1.5]"))]),
                    (s("speeds-empty"), vec![Set("speeds", s("[]"))]),
                    (s("speeds-zero"), vec![Set("speeds", s("[0]"))]),
                    (s("speeds-inf"), vec![Set("speeds", format!("[{INF}, 1]"))]),
                    (s("setups-overflow"), vec![Set("setups", s("[3, 18446744073709551616]"))]),
                    (s("setups-nested"), vec![Set("setups", s("[[3], [5]]"))]),
                    (s("jobs-not-objects"), jobs("[1, 2]")),
                    (s("jobs-empty"), jobs("[]")),
                    (s("job-missing-size"), jobs(r#"[{"class": 0}]"#)),
                    (s("job-missing-class"), jobs(r#"[{"size": 4}]"#)),
                    (s("job-class-negative"), jobs(r#"[{"class": -1, "size": 4}]"#)),
                    (s("job-size-float"), jobs(r#"[{"class": 0, "size": 4.5}]"#)),
                    (s("job-size-string"), jobs(r#"[{"class": 0, "size": "4"}]"#)),
                    (
                        s("job-extra-key"),
                        jobs(r#"[{"class": 0, "tag": {"a": [1]}, "size": 4}, {"size": 6, "class": 1}]"#),
                    ),
                    (
                        s("job-dup-keys"),
                        jobs(r#"[{"class": 1, "size": "x", "class": 0, "size": 4}, {"class": 1, "size": 6}]"#),
                    ),
                    (s("job-class-range"), jobs(r#"[{"class": 9, "size": 4}]"#)),
                    (s("job-size-inf"), jobs(&format!(r#"[{{"class": 0, "size": {INF}}}]"#))),
                ]);
            } else {
                let pt = |v: String| vec![Set("ptimes", v)];
                edits.extend([
                    (s("m-zero"), vec![Set("m", s("0"))]),
                    (s("m-negative"), vec![Set("m", s("-2"))]),
                    (s("m-float"), vec![Set("m", s("2.0"))]),
                    (s("m-three"), vec![Set("m", s("3"))]),
                    (s("m-inf"), vec![Set("m", s(INF))]),
                    (s("job_class-negative"), vec![Set("job_class", s("[0, -1]"))]),
                    (s("job_class-float"), vec![Set("job_class", s("[0, 1.0]"))]),
                    (s("job_class-range"), vec![Set("job_class", s("[0, 9]"))]),
                    (s("job_class-short"), vec![Set("job_class", s("[0]"))]),
                    (s("ptimes-flat"), pt(s("[3, 4]"))),
                    (s("ptimes-ragged"), pt(format!("[[3], [{INF}, 4]]"))),
                    (s("ptimes-ragged-same-total"), pt(format!("[[3, {INF}, 7], [4]]"))),
                    (s("ptimes-extra-row"), pt(format!("[[3, {INF}], [{INF}, 4], [1, 1]]"))),
                    (s("ptimes-negative-cell"), pt(s("[[3, -4], [2, 4]]"))),
                    (s("ptimes-float-cell"), pt(s("[[3, 4.0], [2, 4]]"))),
                    (s("ptimes-string-cell"), pt(s("[[3, \"4\"], [2, 4]]"))),
                    (s("ptimes-null-cell"), pt(s("[[3, null], [2, 4]]"))),
                    (s("ptimes-overflow-cell"), pt(s("[[3, 18446744073709551616], [2, 4]]"))),
                    (s("ptimes-all-inf-row"), pt(format!("[[{INF}, {INF}], [2, 4]]"))),
                    (s("ptimes-row-object"), pt(s("[{\"a\": 1}, [2, 4]]"))),
                    (s("ptimes-empty-rows"), pt(s("[[], []]"))),
                    (s("setups-ragged"), vec![Set("setups", s("[[1], [2, 2]]"))]),
                    (s("setups-flat"), vec![Set("setups", s("[1, 2]"))]),
                    (s("setups-empty"), vec![Set("setups", s("[]"))]),
                    (s("setups-extra-class"), vec![Set("setups", s("[[1, 1], [2, 2], [3, 3]]"))]),
                    (
                        s("setups-inf-blocks"),
                        vec![Set("setups", format!("[[{INF}, 1], [2, {INF}]]"))],
                    ),
                    (
                        s("empty-instance"),
                        vec![
                            Set("job_class", s("[]")),
                            Set("ptimes", s("[]")),
                            Set("setups", s("[]")),
                        ],
                    ),
                    (
                        s("ragged-then-type-error"),
                        vec![
                            Set("ptimes", s("[[3], [2, 4]]")),
                            Set("setups", s("[[1, -1], [2, 2]]")),
                        ],
                    ),
                    (
                        s("ragged-then-version-2"),
                        vec![Set("ptimes", s("[[3], [2, 4]]")), Set("version", s("2"))],
                    ),
                    (
                        s("class-not-whole"),
                        vec![
                            Set("job_class", s("[0, 0]")),
                            Set("ptimes", format!("[[3, {INF}], [{INF}, 4]]")),
                            Set("setups", s("[[1, 1]]")),
                        ],
                    ),
                ]);
            }
            for (mutation, list) in edits {
                out.push(Case {
                    name: format!("{kind}/{mutation}"),
                    kind,
                    fields: apply(base(kind), list),
                    raw: None,
                });
            }
            let canonical = render_fields(&base(kind));
            let version_2 = render_fields(&apply(base(kind), vec![Set("version", s("2"))]));
            let raws = [
                ("not-object", s("[1, 2]")),
                ("empty-object", s("{}")),
                ("trailing-garbage", format!("{canonical} x")),
                ("trailing-comma", format!("{}, }}", &canonical[..canonical.len() - 1])),
                (
                    "version-2-then-syntax-error",
                    format!("{}, }}", &version_2[..version_2.len() - 1]),
                ),
                ("unterminated", canonical[..canonical.len() - 1].to_string()),
                ("too-deep", format!("{}1{}", "[".repeat(200), "]".repeat(200))),
                ("bad-escape-in-key", canonical.replacen("\"version\"", "\"ver\\qsion\"", 1)),
                ("escaped-key", canonical.replacen("\"version\"", "\"ver\\u0073ion\"", 1)),
            ];
            for (mutation, raw) in raws {
                out.push(Case {
                    name: format!("{kind}/{mutation}"),
                    kind,
                    fields: Vec::new(),
                    raw: Some(raw),
                });
            }
        }
        out
    }

    /// The recorded outcome of `name`: `(io, request, session create)`.
    pub fn expected(name: &str) -> (&'static str, &'static str, &'static str) {
        EXPECTED
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(_, io, req, ses)| (io, req, ses))
            .unwrap_or_else(|| panic!("no recorded outcome for corpus case {name}"))
    }

    /// Canonical re-encodings of the instances the `ok` cases decode to.
    const UNIFORM_0: &str = "ok:{\"version\": 1, \"kind\": \"uniform\", \"speeds\": [2, 1], \"setups\": [3, 5], \"jobs\": [{\"class\": 0, \"size\": 4}, {\"class\": 1, \"size\": 6}]}";
    const UNRELATED_0: &str = "ok:{\"version\": 1, \"kind\": \"unrelated\", \"m\": 2, \"job_class\": [0, 1], \"ptimes\": [[3, 18446744073709551615], [18446744073709551615, 4]], \"setups\": [[1, 1], [2, 2]]}";
    const SPLITTABLE_0: &str = "ok:{\"version\": 1, \"kind\": \"splittable\", \"m\": 2, \"job_class\": [0, 1], \"ptimes\": [[3, 18446744073709551615], [2, 4]], \"setups\": [[1, 1], [2, 2]]}";
    const UNIFORM_1: &str = "ok:{\"version\": 1, \"kind\": \"uniform\", \"speeds\": [18446744073709551615, 1], \"setups\": [3, 5], \"jobs\": [{\"class\": 0, \"size\": 4}, {\"class\": 1, \"size\": 6}]}";
    const UNIFORM_2: &str = "ok:{\"version\": 1, \"kind\": \"uniform\", \"speeds\": [2, 1], \"setups\": [3, 5], \"jobs\": []}";
    const UNIFORM_3: &str = "ok:{\"version\": 1, \"kind\": \"uniform\", \"speeds\": [2, 1], \"setups\": [3, 5], \"jobs\": [{\"class\": 0, \"size\": 18446744073709551615}]}";
    const UNRELATED_1: &str = "ok:{\"version\": 1, \"kind\": \"unrelated\", \"m\": 2, \"job_class\": [0, 1], \"ptimes\": [[3, 18446744073709551615], [18446744073709551615, 4]], \"setups\": [[1, 1], [2, 2], [3, 3]]}";
    const UNRELATED_2: &str = "ok:{\"version\": 1, \"kind\": \"unrelated\", \"m\": 2, \"job_class\": [], \"ptimes\": [], \"setups\": []}";
    const UNRELATED_3: &str = "ok:{\"version\": 1, \"kind\": \"unrelated\", \"m\": 2, \"job_class\": [0, 0], \"ptimes\": [[3, 18446744073709551615], [18446744073709551615, 4]], \"setups\": [[1, 1]]}";
    const SPLITTABLE_1: &str = "ok:{\"version\": 1, \"kind\": \"splittable\", \"m\": 2, \"job_class\": [0, 1], \"ptimes\": [[3, 18446744073709551615], [2, 4]], \"setups\": [[1, 1], [2, 2], [3, 3]]}";
    const SPLITTABLE_2: &str = "ok:{\"version\": 1, \"kind\": \"splittable\", \"m\": 2, \"job_class\": [], \"ptimes\": [], \"setups\": []}";
    const UNRELATED_4: &str = "ok:{\"version\": 1, \"kind\": \"splittable\", \"m\": 2, \"job_class\": [0, 1], \"ptimes\": [[3, 18446744073709551615], [18446744073709551615, 4]], \"setups\": [[1, 1], [2, 2]]}";
    const SPLITTABLE_3: &str = "ok:{\"version\": 1, \"kind\": \"splittable\", \"m\": 2, \"job_class\": [0, 0], \"ptimes\": [[3, 18446744073709551615], [18446744073709551615, 4]], \"setups\": [[1, 1]]}";

    /// `(case, io, request, session create)` outcomes of the tree-based
    /// decoder.
    pub const EXPECTED: &[(&str, &str, &str, &str)] = &[
        ("uniform/base", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("uniform/version-missing", "Json", "Json", "Json"),
        ("uniform/version-2", "Format", "Format", "Format"),
        ("uniform/version-string", "Json", "Json", "Json"),
        ("uniform/version-float", "Json", "Json", "Json"),
        ("uniform/kind-missing", "Json", "Json", "Json"),
        ("uniform/kind-number", "Json", "Json", "Json"),
        ("uniform/kind-unknown", "Format", "Format", "Format"),
        ("uniform/kind-other", "Format", "Json", "Json"),
        ("uniform/kind-missing-version-2", "Format", "Json", "Json"),
        ("uniform/version-2-then-type-error", "Format", "Format", "Format"),
        ("uniform/dup-version-last-wins", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("uniform/dup-version-last-bad", "Format", "Format", "Format"),
        ("uniform/dup-kind-last-wins", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("uniform/unknown-keys", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("uniform/speeds-missing", "Json", "Json", "Json"),
        ("uniform/speeds-string", "Json", "Json", "Json"),
        ("uniform/speeds-null", "Json", "Json", "Json"),
        ("uniform/speeds-dup-garbage-first", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("uniform/speeds-dup-garbage-last", "Json", "Json", "Json"),
        ("uniform/setups-missing", "Json", "Json", "Json"),
        ("uniform/setups-string", "Json", "Json", "Json"),
        ("uniform/setups-null", "Json", "Json", "Json"),
        ("uniform/setups-dup-garbage-first", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("uniform/setups-dup-garbage-last", "Json", "Json", "Json"),
        ("uniform/jobs-missing", "Json", "Json", "Json"),
        ("uniform/jobs-string", "Json", "Json", "Json"),
        ("uniform/jobs-null", "Json", "Json", "Json"),
        ("uniform/jobs-dup-garbage-first", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("uniform/jobs-dup-garbage-last", "Json", "Json", "Json"),
        ("uniform/speeds-negative", "Json", "Json", "Json"),
        ("uniform/speeds-float", "Json", "Json", "Json"),
        ("uniform/speeds-empty", "Invalid", "Invalid", "Invalid"),
        ("uniform/speeds-zero", "Invalid", "Invalid", "Invalid"),
        ("uniform/speeds-inf", UNIFORM_1, UNIFORM_1, UNIFORM_1),
        ("uniform/setups-overflow", "Json", "Json", "Json"),
        ("uniform/setups-nested", "Json", "Json", "Json"),
        ("uniform/jobs-not-objects", "Json", "Json", "Json"),
        ("uniform/jobs-empty", UNIFORM_2, UNIFORM_2, UNIFORM_2),
        ("uniform/job-missing-size", "Json", "Json", "Json"),
        ("uniform/job-missing-class", "Json", "Json", "Json"),
        ("uniform/job-class-negative", "Json", "Json", "Json"),
        ("uniform/job-size-float", "Json", "Json", "Json"),
        ("uniform/job-size-string", "Json", "Json", "Json"),
        ("uniform/job-extra-key", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("uniform/job-dup-keys", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("uniform/job-class-range", "Invalid", "Invalid", "Invalid"),
        ("uniform/job-size-inf", UNIFORM_3, UNIFORM_3, UNIFORM_3),
        ("uniform/not-object", "Json", "Json", "Json"),
        ("uniform/empty-object", "Json", "Json", "Json"),
        ("uniform/trailing-garbage", "Json", "Json", "Json"),
        ("uniform/trailing-comma", "Json", "Json", "Json"),
        ("uniform/version-2-then-syntax-error", "Json", "Json", "Json"),
        ("uniform/unterminated", "Json", "Json", "Json"),
        ("uniform/too-deep", "Json", "Json", "Json"),
        ("uniform/bad-escape-in-key", "Json", "Json", "Json"),
        ("uniform/escaped-key", UNIFORM_0, UNIFORM_0, UNIFORM_0),
        ("unrelated/base", UNRELATED_0, UNRELATED_0, UNRELATED_0),
        ("unrelated/version-missing", "Json", "Json", "Json"),
        ("unrelated/version-2", "Format", "Format", "Format"),
        ("unrelated/version-string", "Json", "Json", "Json"),
        ("unrelated/version-float", "Json", "Json", "Json"),
        ("unrelated/kind-missing", "Json", "Json", "Json"),
        ("unrelated/kind-number", "Json", "Json", "Json"),
        ("unrelated/kind-unknown", "Format", "Format", "Format"),
        ("unrelated/kind-other", "Format", UNRELATED_4, UNRELATED_4),
        ("unrelated/kind-missing-version-2", "Format", "Json", "Json"),
        ("unrelated/version-2-then-type-error", "Format", "Format", "Format"),
        ("unrelated/dup-version-last-wins", UNRELATED_0, UNRELATED_0, UNRELATED_0),
        ("unrelated/dup-version-last-bad", "Format", "Format", "Format"),
        ("unrelated/dup-kind-last-wins", UNRELATED_0, UNRELATED_0, UNRELATED_0),
        ("unrelated/unknown-keys", UNRELATED_0, UNRELATED_0, UNRELATED_0),
        ("unrelated/m-missing", "Json", "Json", "Json"),
        ("unrelated/m-string", "Json", "Json", "Json"),
        ("unrelated/m-null", "Json", "Json", "Json"),
        ("unrelated/m-dup-garbage-first", UNRELATED_0, UNRELATED_0, UNRELATED_0),
        ("unrelated/m-dup-garbage-last", "Json", "Json", "Json"),
        ("unrelated/job_class-missing", "Json", "Json", "Json"),
        ("unrelated/job_class-string", "Json", "Json", "Json"),
        ("unrelated/job_class-null", "Json", "Json", "Json"),
        ("unrelated/job_class-dup-garbage-first", UNRELATED_0, UNRELATED_0, UNRELATED_0),
        ("unrelated/job_class-dup-garbage-last", "Json", "Json", "Json"),
        ("unrelated/ptimes-missing", "Json", "Json", "Json"),
        ("unrelated/ptimes-string", "Json", "Json", "Json"),
        ("unrelated/ptimes-null", "Json", "Json", "Json"),
        ("unrelated/ptimes-dup-garbage-first", UNRELATED_0, UNRELATED_0, UNRELATED_0),
        ("unrelated/ptimes-dup-garbage-last", "Json", "Json", "Json"),
        ("unrelated/setups-missing", "Json", "Json", "Json"),
        ("unrelated/setups-string", "Json", "Json", "Json"),
        ("unrelated/setups-null", "Json", "Json", "Json"),
        ("unrelated/setups-dup-garbage-first", UNRELATED_0, UNRELATED_0, UNRELATED_0),
        ("unrelated/setups-dup-garbage-last", "Json", "Json", "Json"),
        ("unrelated/m-zero", "Invalid", "Invalid", "Invalid"),
        ("unrelated/m-negative", "Json", "Json", "Json"),
        ("unrelated/m-float", "Json", "Json", "Json"),
        ("unrelated/m-three", "Invalid", "Invalid", "Invalid"),
        ("unrelated/m-inf", "Invalid", "Invalid", "Invalid"),
        ("unrelated/job_class-negative", "Json", "Json", "Json"),
        ("unrelated/job_class-float", "Json", "Json", "Json"),
        ("unrelated/job_class-range", "Invalid", "Invalid", "Invalid"),
        ("unrelated/job_class-short", "Invalid", "Invalid", "Invalid"),
        ("unrelated/ptimes-flat", "Json", "Json", "Json"),
        ("unrelated/ptimes-ragged", "Invalid", "Invalid", "Invalid"),
        ("unrelated/ptimes-ragged-same-total", "Invalid", "Invalid", "Invalid"),
        ("unrelated/ptimes-extra-row", "Invalid", "Invalid", "Invalid"),
        ("unrelated/ptimes-negative-cell", "Json", "Json", "Json"),
        ("unrelated/ptimes-float-cell", "Json", "Json", "Json"),
        ("unrelated/ptimes-string-cell", "Json", "Json", "Json"),
        ("unrelated/ptimes-null-cell", "Json", "Json", "Json"),
        ("unrelated/ptimes-overflow-cell", "Json", "Json", "Json"),
        ("unrelated/ptimes-all-inf-row", "Invalid", "Invalid", "Invalid"),
        ("unrelated/ptimes-row-object", "Json", "Json", "Json"),
        ("unrelated/ptimes-empty-rows", "Invalid", "Invalid", "Invalid"),
        ("unrelated/setups-ragged", "Invalid", "Invalid", "Invalid"),
        ("unrelated/setups-flat", "Json", "Json", "Json"),
        ("unrelated/setups-empty", "Invalid", "Invalid", "Invalid"),
        ("unrelated/setups-extra-class", UNRELATED_1, UNRELATED_1, UNRELATED_1),
        ("unrelated/setups-inf-blocks", "Invalid", "Invalid", "Invalid"),
        ("unrelated/empty-instance", UNRELATED_2, UNRELATED_2, UNRELATED_2),
        ("unrelated/ragged-then-type-error", "Json", "Json", "Json"),
        ("unrelated/ragged-then-version-2", "Format", "Format", "Format"),
        ("unrelated/class-not-whole", UNRELATED_3, UNRELATED_3, UNRELATED_3),
        ("unrelated/not-object", "Json", "Json", "Json"),
        ("unrelated/empty-object", "Json", "Json", "Json"),
        ("unrelated/trailing-garbage", "Json", "Json", "Json"),
        ("unrelated/trailing-comma", "Json", "Json", "Json"),
        ("unrelated/version-2-then-syntax-error", "Json", "Json", "Json"),
        ("unrelated/unterminated", "Json", "Json", "Json"),
        ("unrelated/too-deep", "Json", "Json", "Json"),
        ("unrelated/bad-escape-in-key", "Json", "Json", "Json"),
        ("unrelated/escaped-key", UNRELATED_0, UNRELATED_0, UNRELATED_0),
        ("splittable/base", SPLITTABLE_0, SPLITTABLE_0, SPLITTABLE_0),
        ("splittable/version-missing", "Json", "Json", "Json"),
        ("splittable/version-2", "Format", "Format", "Format"),
        ("splittable/version-string", "Json", "Json", "Json"),
        ("splittable/version-float", "Json", "Json", "Json"),
        ("splittable/kind-missing", "Json", "Json", "Json"),
        ("splittable/kind-number", "Json", "Json", "Json"),
        ("splittable/kind-unknown", "Format", "Format", "Format"),
        ("splittable/kind-other", "Format", "Json", "Json"),
        ("splittable/kind-missing-version-2", "Format", "Json", "Json"),
        ("splittable/version-2-then-type-error", "Format", "Format", "Format"),
        ("splittable/dup-version-last-wins", SPLITTABLE_0, SPLITTABLE_0, SPLITTABLE_0),
        ("splittable/dup-version-last-bad", "Format", "Format", "Format"),
        ("splittable/dup-kind-last-wins", SPLITTABLE_0, SPLITTABLE_0, SPLITTABLE_0),
        ("splittable/unknown-keys", SPLITTABLE_0, SPLITTABLE_0, SPLITTABLE_0),
        ("splittable/m-missing", "Json", "Json", "Json"),
        ("splittable/m-string", "Json", "Json", "Json"),
        ("splittable/m-null", "Json", "Json", "Json"),
        ("splittable/m-dup-garbage-first", SPLITTABLE_0, SPLITTABLE_0, SPLITTABLE_0),
        ("splittable/m-dup-garbage-last", "Json", "Json", "Json"),
        ("splittable/job_class-missing", "Json", "Json", "Json"),
        ("splittable/job_class-string", "Json", "Json", "Json"),
        ("splittable/job_class-null", "Json", "Json", "Json"),
        ("splittable/job_class-dup-garbage-first", SPLITTABLE_0, SPLITTABLE_0, SPLITTABLE_0),
        ("splittable/job_class-dup-garbage-last", "Json", "Json", "Json"),
        ("splittable/ptimes-missing", "Json", "Json", "Json"),
        ("splittable/ptimes-string", "Json", "Json", "Json"),
        ("splittable/ptimes-null", "Json", "Json", "Json"),
        ("splittable/ptimes-dup-garbage-first", SPLITTABLE_0, SPLITTABLE_0, SPLITTABLE_0),
        ("splittable/ptimes-dup-garbage-last", "Json", "Json", "Json"),
        ("splittable/setups-missing", "Json", "Json", "Json"),
        ("splittable/setups-string", "Json", "Json", "Json"),
        ("splittable/setups-null", "Json", "Json", "Json"),
        ("splittable/setups-dup-garbage-first", SPLITTABLE_0, SPLITTABLE_0, SPLITTABLE_0),
        ("splittable/setups-dup-garbage-last", "Json", "Json", "Json"),
        ("splittable/m-zero", "Invalid", "Invalid", "Invalid"),
        ("splittable/m-negative", "Json", "Json", "Json"),
        ("splittable/m-float", "Json", "Json", "Json"),
        ("splittable/m-three", "Invalid", "Invalid", "Invalid"),
        ("splittable/m-inf", "Invalid", "Invalid", "Invalid"),
        ("splittable/job_class-negative", "Json", "Json", "Json"),
        ("splittable/job_class-float", "Json", "Json", "Json"),
        ("splittable/job_class-range", "Invalid", "Invalid", "Invalid"),
        ("splittable/job_class-short", "Invalid", "Invalid", "Invalid"),
        ("splittable/ptimes-flat", "Json", "Json", "Json"),
        ("splittable/ptimes-ragged", "Invalid", "Invalid", "Invalid"),
        ("splittable/ptimes-ragged-same-total", "Invalid", "Invalid", "Invalid"),
        ("splittable/ptimes-extra-row", "Invalid", "Invalid", "Invalid"),
        ("splittable/ptimes-negative-cell", "Json", "Json", "Json"),
        ("splittable/ptimes-float-cell", "Json", "Json", "Json"),
        ("splittable/ptimes-string-cell", "Json", "Json", "Json"),
        ("splittable/ptimes-null-cell", "Json", "Json", "Json"),
        ("splittable/ptimes-overflow-cell", "Json", "Json", "Json"),
        ("splittable/ptimes-all-inf-row", "Invalid", "Invalid", "Invalid"),
        ("splittable/ptimes-row-object", "Json", "Json", "Json"),
        ("splittable/ptimes-empty-rows", "Invalid", "Invalid", "Invalid"),
        ("splittable/setups-ragged", "Invalid", "Invalid", "Invalid"),
        ("splittable/setups-flat", "Json", "Json", "Json"),
        ("splittable/setups-empty", "Invalid", "Invalid", "Invalid"),
        ("splittable/setups-extra-class", SPLITTABLE_1, SPLITTABLE_1, SPLITTABLE_1),
        ("splittable/setups-inf-blocks", "Invalid", "Invalid", "Invalid"),
        ("splittable/empty-instance", SPLITTABLE_2, SPLITTABLE_2, SPLITTABLE_2),
        ("splittable/ragged-then-type-error", "Json", "Json", "Json"),
        ("splittable/ragged-then-version-2", "Format", "Format", "Format"),
        ("splittable/class-not-whole", SPLITTABLE_3, "Format", "Format"),
        ("splittable/not-object", "Json", "Json", "Json"),
        ("splittable/empty-object", "Json", "Json", "Json"),
        ("splittable/trailing-garbage", "Json", "Json", "Json"),
        ("splittable/trailing-comma", "Json", "Json", "Json"),
        ("splittable/version-2-then-syntax-error", "Json", "Json", "Json"),
        ("splittable/unterminated", "Json", "Json", "Json"),
        ("splittable/too-deep", "Json", "Json", "Json"),
        ("splittable/bad-escape-in-key", "Json", "Json", "Json"),
        ("splittable/escaped-key", SPLITTABLE_0, SPLITTABLE_0, SPLITTABLE_0),
    ];
}
