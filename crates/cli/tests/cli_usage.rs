//! The command-line contract, against the real `sst` binary: every usage
//! error — an unknown command, a missing positional argument, an unknown
//! flag — exits 2 with empty stdout and a usage text on stderr.

use std::process::Command;

const SUBCOMMANDS: &[&str] = &[
    "generate", "solve", "evaluate", "gantt", "info", "bound", "compare", "sweep", "serve",
    "trace", "pack", "unpack", "lint", "help",
];

/// Runs `sst args…` and asserts a usage error whose stderr contains
/// `usage`.
fn assert_usage_error(args: &[&str], usage: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_sst")).args(args).output().expect("run sst");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "sst {args:?} must exit 2; stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "sst {args:?} must print nothing on stdout");
    assert!(stderr.starts_with("error: "), "sst {args:?} must name the error first:\n{stderr}");
    assert!(stderr.contains(usage), "sst {args:?} stderr lacks {usage:?}:\n{stderr}");
}

#[test]
fn a_missing_or_unknown_command_prints_the_full_usage() {
    for args in [&[][..], &["frobnicate"], &["frobnicate", "--bogus", "1"]] {
        assert_usage_error(args, "USAGE\n  sst generate <family>");
    }
}

#[test]
fn every_subcommand_rejects_an_unknown_flag_with_its_synopsis() {
    for cmd in SUBCOMMANDS {
        assert_usage_error(&[cmd, "--bogus", "1"], &format!("usage:\n  sst {cmd}"));
    }
}

#[test]
fn every_missing_positional_argument_is_a_usage_error() {
    let cases: &[(&[&str], &str)] = &[
        (&["generate"], "usage:\n  sst generate <family> --out FILE"),
        (&["solve"], "usage:\n  sst solve <instance.json>"),
        (&["evaluate"], "usage:\n  sst evaluate <instance.json> <schedule.json>"),
        (&["evaluate", "i.json"], "usage:\n  sst evaluate <instance.json> <schedule.json>"),
        (&["gantt", "i.json"], "usage:\n  sst gantt <instance.json> <schedule.json>"),
        (&["info"], "usage:\n  sst info <instance.json>"),
        (&["bound"], "usage:\n  sst bound <instance.json>"),
        (&["compare"], "usage:\n  sst compare <instance.json>"),
        (&["trace"], "usage:\n  sst trace summarize <trace.ndjson>"),
        (&["trace", "summarize"], "usage:\n  sst trace summarize <trace.ndjson>"),
        (&["pack", "i.json"], "usage:\n  sst pack <instance.json> <out.sst>"),
        (&["unpack"], "usage:\n  sst unpack <in.sst> <instance.json>"),
    ];
    for (args, usage) in cases {
        assert_usage_error(args, usage);
    }
}

#[test]
fn malformed_flags_and_subcommands_are_usage_errors() {
    let cases: &[(&[&str], &str)] = &[
        (&["generate", "uniform"], "usage:\n  sst generate"),
        (&["solve", "i.json", "--algo"], "usage:\n  sst solve"),
        (&["solve", "i.json", "--seed", "1", "--seed", "2"], "usage:\n  sst solve"),
        (&["serve", "--workers", "many"], "usage:\n  sst serve"),
        (&["serve", "--shards", "2"], "usage:\n  sst serve"),
        (&["trace", "tail", "t.ndjson"], "usage:\n  sst trace summarize"),
    ];
    for (args, usage) in cases {
        assert_usage_error(args, usage);
    }
}

#[test]
fn a_failing_command_exits_1_without_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_sst"))
        .args(["info", "/nonexistent/instance.json"])
        .output()
        .expect("run sst");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.starts_with("error: ") && !stderr.contains("usage:"), "{stderr}");
}
