//! Decode cost of the two request framings — NDJSON vs packed binary
//! frames — on the large-instance session families, measured and gated.
//!
//! Section 1 (gated): for n=2000 instances of all three kinds, one
//! request is encoded once per framing and decoded repeatedly through the
//! exact serve-path entry points (`parse_incoming` for lines,
//! `decode_frame` + `decode_incoming` for frames — header validation,
//! checksum and instance validation included on the binary side). The
//! JSON path tokenizes and validates per cell; the packed path bulk-reads
//! each matrix via `chunks_exact` into one preallocated buffer and
//! validates once per frame — the ratio is the point of the wire format
//! and is printed for the ROADMAP table. The CI gate is deliberately
//! conservative (packed must merely not be *slower*); both sides are
//! best-of-[`TIMING_REPEATS`] so a single preemption cannot flake it.
//!
//! Section 2 (reported, ungated): a serve-mode mixed workload — one
//! in-memory connection carrying interleaved NDJSON and binary-frame
//! requests plus a mid-stream `{"upgrade": "binary"}` handshake, driven
//! through the real [`drive_connection`] sniffing loop against a live
//! [`Service`]. Asserts every request is answered in its own framing;
//! prints end-to-end throughput.
//!
//! Section 3 (reported, ungated): the serial stages around a solve-deadline
//! race. For each of the five solve-deadline families at 800×10×16
//! ([`DEADLINE_INSTANCES`] instances each) it prints the request size, the
//! mean `parse_incoming` µs per request line, the response size and the
//! mean `response_to_json` µs per answer (the instance's greedy floor as
//! the solution, with three solver rows), each the best of
//! [`TIMING_REPEATS`] runs, plus an FNV-1a digest of the decoded
//! instances. The digest must not change unless decoding is meant to.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sst_core::wire::{decode_frame, fnv1a64, FrameHeader, HEADER_LEN, MAGIC};
use sst_gen::scenarios;
use sst_portfolio::protocol::{
    parse_incoming, request_to_json, response_to_json, Incoming, Request, Response, SolverLine,
};
use sst_portfolio::service::{drive_connection, testing, ServeConfig, Service};
use sst_portfolio::wire::{decode_incoming, encode_request};
use sst_portfolio::{ProblemInstance, SplittableInstance};

/// Session-scale instance size: the regime the wire format exists for.
const N: usize = 2000;
const M: usize = 8;
const K: usize = 24;
/// Decodes per timed run — enough to dwarf timer granularity.
const DECODES_PER_RUN: usize = 20;
/// Identical timed runs per side; the minimum is kept.
const TIMING_REPEATS: usize = 5;

fn timed_min(mut work: impl FnMut()) -> f64 {
    let mut best_us = f64::INFINITY;
    for _ in 0..TIMING_REPEATS {
        let t0 = Instant::now();
        work();
        best_us = best_us.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    best_us
}

fn families() -> Vec<(&'static str, ProblemInstance)> {
    vec![
        (
            "uniform-2000",
            ProblemInstance::Uniform(sst_gen::uniform(&sst_gen::UniformParams {
                n: N,
                m: M,
                k: K,
                seed: 7,
                ..Default::default()
            })),
        ),
        (
            "unrelated-2000x8",
            ProblemInstance::Unrelated(sst_gen::unrelated(&sst_gen::UnrelatedParams {
                n: N,
                m: M,
                k: K,
                seed: 7,
                ..Default::default()
            })),
        ),
        (
            "splittable-2000x8",
            ProblemInstance::Splittable(SplittableInstance(sst_gen::scenarios::cdn_transcode(
                N, M, K, 7,
            ))),
        ),
    ]
}

fn decode_table() {
    println!("== ingest: request decode, JSON line vs packed frame (n={N}, m={M}, K={K}) ==");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "family", "json-bytes", "packed-bytes", "json/packed", "json-us", "packed-us", "speedup"
    );
    for (name, instance) in families() {
        let req = Request { id: 1, instance, budget_ms: Some(50), top_k: Some(3), seed: Some(1) };
        let line = request_to_json(&req);
        let frame = encode_request(&req);

        let json_us = timed_min(|| {
            for _ in 0..DECODES_PER_RUN {
                black_box(parse_incoming(black_box(&line)).expect("json decodes"));
            }
        });
        let packed_us = timed_min(|| {
            for _ in 0..DECODES_PER_RUN {
                let (ft, payload) = decode_frame(black_box(&frame)).expect("frame decodes");
                black_box(decode_incoming(ft, payload).expect("packed decodes"));
            }
        });
        let speedup = json_us / packed_us;
        println!(
            "{:<20} {:>12} {:>12} {:>11.1}x {:>10.1} {:>10.1} {:>8.1}x",
            name,
            line.len(),
            frame.len(),
            line.len() as f64 / frame.len() as f64,
            json_us / DECODES_PER_RUN as f64,
            packed_us / DECODES_PER_RUN as f64,
            speedup,
        );
        // CI gate: the packed decode must never lose to JSON. The measured
        // ratio (printed above, typically well past the 5x target) is
        // tracked in ROADMAP.md rather than gated — wall-clock ratios on
        // shared runners are not deterministic, the ordering is.
        assert!(
            packed_us <= json_us,
            "{name}: packed decode ({packed_us:.0}us) slower than JSON ({json_us:.0}us)"
        );
    }
}

/// Counts responses in a captured output buffer by framing: frames start
/// with the magic byte, NDJSON lines with anything else and end at `\n`.
fn count_responses(buf: &[u8]) -> (usize, usize) {
    let (mut frames, mut lines) = (0, 0);
    let mut at = 0;
    while at < buf.len() {
        if buf[at] == MAGIC[0] {
            let header = FrameHeader::parse(&buf[at..at + HEADER_LEN]).expect("response header");
            at += HEADER_LEN + header.len as usize;
            frames += 1;
        } else {
            let end = buf[at..].iter().position(|&b| b == b'\n').expect("newline-terminated");
            at += end + 1;
            lines += 1;
        }
    }
    (frames, lines)
}

fn serve_mixed_workload() {
    const REQUESTS: usize = 40; // per framing
    let uniform = sst_gen::uniform(&sst_gen::UniformParams {
        n: 200,
        m: 6,
        k: 8,
        seed: 3,
        ..Default::default()
    });

    // One connection's inbound bytes: JSON and frames interleaved, with
    // the upgrade handshake in the middle.
    let mut stream = Vec::new();
    let mut id = 0u64;
    let req = |id: u64| Request {
        id,
        instance: ProblemInstance::Uniform(uniform.clone()),
        budget_ms: Some(5),
        top_k: Some(1),
        seed: Some(id),
    };
    for i in 0..REQUESTS {
        stream.extend_from_slice(request_to_json(&req(id)).as_bytes());
        stream.push(b'\n');
        id += 1;
        if i == REQUESTS / 2 {
            stream.extend_from_slice(b"{\"upgrade\": \"binary\"}\n");
        }
        stream.extend_from_slice(&encode_request(&req(id)));
        id += 1;
    }

    let svc =
        Service::start(ServeConfig { workers: 4, top_k: 1, budget_ms: 5, ..Default::default() });
    let (buffer, out) = testing::buffer_writer();
    let t0 = Instant::now();
    let mut reader = std::io::BufReader::new(&stream[..]);
    drive_connection(&svc, &mut reader, &out).expect("in-memory connection");
    let summary = svc.shutdown();
    let elapsed = t0.elapsed().as_secs_f64();

    assert_eq!(summary.errors, 0, "mixed workload must serve every request");
    let buf = buffer.lock().clone();
    let (frames, lines) = count_responses(&buf);
    assert_eq!(frames, REQUESTS, "every binary request answered as a frame");
    // JSON responses + the upgrade ack line.
    assert_eq!(lines, REQUESTS + 1, "every JSON request answered as a line, plus the ack");
    println!(
        "== ingest: serve-mode mixed workload == {} requests ({REQUESTS} json + {REQUESTS} \
         binary + upgrade) in {:.1} ms ({:.0} req/s), responses in caller framing",
        2 * REQUESTS,
        elapsed * 1e3,
        (2 * REQUESTS) as f64 / elapsed,
    );
}

/// Instances per family in the solve-deadline rows.
const DEADLINE_INSTANCES: u64 = 8;

fn deadline_instance(family: &str, seed: u64) -> ProblemInstance {
    let (n, m, k) = (800, 10, 16);
    match family {
        "production-line" => ProblemInstance::Uniform(scenarios::production_line(n, m, k, seed)),
        "compute-cluster" => ProblemInstance::Unrelated(scenarios::compute_cluster(n, m, k, seed)),
        "print-shop" => ProblemInstance::Unrelated(scenarios::print_shop(n, m, k, seed)),
        "ci-build-farm" => ProblemInstance::Unrelated(scenarios::ci_build_farm(n, m, k, seed)),
        _ => ProblemInstance::Unrelated(sst_gen::unrelated(&sst_gen::UnrelatedParams {
            n,
            m,
            k,
            seed,
            ..Default::default()
        })),
    }
}

fn deadline_rows() {
    println!(
        "== ingest: solve-deadline shape (800x10x16, {DEADLINE_INSTANCES} instances per family, \
         best of {TIMING_REPEATS}) =="
    );
    let mut all = Vec::new();
    for family in ["production-line", "compute-cluster", "print-shop", "ci-build-farm", "unrelated"]
    {
        let (mut lines, mut answers) = (Vec::new(), Vec::new());
        for seed in 1..=DEADLINE_INSTANCES {
            let instance = deadline_instance(family, seed);
            let floor = instance.greedy();
            let row = |name: &str, micros| SolverLine {
                name: name.into(),
                makespan: Some(floor.cost),
                micros,
                completed: false,
            };
            answers.push(Response::Ok {
                id: seed,
                kind: instance.kind().into(),
                solver: "local-search".into(),
                micros: 9_876,
                makespan: floor.cost,
                solvers: vec![row("local-search", 9_870), row("anneal", 9_871), row("lp", 412)],
                solution: floor.solution,
            });
            let req = Request { id: seed, instance, budget_ms: Some(10), top_k: None, seed: None };
            lines.push(request_to_json(&req));
        }
        let count = DEADLINE_INSTANCES as f64;
        let decode_us = timed_min(|| {
            for line in &lines {
                black_box(parse_incoming(black_box(line)).expect("request decodes"));
            }
        }) / count;
        let encode_us = timed_min(|| {
            for answer in &answers {
                black_box(response_to_json(black_box(answer)));
            }
        }) / count;
        let mut digest = Vec::new();
        for line in &lines {
            let Ok(Incoming::Solve(req)) = parse_incoming(line) else { panic!("a solve request") };
            digest.extend_from_slice(format!("{:?}", req.instance).as_bytes());
        }
        let line_kb = lines.iter().map(String::len).sum::<usize>() as f64 / count / 1024.0;
        let answer_bytes = answers.iter().map(|a| response_to_json(a).len()).sum::<usize>();
        println!(
            "deadline_ingest/{family:<16} request {line_kb:>6.1} KiB  parse_incoming {decode_us:>7.1} us  \
             response {:>5} B  response_to_json {encode_us:>6.2} us  digest {:016x}",
            answer_bytes / DEADLINE_INSTANCES as usize,
            fnv1a64(&digest),
        );
        all.extend_from_slice(&digest);
    }
    println!("deadline_ingest/all-families digest {:016x}", fnv1a64(&all));
}

fn bench(c: &mut Criterion) {
    decode_table();
    serve_mixed_workload();
    deadline_rows();
    // Criterion tracking of the two decode primitives on the biggest
    // family, for run-over-run comparison.
    let (_, instance) = families().pop().expect("families non-empty");
    let req = Request { id: 1, instance, budget_ms: Some(50), top_k: Some(3), seed: Some(1) };
    let line = request_to_json(&req);
    let frame = encode_request(&req);
    let mut g = c.benchmark_group("ingest_decode");
    g.bench_function("json_splittable_2000x8", |b| {
        b.iter(|| parse_incoming(black_box(&line)).expect("json decodes"))
    });
    g.bench_function("packed_splittable_2000x8", |b| {
        b.iter(|| {
            let (ft, payload) = decode_frame(black_box(&frame)).expect("frame decodes");
            decode_incoming(ft, payload).expect("packed decodes")
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
