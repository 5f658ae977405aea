//! End-to-end test of `sst serve --tcp`: spawns the real binary on a
//! loopback port, fires 100+ concurrent mixed uniform/unrelated requests
//! over several connections, and checks that every response carries a
//! valid schedule whose makespan matches the reported cost and is no worse
//! than the setup-aware greedy baseline.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use sst_portfolio::protocol::{parse_response, request_to_json, Request, Response};
use sst_portfolio::{ProblemInstance, SplittableInstance};

const CLIENTS: usize = 8;
const PER_CLIENT: usize = 13; // 8 × 13 = 104 ≥ 100 requests

/// A mixed bag of instances spanning both models and the special-case
/// structures; requests cycle through them.
fn instance_pool() -> Vec<ProblemInstance> {
    let mut pool = Vec::new();
    for seed in 0..3 {
        pool.push(ProblemInstance::Uniform(sst_gen::uniform(&sst_gen::UniformParams {
            n: 24,
            m: 4,
            k: 5,
            seed,
            ..Default::default()
        })));
        pool.push(ProblemInstance::Unrelated(sst_gen::unrelated(&sst_gen::UnrelatedParams {
            n: 24,
            m: 4,
            k: 5,
            seed,
            ..Default::default()
        })));
        pool.push(ProblemInstance::Uniform(sst_gen::scenarios::production_line(20, 3, 3, seed)));
        pool.push(ProblemInstance::Unrelated(sst_gen::ra_class_uniform(
            20,
            4,
            4,
            2,
            (1, 30),
            sst_gen::SetupWeight::Moderate,
            seed,
        )));
        pool.push(ProblemInstance::Unrelated(sst_gen::class_uniform_ptimes(
            20,
            4,
            4,
            (1, 30),
            sst_gen::SetupWeight::Heavy,
            seed,
        )));
        pool.push(ProblemInstance::Splittable(SplittableInstance(
            sst_gen::scenarios::cdn_transcode(20, 4, 5, seed),
        )));
    }
    pool
}

fn spawn_server() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sst"))
        .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "4", "--budget-ms", "60"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sst serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read announce line");
    let addr = line
        .trim()
        .strip_prefix("sst-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn serve_tcp_answers_100_concurrent_mixed_requests() {
    let pool = Arc::new(instance_pool());
    let (mut child, addr) = spawn_server();

    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let pool = Arc::clone(&pool);
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || -> Vec<Response> {
            let stream = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            for i in 0..PER_CLIENT {
                let id = (client * PER_CLIENT + i) as u64;
                let req = Request {
                    id,
                    instance: pool[id as usize % pool.len()].clone(),
                    budget_ms: Some(60),
                    top_k: Some(3),
                    seed: Some(id),
                };
                writeln!(writer, "{}", request_to_json(&req)).expect("send");
            }
            writer.flush().expect("flush");
            // Responses may arrive out of order (several pool workers), but
            // each connection receives exactly its own PER_CLIENT responses.
            (0..PER_CLIENT)
                .map(|_| {
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).expect("read response") > 0, "early EOF");
                    parse_response(line.trim()).expect("response parses")
                })
                .collect()
        }));
    }

    let mut by_id: HashMap<u64, Response> = HashMap::new();
    for h in handles {
        for resp in h.join().expect("client thread") {
            let Response::Ok { id, .. } = &resp else {
                panic!("non-OK response: {resp:?}");
            };
            assert!(by_id.insert(*id, resp.clone()).is_none(), "duplicate id");
        }
    }
    child.kill().expect("kill server");
    let _ = child.wait();

    assert_eq!(by_id.len(), CLIENTS * PER_CLIENT);
    for (id, resp) in &by_id {
        let Response::Ok { makespan, solution, kind, .. } = resp else { unreachable!() };
        let inst = &pool[*id as usize % pool.len()];
        assert_eq!(kind, inst.kind(), "request {id}");
        // The solution must be valid, its exact cost must be the reported
        // makespan, and it must not lose to greedy.
        let cost = inst
            .evaluate(solution)
            .unwrap_or_else(|e| panic!("request {id}: invalid solution: {e}"));
        assert_eq!(&cost, makespan, "request {id}: reported makespan mismatch");
        let greedy = inst.greedy();
        assert!(
            !greedy.cost.better_than(&cost),
            "request {id}: response ({cost:?}) lost to greedy ({:?})",
            greedy.cost
        );
    }
}
