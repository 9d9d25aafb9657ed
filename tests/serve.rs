//! Integration tests of the `aix serve` daemon: concurrent fault-injected
//! load with a zero-hang guarantee, backpressure and coalescing, deadline
//! handling, graceful drain, and crash recovery with byte-identical replay
//! (including a torn journal tail).

mod common;

use aix::core::EngineOptions;
use aix::serve::{Client, Server, ServerConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aix-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn engine_in(dir: &Path, faults: Option<&str>) -> EngineOptions {
    let mut engine = EngineOptions::sequential();
    engine.cache_dir = Some(dir.join("cache"));
    engine.journal_dir = Some(dir.join("journal"));
    engine.resume = true;
    engine.retries = 2;
    engine.backoff_ms = 1;
    engine.backoff_cap_ms = 10;
    engine.faults = faults.map(|spec| Arc::new(spec.parse().expect("fault spec")));
    engine
}

fn spawn_server(mut config: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>)
{
    config.addr = "127.0.0.1:0".to_owned();
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("bound address").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn request(op: &str, width: usize, deadline_ms: u64) -> String {
    format!(
        "{{\"op\":\"{op}\",\"kind\":\"adder\",\"width\":{width},\"quick\":true,\
         \"samples\":2,\"seed\":7,\"deadline_ms\":{deadline_ms}}}"
    )
}

/// The acceptance load: 100 concurrent requests under pinned-seed fault
/// injection. Zero crashes, zero hangs — every request reaches a terminal
/// status, and the daemon drains cleanly afterwards.
#[test]
fn hundred_request_fault_injected_load_reaches_terminal_outcomes() {
    let dir = scratch("load");
    let mut config = ServerConfig::local_default(engine_in(
        &dir,
        Some("io:p=0.3,seed=5,stage=synth;delay:p=0.1,ms=5,stage=sta"),
    ));
    config.workers = 2;
    config.queue_cap = 2;
    config.journal_path = Some(dir.join("serve-requests.journal"));
    let (addr, daemon) = spawn_server(config);

    let clients = 8usize;
    let fleet: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                client
                    .set_response_timeout(Some(Duration::from_secs(120)))
                    .expect("timeout");
                let mut outcomes = Vec::new();
                for i in (c..100).step_by(clients) {
                    let op = ["characterize", "select-precision", "verify"][i % 3];
                    let width = 4 + 2 * (i % 2);
                    let deadline_ms = if i % 10 == 9 { 1 } else { 60_000 };
                    let response = client
                        .call(&request(op, width, deadline_ms))
                        .expect("a terminal response, never a hang");
                    outcomes.push(response.status().to_owned());
                }
                outcomes
            })
        })
        .collect();
    let mut histogram = std::collections::BTreeMap::new();
    for worker in fleet {
        for outcome in worker.join().expect("client thread") {
            assert!(
                ["ok", "partial", "deadline", "overloaded", "error"].contains(&outcome.as_str()),
                "unexpected terminal status `{outcome}`"
            );
            *histogram.entry(outcome).or_insert(0usize) += 1;
        }
    }
    assert_eq!(
        histogram.values().sum::<usize>(),
        100,
        "all 100 requests answered: {histogram:?}"
    );
    assert!(
        histogram.get("ok").copied().unwrap_or(0) > 0,
        "the load must include successes: {histogram:?}"
    );

    let status = Client::connect(&addr)
        .and_then(|mut c| c.status())
        .expect("status");
    assert!(status.int_field("coalesce_hits").unwrap_or(0) > 0);
    Client::connect(&addr)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon drains cleanly after the load");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Backpressure: with one worker pinned by slow jobs and a one-slot
/// queue, distinct requests shed with `overloaded` + a retry hint while
/// identical requests coalesce instead of shedding.
#[test]
fn overload_sheds_with_retry_hint_while_identical_requests_coalesce() {
    let dir = scratch("overload");
    // Every synth job sleeps, so the queue backs up deterministically.
    let mut config =
        ServerConfig::local_default(engine_in(&dir, Some("delay:ms=400,stage=synth")));
    config.workers = 1;
    config.queue_cap = 1;
    let (addr, daemon) = spawn_server(config);

    // Stage the congestion deterministically: each slow campaign runs for
    // seconds (every synth job sleeps), so poll the status endpoint
    // between sends instead of racing the worker.
    let mut client = Client::connect(&addr).expect("connect");
    let wait_for = |client: &mut Client, what: &str, ready: &dyn Fn(i64, i64) -> bool| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = client.status().expect("status");
            let accepted = status.int_field("accepted").unwrap_or(0);
            let depth = status.int_field("queue_depth").unwrap_or(0);
            if ready(accepted, depth) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "never reached `{what}`: {}",
                status.to_wire()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    // First campaign: wait until the worker picked it up (accepted, queue
    // drained again)...
    let busy_worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.call(&request("characterize", 4, 0)).expect("response")
        })
    };
    wait_for(&mut client, "worker busy", &|accepted, depth| {
        accepted >= 1 && depth == 0
    });
    // ...second campaign: occupies the single queue slot.
    let busy_queued = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.call(&request("characterize", 6, 0)).expect("response")
        })
    };
    wait_for(&mut client, "queue full", &|accepted, depth| {
        accepted >= 2 && depth >= 1
    });
    let busy = [busy_worker, busy_queued];

    // A third distinct campaign must shed...
    let shed = client.call(&request("characterize", 8, 0)).expect("response");
    assert_eq!(shed.status(), "overloaded", "{}", shed.to_wire());
    assert!(shed.int_field("retry_after_ms").unwrap_or(0) > 0);

    // ...while a request identical to a queued one joins it instead.
    let coalesced = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.call(&request("characterize", 6, 0)).expect("response")
        })
    };
    for handle in busy {
        assert_eq!(handle.join().expect("busy client").status(), "ok");
    }
    assert_eq!(coalesced.join().expect("coalesced client").status(), "ok");

    let status = client.status().expect("status");
    assert!(status.int_field("shed").unwrap_or(0) >= 1, "{}", status.to_wire());
    assert!(
        status.int_field("coalesce_hits").unwrap_or(0) >= 1,
        "{}",
        status.to_wire()
    );
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hopeless deadline returns a `deadline` response quickly — partial
/// results, no hang — while the same campaign without a deadline succeeds.
#[test]
fn deadlines_cancel_remaining_work_and_report_partial_results() {
    let dir = scratch("deadline");
    let mut config =
        ServerConfig::local_default(engine_in(&dir, Some("delay:ms=100,stage=synth")));
    config.workers = 1;
    let (addr, daemon) = spawn_server(config);

    let mut client = Client::connect(&addr).expect("connect");
    client
        .set_response_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let started = Instant::now();
    let response = client.call(&request("characterize", 4, 50)).expect("response");
    assert_eq!(response.status(), "deadline", "{}", response.to_wire());
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "a 50 ms deadline must not take {:?}",
        started.elapsed()
    );
    // The identical campaign without the deadline runs to completion (the
    // deadline response was not cached).
    let response = client.call(&request("characterize", 4, 0)).expect("response");
    assert_eq!(response.status(), "ok", "{}", response.to_wire());

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns `aix serve` with its working directory, cache and journal in
/// the test's `dir`, which outlives the daemon.
fn spawn_daemon(dir: &Path, crash: bool, fault_env: Option<&str>) -> (Child, String) {
    let addr_file = dir.join("addr.txt");
    let _ = std::fs::remove_file(&addr_file);
    let mut command = Command::new(env!("CARGO_BIN_EXE_aix"));
    command
        .current_dir(dir)
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--quiet"])
        .arg("--addr-file")
        .arg(&addr_file)
        .arg("--cache")
        .arg(dir.join("cache"))
        .arg("--journal")
        .arg(dir.join("journal"))
        .env_remove("AIX_FAULT")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if crash {
        command.arg("--crash-on-panic");
    }
    if let Some(spec) = fault_env {
        command.env("AIX_FAULT", spec);
    }
    let child = command.spawn().expect("spawn aix serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if addr.trim().ends_with(|c: char| c.is_ascii_digit()) && !addr.trim().is_empty() {
                break addr.trim().to_owned();
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote its address");
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

/// Crash recovery end to end: a serve-stage injected panic kills the
/// daemon mid-request (journal pending, tail torn); the restarted daemon
/// replays the journaled request and answers a re-send byte-identically
/// to a never-crashed daemon. The restarted daemon is drained through
/// `aix serve shutdown`.
#[test]
fn killed_daemon_replays_the_journal_and_answers_byte_identically() {
    let dir = scratch("crash");
    let payload = request("characterize", 4, 0);

    // Phase 1: the daemon crashes on the injected serve-stage panic.
    let (mut child, addr) = spawn_daemon(&dir, true, Some("panic:stage=serve"));
    let mut client = Client::connect(&addr).expect("connect");
    let error = client.call(&payload).expect_err("the daemon must die mid-request");
    assert!(
        error.to_string().contains("connection closed")
            || matches!(
                error.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
        "unexpected failure shape: {error}"
    );
    let status = child.wait().expect("child exit");
    assert_eq!(status.code(), Some(101), "crash-on-panic exits 101");
    let journal_path = dir.join("journal").join("serve-requests.journal");
    let journal = std::fs::read_to_string(&journal_path).expect("journal persisted");
    assert!(
        journal.lines().any(|l| l.starts_with("pending ")),
        "the in-flight request must still be pending:\n{journal}"
    );

    // Tear the journal tail, as a crash mid-append would.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .expect("journal reopens");
        file.write_all(b"pending deadbeef").expect("torn tail");
    }

    // Phase 2: restart (fault plan still in the environment — replay must
    // not re-trip it), re-send, and capture the replayed response.
    let (mut child, addr) = spawn_daemon(&dir, true, Some("panic:stage=serve"));
    let mut client = Client::connect(&addr).expect("reconnect");
    client
        .set_response_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let replayed = client.call(&payload).expect("replayed response");
    assert_eq!(replayed.status(), "ok", "{}", replayed.to_wire());
    let shutdown = common::aix()
        .args(["serve", "shutdown", "--addr-file"])
        .arg(dir.join("addr.txt"))
        .output()
        .expect("spawn aix serve shutdown");
    assert!(
        shutdown.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&shutdown.stderr)
    );
    assert_eq!(child.wait().expect("exit").code(), Some(0), "drain exits 0");

    // Phase 3: a never-crashed daemon over fresh state must produce the
    // byte-identical response.
    let reference_dir = scratch("crash-ref");
    let (mut child, addr) = spawn_daemon(&reference_dir, false, None);
    let mut client = Client::connect(&addr).expect("connect reference");
    client
        .set_response_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let reference = client.call(&payload).expect("reference response");
    client.shutdown().expect("drain reference");
    child.wait().expect("reference exit");

    assert_eq!(
        replayed.to_wire(),
        reference.to_wire(),
        "crash recovery must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

/// A `shutdown` request drains the daemon to a zero exit, and new work
/// during the drain is refused with `draining`.
#[test]
fn graceful_drain_refuses_new_work_and_exits_zero() {
    let dir = scratch("drain");
    let (mut child, addr) = spawn_daemon(&dir, false, None);
    let status = common::aix()
        .args(["serve", "status", "--addr-file"])
        .arg(dir.join("addr.txt"))
        .output()
        .expect("spawn aix serve status");
    assert!(
        status.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let mut client = Client::connect(&addr).expect("connect");
    let response = client.shutdown().expect("shutdown accepted");
    assert_eq!(response.status(), "ok");
    // The same connection stays usable; new work is refused while the
    // daemon drains.
    let refused = client.call(&request("characterize", 4, 0)).expect("response");
    assert_eq!(refused.status(), "draining", "{}", refused.to_wire());
    drop(client);
    assert_eq!(child.wait().expect("exit").code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
