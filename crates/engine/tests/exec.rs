//! Executor-layer integration tests: the acceptance guarantee is that
//! in-process local peers, child-process peers, and remote workers all drive
//! the same `run_distributed` merge path and produce reports **byte-for-byte
//! identical** to the unsharded `spnn run` — including when a remote
//! worker is dead or fails mid-response and its shard is retried on
//! another worker — and that rows stream in strict prefix order while
//! shards complete out of order.

mod common;

use common::{dead_addr, flaky_addr, start_server, Fault, FaultWorker};
use spnn_engine::exec::{
    run_distributed, CancelToken, ExecContext, ExecError, Executor, RemoteExecutor, WeightSource,
};
use spnn_engine::prelude::*;
use spnn_engine::runner::StreamEvent;
use spnn_engine::serve::{ServeConfig, Server};
use spnn_photonics::PerturbTarget;
use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// A slightly wider fig4 than the shared tiny one: 6 points so every
/// executor shape (more shards than workers, local+remote mixes) has
/// work to spread.
fn tiny_fig4() -> ScenarioSpec {
    let mut spec = common::tiny_fig4();
    spec.sweep.modes = vec![PerturbTarget::Both, PerturbTarget::PhaseShiftersOnly];
    spec.iterations = 10;
    spec
}

/// Runs `spec` through `executor` with a fresh context, asserting rows
/// stream in prefix order, and returns the merged report.
fn distribute(spec: &ScenarioSpec, executor: &dyn Executor, shards: usize) -> EngineReport {
    let config = EngineConfig {
        threads: Some(2),
        verbose: false,
        cache_dir: None,
        ..EngineConfig::default()
    };
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let mut row_indices = Vec::new();
    let report = run_distributed(spec, executor, shards, &ctx, &mut |event| {
        if let StreamEvent::Row { index, .. } = event {
            row_indices.push(index);
        }
    })
    .unwrap_or_else(|e| panic!("{} executor failed: {e}", executor.name()));
    let expected: Vec<usize> = (0..report.rows.len()).collect();
    assert_eq!(
        row_indices,
        expected,
        "{}: rows must stream in prefix order",
        executor.name()
    );
    report
}

fn assert_matches_unsharded(spec: &ScenarioSpec, report: &EngineReport, what: &str) {
    let unsharded = run_scenario(spec, &EngineConfig::default()).expect("unsharded run");
    assert_eq!(
        to_json(report),
        to_json(&unsharded),
        "{what}: JSON diverged"
    );
    assert_eq!(to_csv(report), to_csv(&unsharded), "{what}: CSV diverged");
}

/// Acceptance criterion: the in-process threaded executor (local peers
/// only, `spnn run --exec local`) is byte-identical to the unsharded run
/// for several shard counts.
#[test]
fn local_executor_is_byte_identical() {
    let spec = tiny_fig4();
    for shards in [1, 3, 5] {
        let local = RemoteExecutor::new(vec![]).with_local_peers(shards);
        assert_eq!(local.name(), "local");
        let report = distribute(&spec, &local, shards);
        assert_matches_unsharded(&spec, &report, &format!("local k={shards}"));
    }
}

/// Acceptance criterion: the child-process executor (the library home of
/// `spnn run --shards k --spawn`) is byte-identical to the unsharded run.
#[test]
fn spawn_executor_is_byte_identical() {
    let spec = tiny_fig4();
    let executor =
        RemoteExecutor::new(vec![]).with_child_peers(PathBuf::from(env!("CARGO_BIN_EXE_spnn")), 3);
    assert_eq!(executor.name(), "spawn");
    let report = distribute(&spec, &executor, 3);
    assert_matches_unsharded(&spec, &report, "spawn k=3");
}

/// Binds a worker service on an ephemeral port (in-memory cache) and
/// leaves it running for the rest of the test process.
fn start_worker() -> SocketAddr {
    start_server(2)
}

/// Acceptance criterion: a remote fan-out across healthy workers is
/// byte-identical to the unsharded run.
#[test]
fn remote_executor_is_byte_identical() {
    let spec = tiny_fig4();
    let workers = vec![
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
    ];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 3);
    assert_matches_unsharded(&spec, &report, "remote k=3");
}

/// Satellite acceptance: shards whose first worker is dead (connection
/// refused) or fails mid-response are retried on another worker, and the
/// merged report is still byte-identical — a failure is invisible in the
/// output.
#[test]
fn worker_failure_is_retried_on_another_worker() {
    let spec = tiny_fig4();
    let workers = vec![
        format!("http://{}", dead_addr()),
        format!("http://{}", flaky_addr()),
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
    ];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 4);
    assert_matches_unsharded(&spec, &report, "remote with dead+flaky workers");
}

/// A worker that reads the request and answers with a `Content-Length`
/// of `u64::MAX` and no body — a response whose end offset would wrap.
fn huge_length_addr() -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for mut conn in listener.incoming().flatten() {
            let mut request = Vec::new();
            let mut buf = [0u8; 4096];
            // Read the whole request, so closing never resets it.
            while let Ok(n @ 1..) = conn.read(&mut buf) {
                request.extend_from_slice(&buf[..n]);
                let text = String::from_utf8_lossy(&request);
                if let Some(head_end) = text.find("\r\n\r\n") {
                    let length = text[..head_end]
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .and_then(|n| n.trim().parse::<usize>().ok())
                        .unwrap_or(0);
                    if request.len() >= head_end + 4 + length {
                        break;
                    }
                }
            }
            let _ =
                conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n");
        }
    });
    addr
}

/// A worker whose response head claims a body length that would wrap the
/// parser's end offset is a failed attempt like any other: the shard is
/// retried on the next worker and the report stays byte-identical.
#[test]
fn overflowing_content_length_is_retried_on_another_worker() {
    let spec = tiny_fig4();
    let config = EngineConfig {
        threads: Some(2),
        metrics: MetricsRegistry::new(),
        ..EngineConfig::default()
    };
    let executor = RemoteExecutor::new(vec![
        format!("http://{}", huge_length_addr()),
        format!("http://{}", start_worker()),
    ]);
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let report =
        run_distributed(&spec, &executor, 2, &ctx, &mut |_| {}).expect("retried on a good worker");
    assert_matches_unsharded(&spec, &report, "remote with an overflowing Content-Length");
    let retries = config
        .metrics
        .counter("spnn_shard_retries_total", "", &[])
        .get();
    assert!(retries >= 1, "the bad response must count a retry");
}

/// With every worker unreachable the run fails with a Remote error that
/// names the per-worker reasons — it must not hang or fabricate rows.
#[test]
fn all_workers_dead_is_an_error() {
    let spec = tiny_fig4();
    let executor = RemoteExecutor::new(vec![
        format!("http://{}", dead_addr()),
        format!("http://{}", dead_addr()),
    ]);
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let err =
        run_distributed(&spec, &executor, 2, &ctx, &mut |_| {}).expect_err("dead fleet must fail");
    assert!(err.to_string().contains("every worker failed"), "{err}");
}

/// A cancelled token makes the remote executor give up quickly with
/// `Cancelled` instead of dispatching work.
#[test]
fn cancelled_remote_run_reports_cancellation() {
    let spec = tiny_fig4();
    let executor = RemoteExecutor::new(vec![format!("http://{}", dead_addr())]);
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    cancel.cancel();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let err = run_distributed(&spec, &executor, 1, &ctx, &mut |_| {})
        .expect_err("cancelled run must fail");
    assert!(
        matches!(
            err,
            spnn_engine::exec::DistError::Exec(ExecError::Cancelled)
        ),
        "{err}"
    );
}

/// Graceful shutdown, library form: cancelling the server's token makes
/// `Server::run` stop accepting and return `Ok` after draining.
#[test]
fn server_run_returns_after_cancel() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let token = server.cancel_token();
    let handle = std::thread::spawn(move || server.run());
    // The server is live…
    std::net::TcpStream::connect(addr).expect("server accepts while running");
    // …until cancelled.
    token.cancel();
    let start = std::time::Instant::now();
    while !handle.is_finished() {
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "run() must return promptly after cancel"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.join().expect("join").expect("clean shutdown");
}

// ---------------------------------------------------------------------------
// Fleets: mixed local+remote dispatch, capacity weights, chaos smoke
// ---------------------------------------------------------------------------

/// Tentpole acceptance (mixed dispatch): one `run_distributed` call
/// driving in-process peers *and* remote workers as peers in a single
/// plan produces a report byte-identical to the unsharded run.
#[test]
fn fleet_of_local_and_remote_peers_is_byte_identical() {
    let spec = tiny_fig4();
    let executor =
        RemoteExecutor::new(vec![format!("http://{}", start_worker())]).with_local_peers(2);
    assert_eq!(executor.name(), "fleet");
    let report = distribute(&spec, &executor, 3);
    assert_matches_unsharded(&spec, &report, "fleet: 1 remote + 2 local");
}

/// Tentpole acceptance (weighted planning): arbitrary static capacity
/// skews — including a zero-weight peer that gets an empty slice — never
/// change a byte of the assembled report, only who computes what.
#[test]
fn weighted_fleet_is_byte_identical_for_any_static_skew() {
    let spec = tiny_fig4();
    let workers = vec![
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
    ];
    for weights in [vec![1, 1, 1], vec![7, 1, 2], vec![0, 3, 1]] {
        let executor = RemoteExecutor::new(workers.clone())
            .with_local_peers(1)
            .with_weights(WeightSource::Static(weights.clone()));
        let report = distribute(&spec, &executor, 3);
        assert_matches_unsharded(&spec, &report, &format!("fleet weights {weights:?}"));
    }
}

/// `--weights-from healthz` probes each worker's core count and weights
/// the plan accordingly — still byte-identical, because weights only
/// move slice boundaries.
#[test]
fn healthz_weighted_fleet_is_byte_identical() {
    let spec = tiny_fig4();
    let workers = vec![
        format!("http://{}", start_worker()),
        format!("http://{}", start_worker()),
    ];
    let executor = RemoteExecutor::new(workers).with_weights(WeightSource::Healthz);
    let report = distribute(&spec, &executor, 2);
    assert_matches_unsharded(&spec, &report, "fleet weighted from /healthz");
}

/// Chaos smoke ([`FaultWorker`] drop mode): a worker whose connections
/// are reset mid-dispatch is retried on a healthy peer; the failure is
/// invisible in the output.
#[test]
fn dropped_connections_are_retried_and_stay_byte_identical() {
    let spec = tiny_fig4();
    let chaos = FaultWorker::start(start_worker(), Fault::DropConnections(2));
    let workers = vec![chaos.url(), format!("http://{}", start_worker())];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 2);
    assert_matches_unsharded(&spec, &report, "remote with connection-dropping worker");
}

/// Chaos smoke ([`FaultWorker`] stall mode): a worker that wedges
/// mid-response and recovers delivers a late but intact partial — the
/// client has no idle timeout on /shard, so the bytes are unchanged.
#[test]
fn mid_response_stall_recovers_and_stays_byte_identical() {
    let spec = tiny_fig4();
    let chaos = FaultWorker::start(
        start_worker(),
        Fault::MidStall {
            after: 100,
            stall: Duration::from_millis(800),
        },
    );
    let workers = vec![chaos.url(), format!("http://{}", start_worker())];
    let report = distribute(&spec, &RemoteExecutor::new(workers), 2);
    assert_matches_unsharded(&spec, &report, "remote with mid-response stall");
}

// ---------------------------------------------------------------------------
// One peer loop: zonal specs and child peers
// ---------------------------------------------------------------------------

/// A zonal spec has no statically derivable queue length, so a
/// pure-remote plan asking for weights or stealing falls back to equal
/// shards; local peers read the geometry off the prepared queue. Every
/// peer mix is byte-identical to the unsharded run.
#[test]
fn zonal_spec_is_byte_identical_through_every_peer_kind() {
    let spec = common::tiny_fig5();
    let workers: Vec<String> = (0..3)
        .map(|_| format!("http://{}", start_worker()))
        .collect();
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_spnn"));
    let plans = [
        ("plain remote", RemoteExecutor::new(workers.clone())),
        (
            "remote, steal + static weights",
            RemoteExecutor::new(workers.clone())
                .with_steal(true)
                .with_weights(WeightSource::Static(vec![3, 1, 2])),
        ),
        (
            "1 remote + 2 local",
            RemoteExecutor::new(workers[..1].to_vec()).with_local_peers(2),
        ),
        (
            "3 child peers",
            RemoteExecutor::new(vec![]).with_child_peers(exe, 3),
        ),
    ];
    for (what, executor) in plans {
        let report = distribute(&spec, &executor, 3);
        assert_matches_unsharded(&spec, &report, &format!("zonal, {what}"));
    }
}

/// A fleet runs one slice per peer: any other shard count is a typed
/// `Invalid` error before anything is dispatched, and so is a child peer
/// asked to steal or to take a weighted slice.
#[test]
fn fleet_rejects_plans_it_cannot_run() {
    let spec = tiny_fig4();
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_spnn"));
    let dead = format!("http://{}", dead_addr());
    let cases = [
        (RemoteExecutor::new(vec![dead.clone()]), 2, "2 shard(s)"),
        (
            RemoteExecutor::new(vec![dead]).with_local_peers(1),
            7,
            "2 peer(s)",
        ),
        (
            RemoteExecutor::new(vec![])
                .with_child_peers(exe.clone(), 2)
                .with_steal(true),
            2,
            "equal shards only",
        ),
        (
            RemoteExecutor::new(vec![])
                .with_child_peers(exe, 2)
                .with_weights(WeightSource::Static(vec![1, 2])),
            2,
            "equal shards only",
        ),
    ];
    for (executor, shards, message) in cases {
        let err = executor
            .execute(&spec, shards, &ctx, &mut |_| true)
            .expect_err("the plan must be rejected");
        assert!(
            matches!(
                err,
                ExecError::Engine(spnn_engine::runner::EngineError::Invalid(_))
            ),
            "{err}"
        );
        assert!(err.to_string().contains(message), "{err}");
    }
}

/// Writes an executable shell script standing in for the `spnn` binary.
#[cfg(unix)]
fn stand_in_exe(dir: &std::path::Path, body: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt as _;
    let path = dir.join("spnn-stand-in.sh");
    std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).expect("write script");
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    path
}

/// A failing child fails the run with its exit status, and the scratch
/// directory (spec and partials) is kept and named for inspection.
#[cfg(unix)]
#[test]
fn failing_child_peer_names_its_status_and_keeps_the_scratch_dir() {
    let scratch = common::Scratch::new("child-fails");
    let exe = stand_in_exe(&scratch.0, "exit 1");
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let executor = RemoteExecutor::new(vec![]).with_child_peers(exe, 2);
    let err = executor
        .execute(&tiny_fig4(), 2, &ctx, &mut |_| true)
        .expect_err("a failing child fails the run");
    let message = err.to_string();
    assert!(matches!(err, ExecError::Spawn(_)), "{message}");
    assert!(message.contains("exit status: 1"), "{message}");
    let kept = message
        .split("shard scratch kept for inspection: ")
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| panic!("no scratch dir named: {message}"));
    assert!(kept.join("scenario.scn").is_file(), "{}", kept.display());
    std::fs::remove_dir_all(&kept).expect("remove kept scratch dir");
}

/// Cancelling the token kills and reaps a child that would run for 30 s:
/// the executor returns `Cancelled` promptly.
#[cfg(unix)]
#[test]
fn cancelled_child_peer_is_killed_and_reaped() {
    let scratch = common::Scratch::new("child-cancel");
    let pid_file = scratch.path("pid");
    // `exec` makes the sleeping process the child itself.
    let exe = stand_in_exe(
        &scratch.0,
        &format!("echo $$ > {}\nexec sleep 30", pid_file.display()),
    );
    let config = EngineConfig::default();
    let cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &cache,
        cancel: &cancel,
    };
    let executor = RemoteExecutor::new(vec![]).with_child_peers(exe, 1);
    let start = std::time::Instant::now();
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !pid_file.exists() && start.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(10));
            }
            std::thread::sleep(Duration::from_millis(200));
            cancel.cancel();
        });
        executor.execute(&tiny_fig4(), 1, &ctx, &mut |_| true)
    });
    assert!(matches!(result, Err(ExecError::Cancelled)), "{result:?}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "cancellation took {:?}",
        start.elapsed()
    );
    let pid = std::fs::read_to_string(&pid_file).expect("the child wrote its pid");
    let alive = std::process::Command::new("kill")
        .args(["-0", pid.trim()])
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run kill -0");
    assert!(!alive.success(), "child {} was not reaped", pid.trim());
}
