//! The three workloads: set-up, the timed closed loop, output checks and
//! counter deltas.
//!
//! Every op's clock covers only what a user waits for; output checks and
//! replays for the trace run after the op's clock stops.

use crate::client::{exchange, Counts, Scrape};
use crate::gen::{dashboard_body, DashboardBody, FIG4_SCN};
use crate::layers::{self, cold_train, Prepared};
use crate::trace::OpTrace;
use spnn_engine::{
    assemble_report, run_distributed, run_scenario_streaming_with, run_scenario_with, to_json,
    CancelToken, ContextCache, EngineConfig, EngineReport, ExecContext, ExecError, Executor,
    KernelProfile, MetricsRegistry, PartialReport, RemoteExecutor, RowCache, RowContext,
    ScenarioSpec, ServeConfig, Server, StreamEvent, SweepRow,
};
use std::cell::RefCell;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Closed-loop clients of the dashboard workload (= cores of the
/// reference box; load never uses more).
const DASHBOARD_CLIENTS: usize = 2;
/// Worker servers of the fleet workload, one shard each.
const FLEET_WORKERS: usize = 2;
/// Untimed closed-loop phase before the window: lets per-thread
/// allocator arenas, scratch buffers and server worker threads warm up.
const WARMUP: f64 = 2.0;

/// Run-wide settings shared by every workload.
#[derive(Debug)]
pub struct Env {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Alternate traced and untraced ops, and run the layer probes.
    pub trace: bool,
    /// Scratch directory for cache dirs, removed when the run ends.
    pub work: PathBuf,
    /// Cores available to the process.
    pub nproc: usize,
    /// The run's time origin for spans.
    pub epoch: Instant,
}

/// One op of the timed window.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Wall clock of the op.
    pub elapsed: f64,
    /// Time from op start to the first row.
    pub first_row: Option<f64>,
    /// The op completed and its output checked correct.
    pub ok: bool,
    /// The op ran with spans recorded.
    pub traced: bool,
}

/// Everything a workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall clock of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Ops of the timed window.
    pub samples: Vec<OpSample>,
    /// From window start to the last op's completion.
    pub window_s: f64,
    /// Counter deltas over the window.
    pub counts: Counts,
    /// Spans: set-up and probes (op 0) and every traced op.
    pub traces: Vec<OpTrace>,
    /// Ops, warm-up included, whose output check failed.
    pub check_failures: u64,
    /// The first few check-failure messages.
    pub failures: Vec<String>,
    /// Engine threads per sweep point.
    pub threads: usize,
    /// Kernel profile of the Monte-Carlo sweep.
    pub kernel: KernelProfile,
    /// Monte-Carlo iterations per point.
    pub iterations: usize,
}

/// The outcome of one op as the closed loop sees it.
struct OpOutcome {
    elapsed: Duration,
    first_row: Option<Duration>,
    check: Result<(), String>,
}

/// Runs `clients` closed-loop callers: each sends its next op only after
/// the previous one completed. A [`WARMUP`] phase runs first and is not
/// recorded (its check failures are); then the timed window runs for
/// `env.seconds`, with `scrape` read just before and after it for the
/// counter deltas. With tracing, odd sequence numbers run traced, so
/// traced and untraced ops interleave under the same load, and every
/// second traced op is followed, off its clock, by a `prepare` replay —
/// so the replayed layers are measured under the window's own load and
/// host speed.
///
/// # Errors
///
/// Propagates a failed scrape.
fn closed_loop(
    env: &Env,
    clients: usize,
    op: &(dyn Fn(usize, u64, Option<&mut OpTrace>) -> OpOutcome + Sync),
    scrape: &dyn Fn() -> Result<Scrape, String>,
    replay: &Replay<'_>,
    m: &mut Measured,
) -> Result<(), String> {
    let next = run_phase(env, clients, WARMUP, &vec![0; clients], op, None, None, m);
    let before = scrape()?;
    let mut window = Vec::new();
    let replay = env.trace.then_some(replay);
    run_phase(
        env,
        clients,
        env.seconds,
        &next,
        op,
        replay,
        Some(&mut window),
        m,
    );
    m.samples = window;
    m.counts = Counts::delta(&before, &scrape()?);
    Ok(())
}

/// One closed-loop phase of `seconds`, client `c` starting at sequence
/// number `first_seq[c]`; returns each client's next sequence number.
/// Samples and traces are kept only when `samples` is given.
#[allow(clippy::too_many_arguments)] // the phase's shape plus its two sinks
fn run_phase(
    env: &Env,
    clients: usize,
    seconds: f64,
    first_seq: &[u64],
    op: &(dyn Fn(usize, u64, Option<&mut OpTrace>) -> OpOutcome + Sync),
    replay: Option<&Replay<'_>>,
    samples: Option<&mut Vec<OpSample>>,
    m: &mut Measured,
) -> Vec<u64> {
    let start = Instant::now();
    let results = Mutex::new(Vec::new());
    let window_end = Mutex::new(Duration::ZERO);
    let next: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (results, window_end) = (&results, &window_end);
                let mut seq = first_seq[client];
                scope.spawn(move || {
                    while start.elapsed().as_secs_f64() < seconds {
                        let traced = env.trace && seq % 2 == 1;
                        let id = 1 + seq * clients as u64 + client as u64;
                        let mut trace = traced.then(|| OpTrace::new(env.epoch, id));
                        let mut out = op(client, seq, trace.as_mut());
                        {
                            let mut end = window_end.lock().expect("window lock");
                            *end = (*end).max(start.elapsed());
                        }
                        if let (Some(replay), Some(t)) = (replay, trace.as_mut()) {
                            if seq % 4 == 1 {
                                out.check = out.check.and(replay.run(t).map(|_| ()));
                            }
                        }
                        let sample = OpSample {
                            elapsed: out.elapsed.as_secs_f64(),
                            first_row: out.first_row.map(|d| d.as_secs_f64()),
                            ok: out.check.is_ok(),
                            traced,
                        };
                        results.lock().expect("results lock").push((
                            sample,
                            trace,
                            out.check.err(),
                        ));
                        seq += 1;
                    }
                    seq
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let keep = samples.is_some();
    let mut kept = Vec::new();
    for (sample, trace, err) in results.into_inner().expect("results lock") {
        if let Some(e) = err {
            m.check_failures += 1;
            if m.failures.len() < 5 {
                m.failures.push(e);
            }
        }
        if keep {
            kept.push(sample);
            m.traces.extend(trace);
        }
    }
    if let Some(samples) = samples {
        *samples = kept;
        m.window_s = window_end.into_inner().expect("window lock").as_secs_f64();
    }
    next
}

fn fig4() -> Result<ScenarioSpec, String> {
    ScenarioSpec::parse(FIG4_SCN).map_err(|e| format!("fig4.scn: {e}"))
}

/// An engine config that records into `metrics` and changes no result.
fn engine(threads: usize, kernel: KernelProfile, metrics: &MetricsRegistry) -> EngineConfig {
    EngineConfig {
        threads: Some(threads),
        kernel,
        verbose: false,
        cache_dir: None,
        metrics: metrics.clone(),
        row_cache: None,
    }
}

/// Runs `body` [`SETUP_REPS`] times, each into a fresh cache dir, timing
/// each; every repetition but the last is torn down. Returns the last
/// repetition's state and its cache dir.
fn repeat_setup<T>(
    env: &Env,
    m: &mut Measured,
    setup_trace: &mut OpTrace,
    mut body: impl FnMut(&Path, &mut OpTrace) -> Result<T, String>,
    teardown: impl Fn(T),
) -> Result<(T, PathBuf), String> {
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dir = env.work.join(format!("ctx-{rep}"));
        let t0 = Instant::now();
        let state = body(&dir, setup_trace)?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((old, old_dir)) = kept.replace((state, dir)) {
            teardown(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    Ok(kept.expect("at least one set-up repetition"))
}

/// A server running on its own thread until [`Running::stop`].
struct Running {
    addr: SocketAddr,
    token: CancelToken,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(config: ServeConfig) -> Result<Self, String> {
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let token = server.cancel_token();
        let handle = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            token,
            handle,
        })
    }

    /// Cancels the server and waits for its thread and worker pool.
    fn stop(self) {
        self.token.cancel();
        match self.handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: server {} ended with {e}", self.addr),
            Err(_) => eprintln!("perfbench: server {} panicked", self.addr),
        }
    }

    fn url(&self) -> String {
        format!("http://{}", self.addr)
    }
}

/// How a workload replays `prepare`: its spec, kernel, way of getting the
/// trained context, and how many replays run at once.
struct Replay<'a> {
    spec: &'a ScenarioSpec,
    kernel: KernelProfile,
    load: &'a (dyn Fn() -> Arc<spnn_engine::TrainedContext> + Sync),
    /// Concurrent replays: the concurrent prepares an op causes that no
    /// other client's op already stands in for (the fleet's workers
    /// prepare both shards at once).
    concurrency: usize,
}

impl Replay<'_> {
    /// Runs the replays, each on its own thread, spans into `trace`.
    ///
    /// # Errors
    ///
    /// Propagates a failed replay.
    fn run(&self, trace: &mut OpTrace) -> Result<Prepared, String> {
        std::thread::scope(|scope| {
            let replays: Vec<_> = (0..self.concurrency)
                .map(|_| {
                    let mut t = trace.fork();
                    scope.spawn(move || {
                        layers::replay_prepare(&mut t, self.spec, self.kernel, self.load)
                            .map(|p| (t, p))
                    })
                })
                .collect();
            let mut prepared = None;
            for replay in replays {
                let (t, p) = replay.join().expect("replay thread panicked")?;
                trace.absorb(t);
                prepared = Some(p);
            }
            prepared.ok_or_else(|| "no prepare replay ran".to_string())
        })
    }
}

/// Runs the kernel and runner probes with the workload's threads and
/// kernel, on a thread of their own, spans into `trace`. The point comes
/// from one more replay, whose spans are dropped: the window's replays
/// are the `prepare` measurement.
///
/// # Errors
///
/// Propagates a failed replay.
fn probe(trace: &mut OpTrace, replay: &Replay<'_>, m: &Measured) -> Result<(), String> {
    let p = replay.run(&mut trace.fork())?;
    let (spec, threads, kernel) = (replay.spec, m.threads, m.kernel);
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                layers::probe_mc(trace, &p, spec, threads, kernel);
            })
            .join()
            .expect("probe thread panicked");
    });
    Ok(())
}

/// `spec.parse` spans for the scenario text every op of a workload sends.
fn probe_parse(trace: &mut OpTrace, text: &str) {
    for _ in 0..50 {
        let parsed = trace.time("spec.parse", None, || ScenarioSpec::parse(text));
        assert!(parsed.is_ok(), "spec parse");
    }
}

// ---------------------------------------------------------------------------
// sweep-fig4
// ---------------------------------------------------------------------------

/// `sweep-fig4`: one caller running back-to-back fig4 reports in-process,
/// each through a fresh context cache over a warm disk dir.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn sweep_fig4(env: &Env) -> Result<Measured, String> {
    let spec = fig4()?;
    let mut m = Measured {
        threads: env.nproc,
        kernel: KernelProfile::Reference,
        iterations: spec.iterations,
        ..Measured::default()
    };
    let mut setup = OpTrace::new(env.epoch, 0);
    let ((), dir) = repeat_setup(
        env,
        &mut m,
        &mut setup,
        |dir, t| cold_train(dir, &spec, t),
        |()| {},
    )?;

    // Oracle: the same report computed on one thread.
    let oracle = to_json(
        &run_scenario_with(
            &spec,
            &engine(1, KernelProfile::Reference, &MetricsRegistry::new()),
            &ContextCache::on_disk(&dir),
        )
        .map_err(|e| format!("oracle: {e}"))?,
    );

    let registry = MetricsRegistry::new();
    let config = engine(env.nproc, KernelProfile::Reference, &registry);
    let op = |_client: usize, _seq: u64, mut trace: Option<&mut OpTrace>| {
        let t0 = Instant::now();
        let spans = trace.as_mut().map(|t| {
            let root = t.open("op", None);
            (root, t.open("runner.run_scenario", Some(root)))
        });
        let mut first_row = None;
        let mut last_event = trace.as_ref().map(|t| t.now());
        let cache = ContextCache::on_disk(&dir);
        let result = run_scenario_streaming_with(&spec, &config, &cache, &mut |event| {
            let kind = match event {
                StreamEvent::Started { .. } => Some("op.prepare"),
                StreamEvent::Row { .. } => {
                    first_row.get_or_insert_with(|| t0.elapsed());
                    Some("op.row")
                }
                _ => None,
            };
            if let (Some(t), Some((_, call)), Some(kind), Some(last)) =
                (trace.as_mut(), spans, kind, last_event.as_mut())
            {
                let now = t.now();
                t.record(kind, Some(call), *last, now);
                *last = now;
            }
        });
        if let (Some(t), Some((_, call))) = (trace.as_mut(), spans) {
            t.close(call);
        }
        let bytes = match (&result, trace.as_mut(), spans) {
            (Ok(report), Some(t), Some((root, _))) => {
                Some(t.time("report.encode", Some(root), || to_json(report)))
            }
            (Ok(report), _, _) => Some(to_json(report)),
            (Err(_), _, _) => None,
        };
        let elapsed = t0.elapsed();
        if let (Some(t), Some((root, _))) = (trace.as_mut(), spans) {
            t.close(root);
        }
        let check = match (result, bytes) {
            (Ok(_), Some(bytes)) if bytes == oracle => Ok(()),
            (Ok(_), _) => Err("sweep-fig4: report differs from the threads=1 oracle".into()),
            (Err(e), _) => Err(format!("sweep-fig4: {e}")),
        };
        OpOutcome {
            elapsed,
            first_row,
            check,
        }
    };
    // Each report loads its context from disk through a fresh cache.
    let replay = Replay {
        spec: &spec,
        kernel: m.kernel,
        load: &|| ContextCache::on_disk(&dir).get_or_train(&spec, false),
        concurrency: 1,
    };
    closed_loop(
        env,
        1,
        &op,
        &|| Ok(Scrape::parse(&registry.render())),
        &replay,
        &mut m,
    )?;

    if env.trace {
        probe_parse(&mut setup, FIG4_SCN);
        probe(&mut setup, &replay, &m)?;
    }
    m.traces.push(setup);
    Ok(m)
}

// ---------------------------------------------------------------------------
// serve-dashboard
// ---------------------------------------------------------------------------

/// The bit-level identity of a row: labels plus every statistic's bits.
fn row_bits(row: &SweepRow) -> (String, Vec<(String, String)>, [u64; 3], usize, bool) {
    (
        row.topology.clone(),
        row.labels.clone(),
        [
            row.mean.to_bits(),
            row.std_dev.to_bits(),
            row.moe95.to_bits(),
        ],
        row.iterations,
        row.stopped_early,
    )
}

/// Checks one dashboard stream: it assembles, has 3 rows and no error
/// event, its hot rows are bit-identical to the pre-warmed rows and its
/// unique row computed every iteration.
fn check_dashboard(
    body: &DashboardBody,
    report: &EngineReport,
    prewarm: &EngineReport,
    iterations: usize,
) -> Result<(), String> {
    if report.rows.len() != 3 {
        return Err(format!(
            "serve-dashboard: {} rows, expected 3",
            report.rows.len()
        ));
    }
    for (i, row) in report.rows.iter().enumerate() {
        if row.label("mode") != Some(body.mode) {
            return Err(format!("serve-dashboard: row {i} has the wrong mode"));
        }
        let sigma = row.label("sigma").unwrap_or_default();
        if i < 2 {
            let want = prewarm
                .rows
                .iter()
                .find(|p| p.topology == row.topology && p.labels == row.labels)
                .ok_or_else(|| format!("serve-dashboard: σ={sigma} is not a pre-warmed row"))?;
            if sigma != body.hot[i] || row_bits(row) != row_bits(want) {
                return Err(format!(
                    "serve-dashboard: hot row σ={sigma} differs from the pre-warmed row"
                ));
            }
        } else if sigma != body.unique || row.iterations != iterations {
            return Err(format!(
                "serve-dashboard: unique row σ={sigma} ran {} iterations",
                row.iterations
            ));
        }
    }
    Ok(())
}

/// `serve-dashboard`: an in-process server (2 workers, 1 engine thread,
/// a row cache pre-warmed with the fig4 grid) under 2 closed-loop clients
/// posting 1-mode, 3-σ fig4 bodies (2 hot σ, 1 unique σ).
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn serve_dashboard(env: &Env) -> Result<Measured, String> {
    let spec = fig4()?;
    let mut m = Measured {
        threads: 1,
        kernel: KernelProfile::Reference,
        iterations: spec.iterations,
        ..Measured::default()
    };
    let mut setup = OpTrace::new(env.epoch, 0);
    let ((server, rows, prewarm), dir) = repeat_setup(
        env,
        &mut m,
        &mut setup,
        |dir, t| {
            cold_train(dir, &spec, t)?;
            let rows = Arc::new(RowCache::in_memory());
            let mut config = engine(1, KernelProfile::Reference, &MetricsRegistry::new());
            config.cache_dir = Some(dir.to_path_buf());
            config.row_cache = Some(Arc::clone(&rows));
            let server = Running::start(ServeConfig {
                workers: DASHBOARD_CLIENTS,
                engine: config,
                ..ServeConfig::default()
            })?;
            let ex = exchange(server.addr, "POST", "/run", FIG4_SCN)?;
            let prewarm = assemble_report(&ex.body).map_err(|e| format!("pre-warm: {e}"))?;
            Ok((server, rows, prewarm))
        },
        |(server, _, _)| server.stop(),
    )?;
    let result = dashboard_window(
        env, &spec, &dir, &server, &rows, &prewarm, &mut setup, &mut m,
    );
    server.stop();
    result?;
    m.traces.push(setup);
    Ok(m)
}

#[allow(clippy::too_many_arguments)] // the dashboard's set-up state, passed through once
fn dashboard_window(
    env: &Env,
    spec: &ScenarioSpec,
    dir: &Path,
    server: &Running,
    rows: &RowCache,
    prewarm: &EngineReport,
    setup: &mut OpTrace,
    m: &mut Measured,
) -> Result<(), String> {
    if prewarm.rows.len() != 27 {
        return Err(format!("pre-warm produced {} rows", prewarm.rows.len()));
    }
    let op = |client: usize, seq: u64, mut trace: Option<&mut OpTrace>| {
        let body = dashboard_body(env.seed, DASHBOARD_CLIENTS as u64, client as u64, seq);
        let start = trace.as_ref().map(|t| t.now());
        let ex = exchange(server.addr, "POST", "/run", &body.text);
        let (elapsed, first_row) = match &ex {
            Ok(ex) => (ex.end, ex.first_row),
            Err(_) => (Duration::ZERO, None),
        };
        let check = ex.and_then(|ex| {
            if ex.status != 200 {
                return Err(format!("serve-dashboard: POST /run answered {}", ex.status));
            }
            let report = match (trace.as_mut(), start) {
                (Some(t), Some(s)) => {
                    let root = t.record("op", None, s, s + ex.end);
                    t.record("serve.head", Some(root), s, s + ex.head);
                    t.record("serve.stream", Some(root), s + ex.head, s + ex.end);
                    t.time("spec.parse", None, || ScenarioSpec::parse(&body.text))
                        .map_err(|e| format!("serve-dashboard: body does not parse: {e}"))?;
                    let report = t.time("serve.assemble", None, || assemble_report(&ex.body));
                    if let Ok(r) = &report {
                        t.time("report.encode", None, || to_json(r));
                    }
                    report
                }
                _ => assemble_report(&ex.body),
            }
            .map_err(|e| format!("serve-dashboard: {e}"))?;
            check_dashboard(&body, &report, prewarm, spec.iterations)
        });
        OpOutcome {
            elapsed,
            first_row,
            check,
        }
    };
    // The server keeps one process-lifetime context cache: replay
    // `prepare` against a warm one, on a dashboard body's spec. Each
    // client replays on its own, alongside the other client's request.
    let body = dashboard_body(env.seed, DASHBOARD_CLIENTS as u64, 0, 0);
    let body_spec = ScenarioSpec::parse(&body.text).map_err(|e| format!("body: {e}"))?;
    let warm = ContextCache::on_disk(dir);
    if env.trace {
        warm.get_or_train(&body_spec, false);
    }
    let replay = Replay {
        spec: &body_spec,
        kernel: m.kernel,
        load: &|| warm.get_or_train(&body_spec, false),
        concurrency: 1,
    };
    closed_loop(
        env,
        DASHBOARD_CLIENTS,
        &op,
        &|| Scrape::fetch(server.addr),
        &replay,
        m,
    )?;

    if env.trace {
        // Row lookups, after the last scrape so they do not count.
        let ctx = RowContext::of_spec_with(spec, KernelProfile::Reference);
        let keys: Vec<_> = prewarm
            .rows
            .iter()
            .map(|r| ctx.key(&r.topology, &r.labels))
            .collect();
        for _ in 0..20 {
            for key in &keys {
                let hit = setup.time("rowcache.get", None, || rows.get(key));
                if hit.is_none() {
                    return Err("serve-dashboard: a pre-warmed row left the row cache".into());
                }
            }
        }
        probe(setup, &replay, m)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// fleet-fig4-fma
// ---------------------------------------------------------------------------

/// Wraps an executor, recording per shard the dispatch span (execute
/// start → partial delivered) and the merge span (`run_distributed`'s
/// handling of the delivery), and keeping a copy of each partial for the
/// parse replay.
struct TimedExecutor<'a> {
    inner: &'a dyn Executor,
    trace: RefCell<&'a mut OpTrace>,
    parent: usize,
    partials: RefCell<Vec<PartialReport>>,
}

impl Executor for TimedExecutor<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(
        &self,
        spec: &ScenarioSpec,
        shards: usize,
        ctx: &ExecContext<'_>,
        deliver: &mut dyn FnMut(PartialReport) -> bool,
    ) -> Result<(), ExecError> {
        let start = self.trace.borrow().now();
        self.inner.execute(spec, shards, ctx, &mut |partial| {
            let arrived = self.trace.borrow().now();
            self.trace
                .borrow_mut()
                .record("shard.dispatch", Some(self.parent), start, arrived);
            self.partials.borrow_mut().push(partial.clone());
            let accepted = deliver(partial);
            let merged = self.trace.borrow().now();
            self.trace
                .borrow_mut()
                .record("shard.merge", Some(self.parent), arrived, merged);
            accepted
        })
    }
}

/// `fleet-fig4-fma`: fig4 under the fma kernel, split into 2 shards over
/// 2 in-process worker servers (1 engine thread each) on loopback, with
/// equal weights, no stealing and no row cache.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn fleet_fig4_fma(env: &Env) -> Result<Measured, String> {
    let spec = fig4()?;
    let mut m = Measured {
        threads: 1,
        kernel: KernelProfile::Fma,
        iterations: spec.iterations,
        ..Measured::default()
    };
    let coordinator = MetricsRegistry::new();
    let config = engine(1, KernelProfile::Fma, &coordinator);
    let coord_cache = ContextCache::in_memory();
    let cancel = CancelToken::new();
    let ctx = ExecContext {
        config: &config,
        cache: &coord_cache,
        cancel: &cancel,
    };
    let run = |exec: &dyn Executor, first_row: &mut Option<Duration>, t0: Instant| {
        run_distributed(&spec, exec, FLEET_WORKERS, &ctx, &mut |event| {
            if let StreamEvent::Row { .. } = event {
                first_row.get_or_insert_with(|| t0.elapsed());
            }
        })
        .map_err(|e| format!("fleet-fig4-fma: {e}"))
    };

    let mut setup = OpTrace::new(env.epoch, 0);
    let mut warmups = Vec::new();
    let (workers, dir) = repeat_setup(
        env,
        &mut m,
        &mut setup,
        |dir, t| {
            cold_train(dir, &spec, t)?;
            let mut workers = Vec::new();
            for _ in 0..FLEET_WORKERS {
                let mut config = engine(1, KernelProfile::Reference, &MetricsRegistry::new());
                config.cache_dir = Some(dir.to_path_buf());
                workers.push(Running::start(ServeConfig {
                    workers: 2,
                    engine: config,
                    ..ServeConfig::default()
                })?);
            }
            // One op warms each worker's process-lifetime context cache.
            let exec = RemoteExecutor::new(workers.iter().map(Running::url));
            warmups.push(run(&exec, &mut None, Instant::now())?);
            Ok(workers)
        },
        |workers| workers.into_iter().for_each(Running::stop),
    )?;
    let result = fleet_window(
        env,
        &spec,
        &dir,
        &workers,
        &warmups,
        &run,
        &coordinator,
        &mut setup,
        &mut m,
    );
    workers.into_iter().for_each(Running::stop);
    result?;
    m.traces.push(setup);
    Ok(m)
}

type FleetRun<'a> = dyn Fn(&dyn Executor, &mut Option<Duration>, Instant) -> Result<EngineReport, String>
    + Sync
    + 'a;

#[allow(clippy::too_many_arguments)] // the fleet's set-up state, passed through once
fn fleet_window(
    env: &Env,
    spec: &ScenarioSpec,
    dir: &Path,
    workers: &[Running],
    warmups: &[EngineReport],
    run: &FleetRun<'_>,
    coordinator: &MetricsRegistry,
    setup: &mut OpTrace,
    m: &mut Measured,
) -> Result<(), String> {
    // Oracle: the single-process fma report.
    let oracle = to_json(
        &run_scenario_with(
            spec,
            &engine(env.nproc, KernelProfile::Fma, &MetricsRegistry::new()),
            &ContextCache::on_disk(dir),
        )
        .map_err(|e| format!("oracle: {e}"))?,
    );
    if warmups.iter().any(|r| to_json(r) != oracle) {
        return Err(
            "fleet-fig4-fma: a warm-up report differs from the single-process report".into(),
        );
    }
    let scrape = || -> Result<Scrape, String> {
        let mut all = vec![Scrape::parse(&coordinator.render())];
        for w in workers {
            all.push(Scrape::fetch(w.addr)?);
        }
        Ok(Scrape::merged(&all))
    };
    let exec = RemoteExecutor::new(workers.iter().map(Running::url));
    let op = |_client: usize, _seq: u64, trace: Option<&mut OpTrace>| {
        let t0 = Instant::now();
        let mut first_row = None;
        let (result, elapsed) = match trace {
            None => {
                let bytes = run(&exec, &mut first_row, t0).map(|r| to_json(&r));
                (bytes, t0.elapsed())
            }
            Some(t) => {
                let root = t.open("op", None);
                let call = t.open("exec.run_distributed", Some(root));
                let timed = TimedExecutor {
                    inner: &exec,
                    trace: RefCell::new(&mut *t),
                    parent: call,
                    partials: RefCell::new(Vec::new()),
                };
                let report = run(&timed, &mut first_row, t0);
                let partials = timed.partials.into_inner();
                t.close(call);
                let bytes = report.map(|r| t.time("report.encode", Some(root), || to_json(&r)));
                let elapsed = t0.elapsed();
                t.close(root);
                for p in &partials {
                    let text = p.to_json();
                    let parsed =
                        t.time("shard.partial_parse", None, || PartialReport::parse(&text));
                    assert!(parsed.is_ok(), "a delivered partial does not re-parse");
                }
                (bytes, elapsed)
            }
        };
        let check = result.and_then(|bytes| {
            if bytes == oracle {
                Ok(())
            } else {
                Err("fleet-fig4-fma: report differs from the single-process fma report".into())
            }
        });
        OpOutcome {
            elapsed,
            first_row,
            check,
        }
    };
    // Workers keep one process-lifetime context cache each, and both
    // prepare at once.
    let warm = ContextCache::on_disk(dir);
    if env.trace {
        warm.get_or_train(spec, false);
    }
    let replay = Replay {
        spec,
        kernel: m.kernel,
        load: &|| warm.get_or_train(spec, false),
        concurrency: FLEET_WORKERS,
    };
    closed_loop(env, 1, &op, &scrape, &replay, m)?;

    if env.trace {
        probe_parse(setup, FIG4_SCN);
        probe(setup, &replay, m)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(mode: &str, sigma: &str, mean: f64) -> SweepRow {
        SweepRow {
            topology: "clements".into(),
            labels: vec![
                ("plan".into(), "global".into()),
                ("mode".into(), mode.into()),
                ("sigma".into(), sigma.into()),
            ],
            mean,
            std_dev: 0.01,
            moe95: 0.002,
            iterations: 60,
            stopped_early: false,
        }
    }

    fn report(rows: Vec<SweepRow>) -> EngineReport {
        EngineReport {
            scenario: "fig4".into(),
            topologies: Vec::new(),
            rows,
        }
    }

    #[test]
    fn dashboard_check_wants_hot_rows_bit_identical_to_the_prewarm() {
        let body = dashboard_body(9, 2, 1, 4);
        let prewarm = report(vec![
            row(body.mode, body.hot[0], 0.5),
            row(body.mode, body.hot[1], 0.25),
        ]);
        let good = report(vec![
            row(body.mode, body.hot[0], 0.5),
            row(body.mode, body.hot[1], 0.25),
            row(body.mode, &body.unique, 0.75),
        ]);
        assert_eq!(check_dashboard(&body, &good, &prewarm, 60), Ok(()));

        let mut drifted = good.clone();
        drifted.rows[1].mean = f64::from_bits(0.25f64.to_bits() + 1);
        assert!(check_dashboard(&body, &drifted, &prewarm, 60).is_err());

        let mut short = good.clone();
        short.rows[2].iterations = 59;
        assert!(check_dashboard(&body, &short, &prewarm, 60).is_err());

        let mut missing = good.clone();
        missing.rows.pop();
        assert!(check_dashboard(&body, &missing, &prewarm, 60).is_err());

        let mut swapped = good;
        swapped.rows.swap(0, 1);
        assert!(check_dashboard(&body, &swapped, &prewarm, 60).is_err());
    }
}
