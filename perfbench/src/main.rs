//! `perfbench` — the spnn end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-fig4|serve-dashboard|fleet-fig4-fma|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload sets up (cold training
//! into an empty cache dir, servers, row pre-warm — timed as `setup_s`,
//! median of several repetitions), computes its correctness oracle,
//! then runs a closed loop for `--seconds` and checks every op's output
//! outside the op's clock. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` traced and untraced ops
//! alternate, the layer probes run, spans are written to
//! `.perfbench/trace-<workload>-seed<n>.jsonl` and the last line carries
//! the per-layer metrics. A human-readable table goes to stderr. The
//! exit code is non-zero when any output check failed.
//!
//! `perfbench/README.md` maps each per-layer metric to the end-to-end
//! metric and workload it should move; `perfbench/baseline.json` holds
//! the baseline medians and the environment they were measured on.

mod client;
mod gen;
mod layers;
mod output;
mod trace;
mod workloads;

use output::{median, quantile, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Env, Measured};

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["sweep-fig4", "serve-dashboard", "fleet-fig4-fma"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ok_samples(m: &Measured, traced: Option<bool>) -> Vec<f64> {
    m.samples
        .iter()
        .filter(|s| s.ok && traced.is_none_or(|t| s.traced == t))
        .map(|s| s.elapsed)
        .collect()
}

fn first_rows(m: &Measured) -> Vec<f64> {
    m.samples
        .iter()
        .filter(|s| s.ok)
        .filter_map(|s| s.first_row)
        .collect()
}

fn end_to_end(m: &Measured) -> Vec<(&'static str, f64)> {
    let lat = ok_samples(m, None);
    let n = m.samples.len().max(1) as f64;
    let window = m.window_s.max(1e-9);
    vec![
        ("setup_s", median(&m.setup_s)),
        ("op_p50_s", median(&lat)),
        ("op_p90_s", quantile(&lat, 0.9)),
        ("first_row_p50_s", median(&first_rows(m))),
        ("ops_per_s", lat.len() as f64 / window),
        ("mc_iters_per_s", m.counts.mc_iters / window),
        ("ok_frac", lat.len() as f64 / n),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Median self time of layer `name` across every span, in `scale` units
/// per second (1e3 for ms, 1e6 for µs); 0 when the workload never runs
/// the layer.
fn layer(m: &Measured, name: &str, scale: f64) -> f64 {
    median(&trace::self_secs(&m.traces, name)) * scale
}

fn per_layer(m: &Measured) -> Vec<(&'static str, f64)> {
    let ms = |name| layer(m, name, 1e3);
    let us = |name| layer(m, name, 1e6);
    let prepare_ms: f64 = [
        "cache.load",
        "dataset.generate",
        "neural.software_accuracy",
        "core.testbatch_new",
        "cache.mapping",
        "core.nominal_accuracy",
        "queue.compile",
    ]
    .iter()
    .map(|n| ms(n))
    .sum();
    let head_ms = ms("serve.head");
    let first_row_ms = median(&first_rows(m)) * 1e3;
    let realize_s = layer(m, "core.realize", 1.0);
    let forward_s = layer(
        m,
        match m.kernel {
            spnn_engine::KernelProfile::Fma => "core.forward.fma",
            _ => "core.forward.reference",
        },
        1.0,
    );
    let point_s = layer(m, "runner.point", 1.0);
    let parallel_eff = if point_s > 0.0 {
        m.iterations as f64 * (realize_s + forward_s) / (m.threads as f64 * point_s)
    } else {
        0.0
    };
    let skews: Vec<f64> = m
        .traces
        .iter()
        .filter_map(|t| {
            let d = t.self_secs("shard.dispatch");
            let lo = d.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = d.iter().copied().fold(0.0, f64::max);
            (d.len() >= 2 && lo > 0.0).then(|| hi / lo)
        })
        .collect();
    let lookups = m.counts.rows_replayed + m.counts.row_misses;
    let ops = m.samples.len().max(1) as f64;
    let traced = median(&ok_samples(m, Some(true)));
    let untraced = median(&ok_samples(m, Some(false)));
    vec![
        ("cache.train_s", layer(m, "cache.train", 1.0)),
        ("cache.load_ms", ms("cache.load")),
        ("dataset.generate_ms", ms("dataset.generate")),
        (
            "neural.software_accuracy_ms",
            ms("neural.software_accuracy"),
        ),
        ("core.testbatch_new_ms", ms("core.testbatch_new")),
        ("cache.mapping_ms", ms("cache.mapping")),
        ("core.nominal_accuracy_ms", ms("core.nominal_accuracy")),
        ("queue.compile_ms", ms("queue.compile")),
        ("prepare.replay_ms", prepare_ms),
        (
            "prepare.first_row_cover",
            if first_row_ms > 0.0 {
                (prepare_ms + head_ms) / first_row_ms
            } else {
                0.0
            },
        ),
        ("core.realize_us", realize_s * 1e6),
        ("core.forward_us.reference", us("core.forward.reference")),
        ("core.forward_us.fma", us("core.forward.fma")),
        ("runner.point_ms", point_s * 1e3),
        ("runner.parallel_eff", parallel_eff),
        (
            "rowcache.hit_ratio",
            if lookups > 0.0 {
                m.counts.rows_replayed / lookups
            } else {
                0.0
            },
        ),
        ("rowcache.get_us", us("rowcache.get")),
        ("serve.head_ms", head_ms),
        ("serve.stream_ms", ms("serve.stream")),
        ("spec.parse_us", us("spec.parse")),
        ("serve.assemble_us", us("serve.assemble")),
        ("shard.dispatch_ms", ms("shard.dispatch")),
        ("shard.dispatch_skew", median(&skews)),
        ("shard.partial_parse_ms", ms("shard.partial_parse")),
        ("shard.merge_ms", ms("shard.merge")),
        ("report.encode_ms", ms("report.encode")),
        (
            "trace.overhead_frac",
            if untraced > 0.0 {
                traced / untraced - 1.0
            } else {
                0.0
            },
        ),
        ("count.mc_iters_per_op", m.counts.mc_iters / ops),
        ("count.rows_computed_per_op", m.counts.rows_computed / ops),
        ("count.rows_replayed_per_op", m.counts.rows_replayed / ops),
        ("count.prepare_per_op", m.counts.prepares / ops),
        ("count.shards_per_op", m.counts.shards / ops),
        ("count.http_429", m.counts.shed_429),
    ]
}

fn run_workload(args: &Args) -> ExitCode {
    let root = Path::new(".perfbench");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        work: root.join(format!("work-{}-{}", args.workload, std::process::id())),
        nproc,
        epoch: Instant::now(),
    };
    let _work = WorkDir(env.work.clone());
    eprintln!(
        "perfbench: workload {} seed {} window {} s trace {} (nproc {}, kernel tier {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        spnn_engine::detected_tier().as_str()
    );
    let measured = match args.workload.as_str() {
        "sweep-fig4" => workloads::sweep_fig4(&env),
        "serve-dashboard" => workloads::serve_dashboard(&env),
        "fleet-fig4-fma" => workloads::fleet_fig4_fma(&env),
        other => Err(format!("unknown workload {other}")),
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let failed = m.samples.iter().filter(|s| !s.ok).count() as u64;
    let result = RunResult {
        correct: m.check_failures == 0 && !m.samples.is_empty(),
        attempted: m.samples.len() as u64,
        failed,
        metrics: if args.trace {
            per_layer(&m)
        } else {
            end_to_end(&m)
        },
    };
    report_table(args, &m, &result);
    if args.trace {
        let path = root.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::save_jsonl(&path, &m.traces) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result.to_json(args.trace));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The human-readable summary on stderr: metrics with units, sample
/// counts, exact per-op counts, and in a traced run the self-time table.
fn report_table(args: &Args, m: &Measured, result: &RunResult) {
    let lat = ok_samples(m, None);
    eprintln!(
        "perfbench: {} ops in {:.3} s ({} ok, {} failed); op_p90_s over {} samples; setup reps {}",
        m.samples.len(),
        m.window_s,
        lat.len(),
        result.failed,
        lat.len(),
        m.setup_s.len()
    );
    for failure in &m.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    let units = RunResult::catalog(args.trace);
    for (name, value) in &result.metrics {
        let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
        eprintln!("  {:<30} {:>16.6} {unit}", name, value);
    }
    let c = &m.counts;
    eprintln!(
        "perfbench: counts over the window: mc_iters {} rows_computed {} rows_replayed {} \
         prepares {} shards {} http_429 {}",
        c.mc_iters, c.rows_computed, c.rows_replayed, c.prepares, c.shards, c.shed_429
    );
    if args.trace {
        eprintln!("perfbench: self time per layer (total s, spans):");
        for (name, (secs, n)) in trace::self_table(&m.traces) {
            eprintln!("  {name:<30} {secs:>12.6} {n:>6}");
        }
    }
}

/// Runs every workload as a child process (so each has its own peak RSS
/// and set-up), waiting for each; fails when any failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {workload} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: could not run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_command_line_parses() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve-dashboard",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(
            a,
            Args {
                workload: "serve-dashboard".into(),
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--seed", "-1"])).is_err());
    }

    #[test]
    fn every_workload_name_is_valid() {
        assert!(WORKLOADS.iter().all(|w| output::valid_name(w)));
    }

    #[test]
    fn metric_lists_cover_the_catalogs() {
        let m = Measured {
            threads: 2,
            iterations: 60,
            ..Measured::default()
        };
        let names = |v: Vec<(&'static str, f64)>| v.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        let catalog = |c: &[(&'static str, &str)]| c.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        assert_eq!(names(end_to_end(&m)), catalog(output::END_TO_END));
        assert_eq!(names(per_layer(&m)), catalog(output::PER_LAYER));
        assert!(per_layer(&m).iter().all(|(_, v)| v.is_finite()));
    }
}
