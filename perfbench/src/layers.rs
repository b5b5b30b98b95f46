//! Per-layer probes: the engine's `prepare` replayed call by call, the
//! Monte-Carlo kernels timed per iteration, and one sweep point through
//! the runner — every call a public function of the module it names,
//! timed from here as a span.

use crate::trace::OpTrace;
use spnn_core::{iteration_rng, BatchScratch, KernelProfile, PhotonicNetwork, RealizeScratch};
use spnn_dataset::{DatasetConfig, SpnnDataset};
use spnn_engine::cache::TrainedContext;
use spnn_engine::queue::{compile, WorkItem};
use spnn_engine::{run_point, ContextCache, ScenarioSpec, StopRule, TestBatch};
use std::path::Path;
use std::sync::Arc;

/// Rounds of the Monte-Carlo probe; each times [`KERNEL_ITERS`] iterations
/// of the kernels per profile, then one sweep point through the runner,
/// so the per-iteration cost and the point it predicts are measured at
/// the same moments.
const PROBE_ROUNDS: usize = 8;
/// Iterations per kernel profile in one probe round.
const KERNEL_ITERS: usize = 15;
/// The point the kernel and runner probes use: mid-grid, both error
/// sources perturbed; a spec without it (a dashboard body) uses its last
/// point, the unique σ.
const PROBE_LABELS: [(&str, &str); 2] = [("mode", "both"), ("sigma", "0.05")];

/// The shuffle seed `prepare` derives for singular-value shuffling.
pub fn shuffle_seed(spec: &ScenarioSpec) -> Option<u64> {
    spec.train
        .shuffle_singular_values
        .then_some(spec.seed ^ 0x33)
}

/// Trains `spec` into the empty cache directory `dir`, synthesizes every
/// topology's mapping and persists it — what a first `spnn run` leaves
/// behind. Training is timed as the `cache.train` span.
///
/// # Errors
///
/// Returns a message when mapping or persisting fails.
pub fn cold_train(dir: &Path, spec: &ScenarioSpec, trace: &mut OpTrace) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cache = ContextCache::on_disk(dir);
    let ctx = trace.time("cache.train", None, || cache.get_or_train(spec, false));
    if cache.stats().trains != 1 {
        return Err(format!("{} was not an empty cache", dir.display()));
    }
    for &topology in &spec.topologies {
        ctx.mapping(topology, shuffle_seed(spec))
            .map_err(|e| format!("mapping: {e}"))?;
    }
    cache.persist(&ctx).map_err(|e| format!("persist: {e}"))
}

/// What one `prepare` replay leaves behind for the kernel probes.
pub struct Prepared {
    hardware: Arc<PhotonicNetwork>,
    batch: TestBatch,
    item: WorkItem,
}

/// Replays `prepare` for `spec` once, call by call, each call a span in
/// `trace` under a `prepare.replay` root: context load (`load` is the
/// workload's own way to get the context — a fresh on-disk cache, or a
/// warm process-lifetime one), test-set generation, software accuracy,
/// test-batch construction, then per topology the mapping, the nominal
/// accuracy and the queue compilation.
///
/// # Errors
///
/// Returns a message when mapping fails or the queue is empty.
pub fn replay_prepare(
    trace: &mut OpTrace,
    spec: &ScenarioSpec,
    kernel: KernelProfile,
    load: &(dyn Fn() -> Arc<TrainedContext> + Sync),
) -> Result<Prepared, String> {
    let root = trace.open("prepare.replay", None);
    let ctx = trace.time("cache.load", Some(root), load);
    let data = trace.time("dataset.generate", Some(root), || {
        SpnnDataset::generate(&DatasetConfig {
            n_train: 0,
            n_test: spec.dataset.n_test,
            crop: spec.dataset.crop,
            seed: spec.seed,
        })
    });
    let software = trace.time("neural.software_accuracy", Some(root), || {
        ctx.software()
            .accuracy(&data.test_features, &data.test_labels)
    });
    assert!(
        (0.0..=1.0).contains(&software),
        "software accuracy {software}"
    );
    let batch = trace.time("core.testbatch_new", Some(root), || {
        TestBatch::new(&data.test_features, &data.test_labels)
    });
    let mut items = Vec::new();
    for &topology in &spec.topologies {
        let hardware = trace
            .time("cache.mapping", Some(root), || {
                ctx.mapping(topology, shuffle_seed(spec))
            })
            .map_err(|e| format!("mapping: {e}"))?;
        trace.time("core.nominal_accuracy", Some(root), || {
            batch.accuracy_with_profile(
                &hardware,
                &hardware.ideal_matrices(),
                kernel,
                &mut BatchScratch::default(),
            )
        });
        let queue = trace.time("queue.compile", Some(root), || compile(spec, &hardware));
        items.extend(queue.into_iter().map(|item| (Arc::clone(&hardware), item)));
    }
    trace.close(root);
    let at = items
        .iter()
        .position(|(_, item)| {
            PROBE_LABELS
                .iter()
                .all(|(k, v)| item.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .unwrap_or(items.len().saturating_sub(1));
    if items.is_empty() {
        return Err("the spec compiles to an empty queue".into());
    }
    let (hardware, item) = items.swap_remove(at);
    Ok(Prepared {
        hardware,
        batch,
        item,
    })
}

/// The Monte-Carlo probe on the probe point, [`PROBE_ROUNDS`] rounds of:
/// realize and the batched forward per iteration, one realize-then-forward
/// pass per kernel profile (spans `core.realize`, `core.forward.reference`,
/// `core.forward.fma`), then the whole point through [`run_point`] with the
/// workload's thread count and kernel profile (span `runner.point`).
pub fn probe_mc(
    trace: &mut OpTrace,
    p: &Prepared,
    spec: &ScenarioSpec,
    threads: usize,
    kernel: KernelProfile,
) {
    let stop = StopRule::fixed(spec.iterations);
    let mut realize = RealizeScratch::default();
    let mut matrices = Vec::new();
    let mut scratch = BatchScratch::default();
    for round in 0..PROBE_ROUNDS {
        for (profile, name) in [
            (KernelProfile::Reference, "core.forward.reference"),
            (KernelProfile::Fma, "core.forward.fma"),
        ] {
            for k in round * KERNEL_ITERS..(round + 1) * KERNEL_ITERS {
                let mut rng = iteration_rng(p.item.seed, k);
                trace.time("core.realize", None, || {
                    p.hardware.realize_into(
                        &p.item.plan,
                        &p.item.effects,
                        &mut rng,
                        &mut realize,
                        &mut matrices,
                    );
                });
                let acc = trace.time(name, None, || {
                    p.batch
                        .accuracy_with_profile(&p.hardware, &matrices, profile, &mut scratch)
                });
                assert!((0.0..=1.0).contains(&acc), "accuracy {acc}");
            }
        }
        let r = trace.time("runner.point", None, || {
            run_point(
                &p.hardware,
                &p.item.plan,
                &p.item.effects,
                &p.batch,
                &stop,
                spec.round_size,
                p.item.seed,
                Some(threads),
                kernel,
            )
        });
        assert_eq!(r.samples.len(), spec.iterations, "probe point iterations");
    }
}
