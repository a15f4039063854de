//! Chaos suite: seeded failpoint schedules over supervised AE and RBM
//! runs (requires `--features failpoints`).
//!
//! The property under test is the supervisor's contract: a run under an
//! injected fault schedule either **completes bit-identically** to the
//! fault-free run at the same seed (when the faults are transient), or
//! fails with a **typed** [`TrainError`] — never a panic and never a
//! hang. Every run is wrapped in a wall-clock watchdog, so a hang fails
//! the test instead of wedging CI.
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`REGISTRY_LOCK`] and disarms on entry and exit.

use micdnn::train::{train_dataset, TrainConfig, TrainError};
use micdnn::{
    faults, train_dataset_supervised, AeConfig, AeModel, CnnConfig, CnnModel, CnnNet,
    DataParallelAe, ExecCtx, FineTuneModel, FineTuneNet, IncidentLog, LabeledModel, LabeledNet,
    MultiDevConfig, OptLevel, Rbm, RbmConfig, RbmModel, RunSupervisor, SparseAutoencoder,
    StackedAutoencoder, Stage, SupervisorPolicy,
};
use micdnn_data::Dataset;
use micdnn_tensor::Mat;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Serializes tests that arm the process-global failpoint registry.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` on a helper thread and panics if it does not finish in time —
/// a hung run must fail the suite, not wedge it.
fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(_) => panic!("watchdog: {name} did not finish within 60s"),
    }
}

fn toy_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::new(Mat::from_fn(n, dim, |_, _| rng.gen_range(0.1..0.9)))
}

/// A config whose supervisor preserves bit-identity across rollbacks
/// (`lr_backoff` 1.0 — replayed batches recompute exactly).
fn chaos_cfg() -> TrainConfig {
    TrainConfig {
        batch_size: 20,
        chunk_rows: 40,
        supervisor: Some(SupervisorPolicy {
            lr_backoff: 1.0,
            snapshot_every: 5,
            ..SupervisorPolicy::default()
        }),
        ..TrainConfig::default()
    }
}

fn ae_model() -> AeModel {
    AeModel::new(SparseAutoencoder::new(AeConfig::new(12, 6), 17))
}

fn rbm_model() -> RbmModel {
    RbmModel::new(Rbm::new(RbmConfig::new(12, 8), 23)).with_momentum(0.5)
}

/// Supervised AE run at seed 11; returns final weights and the log.
fn run_ae() -> (Vec<f32>, IncidentLog) {
    let ds = toy_dataset(120, 12, 11);
    let mut model = ae_model();
    let ctx = ExecCtx::native(OptLevel::Improved, 11);
    let (_, log) = train_dataset_supervised(&mut model, &ctx, &ds, &chaos_cfg(), 3).unwrap();
    (model.ae.w1.as_slice().to_vec(), log)
}

/// Supervised RBM run at seed 13; returns final weights and the log.
fn run_rbm() -> (Vec<f32>, IncidentLog) {
    let mut ds = toy_dataset(120, 12, 13);
    ds.binarize(0.5);
    let mut model = rbm_model();
    let ctx = ExecCtx::native(OptLevel::Improved, 13);
    let (_, log) = train_dataset_supervised(&mut model, &ctx, &ds, &chaos_cfg(), 3).unwrap();
    (model.rbm.w.as_slice().to_vec(), log)
}

/// Supervised CNN run at seed 19, wave-scheduled through the layer-IR
/// graph; returns final conv filters and the log. The stream labels are a
/// pure function of the checkpointed cursor, so a supervisor rollback
/// replays them exactly.
fn run_cnn() -> (Vec<f32>, IncidentLog) {
    let cfg = CnnConfig::new(8, 3, 3, 2, 10, 4);
    let ds = toy_dataset(120, cfg.input_dim(), 19);
    let mut model = CnnModel::new(CnnNet::new(cfg, 19), ds.len() as u64).with_graph_schedule();
    let ctx = ExecCtx::native(OptLevel::Improved, 19);
    let (_, log) = train_dataset_supervised(&mut model, &ctx, &ds, &chaos_cfg(), 3).unwrap();
    (model.net.conv_w.as_slice().to_vec(), log)
}

/// The acceptance schedule: the loader dies twice and one batch arrives
/// NaN-poisoned, yet the run completes bit-identical to the fault-free
/// run at the same seed, with the recovery enumerated in the log.
#[test]
fn loader_deaths_plus_nan_batch_recover_bit_identically() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean_ae, clean_log) = with_watchdog("ae baseline", run_ae);
    assert!(clean_log.incidents.is_empty(), "{:?}", clean_log.incidents);

    faults::configure("loader.panic", "2").unwrap();
    faults::configure("kernel.nan", "1@1").unwrap();
    let (faulted_ae, log) = with_watchdog("ae faulted", run_ae);
    faults::clear_all();

    assert_eq!(clean_ae, faulted_ae, "recovered run diverged from baseline");
    assert!(
        log.count("loader-retry") >= 2,
        "expected >=2 loader retries: {:?}",
        log.incidents
    );
    assert_eq!(log.count("rollback"), 1, "{:?}", log.incidents);
    assert_eq!(log.count("lr-backoff"), 1, "{:?}", log.incidents);
}

/// The same contract holds for the RBM path, whose CD steps consume the
/// sampling stream (rollback must restore the RNG cursor too).
#[test]
fn rbm_recovers_bit_identically_from_transient_faults() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean, clean_log) = with_watchdog("rbm baseline", run_rbm);
    assert!(clean_log.incidents.is_empty());

    faults::configure("loader.read", "1").unwrap();
    faults::configure("kernel.nan", "1@2").unwrap();
    let (faulted, log) = with_watchdog("rbm faulted", run_rbm);
    faults::clear_all();

    assert_eq!(clean, faulted, "recovered RBM diverged from baseline");
    assert!(log.count("loader-retry") >= 1, "{:?}", log.incidents);
    assert_eq!(log.count("rollback"), 1, "{:?}", log.incidents);
}

/// The same contract for the CNN: the wave-scheduled layer-IR graph runs
/// under the supervisor like any paper model — loader deaths and a NaN
/// batch roll back to a snapshot (weights, cursor and RNG together) and
/// the run lands bit-identical to the fault-free baseline.
#[test]
fn cnn_recovers_bit_identically_from_transient_faults() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean, clean_log) = with_watchdog("cnn baseline", run_cnn);
    assert!(clean_log.incidents.is_empty(), "{:?}", clean_log.incidents);

    faults::configure("loader.panic", "2").unwrap();
    faults::configure("kernel.nan", "1@1").unwrap();
    let (faulted, log) = with_watchdog("cnn faulted", run_cnn);
    faults::clear_all();

    assert_eq!(clean, faulted, "recovered CNN diverged from baseline");
    assert!(log.count("loader-retry") >= 2, "{:?}", log.incidents);
    assert_eq!(log.count("rollback"), 1, "{:?}", log.incidents);
}

/// Corrupted chunks are caught by the loader's checksum check and
/// re-requested; the training loop never sees the bad payload.
#[test]
fn crc_corruption_is_transparent_to_training() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean, _) = with_watchdog("crc baseline", run_ae);

    faults::configure("loader.crc", "1").unwrap();
    let (faulted, log) = with_watchdog("crc faulted", run_ae);
    faults::clear_all();

    assert_eq!(clean, faulted);
    assert!(log.count("loader-retry") >= 1, "{:?}", log.incidents);
    assert_eq!(log.count("rollback"), 0, "{:?}", log.incidents);
}

/// A failed periodic checkpoint write restarts the leg from the snapshot
/// instead of killing the run.
#[test]
fn checkpoint_write_failure_restarts_and_completes() {
    use micdnn::CheckpointPolicy;
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let dir = micdnn::TestDir::new("chaos-ckpt");
    let ds = toy_dataset(120, 12, 11);
    let cfg = TrainConfig {
        checkpoint: Some(CheckpointPolicy::new(dir.path(), 7)),
        ..chaos_cfg()
    };

    faults::configure("ckpt.write", "1").unwrap();
    let (weights, log) = with_watchdog("ckpt faulted", move || {
        let mut model = ae_model();
        let ctx = ExecCtx::native(OptLevel::Improved, 11);
        let (_, log) = train_dataset_supervised(&mut model, &ctx, &ds, &cfg, 3).unwrap();
        (model.ae.w1.as_slice().to_vec(), log)
    });
    faults::clear_all();

    assert_eq!(log.count("restart"), 1, "{:?}", log.incidents);
    let (clean, _) = with_watchdog("ckpt baseline", run_ae);
    assert_eq!(clean, weights, "restarted run diverged from baseline");
}

/// An unrecoverable schedule (the source faults forever) surfaces a typed
/// error within the watchdog deadline — no panic, no hang.
#[test]
fn unrecoverable_schedule_fails_typed_within_deadline() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    faults::configure("loader.read", "1000000").unwrap();
    let err = with_watchdog("unrecoverable", || {
        let ds = toy_dataset(120, 12, 11);
        let cfg = TrainConfig {
            supervisor: Some(SupervisorPolicy {
                max_restarts: 2,
                ..SupervisorPolicy::default()
            }),
            ..chaos_cfg()
        };
        let mut model = ae_model();
        let ctx = ExecCtx::native(OptLevel::Improved, 11);
        train_dataset_supervised(&mut model, &ctx, &ds, &cfg, 3).unwrap_err()
    });
    faults::clear_all();
    match err {
        TrainError::Unrecoverable { attempts, last } => {
            assert_eq!(attempts, 3);
            assert!(
                last.contains("loader.read") || last.contains("stream"),
                "{last}"
            );
        }
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
}

/// Without supervision, an injected stream failure still surfaces as a
/// typed error (the plain training loop never panics either).
#[test]
fn unsupervised_run_surfaces_typed_stream_errors() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    faults::configure("loader.read", "1000000").unwrap();
    let err = with_watchdog("unsupervised", || {
        let ds = toy_dataset(120, 12, 11);
        let mut model = ae_model();
        let ctx = ExecCtx::native(OptLevel::Improved, 11);
        train_dataset(&mut model, &ctx, &ds, &chaos_cfg(), 1).unwrap_err()
    });
    faults::clear_all();
    assert!(matches!(err, TrainError::Stream(_)), "{err:?}");
}

/// Supervised multi-device AE run at seed 11 (same data as `run_ae`);
/// returns final weights, the incident log and the surviving device count.
fn run_multidev_ae(devices: usize) -> (Vec<f32>, IncidentLog, usize) {
    let ds = toy_dataset(120, 12, 11);
    let ae = SparseAutoencoder::new(AeConfig::new(12, 6), 17);
    let mut model = DataParallelAe::new(ae, MultiDevConfig::new(devices));
    let ctx = ExecCtx::native(OptLevel::Improved, 11);
    let (_, log) = train_dataset_supervised(&mut model, &ctx, &ds, &chaos_cfg(), 3).unwrap();
    let online = model.device_set().online_count();
    (model.ae().w1.as_slice().to_vec(), log, online)
}

/// A device runs out of memory mid-leg: the victim drops offline, its
/// canonical blocks re-land on the survivors, and the run completes
/// bit-identical to both the fault-free four-device run and the
/// single-device run — with exactly one pinned `device-oom` incident.
#[test]
fn multidev_device_drop_mid_leg_recovers_bit_identically() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean, clean_log, online) = with_watchdog("mdp baseline", || run_multidev_ae(4));
    assert!(clean_log.incidents.is_empty(), "{:?}", clean_log.incidents);
    assert_eq!(online, 4);
    let (single, _, _) = with_watchdog("mdp single", || run_multidev_ae(1));
    assert_eq!(clean, single, "device-count invariance broken fault-free");

    // 18 supervised batches; the OOM lands on the 8th — mid-leg.
    faults::configure("device.oom", "1@7").unwrap();
    let (faulted, log, online) = with_watchdog("mdp oom", || run_multidev_ae(4));
    faults::clear_all();

    assert_eq!(clean, faulted, "post-drop run diverged from baseline");
    assert_eq!(online, 3, "the victim must stay offline");
    assert_eq!(log.count("device-oom"), 1, "{:?}", log.incidents);
    assert_eq!(log.count("rollback"), 0, "{:?}", log.incidents);
    let inc = log
        .incidents
        .iter()
        .find(|i| i.kind == "device-oom")
        .expect("device-oom incident");
    assert!(inc.detail.contains("device 3"), "{}", inc.detail);
    assert!(inc.detail.contains("3 survivor(s)"), "{}", inc.detail);
}

/// Dropped gradient-sync transfers are retried: extra modeled sync time,
/// a pinned `link-retry` incident per drop, and untouched numerics.
#[test]
fn multidev_link_drops_retry_without_touching_numerics() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean, _, _) = with_watchdog("link baseline", || run_multidev_ae(2));

    faults::configure("link.drop", "2@5").unwrap();
    let (faulted, log, online) = with_watchdog("link faulted", || run_multidev_ae(2));
    faults::clear_all();

    assert_eq!(clean, faulted, "link retries must not touch numerics");
    assert_eq!(online, 2);
    assert_eq!(log.count("link-retry"), 2, "{:?}", log.incidents);
    assert_eq!(log.count("rollback"), 0, "{:?}", log.incidents);
}

/// A combined schedule — one device drop plus one NaN-poisoned chunk —
/// engages the supervisor's ladder (rollback + lr-backoff) on top of the
/// transparent re-shard, still landing bit-identical to the baseline.
#[test]
fn multidev_device_drop_plus_nan_engages_the_ladder_bit_identically() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean, _, _) = with_watchdog("ladder baseline", || run_multidev_ae(4));

    faults::configure("device.oom", "1@3").unwrap();
    faults::configure("kernel.nan", "1@2").unwrap();
    let (faulted, log, _) = with_watchdog("ladder faulted", || run_multidev_ae(4));
    faults::clear_all();

    assert_eq!(clean, faulted, "ladder recovery diverged from baseline");
    assert_eq!(log.count("device-oom"), 1, "{:?}", log.incidents);
    assert_eq!(log.count("rollback"), 1, "{:?}", log.incidents);
    assert_eq!(log.count("lr-backoff"), 1, "{:?}", log.incidents);
}

// ---------------------------------------------------------------------
// Full-pipeline chaos: one RunSupervisor across stacked pre-training and
// fine-tuning, at N ∈ {1, 4} modeled devices. (Names share the
// `pipeline` prefix so CI can run this group alone.)
// ---------------------------------------------------------------------

use micdnn::train::UnsupervisedModel;

/// The whole supervised pipeline at `devices` cards: every pre-training
/// layer and the fine-tune pass are legs of one [`RunSupervisor`], so the
/// ladder budget and incident log span the run. Returns a flat
/// fingerprint of every trained parameter plus the log.
fn run_pipeline(devices: usize, cfg: &TrainConfig) -> (Vec<f32>, IncidentLog) {
    let ds = toy_dataset(120, 16, 29);
    let mut stack = StackedAutoencoder::with_default_config(&[16, 10, 8], 31);
    let ctx = ExecCtx::native(OptLevel::Improved, 29);
    let mut sup = RunSupervisor::new(cfg.supervisor.clone().expect("chaos cfg")).unwrap();
    let mdcfg = MultiDevConfig::new(devices);
    sup.pretrain_multidev(&mut stack, &mdcfg, &ctx, &ds, cfg, 2)
        .unwrap();
    let net = FineTuneNet::from_stack(&stack, 4, 37);
    let mut ft = FineTuneModel::new(net, ds.len() as u64);
    sup.run_leg(&mut ft, &ctx, &ds, cfg, 2, Stage::FineTune, 0, 0)
        .unwrap();
    let mut params = Vec::new();
    for layer in stack.layers() {
        params.extend_from_slice(layer.w1.as_slice());
    }
    for (w, b) in ft.net.layer_params() {
        params.extend_from_slice(w.as_slice());
        params.extend_from_slice(b);
    }
    (params, sup.into_log())
}

/// A NaN-poisoned chunk lands in leg 2 of pre-training (the second
/// stacked layer): the ladder rolls that leg back and the pipeline
/// completes bit-identical to the fault-free run — at one device and at
/// four.
#[test]
fn pipeline_fault_into_pretrain_leg2_recovers_at_any_device_count() {
    let _g = REGISTRY_LOCK.lock();
    for devices in [1usize, 4] {
        faults::clear_all();
        let (clean, clean_log) = with_watchdog("pipeline baseline", move || {
            run_pipeline(devices, &chaos_cfg())
        });
        assert!(clean_log.incidents.is_empty(), "{:?}", clean_log.incidents);

        // 6 chunks per leg (3 per epoch × 2 passes); hit 8 = leg 2.
        faults::configure("kernel.nan", "1@8").unwrap();
        let (faulted, log) = with_watchdog("pipeline faulted", move || {
            run_pipeline(devices, &chaos_cfg())
        });
        faults::clear_all();

        assert_eq!(
            clean, faulted,
            "N={devices}: pipeline diverged from baseline"
        );
        assert_eq!(log.count("rollback"), 1, "N={devices}: {:?}", log.incidents);
        let rb = log.incidents.iter().find(|i| i.kind == "rollback").unwrap();
        assert_eq!(rb.stage, "pretrain", "{rb:?}");
    }
}

/// A fine-tune divergence rolls back the fine-tune leg only: the rollback
/// incident is stamped `finetune`, no pre-training incident exists, and
/// the final parameters still match the fault-free pipeline bitwise.
#[test]
fn pipeline_finetune_nan_rolls_back_without_rerunning_pretrain() {
    let _g = REGISTRY_LOCK.lock();
    for devices in [1usize, 4] {
        faults::clear_all();
        let (clean, _) = with_watchdog("ft baseline", move || run_pipeline(devices, &chaos_cfg()));

        faults::configure("finetune.nan", "1@7").unwrap();
        let (faulted, log) =
            with_watchdog("ft faulted", move || run_pipeline(devices, &chaos_cfg()));
        faults::clear_all();

        assert_eq!(clean, faulted, "N={devices}: fine-tune recovery diverged");
        assert_eq!(log.count("rollback"), 1, "N={devices}: {:?}", log.incidents);
        assert!(
            log.incidents
                .iter()
                .all(|i| i.kind != "rollback" || i.stage == "finetune"),
            "rollback outside fine-tune: {:?}",
            log.incidents
        );
        assert!(
            log.incidents.iter().all(|i| i.stage != "pretrain"),
            "pre-training was disturbed: {:?}",
            log.incidents
        );
    }
}

/// A device dies mid-leg while a NaN chunk is also in flight: the
/// re-shard happens inside the leg, the ladder rolls back on top of it,
/// and the four-device pipeline still lands bit-identical to its
/// fault-free self.
#[test]
fn pipeline_device_drop_composes_with_ladder_rollback() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean, _) = with_watchdog("oom baseline", || run_pipeline(4, &chaos_cfg()));

    faults::configure("device.oom", "1@14").unwrap();
    faults::configure("kernel.nan", "1@9").unwrap();
    let (faulted, log) = with_watchdog("oom faulted", || run_pipeline(4, &chaos_cfg()));
    faults::clear_all();

    assert_eq!(clean, faulted, "re-shard + rollback diverged from baseline");
    assert_eq!(log.count("device-oom"), 1, "{:?}", log.incidents);
    assert_eq!(log.count("rollback"), 1, "{:?}", log.incidents);
}

/// The current snapshot is unreadable exactly when a rollback needs it
/// (`ckpt.read`): the supervisor falls back to the previous snapshot with
/// a typed incident instead of panicking, and replay from the older
/// snapshot still lands bit-identical.
#[test]
fn pipeline_corrupt_snapshot_read_falls_back_to_previous() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean, _) = with_watchdog("fallback baseline", || run_pipeline(1, &chaos_cfg()));

    // Divergence at fine-tune batch 7 (snapshots at 0 and 5); the read
    // of snapshot 5 fails, so recovery replays from snapshot 0.
    faults::configure("finetune.nan", "1@7").unwrap();
    faults::configure("ckpt.read", "1").unwrap();
    let (faulted, log) = with_watchdog("fallback faulted", || run_pipeline(1, &chaos_cfg()));
    faults::clear_all();

    assert_eq!(clean, faulted, "snapshot fallback diverged from baseline");
    assert_eq!(log.count("snapshot-fallback"), 1, "{:?}", log.incidents);
    assert_eq!(log.count("rollback"), 1, "{:?}", log.incidents);
    let fb = log
        .incidents
        .iter()
        .find(|i| i.kind == "snapshot-fallback")
        .unwrap();
    assert!(fb.detail.contains("fell back to batch 0"), "{fb:?}");
}

/// A stalled loader blows the per-chunk deadline: the stream fails typed,
/// the ladder restarts the leg from the snapshot, and the run matches a
/// fault-free run under the same deadline bitwise.
#[test]
fn pipeline_loader_stall_restarts_leg_via_chunk_deadline() {
    let _g = REGISTRY_LOCK.lock();
    let deadline_cfg = || TrainConfig {
        chunk_deadline: Some(Duration::from_millis(60)),
        ..chaos_cfg()
    };
    faults::clear_all();
    let (clean, clean_log) =
        with_watchdog("stall baseline", move || run_pipeline(1, &deadline_cfg()));
    assert!(clean_log.incidents.is_empty(), "{:?}", clean_log.incidents);

    faults::configure("loader.stall", "1@2").unwrap();
    let (faulted, log) = with_watchdog("stall faulted", move || run_pipeline(1, &deadline_cfg()));
    faults::clear_all();

    assert_eq!(clean, faulted, "deadline restart diverged from baseline");
    assert!(log.count("restart") >= 1, "{:?}", log.incidents);
}

/// `cnn.nan` poisons one CNN batch at the model level (before the cursor
/// or parameters advance): the ladder rolls back and the CNN training
/// run completes bit-identical to the fault-free baseline.
#[test]
fn pipeline_cnn_nan_rolls_back_bit_identically() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean, clean_log) = with_watchdog("cnn.nan baseline", run_cnn);
    assert!(clean_log.incidents.is_empty(), "{:?}", clean_log.incidents);

    faults::configure("cnn.nan", "1@4").unwrap();
    let (faulted, log) = with_watchdog("cnn.nan faulted", run_cnn);
    faults::clear_all();

    assert_eq!(clean, faulted, "cnn.nan recovery diverged from baseline");
    assert_eq!(log.count("rollback"), 1, "{:?}", log.incidents);
}

/// The wrapper's NaN failpoint fires *before* the label cursor or any
/// parameter moves: the poisoned step leaves the checkpointed state
/// byte-identical, and the replayed step lands exactly where a run that
/// never saw the fault does.
fn nan_failpoint_fires_before_state_moves<N: LabeledNet + Clone>(net: N) {
    let state = |m: &LabeledModel<N>| {
        let mut bytes = Vec::new();
        m.save_state(&mut bytes).unwrap();
        bytes
    };
    let ds = toy_dataset(20, net.in_dim(), 41);
    let ctx = ExecCtx::native(OptLevel::Improved, 43);
    let mut model = LabeledModel::new(net, 20);
    model.prepare(8);
    model.train_batch(&ctx, ds.batch(0, 8), 0.2);
    let mut twin = model.clone();
    let before = state(&model);

    faults::configure(N::NAN_FAILPOINT, "1").unwrap();
    assert!(model.train_batch(&ctx, ds.batch(8, 16), 0.2).is_nan());
    assert_eq!(
        model.cursor_parts(),
        (8, 20),
        "cursor moved under the fault"
    );
    assert_eq!(state(&model), before, "state moved under the fault");

    let replayed = model.train_batch(&ctx, ds.batch(8, 16), 0.2);
    faults::clear_all();
    let clean = twin.train_batch(&ctx, ds.batch(8, 16), 0.2);
    assert_eq!(replayed.to_bits(), clean.to_bits());
    assert_eq!(model.cursor_parts(), (16, 20));
    assert_eq!(state(&model), state(&twin), "replay diverged");
}

#[test]
fn pipeline_labeled_nan_failpoints_fire_before_cursor_or_parameters_move() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    nan_failpoint_fires_before_state_moves(FineTuneNet::random(&[16, 8], 4, 45));
    nan_failpoint_fires_before_state_moves(CnnNet::new(CnnConfig::digits(8), 47));
}

/// Random seeded schedules: every run either completes bit-identical to
/// the fault-free baseline or fails with a typed error — across AE and
/// RBM, with mixed fault sites.
#[test]
fn random_seeded_schedules_complete_or_fail_typed() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let (clean_ae, _) = with_watchdog("sweep ae baseline", run_ae);
    let (clean_rbm, _) = with_watchdog("sweep rbm baseline", run_rbm);

    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        faults::clear_all();
        // 1–3 armed sites with small counts at random offsets.
        for _ in 0..rng.gen_range(1..=3) {
            let site =
                ["loader.read", "loader.panic", "loader.crc", "kernel.nan"][rng.gen_range(0..4)];
            let spec = format!("{}@{}", rng.gen_range(1..=2), rng.gen_range(0..6));
            faults::configure(site, &spec).unwrap();
        }
        let use_rbm = seed % 2 == 1;
        let name = format!("sweep seed {seed}");
        let outcome = with_watchdog(&name, move || {
            if use_rbm {
                std::panic::catch_unwind(run_rbm)
            } else {
                std::panic::catch_unwind(run_ae)
            }
        });
        match outcome {
            Ok((weights, _log)) => {
                let clean = if use_rbm { &clean_rbm } else { &clean_ae };
                assert_eq!(
                    clean, &weights,
                    "seed {seed}: recovered run diverged from baseline"
                );
            }
            Err(payload) => panic!("seed {seed}: run panicked: {payload:?}"),
        }
    }
    faults::clear_all();
}
