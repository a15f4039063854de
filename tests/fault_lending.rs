//! The loading thread lends each chunk as rows of the caller's dataset, so
//! a failpoint that changes a chunk must write into a copy of that chunk's
//! rows, never through the shared storage (requires `--features
//! failpoints`). Were it to poison the dataset itself, the supervisor's
//! replay of the rolled-back batches would read the poison again.
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`REGISTRY_LOCK`] and disarms on entry and exit.

use micdnn::train::TrainConfig;
use micdnn::{
    faults, train_dataset_supervised, AeConfig, AeModel, ExecCtx, IncidentLog, OptLevel,
    SparseAutoencoder, SupervisorPolicy,
};
use micdnn_data::Dataset;
use micdnn_sim::Chunk;
use micdnn_tensor::Mat;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serializes tests that arm the process-global failpoint registry.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// A supervised AE run over `ds` at seed 11 (three passes, rollbacks
/// replay exactly); returns the final weights and the incident log.
fn run(ds: &Dataset) -> (Vec<u32>, IncidentLog) {
    let cfg = TrainConfig {
        batch_size: 20,
        chunk_rows: 40,
        supervisor: Some(SupervisorPolicy {
            lr_backoff: 1.0,
            snapshot_every: 5,
            ..SupervisorPolicy::default()
        }),
        ..TrainConfig::default()
    };
    let mut model = AeModel::new(SparseAutoencoder::new(AeConfig::new(12, 6), 17));
    let ctx = ExecCtx::native(OptLevel::Improved, 11);
    let (_, log) = train_dataset_supervised(&mut model, &ctx, ds, &cfg, 3).unwrap();
    let bits = model.ae.w1.as_slice().iter().map(|w| w.to_bits()).collect();
    (bits, log)
}

#[test]
fn injected_faults_leave_the_lent_dataset_untouched() {
    let _g = REGISTRY_LOCK.lock();
    faults::clear_all();
    let mut rng = StdRng::seed_from_u64(11);
    let ds = Dataset::new(Mat::from_fn(120, 12, |_, _| rng.gen_range(0.1..0.9)));
    let pristine = Chunk::checksum(ds.matrix().view());
    let (clean, clean_log) = run(&ds);
    assert!(clean_log.incidents.is_empty(), "{:?}", clean_log.incidents);
    assert_eq!(Chunk::checksum(ds.matrix().view()), pristine);

    // A NaN batch rolls back and replays; a bit-flipped chunk is rejected
    // by its checksum and re-requested.
    for (site, spec, incident) in [
        ("kernel.nan", "1@1", "rollback"),
        ("loader.crc", "1@2", "loader-retry"),
    ] {
        faults::configure(site, spec).unwrap();
        let (faulted, log) = run(&ds);
        faults::clear_all();
        assert_eq!(
            Chunk::checksum(ds.matrix().view()),
            pristine,
            "{site} wrote into the caller's dataset"
        );
        assert!(log.count(incident) >= 1, "{site}: {:?}", log.incidents);
        assert_eq!(
            faulted, clean,
            "{site}: the recovered run left the fault-free bits"
        );
    }
}
