//! Chaos suite for the serving path (requires `--features failpoints`).
//!
//! The contract under test is the serve loop's degradation bound: a
//! `kernel.nan` excursion inside one micro-batch fails **exactly the one
//! request** whose lane was poisoned — with a typed
//! [`ServeError::Poisoned`] — while the server stays up, every other
//! request in the same batch returns bit-identical probabilities, and
//! batches before and after the poisoned one are untouched.
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`REGISTRY_LOCK`] and disarms on entry and exit, mirroring the
//! training chaos suite.

use micdnn::{
    faults, serve_requests, ExecCtx, FineTuneNet, OptLevel, Request, ServeConfig, ServeError,
};
use micdnn_tensor::MatView;
use parking_lot::Mutex;
use std::time::Duration;

/// Serializes tests that arm the process-global failpoint registry.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` on a helper thread and panics if it does not finish in time.
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

const IN_DIM: usize = 20;

fn net() -> FineTuneNet {
    FineTuneNet::random(&[IN_DIM, 12, 8], 4, 7)
}

fn burst_requests(n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| Request {
            arrival_secs: 0.0,
            input: (0..IN_DIM)
                .map(|j| ((i * 31 + j * 7) % 17) as f32 / 17.0)
                .collect(),
        })
        .collect()
}

/// One poisoned batch degrades one request, not the process.
#[test]
fn kernel_nan_fails_exactly_one_request_and_server_stays_up() {
    let _guard = REGISTRY_LOCK.lock();
    faults::clear_all();
    let outcome = with_watchdog("serve under kernel.nan", || {
        let n = net();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let requests = burst_requests(16);
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait_secs: 0.0,
            queue_cap: 64,
        };
        // Arm: fire once, on the second batch (batches are the only
        // kernel.nan site in this process, so occurrence 1 = batch #2).
        faults::configure("kernel.nan", "1@1").unwrap();
        let run = serve_requests(&n, &ctx, &cfg, &requests).unwrap();
        faults::clear_all();
        // Baseline for bit-identity of the survivors.
        let clean = serve_requests(&n, &ctx, &cfg, &requests).unwrap();
        (run, clean)
    });
    faults::clear_all();
    let (run, clean) = outcome;

    assert_eq!(run.report.failed, 1, "exactly one request must fail");
    assert_eq!(run.report.completed, 15);
    assert_eq!(run.report.rejected, 0);
    assert_eq!(run.report.batches, 4);

    // The poisoned lane is the first row of the second batch (requests
    // are drained in arrival order, 4 per batch).
    let failed: Vec<usize> = run
        .outcomes
        .iter()
        .filter(|o| o.result.is_err())
        .map(|o| o.index)
        .collect();
    assert_eq!(failed, vec![4], "poison lands on batch 2's first lane");
    match &run.outcomes[4].result {
        Err(ServeError::Poisoned { detail }) => {
            assert!(
                detail.contains("non-finite"),
                "typed poison cause: {detail}"
            )
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }

    // Every surviving request — including the poisoned batch's other
    // three lanes — is bit-identical to the fault-free run.
    for (o, c) in run.outcomes.iter().zip(clean.outcomes.iter()) {
        if o.index == 4 {
            assert!(c.result.is_ok(), "baseline run is fault-free");
            continue;
        }
        assert_eq!(
            o.result.as_ref().unwrap().as_slice(),
            c.result.as_ref().unwrap().as_slice(),
            "request {} drifted under a fault in another lane",
            o.index
        );
    }
}

/// Repeated injections across a long run: the server answers everything
/// that wasn't poisoned and never panics or hangs.
#[test]
fn server_survives_a_fault_storm() {
    let _guard = REGISTRY_LOCK.lock();
    faults::clear_all();
    let run = with_watchdog("serve under fault storm", || {
        let n = net();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let requests = burst_requests(32);
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait_secs: 0.0,
            queue_cap: 64,
        };
        // The first four of the run's 8 batches are poisoned.
        faults::configure("kernel.nan", "4@0").unwrap();
        let run = serve_requests(&n, &ctx, &cfg, &requests).unwrap();
        faults::clear_all();
        run
    });
    faults::clear_all();

    assert_eq!(run.report.batches, 8);
    assert_eq!(run.report.failed, 4, "one failure per poisoned batch");
    assert_eq!(run.report.completed, 28);
    assert_eq!(
        run.report.completed + run.report.rejected + run.report.failed,
        32
    );
    // Survivors still match the serial baseline bitwise.
    let n = net();
    let ctx = ExecCtx::native(OptLevel::Improved, 0);
    for o in run.outcomes.iter().filter(|o| o.result.is_ok()) {
        let input: Vec<f32> = burst_requests(32)[o.index].input.clone();
        let serial = n.predict_proba(&ctx, MatView::new(&input, 1, IN_DIM));
        assert_eq!(o.result.as_ref().unwrap().as_slice(), serial.as_slice());
    }
}
