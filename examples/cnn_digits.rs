//! A conv+pool CNN on the digits stream — the first non-paper workload
//! built entirely through the layer IR (`micdnn::layers`): im2col-over-GEMM
//! `Conv2d` -> `MaxPool2d` -> `Dense` -> softmax, composed by the same
//! `StackBuilder` that now emits the AE / CD-k / fine-tune step graphs.
//!
//! ```text
//! cargo run --release --example cnn_digits
//! ```
//!
//! Trains twice — once on the serial declaration-order path, once through
//! `TaskGraph::execute` — and checks the two land on bit-identical
//! parameters, then reports train accuracy against the stream labels.

use micdnn::{build_cnn_graph, CnnConfig, CnnNet, ExecCtx, OptLevel};
use micdnn_data::{Dataset, DigitGenerator};

fn main() {
    let side = 14;
    let n_train = 600;

    // The digits generator renders digit i % 10 on row i, so labels are a
    // pure function of row order — the same scheme the CLI's cnn stream
    // training and its checkpoint cursor rely on.
    println!("generating {n_train} digits ({side}x{side})...");
    let mut gen = DigitGenerator::new(side, 3);
    let mut data = Dataset::new(gen.matrix(n_train));
    data.normalize();
    let labels: Vec<usize> = (0..n_train).map(|i| i % 10).collect();

    // conv 5x5 x6 channels -> 2x2 max-pool -> 48 dense -> 10-way softmax.
    let cfg = CnnConfig::digits(side);
    println!(
        "network: {}x{} input, {} conv channels (k={}), pool {}, {} hidden, {} classes ({} params)",
        side,
        side,
        cfg.channels,
        cfg.kernel,
        cfg.pool,
        cfg.hidden,
        cfg.n_classes,
        cfg.param_count()
    );

    // The recipe's graph is statically verified before anything runs.
    let batch = 50;
    let report = build_cnn_graph(cfg, batch).verify();
    assert!(report.is_clean(), "{report}");
    println!("task graph verifies clean: {report}");

    let ctx = ExecCtx::native(OptLevel::Improved, 5);
    let epochs = 30;

    println!("\ntraining {epochs} epochs on the serial declaration-order path...");
    let t0 = std::time::Instant::now();
    let mut serial = CnnNet::new(cfg, 11);
    let hist = serial.fit(&ctx, data.matrix().view(), &labels, batch, 0.4, epochs);
    println!("serial path took {:.2?}", t0.elapsed());

    println!("training the same net through the graph schedule...");
    let t1 = std::time::Instant::now();
    let mut graphed = CnnNet::new(cfg, 11).with_graph_schedule();
    let hist_w = graphed.fit(&ctx, data.matrix().view(), &labels, batch, 0.4, epochs);
    println!("graph path took {:.2?}", t1.elapsed());

    // Scheduling is never a numerics decision: both paths must agree bitwise.
    assert_eq!(hist, hist_w, "loss trajectories diverged");
    assert_eq!(serial.conv_w.as_slice(), graphed.conv_w.as_slice());
    assert_eq!(serial.dense_w.as_slice(), graphed.dense_w.as_slice());
    assert_eq!(serial.softmax.w.as_slice(), graphed.softmax.w.as_slice());
    println!("serial and graph-scheduled parameters are bit-identical");

    let acc = serial.accuracy(&ctx, data.matrix().view(), &labels);
    println!(
        "\ncross-entropy {:.4} -> {:.4}, train accuracy {:.1}% (chance {:.1}%)",
        hist[0],
        hist.last().unwrap(),
        100.0 * acc,
        100.0 / cfg.n_classes as f64
    );
}
