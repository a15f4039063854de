//! Times `gemm` at the products the workloads run: the ten the GEMM tests
//! pin at the benchmark shapes, the decoder's and the fine-tune layer's
//! weight gradients, the 10-class softmax heads' forward and
//! weight-gradient products, and the filter gradient at six channels,
//! sequential and threaded. It is the sweep behind the tables in `gemm.rs`'s
//! docs.
//!
//! ```text
//! cargo run --release -p micdnn-kernels --example gemm_shapes [ROUNDS]
//! ```
//!
//! Each round times every shape once at [`Par::Seq`] and once at
//! [`Par::Rayon`] (as many calls as fill about 20 ms, after one warm-up
//! call), so slow drift in the machine's speed spreads over all shapes
//! alike; the table gives the median of the rounds (default 5). The thread
//! count is rayon's, `RAYON_NUM_THREADS` or the CPU count.

use micdnn_kernels::{gemm, Par};
use micdnn_tensor::Mat;
use std::time::Instant;

/// `(name, m, n, k, ta, tb)`: `C (m x n) = op(A) (m x k) * op(B) (k x n)`.
const SHAPES: [(&str, usize, usize, usize, bool, bool); 18] = [
    ("ae_wide forward", 200, 4096, 1024, false, true),
    ("ae_wide backward-data", 200, 1024, 4096, false, false),
    ("ae_wide backward-weight", 4096, 1024, 200, true, false),
    (
        "ae_wide backward-weight, decoder",
        1024,
        4096,
        200,
        true,
        false,
    ),
    ("RBM forward", 20, 64, 144, false, true),
    ("RBM statistics", 64, 144, 20, true, false),
    ("RBM prop-down", 20, 144, 64, false, false),
    ("CNN im2col", 28800, 8, 25, false, true),
    ("CNN filter gradient", 8, 25, 28800, true, false),
    ("serving batch", 64, 256, 784, false, true),
    ("fine-tune", 100, 256, 784, false, true),
    ("fine-tune weight gradient", 256, 784, 100, true, false),
    ("softmax head", 100, 10, 64, false, true),
    ("softmax head", 64, 10, 64, false, true),
    ("softmax head", 50, 10, 64, false, true),
    ("softmax head weight gradient", 10, 64, 100, true, false),
    ("softmax head weight gradient", 10, 64, 50, true, false),
    ("CNN filter gradient, 6 channels", 6, 25, 28800, true, false),
];

/// A stored matrix whose `op()` is `rows x cols`, filled with small values.
fn operand(rows: usize, cols: usize, t: bool, salt: usize) -> Mat {
    let (r, c) = if t { (cols, rows) } else { (rows, cols) };
    Mat::from_fn(r, c, |i, j| {
        ((i * 131 + j * 71 + salt) % 97) as f32 / 97.0 - 0.5
    })
}

/// Seconds per call of `C = op(A) * op(B)` at `par`.
fn time_call(par: Par, (a, ta): (&Mat, bool), (b, tb): (&Mat, bool), c: &mut Mat) -> f64 {
    let mut call = || gemm(par, 1.0, a.view(), ta, b.view(), tb, 0.0, &mut c.view_mut());
    call();
    let t = Instant::now();
    call();
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let reps = ((0.02 / once) as usize).clamp(1, 100_000);
    let t = Instant::now();
    for _ in 0..reps {
        call();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let rounds: usize = match std::env::args().nth(1).map(|s| s.parse()) {
        None => 5,
        Some(Ok(r)) if r > 0 => r,
        Some(_) => {
            eprintln!("usage: gemm_shapes [ROUNDS]");
            std::process::exit(2);
        }
    };
    let mut operands: Vec<(Mat, Mat, Mat)> = SHAPES
        .iter()
        .map(|&(_, m, n, k, ta, tb)| (operand(m, k, ta, 1), operand(k, n, tb, 2), Mat::zeros(m, n)))
        .collect();
    let mut secs = vec![[Vec::new(), Vec::new()]; SHAPES.len()];
    for _ in 0..rounds {
        for (((_, _, _, _, ta, tb), (a, b, c)), s) in
            SHAPES.iter().zip(&mut operands).zip(&mut secs)
        {
            for (par, out) in [Par::Seq, Par::Rayon].into_iter().zip(s.iter_mut()) {
                out.push(time_call(par, (a, *ta), (b, *tb), c));
            }
        }
    }
    println!(
        "gemm at {} threads, median of {rounds} rounds",
        rayon::current_num_threads()
    );
    println!("| product | seq µs | seq GFLOP/s | par µs | par GFLOP/s |");
    println!("|---|---|---|---|---|");
    for ((name, m, n, k, _, _), [seq, par]) in SHAPES.iter().zip(&mut secs) {
        let flop = 2.0 * (m * n * k) as f64;
        let (seq, par) = (median(seq), median(par));
        println!(
            "| {name} `{m}x{n}x{k}` | {:.1} | {:.1} | {:.1} | {:.1} |",
            seq * 1e6,
            flop / seq * 1e-9,
            par * 1e6,
            flop / par * 1e-9
        );
    }
}
