//! Times `gemm` at the products the workloads run: the ten the GEMM tests
//! pin at the benchmark shapes, the decoder's and the fine-tune layer's
//! weight gradients, the 10-class softmax heads' forward and
//! weight-gradient products, the CNN's two convolution products on their
//! patch matrix formed by `im2col` in the NHWC layout, and read from the
//! images (`gemm_op`) in the channel-major layout the CNN runs (`W ·
//! patchesᵀ`, and the filter gradient with δ untransposed, beside the NHWC
//! `δᵀ · patches`), at eight and six channels, sequential and threaded;
//! then the AE's two
//! weight gradients as the fused product `gemm_sgd`, beside `gemm` followed
//! by `sgd_step` on the same operands. It is the sweep behind the tables in
//! `gemm.rs`'s docs.
//!
//! ```text
//! cargo run --release -p micdnn-kernels --example gemm_shapes [ROUNDS]
//! ```
//!
//! Each round times every shape once at [`Par::Seq`] and once at
//! [`Par::Rayon`] (as many calls as fill about 20 ms, after one warm-up
//! call), so slow drift in the machine's speed spreads over all shapes
//! alike; the table gives the median of the rounds (default 5). The thread
//! count is rayon's, `RAYON_NUM_THREADS` or the CPU count. The fused
//! products run through [`Backend`]: sequential at
//! [`Backend::sequential_blas`], threaded at [`Backend::improved`].

use micdnn_kernels::conv::Patches;
use micdnn_kernels::{gemm_op, Backend, Operand, Par};
use micdnn_tensor::Mat;
use std::time::Instant;

/// How a product's B is held: stored, transposed or not, or as the patches
/// of `cnn_ckpt`'s batch (50 images of 28x28, `k = 5`), which are `28800 x
/// 25`, transposed or not.
#[derive(Clone, Copy)]
enum Form {
    Stored(bool),
    Patches(bool),
}
use Form::Stored as S;
const P: Form = Form::Patches(false);
const PT: Form = Form::Patches(true);

/// `(name, m, n, k, ta, B)`: `C (m x n) = op(A) (m x k) * B (k x n)`, A
/// stored, transposed when `ta` is set.
const SHAPES: [(&str, usize, usize, usize, bool, Form); 25] = [
    ("ae_wide forward", 200, 4096, 1024, false, S(true)),
    ("ae_wide backward-data", 200, 1024, 4096, false, S(false)),
    ("ae_wide backward-weight", 4096, 1024, 200, true, S(false)),
    (
        "ae_wide backward-weight, decoder",
        1024,
        4096,
        200,
        true,
        S(false),
    ),
    ("RBM forward", 20, 64, 144, false, S(true)),
    ("RBM statistics", 64, 144, 20, true, S(false)),
    ("RBM prop-down", 20, 144, 64, false, S(false)),
    ("CNN im2col", 28800, 8, 25, false, S(true)),
    ("CNN forward, channel-major", 8, 28800, 25, false, PT),
    ("CNN filter gradient", 8, 25, 28800, true, S(false)),
    ("CNN filter gradient, patches", 8, 25, 28800, true, P),
    ("CNN filter gradient, channel-major", 8, 25, 28800, false, P),
    ("serving batch", 64, 256, 784, false, S(true)),
    ("fine-tune", 100, 256, 784, false, S(true)),
    ("fine-tune weight gradient", 256, 784, 100, true, S(false)),
    ("softmax head", 100, 10, 64, false, S(true)),
    ("softmax head", 64, 10, 64, false, S(true)),
    ("softmax head", 50, 10, 64, false, S(true)),
    ("softmax head weight gradient", 10, 64, 100, true, S(false)),
    ("softmax head weight gradient", 10, 64, 50, true, S(false)),
    ("CNN im2col, 6 channels", 28800, 6, 25, false, S(true)),
    (
        "CNN forward, channel-major, 6 channels",
        6,
        28800,
        25,
        false,
        PT,
    ),
    (
        "CNN filter gradient, 6 channels",
        6,
        25,
        28800,
        true,
        S(false),
    ),
    (
        "CNN filter gradient, patches, 6 channels",
        6,
        25,
        28800,
        true,
        P,
    ),
    (
        "CNN filter gradient, channel-major, 6 channels",
        6,
        25,
        28800,
        false,
        P,
    ),
];

/// The patch shapes' images: 50 of 28x28, filtered at `k = 5`.
const IMAGES: (usize, usize, usize) = (50, 28, 5);

/// `(name, m, n, k)`: the AE's weight gradients `W (m x n) -= lr/k * Aᵀ B`,
/// `A` stored `k x m` and `B` `k x n`, at `ae_wide`'s batch of 200.
const FUSED: [(&str, usize, usize, usize); 2] = [
    ("ae_wide encoder weights", 4096, 1024, 200),
    ("ae_wide decoder weights", 1024, 4096, 200),
];

/// A stored matrix whose `op()` is `rows x cols`, filled with small values.
fn operand(rows: usize, cols: usize, t: bool, salt: usize) -> Mat {
    let (r, c) = if t { (cols, rows) } else { (rows, cols) };
    Mat::from_fn(r, c, |i, j| {
        ((i * 131 + j * 71 + salt) % 97) as f32 / 97.0 - 0.5
    })
}

/// Seconds per call of `call`.
fn time_call(mut call: impl FnMut()) -> f64 {
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

/// The B operand `x` holds in `form`; patches are of `images`.
fn op<'a>(x: &'a Mat, form: Form, images: &'a Mat) -> Operand<'a> {
    let (b, side, k) = IMAGES;
    match form {
        S(t) => Operand::Mat(x.view(), t),
        Form::Patches(t) => Operand::Patches(Patches::new(images.as_slice(), b, side, k), t),
    }
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
    let (b, side, _) = IMAGES;
    let images = operand(b, side * side, false, 4);
    let stored = |rows, cols, form, salt| match form {
        S(t) => operand(rows, cols, t, salt),
        Form::Patches(_) => Mat::zeros(0, 0),
    };
    let mut operands: Vec<(Mat, Mat, Mat)> = SHAPES
        .iter()
        .map(|&(_, m, n, k, ta, fb)| (operand(m, k, ta, 1), stored(k, n, fb, 2), Mat::zeros(m, n)))
        .collect();
    let mut secs = vec![[Vec::new(), Vec::new()]; SHAPES.len()];
    for _ in 0..rounds {
        for (((_, _, _, _, ta, fb), (a, b, c)), s) in
            SHAPES.iter().zip(&mut operands).zip(&mut secs)
        {
            let (a, b) = (a.view(), op(b, *fb, &images));
            for (par, out) in [Par::Seq, Par::Rayon].into_iter().zip(s.iter_mut()) {
                let c = &mut c.view_mut();
                out.push(time_call(|| gemm_op(par, 1.0, a, *ta, b, 0.0, c)));
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
    fused(rounds);
}

/// The second table: per fused AE product and backend, µs per call of
/// `gemm_sgd` and of `gemm` into a gradient followed by `sgd_step`.
fn fused(rounds: usize) {
    let backends = [Backend::sequential_blas(), Backend::improved()];
    let mut secs = vec![[[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]]; FUSED.len()];
    let mut operands: Vec<(Mat, Mat, Mat, Mat)> = FUSED
        .iter()
        .map(|&(_, m, n, k)| {
            let w = operand(m, n, false, 3);
            (
                operand(k, m, false, 1),
                operand(k, n, false, 2),
                w,
                Mat::zeros(m, n),
            )
        })
        .collect();
    for _ in 0..rounds {
        for ((&(_, _, _, k), (a, b, w, g)), s) in FUSED.iter().zip(&mut operands).zip(&mut secs) {
            let (alpha, lr, lambda) = (1.0 / k as f32, 1e-4, 1e-4);
            for (be, [fused, apart]) in backends.iter().zip(s.iter_mut()) {
                fused.push(time_call(|| {
                    be.gemm_sgd(
                        alpha,
                        a.view(),
                        true,
                        b.view(),
                        false,
                        lr,
                        lambda,
                        &mut w.view_mut(),
                    );
                }));
                apart.push(time_call(|| {
                    be.gemm(
                        alpha,
                        a.view(),
                        true,
                        b.view(),
                        false,
                        0.0,
                        &mut g.view_mut(),
                    );
                    be.sgd_step(lr, lambda, g.as_slice(), w.as_mut_slice());
                }));
            }
        }
    }
    println!();
    println!("gemm_sgd beside gemm + sgd_step, µs per call, median of {rounds} rounds");
    println!(
        "| product | seq, gemm + sgd_step | seq, gemm_sgd | par, gemm + sgd_step | par, gemm_sgd |"
    );
    println!("|---|---|---|---|---|");
    for ((name, m, n, k), [[seq_f, seq_a], [par_f, par_a]]) in FUSED.iter().zip(&mut secs) {
        println!(
            "| {name} `{m}x{n}x{k}` | {:.0} | {:.0} | {:.0} | {:.0} |",
            median(seq_a) * 1e6,
            median(seq_f) * 1e6,
            median(par_a) * 1e6,
            median(par_f) * 1e6
        );
    }
}
