//! Compare a training workload across every modeled platform and
//! optimization rung — the paper's whole evaluation in one table.
//!
//! ```text
//! cargo run --release --example platform_compare [visible hidden examples batch]
//! ```
//!
//! Defaults to the paper's 1024x4096 network, 100k examples, batch 1000.

use micdnn::{estimate, Algo, OptLevel, Workload};
use micdnn_sim::{Link, Platform};

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let get = |i: usize, default: usize| args.get(i).copied().unwrap_or(default);
    let w = Workload {
        algo: Algo::Autoencoder,
        n_visible: get(0, 1024),
        n_hidden: get(1, 4096),
        examples: get(2, 100_000),
        batch: get(3, 1000),
        chunk_rows: 10_000,
        passes: 1,
    };
    println!(
        "Sparse Autoencoder {}x{}, {} examples, batch {}\n",
        w.n_visible, w.n_hidden, w.examples, w.batch
    );

    println!("-- platforms (fully-optimized code) --");
    let platforms = [
        (Platform::xeon_phi(), OptLevel::Improved),
        (Platform::xeon_phi_cores(30), OptLevel::Improved),
        (Platform::cpu_socket(), OptLevel::Improved),
        (Platform::cpu_single_core(), OptLevel::Improved),
        (Platform::matlab_host(), OptLevel::SequentialBlas),
    ];
    let mut fastest = f64::INFINITY;
    let mut results = Vec::new();
    for (platform, level) in platforms {
        let e = estimate(level, platform.clone(), Link::pcie_gen2(), true, &w);
        fastest = fastest.min(e.total_secs);
        results.push((platform.label.clone(), e.total_secs));
    }
    for (label, secs) in &results {
        println!("{label:<26}{secs:>12.1} s   ({:.1}x)", secs / fastest);
    }

    println!("\n-- optimization ladder on the Xeon Phi --");
    for level in OptLevel::ladder() {
        let e = estimate(level, Platform::xeon_phi(), Link::pcie_gen2(), true, &w);
        println!("{:<26}{:>12.1} s", level.label(), e.total_secs);
    }

    println!("\n-- transfer accounting on the Phi (paper-measured host pipeline) --");
    for (label, db) in [("double-buffered", true), ("blocking transfers", false)] {
        let e = estimate(
            OptLevel::Improved,
            Platform::xeon_phi(),
            Link::paper_measured(),
            db,
            &w,
        );
        println!(
            "{label:<26}{:>12.1} s   (stalled {:.1} s of {:.1} s transfer)",
            e.total_secs, e.stall_secs, e.transfer_secs
        );
    }
}
