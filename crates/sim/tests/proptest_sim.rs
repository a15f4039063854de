//! Property tests on the performance model and offload machinery.

use micdnn_kernels::OpCost;
use micdnn_sim::{
    ChunkStream, CostModel, DeviceMemory, Link, Platform, SimClock, Trace, VecSource,
};
use micdnn_tensor::Mat;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Prices scale (weakly) monotonically with work for the same op kind.
    #[test]
    fn more_flops_cost_more(
        m in 1usize..500, n in 1usize..500, k in 1usize..500,
        grow in 2usize..4,
        parallel in any::<bool>(),
    ) {
        let model = CostModel::new(Platform::xeon_phi());
        let small = OpCost::gemm(m, n, k, true);
        let big = OpCost::gemm(m * grow, n, k, true);
        prop_assert!(model.price(&big, parallel) >= model.price(&small, parallel));
    }

    /// Vectorizable ops are never slower than their scalar twins.
    #[test]
    fn vectorization_never_hurts(n in 1usize..1_000_000, parallel in any::<bool>()) {
        let model = CostModel::new(Platform::xeon_phi());
        let vec_op = OpCost::sigmoid(n);
        let scal_op = vec_op.scalar();
        prop_assert!(model.price(&vec_op, parallel) <= model.price(&scal_op, parallel) + 1e-15);
    }

    /// Transfer time is additive-ish and monotone in bytes.
    #[test]
    fn link_monotone(a in 0u64..100_000_000, b in 0u64..100_000_000) {
        let link = Link::pcie_gen2();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(link.transfer_time(hi) >= link.transfer_time(lo));
        // Latency paid once per transfer: splitting costs more.
        let whole = link.transfer_time(a + b);
        let split = link.transfer_time(a) + link.transfer_time(b);
        prop_assert!(whole <= split + 1e-12);
    }

    /// Memory accounting: any sequence of allocations within capacity
    /// succeeds and frees restore availability exactly.
    #[test]
    fn memory_accounting_balances(sizes in proptest::collection::vec(0u64..1000, 0..20)) {
        let total: u64 = sizes.iter().sum();
        let mem = DeviceMemory::new(total);
        let allocs: Vec<_> = sizes
            .iter()
            .map(|&s| mem.alloc(s, "x").expect("fits by construction"))
            .collect();
        prop_assert_eq!(mem.used(), total);
        prop_assert_eq!(mem.available(), 0);
        prop_assert!(mem.alloc(1, "over").is_err() || total == 0);
        drop(allocs);
        prop_assert_eq!(mem.used(), 0);
        prop_assert_eq!(mem.peak(), total);
    }

    /// The chunk stream delivers every chunk exactly once, in order, for
    /// any buffering configuration.
    #[test]
    fn stream_conservation(
        n_chunks in 0usize..12,
        buffers in 1usize..4,
        double_buffered in any::<bool>(),
        compute_scale in 0.0f64..3.0,
    ) {
        let clock = SimClock::new();
        let chunks: Vec<Mat> = (0..n_chunks).map(|i| Mat::full(4, 3, i as f32)).collect();
        let link = Link { latency_s: 1e-6, wire_gbs: 1e-3, host_pipeline_gbs: 1e-3 };
        let mut stream = ChunkStream::spawn(
            VecSource::new(chunks),
            link,
            clock.clone(),
            Trace::new(false),
            buffers,
            double_buffered,
        ).unwrap();
        let mut i = 0;
        while let Some(c) = stream.next().unwrap() {
            prop_assert_eq!(c.view().get(0, 0), i as f32, "chunk order broken");
            clock.advance(compute_scale * link.transfer_time(48));
            i += 1;
        }
        prop_assert_eq!(i, n_chunks);
        let st = stream.stats();
        prop_assert_eq!(st.chunks, n_chunks as u64);
        // Stalls can never exceed transfers.
        prop_assert!(st.stall_secs <= st.transfer_secs + 1e-12);
        if !double_buffered && n_chunks > 0 {
            prop_assert!((st.stall_secs - st.transfer_secs).abs() < 1e-12);
        }
    }

    /// Across random chunk geometries, link speeds, and buffer depths the
    /// stream completes with exact byte/chunk accounting and a
    /// `hidden_fraction` that stays a fraction.
    #[test]
    fn stream_accounting_over_random_links(
        n_chunks in 0usize..10,
        rows in 1usize..16,
        cols in 1usize..16,
        wire_gbs in 1e-6f64..10.0,
        latency_s in 0.0f64..1e-2,
        buffers in 1usize..5,
        double_buffered in any::<bool>(),
        compute_secs in 0.0f64..0.5,
    ) {
        let clock = SimClock::new();
        let chunks: Vec<Mat> = (0..n_chunks).map(|i| Mat::full(rows, cols, i as f32)).collect();
        let link = Link { latency_s, wire_gbs, host_pipeline_gbs: wire_gbs };
        let mut stream = ChunkStream::spawn(
            VecSource::new(chunks),
            link,
            clock.clone(),
            Trace::new(false),
            buffers,
            double_buffered,
        ).unwrap();
        let mut seen = 0usize;
        while let Some(c) = stream.next().unwrap() {
            prop_assert_eq!((c.rows(), c.cols()), (rows, cols), "chunk shape changed in flight");
            prop_assert_eq!(c.view().get(0, 0), seen as f32, "chunks delivered out of order");
            clock.advance(compute_secs);
            seen += 1;
        }
        // Exhausted streams stay exhausted.
        prop_assert!(stream.next().unwrap().is_none());
        prop_assert_eq!(seen, n_chunks, "stream dropped or duplicated chunks");

        let st = stream.stats();
        prop_assert_eq!(st.chunks, n_chunks as u64);
        let payload = (rows * cols * std::mem::size_of::<f32>()) as u64;
        prop_assert_eq!(st.bytes, payload * n_chunks as u64);
        // Every chunk pays the link at least once; stalls are bounded by
        // the transfers they wait on.
        let min_transfer = n_chunks as f64 * link.transfer_time(payload);
        prop_assert!(st.transfer_secs >= min_transfer - 1e-9);
        prop_assert!(st.stall_secs >= 0.0);
        prop_assert!(st.stall_secs <= st.transfer_secs + 1e-9);
        let hf = st.hidden_fraction();
        prop_assert!((0.0..=1.0).contains(&hf), "hidden_fraction {hf} out of [0,1]");
        // A stream that never transferred hides nothing.
        if n_chunks == 0 {
            prop_assert_eq!(hf, 0.0);
        }
    }

    /// The clock's picosecond representation is exact under addition.
    #[test]
    fn clock_integer_exact(ps in proptest::collection::vec(1u64..1_000_000, 1..100)) {
        let clock = SimClock::new();
        for &p in &ps {
            clock.advance(p as f64 * 1e-12);
        }
        let total: u64 = ps.iter().sum();
        prop_assert_eq!(clock.now_ps(), total as u128);
    }
}
