//! The instruction sets a kernel is compiled for, shared by the GEMM and
//! the elementwise kernels.
//!
//! A kernel's body is safe `#[inline(always)]` code, compiled three times:
//! as is (the build's baseline target, SSE2 on `x86_64`); inside a
//! `#[target_feature(enable = "avx2,fma")]` function; and inside a
//! `#[target_feature(enable = "avx512f,avx2,fma")]` one. [`Isa::detect`]
//! picks the widest the CPU runs (`is_x86_feature_detected!`, which caches
//! its answer), and LLVM vectorises the same loops to the width of the
//! instantiation. AVX-512 means AVX-512F only, without DQ or BW, because
//! the Xeon Phi x200 has neither: where a body needs a 64-bit multiply, the
//! instantiation emulates it. One kernel is not left to the vectoriser: safe
//! code did not vectorise the GEMM's transposing pack, so its AVX-512 body
//! is written with gather intrinsics (the `gemm` module's **Packing**),
//! pinned like the rest to the portable body; the AVX2 instantiation keeps
//! the portable scalar pack.
//!
//! Every instantiation gives the same bits as the portable one. The bodies
//! use no operation whose result the instruction set could change: Rust
//! never contracts `a * b + c` into a fused multiply-add, and where a body
//! wants one (the GEMM microkernel) it says `f32::mul_add`, which IEEE 754
//! fixes exactly. The tests pin every instantiation the CPU runs against
//! the portable one, bit for bit.

/// `(MR, NR)` of the portable and AVX2 GEMM instantiations: a row of the
/// tile is two 8-lane `ymm` vectors.
pub(crate) const TILE_YMM: (usize, usize) = (6, 16);
/// `(MR, NR)` of the AVX-512 GEMM instantiation: a row of the tile is two
/// 16-lane `zmm` vectors.
pub(crate) const TILE_ZMM: (usize, usize) = (12, 32);
/// `(MR, NR)` of the AVX-512 GEMM instantiation for products at most 16
/// columns wide: a row of the tile is one `zmm` vector.
pub(crate) const TILE_ZMM_NARROW: (usize, usize) = (6, 16);

/// Which instantiation of a kernel runs. A value other than `Portable`
/// reaches a kernel only where [`Isa::runs_here`] holds: [`Isa::detect`]
/// checks it, and so do the tests before they pick an instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The kernel as compiled for the build's baseline target.
    Portable,
    /// The kernel compiled with AVX2 and FMA enabled.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// The kernel compiled with AVX-512F, AVX2 and FMA enabled.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The fastest instantiation this CPU can run.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        for isa in [Isa::Avx512, Isa::Avx2Fma] {
            if isa.runs_here() {
                return isa;
            }
        }
        Isa::Portable
    }

    /// Whether the running CPU has every feature the instantiation is
    /// compiled with.
    pub(crate) fn runs_here(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => has!("avx2") && has!("fma"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => has!("avx512f") && has!("avx2") && has!("fma"),
        }
    }

    /// `(MR, NR)`, the register tile the GEMM instantiation runs a product
    /// with `n` columns at.
    pub(crate) fn tile(self, n: usize) -> (usize, usize) {
        match self {
            Isa::Portable => TILE_YMM,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => TILE_YMM,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if n <= TILE_ZMM_NARROW.1 => TILE_ZMM_NARROW,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => TILE_ZMM,
        }
    }
}

/// Defines `fn $name(isa: Isa, args...)`, which runs the `#[inline(always)]`
/// function `$body(args...)` as compiled for `isa`. Const generic
/// parameters, if any (`fn $name<const R: usize>(...)`), are passed on to
/// `$body`.
///
/// The `#[target_feature]` boundary is the whole call: a kernel hands each
/// chunk of its loop (one task's share under [`crate::Par::Rayon`]) to one
/// call, so the feature check and the call cost once per chunk, not per
/// element.
macro_rules! per_isa {
    (
        $(#[$attr:meta])*
        fn $name:ident $(<$(const $g:ident: $gty:ty),+>)? ($($arg:ident: $ty:ty),* $(,)?) = $body:ident;
    ) => {
        $(#[$attr])*
        fn $name $(<$(const $g: $gty),+>)? (isa: $crate::isa::Isa, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            fn avx2fma $(<$(const $g: $gty),+>)? ($($arg: $ty),*) {
                $body $(::<$($g),+>)? ($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f,avx2,fma")]
            fn avx512 $(<$(const $g: $gty),+>)? ($($arg: $ty),*) {
                $body $(::<$($g),+>)? ($($arg),*)
            }
            debug_assert!(isa.runs_here());
            match isa {
                $crate::isa::Isa::Portable => $body $(::<$($g),+>)? ($($arg),*),
                // SAFETY: an `Isa` other than `Portable` reaches a kernel
                // only where `runs_here` holds (`detect` checks it, and so
                // do the tests before they pick an instantiation), and
                // `runs_here` checks exactly the features the callee is
                // compiled with. The callee is otherwise safe code.
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx2Fma => unsafe { avx2fma $(::<$($g),+>)? ($($arg),*) },
                // SAFETY: as for `Isa::Avx2Fma`.
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx512 => unsafe { avx512 $(::<$($g),+>)? ($($arg),*) },
            }
        }
    };
}
pub(crate) use per_isa;

#[cfg(test)]
pub(crate) mod tests {
    use super::Isa;

    /// Every instantiation this CPU runs; prints, under the test's name,
    /// which ran and which were skipped.
    pub(crate) fn instantiations(test: &str) -> Vec<Isa> {
        let mut all = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        all.extend([Isa::Avx2Fma, Isa::Avx512]);
        let (ran, skipped): (Vec<_>, Vec<_>) = all.into_iter().partition(|isa| isa.runs_here());
        println!("{test}: ran {ran:?}, skipped (not on this CPU) {skipped:?}");
        ran
    }

    #[test]
    fn detect_picks_an_instantiation_that_runs_here() {
        assert!(Isa::detect().runs_here());
        assert!(Isa::Portable.runs_here());
    }
}
