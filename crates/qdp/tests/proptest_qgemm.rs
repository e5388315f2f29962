//! Property-based tests pinning the blocked quantized GEMM to its
//! naive reference oracle — bit-identical across shapes (degenerate
//! dims, leftover rows and sizes straddling each dispatch threshold
//! included) and across multiplier models, exactly as the float
//! kernels are pinned.

use proptest::prelude::*;
use redcane_axmul::mult::{DrumMultiplier, MitchellLogMultiplier};
use redcane_qdp::kernels::{self, qgemm_nn};
use redcane_qdp::MulLut;

/// Dimensions straddling the row group (`MR = 4`: most small values
/// leave leftover rows), the exact register tile (`NR = 8`), the
/// exact tall-`k` threshold and the packed-width threshold `PACK_N`
/// (both sides), degenerate 1s included.
fn dim() -> impl Strategy<Value = usize> {
    (0usize..64).prop_map(|v| match v {
        0 => 1,
        1 => 33,
        2 => 300,
        3 => kernels::PACK_N - 1,
        4 => kernels::PACK_N,
        other => 2 + (other % 16),
    })
}

/// The exact table and two approximate models whose product tables are
/// wildly nonlinear.
fn luts() -> [MulLut; 3] {
    [
        MulLut::exact(),
        MulLut::tabulate(&MitchellLogMultiplier::new()),
        MulLut::tabulate(&DrumMultiplier::new(3)),
    ]
}

/// Deterministic code fill (SplitMix-style; no float RNG needed).
fn codes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(0xd1b5);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

proptest! {
    /// The blocked kernel must equal the triple loop bit for bit, for
    /// the exact multiplier and for approximate models whose product
    /// table is wildly nonlinear.
    #[test]
    fn blocked_qgemm_matches_reference(m in dim(), k in dim(), n in dim(), seed in 0u64..500) {
        let a = codes(seed, m * k);
        let b = codes(seed ^ 0xabcd, k * n);
        for lut in &luts() {
            let mut fast = vec![0u32; m * n];
            let mut naive = vec![0u32; m * n];
            qgemm_nn(&a, &b, &mut fast, m, k, n, lut);
            kernels::reference::qgemm_nn(&a, &b, &mut naive, m, k, n, lut);
            prop_assert_eq!(&fast, &naive, "{}x{}x{} [{}]", m, k, n, lut.description());
        }
    }

    /// Accumulation into pre-filled output behaves identically in both
    /// kernels, on every path (no path may clobber prior contents).
    #[test]
    fn blocked_qgemm_accumulates_like_reference(m in dim(), k in dim(), n in dim(), seed in 0u64..200) {
        let a = codes(seed, m * k);
        let b = codes(seed ^ 0x77, k * n);
        let prior: Vec<u32> = codes(seed ^ 0x1234, m * n).into_iter().map(u32::from).collect();
        for lut in &luts() {
            let mut fast = prior.clone();
            let mut naive = prior.clone();
            qgemm_nn(&a, &b, &mut fast, m, k, n, lut);
            kernels::reference::qgemm_nn(&a, &b, &mut naive, m, k, n, lut);
            prop_assert_eq!(&fast, &naive, "{}x{}x{} [{}]", m, k, n, lut.description());
        }
    }
}
