//! Blocked integer GEMM kernels over a pluggable 8-bit multiply.
//!
//! [`qgemm_nn`] dispatches four ways:
//!
//! - **Exact table** ([`MulLut::is_exact`]): no lookups at all. Each
//!   product is a `u8 × u8 → u16` multiply widened into the `u32` sum,
//!   which vectorizes even on baseline SSE2. It splits on `TALL_K`
//!   into a register-tile path for deep reductions (`MR×NR` `u32`
//!   accumulators held across the whole `k` loop) and a row-streaming
//!   path for short ones, and runs full tiles at constant width.
//! - **Approximate table, wide output** (`n ≥ PACK_N`): per group of
//!   `MR = 4` rows of `A` and per `k` step, two `[u64; 256]` tables
//!   each **pack two rows' products** into one word
//!   (`row_r[v] | row_{r+1}[v] << 32`). One lookup and one add then
//!   update two outputs in a `u64` lane-pair accumulator; the
//!   accumulators unpack into `C` once per row group.
//! - **Approximate table, narrow output**: the four rows are **fused**
//!   into one pass over each `B` row, so one code load serves four
//!   lookups.
//!
//! Both LUT paths fetch the left operand's 256-entry row once per
//! `(row, k step)` — `m·k` fetches per call — and walk two `k` steps per
//! pass over the outputs, halving the accumulator traffic. Every path
//! sums the same products into each output, and integer sums do not
//! depend on order, so the dispatch never changes an output bit.
//!
//! Exactness is read from the table's 65 536 entries when the table is
//! built, not from a component name or model type. The library's exact
//! component, `MulLut::exact()` and a fault view that leaves the table
//! unchanged therefore all take the multiply path, while a table that
//! differs from the product in a single entry — say one stuck output
//! bit that only shows on some operands — can never be mistaken for
//! exact.
//!
//! The accumulator is `u32`. A table entry is a `u16`, and approximate
//! tables or faulted views (a stuck-at-1 product bit, say) can reach
//! `u16::MAX`, so `k` products sum to at most `k · u16::MAX`: that fits
//! for every `k ≤ MAX_ACC_K` (65 537) — far beyond any layer in the
//! workspace; debug builds assert the bound. The same bound makes the
//! packed lanes safe: each 32-bit lane of a `u64` accumulator adds at
//! most `k` entries of at most `u16::MAX` (two per pass, from the two
//! tables of consecutive `k` steps), so its running sum never exceeds
//! `u32::MAX` and no lane carries into its neighbour.
//!
//! The naive triple loop survives as [`reference`](mod@reference),
//! the correctness oracle every path is property-tested against
//! (bit-identical output — trivially order-independent for integer
//! adds, but the test keeps the kernels honest across the `PACK_N` and
//! `TALL_K` splits, the leftover rows and the exact dispatch).
//!
//! [`affine_dequant`] folds an integer accumulator matrix back to
//! float: with `value(q) = min + lsb·q` on both operands,
//!
//! ```text
//! Σₖ a·b = lₐ·l_b·Σ qₐq_b + lₐ·min_b·Σ qₐ + l_b·minₐ·Σ q_b + k·minₐ·min_b
//! ```
//!
//! so only the code-product sum `Σ qₐq_b` runs through the (possibly
//! approximate) multiplier — the row/column code sums are plain integer
//! additions, exactly as in an accelerator's zero-point correction.

use redcane_fxp::QuantParams;

use redcane_axmul::MulLut;
use redcane_trace as trace;

/// Output rows per group: every path walks `A` four rows at a time,
/// matching the float GEMM.
pub const MR: usize = 4;
/// Columns per exact-table register tile: `MR × NR` u32 accumulators
/// live in registers across the whole `k` reduction.
pub const NR: usize = 8;
/// Exact-table reductions at least this deep take the register-tile
/// path: beyond it the row-streaming kernel's per-`k`-step reload of
/// the `C` rows costs more than the tile's narrower `B` segments.
const TALL_K: usize = 192;
/// Approximate-table outputs at least this wide take the pair-packed
/// path. Building its tables costs 1 024 `u64` writes per two `k`
/// steps, which the halved lookups repay from about this width on.
/// Measured on a 2-vCPU Xeon with `m ∈ {16, 24, 32}` and
/// `k ∈ {9, 49, 144, 288}`: the two paths tie at about 160 columns,
/// packing wins by 3–17% at 192 and by 1.7–2× at 1 024.
pub const PACK_N: usize = 192;

/// Largest `k` the `u32` accumulator provably cannot overflow at: a
/// table entry is a `u16`, so `k` products sum to at most
/// `k · u16::MAX` — approximate tables and faulted views can reach
/// `u16::MAX`, above the exact maximum `255 · 255`.
pub const MAX_ACC_K: usize = (u32::MAX / u16::MAX as u32) as usize;

/// `C += A·B` over code matrices: row-major `A (m×k)`, `B (k×n)` of
/// `u8` codes, `C (m×n)` of `u32` sums of `lut` products.
///
/// # Panics
///
/// Debug-asserts slice lengths and the `k ≤ MAX_ACC_K` overflow bound.
pub fn qgemm_nn(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
    if trace::enabled() {
        trace::add(trace::Counter::QgemmCalls, 1);
        trace::add(trace::Counter::QgemmMacs, (m * k * n) as u64);
        // Analytic twin of each path's `lut.row()` call count: the
        // exact-table paths multiply and fetch none, and both LUT paths
        // fetch each left code's row once — one per (output-row,
        // k-step). Kept in lock-step with the dispatch below by the
        // trace count tests.
        let fetches = if m > 0 && n > 0 && k > 0 && !lut.is_exact() {
            (m * k) as u64
        } else {
            0
        };
        trace::add(trace::Counter::LutRowFetches, fetches);
    }
    qgemm_nn_raw(a, b, c, m, k, n, lut);
}

/// [`qgemm_nn`] without the instrumentation prologue: the body the
/// wrapper dispatches to, exposed so the perf suite can measure the
/// hook overhead against a truly bare kernel.
///
/// # Panics
///
/// Debug-asserts slice lengths and the `k ≤ MAX_ACC_K` overflow bound.
pub fn qgemm_nn_raw(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    debug_assert!(k <= MAX_ACC_K, "k = {k} can overflow the u32 accumulator");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Every path sums the same products into each output element with
    // u32 adds, so the choice never changes a single output bit — only
    // which memory traffic is paid. An exact table's products are
    // plain multiplies, so it skips the lookups altogether.
    match (lut.is_exact(), k >= TALL_K, n >= PACK_N) {
        (true, true, _) => qgemm_tall_k_exact(a, b, c, m, k, n),
        (true, false, _) => qgemm_stream_exact(a, b, c, m, k, n),
        (false, _, true) => qgemm_packed(a, b, c, m, k, n, lut),
        (false, _, false) => qgemm_stream(a, b, c, m, k, n, lut),
    }
}

/// Zero products: the partner of an odd `k`'s last step in the
/// two-step loops below, so that step runs the same loop body.
static ZERO_ROW: [u16; 256] = [0; 256];

/// The LUT rows of the four left codes `A[i0 + r][p]`, `r < MR`, and
/// the `B` row of step `p`. Past the end of the reduction (`p == k`)
/// they are all-zero rows over `B`'s row `p − 1`, which add nothing.
#[inline(always)]
fn step<'l, 'b>(
    a: &[u8],
    b: &'b [u8],
    lut: &'l MulLut,
    i0: usize,
    k: usize,
    n: usize,
    p: usize,
) -> ([&'l [u16; 256]; MR], &'b [u8]) {
    if p < k {
        (
            std::array::from_fn(|r| lut.row(a[(i0 + r) * k + p])),
            &b[p * n..(p + 1) * n],
        )
    } else {
        ([&ZERO_ROW; MR], &b[(p - 1) * n..p * n])
    }
}

/// The four `n`-wide rows of a `4 × n` block of `C`.
fn split_rows(block: &mut [u32], n: usize) -> [&mut [u32]; MR] {
    let (c0, rest) = block.split_at_mut(n);
    let (c1, rest) = rest.split_at_mut(n);
    let (c2, c3) = rest.split_at_mut(n);
    [c0, c1, c2, c3]
}

/// `t[v] = lo[v] | hi[v] << 32`: two rows' products in one `u64`.
#[inline(always)]
fn pack(t: &mut [u64; 256], lo: &[u16; 256], hi: &[u16; 256]) {
    for ((o, &l), &h) in t.iter_mut().zip(lo).zip(hi) {
        *o = u64::from(l) | u64::from(h) << 32;
    }
}

/// Narrow-output path (`n < PACK_N`): each group of `MR` output rows
/// makes one pass over two `B` rows at a time, so one pair of code
/// loads serves eight lookups and each `C` element is read and written
/// once per two `k` steps. Rows past the last full group stream one at
/// a time.
#[inline(never)]
fn qgemm_stream(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
    let full = m - m % MR;
    for i0 in (0..full).step_by(MR) {
        let [c0, c1, c2, c3] = split_rows(&mut c[i0 * n..(i0 + MR) * n], n);
        for p in (0..k).step_by(2) {
            let ([r0, r1, r2, r3], b0) = step(a, b, lut, i0, k, n, p);
            let ([s0, s1, s2, s3], b1) = step(a, b, lut, i0, k, n, p + 1);
            for (((((o0, o1), o2), o3), &u), &v) in c0
                .iter_mut()
                .zip(c1.iter_mut())
                .zip(c2.iter_mut())
                .zip(c3.iter_mut())
                .zip(b0)
                .zip(b1)
            {
                let (u, v) = (u as usize, v as usize);
                *o0 += u32::from(r0[u]) + u32::from(s0[v]);
                *o1 += u32::from(r1[u]) + u32::from(s1[v]);
                *o2 += u32::from(r2[u]) + u32::from(s2[v]);
                *o3 += u32::from(r3[u]) + u32::from(s3[v]);
            }
        }
    }
    for i in full..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let row = lut.row(a[i * k + p]);
            for (o, &bv) in crow.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *o += u32::from(row[bv as usize]);
            }
        }
    }
}

/// Wide-output path (`n ≥ PACK_N`): per group of `MR` output rows and
/// per `k` step, two 256-entry `u64` tables each pack two rows'
/// products (see [`pack`]), so one lookup and one add update two
/// outputs. Two `k` steps share each pass over the `u64` lane-pair
/// accumulators, which unpack into `C` once per row group. Leftover
/// rows take [`qgemm_stream`].
#[inline(never)]
fn qgemm_packed(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
    let full = m - m % MR;
    // lanes[j] = [rows 0|1, rows 2|3] of column j.
    let mut lanes = vec![[0u64; 2]; n];
    let mut tables = [[0u64; 256]; 4];
    for i0 in (0..full).step_by(MR) {
        lanes.fill([0; 2]);
        for p in (0..k).step_by(2) {
            let ([r0, r1, r2, r3], b0) = step(a, b, lut, i0, k, n, p);
            let ([s0, s1, s2, s3], b1) = step(a, b, lut, i0, k, n, p + 1);
            let [t01, t23, u01, u23] = &mut tables;
            pack(t01, r0, r1);
            pack(t23, r2, r3);
            pack(u01, s0, s1);
            pack(u23, s2, s3);
            for ((lane, &u), &v) in lanes.iter_mut().zip(b0).zip(b1) {
                let (u, v) = (u as usize, v as usize);
                lane[0] += t01[u] + u01[v];
                lane[1] += t23[u] + u23[v];
            }
        }
        let [c0, c1, c2, c3] = split_rows(&mut c[i0 * n..(i0 + MR) * n], n);
        for ((((o0, o1), o2), o3), &[l01, l23]) in c0
            .iter_mut()
            .zip(c1.iter_mut())
            .zip(c2.iter_mut())
            .zip(c3.iter_mut())
            .zip(&lanes)
        {
            *o0 += l01 as u32;
            *o1 += (l01 >> 32) as u32;
            *o2 += l23 as u32;
            *o3 += (l23 >> 32) as u32;
        }
    }
    if full < m {
        qgemm_stream(&a[full * k..], b, &mut c[full * n..], m - full, k, n, lut);
    }
}

/// `acc[j] += a · b[j]` under the exact multiplier. `a · b ≤ 65 025`
/// fits a `u16`, so each product is one 16-bit multiply — a vector
/// `pmullw` even on baseline SSE2.
#[inline(always)]
fn mac_exact(acc: &mut [u32], b: &[u8], a: u8) {
    let a = u16::from(a);
    for (o, &bv) in acc.iter_mut().zip(b) {
        *o += u32::from(a * u16::from(bv));
    }
}

/// Exact-table path for deep reductions: `MR × NR` register tiles of
/// `u32` accumulators live in a local array across the **whole** `k`
/// loop, so `C` is read and written once per tile instead of once per
/// `k` step. Full tiles get their own loop with constant widths, so
/// each tile row is one fixed-width vector operation; edge tiles take
/// the general loop.
#[inline(never)]
fn qgemm_tall_k_exact(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize) {
    for i0 in (0..m).step_by(MR) {
        let mr = MR.min(m - i0);
        for j0 in (0..n).step_by(NR) {
            let nr = NR.min(n - j0);
            let mut acc = [[0u32; NR]; MR];
            if mr == MR && nr == NR {
                for p in 0..k {
                    let brow = &b[p * n + j0..p * n + j0 + NR];
                    for (r, arow) in acc.iter_mut().enumerate() {
                        mac_exact(arow, brow, a[(i0 + r) * k + p]);
                    }
                }
            } else {
                for p in 0..k {
                    let brow = &b[p * n + j0..p * n + j0 + nr];
                    for (r, arow) in acc.iter_mut().enumerate().take(mr) {
                        mac_exact(&mut arow[..nr], brow, a[(i0 + r) * k + p]);
                    }
                }
            }
            for (r, arow) in acc.iter().enumerate().take(mr) {
                let crow = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
                for (o, &v) in crow.iter_mut().zip(&arow[..nr]) {
                    *o += v;
                }
            }
        }
    }
}

/// Exact-table path for short reductions: each `B` row is streamed
/// across the `MR` output rows at full width; re-reading the `C` rows
/// per `k` step is cheap when `k` is small.
#[inline(never)]
fn qgemm_stream_exact(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize) {
    for i0 in (0..m).step_by(MR) {
        let mr = MR.min(m - i0);
        for p in 0..k {
            let brow = &b[p * n..(p + 1) * n];
            for r in 0..mr {
                mac_exact(
                    &mut c[(i0 + r) * n..(i0 + r + 1) * n],
                    brow,
                    a[(i0 + r) * k + p],
                );
            }
        }
    }
}

/// Row sums `Σₖ A[i][k]` of a code matrix (the `Σ qₐ` correction term).
pub fn row_sums(a: &[u8], m: usize, k: usize) -> Vec<u32> {
    debug_assert_eq!(a.len(), m * k);
    a.chunks_exact(k.max(1))
        .take(m)
        .map(|row| row.iter().map(|&v| v as u32).sum())
        .collect()
}

/// Column sums `Σₖ B[k][j]` of a code matrix (the `Σ q_b` correction
/// term).
pub fn col_sums(b: &[u8], k: usize, n: usize) -> Vec<u32> {
    debug_assert_eq!(b.len(), k * n);
    let mut out = vec![0u32; n];
    for brow in b.chunks_exact(n.max(1)).take(k) {
        for (o, &v) in out.iter_mut().zip(brow) {
            *o += v as u32;
        }
    }
    out
}

/// Reconstructs the float GEMM output from the integer accumulator and
/// the affine correction terms (see the module docs for the identity).
///
/// `acc` is `m×n`, `rs_a` the `m` row sums of the left codes, `cs_b`
/// the `n` column sums of the right codes, and `k` the reduction
/// length shared by both.
pub fn affine_dequant(
    acc: &[u32],
    rs_a: &[u32],
    cs_b: &[u32],
    k: usize,
    pa: QuantParams,
    pb: QuantParams,
    out: &mut [f32],
) {
    debug_assert_eq!(acc.len(), rs_a.len() * cs_b.len());
    debug_assert_eq!(out.len(), acc.len());
    let (la, lb) = (pa.lsb(), pb.lsb());
    let (min_a, min_b) = (pa.min(), pb.min());
    let scale = la * lb;
    let const_term = k as f32 * min_a * min_b;
    let n = cs_b.len();
    for (i, &ra) in rs_a.iter().enumerate() {
        let row_term = la * min_b * ra as f32 + const_term;
        let orow = &mut out[i * n..(i + 1) * n];
        let arow = &acc[i * n..(i + 1) * n];
        for ((o, &sum), &cb) in orow.iter_mut().zip(arow).zip(cs_b) {
            *o = scale * sum as f32 + row_term + lb * min_a * cb as f32;
        }
    }
}

/// Naive triple-loop twin of [`qgemm_nn`]: the correctness oracle the
/// blocked kernel is property-tested against. Never used on a hot path.
pub mod reference {
    use redcane_axmul::MulLut;

    /// Textbook `C += A·B` over code matrices in `i-k-j` order.
    pub fn qgemm_nn(a: &[u8], b: &[u8], c: &mut [u32], m: usize, k: usize, n: usize, lut: &MulLut) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += lut.mul(av, b[p * n + j]) as u32;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane_axmul::mult::TruncatedMultiplier;
    use redcane_axmul::Multiplier8;

    fn codes(seed: u64, len: usize) -> Vec<u8> {
        // Small deterministic LCG; avoids pulling rand into unit tests.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn blocked_matches_reference_across_shapes_and_multipliers() {
        let luts = [
            MulLut::exact(),
            MulLut::tabulate(&TruncatedMultiplier::new(4)),
        ];
        for lut in &luts {
            for &(m, k, n) in &[(1, 1, 1), (4, 4, 4), (5, 7, 3), (3, 300, 9), (13, 513, 17)] {
                let a = codes(m as u64 * 31 + k as u64, m * k);
                let b = codes(n as u64 * 17 + 5, k * n);
                let mut fast = vec![0u32; m * n];
                let mut naive = vec![0u32; m * n];
                qgemm_nn(&a, &b, &mut fast, m, k, n, lut);
                reference::qgemm_nn(&a, &b, &mut naive, m, k, n, lut);
                assert_eq!(fast, naive, "{m}x{k}x{n} [{}]", lut.description());
            }
        }
    }

    #[test]
    fn saturated_table_at_max_acc_k_fills_the_accumulator_exactly() {
        // Every entry at u16::MAX: k = MAX_ACC_K products sum to
        // exactly u32::MAX, the worst case an approximate or faulted
        // table can reach. No path may overflow, and no packed lane may
        // carry into its neighbour. Five rows leave one over the row
        // group; the odd k ends on a lone step.
        let lut = MulLut::exact().faulted_view("saturated", |a| a, |b| b, |_, _| u16::MAX);
        let (m, k) = (5, MAX_ACC_K);
        assert_eq!(k % 2, 1);
        let a = codes(3, m * k);
        for n in [3, PACK_N] {
            let b = codes(4, k * n);
            let mut fast = vec![0u32; m * n];
            let mut naive = vec![0u32; m * n];
            qgemm_nn(&a, &b, &mut fast, m, k, n, &lut);
            reference::qgemm_nn(&a, &b, &mut naive, m, k, n, &lut);
            assert_eq!(fast, naive, "n = {n}");
            assert!(fast.iter().all(|&v| v == u32::MAX), "n = {n}");
        }
    }

    #[test]
    fn accumulates_into_existing_contents() {
        let lut = MulLut::exact();
        let mut c = vec![7u32; 4];
        qgemm_nn(&[1, 2, 3, 4], &[1, 0, 0, 1], &mut c, 2, 2, 2, &lut);
        assert_eq!(c, vec![8, 9, 10, 11]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let lut = MulLut::exact();
        let mut c: Vec<u32> = Vec::new();
        qgemm_nn(&[], &[], &mut c, 0, 3, 0, &lut);
        let mut c = vec![0u32; 6];
        qgemm_nn(&[], &[], &mut c, 2, 0, 3, &lut);
        assert!(c.iter().all(|&v| v == 0));
    }

    #[test]
    fn sums_and_affine_identity_reconstruct_float_product() {
        // With the exact multiplier, quantize → qgemm → affine_dequant
        // must equal the float product of the *dequantized* operands to
        // f32 round-off.
        let pa = QuantParams::from_range(-1.0, 1.0, 8).unwrap();
        let pb = QuantParams::from_range(-0.5, 2.0, 8).unwrap();
        let (m, k, n) = (3, 11, 4);
        let qa = codes(9, m * k);
        let qb = codes(10, k * n);
        let lut = MulLut::exact();
        let mut acc = vec![0u32; m * n];
        qgemm_nn(&qa, &qb, &mut acc, m, k, n, &lut);
        let mut out = vec![0.0f32; m * n];
        affine_dequant(
            &acc,
            &row_sums(&qa, m, k),
            &col_sums(&qb, k, n),
            k,
            pa,
            pb,
            &mut out,
        );
        // Float oracle over dequantized values.
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f64;
                for p in 0..k {
                    let av = pa.dequantize(qa[i * k + p] as u16) as f64;
                    let bv = pb.dequantize(qb[p * n + j] as u16) as f64;
                    want += av * bv;
                }
                let got = out[i * n + j] as f64;
                assert!((got - want).abs() < 1e-3, "[{i},{j}] {got} vs {want}");
            }
        }
    }

    #[test]
    fn approximate_multiplier_changes_only_the_product_sum() {
        // The under-estimating truncated multiplier must pull the
        // accumulator (and thus the dequantized output) down, never up.
        let trunc = TruncatedMultiplier::new(6);
        let lut_ax = MulLut::tabulate(&trunc);
        let lut_ex = MulLut::exact();
        let (m, k, n) = (2, 20, 3);
        let qa = codes(1, m * k);
        let qb = codes(2, k * n);
        let mut acc_ex = vec![0u32; m * n];
        let mut acc_ax = vec![0u32; m * n];
        qgemm_nn(&qa, &qb, &mut acc_ex, m, k, n, &lut_ex);
        qgemm_nn(&qa, &qb, &mut acc_ax, m, k, n, &lut_ax);
        assert!(acc_ax.iter().zip(&acc_ex).all(|(a, e)| a <= e));
        assert!(acc_ax.iter().zip(&acc_ex).any(|(a, e)| a < e));
        // Spot-check the LUT against the model it tabulates.
        assert_eq!(lut_ax.mul(200, 3), trunc.multiply(200, 3));
    }
}
