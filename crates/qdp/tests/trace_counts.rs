//! Pins the quantized GEMM's deterministic work counts: one call plus
//! `m·k·n` MACs per entry, and the analytic LUT-row-fetch totals for
//! every dispatch path (an approximate table's row-streaming path below
//! the tall-`k` threshold and its panel-replay path above it; the exact
//! table's multiply paths, which fetch no rows). The raw kernel must
//! stay silent — it is the overhead-probe baseline. Also pins the
//! quantized convolution's im2col traffic: one byte per gathered code.

use redcane_axmul::mult::TruncatedMultiplier;
use redcane_nn::layers::Conv2d;
use redcane_qdp::kernels::{self, NR};
use redcane_qdp::{MacView, MulLut, QConv2d};
use redcane_tensor::TensorRng;
use redcane_trace as trace;

/// Serializes tests against the process-global trace planes.
static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `work` against a clean, enabled trace state and returns the
/// resulting snapshot with tracing switched back off.
fn traced(work: impl FnOnce()) -> trace::Snapshot {
    trace::reset();
    trace::set_enabled(true);
    work();
    let snap = trace::snapshot();
    trace::set_enabled(false);
    snap
}

/// An approximate table: it takes the LUT paths.
fn approx() -> MulLut {
    let lut = MulLut::tabulate(&TruncatedMultiplier::new(4));
    assert!(!lut.is_exact());
    lut
}

fn qgemm(m: usize, k: usize, n: usize, lut: &MulLut) -> trace::Snapshot {
    let a = vec![3u8; m * k];
    let b = vec![5u8; k * n];
    let mut c = vec![0u32; m * n];
    traced(|| kernels::qgemm_nn(&a, &b, &mut c, m, k, n, lut))
}

#[test]
fn stream_path_fetches_one_lut_row_per_a_code() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // k = 9 is far below the tall-k threshold: the kernel streams B and
    // fetches one LUT row per (i, p) code of A → m·k rows.
    let (m, k, n) = (4, 9, 5);
    let snap = qgemm(m, k, n, &approx());
    assert_eq!(snap.run(trace::Counter::QgemmCalls), 1);
    assert_eq!(snap.run(trace::Counter::QgemmMacs), (m * k * n) as u64);
    assert_eq!(snap.run(trace::Counter::LutRowFetches), (m * k) as u64);
}

#[test]
fn tall_k_path_refetches_rows_once_per_column_panel() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // k = 200 crosses the tall-k threshold: every NR-wide column panel
    // replays A's rows → ceil(n/NR) · m · k fetches.
    let (m, k, n) = (3, 200, 10);
    let snap = qgemm(m, k, n, &approx());
    assert_eq!(snap.run(trace::Counter::QgemmCalls), 1);
    assert_eq!(snap.run(trace::Counter::QgemmMacs), (m * k * n) as u64);
    assert_eq!(
        snap.run(trace::Counter::LutRowFetches),
        (n.div_ceil(NR) * m * k) as u64
    );
}

#[test]
fn exact_table_multiplies_and_fetches_no_rows() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let exact = MulLut::exact();
    // Both sides of the tall-k threshold.
    for (m, k, n) in [(4, 9, 5), (3, 200, 10)] {
        let snap = qgemm(m, k, n, &exact);
        assert_eq!(snap.run(trace::Counter::QgemmCalls), 1);
        assert_eq!(snap.run(trace::Counter::QgemmMacs), (m * k * n) as u64);
        assert_eq!(snap.run(trace::Counter::LutRowFetches), 0);
    }
}

#[test]
fn degenerate_dims_count_the_call_but_no_work() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let snap = qgemm(0, 9, 5, &approx());
    assert_eq!(snap.run(trace::Counter::QgemmCalls), 1);
    assert_eq!(snap.run(trace::Counter::QgemmMacs), 0);
    assert_eq!(snap.run(trace::Counter::LutRowFetches), 0);
}

#[test]
fn raw_kernel_records_nothing_even_when_tracing_is_on() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let (m, k, n) = (4, 9, 5);
    let a = vec![3u8; m * k];
    let b = vec![5u8; k * n];
    for lut in [approx(), MulLut::exact()] {
        let mut c = vec![0u32; m * n];
        let snap = traced(|| kernels::qgemm_nn_raw(&a, &b, &mut c, m, k, n, &lut));
        assert_eq!(snap.run(trace::Counter::QgemmCalls), 0);
        assert_eq!(snap.run(trace::Counter::QgemmMacs), 0);
        assert_eq!(snap.run(trace::Counter::LutRowFetches), 0);
        // The arithmetic itself is the hooked kernel's, bit for bit.
        let mut hooked = vec![0u32; m * n];
        kernels::qgemm_nn(&a, &b, &mut hooked, m, k, n, &lut);
        assert_eq!(c, hooked);
    }
}

#[test]
fn conv_gathers_one_byte_per_im2col_slot() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // 2 input channels, 3×3 kernel, stride 2, padding 1 on 7×7:
    // 18 im2col rows × 16 output positions per sample.
    let mut rng = TensorRng::from_seed(7);
    let conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
    let params = redcane_fxp::QuantParams::from_range(-1.0, 1.0, 8).unwrap();
    let q = QConv2d::from_conv(&conv, params).unwrap();
    let x = rng.uniform(&[2, 7, 7], -1.0, 1.0);
    let lut = approx();
    let (rows, cols) = (2 * 3 * 3, 4 * 4);
    // A batch gathers every sample's columns into one fused matrix and
    // runs one GEMM over them.
    for bsz in [1, 3] {
        let inputs = vec![x.data(); bsz];
        let snap = traced(|| {
            q.forward_chw(&inputs, 7, 7, MacView::clean(&lut));
        });
        assert_eq!(
            snap.run(trace::Counter::Im2colBytes),
            (rows * bsz * cols) as u64,
            "batch of {bsz}"
        );
        assert_eq!(
            snap.run(trace::Counter::QgemmMacs),
            (3 * rows * bsz * cols) as u64,
            "batch of {bsz}"
        );
    }
}
