//! Property test pinning the quantized convolution's code gather to
//! the float im2col it replaces: quantizing each input element once and
//! gathering codes must equal quantizing every slot of `im2col_slice`,
//! padding taps included. Ranges that exclude 0.0 make the pad code 0
//! or 255 rather than a mid-range zero point.

use proptest::prelude::*;
use redcane_fxp::QuantParams;
use redcane_qdp::qtensor::{im2col_codes, quantize_codes};
use redcane_tensor::ops::conv::im2col_slice;
use redcane_tensor::ops::Conv2dSpec;
use redcane_tensor::{Tensor, TensorRng};

/// Quantization ranges: one containing 0.0, one above it, one below.
const RANGES: [(f32, f32); 3] = [(-1.0, 1.5), (0.25, 2.0), (-3.0, -0.5)];

proptest! {
    #[test]
    fn gathered_codes_equal_quantized_float_im2col(
        c in 1usize..4,
        dh in 0usize..8,
        dw in 0usize..8,
        kernel in 1usize..8,
        stride in 1usize..4,
        padding in 0usize..4,
        batch in 1usize..4,
        range in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        // Smallest input the padded kernel fits, plus a random margin.
        let h = kernel.saturating_sub(2 * padding).max(1) + dh;
        let w = kernel.saturating_sub(2 * padding).max(1) + dw;
        let spec = Conv2dSpec::new(kernel, stride, padding).unwrap();
        let (lo, hi) = RANGES[range];
        let params = QuantParams::from_range(lo, hi, 8).unwrap();
        // Inputs overshoot the range on both sides, so codes saturate.
        let mut rng = TensorRng::from_seed(seed);
        let samples: Vec<Tensor> = (0..batch)
            .map(|_| rng.uniform(&[c, h, w], lo - 0.5, hi + 0.5))
            .collect();
        let inputs: Vec<&[f32]> = samples.iter().map(Tensor::data).collect();

        let got = im2col_codes(&inputs, c, h, w, spec, params).unwrap();

        let n = spec.output_size(h).unwrap() * spec.output_size(w).unwrap();
        let rows = c * kernel * kernel;
        let wide = batch * n;
        let mut want = vec![0u8; rows * wide];
        let mut cols = vec![0.0f32; rows * n];
        for (bi, data) in inputs.iter().enumerate() {
            im2col_slice(data, c, h, w, spec, &mut cols).unwrap();
            let codes = quantize_codes(&cols, params);
            for r in 0..rows {
                want[r * wide + bi * n..r * wide + (bi + 1) * n]
                    .copy_from_slice(&codes[r * n..(r + 1) * n]);
            }
        }
        prop_assert_eq!(
            got,
            want,
            "c={} h={} w={} k={} s={} p={} b={} range={:?}",
            c, h, w, kernel, stride, padding, batch, (lo, hi)
        );
    }
}

#[test]
fn wrong_sample_length_is_an_error() {
    let spec = Conv2dSpec::new(3, 1, 1).unwrap();
    let params = QuantParams::from_range(-1.0, 1.0, 8).unwrap();
    let short = [0.0f32; 8];
    assert!(im2col_codes(&[&short], 1, 3, 3, spec, params).is_err());
}
