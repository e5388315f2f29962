//! `QTensor`: tensors as 8-bit codes plus their affine reconstruction
//! parameters — the value representation of the quantized datapath.

use redcane_fxp::QuantParams;
use redcane_tensor::ops::Conv2dSpec;
use redcane_tensor::{Tensor, TensorError};
use redcane_trace as trace;

/// A tensor quantized to 8-bit codes under an affine [`QuantParams`]
/// mapping (Eq. 1 of the paper), as stored in the accelerator's
/// on-chip buffers.
///
/// Out-of-range values saturate at the range edges, exactly as the
/// fixed-point hardware would. The parameters are fixed at calibration
/// time (from the real input distribution), **not** per-sample.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    codes: Vec<u8>,
    shape: Vec<usize>,
    params: QuantParams,
}

impl QTensor {
    /// Quantizes a float tensor under `params`.
    ///
    /// # Panics
    ///
    /// Panics unless `params` is 8-bit (this crate models an 8-bit
    /// datapath; wider words need `redcane_fxp::Quantizer`).
    pub fn quantize(tensor: &Tensor, params: QuantParams) -> Self {
        QTensor {
            codes: quantize_codes(tensor.data(), params),
            shape: tensor.shape().to_vec(),
            params,
        }
    }

    /// Quantizes a raw slice with an explicit shape.
    ///
    /// # Panics
    ///
    /// Panics if `params` is not 8-bit or the shape doesn't match the
    /// slice length.
    pub fn quantize_slice(data: &[f32], shape: &[usize], params: QuantParams) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "shape must match data length"
        );
        QTensor {
            codes: quantize_codes(data, params),
            shape: shape.to_vec(),
            params,
        }
    }

    /// The flat row-major codes.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The affine mapping the codes were produced under.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Reconstructs the float tensor (with quantization error).
    pub fn dequantize(&self) -> Tensor {
        let data: Vec<f32> = self
            .codes
            .iter()
            .map(|&c| self.params.dequantize(c as u16))
            .collect();
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        Tensor::from_vec(data, &self.shape).expect("codes sized to shape")
    }
}

/// Quantizes a float slice to 8-bit codes under `params`, saturating
/// at the range edges.
///
/// # Panics
///
/// Panics unless `params` is 8-bit.
pub fn quantize_codes(data: &[f32], params: QuantParams) -> Vec<u8> {
    assert_eq!(params.bits(), 8, "the qdp datapath is 8-bit");
    data.iter().map(|&v| params.quantize(v) as u8).collect()
}

/// The im2col matrix of a batch of `[C, H, W]` inputs, as 8-bit codes:
/// `[C·K², B·H'·W']`, sample `b`'s columns at `b·H'·W'..(b+1)·H'·W'`.
///
/// Equal, slot for slot, to quantizing each sample's float
/// `im2col_slice` under `params` and placing the columns side by side,
/// because quantization is elementwise: each input element is
/// quantized once, and the slots are gathered from those codes through
/// one index map shared by the batch. Padded taps read
/// `params.quantize(0.0)`, the code of the zero the float im2col
/// writes there.
///
/// # Errors
///
/// [`TensorError`] if a sample is not `c·h·w` long or the geometry is
/// invalid for `spec`.
///
/// # Panics
///
/// Panics unless `params` is 8-bit.
pub fn im2col_codes(
    inputs: &[&[f32]],
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    params: QuantParams,
) -> Result<Vec<u8>, TensorError> {
    let (h_out, w_out) = (spec.output_size(h)?, spec.output_size(w)?);
    let chw = c * h * w;
    let k2 = c * spec.kernel * spec.kernel;
    let n = h_out * w_out;
    let wide = inputs.len() * n;
    // Index of the input element each slot of one sample reads, or
    // `chw` — one past the input, where the pad code sits.
    let mut map = Vec::with_capacity(k2 * n);
    let tap = |o: usize, kk: usize, len: usize| {
        (o * spec.stride + kk)
            .checked_sub(spec.padding)
            .filter(|&i| i < len)
    };
    for ci in 0..c {
        for ky in 0..spec.kernel {
            for kx in 0..spec.kernel {
                for oy in 0..h_out {
                    let iy = tap(oy, ky, h);
                    for ox in 0..w_out {
                        map.push(match (iy, tap(ox, kx, w)) {
                            (Some(iy), Some(ix)) => (ci * h + iy) * w + ix,
                            _ => chw,
                        } as u32);
                    }
                }
            }
        }
    }
    let pad = params.quantize(0.0) as u8;
    let mut out = vec![0u8; k2 * wide];
    for (bi, data) in inputs.iter().enumerate() {
        if data.len() != chw {
            return Err(TensorError::LengthMismatch {
                shape: vec![c, h, w],
                len: data.len(),
            });
        }
        let mut codes = quantize_codes(data, params);
        codes.push(pad);
        for (dst, idx) in out.chunks_exact_mut(wide).zip(map.chunks_exact(n)) {
            for (slot, &i) in dst[bi * n..(bi + 1) * n].iter_mut().zip(idx) {
                *slot = codes[i as usize];
            }
        }
    }
    if trace::enabled() {
        // The gathered column matrix, one byte per slot.
        trace::add(trace::Counter::Im2colBytes, (k2 * wide) as u64);
    }
    Ok(out)
}

/// Applies a deterministic [`FaultModel`](redcane::faults::FaultModel)
/// to a buffer of 8-bit codes in place: element `i` is faulted at index
/// `base_index + i`, so one buffer can continue another's index space
/// (a multi-tensor site faults its concatenated storage consistently).
/// Returns the next free index.
pub fn fault_codes(
    codes: &mut [u8],
    model: &redcane::faults::FaultModel,
    seed: u64,
    base_index: u64,
) -> u64 {
    for (i, code) in codes.iter_mut().enumerate() {
        *code = model.apply(u32::from(*code), 8, seed, base_index + i as u64) as u8;
    }
    base_index + codes.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(min: f32, max: f32) -> QuantParams {
        QuantParams::from_range(min, max, 8).unwrap()
    }

    #[test]
    fn round_trip_within_half_lsb() {
        let params = p(-1.0, 1.0);
        let t = Tensor::from_slice(&[-1.0, -0.3, 0.0, 0.7, 1.0]);
        let q = QTensor::quantize(&t, params);
        assert_eq!(q.shape(), &[5]);
        assert_eq!(q.len(), 5);
        let back = q.dequantize();
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= params.lsb() / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn saturates_out_of_range() {
        let q = QTensor::quantize(&Tensor::from_slice(&[-9.0, 9.0]), p(0.0, 1.0));
        assert_eq!(q.codes(), &[0, 255]);
    }

    #[test]
    fn slice_form_keeps_shape() {
        let q = QTensor::quantize_slice(&[0.0; 6], &[2, 3], p(-1.0, 1.0));
        assert_eq!(q.shape(), &[2, 3]);
        assert_eq!(q.dequantize().shape(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "8-bit")]
    fn rejects_wide_params() {
        let wide = QuantParams::from_range(0.0, 1.0, 12).unwrap();
        let _ = QTensor::quantize(&Tensor::zeros(&[2]), wide);
    }

    #[test]
    fn fault_codes_chains_index_spaces_and_is_deterministic() {
        use redcane::faults::FaultModel;
        let model = FaultModel::BitFlip { ber: 0.4 };
        // One 8-element buffer vs two 4-element halves sharing the
        // index space: identical realizations.
        let mut whole = [0u8; 8];
        let next = fault_codes(&mut whole, &model, 5, 0);
        assert_eq!(next, 8);
        let mut lo = [0u8; 4];
        let mut hi = [0u8; 4];
        let mid = fault_codes(&mut lo, &model, 5, 0);
        fault_codes(&mut hi, &model, 5, mid);
        assert_eq!(&whole[..4], &lo);
        assert_eq!(&whole[4..], &hi);
        // Identity model leaves codes untouched.
        let mut codes = [7u8, 130, 255];
        fault_codes(&mut codes, &FaultModel::BitFlip { ber: 0.0 }, 5, 0);
        assert_eq!(codes, [7, 130, 255]);
    }
}
