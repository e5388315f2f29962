//! Eq. 1 quantization: affine mapping between floats and `b`-bit codes.

use redcane_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::error::FxpError;

/// Widens a degenerate observed range (`max <= min`, i.e. a constant
/// value) so the affine mapping of Eq. 1 is defined.
///
/// The pad scales with the value's magnitude: a fixed epsilon (the old
/// ±0.5) disappears under f32 rounding once `|v|` exceeds ~2²³·ε, which
/// made calibration fail on real layers whose activations are constant
/// at a large scale. The loop doubles the pad until the widened bounds
/// are actually distinct after rounding.
pub(crate) fn widen_degenerate(min: f32, max: f32) -> (f32, f32) {
    debug_assert!(min.is_finite() && max.is_finite());
    let mut pad = 0.5f32.max(min.abs().max(max.abs()) * 1e-6);
    let (mut lo, mut hi) = (min - pad, max + pad);
    while hi <= lo && pad.is_finite() {
        pad *= 2.0;
        lo = min - pad;
        hi = max + pad;
    }
    // Saturate instead of handing a non-finite bound to `from_range`.
    if !lo.is_finite() {
        lo = f32::MIN;
    }
    if !hi.is_finite() {
        hi = f32::MAX;
    }
    (lo, hi)
}

/// Rounds `scaled` to the nearest integer, halves away from zero, and
/// saturates it to `0..=max_code`: bit-identical to
/// `scaled.round().clamp(0.0, max_code as f32) as u16` for every `f32`
/// (NaN → 0), without the `roundf` libcall `f32::round` costs on
/// targets lacking SSE4.1.
///
/// After the clamp, `c` lies in `[0, max_code]` (or is NaN), so the
/// truncation `t` is exact and so is `c - t`: for `t ≥ 1`,
/// `t ≤ c < t + 1 ≤ 2t` (Sterbenz), and for `t = 0` it is `c` itself.
/// The half comparison therefore decides exactly as `round` does.
#[inline]
fn round_to_code(scaled: f32, max_code: u16) -> u16 {
    let c = scaled.clamp(0.0, f32::from(max_code));
    let t = c as u16;
    t + u16::from(c - f32::from(t) >= 0.5)
}

/// Affine quantization parameters implementing Eq. 1 of the paper:
/// `Q(x) = (x - min) / (max - min) * (2^b - 1)`.
///
/// Codes are `u16` (the library's components are at most 8-bit inputs with
/// 16-bit products).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    min: f32,
    max: f32,
    bits: u8,
}

impl QuantParams {
    /// Creates parameters from an explicit value range.
    ///
    /// # Errors
    ///
    /// Returns [`FxpError::InvalidRange`] if the range is degenerate or
    /// non-finite, or [`FxpError::UnsupportedWordLength`] for `bits`
    /// outside `1..=16`.
    pub fn from_range(min: f32, max: f32, bits: u8) -> Result<Self, FxpError> {
        if !(1..=16).contains(&bits) {
            return Err(FxpError::UnsupportedWordLength { bits });
        }
        if !min.is_finite() || !max.is_finite() || max <= min {
            return Err(FxpError::InvalidRange { min, max });
        }
        Ok(QuantParams { min, max, bits })
    }

    /// Calibrates parameters from the observed min/max of a tensor.
    ///
    /// A constant tensor is widened by an epsilon so the range is valid.
    ///
    /// # Errors
    ///
    /// Returns [`FxpError::UnsupportedWordLength`] for an invalid `bits`.
    pub fn calibrate(tensor: &Tensor, bits: u8) -> Result<Self, FxpError> {
        let mut min = tensor.min_value();
        let mut max = tensor.max_value();
        if !min.is_finite() || !max.is_finite() {
            return Err(FxpError::InvalidRange { min, max });
        }
        if max <= min {
            // Constant tensor: widen so quantization is defined (the pad
            // scales with magnitude so it survives f32 rounding).
            (min, max) = widen_degenerate(min, max);
        }
        Self::from_range(min, max, bits)
    }

    /// The word length in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Lower edge of the representable range.
    pub fn min(&self) -> f32 {
        self.min
    }

    /// Upper edge of the representable range.
    pub fn max(&self) -> f32 {
        self.max
    }

    /// Largest representable code: `2^bits - 1`.
    pub fn max_code(&self) -> u16 {
        ((1u32 << self.bits) - 1) as u16
    }

    /// The value step between adjacent codes (one LSB).
    pub fn lsb(&self) -> f32 {
        (self.max - self.min) / self.max_code() as f32
    }

    /// Quantizes a value to its nearest code, saturating at the range edges
    /// (Eq. 1). Halves round away from zero; NaN maps to code 0.
    pub fn quantize(&self, x: f32) -> u16 {
        let scaled = (x - self.min) / (self.max - self.min) * self.max_code() as f32;
        round_to_code(scaled, self.max_code())
    }

    /// Reconstructs the value at the center of `code`'s quantization cell.
    pub fn dequantize(&self, code: u16) -> f32 {
        self.min + (self.max - self.min) * code as f32 / self.max_code() as f32
    }

    /// Quantizes then dequantizes, i.e. simulates the precision loss of
    /// running this value through the fixed-point datapath.
    pub fn round_trip(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }
}

/// A tensor quantized to `b`-bit codes together with its reconstruction
/// parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    /// Flat row-major codes.
    pub codes: Vec<u16>,
    /// Original tensor shape.
    pub shape: Vec<usize>,
    /// The affine mapping used.
    pub params: QuantParams,
}

impl QuantizedTensor {
    /// Reconstructs the floating-point tensor (with quantization error).
    pub fn dequantize(&self) -> Tensor {
        let data: Vec<f32> = self
            .codes
            .iter()
            .map(|&c| self.params.dequantize(c))
            .collect();
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        Tensor::from_vec(data, &self.shape).expect("codes sized to shape")
    }
}

/// Tensor-level quantization front-end.
///
/// # Example
///
/// ```
/// use redcane_fxp::Quantizer;
/// use redcane_tensor::Tensor;
///
/// # fn main() -> Result<(), redcane_fxp::FxpError> {
/// let t = Tensor::from_slice(&[-1.0, 0.0, 1.0]);
/// let q = Quantizer::new(8).quantize_calibrated(&t)?;
/// let back = q.dequantize();
/// for (a, b) in t.data().iter().zip(back.data()) {
///     assert!((a - b).abs() < 0.005);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    bits: u8,
}

impl Quantizer {
    /// Creates a quantizer for `bits`-wide codes.
    pub fn new(bits: u8) -> Self {
        Quantizer { bits }
    }

    /// The configured word length.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Quantizes a tensor using its own min/max as the range (per-tensor
    /// calibration, as the paper does per-array).
    ///
    /// # Errors
    ///
    /// Returns an error for an unsupported word length or non-finite data.
    pub fn quantize_calibrated(&self, tensor: &Tensor) -> Result<QuantizedTensor, FxpError> {
        let params = QuantParams::calibrate(tensor, self.bits)?;
        Ok(self.quantize_with(tensor, params))
    }

    /// Quantizes a tensor with externally supplied parameters (e.g. from a
    /// [`RangeTracker`](crate::RangeTracker) calibration pass).
    pub fn quantize_with(&self, tensor: &Tensor, params: QuantParams) -> QuantizedTensor {
        QuantizedTensor {
            codes: tensor.data().iter().map(|&v| params.quantize(v)).collect(),
            shape: tensor.shape().to_vec(),
            params,
        }
    }

    /// Simulates the fixed-point datapath: quantize + dequantize in place.
    ///
    /// # Errors
    ///
    /// Returns an error for an unsupported word length or non-finite data.
    pub fn round_trip(&self, tensor: &Tensor) -> Result<Tensor, FxpError> {
        Ok(self.quantize_calibrated(tensor)?.dequantize())
    }
}

impl Default for Quantizer {
    /// 8-bit, matching the paper's accelerator word length.
    fn default() -> Self {
        Quantizer::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(QuantParams::from_range(0.0, 1.0, 0).is_err());
        assert!(QuantParams::from_range(0.0, 1.0, 17).is_err());
        assert!(QuantParams::from_range(1.0, 1.0, 8).is_err());
        assert!(QuantParams::from_range(2.0, 1.0, 8).is_err());
        assert!(QuantParams::from_range(f32::NAN, 1.0, 8).is_err());
        assert!(QuantParams::from_range(0.0, 1.0, 8).is_ok());
    }

    #[test]
    fn edges_map_to_extreme_codes() {
        let q = QuantParams::from_range(-2.0, 2.0, 8).unwrap();
        assert_eq!(q.quantize(-2.0), 0);
        assert_eq!(q.quantize(2.0), 255);
        assert_eq!(q.max_code(), 255);
    }

    #[test]
    fn quantize_saturates_out_of_range() {
        let q = QuantParams::from_range(0.0, 1.0, 8).unwrap();
        assert_eq!(q.quantize(-5.0), 0);
        assert_eq!(q.quantize(5.0), 255);
    }

    #[test]
    fn round_trip_error_bounded_by_half_lsb() {
        let q = QuantParams::from_range(-1.0, 1.0, 8).unwrap();
        let half_lsb = q.lsb() / 2.0;
        for i in 0..1000 {
            let x = -1.0 + 2.0 * i as f32 / 999.0;
            let err = (q.round_trip(x) - x).abs();
            assert!(err <= half_lsb + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn dequantize_is_monotone_in_code() {
        let q = QuantParams::from_range(0.0, 10.0, 4).unwrap();
        let mut prev = f32::NEG_INFINITY;
        for code in 0..=q.max_code() {
            let v = q.dequantize(code);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn fewer_bits_coarser_lsb() {
        let q8 = QuantParams::from_range(0.0, 1.0, 8).unwrap();
        let q4 = QuantParams::from_range(0.0, 1.0, 4).unwrap();
        assert!(q4.lsb() > q8.lsb());
    }

    #[test]
    fn calibrate_constant_tensor_widens_range() {
        let t = Tensor::full(&[5], 3.0);
        let q = QuantParams::calibrate(&t, 8).unwrap();
        assert!(q.min() < 3.0 && q.max() > 3.0);
        assert!((q.round_trip(3.0) - 3.0).abs() < q.lsb());
    }

    #[test]
    fn calibrate_large_magnitude_constant_still_widens() {
        // A fixed ±0.5 pad rounds away at this scale (ULP(3e8) = 32);
        // the magnitude-aware pad must keep the range valid.
        for &v in &[3.0e8f32, -3.0e8, 1.0e30, f32::MAX] {
            let t = Tensor::full(&[4], v);
            let q = QuantParams::calibrate(&t, 8)
                .unwrap_or_else(|e| panic!("calibrate({v}) failed: {e:?}"));
            assert!(q.min() < q.max(), "widened range at {v}");
            let rel = ((q.round_trip(v) - v) / v).abs();
            assert!(rel < 1e-2, "round trip at {v}: rel {rel}");
        }
    }

    #[test]
    fn quantizer_tensor_round_trip() {
        let t = Tensor::from_slice(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        let q = Quantizer::new(8);
        let rt = q.round_trip(&t).unwrap();
        for (a, b) in t.data().iter().zip(rt.data()) {
            assert!((a - b).abs() < 0.01);
        }
    }

    #[test]
    fn quantized_tensor_keeps_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        let q = Quantizer::default().quantize_calibrated(&t).unwrap();
        assert_eq!(q.shape, vec![2, 3, 4]);
        assert_eq!(q.dequantize().shape(), &[2, 3, 4]);
    }

    #[test]
    fn default_quantizer_is_8_bit() {
        assert_eq!(Quantizer::default().bits(), 8);
    }

    /// The `f32::round` form `round_to_code` replaces.
    fn round_then_clamp(scaled: f32, max_code: u16) -> u16 {
        scaled.round().clamp(0.0, f32::from(max_code)) as u16
    }

    fn assert_rounds_alike(scaled: f32, max_code: u16) {
        assert_eq!(
            round_to_code(scaled, max_code),
            round_then_clamp(scaled, max_code),
            "scaled = {scaled:e} ({:#010x}), max_code = {max_code}",
            scaled.to_bits()
        );
    }

    /// `v` and the `f32`s up to `ulps` steps below and above it,
    /// crossing zero and stopping at ±inf.
    fn ulp_neighbours(v: f32, ulps: i32) -> impl Iterator<Item = f32> {
        (-ulps..=ulps).map(move |d| {
            let mut x = v;
            for _ in 0..d.unsigned_abs() {
                x = if d > 0 { next_up(x) } else { -next_up(-x) };
            }
            x
        })
    }

    /// The next representable `f32` above `x` (`x` itself at +inf/NaN).
    fn next_up(x: f32) -> f32 {
        if x.is_nan() || x == f32::INFINITY {
            return x;
        }
        if x == 0.0 {
            return f32::from_bits(1);
        }
        let bits = x.to_bits();
        f32::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
    }

    #[test]
    fn rounding_matches_round_clamp_around_every_half_integer() {
        for max_code in [255u16, 65535] {
            // Every tie k + 0.5 the clamp can reach, its negative, and
            // the clamp edges themselves, each ±8 ulps.
            let edges = (0..=max_code)
                .flat_map(|k| [f32::from(k) + 0.5, -(f32::from(k) + 0.5)])
                .chain([0.0, f32::from(max_code), f32::from(max_code) + 1.0]);
            for v in edges {
                for x in ulp_neighbours(v, 8) {
                    assert_rounds_alike(x, max_code);
                }
            }
        }
    }

    #[test]
    fn rounding_matches_round_clamp_on_special_values() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xff80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
            8_388_608.0,
            16_777_216.0,
        ];
        for max_code in [1u16, 255, 4095, 65535] {
            for &x in &specials {
                assert_rounds_alike(x, max_code);
            }
        }
    }

    #[test]
    fn quantize_matches_round_clamp_on_seeded_bit_patterns() {
        let params = [
            QuantParams::from_range(-1.0, 1.0, 8).unwrap(),
            QuantParams::from_range(0.0, 6.5, 8).unwrap(),
            QuantParams::from_range(-3.0e-3, 7.0e4, 8).unwrap(),
            QuantParams::from_range(-2.0, 2.0, 16).unwrap(),
        ];
        // xorshift64*: a fixed, dependency-free pattern stream.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..1 << 18 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32;
            let x = f32::from_bits(bits);
            assert_rounds_alike(x, 255);
            assert_rounds_alike(x, 65535);
            for p in &params {
                let scaled = (x - p.min()) / (p.max() - p.min()) * f32::from(p.max_code());
                assert_eq!(
                    p.quantize(x),
                    round_then_clamp(scaled, p.max_code()),
                    "x = {x:e} under {p:?}"
                );
            }
        }
    }

    /// Every one of the 2³² `f32` bit patterns, at the 8- and 16-bit
    /// max codes. About a minute in release:
    /// `cargo test --release -p redcane-fxp -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 patterns; run with --release -- --ignored"]
    fn rounding_matches_round_clamp_on_every_f32() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u64;
        let span = (1u64 << 32).div_ceil(workers);
        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || {
                    let end = ((w + 1) * span).min(1 << 32);
                    for bits in w * span..end {
                        let x = f32::from_bits(bits as u32);
                        for max_code in [255u16, 65535] {
                            if round_to_code(x, max_code) != round_then_clamp(x, max_code) {
                                assert_rounds_alike(x, max_code);
                            }
                        }
                    }
                });
            }
        });
    }
}
