//! Quantized layer forward paths: `Conv2d`, 2-D/3-D capsule
//! convolutions, capsule votes and the routing MACs.
//!
//! Every multiply in these paths goes through a
//! [`MulLut`] — i.e. through a behavioral model
//! of a real 8-bit (possibly approximate) multiplier — while everything
//! an accelerator computes exactly (code sums for the zero-point
//! correction, bias adds, the squash / softmax special-function units)
//! stays in float. Activations are requantized between layers with
//! ranges fixed at calibration time, so the datapath is
//! input-independent like the hardware it models.
//!
//! Each layer has one forward method. It takes a batch of samples and
//! one [`MacView`] per multiplier site (the table plus an optional
//! accumulator fault); a single sample is a batch of one, and a bare
//! table is `MacView::clean(&lut)`. Each `Q*` type is the lowering
//! target of its float counterpart via
//! [`LowerToQuant`](crate::LowerToQuant); the [`QModel`](crate::QModel)
//! program composes them into end-to-end quantized inference for any
//! architecture.

use redcane_axmul::MulLut;
use redcane_capsnet::routing::softmax_over_j;
use redcane_capsnet::squash::{squash_caps, squash_slices};
use redcane_fxp::{FxpError, QuantParams};
use redcane_nn::layers::Conv2d;
use redcane_tensor::ops::Conv2dSpec;
use redcane_tensor::Tensor;

use redcane_capsnet::layers::{ClassCaps, ConvCaps2d, ConvCaps3d};

use redcane::faults::FaultModel;

use crate::faults::MacView;
use crate::kernels::{affine_dequant, col_sums, qgemm_nn, row_sums};
use crate::qtensor::{fault_codes, im2col_codes, quantize_codes};

// ------------------------------------------------------------ QConv2d

/// A [`Conv2d`] layer running its im2col GEMM through the quantized
/// datapath.
#[derive(Debug, Clone)]
pub struct QConv2d {
    qweight: Vec<u8>,
    wparams: QuantParams,
    wrowsums: Vec<u32>,
    bias: Vec<f32>,
    spec: Conv2dSpec,
    c_in: usize,
    c_out: usize,
    in_params: QuantParams,
}

impl QConv2d {
    /// Quantizes a trained convolution's weights (per-tensor range) and
    /// fixes the input quantization to `in_params`.
    ///
    /// # Errors
    ///
    /// Returns an error if the weights contain non-finite values.
    pub fn from_conv(conv: &Conv2d, in_params: QuantParams) -> Result<Self, FxpError> {
        let wparams = QuantParams::calibrate(conv.weight(), 8)?;
        let qweight = quantize_codes(conv.weight().data(), wparams);
        let spec = conv.spec();
        let k2 = conv.c_in() * spec.kernel * spec.kernel;
        let wrowsums = row_sums(&qweight, conv.c_out(), k2);
        Ok(QConv2d {
            qweight,
            wparams,
            wrowsums,
            bias: conv.bias().data().to_vec(),
            spec,
            c_in: conv.c_in(),
            c_out: conv.c_out(),
            in_params,
        })
    }

    /// The quantized weight codes (empirical operand pools).
    pub fn weight_codes(&self) -> &[u8] {
        &self.qweight
    }

    /// Applies a deterministic fault to the stored weight codes —
    /// modeling corrupted weight memory — and recomputes the
    /// zero-point-correction row sums from the faulted codes (the
    /// correction adders read the same memory). Element indices start
    /// at `base_index`; returns the next free index so multi-conv
    /// sites fault their concatenated storage consistently.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        let next = fault_codes(&mut self.qweight, model, seed, base_index);
        let k2 = self.c_in * self.spec.kernel * self.spec.kernel;
        self.wrowsums = row_sums(&self.qweight, self.c_out, k2);
        next
    }

    /// Forward over a batch of raw `[C_in, H, W]` slices, mirroring
    /// `Conv2d::forward_chw`. Every sample's im2col columns fuse into
    /// **one** wide quantized GEMM (`[C_out, K²] × [K², B·H'·W']`),
    /// whose dequantized output is split back into per-sample
    /// `[C_out, H', W']` tensors with the bias added. The column codes
    /// come from [`im2col_codes`]: each input element is quantized
    /// once, and padding lands on the code of 0.0, the affine zero
    /// point. Each output column reduces independently, so a sample's
    /// result does not depend on the rest of the batch.
    ///
    /// `view.acc`, when set, faults each accumulator after its
    /// reduction at the element's **sample-local** `c_out`-major
    /// position, not its position in the fused buffer, so every sample
    /// sees the same faulty accumulator lanes.
    ///
    /// # Panics
    ///
    /// Panics unless every input has `c_in * h * w` elements and `h`,
    /// `w` are valid geometry for the layer's kernel.
    pub fn forward_chw(
        &self,
        inputs: &[&[f32]],
        h: usize,
        w: usize,
        view: MacView<'_>,
    ) -> Vec<Tensor> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let bsz = inputs.len();
        // lint: allow(panic) — the documented contract: h and w are valid geometry for the kernel
        let h_out = self.spec.output_size(h).expect("valid geometry");
        // lint: allow(panic) — the documented contract: h and w are valid geometry for the kernel
        let w_out = self.spec.output_size(w).expect("valid geometry");
        let k2 = self.c_in * self.spec.kernel * self.spec.kernel;
        let n = h_out * w_out;
        let wide = bsz * n;
        let qcols = im2col_codes(inputs, self.c_in, h, w, self.spec, self.in_params)
            // lint: allow(panic) — the documented contract: inputs are c_in·h·w with valid geometry
            .expect("QConv2d batch input size");
        let mut acc = vec![0u32; self.c_out * wide];
        qgemm_nn(
            &self.qweight,
            &qcols,
            &mut acc,
            self.c_out,
            k2,
            wide,
            view.lut,
        );
        if let Some(f) = view.acc {
            // Fused element (co, bi·n + pi) is sample element (co, pi).
            for co in 0..self.c_out {
                let row = &mut acc[co * wide..(co + 1) * wide];
                for bi in 0..bsz {
                    for (pi, slot) in row[bi * n..bi * n + n].iter_mut().enumerate() {
                        *slot = f.apply(*slot, (co * n + pi) as u64);
                    }
                }
            }
        }
        let cs = col_sums(&qcols, k2, wide);
        let mut out = vec![0.0f32; self.c_out * wide];
        affine_dequant(
            &acc,
            &self.wrowsums,
            &cs,
            k2,
            self.wparams,
            self.in_params,
            &mut out,
        );
        (0..bsz)
            .map(|bi| {
                let mut o = vec![0.0f32; self.c_out * n];
                for co in 0..self.c_out {
                    let dst = &mut o[co * n..(co + 1) * n];
                    dst.copy_from_slice(&out[co * wide + bi * n..co * wide + bi * n + n]);
                    let b = self.bias[co];
                    if b != 0.0 {
                        for v in dst {
                            *v += b;
                        }
                    }
                }
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                Tensor::from_vec(o, &[self.c_out, h_out, w_out]).expect("conv output shape")
            })
            .collect()
    }
}

// ------------------------------------------------------------- QVotes

/// The `ClassCaps` vote transform `û_{j|i} = W_ij · u_i` through the
/// quantized datapath: `I` independent `(J·D_out × D_in)` GEMVs.
#[derive(Debug, Clone)]
pub struct QVotes {
    qweight: Vec<u8>,
    wparams: QuantParams,
    /// Per-`i` row sums, `[I, J·D_out]`.
    wrowsums: Vec<u32>,
    i_caps: usize,
    j_caps: usize,
    d_in: usize,
    d_out: usize,
    in_params: QuantParams,
}

impl QVotes {
    /// Quantizes a trained class-capsule layer's transformation
    /// matrices and fixes the unit-input quantization to `in_params`.
    ///
    /// # Errors
    ///
    /// Returns an error if the weights contain non-finite values.
    pub fn from_class_caps(layer: &ClassCaps, in_params: QuantParams) -> Result<Self, FxpError> {
        let (i_caps, j_caps, d_in, d_out) = layer.dims();
        let wparams = QuantParams::calibrate(layer.weight(), 8)?;
        let qweight = quantize_codes(layer.weight().data(), wparams);
        let wrowsums = row_sums(&qweight, i_caps * j_caps * d_out, d_in);
        Ok(QVotes {
            qweight,
            wparams,
            wrowsums,
            i_caps,
            j_caps,
            d_in,
            d_out,
            in_params,
        })
    }

    /// The quantized weight codes (empirical operand pools).
    pub fn weight_codes(&self) -> &[u8] {
        &self.qweight
    }

    /// As [`QConv2d::fault_weight_codes`]: faults the stored
    /// transformation-matrix codes and recomputes the per-`i` row sums.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        let next = fault_codes(&mut self.qweight, model, seed, base_index);
        self.wrowsums = row_sums(
            &self.qweight,
            self.i_caps * self.j_caps * self.d_out,
            self.d_in,
        );
        next
    }

    /// Computes the vote tensor `[I, J, D_out]` of each sample in a
    /// batch of units (`[I, D_in]` each). For each input capsule `i`,
    /// every sample's GEMV fuses into one `(J·D_out × D_in) × (D_in ×
    /// B)` quantized GEMM; each output column reduces independently.
    /// `view.acc`, when set, faults each accumulator at its
    /// sample-local `(i, row)` position.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn forward(&self, us: &[&Tensor], view: MacView<'_>) -> Vec<Tensor> {
        if us.is_empty() {
            return Vec::new();
        }
        let bsz = us.len();
        let rows = self.j_caps * self.d_out;
        let wstride = rows * self.d_in;
        let qus: Vec<Vec<u8>> = us
            .iter()
            .map(|u| {
                assert_eq!(u.shape(), [self.i_caps, self.d_in], "QVotes input");
                quantize_codes(u.data(), self.in_params)
            })
            .collect();
        let mut outs = vec![vec![0.0f32; self.i_caps * rows]; bsz];
        let mut bmat = vec![0u8; self.d_in * bsz];
        let mut acc = vec![0u32; rows * bsz];
        let mut dq = vec![0.0f32; rows * bsz];
        for i in 0..self.i_caps {
            for dk in 0..self.d_in {
                for (bi, qu) in qus.iter().enumerate() {
                    bmat[dk * bsz + bi] = qu[i * self.d_in + dk];
                }
            }
            acc.fill(0);
            qgemm_nn(
                &self.qweight[i * wstride..(i + 1) * wstride],
                &bmat,
                &mut acc,
                rows,
                self.d_in,
                bsz,
                view.lut,
            );
            if let Some(f) = view.acc {
                // Batched layout is [rows, bsz]; every sample shares
                // the accumulator slot of its (i, row) element.
                for (r, arow) in acc.chunks_exact_mut(bsz).enumerate() {
                    for slot in arow.iter_mut() {
                        *slot = f.apply(*slot, (i * rows + r) as u64);
                    }
                }
            }
            let cs = col_sums(&bmat, self.d_in, bsz);
            affine_dequant(
                &acc,
                &self.wrowsums[i * rows..(i + 1) * rows],
                &cs,
                self.d_in,
                self.wparams,
                self.in_params,
                &mut dq,
            );
            for (r, dqrow) in dq.chunks_exact(bsz).enumerate() {
                for (bi, &v) in dqrow.iter().enumerate() {
                    outs[bi][i * rows + r] = v;
                }
            }
        }
        outs.into_iter()
            .map(|o| {
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                Tensor::from_vec(o, &[self.i_caps, self.j_caps, self.d_out]).expect("votes shape")
            })
            .collect()
    }
}

// -------------------------------------------------- quantized routing

/// Dynamic routing-by-agreement with its two MAC sites — the weighted
/// sum `s_j = Σᵢ k_ij·û_{j|i}` and the agreement (logits-update) dot
/// `û·v` — running on quantized codes. The softmax and squash (the
/// accelerator's special-function units) stay in float and compute
/// exactly what the float routing computes.
///
/// `votes` is `[I, J, D]` (fully-connected capsules) or `[I, J, D, P]`
/// (convolutional capsules routing at every spatial position, as in
/// DeepCaps' `Caps3D`); returns the routed capsules `[J, D]` or
/// `[J, D, P]` respectively. `vote_params` / `coupling_params` /
/// `act_params` are the calibrated requantization ranges for the
/// votes, the coupling coefficients and the squashed capsules.
///
/// The two MAC sites are independent multiplier sites of a
/// heterogeneous datapath: `sum` serves the weighted sum (the
/// in-routing MAC-output site) and `agree` the agreement dot (the
/// logits-update site). Pass the same view twice for a homogeneous
/// routing block. Each view's optional accumulator fault indexes the
/// weighted-sum accumulator by its `(j, d, p)` slot and the agreement
/// accumulator by its `(i, j, p)` slot — physical accumulator
/// locations, reused across routing iterations, so a stuck lane
/// corrupts every iteration the way real hardware would.
///
/// # Panics
///
/// Panics unless `votes` is rank 3 or 4 and `iterations >= 1`.
pub fn quantized_routing(
    votes: &Tensor,
    iterations: usize,
    vote_params: QuantParams,
    coupling_params: QuantParams,
    act_params: QuantParams,
    sum: MacView<'_>,
    agree: MacView<'_>,
) -> Tensor {
    route(
        votes,
        iterations,
        vote_params,
        coupling_params,
        act_params,
        sum,
        agree,
        weighted_code_sums,
    )
}

/// The weighted sum's code products: `acc[j, d, p] = Σᵢ lut(qk[i, j, p],
/// qu[i, j, d, p])` over `[I, J, P]` coupling codes `qk` and `[I, J, D,
/// P]` vote codes `qu`, for `dims = (J, D, P)`. `acc` is `[J, D, P]`
/// and is overwritten.
type WeightedSum = fn(&[u8], &[u8], (usize, usize, usize), &MulLut, &mut [u32]);

/// [`WeightedSum`] with each coupling code's LUT row fetched once and
/// reused for the `D` vote codes it multiplies.
fn weighted_code_sums(
    qk: &[u8],
    qu: &[u8],
    (j_caps, d, p): (usize, usize, usize),
    lut: &MulLut,
    acc: &mut [u32],
) {
    acc.fill(0);
    let mut rows: Vec<&[u16; 256]> = Vec::with_capacity(p);
    for (k_i, u_i) in qk
        .chunks_exact(j_caps * p)
        .zip(qu.chunks_exact(j_caps * d * p))
    {
        for ((k_ij, u_ij), slots) in k_i
            .chunks_exact(p)
            .zip(u_i.chunks_exact(d * p))
            .zip(acc.chunks_exact_mut(d * p))
        {
            if let [kv] = k_ij {
                // P = 1: one row serves all D contiguous codes.
                let row = lut.row(*kv);
                for (o, &u) in slots.iter_mut().zip(u_ij) {
                    *o += u32::from(row[u as usize]);
                }
            } else {
                rows.clear();
                rows.extend(k_ij.iter().map(|&kv| lut.row(kv)));
                for (o_d, u_d) in slots.chunks_exact_mut(p).zip(u_ij.chunks_exact(p)) {
                    for ((o, &u), row) in o_d.iter_mut().zip(u_d).zip(&rows) {
                        *o += u32::from(row[u as usize]);
                    }
                }
            }
        }
    }
}

/// [`quantized_routing`] over a given [`WeightedSum`].
#[allow(clippy::too_many_arguments)]
fn route(
    votes: &Tensor,
    iterations: usize,
    vote_params: QuantParams,
    coupling_params: QuantParams,
    act_params: QuantParams,
    sum: MacView<'_>,
    agree: MacView<'_>,
    weighted: WeightedSum,
) -> Tensor {
    let (i_caps, j_caps, d, p, spatial) = match votes.ndim() {
        3 => (
            votes.shape()[0],
            votes.shape()[1],
            votes.shape()[2],
            1,
            false,
        ),
        4 => (
            votes.shape()[0],
            votes.shape()[1],
            votes.shape()[2],
            votes.shape()[3],
            true,
        ),
        // lint: allow(panic) — documented API contract: votes must be rank 3 or 4
        _ => panic!("quantized_routing expects [I, J, D] or [I, J, D, P]"),
    };
    assert!(iterations >= 1, "routing needs at least one iteration");
    // Same u32-accumulator contract as the qgemm kernels: the
    // weighted sum reduces over I, the agreement dot over D.
    debug_assert!(
        i_caps <= crate::kernels::MAX_ACC_K && d <= crate::kernels::MAX_ACC_K,
        "routing reduction ({i_caps} capsules, {d} dims) can overflow the u32 accumulator"
    );
    let qu = quantize_codes(votes.data(), vote_params);
    // Iteration-independent code sums for the corrections.
    // Σ_d qu[i,j,d,p] per (i, j, p) — the agreement dot's left-operand sum.
    let mut qu_ijp = vec![0u32; i_caps * j_caps * p];
    // Σ_i qu[i,j,d,p] per (j, d, p) — the weighted sum's vote-operand sum.
    let mut qu_jdp = vec![0u32; j_caps * d * p];
    for ij in 0..i_caps * j_caps {
        let j = ij % j_caps;
        for di in 0..d {
            for pi in 0..p {
                let code = qu[(ij * d + di) * p + pi] as u32;
                qu_ijp[ij * p + pi] += code;
                qu_jdp[(j * d + di) * p + pi] += code;
            }
        }
    }
    let (lu, min_u) = (vote_params.lsb(), vote_params.min());
    let (lk, min_k) = (coupling_params.lsb(), coupling_params.min());
    let (lv, min_v) = (act_params.lsb(), act_params.min());

    let mut b = vec![0.0f32; i_caps * j_caps * p];
    let mut k = vec![0.0f32; i_caps * j_caps * p];
    let mut s = vec![0.0f32; j_caps * d * p];
    let mut s_acc = vec![0u32; j_caps * d * p];
    let mut v = vec![0.0f32; j_caps * d * p];
    let mut qk_jp = vec![0u32; j_caps * p];
    for iter in 0..iterations {
        // Coupling coefficients: softmax over J (float SFU). Iteration 0
        // sees b == 0, for which the softmax is exactly uniform.
        if iter == 0 {
            k.fill(1.0 / j_caps as f32);
        } else {
            softmax_over_j(&b, &mut k, i_caps, j_caps, p);
        }
        let qk = quantize_codes(&k, coupling_params);
        // Σ_i qk[i,j,p] per (j, p).
        qk_jp.fill(0);
        for i in 0..i_caps {
            for (slot, &kv) in qk_jp
                .iter_mut()
                .zip(&qk[i * j_caps * p..(i + 1) * j_caps * p])
            {
                *slot += kv as u32;
            }
        }
        // Weighted sum s[j,d,p] = Σ_i k[i,j,p]·u[i,j,d,p] on codes,
        // then squash (float SFU).
        weighted(&qk, &qu, (j_caps, d, p), sum.lut, &mut s_acc);
        for j in 0..j_caps {
            for di in 0..d {
                for pi in 0..p {
                    // The physical accumulator slot of element
                    // (j, d, p), reused every routing iteration.
                    let slot = (j * d + di) * p + pi;
                    let acc = sum
                        .acc
                        .map_or(s_acc[slot], |f| f.apply(s_acc[slot], slot as u64));
                    s[slot] = lk * lu * acc as f32
                        + lk * min_u * qk_jp[j * p + pi] as f32
                        + lu * min_k * qu_jdp[slot] as f32
                        + i_caps as f32 * min_k * min_u;
                }
            }
        }
        squash_slices(&s, &mut v, j_caps, d, p);
        if iter + 1 == iterations {
            break;
        }
        // Agreement b[i,j,p] += Σ_d û[i,j,d,p]·v[j,d,p] on codes.
        let qv = quantize_codes(&v, act_params);
        // Σ_d qv[j,d,p] per (j, p).
        let mut qv_jp = vec![0u32; j_caps * p];
        for j in 0..j_caps {
            for di in 0..d {
                for pi in 0..p {
                    qv_jp[j * p + pi] += qv[(j * d + di) * p + pi] as u32;
                }
            }
        }
        for i in 0..i_caps {
            for j in 0..j_caps {
                for pi in 0..p {
                    let mut acc = 0u32;
                    for di in 0..d {
                        acc += agree.lut.mul(
                            qu[((i * j_caps + j) * d + di) * p + pi],
                            qv[(j * d + di) * p + pi],
                        ) as u32;
                    }
                    if let Some(f) = agree.acc {
                        acc = f.apply(acc, ((i * j_caps + j) * p + pi) as u64);
                    }
                    b[(i * j_caps + j) * p + pi] += lu * lv * acc as f32
                        + lu * min_v * qu_ijp[(i * j_caps + j) * p + pi] as f32
                        + lv * min_u * qv_jp[j * p + pi] as f32
                        + d as f32 * min_u * min_v;
                }
            }
        }
    }
    let shape: &[usize] = if spatial {
        &[j_caps, d, p]
    } else {
        &[j_caps, d]
    };
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    Tensor::from_vec(v, shape).expect("routed capsules")
}

// --------------------------------------------------------- QConvCaps2d

/// A [`ConvCaps2d`] layer on the quantized datapath: the channel-folded
/// convolution runs on 8-bit codes; the per-capsule squash (when the
/// layer applies one) stays in float, as on the accelerator's SFU.
#[derive(Debug, Clone)]
pub struct QConvCaps2d {
    conv: QConv2d,
    c_in: usize,
    d_in: usize,
    c_out: usize,
    d_out: usize,
    apply_squash: bool,
}

impl QConvCaps2d {
    /// Lowers a trained conv-caps layer with its input quantization
    /// fixed to `in_params`.
    ///
    /// # Errors
    ///
    /// Returns an error if the weights contain non-finite values.
    pub fn from_conv_caps(layer: &ConvCaps2d, in_params: QuantParams) -> Result<Self, FxpError> {
        let (c_in, d_in) = layer.in_caps();
        let (c_out, d_out) = layer.out_caps();
        Ok(QConvCaps2d {
            conv: QConv2d::from_conv(layer.conv(), in_params)?,
            c_in,
            d_in,
            c_out,
            d_out,
            apply_squash: layer.applies_squash(),
        })
    }

    /// The wrapped quantized convolution.
    pub fn conv(&self) -> &QConv2d {
        &self.conv
    }

    /// Faults the wrapped convolution's stored weight codes (see
    /// [`QConv2d::fault_weight_codes`]). Returns the next free index.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        self.conv.fault_weight_codes(model, seed, base_index)
    }

    /// Forward over a batch of capsule tensors whose leading axes fold
    /// to `C_in·D_in` channels (`[C, D, H, W]`, or `[C·D, H, W]`), all
    /// of one spatial size; returns `[C_out, D_out, H',
    /// W']` capsules per sample — squashed when the float layer
    /// squashes, pre-activation otherwise. The convolution is one fused
    /// wide GEMM across the batch ([`QConv2d::forward_chw`]) under
    /// `view`.
    ///
    /// # Panics
    ///
    /// Panics on a geometry mismatch.
    pub fn forward(&self, xs: &[&Tensor], view: MacView<'_>) -> Vec<Tensor> {
        if xs.is_empty() {
            return Vec::new();
        }
        let nd = xs[0].ndim();
        assert!(nd >= 3, "QConvCaps2d expects at least [C, H, W]");
        let (h, w) = (xs[0].shape()[nd - 2], xs[0].shape()[nd - 1]);
        let inputs: Vec<&[f32]> = xs
            .iter()
            .map(|x| {
                assert_eq!(
                    x.len(),
                    self.c_in * self.d_in * h * w,
                    "QConvCaps2d input capsules"
                );
                x.data()
            })
            .collect();
        self.conv
            .forward_chw(&inputs, h, w, view)
            .into_iter()
            .map(|y| self.finish(y))
            .collect()
    }

    /// Unfolds one sample's `[C_out·D_out, H', W']` convolution output
    /// into capsules and squashes them when the float layer does.
    fn finish(&self, y: Tensor) -> Tensor {
        let (h_out, w_out) = (y.shape()[1], y.shape()[2]);
        let p = h_out * w_out;
        let s = y
            .into_reshaped(&[self.c_out, self.d_out, p])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("capsule unfold");
        let out = if self.apply_squash {
            squash_caps(&s)
        } else {
            s
        };
        out.into_reshaped(&[self.c_out, self.d_out, h_out, w_out])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("spatial unfold")
    }
}

// --------------------------------------------------------- QConvCaps3d

/// A [`ConvCaps3d`] layer on the quantized datapath: per-type vote
/// convolutions and both routing MAC sites run on 8-bit codes
/// ([`quantized_routing`] with `P = H'·W'` spatial positions); softmax
/// and squash stay in float.
#[derive(Debug, Clone)]
pub struct QConvCaps3d {
    convs: Vec<QConv2d>,
    c_in: usize,
    d_in: usize,
    c_out: usize,
    d_out: usize,
    iterations: usize,
    vote_params: QuantParams,
    coupling_params: QuantParams,
    act_params: QuantParams,
}

impl QConvCaps3d {
    /// Lowers a trained routing conv-caps layer. `in_params` fixes the
    /// vote convolutions' input quantization; `vote_params` /
    /// `coupling_params` / `act_params` are the routing requantization
    /// ranges.
    ///
    /// # Errors
    ///
    /// Returns an error if any vote convolution's weights contain
    /// non-finite values.
    pub fn from_conv_caps(
        layer: &ConvCaps3d,
        in_params: QuantParams,
        vote_params: QuantParams,
        coupling_params: QuantParams,
        act_params: QuantParams,
    ) -> Result<Self, FxpError> {
        let (c_in, d_in) = layer.in_caps();
        let (c_out, d_out) = layer.out_caps();
        let convs = layer
            .convs()
            .iter()
            .map(|c| QConv2d::from_conv(c, in_params))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(QConvCaps3d {
            convs,
            c_in,
            d_in,
            c_out,
            d_out,
            iterations: layer.iterations(),
            vote_params,
            coupling_params,
            act_params,
        })
    }

    /// The per-input-type quantized vote convolutions.
    pub fn convs(&self) -> &[QConv2d] {
        &self.convs
    }

    /// Faults every vote convolution's stored weight codes under one
    /// shared index space (the site's weight memory holds all types
    /// back to back). Returns the next free index.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        let mut index = base_index;
        for conv in &mut self.convs {
            index = conv.fault_weight_codes(model, seed, index);
        }
        index
    }

    /// Forward over a batch of `[C_in, D_in, H, W]` capsules; returns
    /// the routed `[C_out, D_out, H', W']` capsules per sample. Three
    /// independently assignable multiplier sites: `conv` serves the
    /// vote convolutions, `sum` the routing weighted sum and `agree`
    /// the agreement dot. Each per-type vote convolution fuses across
    /// the whole batch (one wide GEMM per type); the routing — whose
    /// coupling coefficients are input-dependent — runs per sample.
    ///
    /// # Panics
    ///
    /// Panics on a geometry mismatch.
    pub fn forward(
        &self,
        xs: &[&Tensor],
        conv: MacView<'_>,
        sum: MacView<'_>,
        agree: MacView<'_>,
    ) -> Vec<Tensor> {
        if xs.is_empty() {
            return Vec::new();
        }
        let bsz = xs.len();
        for x in xs {
            assert_eq!(x.ndim(), 4, "QConvCaps3d expects [C, D, H, W]");
            assert_eq!(x.shape()[0], self.c_in, "capsule types");
            assert_eq!(x.shape()[1], self.d_in, "capsule dims");
        }
        let (h, w) = (xs[0].shape()[2], xs[0].shape()[3]);
        let type_len = self.d_in * h * w;
        // Per-type vote convolutions across the batch, assembled as
        // per-sample votes [I, J, D, P].
        let mut flats: Vec<Vec<f32>> = vec![Vec::new(); bsz];
        let mut out_hw = (0usize, 0usize);
        for (i, c) in self.convs.iter().enumerate() {
            let inputs: Vec<&[f32]> = xs
                .iter()
                .map(|x| &x.data()[i * type_len..(i + 1) * type_len])
                .collect();
            for (bi, vi) in c.forward_chw(&inputs, h, w, conv).into_iter().enumerate() {
                out_hw = (vi.shape()[1], vi.shape()[2]);
                if flats[bi].is_empty() {
                    flats[bi].reserve_exact(self.c_in * vi.len());
                }
                flats[bi].extend_from_slice(vi.data());
            }
        }
        let (h_out, w_out) = out_hw;
        let p = h_out * w_out;
        flats
            .into_iter()
            .map(|flat| {
                let votes = Tensor::from_vec(flat, &[self.c_in, self.c_out, self.d_out, p])
                    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                    .expect("vote assembly");
                let v = quantized_routing(
                    &votes,
                    self.iterations,
                    self.vote_params,
                    self.coupling_params,
                    self.act_params,
                    sum,
                    agree,
                );
                v.into_reshaped(&[self.c_out, self.d_out, h_out, w_out])
                    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                    .expect("spatial unfold")
            })
            .collect()
    }
}

// ---------------------------------------------------------- QClassCaps

/// A [`ClassCaps`] layer on the quantized datapath: the vote transform
/// ([`QVotes`]) and both routing MAC sites run on 8-bit codes.
#[derive(Debug, Clone)]
pub struct QClassCaps {
    votes: QVotes,
    iterations: usize,
    vote_params: QuantParams,
    coupling_params: QuantParams,
    act_params: QuantParams,
}

impl QClassCaps {
    /// Lowers a trained class-capsule layer. `in_params` fixes the unit
    /// input quantization; `vote_params` / `coupling_params` /
    /// `act_params` are the routing requantization ranges.
    ///
    /// # Errors
    ///
    /// Returns an error if the weights contain non-finite values.
    pub fn from_class_caps(
        layer: &ClassCaps,
        in_params: QuantParams,
        vote_params: QuantParams,
        coupling_params: QuantParams,
        act_params: QuantParams,
    ) -> Result<Self, FxpError> {
        Ok(QClassCaps {
            votes: QVotes::from_class_caps(layer, in_params)?,
            iterations: layer.iterations(),
            vote_params,
            coupling_params,
            act_params,
        })
    }

    /// The wrapped quantized vote transform.
    pub fn votes(&self) -> &QVotes {
        &self.votes
    }

    /// Faults the vote transform's stored weight codes (see
    /// [`QVotes::fault_weight_codes`]). Returns the next free index.
    pub fn fault_weight_codes(&mut self, model: &FaultModel, seed: u64, base_index: u64) -> u64 {
        self.votes.fault_weight_codes(model, seed, base_index)
    }

    /// Forward over a batch of units `[I, D_in]`; returns the routed
    /// class capsules `[J, D_out]` per sample. Three independently
    /// assignable multiplier sites: `vote` serves the vote transform,
    /// `sum` the routing weighted sum and `agree` the agreement dot.
    /// The vote transform fuses across the batch ([`QVotes::forward`]);
    /// routing runs per sample.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn forward(
        &self,
        us: &[&Tensor],
        vote: MacView<'_>,
        sum: MacView<'_>,
        agree: MacView<'_>,
    ) -> Vec<Tensor> {
        self.votes
            .forward(us, vote)
            .iter()
            .map(|votes| {
                quantized_routing(
                    votes,
                    self.iterations,
                    self.vote_params,
                    self.coupling_params,
                    self.act_params,
                    sum,
                    agree,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::AccFault;
    use redcane_axmul::mult::TruncatedMultiplier;
    use redcane_axmul::MulLut;
    use redcane_capsnet::routing::dynamic_routing;
    use redcane_capsnet::NoInjection;
    use redcane_nn::Layer;
    use redcane_tensor::TensorRng;

    fn p(min: f32, max: f32) -> QuantParams {
        QuantParams::from_range(min, max, 8).unwrap()
    }

    /// The output of a batch of one.
    fn one(mut ys: Vec<Tensor>) -> Tensor {
        assert_eq!(ys.len(), 1);
        ys.pop().unwrap()
    }

    /// Shape plus raw bit patterns, for bit-for-bit comparisons.
    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (
            t.shape().to_vec(),
            t.data().iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// An active accumulator fault: about one bit in twenty flips.
    fn flips(seed: u64) -> AccFault {
        AccFault::new(FaultModel::BitFlip { ber: 0.05 }, seed)
    }

    /// A view over `lut` whose accumulators `acc` faults.
    fn faulty<'a>(lut: &'a MulLut, acc: &'a AccFault) -> MacView<'a> {
        MacView {
            lut,
            acc: Some(acc),
        }
    }

    /// Independent oracle for [`QVotes::forward`]: one sample at a
    /// time, one `(J·D_out × D_in)` GEMV per input capsule, with the
    /// accumulator fault at the `(i, row)` slot. Shares nothing with
    /// the batched path's `bmat` interleave.
    fn votes_per_sample(q: &QVotes, u: &Tensor, view: MacView<'_>) -> Tensor {
        let qu = quantize_codes(u.data(), q.in_params);
        let rows = q.j_caps * q.d_out;
        let wstride = rows * q.d_in;
        let mut out = vec![0.0f32; q.i_caps * rows];
        let mut acc = vec![0u32; rows];
        for i in 0..q.i_caps {
            let qu_i = &qu[i * q.d_in..(i + 1) * q.d_in];
            acc.fill(0);
            qgemm_nn(
                &q.qweight[i * wstride..(i + 1) * wstride],
                qu_i,
                &mut acc,
                rows,
                q.d_in,
                1,
                view.lut,
            );
            if let Some(f) = view.acc {
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot = f.apply(*slot, (i * rows + r) as u64);
                }
            }
            let cs = col_sums(qu_i, q.d_in, 1);
            affine_dequant(
                &acc,
                &q.wrowsums[i * rows..(i + 1) * rows],
                &cs,
                q.d_in,
                q.wparams,
                q.in_params,
                &mut out[i * rows..(i + 1) * rows],
            );
        }
        Tensor::from_vec(out, &[q.i_caps, q.j_caps, q.d_out]).unwrap()
    }

    /// Independent oracle [`WeightedSum`] for the routing: one slot at
    /// a time, one `lut.mul` per product, no row reuse.
    fn weighted_code_sums_per_element(
        qk: &[u8],
        qu: &[u8],
        (j_caps, d, p): (usize, usize, usize),
        lut: &MulLut,
        acc: &mut [u32],
    ) {
        let i_caps = qk.len() / (j_caps * p);
        for j in 0..j_caps {
            for di in 0..d {
                for pi in 0..p {
                    let mut sum = 0u32;
                    for i in 0..i_caps {
                        sum += u32::from(lut.mul(
                            qk[(i * j_caps + j) * p + pi],
                            qu[((i * j_caps + j) * d + di) * p + pi],
                        ));
                    }
                    acc[(j * d + di) * p + pi] = sum;
                }
            }
        }
    }

    /// The row-hoisted weighted sum must reproduce the per-element
    /// oracle bit for bit through the whole routing — rank-3 and
    /// rank-4 votes, an approximate table, active accumulator faults on
    /// both MAC sites.
    #[test]
    fn quantized_routing_matches_the_per_element_weighted_sum() {
        let mut rng = TensorRng::from_seed(509);
        let lut = MulLut::tabulate(&TruncatedMultiplier::new(4));
        let (sum_fault, agree_fault) = (flips(11), flips(12));
        for shape in [&[8, 4, 5][..], &[4, 3, 4, 6][..]] {
            let votes = rng.uniform(shape, -1.0, 1.0);
            let params = QuantParams::calibrate(&votes, 8).unwrap();
            let run = |sum: MacView<'_>, agree: MacView<'_>, weighted: WeightedSum| {
                route(
                    &votes,
                    3,
                    params,
                    p(0.0, 1.0),
                    p(-1.0, 1.0),
                    sum,
                    agree,
                    weighted,
                )
            };
            let (sum, agree) = (faulty(&lut, &sum_fault), faulty(&lut, &agree_fault));
            let got = quantized_routing(&votes, 3, params, p(0.0, 1.0), p(-1.0, 1.0), sum, agree);
            let want = run(sum, agree, weighted_code_sums_per_element);
            assert_eq!(bits(&got), bits(&want), "votes {shape:?}");
            // The faults are live: they change the routed capsules.
            let clean = run(
                MacView::clean(&lut),
                MacView::clean(&lut),
                weighted_code_sums_per_element,
            );
            assert_ne!(bits(&got), bits(&clean), "votes {shape:?}");
        }
    }

    #[test]
    fn qconv_with_exact_lut_tracks_float_conv() {
        let mut rng = TensorRng::from_seed(501);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[2, 6, 6], -1.0, 1.0);
        let want = conv.forward(&x);
        let q = QConv2d::from_conv(&conv, p(-1.0, 1.0)).unwrap();
        let exact = MulLut::exact();
        let got = one(q.forward_chw(&[x.data()], 6, 6, MacView::clean(&exact)));
        assert_eq!(got.shape(), want.shape());
        let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let mut total = 0.0f32;
        for (a, b) in want.data().iter().zip(got.data()) {
            let err = (a - b).abs();
            total += err;
            assert!(err < 0.1 * (1.0 + scale), "float {a} vs quantized {b}");
        }
        let mean = total / want.len() as f32;
        assert!(mean < 0.02 * (1.0 + scale), "mean error {mean}");
    }

    #[test]
    fn qvotes_with_exact_lut_tracks_float_votes() {
        let mut rng = TensorRng::from_seed(502);
        let layer = ClassCaps::new(0, "CC", 6, 4, 3, 5, 3, &mut rng);
        let u = rng.uniform(&[6, 3], -1.0, 1.0);
        let q = QVotes::from_class_caps(&layer, p(-1.0, 1.0)).unwrap();
        let exact = MulLut::exact();
        let got = one(q.forward(&[&u], MacView::clean(&exact)));
        assert_eq!(got.shape(), &[6, 4, 5]);
        // Float oracle: û_{j|i} = W_ij · u_i by direct loops.
        let w = layer.weight().data();
        for i in 0..6 {
            for j in 0..4 {
                for di in 0..5 {
                    let mut want = 0.0f32;
                    for dk in 0..3 {
                        want += w[((i * 4 + j) * 5 + di) * 3 + dk] * u.data()[i * 3 + dk];
                    }
                    let have = got.data()[(i * 4 + j) * 5 + di];
                    assert!((want - have).abs() < 0.05, "vote [{i},{j},{di}]");
                }
            }
        }
    }

    #[test]
    fn quantized_routing_with_exact_lut_tracks_float_routing() {
        let mut rng = TensorRng::from_seed(503);
        let (i_caps, j_caps, d) = (8, 4, 5);
        let votes3 = rng.uniform(&[i_caps, j_caps, d], -1.0, 1.0);
        let votes4 = votes3.reshape(&[i_caps, j_caps, d, 1]).unwrap();
        let cache = dynamic_routing(votes4, 3, 0, "X", &mut NoInjection);
        let want = cache.v.reshape(&[j_caps, d]).unwrap();
        let exact = MulLut::exact();
        let got = quantized_routing(
            &votes3,
            3,
            QuantParams::calibrate(&votes3, 8).unwrap(),
            p(0.0, 1.0),
            p(-1.0, 1.0),
            MacView::clean(&exact),
            MacView::clean(&exact),
        );
        assert_eq!(got.shape(), &[j_caps, d]);
        for (a, b) in want.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.05, "float {a} vs quantized {b}");
        }
    }

    /// The spatial (P > 1) form — the Caps3D routing geometry — must
    /// track the float routing at every position.
    #[test]
    fn quantized_routing_spatial_tracks_float_routing() {
        let mut rng = TensorRng::from_seed(507);
        let (i_caps, j_caps, d, p_dim) = (4, 3, 4, 6);
        let votes = rng.uniform(&[i_caps, j_caps, d, p_dim], -1.0, 1.0);
        let cache = dynamic_routing(votes.clone(), 3, 0, "X", &mut NoInjection);
        let exact = MulLut::exact();
        let got = quantized_routing(
            &votes,
            3,
            QuantParams::calibrate(&votes, 8).unwrap(),
            p(0.0, 1.0),
            p(-1.0, 1.0),
            MacView::clean(&exact),
            MacView::clean(&exact),
        );
        assert_eq!(got.shape(), &[j_caps, d, p_dim]);
        for (a, b) in cache.v.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.05, "float {a} vs quantized {b}");
        }
    }

    #[test]
    fn qconv_caps2d_with_exact_lut_tracks_float_layer() {
        let mut rng = TensorRng::from_seed(508);
        let exact = MulLut::exact();
        for apply_squash in [true, false] {
            let mut layer = ConvCaps2d::new(0, "C2", 2, 4, 3, 4, 3, 2, 1, apply_squash, &mut rng);
            let x = rng.uniform(&[2, 4, 8, 8], -1.0, 1.0);
            let want = layer.forward(&x, &mut NoInjection);
            let q = QConvCaps2d::from_conv_caps(&layer, p(-1.0, 1.0)).unwrap();
            let got = one(q.forward(&[&x], MacView::clean(&exact)));
            assert_eq!(got.shape(), want.shape());
            let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (a, b) in want.data().iter().zip(got.data()) {
                assert!(
                    (a - b).abs() < 0.1 * (1.0 + scale),
                    "squash={apply_squash}: float {a} vs quantized {b}"
                );
            }
        }
    }

    #[test]
    fn qconv_caps3d_with_exact_lut_tracks_float_layer() {
        let mut rng = TensorRng::from_seed(509);
        let mut layer = ConvCaps3d::new(0, "C3", 3, 4, 2, 4, 3, 1, 1, 3, &mut rng);
        let x = rng.uniform(&[3, 4, 4, 4], -1.0, 1.0);
        let want = layer.forward(&x, &mut NoInjection);
        // Calibrate the routing ranges from the float layer's own taps.
        let mut obs = crate::CalibrationObserver::new();
        let mut probe = layer.clone();
        let _ = probe.forward(&x, &mut obs);
        let ranges = obs.ranges(8).unwrap();
        let q = QConvCaps3d::from_conv_caps(
            &layer,
            ranges.get("C3", redcane_capsnet::OpKind::MacInput).unwrap(),
            ranges
                .get("C3", redcane_capsnet::OpKind::MacOutput)
                .unwrap(),
            ranges
                .get_routing("C3", redcane_capsnet::OpKind::Softmax)
                .unwrap(),
            ranges
                .get_routing("C3", redcane_capsnet::OpKind::Activation)
                .unwrap(),
        )
        .unwrap();
        let lut = MulLut::exact();
        let exact = MacView::clean(&lut);
        let got = one(q.forward(&[&x], exact, exact, exact));
        assert_eq!(got.shape(), want.shape());
        for (a, b) in want.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.12, "float {a} vs quantized {b}");
        }
    }

    #[test]
    fn qclass_caps_with_exact_lut_tracks_float_layer() {
        let mut rng = TensorRng::from_seed(510);
        let mut layer = ClassCaps::new(0, "CC", 12, 10, 4, 8, 3, &mut rng);
        let u = rng.uniform(&[12, 4], -1.0, 1.0);
        let want = layer.forward(&u, &mut NoInjection);
        let mut obs = crate::CalibrationObserver::new();
        let mut probe = layer.clone();
        let _ = probe.forward(&u, &mut obs);
        let ranges = obs.ranges(8).unwrap();
        let q = QClassCaps::from_class_caps(
            &layer,
            ranges.get("CC", redcane_capsnet::OpKind::MacInput).unwrap(),
            ranges
                .get("CC", redcane_capsnet::OpKind::MacOutput)
                .unwrap(),
            ranges
                .get_routing("CC", redcane_capsnet::OpKind::Softmax)
                .unwrap(),
            ranges
                .get_routing("CC", redcane_capsnet::OpKind::Activation)
                .unwrap(),
        )
        .unwrap();
        let lut = MulLut::exact();
        let exact = MacView::clean(&lut);
        let got = one(q.forward(&[&u], exact, exact, exact));
        assert_eq!(got.shape(), want.shape());
        for (a, b) in want.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.1, "float {a} vs quantized {b}");
        }
    }

    /// A fused wide-GEMM batch of B must equal B batches of one, bit
    /// for bit, with and without an active accumulator fault:
    /// quantization is elementwise, every output column's integer
    /// reduction is independent of the others, and the fault indexes
    /// each accumulator by its sample-local `co·n + pi` position.
    #[test]
    fn conv_batch_is_bit_identical_to_per_sample() {
        let mut rng = TensorRng::from_seed(520);
        let conv = Conv2d::new(3, 5, 3, 1, 1, &mut rng);
        let q = QConv2d::from_conv(&conv, p(-1.0, 1.0)).unwrap();
        let lut = MulLut::exact();
        let fault = flips(11);
        let xs: Vec<Tensor> = (0..5).map(|_| rng.uniform(&[3, 6, 6], -1.0, 1.0)).collect();
        let inputs: Vec<&[f32]> = xs.iter().map(|x| x.data()).collect();
        let clean = q.forward_chw(&inputs, 6, 6, MacView::clean(&lut));
        let faulty = faulty(&lut, &fault);
        let batched = q.forward_chw(&inputs, 6, 6, faulty);
        for (bi, x) in inputs.iter().enumerate() {
            let single = one(q.forward_chw(&[x], 6, 6, faulty));
            assert_eq!(bits(&single), bits(&batched[bi]), "sample {bi}");
            let single = one(q.forward_chw(&[x], 6, 6, MacView::clean(&lut)));
            assert_eq!(bits(&single), bits(&clean[bi]), "clean sample {bi}");
        }
        assert_ne!(bits(&batched[0]), bits(&clean[0]), "the fault is active");
        assert!(q.forward_chw(&[], 6, 6, faulty).is_empty());
    }

    /// As `conv_batch_is_bit_identical_to_per_sample`, for the vote
    /// transform's `bmat` interleave and its `i·rows + r` fault index;
    /// the per-sample GEMV oracle checks the same outputs.
    #[test]
    fn votes_batch_is_bit_identical_to_per_sample() {
        let mut rng = TensorRng::from_seed(521);
        let layer = ClassCaps::new(0, "CC", 6, 4, 3, 5, 3, &mut rng);
        let q = QVotes::from_class_caps(&layer, p(-1.0, 1.0)).unwrap();
        let lut = MulLut::tabulate(&TruncatedMultiplier::new(5));
        let fault = flips(12);
        let us: Vec<Tensor> = (0..4).map(|_| rng.uniform(&[6, 3], -1.0, 1.0)).collect();
        let refs: Vec<&Tensor> = us.iter().collect();
        for view in [MacView::clean(&lut), faulty(&lut, &fault)] {
            let batched = q.forward(&refs, view);
            for (u, got) in us.iter().zip(&batched) {
                assert_eq!(bits(&one(q.forward(&[u], view))), bits(got));
                assert_eq!(bits(&votes_per_sample(&q, u, view)), bits(got));
            }
        }
        assert_ne!(
            bits(&one(q.forward(&refs[..1], faulty(&lut, &fault)))),
            bits(&one(q.forward(&refs[..1], MacView::clean(&lut)))),
            "the fault is active"
        );
    }

    /// As `conv_batch_is_bit_identical_to_per_sample`, for Caps3D with
    /// an active fault at all three sites: the per-type vote
    /// convolutions fuse across the batch, and the per-sample routing
    /// faults its weighted sum at `(j·d + di)·p + pi` and its agreement
    /// at `(i·j_caps + j)·p + pi`.
    #[test]
    fn caps3d_batch_is_bit_identical_to_per_sample() {
        let mut rng = TensorRng::from_seed(522);
        let layer = ConvCaps3d::new(0, "C3", 3, 4, 2, 4, 3, 1, 1, 3, &mut rng);
        let q = QConvCaps3d::from_conv_caps(
            &layer,
            p(-1.0, 1.0),
            p(-2.0, 2.0),
            p(0.0, 1.0),
            p(-1.0, 1.0),
        )
        .unwrap();
        let lut = MulLut::tabulate(&TruncatedMultiplier::new(4));
        let (f_conv, f_sum, f_agree) = (flips(21), flips(22), flips(23));
        let (conv, sum, agree) = (
            faulty(&lut, &f_conv),
            faulty(&lut, &f_sum),
            faulty(&lut, &f_agree),
        );
        let xs: Vec<Tensor> = (0..3)
            .map(|_| rng.uniform(&[3, 4, 4, 4], -1.0, 1.0))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let batched = q.forward(&refs, conv, sum, agree);
        for (x, got) in refs.iter().zip(&batched) {
            assert_eq!(bits(&one(q.forward(&[x], conv, sum, agree))), bits(got));
        }
        let clean = MacView::clean(&lut);
        assert_ne!(
            bits(&one(q.forward(&refs[..1], clean, clean, clean))),
            bits(&batched[0]),
            "the faults are active"
        );
    }

    /// As `caps3d_batch_is_bit_identical_to_per_sample`, for ClassCaps:
    /// fused votes, then per-sample routing under faults at all three
    /// sites.
    #[test]
    fn class_caps_batch_is_bit_identical_to_per_sample() {
        let mut rng = TensorRng::from_seed(523);
        let layer = ClassCaps::new(0, "CC", 12, 10, 4, 8, 3, &mut rng);
        let q = QClassCaps::from_class_caps(
            &layer,
            p(-1.0, 1.0),
            p(-1.0, 1.0),
            p(0.0, 1.0),
            p(-1.0, 1.0),
        )
        .unwrap();
        let lut = MulLut::tabulate(&TruncatedMultiplier::new(4));
        let (f_vote, f_sum, f_agree) = (flips(31), flips(32), flips(33));
        let (vote, sum, agree) = (
            faulty(&lut, &f_vote),
            faulty(&lut, &f_sum),
            faulty(&lut, &f_agree),
        );
        let us: Vec<Tensor> = (0..3).map(|_| rng.uniform(&[12, 4], -1.0, 1.0)).collect();
        let refs: Vec<&Tensor> = us.iter().collect();
        let batched = q.forward(&refs, vote, sum, agree);
        for (u, got) in refs.iter().zip(&batched) {
            assert_eq!(bits(&one(q.forward(&[u], vote, sum, agree))), bits(got));
        }
        let clean = MacView::clean(&lut);
        assert_ne!(
            bits(&one(q.forward(&refs[..1], clean, clean, clean))),
            bits(&batched[0]),
            "the faults are active"
        );
    }
}
