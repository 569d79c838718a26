//! Individual network layers with explicit forward/backward passes.
//!
//! Layers operate on mini-batches stored as `(batch, features)` matrices;
//! spatial layers (conv / pool) interpret the feature axis as a flattened
//! `(channels, height, width)` volume whose dimensions are fixed at
//! construction time.

use serde::{Deserialize, Serialize};
use shiftex_tensor::{vector, Matrix};

/// A single differentiable layer.
///
/// The enum (rather than a trait object) keeps models `Clone + Serialize`,
/// which federated averaging and the expert registry rely on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected layer: `y = x·W + b` with `W: (in, out)`.
    Dense {
        /// Weight matrix of shape `(fan_in, fan_out)`.
        w: Matrix,
        /// Bias vector of length `fan_out`.
        b: Vec<f32>,
    },
    /// Rectified linear activation, elementwise `max(0, x)`.
    Relu,
    /// Hyperbolic tangent activation.
    Tanh,
    /// 2-D convolution with odd kernel, stride 1 and "same" zero padding.
    Conv2d {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel side length (odd).
        k: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Filter bank of shape `(out_c, in_c * k * k)`.
        weight: Matrix,
        /// Per-output-channel bias.
        bias: Vec<f32>,
    },
    /// 2×2 max pooling with stride 2 over a `(c, h, w)` volume.
    MaxPool2d {
        /// Channels.
        c: usize,
        /// Input height (must be even).
        h: usize,
        /// Input width (must be even).
        w: usize,
    },
    /// Per-sample standardisation: each row is shifted/scaled to zero mean,
    /// unit variance. Placed at the input of every architecture — the
    /// equivalent of the per-image normalisation in standard vision
    /// pipelines, and what keeps local training stable when covariate
    /// shifts inflate input magnitudes.
    InstanceNorm,
}

/// Forward-pass state a layer needs to run its backward pass.
#[derive(Debug, Clone)]
pub enum LayerCache {
    /// Dense: the layer input.
    Dense(Matrix),
    /// ReLU: the layer output (used as the activity mask).
    Relu(Matrix),
    /// Tanh: the layer output.
    Tanh(Matrix),
    /// Conv: the layer input.
    Conv(Matrix),
    /// MaxPool: per-output flat index of the winning input element.
    Pool(Vec<usize>, usize),
    /// InstanceNorm: normalised output plus per-row std.
    Norm(Matrix, Vec<f32>),
}

/// Gradients with respect to a layer's parameters, in flatten order.
#[derive(Debug, Clone, Default)]
pub struct ParamGrad(pub Vec<f32>);

impl Layer {
    /// Number of trainable parameters in this layer.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Dense { w, b } => w.len() + b.len(),
            Layer::Conv2d { weight, bias, .. } => weight.len() + bias.len(),
            _ => 0,
        }
    }

    /// Output feature width given this layer's configuration.
    pub fn out_dim(&self, in_dim: usize) -> usize {
        match self {
            Layer::Dense { w, .. } => w.cols(),
            Layer::Relu | Layer::Tanh => in_dim,
            Layer::Conv2d { out_c, h, w, .. } => out_c * h * w,
            Layer::MaxPool2d { c, h, w } => c * (h / 2) * (w / 2),
            Layer::InstanceNorm => in_dim,
        }
    }

    /// Appends this layer's parameters to `out` (row-major weights, then bias).
    pub fn extend_params(&self, out: &mut Vec<f32>) {
        match self {
            Layer::Dense { w, b } => {
                out.extend_from_slice(w.as_slice());
                out.extend_from_slice(b);
            }
            Layer::Conv2d { weight, bias, .. } => {
                out.extend_from_slice(weight.as_slice());
                out.extend_from_slice(bias);
            }
            _ => {}
        }
    }

    /// Loads this layer's parameters from `src`, returning how many were read.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than `num_params()`.
    pub fn load_params(&mut self, src: &[f32]) -> usize {
        match self {
            Layer::Dense { w, b } => {
                let wn = w.len();
                w.as_mut_slice().copy_from_slice(&src[..wn]);
                let bn = b.len();
                b.copy_from_slice(&src[wn..wn + bn]);
                wn + bn
            }
            Layer::Conv2d { weight, bias, .. } => {
                let wn = weight.len();
                weight.as_mut_slice().copy_from_slice(&src[..wn]);
                let bn = bias.len();
                bias.copy_from_slice(&src[wn..wn + bn]);
                wn + bn
            }
            _ => 0,
        }
    }

    /// Runs the forward pass, returning the output and the backward cache.
    pub fn forward(&self, input: &Matrix) -> (Matrix, LayerCache) {
        match self {
            Layer::Dense { w, b } => {
                let mut out = input.matmul(w);
                out.add_row_broadcast(b);
                (out, LayerCache::Dense(input.clone()))
            }
            Layer::Relu => {
                let out = input.map(|v| if v > 0.0 { v } else { 0.0 });
                (out.clone(), LayerCache::Relu(out))
            }
            Layer::Tanh => {
                let out = input.map(f32::tanh);
                (out.clone(), LayerCache::Tanh(out))
            }
            Layer::Conv2d {
                in_c,
                out_c,
                k,
                h,
                w,
                weight,
                bias,
            } => {
                let (out, _) = conv_forward(input, *in_c, *out_c, *k, *h, *w, weight, bias);
                (out, LayerCache::Conv(input.clone()))
            }
            Layer::MaxPool2d { c, h, w } => {
                let (out, idx) = pool_forward(input, *c, *h, *w);
                let in_dim = c * h * w;
                (out, LayerCache::Pool(idx, in_dim))
            }
            Layer::InstanceNorm => {
                let (out, stds) = norm_forward(input);
                (out.clone(), LayerCache::Norm(out, stds))
            }
        }
    }

    /// Inference-only forward pass (no cache allocation for stateless layers).
    pub fn infer(&self, input: &Matrix) -> Matrix {
        match self {
            Layer::Dense { w, b } => {
                let mut out = input.matmul(w);
                out.add_row_broadcast(b);
                out
            }
            Layer::Relu => input.map(|v| if v > 0.0 { v } else { 0.0 }),
            Layer::Tanh => input.map(f32::tanh),
            Layer::Conv2d {
                in_c,
                out_c,
                k,
                h,
                w,
                weight,
                bias,
            } => conv_forward(input, *in_c, *out_c, *k, *h, *w, weight, bias).0,
            Layer::MaxPool2d { c, h, w } => pool_forward(input, *c, *h, *w).0,
            Layer::InstanceNorm => norm_forward(input).0,
        }
    }

    /// Runs the backward pass.
    ///
    /// Returns the gradient w.r.t. the layer input and, for parametric
    /// layers, the parameter gradients in flatten order.
    pub fn backward(&self, cache: &LayerCache, grad_out: &Matrix) -> (Matrix, ParamGrad) {
        match (self, cache) {
            (Layer::Dense { w, .. }, LayerCache::Dense(input)) => {
                (grad_out.matmul_t(w), dense_param_grad(input, grad_out))
            }
            (Layer::Relu, LayerCache::Relu(out)) => {
                let grad_in = grad_out.zip_with(out, |g, o| if o > 0.0 { g } else { 0.0 });
                (grad_in, ParamGrad::default())
            }
            (Layer::Tanh, LayerCache::Tanh(out)) => {
                let grad_in = grad_out.zip_with(out, |g, o| g * (1.0 - o * o));
                (grad_in, ParamGrad::default())
            }
            (
                Layer::Conv2d {
                    in_c,
                    out_c,
                    k,
                    h,
                    w,
                    weight,
                    ..
                },
                LayerCache::Conv(input),
            ) => conv_backward::<true>(input, grad_out, *in_c, *out_c, *k, *h, *w, weight),
            (Layer::MaxPool2d { c, h, w }, LayerCache::Pool(idx, in_dim)) => {
                let out_dim = c * (h / 2) * (w / 2);
                let mut grad_in = Matrix::zeros(grad_out.rows(), *in_dim);
                for r in 0..grad_out.rows() {
                    let go = grad_out.row(r);
                    let gi = grad_in.row_mut(r);
                    let winners = &idx[r * out_dim..(r + 1) * out_dim];
                    for (&src, &g) in winners.iter().zip(go.iter()) {
                        gi[src] += g;
                    }
                }
                (grad_in, ParamGrad::default())
            }
            (Layer::InstanceNorm, LayerCache::Norm(out, stds)) => {
                // y = (x - mu) / sigma; dL/dx = (g - mean(g) - y*mean(g*y)) / sigma.
                let n = out.cols() as f32;
                let mut grad_in = Matrix::zeros(grad_out.rows(), grad_out.cols());
                for (r, &sigma) in stds.iter().enumerate() {
                    let g = grad_out.row(r);
                    let y = out.row(r);
                    let mean_g = vector::mean(g);
                    let mean_gy = vector::dot(g, y) / n;
                    let inv_sigma = 1.0 / sigma;
                    let row = grad_in.row_mut(r);
                    for ((o, &gv), &yv) in row.iter_mut().zip(g.iter()).zip(y.iter()) {
                        *o = (gv - mean_g - yv * mean_gy) * inv_sigma;
                    }
                }
                (grad_in, ParamGrad::default())
            }
            _ => unreachable!("layer/cache variant mismatch"),
        }
    }

    /// The parameter gradients of [`Layer::backward`], bit for bit, without
    /// computing the input gradient: all the lowest parametric layer of a
    /// model needs. Non-parametric layers have none.
    pub fn param_grad(&self, cache: &LayerCache, grad_out: &Matrix) -> ParamGrad {
        match (self, cache) {
            (Layer::Dense { .. }, LayerCache::Dense(input)) => dense_param_grad(input, grad_out),
            (
                Layer::Conv2d {
                    in_c,
                    out_c,
                    k,
                    h,
                    w,
                    weight,
                    ..
                },
                LayerCache::Conv(input),
            ) => conv_backward::<false>(input, grad_out, *in_c, *out_c, *k, *h, *w, weight).1,
            _ => ParamGrad::default(),
        }
    }
}

/// Dense parameter gradients in flatten order: `inputᵀ · grad_out`, then the
/// bias gradient (column sums of `grad_out`).
fn dense_param_grad(input: &Matrix, grad_out: &Matrix) -> ParamGrad {
    let mut g = input.t_matmul(grad_out).into_vec();
    g.extend_from_slice(&grad_out.col_sums());
    ParamGrad(g)
}

/// Per-row standardisation; returns the output and per-row std (eps-floored).
fn norm_forward(input: &Matrix) -> (Matrix, Vec<f32>) {
    let n = input.cols().max(1) as f32;
    let mut out = input.clone();
    let mut stds = Vec::with_capacity(input.rows());
    for r in 0..input.rows() {
        let row = out.row_mut(r);
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let std = (var + 1e-5).sqrt();
        for v in row.iter_mut() {
            *v = (*v - mean) / std;
        }
        stds.push(std);
    }
    (out, stds)
}

/// Forward convolution; returns `(output, ())`. "Same" zero padding, stride 1.
#[allow(clippy::too_many_arguments)]
fn conv_forward(
    input: &Matrix,
    in_c: usize,
    out_c: usize,
    k: usize,
    h: usize,
    w: usize,
    weight: &Matrix,
    bias: &[f32],
) -> (Matrix, ()) {
    let pad = k / 2;
    let batch = input.rows();
    let mut out = Matrix::zeros(batch, out_c * h * w);
    for b in 0..batch {
        let x = input.row(b);
        let out_row = out.row_mut(b);
        for oc in 0..out_c {
            let wrow = weight.row(oc);
            for oy in 0..h {
                for ox in 0..w {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        let chan = &x[ic * h * w..(ic + 1) * h * w];
                        let wbase = ic * k * k;
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let iy = iy as usize;
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += chan[iy * w + ix as usize] * wrow[wbase + ky * k + kx];
                            }
                        }
                    }
                    out_row[oc * h * w + oy * w + ox] = acc;
                }
            }
        }
    }
    (out, ())
}

/// Backward convolution: gradients w.r.t. filters and bias and, with
/// `INPUT_GRAD`, w.r.t. the input (otherwise an empty `batch × 0` matrix).
#[allow(clippy::too_many_arguments)]
fn conv_backward<const INPUT_GRAD: bool>(
    input: &Matrix,
    grad_out: &Matrix,
    in_c: usize,
    out_c: usize,
    k: usize,
    h: usize,
    w: usize,
    weight: &Matrix,
) -> (Matrix, ParamGrad) {
    let pad = k / 2;
    let batch = input.rows();
    let mut grad_in = Matrix::zeros(batch, if INPUT_GRAD { in_c * h * w } else { 0 });
    let mut grad_w = vec![0.0f32; out_c * in_c * k * k];
    let mut grad_b = vec![0.0f32; out_c];
    for b in 0..batch {
        let x = input.row(b);
        let go = grad_out.row(b);
        let gi = grad_in.row_mut(b);
        for oc in 0..out_c {
            let wrow = weight.row(oc);
            let gw = &mut grad_w[oc * in_c * k * k..(oc + 1) * in_c * k * k];
            for oy in 0..h {
                for ox in 0..w {
                    let g = go[oc * h * w + oy * w + ox];
                    if g == 0.0 {
                        continue;
                    }
                    grad_b[oc] += g;
                    for ic in 0..in_c {
                        let cbase = ic * h * w;
                        let wbase = ic * k * k;
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let iy = iy as usize;
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let ix = ix as usize;
                                gw[wbase + ky * k + kx] += g * x[cbase + iy * w + ix];
                                if INPUT_GRAD {
                                    gi[cbase + iy * w + ix] += g * wrow[wbase + ky * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    grad_w.extend_from_slice(&grad_b);
    (grad_in, ParamGrad(grad_w))
}

/// Forward 2×2/stride-2 max pooling; returns output and winner indices.
fn pool_forward(input: &Matrix, c: usize, h: usize, w: usize) -> (Matrix, Vec<usize>) {
    assert!(
        h.is_multiple_of(2) && w.is_multiple_of(2),
        "pooling requires even spatial dims, got {h}x{w}"
    );
    let (oh, ow) = (h / 2, w / 2);
    let batch = input.rows();
    let out_dim = c * oh * ow;
    let mut out = Matrix::zeros(batch, out_dim);
    let mut winners = vec![0usize; batch * out_dim];
    for b in 0..batch {
        let x = input.row(b);
        let out_row = out.row_mut(b);
        for ch in 0..c {
            let cbase = ch * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = cbase + (oy * 2 + dy) * w + ox * 2 + dx;
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = ch * oh * ow + oy * ow + ox;
                    out_row[o] = best;
                    winners[b * out_dim + o] = best_idx;
                }
            }
        }
    }
    (out, winners)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense(fan_in: usize, fan_out: usize, seed: u64) -> Layer {
        let mut rng = StdRng::seed_from_u64(seed);
        Layer::Dense {
            w: Matrix::xavier(fan_in, fan_out, &mut rng),
            b: vec![0.0; fan_out],
        }
    }

    #[test]
    fn dense_forward_shapes() {
        let layer = dense(4, 3, 0);
        let x = Matrix::ones(5, 4);
        let (y, _) = layer.forward(&x);
        assert_eq!(y.shape(), (5, 3));
    }

    #[test]
    fn relu_masks_negatives() {
        let layer = Layer::Relu;
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let (y, cache) = layer.forward(&x);
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let g = Matrix::from_rows(&[&[1.0, 1.0]]);
        let (gi, _) = layer.backward(&cache, &g);
        assert_eq!(gi.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn pool_selects_max_and_routes_grad() {
        let layer = Layer::MaxPool2d { c: 1, h: 2, w: 2 };
        let x = Matrix::from_rows(&[&[1.0, 5.0, 2.0, 3.0]]);
        let (y, cache) = layer.forward(&x);
        assert_eq!(y.row(0), &[5.0]);
        let (gi, _) = layer.backward(&cache, &Matrix::from_rows(&[&[7.0]]));
        assert_eq!(gi.row(0), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn conv_identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and bias 0 must be the identity map.
        let layer = Layer::Conv2d {
            in_c: 1,
            out_c: 1,
            k: 1,
            h: 3,
            w: 3,
            weight: Matrix::ones(1, 1),
            bias: vec![0.0],
        };
        let mut rng = StdRng::seed_from_u64(2);
        let x = Matrix::randn(2, 9, 0.0, 1.0, &mut rng);
        let (y, _) = layer.forward(&x);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// Central-difference gradient check on a small dense layer.
    #[test]
    fn dense_gradient_check() {
        let mut layer = dense(3, 2, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let x = Matrix::randn(4, 3, 0.0, 1.0, &mut rng);
        grad_check(&mut layer, &x, 1e-2);
    }

    /// Central-difference gradient check on a small conv layer.
    #[test]
    fn conv_gradient_check() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Layer::Conv2d {
            in_c: 1,
            out_c: 2,
            k: 3,
            h: 4,
            w: 4,
            weight: Matrix::randn(2, 9, 0.0, 0.5, &mut rng),
            bias: vec![0.1, -0.1],
        };
        let x = Matrix::randn(2, 16, 0.0, 1.0, &mut rng);
        grad_check(&mut layer, &x, 5e-2);
    }

    /// `param_grad` is `backward`'s parameter half, bit for bit.
    #[test]
    fn param_grad_matches_backward() {
        let mut rng = StdRng::seed_from_u64(10);
        let conv = Layer::Conv2d {
            in_c: 2,
            out_c: 3,
            k: 3,
            h: 4,
            w: 4,
            weight: Matrix::randn(3, 18, 0.0, 0.5, &mut rng),
            bias: vec![0.0; 3],
        };
        for (layer, dim) in [(dense(6, 5, 4), 6), (conv, 32), (Layer::Relu, 6)] {
            let x = Matrix::randn(3, dim, 0.0, 1.0, &mut rng);
            let (out, cache) = layer.forward(&x);
            let g = Matrix::randn(out.rows(), out.cols(), 0.0, 1.0, &mut rng);
            let ParamGrad(full) = layer.backward(&cache, &g).1;
            let ParamGrad(only) = layer.param_grad(&cache, &g);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&only), bits(&full));
            assert_eq!(only.len(), layer.num_params());
        }
    }

    /// Verifies analytic parameter gradients of `layer` against central
    /// differences of the scalar loss `sum(forward(x))`.
    fn grad_check(layer: &mut Layer, x: &Matrix, tol: f32) {
        let (out, cache) = layer.forward(x);
        let grad_out = Matrix::ones(out.rows(), out.cols());
        let (_, ParamGrad(analytic)) = layer.backward(&cache, &grad_out);

        let mut params = Vec::new();
        layer.extend_params(&mut params);
        let eps = 1e-2f32;
        for i in 0..params.len() {
            let mut plus = params.clone();
            plus[i] += eps;
            layer.load_params(&plus);
            let f_plus = layer.infer(x).sum();
            let mut minus = params.clone();
            minus[i] -= eps;
            layer.load_params(&minus);
            let f_minus = layer.infer(x).sum();
            layer.load_params(&params);
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < tol * numeric.abs().max(1.0),
                "param {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn instance_norm_standardises_rows() {
        let layer = Layer::InstanceNorm;
        let x = Matrix::from_rows(&[&[10.0, 12.0, 14.0, 16.0]]);
        let (y, _) = layer.forward(&x);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .row(0)
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn instance_norm_is_shift_and_scale_invariant() {
        let layer = Layer::InstanceNorm;
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5, 3.0]]);
        let shifted = x.map(|v| v * 7.0 + 100.0);
        let (a, _) = layer.forward(&x);
        let (b, _) = layer.forward(&shifted);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-3, "{u} vs {v}");
        }
    }

    /// Central-difference check of the InstanceNorm input gradient.
    #[test]
    fn instance_norm_gradient_check() {
        let layer = Layer::InstanceNorm;
        let mut rng = StdRng::seed_from_u64(11);
        let x = Matrix::randn(2, 5, 1.0, 2.0, &mut rng);
        let (out, cache) = layer.forward(&x);
        // Scalar loss: sum of out^2 / 2, so dL/dout = out.
        let (grad_in, _) = layer.backward(&cache, &out);
        let eps = 1e-2f32;
        let loss = |m: &Matrix| -> f32 {
            let (o, _) = layer.forward(m);
            o.as_slice().iter().map(|v| v * v / 2.0).sum()
        };
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, x.get(r, c) - eps);
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                let analytic = grad_in.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn param_roundtrip() {
        let mut layer = dense(4, 4, 3);
        let mut before = Vec::new();
        layer.extend_params(&mut before);
        let consumed = layer.load_params(&before);
        assert_eq!(consumed, before.len());
        let mut after = Vec::new();
        layer.extend_params(&mut after);
        assert_eq!(before, after);
    }
}
