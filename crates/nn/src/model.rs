//! Sequential model: a layer stack with training, evaluation, embedding
//! extraction and flattened-parameter access.

use rand::Rng;
use serde::{Deserialize, Serialize};
use shiftex_tensor::Matrix;

use crate::arch::{ArchSpec, InputShape, LayerSpec};
use crate::layer::{Layer, LayerCache};
use crate::loss::softmax_cross_entropy;
use crate::optim::Sgd;
use crate::trainer::TrainConfig;

/// Evaluation result: mean loss and top-1 accuracy over a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Number of evaluated samples.
    pub n: usize,
}

/// Report of one local `train` call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// Mean loss of the first epoch.
    pub initial_loss: f32,
    /// Mean loss of the last epoch.
    pub final_loss: f32,
    /// Number of optimizer steps taken.
    pub steps: usize,
}

/// A feed-forward layer stack ending in a `Dense(classes)` classifier.
///
/// The activation entering that final classifier is the **embedding** used
/// throughout ShiftEx for covariate-shift detection (`P_c_t(X)` in the
/// paper's Algorithm 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential {
    spec: ArchSpec,
    layers: Vec<Layer>,
}

impl Sequential {
    /// Builds a freshly-initialised model from an architecture spec.
    ///
    /// Weights are Xavier-uniform, biases zero; all randomness comes from
    /// `rng` so builds are reproducible.
    pub fn build(spec: &ArchSpec, rng: &mut impl Rng) -> Self {
        let mut layers = Vec::with_capacity(spec.hidden.len() + 2);
        // Every architecture standardises its input per sample, matching
        // the per-image normalisation of standard vision pipelines and
        // keeping training stable under covariate shift.
        layers.push(Layer::InstanceNorm);
        let mut shape = spec.input;
        for ls in &spec.hidden {
            match *ls {
                LayerSpec::Dense(out) => {
                    let fan_in = shape.dim();
                    layers.push(Layer::Dense {
                        w: Matrix::xavier(fan_in, out, rng),
                        b: vec![0.0; out],
                    });
                    shape = InputShape::flat(out);
                }
                LayerSpec::Relu => layers.push(Layer::Relu),
                LayerSpec::Tanh => layers.push(Layer::Tanh),
                LayerSpec::Conv { out_c, k } => {
                    let fan_in = shape.c * k * k;
                    layers.push(Layer::Conv2d {
                        in_c: shape.c,
                        out_c,
                        k,
                        h: shape.h,
                        w: shape.w,
                        weight: Matrix::xavier(out_c.max(1), fan_in, rng)
                            .map(|v| v * (2.0 / fan_in as f32).sqrt()),
                        bias: vec![0.0; out_c],
                    });
                    // xavier() gives (rows=out_c, cols=fan_in) already:
                    shape = InputShape {
                        c: out_c,
                        h: shape.h,
                        w: shape.w,
                    };
                }
                LayerSpec::MaxPool => {
                    layers.push(Layer::MaxPool2d {
                        c: shape.c,
                        h: shape.h,
                        w: shape.w,
                    });
                    shape = InputShape {
                        c: shape.c,
                        h: shape.h / 2,
                        w: shape.w / 2,
                    };
                }
            }
        }
        // Final classifier.
        let fan_in = shape.dim();
        layers.push(Layer::Dense {
            w: Matrix::xavier(fan_in, spec.classes, rng),
            b: vec![0.0; spec.classes],
        });
        Self {
            spec: spec.clone(),
            layers,
        }
    }

    /// The architecture this model was built from.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Width of the embedding (penultimate-layer) activation.
    pub fn embed_dim(&self) -> usize {
        self.spec.embed_dim()
    }

    /// Flattens all parameters into one vector (layer order, weights then
    /// biases within each layer). This is the unit of federated exchange.
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            layer.extend_params(&mut out);
        }
        out
    }

    /// Loads parameters previously produced by [`Sequential::params_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` does not match [`Sequential::num_params`].
    pub fn set_params_flat(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.num_params(),
            "parameter vector length mismatch: {} vs {}",
            params.len(),
            self.num_params()
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.load_params(&params[offset..]);
        }
    }

    /// Full forward pass, returning the class logits.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.infer(&h);
        }
        h
    }

    /// Forward pass that stops at the penultimate layer, returning the
    /// embedding matrix `(batch, embed_dim)` — the latent representation
    /// `φ(x)` of the paper's Algorithm 1.
    ///
    /// The input [`Layer::InstanceNorm`] is **skipped** on this path: that
    /// normalisation exists to stabilise training, but it cancels precisely
    /// the input-distribution changes (mean/contrast moves) that MMD-based
    /// covariate-shift detection monitors. Detection therefore sees the raw
    /// input distribution through the learned feature map, while
    /// classification uses the normalised path.
    pub fn embed(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers[..self.layers.len() - 1] {
            if matches!(layer, Layer::InstanceNorm) {
                continue;
            }
            h = layer.infer(&h);
        }
        h
    }

    /// Evaluates mean loss and top-1 accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn evaluate(&self, x: &Matrix, labels: &[usize]) -> EvalReport {
        if x.rows() == 0 {
            return EvalReport {
                loss: 0.0,
                accuracy: 0.0,
                n: 0,
            };
        }
        let logits = self.forward(x);
        let (loss, _) = softmax_cross_entropy(&logits, labels);
        let preds = logits.argmax_rows();
        let correct = preds
            .iter()
            .zip(labels.iter())
            .filter(|(p, l)| p == l)
            .count();
        EvalReport {
            loss,
            accuracy: correct as f32 / labels.len() as f32,
            n: labels.len(),
        }
    }

    /// One SGD step on a single mini-batch; returns the batch loss.
    ///
    /// When `prox` is provided, a FedProx proximal term
    /// `(mu/2)·‖w − w_global‖²` is added to the objective, i.e.
    /// `mu·(w − w_global)` to the gradient.
    pub fn train_batch(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        opt: &mut Sgd,
        prox: Option<(&[f32], f32)>,
    ) -> f32 {
        // The backward pass stops at the lowest parametric layer: nothing
        // below it has parameters, so it computes only its parameter
        // gradients, and the layers below it (the input InstanceNorm) run
        // forward without caches.
        let lowest = self
            .layers
            .iter()
            .position(|l| l.num_params() > 0)
            .unwrap_or(self.layers.len());
        let (frozen, trained) = self.layers.split_at(lowest);
        let mut activations = x.clone();
        for layer in frozen {
            activations = layer.infer(&activations);
        }
        let mut caches: Vec<LayerCache> = Vec::with_capacity(trained.len());
        for layer in trained {
            let (out, cache) = layer.forward(&activations);
            activations = out;
            caches.push(cache);
        }
        let (loss, mut grad) = softmax_cross_entropy(&activations, labels);

        // Backward, collecting parameter gradients in flatten order.
        let mut grads_rev: Vec<Vec<f32>> = Vec::with_capacity(trained.len());
        for (i, (layer, cache)) in trained.iter().zip(&caches).enumerate().rev() {
            if i == 0 {
                grads_rev.push(layer.param_grad(cache, &grad).0);
            } else {
                let (grad_in, pgrad) = layer.backward(cache, &grad);
                grads_rev.push(pgrad.0);
                grad = grad_in;
            }
        }
        let mut flat_grad = Vec::with_capacity(self.num_params());
        for g in grads_rev.into_iter().rev() {
            flat_grad.extend_from_slice(&g);
        }

        let mut params = self.params_flat();
        if let Some((global, mu)) = prox {
            assert_eq!(global.len(), params.len(), "prox anchor length mismatch");
            for ((g, &w), &wg) in flat_grad.iter_mut().zip(params.iter()).zip(global.iter()) {
                *g += mu * (w - wg);
            }
        }
        opt.step(&mut params, &flat_grad);
        self.set_params_flat(&params);
        loss
    }

    /// Trains for `cfg.epochs` epochs of shuffled mini-batches.
    ///
    /// Returns first/last epoch mean losses and the number of steps taken.
    pub fn train(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        cfg: &TrainConfig,
        rng: &mut impl Rng,
    ) -> FitReport {
        assert_eq!(x.rows(), labels.len(), "label count must match batch size");
        let n = x.rows();
        if n == 0 {
            return FitReport {
                initial_loss: 0.0,
                final_loss: 0.0,
                steps: 0,
            };
        }
        let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
        let anchor = cfg.prox_mu.map(|mu| (self.params_flat(), mu));
        let mut order: Vec<usize> = (0..n).collect();
        let mut first = f32::NAN;
        let mut last = 0.0;
        let mut steps = 0;
        for epoch in 0..cfg.epochs {
            shiftex_tensor::rngx::shuffle(rng, &mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let bx = x.select_rows(chunk);
                let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let prox = anchor.as_ref().map(|(p, mu)| (p.as_slice(), *mu));
                epoch_loss += self.train_batch(&bx, &by, &mut opt, prox);
                batches += 1;
                steps += 1;
            }
            let mean = epoch_loss / batches.max(1) as f32;
            if epoch == 0 {
                first = mean;
            }
            last = mean;
        }
        FitReport {
            initial_loss: first,
            final_loss: last,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two well-separated *pattern* blobs (class 0 = +,-,+,-; class 1 =
    /// -,+,-,+) — separable even under the input InstanceNorm, which removes
    /// constant offsets.
    fn blobs(n: usize, rng: &mut StdRng) -> (Matrix, Vec<usize>) {
        let mut labels = Vec::with_capacity(n);
        let x = Matrix::from_fn(n, 4, |i, j| {
            let class = i % 2;
            if j == 0 {
                labels.push(class);
            }
            let sign = if (j % 2 == 0) == (class == 0) {
                2.0
            } else {
                -2.0
            };
            sign + shiftex_tensor::rngx::normal(rng, 0.0, 0.5)
        });
        (x, labels)
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = ArchSpec::mlp("t", 6, &[8, 4], 3);
        let mut model = Sequential::build(&spec, &mut rng);
        let p = model.params_flat();
        assert_eq!(p.len(), model.num_params());
        model.set_params_flat(&p);
        assert_eq!(model.params_flat(), p);
    }

    #[test]
    fn embed_dim_matches_spec() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = ArchSpec::mlp("t", 6, &[8, 4], 3);
        let model = Sequential::build(&spec, &mut rng);
        let x = Matrix::zeros(2, 6);
        assert_eq!(model.embed(&x).cols(), 4);
        assert_eq!(model.embed_dim(), 4);
    }

    #[test]
    fn training_fits_separable_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let (x, y) = blobs(64, &mut rng);
        let spec = ArchSpec::mlp("blobs", 4, &[8], 2);
        let mut model = Sequential::build(&spec, &mut rng);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 0.1,
            ..TrainConfig::default()
        };
        let report = model.train(&x, &y, &cfg, &mut rng);
        assert!(report.final_loss < report.initial_loss);
        let eval = model.evaluate(&x, &y);
        assert!(eval.accuracy > 0.95, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn fedprox_term_pulls_towards_anchor() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = blobs(32, &mut rng);
        let spec = ArchSpec::mlp("blobs", 4, &[4], 2);
        let base = Sequential::build(&spec, &mut rng);
        let anchor = base.params_flat();

        let run = |mu: Option<f32>, rng: &mut StdRng| {
            let mut m = base.clone();
            let cfg = TrainConfig {
                epochs: 10,
                batch_size: 8,
                lr: 0.1,
                prox_mu: mu,
                ..TrainConfig::default()
            };
            m.train(&x, &y, &cfg, rng);
            crate::average::param_l2_distance(&m.params_flat(), &anchor)
        };
        let free = run(None, &mut rng);
        let proxed = run(Some(10.0), &mut rng);
        assert!(
            proxed < free,
            "prox run should stay closer to anchor: {proxed} vs {free}"
        );
    }

    #[test]
    fn conv_model_trains() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = ArchSpec::lenet5_lite(InputShape { c: 1, h: 8, w: 8 }, 2, 16);
        let mut model = Sequential::build(&spec, &mut rng);
        // Class 0: bright left half. Class 1: bright right half.
        let n = 32;
        let mut labels = Vec::new();
        let x = Matrix::from_fn(n, 64, |i, j| {
            let class = i % 2;
            if j == 0 {
                labels.push(class);
            }
            let col = j % 8;
            let bright = if class == 0 { col < 4 } else { col >= 4 };
            if bright {
                1.0 + shiftex_tensor::rngx::normal(&mut rng, 0.0, 0.1)
            } else {
                shiftex_tensor::rngx::normal(&mut rng, 0.0, 0.1)
            }
        });
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 8,
            lr: 0.05,
            ..TrainConfig::default()
        };
        model.train(&x, &labels, &cfg, &mut rng);
        let eval = model.evaluate(&x, &labels);
        assert!(eval.accuracy > 0.9, "conv accuracy {}", eval.accuracy);
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = ArchSpec::mlp("t", 3, &[4], 2);
        let model = Sequential::build(&spec, &mut rng);
        let report = model.evaluate(&Matrix::zeros(0, 3), &[]);
        assert_eq!(report.n, 0);
    }

    /// Golden bit patterns of local SGD, embedding and inference on the
    /// paper's dense (resnet18-lite, 192→48→24→10) and conv (lenet5-lite)
    /// models: kernel rewrites must reproduce every output bit. Captured
    /// on an AVX2+FMA build; without FMA, `vector::dot` (behind
    /// `matmul_t`) rounds differently, so other targets get other bits.
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    #[test]
    fn trained_models_are_bit_identical_to_the_golden_capture() {
        /// FNV-1a over the IEEE-754 bit patterns of `values`.
        fn bits_hash(values: &[f32]) -> u64 {
            values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
                (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
            })
        }

        /// Trains `spec` for two epochs on seeded data and hashes the trained
        /// parameters, a 200-row embedding and the logits bit for bit.
        fn trained_bits(spec: &ArchSpec) -> [u64; 3] {
            let mut rng = StdRng::seed_from_u64(12);
            let mut model = Sequential::build(spec, &mut rng);
            let dim = spec.input.dim();
            let x = Matrix::randn(60, dim, 0.5, 1.0, &mut rng);
            let y: Vec<usize> = (0..60).map(|i| i % spec.classes).collect();
            model.train(&x, &y, &TrainConfig::default(), &mut rng);
            let probe = Matrix::randn(200, dim, 0.0, 2.0, &mut rng);
            [
                bits_hash(&model.params_flat()),
                bits_hash(model.embed(&probe).as_slice()),
                bits_hash(model.forward(&probe).as_slice()),
            ]
        }

        let cifar = InputShape { c: 3, h: 8, w: 8 };
        let dense = trained_bits(&ArchSpec::resnet18_lite(cifar, 10, 24));
        let mnist = InputShape { c: 1, h: 8, w: 8 };
        let conv = trained_bits(&ArchSpec::lenet5_lite(mnist, 10, 16));
        assert_eq!(
            dense,
            [
                11157579318707060372,
                15406291555130648499,
                6665247959811270639
            ]
        );
        assert_eq!(
            conv,
            [
                10227057697267948803,
                11815063396580965429,
                17057257839262574653
            ]
        );
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let spec = ArchSpec::mlp("t", 5, &[7], 3);
        let a = Sequential::build(&spec, &mut StdRng::seed_from_u64(9));
        let b = Sequential::build(&spec, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.params_flat(), b.params_flat());
    }
}
