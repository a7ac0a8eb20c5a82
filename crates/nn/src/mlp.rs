//! Multi-layer perceptrons — the workhorse of every Exa.TrkX stage
//! (embedding, filter, and each `φ` inside the Interaction GNN).

use crate::linear::Linear;
use crate::norm::LayerNorm;
use crate::param::{Bindings, Param};
use rand::Rng;
use trkx_tensor::{Tape, Var};

/// Activation applied between MLP layers (the last layer is linear).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Tanh,
}

/// Configuration for an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Layer widths including input and output, e.g. `[14, 64, 64, 8]`.
    pub sizes: Vec<usize>,
    /// Hidden-layer activation.
    pub activation: Activation,
    /// Insert LayerNorm after each hidden activation (acorn-style).
    pub layer_norm: bool,
}

impl MlpConfig {
    pub fn new(sizes: &[usize]) -> Self {
        Self {
            sizes: sizes.to_vec(),
            activation: Activation::Relu,
            layer_norm: false,
        }
    }

    pub fn with_layer_norm(mut self, on: bool) -> Self {
        self.layer_norm = on;
        self
    }

    pub fn with_activation(mut self, act: Activation) -> Self {
        self.activation = act;
        self
    }
}

/// A feed-forward network of [`Linear`] layers with activations and
/// optional LayerNorm on hidden layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    norms: Vec<Option<LayerNorm>>,
    config: MlpConfig,
}

impl Mlp {
    pub fn new(config: MlpConfig, name: &str, rng: &mut impl Rng) -> Self {
        assert!(
            config.sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        let mut layers = Vec::new();
        let mut norms = Vec::new();
        for (i, w) in config.sizes.windows(2).enumerate() {
            layers.push(Linear::new(w[0], w[1], &format!("{name}.{i}"), rng));
            let is_hidden = i + 2 < config.sizes.len();
            norms.push(if config.layer_norm && is_hidden {
                Some(LayerNorm::new(w[1], &format!("{name}.{i}.ln")))
            } else {
                None
            });
        }
        Self {
            layers,
            norms,
            config,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.config.sizes[0]
    }

    pub fn out_dim(&self) -> usize {
        *self.config.sizes.last().unwrap()
    }

    /// Number of `Linear` layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    pub fn forward(&self, tape: &mut Tape, bind: &mut Bindings, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            if i == last {
                x = layer.forward(tape, bind, x);
            } else {
                x = match self.config.activation {
                    // Fused affine+ReLU: one tape node instead of two.
                    Activation::Relu => layer.forward_relu(tape, bind, x),
                    Activation::Tanh => {
                        let h = layer.forward(tape, bind, x);
                        tape.tanh(h)
                    }
                };
                if let Some(ln) = &self.norms[i] {
                    x = ln.forward(tape, bind, x);
                }
            }
        }
        x
    }

    pub fn params(&self) -> Vec<&Param> {
        let mut out = Vec::new();
        for (l, n) in self.layers.iter().zip(&self.norms) {
            out.extend(l.params());
            if let Some(ln) = n {
                out.extend(ln.params());
            }
        }
        out
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        for (l, n) in self.layers.iter_mut().zip(&mut self.norms) {
            out.extend(l.params_mut());
            if let Some(ln) = n {
                out.extend(ln.params_mut());
            }
        }
        out
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trkx_tensor::Matrix;

    #[test]
    fn shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(MlpConfig::new(&[6, 16, 16, 1]), "m", &mut rng);
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 1);
        // 6*16+16 + 16*16+16 + 16*1+1 = 112 + 272 + 17
        assert_eq!(mlp.num_parameters(), 401);
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let x = tape.constant(Matrix::zeros(5, 6));
        let y = mlp.forward(&mut tape, &mut bind, x);
        assert_eq!(tape.value(y).shape(), (5, 1));
    }

    #[test]
    fn layer_norm_adds_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let plain = Mlp::new(MlpConfig::new(&[4, 8, 2]), "p", &mut rng);
        let ln = Mlp::new(
            MlpConfig::new(&[4, 8, 2]).with_layer_norm(true),
            "n",
            &mut rng,
        );
        assert_eq!(ln.num_parameters(), plain.num_parameters() + 16);
    }

    #[test]
    fn gradcheck_full_mlp() {
        // Validate the composed MLP backward against finite differences by
        // treating its parameters as gradcheck inputs.
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(
            MlpConfig::new(&[3, 5, 1]).with_activation(Activation::Tanh),
            "m",
            &mut rng,
        );
        let x = Matrix::randn(4, 3, 0.5, &mut rng);
        let inputs: Vec<Matrix> = mlp.params().iter().map(|p| p.value.clone()).collect();
        let mlp_ref = &mlp;
        let x_ref = &x;
        let report = trkx_tensor::gradcheck(&inputs, 1e-2, move |tape, vars| {
            // Rebind: build the same graph but with gradcheck's leaves as
            // parameter values.
            let xc = tape.constant(x_ref.clone());
            let mut vi = 0;
            let mut h = xc;
            for (i, layer) in mlp_ref.layers.iter().enumerate() {
                let w = vars[vi];
                let b = vars[vi + 1];
                vi += 2;
                let _ = layer;
                let xw = tape.matmul(h, w);
                h = tape.add_bias(xw, b);
                if i + 1 < mlp_ref.layers.len() {
                    h = tape.tanh(h);
                }
            }
            let sq = tape.hadamard(h, h);
            tape.mean_all(sq)
        });
        assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn forward_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(MlpConfig::new(&[2, 4, 2]), "m", &mut rng);
        let x = Matrix::from_vec(1, 2, vec![0.3, -0.7]);
        let run = |mlp: &Mlp| {
            let mut t = Tape::new();
            let mut b = Bindings::new();
            let xv = t.constant(x.clone());
            let y = mlp.forward(&mut t, &mut b, xv);
            t.value(y).clone()
        };
        assert!(run(&mlp).approx_eq(&run(&mlp), 0.0));
    }
}
