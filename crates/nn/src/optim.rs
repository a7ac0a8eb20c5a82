//! First-order optimizers operating on [`Param`] collections.

use crate::param::Param;
use std::collections::HashMap;
use trkx_tensor::Matrix;

/// Common optimizer interface: apply one update from accumulated gradients
/// (callers `zero_grad` afterwards).
pub trait Optimizer {
    fn step(&mut self, params: &mut [&mut Param]);
    fn learning_rate(&self) -> f32;
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum.
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    velocity: HashMap<u64, Matrix>,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: HashMap::new(),
        }
    }

    pub fn with_momentum(mut self, m: f32) -> Self {
        self.momentum = m;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            if self.momentum > 0.0 {
                let momentum = self.momentum;
                let v = self
                    .velocity
                    .entry(p.id())
                    .or_insert_with(|| Matrix::zeros(p.grad.rows(), p.grad.cols()));
                // v = momentum*v + grad ; p -= lr*v, all in place.
                v.apply(|x| x * momentum);
                v.add_assign(&p.grad);
                p.value.axpy(-self.lr, v);
            } else {
                p.value.axpy(-self.lr, &p.grad);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: HashMap<u64, Matrix>,
    v: HashMap<u64, Matrix>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for p in params.iter_mut() {
            let (r, c) = p.grad.shape();
            let m = self.m.entry(p.id()).or_insert_with(|| Matrix::zeros(r, c));
            let v = self.v.entry(p.id()).or_insert_with(|| Matrix::zeros(r, c));
            for i in 0..p.grad.len() {
                let g = p.grad.data()[i];
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                p.value.data_mut()[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &mut Param) {
        // loss = (x - 3)^2 per element; grad = 2(x - 3)
        p.grad = p.value.map(|x| 2.0 * (x - 3.0));
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Param::new("x", Matrix::from_vec(1, 2, vec![0.0, 10.0]));
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(
            p.value.data().iter().all(|v| (v - 3.0).abs() < 1e-3),
            "{:?}",
            p.value.data()
        );
    }

    #[test]
    fn sgd_momentum_converges_faster_initially() {
        let run = |momentum: f32, steps: usize| {
            let mut p = Param::new("x", Matrix::scalar(0.0));
            let mut opt = Sgd::new(0.02).with_momentum(momentum);
            for _ in 0..steps {
                quadratic_grad(&mut p);
                opt.step(&mut [&mut p]);
            }
            (p.value.as_scalar() - 3.0).abs()
        };
        assert!(run(0.9, 15) < run(0.0, 15));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::new("x", Matrix::from_vec(2, 1, vec![-5.0, 20.0]));
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(
            p.value.data().iter().all(|v| (v - 3.0).abs() < 1e-2),
            "{:?}",
            p.value.data()
        );
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn adam_handles_sparse_like_gradients() {
        // One coordinate gets gradient only occasionally; Adam's second
        // moment keeps its effective step bounded.
        let mut p = Param::new("x", Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let mut opt = Adam::new(0.1);
        for t in 0..200 {
            p.grad = Matrix::from_vec(
                1,
                2,
                vec![
                    2.0 * (p.value.get(0, 0) - 1.0),
                    if t % 10 == 0 {
                        2.0 * (p.value.get(0, 1) - 1.0)
                    } else {
                        0.0
                    },
                ],
            );
            opt.step(&mut [&mut p]);
        }
        assert!((p.value.get(0, 0) - 1.0).abs() < 0.05);
    }

    #[test]
    fn learning_rate_mutation() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
