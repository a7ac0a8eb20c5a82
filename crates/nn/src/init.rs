//! Weight initialisation schemes.

use rand::Rng;
use trkx_tensor::Matrix;

/// Kaiming (He) uniform init for layers followed by ReLU:
/// `U(-bound, bound)` with `bound = sqrt(6 / fan_in)`.
pub fn kaiming_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    Matrix::rand_uniform(fan_in, fan_out, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn kaiming_uniform_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = kaiming_uniform(50, 20, &mut rng);
        let bound = (6.0f32 / 50.0).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
        assert_eq!(w.shape(), (50, 20));
        // Not degenerate.
        assert!(w.data().iter().any(|v| v.abs() > bound * 0.5));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(
            kaiming_uniform(4, 4, &mut r1).data(),
            kaiming_uniform(4, 4, &mut r2).data()
        );
    }
}
