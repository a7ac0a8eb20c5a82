//! Helical propagation of charged particles through a uniform solenoidal
//! field along z. Tracks are circles in the transverse plane with radius
//! `R = pT / (0.3 · B)` (pT in GeV/c, B in Tesla, R in metres), produced at
//! the beamline (x = y = 0, z = vz).

use crate::particle::Particle;

/// Speed-of-light factor in `R[m] = pT[GeV] / (K_B · B[T])`.
const K_B: f32 = 0.2998;

/// A particle's transverse-plane circle plus longitudinal slope.
#[derive(Debug, Clone, Copy)]
pub struct Helix {
    /// Circle radius in metres.
    pub radius: f32,
    /// Production azimuth.
    pub phi0: f32,
    /// Signed curvature direction: +1 bends counter-clockwise.
    pub turn: f32,
    /// dz per unit transverse arc length.
    pub cot_theta: f32,
    /// Longitudinal production vertex.
    pub vz: f32,
}

impl Helix {
    /// Build the helix of `p` in field `b_tesla`.
    pub fn from_particle(p: &Particle, b_tesla: f32) -> Self {
        Self {
            radius: p.pt / (K_B * b_tesla),
            phi0: p.phi,
            turn: -(p.charge as f32), // positive charge bends clockwise for B along +z
            cot_theta: p.cot_theta(),
            vz: p.vz,
        }
    }

    /// Maximum cylinder radius this track reaches (circle through origin
    /// with radius R reaches transverse radius 2R).
    pub fn max_reach(&self) -> f32 {
        2.0 * self.radius
    }

    /// First crossing of the cylinder at transverse radius `r`, if reached:
    /// returns `(x, y, z, arc_length)`.
    ///
    /// For a circle through the origin, the chord at transverse distance
    /// `r` subtends `α = 2·asin(r / 2R)`; the azimuth of the crossing is
    /// `φ0 + turn·α/2` and the transverse arc length is `R·α`.
    pub fn at_radius(&self, r: f32) -> Option<(f32, f32, f32, f32)> {
        if r > self.max_reach() || r <= 0.0 {
            return None;
        }
        let half_alpha = (r / (2.0 * self.radius)).clamp(-1.0, 1.0).asin();
        let phi = self.phi0 + self.turn * half_alpha;
        let arc = 2.0 * self.radius * half_alpha;
        let z = self.vz + arc * self.cot_theta;
        Some((r * phi.cos(), r * phi.sin(), z, arc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straightish() -> Particle {
        // Very high pT: nearly straight track.
        Particle {
            pt: 1000.0,
            eta: 0.5,
            phi: 1.0,
            charge: 1,
            vz: 0.01,
        }
    }

    #[test]
    fn high_pt_goes_straight() {
        let h = Helix::from_particle(&straightish(), 2.0);
        let (x, y, _, _) = h.at_radius(0.5).unwrap();
        // Azimuth barely deflected from production phi.
        let phi = y.atan2(x);
        assert!((phi - 1.0).abs() < 1e-3, "phi {phi}");
        // On the cylinder.
        assert!(((x * x + y * y).sqrt() - 0.5).abs() < 1e-4);
    }

    #[test]
    fn low_pt_cannot_reach_far_layers() {
        let p = Particle {
            pt: 0.1,
            eta: 0.0,
            phi: 0.0,
            charge: 1,
            vz: 0.0,
        };
        let h = Helix::from_particle(&p, 2.0);
        // R = 0.1/0.5996 ≈ 0.1668 m, reach ≈ 0.334 m.
        assert!(h.at_radius(0.3).is_some());
        assert!(h.at_radius(0.4).is_none());
    }

    #[test]
    fn z_advances_with_eta() {
        let p = Particle {
            pt: 2.0,
            eta: 1.0,
            phi: 0.0,
            charge: 1,
            vz: 0.0,
        };
        let h = Helix::from_particle(&p, 2.0);
        let (_, _, z1, _) = h.at_radius(0.2).unwrap();
        let (_, _, z2, _) = h.at_radius(0.6).unwrap();
        assert!(z2 > z1 && z1 > 0.0);
        // Roughly linear in r for mild curvature.
        assert!((z2 / z1 - 3.0).abs() < 0.2, "z ratio {}", z2 / z1);
    }

    #[test]
    fn opposite_charges_bend_opposite_ways() {
        let mk = |q: i8| Particle {
            pt: 0.5,
            eta: 0.0,
            phi: 0.0,
            charge: q,
            vz: 0.0,
        };
        let hp = Helix::from_particle(&mk(1), 2.0);
        let hm = Helix::from_particle(&mk(-1), 2.0);
        let (_, yp, _, _) = hp.at_radius(0.3).unwrap();
        let (_, ym, _, _) = hm.at_radius(0.3).unwrap();
        assert!(yp * ym < 0.0, "yp {yp} ym {ym}");
    }

    #[test]
    fn arc_length_monotone_in_radius() {
        let p = Particle {
            pt: 1.0,
            eta: 0.3,
            phi: 0.7,
            charge: -1,
            vz: 0.0,
        };
        let h = Helix::from_particle(&p, 2.0);
        let mut last = 0.0;
        for r in [0.1f32, 0.2, 0.3, 0.5, 0.8] {
            let (_, _, _, arc) = h.at_radius(r).unwrap();
            assert!(arc > last);
            last = arc;
        }
    }
}
