//! Event simulation: particles propagated through a cylindrical barrel
//! detector, Gaussian hit smearing, noise hits, truth edges, and the
//! doublet candidate-graph builder that produces the GNN input graphs.

use crate::helix::Helix;
use crate::particle::{GunConfig, Particle};
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Cylindrical barrel detector description. Serialized geometries that
/// still carry a legacy `"disks"` key load unchanged: unknown fields are
/// ignored.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorGeometry {
    /// Barrel layer radii in metres, strictly increasing.
    pub layer_radii: Vec<f32>,
    /// Half-length of the barrel along z (acceptance window).
    pub half_length: f32,
    /// Solenoid field in Tesla.
    pub b_field: f32,
    /// Gaussian σ of hit position smearing (metres), applied in φ and z.
    pub hit_sigma: f32,
    /// Probability that a layer crossing produces a recorded hit
    /// (detector inefficiency; 1.0 = perfect).
    pub hit_efficiency: f32,
}

impl Default for DetectorGeometry {
    fn default() -> Self {
        Self {
            layer_radii: vec![0.032, 0.072, 0.116, 0.172, 0.26, 0.36, 0.5, 0.66, 0.82, 1.0],
            half_length: 1.2,
            b_field: 2.0,
            hit_sigma: 5e-4,
            hit_efficiency: 1.0,
        }
    }
}

/// A recorded detector hit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hit {
    pub x: f32,
    pub y: f32,
    pub z: f32,
    /// Barrel layer index, innermost first.
    pub layer: u32,
    /// Generating particle, `None` for noise hits.
    pub particle: Option<u32>,
    /// Transverse arc length along the generating track (ordering key
    /// for truth edges; 0 for noise hits).
    pub t: f32,
}

impl Hit {
    /// Transverse radius.
    pub fn r(&self) -> f32 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Azimuth in `(-π, π]`.
    pub fn phi(&self) -> f32 {
        self.y.atan2(self.x)
    }

    /// Pseudorapidity of the hit position.
    pub fn eta(&self) -> f32 {
        let r = self.r();
        if r == 0.0 {
            0.0
        } else {
            (self.z / r).asinh()
        }
    }
}

/// One collision event: hits plus generation metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Event {
    pub hits: Vec<Hit>,
    pub num_particles: usize,
    pub geometry: DetectorGeometry,
}

impl Event {
    pub fn num_hits(&self) -> usize {
        self.hits.len()
    }

    /// Ground-truth track edges: consecutive-layer hit pairs of the same
    /// particle, directed inner → outer.
    pub fn truth_edges(&self) -> Vec<(u32, u32)> {
        let mut per_particle: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for (i, h) in self.hits.iter().enumerate() {
            if let Some(p) = h.particle {
                per_particle.entry(p).or_default().push(i as u32);
            }
        }
        let mut edges = Vec::new();
        for (_, mut hits) in per_particle {
            hits.sort_by(|&a, &b| {
                self.hits[a as usize]
                    .t
                    .partial_cmp(&self.hits[b as usize].t)
                    .unwrap()
            });
            for w in hits.windows(2) {
                edges.push((w[0], w[1]));
            }
        }
        edges.sort_unstable();
        edges
    }

    /// Hit indices of each particle's track, sorted by layer.
    pub fn truth_tracks(&self) -> Vec<Vec<u32>> {
        let mut per_particle: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for (i, h) in self.hits.iter().enumerate() {
            if let Some(p) = h.particle {
                per_particle.entry(p).or_default().push(i as u32);
            }
        }
        let mut tracks: Vec<Vec<u32>> = per_particle
            .into_values()
            .map(|mut hits| {
                hits.sort_by(|&a, &b| {
                    self.hits[a as usize]
                        .t
                        .partial_cmp(&self.hits[b as usize].t)
                        .unwrap()
                });
                hits
            })
            .collect();
        tracks.sort();
        tracks
    }
}

/// Simulate one event: `n_particles` from `gun`, plus
/// `noise_fraction · signal_hits` uniform noise hits.
pub fn simulate_event(
    geometry: &DetectorGeometry,
    gun: &GunConfig,
    n_particles: usize,
    noise_fraction: f32,
    rng: &mut impl Rng,
) -> Event {
    let smear = Normal::new(0.0f32, geometry.hit_sigma).expect("valid sigma");
    let mut hits = Vec::new();
    for pid in 0..n_particles {
        let particle: Particle = gun.sample(rng);
        let helix = Helix::from_particle(&particle, geometry.b_field);
        // Barrel crossings, innermost first (arc length grows with the
        // radius), until the track curls back or leaves the acceptance
        // window.
        for (layer, &r) in geometry.layer_radii.iter().enumerate() {
            let Some((x, y, z, arc)) = helix.at_radius(r) else {
                break;
            };
            if z.abs() > geometry.half_length {
                break;
            }
            // Detector inefficiency: the particle crossed, but no hit was
            // recorded (the track continues regardless).
            if geometry.hit_efficiency < 1.0 && !rng.gen_bool(geometry.hit_efficiency as f64) {
                continue;
            }
            // Smear along the sensitive surface: rotate slightly in φ,
            // shift z.
            let r = (x * x + y * y).sqrt().max(1e-6);
            let dphi = smear.sample(rng) / r;
            let phi = y.atan2(x) + dphi;
            hits.push(Hit {
                x: r * phi.cos(),
                y: r * phi.sin(),
                z: z + smear.sample(rng),
                layer: layer as u32,
                particle: Some(pid as u32),
                t: arc,
            });
        }
    }
    let n_noise = (hits.len() as f32 * noise_fraction).round() as usize;
    for _ in 0..n_noise {
        let layer = rng.gen_range(0..geometry.layer_radii.len());
        let phi = rng.gen_range(-std::f32::consts::PI..std::f32::consts::PI);
        let r = geometry.layer_radii[layer];
        let z = rng.gen_range(-geometry.half_length..geometry.half_length);
        hits.push(Hit {
            x: r * phi.cos(),
            y: r * phi.sin(),
            z,
            layer: layer as u32,
            particle: None,
            t: 0.0,
        });
    }
    Event {
        hits,
        num_particles: n_particles,
        geometry: geometry.clone(),
    }
}

/// A candidate doublet graph over an event's hits: directed edges from
/// inner-layer to adjacent outer-layer hits within an azimuthal window,
/// labelled 1.0 when both hits belong to the same particle.
#[derive(Debug, Clone)]
pub struct CandidateGraph {
    pub src: Vec<u32>,
    pub dst: Vec<u32>,
    /// 1.0 = true track edge, 0.0 = fake.
    pub labels: Vec<f32>,
}

impl CandidateGraph {
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Fraction of true edges.
    pub fn positive_fraction(&self) -> f32 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.labels.iter().sum::<f32>() / self.labels.len() as f32
        }
    }

    /// Edge list as pairs.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        self.src
            .iter()
            .copied()
            .zip(self.dst.iter().copied())
            .collect()
    }
}

/// Wrapped azimuthal difference in `(-π, π]`.
pub fn wrap_phi(dphi: f32) -> f32 {
    let mut d = dphi;
    while d > std::f32::consts::PI {
        d -= 2.0 * std::f32::consts::PI;
    }
    while d <= -std::f32::consts::PI {
        d += 2.0 * std::f32::consts::PI;
    }
    d
}

/// Build the doublet candidate graph: connect each hit on layer `l` to
/// hits on layer `l+1` with `|Δφ| <= phi_window` and `|Δz| <= z_window`.
pub fn candidate_graph(event: &Event, phi_window: f32, z_window: f32) -> CandidateGraph {
    let n_layers = event.geometry.layer_radii.len();
    // Bucket hit indices by layer, sorted by φ for windowed scanning.
    let mut by_layer: Vec<Vec<(f32, u32)>> = vec![Vec::new(); n_layers];
    for (i, h) in event.hits.iter().enumerate() {
        by_layer[h.layer as usize].push((h.phi(), i as u32));
    }
    for bucket in &mut by_layer {
        bucket.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    }
    let mut g = CandidateGraph {
        src: Vec::new(),
        dst: Vec::new(),
        labels: Vec::new(),
    };
    for l in 0..n_layers.saturating_sub(1) {
        let (inner, outer) = (&by_layer[l], &by_layer[l + 1]);
        if outer.is_empty() {
            continue;
        }
        for &(phi_i, i) in inner {
            // Binary search the φ-sorted outer bucket, then scan the
            // window in both directions with wraparound.
            let start = outer.partition_point(|&(p, _)| p < phi_i - phi_window);
            let mut push = |j: u32| {
                let hi = &event.hits[i as usize];
                let hj = &event.hits[j as usize];
                if (hj.z - hi.z).abs() > z_window {
                    return;
                }
                let label = match (hi.particle, hj.particle) {
                    (Some(a), Some(b)) if a == b => 1.0,
                    _ => 0.0,
                };
                g.src.push(i);
                g.dst.push(j);
                g.labels.push(label);
            };
            for &(phi_j, j) in &outer[start..] {
                if phi_j > phi_i + phi_window {
                    break;
                }
                push(j);
            }
            // Wraparound near ±π.
            if phi_i + phi_window > std::f32::consts::PI {
                let lim = phi_i + phi_window - 2.0 * std::f32::consts::PI;
                for &(phi_j, j) in outer.iter() {
                    if phi_j > lim {
                        break;
                    }
                    push(j);
                }
            }
            if phi_i - phi_window < -std::f32::consts::PI {
                let lim = phi_i - phi_window + 2.0 * std::f32::consts::PI;
                for &(phi_j, j) in outer.iter().rev() {
                    if phi_j < lim {
                        break;
                    }
                    push(j);
                }
            }
        }
    }
    g
}

/// Find the φ window that makes `candidate_graph` produce approximately
/// `target_ratio` edges per vertex (bisection; z window fixed).
pub fn tune_phi_window(event: &Event, z_window: f32, target_ratio: f32) -> f32 {
    let n = event.num_hits().max(1) as f32;
    let (mut lo, mut hi) = (1e-4f32, std::f32::consts::PI);
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let ratio = candidate_graph(event, mid, z_window).num_edges() as f32 / n;
        if ratio < target_ratio {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn small_event(seed: u64) -> Event {
        let geom = DetectorGeometry::default();
        let gun = GunConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        simulate_event(&geom, &gun, 50, 0.1, &mut rng)
    }

    #[test]
    fn hits_lie_on_layers() {
        let ev = small_event(1);
        for h in &ev.hits {
            let r = h.r();
            let nearest = ev
                .geometry
                .layer_radii
                .iter()
                .map(|&lr| (lr - r).abs())
                .fold(f32::INFINITY, f32::min);
            assert!(nearest < 1e-3, "hit at r {r} not on any layer");
            assert!(h.z.abs() <= ev.geometry.half_length + 0.01);
        }
    }

    #[test]
    fn truth_edges_connect_consecutive_layers_of_same_particle() {
        let ev = small_event(2);
        let edges = ev.truth_edges();
        assert!(!edges.is_empty());
        for &(a, b) in &edges {
            let (ha, hb) = (&ev.hits[a as usize], &ev.hits[b as usize]);
            assert_eq!(ha.particle, hb.particle);
            assert!(ha.particle.is_some());
            assert!(hb.layer > ha.layer);
        }
    }

    #[test]
    fn truth_tracks_cover_all_signal_hits() {
        let ev = small_event(3);
        let tracks = ev.truth_tracks();
        let covered: usize = tracks.iter().map(|t| t.len()).sum();
        let signal = ev.hits.iter().filter(|h| h.particle.is_some()).count();
        assert_eq!(covered, signal);
        // Layers strictly increase along each track.
        for t in &tracks {
            for w in t.windows(2) {
                assert!(ev.hits[w[1] as usize].layer > ev.hits[w[0] as usize].layer);
            }
        }
    }

    #[test]
    fn candidate_graph_contains_most_truth_edges() {
        let ev = small_event(4);
        let g = candidate_graph(&ev, 0.3, 0.3);
        let candidates: std::collections::HashSet<(u32, u32)> = g.edges().into_iter().collect();
        let truth = ev.truth_edges();
        // Adjacent-layer truth edges should almost all be candidates
        // (only multi-layer skips are excluded by construction).
        let adjacent: Vec<_> = truth
            .iter()
            .filter(|&&(a, b)| ev.hits[b as usize].layer == ev.hits[a as usize].layer + 1)
            .collect();
        let found = adjacent
            .iter()
            .filter(|&&&e| candidates.contains(&e))
            .count();
        assert!(
            found as f32 >= 0.95 * adjacent.len() as f32,
            "only {found}/{} adjacent truth edges are candidates",
            adjacent.len()
        );
    }

    #[test]
    fn labels_match_particle_identity() {
        let ev = small_event(5);
        let g = candidate_graph(&ev, 0.2, 0.2);
        for ((&s, &d), &l) in g.src.iter().zip(&g.dst).zip(&g.labels) {
            let same = match (ev.hits[s as usize].particle, ev.hits[d as usize].particle) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            assert_eq!(l > 0.5, same);
        }
    }

    #[test]
    fn wider_window_more_edges() {
        let ev = small_event(6);
        let narrow = candidate_graph(&ev, 0.05, 0.5).num_edges();
        let wide = candidate_graph(&ev, 0.5, 0.5).num_edges();
        assert!(wide > narrow);
    }

    #[test]
    fn tune_phi_window_hits_target() {
        let ev = small_event(7);
        let target = 4.0;
        let w = tune_phi_window(&ev, 0.5, target);
        let ratio = candidate_graph(&ev, w, 0.5).num_edges() as f32 / ev.num_hits() as f32;
        assert!(
            (ratio - target).abs() / target < 0.25,
            "ratio {ratio} for target {target}"
        );
    }

    #[test]
    fn wrap_phi_stays_in_range() {
        for d in [-7.0f32, -3.2, -0.1, 0.0, 3.2, 9.9] {
            let w = wrap_phi(d);
            assert!(w > -std::f32::consts::PI - 1e-6 && w <= std::f32::consts::PI + 1e-6);
            // Same angle modulo 2π.
            assert!(((d - w) / (2.0 * std::f32::consts::PI)).fract().abs() < 1e-5);
        }
    }

    #[test]
    fn hit_inefficiency_drops_hits() {
        let gun = GunConfig::default();
        let mut geom = DetectorGeometry::default();
        let mut rng = StdRng::seed_from_u64(21);
        let full = simulate_event(&geom, &gun, 200, 0.0, &mut rng);
        geom.hit_efficiency = 0.8;
        let mut rng = StdRng::seed_from_u64(21);
        let lossy = simulate_event(&geom, &gun, 200, 0.0, &mut rng);
        let ratio = lossy.num_hits() as f64 / full.num_hits() as f64;
        assert!((0.74..0.86).contains(&ratio), "hit survival ratio {ratio}");
        // Tracks with gaps still have valid truth: consecutive recorded
        // hits of one particle, layers strictly increasing.
        for t in lossy.truth_tracks() {
            for w in t.windows(2) {
                assert!(lossy.hits[w[1] as usize].layer > lossy.hits[w[0] as usize].layer);
            }
        }
    }

    #[test]
    fn noise_fraction_controls_noise_hits() {
        let geom = DetectorGeometry::default();
        let gun = GunConfig::default();
        let mut rng = StdRng::seed_from_u64(8);
        let ev = simulate_event(&geom, &gun, 100, 0.2, &mut rng);
        let noise = ev.hits.iter().filter(|h| h.particle.is_none()).count();
        let signal = ev.num_hits() - noise;
        let frac = noise as f32 / signal as f32;
        assert!((frac - 0.2).abs() < 0.02, "noise fraction {frac}");
    }
}
