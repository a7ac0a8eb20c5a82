//! Stage 2: fixed-radius nearest-neighbour graph construction in the
//! learned embedding space (paper §II-A). Also reports how much of the
//! truth survives construction — edges the radius graph misses can never
//! be recovered downstream.
//!
//! The heavy lifting lives in the pooled [`GraphConstructor`]: it holds
//! a reusable [`trkx_graph::GraphIndex`] (the cell-grid FRNN engine,
//! bit-identical to the brute-force oracle, see `trkx_graph::radius`)
//! plus the edge/key scratch buffers, so per-event construction in a
//! serving loop allocates nothing once warm. Truth labelling is a
//! sorted-merge join over packed `(src << 32) | dst` keys instead of
//! per-edge hash probes. The free functions below are thin wrappers
//! that build a throwaway constructor.

use trkx_detector::Event;
use trkx_graph::GraphIndex;
use trkx_tensor::Matrix;

/// How stage 2 connects hits in embedding space: fixed-radius, the
/// paper's description.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ConstructionMethod {
    /// Connect pairs within `radius`.
    FixedRadius { radius: f32 },
}

/// A constructed candidate-edge graph with truth labels and construction
/// quality metrics.
#[derive(Debug, Clone)]
pub struct ConstructedGraph {
    /// Directed edges, inner layer → outer layer.
    pub src: Vec<u32>,
    pub dst: Vec<u32>,
    /// 1.0 where the pair is a truth track edge.
    pub labels: Vec<f32>,
    /// Fraction of truth edges present among the candidates.
    pub edge_efficiency: f64,
    /// Fraction of candidates that are truth edges.
    pub edge_purity: f64,
}

impl ConstructedGraph {
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }
}

#[inline]
fn pack(s: u32, d: u32) -> u64 {
    (u64::from(s) << 32) | u64::from(d)
}

/// Pooled stage-2 engine: one spatial index plus edge/key scratch,
/// rebuilt per event with retained capacity. Hold one per worker and
/// call [`GraphConstructor::construct`] per event; steady-state
/// construction allocates only the output `ConstructedGraph` vectors.
#[derive(Debug, Default)]
pub struct GraphConstructor {
    index: GraphIndex,
    /// Raw undirected `(i, j)` pairs from the index, `i < j`.
    edges: Vec<(u32, u32)>,
    /// Packed oriented edge keys + candidate indices for the merge join.
    keys: Vec<(u64, u32)>,
    /// Sorted, deduplicated packed truth-edge keys.
    truth_keys: Vec<u64>,
}

impl GraphConstructor {
    /// Stage 2 for one event: candidate edges (oriented inner→outer by
    /// layer, same-layer pairs dropped) with merge-joined truth labels.
    pub fn construct(
        &mut self,
        event: &Event,
        embeddings: &Matrix,
        method: ConstructionMethod,
    ) -> ConstructedGraph {
        assert_eq!(embeddings.rows(), event.num_hits(), "one embedding per hit");
        let ConstructionMethod::FixedRadius { radius } = method;
        self.index
            .rebuild(embeddings.data(), embeddings.cols(), radius);
        self.index.radius_edges_into(radius, &mut self.edges);
        self.load_truth(event);

        let n = self.edges.len();
        let (mut src, mut dst, mut labels) = (vec![0u32; n], vec![0u32; n], vec![0.0f32; n]);
        let (m, found) = self.orient_and_join(event, |i, key, truth| {
            src[i] = (key >> 32) as u32;
            dst[i] = key as u32;
            if truth {
                labels[i] = 1.0;
            }
        });
        src.truncate(m);
        dst.truncate(m);
        labels.truncate(m);
        let edge_efficiency = if self.truth_keys.is_empty() {
            1.0
        } else {
            found as f64 / self.truth_keys.len() as f64
        };
        let edge_purity = if m == 0 { 1.0 } else { found as f64 / m as f64 };
        ConstructedGraph {
            src,
            dst,
            labels,
            edge_efficiency,
            edge_purity,
        }
    }

    /// Choose the smallest radius achieving at least `target_efficiency`
    /// (bisection). The index is built **once** and queried at every
    /// bisection midpoint — binning only routes candidates, so queries
    /// at any radius are exact — and each probe runs the count-only
    /// merge join, allocating nothing.
    pub fn tune_radius(
        &mut self,
        event: &Event,
        embeddings: &Matrix,
        target_efficiency: f64,
        max_radius: f32,
    ) -> f32 {
        assert_eq!(embeddings.rows(), event.num_hits(), "one embedding per hit");
        let dim = embeddings.cols();
        // Cell hint at half the search midpoint keeps grid sweeps tight
        // for the radii the bisection actually probes.
        self.index
            .rebuild(embeddings.data(), dim, 0.25 * max_radius);
        self.load_truth(event);
        let (mut lo, mut hi) = (1e-4f32, max_radius);
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            self.index.radius_edges_into(mid, &mut self.edges);
            let eff = if self.truth_keys.is_empty() {
                1.0
            } else {
                let (_, found) = self.orient_and_join(event, |_, _, _| {});
                found as f64 / self.truth_keys.len() as f64
            };
            if eff < target_efficiency {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Sorted, deduplicated truth keys for the current event.
    fn load_truth(&mut self, event: &Event) {
        self.truth_keys.clear();
        self.truth_keys
            .extend(event.truth_edges().into_iter().map(|(s, d)| pack(s, d)));
        self.truth_keys.sort_unstable();
        self.truth_keys.dedup();
    }

    /// Orient `self.edges` inner→outer by layer (same-layer pairs are
    /// dropped — a particle crosses each barrel layer once), then
    /// sorted-merge join the packed keys against the loaded truth.
    /// `visit(i, key, is_truth)` sees every oriented candidate `i`
    /// (numbered in edge order, visited in key order). Returns
    /// `(candidates, truth matches)`.
    fn orient_and_join(
        &mut self,
        event: &Event,
        mut visit: impl FnMut(usize, u64, bool),
    ) -> (usize, usize) {
        self.keys.clear();
        for &(a, b) in &self.edges {
            let (la, lb) = (event.hits[a as usize].layer, event.hits[b as usize].layer);
            let key = match la.cmp(&lb) {
                std::cmp::Ordering::Less => pack(a, b),
                std::cmp::Ordering::Greater => pack(b, a),
                std::cmp::Ordering::Equal => continue,
            };
            self.keys.push((key, self.keys.len() as u32));
        }
        self.keys.sort_unstable();
        let mut found = 0usize;
        let mut t = 0usize;
        for &(key, i) in &self.keys {
            while t < self.truth_keys.len() && self.truth_keys[t] < key {
                t += 1;
            }
            let truth = t < self.truth_keys.len() && self.truth_keys[t] == key;
            found += usize::from(truth);
            visit(i as usize, key, truth);
        }
        (self.keys.len(), found)
    }
}

/// Build the candidate graph by connecting hits within `radius` of each
/// other in embedding space (throwaway-constructor wrapper; hold a
/// [`GraphConstructor`] to pool across events).
pub fn build_graph_from_embeddings(
    event: &Event,
    embeddings: &Matrix,
    radius: f32,
) -> ConstructedGraph {
    GraphConstructor::default().construct(
        event,
        embeddings,
        ConstructionMethod::FixedRadius { radius },
    )
}

/// Choose the smallest radius achieving at least `target_efficiency`
/// (bisection over the embedding distances).
pub fn tune_radius(
    event: &Event,
    embeddings: &Matrix,
    target_efficiency: f64,
    max_radius: f32,
) -> f32 {
    GraphConstructor::default().tune_radius(event, embeddings, target_efficiency, max_radius)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;
    use trkx_detector::{simulate_event, DetectorGeometry, GunConfig};
    use trkx_graph::radius_graph_brute;

    fn event(seed: u64) -> Event {
        let mut rng = StdRng::seed_from_u64(seed);
        simulate_event(
            &DetectorGeometry::default(),
            &GunConfig::default(),
            20,
            0.1,
            &mut rng,
        )
    }

    /// An oracle embedding: each particle at its own location, noise far
    /// away — radius graph recovers exactly the truth tracks as cliques.
    fn oracle_embedding(ev: &Event) -> Matrix {
        Matrix::from_fn(ev.num_hits(), 2, |r, c| match ev.hits[r].particle {
            Some(p) => {
                let angle = p as f32 * 2.399; // golden-angle spread
                if c == 0 {
                    10.0 * angle.cos()
                } else {
                    10.0 * angle.sin()
                }
            }
            None => 1000.0 + r as f32 * 50.0,
        })
    }

    #[test]
    fn oracle_embedding_gives_full_efficiency() {
        let ev = event(1);
        let emb = oracle_embedding(&ev);
        let g = build_graph_from_embeddings(&ev, &emb, 0.5);
        assert_eq!(g.edge_efficiency, 1.0, "missed truth edges");
        // Candidates are only intra-particle pairs; purity below 1 solely
        // from non-consecutive layer pairs within a particle clique.
        assert!(g.edge_purity > 0.2);
        for ((&s, &d), &l) in g.src.iter().zip(&g.dst).zip(&g.labels) {
            assert!(ev.hits[s as usize].layer < ev.hits[d as usize].layer);
            let same = ev.hits[s as usize].particle == ev.hits[d as usize].particle;
            assert!(same, "cross-particle candidate from oracle embedding");
            let _ = l;
        }
    }

    #[test]
    fn zero_radius_finds_nothing() {
        // All-distinct embedding points: a tiny radius links nothing.
        let ev = event(2);
        let emb = Matrix::from_fn(ev.num_hits(), 2, |r, c| (r * 2 + c) as f32);
        let g = build_graph_from_embeddings(&ev, &emb, 1e-6);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edge_efficiency, 0.0);
    }

    #[test]
    fn radius_monotonically_increases_efficiency() {
        let ev = event(3);
        // Random-ish embedding from hit coordinates.
        let emb = hit_embedding(&ev);
        let e_small = build_graph_from_embeddings(&ev, &emb, 0.05).edge_efficiency;
        let e_large = build_graph_from_embeddings(&ev, &emb, 0.5).edge_efficiency;
        assert!(e_large >= e_small);
    }

    #[test]
    fn tune_radius_hits_target() {
        let ev = event(4);
        let emb = hit_embedding(&ev);
        let r = tune_radius(&ev, &emb, 0.9, 2.0);
        let g = build_graph_from_embeddings(&ev, &emb, r);
        assert!(
            g.edge_efficiency >= 0.88,
            "efficiency {} at r {r}",
            g.edge_efficiency
        );
    }

    /// Oracle for [`GraphConstructor::construct`]: brute-force radius
    /// edges, oriented by layer, labelled by hash-set lookup.
    fn oracle_graph(ev: &Event, emb: &Matrix, radius: f32) -> ConstructedGraph {
        let truth: HashSet<(u32, u32)> = ev.truth_edges().into_iter().collect();
        let (mut src, mut dst, mut labels) = (Vec::new(), Vec::new(), Vec::new());
        for (a, b) in radius_graph_brute(emb.data(), emb.cols(), radius) {
            let (la, lb) = (ev.hits[a as usize].layer, ev.hits[b as usize].layer);
            let (s, d) = match la.cmp(&lb) {
                std::cmp::Ordering::Less => (a, b),
                std::cmp::Ordering::Greater => (b, a),
                std::cmp::Ordering::Equal => continue,
            };
            src.push(s);
            dst.push(d);
            labels.push(if truth.contains(&(s, d)) { 1.0 } else { 0.0 });
        }
        let found = labels.iter().filter(|&&l| l == 1.0).count() as f64;
        ConstructedGraph {
            edge_efficiency: if truth.is_empty() {
                1.0
            } else {
                found / truth.len() as f64
            },
            edge_purity: if labels.is_empty() {
                1.0
            } else {
                found / labels.len() as f64
            },
            src,
            dst,
            labels,
        }
    }

    fn hit_embedding(ev: &Event) -> Matrix {
        Matrix::from_fn(ev.num_hits(), 3, |r, c| {
            let h = &ev.hits[r];
            [h.x, h.y, h.z][c]
        })
    }

    #[test]
    fn constructor_matches_brute_oracle() {
        let mut pooled = GraphConstructor::default();
        for seed in [7, 8] {
            let ev = event(seed);
            let emb = hit_embedding(&ev);
            let want = oracle_graph(&ev, &emb, 0.3);
            let got = pooled.construct(&ev, &emb, ConstructionMethod::FixedRadius { radius: 0.3 });
            assert_eq!(got.src, want.src, "seed {seed}");
            assert_eq!(got.dst, want.dst, "seed {seed}");
            assert_eq!(got.labels, want.labels, "seed {seed}");
            assert_eq!(got.edge_efficiency, want.edge_efficiency);
            assert_eq!(got.edge_purity, want.edge_purity);
        }
    }

    #[test]
    fn pooled_constructor_matches_throwaway_across_events() {
        let mut pooled = GraphConstructor::default();
        for seed in 10..14 {
            let ev = event(seed);
            let emb = hit_embedding(&ev);
            let a = pooled.construct(&ev, &emb, ConstructionMethod::FixedRadius { radius: 0.25 });
            let b = build_graph_from_embeddings(&ev, &emb, 0.25);
            assert_eq!(a.src, b.src, "seed {seed}");
            assert_eq!(a.dst, b.dst, "seed {seed}");
            assert_eq!(a.labels, b.labels, "seed {seed}");
        }
    }

    #[test]
    fn pooled_tune_radius_matches_throwaway_and_oracle() {
        let ev = event(4);
        let emb = hit_embedding(&ev);
        let fresh = tune_radius(&ev, &emb, 0.9, 2.0);
        // A constructor pooled across an earlier event bisects to the
        // same radius bit for bit.
        let mut pooled = GraphConstructor::default();
        let other = event(5);
        pooled.tune_radius(&other, &hit_embedding(&other), 0.9, 2.0);
        assert_eq!(pooled.tune_radius(&ev, &emb, 0.9, 2.0), fresh);
        // The same bisection over the brute-force oracle graph.
        let (mut lo, mut hi) = (1e-4f32, 2.0f32);
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            if oracle_graph(&ev, &emb, mid).edge_efficiency < 0.9 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert_eq!(fresh, hi);
    }
}
