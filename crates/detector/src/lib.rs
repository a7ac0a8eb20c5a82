//! # trkx-detector
//!
//! Synthetic HEP tracking-detector simulator: a particle gun with an
//! HEP-like falling pT spectrum, helical propagation through a solenoidal
//! field, a cylindrical barrel with Gaussian hit smearing and noise hits,
//! ground-truth track edges, doublet candidate-graph construction, and
//! dataset families ([`DatasetConfig::ctd_like`] /
//! [`DatasetConfig::ex3_like`]) matching the paper's Table I shapes.
//!
//! This crate substitutes for the CERN-hosted CTD and Ex3 event files
//! (unavailable offline); see DESIGN.md §1 for the substitution argument.

pub mod datasets;
pub mod event;
pub mod features;
pub mod helix;
pub mod io;
pub mod particle;
pub mod spill;

pub use datasets::{dataset_stats, split_80_10_10, DatasetConfig, DatasetStats, EventGraph};
pub use event::{
    candidate_graph, simulate_event, tune_phi_window, wrap_phi, CandidateGraph, DetectorGeometry,
    Event, Hit,
};
pub use features::{edge_features, vertex_features};
pub use helix::Helix;
pub use io::{generate_cached, load_dataset, save_dataset, DatasetFile};
pub use particle::{GunConfig, Particle};
pub use spill::{
    spill_adjacency, spill_adjacency_opts, spill_event_adjacency, SpilledAdjacency,
    DEFAULT_SHARDS_PER_PASS,
};
