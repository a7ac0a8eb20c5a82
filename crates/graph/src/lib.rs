//! # trkx-graph
//!
//! Graph algorithms for the tracking pipeline: CSR adjacency lists for
//! traversal, union-find connected components (stage 5: track building),
//! and the stage-2 graph-construction engine — a pooled [`GraphIndex`]
//! over a cell-grid FRNN index, emitting fixed-radius edge lists over
//! the learned embedding space directly in deterministic `(src, dst)`
//! order at any thread count, bit-identical to the brute-force oracle
//! [`radius_graph_brute`] (see [`radius`] for the ordering contract).

pub mod adjacency;
pub mod components;
pub mod grid;
pub mod index;
pub mod radius;
pub mod union_find;

pub use adjacency::AdjList;
pub use components::{components_as_groups, connected_components, connected_components_bfs};
pub use grid::GridIndex;
pub use index::GraphIndex;
pub use radius::{radius_graph, radius_graph_brute};
pub use union_find::UnionFind;
