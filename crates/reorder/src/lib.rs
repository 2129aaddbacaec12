//! # fbmpk-reorder
//!
//! Matrix reordering substrate for FBMPK's parallelization (paper §II-C,
//! §III-D).
//!
//! The centerpiece is the **algebraic block multi-color ordering** (ABMC,
//! Iwashita et al., IPDPS 2012): rows are grouped into blocks (by default
//! contiguous ranges or BFS aggregates, whichever colors in fewer
//! colors; see [`BlockingStrategy::FewestColors`]), the block
//! quotient graph is greedily distance-1 colored (our Colpack substitute),
//! and rows are renumbered block-by-block with blocks sorted by color. After
//! this symmetric permutation, same-color blocks share no matrix entry, so
//! the forward/backward sweeps can process all blocks of one color in
//! parallel with barriers only at color boundaries.
//!
//! Also provided: reverse Cuthill–McKee (the locality baseline the paper
//! cites), level scheduling (the alternative the paper's §VII discusses),
//! multilevel edge-cut partitioning ([`partition`], the cut-minimizing
//! third blocking strategy), and the undirected adjacency/quotient-graph
//! machinery they share.

pub mod abmc;
pub mod blocking;
pub mod coloring;
pub mod deps;
pub mod graph;
pub mod levels;
pub mod partition;
pub mod rcm;

pub use abmc::{Abmc, AbmcParams, BlockingStrategy, BLOCKS_PER_THREAD};
pub use coloring::{greedy_coloring, validate_coloring, ColoringOrdering};
pub use deps::{BlockDeps, DepStats};
pub use graph::Graph;
pub use partition::{balance_ratio, cut_edges, multilevel_blocks};
pub use rcm::rcm;
