//! # relgraph — probabilistic linkage machinery over a relational store
//!
//! Implements §2 of the DISTINCT paper on top of [`relstore`]:
//!
//! * [`LinkGraph`] — a compact CSR view of every foreign-key edge for fast
//!   repeated traversal;
//! * [`propagate()`] — uniform probability propagation along a join path,
//!   producing both `Prob_P(r → t)` (connection strength of each neighbor
//!   tuple) and `Prob_P(t → r)` in a single pass (paper §2.2, Fig. 3);
//! * [`WeightedSet`] — weighted neighbor-tuple sets with the
//!   connection-strength-weighted Jaccard of Definition 2;
//! * [`directed_walk`] — random-walk probability from one reference to
//!   another along a path and its reverse (paper §2.4), a merge-join over
//!   sorted forward and backward sets.
//!
//! These are pair-at-a-time kernels. The engine fills a name's tables in
//! one inverted-index pass over the sets that yields the same bits, and
//! tests compare that pass against these kernels.

#![warn(missing_docs)]

pub mod graph;
pub mod neighbors;
pub mod propagate;
pub mod walk;

pub use graph::{LinkGraph, NodeId};
pub use neighbors::WeightedSet;
pub use propagate::{propagate, propagate_blocked, propagate_blocked_guarded, Propagation};
pub use walk::directed_walk;
