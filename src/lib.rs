//! # object-distinction — facade crate
//!
//! A from-scratch Rust reproduction of **DISTINCT** (Yin, Han, Yu:
//! *Object Distinction — Distinguishing Objects with Identical Names*,
//! ICDE 2007). This crate re-exports the whole workspace so downstream
//! users can depend on one name; the repository's examples and
//! integration tests do exactly that.
//!
//! * [`exec`] — the deterministic scoped thread pool behind the parallel
//!   pipeline stages (thread-count selection, `DISTINCT_THREADS`);
//! * [`relstore`] — the in-memory relational database substrate;
//! * [`relgraph`] — probability propagation and random-walk machinery;
//! * [`svm`] — the from-scratch linear SVM (SMO, Platt calibration);
//! * [`cluster`] — the agglomerative clustering engine and constraints;
//! * [`datagen`] — the synthetic DBLP-schema world generator;
//! * [`eval`] — pairwise / B³ / ARI metrics, confusion analysis, tables;
//! * [`distinct`] — the paper's methodology: the [`distinct::Distinct`]
//!   engine (prepare → train → resolve), variants, calibration, and
//!   whole-database resolution.
//!
//! ```no_run
//! use distinct::{Distinct, DistinctConfig, ResolveRequest};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let catalog = relstore::Catalog::new();
//! let mut engine = Distinct::prepare(&catalog, "Publish", "author", DistinctConfig::default())?;
//! engine.train()?;
//! let refs = engine.references_of("Wei Wang");
//! let outcome = engine.resolve(&ResolveRequest::new(&refs));
//! println!("{} references -> {} people", refs.len(), outcome.clustering.cluster_count());
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub use cluster;
pub use datagen;
pub use distinct;
pub use eval;
pub use exec;
pub use relgraph;
pub use relstore;
pub use svm;
