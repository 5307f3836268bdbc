//! # distinct — the DISTINCT object-distinction methodology
//!
//! Reproduction of Yin, Han, Yu, *Object Distinction: Distinguishing
//! Objects with Identical Names* (ICDE 2007). Given a relational database
//! and a set of references sharing one textual name, DISTINCT splits the
//! references into clusters, one per real-world entity, using only the
//! linkage structure of the database:
//!
//! * per-join-path **set resemblance** of weighted neighbor tuples
//!   (Definition 2) and **random walk probability** (§2.4) —
//!   [`features`], backed by [`relgraph`];
//! * **supervised path weighting** from an automatically constructed
//!   training set of rare (hence unique) names — [`training`], [`learn`];
//! * **agglomerative clustering** under a composite cluster similarity
//!   (geometric mean of Average-Link resemblance and collective random
//!   walk), maintained incrementally across merges — [`refcluster`],
//!   backed by the [`cluster`] crate.
//!
//! Entry point: [`Distinct`] in [`pipeline`], driven by a
//! [`ResolveRequest`] / [`TrainRequest`] (see [`request`]). The six
//! comparison variants of the paper's Fig. 4 live in [`variants`];
//! Fig. 5-style reports in [`report`].
//!
//! ```no_run
//! use distinct::{Distinct, DistinctConfig, ResolveRequest};
//! # fn main() -> Result<(), distinct::DistinctError> {
//! # let catalog = relstore::Catalog::new();
//! let mut engine = Distinct::prepare(&catalog, "Publish", "author", DistinctConfig::default())?;
//! engine.train()?;
//! let refs = engine.references_of("Wei Wang");
//! let outcome = engine.resolve(&ResolveRequest::new(&refs));
//! println!("{} references -> {} authors", refs.len(), outcome.clustering.cluster_count());
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

mod cache;

pub mod calibrate;
pub mod checkpoint;
pub mod config;
pub mod control;
pub mod dedupe;
pub mod features;
pub mod learn;
pub mod paths;
pub mod pipeline;
pub mod probe;
pub mod refcluster;
pub mod report;
pub mod request;
pub mod runmgr;
pub mod training;
pub mod update;
pub mod variants;

pub use calibrate::{
    calibrate_min_sim, synthesize_groups, CalibrationConfig, CalibrationResult, PseudoGroup,
};
pub use checkpoint::{CHECKPOINT_FORMAT_VERSION, CHECKPOINT_MAGIC, CHECKPOINT_MAGIC_PREFIX};
pub use config::{CompositeMode, DistinctConfig, MeasureMode, TrainingConfig, WeightingMode};
pub use control::{
    current_rss_bytes, peak_rss_bytes, CancelToken, InterruptKind, Progress, RunControl, Stage,
    TripHandle,
};
pub use dedupe::{DedupeOptions, EntityAssignment, NameResolution};
pub use features::{
    build_profile, build_profile_guarded, directed_walk_features, empty_profile,
    resemblance_features, walk_features, weighted_pair, weighted_sum, Profile,
};
pub use learn::{
    assemble_datasets, learn_weights, learn_weights_guarded, LearnedModel, PathWeights,
};
pub use paths::PathSet;
pub use pipeline::{Degraded, Distinct, DistinctError, ResolveOutcome, TrainingReport};
pub use probe::StageProbe;
pub use refcluster::{DistinctMerger, PairCounters};
pub use report::{render_name_dot, render_name_report};
pub use request::{ExecReport, ResolveRequest, StageStats, TrainRequest};
pub use runmgr::{DurableOutcome, RunOptions, RunReport, UpdateStreamOutcome, RUN_FORMAT_VERSION};
pub use training::{
    build_training_set, featurize_pairs, PairFeatures, TrainingError, TrainingPair, TrainingSet,
};
pub use update::{UpdateReport, UpdateTuple};
pub use variants::{min_sim_grid, Variant};
