//! The generated catalogs each workload runs on.
//!
//! Every workload runs against one catalog, the way a deployment does:
//! the worlds come from the fixed [`WORLD_SEED`], and the workload
//! seed drives the traffic (which names are asked and in what order,
//! which papers arrive, the order of the kill sweep; `catalog` has none). Per-seed differences between generated
//! worlds moved latencies and training time by up to 2x, well beyond any
//! bound a benchmark can hold.

use datagen::{AmbiguousSpec, WorldConfig};

/// World seed of every workload: the repository's standard experiment
/// seed.
pub const WORLD_SEED: u64 = distinct_bench::STANDARD_SEED;

/// How big the worlds are: `Full` for measurement, `Tiny` for the smoke
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the metrics are defined on.
    Full,
    /// A few hundred authors: every code path, in about a second.
    Tiny,
}

/// Planted names of the tiny worlds: two groups, enough to exercise
/// splitting, the Table 1 checks and the durable sweep.
fn tiny_ambiguous() -> Vec<AmbiguousSpec> {
    vec![
        AmbiguousSpec::new("Wei Wang", vec![8, 6]),
        AmbiguousSpec::new("Lei Wang", vec![5, 4]),
    ]
}

/// The standard world (2K authors, the Table 1 names planted).
pub fn standard(seed: u64, scale: Scale) -> WorldConfig {
    match scale {
        Scale::Full => distinct_bench::standard_world_config(seed),
        Scale::Tiny => WorldConfig {
            ambiguous: tiny_ambiguous(),
            ..WorldConfig::tiny(seed)
        },
    }
}

/// A world with the [`WorldConfig::paper_scale`] ratios (venues,
/// communities and name pools per author) shrunk to `n_authors`.
pub fn paper_ratio(seed: u64, n_authors: usize, scale: Scale) -> WorldConfig {
    let paper = WorldConfig::paper_scale(seed);
    let (n_authors, ambiguous) = match scale {
        Scale::Full => (n_authors, paper.ambiguous.clone()),
        Scale::Tiny => (400, tiny_ambiguous()),
    };
    let shrink = |x: usize, floor: usize| (x * n_authors / paper.n_authors).max(floor);
    WorldConfig {
        n_authors,
        n_venues: shrink(paper.n_venues, 8),
        n_communities: shrink(paper.n_communities, 4),
        first_name_pool: shrink(paper.first_name_pool, 40),
        last_name_pool: shrink(paper.last_name_pool, 80),
        ambiguous,
        ..paper
    }
}

/// The planted names of a configuration, in config order.
pub fn planted_names(config: &WorldConfig) -> Vec<String> {
    config.ambiguous.iter().map(|a| a.name.clone()).collect()
}
