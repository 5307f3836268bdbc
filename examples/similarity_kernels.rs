//! Selecting the similarity build: the indexed-pass default resolve vs
//! explicit `Exact`, and kernel-unit accounting — the `Resemblance` API
//! (DESIGN.md §15) through the public crate surface.

use datagen::{AmbiguousSpec, World, WorldConfig};
use distinct::{Distinct, DistinctConfig, Resemblance, ResolveRequest};

fn main() {
    let mut config = WorldConfig::tiny(3);
    config.n_authors = 120;
    config.n_venues = 12;
    config.n_communities = 5;
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![6, 4])];
    let d = datagen::to_catalog(&World::generate(config)).expect("world");
    let engine = Distinct::prepare(&d.catalog, "Publish", "author", DistinctConfig::default())
        .expect("prepare");
    let refs = &d.truths[0].refs;

    // Default request runs the indexed pass.
    let req = ResolveRequest::new(refs).threads(8);
    assert_eq!(req.similarity_kernel(), Resemblance::Pruned);
    let pruned = engine.resolve(&req);
    assert!(pruned.degraded.is_none());
    let exec = pruned.exec;
    assert_eq!(exec.pairs_pruned + exec.pairs_exact, exec.pairs_total);
    assert!(exec.pairs_total > 0 && exec.pairs_pruned > 0);

    // Exact is one builder call away and must agree label for label.
    let exact = engine.resolve(
        &ResolveRequest::new(refs)
            .threads(8)
            .similarity(Resemblance::Exact),
    );
    assert_eq!(exact.clustering.labels, pruned.clustering.labels);
    assert_eq!(
        exact.clustering.dendrogram.merges(),
        pruned.clustering.dendrogram.merges()
    );
    assert_eq!(exact.exec.pairs_pruned, 0);

    println!(
        "indexed pass: {} / {} units pruned ({:.1}%), labels identical to Exact across {} refs",
        exec.pairs_pruned,
        exec.pairs_total,
        100.0 * exec.pairs_pruned as f64 / exec.pairs_total as f64,
        refs.len()
    );
}
