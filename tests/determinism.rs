//! Determinism of the parallel execution layer: the pipeline must produce
//! bit-identical output for every thread count, limits must degrade
//! parallel runs as gracefully as sequential ones, and placeholder
//! profiles from degraded runs must never poison later complete runs.

use datagen::{to_catalog, AmbiguousSpec, World, WorldConfig};
use distinct::{
    DedupeOptions, Distinct, DistinctConfig, ResolveRequest, RunControl, Stage, TrainRequest,
    TrainingConfig,
};

fn dataset() -> datagen::DblpDataset {
    let mut config = WorldConfig::tiny(7);
    config.ambiguous = vec![
        AmbiguousSpec::new("Wei Wang", vec![10, 8, 5]),
        AmbiguousSpec::new("Hui Fang", vec![5, 4]),
    ];
    to_catalog(&World::generate(config)).expect("valid world")
}

fn engine(d: &datagen::DblpDataset) -> Distinct {
    let config = DistinctConfig {
        training: TrainingConfig {
            positives: 80,
            negatives: 80,
            ..Default::default()
        },
        ..Default::default()
    };
    Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap()
}

#[test]
fn training_and_resolution_are_identical_at_1_2_and_8_threads() {
    let d = dataset();

    // Reference run: strictly sequential.
    let mut reference = engine(&d);
    let ref_report = reference
        .train_with(&TrainRequest::new().threads(1))
        .unwrap();
    let refs = reference.references_of("Wei Wang");
    let ref_outcome = reference.resolve(&ResolveRequest::new(&refs).threads(1));
    assert!(ref_outcome.is_complete());
    let all = |e: &Distinct, threads: usize| {
        e.resolve_all(&DedupeOptions {
            threads,
            ..Default::default()
        })
    };
    let ref_all = all(&reference, 1);
    assert!(ref_all.skipped.is_empty());

    for threads in [2, 8] {
        let mut e = engine(&d);
        let report = e.train_with(&TrainRequest::new().threads(threads)).unwrap();
        assert_eq!(
            report.path_weights, ref_report.path_weights,
            "learned weights differ at {threads} threads"
        );
        assert_eq!(report.resem_accuracy, ref_report.resem_accuracy);
        assert_eq!(report.walk_accuracy, ref_report.walk_accuracy);
        // Task counts are thread-independent; only wall time may vary.
        assert_eq!(report.exec.profiles.tasks, ref_report.exec.profiles.tasks);
        assert_eq!(
            report.exec.similarity.tasks,
            ref_report.exec.similarity.tasks
        );

        let outcome = e.resolve(&ResolveRequest::new(&refs).threads(threads));
        assert!(outcome.is_complete());
        assert_eq!(
            outcome.clustering.labels, ref_outcome.clustering.labels,
            "clustering differs at {threads} threads"
        );
        assert_eq!(
            outcome.clustering.cluster_count(),
            ref_outcome.clustering.cluster_count()
        );
        assert_eq!(outcome.exec.profiles.tasks, ref_outcome.exec.profiles.tasks);
        assert_eq!(
            outcome.exec.similarity.tasks,
            ref_outcome.exec.similarity.tasks
        );
        assert_eq!(
            outcome.exec.clustering.tasks,
            ref_outcome.exec.clustering.tasks
        );

        let whole = all(&e, threads);
        assert_eq!(
            whole.groups(),
            ref_all.groups(),
            "resolve_all differs at {threads} threads"
        );
        assert_eq!(whole.entity_count(), ref_all.entity_count());
    }
}

#[test]
fn constrained_resolution_is_thread_count_independent() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Wei Wang");
    let constrained = |threads: usize| {
        e.resolve(
            &ResolveRequest::new(&refs)
                .must_link(&[(0, 1)])
                .cannot_link(&[(2, 3)])
                .threads(threads),
        )
        .clustering
        .labels
    };
    let base = constrained(1);
    assert_eq!(base[0], base[1]);
    assert_ne!(base[2], base[3]);
    for threads in [2, 8] {
        assert_eq!(constrained(threads), base, "{threads} threads");
    }
}

#[test]
fn cancellation_under_parallelism_returns_a_full_partition() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Wei Wang");

    // Cold engine, pre-cancelled: no profile completes, everything stays
    // a singleton, and the degradation is attributed to the profile stage.
    let ctl = RunControl::new();
    ctl.token().cancel();
    let outcome = e.resolve(&ResolveRequest::new(&refs).control(&ctl).threads(8));
    assert_eq!(outcome.clustering.labels.len(), refs.len());
    assert_eq!(outcome.clustering.cluster_count(), refs.len());
    let deg = outcome.degraded.expect("cancelled run must degrade");
    assert_eq!(deg.stage, Stage::Profiles);
    assert_eq!(deg.profiles_computed, 0);
    assert!(!deg.clustering_completed);

    // Warm cache, pre-cancelled: profiles are free cache hits, so the trip
    // lands on the similarity matrix instead — still a full partition.
    let _ = e.resolve(&ResolveRequest::new(&refs).threads(8));
    let ctl = RunControl::new();
    ctl.token().cancel();
    let outcome = e.resolve(&ResolveRequest::new(&refs).control(&ctl).threads(8));
    assert_eq!(outcome.clustering.labels.len(), refs.len());
    assert_eq!(outcome.clustering.cluster_count(), refs.len());
    let deg = outcome.degraded.expect("cancelled run must degrade");
    assert_eq!(deg.stage, Stage::SimilarityMatrix);
    assert_eq!(deg.profiles_computed, refs.len());
}

#[test]
fn degraded_runs_never_poison_later_complete_runs() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Hui Fang");

    // Starved run: placeholder profiles everywhere, nothing cached.
    let ctl = RunControl::new().with_budget(0);
    let degraded = e.resolve(&ResolveRequest::new(&refs).control(&ctl).threads(2));
    assert!(degraded.degraded.is_some());
    assert_eq!(degraded.clustering.cluster_count(), refs.len());
    assert_eq!(e.cached_profiles(), 0, "placeholders must never be cached");

    // A later unconstrained run recomputes real profiles and matches a
    // fresh engine that never saw the degraded run.
    let recovered = e.resolve(&ResolveRequest::new(&refs));
    assert!(recovered.is_complete());
    let fresh = engine(&d).resolve(&ResolveRequest::new(&refs));
    assert_eq!(recovered.clustering.labels, fresh.clustering.labels);
}
