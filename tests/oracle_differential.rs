//! Differential testing: the production pipeline against the reference
//! oracle.
//!
//! For each generated world the production engine (`Distinct` +
//! `ResolveRequest`) runs under every combination of thread count
//! {1, 4} and cache state {cold, warm}, and must agree with the
//! `oracle` crate's transparently-literal implementations:
//!
//! * per-pair resemblance / walk / similarity within `1e-9` (the two
//!   sides sum identical term sets in different orders, so they can
//!   differ by float non-associativity but nothing else — see
//!   DESIGN.md §11 for the tolerance budget);
//! * byte-identical final labels and merge-by-merge identical
//!   dendrograms (ids and sizes exact, similarities within `1e-9`).
//!
//! The indexed similarity pass is also held to the sequential exact
//! build, `DistinctMerger::from_profiles`, over the same profiles: its
//! tables bit for bit, and the clustering that build yields label for
//! label and merge for merge.
//!
//! On disagreement the failing world is shrunk to a locally minimal
//! configuration with `datagen::shrink_world` and the test panics with
//! its JSON — a ready-to-paste regression case.

use cluster::Merger;
use datagen::{AmbiguousSpec, World, WorldConfig};
use distinct::{
    Distinct, DistinctConfig, DistinctMerger, ResolveRequest, TrainingConfig, WeightingMode,
};
use oracle::{Composite, Measure, OracleEngine};

const TOLERANCE: f64 = 1e-9;
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn world_config(seed: u64, ambiguous: Vec<AmbiguousSpec>) -> WorldConfig {
    let mut config = WorldConfig::tiny(seed);
    config.n_authors = 120;
    config.n_venues = 12;
    config.n_communities = 5;
    config.ambiguous = ambiguous;
    config
}

fn engine_config(supervised: bool) -> DistinctConfig {
    DistinctConfig {
        max_path_len: 3,
        min_sim: 1e-4,
        weighting: if supervised {
            WeightingMode::Supervised
        } else {
            WeightingMode::Uniform
        },
        training: TrainingConfig {
            positives: 60,
            negatives: 60,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Largest absolute difference between two matrices.
fn max_delta(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    let mut worst: f64 = 0.0;
    for (ra, rb) in a.iter().zip(b) {
        for (&x, &y) in ra.iter().zip(rb) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

/// First cell where two matrices differ in their f64 bit patterns, if any.
/// Bitwise (not `==`) so a `-0.0` vs `+0.0` drift in the indexed pass's
/// reconstructed zeros fails loudly instead of hiding behind IEEE equality.
fn first_bit_mismatch(a: &[Vec<f64>], b: &[Vec<f64>]) -> Option<(usize, usize, f64, f64)> {
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        for (j, (&x, &y)) in ra.iter().zip(rb).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Some((i, j, x, y));
            }
        }
    }
    None
}

/// Run the full differential check on one world. `Err` carries a
/// human-readable description of the first disagreement.
fn check_world(config: &WorldConfig, supervised: bool) -> Result<(), String> {
    let d = datagen::to_catalog(&World::generate(config.clone()))
        .map_err(|e| format!("world does not convert: {e:?}"))?;
    // One reference engine, trained once, defines the weights both sides
    // use; per-(threads) engines below re-run cold with those weights.
    let mut reference_engine =
        Distinct::prepare(&d.catalog, "Publish", "author", engine_config(supervised))
            .map_err(|e| format!("prepare failed: {e:?}"))?;
    if supervised {
        reference_engine
            .train()
            .map_err(|e| format!("training failed: {e:?}"))?;
    }
    let weights = reference_engine.weights().clone();
    let min_sim = reference_engine.config().min_sim;

    // The oracle's independent path selection must agree with the
    // production PathSet before any numbers are compared.
    let (oracle_paths, oracle_fk) = oracle::select_paths(
        reference_engine.catalog(),
        "Publish",
        "author",
        reference_engine.config().max_path_len,
    )
    .ok_or("oracle path selection failed")?;
    let prod_paths = &reference_engine.paths().paths;
    if oracle_paths != *prod_paths || oracle_fk != reference_engine.paths().ref_fk {
        return Err(format!(
            "path selection disagrees: oracle {} paths, production {}",
            oracle_paths.len(),
            prod_paths.len()
        ));
    }

    let oracle_engine = OracleEngine::new(
        reference_engine.catalog(),
        oracle_paths,
        oracle_fk,
        weights.resem.clone(),
        weights.walk.clone(),
        Measure::Combined,
        Composite::Geometric,
    );

    for truth in &d.truths {
        let refs = &truth.refs;
        let tables = oracle_engine.pairwise(refs);
        let expected = oracle_engine.resolve(refs, min_sim);
        for threads in THREAD_COUNTS {
            // Cold: a fresh engine with an empty profile cache.
            let mut engine =
                Distinct::prepare(&d.catalog, "Publish", "author", engine_config(supervised))
                    .map_err(|e| format!("prepare failed: {e:?}"))?;
            engine
                .set_weights(weights.clone())
                .map_err(|e| format!("set_weights failed: {e:?}"))?;
            // Cold runs build with the indexed pass, so the oracle
            // checks below also vet the pass — and its accounting must
            // balance: every scheduled kernel unit is either pruned (its
            // sets share no node) or evaluated exactly, and the cold build
            // indexes a forward and a backward set per reference and path.
            let cold = engine.resolve(&ResolveRequest::new(refs).threads(threads));
            if cold.degraded.is_some() {
                return Err(format!("unlimited run degraded for `{}`", truth.name));
            }
            let n_pairs = (refs.len() * refs.len().saturating_sub(1) / 2) as u64;
            let n_paths = engine.paths().len() as u64;
            if cold.exec.pairs_total != n_pairs * n_paths
                || cold.exec.pairs_pruned + cold.exec.pairs_exact != cold.exec.pairs_total
                || cold.exec.arena_rows_interned != 2 * refs.len() as u64 * n_paths
            {
                return Err(format!(
                    "`{}` kernel-unit accounting broken (threads={threads}): \
                     total {} (expected {}), pruned {} + exact {}, {} sets indexed",
                    truth.name,
                    cold.exec.pairs_total,
                    n_pairs * n_paths,
                    cold.exec.pairs_pruned,
                    cold.exec.pairs_exact,
                    cold.exec.arena_rows_interned
                ));
            }

            // Stage probe (also warms the cache): per-stage 1e-9 agreement.
            let probe = engine.stage_probe(refs);
            for (stage, prod, oracle) in [
                ("resemblance", &probe.resemblance, &tables.resemblance),
                ("walk", &probe.walk, &tables.walk),
                ("similarity", &probe.similarity, &tables.similarity),
            ] {
                let delta = max_delta(prod, oracle);
                if delta > TOLERANCE {
                    return Err(format!(
                        "`{}` {stage} disagrees by {delta:e} (threads={threads})",
                        truth.name
                    ));
                }
            }

            // Losslessness at full precision: the stage tables of the
            // indexed pass must be *bit-identical* to the exact reference
            // build over the same profiles, not merely within tolerance.
            let cfg = engine.config();
            let mut exact = DistinctMerger::from_profiles(
                &probe.profiles,
                engine.weights(),
                cfg.measure,
                cfg.composite,
            );
            let n = refs.len();
            let mut exact_t = vec![vec![vec![0.0; n]; n]; 3];
            for i in 0..n {
                for j in (0..n).filter(|&j| j != i) {
                    exact_t[0][i][j] = exact.leaf_resemblance(i, j);
                    exact_t[1][i][j] = exact.leaf_walk(i, j);
                    exact_t[2][i][j] = exact.similarity(i, j);
                }
            }
            for (stage, indexed, exact_t) in [
                ("resemblance", &probe.resemblance, &exact_t[0]),
                ("walk", &probe.walk, &exact_t[1]),
                ("similarity", &probe.similarity, &exact_t[2]),
            ] {
                if let Some((i, j, p, e)) = first_bit_mismatch(indexed, exact_t) {
                    return Err(format!(
                        "`{}` indexed {stage}[{i}][{j}] = {p:e} is not bit-identical \
                         to exact {e:e} (threads={threads})",
                        truth.name
                    ));
                }
            }
            // And the exact build clusters exactly as the production run.
            let reference = cluster::agglomerate(n, &mut exact, min_sim);
            if reference.labels != cold.clustering.labels
                || reference.dendrogram.merges() != cold.clustering.dendrogram.merges()
            {
                return Err(format!(
                    "`{}` production run differs from the exact build's clustering \
                     (threads={threads})",
                    truth.name
                ));
            }

            // Warm: resolve again off the populated cache — byte-identical.
            let warm = engine.resolve(&ResolveRequest::new(refs).threads(threads));
            if warm.clustering.labels != cold.clustering.labels
                || warm.clustering.dendrogram.merges() != cold.clustering.dendrogram.merges()
            {
                return Err(format!(
                    "`{}` warm run differs from cold (threads={threads})",
                    truth.name
                ));
            }

            // Final clustering: labels exact, dendrogram merge by merge.
            if cold.clustering.labels != expected.labels {
                return Err(format!(
                    "`{}` labels disagree (threads={threads}): production {:?}, oracle {:?}",
                    truth.name, cold.clustering.labels, expected.labels
                ));
            }
            let prod_merges = cold.clustering.dendrogram.merges();
            if prod_merges.len() != expected.merges.len() {
                return Err(format!(
                    "`{}` merge counts disagree (threads={threads}): {} vs {}",
                    truth.name,
                    prod_merges.len(),
                    expected.merges.len()
                ));
            }
            for (p, o) in prod_merges.iter().zip(&expected.merges) {
                if (p.a, p.b, p.into, p.size) != (o.a, o.b, o.into, o.size)
                    || (p.similarity - o.similarity).abs() > TOLERANCE
                {
                    return Err(format!(
                        "`{}` dendrograms disagree (threads={threads}): \
                         production ({}, {}) -> {} @ {:.12}, oracle ({}, {}) -> {} @ {:.12}",
                        truth.name, p.a, p.b, p.into, p.similarity, o.a, o.b, o.into, o.similarity
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Check a world; on failure, shrink to a minimal counterexample first.
fn assert_world_agrees(config: WorldConfig, supervised: bool) {
    if let Err(original) = check_world(&config, supervised) {
        let minimal = datagen::shrink_world(config, |c| check_world(c, supervised).is_err());
        let failure = check_world(&minimal, supervised)
            .expect_err("shrinking preserves the failure predicate");
        panic!(
            "production pipeline disagrees with the oracle.\n\
             original failure: {original}\n\
             minimal failure:  {failure}\n\
             minimal config:\n{}",
            serde_json::to_string_pretty(&minimal).unwrap()
        );
    }
}

#[test]
fn world_1_two_entity_split() {
    assert_world_agrees(
        world_config(3, vec![AmbiguousSpec::new("Wei Wang", vec![6, 4])]),
        false,
    );
}

#[test]
fn world_2_three_entity_split() {
    assert_world_agrees(
        world_config(11, vec![AmbiguousSpec::new("Lei Li", vec![5, 4, 2])]),
        false,
    );
}

#[test]
fn world_3_uneven_split() {
    assert_world_agrees(
        world_config(19, vec![AmbiguousSpec::new("Bin Yu", vec![7, 2])]),
        false,
    );
}

#[test]
fn world_4_two_ambiguous_names() {
    assert_world_agrees(
        world_config(
            27,
            vec![
                AmbiguousSpec::new("Wei Wang", vec![4, 4]),
                AmbiguousSpec::new("Hui Fang", vec![3, 3]),
            ],
        ),
        false,
    );
}

#[test]
fn world_5_supervised_weights() {
    assert_world_agrees(
        world_config(35, vec![AmbiguousSpec::new("Rakesh Kumar", vec![5, 4])]),
        true,
    );
}

/// Pruning must actually happen on realistic data — an indexed pass that
/// evaluated every unit would pass every losslessness check while
/// delivering none of the speedup it exists for.
#[test]
fn pruned_kernel_prunes_on_a_real_world() {
    let config = world_config(3, vec![AmbiguousSpec::new("Wei Wang", vec![6, 4])]);
    let d = datagen::to_catalog(&World::generate(config)).unwrap();
    let engine = Distinct::prepare(&d.catalog, "Publish", "author", engine_config(false)).unwrap();
    let refs = &d.truths[0].refs;
    let outcome = engine.resolve(&ResolveRequest::new(refs));
    assert!(outcome.degraded.is_none());
    let exec = outcome.exec;
    assert_eq!(exec.pairs_pruned + exec.pairs_exact, exec.pairs_total);
    assert!(
        exec.pairs_pruned > 0,
        "no kernel unit pruned out of {} on a multi-entity world",
        exec.pairs_total
    );
}

/// Regression for the sorted-iteration (lint D107) conversion of
/// `WeightedSet`: the resemblance of two sets must be **bit-identical**
/// however their backing maps were populated — f64 addition is not
/// associative, and the old hash-order accumulation let insertion history
/// perturb low-order bits — and must still agree with the oracle's
/// literal Definition-2 union walk.
#[test]
fn resemblance_is_insertion_order_invariant_and_matches_oracle() {
    use oracle::Mass;
    use relgraph::{NodeId, WeightedSet};
    use relstore::{RelId, TupleId, TupleRef};

    // Deterministic pseudo-random weights over a moderately large support.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 + 1e-6
    };
    let a_pairs: Vec<(u32, f64)> = (0..200).map(|i| (i * 3 % 251, next())).collect();
    let b_pairs: Vec<(u32, f64)> = (0..180).map(|i| (i * 7 % 251, next())).collect();

    let build = |pairs: &[(u32, f64)]| -> WeightedSet {
        pairs.iter().map(|&(n, w)| (NodeId(n), w)).collect()
    };
    // Three insertion orders: as generated, reversed, and odd-then-even.
    let orders = |pairs: &[(u32, f64)]| -> Vec<Vec<(u32, f64)>> {
        let rev: Vec<_> = pairs.iter().rev().copied().collect();
        let mut split: Vec<_> = pairs.iter().skip(1).step_by(2).copied().collect();
        split.extend(pairs.iter().step_by(2).copied());
        vec![pairs.to_vec(), rev, split]
    };

    let reference = build(&a_pairs).resemblance(&build(&b_pairs));
    for ao in orders(&a_pairs) {
        for bo in orders(&b_pairs) {
            let r = build(&ao).resemblance(&build(&bo));
            assert_eq!(
                r.to_bits(),
                reference.to_bits(),
                "insertion order changed resemblance: {r} vs {reference}"
            );
        }
    }

    // And the production value still matches the oracle's literal
    // Definition-2 accumulation over the sorted union.
    let mass = |pairs: &[(u32, f64)]| -> Mass {
        let mut m = Mass::new();
        for &(n, w) in pairs {
            *m.entry(TupleRef::new(RelId(0), TupleId(n))).or_insert(0.0) += w;
        }
        m
    };
    let oracle_r = oracle::weighted_jaccard(&mass(&a_pairs), &mass(&b_pairs));
    assert!(
        (reference - oracle_r).abs() < 1e-12,
        "core {reference} vs oracle {oracle_r}"
    );
}
