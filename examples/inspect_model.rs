//! Model inspection: train DISTINCT, auto-calibrate the threshold, and
//! dump everything a practitioner would want to see — the learned weight
//! of every join path, the similarity distributions of same-entity vs
//! cross-entity reference pairs, and a full min-sim sweep.
//!
//! Run: `cargo run --release --example inspect_model [seed] [--tiny]`

use datagen::{AmbiguousSpec, World, WorldConfig};
use distinct::{Distinct, DistinctConfig, TrainingConfig};

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let mut config = if tiny {
        WorldConfig::tiny(42)
    } else {
        WorldConfig::default()
    };
    config.ambiguous = vec![
        AmbiguousSpec::new("Wei Wang", vec![10, 8, 5]),
        AmbiguousSpec::new("Hui Fang", vec![5, 4]),
    ];
    if let Some(seed) = std::env::args().nth(1).filter(|a| a != "--tiny") {
        config.seed = seed.parse().unwrap();
    }
    let d = datagen::to_catalog(&World::generate(config)).unwrap();
    let cfg = DistinctConfig {
        training: TrainingConfig {
            positives: 250,
            negatives: 250,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", cfg).unwrap();
    let report = engine.train().unwrap();
    if let Some(c) = engine
        .calibrate_threshold(&distinct::CalibrationConfig::default())
        .unwrap()
    {
        println!(
            "calibrated min_sim = {} (f {:.3}, acc {:.3}, {} groups)",
            c.min_sim, c.f_measure, c.accuracy, c.groups
        );
        for (t, a, f) in &c.sweep {
            println!("  cal sweep {t:.0e}: acc {a:.3} f {f:.3}");
        }
    }
    println!(
        "unique names: {}, pos {}, neg {}, resem acc {:.3}, walk acc {:.3}",
        report.unique_names,
        report.positives,
        report.negatives,
        report.resem_accuracy,
        report.walk_accuracy
    );
    for (desc, r, w) in &report.path_weights {
        println!("  resem {r:.4}  walk {w:.4}  {desc}");
    }

    // Similarity distributions for the Wei Wang refs.
    let truth = &d.truths[0];
    let profiles: Vec<_> = truth.refs.iter().map(|&r| engine.profile(r)).collect();
    let merger = distinct::DistinctMerger::from_profiles(
        &profiles,
        engine.weights(),
        distinct::MeasureMode::Combined,
        distinct::CompositeMode::Geometric,
    );
    let mut same = Vec::new();
    let mut diff = Vec::new();
    for i in 0..profiles.len() {
        for j in (i + 1)..profiles.len() {
            let r = merger.leaf_resemblance(i, j);
            let w = merger.leaf_walk(i, j);
            let s = (r * w).sqrt();
            if truth.labels[i] == truth.labels[j] {
                same.push((r, w, s));
            } else {
                diff.push((r, w, s));
            }
        }
    }
    let stats = |v: &[(f64, f64, f64)]| {
        let n = v.len() as f64;
        let mr = v.iter().map(|x| x.0).sum::<f64>() / n;
        let mw = v.iter().map(|x| x.1).sum::<f64>() / n;
        let ms = v.iter().map(|x| x.2).sum::<f64>() / n;
        let mut sims: Vec<f64> = v.iter().map(|x| x.2).collect();
        sims.sort_by(f64::total_cmp);
        (mr, mw, ms, sims[sims.len() / 2], sims[sims.len() * 9 / 10])
    };
    let (mr, mw, ms, med, p90) = stats(&same);
    println!("same:  resem {mr:.4} walk {mw:.6} geo {ms:.5} median {med:.5} p90 {p90:.5}");
    let (mr, mw, ms, med, p90) = stats(&diff);
    println!("diff:  resem {mr:.4} walk {mw:.6} geo {ms:.5} median {med:.5} p90 {p90:.5}");

    // min-sim sweep on both planted names.
    for grid in distinct::min_sim_grid() {
        let mut line = format!("min_sim {grid:>8.0e}:");
        for truth in &d.truths {
            let c = engine
                .resolve(&distinct::ResolveRequest::new(&truth.refs).min_sim(grid))
                .clustering;
            let s = eval::pairwise_scores(&truth.labels, &c.labels);
            line.push_str(&format!(
                "  {} f={:.3} p={:.3} r={:.3} k={}",
                truth.name,
                s.f_measure,
                s.precision,
                s.recall,
                c.cluster_count()
            ));
        }
        println!("{line}");
    }
}
