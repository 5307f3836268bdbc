//! Experiment D1 (extension) — whole-database object distinction: resolve
//! every author name in the standard world in one pass and score the
//! global entity assignment against the generator's complete ground
//! truth. The paper evaluates per-name; this is the deployment-shaped
//! closure of that evaluation. Exits non-zero when a name is skipped or
//! the global B3 f-measure falls below [`MIN_B3_F`].
//!
//! Run: `cargo run --release -p distinct-bench --bin exp_dedupe`

use distinct::{DedupeOptions, Distinct, DistinctConfig};
use distinct_bench::{build_dataset, BenchError, STANDARD_SEED};
use eval::{bcubed_scores, f3, Align, PhaseTimer, Table};
use relstore::{TupleId, TupleRef};

/// Worker threads over names.
const THREADS: usize = 4;

/// Floor on the global B3 f-measure (the standard world scores 0.87).
const MIN_B3_F: f64 = 0.8;

fn main() -> Result<(), BenchError> {
    let mut timer = PhaseTimer::new();
    let dataset = timer.time("generate world", || build_dataset(STANDARD_SEED));
    let mut engine = timer.time("prepare", || {
        Distinct::prepare(
            &dataset.catalog,
            "Publish",
            "author",
            DistinctConfig::default(),
        )
        .expect("prepare")
    });
    timer.time("train", || engine.train().expect("train"));
    let assignment = timer.time(format!("resolve all names ({THREADS} threads)"), || {
        engine.resolve_all(&DedupeOptions {
            threads: THREADS,
            ..Default::default()
        })
    });

    let publish = dataset.publish;
    let mut gold = Vec::new();
    let mut pred = Vec::new();
    for (i, &entity) in dataset.publish_entities.iter().enumerate() {
        let r = TupleRef::new(publish, TupleId(i as u32));
        if let Some(e) = assignment.entity(r) {
            gold.push(entity);
            pred.push(e);
        }
    }
    let b3 = bcubed_scores(&gold, &pred);

    let true_entities = {
        let mut set: Vec<usize> = gold.clone();
        set.sort_unstable();
        set.dedup();
        set.len()
    };

    let mut table = Table::new(&["metric", "value"], &[Align::Left, Align::Right])
        .with_title("D1. Whole-database resolution (standard world)");
    table.row(vec![
        "references assigned".into(),
        assignment.assigned_refs().to_string(),
    ]);
    table.row(vec![
        "names processed".into(),
        assignment.resolutions.len().to_string(),
    ]);
    table.row(vec![
        "names split into >1 entity".into(),
        assignment.split_names().len().to_string(),
    ]);
    table.row(vec![
        "predicted entities".into(),
        assignment.entity_count().to_string(),
    ]);
    table.row(vec![
        "true entities (with refs)".into(),
        true_entities.to_string(),
    ]);
    table.row(vec!["global B3 precision".into(), f3(b3.precision)]);
    table.row(vec!["global B3 recall".into(), f3(b3.recall)]);
    table.row(vec!["global B3 f-measure".into(), f3(b3.f_measure)]);
    println!("{}", table.render());
    println!("{}", timer.report());

    let fail = |detail: String| BenchError {
        bin: "exp_dedupe",
        stage: "check the whole-catalog assignment",
        detail,
    };
    if !assignment.skipped.is_empty() {
        return Err(fail(format!(
            "{} names skipped: {:?}",
            assignment.skipped.len(),
            assignment.skipped
        )));
    }
    if b3.f_measure < MIN_B3_F {
        return Err(fail(format!(
            "global B3 f-measure {:.4} is below {MIN_B3_F}",
            b3.f_measure
        )));
    }
    Ok(())
}
