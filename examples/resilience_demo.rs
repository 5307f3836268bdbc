//! Resilience tour: checksummed persistence, checkpoint/resume, and
//! execution limits that degrade gracefully instead of hanging.
//!
//! Run: `cargo run --release --example resilience_demo`
//!
//! The flow mirrors the README "Checkpoint and resume" snippet: save the
//! catalog and a trained engine to disk, reload both in a "fresh process",
//! confirm the resumed engine resolves identically, then run resolution
//! under a deadline/budget/cancellation and show the degraded-result
//! reporting. Along the way it corrupts files on purpose to show the
//! load-time detection.

use std::time::Duration;

use datagen::{to_catalog, AmbiguousSpec, World, WorldConfig};
use distinct::{CancelToken, Distinct, DistinctConfig, RunControl, TrainingConfig};
use relstore::{persist, StoreError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("distinct_resilience_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // --- 1. A synthetic DBLP-style world with two "Wei Wang"s. ------------
    let mut config = WorldConfig::tiny(3);
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![4, 3])];
    let dataset = to_catalog(&World::generate(config))?;

    let distinct_config = DistinctConfig {
        training: TrainingConfig {
            positives: 20,
            negatives: 20,
            ..Default::default()
        },
        ..Default::default()
    };

    // --- 2. Persist the catalog (atomic writes + checksummed manifest). ---
    let store = dir.join("catalog");
    persist::save_catalog(&dataset.catalog, &store)?;
    let reloaded = persist::load_catalog(&store)?;
    println!(
        "catalog round trip: {} relations saved and reloaded",
        reloaded.relation_count()
    );

    // --- 3. Train, resolve, checkpoint. ------------------------------------
    let mut engine = Distinct::prepare(&reloaded, "Publish", "author", distinct_config.clone())?;
    engine.train()?;
    let refs = engine.references_of("Wei Wang");
    let before = engine
        .resolve(&distinct::ResolveRequest::new(&refs))
        .clustering;
    println!(
        "trained engine: \"Wei Wang\" {} references -> {} people",
        refs.len(),
        before.cluster_count()
    );

    let ckpt = dir.join("engine.ckpt");
    engine.save_checkpoint(&ckpt)?; // atomic, checksummed
    println!(
        "checkpoint written: {} bytes",
        std::fs::metadata(&ckpt)?.len()
    );

    // --- 4. "Fresh process": reload catalog + checkpoint, resolve again. ---
    let catalog = persist::load_catalog(&store)?;
    let mut resumed = Distinct::prepare(&catalog, "Publish", "author", distinct_config)?;
    resumed.load_checkpoint(&ckpt)?; // weights + model; profiles are recomputed
    let wei = resumed.references_of("Wei Wang");
    let after = resumed
        .resolve(&distinct::ResolveRequest::new(&wei))
        .clustering;
    assert_eq!(
        before.groups(),
        after.groups(),
        "resumed engine must resolve identically"
    );
    println!(
        "resumed engine resolves identically ({} clusters)",
        after.cluster_count()
    );

    // --- 5. Resolution under limits: valid clustering, degradation report. -
    let ctl = RunControl::new()
        .with_deadline(Duration::from_secs(30))
        .with_budget(5);
    let outcome = resumed.resolve(&distinct::ResolveRequest::new(&refs).control(&ctl));
    assert_eq!(outcome.clustering.labels.len(), refs.len());
    match &outcome.degraded {
        Some(d) => println!("tight budget: partial result ({d})"),
        None => println!("tight budget: completed anyway"),
    }

    let token = CancelToken::new();
    token.cancel();
    let ctl = RunControl::new().with_token(token);
    let outcome = resumed.resolve(&distinct::ResolveRequest::new(&refs).control(&ctl));
    assert!(!outcome.is_complete());
    println!(
        "pre-cancelled run: still a full partition over {} refs ({})",
        outcome.clustering.labels.len(),
        outcome.degraded.expect("cancelled run reports degradation")
    );

    // --- 6. Corruption is caught at load, with a typed error. --------------
    let victim = store.join("Publish.csv");
    let mut bytes = std::fs::read(&victim)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes)?;
    match persist::load_catalog(&store) {
        Err(StoreError::Corrupt { file, reason }) => {
            println!("flipped one bit in {file}: load refused ({reason})");
        }
        other => panic!("corruption must be detected, got {other:?}"),
    }

    match persist::load_catalog(&dir.join("never_saved")) {
        Err(StoreError::MissingManifest { .. }) => {
            println!("missing store: reported as missing manifest, not a panic");
        }
        other => panic!("expected MissingManifest, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
