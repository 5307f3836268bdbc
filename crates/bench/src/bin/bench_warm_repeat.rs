//! Experiment S4 — warm repeat-resolve vs. the first (cold) pass.
//!
//! The rung behind DESIGN.md §18: one engine resolves every Table 1
//! ambiguous name twice. The first pass is cold — profiles are computed
//! on demand and land in the engine's profile cache. The second pass
//! replays the same names against the warm engine: profiles come from the
//! cache, and every similarity stage builds its per-path inverted index
//! (DESIGN.md §15) afresh, as the cold pass did, so the delta between the
//! passes is what the profile cache saves.
//!
//! The rung records the wall-time and allocation delta between the two
//! passes (`allocs` / `bytes_alloc` come from the counting allocator
//! behind the `bench` feature; without it the counters read zero and
//! `"metered": false` says so), and cross-checks that every name's warm
//! partition is bit-identical to its cold one — reuse must be invisible
//! in the tables.
//!
//! Run: `cargo run --release -p distinct-bench --features bench \
//!       --bin bench_warm_repeat -- [laptop|mid]` (default: `laptop`).
//! Writes `benchmarks/BENCH_warm_repeat.json`.

use datagen::{stream_to_catalog, DblpDataset, WorldConfig};
use distinct::{Distinct, DistinctConfig, ResolveRequest};
use distinct_bench::{AllocSnapshot, BenchError, StageContext};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stage context for this binary.
const BIN: &str = "bench_warm_repeat";

fn config(scale: &str) -> WorldConfig {
    match scale {
        "laptop" => WorldConfig {
            seed: 7,
            ambiguous: WorldConfig::table1_ambiguous(),
            ..Default::default()
        },
        "mid" => WorldConfig {
            seed: 7,
            n_authors: 8_000,
            n_venues: 160,
            n_communities: 64,
            first_name_pool: 1_600,
            last_name_pool: 3_600,
            ambiguous: WorldConfig::table1_ambiguous(),
            ..Default::default()
        },
        other => {
            eprintln!("unknown scale `{other}` (want laptop|mid)");
            std::process::exit(2);
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks")
}

fn ms(d: std::time::Duration) -> u64 {
    d.as_millis() as u64
}

fn ms_frac(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One full pass over the Table 1 names; returns the per-name partitions
/// plus the pass's wall time and allocation delta.
fn pass(
    engine: &Distinct,
    names: &[String],
) -> Result<(Vec<Vec<usize>>, f64, AllocSnapshot), BenchError> {
    let a = AllocSnapshot::now();
    let t = Instant::now();
    let mut labels = Vec::with_capacity(names.len());
    for name in names {
        let refs = engine.references_of(name);
        if refs.is_empty() {
            return Err(BenchError {
                bin: BIN,
                stage: "collect the ambiguous references",
                detail: format!("no references for {name}"),
            });
        }
        let outcome = engine.resolve(&ResolveRequest::new(&refs));
        if !outcome.is_complete() {
            return Err(BenchError {
                bin: BIN,
                stage: "resolve an ambiguous name",
                detail: format!("resolve degraded for {name}"),
            });
        }
        labels.push(outcome.clustering.labels);
    }
    Ok((labels, ms_frac(t.elapsed()), a.delta()))
}

fn main() -> Result<(), BenchError> {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "laptop".into());
    let config = config(&scale);
    let names: Vec<String> = config.ambiguous.iter().map(|s| s.name.clone()).collect();

    eprintln!(
        "[{scale}] generating world ({} authors)...",
        config.n_authors
    );
    let t0 = Instant::now();
    let dataset: DblpDataset =
        stream_to_catalog(&config).stage(BIN, "generate the streamed world")?;
    let generate_ms = ms(t0.elapsed());
    let papers = dataset
        .catalog
        .relation(
            dataset
                .catalog
                .relation_id("Publications")
                .stage(BIN, "locate the Publications relation")?,
        )
        .len();
    let references = dataset.catalog.relation(dataset.publish).len();

    let t1 = Instant::now();
    let engine = Distinct::prepare(
        &dataset.catalog,
        "Publish",
        "author",
        DistinctConfig::default(),
    )
    .stage(BIN, "prepare the engine")?;
    let prepare_ms = ms(t1.elapsed());
    eprintln!(
        "[{scale}] {papers} papers / {references} references; \
         resolving {} names cold, then warm...",
        names.len()
    );

    let (cold_labels, cold_ms, cold_alloc) = pass(&engine, &names)?;
    let (warm_labels, warm_ms, warm_alloc) = pass(&engine, &names)?;
    assert_eq!(
        warm_labels, cold_labels,
        "a warm repeat resolve diverged from the cold pass — cache \
         reuse leaked into the tables"
    );

    let metered = distinct_bench::metering_enabled();
    if metered {
        assert!(
            warm_alloc.allocs < cold_alloc.allocs,
            "the warm pass must allocate less than the cold pass \
             (warm {} vs cold {})",
            warm_alloc.allocs,
            cold_alloc.allocs
        );
    }
    let wall_ratio = cold_ms / warm_ms.max(1e-6);
    let alloc_ratio = cold_alloc.allocs as f64 / (warm_alloc.allocs as f64).max(1.0);

    let json = format!(
        "{{\n  \"scenario\": \"warm_repeat\",\n  \"format\": 1,\n  \"scale\": \"{scale}\",\n  \
         \"weights\": \"uniform\",\n  \"names\": {},\n  \"world\": {{\n    \
         \"authors\": {},\n    \"papers\": {papers},\n    \"references\": {references}\n  }},\n  \
         \"generate_ms\": {generate_ms},\n  \"prepare_ms\": {prepare_ms},\n  \
         \"alloc_metered\": {metered},\n  \
         \"cold\": {{ \"wall_ms\": {cold_ms:.3}, \"allocs\": {}, \"bytes_alloc\": {} }},\n  \
         \"warm\": {{ \"wall_ms\": {warm_ms:.3}, \"allocs\": {}, \"bytes_alloc\": {} }},\n  \
         \"delta\": {{\n    \"wall_ms\": {:.3},\n    \"allocs\": {},\n    \"bytes_alloc\": {},\n    \
         \"wall_ratio\": {wall_ratio:.2},\n    \"alloc_ratio\": {alloc_ratio:.2}\n  }}\n}}\n",
        names.len(),
        config.n_authors,
        cold_alloc.allocs,
        cold_alloc.bytes_alloc,
        warm_alloc.allocs,
        warm_alloc.bytes_alloc,
        cold_ms - warm_ms,
        cold_alloc.allocs.saturating_sub(warm_alloc.allocs),
        cold_alloc.bytes_alloc.saturating_sub(warm_alloc.bytes_alloc),
    );

    let dir = out_dir();
    std::fs::create_dir_all(&dir).stage(BIN, "create the benchmarks/ directory")?;
    let path = dir.join("BENCH_warm_repeat.json");
    std::fs::write(&path, &json).stage(BIN, "write the rung JSON")?;
    eprintln!(
        "[{scale}] cold {cold_ms:.1} ms / warm {warm_ms:.1} ms ({wall_ratio:.1}x), \
         allocs {} -> {} ({alloc_ratio:.1}x) -> {}",
        cold_alloc.allocs,
        warm_alloc.allocs,
        path.display()
    );
    Ok(())
}
