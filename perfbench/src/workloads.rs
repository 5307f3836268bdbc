//! The four workloads. Each generates its world (not timed), sets its
//! engine up [`SETUP_REPS`] times (`setup_s` is the median), then runs
//! its measured operations for about `--seconds`, checking every answer
//! on the way.

use crate::metrics::{ms, quantile, Layer};
use crate::vfs::CountingVfs;
use crate::worlds::{self, Scale};
use crate::{Ctx, SETUP_REPS, THREADS};
use datagen::{
    stream_to_catalog, to_catalog, update_stream, DblpDataset, LogTuple, UpdateStream, World,
};
use distinct::{
    DedupeOptions, Distinct, DistinctConfig, EntityAssignment, PathSet, ResolveOutcome,
    ResolveRequest, RunOptions, TrainRequest, UpdateTuple, WeightingMode,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relgraph::LinkGraph;
use relstore::{Catalog, FaultPlan, FaultyVfs, FxHashMap, StdVfs, TupleId, TupleRef};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["catalog", "names", "updates", "durable"];

/// Authors in the `names` world (paper ratios).
const NAMES_AUTHORS: usize = 32_000;
/// Authors in the `durable` world (paper ratios).
const DURABLE_AUTHORS: usize = 8_000;
/// Ordinary names sampled into the `names` query stream per second of
/// `--seconds`, besides the planted ones.
const NAMES_PER_SECOND: f64 = 10.0;
/// Largest sampled name, in references.
const MAX_SAMPLED_REFS: usize = 300;
/// Times each name is asked: the first ask is cold, the rest warm.
const ASKS_PER_NAME: usize = 3;
/// Quality floor of the trained whole-catalog answer: B³ F against the
/// generator's ground truth (0.87 on the standard world, 0.78 on the tiny
/// smoke-test world).
fn min_catalog_b3_f(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 0.8,
        Scale::Tiny => 0.7,
    }
}
/// Share of the standard world's papers held out: the pool the update
/// stream is sampled from.
const HOLDOUT: f64 = 0.05;
/// Papers applied per second of `--seconds`.
const PAPERS_PER_SECOND: f64 = 4.0;

/// Run the workload named on the command line. `started` is set once the
/// world exists: what follows is the workload's wall time.
pub fn run(ctx: &mut Ctx, started: &mut Option<Instant>) -> Result<(), String> {
    match ctx.args.workload.as_str() {
        "catalog" => catalog(ctx, started),
        "names" => names(ctx, started),
        "updates" => updates(ctx, started),
        "durable" => durable(ctx, started),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn config(weighting: WeightingMode) -> DistinctConfig {
    DistinctConfig {
        weighting,
        threads: THREADS,
        ..Default::default()
    }
}

fn prepare(ctx: &mut Ctx, catalog: &Catalog, config: DistinctConfig) -> Result<Distinct, String> {
    ctx.trace.add("n.prepare", 1.0);
    ctx.trace
        .call(Layer::Prepare, || {
            Distinct::prepare(catalog, "Publish", "author", config)
        })
        .map_err(err)
}

/// Traced runs only: time `prepare`'s three sub-steps by calling each
/// layer's public entry point on the same catalog.
fn trace_prepare_steps(ctx: &mut Ctx, catalog: &Catalog) -> Result<(), String> {
    if !ctx.trace.on() {
        return Ok(());
    }
    let t = Instant::now();
    let expanded = ctx
        .trace
        .call(Layer::Prepare, || relstore::expand_values(catalog))
        .map_err(err)?;
    ctx.trace.add("prepare.expand_ms", ms(t.elapsed()));
    let pseudo: usize = expanded.expanded.iter().map(|a| a.distinct_values).sum();
    ctx.trace.add("prepare.pseudo_tuples", pseudo as f64);
    let t = Instant::now();
    let max_len = DistinctConfig::default().max_path_len;
    let paths = ctx.trace.call(Layer::Prepare, || {
        PathSet::build(&expanded.catalog, "Publish", "author", max_len)
    });
    ctx.trace.add("prepare.paths_ms", ms(t.elapsed()));
    if paths.is_none() {
        return Err("no join paths from Publish.author".into());
    }
    let t = Instant::now();
    let graph = ctx
        .trace
        .call(Layer::Prepare, || LinkGraph::build(&expanded.catalog));
    ctx.trace.add("prepare.graph_ms", ms(t.elapsed()));
    ctx.trace.add("graph.edges", graph.edge_count() as f64);
    ctx.trace.add(
        "graph.adjacency_mb",
        graph.adjacency_bytes() as f64 / (1024.0 * 1024.0),
    );
    // The three steps together make one more `prepare`'s worth of
    // allocations.
    ctx.trace.add("n.prepare_steps", 1.0);
    ctx.trace.add("n.prepare", 1.0);
    Ok(())
}

fn train(ctx: &mut Ctx, engine: &mut Distinct) -> Result<(), String> {
    if ctx.trace.on() {
        let t = Instant::now();
        let set = ctx
            .trace
            .call(Layer::Train, || engine.build_training_pairs())
            .map_err(err)?;
        ctx.trace.add("train.pairs_ms", ms(t.elapsed()));
        ctx.trace.add("train.pairs", set.pairs.len() as f64);
    }
    let t = Instant::now();
    let report = ctx
        .trace
        .call(Layer::Train, || {
            engine.train_with(&TrainRequest::new().threads(THREADS))
        })
        .map_err(err)?;
    ctx.trace.add("train.wall_ms", ms(t.elapsed()));
    ctx.trace
        .add("train.profiles_ms", ms(report.exec.profiles.wall));
    ctx.trace
        .add("train.featurize_ms", ms(report.exec.similarity.wall));
    ctx.trace.add("n.train", 1.0);
    Ok(())
}

/// One traced resolve call.
fn resolve(ctx: &mut Ctx, engine: &Distinct, req: &ResolveRequest<'_>) -> ResolveOutcome {
    let t = Instant::now();
    let out = ctx.trace.call(Layer::Resolve, || engine.resolve(req));
    ctx.trace.resolved(t.elapsed(), &out.exec);
    out
}

/// Every name of the reference relation with its references, in order of
/// first appearance (the order `resolve_all` processes them in).
fn names_in_order(engine: &Distinct) -> Vec<(String, Vec<TupleRef>)> {
    let start = engine.paths().start;
    let attr = engine.ref_attr_index();
    let mut index: FxHashMap<String, usize> = FxHashMap::default();
    let mut out: Vec<(String, Vec<TupleRef>)> = Vec::new();
    for (tid, t) in engine.catalog().relation(start).iter() {
        let v = t.get(attr);
        if v.is_null() {
            continue;
        }
        let name = v.to_string();
        let i = *index.entry(name.clone()).or_insert_with(|| {
            out.push((name, Vec::new()));
            out.len() - 1
        });
        out[i].1.push(TupleRef::new(start, tid));
    }
    out
}

/// One name's `(gold, predicted)` labels, parallel to its references.
type Scored = (Vec<usize>, Vec<usize>);

/// B³ F over several names at once. Gold labels must already be unique
/// across names; predicted ones are offset here so that clusters of
/// different names never coincide.
fn b3_f(parts: &[Scored]) -> f64 {
    let mut gold = Vec::new();
    let mut pred = Vec::new();
    let mut base = 0;
    for (g, p) in parts {
        gold.extend_from_slice(g);
        pred.extend(p.iter().map(|l| base + l));
        base += p.iter().max().map_or(0, |m| m + 1);
    }
    eval::bcubed_scores(&gold, &pred).f_measure
}

/// Hand the memory an earlier set-up freed back to the kernel, so that
/// `peak_rss_mb` measures one engine rather than the allocator's
/// leftovers from the engines before it.
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only walks the
    // allocator's own free lists; it may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// `n` items of `sorted` at evenly spaced points of its cumulative
/// `weight`, from a seeded random start: a systematic sample, which keeps
/// the spread of the sort key the same from one seed to the next. An item
/// heavier than the spacing can be picked more than once, in a row.
fn systematic_sample<'a, T>(
    sorted: &'a [T],
    weight: impl Fn(&T) -> usize,
    n: usize,
    rng: &mut StdRng,
) -> Vec<&'a T> {
    let total: usize = sorted.iter().map(&weight).sum();
    let step = total as f64 / n.max(1) as f64;
    let mut next = step * rng.gen::<f64>();
    let mut seen = 0.0;
    let mut out = Vec::new();
    for item in sorted {
        seen += weight(item) as f64;
        while out.len() < n && next < seen {
            out.push(item);
            next += step;
        }
    }
    out
}

/// Entity id per reference of the relation, `usize::MAX` where none.
fn entity_labels(a: &EntityAssignment, start: relstore::RelId, n: usize) -> Vec<usize> {
    (0..n)
        .map(|i| {
            a.entity(TupleRef::new(start, TupleId(i as u32)))
                .unwrap_or(usize::MAX)
        })
        .collect()
}

/// The `resolve_all` answer must be a partition of every reference into
/// entities that each carry one name.
fn check_partition(ctx: &mut Ctx, engine: &Distinct, a: &EntityAssignment, labels: &[usize]) {
    let rel = engine.catalog().relation(engine.paths().start);
    let attr = engine.ref_attr_index();
    let mut name_of: Vec<Option<&relstore::Value>> = vec![None; a.entity_count()];
    let mut ok = a.skipped.is_empty() && a.assigned_refs() == labels.len();
    for (i, &e) in labels.iter().enumerate() {
        let v = rel.tuple(TupleId(i as u32)).get(attr);
        match name_of.get_mut(e) {
            Some(slot @ None) => *slot = Some(v),
            Some(Some(seen)) => ok &= *seen == v,
            None => ok = false,
        }
    }
    ok &= name_of.iter().all(Option::is_some);
    ctx.check(ok, || {
        format!(
            "resolve_all is not a partition ({} skipped names)",
            a.skipped.len()
        )
    });
}

/// `catalog`: prepare, train, one `resolve_all` over the served standard
/// world, repeated on fresh engines. Its inputs are the same for every
/// seed: the training sample is the engine's default, because the SVM's
/// fit time moves by up to 1.8x from one sample to the next. The traced
/// binary instead drives
/// `precompute_profiles` and the per-name resolves itself, then checks
/// that `resolve_all` gives the identical assignment.
fn catalog(ctx: &mut Ctx, started: &mut Option<Instant>) -> Result<(), String> {
    let world = worlds::standard(worlds::WORLD_SEED, ctx.args.scale);
    let dataset = to_catalog(&World::generate(world)).map_err(err)?;
    let start = Instant::now();
    *started = Some(start);
    let n_refs = dataset.catalog.relation(dataset.publish).len();
    let opts = DedupeOptions {
        threads: THREADS,
        ..Default::default()
    };
    let mut first: Option<Vec<usize>> = None;
    let mut rep = 0;
    while rep < SETUP_REPS || start.elapsed() < ctx.args.seconds {
        release_freed_memory();
        let t = Instant::now();
        let mut engine = prepare(ctx, &dataset.catalog, config(WeightingMode::Supervised))?;
        train(ctx, &mut engine)?;
        ctx.setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            trace_prepare_steps(ctx, &dataset.catalog)?;
        }
        let t = Instant::now();
        let (assignment, labels) = if ctx.trace.on() {
            let driven = drive_per_name(ctx, &engine, &opts);
            ctx.measured(t.elapsed(), driven.len());
            // The identity check's `resolve_all` is timed, but its
            // allocations are left out of the per-resolve figures.
            let t = Instant::now();
            let a = engine.resolve_all(&opts);
            let wall = ms(t.elapsed());
            ctx.trace.add("resolve.all_ms", wall);
            ctx.trace.add("layers.wall_ms", wall);
            ctx.trace.add("n.resolve_all", 1.0);
            let labels = entity_labels(&a, dataset.publish, n_refs);
            ctx.same_labels("per-name resolves vs resolve_all", &driven, &labels);
            (a, labels)
        } else {
            let a = engine.resolve_all(&opts);
            ctx.measured(t.elapsed(), a.assigned_refs());
            let labels = entity_labels(&a, dataset.publish, n_refs);
            (a, labels)
        };
        check_partition(ctx, &engine, &assignment, &labels);
        match &first {
            Some(want) => ctx.same_labels("resolve_all on two cold engines", &labels, want),
            None => {
                ctx.b3_f = b3_f(&[(dataset.publish_entities.clone(), labels.clone())]);
                let (b3, floor) = (ctx.b3_f, min_catalog_b3_f(ctx.args.scale));
                ctx.check(b3 >= floor, || {
                    format!("whole-catalog B3 F {b3:.4} is below {floor}")
                });
                first = Some(labels);
            }
        }
        rep += 1;
    }
    Ok(())
}

/// What `resolve_all` does, one public call at a time: warm the profile
/// cache for every clusterable reference, then resolve name by name.
/// Returns the entity id per reference, numbered as `resolve_all` does.
fn drive_per_name(ctx: &mut Ctx, engine: &Distinct, opts: &DedupeOptions) -> Vec<usize> {
    let names = names_in_order(engine);
    let clusterable = |n: usize| n >= opts.min_refs_to_cluster && n <= opts.max_refs_per_name;
    let warm: Vec<TupleRef> = names
        .iter()
        .filter(|(_, refs)| clusterable(refs.len()))
        .flat_map(|(_, refs)| refs.iter().copied())
        .collect();
    let t = Instant::now();
    ctx.trace.call(Layer::Resolve, || {
        engine.precompute_profiles(&warm, opts.threads)
    });
    ctx.trace.add("resolve.precompute_ms", ms(t.elapsed()));
    let n_refs = names.iter().map(|(_, refs)| refs.len()).sum();
    let mut labels = vec![usize::MAX; n_refs];
    let mut next = 0;
    for (_, refs) in &names {
        if refs.len() > opts.max_refs_per_name {
            continue;
        }
        let local = if clusterable(refs.len()) {
            let req = ResolveRequest::new(refs).threads(opts.threads);
            resolve(ctx, engine, &req).clustering.labels
        } else {
            vec![0; refs.len()]
        };
        for (r, l) in refs.iter().zip(&local) {
            labels[r.tid.0 as usize] = next + l;
        }
        next += local.iter().max().map_or(0, |m| m + 1);
    }
    labels
}

/// `names`: the served 32K-author world, uniform weights, one client
/// asking the planted names and a seeded sample of ordinary ones, each
/// several times in a seeded order. The number of sampled names is fixed
/// by `--seconds` and the whole stream is always asked, so that the mix
/// of cold and warm asks does not depend on speed; at 10 s that is
/// (100 + 10) x 3 asks, more than ten of them beyond the 95th percentile.
fn names(ctx: &mut Ctx, started: &mut Option<Instant>) -> Result<(), String> {
    let world = worlds::paper_ratio(worlds::WORLD_SEED, NAMES_AUTHORS, ctx.args.scale);
    let planted = worlds::planted_names(&world);
    let dataset = stream_to_catalog(&world).map_err(err)?;
    *started = Some(Instant::now());
    let engine = setup_plain(ctx, &dataset.catalog)?;

    // A client asks about the author of a random reference, so names are
    // drawn with probability proportional to their references, as a
    // systematic sample over the names ranked by size: every seed asks
    // the same spread of name sizes, only which names of each size changes.
    let mut rng = StdRng::seed_from_u64(ctx.args.seed);
    let mut ordinary: Vec<(String, Vec<TupleRef>)> = names_in_order(&engine)
        .into_iter()
        .filter(|(name, refs)| {
            (2..=MAX_SAMPLED_REFS).contains(&refs.len()) && !planted.contains(name)
        })
        .collect();
    ordinary.shuffle(&mut rng);
    ordinary.sort_by_key(|(_, refs)| refs.len());
    let sampled = (NAMES_PER_SECOND * ctx.args.seconds.as_secs_f64()).ceil() as usize;
    let mut asked: Vec<String> =
        systematic_sample(&ordinary, |(_, refs)| refs.len(), sampled, &mut rng)
            .into_iter()
            .map(|(name, _)| name.clone())
            .collect();
    asked.dedup();
    asked.extend(planted);
    let mut stream: Vec<usize> = (0..asked.len())
        .flat_map(|i| std::iter::repeat_n(i, ASKS_PER_NAME))
        .collect();
    stream.shuffle(&mut rng);

    let mut answers: Vec<Option<(Vec<TupleRef>, Vec<usize>)>> = vec![None; asked.len()];
    for &q in &stream {
        let t = Instant::now();
        let refs = engine.references_of(&asked[q]);
        let out = resolve(ctx, &engine, &ResolveRequest::new(&refs).threads(THREADS));
        ctx.measured(t.elapsed(), refs.len());
        ctx.check(out.is_complete(), || format!("{}: degraded", asked[q]));
        match &answers[q] {
            Some((_, cold)) => {
                let what = format!("{}: warm ask vs cold ask", asked[q]);
                ctx.same_labels(&what, &out.clustering.labels, cold);
            }
            None => answers[q] = Some((refs, out.clustering.labels)),
        }
    }
    let parts: Vec<Scored> = answers
        .into_iter()
        .flatten()
        .map(|(refs, labels)| {
            let gold = refs
                .iter()
                .map(|r| dataset.publish_entities[r.tid.0 as usize])
                .collect();
            (gold, labels)
        })
        .collect();
    ctx.b3_f = b3_f(&parts);
    Ok(())
}

/// Set-up of the untrained workloads: `prepare` with uniform weights,
/// [`SETUP_REPS`] times; the last engine is kept.
fn setup_plain(ctx: &mut Ctx, catalog: &Catalog) -> Result<Distinct, String> {
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        engine = Some(restart(ctx, catalog, engine.take())?);
    }
    trace_prepare_steps(ctx, catalog)?;
    engine.ok_or_else(|| "no set-up ran".to_string())
}

/// One set-up: a freshly prepared engine with uniform weights and cold
/// caches, what a restarted process has. `old` is dropped first, so that
/// only one engine is alive at a time.
fn restart(ctx: &mut Ctx, catalog: &Catalog, old: Option<Distinct>) -> Result<Distinct, String> {
    drop(old);
    release_freed_memory();
    let t = Instant::now();
    let engine = prepare(ctx, catalog, config(WeightingMode::Uniform))?;
    ctx.setup_s.push(t.elapsed().as_secs_f64());
    Ok(engine)
}

/// The papers the `updates` workload applies, one batch each, in a seeded
/// order. A batch's cost follows the number of names it affects, which
/// varies twentyfold between papers, so the held-out papers are ranked by
/// how many base references carry their authors' names and `n` of them
/// are taken at evenly spaced ranks: every seed applies the same spread
/// of paper sizes, only which papers of each size changes.
fn sample_papers(stream: &UpdateStream, n: usize, seed: u64) -> Vec<Vec<UpdateTuple>> {
    let base = &stream.base.catalog;
    let mut refs_of: FxHashMap<String, usize> = FxHashMap::default();
    // Publish(author, paper_key): the author's name is the first value.
    for (_, t) in base.relation(stream.base.publish).iter() {
        *refs_of.entry(t.get(0).to_string()).or_insert(0) += 1;
    }
    let size = |batch: &Vec<UpdateTuple>| -> usize {
        batch
            .iter()
            .filter(|u| u.relation == "Publish")
            .filter_map(|u| u.values.first())
            .map(|name| 1 + refs_of.get(&name.to_string()).copied().unwrap_or(0))
            .sum()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut pool = paper_batches(&stream.log);
    pool.shuffle(&mut rng);
    pool.sort_by_key(size);
    let n = n.min(pool.len());
    let mut picked: Vec<Vec<UpdateTuple>> = systematic_sample(&pool, |_| 1, n, &mut rng)
        .into_iter()
        .cloned()
        .collect();
    picked.shuffle(&mut rng);
    picked
}

/// Split an update log into one batch per paper: its `Publications` row
/// and the `Publish` rows that follow it.
fn paper_batches(log: &[LogTuple]) -> Vec<Vec<UpdateTuple>> {
    let mut out: Vec<Vec<UpdateTuple>> = Vec::new();
    for (rel, values) in log {
        if rel == "Publications" || out.is_empty() {
            out.push(Vec::new());
        }
        if let Some(batch) = out.last_mut() {
            batch.push(UpdateTuple::new(rel.clone(), values.clone()));
        }
    }
    out
}

/// `updates`: the served standard world split into a base catalog and
/// held-out papers, the same split for every seed; the seed picks which
/// held-out papers arrive, and in what order. Set-up is `prepare` plus
/// one incremental resolve of every name with two or more references;
/// each measured operation applies one paper and re-resolves every name
/// it affected.
/// The number of papers is fixed by `--seconds` rather than cut by a
/// clock, so that every run applies the same spread of paper sizes.
fn updates(ctx: &mut Ctx, started: &mut Option<Instant>) -> Result<(), String> {
    let world = worlds::standard(worlds::WORLD_SEED, ctx.args.scale);
    let planted = worlds::planted_names(&world);
    let stream = update_stream(&world, HOLDOUT, worlds::WORLD_SEED).map_err(err)?;
    *started = Some(Instant::now());
    let papers = (PAPERS_PER_SECOND * ctx.args.seconds.as_secs_f64()).ceil() as usize;
    let batches = sample_papers(&stream, papers, ctx.args.seed);

    let mut engine = None;
    let mut warm = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        release_freed_memory();
        let t = Instant::now();
        let e = prepare(ctx, &stream.base.catalog, config(WeightingMode::Uniform))?;
        warm.clear();
        for (_, refs) in names_in_order(&e).into_iter().filter(|(_, r)| r.len() >= 2) {
            let t = Instant::now();
            let out = e.resolve(&ResolveRequest::incremental(&refs).threads(THREADS));
            ctx.trace.add("layers.wall_ms", ms(t.elapsed()));
            ctx.check(out.is_complete(), || "warm pass degraded".into());
            let gold = refs
                .iter()
                .map(|r| stream.base.publish_entities[r.tid.0 as usize])
                .collect();
            warm.push((gold, out.clustering.labels));
        }
        ctx.setup_s.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    trace_prepare_steps(ctx, &stream.base.catalog)?;
    let mut engine = engine.ok_or("no set-up ran")?;

    for batch in &batches {
        let t = Instant::now();
        let applied = ctx
            .trace
            .call(Layer::Update, || engine.apply_updates(batch));
        let apply_wall = t.elapsed();
        let report = match applied {
            Ok(r) => r,
            Err(e) => {
                ctx.check(false, || format!("apply_updates: {e}"));
                continue;
            }
        };
        ctx.check(report.applied == batch.len(), || {
            format!(
                "{} of {} update tuples applied",
                report.applied,
                batch.len()
            )
        });
        let mut refs_resolved = 0;
        for name in &report.names {
            let refs = engine.references_of(name);
            let out = resolve(
                ctx,
                &engine,
                &ResolveRequest::incremental(&refs).threads(THREADS),
            );
            ctx.check(out.is_complete(), || format!("{name}: degraded"));
            ctx.trace
                .add("update.pairs_total", out.exec.pairs_total as f64);
            ctx.trace
                .add("update.pairs_dirty", out.exec.pairs_dirty as f64);
            ctx.trace
                .add("update.pairs_cached", out.exec.pairs_cached as f64);
            refs_resolved += refs.len();
        }
        let wall = t.elapsed();
        ctx.measured(wall, refs_resolved);
        ctx.trace.add("n.update", 1.0);
        ctx.trace.add("update.apply_ms", ms(apply_wall));
        ctx.trace
            .add("update.resolve_ms", ms(wall.saturating_sub(apply_wall)));
        ctx.trace
            .add("update.names_affected", report.names_affected as f64);
        ctx.trace
            .add("update.refs_dirtied", report.refs_dirtied as f64);
    }

    // Streaming must equal batch: each planted name's incremental answer
    // on the updated engine against a cold engine on the final catalog.
    let cold = Distinct::prepare(
        engine.catalog(),
        "Publish",
        "author",
        config(WeightingMode::Uniform),
    )
    .map_err(err)?;
    for name in &planted {
        let refs = engine.references_of(name);
        let live = engine.resolve(&ResolveRequest::incremental(&refs).threads(THREADS));
        let batch = cold.resolve(&ResolveRequest::new(&refs).threads(THREADS));
        let what = format!("{name}: incremental vs cold prepare + resolve");
        ctx.same_labels(&what, &live.clustering.labels, &batch.clustering.labels);
    }
    ctx.b3_f = b3_f(&warm);
    Ok(())
}

/// `durable`: the served 8K-author world. For each planted name in turn,
/// in a seeded order: one uninterrupted `resolve_durable_with` into a
/// fresh run directory, then for every write k of it one run killed at
/// write k and a resume of that run. The measured operations are the
/// resumes. Like a restarted process, every uninterrupted run and every
/// resume gets an engine of its own, freshly prepared with cold caches;
/// each of those preparations is a set-up.
fn durable(ctx: &mut Ctx, started: &mut Option<Instant>) -> Result<(), String> {
    let world = worlds::paper_ratio(worlds::WORLD_SEED, DURABLE_AUTHORS, ctx.args.scale);
    let mut planted = worlds::planted_names(&world);
    planted.shuffle(&mut StdRng::seed_from_u64(ctx.args.seed));
    let dataset = stream_to_catalog(&world).map_err(err)?;
    *started = Some(Instant::now());
    trace_prepare_steps(ctx, &dataset.catalog)?;

    let root = ctx
        .args
        .scratch
        .join(format!("durable-{}-{}", std::process::id(), ctx.args.seed));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let swept = sweep_names(ctx, &dataset, &planted, &root);
    let cleaned = std::fs::remove_dir_all(&root);
    let parts = swept?;
    cleaned.map_err(|e| format!("{}: {e}", root.display()))?;
    ctx.b3_f = b3_f(&parts);
    Ok(())
}

/// The durable kill sweep over `names`, in whole passes until
/// `--seconds` have passed (at least one pass). Returns the gold and
/// predicted labels of each name's first uninterrupted run.
fn sweep_names(
    ctx: &mut Ctx,
    dataset: &DblpDataset,
    names: &[String],
    root: &std::path::Path,
) -> Result<Vec<Scored>, String> {
    let deadline = Instant::now() + ctx.args.seconds;
    let fatal = RunOptions {
        max_retries: 0,
        ..RunOptions::default()
    };
    let mut engine: Option<Distinct> = None;
    let mut clean_ms = Vec::new();
    let mut parts = Vec::new();
    for (i, name) in names.iter().cycle().enumerate() {
        if i % names.len() == 0 && i > 0 && Instant::now() >= deadline {
            break;
        }
        let mut live = restart(ctx, &dataset.catalog, engine.take())?;
        let refs = live.references_of(name);
        let dir = root.join(format!("clean-{i}"));
        let req = ResolveRequest::new(&refs).threads(THREADS).resume(&dir);
        let mut vfs = CountingVfs::new(StdVfs);
        let t = Instant::now();
        let run = ctx.trace.call(Layer::Durable, || {
            live.resolve_durable_with(&req, &mut vfs, &RunOptions::default())
        });
        let wall = t.elapsed();
        let clean = run.map_err(|e| format!("{name}: uninterrupted durable run: {e}"))?;
        ctx.check(clean.outcome.is_complete(), || format!("{name}: degraded"));
        clean_ms.push(ms(wall));
        let io = vfs.counts;
        ctx.trace.add("n.clean", 1.0);
        ctx.trace.add("n.durable_calls", 1.0);
        ctx.trace.add("durable.writes", io.writes as f64);
        ctx.trace
            .add("durable.bytes_written", io.bytes_written as f64);
        ctx.trace.add("durable.write_ms", ms(io.write_time));
        let want = clean.outcome.clustering.labels;

        for k in 1..=io.writes {
            // The killed run may use a warm engine: nothing of it is timed,
            // and what it leaves on disk does not depend on the caches.
            let dir = root.join(format!("kill-{i}-{k}"));
            let req = ResolveRequest::new(&refs).threads(THREADS).resume(&dir);
            let mut killer = FaultyVfs::over(StdVfs, FaultPlan::fail_nth_write(k));
            let killed = ctx.trace.call(Layer::Durable, || {
                live.resolve_durable_with(&req, &mut killer, &fatal)
            });
            ctx.check(killed.is_err(), || {
                format!(
                    "{name}: a run killed at write {k} of {} succeeded",
                    io.writes
                )
            });
            live = restart(ctx, &dataset.catalog, Some(live))?;
            let mut vfs = CountingVfs::new(StdVfs);
            let t = Instant::now();
            let resumed = ctx.trace.call(Layer::Durable, || {
                live.resolve_durable_with(&req, &mut vfs, &RunOptions::default())
            });
            let wall = t.elapsed();
            ctx.trace.add("n.durable_calls", 2.0);
            match resumed {
                Ok(r) => {
                    ctx.measured(wall, refs.len());
                    let what = format!("{name}: resume after a kill at write {k}");
                    ctx.same_labels(&what, &r.outcome.clustering.labels, &want);
                    let compute = r.outcome.exec.total_wall();
                    let rio = vfs.counts;
                    ctx.trace.add("n.resume", 1.0);
                    ctx.trace.add("durable.resume_ms", ms(wall));
                    ctx.trace.max("durable.resume_max_ms", ms(wall));
                    ctx.trace.add("durable.bytes_read", rio.bytes_read as f64);
                    ctx.trace.add("durable.read_ms", ms(rio.read_time));
                    ctx.trace.add(
                        "durable.restore_ms",
                        ms(wall.saturating_sub(rio.read_time + compute)),
                    );
                    ctx.trace
                        .add("durable.profiles_restored", r.run.profiles_restored as f64);
                }
                Err(e) => ctx.check(false, || format!("{name}: resume at write {k}: {e}")),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
        if i < names.len() {
            let gold = refs
                .iter()
                .map(|r| dataset.publish_entities[r.tid.0 as usize])
                .collect();
            parts.push((gold, want));
        }
        engine = Some(live);
    }
    ctx.trace
        .add("durable.clean_p50_ms", quantile(&clean_ms, 0.5));
    Ok(parts)
}
