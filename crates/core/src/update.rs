//! Incremental resolution: append tuples, track dirtied references, and
//! repair cached similarity tables and dendrograms instead of recomputing
//! them from scratch.
//!
//! The batch pipeline treats the catalog as frozen; real bibliographic
//! databases grow continuously. [`Distinct::apply_updates`] appends a
//! batch of tuples to the engine's catalog and [`relgraph::LinkGraph`]
//! (an overlay append — existing node ids, and therefore every cached
//! profile, stay valid), then computes which references the batch *could*
//! have affected. A later [`crate::ResolveRequest::incremental`] resolve
//! copies every clean pair from the name's cached leaf tables, re-scores
//! only the dirty pairs through the exact kernel (bit-identical to the
//! pruned batch kernel, which is lossless), and re-clusters only the
//! connected components an update touched ([`cluster::compose`]).
//!
//! # Dirty tracking
//!
//! A reference `r`'s profile is built from join-path instances of length
//! `≤ max_path_len` that start at `r`, never take the reference foreign
//! key as the first step, and never visit the named tuple `r` points at
//! (its "own author"). A batch of appended tuples can change `r`'s
//! neighbor sets — membership *or* weights, since walk weights read the
//! fan-out of every non-terminal node on a path — only if some such path
//! instance passes within `max_path_len − 1` steps of an appended node.
//! Dirty marking therefore runs in two phases:
//!
//! 1. **Candidates**: a breadth-first sweep from the appended nodes over
//!    every foreign-key edge in both directions, bounded by
//!    `max_path_len` steps. Each edge arriving at a reference-relation
//!    node marks it, unless the edge is the reference FK traversed
//!    backward (the reversed form of the banned first step).
//! 2. **Confirmation**: a candidate only stays dirty if a marking route
//!    exists that avoids its own named tuple — re-run the sweep with that
//!    node excluded, one sweep per distinct named tuple among the
//!    candidates (skipped entirely when the named tuple was never visited
//!    in phase 1, in which case no route passed through it).
//!
//! Phase 2 is what keeps `pairs_dirty ≪ pairs_total`: without it, a new
//! publication by one "Wei Wang" entity would mark *every* "Wei Wang"
//! reference through the cycle `new → name → ref → paper → ref`, a route
//! the profile propagation can never take.
//!
//! The sweep over-approximates (it ignores the exact relation sequences
//! of the path set), which costs a little re-scoring but never misses an
//! affected reference — the convergence oracle in `tests/` holds the
//! resulting streaming partitions equal to cold batch resolves.

use crate::control::RunControl;
use crate::features::weighted_pair;
use crate::pipeline::{stage_stats, Distinct, DistinctError, ResolveOutcome};
use crate::refcluster::DistinctMerger;
use crate::request::{ExecReport, ResolveRequest};
use cluster::{compose, connected_components, ComponentClustering};
use relgraph::{LinkGraph, NodeId};
use relstore::{
    expand::pseudo_relation_name, AttrRole, Catalog, Direction, FkId, FxHashMap, FxHashSet,
    JoinStep, RelId, Tuple, TupleRef, Value,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// One tuple to append, named in the engine's *input* schema. Pseudo
/// value relations introduced by attribute expansion are managed
/// internally: [`Distinct::apply_updates`] inserts missing value tuples
/// before the referencing tuple, so updates look exactly like rows of the
/// original database.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UpdateTuple {
    /// Relation the tuple belongs to.
    pub relation: String,
    /// Attribute values in schema order.
    pub values: Vec<Value>,
}

impl UpdateTuple {
    /// An update tuple for `relation` with the given values.
    pub fn new(relation: impl Into<String>, values: Vec<Value>) -> Self {
        UpdateTuple {
            relation: relation.into(),
            values,
        }
    }
}

/// What one [`Distinct::apply_updates`] batch did.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct UpdateReport {
    /// Input tuples inserted into the catalog.
    pub applied: usize,
    /// Input tuples skipped because an identical tuple already exists
    /// (re-applying an applied update is a no-op).
    pub skipped: usize,
    /// Inserted tuples that are themselves references (rows of the
    /// reference relation).
    pub refs_added: usize,
    /// Pre-existing references whose neighborhood the batch changed;
    /// their profiles were evicted and their pairs re-score on the next
    /// incremental resolve.
    pub refs_dirtied: usize,
    /// Distinct reference names across added and dirtied references
    /// (always `names.len()`).
    pub names_affected: usize,
    /// The affected names themselves, sorted — the worklist a durable
    /// update stream re-resolves after the batch.
    pub names: Vec<String>,
}

impl UpdateReport {
    /// Accumulate another batch into this report. Counts add; `names` is
    /// the sorted union, so `names_affected` stays the number of distinct
    /// names across every absorbed batch.
    pub fn absorb(&mut self, other: &UpdateReport) {
        self.applied += other.applied;
        self.skipped += other.skipped;
        self.refs_added += other.refs_added;
        self.refs_dirtied += other.refs_dirtied;
        self.names.extend(other.names.iter().cloned());
        self.names.sort();
        self.names.dedup();
        self.names_affected = self.names.len();
    }
}

/// Cached incremental state of one resolved name.
#[derive(Debug, Clone)]
pub(crate) struct NameEntry {
    /// The references the tables cover, in tuple order. Updates only
    /// append references, so this stays a prefix of the name's current
    /// reference list.
    pub refs: Vec<TupleRef>,
    /// Leaf weighted-resemblance table (`refs.len()` square).
    pub resem: Vec<Vec<f64>>,
    /// Leaf directed-walk table (`refs.len()` square, asymmetric).
    pub dwalk: Vec<Vec<f64>>,
    /// References dirtied by updates since the tables were built.
    pub dirty: FxHashSet<TupleRef>,
    /// [`Distinct`] weights epoch the tables were built under.
    pub weights_epoch: u64,
    /// Bits of the `min_sim` the component clusterings were cut at.
    pub min_sim_bits: u64,
    /// Per-component clusterings of the last resolve, reusable for
    /// components no update touched.
    pub parts: Vec<ComponentClustering>,
}

/// Per-name incremental state, keyed by reference name.
pub(crate) type NameCache = FxHashMap<String, NameEntry>;

/// Whether an identical tuple already exists (keyed relations compare the
/// key's current row; keyless ones probe by first attribute, indexed or
/// scanned).
fn already_present(catalog: &Catalog, rel: RelId, values: &[Value]) -> bool {
    let relation = catalog.relation(rel);
    if let Some(k) = relation.schema().key_index() {
        return match relation.by_key(&values[k]) {
            Some(tid) => relation.tuple(tid).values() == values,
            None => false,
        };
    }
    let Some(probe) = values.first() else {
        return false;
    };
    relation
        .lookup(0, probe)
        .into_iter()
        .any(|tid| relation.tuple(tid).values() == values)
}

/// The result of the phase-1 reachability sweep: the reference-relation
/// nodes marked by a valid final arrival, plus the visited neighborhood
/// (BFS order and distances) that the exclusion sweeper re-traverses.
struct Phase1 {
    /// `start_rel` nodes with a marking arrival within `radius`.
    marked: FxHashSet<NodeId>,
    /// Every visited node in BFS visit order (sources first).
    order: Vec<NodeId>,
    /// Node -> BFS distance from the nearest source.
    dist: FxHashMap<NodeId, usize>,
}

/// Breadth-first sweep from `sources` over every foreign-key edge in both
/// directions, bounded by `radius` steps. A reference-relation node is
/// marked when some arrival uses a valid final edge (any edge except the
/// reference FK traversed backward).
fn reachable_refs(
    graph: &LinkGraph,
    catalog: &Catalog,
    start_rel: RelId,
    ref_fk: FkId,
    sources: &[NodeId],
    radius: usize,
) -> Phase1 {
    let mut dist: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut marked: FxHashSet<NodeId> = FxHashSet::default();
    let mut order: Vec<NodeId> = Vec::new();
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &s in sources {
        if let Entry::Vacant(slot) = dist.entry(s) {
            slot.insert(0);
            order.push(s);
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist.get(&v).copied().unwrap_or(radius);
        if d >= radius {
            continue;
        }
        let rel = graph.tuple(v).rel;
        let fwd = catalog
            .out_edges(rel)
            .iter()
            .map(|&fk| (fk, Direction::Forward));
        let bwd = catalog
            .in_edges(rel)
            .iter()
            .map(|&fk| (fk, Direction::Backward));
        for (fk, dir) in fwd.chain(bwd) {
            let step = match dir {
                Direction::Forward => JoinStep::forward(fk),
                Direction::Backward => JoinStep::backward(fk),
            };
            for &w in graph.step_neighbors(step, v, rel) {
                // Marking is per edge arrival, visited or not: a node can
                // be reached unmarkably (via the banned edge) first and
                // markably later.
                if graph.tuple(w).rel == start_rel && !(fk == ref_fk && dir == Direction::Backward)
                {
                    marked.insert(w);
                }
                if let Entry::Vacant(slot) = dist.entry(w) {
                    slot.insert(d + 1);
                    order.push(w);
                    queue.push_back(w);
                }
            }
        }
    }
    Phase1 {
        marked,
        order,
        dist,
    }
}

/// Phase 2's per-author re-sweep, compiled down to array work.
///
/// An exclusion BFS can only visit nodes phase 1 visited (removing a node
/// never shortens a route), so the phase-1 neighborhood is compacted once
/// into dense indices with a precomputed adjacency — each arc carrying a
/// "marks the target" flag — and every sweep is then a plain queue walk
/// over integer ids: no hash lookups on the hot path, scratch buffers
/// reused across sweeps via a generation stamp, and an early exit as soon
/// as every queried candidate is confirmed. At DBLP scale this turns the
/// dominant cost of a single-paper update (hundreds of milliseconds of
/// repeated hash-map BFS) into a few milliseconds.
pub(crate) struct ExclusionSweeper {
    /// Dense node index -> marking-aware out-arcs within the neighborhood.
    adj: Vec<Vec<(u32, bool)>>,
    /// Dense indices of the BFS sources (the appended nodes).
    sources: Vec<u32>,
    /// Graph node -> dense index.
    index: FxHashMap<NodeId, u32>,
    radius: usize,
    /// Scratch: visit stamp per dense node (`== generation` means seen).
    stamp: Vec<u32>,
    /// Scratch: BFS depth per dense node, valid when stamped.
    depth: Vec<u32>,
    generation: u32,
}

impl ExclusionSweeper {
    /// A sweeper over no neighborhood, holding no heap capacity: the
    /// engine-owned scratch starts here and every batch
    /// [`ExclusionSweeper::rebuild`]s it before sweeping.
    pub(crate) fn empty() -> Self {
        ExclusionSweeper {
            adj: Vec::new(),
            sources: Vec::new(),
            index: FxHashMap::default(),
            radius: 0,
            stamp: Vec::new(),
            depth: Vec::new(),
            generation: 0,
        }
    }

    /// Recompile this sweeper over a new batch's phase-1 neighborhood,
    /// reusing the adjacency rows, index, and stamp buffers left by the
    /// previous batch (lint D112: this is the engine scratch's reuse
    /// discipline). Content-equivalent to building a fresh sweeper —
    /// the generation stamp restarts with the cleared stamp column, so
    /// no visit state leaks between batches.
    #[allow(clippy::too_many_arguments)]
    fn rebuild(
        &mut self,
        graph: &LinkGraph,
        catalog: &Catalog,
        start_rel: RelId,
        ref_fk: FkId,
        sources: &[NodeId],
        radius: usize,
        phase1: &Phase1,
    ) {
        let n = phase1.order.len();
        self.index.clear();
        self.index
            .extend(phase1.order.iter().enumerate().map(|(i, &v)| (v, i as u32)));
        for row in &mut self.adj {
            row.clear();
        }
        self.adj.resize_with(n, Vec::new);
        let (index, adj) = (&self.index, &mut self.adj);
        for (i, &v) in phase1.order.iter().enumerate() {
            // Frontier nodes (at exactly `radius`) are never expanded: an
            // exclusion can only increase a node's depth.
            if phase1.dist[&v] >= radius {
                continue;
            }
            let rel = graph.tuple(v).rel;
            let fwd = catalog
                .out_edges(rel)
                .iter()
                .map(|&fk| (fk, Direction::Forward));
            let bwd = catalog
                .in_edges(rel)
                .iter()
                .map(|&fk| (fk, Direction::Backward));
            for (fk, dir) in fwd.chain(bwd) {
                let step = match dir {
                    Direction::Forward => JoinStep::forward(fk),
                    Direction::Backward => JoinStep::backward(fk),
                };
                for &w in graph.step_neighbors(step, v, rel) {
                    let marks = graph.tuple(w).rel == start_rel
                        && !(fk == ref_fk && dir == Direction::Backward);
                    adj[i].push((index[&w], marks));
                }
            }
        }
        self.sources.clear();
        self.sources.extend(sources.iter().map(|s| self.index[s]));
        self.radius = radius;
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.depth.clear();
        self.depth.resize(n, 0);
        self.generation = 0;
    }

    /// Which of `targets` are still marked when `exclude` is removed from
    /// the graph? Semantics match [`reachable_refs`] with that node
    /// banned from traversal (sources included).
    fn confirmed(&mut self, exclude: NodeId, targets: &[NodeId]) -> Vec<bool> {
        let excluded = self.index[&exclude];
        let mut verdict = vec![false; targets.len()];
        // Candidate dense index -> position in `targets` (nodes distinct).
        let want: FxHashMap<u32, usize> = targets
            .iter()
            .enumerate()
            .map(|(i, t)| (self.index[t], i))
            .collect();
        let mut remaining = want.len();

        self.generation += 1;
        let generation = self.generation;
        let mut queue: VecDeque<u32> = VecDeque::new();
        for &s in &self.sources {
            if s == excluded || self.stamp[s as usize] == generation {
                continue;
            }
            self.stamp[s as usize] = generation;
            self.depth[s as usize] = 0;
            queue.push_back(s);
        }
        while let Some(v) = queue.pop_front() {
            let d = self.depth[v as usize] as usize;
            if d >= self.radius {
                continue;
            }
            for &(w, marks) in &self.adj[v as usize] {
                if w == excluded {
                    continue;
                }
                if marks && remaining > 0 {
                    if let Some(&slot) = want.get(&w) {
                        if !verdict[slot] {
                            verdict[slot] = true;
                            remaining -= 1;
                        }
                    }
                }
                if self.stamp[w as usize] != generation {
                    self.stamp[w as usize] = generation;
                    self.depth[w as usize] = d as u32 + 1;
                    queue.push_back(w);
                }
            }
            if remaining == 0 {
                break;
            }
        }
        verdict
    }
}

impl Distinct {
    /// Append a batch of tuples to the engine's catalog and link graph,
    /// and mark every reference whose similarity evidence the batch could
    /// have changed (see the module docs for the soundness argument).
    ///
    /// Tuples already present are skipped, so re-applying an applied
    /// batch is a no-op. Within one batch, referenced tuples must precede
    /// referencing ones (the natural order of an insertion log); pseudo
    /// value tuples for expanded attributes are inserted automatically.
    /// Dirty references have their cached profiles evicted and their
    /// names' cached tables marked; nothing is recomputed until the next
    /// [`crate::ResolveRequest::incremental`] resolve asks for it.
    pub fn apply_updates(
        &mut self,
        updates: &[UpdateTuple],
    ) -> Result<UpdateReport, DistinctError> {
        let mut report = UpdateReport::default();
        let mut new_tuples: Vec<TupleRef> = Vec::new();
        for u in updates {
            let rel = self.catalog.relation_id(&u.relation).ok_or_else(|| {
                DistinctError::Config(format!("update names unknown relation `{}`", u.relation))
            })?;
            if u.values.len() != self.catalog.relation(rel).schema().attributes.len() {
                return Err(DistinctError::Config(format!(
                    "update for `{}` has {} values, schema has {} attributes",
                    u.relation,
                    u.values.len(),
                    self.catalog.relation(rel).schema().attributes.len()
                )));
            }
            if already_present(&self.catalog, rel, &u.values) {
                report.skipped += 1;
                continue;
            }
            // Expanded data attributes reference pseudo value relations;
            // missing value tuples must exist before the referencing
            // tuple so the graph append can wire its forward edges.
            let pseudo: Vec<(String, Value)> = self
                .catalog
                .relation(rel)
                .schema()
                .attributes
                .iter()
                .enumerate()
                .filter_map(|(i, a)| match &a.role {
                    AttrRole::ForeignKey { target }
                        if *target == pseudo_relation_name(&u.relation, &a.name)
                            && !u.values[i].is_null() =>
                    {
                        Some((target.clone(), u.values[i].clone()))
                    }
                    _ => None,
                })
                .collect();
            for (target, value) in pseudo {
                let target_rel = self.catalog.relation_id(&target).ok_or_else(|| {
                    DistinctError::Config(format!("pseudo relation `{target}` missing"))
                })?;
                if self.catalog.relation(target_rel).by_key(&value).is_none() {
                    // distinct-lint: allow(D113, reason="the catalog IS the reference corpus: it grows with applied updates by design and is evicted only by rebuilding the engine")
                    let t = self.catalog.insert(&target, Tuple::new(vec![value]))?;
                    new_tuples.push(t);
                }
            }
            let t = self
                .catalog
                .insert(&u.relation, Tuple::new(u.values.clone()))?;
            new_tuples.push(t);
            report.applied += 1;
        }
        if new_tuples.is_empty() {
            return Ok(report);
        }
        // One cheap re-finalize per batch (FK ids are stable), then wire
        // the new tuples into the graph overlay in insertion order.
        self.catalog.finalize(false)?;
        let new_nodes: Vec<NodeId> = new_tuples
            .iter()
            .map(|&t| self.graph.append_tuple(&self.catalog, t))
            .collect();

        let new_refs: FxHashSet<TupleRef> = new_tuples
            .iter()
            .copied()
            .filter(|t| t.rel == self.paths.start)
            .collect();
        report.refs_added = new_refs.len();

        // Phase 1: candidate references within max_path_len of any
        // appended node.
        let radius = self.config.max_path_len;
        let phase1 = reachable_refs(
            &self.graph,
            &self.catalog,
            self.paths.start,
            self.paths.ref_fk,
            &new_nodes,
            radius,
        );
        // Phase 2: confirm candidates along routes avoiding their own
        // named tuple, one sweep per distinct named tuple (BTree keeps
        // the sweep order deterministic).
        let mut dirty: BTreeSet<TupleRef> = BTreeSet::new();
        let mut pending: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        // Walk the deterministic BFS visit order, not the hash set, so
        // `pending`'s candidate lists are order-stable across runs.
        for &c in &phase1.order {
            if !phase1.marked.contains(&c) {
                continue;
            }
            let r = self.graph.tuple(c);
            if new_refs.contains(&r) {
                continue; // new references are handled as additions
            }
            match self.catalog.follow_forward(self.paths.ref_fk, r) {
                Some(named) => {
                    let named_node = self.graph.node(named);
                    if phase1.dist.contains_key(&named_node) {
                        pending.entry(named_node).or_default().push(c);
                    } else {
                        // No phase-1 route passed through the named tuple,
                        // so the marking route already avoids it.
                        dirty.insert(r);
                    }
                }
                // Dangling reference value: stay conservative.
                None => {
                    dirty.insert(r);
                }
            }
        }
        if !pending.is_empty() {
            // The engine-owned sweeper scratch is recompiled over this
            // batch's neighborhood in place: adjacency rows, dense index,
            // and stamp columns keep their capacity from the previous
            // batch instead of being re-grown from cold heap.
            self.sweep_scratch.rebuild(
                &self.graph,
                &self.catalog,
                self.paths.start,
                self.paths.ref_fk,
                &new_nodes,
                radius,
                &phase1,
            );
            for (&blocked, cands) in &pending {
                let verdicts = self.sweep_scratch.confirmed(blocked, cands);
                for (&c, ok) in cands.iter().zip(verdicts) {
                    if ok {
                        dirty.insert(self.graph.tuple(c));
                    }
                }
            }
        }
        report.refs_dirtied = dirty.len();

        // Dirty profiles are stale; new references were never cached.
        let evict: Vec<TupleRef> = dirty.iter().copied().collect();
        self.profile_cache.evict(&evict);

        // Count affected names and mark cached per-name state.
        let cache = self.names.get_mut();
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for &r in dirty.iter().chain(new_refs.iter()) {
            if let Some(name) = self.catalog.value(r, self.ref_attr_idx).as_str() {
                names.insert(name);
                if let Some(entry) = cache.get_mut(name) {
                    entry.dirty.insert(r);
                }
            }
        }
        report.names = names.into_iter().map(str::to_string).collect();
        report.names_affected = report.names.len();
        Ok(report)
    }

    /// Take `name`'s cached entry out of the name cache. A self-contained
    /// lock scope: the incremental repair runs on the removed entry with
    /// the cache unlocked, so the exec pool's channels never block under
    /// `self.names`.
    fn take_name_entry(&self, name: &str) -> Option<NameEntry> {
        self.names.lock().remove(name)
    }

    /// The delta resolve path behind [`crate::ResolveRequest::incremental`].
    ///
    /// Returns `None` whenever a precondition fails (constraints, a
    /// non-positive threshold, refs that are not exactly one name's
    /// current reference list) or a control limit trips mid-repair — the
    /// caller then falls back to the batch path, which owns graceful
    /// degradation, and the name cache is left cold rather than
    /// half-updated.
    pub(crate) fn resolve_incremental(&self, req: &ResolveRequest<'_>) -> Option<ResolveOutcome> {
        let refs = req.refs;
        let min_sim = req.min_sim.unwrap_or(self.config.min_sim);
        // Component repair is lossless only above a positive threshold,
        // and user constraints can link across components.
        // `partial_cmp` so a NaN threshold also bails to batch.
        if refs.is_empty()
            || min_sim.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || req.is_constrained()
        {
            return None;
        }
        let first = *refs.first()?;
        if first.rel != self.paths.start {
            return None;
        }
        let name = self
            .catalog
            .value(first, self.ref_attr_idx)
            .as_str()?
            .to_string();
        if self.references_of(&name) != refs {
            return None;
        }
        let n = refs.len();
        let n_paths = self.paths.len() as u64;
        let unlimited = RunControl::new();
        let ctl = req.control.unwrap_or(&unlimited);
        let executor = self.executor_for(req.threads);

        // The entry is taken *out* of the cache for the whole repair —
        // the lock itself is never held across the staged work below (the
        // stages fan out over channels) — so every early return leaves
        // the name cold (correct, a later resolve rebuilds) instead of
        // half-updated.
        let prior = self.take_name_entry(&name).filter(|e| {
            e.weights_epoch == self.weights_epoch
                && e.refs.len() <= n
                && e.refs[..] == refs[..e.refs.len()]
        });
        // Dynamic pin of the rule lint D106 proves statically: the cache
        // guard must be fully released before the fanout below can block
        // on the pool's channels.
        debug_assert!(
            !self.names.is_locked(),
            "NameCache guard must not be held across the exec pool boundary (lint D106)"
        );

        // Stage 1: profiles (clean ones come from the shared cache).
        let logical0 = ctl.spent();
        let (profiles, profile_stats) = self.profile_fanout(refs, &executor, ctl);
        let profile_logical = ctl.spent().saturating_sub(logical0);
        if profiles.iter().any(|p| p.placeholder) {
            return None;
        }

        // Stage 2: leaf similarity tables — copy clean pairs, re-score
        // dirty ones through the exact kernels (bit-identical to the
        // indexed pass the batch path uses).
        // distinct-lint: allow(D004, reason="wall time feeds ExecReport stage timings only; control flow stays with RunControl")
        let clock = Instant::now();
        let logical1 = ctl.spent();
        let guard = ctl.shared_guard();
        let pair_units = exec::triangle_count(n) as u64 * n_paths;
        let (
            resem,
            dwalk,
            dirty_flags,
            sim_stats,
            units_pruned,
            units_exact,
            units_cached,
            interned,
        );
        if let Some(entry) = &prior {
            let k = entry.refs.len();
            let flags: Vec<bool> = (0..n)
                .map(|i| i >= k || entry.dirty.contains(&refs[i]))
                .collect();
            let mut res = vec![vec![0.0; n]; n];
            let mut dwk = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..n {
                    if i != j && !flags[i] && !flags[j] {
                        res[i][j] = entry.resem[i][j];
                        dwk[i][j] = entry.dwalk[i][j];
                    }
                }
            }
            let mut dirty_pairs: u64 = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if !(flags[i] || flags[j]) {
                        continue;
                    }
                    if !guard(n_paths) {
                        return None;
                    }
                    dirty_pairs += 1;
                    let (r, dij, dji) = weighted_pair(&profiles[i], &profiles[j], &self.weights);
                    res[i][j] = r;
                    res[j][i] = r;
                    dwk[i][j] = dij;
                    dwk[j][i] = dji;
                }
            }
            resem = res;
            dwalk = dwk;
            dirty_flags = flags;
            sim_stats = exec::ParStats {
                tasks: dirty_pairs as usize,
                completed: dirty_pairs as usize,
                threads: 1,
                wall: clock.elapsed(),
                stopped: false,
            };
            units_pruned = 0;
            units_exact = dirty_pairs * n_paths;
            units_cached = pair_units - units_exact;
            interned = 0;
        } else {
            // Cold: build the tables with the indexed pass, then
            // cache them so the next incremental resolve is warm.
            let (merger, stats, counters) = self.similarity_stage(&profiles, &executor, &guard);
            let merger = merger?;
            let (r, d) = merger.to_tables();
            resem = r.to_vec();
            dwalk = d.to_vec();
            dirty_flags = vec![true; n];
            sim_stats = stats;
            units_pruned = counters.pruned;
            units_exact = counters.exact;
            units_cached = counters.cached;
            interned = counters.interned;
        }
        let similarity_logical = ctl.spent().saturating_sub(logical1);
        let units_dirty = if prior.is_some() { units_exact } else { 0 };

        // Stage 3: component-scoped dendrogram repair. Cross-component
        // similarities are exactly zero (child-sum arithmetic keeps them
        // there), so with min_sim > 0 the batch engine could never merge
        // across a boundary — untouched components reuse their cached
        // clustering verbatim.
        // distinct-lint: allow(D004, reason="wall time feeds ExecReport stage timings only; control flow stays with RunControl")
        let clock2 = Instant::now();
        let logical2 = ctl.spent();
        let adjacent =
            |i: usize, j: usize| resem[i][j] != 0.0 || dwalk[i][j] != 0.0 || dwalk[j][i] != 0.0;
        let comps = connected_components(n, &adjacent);
        let min_sim_bits = min_sim.to_bits();
        let mut prior_parts: FxHashMap<Vec<usize>, ComponentClustering> = FxHashMap::default();
        if let Some(entry) = prior {
            if entry.min_sim_bits == min_sim_bits {
                for part in entry.parts {
                    prior_parts.insert(part.members.clone(), part);
                }
            }
        }
        let mut parts: Vec<ComponentClustering> = Vec::with_capacity(comps.len());
        let mut cluster_stats = exec::ParStats {
            threads: 1,
            ..Default::default()
        };
        for members in comps {
            if members.iter().all(|&i| !dirty_flags[i]) {
                if let Some(part) = prior_parts.remove(&members) {
                    parts.push(part);
                    continue;
                }
            }
            let local_resem = gather_rows(&resem, &members);
            let local_dwalk = gather_rows(&dwalk, &members);
            let mut merger = DistinctMerger::from_tables(
                local_resem,
                local_dwalk,
                self.config.measure,
                self.config.composite,
            )?;
            let (partial, stats) =
                cluster::agglomerate_exec(members.len(), &mut merger, min_sim, &executor, &guard);
            if !partial.completed {
                return None;
            }
            cluster_stats.tasks += stats.tasks;
            cluster_stats.completed += stats.completed;
            cluster_stats.threads = cluster_stats.threads.max(stats.threads);
            parts.push(ComponentClustering {
                members,
                dendrogram: partial.clustering.dendrogram,
            });
        }
        let clustering = compose(n, &parts);
        cluster_stats.wall = clock2.elapsed();
        let clustering_logical = ctl.spent().saturating_sub(logical2);

        let names_affected = u64::from(units_dirty > 0);
        self.names.lock().insert(
            name,
            NameEntry {
                refs: refs.to_vec(),
                resem,
                dwalk,
                dirty: FxHashSet::default(),
                weights_epoch: self.weights_epoch,
                min_sim_bits,
                parts,
            },
        );

        Some(ResolveOutcome {
            clustering,
            degraded: None,
            exec: ExecReport {
                profiles: stage_stats(profile_stats, profile_logical),
                similarity: stage_stats(sim_stats, similarity_logical),
                clustering: stage_stats(cluster_stats, clustering_logical),
                peak_rss_bytes: crate::control::peak_rss_bytes().unwrap_or(0),
                pairs_total: pair_units,
                pairs_pruned: units_pruned,
                pairs_exact: units_exact,
                pairs_cached: units_cached,
                pairs_dirty: units_dirty,
                names_affected,
                arena_rows_interned: interned,
            },
        })
    }
}

/// The `members × members` submatrix of `src`, each row exact-sized by
/// the iterator. Out-of-line from the component loop so the per-component
/// allocations (which are moved into that component's merger and cannot
/// be pooled) sit outside the charge-guarded hot loop (lint D110).
fn gather_rows(src: &[Vec<f64>], members: &[usize]) -> Vec<Vec<f64>> {
    members
        .iter()
        .map(|&i| members.iter().map(|&j| src[i][j]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistinctConfig;
    use crate::request::ResolveRequest;
    use datagen::{AmbiguousSpec, World, WorldConfig};

    fn dataset() -> datagen::DblpDataset {
        let mut config = WorldConfig::tiny(21);
        config.ambiguous = vec![
            AmbiguousSpec::new("Wei Wang", vec![10, 8, 5]),
            AmbiguousSpec::new("Hui Fang", vec![5, 4]),
        ];
        datagen::to_catalog(&World::generate(config)).unwrap()
    }

    fn engine(d: &datagen::DblpDataset) -> Distinct {
        Distinct::prepare(&d.catalog, "Publish", "author", DistinctConfig::default()).unwrap()
    }

    fn publication_update(d: &datagen::DblpDataset, paper_key: i64, title: &str) -> UpdateTuple {
        // Reuse an existing proceedings key so the new paper attaches to
        // the existing venue structure.
        let rel = d.catalog.relation_id("Publications").unwrap();
        let proc_idx = d
            .catalog
            .relation(rel)
            .schema()
            .attr_index("proc_key")
            .unwrap();
        let existing = d.catalog.relation(rel).tuple(relstore::TupleId(0));
        UpdateTuple::new(
            "Publications",
            vec![
                Value::from(paper_key),
                Value::str(title),
                existing.get(proc_idx).clone(),
            ],
        )
    }

    #[test]
    fn idempotent_reapply_is_a_no_op() {
        let d = dataset();
        let mut e = engine(&d);
        let paper_key = 100_000i64;
        let batch = vec![
            publication_update(&d, paper_key, "A Fresh Result"),
            UpdateTuple::new(
                "Publish",
                vec![Value::str("Wei Wang"), Value::from(paper_key)],
            ),
        ];
        let first = e.apply_updates(&batch).unwrap();
        assert_eq!(first.applied, 2);
        assert_eq!(first.skipped, 0);
        assert_eq!(first.refs_added, 1);
        assert!(first.names_affected >= 1);
        let nodes_after = e.graph().node_count();
        let second = e.apply_updates(&batch).unwrap();
        assert_eq!(second.applied, 0);
        assert_eq!(second.skipped, 2);
        assert_eq!(second.refs_added, 0);
        assert_eq!(second.refs_dirtied, 0);
        assert_eq!(e.graph().node_count(), nodes_after);
    }

    #[test]
    fn unknown_relation_and_bad_arity_are_rejected() {
        let d = dataset();
        let mut e = engine(&d);
        let err = e
            .apply_updates(&[UpdateTuple::new("Nope", vec![Value::str("x")])])
            .unwrap_err();
        assert!(matches!(err, DistinctError::Config(_)), "{err}");
        let err = e
            .apply_updates(&[UpdateTuple::new("Publish", vec![Value::str("x")])])
            .unwrap_err();
        assert!(matches!(err, DistinctError::Config(_)), "{err}");
    }

    #[test]
    fn updates_dirty_a_strict_subset_of_references() {
        let d = dataset();
        let mut e = engine(&d);
        let publish = d.catalog.relation_id("Publish").unwrap();
        let total_refs = d.catalog.relation(publish).len();
        let paper_key = 100_001i64;
        let report = e
            .apply_updates(&[
                publication_update(&d, paper_key, "Another Fresh Result"),
                UpdateTuple::new(
                    "Publish",
                    vec![Value::str("Wei Wang"), Value::from(paper_key)],
                ),
            ])
            .unwrap();
        assert_eq!(report.refs_added, 1);
        // The whole point of exclusion-confirmed marking: one new paper
        // must not dirty the world.
        assert!(
            report.refs_dirtied < total_refs / 2,
            "dirtied {} of {} references",
            report.refs_dirtied,
            total_refs
        );
    }

    #[test]
    fn incremental_resolve_after_update_matches_cold_batch() {
        let d = dataset();
        let mut e = engine(&d);
        let paper_key = 100_002i64;
        let updates = vec![
            publication_update(&d, paper_key, "Streaming Equals Batch"),
            UpdateTuple::new(
                "Publish",
                vec![Value::str("Wei Wang"), Value::from(paper_key)],
            ),
        ];

        // Warm the incremental cache, apply the update, resolve again.
        let refs0 = e.references_of("Wei Wang");
        let cold = e.resolve(&ResolveRequest::incremental(&refs0));
        assert!(cold.is_complete());
        assert_eq!(cold.exec.pairs_dirty, 0);
        e.apply_updates(&updates).unwrap();
        let refs1 = e.references_of("Wei Wang");
        assert_eq!(refs1.len(), refs0.len() + 1);
        let warm = e.resolve(&ResolveRequest::incremental(&refs1));
        assert!(warm.is_complete());
        assert!(warm.exec.pairs_dirty > 0);
        assert!(
            warm.exec.pairs_dirty < warm.exec.pairs_total,
            "dirty {} of {}",
            warm.exec.pairs_dirty,
            warm.exec.pairs_total
        );
        assert_eq!(warm.exec.arena_rows_interned, 0);
        assert_eq!(
            warm.exec.pairs_pruned + warm.exec.pairs_exact + warm.exec.pairs_cached,
            warm.exec.pairs_total
        );

        // A second engine that saw the union from the start: the batch
        // reference partition the incremental path must converge to.
        let mut union = engine(&d);
        union.apply_updates(&updates).unwrap();
        let refs_union = union.references_of("Wei Wang");
        assert_eq!(refs_union, refs1);
        let batch = union.resolve(&ResolveRequest::new(&refs_union));
        assert_eq!(warm.clustering.labels, batch.clustering.labels);
    }

    #[test]
    fn warm_second_resolve_does_zero_re_interning() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let cold = e.resolve(&ResolveRequest::incremental(&refs));
        assert!(cold.exec.arena_rows_interned > 0, "cold build indexes sets");
        let warm = e.resolve(&ResolveRequest::incremental(&refs));
        assert_eq!(warm.exec.arena_rows_interned, 0);
        assert_eq!(warm.exec.pairs_cached, warm.exec.pairs_total);
        assert_eq!(warm.exec.pairs_exact, 0);
        assert_eq!(warm.clustering.labels, cold.clustering.labels);
        // And the cached tables survive across other names' resolves.
        let other = e.references_of("Hui Fang");
        let _ = e.resolve(&ResolveRequest::incremental(&other));
        let again = e.resolve(&ResolveRequest::incremental(&refs));
        assert_eq!(again.exec.arena_rows_interned, 0);
        assert_eq!(again.clustering.labels, cold.clustering.labels);
    }

    #[test]
    fn incremental_request_matches_batch_resolve_bitwise_on_labels() {
        let d = dataset();
        let e = engine(&d);
        for truth in &d.truths {
            let batch = e.resolve(&ResolveRequest::new(&truth.refs));
            let inc = e.resolve(&ResolveRequest::incremental(&truth.refs));
            assert_eq!(inc.clustering.labels, batch.clustering.labels);
        }
    }

    #[test]
    fn incremental_preconditions_fall_back_to_batch() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        // A subset of a name's references is not incrementally resolvable;
        // the fall-back batch path must still answer.
        let subset = &refs[..refs.len() - 1];
        let outcome = e.resolve(&ResolveRequest::incremental(subset));
        assert_eq!(outcome.clustering.labels.len(), subset.len());
        // Constraints force the batch path too.
        let constrained = e.resolve(&ResolveRequest::incremental(&refs).cannot_link(&[(0, 1)]));
        assert_ne!(
            constrained.clustering.labels[0],
            constrained.clustering.labels[1]
        );
        // And a changed threshold invalidates cached component cuts
        // without breaking equality with batch.
        let batch = e.resolve(&ResolveRequest::new(&refs).min_sim(0.05));
        let inc = e.resolve(&ResolveRequest::incremental(&refs).min_sim(0.05));
        assert_eq!(inc.clustering.labels, batch.clustering.labels);
    }

    #[test]
    fn weight_change_invalidates_cached_tables() {
        let d = dataset();
        let mut e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let _ = e.resolve(&ResolveRequest::incremental(&refs));
        let n = e.paths().len();
        let mut w = crate::learn::PathWeights::uniform(n);
        w.resem[0] += 0.5;
        e.set_weights(w).unwrap();
        // The stale entry must not be reused: the rebuild interns again.
        let after = e.resolve(&ResolveRequest::incremental(&refs));
        assert!(after.exec.arena_rows_interned > 0);
        let batch = e.resolve(&ResolveRequest::new(&refs));
        assert_eq!(after.clustering.labels, batch.clustering.labels);
    }

    /// Dynamic pin of the lock-scope rule lint D106 proves statically:
    /// the name-cache guard is released before any exec pool boundary —
    /// at the takeout helper (its guard dies inside the single
    /// statement) and along the whole incremental repair (the
    /// `debug_assert!` at the fanout fires under `cargo test` if the
    /// scope ever widens again).
    #[test]
    fn name_cache_guard_is_never_held_across_the_pool_boundary() {
        let d = dataset();
        let mut e = engine(&d);
        let refs0 = e.references_of("Wei Wang");
        assert!(e
            .resolve(&ResolveRequest::incremental(&refs0))
            .is_complete());

        let entry = e.take_name_entry("Wei Wang");
        assert!(entry.is_some(), "warm resolve must have cached the name");
        assert!(
            !e.names.is_locked(),
            "take_name_entry leaked its guard past the statement"
        );

        // Warm the cache again, update, and run the full repair — it
        // crosses the profile/similarity/clustering fanouts with debug
        // assertions on, so the boundary assert rides along.
        assert!(e
            .resolve(&ResolveRequest::incremental(&refs0))
            .is_complete());
        let paper_key = 100_077i64;
        e.apply_updates(&[
            publication_update(&d, paper_key, "Guard Scope Pin"),
            UpdateTuple::new(
                "Publish",
                vec![Value::str("Wei Wang"), Value::from(paper_key)],
            ),
        ])
        .unwrap();
        let refs1 = e.references_of("Wei Wang");
        let warm = e.resolve(&ResolveRequest::incremental(&refs1));
        assert!(warm.is_complete());
        assert!(!e.names.is_locked());
    }

    #[test]
    fn empty_update_batch_is_a_complete_no_op() {
        let d = dataset();
        let mut e = engine(&d);
        let nodes = e.graph().node_count();
        let report = e.apply_updates(&[]).unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.refs_added, 0);
        assert_eq!(report.refs_dirtied, 0);
        assert_eq!(report.names_affected, 0);
        assert!(report.names.is_empty());
        assert_eq!(e.graph().node_count(), nodes);
    }

    #[test]
    fn update_touching_an_unreferenced_relation_dirties_zero_pairs() {
        let d = dataset();
        let mut e = engine(&d);
        // A fresh conference nothing links to: the sweep must find no
        // reference whose neighborhood changed.
        let report = e
            .apply_updates(&[UpdateTuple::new(
                "Conferences",
                vec![Value::str("Phantom Conf"), Value::str("Nobody Press")],
            )])
            .unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.refs_added, 0);
        assert_eq!(
            report.refs_dirtied, 0,
            "a leaf tuple nothing references must not dirty the sweep"
        );
        assert_eq!(report.names_affected, 0);
        assert!(report.names.is_empty());
    }

    #[test]
    fn single_reference_name_resolves_after_its_first_update() {
        let d = dataset();
        let mut e = engine(&d);
        let paper_key = 100_078i64;
        let report = e
            .apply_updates(&[
                UpdateTuple::new("Authors", vec![Value::str("Solo Author")]),
                publication_update(&d, paper_key, "A Single Authored Result"),
                UpdateTuple::new(
                    "Publish",
                    vec![Value::str("Solo Author"), Value::from(paper_key)],
                ),
            ])
            .unwrap();
        assert_eq!(report.applied, 3);
        assert_eq!(report.refs_added, 1);
        assert!(
            report.names.contains(&"Solo Author".to_string()),
            "{:?}",
            report.names
        );
        let refs = e.references_of("Solo Author");
        assert_eq!(refs.len(), 1);
        let outcome = e.resolve(&ResolveRequest::incremental(&refs));
        assert!(outcome.is_complete());
        assert_eq!(outcome.clustering.cluster_count(), 1);
    }

    #[test]
    fn duplicate_tuple_in_one_batch_applies_once_and_skips_once() {
        let d = dataset();
        let mut e = engine(&d);
        let dup = publication_update(&d, 100_079, "Appended Twice");
        let report = e.apply_updates(&[dup.clone(), dup]).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.refs_added, 0);
    }
}
