//! Whole-database object distinction: resolve *every* name at once.
//!
//! The paper evaluates DISTINCT name-by-name; a production deployment
//! wants the closure of that process — one pass over the reference
//! relation that assigns every reference a global entity id, splitting
//! each shared name into as many entities as the linkage evidence
//! supports. Names are independent (references with different names can
//! never corefer in this problem setting), so the pass maps the names over
//! the `exec` pool as work items, each resolved serially, and commits the
//! results in first-appearance order: the assignment is identical for any
//! worker count.

use crate::control::RunControl;
use crate::pipeline::Distinct;
use crate::request::ResolveRequest;
use relstore::{FxHashMap, TupleRef, Value};
use serde::{Deserialize, Serialize};

/// Options for a whole-database resolution pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DedupeOptions {
    /// Names with fewer references than this are assigned one entity
    /// without clustering (a single reference cannot be split; the paper
    /// likewise drops sparsely-referenced authors from evaluation).
    pub min_refs_to_cluster: usize,
    /// Skip names with more references than this (safety valve: pairwise
    /// profile comparison is quadratic per name).
    pub max_refs_per_name: usize,
    /// Worker threads over names (0 or 1 runs serially); the assignment
    /// is identical for any count.
    pub threads: usize,
}

impl Default for DedupeOptions {
    fn default() -> Self {
        DedupeOptions {
            min_refs_to_cluster: 2,
            max_refs_per_name: 2_000,
            threads: 1,
        }
    }
}

/// Result of resolving one name within a pass.
#[derive(Debug, Clone)]
pub struct NameResolution {
    /// The shared name.
    pub name: String,
    /// Number of references.
    pub refs: usize,
    /// Number of entities the references were split into.
    pub entities: usize,
}

/// A global entity assignment over the reference relation.
#[derive(Debug, Clone, Default)]
pub struct EntityAssignment {
    /// Entity id per reference.
    entity_of: FxHashMap<TupleRef, usize>,
    /// Per-name resolution summaries, in processing order.
    pub resolutions: Vec<NameResolution>,
    /// Names skipped because they exceeded `max_refs_per_name`.
    pub skipped: Vec<String>,
    next_entity: usize,
}

impl EntityAssignment {
    /// The entity id of a reference, if it was assigned.
    pub fn entity(&self, r: TupleRef) -> Option<usize> {
        self.entity_of.get(&r).copied()
    }

    /// Number of assigned references.
    pub fn assigned_refs(&self) -> usize {
        self.entity_of.len()
    }

    /// Total number of entities.
    pub fn entity_count(&self) -> usize {
        self.next_entity
    }

    /// Names whose references were split into more than one entity.
    pub fn split_names(&self) -> Vec<&NameResolution> {
        self.resolutions.iter().filter(|r| r.entities > 1).collect()
    }

    /// References grouped by entity id.
    pub fn groups(&self) -> Vec<Vec<TupleRef>> {
        let mut out = vec![Vec::new(); self.next_entity];
        let mut items: Vec<(&TupleRef, &usize)> = self.entity_of.iter().collect();
        items.sort();
        for (&r, &e) in items {
            out[e].push(r);
        }
        out
    }

    /// Commit per-name labels (`None` for a skipped name) in the order of
    /// `by_name`: entity ids, resolutions and skips follow that order alone.
    fn commit(by_name: &[(Value, Vec<TupleRef>)], labels: Vec<Option<Vec<usize>>>) -> Self {
        let mut assignment = EntityAssignment::default();
        for ((name, refs), labels) in by_name.iter().zip(labels) {
            let Some(labels) = labels else {
                assignment.skipped.push(name.to_string());
                continue;
            };
            let k = labels.iter().max().map_or(0, |&m| m + 1);
            let base = assignment.next_entity;
            assignment.next_entity += k;
            for (&r, &label) in refs.iter().zip(&labels) {
                assignment.entity_of.insert(r, base + label);
            }
            assignment.resolutions.push(NameResolution {
                name: name.to_string(),
                refs: refs.len(),
                entities: k,
            });
        }
        assignment
    }
}

impl Distinct {
    /// Resolve every name in the reference relation, producing a global
    /// [`EntityAssignment`]. Deterministic: names are committed in the
    /// order of their first appearance in the relation, whatever
    /// `opts.threads` is.
    pub fn resolve_all(&self, opts: &DedupeOptions) -> EntityAssignment {
        let by_name = self.refs_by_name();
        // Names are the work items: each one resolves serially and builds
        // its own profiles, and no reference belongs to two names, so no
        // two workers ever compute the same profile. Every resolve charges
        // one control for the whole pass; it is unlimited and never stops
        // the map, so `None` only marks a name over `max_refs_per_name`.
        let ctl = RunControl::new();
        let executor = exec::Executor::with_threads(opts.threads.max(1));
        let (labels, _) = executor.par_map_guarded(
            &by_name,
            |_, (_, refs)| {
                if refs.len() > opts.max_refs_per_name {
                    None
                } else if refs.len() < opts.min_refs_to_cluster {
                    Some(vec![0; refs.len()])
                } else {
                    let req = ResolveRequest::new(refs).control(&ctl).threads(1);
                    Some(self.resolve(&req).clustering.labels)
                }
            },
            || ctl.status().is_some(),
        );
        EntityAssignment::commit(&by_name, labels)
    }

    /// The references of every name, grouped by one scan of the reference
    /// relation, in the order of each name's first appearance.
    fn refs_by_name(&self) -> Vec<(Value, Vec<TupleRef>)> {
        let start = self.paths().start;
        let attr = self.ref_attr_index();
        let mut index: FxHashMap<Value, usize> = FxHashMap::default();
        let mut by_name: Vec<(Value, Vec<TupleRef>)> = Vec::new();
        for (tid, t) in self.catalog().relation(start).iter() {
            let v = t.get(attr);
            if v.is_null() {
                continue;
            }
            let i = *index.entry(v.clone()).or_insert_with(|| {
                by_name.push((v.clone(), Vec::new()));
                by_name.len() - 1
            });
            by_name[i].1.push(TupleRef::new(start, tid));
        }
        by_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DistinctConfig, TrainingConfig};
    use datagen::{to_catalog, AmbiguousSpec, World, WorldConfig};

    fn engine_and_truth() -> (Distinct, datagen::DblpDataset) {
        let mut config = WorldConfig::tiny(7);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![8, 6])];
        let d = to_catalog(&World::generate(config)).unwrap();
        let cfg = DistinctConfig {
            training: TrainingConfig {
                positives: 60,
                negatives: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", cfg).unwrap();
        engine.train().unwrap();
        (engine, d)
    }

    #[test]
    fn every_reference_is_assigned_exactly_once() {
        let (engine, d) = engine_and_truth();
        let assignment = engine.resolve_all(&DedupeOptions::default());
        let publish = d.catalog.relation(d.publish);
        assert_eq!(assignment.assigned_refs(), publish.len());
        // Groups partition the reference set.
        let total: usize = assignment.groups().iter().map(Vec::len).sum();
        assert_eq!(total, publish.len());
        assert!(assignment.skipped.is_empty());
    }

    #[test]
    fn same_name_refs_share_name_and_entities_respect_names() {
        // References with different names can never share an entity.
        let (engine, d) = engine_and_truth();
        let assignment = engine.resolve_all(&DedupeOptions::default());
        for group in assignment.groups() {
            let names: std::collections::HashSet<String> = group
                .iter()
                .map(|&r| d.catalog.value(r, 0).to_string())
                .collect();
            assert!(names.len() <= 1, "entity spans names: {names:?}");
        }
    }

    #[test]
    fn planted_name_is_split() {
        let (engine, _d) = engine_and_truth();
        let assignment = engine.resolve_all(&DedupeOptions::default());
        let wei = assignment
            .resolutions
            .iter()
            .find(|r| r.name == "Wei Wang")
            .expect("Wei Wang resolved");
        assert_eq!(wei.refs, 14);
        assert!(wei.entities >= 2, "planted ambiguity not split");
        assert!(!assignment.split_names().is_empty());
    }

    #[test]
    fn entity_count_bounds() {
        let (engine, d) = engine_and_truth();
        let assignment = engine.resolve_all(&DedupeOptions::default());
        let names = d.catalog.relation(d.authors).len();
        // At least one entity per name, at most one per reference.
        assert!(assignment.entity_count() >= names);
        assert!(assignment.entity_count() <= assignment.assigned_refs());
    }

    #[test]
    fn max_refs_safety_valve() {
        let (engine, _) = engine_and_truth();
        let opts = DedupeOptions {
            max_refs_per_name: 5,
            ..Default::default()
        };
        let assignment = engine.resolve_all(&opts);
        assert!(assignment.skipped.contains(&"Wei Wang".to_string()));
        // Skipped references are not assigned.
        for r in &assignment.resolutions {
            assert!(r.refs <= 5);
        }
    }

    #[test]
    fn deterministic() {
        let (engine, _) = engine_and_truth();
        let a = engine.resolve_all(&DedupeOptions::default());
        let b = engine.resolve_all(&DedupeOptions::default());
        assert_eq!(a.entity_count(), b.entity_count());
        assert_eq!(a.groups(), b.groups());
    }

    /// Everything an assignment says, in order.
    type Snapshot = (
        Vec<Option<usize>>,
        Vec<(String, usize, usize)>,
        Vec<String>,
        usize,
    );

    fn snapshot(a: &EntityAssignment, d: &datagen::DblpDataset) -> Snapshot {
        let entities = (0..d.catalog.relation(d.publish).len())
            .map(|i| a.entity(TupleRef::new(d.publish, relstore::TupleId(i as u32))))
            .collect();
        let resolutions = a
            .resolutions
            .iter()
            .map(|r| (r.name.clone(), r.refs, r.entities))
            .collect();
        (entities, resolutions, a.skipped.clone(), a.entity_count())
    }

    #[test]
    fn resolve_all_is_thread_count_independent() {
        // `max_refs_per_name: 3` skips every name with more than three
        // references, so skips interleave with resolved and trivial names.
        for max_refs_per_name in [DedupeOptions::default().max_refs_per_name, 3] {
            let run = |threads: usize| {
                // A fresh engine each time: every run starts cold.
                let (engine, d) = engine_and_truth();
                let opts = DedupeOptions {
                    max_refs_per_name,
                    threads,
                    ..Default::default()
                };
                snapshot(&engine.resolve_all(&opts), &d)
            };
            let serial = run(1);
            assert!(serial.1.iter().any(|r| r.2 > 1), "no name was split");
            if max_refs_per_name == 3 {
                assert!(!serial.2.is_empty(), "no name was skipped");
                assert!(serial.1.iter().any(|r| r.1 >= 2), "no name was clustered");
            }
            for threads in [2, 4, 8] {
                assert_eq!(
                    run(threads),
                    serial,
                    "{threads} threads, max {max_refs_per_name}"
                );
            }
        }
    }
}
