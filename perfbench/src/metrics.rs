//! Metric catalogue, per-layer accumulation and the result record.
//!
//! The two tables below are the benchmark's contract: every run prints
//! every end-to-end metric, and every traced run prints every per-layer
//! metric, whatever the workload. A layer a workload does not exercise
//! reads 0 there. `BENCHMARK.json` lists the same names and units.

use distinct::ExecReport;
use distinct_bench::AllocSnapshot;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_mean_ms", "ms"),
    ("b3_f", "1"),
];

/// Per-layer metrics: `(name, unit)`. Times and counts are per call of
/// the layer (per `prepare`, per `train`, per resolve, per update batch,
/// per uninterrupted durable run or per resume) unless the name says
/// otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op.p50_ms", "ms"),
    ("op.p95_ms", "ms"),
    ("op.max_ms", "ms"),
    ("op.count", "count"),
    ("op.refs_per_s", "1/s"),
    ("prepare.expand_ms", "ms"),
    ("prepare.paths_ms", "ms"),
    ("prepare.graph_ms", "ms"),
    ("prepare.pseudo_tuples", "count"),
    ("graph.edges", "count"),
    ("graph.adjacency_mb", "MB"),
    ("train.pairs_ms", "ms"),
    ("train.profiles_ms", "ms"),
    ("train.featurize_ms", "ms"),
    ("train.fit_ms", "ms"),
    ("train.pairs", "count"),
    ("resolve.calls", "count"),
    ("resolve.all_ms", "ms"),
    ("resolve.precompute_ms", "ms"),
    ("resolve.profiles_ms", "ms"),
    ("resolve.profile_misses", "count"),
    ("resolve.similarity_ms", "ms"),
    ("resolve.pairs_total", "count"),
    ("resolve.pruned_frac", "1"),
    ("resolve.pairs_exact", "count"),
    ("resolve.arena_rows", "count"),
    ("resolve.logical", "count"),
    ("resolve.clustering_ms", "ms"),
    ("resolve.other_ms", "ms"),
    ("exec.threads", "count"),
    ("exec.tasks", "count"),
    ("update.apply_ms", "ms"),
    ("update.resolve_ms", "ms"),
    ("update.names_affected", "count"),
    ("update.refs_dirtied", "count"),
    ("update.dirty_frac", "1"),
    ("update.cached_frac", "1"),
    ("durable.clean_p50_ms", "ms"),
    ("durable.writes", "count"),
    ("durable.bytes_written", "B"),
    ("durable.write_ms", "ms"),
    ("durable.resume_mean_ms", "ms"),
    ("durable.resume_max_ms", "ms"),
    ("durable.bytes_read", "B"),
    ("durable.read_ms", "ms"),
    ("durable.restore_ms", "ms"),
    ("durable.profiles_restored", "count"),
    ("alloc.prepare.allocs", "count"),
    ("alloc.prepare.bytes", "B"),
    ("alloc.train.allocs", "count"),
    ("alloc.train.bytes", "B"),
    ("alloc.resolve.allocs", "count"),
    ("alloc.resolve.bytes", "B"),
    ("alloc.update.allocs", "count"),
    ("alloc.update.bytes", "B"),
    ("alloc.durable.allocs", "count"),
    ("alloc.durable.bytes", "B"),
    ("coverage", "1"),
    ("trace_overhead", "1"),
    ("failed_frac", "1"),
];

/// Milliseconds, with all their digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolation quantile of `samples` (`q` in `[0, 1]`); 0 when
/// there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

/// The layer an allocation delta is charged to.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `Distinct::prepare` and its sub-steps.
    Prepare,
    /// Training-set construction and `train`.
    Train,
    /// Every resolve call (plain, incremental, `resolve_all`).
    Resolve,
    /// `apply_updates`.
    Update,
    /// `resolve_durable_with`, killed runs and resumes.
    Durable,
}

impl Layer {
    fn keys(self) -> (&'static str, &'static str) {
        match self {
            Layer::Prepare => ("alloc.prepare.allocs", "alloc.prepare.bytes"),
            Layer::Train => ("alloc.train.allocs", "alloc.train.bytes"),
            Layer::Resolve => ("alloc.resolve.allocs", "alloc.resolve.bytes"),
            Layer::Update => ("alloc.update.allocs", "alloc.update.bytes"),
            Layer::Durable => ("alloc.durable.allocs", "alloc.durable.bytes"),
        }
    }
}

/// Raw per-layer sums of a traced run. Off (the untraced binary), every
/// method is a no-op and [`Trace::call`] never reads the counters.
#[derive(Debug, Default)]
pub struct Trace {
    on: bool,
    sums: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A trace that records only when `on`.
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            sums: BTreeMap::new(),
        }
    }

    /// Whether this run records layers.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Add `v` to the sum under `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.on {
            *self.sums.entry(key).or_insert(0.0) += v;
        }
    }

    /// Keep the largest value seen under `key`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        if self.on {
            let e = self.sums.entry(key).or_insert(v);
            *e = e.max(v);
        }
    }

    fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Run `f`, one call into `layer`: its wall time counts towards
    /// `coverage` and its allocations are charged to the layer.
    pub fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let before = AllocSnapshot::now();
        let t = Instant::now();
        let out = f();
        self.add("layers.wall_ms", ms(t.elapsed()));
        let d = before.delta();
        let (allocs, bytes) = layer.keys();
        self.add(allocs, d.allocs as f64);
        self.add(bytes, d.bytes_alloc as f64);
        out
    }

    /// Record one resolve call: its wall time and the stage report the
    /// engine returned for it.
    pub fn resolved(&mut self, wall: Duration, exec: &ExecReport) {
        self.add("n.resolve", 1.0);
        self.add("resolve.wall_ms", ms(wall));
        self.add("resolve.profiles_ms", ms(exec.profiles.wall));
        self.add("resolve.profile_misses", exec.profiles.tasks as f64);
        self.add("resolve.similarity_ms", ms(exec.similarity.wall));
        self.add("resolve.clustering_ms", ms(exec.clustering.wall));
        self.add("resolve.pairs_total", exec.pairs_total as f64);
        self.add("resolve.pairs_pruned", exec.pairs_pruned as f64);
        self.add("resolve.pairs_exact", exec.pairs_exact as f64);
        self.add("resolve.pairs_cached", exec.pairs_cached as f64);
        self.add("resolve.pairs_dirty", exec.pairs_dirty as f64);
        self.add("resolve.arena_rows", exec.arena_rows_interned as f64);
        self.add("resolve.logical", exec.total_logical() as f64);
        self.add(
            "exec.tasks",
            (exec.profiles.tasks + exec.similarity.tasks + exec.clustering.tasks) as f64,
        );
        self.max("exec.threads", exec.max_threads() as f64);
    }

    /// Time spent inside calls into the engine's layers, summed over the
    /// run: the numerator of `coverage`.
    pub fn layer_time_ms(&self) -> f64 {
        self.get("layers.wall_ms")
    }

    /// The per-layer metrics, normalised per call, in [`PER_LAYER`] order
    /// (`coverage`, `trace_overhead` and `failed_frac` are filled in by
    /// the caller).
    pub fn layer_metrics(&self) -> BTreeMap<&'static str, f64> {
        let per = |key: &str, n: &str| self.get(key) / self.get(n).max(1.0);
        let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let resolve_stages = self.get("resolve.profiles_ms")
            + self.get("resolve.similarity_ms")
            + self.get("resolve.clustering_ms");
        let train_parts = self.get("train.pairs_ms")
            + self.get("train.profiles_ms")
            + self.get("train.featurize_ms");
        let mut m = BTreeMap::new();
        for key in [
            "prepare.expand_ms",
            "prepare.paths_ms",
            "prepare.graph_ms",
            "prepare.pseudo_tuples",
            "graph.edges",
            "graph.adjacency_mb",
        ] {
            m.insert(key, per(key, "n.prepare_steps"));
        }
        for key in [
            "train.pairs_ms",
            "train.profiles_ms",
            "train.featurize_ms",
            "train.pairs",
        ] {
            m.insert(key, per(key, "n.train"));
        }
        m.insert(
            "train.fit_ms",
            (self.get("train.wall_ms") - train_parts).max(0.0) / self.get("n.train").max(1.0),
        );
        m.insert("resolve.calls", self.get("n.resolve"));
        m.insert("resolve.all_ms", per("resolve.all_ms", "n.resolve_all"));
        m.insert("resolve.precompute_ms", self.get("resolve.precompute_ms"));
        for key in [
            "resolve.profiles_ms",
            "resolve.profile_misses",
            "resolve.similarity_ms",
            "resolve.pairs_total",
            "resolve.pairs_exact",
            "resolve.arena_rows",
            "resolve.logical",
            "resolve.clustering_ms",
            "exec.tasks",
        ] {
            m.insert(key, per(key, "n.resolve"));
        }
        m.insert(
            "resolve.pruned_frac",
            frac(
                self.get("resolve.pairs_pruned"),
                self.get("resolve.pairs_total"),
            ),
        );
        m.insert(
            "resolve.other_ms",
            (self.get("resolve.wall_ms") - resolve_stages).max(0.0)
                / self.get("n.resolve").max(1.0),
        );
        m.insert("exec.threads", self.get("exec.threads"));
        for key in [
            "update.apply_ms",
            "update.resolve_ms",
            "update.names_affected",
            "update.refs_dirtied",
        ] {
            m.insert(key, per(key, "n.update"));
        }
        m.insert(
            "update.dirty_frac",
            frac(
                self.get("update.pairs_dirty"),
                self.get("update.pairs_total"),
            ),
        );
        m.insert(
            "update.cached_frac",
            frac(
                self.get("update.pairs_cached"),
                self.get("update.pairs_total"),
            ),
        );
        m.insert("durable.clean_p50_ms", self.get("durable.clean_p50_ms"));
        for key in [
            "durable.writes",
            "durable.bytes_written",
            "durable.write_ms",
        ] {
            m.insert(key, per(key, "n.clean"));
        }
        m.insert(
            "durable.resume_mean_ms",
            per("durable.resume_ms", "n.resume"),
        );
        m.insert("durable.resume_max_ms", self.get("durable.resume_max_ms"));
        for key in [
            "durable.bytes_read",
            "durable.read_ms",
            "durable.restore_ms",
            "durable.profiles_restored",
        ] {
            m.insert(key, per(key, "n.resume"));
        }
        for (key, n) in [
            ("alloc.prepare.allocs", "n.prepare"),
            ("alloc.prepare.bytes", "n.prepare"),
            ("alloc.train.allocs", "n.train"),
            ("alloc.train.bytes", "n.train"),
            ("alloc.resolve.allocs", "n.resolve"),
            ("alloc.resolve.bytes", "n.resolve"),
            ("alloc.update.allocs", "n.update"),
            ("alloc.update.bytes", "n.update"),
            ("alloc.durable.allocs", "n.durable_calls"),
            ("alloc.durable.bytes", "n.durable_calls"),
        ] {
            m.insert(key, per(key, n));
        }
        m
    }
}

/// One metric as printed: a value with its unit.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    /// The measured value, unrounded.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Name → metric, in name order.
pub type MetricMap = BTreeMap<String, Metric>;

/// Attach units to a set of values, in the order of a catalogue.
pub fn with_units(table: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> MetricMap {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            (
                name.to_string(),
                Metric {
                    value,
                    unit: unit.to_string(),
                },
            )
        })
        .collect()
}

/// What one workload process prints as its last line.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, degraded, were skipped or mismatched.
    pub failed: u64,
    /// The end-to-end metrics.
    pub metrics: MetricMap,
    /// The per-layer metrics (only the workload-level ones are filled in
    /// by the untraced binary).
    pub layers: MetricMap,
    /// Worker threads every engine call was given.
    pub threads: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn catalogues_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn an_off_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.add("resolve.profiles_ms", 3.0);
        assert_eq!(t.call(Layer::Resolve, || 7), 7);
        assert!(t.sums.is_empty());
    }
}
