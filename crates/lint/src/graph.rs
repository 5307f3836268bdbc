//! Crate/module graph of the workspace, built by parsing each member's
//! `Cargo.toml` with the same minimal hand-rolled TOML reading used for
//! the baseline. Drives the `graph` subcommand, the layering assertions
//! in the self-check suite, and the call-graph resolver's
//! dependency-closure constraint.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A workspace-loading failure. These are fatal: a half-loaded graph
/// would silently weaken every check built on it (a crate missing from
/// the graph is a crate whose panics the semantic passes cannot see).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A filesystem read failed.
    Io {
        /// What was being read.
        context: String,
        /// The underlying error text.
        reason: String,
    },
    /// A directory under `crates/` has no `Cargo.toml`.
    MissingManifest {
        /// The offending directory name.
        dir: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io { context, reason } => write!(f, "{context}: {reason}"),
            GraphError::MissingManifest { dir } => write!(
                f,
                "crates/{dir}/ has no Cargo.toml — every directory under crates/ \
                 must be a workspace member (remove strays or add a manifest)"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// One workspace member crate.
#[derive(Debug, Clone)]
pub struct CrateNode {
    /// Directory name under `crates/` (the lint's crate key, e.g. `core`).
    pub dir: String,
    /// `[package] name` from the manifest (e.g. `distinct`).
    pub package: String,
    /// Workspace-internal dependencies (normal + dev), as directory
    /// names, sorted.
    pub deps: Vec<String>,
    /// Workspace-internal `[dependencies]` only (no dev-dependencies),
    /// sorted. The call-graph resolver uses these: a dev-only dependency
    /// cannot be reached from shipping library code.
    pub normal_deps: Vec<String>,
    /// `.rs` modules under `src/`, workspace-relative, sorted.
    pub modules: Vec<String>,
}

/// The whole workspace graph, keyed by directory name.
#[derive(Debug, Clone, Default)]
pub struct CrateGraph {
    /// Members, sorted by directory name.
    pub nodes: BTreeMap<String, CrateNode>,
}

impl CrateGraph {
    /// Build the graph by scanning `crates/*/Cargo.toml` under `root`.
    /// Any directory under `crates/` without a manifest is a fatal
    /// [`GraphError::MissingManifest`].
    pub fn load(root: &Path) -> Result<CrateGraph, GraphError> {
        // Dependency keys in member manifests are workspace aliases
        // (`cluster.workspace = true`), which match the directory names,
        // so the alias set is just the directory listing.
        let crates_dir = root.join("crates");
        let mut dirs: Vec<String> = Vec::new();
        let entries = fs::read_dir(&crates_dir).map_err(|e| GraphError::Io {
            context: "read_dir crates/".into(),
            reason: e.to_string(),
        })?;
        for entry in entries {
            let entry = entry.map_err(|e| GraphError::Io {
                context: "read_dir crates/ entry".into(),
                reason: e.to_string(),
            })?;
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') {
                continue;
            }
            if !entry.path().join("Cargo.toml").exists() {
                return Err(GraphError::MissingManifest { dir: name });
            }
            dirs.push(name);
        }
        dirs.sort();

        let mut graph = CrateGraph::default();
        for dir in &dirs {
            let manifest_path = crates_dir.join(dir).join("Cargo.toml");
            let text = fs::read_to_string(&manifest_path).map_err(|e| GraphError::Io {
                context: format!("read {}", manifest_path.display()),
                reason: e.to_string(),
            })?;
            let mut package = String::new();
            let mut deps = Vec::new();
            let mut normal_deps = Vec::new();
            let mut section = String::new();
            for raw in text.lines() {
                let line = raw.trim();
                if line.starts_with('[') && line.ends_with(']') {
                    section = line.trim_matches(['[', ']']).to_string();
                    continue;
                }
                let Some((key, val)) = line.split_once('=') else {
                    continue;
                };
                let (key, val) = (key.trim(), val.trim());
                if section == "package" && key == "name" {
                    package = val.trim_matches('"').to_string();
                }
                if section == "dependencies" || section == "dev-dependencies" {
                    // `cluster.workspace = true` or `cluster = { workspace = true }`
                    let dep = key.split('.').next().unwrap_or(key).to_string();
                    if dirs.contains(&dep) {
                        if !deps.contains(&dep) {
                            deps.push(dep.clone());
                        }
                        if section == "dependencies" && !normal_deps.contains(&dep) {
                            normal_deps.push(dep);
                        }
                    }
                }
            }
            deps.sort();
            normal_deps.sort();
            let mut modules = Vec::new();
            collect_modules(root, &crates_dir.join(dir).join("src"), &mut modules);
            modules.sort();
            graph.nodes.insert(
                dir.clone(),
                CrateNode {
                    dir: dir.clone(),
                    package,
                    deps,
                    normal_deps,
                    modules,
                },
            );
        }
        Ok(graph)
    }

    /// The transitive closure of `dir`'s *normal* dependencies, including
    /// `dir` itself. Library code in `dir` can only name items from these
    /// crates, which bounds what a call site may resolve to.
    pub fn normal_closure(&self, dir: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut stack = vec![dir.to_string()];
        while let Some(d) = stack.pop() {
            if !out.insert(d.clone()) {
                continue;
            }
            if let Some(node) = self.nodes.get(&d) {
                for dep in &node.normal_deps {
                    stack.push(dep.clone());
                }
            }
        }
        out
    }

    /// Return the members in dependency order, or the cycle that prevents
    /// one. Cargo would reject a cycle anyway; the self-check uses this to
    /// assert the layering stays intentional.
    pub fn topo_order(&self) -> Result<Vec<String>, String> {
        let mut order = Vec::new();
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state: BTreeMap<&str, u8> = BTreeMap::new();
        fn visit<'a>(
            g: &'a CrateGraph,
            name: &'a str,
            state: &mut BTreeMap<&'a str, u8>,
            order: &mut Vec<String>,
        ) -> Result<(), String> {
            match state.get(name).copied().unwrap_or(0) {
                1 => return Err(format!("dependency cycle through `{name}`")),
                2 => return Ok(()),
                _ => {}
            }
            state.insert(name, 1);
            if let Some(node) = g.nodes.get(name) {
                for dep in &node.deps {
                    visit(g, dep, state, order)?;
                }
            }
            state.insert(name, 2);
            order.push(name.to_string());
            Ok(())
        }
        for name in self.nodes.keys() {
            visit(self, name, &mut state, &mut order)?;
        }
        Ok(order)
    }

    /// Human-readable report for the `graph` subcommand.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let order = self.topo_order().unwrap_or_else(|e| vec![format!("<{e}>")]);
        let _ = writeln!(s, "workspace crates in dependency order:");
        for name in &order {
            let Some(n) = self.nodes.get(name) else {
                continue;
            };
            let deps = if n.deps.is_empty() {
                "-".to_string()
            } else {
                n.deps.join(", ")
            };
            let _ = writeln!(
                s,
                "  {:<10} ({:<17} {:>2} modules)  deps: {}",
                n.dir,
                format!("{},", n.package),
                n.modules.len(),
                deps
            );
        }
        s
    }
}

fn collect_modules(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_modules(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::find_root;

    #[test]
    fn loads_and_orders_this_workspace() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let g = CrateGraph::load(&root).expect("graph");
        assert!(g.nodes.contains_key("core"));
        assert_eq!(g.nodes["core"].package, "distinct");
        // exec is a foundation crate and core depends on it.
        assert!(g.nodes["exec"].deps.is_empty());
        assert!(g.nodes["core"].deps.contains(&"exec".to_string()));
        // lint depends on nothing in the workspace.
        assert!(g.nodes["lint"].deps.is_empty());
        let order = g.topo_order().expect("acyclic");
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap_or(usize::MAX);
        assert!(pos("exec") < pos("core"));
        assert!(pos("relgraph") < pos("core"));
    }

    #[test]
    fn normal_deps_exclude_dev_only_edges() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let g = CrateGraph::load(&root).expect("graph");
        // datagen is a dev-dependency of core: present in the union,
        // absent from the normal edge set and the normal closure.
        assert!(g.nodes["core"].deps.contains(&"datagen".to_string()));
        assert!(!g.nodes["core"].normal_deps.contains(&"datagen".to_string()));
        let closure = g.normal_closure("core");
        assert!(closure.contains("relgraph"));
        assert!(closure.contains("cluster"));
        assert!(closure.contains("relstore"));
        assert!(!closure.contains("datagen"));
        assert!(!closure.contains("oracle"));
    }

    #[test]
    fn missing_manifest_is_fatal() {
        let scratch =
            std::env::temp_dir().join(format!("distinct-lint-graph-{}", std::process::id()));
        let _ = fs::remove_dir_all(&scratch);
        fs::create_dir_all(scratch.join("crates/ghost/src")).expect("mkdir");
        fs::write(scratch.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        fs::write(scratch.join("crates/ghost/src/lib.rs"), "").expect("lib");
        let err = CrateGraph::load(&scratch).expect_err("must fail");
        assert_eq!(
            err,
            GraphError::MissingManifest {
                dir: "ghost".into()
            }
        );
        assert!(err.to_string().contains("ghost"));
        let _ = fs::remove_dir_all(&scratch);
    }
}
