//! Fixture-based self-tests for every lint.
//!
//! Each subdirectory of `tests/fixtures/semantic/` is one virtual
//! workspace (a one-file group for a per-file lint, several files for a
//! call-graph one). Every `*.rs` file in a group declares its location
//! with `//@ path:` / `//@ crate:` headers, its crate's *normal*
//! dependencies with `//@ deps:` (comma-separated crate directory
//! names), and optionally a `//@ package:` display name. Expected
//! findings are `//~ Dxxx` markers on the offending lines. The harness
//! builds the symbol table and call graph the same way `check` does
//! (explicit topology in place of `Cargo.toml` parsing), runs the
//! per-file passes plus the interprocedural ones, applies suppressions
//! (unused ones become D000s), and asserts the (lint, line) multiset per
//! file matches the markers — no more, no less. The fixtures directory
//! itself is excluded from real workspace scans by `model::classify`.

use lint::callgraph::{self, CallGraph};
use lint::catalog::{Finding, LintId};
use lint::model::{FileCtx, Role};
use lint::symbols::Workspace;
use lint::{passes, suppress};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

struct SemFile {
    /// Fixture file name within its group, for messages.
    name: String,
    /// Declared virtual workspace path.
    path: String,
    crate_name: String,
    /// Declared direct normal dependencies of `crate_name`.
    deps: Vec<String>,
    /// Declared `[package] name` of `crate_name`, if any.
    package: Option<String>,
    src: String,
    /// Expected (lint, 1-based line) pairs, from the `//~` markers.
    expected: Vec<(LintId, u32)>,
}

struct Group {
    name: String,
    files: Vec<SemFile>,
}

fn semantic_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semantic")
}

fn parse_sem_file(name: &str, src: &str) -> SemFile {
    let mut path = None;
    let mut crate_name = None;
    let mut deps = Vec::new();
    let mut package = None;
    let mut expected = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        if let Some(rest) = line.trim().strip_prefix("//@") {
            let (key, value) = rest
                .split_once(':')
                .unwrap_or_else(|| panic!("{name}:{lineno}: malformed `//@` header"));
            let value = value.trim().to_string();
            match key.trim() {
                "path" => path = Some(value),
                "crate" => crate_name = Some(value),
                "deps" => {
                    deps.extend(
                        value
                            .split(',')
                            .map(|d| d.trim().to_string())
                            .filter(|d| !d.is_empty()),
                    );
                }
                "package" => package = Some(value),
                other => panic!("{name}:{lineno}: unknown header `{other}`"),
            }
        }
        if let Some(pos) = line.find("//~") {
            for word in line[pos + 3..].split_whitespace() {
                let id = LintId::parse(word)
                    .unwrap_or_else(|| panic!("{name}:{lineno}: bad marker id `{word}`"));
                expected.push((id, lineno));
            }
        }
    }
    SemFile {
        name: name.to_string(),
        path: path.unwrap_or_else(|| panic!("{name}: missing `//@ path:` header")),
        crate_name: crate_name.unwrap_or_else(|| panic!("{name}: missing `//@ crate:` header")),
        deps,
        package,
        src: src.to_string(),
        expected,
    }
}

fn load_groups() -> Vec<Group> {
    let dir = semantic_dir();
    let mut groups = Vec::new();
    let mut group_names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    group_names.sort();
    for g in group_names {
        let gdir = dir.join(&g);
        let mut file_names: Vec<String> = std::fs::read_dir(&gdir)
            .unwrap_or_else(|e| panic!("read {}: {e}", gdir.display()))
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|n| n.ends_with(".rs"))
            .collect();
        file_names.sort();
        let files = file_names
            .iter()
            .map(|n| {
                let src = std::fs::read_to_string(gdir.join(n)).expect("read fixture");
                parse_sem_file(&format!("{g}/{n}"), &src)
            })
            .collect();
        groups.push(Group { name: g, files });
    }
    groups
}

/// Transitive normal-dependency closures (including self) from the
/// groups' declared direct deps — the explicit-topology stand-in for
/// `CrateGraph::normal_closure`.
fn closures_of(files: &[SemFile]) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        let entry = direct.entry(f.crate_name.clone()).or_default();
        entry.extend(f.deps.iter().cloned());
    }
    let crates: Vec<String> = direct.keys().cloned().collect();
    let mut closures = BTreeMap::new();
    for c in &crates {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![c.clone()];
        while let Some(d) = stack.pop() {
            if seen.insert(d.clone()) {
                if let Some(next) = direct.get(&d) {
                    stack.extend(next.iter().cloned());
                }
            }
        }
        closures.insert(c.clone(), seen);
    }
    closures
}

/// Run one group through the same pipeline `lint::analyze` uses,
/// returning findings keyed by the fixture file's name.
fn findings_for(group: &Group) -> BTreeMap<String, Vec<(LintId, u32)>> {
    let ctxs: Vec<FileCtx> = group
        .files
        .iter()
        .map(|f| FileCtx::new(&f.path, &f.crate_name, Role::Library, &f.src))
        .collect();
    let refs: Vec<&FileCtx> = ctxs.iter().collect();
    let packages: BTreeMap<String, String> = group
        .files
        .iter()
        .filter_map(|f| f.package.clone().map(|p| (f.crate_name.clone(), p)))
        .collect();
    let ws = Workspace::build(&refs, packages, closures_of(&group.files));
    let graph = CallGraph::build(ws);
    let mut semantic: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in callgraph::run_semantic(&graph, &ctxs) {
        semantic.entry(f.file.clone()).or_default().push(f);
    }
    let mut out = BTreeMap::new();
    for (file, ctx) in group.files.iter().zip(&ctxs) {
        let (mut sups, malformed) = suppress::collect(ctx);
        let mut findings: Vec<Finding> = malformed;
        let mut raw = passes::run_file(ctx);
        raw.extend(semantic.remove(&ctx.path).unwrap_or_default());
        findings.extend(suppress::apply(raw, &mut sups));
        for s in &sups {
            if !s.used {
                findings.push(Finding {
                    id: LintId::D000,
                    file: ctx.path.clone(),
                    line: s.comment_line,
                    message: "unused suppression".into(),
                });
            }
        }
        let mut pairs: Vec<(LintId, u32)> = findings.iter().map(|f| (f.id, f.line)).collect();
        pairs.sort_by_key(|&(id, line)| (line, id));
        out.insert(file.name.clone(), pairs);
    }
    out
}

#[test]
fn every_fixture_matches_its_markers() {
    let groups = load_groups();
    assert!(
        groups.len() >= 16,
        "expected the full fixture set, found {}",
        groups.len()
    );
    for g in &groups {
        let got = findings_for(g);
        for f in &g.files {
            let mut expected = f.expected.clone();
            expected.sort_by_key(|&(id, line)| (line, id));
            assert_eq!(
                got[&f.name], expected,
                "{}: findings disagree with //~ markers\n  got:      {:?}\n  expected: {:?}",
                f.name, got[&f.name], expected
            );
        }
    }
}

#[test]
fn fixtures_cover_every_lint() {
    let groups = load_groups();
    let seen: BTreeSet<LintId> = groups
        .iter()
        .flat_map(|g| g.files.iter())
        .flat_map(|f| f.expected.iter().map(|&(id, _)| id))
        .collect();
    for id in LintId::ALL {
        assert!(
            seen.contains(&id),
            "no fixture exercises {id:?}; add a `//~ {}` case",
            id.name()
        );
    }
}

#[test]
fn cross_file_panic_chain_names_the_entry_point() {
    let groups = load_groups();
    let g = groups
        .iter()
        .find(|g| g.name == "panic_reach")
        .expect("panic_reach group exists");
    let ctxs: Vec<FileCtx> = g
        .files
        .iter()
        .map(|f| FileCtx::new(&f.path, &f.crate_name, Role::Library, &f.src))
        .collect();
    let refs: Vec<&FileCtx> = ctxs.iter().collect();
    let packages: BTreeMap<String, String> = g
        .files
        .iter()
        .filter_map(|f| f.package.clone().map(|p| (f.crate_name.clone(), p)))
        .collect();
    let ws = Workspace::build(&refs, packages, closures_of(&g.files));
    let graph = CallGraph::build(ws);
    let d101: Vec<Finding> = graph.d101_panic_reach();
    // `run`'s unwrap and `proven`'s suppressed one are both reachable.
    assert_eq!(d101.len(), 2, "{d101:?}");
    let on_run = d101
        .iter()
        .find(|f| f.message.contains("can panic") && f.line == 10)
        .expect("finding on run's unwrap");
    // The chain is rendered with package-qualified hops from the entry.
    assert!(
        on_run.message.contains("distinct::Distinct::resolve"),
        "{}",
        on_run.message
    );
    assert!(on_run.message.contains(" → "), "{}", on_run.message);
    assert!(
        on_run.message.contains("cluster::run"),
        "{}",
        on_run.message
    );
}

#[test]
fn fixture_paths_are_invisible_to_real_scans() {
    assert_eq!(
        lint::model::classify("crates/lint/tests/fixtures/semantic/panic_reach/core.rs"),
        None
    );
}
