//! The per-file project lints (D003, D004, D006, D105). Each pass
//! walks one [`FileCtx`] token stream.
//!
//! These are deliberately *project-specific* heuristics, not a type
//! system: they know the workspace's conventions (guard closures, the
//! exec pool, FxHashMap) and they over-approximate — a site that is
//! provably safe gets an inline `distinct-lint: allow(...)` with the
//! proof as its reason, which doubles as documentation of the invariant.

use crate::catalog::{Finding, LintId};
use crate::lexer::TokKind;
use crate::model::FileCtx;

/// Crates whose numeric code must stay in f64 (D006).
pub const NUMERIC_CRATES: [&str; 5] = ["core", "cluster", "svm", "relgraph", "eval"];

/// RunControl's own implementation — the one legitimate home of
/// `Instant::now` control flow (D004).
pub const CLOCK_HOME: &str = "crates/core/src/control.rs";

/// The only library files allowed to open the filesystem write path
/// directly (D105): the Vfs seam itself and the atomic temp+rename
/// primitive built on it. Everything durable goes through these.
pub const PERSIST_HOMES: [&str; 2] = [
    "crates/relstore/src/faults.rs",
    "crates/relstore/src/persist.rs",
];

/// Run every per-file pass over one file. The call-graph and dataflow
/// passes run at workspace scope in [`crate::callgraph::run_semantic`].
pub fn run_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    d003_raw_threads(ctx, &mut out);
    d004_wall_clock(ctx, &mut out);
    d006_lossy_floats(ctx, &mut out);
    d105_raw_persistence(ctx, &mut out);
    out.sort_by_key(|f| (f.line, f.id));
    out
}

fn finding(ctx: &FileCtx, id: LintId, line: u32, message: impl Into<String>) -> Finding {
    Finding {
        id,
        file: ctx.path.clone(),
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------- D101 --

/// Scan the token range `[from, to)` for panic sites: `.unwrap()`-family
/// method calls, `panic!`-family macros, and indexing by integer literal.
/// Test-masked tokens are skipped. The D101 pass scans function bodies
/// with it and reports the sites the call graph can reach.
pub fn panic_sites(ctx: &FileCtx, from: usize, to: usize) -> Vec<(u32, String)> {
    let toks = &ctx.toks;
    let n = toks.len().min(to);
    let mut out = Vec::new();
    for i in from..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        let next = ctx.next_code(i);
        let prev_dot = ctx
            .prev_code(i)
            .map(|p| toks[p].is_punct('.'))
            .unwrap_or(false);
        match t.text.as_str() {
            "unwrap" | "expect" | "unwrap_err" | "expect_err"
                if prev_dot && next < n && toks[next].is_punct('(') =>
            {
                out.push((t.line, format!("`.{}()` can panic", t.text)));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next < n && toks[next].is_punct('!') && !prev_dot =>
            {
                out.push((t.line, format!("`{}!` in library code", t.text)));
            }
            _ => {}
        }
        // Indexing by integer literal: `expr[0]` where expr ends in an
        // identifier, `)`, or `]`.
        if (t.kind == TokKind::Ident || t.is_punct(')') || t.is_punct(']'))
            && next < n
            && toks[next].is_punct('[')
        {
            let lit = ctx.next_code(next);
            let close = ctx.next_code(lit);
            if lit < n && toks[lit].kind == TokKind::Int && close < n && toks[close].is_punct(']') {
                out.push((
                    t.line,
                    format!("indexing by literal `[{}]` can panic", toks[lit].text),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- D003 --

/// Raw threads/channels outside crates/exec.
fn d003_raw_threads(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() || ctx.crate_name == "exec" {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();
    for i in 0..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let head = toks[i].text.as_str();
        let viol = match head {
            "thread" => Some(&["spawn", "scope", "Builder"][..]),
            "mpsc" => Some(&["channel", "sync_channel"][..]),
            "crossbeam" | "rayon" => Some(&[][..]),
            _ => None,
        };
        let Some(tails) = viol else { continue };
        if tails.is_empty() {
            out.push(finding(
                ctx,
                LintId::D003,
                toks[i].line,
                format!("`{head}` use outside crates/exec"),
            ));
            continue;
        }
        // `head :: tail`
        let c1 = ctx.next_code(i);
        let c2 = if c1 < n { ctx.next_code(c1) } else { n };
        let tail = if c2 < n { ctx.next_code(c2) } else { n };
        if c1 < n
            && toks[c1].is_punct(':')
            && c2 < n
            && toks[c2].is_punct(':')
            && tail < n
            && tails.contains(&toks[tail].text.as_str())
        {
            out.push(finding(
                ctx,
                LintId::D003,
                toks[i].line,
                format!("`{head}::{}` outside crates/exec", toks[tail].text),
            ));
        }
    }
}

// ---------------------------------------------------------------- D004 --

/// Wall-clock reads outside RunControl internals.
fn d004_wall_clock(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() || ctx.path == CLOCK_HOME {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();
    for i in 0..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let head = toks[i].text.as_str();
        if head != "Instant" && head != "SystemTime" {
            continue;
        }
        let c1 = ctx.next_code(i);
        let c2 = if c1 < n { ctx.next_code(c1) } else { n };
        let tail = if c2 < n { ctx.next_code(c2) } else { n };
        if c1 < n
            && toks[c1].is_punct(':')
            && c2 < n
            && toks[c2].is_punct(':')
            && tail < n
            && toks[tail].is_ident("now")
        {
            out.push(finding(
                ctx,
                LintId::D004,
                toks[i].line,
                format!("`{head}::now()` outside RunControl"),
            ));
        }
    }
}

// ---------------------------------------------------------------- D105 --

/// Raw persistence writes outside the atomic temp+rename path.
fn d105_raw_persistence(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() || PERSIST_HOMES.contains(&ctx.path.as_str()) {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();
    for i in 0..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let head = toks[i].text.as_str();
        let tails: &[&str] = match head {
            "fs" => &["write", "rename", "copy"],
            "File" => &["create", "create_new", "options"],
            "OpenOptions" => &["new"],
            _ => continue,
        };
        // `head :: tail`
        let c1 = ctx.next_code(i);
        let c2 = if c1 < n { ctx.next_code(c1) } else { n };
        let tail = if c2 < n { ctx.next_code(c2) } else { n };
        if c1 < n
            && toks[c1].is_punct(':')
            && c2 < n
            && toks[c2].is_punct(':')
            && tail < n
            && tails.contains(&toks[tail].text.as_str())
        {
            out.push(finding(
                ctx,
                LintId::D105,
                toks[i].line,
                format!(
                    "`{head}::{}` bypasses relstore::write_atomic",
                    toks[tail].text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- D006 --

/// Lossy float casts / f32 reductions in numeric crates.
fn d006_lossy_floats(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() || !NUMERIC_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();
    for i in 0..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        // `as f32`
        if t.text == "as" {
            let j = ctx.next_code(i);
            if j < n && toks[j].is_ident("f32") {
                out.push(finding(
                    ctx,
                    LintId::D006,
                    t.line,
                    "`as f32` narrows the f64 pipeline",
                ));
            }
        }
        // `sum::<f32>()` / `product::<f32>()`
        if matches!(t.text.as_str(), "sum" | "product") {
            let mut j = ctx.next_code(i);
            let mut colons = 0;
            while j < n && toks[j].is_punct(':') && colons < 2 {
                colons += 1;
                j = ctx.next_code(j);
            }
            if colons == 2 && j < n && toks[j].is_punct('<') {
                let k = ctx.next_code(j);
                if k < n && toks[k].is_ident("f32") {
                    out.push(finding(
                        ctx,
                        LintId::D006,
                        t.line,
                        format!("`{}::<f32>()` reduces in f32", t.text),
                    ));
                }
            }
        }
        // f32-suffixed literal seeds (`0f32`, `0.0f32`).
        if matches!(toks[i].kind, TokKind::Ident) {
            continue;
        }
    }
    for i in 0..n {
        if ctx.in_test(i) {
            continue;
        }
        let t = &toks[i];
        if matches!(t.kind, TokKind::Int | TokKind::Float) && t.text.ends_with("f32") {
            out.push(finding(
                ctx,
                LintId::D006,
                t.line,
                format!("f32 literal `{}` in numeric code", t.text),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Role;

    fn lib(src: &str) -> Vec<Finding> {
        run_file(&FileCtx::new(
            "crates/core/src/x.rs",
            "core",
            Role::Library,
            src,
        ))
    }

    fn ids(f: &[Finding]) -> Vec<(LintId, u32)> {
        f.iter().map(|f| (f.id, f.line)).collect()
    }

    #[test]
    fn d003_thread_spawn() {
        let f = lib("/// d\npub fn f() { std::thread::spawn(|| {}); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D003), "{f:?}");
        // Same code in crates/exec is fine.
        let ok = run_file(&FileCtx::new(
            "crates/exec/src/lib.rs",
            "exec",
            Role::Library,
            "/// d\npub fn f() { std::thread::spawn(|| {}); }",
        ));
        assert!(ok.iter().all(|f| f.id != LintId::D003));
    }

    #[test]
    fn d004_instant_now() {
        let f = lib("/// d\npub fn f() { let t = Instant::now(); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D004), "{f:?}");
    }

    #[test]
    fn d105_raw_write_and_open_options() {
        let f = lib("/// d\npub fn save(p: &Path, b: &[u8]) { std::fs::write(p, b).ok(); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D105), "{f:?}");
        let f = lib("/// d\npub fn save(p: &Path) { let _ = OpenOptions::new().write(true); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D105), "{f:?}");
        let f = lib("/// d\npub fn save(p: &Path) { let _ = std::fs::File::create(p); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D105), "{f:?}");
    }

    #[test]
    fn d105_persist_homes_and_tests_are_exempt() {
        let src = "pub fn raw(p: &Path, b: &[u8]) { std::fs::write(p, b).ok(); }";
        for home in PERSIST_HOMES {
            let f = run_file(&FileCtx::new(home, "relstore", Role::Library, src));
            assert!(f.iter().all(|f| f.id != LintId::D105), "{home}: {f:?}");
        }
        let f = lib("#[cfg(test)]\nmod tests {\n fn t() { std::fs::write(p, b).unwrap(); }\n}");
        assert!(f.iter().all(|f| f.id != LintId::D105), "{f:?}");
        // Reads are not persistence.
        let f = lib(
            "/// d\npub fn load(p: &Path) -> String { fs::read_to_string(p).unwrap_or_default() }",
        );
        assert!(f.iter().all(|f| f.id != LintId::D105), "{f:?}");
    }

    #[test]
    fn d006_as_f32() {
        let f = lib("/// d\npub fn f(x: f64) -> f64 { (x as f32) as f64 }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D006), "{f:?}");
    }
}
