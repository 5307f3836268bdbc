//@ crate: cluster
//@ path: crates/cluster/src/suppressed.rs

/// A clock read for reporting, allowed with its invariant as the reason:
/// the finding is consumed and nothing surfaces.
pub fn covered() -> std::time::Instant {
    // distinct-lint: allow(D004, reason="wall time is reported, never branched on")
    std::time::Instant::now()
}

/// Trailing-comment form covers its own line.
pub fn covered_inline() -> std::time::Instant {
    std::time::Instant::now() // distinct-lint: allow(D004, reason="wall time is reported, never branched on")
}

/// An allow that matches nothing must surface as D000 so dead
/// suppressions cannot accumulate.
pub fn stale_allow() -> u32 {
    // distinct-lint: allow(D004, reason="left behind after a refactor") //~ D000
    7
}

/// An allow without a reason is malformed: D000 at the comment.
pub fn lazy_allow() -> std::time::Instant {
    // distinct-lint: allow(D004) //~ D000
    std::time::Instant::now() //~ D004
}
