//@ crate: core
//@ path: crates/core/src/bad_d105.rs

use std::fs::{File, OpenOptions};
use std::path::Path;

/// Writes a checkpoint with bare `fs::write`: a crash mid-write leaves a
/// torn file at the final path, and the fault-injection Vfs never sees it.
pub fn save_raw(dir: &Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(dir.join("state.ck"), bytes) //~ D105
}

/// Creates the destination in place instead of committing via rename.
pub fn save_handle(dir: &Path) -> std::io::Result<File> {
    File::create(dir.join("state.ck")) //~ D105
}

/// Appending through OpenOptions has the same torn-write exposure.
pub fn append_log(dir: &Path) -> std::io::Result<File> {
    OpenOptions::new() //~ D105
        .append(true)
        .open(dir.join("run.log"))
}

/// Renaming over the target without the `.tmp` protocol: the source may
/// itself be torn, so the rename publishes the tear.
pub fn swap(dir: &Path) -> std::io::Result<()> {
    std::fs::rename(dir.join("a"), dir.join("b")) //~ D105
}

/// Reads are not persistence — no finding.
pub fn load(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_writes_are_exempt() {
        std::fs::write("/tmp/x", b"fixture").unwrap();
    }
}
