//@ crate: exec
//@ path: crates/exec/src/pool_fixture.rs

use std::sync::mpsc;
use std::thread;

/// The same spawning code inside crates/exec is the sanctioned home of
/// parallelism — D003 must not fire here. (No markers: zero findings.)
pub fn pool(n: usize) {
    let (tx, rx) = mpsc::channel();
    for i in 0..n {
        let tx = tx.clone();
        thread::spawn(move || {
            let _ = tx.send(i);
        });
    }
    drop(tx);
    while rx.recv().is_ok() {}
}
