//@ crate: cluster
//@ path: crates/cluster/src/bad_d003.rs

use std::sync::mpsc;
use std::thread;

/// Spawns its own workers instead of going through the exec pool, so the
/// thread count — and with it, scheduling — escapes ResolveRequest.
pub fn fan_out(n: usize) {
    let (tx, rx) = mpsc::channel(); //~ D003
    for i in 0..n {
        let tx = tx.clone();
        thread::spawn(move || { //~ D003
            let _ = tx.send(i);
        });
    }
    drop(tx);
    while rx.recv().is_ok() {}
}
