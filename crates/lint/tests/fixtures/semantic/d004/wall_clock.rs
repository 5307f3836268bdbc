//@ crate: eval
//@ path: crates/eval/src/bad_d004.rs

/// Times a stage with a raw clock read instead of RunControl's budget.
pub fn measure() -> u128 {
    let start = std::time::Instant::now(); //~ D004
    busy();
    start.elapsed().as_millis()
}

/// Stamps output with wall-clock time, breaking replay determinism.
pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now() //~ D004
}

fn busy() {}
