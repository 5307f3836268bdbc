//@ crate: relgraph
//@ path: crates/relgraph/src/bad_d006.rs

/// Narrows the pipeline to f32 "to save memory" — resemblances and walk
/// probabilities lose the bits the golden corpus pins.
pub fn narrow(x: f64) -> f64 {
    let small = x as f32; //~ D006
    f64::from(small)
}

/// Reduces in f32 precision.
pub fn reduce(xs: &[f32]) -> f32 {
    xs.iter().copied().sum::<f32>() //~ D006
}

/// Seeds an accumulator with an f32 literal.
pub fn seed() -> f32 {
    0.5f32 //~ D006
}
