//! The traced benchmark binary: the same workloads with per-layer timers
//! on and every allocation counted, so each layer's `allocs` and `bytes`
//! can be read around its calls.

#[global_allocator]
static COUNTING: distinct_bench::CountingAlloc = distinct_bench::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
