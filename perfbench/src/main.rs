//! The untraced benchmark binary: end-to-end numbers only, on the system
//! allocator. See the crate docs and `README.md`.

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
