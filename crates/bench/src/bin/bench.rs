//! The one bench runner: `bench <scenario> [flags]` runs a named
//! scenario of the registry, `bench list` lists them.
//!
//! Run: `cargo run --release -p openmx-bench -- <scenario> [flags]`

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(openmx_bench::cli::main(&argv));
}
