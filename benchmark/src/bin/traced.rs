//! The traced benchmark binary: the same program with a counting global
//! allocator, which `--trace 1` needs for `alloc.*` and the `*.bytes_*`
//! per-layer metrics.

use vnfrel_benchmark::alloc::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    vnfrel_benchmark::cli::main()
}
