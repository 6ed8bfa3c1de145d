//! The untraced benchmark binary: system allocator untouched.

fn main() -> std::process::ExitCode {
    vnfrel_benchmark::cli::main()
}
