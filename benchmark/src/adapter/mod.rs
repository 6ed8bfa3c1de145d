//! The one place the benchmark touches the program it measures.
//!
//! Every `use` of a workspace crate (`vnfrel`, `mec-*`) lives under this
//! module; the rest of the benchmark sees only what is re-exported here.
//! Later refactors of the workspace may not edit `benchmark/`, so this is
//! the public surface they have to keep compiling — README.md lists it,
//! and `tests/build_contract.rs` fails if another module names a
//! workspace crate.

// Runs `$body` with `$s` bound to a fresh, concretely typed scheduler,
// so calls monomorphise exactly as in the figure binaries. Defined ahead
// of the module declarations so every submodule sees it.
macro_rules! with_scheduler {
    ($alg:expr, $instance:expr, |$s:ident| $body:expr) => {
        match $alg {
            $crate::adapter::sched::Alg::Alg1 => {
                let mut $s = vnfrel::onsite::OnsitePrimalDual::new(
                    $instance,
                    vnfrel::onsite::CapacityPolicy::Enforce,
                )
                .expect("the enforce policy is always valid");
                $body
            }
            $crate::adapter::sched::Alg::GreedyOnsite => {
                let mut $s = vnfrel::onsite::OnsiteGreedy::new($instance);
                $body
            }
            $crate::adapter::sched::Alg::Alg2 => {
                let mut $s = vnfrel::offsite::OffsitePrimalDual::new($instance);
                $body
            }
            $crate::adapter::sched::Alg::GreedyOffsite => {
                let mut $s = vnfrel::offsite::OffsiteGreedy::new($instance);
                $body
            }
        }
    };
}

pub mod probes;
pub mod scenario;
pub mod sched;
pub mod serve;

pub use mec_workload::{ChainRequest, Request};
pub use vnfrel::ProblemInstance;
