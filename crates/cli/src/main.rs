//! `vnfrel` — command-line front end for the reliability-aware VNF
//! scheduling library. Run `vnfrel help` for usage.
//!
//! Failures exit with a typed code (see [`error::CliError`]): 1
//! internal, 2 usage, 3 configuration, 4 file IO, 5 network, 6
//! snapshot, 7 fenced — so supervisors of `vnfrel serve` can tell a
//! busy port from a corrupt snapshot (or a deposed primary that must
//! not be restarted as-is) without parsing stderr.

mod args;
mod error;
mod failover;
mod runner;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(error::CliError::Usage(e.to_string()).exit_code());
        }
    };
    let mut stdout = std::io::stdout();
    let mut stderr = std::io::stderr();
    let result = match &command {
        args::Command::Help => {
            print!("{}", args::USAGE);
            Ok(())
        }
        args::Command::Simulate(sim_args) => runner::simulate(
            sim_args,
            &mut runner::Output::new(&mut stdout, &mut stderr, sim_args.quiet),
        ),
        args::Command::Chain(chain_args) => runner::chain(
            chain_args,
            &mut runner::Output::new(&mut stdout, &mut stderr, chain_args.sim.quiet),
        ),
        args::Command::Failures(failures_args) => runner::failures(
            failures_args,
            None,
            &mut runner::Output::new(&mut stdout, &mut stderr, failures_args.sim.quiet),
        ),
        args::Command::Degradation(deg_args) => runner::failures(
            &deg_args.failures,
            Some(deg_args),
            &mut runner::Output::new(&mut stdout, &mut stderr, deg_args.failures.sim.quiet),
        ),
        args::Command::Serve(serve_args) => runner::serve(
            serve_args,
            &mut runner::Output::new(&mut stdout, &mut stderr, serve_args.sim.quiet),
        ),
        args::Command::Loadgen(loadgen_args) => runner::loadgen(
            loadgen_args,
            &mut runner::Output::new(&mut stdout, &mut stderr, loadgen_args.sim.quiet),
        ),
        args::Command::Explain {
            request,
            chain,
            trace,
            quiet,
        } => runner::explain(
            *request,
            *chain,
            trace,
            &mut runner::Output::new(&mut stdout, &mut stderr, *quiet),
        ),
        args::Command::Promote { addr, quiet } => runner::promote(
            addr,
            &mut runner::Output::new(&mut stdout, &mut stderr, *quiet),
        ),
        args::Command::DumpFlight { addr, quiet } => runner::dump_flight(
            addr,
            &mut runner::Output::new(&mut stdout, &mut stderr, *quiet),
        ),
        args::Command::ServeReport { trace, out, quiet } => runner::serve_report(
            trace,
            out.as_deref(),
            &mut runner::Output::new(&mut stdout, &mut stderr, *quiet),
        ),
        args::Command::FailoverDrill(drill_args) => failover::failover_drill(
            drill_args,
            &mut runner::Output::new(&mut stdout, &mut stderr, drill_args.sim.quiet),
        ),
        args::Command::ChaosDrill(chaos_args) => runner::chaos_drill(
            chaos_args,
            &mut runner::Output::new(&mut stdout, &mut stderr, chaos_args.sim.quiet),
        ),
        args::Command::ChaosProxy(proxy_args) => runner::chaos_proxy(
            proxy_args,
            &mut runner::Output::new(&mut stdout, &mut stderr, proxy_args.quiet),
        ),
        args::Command::Topo {
            topology,
            dot,
            seed,
        } => runner::topo(topology, *dot, *seed, &mut stdout),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
