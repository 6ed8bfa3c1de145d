//! The in-process bring-up: a daemon on a thread of its own, with its
//! registry and as many metric lanes as it has lanes.
//!
//! [`spawn_lane`] is [`crate::serve`] over a scheduler the caller's
//! closure builds on the daemon thread (schedulers borrow their instance
//! and the tap is `!Send`, so neither can be built first and moved in);
//! [`spawn_sharded`] is [`crate::serve_sharded`]. Both return once the
//! listener is bound — or with the start-up error when it never was.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread::{self, JoinHandle};

use mec_obs::MetricsRegistry;
use vnfrel::{OnlineScheduler, ProblemInstance, SchedulerState, Scheme};

use crate::daemon::{serve, ServeConfig, ServeReport};
use crate::error::ServeError;
use crate::metrics::ServeMetricIds;
use crate::shard::{serve_sharded, ShardedReport};
use crate::tap::DecisionTap;

/// A running daemon: the address it bound and the handle its report
/// comes back on after a `shutdown` control.
pub type Spawned<R> = (SocketAddr, JoinHandle<Result<R, ServeError>>);

/// Starts a one-lane daemon over the scheduler `build` makes from the
/// instance and the daemon's decision tap (which must be its trace
/// sink). The handle yields the report and the scheduler's final state.
///
/// # Errors
///
/// Whatever `build` or [`crate::serve`] fail with before the listener
/// is bound: a bad address, a busy port, a refused configuration or
/// snapshot.
pub fn spawn_lane<F>(
    instance: ProblemInstance,
    config: ServeConfig,
    build: F,
) -> Result<Spawned<(ServeReport, SchedulerState)>, ServeError>
where
    F: for<'i> FnOnce(
            &'i ProblemInstance,
            DecisionTap,
        ) -> Result<Box<dyn OnlineScheduler + 'i>, ServeError>
        + Send
        + 'static,
{
    spawn(move |bound| {
        let tap = DecisionTap::new();
        let mut scheduler = build(&instance, tap.clone())?;
        let mut registry = MetricsRegistry::new();
        // `serve` runs the one lane it is given, whatever `shards` says.
        let ids = ServeMetricIds::register(&mut registry, instance.cloudlet_count());
        let report = serve(
            scheduler.as_mut(),
            &tap,
            &registry,
            &ids,
            &config,
            Some(bound),
        )?;
        Ok((report, scheduler.export_state()))
    })
}

/// Starts a daemon with `config.shards` lanes over the `scheme`'s
/// primal-dual schedulers, which it builds itself.
///
/// # Errors
///
/// Whatever [`crate::serve_sharded`] fails with before the listener is
/// bound.
pub fn spawn_sharded(
    instance: ProblemInstance,
    scheme: Scheme,
    config: ServeConfig,
) -> Result<Spawned<ShardedReport>, ServeError> {
    spawn(move |bound| {
        let mut registry = MetricsRegistry::new();
        let ids = ServeMetricIds::register_sharded(
            &mut registry,
            instance.cloudlet_count(),
            config.shards,
        );
        serve_sharded(&instance, scheme, &registry, &ids, &config, Some(bound))
    })
}

// Runs `daemon` on a new thread and waits for the address it binds. A
// daemon that returns without binding dropped the sender: its result is
// the start-up error.
fn spawn<R: Send + 'static>(
    daemon: impl FnOnce(mpsc::Sender<SocketAddr>) -> Result<R, ServeError> + Send + 'static,
) -> Result<Spawned<R>, ServeError> {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || daemon(tx));
    match rx.recv() {
        Ok(addr) => Ok((addr, handle)),
        Err(_) => match handle.join() {
            Ok(Err(e)) => Err(e),
            Ok(Ok(_)) => Err(ServeError::Config(
                "the daemon returned without binding its listener".to_string(),
            )),
            Err(panic) => std::panic::resume_unwind(panic),
        },
    }
}
