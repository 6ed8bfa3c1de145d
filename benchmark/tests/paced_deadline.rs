//! A daemon that stops answering must fail a paced run, not hang it: the
//! paced driver's socket is non-blocking, so no read timeout ends its
//! poll loop.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use vnfrel_benchmark::adapter::scenario::{self, Shape};
use vnfrel_benchmark::loadgen::{connect, drive_paced, PacedBuffers, PacedPlan};

#[test]
fn paced_driver_gives_up_on_a_silent_daemon() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port");
    let addr = listener.local_addr().expect("bound address");
    // Accepts, then neither reads nor answers; the socket stays open
    // until the driver has returned.
    let server = std::thread::spawn(move || listener.accept().expect("a client").0);

    let instance = scenario::instance(Shape::Day, scenario::network(Shape::Day));
    let requests = scenario::requests(Shape::Day, &instance, 64, &mut scenario::draw_rng(1, 0));
    // Fifty submits and two snapshot controls in mid-stream.
    let plan = PacedPlan::new(&requests[..50], 20);

    let mut conn = connect(addr);
    let started = Instant::now();
    let tally = drive_paced(&mut conn, &plan, 10_000.0, &mut PacedBuffers::default());
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the driver waited {:?} for a daemon that never answers",
        started.elapsed()
    );
    assert_eq!(tally.sent, 50);
    assert_eq!(tally.decided, 0);
    assert_eq!(
        tally.failed, 50,
        "every unanswered request counts as failed"
    );
    drop(server.join());
}
