//! Regression: `ServerHandle::kill()` must abort *in-flight* worker
//! executions, not just sever the sockets. Before the fix, kill()
//! severed connections but the workers kept computing the quotient
//! off-wire to completion — a "dead" node that keeps writing spill
//! pages, and a kill() that blocks for the rest of the query.
//!
//! The observable: kill() joins the worker pool, so if the in-flight
//! query is not cancelled at its next checkpoint, kill() takes as long
//! as the query's remaining runtime. With the abort flag wired through,
//! kill() returns in checkpoint time.
//!
//! The worker is held by a query that *cannot* complete before the kill
//! lands, however fast the engine: a group count over six stacked
//! self-joins of 32 equal keys — 32⁷ ≈ 3·10¹⁰ join rows, hours of work in
//! bounded memory (a join's output batch is bounded), polled every batch.
//! kill() runs under a watchdog, so a missing abort fails the test
//! instead of hanging it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use reldiv_rel::schema::Field;
use reldiv_rel::tuple::ints;
use reldiv_rel::{Relation, Schema};
use reldiv_service::{
    DivisionClient, ExecPlanRequest, PlanReply, ServerHandle, Service, ServiceConfig, ServiceError,
    TcpClient,
};

/// How long kill() may take: a generous bound on "checkpoint time", and
/// a vanishing fraction of what the query has left.
const KILL_BOUND: Duration = Duration::from_secs(20);

fn endless_plan() -> ExecPlanRequest {
    let mut joins = "(scan r)".to_owned();
    for _ in 0..6 {
        joins = format!("(join (on (#0 #0)) {joins} (scan r))");
    }
    ExecPlanRequest {
        plan: format!("(group-count (#0) {joins})"),
        deadline_ms: None,
        profile: false,
    }
}

/// A server with `r` registered: 32 rows of one key.
fn start(workers: usize) -> ServerHandle {
    let service = Service::start(ServiceConfig {
        workers,
        queue_depth: 8,
        ..ServiceConfig::default()
    })
    .expect("start service");
    let server = ServerHandle::start(service, "127.0.0.1:0").expect("bind");
    let schema = Schema::new(vec![Field::int("k"), Field::int("x")]);
    let r = Relation::from_tuples(schema, (0..32).map(|x| ints(&[0, x])).collect()).unwrap();
    let mut client = TcpClient::connect(server.local_addr()).expect("connect");
    client.register("r", &r).expect("register r");
    server
}

/// Sends `queries` endless plans from as many connections, waits until
/// the service has admitted them all, kills the server under a watchdog
/// and returns how long kill() took with every client's outcome.
fn kill_with_in_flight(
    server: ServerHandle,
    queries: usize,
) -> (Duration, Vec<Result<PlanReply, ServiceError>>) {
    let addr = server.local_addr();
    let service = server.service().clone();
    let clients: Vec<_> = (0..queries)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                client.exec_plan(&endless_plan())
            })
        })
        .collect();
    while service.stats().cache_misses < queries as u64 {
        std::thread::yield_now();
    }
    // Not a window to hit: every assertion holds whether or not a worker
    // has picked the first query up yet. The pause only makes it all but
    // certain that one has — the case the regression lives in.
    std::thread::sleep(Duration::from_millis(100));

    let (done, killed) = mpsc::channel();
    let killer = std::thread::spawn(move || {
        let mut server = server;
        let killed_at = Instant::now();
        server.kill();
        let _ = done.send(killed_at.elapsed());
    });
    let kill_took = killed.recv_timeout(KILL_BOUND).unwrap_or_else(|_| {
        panic!(
            "kill() has not returned after {KILL_BOUND:?}: the in-flight execution was not aborted"
        )
    });
    killer.join().expect("killer thread");
    let outcomes = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    (kill_took, outcomes)
}

#[test]
fn kill_aborts_in_flight_worker_executions() {
    let (kill_took, outcomes) = kill_with_in_flight(start(2), 1);
    // The in-flight client saw the connection die, not a completed
    // quotient, and kill() returned in checkpoint time.
    assert!(
        matches!(outcomes[0], Err(ServiceError::Protocol(_))),
        "a killed node must not deliver the quotient: {:?}",
        outcomes[0]
    );
    assert!(kill_took < KILL_BOUND, "kill() took {kill_took:?}");
}

#[test]
fn kill_refuses_queued_but_unstarted_work() {
    // One worker: the first query occupies it, the rest queue behind. A
    // query still sitting in the admission queue when kill() lands must
    // be refused at the checkpoint before execution starts — the abort
    // flag is checked on dequeue, too.
    let (kill_took, outcomes) = kill_with_in_flight(start(1), 4);
    for outcome in outcomes {
        let severed = matches!(outcome, Err(ServiceError::Protocol(_)));
        assert!(severed, "killed node must not answer: {outcome:?}");
    }
    assert!(
        kill_took < KILL_BOUND,
        "kill() with a full queue took {kill_took:?}; queued work must be refused, not run"
    );
}
