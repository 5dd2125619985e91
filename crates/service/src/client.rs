//! Clients: in-process (sharing the [`Service`] handle) and TCP (speaking
//! the wire protocol). Both implement [`DivisionClient`], so tests and
//! the load generator run identically against either transport.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use reldiv_rel::Relation;

use crate::error::{Result, ServiceError};
use crate::metrics::MetricsSnapshot;
use crate::proto::{
    self, DivideReply, DivideRequest, ExecPlanRequest, PlanReply, Reply, Request, WriteKind,
};
use crate::service::Service;

/// The operations a service client offers, transport-independent.
pub trait DivisionClient {
    /// Liveness probe.
    fn ping(&mut self) -> Result<()>;
    /// Installs (or replaces) a named relation; returns its version.
    fn register(&mut self, name: &str, relation: &Relation) -> Result<u64>;
    /// Removes a named relation.
    fn drop_relation(&mut self, name: &str) -> Result<()>;
    /// Runs a division query.
    fn divide(&mut self, request: &DivideRequest) -> Result<DivideReply>;
    /// Executes a composed query plan.
    fn exec_plan(&mut self, request: &ExecPlanRequest) -> Result<PlanReply>;
    /// Reads the service counters.
    fn stats(&mut self) -> Result<MetricsSnapshot>;
}

/// A client calling straight into an embedded [`Service`].
#[derive(Clone)]
pub struct InProcClient {
    service: Arc<Service>,
}

impl InProcClient {
    /// Wraps a service handle.
    pub fn new(service: Arc<Service>) -> InProcClient {
        InProcClient { service }
    }
}

impl DivisionClient for InProcClient {
    fn ping(&mut self) -> Result<()> {
        Ok(())
    }

    fn register(&mut self, name: &str, relation: &Relation) -> Result<u64> {
        self.service
            .register_tuples(name, relation.schema(), relation.tuples())
    }

    fn drop_relation(&mut self, name: &str) -> Result<()> {
        self.service.drop_relation(name)
    }

    fn divide(&mut self, request: &DivideRequest) -> Result<DivideReply> {
        self.service.divide(request)
    }

    fn exec_plan(&mut self, request: &ExecPlanRequest) -> Result<PlanReply> {
        self.service.exec_plan(request)
    }

    fn stats(&mut self) -> Result<MetricsSnapshot> {
        Ok(self.service.stats())
    }
}

/// A client speaking the length-prefixed protocol over TCP.
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient { stream })
    }

    fn call(&mut self, request: &Request) -> Result<Reply> {
        self.call_encoded(&request.encode()?)
    }

    fn call_encoded(&mut self, payload: &[u8]) -> Result<Reply> {
        proto::write_frame(&mut self.stream, payload).map_err(io_err)?;
        let frame = proto::read_frame(&mut self.stream)
            .map_err(io_err)?
            .ok_or_else(|| ServiceError::Protocol("server closed the connection".into()))?;
        proto::decode_response(&frame)?
    }

    /// Asks the server to shut down gracefully. The server acknowledges,
    /// stops accepting connections, and drains in-flight queries.
    pub fn shutdown_server(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn io_err(e: io::Error) -> ServiceError {
    ServiceError::Protocol(format!("transport: {e}"))
}

fn unexpected(reply: &Reply) -> ServiceError {
    ServiceError::Protocol(format!("unexpected reply {reply:?}"))
}

impl DivisionClient for TcpClient {
    fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn register(&mut self, name: &str, relation: &Relation) -> Result<u64> {
        let (schema, tuples) = (relation.schema(), relation.tuples());
        let frame = proto::encode_write(name, &WriteKind::Register, schema, tuples, None)?;
        match self.call_encoded(&frame)? {
            Reply::Registered { version } => Ok(version),
            other => Err(unexpected(&other)),
        }
    }

    fn drop_relation(&mut self, name: &str) -> Result<()> {
        let request = Request::DropRelation {
            name: name.to_owned(),
        };
        match self.call(&request)? {
            Reply::Dropped => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn divide(&mut self, request: &DivideRequest) -> Result<DivideReply> {
        match self.call(&Request::Divide(request.clone()))? {
            Reply::Divided(reply) => Ok(reply),
            other => Err(unexpected(&other)),
        }
    }

    fn exec_plan(&mut self, request: &ExecPlanRequest) -> Result<PlanReply> {
        match self.call(&Request::ExecPlan(request.clone()))? {
            Reply::Plan(reply) => Ok(reply),
            other => Err(unexpected(&other)),
        }
    }

    fn stats(&mut self) -> Result<MetricsSnapshot> {
        match self.call(&Request::Stats)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }
}

/// Retry schedule for [`RetryingClient`]: bounded attempts with jittered
/// exponential backoff. The jitter (a deterministic splitmix64 stream
/// seeded per client) keeps a fleet of clients retrying an overloaded
/// server from stampeding it in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_retries: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(250),
            seed: 0x5EED,
        }
    }
}

impl BackoffPolicy {
    /// The jittered delay before retry number `attempt` (1-based):
    /// uniformly in `[half, full]` of the capped exponential step.
    fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self.base.saturating_mul(1u32 << (attempt - 1).min(20));
        let full = exp.min(self.cap).as_nanos() as u64;
        *rng = splitmix64(*rng);
        let jittered = full / 2 + if full == 0 { 0 } else { *rng % (full / 2 + 1) };
        Duration::from_nanos(jittered)
    }
}

fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`DivisionClient`] decorator that retries
/// [retryable](ServiceError::is_retryable) failures — admission-control
/// rejections and worker deaths — with jittered exponential backoff.
/// Non-retryable errors (bad requests, unknown relations, deadline
/// exceeded, protocol faults) pass straight through.
pub struct RetryingClient<C> {
    inner: C,
    policy: BackoffPolicy,
    rng: u64,
    retries_performed: u64,
}

impl<C: DivisionClient> RetryingClient<C> {
    /// Wraps `inner` with the given retry schedule.
    pub fn new(inner: C, policy: BackoffPolicy) -> RetryingClient<C> {
        RetryingClient {
            inner,
            policy,
            rng: splitmix64(policy.seed),
            retries_performed: 0,
        }
    }

    /// The wrapped client.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Total retries this client has performed (observability for load
    /// generators and the chaos harness).
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    fn with_retry<T>(&mut self, mut op: impl FnMut(&mut C) -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            match op(&mut self.inner) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.retries_performed += 1;
                    std::thread::sleep(self.policy.delay(attempt, &mut self.rng));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<C: DivisionClient> DivisionClient for RetryingClient<C> {
    fn ping(&mut self) -> Result<()> {
        self.with_retry(|c| c.ping())
    }

    fn register(&mut self, name: &str, relation: &Relation) -> Result<u64> {
        // Registering is idempotent (it replaces), so retrying is safe.
        self.with_retry(|c| c.register(name, relation))
    }

    fn drop_relation(&mut self, name: &str) -> Result<()> {
        self.with_retry(|c| c.drop_relation(name))
    }

    fn divide(&mut self, request: &DivideRequest) -> Result<DivideReply> {
        self.with_retry(|c| c.divide(request))
    }

    fn exec_plan(&mut self, request: &ExecPlanRequest) -> Result<PlanReply> {
        self.with_retry(|c| c.exec_plan(request))
    }

    fn stats(&mut self) -> Result<MetricsSnapshot> {
        self.with_retry(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldiv_core::Algorithm;
    use reldiv_rel::counters::OpSnapshot;
    use reldiv_rel::{Field, Schema};

    /// A scripted client: *every* method fails `failures_left` times
    /// with the configured (typed, cloneable) error, then succeeds with
    /// a stub value. No method panics — a mock that `unimplemented!()`s
    /// half the trait silently exempts those methods from coverage.
    struct Flaky {
        failures_left: u32,
        calls: u32,
        error: ServiceError,
    }

    impl Flaky {
        fn new(failures_left: u32, error: ServiceError) -> Flaky {
            Flaky {
                failures_left,
                calls: 0,
                error,
            }
        }

        fn step(&mut self) -> Result<()> {
            self.calls += 1;
            if self.failures_left > 0 {
                self.failures_left -= 1;
                Err(self.error.clone())
            } else {
                Ok(())
            }
        }
    }

    impl DivisionClient for Flaky {
        fn ping(&mut self) -> Result<()> {
            self.step()
        }
        fn register(&mut self, _: &str, _: &Relation) -> Result<u64> {
            self.step().map(|()| 1)
        }
        fn drop_relation(&mut self, _: &str) -> Result<()> {
            self.step()
        }
        fn divide(&mut self, _: &DivideRequest) -> Result<DivideReply> {
            self.step().map(|()| DivideReply {
                algorithm: Algorithm::Naive,
                cached: false,
                dividend_version: 1,
                divisor_version: 1,
                micros: 1,
                ops: OpSnapshot::default(),
                schema: Schema::new(vec![Field::int("q")]),
                tuples: Arc::new(Vec::new()),
                profile: None,
            })
        }
        fn exec_plan(&mut self, _: &ExecPlanRequest) -> Result<PlanReply> {
            self.step().map(|()| PlanReply {
                algorithms: Vec::new(),
                cached: false,
                micros: 1,
                ops: OpSnapshot::default(),
                relations: Vec::new(),
                schema: Schema::new(vec![Field::int("q")]),
                tuples: Arc::new(Vec::new()),
                profile: None,
            })
        }
        fn stats(&mut self) -> Result<MetricsSnapshot> {
            self.step().map(|()| MetricsSnapshot::default())
        }
    }

    fn fast_policy(max_retries: u32) -> BackoffPolicy {
        BackoffPolicy {
            max_retries,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 7,
        }
    }

    fn sample_request() -> DivideRequest {
        DivideRequest {
            dividend: "r".into(),
            divisor: "s".into(),
            algorithm: None,
            assume_unique: false,
            spec: None,
            deadline_ms: None,
            profile: false,
            distribute: None,
            restricted: None,
            mem_budget: None,
        }
    }

    /// A named exercise of one [`DivisionClient`] method.
    type MethodCall = (&'static str, fn(&mut RetryingClient<Flaky>) -> Result<()>);

    /// Every method a [`DivisionClient`] offers, as a callable the retry
    /// tests can iterate over — so no method silently escapes coverage.
    fn all_methods() -> Vec<MethodCall> {
        vec![
            ("ping", |c| c.ping()),
            ("register", |c| {
                let relation =
                    Relation::from_tuples(Schema::new(vec![Field::int("q")]), vec![]).unwrap();
                c.register("r", &relation).map(|_| ())
            }),
            ("drop_relation", |c| c.drop_relation("r")),
            ("divide", |c| c.divide(&sample_request()).map(|_| ())),
            ("exec_plan", |c| {
                let request = ExecPlanRequest {
                    plan: "(scan r)".into(),
                    deadline_ms: None,
                    profile: false,
                };
                c.exec_plan(&request).map(|_| ())
            }),
            ("stats", |c| c.stats().map(|_| ())),
        ]
    }

    #[test]
    fn every_method_retries_transient_failures_until_success() {
        for (name, call) in all_methods() {
            let mut c =
                RetryingClient::new(Flaky::new(3, ServiceError::Overloaded), fast_policy(4));
            call(&mut c).unwrap_or_else(|e| panic!("{name} should recover: {e}"));
            assert_eq!(c.retries_performed(), 3, "{name}");
            assert_eq!(c.into_inner().calls, 4, "{name}: 1 attempt + 3 retries");
        }
    }

    #[test]
    fn every_method_gives_up_after_max_retries() {
        for (name, call) in all_methods() {
            let mut c = RetryingClient::new(
                Flaky::new(u32::MAX, ServiceError::Overloaded),
                fast_policy(2),
            );
            assert_eq!(
                call(&mut c).unwrap_err(),
                ServiceError::Overloaded,
                "{name}"
            );
            assert_eq!(c.into_inner().calls, 3, "{name}: 1 attempt + 2 retries");
        }
    }

    #[test]
    fn every_method_passes_non_retryable_errors_through_immediately() {
        for (name, call) in all_methods() {
            let mut c = RetryingClient::new(
                Flaky::new(u32::MAX, ServiceError::BadRequest("nope".into())),
                fast_policy(5),
            );
            assert!(
                matches!(call(&mut c), Err(ServiceError::BadRequest(_))),
                "{name}"
            );
            assert_eq!(c.retries_performed(), 0, "{name}");
            assert_eq!(c.into_inner().calls, 1, "{name}");
        }
    }

    #[test]
    fn backoff_is_jittered_within_the_exponential_envelope() {
        let policy = BackoffPolicy {
            max_retries: 8,
            base: Duration::from_millis(4),
            cap: Duration::from_millis(64),
            seed: 42,
        };
        let mut rng = splitmix64(policy.seed);
        let mut saw_distinct = false;
        let mut prev = None;
        for attempt in 1..=8 {
            let exp = policy
                .base
                .saturating_mul(1 << (attempt - 1))
                .min(policy.cap);
            let d = policy.delay(attempt, &mut rng);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d:?} vs {exp:?}"
            );
            if prev.is_some() && prev != Some(d) {
                saw_distinct = true;
            }
            prev = Some(d);
        }
        assert!(saw_distinct, "jitter should vary the delays");
    }
}
