//! The three workloads and the loop that measures them.
//!
//! Each workload serves a fixed, seeded query set in *passes*. A run
//! repeats whole passes until `--seconds` have been measured, so every
//! count and every judged fraction is a function of the seed alone,
//! while the timings average over as many passes as fit.

use std::hint::black_box;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use anns_cellprobe::{execute_with, ExecOptions, ProbeLedger};
use anns_core::serve::{ServedAnswer, SoloServable};
use anns_engine::{Engine, EngineOptions, OnlineStats, QueryRequest, RealClock, Registry, ShardId};
use anns_hamming::Point;
use anns_server::{AnnsServer, Client, QueryReply, ServerOptions, ServerReport, TenantPolicy};

use crate::host;

/// One workload: a fixed query set served one pass at a time.
pub trait Workload {
    /// What one query returned, stripped of timings, so passes compare.
    type Reply: PartialEq;

    /// Serves the query set once, pushing one latency (ns) per completed
    /// query and returning one reply per query, in query order.
    fn pass(&mut self, latencies_ns: &mut Vec<u64>) -> Vec<Self::Reply>;

    /// Whether a reply is a refused or errored query.
    fn is_error(_reply: &Self::Reply) -> bool {
        false
    }
}

/// What one measured phase saw.
#[derive(Default)]
pub struct Measured {
    pub passes: usize,
    pub attempted: u64,
    pub errors: u64,
    pub wall_s: f64,
    /// One latency per completed query, in the order served.
    pub latencies_ns: Vec<u64>,
    /// `latencies_ns` sorted ascending.
    pub sorted_ns: Vec<u64>,
    /// Passes whose replies differed from the first pass's.
    pub unstable_passes: usize,
    /// One sample per pass, in the order served.
    pub samples: Vec<PassSample>,
}

/// What one pass cost.
#[derive(Clone, Copy)]
pub struct PassSample {
    pub completed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Resident set size at the end of the pass.
    pub rss_mb: f64,
}

impl Measured {
    pub fn completed(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Median over the passes of `f`: a stretch of a run on a contended
    /// host moves it less than a total over the run.
    fn pass_median(&self, f: impl Fn(&PassSample) -> f64) -> f64 {
        let mut values: Vec<f64> = self.samples.iter().map(f).collect();
        crate::median(&mut values)
    }

    /// Completed queries per wall second, median over the passes.
    pub fn throughput_qps(&self) -> f64 {
        self.pass_median(|s| s.completed as f64 / s.wall_s)
    }

    /// Process CPU time per completed query in microseconds, median over
    /// the passes.
    pub fn cpu_us_per_query(&self) -> f64 {
        self.pass_median(|s| s.cpu_s * 1e6 / s.completed.max(1) as f64)
    }

    /// Resident set size in MiB, median over the ends of the passes.
    pub fn rss_mb(&self) -> f64 {
        self.pass_median(|s| s.rss_mb)
    }

    /// Nearest-rank percentile in microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        percentile_ns(&self.sorted_ns, p) as f64 / 1e3
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Accumulates the passes of one measured phase.
struct Meter<R> {
    m: Measured,
    first: Option<Vec<R>>,
}

impl<R: PartialEq> Meter<R> {
    fn new() -> Self {
        Meter {
            m: Measured::default(),
            first: None,
        }
    }

    fn pass<W: Workload<Reply = R>>(&mut self, workload: &mut W) {
        let m = &mut self.m;
        let before = m.latencies_ns.len();
        let cpu = host::process_cpu_s();
        let started = Instant::now();
        let replies = workload.pass(&mut m.latencies_ns);
        let sample = PassSample {
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: host::process_cpu_s() - cpu,
            completed: (m.latencies_ns.len() - before) as u64,
            rss_mb: host::rss_mb(),
        };
        m.wall_s += sample.wall_s;
        m.samples.push(sample);
        m.passes += 1;
        m.attempted += replies.len() as u64;
        m.errors += replies.iter().filter(|r| W::is_error(r)).count() as u64;
        // A refused query is counted as an error, not as a changed answer.
        let changed = |(a, b): (&R, &R)| a != b && !W::is_error(a) && !W::is_error(b);
        match &self.first {
            None => self.first = Some(replies),
            Some(reference) if reference.iter().zip(&replies).any(changed) => {
                m.unstable_passes += 1
            }
            Some(_) => {}
        }
    }

    fn done(&self, seconds: f64) -> bool {
        self.m.passes > 0 && self.m.wall_s >= seconds
    }

    fn finish(mut self) -> (Measured, Vec<R>) {
        self.m.sorted_ns = self.m.latencies_ns.clone();
        self.m.sorted_ns.sort_unstable();
        (self.m, self.first.expect("at least one pass"))
    }
}

/// Serves whole passes until `seconds` of pass time have been measured
/// (at least one pass). Returns the measurement and the first pass's
/// replies; later passes are compared with it off the clock.
pub fn measure<W: Workload>(workload: &mut W, seconds: f64) -> (Measured, Vec<W::Reply>) {
    let mut meter = Meter::new();
    while !meter.done(seconds) {
        meter.pass(workload);
    }
    meter.finish()
}

/// [`measure`] for two workloads at once, alternating their passes so
/// that drift in the host's speed falls on both alike: the traced run
/// compares an untraced and a traced copy of one workload this way.
#[allow(clippy::type_complexity)]
pub fn measure_pair<A: Workload, B: Workload>(
    a: &mut A,
    b: &mut B,
    seconds: f64,
) -> ((Measured, Vec<A::Reply>), (Measured, Vec<B::Reply>)) {
    let (mut meter_a, mut meter_b) = (Meter::new(), Meter::new());
    while !(meter_a.done(seconds) && meter_b.done(seconds)) {
        if !meter_a.done(seconds) {
            meter_a.pass(a);
        }
        if !meter_b.done(seconds) {
            meter_b.pass(b);
        }
    }
    (meter_a.finish(), meter_b.finish())
}

/// A solo execution: the reference every served answer is held to.
pub fn solo(registry: &Registry, shard: ShardId, query: &Point) -> (ServedAnswer, ProbeLedger) {
    let scheme = SoloServable(registry.scheme(shard));
    let (answer, ledger, _) = execute_with(&scheme, query, ExecOptions::default());
    (answer, ledger)
}

/// `solo-distinct`: one thread, `execute_with` per query, distinct
/// queries round-robin over the shards.
pub struct SoloDistinct {
    pub registry: Arc<Registry>,
    pub plan: Vec<(ShardId, Point)>,
}

impl Workload for SoloDistinct {
    type Reply = (ServedAnswer, ProbeLedger);

    fn pass(&mut self, latencies_ns: &mut Vec<u64>) -> Vec<Self::Reply> {
        self.plan
            .iter()
            .map(|(shard, query)| {
                let started = Instant::now();
                let reply = solo(&self.registry, *shard, black_box(query));
                latencies_ns.push(started.elapsed().as_nanos() as u64);
                black_box(reply)
            })
            .collect()
    }
}

/// Probe counts of one `submit_batch_traced` call.
#[derive(Clone, Copy, Default)]
pub struct DispatchCounts {
    pub generations: usize,
    pub submitted: u64,
    pub executed: u64,
}

/// `engine-hot`: one thread submits the hot-set requests to the
/// coalescing engine, one generation per call.
pub struct EngineHot {
    pub engine: Engine,
    requests: Vec<QueryRequest>,
    /// Call `submit_batch_traced` and keep its dispatch counts.
    traced: bool,
    /// Counts of the last traced pass.
    pub dispatch: DispatchCounts,
}

impl EngineHot {
    pub fn new(registry: Registry, requests: Vec<QueryRequest>, traced: bool) -> Self {
        EngineHot {
            engine: Engine::new(registry, EngineOptions::default()),
            requests,
            traced,
            dispatch: DispatchCounts::default(),
        }
    }
}

impl Workload for EngineHot {
    type Reply = (ServedAnswer, ProbeLedger, bool);

    /// Submits one generation per call, so a query's latency is the time
    /// its caller waits: from submitting the call to its return.
    fn pass(&mut self, latencies_ns: &mut Vec<u64>) -> Vec<Self::Reply> {
        let mut replies = Vec::with_capacity(self.requests.len());
        let mut dispatch = DispatchCounts::default();
        for chunk in self.requests.chunks(self.engine.options().generation) {
            let started = Instant::now();
            let (served, traces) = if self.traced {
                self.engine.submit_batch_traced(chunk)
            } else {
                (self.engine.submit_batch(chunk), Vec::new())
            };
            let waited = started.elapsed().as_nanos() as u64;
            latencies_ns.resize(latencies_ns.len() + served.len(), waited);
            let dispatches = traces.iter().flat_map(|t| &t.dispatches);
            dispatch.generations += traces.len();
            dispatch.submitted += dispatches.clone().map(|d| d.submitted as u64).sum::<u64>();
            dispatch.executed += dispatches.map(|d| d.executed as u64).sum::<u64>();
            replies.extend(
                served
                    .into_iter()
                    .map(|s| (s.answer, s.ledger, s.within_budget)),
            );
        }
        if self.traced {
            self.dispatch = dispatch;
        }
        replies
    }
}

/// A wire answer stripped of its timings.
#[derive(Clone, Debug, PartialEq)]
pub struct WireReply {
    pub index: Option<u64>,
    pub rounds: u64,
    pub probes: u64,
    pub within_budget: bool,
}

/// `wire-closed`: an in-process server on loopback and two clients, each
/// a closed loop over its own distinct queries.
pub struct WireClosed {
    server: AnnsServer,
    runner: Option<JoinHandle<()>>,
    clients: Vec<(Client, &'static str, Vec<Point>)>,
    shard: &'static str,
    /// Every reply of every pass, in arrival order per client.
    pub replies: Vec<QueryReply>,
}

/// What a drained server reported.
pub struct WireDrain {
    pub report: ServerReport,
    pub online: OnlineStats,
    pub probes_submitted: u64,
    pub probes_executed: u64,
}

impl WireClosed {
    /// Binds a server over `registry` with the server defaults, except a
    /// tenant policy that never throttles, and connects one client per
    /// stream.
    pub fn start(
        registry: Registry,
        shard: &'static str,
        streams: Vec<(&'static str, Vec<Point>)>,
    ) -> Result<Self, String> {
        let engine = Arc::new(Engine::new(registry, EngineOptions::default()));
        let opts = ServerOptions {
            default_policy: TenantPolicy {
                rate_per_sec: 1e12,
                burst: 1e12,
            },
            ..ServerOptions::default()
        };
        let server = AnnsServer::bind("127.0.0.1:0", engine, opts, Arc::new(RealClock::new()))
            .map_err(|e| format!("cannot bind a loopback server: {e}"))?;
        let runner = {
            let server = server.clone();
            std::thread::spawn(move || server.run())
        };
        let mut wire = WireClosed {
            server,
            runner: Some(runner),
            clients: Vec::new(),
            shard,
            replies: Vec::new(),
        };
        for (tenant, queries) in streams {
            let (client, _) = Client::connect(wire.server.local_addr())
                .map_err(|e| format!("client {tenant} cannot connect: {e}"))?;
            wire.clients.push((client, tenant, queries));
        }
        Ok(wire)
    }

    /// Disconnects the clients, drains the server and joins its thread.
    pub fn finish(mut self) -> Result<WireDrain, String> {
        self.clients.clear();
        self.server.shutdown();
        if let Some(runner) = self.runner.take() {
            runner
                .join()
                .map_err(|_| "the server thread panicked".to_string())?;
        }
        let stats = self.server.engine().stats();
        Ok(WireDrain {
            report: self.server.report(),
            probes_submitted: stats.probes_submitted,
            probes_executed: stats.probes_executed,
            online: stats.online,
        })
    }
}

impl Drop for WireClosed {
    fn drop(&mut self) {
        // An early return must not leave the server thread running.
        if let Some(runner) = self.runner.take() {
            self.clients.clear();
            self.server.shutdown();
            let _ = runner.join();
        }
    }
}

type ClientOutcome = (Vec<u64>, Vec<Result<WireReply, String>>, Vec<QueryReply>);

impl Workload for WireClosed {
    type Reply = Result<WireReply, String>;

    fn pass(&mut self, latencies_ns: &mut Vec<u64>) -> Vec<Self::Reply> {
        let shard = self.shard;
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|(client, tenant, queries)| {
                    let tenant: &str = tenant;
                    let queries: &[Point] = queries;
                    scope.spawn(move || {
                        let mut outcome: ClientOutcome = Default::default();
                        for query in queries {
                            match client.query(tenant, shard, query) {
                                Ok(reply) => {
                                    outcome.0.push(reply.answer_rtt_ns);
                                    outcome.1.push(Ok(WireReply {
                                        index: reply.answer.index,
                                        rounds: reply.answer.rounds,
                                        probes: reply.answer.probes,
                                        within_budget: reply.answer.within_budget,
                                    }));
                                    outcome.2.push(reply);
                                }
                                Err(e) => outcome.1.push(Err(e.to_string())),
                            }
                        }
                        outcome
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let mut replies = Vec::new();
        for (latencies, mut answers, raw) in outcomes {
            latencies_ns.extend(latencies);
            replies.append(&mut answers);
            self.replies.extend(raw);
        }
        replies
    }

    fn is_error(reply: &Self::Reply) -> bool {
        reply.is_err()
    }
}
