//! Rounds: build and prefill a fresh structure, drive the seeded op
//! streams through it in a closed loop, and audit the results.
//!
//! The end-to-end metrics come from untraced rounds; the traced run reuses
//! the same round with spans switched on.  Counter deltas are taken around
//! the measured window only, never around set-up, warmup or the audits.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use mapapi::{ConcurrentMap, MapStats};
use server::{Backend, Connection, Request, Response, Server, ServerOpts, ServiceMap};
use workload::Op;

use crate::hist::{median, Hist};
use crate::spec::{self, Layer, Target, Workload};

/// Latency recorded for an op that failed: beyond any latency limit.
const FAILED_NS: u64 = u64::MAX;

/// Executes one op against the layer under test.
pub trait Exec {
    /// `Ok(success)` with the same success notion as `workload::apply`, or
    /// `Err(())` when the op failed.
    fn exec(&mut self, op: Op) -> Result<bool, ()>;

    /// False once the executor can no longer run ops (a dead connection).
    fn alive(&self) -> bool {
        true
    }
}

/// In-process calls on a structure.
pub struct InProc<'a>(pub &'a dyn ConcurrentMap);

impl Exec for InProc<'_> {
    #[inline]
    fn exec(&mut self, op: Op) -> Result<bool, ()> {
        Ok(workload::apply(self.0, None, op))
    }
}

/// The wire request for a workload op (the canonical increment for RMW,
/// key-as-value for inserts, as `workload::apply` does in-process).
pub fn to_request(op: Op) -> Request {
    match op {
        Op::Read(k) => Request::Get(k),
        Op::Insert(k) => Request::Put(k, k),
        Op::Remove(k) => Request::Del(k),
        Op::Rmw(k) => Request::Rmw(k, 1),
        Op::Scan(k, len) => Request::Scan(k, len as u32),
        Op::Transfer { .. } => unreachable!("no workload issues transfers"),
    }
}

/// Success of a response, or `Err(())` for an error response or a
/// response of the wrong kind.  A miss or a declined insert is a success.
pub fn classify(req: &Request, resp: &Response) -> Result<bool, ()> {
    match (req, resp) {
        (Request::Get(_), Response::Get(v)) => Ok(v.is_some()),
        (Request::Put(..), Response::Put(ok))
        | (Request::Del(_), Response::Del(ok))
        | (Request::Rmw(..), Response::Rmw(ok)) => Ok(*ok),
        (Request::Scan(..), Response::Scan(pairs)) => Ok(!pairs.is_empty()),
        _ => Err(()),
    }
}

/// One client connection driving the served structure at depth 1.
pub struct Wire {
    conn: Connection,
    dead: bool,
}

impl Wire {
    pub fn new(conn: Connection) -> Self {
        Wire { conn, dead: false }
    }

    /// The `STATS` verb.
    pub fn stats(&mut self) -> Result<MapStats, String> {
        match self.conn.request(&Request::Stats) {
            Ok(Response::Stats(s)) => Ok(s),
            other => Err(format!("STATS answered with {other:?}")),
        }
    }
}

impl Exec for Wire {
    fn exec(&mut self, op: Op) -> Result<bool, ()> {
        let req = to_request(op);
        match self.conn.request(&req) {
            Ok(resp) => classify(&req, &resp),
            Err(_) => {
                self.dead = true;
                Err(())
            }
        }
    }

    fn alive(&self) -> bool {
        !self.dead
    }
}

/// Net keys and keysum a client saw its updates add (Setbench keysum).
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    pub count: i64,
    pub sum: i128,
}

impl Tally {
    /// Account one op's outcome: a successful insert adds its key, a
    /// successful remove takes it away, and an RMW of an absent key
    /// inserts it.
    #[inline]
    pub fn note(&mut self, op: Op, ok: bool) {
        let (sign, key) = match op {
            Op::Insert(k) if ok => (1, k),
            Op::Remove(k) if ok => (-1, k),
            Op::Rmw(k) if !ok => (1, k),
            _ => return,
        };
        self.count += sign;
        self.sum += sign as i128 * key as i128;
    }
}

/// The keysum audit: the quiescent contents must be exactly the prefill
/// plus every successful update the clients recorded.
pub fn check_keysum(initial: &MapStats, tallies: &[Tally], now: &MapStats) -> Result<(), String> {
    let count = initial.key_count as i64 + tallies.iter().map(|t| t.count).sum::<i64>();
    let sum = initial.key_sum as i128 + tallies.iter().map(|t| t.sum).sum::<i128>();
    if now.key_count as i64 != count || now.key_sum as i128 != sum {
        return Err(format!(
            "keysum audit failed: structure holds {} keys summing to {}, clients recorded {count} keys summing to {sum}",
            now.key_count, now.key_sum
        ));
    }
    Ok(())
}

/// `mapapi::suites::check_scan_matches_stats`, as a `Result`.
pub fn check_scan(map: &dyn ConcurrentMap, stats: &MapStats) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        mapapi::suites::check_scan_matches_stats(map, stats)
    }))
    .map_err(|_| "scan audit failed: a full scan disagrees with stats()".to_string())
}

/// When a worker stops recording.
#[derive(Clone, Copy, Debug)]
pub enum Measure {
    /// After this much measured time.
    Time(Duration),
    /// After this many measured ops.
    Ops(u64),
}

/// A benchmark-side span around one call into the layer under test.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub call: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// Id (1-based index in the run's span list) of the span this one
    /// contains, 0 for none.
    pub parent: u64,
    /// The op's index in its client's stream.
    pub op: u64,
    pub client: u32,
}

/// Where a traced worker writes its spans.
#[derive(Clone, Copy)]
pub struct Trace {
    pub layer: Layer,
    pub epoch: Instant,
}

/// What one client did in one round.
pub struct WorkerOut {
    pub hist: Hist,
    pub tally: Tally,
    /// Measured ops, failed ones included.
    pub ops: u64,
    pub failed: u64,
    /// An op failed (warmup included), so the round's keysum is ambiguous.
    pub tainted: bool,
    pub first: Instant,
    pub last: Instant,
    pub spans: Vec<Span>,
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// The measured window shared by a round's clients: every client finishes
/// its warmup before the counters are read, and every client finishes its
/// measured ops before they are read again, so the counter movement covers
/// exactly the measured ops.
pub struct Window {
    barrier: Barrier,
    counts: Mutex<(Counts, Counts)>,
}

impl Window {
    pub fn new(clients: usize) -> Window {
        Window {
            barrier: Barrier::new(clients),
            counts: Mutex::new(Default::default()),
        }
    }

    fn mark(&self, client: u32, end: bool) {
        if client == 0 {
            let mut c = self
                .counts
                .lock()
                .expect("no client panics holding the lock");
            *(if end { &mut c.1 } else { &mut c.0 }) = Counts::now();
        }
    }

    /// Counter movement over the window.
    pub fn delta(&self) -> Counts {
        let c = self
            .counts
            .lock()
            .expect("no client panics holding the lock");
        c.1.since(&c.0)
    }
}

/// Closed loop over `stream` (wrapping): untimed warmup, then measured ops
/// each timed around the call alone.
pub fn drive<E: Exec>(
    exec: &mut E,
    stream: &[Op],
    client: u32,
    window: &Window,
    phase: Phase,
    trace: Option<Trace>,
) -> WorkerOut {
    let Phase { warmup, measure } = phase;
    let n = stream.len();
    let mut i = 0usize;
    let mut tally = Tally::default();
    let mut tainted = false;
    let warm_end = Instant::now() + warmup;
    while !warmup.is_zero() && exec.alive() {
        let op = stream[i % n];
        i += 1;
        match exec.exec(op) {
            Ok(ok) => tally.note(op, ok),
            Err(()) => tainted = true,
        }
        if Instant::now() >= warm_end {
            break;
        }
    }
    let mut hist = Hist::default();
    let mut spans = Vec::new();
    if let (Some(_), Measure::Ops(k)) = (trace, measure) {
        spans.reserve(k as usize);
    }
    let (mut ops, mut failed) = (0u64, 0u64);
    window.barrier.wait();
    window.mark(client, false);
    window.barrier.wait();
    let first = Instant::now();
    let mut last = first;
    while exec.alive() {
        let op = stream[i % n];
        let t0 = Instant::now();
        let r = exec.exec(op);
        let t1 = Instant::now();
        match r {
            Ok(ok) => {
                hist.record(t1.duration_since(t0).as_nanos() as u64);
                tally.note(op, ok);
            }
            Err(()) => {
                hist.record(FAILED_NS);
                failed += 1;
                tainted = true;
            }
        }
        if let Some(tr) = trace {
            spans.push(Span {
                layer: tr.layer,
                call: spec::call_name(&op),
                start: ns_since(tr.epoch, t0),
                end: ns_since(tr.epoch, t1),
                parent: 0,
                op: i as u64,
                client,
            });
        }
        i += 1;
        ops += 1;
        last = t1;
        let done = match measure {
            Measure::Time(d) => t1.duration_since(first) >= d,
            Measure::Ops(k) => ops >= k,
        };
        if done {
            break;
        }
    }
    window.barrier.wait();
    window.mark(client, true);
    WorkerOut {
        hist,
        tally,
        ops,
        failed,
        tainted,
        first,
        last,
        spans,
    }
}

/// Telemetry counters read around each measured window.
pub const COUNTERS: [&str; 15] = [
    "kcas_ops_total",
    "kcas_retries_total",
    "kcas_help_events_total",
    "kcas_boxed_fallbacks_total",
    "reactor_read_syscalls_total",
    "reactor_write_syscalls_total",
    "reactor_wakeups_total",
    "trace_sampled_total",
    "trace_ready_ns_sum",
    "trace_decode_ns_sum",
    "trace_shard_ns_sum",
    "trace_kcas_ns_sum",
    "trace_commit_ns_sum",
    "trace_resp_ns_sum",
    "trace_flush_ns_sum",
];

/// Telemetry counter readings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub counters: [u64; COUNTERS.len()],
}

impl Counts {
    pub fn now() -> Counts {
        Counts {
            counters: COUNTERS.map(harness::counter),
        }
    }

    /// Movement since `earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut d = Counts::default();
        for (i, c) in d.counters.iter_mut().enumerate() {
            *c = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        d
    }

    /// Value of the named counter.
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|&c| c == name)
            .expect("a counter listed in COUNTERS");
        self.counters[i]
    }
}

/// One round's record.
pub struct RoundOut {
    pub setup: Duration,
    pub workers: Vec<WorkerOut>,
    /// Counter movement over the measured window.
    pub counts: Counts,
}

impl RoundOut {
    pub fn ops(&self) -> u64 {
        self.workers.iter().map(|w| w.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.workers.iter().map(|w| w.failed).sum()
    }

    /// Measured wall time: first client's first op to last client's last.
    pub fn window(&self) -> Duration {
        let first = self.workers.iter().map(|w| w.first).min();
        let last = self.workers.iter().map(|w| w.last).max();
        last.zip(first)
            .map_or(Duration::ZERO, |(l, f)| l.duration_since(f))
    }

    /// Measured ops over the measured wall time, in Mop/s.
    pub fn mops(&self) -> f64 {
        self.ops() as f64 / self.window().as_secs_f64().max(1e-9) / 1e6
    }
}

/// Start the reactor backend (otherwise default options) over `map`.
pub fn serve(map: Arc<dyn ConcurrentMap>) -> Result<Server, String> {
    let opts = ServerOpts {
        backend: Backend::Reactor,
        ..ServerOpts::default()
    };
    Server::start_with(map, opts, "127.0.0.1:0").map_err(|e| format!("starting the server: {e}"))
}

/// How each round runs.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub warmup: Duration,
    pub measure: Measure,
}

/// Build a fresh structure from `make`, prefill it, run one round of
/// `w` over `streams`, and audit it.  Set-up time covers building and
/// prefilling, plus starting the server and connecting for the wire.
pub fn round(
    w: &Workload,
    make: &dyn Fn() -> Box<dyn ConcurrentMap>,
    seed: u64,
    streams: &[Vec<Op>],
    phase: Phase,
    trace: Option<Trace>,
) -> Result<RoundOut, String> {
    match w.target {
        Target::InProcess { .. } => {
            let t0 = Instant::now();
            let map = make();
            spec::prefill(&*map, seed);
            let setup = t0.elapsed();
            let initial = map.stats();
            let window = Window::new(streams.len());
            let workers: Vec<WorkerOut> = std::thread::scope(|s| {
                let handles: Vec<_> = streams
                    .iter()
                    .enumerate()
                    .map(|(c, stream)| {
                        let (map, window) = (&*map, &window);
                        s.spawn(move || {
                            drive(&mut InProc(map), stream, c as u32, window, phase, trace)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
            let counts = window.delta();
            let after = map.stats();
            let tallies: Vec<Tally> = workers.iter().map(|w| w.tally).collect();
            check_keysum(&initial, &tallies, &after)?;
            check_scan(&*map, &after)?;
            Ok(RoundOut {
                setup,
                workers,
                counts,
            })
        }
        Target::WireD1 => {
            let t0 = Instant::now();
            let map: Arc<dyn ConcurrentMap> = Arc::from(make());
            spec::prefill(&*map, seed);
            let server = serve(Arc::clone(&map))?;
            let conn = Connection::connect(server.local_addr());
            let setup = t0.elapsed();
            let result = conn
                .map_err(|e| format!("connecting: {e}"))
                .and_then(|conn| {
                    let mut wire = Wire::new(conn);
                    let initial = wire.stats()?;
                    let window = Window::new(1);
                    let out = drive(&mut wire, &streams[0], 0, &window, phase, trace);
                    let counts = window.delta();
                    // An op that failed may or may not have been applied, so a
                    // round with a failure has no exact keysum to check.
                    let after = if out.tainted {
                        None
                    } else {
                        Some(wire.stats()?)
                    };
                    if let Some(after) = &after {
                        check_keysum(&initial, &[out.tally], after)?;
                        let svc = ServiceMap::connect(server.local_addr(), 1, w.structure)
                            .map_err(|e| format!("connecting the audit client: {e}"))?;
                        check_scan(&svc, after)?;
                    }
                    Ok((out, counts))
                });
            server.shutdown();
            let (out, counts) = result?;
            Ok(RoundOut {
                setup,
                workers: vec![out],
                counts,
            })
        }
    }
}

/// Round count and lengths of an end-to-end run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub rounds: usize,
    pub phase: Phase,
}

/// Measured window of one round.
pub const WINDOW: Duration = Duration::from_millis(500);
/// Untimed warmup before each round's window.
pub const WARMUP: Duration = Duration::from_millis(50);

impl Plan {
    /// Rounds of [`WINDOW`] that fill `seconds` of measured time.
    pub fn for_seconds(seconds: f64) -> Plan {
        let rounds = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(1);
        let window = Duration::from_secs_f64(seconds / rounds as f64);
        Plan {
            rounds,
            phase: Phase {
                warmup: WARMUP,
                measure: Measure::Time(window),
            },
        }
    }
}

/// The end-to-end result of a run.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Each round's throughput, for the run header.
    pub mops: Vec<f64>,
    /// Each round's p99 latency in nanoseconds, and its sample count.
    pub p99: Vec<f64>,
    pub round_samples: Vec<u64>,
    /// Measured wall time summed over the rounds.
    pub window_s: f64,
    pub hist: Hist,
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }

    /// The median over rounds of each round's p99.  A pooled p99 belongs
    /// to the worst rounds: a host phase that slows a fifth of the rounds
    /// supplies the whole pooled tail, so it jumps from run to run with the
    /// share of slow rounds.  Each round has over a hundred samples beyond
    /// its own p99, and the median ignores the slow rounds while they are a
    /// minority.
    pub fn p99_median(&self) -> f64 {
        median(&self.p99)
    }

    /// Ops completed in the measured windows over their wall time, in
    /// Mop/s.  The host's slow phases come and go within a run, which makes
    /// the rounds' throughputs bimodal; the pooled rate follows the share
    /// of slow rounds smoothly, where a median over rounds jumps between
    /// the modes.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.window_s.max(1e-9) / 1e6
    }
}

/// `plan.rounds` untraced rounds; every round's audits must pass.
pub fn run(
    w: &Workload,
    make: &dyn Fn() -> Box<dyn ConcurrentMap>,
    seed: u64,
    streams: &[Vec<Op>],
    plan: Plan,
) -> Result<Run, String> {
    let mut out = Run {
        setup_s: Vec::new(),
        mops: Vec::new(),
        p99: Vec::new(),
        round_samples: Vec::new(),
        window_s: 0.0,
        hist: Hist::default(),
        attempted: 0,
        failed: 0,
    };
    for r in 0..plan.rounds {
        let round = round(w, make, seed, streams, plan.phase, None)
            .map_err(|e| format!("round {r}: {e}"))?;
        out.setup_s.push(round.setup.as_secs_f64());
        out.mops.push(round.mops());
        out.window_s += round.window().as_secs_f64();
        out.attempted += round.ops();
        out.failed += round.failed();
        let mut hist = Hist::default();
        for wk in &round.workers {
            hist.merge(&wk.hist);
        }
        out.p99.push(hist.quantile(0.99) as f64);
        out.round_samples.push(hist.count());
        out.hist.merge(&hist);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A structure that reports one successful insert in `every` as done
    /// without keeping the key.
    struct DropsInserts {
        inner: Box<dyn ConcurrentMap>,
        every: u64,
        inserts: AtomicU64,
    }

    impl ConcurrentMap for DropsInserts {
        fn name(&self) -> &'static str {
            "drops-inserts"
        }
        fn insert(&self, key: u64, value: u64) -> bool {
            let ok = self.inner.insert(key, value);
            // ORDERING: Relaxed — a tally; only its atomicity matters.
            if ok && self.inserts.fetch_add(1, Ordering::Relaxed) % self.every == self.every - 1 {
                self.inner.remove(key);
            }
            ok
        }
        fn remove(&self, key: u64) -> bool {
            self.inner.remove(key)
        }
        fn contains(&self, key: u64) -> bool {
            self.inner.contains(key)
        }
        fn get(&self, key: u64) -> Option<u64> {
            self.inner.get(key)
        }
        fn scan(&self, start: u64, len: usize) -> Vec<(u64, u64)> {
            self.inner.scan(start, len)
        }
        fn stats(&self) -> MapStats {
            self.inner.stats()
        }
    }

    fn short_phase() -> Phase {
        Phase {
            warmup: Duration::ZERO,
            measure: Measure::Ops(20_000),
        }
    }

    #[test]
    fn keysum_audit_catches_a_map_that_drops_inserts() {
        let w = spec::by_name("update-hot").unwrap();
        let streams = w.streams(7);
        // The prefill inserts go through the defect too; the audit starts
        // from the prefilled stats, so only the round's own drops count.
        let make = || -> Box<dyn ConcurrentMap> {
            Box::new(DropsInserts {
                inner: w.build(),
                every: 1000,
                inserts: AtomicU64::new(1),
            })
        };
        let err = round(&w, &make, 7, &streams, short_phase(), None)
            .err()
            .expect("audit must fail");
        assert!(err.contains("keysum"), "{err}");
        // The same round on the real structure passes.
        round(&w, &|| w.build(), 7, &streams, short_phase(), None).expect("audit passes");
    }

    #[test]
    fn wire_errors_and_wrong_kinds_count_as_failures() {
        let get = Request::Get(1);
        assert_eq!(classify(&get, &Response::Get(None)), Ok(false));
        assert_eq!(classify(&get, &Response::Get(Some(1))), Ok(true));
        assert_eq!(classify(&get, &Response::Err("x".into())), Err(()));
        assert_eq!(classify(&get, &Response::Put(true)), Err(()));
        assert_eq!(
            classify(&Request::Put(1, 1), &Response::Put(false)),
            Ok(false)
        );
    }

    #[test]
    fn tally_follows_setbench_keysum() {
        let mut t = Tally::default();
        t.note(Op::Insert(5), true);
        t.note(Op::Insert(6), false);
        t.note(Op::Remove(5), true);
        t.note(Op::Rmw(9), false);
        t.note(Op::Rmw(3), true);
        assert_eq!((t.count, t.sum), (1, 9));
    }
}
