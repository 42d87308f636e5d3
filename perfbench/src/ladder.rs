//! The traced run: per-layer metrics from benchmark-side spans.
//!
//! One pass runs the workload twice on fixed work, untraced and traced (a
//! span around every call into the layer under test), then replays the
//! first [`LADDER_OPS`] ops of the seeded stream on one thread through the
//! ladder: null map → bare structure → `shard8` → wire at depth 1 → wire at
//! depth 32.  The op's index in the stream is shared across rungs, so a
//! layer's self time is its span minus the lower rung's span for that op.
//! Every rung starts from the same prefilled contents and must return the
//! same result for every op.  Passes repeat until the run's time is spent;
//! times are medians over passes, and single-threaded counts must repeat
//! exactly from pass to pass.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kcas::{CasWord, KcasArg};
use mapapi::{ConcurrentMap, Key, MapStats, Value};
use server::{Connection, Request, Response};
use workload::Op;

use crate::e2e::{self, Counts, Measure, Phase, Span, Trace};
use crate::hist::{median, Hist};
use crate::spec::{self, Kind, Layer, Target, Workload};

/// Ops each ladder rung replays.
pub const LADDER_OPS: usize = 10_000;
/// Pipeline depth of the deep wire rung.
pub const DEEP: usize = 32;
/// Most passes a traced run makes.
pub const MAX_PASSES: usize = 25;

/// Measured ops per client in the traced and untraced workload rounds.
fn traced_ops(w: &Workload) -> u64 {
    match w.target {
        Target::InProcess { .. } => 20_000,
        Target::WireD1 => 4_000,
    }
}

/// Per-layer metrics: name, unit, and whether the value is a count that
/// must repeat exactly from pass to pass.
pub const METRICS: [(&str, &str, bool); 32] = [
    ("workload.floor_ns", "ns", false),
    ("kcas.execute2_ns", "ns", false),
    ("kcas.ops_per_op", "1/op", true),
    ("kcas.retries_per_kop", "1/kop", false),
    ("kcas.helps_per_kop", "1/kop", false),
    ("kcas.fallbacks_per_kop", "1/kop", false),
    ("pathcas-ds.get_ns", "ns", false),
    ("pathcas-ds.update_ns", "ns", false),
    ("pathcas-ds.scan_ns", "ns", false),
    ("pathcas-ds.allocs_per_op", "1/op", true),
    ("pathcas-ds.contention_ns", "ns", false),
    ("shard.get_ns", "ns", false),
    ("shard.update_ns", "ns", false),
    ("shard.scan_ns", "ns", false),
    ("shard.allocs_per_scan", "1/scan", true),
    ("shard.scan_self_ns", "ns", false),
    ("shard.imbalance", "ratio", true),
    ("server.d1_ns", "ns", false),
    ("server.self_ns", "ns", false),
    ("server.d32_ns_per_op", "ns", false),
    ("server.read_syscalls_per_req", "1/req", false),
    ("server.write_syscalls_per_req", "1/req", false),
    ("server.wakeups_per_req", "1/req", false),
    ("server.attr_ready_ns", "ns", false),
    ("server.attr_decode_ns", "ns", false),
    ("server.attr_shard_ns", "ns", false),
    ("server.attr_kcas_ns", "ns", false),
    ("server.attr_commit_ns", "ns", false),
    ("server.attr_resp_ns", "ns", false),
    ("server.attr_flush_ns", "ns", false),
    ("server.attr_coverage", "ratio", false),
    ("trace.overhead_frac", "ratio", false),
];

/// The `server.attr_*` phases and the tracer sums they divide.
const ATTR: [(&str, &str); 7] = [
    ("server.attr_ready_ns", "trace_ready_ns_sum"),
    ("server.attr_decode_ns", "trace_decode_ns_sum"),
    ("server.attr_shard_ns", "trace_shard_ns_sum"),
    ("server.attr_kcas_ns", "trace_kcas_ns_sum"),
    ("server.attr_commit_ns", "trace_commit_ns_sum"),
    ("server.attr_resp_ns", "trace_resp_ns_sum"),
    ("server.attr_flush_ns", "trace_flush_ns_sum"),
];

/// A uncontended two-word `kcas::execute`, in ns: the median of five
/// batches of 100k.
pub fn execute2_ns() -> f64 {
    let words = [CasWord::new(0), CasWord::new(0)];
    let guard = crossbeam_epoch::pin();
    let mut v = 0u64;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..100_000 {
                let args = [
                    KcasArg {
                        addr: &words[0],
                        old: v,
                        new: v + 1,
                    },
                    KcasArg {
                        addr: &words[1],
                        old: v,
                        new: v + 1,
                    },
                ];
                assert!(kcas::execute(std::hint::black_box(&args), &[], &guard));
                v += 1;
            }
            t0.elapsed().as_nanos() as f64 / 100_000.0
        })
        .collect();
    median(&batches)
}

/// The benchmark's null map: answers every call without doing anything.
struct NullMap;

impl ConcurrentMap for NullMap {
    fn name(&self) -> &'static str {
        "null"
    }
    fn insert(&self, _: Key, _: Value) -> bool {
        false
    }
    fn remove(&self, _: Key) -> bool {
        false
    }
    fn contains(&self, _: Key) -> bool {
        false
    }
    fn get(&self, _: Key) -> Option<Value> {
        None
    }
    fn rmw(&self, _: Key, _: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        false
    }
    fn scan(&self, _: Key, _: usize) -> Vec<(Key, Value)> {
        Vec::new()
    }
    fn stats(&self) -> MapStats {
        MapStats::default()
    }
}

fn scan_digest(pairs: &[(Key, Value)]) -> u64 {
    pairs.iter().fold(pairs.len() as u64, |d, &(k, v)| {
        d.wrapping_mul(31).wrapping_add(k ^ (v << 20))
    })
}

/// One op in-process, reduced to a digest of everything it returned.
fn digest_call(map: &dyn ConcurrentMap, op: Op) -> u64 {
    match op {
        Op::Read(k) => map.get(k).map_or(0, |v| v + 1),
        Op::Insert(k) => map.insert(k, k) as u64,
        Op::Remove(k) => map.remove(k) as u64,
        Op::Rmw(k) => map.rmw(k, &mut |v| v.map_or(1, |x| (x + 1) & mapapi::MAX_KEY)) as u64,
        Op::Scan(k, len) => scan_digest(&map.scan(k, len as usize)),
        Op::Transfer { .. } => unreachable!("no workload issues transfers"),
    }
}

/// The same digest from a wire response.
fn digest_response(resp: &Response) -> Result<u64, String> {
    match resp {
        Response::Get(v) => Ok(v.map_or(0, |v| v + 1)),
        Response::Put(ok) | Response::Del(ok) | Response::Rmw(ok) => Ok(*ok as u64),
        Response::Scan(pairs) => Ok(scan_digest(pairs)),
        other => Err(format!("ladder request answered with {other:?}")),
    }
}

/// One rung's replay of the ladder ops.
struct Rung {
    layer: Layer,
    /// One span per op (per batch on the deep wire rung).
    spans: Vec<Span>,
    digests: Vec<u64>,
    counts: Counts,
    /// Heap allocations made inside the calls, per op kind.
    kind_allocs: [u64; 3],
    wall: Duration,
    loads: Vec<mapapi::ShardLoad>,
}

impl Rung {
    fn new(layer: Layer, n: usize) -> Rung {
        Rung {
            layer,
            spans: Vec::with_capacity(n),
            digests: Vec::with_capacity(n),
            counts: Counts::default(),
            kind_allocs: [0; 3],
            wall: Duration::ZERO,
            loads: Vec::new(),
        }
    }

    fn span(&mut self, call: &'static str, op: usize, epoch: Instant, t0: Instant, t1: Instant) {
        self.spans.push(Span {
            layer: self.layer,
            call,
            start: t0.duration_since(epoch).as_nanos() as u64,
            end: t1.duration_since(epoch).as_nanos() as u64,
            parent: 0,
            op: op as u64,
            client: 0,
        });
    }

    fn durations(&self, ops: &[Op], of: Option<Kind>) -> Vec<f64> {
        self.spans
            .iter()
            .zip(ops)
            .filter(|(_, op)| of.is_none_or(|k| spec::kind(op) == k))
            .map(|(s, _)| (s.end - s.start) as f64)
            .collect()
    }

    /// Median span duration of the ops of `kind` (0 when there are none).
    fn median_ns(&self, ops: &[Op], of: Option<Kind>) -> f64 {
        median(&self.durations(ops, of))
    }

    /// Median over the ops of `kind` of this rung's span minus `lower`'s
    /// (0 when there are none).
    fn self_ns(&self, lower: &Rung, ops: &[Op], of: Option<Kind>) -> f64 {
        let a = self.durations(ops, of);
        let b = lower.durations(ops, of);
        median(&a.iter().zip(&b).map(|(x, y)| x - y).collect::<Vec<_>>())
    }
}

/// Build a loaded structure with `make`, then replay `ops` on it.
/// Both run on a thread of their own, so the epoch-reclamation state the
/// replay starts from (and with it every allocation count) is the same in
/// every pass.
fn rung_inproc(
    layer: Layer,
    make: &(dyn Fn() -> Box<dyn ConcurrentMap> + Sync),
    ops: &[Op],
    epoch: Instant,
) -> Rung {
    let replay = || {
        let map = make();
        let mut rung = Rung::new(layer, ops.len());
        // Recorded like the end-to-end loop records, so the null rung's
        // floor includes the histogram.
        let mut hist = Hist::default();
        let before = Counts::now();
        let t_start = Instant::now();
        for (i, &op) in ops.iter().enumerate() {
            let a0 = harness::alloc_count::heap_allocations();
            let t0 = Instant::now();
            let d = digest_call(&*map, op);
            let t1 = Instant::now();
            let a1 = harness::alloc_count::heap_allocations();
            hist.record(t1.duration_since(t0).as_nanos() as u64);
            rung.kind_allocs[spec::kind(&op) as usize] += a1 - a0;
            rung.digests.push(d);
            rung.span(spec::call_name(&op), i, epoch, t0, t1);
        }
        rung.wall = t_start.elapsed();
        rung.counts = Counts::now().since(&before);
        std::hint::black_box(hist.count());
        rung.loads = map.shard_loads();
        rung
    };
    std::thread::scope(|s| s.spawn(replay).join().expect("ladder rung panicked"))
}

/// Replay `ops` over the wire against a fresh prefilled `shard8(...)`,
/// `depth` requests per pipelined burst.
fn rung_wire(seed: u64, ops: &[Op], depth: usize, epoch: Instant) -> Result<Rung, String> {
    let map: Arc<dyn ConcurrentMap> =
        Arc::from(harness::try_make("shard8(int-avl-pathcas)").map_err(|e| e.to_string())?);
    spec::prefill(&*map, seed);
    let server = e2e::serve(Arc::clone(&map))?;
    let result = (|| {
        let mut conn =
            Connection::connect(server.local_addr()).map_err(|e| format!("connecting: {e}"))?;
        let mut rung = Rung::new(Layer::Server, ops.len());
        let mut reqs: Vec<Request> = Vec::with_capacity(depth);
        let before = Counts::now();
        let t_start = Instant::now();
        for (b, chunk) in ops.chunks(depth).enumerate() {
            reqs.clear();
            reqs.extend(chunk.iter().map(|&op| e2e::to_request(op)));
            let t0 = Instant::now();
            let resps = if depth == 1 {
                conn.request(&reqs[0]).map(|r| vec![r])
            } else {
                conn.pipeline(&reqs)
            }
            .map_err(|e| format!("ladder wire rung: {e}"))?;
            let t1 = Instant::now();
            for r in &resps {
                rung.digests.push(digest_response(r)?);
            }
            let call = if depth == 1 {
                spec::call_name(&chunk[0])
            } else {
                "pipeline"
            };
            rung.span(call, b * depth, epoch, t0, t1);
        }
        rung.wall = t_start.elapsed();
        rung.counts = Counts::now().since(&before);
        Ok(rung)
    })();
    server.shutdown();
    result
}

/// Per-pass metric values, and the ops the passes ran.
#[derive(Default)]
struct Gather {
    values: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Gather {
    fn put(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// One pass; returns the spans it recorded.
fn pass(
    w: &Workload,
    seed: u64,
    streams: &[Vec<Op>],
    g: &mut Gather,
    epoch: Instant,
) -> Result<Vec<Span>, String> {
    let make = || w.build();
    let phase = Phase {
        warmup: e2e::WARMUP,
        measure: Measure::Ops(traced_ops(w)),
    };
    let plain = e2e::round(w, &make, seed, streams, phase, None)?;
    let traced = e2e::round(
        w,
        &make,
        seed,
        streams,
        phase,
        Some(Trace {
            layer: w.layer,
            epoch,
        }),
    )?;
    g.attempted += plain.ops() + traced.ops() + 4 * LADDER_OPS as u64;
    g.failed += plain.failed() + traced.failed();
    let (u, t) = (plain.mops(), traced.mops());
    g.put("trace.overhead_frac", 1.0 - t / u);
    let ops = traced.ops();
    let c = &traced.counts;
    g.put(
        "kcas.retries_per_kop",
        1e3 * per(c.get("kcas_retries_total"), ops),
    );
    g.put(
        "kcas.helps_per_kop",
        1e3 * per(c.get("kcas_help_events_total"), ops),
    );
    g.put(
        "kcas.fallbacks_per_kop",
        1e3 * per(c.get("kcas_boxed_fallbacks_total"), ops),
    );
    let traced_spans: Vec<Span> = traced.workers.into_iter().flat_map(|wk| wk.spans).collect();
    let traced_median = median(
        &traced_spans
            .iter()
            .map(|s| (s.end - s.start) as f64)
            .collect::<Vec<_>>(),
    );

    let ops = &streams[0][..LADDER_OPS];
    let n = ops.len() as u64;
    let loaded = |name: &'static str| {
        move || {
            let map = harness::make(name);
            spec::prefill(&*map, seed);
            map
        }
    };
    let null = rung_inproc(Layer::Workload, &|| Box::new(NullMap), ops, epoch);
    let ds = rung_inproc(Layer::Ds, &loaded("int-avl-pathcas"), ops, epoch);
    let shard = rung_inproc(Layer::Shard, &loaded("shard8(int-avl-pathcas)"), ops, epoch);
    let d1 = rung_wire(seed, ops, 1, epoch)?;
    let deep = rung_wire(seed, ops, DEEP, epoch)?;
    for (rung, name) in [(&shard, "shard8"), (&d1, "wire d1"), (&deep, "wire d32")] {
        if let Some(i) = (0..ops.len()).find(|&i| rung.digests[i] != ds.digests[i]) {
            return Err(format!(
                "ladder: {name} answered op {i} ({:?}) differently from the bare structure",
                ops[i]
            ));
        }
    }

    let scans = ops.iter().filter(|op| spec::kind(op) == Kind::Scan).count() as u64;
    g.put("workload.floor_ns", null.wall.as_nanos() as f64 / n as f64);
    g.put("kcas.ops_per_op", per(ds.counts.get("kcas_ops_total"), n));
    let kinds = [Kind::Get, Kind::Update, Kind::Scan];
    for (rung, names) in [
        (
            &ds,
            [
                "pathcas-ds.get_ns",
                "pathcas-ds.update_ns",
                "pathcas-ds.scan_ns",
            ],
        ),
        (&shard, ["shard.get_ns", "shard.update_ns", "shard.scan_ns"]),
    ] {
        for (kind, name) in kinds.into_iter().zip(names) {
            g.put(name, rung.median_ns(ops, Some(kind)));
        }
    }
    g.put(
        "pathcas-ds.allocs_per_op",
        per(ds.kind_allocs.iter().sum(), n),
    );
    let own = match w.layer {
        Layer::Ds => &ds,
        Layer::Shard => &shard,
        _ => &d1,
    };
    g.put(
        "pathcas-ds.contention_ns",
        traced_median - own.median_ns(ops, None),
    );
    g.put(
        "shard.allocs_per_scan",
        per(shard.kind_allocs[Kind::Scan as usize], scans),
    );
    g.put(
        "shard.scan_self_ns",
        shard.self_ns(&ds, ops, Some(Kind::Scan)),
    );
    g.put("shard.imbalance", harness::shard_imbalance(&shard.loads));
    g.put("server.d1_ns", d1.median_ns(ops, None));
    g.put("server.self_ns", d1.self_ns(&shard, ops, None));
    g.put(
        "server.d32_ns_per_op",
        deep.wall.as_nanos() as f64 / n as f64,
    );
    let dc = &d1.counts;
    g.put(
        "server.read_syscalls_per_req",
        per(dc.get("reactor_read_syscalls_total"), n),
    );
    g.put(
        "server.write_syscalls_per_req",
        per(dc.get("reactor_write_syscalls_total"), n),
    );
    g.put(
        "server.wakeups_per_req",
        per(dc.get("reactor_wakeups_total"), n),
    );
    let sampled = dc.get("trace_sampled_total");
    let mut attributed = 0.0;
    for (name, sum) in ATTR {
        let v = per(dc.get(sum), sampled);
        attributed += v;
        g.put(name, v);
    }
    let d1_mean = d1.durations(ops, None).iter().sum::<f64>() / n as f64;
    g.put("server.attr_coverage", attributed / d1_mean);

    // Span ids are 1-based positions in the pass's log; each ladder span's
    // parent is the same op's span on the rung below.
    let mut log = traced_spans;
    let mut below: Option<usize> = None;
    for rung in [null, ds, shard, d1, deep] {
        let base = log.len();
        let deep_rung = rung.spans.len() != ops.len();
        for (i, mut s) in rung.spans.into_iter().enumerate() {
            if let (Some(b), false) = (below, deep_rung) {
                s.parent = (b + i + 1) as u64;
            }
            log.push(s);
        }
        below = Some(base);
    }
    Ok(log)
}

/// The outcome of a traced run.
pub struct Traced {
    /// Per-layer metrics in [`METRICS`] order: name, unit, median over passes.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The first pass's span log.
    pub spans: Vec<Span>,
    /// Every pass's value of every metric, for the run header.
    pub header: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

/// Passes over workload `w` until `seconds` have gone by.
pub fn run(w: &Workload, seed: u64, streams: &[Vec<Op>], seconds: f64) -> Result<Traced, String> {
    let epoch = Instant::now();
    let mut g = Gather::default();
    g.put("kcas.execute2_ns", execute2_ns());
    let mut spans = Vec::new();
    let mut passes = 0;
    while passes < MAX_PASSES && (passes == 0 || epoch.elapsed().as_secs_f64() < seconds) {
        let log =
            pass(w, seed, streams, &mut g, epoch).map_err(|e| format!("pass {passes}: {e}"))?;
        if passes == 0 {
            spans = log;
        }
        passes += 1;
    }
    let mut header = vec![format!("passes: {passes}")];
    let mut metrics = Vec::new();
    for (name, unit, exact) in METRICS {
        let vals = g
            .values
            .get(name)
            .ok_or_else(|| format!("{name} was never measured"))?;
        if exact && vals.iter().any(|v| v != &vals[0]) {
            return Err(format!(
                "{name} did not repeat exactly across passes: {vals:?}"
            ));
        }
        let shown: Vec<String> = vals.iter().map(|v| format!("{v:.4}")).collect();
        header.push(format!("{name}: {}", shown.join(" ")));
        metrics.push((name, unit, median(vals)));
    }
    Ok(Traced {
        metrics,
        spans,
        header,
        attempted: g.attempted,
        failed: g.failed,
    })
}

/// Write the span log as CSV: `id,parent,name,client,op,start_ns,end_ns`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id,parent,name,client,op,start_ns,end_ns")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            f,
            "{},{},{}.{},{},{},{},{}",
            i + 1,
            s.parent,
            s.layer.module(),
            s.call,
            s.client,
            s.op,
            s.start,
            s.end
        )?;
    }
    f.flush()
}
