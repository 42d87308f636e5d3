//! The three workloads and their seeded op streams.
//!
//! Every workload draws keys from `1..=KEY_RANGE` with the structure
//! prefilled to half, so the working set stays inside one core's L2.  The
//! op streams are generated from the seed before anything is timed; the
//! program under test only ever receives the generated ops.

use mapapi::{ConcurrentMap, Key};
use workload::{Op, OpGen, SharedState};

/// Keys are drawn from `1..=KEY_RANGE`.
pub const KEY_RANGE: Key = 10_000;
/// Keys loaded before a round starts.
pub const PREFILL: u64 = KEY_RANGE / 2;
/// Ops generated per worker; a round that runs past the end wraps around.
pub const STREAM_LEN: usize = 1 << 19;

/// Where the workload's ops are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Called in-process on the structure by `threads` worker threads.
    InProcess { threads: usize },
    /// Served by the reactor backend over loopback to one client
    /// connection running a closed loop at depth 1.
    WireD1,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// `workload` scenario that sets the op mix and key distribution.
    pub scenario: &'static str,
    /// Registry name of the structure (`harness::try_make`).
    pub structure: &'static str,
    /// How the ops reach the structure.
    pub target: Target,
    /// The layer whose calls the traced run wraps in spans.
    pub layer: Layer,
}

/// `update-hot`: the only workload where threads collide on the same nodes
/// (KCAS retries, helping, PathCAS validation failures).  Bypasses `shard`
/// and `server`.
/// `scan-sharded`: every scan fans out to all eight shards and is merged;
/// no KCAS contention, so a `shard` change shows here and not above.
/// `wire-d1`: a synchronous caller over loopback; dominated by syscalls and
/// wake-ups, the in-process layers are a small share of each request.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "update-hot",
        scenario: "contended-hot-set",
        structure: "int-avl-pathcas",
        target: Target::InProcess { threads: 2 },
        layer: Layer::Ds,
    },
    Workload {
        name: "scan-sharded",
        scenario: "scan-heavy",
        structure: "shard8(int-avl-pathcas)",
        target: Target::InProcess { threads: 1 },
        layer: Layer::Shard,
    },
    Workload {
        name: "wire-d1",
        scenario: "service-mixed",
        structure: "shard8(int-avl-pathcas)",
        target: Target::WireD1,
        layer: Layer::Server,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Client threads (in-process workers or wire connections).
    pub fn threads(&self) -> usize {
        match self.target {
            Target::InProcess { threads } => threads,
            Target::WireD1 => 1,
        }
    }

    /// One seeded op stream per client thread.
    pub fn streams(&self, seed: u64) -> Vec<Vec<Op>> {
        let sc = workload::scenario(self.scenario);
        let shared = SharedState::new(KEY_RANGE);
        (0..self.threads())
            .map(|t| {
                let mut gen = OpGen::new(&sc, KEY_RANGE, seed ^ ((t as u64 + 1) << 17));
                (0..STREAM_LEN).map(|_| gen.next_op(&shared)).collect()
            })
            .collect()
    }

    /// A fresh, empty instance of the structure.
    pub fn build(&self) -> Box<dyn ConcurrentMap> {
        harness::try_make(self.structure).expect("workload structures are registry names")
    }
}

/// Load `map` to [`PREFILL`] keys; the contents depend only on the seed.
pub fn prefill(map: &dyn ConcurrentMap, seed: u64) {
    mapapi::stress::prefill(map, KEY_RANGE, PREFILL, mapapi::stress::prefill_seed(seed));
}

/// The layers a span can be charged to, bottom up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own null map: generator, clock and histogram.
    Workload,
    /// The bare PathCAS structure.
    Ds,
    /// `shard8(...)` over the structure.
    Shard,
    /// The wire path: client, loopback socket and reactor.
    Server,
}

impl Layer {
    /// Module name used as the span-name prefix.
    pub fn module(self) -> &'static str {
        match self {
            Layer::Workload => "workload",
            Layer::Ds => "pathcas-ds",
            Layer::Shard => "shard",
            Layer::Server => "server",
        }
    }
}

/// Op kinds, in the order the per-kind metrics use them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Update,
    Scan,
}

/// Kind of an op: reads are gets, inserts, removes and read-modify-writes
/// are updates.
pub fn kind(op: &Op) -> Kind {
    match op {
        Op::Read(_) => Kind::Get,
        Op::Scan(..) => Kind::Scan,
        _ => Kind::Update,
    }
}

/// The call name of an op in span names (`<module>.<call>`).
pub fn call_name(op: &Op) -> &'static str {
    match op {
        Op::Read(_) => "get",
        Op::Insert(_) => "insert",
        Op::Remove(_) => "remove",
        Op::Rmw(_) => "rmw",
        Op::Scan(..) => "scan",
        Op::Transfer { .. } => "transfer",
    }
}
