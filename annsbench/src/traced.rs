//! The traced run's instrumentation, kept entirely outside the program:
//! every shard of a mounted registry is re-registered (through
//! `Registry::register`) behind a wrapper whose table times each `read`
//! by table class and whose `serve` is timed as a whole. Answers and
//! ledgers are unchanged: the wrapper delegates every call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use anns_cellprobe::{Address, RoundExecutor, SpaceModel, Table, Word};
use anns_core::instance::table_ids;
use anns_core::serve::{ServableScheme, ServedAnswer};
use anns_engine::{Registry, ShardId};
use anns_hamming::Point;

/// The oracle's table classes, in report order.
pub const CLASSES: [&str; 4] = ["t", "aux", "n1", "exact"];

fn class_of(table: u32) -> usize {
    match table {
        table_ids::DEGEN_EXACT => 3,
        table_ids::DEGEN_N1 => 2,
        t if t >= table_ids::AUX_BASE => 1,
        _ => 0,
    }
}

/// Counters shared by every wrapped shard of one registry. Statistics
/// only, so `Relaxed` suffices: they are read after the threads that
/// update them have been joined.
#[derive(Default)]
pub struct LayerStats {
    reads: [AtomicU64; 4],
    read_ns: [AtomicU64; 4],
    serve_ns: AtomicU64,
    serves: AtomicU64,
}

/// A snapshot of [`LayerStats`].
#[derive(Clone, Copy, Default)]
pub struct LayerSnapshot {
    pub reads: [u64; 4],
    pub read_ns: [u64; 4],
    pub serve_ns: u64,
    pub serves: u64,
}

impl LayerSnapshot {
    pub fn total_read_ns(&self) -> u64 {
        self.read_ns.iter().sum()
    }

    /// Mean time per `serve` spent outside `read`, in microseconds: the
    /// scheme's own compute when reads run inside `serve` (solo).
    pub fn compute_us(&self) -> f64 {
        if self.serves == 0 {
            return 0.0;
        }
        self.serve_ns.saturating_sub(self.total_read_ns()) as f64 / self.serves as f64 / 1e3
    }
}

impl LayerStats {
    pub fn snapshot(&self) -> LayerSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LayerSnapshot {
            reads: std::array::from_fn(|i| load(&self.reads[i])),
            read_ns: std::array::from_fn(|i| load(&self.read_ns[i])),
            serve_ns: load(&self.serve_ns),
            serves: load(&self.serves),
        }
    }
}

struct TimedTable {
    base: Arc<Registry>,
    shard: ShardId,
    stats: Arc<LayerStats>,
}

impl Table for TimedTable {
    fn read(&self, addr: &Address) -> Word {
        let class = class_of(addr.table);
        let started = Instant::now();
        let word = self.base.scheme(self.shard).table().read(addr);
        let ns = started.elapsed().as_nanos() as u64;
        self.stats.reads[class].fetch_add(1, Ordering::Relaxed);
        self.stats.read_ns[class].fetch_add(ns, Ordering::Relaxed);
        word
    }

    fn space_model(&self) -> SpaceModel {
        self.base.scheme(self.shard).table().space_model()
    }
}

struct TracedScheme {
    table: TimedTable,
}

impl TracedScheme {
    fn inner(&self) -> &dyn ServableScheme {
        self.table.base.scheme(self.table.shard)
    }
}

impl ServableScheme for TracedScheme {
    fn label(&self) -> String {
        self.inner().label()
    }

    fn ready(&self) -> Result<(), anns_store::PayloadFault> {
        self.inner().ready()
    }

    fn table(&self) -> &dyn Table {
        &self.table
    }

    fn word_bits(&self) -> u64 {
        self.inner().word_bits()
    }

    fn query_dim(&self) -> Option<u32> {
        self.inner().query_dim()
    }

    fn round_budget(&self) -> Option<u32> {
        self.inner().round_budget()
    }

    fn probe_budget(&self) -> Option<u64> {
        self.inner().probe_budget()
    }

    fn serve(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
        let started = Instant::now();
        let answer = self.inner().serve(query, exec);
        let ns = started.elapsed().as_nanos() as u64;
        self.table.stats.serve_ns.fetch_add(ns, Ordering::Relaxed);
        self.table.stats.serves.fetch_add(1, Ordering::Relaxed);
        answer
    }
}

/// A registry serving every shard of `base` under its own name, each
/// behind the timing wrapper, all reporting into `stats`.
pub fn registry(base: &Arc<Registry>, stats: &Arc<LayerStats>) -> Registry {
    let mut traced = Registry::new();
    for id in 0..base.len() {
        let shard = ShardId(id);
        traced.register(
            base.name(shard),
            Box::new(TracedScheme {
                table: TimedTable {
                    base: Arc::clone(base),
                    shard,
                    stats: Arc::clone(stats),
                },
            }),
        );
    }
    traced
}
