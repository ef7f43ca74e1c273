//! The fixture every workload serves: a uniform dataset, indexed and
//! saved into one bundle with the shards `annsctl save --scheme all`
//! builds, then mounted back; plus the query streams drawn from `--seed`.
//!
//! The dataset and the sketch randomness are the same on every run, so
//! runs on different seeds differ only in their queries. Drawn per seed,
//! the index moved the median latency of one query group by up to a third.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use anns_core::{Alg2Config, AnnIndex, BuildOptions};
use anns_engine::{LoadedBundle, Registry, ShardId};
use anns_hamming::{gen, Dataset, Point};
use anns_sketch::SketchParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const N: usize = 8192;
pub const D: u32 = 512;
pub const GAMMA: f64 = 2.0;
pub const K: u32 = 3;
pub const LAMBDA: f64 = 8.0;
/// Distance of a planted query from its database point.
pub const PLANT_DISTANCE: u32 = 6;

pub const ALG1: &str = "alg1-k3";
pub const ALG2: &str = "alg2-k3";
pub const LAMBDA_SHARD: &str = "lambda-8";

/// Set-up is repeated this many times per run and reported as a median.
pub const SETUPS: usize = 3;

/// Seeds of the fixed dataset and sketch family.
const DATA_SEED: u64 = 7;
const SKETCH_SEED: u64 = 99;
/// Salt separating the query streams from other uses of `--seed`.
const QUERY_STREAM: u64 = 0x0E41;

pub fn dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    gen::uniform(N, D, &mut rng)
}

/// `count` distinct queries: even positions are planted at
/// [`PLANT_DISTANCE`] from a random database point, odd ones uniform.
/// `stream` separates the query sets one run draws.
pub fn queries(ds: &Dataset, count: usize, seed: u64, stream: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed ^ QUERY_STREAM ^ stream.rotate_left(32));
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let q = if out.len() % 2 == 0 {
            let center = ds.point(rng.gen_range(0..ds.len()));
            gen::point_at_distance(center, PLANT_DISTANCE, &mut rng)
        } else {
            Point::random(D, &mut rng)
        };
        if seen.insert(q.clone()) {
            out.push(q);
        }
    }
    out
}

/// FNV-1a over the limbs of a query stream: two runs drew the same
/// queries exactly when their digests agree.
pub fn digest<'a>(points: impl IntoIterator<Item = &'a Point>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in points {
        for limb in p.limbs() {
            for byte in limb.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Heap,
    Mmap,
}

/// Wall time of each set-up phase, in seconds, plus the store's sizes.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub save_s: f64,
    pub mount_s: f64,
    pub first_touch_s: f64,
    pub total_s: f64,
    pub file_bytes: u64,
    pub eager_bytes: u64,
}

/// Index build, bundle save, mount, then `ready()` on every shard: what a
/// fresh serving process pays before its first query.
pub fn setup(
    ds: &Dataset,
    backend: Backend,
    path: &Path,
) -> Result<(LoadedBundle, SetupTimes), String> {
    let started = Instant::now();
    let index = Arc::new(AnnIndex::build(
        ds.clone(),
        SketchParams::practical(GAMMA, SKETCH_SEED),
        BuildOptions::default(),
    ));
    let build_s = started.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut registry = Registry::new();
    registry.register_alg1(ALG1, Arc::clone(&index), K);
    registry.register_alg2(ALG2, Arc::clone(&index), Alg2Config::with_k(K));
    registry.register_lambda(LAMBDA_SHARD, index, LAMBDA);
    registry
        .save_bundle(path)
        .map_err(|e| format!("cannot save {}: {e}", path.display()))?;
    drop(registry);
    let save_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let bundle = match backend {
        Backend::Heap => Registry::load_bundle(path),
        Backend::Mmap => Registry::load_bundle_mapped(path),
    }
    .map_err(|e| format!("cannot mount {}: {e}", path.display()))?;
    let mount_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for id in 0..bundle.registry.len() {
        bundle
            .registry
            .scheme(ShardId(id))
            .ready()
            .map_err(|e| format!("shard {} not ready: {e}", bundle.registry.name(ShardId(id))))?;
    }
    let first_touch_s = t.elapsed().as_secs_f64();

    let times = SetupTimes {
        build_s,
        save_s,
        mount_s,
        first_touch_s,
        total_s: started.elapsed().as_secs_f64(),
        file_bytes: bundle.report.file_bytes,
        eager_bytes: bundle.report.eager_bytes,
    };
    Ok((bundle, times))
}

/// Runs [`setup`] [`SETUPS`] times and keeps the last mount for serving.
pub fn setup_repeated(
    ds: &Dataset,
    backend: Backend,
    path: &Path,
) -> Result<(LoadedBundle, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Unmount the previous round before rebuilding, as a restarted
        // server would.
        drop(last.take());
        let (bundle, t) = setup(ds, backend, path)?;
        times.push(t);
        last = Some(bundle);
    }
    Ok((last.expect("SETUPS is positive"), times))
}

pub fn shard(registry: &Registry, name: &str) -> Result<ShardId, String> {
    registry
        .resolve(name)
        .ok_or_else(|| format!("bundle holds no shard {name}"))
}
