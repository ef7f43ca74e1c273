//! The round-synchronous generation scheduler.
//!
//! A *generation* is a set of queries admitted together and advanced **one
//! round at a time**: every in-flight query computes its next round's
//! addresses and parks them, and only when *all* still-live queries of the
//! generation have parked does the scheduler execute the union — one
//! sorted, deduplicated batch per shard — and hand each query its words
//! back. This is the paper's round structure lifted from one query to
//! many: within a generation-round, no query's probe contents can
//! influence any probe address of the same round (its own addresses were
//! fixed before dispatch — [`RoundExecutor`] enforces that per query — and
//! other queries' addresses are data-independent of it), so coalescing is
//! correctness-free by construction and every per-query `Transcript` is
//! byte-identical to a solo execution.
//!
//! Implementation: each query is a round program (a future) whose
//! executor parks each round in a [`RoundSlot`]. [`Generation::drive`]
//! polls every live future once per sweep, on the calling thread with a
//! no-op waker; futures that complete drop out, and the rounds the rest
//! parked are dispatched together before the next sweep resumes them.
//! No thread is spawned or parked per query, and a panicking scheme or
//! oracle simply unwinds out of the driver. Every dispatch appends a
//! [`DispatchTrace`] so audits can verify that a query's rounds are never
//! reordered or merged across engine dispatches.
//!
//! [`RoundExecutor`]: anns_cellprobe::RoundExecutor

use std::future::Future;
use std::pin::Pin;
use std::task::Poll;

use anns_cellprobe::{
    chunked_parallel_map, poll_once, read_batch_tiled, Address, RoundSlot, Table,
};
use anns_obs::{Recorder, TraceEvent};

/// Audit record of one coalesced dispatch (one generation-round).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct DispatchTrace {
    /// Mount-table epoch the generation pinned at admission; every
    /// dispatch of one generation carries the same epoch (a hot swap
    /// never lands mid-generation).
    pub epoch: u64,
    /// Probe addresses submitted by all participants.
    pub submitted: usize,
    /// Unique addresses executed after per-shard sort + dedup.
    pub executed: usize,
    /// Distinct shards dispatched to.
    pub shards: usize,
    /// `(slot, that query's 0-based round index)` per participant, in
    /// slot order.
    pub participants: Vec<(usize, usize)>,
}

/// One query of a generation: its shard, the slot its executor parks
/// rounds in, and its round program (`None` once it has completed).
pub struct GenQuery<'q, T> {
    /// Shard the query's rounds are read from.
    pub shard: usize,
    /// The slot the query's executor parks its rounds in.
    pub slot: &'q RoundSlot,
    /// The query's round program.
    pub future: Option<Pin<Box<dyn Future<Output = T> + 'q>>>,
}

/// The dispatch side of one generation: the shard tables it reads and
/// how it reads them.
pub struct Generation<'a> {
    /// Table oracle of each shard, indexed by shard id. `None` for
    /// shards no query in this generation targets — the engine only
    /// materializes (and, for mmap-deferred shards, decodes) the tables
    /// it will actually probe.
    pub tables: Vec<Option<&'a dyn Table>>,
    /// Worker threads per coalesced shard batch.
    pub batch_threads: usize,
    /// Cache-block tile size for each shard batch (0 = untiled; see
    /// `anns_cellprobe::read_batch_tiled`).
    pub probe_tile: usize,
    /// Mount-table epoch pinned at admission (stamped on every trace).
    pub mount_epoch: u64,
    /// Engine-wide generation id (labels trace events, not dispatches).
    pub gen_id: u64,
    /// Trace sink; `RoundDispatched` / `ProbeBatchRead` events flow here.
    pub obs: &'a dyn Recorder,
}

impl Generation<'_> {
    /// Polls every query to completion, one sweep per generation-round,
    /// calling `done(slot, output)` as each completes (in slot order
    /// within a sweep). Returns the generation's audit log, one entry per
    /// dispatch.
    pub fn drive<T>(
        &self,
        queries: &mut [GenQuery<'_, T>],
        mut done: impl FnMut(usize, T),
    ) -> Vec<DispatchTrace> {
        let mut traces = Vec::new();
        let mut rounds_done = vec![0usize; queries.len()];
        loop {
            // `(slot, addresses)` of every round parked in this sweep.
            let mut parked = Vec::new();
            for (slot, query) in queries.iter_mut().enumerate() {
                let Some(future) = query.future.as_mut() else {
                    continue;
                };
                match poll_once(future.as_mut()) {
                    Poll::Ready(out) => {
                        query.future = None;
                        done(slot, out);
                    }
                    Poll::Pending => {
                        let addrs = query.slot.take_parked();
                        parked.push((slot, addrs.expect("a suspended query parks a round")));
                    }
                }
            }
            if parked.is_empty() {
                return traces;
            }
            traces.push(self.dispatch(&parked, queries, &mut rounds_done));
        }
    }

    /// Executes every parked round as one sorted, deduplicated batch per
    /// shard and answers each query's slot.
    fn dispatch<T>(
        &self,
        parked: &[(usize, Vec<Address>)],
        queries: &[GenQuery<'_, T>],
        rounds_done: &mut [usize],
    ) -> DispatchTrace {
        let mut refs: Vec<(usize, &Address)> = parked
            .iter()
            .flat_map(|(slot, addrs)| addrs.iter().map(|a| (queries[*slot].shard, a)))
            .collect();
        // Sorted, so each shard's oracle sees a cache-friendly,
        // deterministic access pattern. Per shard, in shard order:
        // (shard, submitted count, unique addrs).
        refs.sort_unstable();
        let mut prepared: Vec<(usize, usize, Vec<Address>)> = Vec::new();
        for &(shard, addr) in &refs {
            match prepared.last_mut() {
                Some((s, count, unique)) if *s == shard => {
                    *count += 1;
                    if unique.last() != Some(addr) {
                        unique.push(addr.clone());
                    }
                }
                _ => prepared.push((shard, 1, vec![addr.clone()])),
            }
        }
        if self.obs.enabled() {
            // One event per shard, emitted in shard order *before* the
            // reads, so dispatch events sit at a deterministic position
            // in the trace.
            for (shard, submitted, unique) in &prepared {
                self.obs.record(TraceEvent::RoundDispatched {
                    gen: self.gen_id,
                    shard: *shard as u64,
                    submitted: *submitted as u64,
                    deduped: unique.len() as u64,
                });
            }
        }
        // Shard tables are independent oracles, so their batches read
        // concurrently (one worker per shard, each fanning its own batch
        // out over `batch_threads`, cache-blocked per tile).
        let shard_words = chunked_parallel_map(&prepared, prepared.len(), |(shard, _, unique)| {
            if self.obs.enabled() {
                self.obs.record(TraceEvent::ProbeBatchRead {
                    gen: self.gen_id,
                    shard: *shard as u64,
                    tile: self.probe_tile as u64,
                    len: unique.len() as u64,
                });
            }
            let table = self.tables[*shard].expect("dispatch to unmaterialized shard");
            read_batch_tiled(table, unique, self.batch_threads, self.probe_tile)
        });
        let mut participants = Vec::with_capacity(parked.len());
        for (slot, addrs) in parked {
            let batch = prepared
                .binary_search_by_key(&queries[*slot].shard, |(shard, _, _)| *shard)
                .expect("parked shard was dispatched");
            let (unique, words) = (&prepared[batch].2, &shard_words[batch]);
            let round_words = addrs
                .iter()
                .map(|a| {
                    words[unique.binary_search(a).expect("address in its shard batch")].clone()
                })
                .collect();
            queries[*slot].slot.answer(round_words);
            participants.push((*slot, rounds_done[*slot]));
            rounds_done[*slot] += 1;
        }
        DispatchTrace {
            epoch: self.mount_epoch,
            submitted: refs.len(),
            executed: prepared.iter().map(|(_, _, unique)| unique.len()).sum(),
            shards: prepared.len(),
            participants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_cellprobe::{ExecOptions, RoundExecutor, SpaceModel};
    use anns_cellprobe::{MaterializedTable, Table};
    use anns_obs::NullRecorder;

    fn table(seed: u64) -> MaterializedTable {
        let t = MaterializedTable::new(SpaceModel::from_exact_cells(64, 64));
        for i in 0..64u64 {
            t.write(
                Address::with_u64(0, i),
                anns_cellprobe::Word::from_u64(i.wrapping_mul(seed) % 1000),
            );
        }
        t
    }

    /// Runs one program per slot through a one-shard generation over `t`,
    /// returning the outputs in slot order and the audit log.
    fn run_generation<F>(
        t: &MaterializedTable,
        slots: usize,
        program: F,
    ) -> (Vec<u64>, Vec<DispatchTrace>)
    where
        F: for<'e> Fn(usize, &'e mut RoundExecutor<'_>) -> Pin<Box<dyn Future<Output = u64> + 'e>>,
    {
        let generation = Generation {
            tables: vec![Some(t as &dyn Table)],
            batch_threads: 1,
            probe_tile: 64,
            mount_epoch: 0,
            gen_id: 0,
            obs: &NullRecorder,
        };
        let round_slots: Vec<RoundSlot> = (0..slots).map(|_| RoundSlot::default()).collect();
        let mut execs: Vec<RoundExecutor<'_>> = round_slots
            .iter()
            .map(|slot| RoundExecutor::parked(slot, ExecOptions::default()))
            .collect();
        let mut queries: Vec<GenQuery<'_, u64>> = execs
            .iter_mut()
            .zip(&round_slots)
            .enumerate()
            .map(|(i, (exec, slot))| GenQuery {
                shard: 0,
                slot,
                future: Some(program(i, exec)),
            })
            .collect();
        let mut out = vec![0u64; slots];
        let traces = generation.drive(&mut queries, |slot, v| out[slot] = v);
        (out, traces)
    }

    #[test]
    fn two_queries_coalesce_shared_addresses() {
        let t = table(7);
        // Both queries probe cells {1, 2} in round 1, then a
        // slot-specific cell in round 2.
        let (answers, traces) = run_generation(&t, 2, |slot, exec| {
            Box::pin(async move {
                let r1 = exec
                    .round_async(&[Address::with_u64(0, 1), Address::with_u64(0, 2)])
                    .await;
                let r2 = exec
                    .round_async(&[Address::with_u64(0, 10 + slot as u64)])
                    .await;
                r1[0].to_u64() * 1_000_000 + r1[1].to_u64() * 1000 + r2[0].to_u64()
            })
        });
        assert_eq!(answers, vec![7_014_070, 7_014_077]);
        assert_eq!(traces.len(), 2, "two generation-rounds");
        // Round 1: 4 submitted, 2 unique after coalescing.
        assert_eq!((traces[0].submitted, traces[0].executed), (4, 2));
        // Round 2: disjoint addresses, nothing to coalesce.
        assert_eq!((traces[1].submitted, traces[1].executed), (2, 2));
        for trace in &traces {
            assert_eq!(trace.shards, 1);
            assert_eq!(trace.participants.len(), 2);
        }
    }

    #[test]
    fn finished_queries_drop_out_of_later_rounds() {
        let t = table(3);
        // Slot 0 runs three rounds; slot 1 finishes after one.
        let (sums, traces) = run_generation(&t, 2, |slot, exec| {
            Box::pin(async move {
                let rounds: &[u64] = if slot == 0 { &[0, 1, 2] } else { &[9] };
                let mut sum = 0;
                for &cell in rounds {
                    sum += exec.round_async(&[Address::with_u64(0, cell)]).await[0].to_u64();
                }
                sum
            })
        });
        assert_eq!(sums, vec![3 + 6, 27], "cells 0,1,2 and 9 at multiplier 3");
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].participants, vec![(0, 0), (1, 0)]);
        assert_eq!(traces[1].participants, vec![(0, 1)], "peer finished");
    }

    #[test]
    fn per_slot_rounds_advance_in_slot_order() {
        let t = table(11);
        let (_, traces) = run_generation(&t, 3, |slot, exec| {
            Box::pin(async move {
                for r in 0..=slot as u64 {
                    let _ = exec
                        .round_async(&[Address::with_u64(0, r + slot as u64)])
                        .await;
                }
                0
            })
        });
        let participants: Vec<Vec<(usize, usize)>> =
            traces.iter().map(|t| t.participants.clone()).collect();
        assert_eq!(
            participants,
            vec![
                vec![(0, 0), (1, 0), (2, 0)],
                vec![(1, 1), (2, 1)],
                vec![(2, 2)],
            ]
        );
    }
}
