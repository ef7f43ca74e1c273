//! The observability layer's three contracts, tested end to end:
//!
//! 1. **Free when off** — with the default [`NullRecorder`] installed
//!    explicitly, answers, ledgers, and transcripts are byte-identical
//!    to an engine built without any recorder call: tracing is not
//!    allowed to perturb serving behavior at all.
//! 2. **Deterministic when on** — a single-shard workload recorded over
//!    a `VirtualClock` produces a byte-stable JSON-lines trace: two
//!    fresh engines serving the same requests write identical bytes.
//! 3. **Anomalies dump** — a shed arrival trips the flight recorder,
//!    which snapshots the ring (admissions, seals, dispatches,
//!    completions, the shed itself) to the artifact path mid-run.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use anns_cellprobe::ExecOptions;
use anns_core::AnnIndex;
use anns_engine::testkit::{clustered_index, hot_set_workload, TempDir};
use anns_engine::{
    AdmissionOptions, AdmissionQueue, Engine, EngineOptions, FlightRecorder, NamedRequest,
    NullRecorder, QueryRequest, Recorder, Registry, RingRecorder, TraceEvent, VirtualClock,
};
use anns_obs::parse_jsonl;

const D: u32 = 192;

fn shared_index() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(10, 14, D, 0.05, 7007)))
}

/// One shard: single-shard traces are the documented full-determinism
/// case (multi-shard batch reads run concurrently, so only their
/// interleaving — not their content — can vary).
fn registry() -> Registry {
    let mut r = Registry::new();
    r.register_alg1("alg1-k3", shared_index(), 3);
    r
}

fn engine(generation: usize) -> Engine {
    Engine::new(
        registry(),
        EngineOptions {
            generation,
            exec: ExecOptions::default(),
            batch_threads: 1,
        },
    )
}

fn requests(seed: u64, count: usize) -> Vec<QueryRequest> {
    hot_set_workload(&shared_index(), count, (count / 2).max(1), 5, seed)
        .into_iter()
        .map(|query| QueryRequest {
            shard: anns_engine::ShardId(0),
            query,
        })
        .collect()
}

#[test]
fn null_recorder_serving_is_byte_identical_to_default() {
    let reqs = requests(11, 24);
    let exec = ExecOptions::with_transcript();
    let plain = Engine::new(
        registry(),
        EngineOptions {
            generation: 8,
            exec,
            batch_threads: 1,
        },
    );
    let nulled = Engine::new(
        registry(),
        EngineOptions {
            generation: 8,
            exec,
            batch_threads: 1,
        },
    )
    .recorded(Arc::new(NullRecorder));

    let (a, traces_a) = plain.submit_batch_traced(&reqs);
    let (b, traces_b) = nulled.submit_batch_traced(&reqs);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.answer, y.answer, "answers must not depend on tracing");
        assert_eq!(x.ledger, y.ledger, "ledgers must not depend on tracing");
        assert_eq!(
            x.transcript, y.transcript,
            "transcripts must match probe for probe"
        );
        assert_eq!(x.within_budget, y.within_budget);
    }
    // Dispatch audit logs agree too: same rounds, same coalescing.
    let flat = |ts: &[anns_engine::GenerationTrace]| {
        ts.iter()
            .flat_map(|t| t.dispatches.iter())
            .map(|d| {
                // The poll driver lists participants in slot order.
                assert!(
                    d.participants.windows(2).all(|w| w[0].0 < w[1].0),
                    "participants out of slot order: {:?}",
                    d.participants
                );
                (d.submitted, d.executed, d.shards, d.participants.clone())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(flat(&traces_a), flat(&traces_b));
    assert_eq!(nulled.recorder().counters().events, 0);
}

#[test]
fn mixed_scheme_generation_is_deterministic_and_solo_identical() {
    use anns_cellprobe::execute_with;
    use anns_core::serve::{ServableScheme, ServeAlg1, ServeLambda, SoloServable};
    use anns_core::{Aggregation, Alg2Config, SubsampledRepetition};

    let index = shared_index();
    let mut registry = Registry::new();
    let alg1 = registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
    let alg2 = registry.register_alg2("alg2-k8", Arc::clone(&index), Alg2Config::with_k(8));
    let lambda = registry.register_lambda("lambda-8", Arc::clone(&index), 8.0);
    let inners: Vec<Arc<dyn ServableScheme>> = vec![
        Arc::new(ServeAlg1 {
            index: Arc::clone(&index),
            k: 2,
            tau_override: None,
        }),
        Arc::new(ServeLambda {
            index: Arc::clone(&index),
            lambda: 8.0,
        }),
        Arc::new(ServeAlg1 {
            index: Arc::clone(&index),
            k: 3,
            tau_override: None,
        }),
    ];
    let defended = registry.register(
        "defended",
        Box::new(SubsampledRepetition::new(inners, 2, 5, Aggregation::BestOf).unwrap()),
    );
    let exec = ExecOptions::with_transcript();
    let engine = Engine::new(
        registry,
        EngineOptions {
            generation: 64,
            exec,
            batch_threads: 2,
        },
    );
    // Database points (exact hits end alg1 after one round) and perturbed
    // points, spread over every shard in one generation.
    let mut points: Vec<anns_hamming::Point> = (0..4)
        .map(|i| index.dataset().point(i * 7).clone())
        .collect();
    points.extend(hot_set_workload(&index, 8, 8, 9, 41));
    let shards = [alg1, alg2, lambda, defended];
    let reqs: Vec<QueryRequest> = points
        .iter()
        .enumerate()
        .flat_map(|(i, q)| {
            (0..shards.len()).map(move |j| QueryRequest {
                shard: shards[(i + j) % shards.len()],
                query: q.clone(),
            })
        })
        .collect();
    assert!(reqs.len() <= 64, "one generation");

    let (served, traces) = engine.submit_batch_traced(&reqs);
    let (again, traces_again) = engine.submit_batch_traced(&reqs);
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].dispatches, traces_again[0].dispatches);
    let registry = engine.registry();
    let mut rounds = std::collections::BTreeSet::new();
    for ((request, s), t) in reqs.iter().zip(&served).zip(&again) {
        let (answer, ledger, transcript) = execute_with(
            &SoloServable(registry.scheme(request.shard)),
            &request.query,
            exec,
        );
        assert_eq!(s.answer, answer);
        assert_eq!(s.ledger, ledger);
        assert_eq!(s.transcript, transcript);
        assert_eq!((&t.answer, &t.ledger), (&answer, &ledger));
        rounds.insert(ledger.rounds());
    }
    assert!(
        [1, 2, 3].iter().all(|r| rounds.contains(r)),
        "queries must finish after 1, 2 and 3 rounds: saw {rounds:?}"
    );
}

#[test]
fn blocking_only_wrappers_coalesce_like_the_schemes_they_wrap() {
    use anns_cellprobe::{RoundExecutor, Table};
    use anns_core::serve::{ServableScheme, ServedAnswer};

    /// A pass-through wrapper implementing only the blocking `serve`, as
    /// out-of-tree instrumentation might: the engine reaches the inner
    /// scheme through `RoundExecutor::replay`.
    struct Blocking(Registry);
    impl ServableScheme for Blocking {
        fn label(&self) -> String {
            self.0.scheme(anns_engine::ShardId(0)).label()
        }
        fn table(&self) -> &dyn Table {
            self.0.scheme(anns_engine::ShardId(0)).table()
        }
        fn word_bits(&self) -> u64 {
            self.0.scheme(anns_engine::ShardId(0)).word_bits()
        }
        fn serve(&self, query: &anns_hamming::Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
            self.0.scheme(anns_engine::ShardId(0)).serve(query, exec)
        }
    }

    let reqs = requests(17, 24);
    let exec = ExecOptions::with_transcript();
    let opts = EngineOptions {
        generation: 8,
        exec,
        batch_threads: 1,
    };
    let mut wrapped = Registry::new();
    wrapped.register("alg1-k3", Box::new(Blocking(registry())));
    let (direct, direct_traces) = Engine::new(registry(), opts).submit_batch_traced(&reqs);
    let (bridged, bridged_traces) = Engine::new(wrapped, opts).submit_batch_traced(&reqs);
    for (x, y) in direct.iter().zip(&bridged) {
        assert_eq!(x.answer, y.answer);
        assert_eq!(x.ledger, y.ledger);
        assert_eq!(x.transcript, y.transcript);
    }
    let dispatches = |ts: &[anns_engine::GenerationTrace]| {
        ts.iter().map(|t| t.dispatches.clone()).collect::<Vec<_>>()
    };
    assert_eq!(dispatches(&direct_traces), dispatches(&bridged_traces));
}

/// Runs one traced batch over a fresh engine + ring on a virtual clock,
/// returning the trace as JSONL bytes.
fn traced_run(
    reqs: &[QueryRequest],
) -> (String, anns_obs::TraceCounters, anns_engine::EngineStats) {
    let clock = Arc::new(VirtualClock::new());
    let ring = Arc::new(RingRecorder::new(4096, clock));
    let e = engine(8).recorded(Arc::clone(&ring) as Arc<dyn Recorder>);
    let _ = e.submit_batch(reqs);
    (ring.to_jsonl(), ring.counters(), e.stats())
}

#[test]
fn virtual_clock_trace_is_byte_stable() {
    let reqs = requests(23, 20);
    let (trace1, counters1, stats) = traced_run(&reqs);
    let (trace2, counters2, _) = traced_run(&reqs);
    assert!(!trace1.is_empty());
    assert_eq!(trace1, trace2, "same workload, same clock, same bytes");
    assert_eq!(counters1, counters2);
    assert_eq!(counters1.dropped, 0, "ring sized for the whole run");

    // The trace is internally consistent with the engine's own totals.
    let records = parse_jsonl(&trace1).expect("trace parses");
    assert_eq!(counters1.events, records.len() as u64);
    let mut served = 0u64;
    let mut dispatched_submitted = 0u64;
    let mut dispatched_deduped = 0u64;
    let mut reads = 0u64;
    for r in &records {
        // Frozen clock: every stamp is 0; seq carries the total order.
        assert_eq!(r.ts_ns, 0);
        match &r.event {
            TraceEvent::QueryServed { within_budget, .. } => {
                served += 1;
                assert!(within_budget);
            }
            TraceEvent::RoundDispatched {
                submitted, deduped, ..
            } => {
                dispatched_submitted += submitted;
                dispatched_deduped += deduped;
            }
            TraceEvent::ProbeBatchRead { len, .. } => reads += len,
            other => panic!("unexpected event in a batch-path trace: {other:?}"),
        }
    }
    assert_eq!(served, reqs.len() as u64);
    assert_eq!(dispatched_submitted, stats.probes_submitted);
    assert_eq!(dispatched_deduped, stats.probes_executed);
    assert_eq!(reads, stats.probes_executed, "every deduped probe was read");
    let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (0..records.len() as u64).collect::<Vec<_>>());
}

#[test]
fn shed_arrival_trips_the_flight_recorder() {
    let dir = TempDir::new("obs-flight");
    let flight_path = dir.path().join("trace.flight.jsonl");
    let clock = Arc::new(VirtualClock::new());
    let flight = Arc::new(FlightRecorder::new(
        1024,
        Arc::clone(&clock) as Arc<dyn anns_engine::Clock>,
        &flight_path,
    ));
    let engine = Arc::new(engine(4).recorded(Arc::clone(&flight) as Arc<dyn Recorder>));
    let queue = AdmissionQueue::new(
        Arc::clone(&engine),
        AdmissionOptions {
            max_generation: 4,
            max_wait: Duration::from_millis(2),
            capacity: 2,
        },
        clock,
    );
    let named = |q: &QueryRequest| NamedRequest {
        shard: "alg1-k3".to_string(),
        query: q.query.clone(),
    };
    let reqs = requests(31, 3);

    let t1 = queue.enqueue(named(&reqs[0])).expect("fits");
    let t2 = queue.enqueue(named(&reqs[1])).expect("fits");
    assert!(!flight_path.exists(), "no anomaly yet, no dump");
    let shed = queue.enqueue(named(&reqs[2]));
    assert!(shed.is_err(), "capacity 2 sheds the third arrival");
    assert_eq!(flight.dumps(), 1, "the shed dumped the ring");

    let dumped = parse_jsonl(&std::fs::read_to_string(&flight_path).unwrap()).unwrap();
    let kinds: Vec<&str> = dumped.iter().map(|r| r.event.kind()).collect();
    assert_eq!(
        kinds,
        vec!["query_admitted", "query_admitted", "shed"],
        "the dump holds the history leading up to the anomaly"
    );

    // Drain cleanly: the queue still works after a dump, and the final
    // ring holds the full story (seal → dispatches → completions).
    queue.close();
    while queue.pump_now().is_some() {}
    assert!(t1.wait().result.is_ok());
    assert!(t2.wait().result.is_ok());
    let final_kinds: Vec<&str> = flight
        .ring()
        .snapshot()
        .iter()
        .map(|r| r.event.kind())
        .collect();
    assert!(final_kinds.contains(&"generation_sealed"));
    assert!(final_kinds.contains(&"round_dispatched"));
    assert!(final_kinds.contains(&"query_served"));
}
