//! Round-structured probe execution and accounting.
//!
//! A `k`-round cell-probing algorithm (paper §2) is described by lookup
//! functions `L₁ … L_k` — round `i`'s addresses depend only on the query and
//! on rounds `< i` — plus an output map. [`RoundExecutor`] realizes exactly
//! this interface: the scheme hands a full round of addresses to
//! [`RoundExecutor::round_async`] and only then sees their contents, so
//! adaptivity *within* a round is impossible by construction and the round
//! count is simply the number of rounds awaited.
//!
//! Every probe is charged to a [`ProbeLedger`] (the `t = Σ tᵢ` accounting of
//! the paper), and an optional [`Transcript`] records `(round, address,
//! word)` triples for audits — e.g. the integration tests replay transcripts
//! with permuted in-round order to verify schemes really are non-adaptive
//! within rounds.

use std::cell::Cell;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};

use serde::{Deserialize, Serialize};

use crate::table::{Address, Table, TableId};
use crate::word::Word;

/// Default probe tile: 64 addresses per tile keeps a tile's addresses,
/// output slots and the table's touched cells inside L1/L2 while staying
/// large enough to amortize the per-tile dispatch.
pub const DEFAULT_PROBE_TILE: usize = 64;

/// Execution options for a query.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Execute a round's probes on parallel threads when the round has at
    /// least [`ExecOptions::parallel_threshold`] probes.
    pub parallel: bool,
    /// Minimum probes in a round before threads are spawned.
    pub parallel_threshold: usize,
    /// Number of worker threads for parallel rounds.
    pub threads: usize,
    /// Cache-block tile size for batched table reads: a round's addresses
    /// are processed in contiguous tiles of this many probes (see
    /// [`read_batch_tiled`]). `0` disables tiling. Recorded by the serving
    /// engine's `ServeReport` so benchmark artifacts pin it.
    pub probe_tile: usize,
    /// Record a full probe transcript.
    pub record_transcript: bool,
    /// If set, panic when a read word exceeds this many bits — enforces the
    /// scheme's declared word size `w`.
    pub word_bits_limit: Option<u64>,
    /// Charge every probe as its own single-probe round. This is a *valid
    /// serialization* of any scheme (contents are revealed only after the
    /// whole batch either way, so later probes never depend on earlier
    /// ones), and it is how the paper's remark "every round of the
    /// algorithm contains only 1 cell-probe" (Theorem 3's extreme, §1) is
    /// made measurable: the serialized round count is the probe count.
    pub serialize_rounds: bool,
}

impl Default for ExecOptions {
    /// The baseline configuration every call site starts from: sequential
    /// probes (`parallel: false`, threshold 8, 4 worker threads when
    /// enabled), no transcript, no extra word-size cap beyond the scheme's
    /// declared `w`, rounds as the scheme issues them. Customize with
    /// struct-update syntax (`ExecOptions { threads: 8, ..Default::default() }`)
    /// or one of the named builders below.
    fn default() -> Self {
        ExecOptions {
            parallel: false,
            parallel_threshold: 8,
            threads: 4,
            probe_tile: DEFAULT_PROBE_TILE,
            record_transcript: false,
            word_bits_limit: None,
            serialize_rounds: false,
        }
    }
}

impl ExecOptions {
    /// These options with the word-size cap tightened to a scheme's
    /// declared word size `declared` — the cap every execution enforces
    /// on top of whatever the caller asked for.
    pub fn capped(mut self, declared: u64) -> Self {
        self.word_bits_limit = Some(self.word_bits_limit.map_or(declared, |l| l.min(declared)));
        self
    }

    /// Default options plus a full probe transcript — the common audit
    /// configuration (replay tests, engine coalescing audits).
    pub fn with_transcript() -> Self {
        ExecOptions {
            record_transcript: true,
            ..ExecOptions::default()
        }
    }

    /// Default options with in-round probes executed on `threads` worker
    /// threads once a round has at least `threshold` probes.
    pub fn parallel_probes(threads: usize, threshold: usize) -> Self {
        ExecOptions {
            parallel: true,
            parallel_threshold: threshold.max(1),
            threads,
            ..ExecOptions::default()
        }
    }

    /// Default options with every probe charged as its own single-probe
    /// round (the paper's "1 cell-probe per round" serialization).
    pub fn serialized() -> Self {
        ExecOptions {
            serialize_rounds: true,
            ..ExecOptions::default()
        }
    }
}

/// Probe accounting for one query: the paper's `(t₁, …, t_k)`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeLedger {
    /// Probes per round, in round order.
    pub per_round: Vec<usize>,
    /// Total bits of cell content read.
    pub word_bits_read: u64,
    /// Widest single word read, in bits.
    pub max_word_bits: u64,
    /// Total bits of addresses emitted (for the communication translation).
    pub address_bits_sent: u64,
}

impl ProbeLedger {
    /// Number of rounds used (`k`).
    pub fn rounds(&self) -> usize {
        self.per_round.len()
    }

    /// Total probes (`t = Σ tᵢ`).
    pub fn total_probes(&self) -> usize {
        self.per_round.iter().sum()
    }

    /// Largest single round (`max tᵢ`).
    pub fn max_round_probes(&self) -> usize {
        self.per_round.iter().copied().max().unwrap_or(0)
    }

    /// Average probes per round; 0 for probe-free queries.
    pub fn avg_probes_per_round(&self) -> f64 {
        if self.per_round.is_empty() {
            0.0
        } else {
            self.total_probes() as f64 / self.rounds() as f64
        }
    }

    /// Accumulates another query's ledger into this one: element-wise sums
    /// of the per-round probe counts, sums of the bit totals, max of the
    /// single-word maximum. This is the *aggregate served cost* over a set
    /// of queries (what an engine pays in total), as opposed to
    /// [`ProbeLedger::worst_case`], which is the per-query bound the
    /// paper's theorems describe.
    pub fn merge(&mut self, other: &ProbeLedger) {
        while self.per_round.len() < other.per_round.len() {
            self.per_round.push(0);
        }
        for (i, &p) in other.per_round.iter().enumerate() {
            self.per_round[i] += p;
        }
        self.word_bits_read += other.word_bits_read;
        self.max_word_bits = self.max_word_bits.max(other.max_word_bits);
        self.address_bits_sent += other.address_bits_sent;
    }

    /// Element-wise max — the worst case over a set of queries, which is the
    /// quantity the paper's upper bounds describe.
    pub fn worst_case(mut self, other: &ProbeLedger) -> ProbeLedger {
        while self.per_round.len() < other.per_round.len() {
            self.per_round.push(0);
        }
        for (i, &p) in other.per_round.iter().enumerate() {
            self.per_round[i] = self.per_round[i].max(p);
        }
        self.word_bits_read = self.word_bits_read.max(other.word_bits_read);
        self.max_word_bits = self.max_word_bits.max(other.max_word_bits);
        self.address_bits_sent = self.address_bits_sent.max(other.address_bits_sent);
        self
    }
}

/// One recorded probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// Round index (0-based).
    pub round: usize,
    /// Probed address.
    pub addr: Address,
    /// Word that came back.
    pub word: Word,
}

/// Full probe record of one query execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript(pub Vec<TranscriptEntry>);

impl Transcript {
    /// Entries of a given round.
    pub fn round_entries(&self, round: usize) -> impl Iterator<Item = &TranscriptEntry> {
        self.0.iter().filter(move |e| e.round == round)
    }
}

/// Reads a batch of addresses from a table, words in address order, on up
/// to `threads` scoped threads (sequential when `threads <= 1` or the
/// batch is a single address).
///
/// Probes within a round are independent by the model's definition, so
/// this is always safe; it pays off when cell evaluation is expensive
/// (lazy oracles scan sketches of all n database points per probe). This
/// is the one batched read primitive shared by [`RoundExecutor`]'s
/// in-round parallelism and the engine's cross-query coalesced dispatch.
pub fn read_batch(table: &dyn Table, addrs: &[Address], threads: usize) -> Vec<Word> {
    chunked_parallel_map(addrs, threads, |a| table.read(a))
}

/// [`read_batch`] with the address list processed in contiguous tiles of
/// `tile` probes: each worker walks whole tiles, so a tile's addresses and
/// its output slots stay cache-resident while the table oracle streams its
/// cells — the cache-blocked inner loop of the engine's batch read path.
/// Words come back in address order; `tile == 0` (or a batch no larger
/// than one tile) falls through to the untiled [`read_batch`]. Output is
/// identical either way — probes within a round are independent, so
/// blocking only reorders the schedule, never the words.
pub fn read_batch_tiled(
    table: &dyn Table,
    addrs: &[Address],
    threads: usize,
    tile: usize,
) -> Vec<Word> {
    if tile == 0 || addrs.len() <= tile {
        return read_batch(table, addrs, threads);
    }
    let tiles: Vec<&[Address]> = addrs.chunks(tile).collect();
    let per_tile = chunked_parallel_map(&tiles, threads, |t| {
        t.iter().map(|a| table.read(a)).collect::<Vec<Word>>()
    });
    per_tile.into_iter().flatten().collect()
}

/// Maps `f` over `items` on up to `threads` scoped threads
/// (contiguous chunks, never an empty-range worker), results in item
/// order; runs inline when `threads <= 1` or there is at most one item.
/// The one scatter/gather primitive behind [`read_batch`], the batch
/// driver's query sharding, and the engine's per-shard dispatch fan-out.
pub fn chunked_parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Where a [`RoundExecutor`]'s rounds are answered.
#[derive(Clone, Copy)]
enum Port<'a> {
    /// Read in place from a table oracle (solo execution). A round
    /// program polled over this port never suspends.
    Table(&'a dyn Table),
    /// Parked in a slot for a driver that polls many queries and answers
    /// their rounds together (the serving engine's generation driver).
    Parked(&'a RoundSlot),
}

/// One query's hand-off point to a driver that polls round programs: the
/// query parks a round's addresses here and suspends; the driver reads
/// them however it likes (the engine merges every query's round into one
/// batch per shard) and hands the words back before polling again. The
/// addresses were fixed first, so the scheme cannot tell who read them.
#[derive(Default)]
pub struct RoundSlot {
    parked: Cell<Option<Vec<Address>>>,
    words: Cell<Option<Vec<Word>>>,
}

impl RoundSlot {
    /// Takes the round parked since the driver last looked, if any.
    pub fn take_parked(&self) -> Option<Vec<Address>> {
        self.parked.take()
    }

    /// Hands the words of the parked round back, in address order.
    pub fn answer(&self, words: Vec<Word>) {
        self.words.set(Some(words));
    }
}

/// Resolves once the driver has answered the slot's parked round.
fn answered(slot: &RoundSlot) -> impl Future<Output = Vec<Word>> + '_ {
    std::future::poll_fn(|_| slot.words.take().map_or(Poll::Pending, Poll::Ready))
}

/// Unwind payload of a blocking call ([`block_on`]) that met a parked
/// round it cannot wait for; caught by [`RoundExecutor::replay`].
struct Suspended;

/// Polls `fut` once with a no-op waker: round programs suspend only on a
/// parked round, and their driver knows when it has answered it.
pub fn poll_once<F: Future + ?Sized>(fut: Pin<&mut F>) -> Poll<F::Output> {
    fut.poll(&mut Context::from_waker(Waker::noop()))
}

/// Runs a round program to completion on the calling thread: the blocking
/// form of every `*_async` entry point. Over a table-backed executor the
/// program never suspends, so one poll completes it.
///
/// Over a parked executor, a blocking call cannot wait for its driver; it
/// unwinds instead, and the enclosing [`RoundExecutor::replay`] re-runs it
/// once the round is answered. Called anywhere else on a parked executor,
/// that unwind escapes as a panic.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    match poll_once(pin!(fut)) {
        Poll::Ready(out) => out,
        Poll::Pending => std::panic::resume_unwind(Box::new(Suspended)),
    }
}

/// Mediates all table access for one query, enforcing round structure.
pub struct RoundExecutor<'a> {
    port: Port<'a>,
    opts: ExecOptions,
    ledger: ProbeLedger,
    transcript: Option<Transcript>,
    /// Added to the table id of every probed address (see
    /// [`RoundExecutor::set_table_base`]).
    table_base: TableId,
    /// Answered rounds of a blocking call being replayed, and how many of
    /// them the current attempt has consumed.
    replay: Option<(Vec<Vec<Word>>, usize)>,
}

impl<'a> RoundExecutor<'a> {
    /// New executor reading its rounds in place from a table oracle.
    pub fn new(table: &'a dyn Table, opts: ExecOptions) -> Self {
        Self::build(Port::Table(table), opts)
    }

    /// New executor parking its rounds in `slot` for a polling driver.
    /// Accounting is identical to a table-backed executor's; reading each
    /// round (and the `parallel*`/`probe_tile` options) is the driver's.
    pub fn parked(slot: &'a RoundSlot, opts: ExecOptions) -> Self {
        Self::build(Port::Parked(slot), opts)
    }

    fn build(port: Port<'a>, opts: ExecOptions) -> Self {
        RoundExecutor {
            port,
            opts,
            ledger: ProbeLedger::default(),
            transcript: opts.record_transcript.then(Transcript::default),
            table_base: 0,
            replay: None,
        }
    }

    /// Executes one round of parallel probes; resolves to the words in
    /// address order. An empty address list performs no probes and does
    /// *not* count as a round.
    pub async fn round_async(&mut self, addrs: &[Address]) -> Vec<Word> {
        if addrs.is_empty() {
            return Vec::new();
        }
        let shifted: Vec<Address>;
        let addrs = if self.table_base == 0 {
            addrs
        } else {
            shifted = addrs
                .iter()
                .map(|a| Address::new(self.table_base + a.table, a.key.clone()))
                .collect();
            &shifted
        };
        let words = match self.port {
            Port::Table(table) => {
                let threads = if self.opts.parallel && addrs.len() >= self.opts.parallel_threshold {
                    self.opts.threads
                } else {
                    1
                };
                read_batch_tiled(table, addrs, threads, self.opts.probe_tile)
            }
            Port::Parked(slot) => match self.replayed_round() {
                Some(words) => words,
                None => {
                    slot.parked.set(Some(addrs.to_vec()));
                    answered(slot).await
                }
            },
        };
        assert_eq!(
            words.len(),
            addrs.len(),
            "a round's driver must answer every address"
        );
        let base_round = self.ledger.per_round.len();
        if self.opts.serialize_rounds {
            self.ledger
                .per_round
                .extend(std::iter::repeat_n(1, addrs.len()));
        } else {
            self.ledger.per_round.push(addrs.len());
        }
        for (pos, (addr, word)) in addrs.iter().zip(words.iter()).enumerate() {
            let bits = word.bits();
            if let Some(limit) = self.opts.word_bits_limit {
                assert!(
                    bits <= limit,
                    "word of {bits} bits exceeds declared word size {limit} at {addr:?}"
                );
            }
            self.ledger.word_bits_read += bits;
            self.ledger.max_word_bits = self.ledger.max_word_bits.max(bits);
            self.ledger.address_bits_sent += addr.bits();
            if let Some(t) = &mut self.transcript {
                t.0.push(TranscriptEntry {
                    round: if self.opts.serialize_rounds {
                        base_round + pos
                    } else {
                        base_round
                    },
                    addr: addr.clone(),
                    word: word.clone(),
                });
            }
        }
        words
    }

    /// The blocking form of [`RoundExecutor::round_async`] (see
    /// [`block_on`]).
    pub fn round(&mut self, addrs: &[Address]) -> Vec<Word> {
        block_on(self.round_async(addrs))
    }

    /// The next answered round of the replay in progress, if it has one.
    fn replayed_round(&mut self) -> Option<Vec<Word>> {
        let (log, next) = self.replay.as_mut()?;
        let words = log.get(*next)?.clone();
        *next += 1;
        Some(words)
    }

    /// Sets the offset added to the table id of every address probed from
    /// now on, returning the previous one. A composite scheme runs an
    /// inner scheme inside its own table-id block this way (see
    /// `SubsampledRepetition` in `anns-core`): the inner probes are
    /// charged to this executor, shifted.
    pub fn set_table_base(&mut self, base: TableId) -> TableId {
        std::mem::replace(&mut self.table_base, base)
    }

    /// Runs a *blocking* round program `run` (one that reads through
    /// [`RoundExecutor::round`] or [`block_on`] rather than awaiting) as a
    /// future. Over a table-backed executor it simply runs. Over a parked
    /// one, each attempt runs until it meets a round not yet answered,
    /// which unwinds back here; the round stays parked for the driver,
    /// and once answered the program is run again from the start, its
    /// earlier rounds served from the answers so far. Round programs are
    /// deterministic, so every attempt re-issues the same rounds, and the
    /// final attempt's accounting is exactly a solo execution's.
    ///
    /// This is the bridge for schemes that implement only a blocking
    /// entry point; it costs one re-run of the program per round, and
    /// `run` must tolerate being unwound at a round (hold no lock across
    /// one).
    pub async fn replay<R>(&mut self, mut run: impl FnMut(&mut Self) -> R) -> R {
        let slot = match self.port {
            Port::Parked(slot) if self.replay.is_none() => slot,
            // Solo, or nested inside a replay that already serves rounds.
            _ => return run(self),
        };
        let entry = (
            self.ledger.clone(),
            self.transcript.clone(),
            self.table_base,
        );
        let mut log = Vec::new();
        loop {
            self.replay = Some((log, 0));
            let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| run(&mut *self)));
            log = self.replay.take().expect("replay in progress").0;
            match attempt {
                Ok(out) => return out,
                Err(payload) if payload.is::<Suspended>() => {
                    log.push(answered(slot).await);
                    (self.ledger, self.transcript, self.table_base) = entry.clone();
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    }

    /// Accounting so far.
    pub fn ledger(&self) -> &ProbeLedger {
        &self.ledger
    }

    /// Consumes the executor, returning the ledger and transcript.
    pub fn finish(self) -> (ProbeLedger, Option<Transcript>) {
        (self.ledger, self.transcript)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceModel;
    use crate::table::MaterializedTable;

    fn table_mod7() -> MaterializedTable {
        let t = MaterializedTable::new(SpaceModel::from_exact_cells(100, 64));
        for i in 0..100u64 {
            t.write(Address::with_u64(0, i), Word::from_u64(i % 7));
        }
        t
    }

    #[test]
    fn rounds_and_probes_are_counted() {
        let t = table_mod7();
        let mut exec = RoundExecutor::new(&t, ExecOptions::default());
        let w1 = exec.round(&[Address::with_u64(0, 1), Address::with_u64(0, 2)]);
        assert_eq!(w1.len(), 2);
        let _ = exec.round(&[Address::with_u64(0, 3)]);
        let (ledger, _) = exec.finish();
        assert_eq!(ledger.per_round, vec![2, 1]);
        assert_eq!(ledger.total_probes(), 3);
        assert_eq!(ledger.rounds(), 2);
        assert_eq!(ledger.max_round_probes(), 2);
        assert!((ledger.avg_probes_per_round() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_round_is_free() {
        let t = table_mod7();
        let mut exec = RoundExecutor::new(&t, ExecOptions::default());
        assert!(exec.round(&[]).is_empty());
        let (ledger, _) = exec.finish();
        assert_eq!(ledger.rounds(), 0);
    }

    #[test]
    fn words_return_in_address_order() {
        let t = table_mod7();
        let addrs: Vec<Address> = (0..50).map(|i| Address::with_u64(0, i)).collect();
        let mut exec = RoundExecutor::new(&t, ExecOptions::default());
        let words = exec.round(&addrs);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.to_u64(), (i as u64) % 7);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let t = table_mod7();
        let addrs: Vec<Address> = (0..97).map(|i| Address::with_u64(0, i)).collect();
        let mut seq = RoundExecutor::new(&t, ExecOptions::default());
        let expect = seq.round(&addrs);
        let mut par = RoundExecutor::new(&t, ExecOptions::parallel_probes(8, 1));
        let got = par.round(&addrs);
        assert_eq!(got, expect);
        assert_eq!(par.ledger().total_probes(), 97);
    }

    #[test]
    fn transcript_records_all_probes_in_order() {
        let t = table_mod7();
        let mut exec = RoundExecutor::new(&t, ExecOptions::with_transcript());
        exec.round(&[Address::with_u64(0, 5), Address::with_u64(0, 6)]);
        exec.round(&[Address::with_u64(0, 7)]);
        let (_, transcript) = exec.finish();
        let tr = transcript.unwrap();
        assert_eq!(tr.0.len(), 3);
        assert_eq!(tr.round_entries(0).count(), 2);
        assert_eq!(tr.round_entries(1).count(), 1);
        assert_eq!(tr.0[2].word.to_u64(), 0); // 7 % 7
    }

    #[test]
    #[should_panic(expected = "exceeds declared word size")]
    fn word_size_limit_is_enforced() {
        let t = MaterializedTable::new(SpaceModel::from_exact_cells(1, 8));
        t.write(Address::with_u64(0, 0), Word::from_bytes(vec![1, 2, 3, 4]));
        let mut exec = RoundExecutor::new(
            &t,
            ExecOptions {
                word_bits_limit: Some(16),
                ..ExecOptions::default()
            },
        );
        let _ = exec.round(&[Address::with_u64(0, 0)]);
    }

    #[test]
    fn serialize_rounds_charges_one_probe_per_round() {
        let t = table_mod7();
        let mut exec = RoundExecutor::new(
            &t,
            ExecOptions {
                record_transcript: true,
                ..ExecOptions::serialized()
            },
        );
        let addrs: Vec<Address> = (0..5).map(|i| Address::with_u64(0, i)).collect();
        let words = exec.round(&addrs);
        let _ = exec.round(&[Address::with_u64(0, 9)]);
        let (ledger, transcript) = exec.finish();
        assert_eq!(ledger.per_round, vec![1; 6]);
        assert_eq!(ledger.rounds(), 6);
        assert_eq!(ledger.total_probes(), 6);
        // Contents identical to the batched execution.
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.to_u64(), (i as u64) % 7);
        }
        // Transcript rounds are strictly increasing single-probe rounds.
        let tr = transcript.unwrap();
        for (i, entry) in tr.0.iter().enumerate() {
            assert_eq!(entry.round, i);
        }
    }

    #[test]
    fn worst_case_merges_ledgers() {
        let a = ProbeLedger {
            per_round: vec![3, 1],
            word_bits_read: 64,
            max_word_bits: 32,
            address_bits_sent: 100,
        };
        let b = ProbeLedger {
            per_round: vec![1, 4, 2],
            word_bits_read: 50,
            max_word_bits: 40,
            address_bits_sent: 90,
        };
        let m = a.worst_case(&b);
        assert_eq!(m.per_round, vec![3, 4, 2]);
        assert_eq!(m.word_bits_read, 64);
        assert_eq!(m.max_word_bits, 40);
    }

    #[test]
    fn merge_sums_ledgers() {
        let mut acc = ProbeLedger {
            per_round: vec![3, 1],
            word_bits_read: 64,
            max_word_bits: 32,
            address_bits_sent: 100,
        };
        acc.merge(&ProbeLedger {
            per_round: vec![1, 4, 2],
            word_bits_read: 50,
            max_word_bits: 40,
            address_bits_sent: 90,
        });
        assert_eq!(acc.per_round, vec![4, 5, 2]);
        assert_eq!(acc.total_probes(), 11);
        assert_eq!(acc.word_bits_read, 114);
        assert_eq!(acc.max_word_bits, 40);
        assert_eq!(acc.address_bits_sent, 190);
        // Merging the empty ledger is a no-op.
        acc.merge(&ProbeLedger::default());
        assert_eq!(acc.per_round, vec![4, 5, 2]);
    }

    #[test]
    fn read_batch_handles_more_threads_than_addresses() {
        let t = table_mod7();
        let addrs: Vec<Address> = (0..3).map(|i| Address::with_u64(0, i)).collect();
        for threads in [0usize, 1, 2, 3, 64] {
            let words = read_batch(&t, &addrs, threads);
            let got: Vec<u64> = words.iter().map(Word::to_u64).collect();
            assert_eq!(got, vec![0, 1, 2], "threads={threads}");
        }
        assert!(read_batch(&t, &[], 8).is_empty());
    }

    #[test]
    fn read_batch_tiled_matches_untiled_for_every_tile_size() {
        let t = table_mod7();
        let addrs: Vec<Address> = (0..97).map(|i| Address::with_u64(0, i)).collect();
        let expect = read_batch(&t, &addrs, 1);
        for tile in [0usize, 1, 2, 7, 64, 97, 1000] {
            for threads in [1usize, 4] {
                let got = read_batch_tiled(&t, &addrs, threads, tile);
                assert_eq!(got, expect, "tile={tile} threads={threads}");
            }
        }
        assert!(read_batch_tiled(&t, &[], 4, 64).is_empty());
    }

    /// A two-round program: cell `q`, then the cell its word names.
    async fn chase(exec: &mut RoundExecutor<'_>, q: u64) -> u64 {
        let first = exec.round_async(&[Address::with_u64(0, q)]).await;
        let next = first[0].to_u64() + 10;
        exec.round_async(&[Address::with_u64(0, next), Address::with_u64(0, 1)])
            .await[0]
            .to_u64()
    }

    /// Drives one parked round program by hand, reading each parked round
    /// from `table`; returns the answer and the number of suspensions.
    fn drive<T>(
        table: &dyn Table,
        slot: &RoundSlot,
        fut: Pin<&mut dyn Future<Output = T>>,
    ) -> (T, usize) {
        let mut fut = fut;
        let mut suspensions = 0;
        loop {
            match poll_once(fut.as_mut()) {
                Poll::Ready(out) => return (out, suspensions),
                Poll::Pending => {
                    suspensions += 1;
                    let addrs = slot
                        .take_parked()
                        .expect("a suspended program parks a round");
                    slot.answer(read_batch(table, &addrs, 1));
                }
            }
        }
    }

    #[test]
    fn parked_executor_accounts_identically() {
        let t = table_mod7();
        let mut direct = RoundExecutor::new(&t, ExecOptions::with_transcript());
        let expect = block_on(chase(&mut direct, 9));
        let slot = RoundSlot::default();
        let mut parked = RoundExecutor::parked(&slot, ExecOptions::with_transcript());
        let (got, suspensions) = drive(&t, &slot, pin!(chase(&mut parked, 9)));
        assert_eq!((got, suspensions), (expect, 2));
        assert_eq!(direct.finish(), parked.finish());
    }

    #[test]
    fn replay_runs_blocking_programs_over_a_parked_executor() {
        let t = table_mod7();
        let blocking = |exec: &mut RoundExecutor<'_>| {
            let first = exec.round(&[Address::with_u64(0, 9)]);
            let next = first[0].to_u64() + 10;
            exec.round(&[Address::with_u64(0, next), Address::with_u64(0, 1)])[0].to_u64()
        };
        let mut direct = RoundExecutor::new(&t, ExecOptions::with_transcript());
        let expect = blocking(&mut direct);
        let slot = RoundSlot::default();
        let mut parked = RoundExecutor::parked(&slot, ExecOptions::with_transcript());
        let (got, suspensions) = drive(&t, &slot, pin!(parked.replay(blocking)));
        assert_eq!((got, suspensions), (expect, 2));
        assert_eq!(direct.finish(), parked.finish());
    }

    #[test]
    #[should_panic(expected = "a round's driver must answer every address")]
    fn short_answers_are_rejected() {
        let slot = RoundSlot::default();
        let mut exec = RoundExecutor::parked(&slot, ExecOptions::default());
        let addrs = [Address::with_u64(0, 0)];
        let mut fut = pin!(exec.round_async(&addrs));
        assert!(poll_once(fut.as_mut()).is_pending());
        assert!(slot.take_parked().is_some());
        slot.answer(Vec::new());
        let _ = poll_once(fut.as_mut());
    }

    #[test]
    fn table_base_shifts_every_probe() {
        let t = MaterializedTable::new(SpaceModel::from_exact_cells(4, 64));
        t.write(Address::with_u64(5, 0), Word::from_u64(99));
        let mut exec = RoundExecutor::new(&t, ExecOptions::with_transcript());
        assert_eq!(exec.set_table_base(5), 0);
        assert_eq!(exec.round(&[Address::with_u64(0, 0)])[0].to_u64(), 99);
        assert_eq!(exec.set_table_base(0), 5);
        let (_, transcript) = exec.finish();
        assert_eq!(transcript.unwrap().0[0].addr, Address::with_u64(5, 0));
    }
}
