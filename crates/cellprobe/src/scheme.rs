//! The scheme trait: one interface for every algorithm in the workspace.
//!
//! A cell-probing scheme `(A, T)` (paper §2) is a table structure plus a
//! query algorithm. [`CellProbeScheme`] packages both: the scheme owns its
//! table oracle and its query logic; [`execute`] wires them through a
//! [`RoundExecutor`] so Algorithms 1/2, λ-ANNS, LSH and the baselines are
//! all measured by the same ledger.
//!
//! The query logic is a *round program*: an async function that awaits
//! one [`RoundExecutor::round_async`] per round. Solo execution reads each
//! round in place, so the program runs straight through; the serving
//! engine polls many programs on one thread and answers their rounds
//! together. Both run the same code, so both account identically.

use std::future::Future;

use crate::executor::{block_on, ExecOptions, ProbeLedger, RoundExecutor, Transcript};
use crate::table::Table;

/// A static data structure plus its query algorithm.
pub trait CellProbeScheme {
    /// Query type (`x ∈ A` in the paper's notation).
    type Query;
    /// Answer type (`z ∈ C`).
    type Answer;

    /// The table oracle this scheme probes.
    fn table(&self) -> &dyn Table;

    /// Declared word size `w` in bits; enforced by the executor.
    fn word_bits(&self) -> u64;

    /// The query algorithm as a round program. All table access must go
    /// through `exec`.
    fn run_async(
        &self,
        query: &Self::Query,
        exec: &mut RoundExecutor<'_>,
    ) -> impl Future<Output = Self::Answer>;

    /// The blocking form of [`CellProbeScheme::run_async`] (see
    /// [`block_on`]).
    fn run(&self, query: &Self::Query, exec: &mut RoundExecutor<'_>) -> Self::Answer {
        block_on(self.run_async(query, exec))
    }
}

/// Runs one query with default options, returning answer + accounting.
pub fn execute<S: CellProbeScheme>(scheme: &S, query: &S::Query) -> (S::Answer, ProbeLedger) {
    let (answer, ledger, _) = execute_with(scheme, query, ExecOptions::default());
    (answer, ledger)
}

/// Runs one query with explicit options; the declared word size is always
/// enforced on top of whatever the options say.
pub fn execute_with<S: CellProbeScheme>(
    scheme: &S,
    query: &S::Query,
    opts: ExecOptions,
) -> (S::Answer, ProbeLedger, Option<Transcript>) {
    let mut exec = RoundExecutor::new(scheme.table(), opts.capped(scheme.word_bits()));
    let answer = scheme.run(query, &mut exec);
    let (ledger, transcript) = exec.finish();
    (answer, ledger, transcript)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceModel;
    use crate::table::{Address, MaterializedTable};
    use crate::word::Word;

    /// Toy scheme: table stores f(i) = 3i; query x is answered by reading
    /// cell x, then cell f(x) — two adaptive rounds of one probe each.
    struct Toy {
        table: MaterializedTable,
    }

    impl Toy {
        fn new() -> Self {
            let table = MaterializedTable::new(SpaceModel::from_exact_cells(64, 64));
            for i in 0..64u64 {
                table.write(Address::with_u64(0, i), Word::from_u64(3 * i));
            }
            Toy { table }
        }
    }

    impl CellProbeScheme for Toy {
        type Query = u64;
        type Answer = u64;

        fn table(&self) -> &dyn Table {
            &self.table
        }

        fn word_bits(&self) -> u64 {
            64
        }

        async fn run_async(&self, query: &u64, exec: &mut RoundExecutor<'_>) -> u64 {
            let first = exec.round_async(&[Address::with_u64(0, *query)]).await;
            let mid = first[0].to_u64() % 64;
            let second = exec.round_async(&[Address::with_u64(0, mid)]).await;
            second[0].to_u64()
        }
    }

    #[test]
    fn execute_returns_answer_and_ledger() {
        let scheme = Toy::new();
        let (answer, ledger) = execute(&scheme, &5);
        assert_eq!(answer, 45); // 3 * (3*5 % 64)
        assert_eq!(ledger.per_round, vec![1, 1]);
        assert_eq!(ledger.rounds(), 2);
    }

    #[test]
    fn execute_with_transcript() {
        let scheme = Toy::new();
        let (_, _, transcript) = execute_with(&scheme, &2, ExecOptions::with_transcript());
        let tr = transcript.unwrap();
        assert_eq!(tr.0.len(), 2);
        assert_eq!(tr.0[0].round, 0);
        assert_eq!(tr.0[1].round, 1);
    }

    #[test]
    fn declared_word_size_is_enforced_automatically() {
        // A scheme that lies about its word size panics on execution.
        struct Liar {
            table: MaterializedTable,
        }
        impl CellProbeScheme for Liar {
            type Query = ();
            type Answer = ();
            fn table(&self) -> &dyn Table {
                &self.table
            }
            fn word_bits(&self) -> u64 {
                8
            }
            async fn run_async(&self, _q: &(), exec: &mut RoundExecutor<'_>) {
                let _ = exec.round_async(&[Address::with_u64(0, 0)]).await;
            }
        }
        let table = MaterializedTable::new(SpaceModel::from_exact_cells(1, 8));
        table.write(Address::with_u64(0, 0), Word::from_bytes(vec![0; 10]));
        let liar = Liar { table };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&liar, &())));
        assert!(result.is_err(), "oversized word must be rejected");
    }
}
