//! A k-round cell-probing scheme for LPM itself.
//!
//! The reduction (Lemma 14) transports ANNS *lower* bounds from LPM; this
//! module closes the loop from the other side with a direct LPM *upper*
//! bound in the same limited-adaptivity model. The structure mirrors
//! Algorithm 1 exactly, because LPM is the combinatorial core of the search
//! problem:
//!
//! * **table**: for every prefix length `ℓ`, a table `P_ℓ` mapping a
//!   length-`ℓ` prefix to a witness database string having that prefix (or
//!   `EMPTY`) — `n·m` populated cells over a `|Σ|^ℓ` address space,
//!   polynomial for the paper's parameters;
//! * **query**: `match(ℓ) := P_ℓ[x_{1..ℓ}] ≠ EMPTY` is monotone
//!   (non-increasing) in `ℓ`, so the maximal matching length — the LCP —
//!   is found by the same `τ`-way search over `0..m` in `k` rounds,
//!   `O(k·m^{1/k})` probes, `τ·(τ/2)^{k−1} ≥ m`.
//!
//! Together with Theorem 24 this brackets LPM's k-round complexity the same
//! way Theorems 2 and 4 bracket ANNS's.

use anns_cellprobe::{Address, CellProbeScheme, RoundExecutor, SpaceModel, Table, Word};
use std::collections::HashMap;

use crate::problem::{LpmInstance, LpmString};

/// Encodes a prefix as an address key.
fn prefix_key(prefix: &[u16]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(2 + prefix.len() * 2);
    bytes.extend_from_slice(&(prefix.len() as u16).to_le_bytes());
    for &c in prefix {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    bytes
}

/// The prefix tables plus the k-round query algorithm.
pub struct TrieLpm {
    instance: LpmInstance,
    /// `witness[ℓ]` maps a length-ℓ prefix to the lowest witness index.
    witness: Vec<HashMap<Vec<u16>, usize>>,
    /// Round budget `k ≥ 1`.
    pub k: u32,
}

impl TrieLpm {
    /// Builds the prefix tables (`O(n·m)` entries).
    pub fn build(instance: LpmInstance, k: u32) -> Self {
        assert!(k >= 1);
        let m = instance.m;
        let mut witness: Vec<HashMap<Vec<u16>, usize>> = vec![HashMap::new(); m + 1];
        for (idx, s) in instance.database.iter().enumerate() {
            for l in 0..=m {
                witness[l].entry(s[..l].to_vec()).or_insert(idx);
            }
        }
        TrieLpm {
            instance,
            witness,
            k,
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &LpmInstance {
        &self.instance
    }

    /// Grid width: smallest `τ ≥ 2` with `τ·(τ/2)^{k−1} ≥ m` (`m + 1` for
    /// `k = 1`, i.e. a single non-adaptive round over all lengths).
    pub fn tau(&self) -> u32 {
        let m = self.instance.m as u32;
        if self.k == 1 {
            return m + 1;
        }
        let mut tau = 2u32;
        loop {
            let val = f64::from(tau) * (f64::from(tau) / 2.0).powi(self.k as i32 - 1);
            if val >= f64::from(m.max(1)) {
                return tau;
            }
            tau += 1;
        }
    }
}

impl Table for TrieLpm {
    fn read(&self, addr: &Address) -> Word {
        // Table id = prefix length; key = the prefix.
        let l = addr.table as usize;
        let count = u16::from_le_bytes(addr.key[0..2].try_into().expect("prefix len")) as usize;
        let mut prefix = Vec::with_capacity(count);
        for c in addr.key[2..2 + count * 2].chunks_exact(2) {
            prefix.push(u16::from_le_bytes(c.try_into().expect("symbol")));
        }
        debug_assert_eq!(prefix.len(), l);
        match self.witness[l].get(&prefix) {
            Some(&idx) => {
                let mut bytes = vec![1u8];
                bytes.extend_from_slice(&(idx as u64).to_le_bytes());
                Word::from_bytes(bytes)
            }
            None => Word::from_bytes(vec![0]),
        }
    }

    fn space_model(&self) -> SpaceModel {
        // m+1 tables over |Σ|^ℓ addresses; the populated entries are n·m,
        // perfect-hashable into O((n·m)²) cells per the paper's degenerate
        // case treatment. Model the perfect-hash size.
        let nm = (self.instance.len() * (self.instance.m + 1)) as f64;
        SpaceModel::from_cells(2.0 * nm.log2(), 72)
    }
}

/// Decoded prefix-cell content.
fn decode_witness(word: &Word) -> Option<u64> {
    match word.bytes().first() {
        Some(0) => None,
        Some(1) => Some(u64::from_le_bytes(
            word.bytes()[1..9].try_into().expect("witness idx"),
        )),
        other => panic!("malformed prefix cell {other:?}"),
    }
}

impl CellProbeScheme for TrieLpm {
    type Query = LpmString;
    /// `(database index, lcp length)`.
    type Answer = (usize, usize);

    fn table(&self) -> &dyn Table {
        self
    }

    fn word_bits(&self) -> u64 {
        72
    }

    async fn run_async(&self, query: &LpmString, exec: &mut RoundExecutor<'_>) -> (usize, usize) {
        assert_eq!(query.len(), self.instance.m);
        let m = self.instance.m as u32;
        let tau = self.tau();
        // Invariant: match(l) holds, match(u) fails — except u = m+1 which
        // encodes "maybe even the full string matches". match(0) always
        // holds (the empty prefix is a prefix of everything).
        let mut l: u32 = 0;
        let mut u: u32 = m + 1;
        let mut best_witness: Option<u64> = None;
        loop {
            let completing = u - l < tau;
            let lengths: Vec<u32> = if completing {
                (l + 1..u).collect()
            } else {
                let gap = u64::from(u - l);
                (1..tau)
                    .map(|r| l + ((u64::from(r) * gap) / u64::from(tau)) as u32)
                    .collect()
            };
            if lengths.is_empty() {
                break;
            }
            let addrs: Vec<Address> = lengths
                .iter()
                .map(|&ell| Address::new(ell, prefix_key(&query[..ell as usize])))
                .collect();
            let words = exec.round_async(&addrs).await;
            if completing {
                // Largest matching length in (l, u).
                for (pos, word) in words.iter().enumerate().rev() {
                    if let Some(idx) = decode_witness(word) {
                        return (idx as usize, lengths[pos] as usize);
                    }
                }
                break;
            }
            // First failing grid point bounds u; last matching bounds l.
            let gap = u64::from(u - l);
            let rho = |r: u32| l + ((u64::from(r) * gap) / u64::from(tau)) as u32;
            let mut r_fail = tau;
            for (pos, word) in words.iter().enumerate() {
                match decode_witness(word) {
                    Some(idx) => best_witness = Some(idx),
                    None => {
                        r_fail = pos as u32 + 1;
                        break;
                    }
                }
            }
            let (new_l, new_u) = (rho(r_fail - 1), rho(r_fail));
            debug_assert!(new_l < new_u);
            l = new_l;
            u = new_u;
        }
        // The LCP is l; the witness probed at l (or 0: any string).
        match best_witness {
            Some(idx) if l > 0 => (idx as usize, l as usize),
            _ => {
                // lcp 0 (or the completion window closed on l): any string
                // attains it; return the stored witness of the empty/last
                // matching prefix.
                let idx = *self.witness[l as usize]
                    .get(&query[..l as usize])
                    .expect("matching prefix has a witness");
                (idx, l as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_cellprobe::execute;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_query(sigma: u16, m: usize, rng: &mut StdRng) -> LpmString {
        (0..m).map(|_| rng.gen_range(0..sigma)).collect()
    }

    #[test]
    fn matches_exhaustive_solver_for_every_k() {
        let mut rng = StdRng::seed_from_u64(1);
        let instance = LpmInstance::random(4, 8, 60, &mut rng);
        for k in 1..=6u32 {
            let trie = TrieLpm::build(instance.clone(), k);
            for _ in 0..40 {
                let q = random_query(4, 8, &mut rng);
                let ((idx, lcp), ledger) = execute(&trie, &q);
                let (_, expect_lcp) = instance.solve(&q);
                assert_eq!(lcp, expect_lcp, "k={k}, q={q:?}");
                assert!(instance.is_correct(&q, idx), "k={k}");
                assert!(ledger.rounds() <= k as usize, "k={k}");
            }
        }
    }

    #[test]
    fn probe_bound_is_k_times_tau() {
        let mut rng = StdRng::seed_from_u64(2);
        let instance = LpmInstance::random(3, 16, 40, &mut rng);
        for k in 1..=5u32 {
            let trie = TrieLpm::build(instance.clone(), k);
            let tau = trie.tau();
            let q = random_query(3, 16, &mut rng);
            let (_, ledger) = execute(&trie, &q);
            assert!(
                ledger.total_probes() <= (k * tau) as usize,
                "k={k}: {} probes vs k·τ = {}",
                ledger.total_probes(),
                k * tau
            );
        }
    }

    #[test]
    fn exact_member_gets_full_lcp() {
        let mut rng = StdRng::seed_from_u64(3);
        let instance = LpmInstance::random(5, 6, 30, &mut rng);
        let trie = TrieLpm::build(instance.clone(), 3);
        for i in [0usize, 7, 29] {
            let q = instance.database[i].clone();
            let ((idx, lcp), _) = execute(&trie, &q);
            assert_eq!(lcp, 6);
            assert_eq!(instance.database[idx], q);
        }
    }

    #[test]
    fn zero_lcp_queries_are_answered() {
        // A database over symbols {0,1} and a query starting with 2: lcp 0,
        // any index is correct.
        let instance = LpmInstance::new(3, 3, vec![vec![0, 0, 0], vec![1, 1, 1]]);
        let trie = TrieLpm::build(instance.clone(), 2);
        let ((idx, lcp), _) = execute(&trie, &vec![2, 0, 0]);
        assert_eq!(lcp, 0);
        assert!(idx < 2);
    }

    #[test]
    fn k1_is_one_nonadaptive_round() {
        let mut rng = StdRng::seed_from_u64(4);
        let instance = LpmInstance::random(4, 10, 20, &mut rng);
        let trie = TrieLpm::build(instance.clone(), 1);
        let q = random_query(4, 10, &mut rng);
        let ((_, lcp), ledger) = execute(&trie, &q);
        assert_eq!(ledger.rounds(), 1);
        assert_eq!(ledger.total_probes(), 10, "reads lengths 1..=m");
        assert_eq!(lcp, instance.solve(&q).1);
    }

    #[test]
    fn space_model_is_polynomial() {
        let mut rng = StdRng::seed_from_u64(5);
        let instance = LpmInstance::random(4, 6, 50, &mut rng);
        let trie = TrieLpm::build(instance, 2);
        assert!(trie.space_model().is_poly_in(50, 4.0));
    }
}
