//! **Algorithm 1** — the simple k-round scheme (Theorem 2 / §3.1).
//!
//! The algorithm maintains thresholds `l < u` with the invariant
//! `C_l = ∅ ∧ C_u ≠ ∅` (initially `l = 0, u = ⌈log_α d⌉`: `C_0 ⊆ B_1 = ∅`
//! by Assumption 1+2 and `C_top ⊇ B_top = B`). Each *shrinking round* probes
//! the `τ−1` interior grid points `ρ(r) = ⌊l + r(u−l)/τ⌋` in parallel and
//! jumps to the first non-empty one, cutting the gap to `≤ (u−l)/τ + 1`.
//! Once the gap drops below `τ`, the *completion round* probes every
//! remaining scale at once and returns the point stored at the first
//! non-empty `C_{i*}`; by the sandwich `B_{i*−1} ⊆ C_{i*−1} = ∅` and
//! `C_{i*} ⊆ B_{i*+1}`, that point is a `γ = α²`-approximate nearest
//! neighbor.
//!
//! With `τ` chosen so `τ·(τ/2)^{k−1} ≥ ⌈log_α d⌉` ([`choose_tau_alg1`])
//! there are at most `k−1` shrinking rounds, giving `k` rounds and
//! `O(k·(log d)^{1/k})` probes total. The two degenerate-case probes
//! (`x ∈ B?`, `x ∈ N1(B)?`) ride along in the first round, exactly as in
//! the paper.

use anns_cellprobe::{block_on, Address, CellProbeScheme, RoundExecutor, Table};

use crate::instance::AnnsInstance;
use crate::outcome::{decode_t_cell, OutcomeKind, QueryOutcome};

/// Smallest grid width `τ ≥ 2` with `τ·(τ/2)^{k−1} ≥ top` — the paper's
/// requirement guaranteeing at most `k−1` shrinking rounds (§3.1 sets
/// `τ = c'·(log d)^{1/k}` for a constant `c' ≥ log_α 4`; solving the actual
/// inequality gives the same `Θ((log d)^{1/k})` growth without slack).
///
/// For `k = 1` returns `top + 1`, so the algorithm is a single
/// (non-adaptive) completion round over all scales — the `O(log d)` 1-round
/// scheme the paper contrasts with LSH.
pub fn choose_tau_alg1(top: u32, k: u32) -> u32 {
    assert!(k >= 1, "at least one round");
    if k == 1 {
        return top + 1;
    }
    let target = f64::from(top.max(1));
    let mut tau = 2u32;
    loop {
        let val = f64::from(tau) * (f64::from(tau) / 2.0).powi(k as i32 - 1);
        if val >= target {
            return tau;
        }
        tau += 1;
    }
}

/// Runs Algorithm 1 for `k` rounds against any instance backend: the
/// blocking form of [`alg1_async`].
pub fn alg1<I: AnnsInstance>(
    instance: &I,
    query: &I::Query,
    k: u32,
    tau_override: Option<u32>,
    exec: &mut RoundExecutor<'_>,
) -> QueryOutcome {
    block_on(alg1_async(instance, query, k, tau_override, exec))
}

/// Algorithm 1 as a round program: `k` rounds against any instance
/// backend.
///
/// `tau_override` forces a grid width (used by the fully-adaptive baseline,
/// `τ = 2`, and by the A2 τ-sensitivity ablation); `None` uses
/// [`choose_tau_alg1`].
pub async fn alg1_async<I: AnnsInstance>(
    instance: &I,
    query: &I::Query,
    k: u32,
    tau_override: Option<u32>,
    exec: &mut RoundExecutor<'_>,
) -> QueryOutcome {
    let top = instance.top();
    let tau = tau_override.unwrap_or_else(|| choose_tau_alg1(top, k));
    assert!(tau >= 2, "grid width must be at least 2");
    let degen = instance.degen_addresses(query);
    let mut l: u32 = 0;
    let mut u: u32 = top;
    let mut first_round = true;
    // Defensive cap: the gap strictly shrinks every round, so `top + 2`
    // rounds are impossible unless an (error-injected) oracle breaks the
    // invariant; bail out rather than loop.
    let mut rounds_left = top + 2;
    loop {
        let completing = u - l < tau;
        // Scales probed this round.
        let scales: Vec<u32> = if completing {
            (l + 1..=u).collect()
        } else {
            let gap = u64::from(u - l);
            (1..tau)
                .map(|r| l + ((u64::from(r) * gap) / u64::from(tau)) as u32)
                .collect()
        };
        let mut addrs: Vec<Address> = Vec::with_capacity(scales.len() + 2);
        let degen_probes = if first_round {
            if let Some(two) = &degen {
                addrs.extend(two.iter().cloned());
                2
            } else {
                0
            }
        } else {
            0
        };
        addrs.extend(scales.iter().map(|&i| instance.t_address(query, i)));
        let words = exec.round_async(&addrs).await;
        if degen_probes == 2 {
            // Degenerate hits take precedence: they are exact / distance-1
            // answers and short-circuit the main search.
            if let Some((index, _)) = decode_t_cell(&words[0]) {
                return QueryOutcome {
                    kind: OutcomeKind::Exact { index },
                };
            }
            if let Some((index, point)) = decode_t_cell(&words[1]) {
                return QueryOutcome {
                    kind: OutcomeKind::NearOne { index, point },
                };
            }
        }
        first_round = false;
        let cells = &words[degen_probes..];
        if completing {
            for (pos, word) in cells.iter().enumerate() {
                if let Some((index, point)) = decode_t_cell(word) {
                    return QueryOutcome {
                        kind: OutcomeKind::AtScale {
                            scale: scales[pos],
                            index,
                            point,
                        },
                    };
                }
            }
            // Possible only when the sketch assumptions failed: C_u read
            // empty although the invariant said otherwise.
            return QueryOutcome {
                kind: OutcomeKind::NotFound,
            };
        }
        // Shrinking round: r* = smallest r with C_ρ(r) ≠ ∅, else τ.
        let r_star = cells
            .iter()
            .position(|w| decode_t_cell(w).is_some())
            .map(|pos| pos as u32 + 1)
            .unwrap_or(tau);
        let gap = u64::from(u - l);
        let rho = |r: u32| l + ((u64::from(r) * gap) / u64::from(tau)) as u32;
        let (new_l, new_u) = (rho(r_star - 1), rho(r_star));
        debug_assert!(new_l < new_u, "grid points must be distinct when gap ≥ τ");
        debug_assert!(new_u - new_l <= (u - l) / tau + 1, "paper's gap bound");
        l = new_l;
        u = new_u;
        rounds_left -= 1;
        if rounds_left == 0 {
            return QueryOutcome {
                kind: OutcomeKind::NotFound,
            };
        }
    }
}

/// [`CellProbeScheme`] adapter for Algorithm 1, so executions share the
/// uniform ledger accounting of `anns-cellprobe`.
pub struct Alg1Scheme<'a, I: AnnsInstance> {
    /// The instance to query.
    pub instance: &'a I,
    /// Round budget `k ≥ 1`.
    pub k: u32,
    /// Optional grid-width override (see [`alg1`]).
    pub tau_override: Option<u32>,
}

impl<I: AnnsInstance> CellProbeScheme for Alg1Scheme<'_, I> {
    type Query = I::Query;
    type Answer = QueryOutcome;

    fn table(&self) -> &dyn Table {
        self.instance.table()
    }

    fn word_bits(&self) -> u64 {
        self.instance.word_bits()
    }

    async fn run_async(&self, query: &Self::Query, exec: &mut RoundExecutor<'_>) -> QueryOutcome {
        alg1_async(self.instance, query, self.k, self.tau_override, exec).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{ErrorModel, SyntheticInstance, SyntheticProfile};
    use anns_cellprobe::execute;

    fn run_k(inst: &SyntheticInstance, k: u32) -> (QueryOutcome, anns_cellprobe::ProbeLedger) {
        let scheme = Alg1Scheme {
            instance: inst,
            k,
            tau_override: None,
        };
        execute(&scheme, &())
    }

    #[test]
    fn finds_the_planted_scale_for_every_k() {
        let top = 40u32;
        for i0 in [2u32, 3, 17, 39, 40] {
            let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, i0, 20.0), 2.0);
            for k in 1..=10u32 {
                let (outcome, ledger) = run_k(&inst, k);
                assert_eq!(
                    outcome.scale(),
                    Some(i0),
                    "k={k}, i0={i0}: wrong scale ({outcome:?})"
                );
                assert!(
                    ledger.rounds() <= k as usize,
                    "k={k}, i0={i0}: used {} rounds",
                    ledger.rounds()
                );
            }
        }
    }

    #[test]
    fn round_budget_is_respected_at_large_top() {
        // top = 2000 ≈ log_α d for d ≈ 2^1000 at α = √2: far beyond
        // concrete instances — the point of the synthetic backend.
        let top = 2000u32;
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 747, 64.0), 2.0);
        for k in 1..=14u32 {
            let (outcome, ledger) = run_k(&inst, k);
            assert_eq!(outcome.scale(), Some(747), "k={k}");
            assert!(
                ledger.rounds() <= k as usize,
                "k={k}: rounds {}",
                ledger.rounds()
            );
        }
    }

    #[test]
    fn probe_totals_track_k_times_tau() {
        // Worst-case probes ≤ (k−1)·(τ−1) + (τ−1): each round probes at
        // most τ−1 cells (no degenerate probes in synthetic mode).
        let top = 500u32;
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 100, 32.0), 2.0);
        for k in 2..=10u32 {
            let tau = choose_tau_alg1(top, k);
            let (_, ledger) = run_k(&inst, k);
            assert!(
                ledger.max_round_probes() <= (tau - 1) as usize,
                "k={k}: round width {} exceeds τ−1 = {}",
                ledger.max_round_probes(),
                tau - 1
            );
            assert!(
                ledger.total_probes() <= (k * (tau - 1)) as usize,
                "k={k}: {} probes",
                ledger.total_probes()
            );
        }
    }

    #[test]
    fn k_equals_one_is_nonadaptive_full_scan_of_scales() {
        let top = 64u32;
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 9, 16.0), 2.0);
        let (outcome, ledger) = run_k(&inst, 1);
        assert_eq!(outcome.scale(), Some(9));
        assert_eq!(ledger.rounds(), 1, "k=1 must be non-adaptive");
        assert_eq!(ledger.total_probes(), top as usize, "reads scales 1..=top");
    }

    #[test]
    fn tau_override_two_gives_binary_search() {
        // τ = 2 degenerates into adaptive binary search: 1 probe per round,
        // ~log₂(top) rounds — the fully-adaptive O(log log d) regime.
        let top = 1024u32;
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 100, 16.0), 2.0);
        let scheme = Alg1Scheme {
            instance: &inst,
            k: 30,
            tau_override: Some(2),
        };
        let (outcome, ledger) = execute(&scheme, &());
        assert_eq!(outcome.scale(), Some(100));
        assert_eq!(ledger.max_round_probes(), 1);
        assert!(
            ledger.rounds() <= 12,
            "binary search should need ≈ log₂ 1024 rounds, used {}",
            ledger.rounds()
        );
    }

    #[test]
    fn choose_tau_satisfies_paper_inequality_and_is_minimal() {
        for top in [4u32, 40, 400, 4000] {
            for k in 2..=12u32 {
                let tau = choose_tau_alg1(top, k);
                let val = |t: u32| f64::from(t) * (f64::from(t) / 2.0).powi(k as i32 - 1);
                assert!(val(tau) >= f64::from(top), "top={top}, k={k}");
                if tau > 2 {
                    assert!(
                        val(tau - 1) < f64::from(top),
                        "not minimal: top={top}, k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn tau_shrinks_as_k_grows() {
        let top = 2000u32;
        let mut prev = u32::MAX;
        for k in 1..=16u32 {
            let tau = choose_tau_alg1(top, k);
            assert!(tau <= prev, "τ must be non-increasing in k");
            prev = tau;
        }
        assert_eq!(choose_tau_alg1(top, 1), top + 1);
    }

    #[test]
    fn geometric_profiles_are_also_solved() {
        let inst = SyntheticInstance::new(SyntheticProfile::geometric(200, 23, 0.5, 40.0), 2.0);
        for k in 1..=8u32 {
            let (outcome, _) = run_k(&inst, k);
            assert_eq!(outcome.scale(), Some(23), "k={k}");
        }
    }

    #[test]
    fn heavy_errors_degrade_gracefully_not_catastrophically() {
        // With flip probability 0 the answer is exact; the error path must
        // terminate and return *something* (possibly NotFound) without
        // panicking or looping.
        let profile = SyntheticProfile::point_mass(100, 37, 24.0);
        for flip in [0.0f64, 0.2, 0.8] {
            let inst = SyntheticInstance::with_errors(
                profile.clone(),
                2.0,
                ErrorModel {
                    flip_probability: flip,
                    seed: 5,
                },
            );
            let (outcome, ledger) = run_k(&inst, 4);
            assert!(ledger.rounds() <= 102);
            if flip == 0.0 {
                assert_eq!(outcome.scale(), Some(37));
            }
        }
    }
}
