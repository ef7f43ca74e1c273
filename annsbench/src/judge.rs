//! Off-the-clock answer judging against exact distances.

use anns_core::serve::ServedAnswer;
use anns_core::AnnIndex;
use anns_hamming::{k_nearest, Dataset, Point};

use crate::fixture::{GAMMA, LAMBDA};

/// The λ-ANNS promise: a returned point lies within γλ of the query, and
/// "no point" is a valid answer only when none lies within λ.
pub fn lambda_ok(ds: &Dataset, query: &Point, index: Option<u64>) -> bool {
    match index {
        Some(i) => usize::try_from(i)
            .ok()
            .filter(|&i| i < ds.len())
            .is_some_and(|i| f64::from(query.distance(ds.point(i))) <= GAMMA * LAMBDA),
        None => f64::from(k_nearest(ds, query, 1)[0].distance) > LAMBDA,
    }
}

/// Algorithm 1/2 outcomes must be γ-approximate nearest neighbours; λ
/// answers must keep the λ-ANNS promise.
pub fn served_ok(index: &AnnIndex, query: &Point, answer: &ServedAnswer) -> bool {
    match answer {
        ServedAnswer::Outcome(outcome) => index.verify_gamma(query, outcome),
        other => lambda_ok(index.dataset(), query, other.index()),
    }
}
