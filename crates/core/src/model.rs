//! The engine-facing (internal actor) join interface.

use crate::state::{PPlanState, SummaryState};
use fudj_types::{ExtValue, Result};
use std::fmt;

/// A bucket identifier — the paper's `bucket_id`. Joins may pack structure
/// into it (the interval join packs two granule ids), but the engine only
/// ever hashes and compares it.
pub type BucketId = u64;

/// Which input of the join a per-side function call concerns. Several FUDJ
/// functions come in left/right flavors because the two key types can differ
/// (paper §IV-A: "the framework allows two versions ... one for each side").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    Left,
    Right,
}

impl Side {
    /// The other side.
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "left"),
            Side::Right => write!(f, "right"),
        }
    }
}

/// Duplicate-handling strategy for multi-assign joins (§III-B, §VII-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DedupMode {
    /// The join is single-assign: duplicates cannot arise; skip dedup.
    None,
    /// Default: *duplicate avoidance* — the framework re-runs `assign` on
    /// both keys and emits a pair only from its first matching bucket pair.
    Avoidance,
    /// *Duplicate elimination* — the engine removes duplicate output pairs
    /// in an extra post-join stage (costs a shuffle; Fig. 12a measures it).
    Elimination,
    /// The library overrides `dedup` with its own avoidance predicate (e.g.
    /// PBSM's reference-point method, Fig. 12b).
    Custom,
}

/// The type-erased join algorithm the engine executes — the paper's set of
/// *internal actors*. `fudj_exec` and the standalone runner drive this
/// interface; user code implements the typed [`crate::FlexibleJoin`] instead
/// and is adapted by [`crate::ProxyJoin`].
pub trait JoinAlgorithm: Send + Sync {
    /// The join's registered name (diagnostics only).
    fn name(&self) -> &str;

    // ------------------------------------------------------------------
    // SUMMARIZE
    // ------------------------------------------------------------------

    /// Fresh (identity) summary for one side.
    fn new_summary(&self, side: Side) -> SummaryState;

    /// Fold one key into a local summary — the paper's `local_aggregate`.
    fn local_aggregate(&self, side: Side, key: &ExtValue, summary: &mut SummaryState)
        -> Result<()>;

    /// Merge two partial summaries — the paper's `global_aggregate`.
    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState>;

    /// Whether both sides share summarize/assign logic. When true, the
    /// optimizer may summarize a self-join once and replicate the result
    /// (§VI-C's first physical optimization).
    fn symmetric(&self) -> bool;

    // ------------------------------------------------------------------
    // DIVIDE
    // ------------------------------------------------------------------

    /// Combine the two global summaries and the query parameters into the
    /// partitioning plan.
    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[ExtValue],
    ) -> Result<PPlanState>;

    // ------------------------------------------------------------------
    // PARTITION
    // ------------------------------------------------------------------

    /// Bucket ids for a key under the plan, appended to `out` (reused across
    /// calls to keep the hot path allocation-free). One id = single-assign;
    /// several = multi-assign.
    fn assign(
        &self,
        side: Side,
        key: &ExtValue,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()>;

    // ------------------------------------------------------------------
    // COMBINE
    // ------------------------------------------------------------------

    /// Whether two buckets should be joined. The default is equality, which
    /// lets the optimizer pick hash partitioning + hash join (§VI-C's second
    /// physical optimization); overriding makes the join a theta multi-join
    /// handled by NLJ bucket matching.
    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        b1 == b2
    }

    /// Whether `matches` is the default equality. Libraries overriding
    /// `matches` must return false so the optimizer stops assuming hash
    /// join applies.
    fn uses_default_match(&self) -> bool {
        true
    }

    /// Whether a record pair from matched buckets belongs in the result.
    fn verify(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        b2: BucketId,
        k2: &ExtValue,
        pplan: &PPlanState,
    ) -> Result<bool>;

    /// Verify every pair of one matched bucket pair, calling `emit(i, j)`
    /// for each accepted `(left[i], right[j])` in row-major order. Engines
    /// call this once per bucket pair so each key crosses the boundary
    /// once, not once per pair. The default is the nested loop over
    /// [`Self::verify`]; an override must keep its pairs, order and first
    /// error.
    fn verify_pairs(
        &self,
        b1: BucketId,
        left: &[ExtValue],
        b2: BucketId,
        right: &[ExtValue],
        pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        for (i, k1) in left.iter().enumerate() {
            for (j, k2) in right.iter().enumerate() {
                if self.verify(b1, k1, b2, k2, pplan)? {
                    emit(i, j);
                }
            }
        }
        Ok(())
    }

    /// Duplicate-handling strategy.
    fn dedup_mode(&self) -> DedupMode {
        DedupMode::Avoidance
    }

    /// Custom dedup predicate, consulted only when [`Self::dedup_mode`] is
    /// [`DedupMode::Custom`]: return true iff the pair should be emitted
    /// from this bucket pair.
    fn dedup(
        &self,
        _b1: BucketId,
        _k1: &ExtValue,
        _b2: BucketId,
        _k2: &ExtValue,
        _pplan: &PPlanState,
    ) -> Result<bool> {
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Guardrail hooks (PR 3)
    // ------------------------------------------------------------------

    /// Exclusive upper bound of the bucket-id range this plan may assign
    /// into, when the library declares one. `None` (the default) disables
    /// the guard layer's range check.
    fn declared_buckets(&self, _pplan: &PPlanState) -> Option<BucketId> {
        None
    }

    /// The guardrail handle, when this algorithm is a
    /// [`crate::guard::GuardedJoin`] (or forwards to one). Engines use it to
    /// surface [`crate::guard::UdfStats`], flush deferred violations, and
    /// decide fallback behavior.
    fn guard(&self) -> Option<&crate::guard::GuardHandle> {
        None
    }
}

/// Forward the whole [`JoinAlgorithm`] surface through a smart pointer or
/// reference, so guards and runners can wrap `Arc<dyn JoinAlgorithm>` and
/// `&dyn JoinAlgorithm` alike.
macro_rules! forward_join_algorithm {
    (($($gen:tt)*), $ty:ty) => {
        impl<$($gen)*> JoinAlgorithm for $ty {
            fn name(&self) -> &str {
                (**self).name()
            }
            fn new_summary(&self, side: Side) -> SummaryState {
                (**self).new_summary(side)
            }
            fn local_aggregate(
                &self,
                side: Side,
                key: &ExtValue,
                summary: &mut SummaryState,
            ) -> Result<()> {
                (**self).local_aggregate(side, key, summary)
            }
            fn global_aggregate(
                &self,
                side: Side,
                a: SummaryState,
                b: SummaryState,
            ) -> Result<SummaryState> {
                (**self).global_aggregate(side, a, b)
            }
            fn symmetric(&self) -> bool {
                (**self).symmetric()
            }
            fn divide(
                &self,
                left: &SummaryState,
                right: &SummaryState,
                params: &[ExtValue],
            ) -> Result<PPlanState> {
                (**self).divide(left, right, params)
            }
            fn assign(
                &self,
                side: Side,
                key: &ExtValue,
                pplan: &PPlanState,
                out: &mut Vec<BucketId>,
            ) -> Result<()> {
                (**self).assign(side, key, pplan, out)
            }
            fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
                (**self).matches(b1, b2)
            }
            fn uses_default_match(&self) -> bool {
                (**self).uses_default_match()
            }
            fn verify(
                &self,
                b1: BucketId,
                k1: &ExtValue,
                b2: BucketId,
                k2: &ExtValue,
                pplan: &PPlanState,
            ) -> Result<bool> {
                (**self).verify(b1, k1, b2, k2, pplan)
            }
            fn verify_pairs(
                &self,
                b1: BucketId,
                left: &[ExtValue],
                b2: BucketId,
                right: &[ExtValue],
                pplan: &PPlanState,
                emit: &mut dyn FnMut(usize, usize),
            ) -> Result<()> {
                (**self).verify_pairs(b1, left, b2, right, pplan, emit)
            }
            fn dedup_mode(&self) -> DedupMode {
                (**self).dedup_mode()
            }
            fn dedup(
                &self,
                b1: BucketId,
                k1: &ExtValue,
                b2: BucketId,
                k2: &ExtValue,
                pplan: &PPlanState,
            ) -> Result<bool> {
                (**self).dedup(b1, k1, b2, k2, pplan)
            }
            fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
                (**self).declared_buckets(pplan)
            }
            fn guard(&self) -> Option<&crate::guard::GuardHandle> {
                (**self).guard()
            }
        }
    };
}

forward_join_algorithm!(('a, T: JoinAlgorithm + ?Sized), &'a T);
forward_join_algorithm!((T: JoinAlgorithm + ?Sized), std::sync::Arc<T>);

/// The framework's default duplicate-avoidance predicate (§IV-C): re-run
/// `assign` on both keys, enumerate matching bucket pairs in a canonical
/// order, and accept only when `(b1, b2)` is the first one. Every engine
/// (distributed and standalone) shares this implementation, so avoidance
/// semantics cannot drift between them.
pub fn avoidance_accepts(
    alg: &dyn JoinAlgorithm,
    b1: BucketId,
    k1: &ExtValue,
    b2: BucketId,
    k2: &ExtValue,
    pplan: &PPlanState,
) -> Result<bool> {
    let mut left = Vec::new();
    let mut right = Vec::new();
    alg.assign(Side::Left, k1, pplan, &mut left)?;
    alg.assign(Side::Right, k2, pplan, &mut right)?;
    left.sort_unstable();
    left.dedup();
    right.sort_unstable();
    right.dedup();
    for &x in &left {
        for &y in &right {
            if alg.matches(x, y) {
                return Ok((x, y) == (b1, b2));
            }
        }
    }
    // No matching bucket pair at all: the pair should never have met; drop.
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_flip() {
        assert_eq!(Side::Left.flip(), Side::Right);
        assert_eq!(Side::Right.flip(), Side::Left);
        assert_eq!(Side::Left.to_string(), "left");
    }

    #[test]
    fn dedup_mode_is_copy_eq() {
        let m = DedupMode::Avoidance;
        let n = m;
        assert_eq!(m, n);
        assert_ne!(DedupMode::None, DedupMode::Custom);
    }
}
