//! The engine-side join strategy interface.
//!
//! The execution engine drives distributed joins through [`EngineJoin`], a
//! native-[`Value`] interface. Two families implement it:
//!
//! * [`FudjEngineJoin`] wraps a registered [`JoinAlgorithm`] (i.e. a user's
//!   FUDJ library behind its proxy). Every key crossing into user code is
//!   translated to an [`fudj_types::ExtValue`] first — the paper's Fig. 7
//!   boundary. The adapter counts those translations so the §VII-B overhead
//!   experiment can report the cost of the extensibility layer.
//! * Hand-written *built-in* operators (in the `fudj-joins` crate) implement
//!   `EngineJoin` directly on native values with concrete state types — the
//!   paper's from-scratch baseline, which FUDJ is benchmarked against.
//!
//! `EngineJoin` also exposes [`EngineJoin::local_join_pairs`], the per-bucket
//! local join. The default is the nested loop the plain FUDJ operator uses;
//! the §VII-F "advanced" spatial operator overrides it with a plane sweep.

use crate::model::{avoidance_accepts, BucketId, DedupMode, JoinAlgorithm, Side};
use crate::state::{PPlanState, SummaryState};
use fudj_types::{ext, Result, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Retry/recovery policy for the execution engine: how the cluster reacts
/// to failed tasks, lost shuffle partitions, and stragglers. Plain data,
/// defined here (next to the engine-facing join interface) so every layer
/// — executor, exchanges, SQL session, CLI — shares one vocabulary of
/// knobs without depending on the exec crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per task (and per partition delivery) before the
    /// failure escalates as a `FudjError`. The first attempt is free:
    /// `max_retries = 4` allows up to 5 executions.
    pub max_retries: u32,
    /// Base of the simulated exponential backoff: attempt `k` waits
    /// `backoff_base_ms << k` simulated milliseconds. The clock is
    /// simulated — no wall-clock sleeping, so chaos tests stay fast and
    /// decisions stay reproducible.
    pub backoff_base_ms: u64,
    /// A task whose simulated duration exceeds `straggler_multiple` × the
    /// median task duration of its batch is speculatively re-executed on
    /// another worker, and the faster copy wins.
    pub straggler_multiple: u32,
    /// Slowdown factor an injected straggler fault applies to a task's
    /// simulated duration.
    pub straggler_factor: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            backoff_base_ms: 10,
            straggler_multiple: 3,
            straggler_factor: 10,
        }
    }
}

/// Deterministic fault-injection configuration for the simulated cluster.
///
/// Every probability is an independent per-site chance in `[0, 1]`; the
/// site (seed, dispatch step, worker, task, attempt) fully determines each
/// decision, so a given seed always produces the identical fault schedule
/// regardless of thread scheduling or wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Root seed of the fault schedule.
    pub seed: u64,
    /// Chance a task attempt panics mid-flight (exercises the worker
    /// pool's unwind isolation).
    pub panic_prob: f64,
    /// Chance a task attempt fails with a transient (retryable) error.
    pub transient_prob: f64,
    /// Chance the worker running a task attempt is "lost"; the task is
    /// re-executed on the next surviving worker.
    pub worker_loss_prob: f64,
    /// Chance a whole worker dies *permanently* at a stage boundary
    /// (vs. the transient loss above): its resident partitions are gone
    /// and it takes no further tasks. Recovery restores the lost
    /// partitions from stage checkpoints when they cover the loss, and
    /// falls back to a full-stage replay otherwise.
    pub worker_death_prob: f64,
    /// Chance a task runs as a straggler (simulated slowdown by
    /// [`RetryPolicy::straggler_factor`], candidate for speculation).
    pub straggler_prob: f64,
    /// Chance a remote shuffle/broadcast/gather partition delivery is
    /// dropped (recovered by retransmission).
    pub drop_prob: f64,
    /// Chance a remote partition delivery is duplicated (recovered by
    /// receiver-side sequence dedup).
    pub duplicate_prob: f64,
    /// Retry/backoff/speculation policy.
    pub retry: RetryPolicy,
}

impl FaultConfig {
    /// A moderately hostile cluster: every fault class enabled at rates
    /// that exercise all recovery paths while staying comfortably inside
    /// the default retry budget.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            panic_prob: 0.04,
            transient_prob: 0.06,
            worker_loss_prob: 0.03,
            worker_death_prob: 0.0,
            straggler_prob: 0.08,
            drop_prob: 0.05,
            duplicate_prob: 0.05,
            retry: RetryPolicy::default(),
        }
    }

    /// [`FaultConfig::chaos`] plus permanent worker deaths at stage
    /// boundaries — the harshest plan: every recovery path including
    /// checkpoint restore / full-stage replay is exercised.
    pub fn chaos_with_deaths(seed: u64) -> Self {
        FaultConfig {
            worker_death_prob: 0.12,
            ..FaultConfig::chaos(seed)
        }
    }

    /// A fault plan that injects nothing — execution must be bit-for-bit
    /// identical to running with no plan at all.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            panic_prob: 0.0,
            transient_prob: 0.0,
            worker_loss_prob: 0.0,
            worker_death_prob: 0.0,
            straggler_prob: 0.0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            retry: RetryPolicy::default(),
        }
    }

    /// Whether any fault class has a non-zero probability.
    pub fn is_active(&self) -> bool {
        self.panic_prob > 0.0
            || self.transient_prob > 0.0
            || self.worker_loss_prob > 0.0
            || self.worker_death_prob > 0.0
            || self.straggler_prob > 0.0
            || self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
    }
}

/// A distributed partition-based join, as the engine sees it.
pub trait EngineJoin: Send + Sync {
    /// Name for plans and metrics.
    fn name(&self) -> &str;

    /// Fresh (identity) summary for one side.
    fn new_summary(&self, side: Side) -> SummaryState;

    /// Fold one key into a local summary.
    fn local_aggregate(&self, side: Side, key: &Value, summary: &mut SummaryState) -> Result<()>;

    /// Merge two partial summaries.
    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState>;

    /// Whether both sides share summarize/assign logic (self-join rewrite).
    fn symmetric(&self) -> bool;

    /// Build the partitioning plan from both summaries + query parameters.
    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[Value],
    ) -> Result<PPlanState>;

    /// Bucket ids for a key, appended to `out`.
    fn assign(
        &self,
        side: Side,
        key: &Value,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()>;

    /// Bucket ids for a whole key slice: `each(i, buckets)` is called once
    /// per key, in order, with that key's sorted, deduplicated bucket
    /// list. The columnar executor calls this once per partition stride
    /// instead of once per row, amortizing the call boundary the paper's
    /// §VII-B measures; batch-aware operators can override it to assign a
    /// slice in one pass. The default loops [`EngineJoin::assign`], so a
    /// guarded join keeps its per-call panic/violation attribution.
    fn assign_slice(
        &self,
        side: Side,
        keys: &[&Value],
        pplan: &PPlanState,
        each: &mut dyn FnMut(usize, &[BucketId]),
    ) -> Result<()> {
        let mut buckets: Vec<BucketId> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            buckets.clear();
            self.assign(side, key, pplan, &mut buckets)?;
            buckets.sort_unstable();
            buckets.dedup();
            each(i, &buckets);
        }
        Ok(())
    }

    /// Bucket matching (default equality).
    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        b1 == b2
    }

    /// Whether `matches` is the default equality (hash-join eligibility).
    fn uses_default_match(&self) -> bool {
        true
    }

    /// Record-pair verification.
    fn verify(
        &self,
        b1: BucketId,
        k1: &Value,
        b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool>;

    /// Duplicate-handling strategy.
    fn dedup_mode(&self) -> DedupMode {
        DedupMode::Avoidance
    }

    /// Dedup predicate for [`DedupMode::Avoidance`] and [`DedupMode::Custom`]:
    /// should the pair be emitted from this bucket pair?
    fn dedup(
        &self,
        b1: BucketId,
        k1: &Value,
        b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool>;

    /// Local join of one matched bucket pair: emit the indices of key pairs
    /// that pass `verify` (dedup is applied by the caller). The default is
    /// the nested loop; operators with local optimizations (plane sweep,
    /// sort-merge) override this — the §VII-F hook.
    fn local_join_pairs(
        &self,
        b1: BucketId,
        left_keys: &[Value],
        b2: BucketId,
        right_keys: &[Value],
        pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        for (i, k1) in left_keys.iter().enumerate() {
            for (j, k2) in right_keys.iter().enumerate() {
                if self.verify(b1, k1, b2, k2, pplan)? {
                    emit(i, j);
                }
            }
        }
        Ok(())
    }

    /// The guardrail handle, when the underlying algorithm is wrapped in a
    /// [`crate::guard::GuardedJoin`]. The executor uses it to surface
    /// [`crate::guard::UdfStats`], flush deferred violations, and decide
    /// fallback behavior.
    fn guard(&self) -> Option<&crate::guard::GuardHandle> {
        None
    }
}

/// Adapter: a registered FUDJ algorithm as an [`EngineJoin`].
///
/// Carries the [`Value`] → [`fudj_types::ExtValue`] translation and counts
/// every crossing of the boundary. COMBINE translates each key once per
/// matched bucket pair, not once per verified pair.
pub struct FudjEngineJoin {
    alg: Arc<dyn JoinAlgorithm>,
    translations: AtomicU64,
    /// Keeps the originating [`crate::registry::JoinDefinition`] pinned while
    /// a plan holds this strategy, so `DROP JOIN` fails cleanly instead of
    /// half-removing an entry a query still uses.
    _lease: Option<crate::registry::JoinLease>,
}

impl FudjEngineJoin {
    /// Wrap a registered algorithm.
    pub fn new(alg: Arc<dyn JoinAlgorithm>) -> Self {
        FudjEngineJoin {
            alg,
            translations: AtomicU64::new(0),
            _lease: None,
        }
    }

    /// Wrap a registered algorithm while holding a registry lease for the
    /// lifetime of this strategy (i.e. of the physical plan).
    pub fn with_lease(alg: Arc<dyn JoinAlgorithm>, lease: crate::registry::JoinLease) -> Self {
        FudjEngineJoin {
            alg,
            translations: AtomicU64::new(0),
            _lease: Some(lease),
        }
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &Arc<dyn JoinAlgorithm> {
        &self.alg
    }

    /// How many engine→external value translations have happened — the
    /// extensibility-boundary traffic the §VII-B experiment quantifies.
    pub fn translation_count(&self) -> u64 {
        self.translations.load(Ordering::Relaxed)
    }

    #[inline]
    fn xlate(&self, v: &Value) -> Result<fudj_types::ExtValue> {
        self.translations.fetch_add(1, Ordering::Relaxed);
        ext::to_external(v)
    }
}

impl EngineJoin for FudjEngineJoin {
    fn name(&self) -> &str {
        self.alg.name()
    }

    fn new_summary(&self, side: Side) -> SummaryState {
        self.alg.new_summary(side)
    }

    fn local_aggregate(&self, side: Side, key: &Value, summary: &mut SummaryState) -> Result<()> {
        let ek = self.xlate(key)?;
        self.alg.local_aggregate(side, &ek, summary)
    }

    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        self.alg.global_aggregate(side, a, b)
    }

    fn symmetric(&self) -> bool {
        self.alg.symmetric()
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[Value],
    ) -> Result<PPlanState> {
        let eparams: Vec<fudj_types::ExtValue> = params
            .iter()
            .map(|p| self.xlate(p))
            .collect::<Result<_>>()?;
        self.alg.divide(left, right, &eparams)
    }

    fn assign(
        &self,
        side: Side,
        key: &Value,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        let ek = self.xlate(key)?;
        self.alg.assign(side, &ek, pplan, out)
    }

    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        self.alg.matches(b1, b2)
    }

    fn uses_default_match(&self) -> bool {
        self.alg.uses_default_match()
    }

    fn verify(
        &self,
        b1: BucketId,
        k1: &Value,
        b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let e1 = self.xlate(k1)?;
        let e2 = self.xlate(k2)?;
        self.alg.verify(b1, &e1, b2, &e2, pplan)
    }

    fn dedup_mode(&self) -> DedupMode {
        self.alg.dedup_mode()
    }

    fn dedup(
        &self,
        b1: BucketId,
        k1: &Value,
        b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let e1 = self.xlate(k1)?;
        let e2 = self.xlate(k2)?;
        match self.alg.dedup_mode() {
            DedupMode::Custom => self.alg.dedup(b1, &e1, b2, &e2, pplan),
            _ => avoidance_accepts(self.alg.as_ref(), b1, &e1, b2, &e2, pplan),
        }
    }

    /// Each key of the bucket pair crosses the boundary once; the library
    /// then verifies every pair through [`JoinAlgorithm::verify_pairs`].
    fn local_join_pairs(
        &self,
        b1: BucketId,
        left_keys: &[Value],
        b2: BucketId,
        right_keys: &[Value],
        pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        // No pairs: translate nothing, as the per-pair loop would.
        if left_keys.is_empty() || right_keys.is_empty() {
            return Ok(());
        }
        self.translations.fetch_add(
            (left_keys.len() + right_keys.len()) as u64,
            Ordering::Relaxed,
        );
        let translate = |keys: &[Value]| -> Result<Vec<fudj_types::ExtValue>> {
            keys.iter().map(ext::to_external).collect()
        };
        let (left, right) = (translate(left_keys)?, translate(right_keys)?);
        self.alg.verify_pairs(b1, &left, b2, &right, pplan, emit)
    }

    fn guard(&self) -> Option<&crate::guard::GuardHandle> {
        self.alg.guard()
    }
}

/// Sequential reference execution of an [`EngineJoin`] over in-memory keys:
/// the [`crate::standalone`] runner's counterpart at the engine interface.
///
/// Returns sorted `(left_index, right_index)` result pairs. The distributed
/// engine must produce exactly this set for the same inputs — its tests use
/// this function as the oracle — and built-in operators are validated
/// against their FUDJ twins through it.
pub fn reference_execute(
    ej: &dyn EngineJoin,
    left_keys: &[Value],
    right_keys: &[Value],
    params: &[Value],
) -> Result<Vec<(usize, usize)>> {
    use std::collections::HashMap;

    // SUMMARIZE
    let mut ls = ej.new_summary(Side::Left);
    for k in left_keys {
        ej.local_aggregate(Side::Left, k, &mut ls)?;
    }
    let mut rs = ej.new_summary(Side::Right);
    for k in right_keys {
        ej.local_aggregate(Side::Right, k, &mut rs)?;
    }

    // DIVIDE
    let pplan = ej.divide(&ls, &rs, params)?;

    // PARTITION
    let mut scratch = Vec::new();
    let mut bucketize = |side: Side, keys: &[Value]| -> Result<HashMap<BucketId, Vec<usize>>> {
        let mut m: HashMap<BucketId, Vec<usize>> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            scratch.clear();
            ej.assign(side, k, &pplan, &mut scratch)?;
            scratch.sort_unstable();
            scratch.dedup();
            for &b in &scratch {
                m.entry(b).or_default().push(i);
            }
        }
        Ok(m)
    };
    let left_buckets = bucketize(Side::Left, left_keys)?;
    let right_buckets = bucketize(Side::Right, right_keys)?;

    // COMBINE
    let mut matched: Vec<(BucketId, BucketId)> = Vec::new();
    if ej.uses_default_match() {
        for &b in left_buckets.keys() {
            if right_buckets.contains_key(&b) {
                matched.push((b, b));
            }
        }
    } else {
        for &b1 in left_buckets.keys() {
            for &b2 in right_buckets.keys() {
                if ej.matches(b1, b2) {
                    matched.push((b1, b2));
                }
            }
        }
    }
    matched.sort_unstable();

    let mode = ej.dedup_mode();
    let mut out = Vec::new();
    for (b1, b2) in matched {
        let lefts = &left_buckets[&b1];
        let rights = &right_buckets[&b2];
        let lkeys: Vec<Value> = lefts.iter().map(|&i| left_keys[i].clone()).collect();
        let rkeys: Vec<Value> = rights.iter().map(|&j| right_keys[j].clone()).collect();
        let mut verified: Vec<(usize, usize)> = Vec::new();
        ej.local_join_pairs(b1, &lkeys, b2, &rkeys, &pplan, &mut |i, j| {
            verified.push((lefts[i], rights[j]));
        })?;
        for (i, j) in verified {
            let keep = match mode {
                DedupMode::None | DedupMode::Elimination => true,
                DedupMode::Avoidance | DedupMode::Custom => {
                    ej.dedup(b1, &left_keys[i], b2, &right_keys[j], &pplan)?
                }
            };
            if keep {
                out.push((i, j));
            }
        }
    }
    out.sort_unstable();
    if mode == DedupMode::Elimination {
        out.dedup();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flexible::{FlexibleJoin, ProxyJoin};
    use fudj_types::ExtValue;

    struct EqJoin;
    impl FlexibleJoin for EqJoin {
        type Summary = i64;
        type PPlan = i64;
        fn name(&self) -> &str {
            "eq"
        }
        fn summarize(&self, key: &ExtValue, s: &mut i64) -> Result<()> {
            *s = (*s).max(key.as_long()?.abs());
            Ok(())
        }
        fn merge_summaries(&self, a: i64, b: i64) -> i64 {
            a.max(b)
        }
        fn divide(&self, _: &i64, _: &i64, _: &[ExtValue]) -> Result<i64> {
            Ok(16)
        }
        fn assign(&self, key: &ExtValue, n: &i64, out: &mut Vec<BucketId>) -> Result<()> {
            out.push(key.as_long()?.rem_euclid(*n) as BucketId);
            Ok(())
        }
        fn verify(&self, k1: &ExtValue, k2: &ExtValue, _: &i64) -> Result<bool> {
            Ok(k1.as_long()? == k2.as_long()?)
        }
        fn dedup_mode(&self) -> DedupMode {
            DedupMode::None
        }
    }

    #[test]
    fn adapter_translates_and_counts() {
        let ej = FudjEngineJoin::new(Arc::new(ProxyJoin::new(EqJoin)));
        let mut s = ej.new_summary(Side::Left);
        ej.local_aggregate(Side::Left, &Value::Int64(42), &mut s)
            .unwrap();
        assert_eq!(ej.translation_count(), 1);

        let plan = ej.divide(&s, &s, &[]).unwrap();
        let mut out = Vec::new();
        ej.assign(Side::Left, &Value::Int64(18), &plan, &mut out)
            .unwrap();
        assert_eq!(out, vec![2]);
        assert!(ej
            .verify(2, &Value::Int64(18), 2, &Value::Int64(18), &plan)
            .unwrap());
        assert_eq!(ej.translation_count(), 4);

        // A PARTITION slice and a COMBINE bucket pair translate each key
        // once: 3 keys, then 2 + 3 keys for 6 verified pairs.
        let keys = [Value::Int64(1), Value::Int64(17), Value::Int64(2)];
        let mut buckets = Vec::new();
        ej.assign_slice(Side::Left, &keys.each_ref(), &plan, &mut |i, b| {
            buckets.push((i, b.to_vec()))
        })
        .unwrap();
        assert_eq!(buckets, vec![(0, vec![1]), (1, vec![1]), (2, vec![2])]);
        assert_eq!(ej.translation_count(), 7);
        let mut pairs = Vec::new();
        ej.local_join_pairs(1, &keys[..2], 1, &keys, &plan, &mut |i, j| {
            pairs.push((i, j))
        })
        .unwrap();
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
        assert_eq!(ej.translation_count(), 12);
    }

    #[test]
    fn default_local_join_is_verified_nested_loop() {
        let ej = FudjEngineJoin::new(Arc::new(ProxyJoin::new(EqJoin)));
        let s = ej.new_summary(Side::Left);
        let plan = ej.divide(&s, &s, &[]).unwrap();
        let left = vec![Value::Int64(1), Value::Int64(2)];
        let right = vec![Value::Int64(2), Value::Int64(1), Value::Int64(2)];
        let mut pairs = Vec::new();
        ej.local_join_pairs(0, &left, 0, &right, &plan, &mut |i, j| pairs.push((i, j)))
            .unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 0), (1, 2)]);
    }

    #[test]
    fn dedup_on_datetime_keys_goes_through_translation() {
        let ej = FudjEngineJoin::new(Arc::new(ProxyJoin::new(EqJoin)));
        let s = ej.new_summary(Side::Left);
        let plan = ej.divide(&s, &s, &[]).unwrap();
        // DateTime translates to Long; dedup (avoidance) accepts the single
        // matching bucket pair.
        let k = Value::DateTime(33);
        assert!(ej.dedup(1, &k, 1, &k, &plan).unwrap());
        assert!(!ej.dedup(0, &k, 0, &k, &plan).unwrap());
    }
}
