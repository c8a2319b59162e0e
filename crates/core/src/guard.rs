//! The UDF guardrail layer (PR 3).
//!
//! FUDJ executes *untrusted user code*: the paper's proxy built-in functions
//! (§IV, Fig. 7) mediate between engine internals and the library's
//! SUMMARIZE / DIVIDE / PARTITION / COMBINE callbacks, but nothing in the
//! paper stops a buggy library from panicking mid-phase, spinning forever in
//! `assign`, emitting bucket ids outside its own partitioning plan, or
//! replicating every key to every bucket. [`GuardedJoin`] is the containment
//! layer: it wraps any [`JoinAlgorithm`] (covering both [`crate::ProxyJoin`]
//! and raw implementations) and is what the executor and the standalone
//! reference runner actually invoke. Every user callback is
//!
//! * **panic-isolated** — `catch_unwind` with the payload preserved in a
//!   structured [`FudjError::UdfViolation`];
//! * **metered** — per-call budgets from [`UdfLimits`]: a wall-clock timeout
//!   on the *simulated* clock (libraries report their cost via
//!   [`consume_udf_time`], so "hangs" are deterministic and test-friendly),
//!   a cap on the serialized PPlan size, a buckets-per-key replication cap,
//!   and a total assign fan-out cap per partition;
//! * **contract-checked** — bucket ids must fall inside the range the
//!   library declares for its plan ([`JoinAlgorithm::declared_buckets`]),
//!   `assign` must be deterministic (spot re-invoked on a seeded sample of
//!   keys), `verify` must be symmetric under the default dedup mode, and
//!   summaries must merge associatively (probed on a sampled triple).
//!
//! Violations route through a configurable [`UdfPolicy`]: fail fast with a
//! phase-tagged diagnostic, quarantine the offending key/row and continue,
//! or — for default-equality match predicates — degrade to the engine's
//! plain hash-equality path. Structural callbacks (`new_summary`,
//! `merge_summaries`, `divide`) always fail fast: there is no single row to
//! quarantine when the plan itself is broken.
//!
//! Guards are zero-cost on well-behaved libraries: a guarded run returns
//! bit-identical results and metrics to an unguarded one, which the test
//! suite pins.

use crate::model::{BucketId, DedupMode, JoinAlgorithm, Side};
use crate::state::{PPlanState, SummaryState};
use fudj_types::{ExtValue, FudjError, Result};
use std::cell::Cell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Simulated UDF clock and per-partition fan-out accounting
// ---------------------------------------------------------------------------

thread_local! {
    /// Simulated milliseconds consumed by user callbacks on this thread.
    static UDF_CLOCK_MS: Cell<u64> = const { Cell::new(0) };
    /// Bucket ids emitted by `assign` since the last partition boundary on
    /// this thread (each partition is processed by exactly one worker).
    static ASSIGN_FANOUT: Cell<u64> = const { Cell::new(0) };
}

/// Report simulated time spent inside a user callback. Libraries (and the
/// adversarial fixtures) call this instead of sleeping, so timeout behavior
/// is deterministic: the guard compares the simulated-clock delta of each
/// callback against [`UdfLimits::call_budget_ms`].
pub fn consume_udf_time(ms: u64) {
    UDF_CLOCK_MS.with(|c| c.set(c.get().saturating_add(ms)));
}

fn udf_clock() -> u64 {
    UDF_CLOCK_MS.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Per-call budgets for guarded user callbacks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdfLimits {
    /// Simulated-clock budget for one callback invocation, in ms. A callback
    /// that [`consume_udf_time`]s more than this in a single call is a
    /// budget violation ("hang").
    pub call_budget_ms: u64,
    /// Maximum serialized size of the PPlan `divide` returns, in bytes.
    pub max_pplan_bytes: usize,
    /// Maximum bucket ids one `assign` call may emit for one key (the
    /// replication factor cap).
    pub max_buckets_per_key: usize,
    /// Maximum total bucket ids `assign` may emit across one partition.
    pub max_assign_fanout: u64,
    /// Contract checks sample 1-in-N keys/pairs (seeded, deterministic);
    /// 0 disables the determinism / symmetry / associativity probes.
    pub check_sample: u64,
}

impl Default for UdfLimits {
    fn default() -> Self {
        UdfLimits {
            call_budget_ms: 10_000,
            max_pplan_bytes: 16 << 20,
            max_buckets_per_key: 4_096,
            max_assign_fanout: 1 << 24,
            check_sample: 16,
        }
    }
}

/// What the engine does when a guarded callback violates its contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UdfPolicy {
    /// Abort the query with a phase-tagged [`FudjError::UdfViolation`].
    #[default]
    FailFast,
    /// Drop the offending key/row/pair, count it, and continue. Structural
    /// callbacks (`merge_summaries`, `divide`) still fail fast.
    Quarantine,
    /// For joins whose match predicate is default equality, degrade the
    /// whole join to the engine's plain hash-equality path on the raw keys.
    FallbackEquality,
}

impl UdfPolicy {
    /// Parse a user-facing policy name (`failfast`, `quarantine`,
    /// `fallback`), tolerant of `-`/`_` separators.
    pub fn parse(s: &str) -> Option<UdfPolicy> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "failfast" => Some(UdfPolicy::FailFast),
            "quarantine" => Some(UdfPolicy::Quarantine),
            "fallback" | "fallbackequality" => Some(UdfPolicy::FallbackEquality),
            _ => None,
        }
    }
}

impl std::fmt::Display for UdfPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdfPolicy::FailFast => write!(f, "failfast"),
            UdfPolicy::Quarantine => write!(f, "quarantine"),
            UdfPolicy::FallbackEquality => write!(f, "fallback"),
        }
    }
}

/// Limits + policy: everything one join definition's guard needs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GuardConfig {
    pub limits: UdfLimits,
    pub policy: UdfPolicy,
}

impl GuardConfig {
    /// Default limits under the given policy.
    pub fn with_policy(policy: UdfPolicy) -> Self {
        GuardConfig {
            limits: UdfLimits::default(),
            policy,
        }
    }
}

/// Session-level guard selection, consulted by the planner when lowering a
/// FUDJ node (the `\guard` REPL command sets this).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum GuardMode {
    /// Use each join definition's own [`GuardConfig`] (the default).
    #[default]
    PerJoin,
    /// Override every definition with this config.
    Override(GuardConfig),
    /// Do not wrap at all (reference/unguarded runs).
    Off,
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Guardrail counters for one query. Counts are per distinct violation
/// *site* (phase + offending key/pair), so fault-recovery re-executions of a
/// partition cannot double-count the same misbehaving row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UdfStats {
    pub summarize_violations: u64,
    pub merge_violations: u64,
    pub divide_violations: u64,
    pub assign_violations: u64,
    pub match_violations: u64,
    pub verify_violations: u64,
    pub dedup_violations: u64,
    /// Violations that were caught panics.
    pub caught_panics: u64,
    /// Violations that were budget overruns (time / size / replication).
    pub budget_overruns: u64,
    /// Violations that were contract-check failures (range, determinism,
    /// symmetry, associativity).
    pub contract_breaches: u64,
    /// Keys/rows/pairs dropped under [`UdfPolicy::Quarantine`].
    pub quarantined_rows: u64,
    /// Times the engine degraded to the hash-equality fallback path.
    pub fallback_activations: u64,
}

impl UdfStats {
    /// Total violations across all phases.
    pub fn total_violations(&self) -> u64 {
        self.summarize_violations
            + self.merge_violations
            + self.divide_violations
            + self.assign_violations
            + self.match_violations
            + self.verify_violations
            + self.dedup_violations
    }

    /// Whether anything at all was recorded.
    pub fn any(&self) -> bool {
        *self != UdfStats::default()
    }

    /// Field-wise accumulate (one query may run several guarded joins).
    pub fn merge(&mut self, other: &UdfStats) {
        self.summarize_violations += other.summarize_violations;
        self.merge_violations += other.merge_violations;
        self.divide_violations += other.divide_violations;
        self.assign_violations += other.assign_violations;
        self.match_violations += other.match_violations;
        self.verify_violations += other.verify_violations;
        self.dedup_violations += other.dedup_violations;
        self.caught_panics += other.caught_panics;
        self.budget_overruns += other.budget_overruns;
        self.contract_breaches += other.contract_breaches;
        self.quarantined_rows += other.quarantined_rows;
        self.fallback_activations += other.fallback_activations;
    }
}

/// Which callback a violation happened in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Summarize,
    Merge,
    Divide,
    Assign,
    Match,
    Verify,
    Dedup,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Summarize => "summarize",
            Phase::Merge => "merge",
            Phase::Divide => "divide",
            Phase::Assign => "assign",
            Phase::Match => "match",
            Phase::Verify => "verify",
            Phase::Dedup => "dedup",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Panic,
    Budget,
    Contract,
}

#[derive(Default)]
struct UdfCells {
    by_phase: [AtomicU64; 7],
    caught_panics: AtomicU64,
    budget_overruns: AtomicU64,
    contract_breaches: AtomicU64,
    quarantined: AtomicU64,
    fallbacks: AtomicU64,
    /// Distinct violation sites already counted — makes counters idempotent
    /// across fault-recovery re-executions of the same partition.
    seen: Mutex<HashSet<u64>>,
    /// Deferred violation from a callback that cannot return `Result`
    /// (`matches`); surfaced by the next fallible call or by `check()`.
    pending: Mutex<Option<FudjError>>,
    /// Raised (under the `pending` lock) once a violation is deferred, so
    /// the per-call check reads one atomic instead of taking the lock.
    has_pending: AtomicBool,
    /// Sampled summaries for the associativity probe, per side.
    assoc_samples: Mutex<[Vec<SummaryState>; 2]>,
    assoc_checked: [AtomicU64; 2],
}

// ---------------------------------------------------------------------------
// Deterministic hashing (seeded sampling + site identity)
// ---------------------------------------------------------------------------

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fold(h: u64, w: u64) -> u64 {
    splitmix(h ^ w)
}

/// Cheap structural hash of an external value (no allocation; `f64`s hash
/// by bit pattern). Used both for seeded sampling decisions and to identify
/// violation sites, so it must be deterministic across runs and retries.
fn ext_hash(v: &ExtValue) -> u64 {
    match v {
        ExtValue::Null => splitmix(1),
        ExtValue::Bool(b) => fold(2, *b as u64),
        ExtValue::Long(x) => fold(3, *x as u64),
        ExtValue::Double(x) => fold(4, x.to_bits()),
        ExtValue::Text(s) => s.bytes().fold(splitmix(5), |h, b| fold(h, b as u64)),
        ExtValue::LongArray(xs) => xs.iter().fold(splitmix(6), |h, x| fold(h, *x as u64)),
        ExtValue::DoubleArray(xs) => xs.iter().fold(splitmix(7), |h, x| fold(h, x.to_bits())),
        ExtValue::TextArray(ts) => ts.iter().fold(splitmix(8), |h, t| {
            t.bytes().fold(fold(h, 9), |h, b| fold(h, b as u64))
        }),
    }
}

/// Render a key for a violation site, truncated so a pathological key cannot
/// blow up the diagnostic.
fn short(v: &ExtValue) -> String {
    let s = v.to_string();
    if s.chars().count() > 48 {
        s.chars().take(47).collect::<String>() + "…"
    } else {
        s
    }
}

// ---------------------------------------------------------------------------
// GuardHandle — the engine-facing side of a guard
// ---------------------------------------------------------------------------

/// Shared handle to one [`GuardedJoin`]'s configuration and counters.
/// Engines obtain it through [`JoinAlgorithm::guard`] to surface stats,
/// flush deferred violations, and drive fallback.
#[derive(Clone)]
pub struct GuardHandle {
    config: GuardConfig,
    cells: Arc<UdfCells>,
}

impl GuardHandle {
    fn new(config: GuardConfig) -> Self {
        GuardHandle {
            config,
            cells: Arc::new(UdfCells::default()),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> UdfPolicy {
        self.config.policy
    }

    /// The configured limits.
    pub fn limits(&self) -> &UdfLimits {
        &self.config.limits
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> UdfStats {
        let c = &self.cells;
        let p = |i: usize| c.by_phase[i].load(Ordering::Relaxed);
        UdfStats {
            summarize_violations: p(0),
            merge_violations: p(1),
            divide_violations: p(2),
            assign_violations: p(3),
            match_violations: p(4),
            verify_violations: p(5),
            dedup_violations: p(6),
            caught_panics: c.caught_panics.load(Ordering::Relaxed),
            budget_overruns: c.budget_overruns.load(Ordering::Relaxed),
            contract_breaches: c.contract_breaches.load(Ordering::Relaxed),
            quarantined_rows: c.quarantined.load(Ordering::Relaxed),
            fallback_activations: c.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Surface a violation deferred by a callback that cannot return
    /// `Result` (`matches`). Engines call this at the end of each guarded
    /// join so no violation is silently swallowed.
    pub fn check(&self) -> Result<()> {
        match self.pending() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Reset the per-thread assign fan-out counter. Engines call this at
    /// each partition boundary (each partition runs on one worker thread).
    pub fn begin_partition(&self) {
        ASSIGN_FANOUT.with(|c| c.set(0));
    }

    /// Record that the engine degraded to the hash-equality fallback path.
    pub fn note_fallback(&self) {
        self.cells.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a violation once per distinct site and resolve it per policy:
    /// `Err(UdfViolation)` to abort, or `Ok(quarantined value)` when the
    /// policy quarantines and the callback is row-scoped.
    #[allow(clippy::too_many_arguments)]
    fn violation<R>(
        &self,
        phase: Phase,
        kind: Kind,
        site_hash: u64,
        site: &str,
        detail: String,
        quarantine: Option<R>,
    ) -> Result<R> {
        let full_site = fold(fold(site_hash, phase as u64 + 100), kind as u64 + 200);
        let is_new = self
            .cells
            .seen
            .lock()
            .expect("guard seen lock")
            .insert(full_site);
        if is_new {
            self.cells.by_phase[phase as usize].fetch_add(1, Ordering::Relaxed);
            let counter = match kind {
                Kind::Panic => &self.cells.caught_panics,
                Kind::Budget => &self.cells.budget_overruns,
                Kind::Contract => &self.cells.contract_breaches,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let err = FudjError::UdfViolation {
            phase: phase.as_str().to_owned(),
            site: site.to_owned(),
            detail,
        };
        match (self.config.policy, quarantine) {
            (UdfPolicy::Quarantine, Some(neutral)) => {
                if is_new {
                    self.cells.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                Ok(neutral)
            }
            _ => Err(err),
        }
    }

    /// Store a deferred violation (first one wins) for a callback that has
    /// no `Result` channel.
    fn defer(&self, err: FudjError) {
        let mut slot = self.cells.pending.lock().expect("guard pending lock");
        if slot.is_none() {
            *slot = Some(err);
            self.cells.has_pending.store(true, Ordering::Release);
        }
    }

    /// The deferred violation, if any. Lock-free until one is deferred.
    fn pending(&self) -> Option<FudjError> {
        if !self.cells.has_pending.load(Ordering::Acquire) {
            return None;
        }
        self.cells
            .pending
            .lock()
            .expect("guard pending lock")
            .clone()
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

// ---------------------------------------------------------------------------
// GuardedJoin
// ---------------------------------------------------------------------------

/// The guardrail wrapper. Implements [`JoinAlgorithm`] by forwarding to the
/// wrapped algorithm with every callback panic-isolated, metered, and
/// contract-checked (see the module docs). Generic over the ownership of the
/// inner algorithm: `GuardedJoin<Arc<dyn JoinAlgorithm>>` on the planned
/// path, `GuardedJoin<&dyn JoinAlgorithm>` in the standalone runner.
pub struct GuardedJoin<J: JoinAlgorithm> {
    inner: J,
    handle: GuardHandle,
}

impl<J: JoinAlgorithm> GuardedJoin<J> {
    /// Wrap `inner` under `config`.
    pub fn new(inner: J, config: GuardConfig) -> Self {
        GuardedJoin {
            inner,
            handle: GuardHandle::new(config),
        }
    }

    /// The engine-facing handle (stats, pending check, fallback note).
    pub fn handle(&self) -> &GuardHandle {
        &self.handle
    }

    /// Counter snapshot.
    pub fn stats(&self) -> UdfStats {
        self.handle.stats()
    }

    /// Run one fallible callback under the guard: surface any deferred
    /// violation first, then catch panics and meter simulated time.
    fn guarded<R>(
        &self,
        phase: Phase,
        site_hash: u64,
        site: impl Fn() -> String,
        quarantine: impl FnOnce() -> Option<R>,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        if let Some(err) = self.handle.pending() {
            return Err(err);
        }
        let t0 = udf_clock();
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let elapsed = udf_clock().saturating_sub(t0);
        match outcome {
            Err(payload) => self.handle.violation(
                phase,
                Kind::Panic,
                site_hash,
                &site(),
                format!("callback panicked: {}", panic_text(payload)),
                quarantine(),
            ),
            Ok(result) => {
                let budget = self.handle.limits().call_budget_ms;
                if elapsed > budget {
                    return self.handle.violation(
                        phase,
                        Kind::Budget,
                        site_hash,
                        &site(),
                        format!(
                            "call consumed {elapsed} ms of simulated time (budget {budget} ms)"
                        ),
                        quarantine(),
                    );
                }
                // Library-level `Result` errors are legitimate and pass
                // through unchanged — only panics and blown budgets are
                // violations.
                result
            }
        }
    }

    /// Whether the seeded 1-in-N sampler selects this site for a contract
    /// probe.
    fn sampled(&self, salt: u64, site_hash: u64) -> bool {
        let n = self.handle.limits().check_sample;
        n > 0 && fold(site_hash, salt).is_multiple_of(n)
    }
}

const SALT_DETERMINISM: u64 = 0xD373;
const SALT_SYMMETRY: u64 = 0x5E77;

impl<J: JoinAlgorithm> JoinAlgorithm for GuardedJoin<J> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn new_summary(&self, side: Side) -> SummaryState {
        // No `Result` channel and no row to quarantine: defer the violation
        // (always fail-fast) and hand back a placeholder the next fallible
        // call will never get to use.
        match catch_unwind(AssertUnwindSafe(|| self.inner.new_summary(side))) {
            Ok(s) => s,
            Err(payload) => {
                let site = format!("new_summary {side}");
                let err = self
                    .handle
                    .violation::<SummaryState>(
                        Phase::Summarize,
                        Kind::Panic,
                        fold(ext_hash(&ExtValue::Null), side as u64),
                        &site,
                        format!("callback panicked: {}", panic_text(payload)),
                        None,
                    )
                    .expect_err("new_summary violations never quarantine");
                self.handle.defer(err);
                SummaryState::new(0i64)
            }
        }
    }

    fn local_aggregate(
        &self,
        side: Side,
        key: &ExtValue,
        summary: &mut SummaryState,
    ) -> Result<()> {
        let site_hash = fold(ext_hash(key), side as u64);
        self.guarded(
            Phase::Summarize,
            site_hash,
            || format!("{side} key {}", short(key)),
            || Some(()), // quarantine: skip this key's contribution
            || self.inner.local_aggregate(side, key, summary),
        )
    }

    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        // Sample inputs for the associativity probe before they are moved.
        let probing = self.handle.limits().check_sample > 0;
        if probing {
            let mut samples = self
                .handle
                .cells
                .assoc_samples
                .lock()
                .expect("guard assoc lock");
            let bucket = &mut samples[side as usize];
            if bucket.len() < 3 {
                bucket.push(a.clone());
                if bucket.len() < 3 {
                    bucket.push(b.clone());
                }
            }
        }
        let site_hash = fold(splitmix(0x6E6), side as u64);
        let merged = self.guarded(
            Phase::Merge,
            site_hash,
            || format!("merge_summaries {side}"),
            || None, // structural: never quarantined
            || self.inner.global_aggregate(side, a, b),
        )?;
        if probing {
            self.associativity_probe(side)?;
        }
        Ok(merged)
    }

    fn symmetric(&self) -> bool {
        self.inner.symmetric()
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[ExtValue],
    ) -> Result<PPlanState> {
        let site_hash = splitmix(0xD17);
        let pplan = self.guarded(
            Phase::Divide,
            site_hash,
            || "divide".to_owned(),
            || None, // structural: never quarantined
            || self.inner.divide(left, right, params),
        )?;
        let size = pplan.serialized_len();
        let cap = self.handle.limits().max_pplan_bytes;
        if size > cap {
            return self.handle.violation(
                Phase::Divide,
                Kind::Budget,
                site_hash,
                "divide",
                format!("PPlan serializes to {size} bytes (cap {cap})"),
                None,
            );
        }
        Ok(pplan)
    }

    fn assign(
        &self,
        side: Side,
        key: &ExtValue,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        let site_hash = fold(ext_hash(key), side as u64 + 10);
        let site = || format!("{side} key {}", short(key));
        if let Some(err) = self.handle.pending() {
            return Err(err);
        }
        let start = out.len();
        let t0 = udf_clock();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.inner.assign(side, key, pplan, out)
        }));
        let elapsed = udf_clock().saturating_sub(t0);
        match outcome {
            Err(payload) => {
                // Quarantining a misbehaving row means dropping whatever
                // buckets it managed to emit before the violation.
                return self
                    .handle
                    .violation(
                        Phase::Assign,
                        Kind::Panic,
                        site_hash,
                        &site(),
                        format!("callback panicked: {}", panic_text(payload)),
                        Some(()),
                    )
                    .map(|()| out.truncate(start));
            }
            Ok(result) => result?,
        }
        let budget = self.handle.limits().call_budget_ms;
        if elapsed > budget {
            return self
                .handle
                .violation(
                    Phase::Assign,
                    Kind::Budget,
                    site_hash,
                    &site(),
                    format!("call consumed {elapsed} ms of simulated time (budget {budget} ms)"),
                    Some(()),
                )
                .map(|()| out.truncate(start));
        }
        let added = out.len() - start;

        // Contract: declared bucket range.
        if let Some(n) = self.inner.declared_buckets(pplan) {
            if let Some(&bad) = out[start..].iter().find(|&&b| b >= n) {
                return self
                    .handle
                    .violation(
                        Phase::Assign,
                        Kind::Contract,
                        site_hash,
                        &site(),
                        format!("bucket id {bad} outside the plan's declared range 0..{n}"),
                        Some(()),
                    )
                    .map(|()| out.truncate(start));
            }
        }

        // Budget: replication factor per key.
        let cap = self.handle.limits().max_buckets_per_key;
        if added > cap {
            return self
                .handle
                .violation(
                    Phase::Assign,
                    Kind::Budget,
                    site_hash,
                    &site(),
                    format!("key replicated to {added} buckets (cap {cap})"),
                    Some(()),
                )
                .map(|()| out.truncate(start));
        }

        // Budget: total fan-out per partition.
        let fanout = ASSIGN_FANOUT.with(|c| {
            let v = c.get().saturating_add(added as u64);
            c.set(v);
            v
        });
        let fanout_cap = self.handle.limits().max_assign_fanout;
        if fanout > fanout_cap {
            return self
                .handle
                .violation(
                    Phase::Assign,
                    Kind::Budget,
                    site_hash,
                    &site(),
                    format!("partition assign fan-out reached {fanout} (cap {fanout_cap})"),
                    Some(()),
                )
                .map(|()| {
                    out.truncate(start);
                    ASSIGN_FANOUT.with(|c| c.set(c.get().saturating_sub(added as u64)));
                });
        }

        // Contract: determinism, spot re-invoked on a seeded sample.
        if self.sampled(SALT_DETERMINISM, site_hash) {
            let mut again = Vec::with_capacity(added);
            let replay = catch_unwind(AssertUnwindSafe(|| {
                self.inner.assign(side, key, pplan, &mut again)
            }));
            let deterministic = matches!(replay, Ok(Ok(()))) && again == out[start..];
            if !deterministic {
                return self
                    .handle
                    .violation(
                        Phase::Assign,
                        Kind::Contract,
                        site_hash,
                        &site(),
                        format!(
                            "assign is not deterministic: first call gave {:?}, replay gave {:?}",
                            &out[start..],
                            again
                        ),
                        Some(()),
                    )
                    .map(|()| out.truncate(start));
            }
        }
        Ok(())
    }

    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        match catch_unwind(AssertUnwindSafe(|| self.inner.matches(b1, b2))) {
            Ok(v) => v,
            Err(payload) => {
                let site = format!("bucket pair ({b1}, {b2})");
                let site_hash = fold(fold(splitmix(0x3A7), b1), b2);
                match self.handle.violation(
                    Phase::Match,
                    Kind::Panic,
                    site_hash,
                    &site,
                    format!("callback panicked: {}", panic_text(payload)),
                    Some(false), // quarantine: the bucket pair simply no-matches
                ) {
                    Ok(v) => v,
                    Err(err) => {
                        // No `Result` channel here: defer and no-match.
                        self.handle.defer(err);
                        false
                    }
                }
            }
        }
    }

    fn uses_default_match(&self) -> bool {
        self.inner.uses_default_match()
    }

    fn verify(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        b2: BucketId,
        k2: &ExtValue,
        pplan: &PPlanState,
    ) -> Result<bool> {
        self.verify_hashed(b1, k1, ext_hash(k1), b2, k2, ext_hash(k2), pplan)
    }

    /// Per-pair guard semantics, with each key hashed once per bucket pair
    /// instead of once per pair.
    fn verify_pairs(
        &self,
        b1: BucketId,
        left: &[ExtValue],
        b2: BucketId,
        right: &[ExtValue],
        pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        let right_hashes: Vec<u64> = right.iter().map(ext_hash).collect();
        for (i, k1) in left.iter().enumerate() {
            let h1 = ext_hash(k1);
            for (j, (k2, &h2)) in right.iter().zip(&right_hashes).enumerate() {
                if self.verify_hashed(b1, k1, h1, b2, k2, h2, pplan)? {
                    emit(i, j);
                }
            }
        }
        Ok(())
    }

    fn dedup_mode(&self) -> DedupMode {
        self.inner.dedup_mode()
    }

    fn dedup(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        b2: BucketId,
        k2: &ExtValue,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let site_hash = fold(fold(fold(ext_hash(k1), ext_hash(k2)), b1 + 7), b2 + 7);
        self.guarded(
            Phase::Dedup,
            site_hash,
            || format!("pair ({}, {})", short(k1), short(k2)),
            || Some(false), // quarantine: suppress the emission
            || self.inner.dedup(b1, k1, b2, k2, pplan),
        )
    }

    fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
        self.inner.declared_buckets(pplan)
    }

    fn guard(&self) -> Option<&GuardHandle> {
        Some(&self.handle)
    }
}

impl<J: JoinAlgorithm> GuardedJoin<J> {
    /// The guarded `verify` of one pair, given both keys' [`ext_hash`]:
    /// panic isolation, the call budget and the sampled symmetry probe,
    /// keyed by the same site hash as an unbatched call.
    #[allow(clippy::too_many_arguments)]
    fn verify_hashed(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        h1: u64,
        b2: BucketId,
        k2: &ExtValue,
        h2: u64,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let site_hash = fold(fold(fold(h1, h2), b1), b2);
        let site = || format!("pair ({}, {})", short(k1), short(k2));
        let accepted = self.guarded(
            Phase::Verify,
            site_hash,
            site,
            || Some(false), // quarantine: drop the pair
            || self.inner.verify(b1, k1, b2, k2, pplan),
        )?;

        // Contract: symmetry under the default dedup mode. Only meaningful
        // when the join is symmetric and the two keys have the same external
        // shape (mixed-shape joins like polygon × point are exempt).
        if self.sampled(SALT_SYMMETRY, site_hash)
            && self.inner.symmetric()
            && self.inner.dedup_mode() == DedupMode::Avoidance
            && std::mem::discriminant(k1) == std::mem::discriminant(k2)
        {
            let swapped = catch_unwind(AssertUnwindSafe(|| {
                self.inner.verify(b2, k2, b1, k1, pplan)
            }));
            if !matches!(swapped, Ok(Ok(v)) if v == accepted) {
                return self.handle.violation(
                    Phase::Verify,
                    Kind::Contract,
                    site_hash,
                    &site(),
                    format!(
                        "verify is not symmetric: verify(k1, k2) = {accepted}, \
                         swapped call did not agree"
                    ),
                    Some(false),
                );
            }
        }
        Ok(accepted)
    }

    /// Probe merge associativity once per side, as soon as three summaries
    /// have been sampled: `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` must agree. The
    /// states are opaque, so agreement is compared on the serialized size —
    /// an order-independent proxy that still catches merges that drop or
    /// duplicate contributions.
    fn associativity_probe(&self, side: Side) -> Result<()> {
        let idx = side as usize;
        let cells = &self.handle.cells;
        let ready = {
            let samples = cells.assoc_samples.lock().expect("guard assoc lock");
            samples[idx].len() >= 3
        };
        if !ready || cells.assoc_checked[idx].swap(1, Ordering::Relaxed) == 1 {
            return Ok(());
        }
        let (s0, s1, s2) = {
            let samples = cells.assoc_samples.lock().expect("guard assoc lock");
            (
                samples[idx][0].clone(),
                samples[idx][1].clone(),
                samples[idx][2].clone(),
            )
        };
        let merge = |a: SummaryState, b: SummaryState| -> Option<SummaryState> {
            catch_unwind(AssertUnwindSafe(|| self.inner.global_aggregate(side, a, b)))
                .ok()
                .and_then(|r| r.ok())
        };
        let left_assoc = merge(s0.clone(), s1.clone()).and_then(|ab| merge(ab, s2.clone()));
        let right_assoc = merge(s1, s2).and_then(|bc| merge(s0, bc));
        if let (Some(l), Some(r)) = (left_assoc, right_assoc) {
            if l.serialized_len() != r.serialized_len() {
                return self.handle.violation(
                    Phase::Merge,
                    Kind::Contract,
                    fold(splitmix(0xA550C), side as u64),
                    &format!("merge_summaries {side}"),
                    format!(
                        "summaries do not merge associatively: (a⊕b)⊕c serializes to {} \
                         bytes, a⊕(b⊕c) to {}",
                        l.serialized_len(),
                        r.serialized_len()
                    ),
                    None,
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standalone::{run_guarded, run_standalone};

    /// A raw hash-mod equality join over `Long` keys with switchable
    /// misbehavior. Key 13 is the poison key: every fault fires only for it,
    /// so quarantine tests can predict the surviving result exactly.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Bad {
        None,
        PanicSummarize,
        PanicAssign,
        HangAssign,
        OutOfRange,
        NonDetAssign,
        OverReplicate,
        BigPplan,
        AsymVerify,
        PanicMatches,
    }

    struct Wild {
        bad: Bad,
        buckets: u64,
        calls: AtomicU64,
    }

    impl Wild {
        fn new(bad: Bad) -> Self {
            Wild {
                bad,
                buckets: 4,
                calls: AtomicU64::new(0),
            }
        }
    }

    const POISON: i64 = 13;

    impl JoinAlgorithm for Wild {
        fn name(&self) -> &str {
            "wild"
        }

        fn new_summary(&self, _side: Side) -> SummaryState {
            SummaryState::new(0i64)
        }

        fn local_aggregate(
            &self,
            _side: Side,
            key: &ExtValue,
            summary: &mut SummaryState,
        ) -> Result<()> {
            if self.bad == Bad::PanicSummarize && key.as_long()? == POISON {
                panic!("summarize kaboom");
            }
            *summary.downcast_mut::<i64>().unwrap() += 1;
            Ok(())
        }

        fn global_aggregate(
            &self,
            _side: Side,
            a: SummaryState,
            b: SummaryState,
        ) -> Result<SummaryState> {
            let sum = a.downcast_ref::<i64>().unwrap() + b.downcast_ref::<i64>().unwrap();
            Ok(SummaryState::new(sum))
        }

        fn symmetric(&self) -> bool {
            true
        }

        fn divide(
            &self,
            _left: &SummaryState,
            _right: &SummaryState,
            _params: &[ExtValue],
        ) -> Result<PPlanState> {
            if self.bad == Bad::BigPplan {
                return Ok(PPlanState::new(vec![0u64; 1024]));
            }
            Ok(PPlanState::new(self.buckets))
        }

        fn assign(
            &self,
            _side: Side,
            key: &ExtValue,
            _pplan: &PPlanState,
            out: &mut Vec<BucketId>,
        ) -> Result<()> {
            let k = key.as_long()?;
            if k == POISON {
                match self.bad {
                    Bad::PanicAssign => panic!("assign kaboom"),
                    Bad::HangAssign => consume_udf_time(60_000),
                    Bad::OutOfRange => {
                        out.push(self.buckets + 5);
                        return Ok(());
                    }
                    Bad::NonDetAssign => {
                        out.push(self.calls.fetch_add(1, Ordering::Relaxed) % self.buckets);
                        return Ok(());
                    }
                    Bad::OverReplicate => {
                        // In-range buckets, just far too many of them.
                        out.extend((0..100).map(|i| i % self.buckets));
                        return Ok(());
                    }
                    _ => {}
                }
            }
            out.push((k as u64) % self.buckets);
            Ok(())
        }

        fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
            if self.bad == Bad::PanicMatches && b1 == 1 {
                panic!("matches kaboom");
            }
            b1 == b2
        }

        fn uses_default_match(&self) -> bool {
            self.bad != Bad::PanicMatches
        }

        fn verify(
            &self,
            _b1: BucketId,
            k1: &ExtValue,
            _b2: BucketId,
            k2: &ExtValue,
            _pplan: &PPlanState,
        ) -> Result<bool> {
            let (a, b) = (k1.as_long()?, k2.as_long()?);
            if self.bad == Bad::AsymVerify {
                return Ok(a <= b);
            }
            Ok(a == b)
        }

        fn dedup_mode(&self) -> DedupMode {
            // Single-assign: dedup is unnecessary, except that the symmetry
            // probe only arms under the default avoidance mode.
            if self.bad == Bad::AsymVerify {
                DedupMode::Avoidance
            } else {
                DedupMode::None
            }
        }

        fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
            pplan.downcast_ref::<u64>().copied()
        }
    }

    fn longs(xs: &[i64]) -> Vec<ExtValue> {
        xs.iter().map(|&x| ExtValue::Long(x)).collect()
    }

    const LEFT: [i64; 5] = [1, 2, 13, 5, 6];
    const RIGHT: [i64; 5] = [2, 13, 7, 5, 13];

    /// Ground truth for `Wild`'s equality semantics, optionally without the
    /// poison key.
    fn equality_pairs(include_poison: bool) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, a) in LEFT.iter().enumerate() {
            for (j, b) in RIGHT.iter().enumerate() {
                if a == b && (include_poison || *a != POISON) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    fn run(bad: Bad, config: GuardConfig) -> Result<(Vec<(usize, usize)>, UdfStats)> {
        let wild = Wild::new(bad);
        run_guarded(&wild, config, &longs(&LEFT), &longs(&RIGHT), &[])
    }

    fn phase_of(err: FudjError) -> (String, String) {
        match err {
            FudjError::UdfViolation { phase, detail, .. } => (phase, detail),
            other => panic!("expected UdfViolation, got {other:?}"),
        }
    }

    #[test]
    fn well_behaved_guarded_run_is_clean_and_correct() {
        let (pairs, stats) = run(Bad::None, GuardConfig::default()).unwrap();
        assert_eq!(pairs, equality_pairs(true));
        assert_eq!(stats, UdfStats::default(), "guards must be invisible");
    }

    #[test]
    fn default_run_standalone_is_guarded() {
        // A panicking library surfaces a structured error, not a crash, even
        // through the plain entry point.
        let wild = Wild::new(Bad::PanicSummarize);
        let err = run_standalone(&wild, &longs(&LEFT), &longs(&RIGHT), &[]).unwrap_err();
        let (phase, detail) = phase_of(err);
        assert_eq!(phase, "summarize");
        assert!(detail.contains("kaboom"), "payload preserved: {detail}");
    }

    #[test]
    fn panic_in_summarize_quarantines_the_key() {
        let (pairs, stats) = run(
            Bad::PanicSummarize,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        // Summaries only size the plan here, so the result is still exact.
        assert_eq!(pairs, equality_pairs(true));
        // One violation site per (key, side): the poison key appears on both
        // sides, and its two right-side occurrences collapse into one site.
        assert_eq!(stats.summarize_violations, 2);
        assert_eq!(stats.caught_panics, 2);
        assert_eq!(stats.quarantined_rows, 2);
    }

    #[test]
    fn panic_in_assign_fails_fast_and_quarantines() {
        let (phase, detail) = phase_of(run(Bad::PanicAssign, GuardConfig::default()).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("assign kaboom"));

        let (pairs, stats) = run(
            Bad::PanicAssign,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        assert_eq!(pairs, equality_pairs(false), "poison rows dropped");
        assert!(stats.quarantined_rows >= 1);
        assert_eq!(stats.contract_breaches, 0);
    }

    #[test]
    fn simulated_hang_is_a_budget_violation() {
        let (phase, detail) = phase_of(run(Bad::HangAssign, GuardConfig::default()).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("simulated time"), "{detail}");

        let (pairs, stats) = run(
            Bad::HangAssign,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        assert_eq!(pairs, equality_pairs(false));
        assert!(stats.budget_overruns >= 1);
    }

    #[test]
    fn out_of_range_bucket_is_a_contract_breach() {
        let (phase, detail) = phase_of(run(Bad::OutOfRange, GuardConfig::default()).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("declared range"), "{detail}");

        let (pairs, stats) = run(
            Bad::OutOfRange,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        assert_eq!(pairs, equality_pairs(false));
        assert!(stats.contract_breaches >= 1);
    }

    #[test]
    fn nondeterministic_assign_is_caught_by_the_replay_probe() {
        let mut config = GuardConfig::default();
        config.limits.check_sample = 1; // probe every key
        let (phase, detail) = phase_of(run(Bad::NonDetAssign, config).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("not deterministic"), "{detail}");
    }

    #[test]
    fn over_replication_is_a_budget_violation() {
        let mut config = GuardConfig::default();
        config.limits.max_buckets_per_key = 8;
        let (phase, detail) = phase_of(run(Bad::OverReplicate, config.clone()).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("replicated"), "{detail}");

        config.policy = UdfPolicy::Quarantine;
        let (pairs, stats) = run(Bad::OverReplicate, config).unwrap();
        assert_eq!(pairs, equality_pairs(false));
        assert!(stats.budget_overruns >= 1);
    }

    #[test]
    fn assign_fanout_cap_applies_per_partition() {
        let mut config = GuardConfig::default();
        config.limits.max_assign_fanout = 4;
        // Each side assigns 5 keys (one bucket each); a 4-id cap per
        // partition trips on the fifth.
        let (phase, detail) = phase_of(run(Bad::None, config).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("fan-out"), "{detail}");

        let mut ok = GuardConfig::default();
        ok.limits.max_assign_fanout = 5;
        let (pairs, _) = run(Bad::None, ok).unwrap();
        assert_eq!(pairs, equality_pairs(true), "boundary exactly at the cap");
    }

    #[test]
    fn oversized_pplan_always_fails_fast() {
        let mut config = GuardConfig::default();
        config.limits.max_pplan_bytes = 64;
        let (phase, detail) = phase_of(run(Bad::BigPplan, config.clone()).unwrap_err());
        assert_eq!(phase, "divide");
        assert!(detail.contains("bytes"), "{detail}");

        // Structural violations ignore quarantine: there is no row to drop.
        config.policy = UdfPolicy::Quarantine;
        let (phase, _) = phase_of(run(Bad::BigPplan, config).unwrap_err());
        assert_eq!(phase, "divide");
    }

    #[test]
    fn panicking_matches_is_deferred_and_surfaced() {
        // `matches` has no Result channel: the guard records the violation
        // and the engine's end-of-join check surfaces it.
        let (phase, detail) = phase_of(run(Bad::PanicMatches, GuardConfig::default()).unwrap_err());
        assert_eq!(phase, "match");
        assert!(detail.contains("matches kaboom"), "{detail}");

        // Quarantine treats the bucket pair as a no-match: keys hashing to
        // the poisoned bucket 1 (1, 5, 13) drop out, others survive.
        let (pairs, stats) = run(
            Bad::PanicMatches,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        assert_eq!(pairs, vec![(1, 0)], "only 2 = 2 survives outside bucket 1");
        assert!(stats.match_violations >= 1);
    }

    #[test]
    fn deferred_matches_panic_aborts_the_next_guarded_call() {
        let guard = GuardedJoin::new(Wild::new(Bad::PanicMatches), GuardConfig::default());
        let none = guard.new_summary(Side::Left);
        let pplan = guard.divide(&none, &none, &[]).unwrap();
        let keys = longs(&[2, 2]);
        let mut accepted = 0;
        guard
            .verify_pairs(2, &keys, 2, &keys, &pplan, &mut |_, _| accepted += 1)
            .unwrap();
        assert_eq!(accepted, 4, "nothing deferred yet: calls go through");

        // The panic is deferred on another worker thread; the lock-free
        // pending flag must still stop every later call on this one.
        std::thread::scope(|s| {
            s.spawn(|| assert!(!guard.matches(1, 1)));
        });
        let errors = [
            guard.verify(2, &keys[0], 2, &keys[1], &pplan).unwrap_err(),
            guard
                .verify_pairs(2, &keys, 2, &keys, &pplan, &mut |_, _| accepted += 1)
                .unwrap_err(),
            guard.handle().check().unwrap_err(),
        ];
        for err in errors {
            let (phase, detail) = phase_of(err);
            assert_eq!(phase, "match");
            assert!(detail.contains("matches kaboom"), "{detail}");
        }
        assert_eq!(accepted, 4, "no pair verified after the deferral");
    }

    #[test]
    fn asymmetric_verify_is_caught_by_the_swap_probe() {
        let mut config = GuardConfig::default();
        config.limits.check_sample = 1;
        let (phase, detail) = phase_of(run(Bad::AsymVerify, config).unwrap_err());
        assert_eq!(phase, "verify");
        assert!(detail.contains("not symmetric"), "{detail}");
    }

    #[test]
    fn fallback_equality_degrades_to_the_plain_join() {
        for bad in [Bad::PanicAssign, Bad::OutOfRange, Bad::HangAssign] {
            let (pairs, stats) =
                run(bad, GuardConfig::with_policy(UdfPolicy::FallbackEquality)).unwrap();
            assert_eq!(pairs, equality_pairs(true), "full, correct result");
            assert_eq!(stats.fallback_activations, 1);
            assert!(stats.total_violations() >= 1);
        }
    }

    #[test]
    fn violation_sites_count_once_across_retries() {
        let wild = Wild::new(Bad::PanicSummarize);
        let guarded = GuardedJoin::new(&wild, GuardConfig::with_policy(UdfPolicy::Quarantine));
        let mut s = guarded.new_summary(Side::Left);
        // The same misbehaving row re-executed (fault recovery) must not
        // inflate the counters.
        for _ in 0..3 {
            guarded
                .local_aggregate(Side::Left, &ExtValue::Long(POISON), &mut s)
                .unwrap();
        }
        let stats = guarded.stats();
        assert_eq!(stats.summarize_violations, 1);
        assert_eq!(stats.quarantined_rows, 1);
    }

    /// A merge that drops contributions depending on grouping: concatenates
    /// but truncates to `max(len) + 1`, so association changes the size.
    struct LossyMerge;

    impl JoinAlgorithm for LossyMerge {
        fn name(&self) -> &str {
            "lossy_merge"
        }
        fn new_summary(&self, _side: Side) -> SummaryState {
            SummaryState::new(Vec::<i64>::new())
        }
        fn local_aggregate(
            &self,
            _side: Side,
            key: &ExtValue,
            summary: &mut SummaryState,
        ) -> Result<()> {
            summary
                .downcast_mut::<Vec<i64>>()
                .unwrap()
                .push(key.as_long()?);
            Ok(())
        }
        fn global_aggregate(
            &self,
            _side: Side,
            a: SummaryState,
            b: SummaryState,
        ) -> Result<SummaryState> {
            let x = a.downcast_ref::<Vec<i64>>().unwrap();
            let y = b.downcast_ref::<Vec<i64>>().unwrap();
            let cap = x.len().max(y.len()) + 1;
            let mut merged = x.clone();
            merged.extend_from_slice(y);
            merged.truncate(cap);
            Ok(SummaryState::new(merged))
        }
        fn symmetric(&self) -> bool {
            true
        }
        fn divide(
            &self,
            _left: &SummaryState,
            _right: &SummaryState,
            _params: &[ExtValue],
        ) -> Result<PPlanState> {
            Ok(PPlanState::new(1u64))
        }
        fn assign(
            &self,
            _side: Side,
            _key: &ExtValue,
            _pplan: &PPlanState,
            out: &mut Vec<BucketId>,
        ) -> Result<()> {
            out.push(0);
            Ok(())
        }
        fn verify(
            &self,
            _b1: BucketId,
            _k1: &ExtValue,
            _b2: BucketId,
            _k2: &ExtValue,
            _pplan: &PPlanState,
        ) -> Result<bool> {
            Ok(true)
        }
    }

    #[test]
    fn non_associative_merge_is_caught_by_the_triple_probe() {
        let guarded = GuardedJoin::new(LossyMerge, GuardConfig::default());
        let s = |n: usize| SummaryState::new(vec![0i64; n]);
        // Two merges feed the sampler three summaries of distinct sizes; the
        // probe then compares (a⊕b)⊕c against a⊕(b⊕c).
        let err = guarded
            .global_aggregate(Side::Left, s(1), s(2))
            .and_then(|m| guarded.global_aggregate(Side::Left, m, s(8)))
            .unwrap_err();
        let (phase, detail) = phase_of(err);
        assert_eq!(phase, "merge");
        assert!(detail.contains("associatively"), "{detail}");
        assert_eq!(guarded.stats().contract_breaches, 1);
    }

    #[test]
    fn policy_parse_and_display_round_trip() {
        for p in [
            UdfPolicy::FailFast,
            UdfPolicy::Quarantine,
            UdfPolicy::FallbackEquality,
        ] {
            assert_eq!(UdfPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(UdfPolicy::parse("fail-fast"), Some(UdfPolicy::FailFast));
        assert_eq!(
            UdfPolicy::parse("FALLBACK_EQUALITY"),
            Some(UdfPolicy::FallbackEquality)
        );
        assert_eq!(UdfPolicy::parse("lenient"), None);
    }

    #[test]
    fn stats_merge_accumulates_fieldwise() {
        let mut a = UdfStats {
            assign_violations: 1,
            quarantined_rows: 2,
            ..UdfStats::default()
        };
        let b = UdfStats {
            assign_violations: 3,
            caught_panics: 1,
            ..UdfStats::default()
        };
        a.merge(&b);
        assert_eq!(a.assign_violations, 4);
        assert_eq!(a.quarantined_rows, 2);
        assert_eq!(a.caught_panics, 1);
        assert_eq!(a.total_violations(), 4);
        assert!(a.any());
        assert!(!UdfStats::default().any());
    }
}
