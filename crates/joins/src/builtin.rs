//! Hand-built "built-in operator" baselines.
//!
//! The paper compares every FUDJ implementation against the same algorithm
//! integrated *into the engine by hand*: a rewrite rule, typed aggregate,
//! unnest, match, and verify functions written against engine internals
//! (~1,600–1,900 LOC each in AsterixDB; Table II). These are the Rust
//! equivalents: they implement [`EngineJoin`] directly on native
//! [`Value`]s — no external-type translation, concrete state types, typed
//! fast paths, and (for the advanced spatial operator) a custom local join.
//!
//! The performance delta between these and their FUDJ twins *is* the
//! framework overhead the §VII-B experiment measures; the LOC delta is
//! Table II.

use fudj_core::{BucketId, DedupMode, EngineJoin, PPlanState, Side, SummaryState};
use fudj_geo::{sweep::plane_sweep_join_into, Rect, UniformGrid};
use fudj_temporal::granule::{buckets_overlap, MAX_GRANULES};
use fudj_temporal::{GranuleTimeline, Interval, IntervalSummary};
use fudj_text::{jaccard_of_sorted, prefix_length, token_set, tokenize, TokenCounts, TokenRanks};
use fudj_types::{FudjError, Result, Value};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

fn wrong_state(op: &str, what: &str) -> FudjError {
    FudjError::Execution(format!("{op}: internal {what} state of the wrong type"))
}

/// MBR of a native geometry value.
fn value_mbr(v: &Value) -> Result<Rect> {
    match v {
        Value::Point(p) => Ok(Rect::from_point(p)),
        Value::Polygon(poly) => Ok(poly.mbr()),
        other => Err(FudjError::type_mismatch(
            "point or polygon",
            other,
            "spatial join key",
        )),
    }
}

/// Native geometry intersection predicate.
fn values_intersect(a: &Value, b: &Value) -> Result<bool> {
    Ok(match (a, b) {
        (Value::Point(p), Value::Point(q)) => p == q,
        (Value::Point(p), Value::Polygon(poly)) | (Value::Polygon(poly), Value::Point(p)) => {
            poly.contains_point(p)
        }
        (Value::Polygon(p), Value::Polygon(q)) => p.intersects(q),
        (a, b) => {
            return Err(FudjError::type_mismatch(
                "two geometries",
                (a.data_type(), b.data_type()),
                "spatial verify",
            ))
        }
    })
}

fn grid_param(params: &[Value], default: u32) -> Result<u32> {
    match params.first() {
        Some(p) => {
            let n = p.as_i64()?;
            if n <= 0 || n > u16::MAX as i64 {
                return Err(FudjError::Plan(format!(
                    "grid side must be in 1..=65535, got {n}"
                )));
            }
            Ok(n as u32)
        }
        None => Ok(default),
    }
}

// ---------------------------------------------------------------------------
// Built-in spatial join (PBSM)
// ---------------------------------------------------------------------------

/// Grid `PPlan` of the built-in spatial operators.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BuiltinSpatialPlan {
    grid: UniformGrid,
}

/// Hand-integrated PBSM operator: typed MBR summaries, grid partitioning,
/// per-tile nested-loop local join, reference-point duplicate avoidance.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuiltinSpatialJoin;

impl BuiltinSpatialJoin {
    /// New built-in spatial join.
    pub fn new() -> Self {
        BuiltinSpatialJoin
    }
}

impl EngineJoin for BuiltinSpatialJoin {
    fn name(&self) -> &str {
        "builtin_spatial_join"
    }

    fn new_summary(&self, _side: Side) -> SummaryState {
        SummaryState::new(Rect::default())
    }

    fn local_aggregate(&self, _side: Side, key: &Value, summary: &mut SummaryState) -> Result<()> {
        let mbr = value_mbr(key)?;
        let s = summary
            .downcast_mut::<Rect>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        s.expand_rect(&mbr);
        Ok(())
    }

    fn global_aggregate(
        &self,
        _side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        let ra = a
            .downcast_ref::<Rect>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        let rb = b
            .downcast_ref::<Rect>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        Ok(SummaryState::new(ra.union(rb)))
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[Value],
    ) -> Result<PPlanState> {
        let l = left
            .downcast_ref::<Rect>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        let r = right
            .downcast_ref::<Rect>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        let n = grid_param(params, crate::spatial::DEFAULT_GRID_SIDE)?;
        Ok(PPlanState::new(BuiltinSpatialPlan {
            grid: UniformGrid::new(l.intersection(r), n),
        }))
    }

    fn assign(
        &self,
        _side: Side,
        key: &Value,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        let plan = pplan
            .downcast_ref::<BuiltinSpatialPlan>()
            .ok_or_else(|| wrong_state(self.name(), "pplan"))?;
        let clipped = value_mbr(key)?.intersection(&plan.grid.extent());
        if !clipped.is_empty() {
            out.extend(plan.grid.overlapping_tiles(&clipped));
        }
        Ok(())
    }

    fn verify(
        &self,
        _b1: BucketId,
        k1: &Value,
        _b2: BucketId,
        k2: &Value,
        _pplan: &PPlanState,
    ) -> Result<bool> {
        values_intersect(k1, k2)
    }

    fn dedup_mode(&self) -> DedupMode {
        DedupMode::Custom // reference point — what a hand-built PBSM uses
    }

    fn dedup(
        &self,
        b1: BucketId,
        k1: &Value,
        _b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let plan = pplan
            .downcast_ref::<BuiltinSpatialPlan>()
            .ok_or_else(|| wrong_state(self.name(), "pplan"))?;
        Ok(plan
            .grid
            .is_reference_tile(b1, &value_mbr(k1)?, &value_mbr(k2)?))
    }
}

// ---------------------------------------------------------------------------
// Advanced spatial join (plane-sweep local join, §VII-F)
// ---------------------------------------------------------------------------

/// The §VII-F *advanced* spatial operator: [`BuiltinSpatialJoin`] plus a
/// plane-sweep local join inside each tile — sort both sides' MBRs by x and
/// sweep instead of the nested loop, then exact-verify only the MBR-level
/// candidates.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdvancedSpatialJoin {
    inner: BuiltinSpatialJoin,
}

impl AdvancedSpatialJoin {
    /// New advanced spatial join.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EngineJoin for AdvancedSpatialJoin {
    fn name(&self) -> &str {
        "advanced_spatial_join"
    }

    fn new_summary(&self, side: Side) -> SummaryState {
        self.inner.new_summary(side)
    }

    fn local_aggregate(&self, side: Side, key: &Value, summary: &mut SummaryState) -> Result<()> {
        self.inner.local_aggregate(side, key, summary)
    }

    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        self.inner.global_aggregate(side, a, b)
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[Value],
    ) -> Result<PPlanState> {
        self.inner.divide(left, right, params)
    }

    fn assign(
        &self,
        side: Side,
        key: &Value,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        self.inner.assign(side, key, pplan, out)
    }

    fn verify(
        &self,
        b1: BucketId,
        k1: &Value,
        b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool> {
        self.inner.verify(b1, k1, b2, k2, pplan)
    }

    fn dedup_mode(&self) -> DedupMode {
        self.inner.dedup_mode()
    }

    fn dedup(
        &self,
        b1: BucketId,
        k1: &Value,
        b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool> {
        self.inner.dedup(b1, k1, b2, k2, pplan)
    }

    fn local_join_pairs(
        &self,
        _b1: BucketId,
        left_keys: &[Value],
        _b2: BucketId,
        right_keys: &[Value],
        _pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        let left_mbrs: Vec<Rect> = left_keys.iter().map(value_mbr).collect::<Result<_>>()?;
        let right_mbrs: Vec<Rect> = right_keys.iter().map(value_mbr).collect::<Result<_>>()?;
        let mut verify_err = None;
        plane_sweep_join_into(&left_mbrs, &right_mbrs, |i, j| {
            if verify_err.is_some() {
                return;
            }
            match values_intersect(&left_keys[i], &right_keys[j]) {
                Ok(true) => emit(i, j),
                Ok(false) => {}
                Err(e) => verify_err = Some(e),
            }
        });
        match verify_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Built-in interval join (OIP)
// ---------------------------------------------------------------------------

/// Hand-integrated OIP operator: typed min/max summaries, granule timeline,
/// packed single-assign buckets, theta granule-overlap match.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuiltinIntervalJoin;

impl BuiltinIntervalJoin {
    /// New built-in interval join.
    pub fn new() -> Self {
        BuiltinIntervalJoin
    }
}

impl EngineJoin for BuiltinIntervalJoin {
    fn name(&self) -> &str {
        "builtin_interval_join"
    }

    fn new_summary(&self, _side: Side) -> SummaryState {
        SummaryState::new(IntervalSummary::default())
    }

    fn local_aggregate(&self, _side: Side, key: &Value, summary: &mut SummaryState) -> Result<()> {
        let iv = key.as_interval()?;
        summary
            .downcast_mut::<IntervalSummary>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?
            .observe(&iv);
        Ok(())
    }

    fn global_aggregate(
        &self,
        _side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        let sa = a
            .downcast_ref::<IntervalSummary>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        let sb = b
            .downcast_ref::<IntervalSummary>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        Ok(SummaryState::new(sa.merge(sb)))
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[Value],
    ) -> Result<PPlanState> {
        let l = left
            .downcast_ref::<IntervalSummary>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        let r = right
            .downcast_ref::<IntervalSummary>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        let n = match params.first() {
            Some(p) => {
                let n = p.as_i64()?;
                if n <= 0 || n > MAX_GRANULES as i64 {
                    return Err(FudjError::Plan(format!(
                        "granule count must be in 1..={MAX_GRANULES}, got {n}"
                    )));
                }
                n as u32
            }
            None => crate::interval::DEFAULT_GRANULES,
        };
        let range = l.merge(r).range().unwrap_or_else(|| Interval::new(0, 0));
        Ok(PPlanState::new(GranuleTimeline::new(range, n)))
    }

    fn assign(
        &self,
        _side: Side,
        key: &Value,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        let tl = pplan
            .downcast_ref::<GranuleTimeline>()
            .ok_or_else(|| wrong_state(self.name(), "pplan"))?;
        out.push(tl.assign(&key.as_interval()?));
        Ok(())
    }

    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        buckets_overlap(b1, b2)
    }

    fn uses_default_match(&self) -> bool {
        false
    }

    fn verify(
        &self,
        _b1: BucketId,
        k1: &Value,
        _b2: BucketId,
        k2: &Value,
        _pplan: &PPlanState,
    ) -> Result<bool> {
        Ok(k1.as_interval()?.overlaps(&k2.as_interval()?))
    }

    fn dedup_mode(&self) -> DedupMode {
        DedupMode::None
    }

    fn dedup(
        &self,
        _b1: BucketId,
        _k1: &Value,
        _b2: BucketId,
        _k2: &Value,
        _pplan: &PPlanState,
    ) -> Result<bool> {
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Advanced interval join (forward-scan local join, §VIII future work)
// ---------------------------------------------------------------------------

/// [`BuiltinIntervalJoin`] plus a forward-scan plane sweep as the local
/// bucket join: sort both sides by start and scan, instead of the nested
/// loop with per-pair `verify`. The interval counterpart of the paper's
/// §VII-F plane-sweep experiment, covering the §VIII "sort-merge-based
/// joins and local join optimizations" future work.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdvancedIntervalJoin {
    inner: BuiltinIntervalJoin,
}

impl AdvancedIntervalJoin {
    /// New advanced interval join.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EngineJoin for AdvancedIntervalJoin {
    fn name(&self) -> &str {
        "advanced_interval_join"
    }

    fn new_summary(&self, side: Side) -> SummaryState {
        self.inner.new_summary(side)
    }

    fn local_aggregate(&self, side: Side, key: &Value, summary: &mut SummaryState) -> Result<()> {
        self.inner.local_aggregate(side, key, summary)
    }

    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        self.inner.global_aggregate(side, a, b)
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[Value],
    ) -> Result<PPlanState> {
        self.inner.divide(left, right, params)
    }

    fn assign(
        &self,
        side: Side,
        key: &Value,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        self.inner.assign(side, key, pplan, out)
    }

    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        self.inner.matches(b1, b2)
    }

    fn uses_default_match(&self) -> bool {
        false
    }

    fn verify(
        &self,
        b1: BucketId,
        k1: &Value,
        b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool> {
        self.inner.verify(b1, k1, b2, k2, pplan)
    }

    fn dedup_mode(&self) -> DedupMode {
        DedupMode::None
    }

    fn dedup(
        &self,
        _b1: BucketId,
        _k1: &Value,
        _b2: BucketId,
        _k2: &Value,
        _pplan: &PPlanState,
    ) -> Result<bool> {
        Ok(true)
    }

    fn local_join_pairs(
        &self,
        _b1: BucketId,
        left_keys: &[Value],
        _b2: BucketId,
        right_keys: &[Value],
        _pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        let left: Vec<Interval> = left_keys
            .iter()
            .map(Value::as_interval)
            .collect::<Result<_>>()?;
        let right: Vec<Interval> = right_keys
            .iter()
            .map(Value::as_interval)
            .collect::<Result<_>>()?;
        fudj_temporal::sweep::forward_scan_join_into(&left, &right, emit);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Built-in text-similarity join (prefix filtering)
// ---------------------------------------------------------------------------

/// Rank table + threshold `PPlan` of the built-in text operator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BuiltinTextPlan {
    ranks: TokenRanks,
    threshold: f64,
}

/// Hand-integrated prefix-filtering set-similarity operator. Its engine
/// access shows in the local join: each bucket's records are tokenized
/// *once* and verified from cached token sets, which a per-call UDF boundary
/// cannot do — one source of the (small) built-in advantage in Fig. 9c.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuiltinTextSimJoin;

impl BuiltinTextSimJoin {
    /// New built-in text-similarity join.
    pub fn new() -> Self {
        BuiltinTextSimJoin
    }

    fn plan<'a>(&self, pplan: &'a PPlanState) -> Result<&'a BuiltinTextPlan> {
        pplan
            .downcast_ref::<BuiltinTextPlan>()
            .ok_or_else(|| wrong_state(self.name(), "pplan"))
    }
}

impl EngineJoin for BuiltinTextSimJoin {
    fn name(&self) -> &str {
        "builtin_text_similarity_join"
    }

    fn new_summary(&self, _side: Side) -> SummaryState {
        SummaryState::new(TokenCounts::new())
    }

    fn local_aggregate(&self, _side: Side, key: &Value, summary: &mut SummaryState) -> Result<()> {
        let text = key.as_str()?;
        let counts = summary
            .downcast_mut::<TokenCounts>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        for token in tokenize(text) {
            counts.observe(&token);
        }
        Ok(())
    }

    fn global_aggregate(
        &self,
        _side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        let mut ca = a
            .downcast_ref::<TokenCounts>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?
            .clone();
        let cb = b
            .downcast_ref::<TokenCounts>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?;
        ca.merge(cb);
        Ok(SummaryState::new(ca))
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[Value],
    ) -> Result<PPlanState> {
        let threshold = params
            .first()
            .ok_or_else(|| FudjError::Plan("text similarity join requires a threshold".into()))?
            .as_f64()?;
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(FudjError::Plan(format!(
                "threshold must be in (0, 1], got {threshold}"
            )));
        }
        let mut merged = left
            .downcast_ref::<TokenCounts>()
            .ok_or_else(|| wrong_state(self.name(), "summary"))?
            .clone();
        merged.merge(
            right
                .downcast_ref::<TokenCounts>()
                .ok_or_else(|| wrong_state(self.name(), "summary"))?,
        );
        Ok(PPlanState::new(BuiltinTextPlan {
            ranks: TokenRanks::from_counts(&merged),
            threshold,
        }))
    }

    fn assign(
        &self,
        _side: Side,
        key: &Value,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        let plan = self.plan(pplan)?;
        let tokens = token_set(key.as_str()?);
        let ranked = plan.ranks.ranked_tokens(&tokens);
        let p = prefix_length(ranked.len(), plan.threshold);
        out.extend(ranked[..p.min(ranked.len())].iter().map(|&r| r as BucketId));
        Ok(())
    }

    fn verify(
        &self,
        _b1: BucketId,
        k1: &Value,
        _b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let plan = self.plan(pplan)?;
        Ok(jaccard_of_sorted(&token_set(k1.as_str()?), &token_set(k2.as_str()?)) >= plan.threshold)
    }

    fn dedup_mode(&self) -> DedupMode {
        DedupMode::Custom
    }

    fn dedup(
        &self,
        b1: BucketId,
        k1: &Value,
        b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool> {
        // Native avoidance: the pair is reported only from its smallest
        // shared prefix rank. Because match is equality, b1 == b2 here.
        debug_assert_eq!(b1, b2);
        let plan = self.plan(pplan)?;
        let ra = plan.ranks.ranked_tokens(&token_set(k1.as_str()?));
        let rb = plan.ranks.ranked_tokens(&token_set(k2.as_str()?));
        let pa = prefix_length(ra.len(), plan.threshold).min(ra.len());
        let pb = prefix_length(rb.len(), plan.threshold).min(rb.len());
        let first_shared = ra[..pa].iter().filter(|r| rb[..pb].contains(r)).min();
        Ok(first_shared == Some(&(b1 as u32)))
    }

    fn local_join_pairs(
        &self,
        b1: BucketId,
        left_keys: &[Value],
        _b2: BucketId,
        right_keys: &[Value],
        pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        let plan = self.plan(pplan)?;
        let _ = b1;
        // Engine-side optimization: tokenize each bucket once.
        let left_sets: Vec<Vec<String>> = left_keys
            .iter()
            .map(|k| Ok(token_set(k.as_str()?)))
            .collect::<Result<_>>()?;
        let right_sets: Vec<Vec<String>> = right_keys
            .iter()
            .map(|k| Ok(token_set(k.as_str()?)))
            .collect::<Result<_>>()?;
        for (i, a) in left_sets.iter().enumerate() {
            for (j, b) in right_sets.iter().enumerate() {
                if jaccard_of_sorted(a, b) >= plan.threshold {
                    emit(i, j);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalFudj;
    use crate::spatial::SpatialFudj;
    use crate::textsim::TextSimilarityFudj;
    use fudj_core::{reference_execute, FudjEngineJoin, JoinAlgorithm, ProxyJoin};
    use fudj_geo::{Point, Polygon};
    use fudj_types::ext::to_external;
    use fudj_types::ExtValue;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn spatial_workload(seed: u64) -> (Vec<Value>, Vec<Value>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let parks: Vec<Value> = (0..40)
            .map(|_| {
                let x = rng.gen_range(0.0..90.0);
                let y = rng.gen_range(0.0..90.0);
                let w = rng.gen_range(0.5..10.0);
                let h = rng.gen_range(0.5..10.0);
                Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h)))
            })
            .collect();
        let fires: Vec<Value> = (0..80)
            .map(|_| {
                Value::Point(Point::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                ))
            })
            .collect();
        (parks, fires)
    }

    /// Core equivalence: built-in and FUDJ spatial operators compute the
    /// same result set (the paper's premise for comparing their runtimes).
    #[test]
    fn builtin_spatial_equals_fudj_spatial() {
        let (parks, fires) = spatial_workload(7);
        let params = [Value::Int64(8)];
        let builtin =
            reference_execute(&BuiltinSpatialJoin::new(), &parks, &fires, &params).unwrap();
        let fudj = FudjEngineJoin::new(Arc::new(ProxyJoin::new(SpatialFudj::new())));
        let flexible = reference_execute(&fudj, &parks, &fires, &params).unwrap();
        assert_eq!(builtin, flexible);
        assert!(!builtin.is_empty(), "fixture should produce matches");

        // Exact boundary traffic, replayed on the untranslated algorithm:
        // SUMMARIZE and PARTITION translate every key once, DIVIDE every
        // parameter, COMBINE every key once per matched bucket pair, and
        // avoidance dedup both keys of every verified pair.
        let alg = ProxyJoin::new(SpatialFudj::new());
        assert!(alg.uses_default_match());
        assert_eq!(alg.dedup_mode(), DedupMode::Avoidance);
        let ext = |vs: &[Value]| -> Vec<ExtValue> {
            vs.iter().map(|v| to_external(v).unwrap()).collect()
        };
        let (lkeys, rkeys) = (ext(&parks), ext(&fires));
        let summarize = |side: Side, keys: &[ExtValue]| {
            let mut s = alg.new_summary(side);
            for k in keys {
                alg.local_aggregate(side, k, &mut s).unwrap();
            }
            s
        };
        let pplan = alg
            .divide(
                &summarize(Side::Left, &lkeys),
                &summarize(Side::Right, &rkeys),
                &ext(&params),
            )
            .unwrap();
        let bucketize = |side: Side, keys: &[ExtValue]| {
            let mut m: BTreeMap<BucketId, Vec<usize>> = BTreeMap::new();
            for (i, k) in keys.iter().enumerate() {
                let mut out = Vec::new();
                alg.assign(side, k, &pplan, &mut out).unwrap();
                out.sort_unstable();
                out.dedup();
                for b in out {
                    m.entry(b).or_default().push(i);
                }
            }
            m
        };
        let (lb, rb) = (
            bucketize(Side::Left, &lkeys),
            bucketize(Side::Right, &rkeys),
        );
        let (mut combine, mut pairs, mut verified) = (0, 0, 0);
        for (b, ls) in &lb {
            let Some(rs) = rb.get(b) else { continue };
            combine += ls.len() + rs.len();
            pairs += ls.len() * rs.len();
            for &i in ls {
                for &j in rs {
                    verified += alg.verify(*b, &lkeys[i], *b, &rkeys[j], &pplan).unwrap() as usize;
                }
            }
        }
        let n = parks.len() + fires.len();
        assert_eq!(
            fudj.translation_count(),
            (2 * n + params.len() + combine + 2 * verified) as u64
        );
        assert!(
            combine < 2 * pairs,
            "COMBINE translates per key, not per pair"
        );
    }

    #[test]
    fn advanced_spatial_equals_builtin() {
        let (parks, fires) = spatial_workload(21);
        let params = [Value::Int64(6)];
        let a = reference_execute(&BuiltinSpatialJoin::new(), &parks, &fires, &params).unwrap();
        let b = reference_execute(&AdvancedSpatialJoin::new(), &parks, &fires, &params).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn builtin_interval_equals_fudj_interval() {
        let mut rng = SmallRng::seed_from_u64(17);
        let mut side = |n: usize| -> Vec<Value> {
            (0..n)
                .map(|_| {
                    let s = rng.gen_range(0i64..50_000);
                    Value::Interval(Interval::new(s, s + rng.gen_range(0i64..2_000)))
                })
                .collect()
        };
        let l = side(70);
        let r = side(50);
        let params = [Value::Int64(64)];
        let builtin = reference_execute(&BuiltinIntervalJoin::new(), &l, &r, &params).unwrap();
        let fudj = FudjEngineJoin::new(Arc::new(ProxyJoin::new(IntervalFudj::new())));
        let flexible = reference_execute(&fudj, &l, &r, &params).unwrap();
        assert_eq!(builtin, flexible);
        assert!(!builtin.is_empty());
    }

    #[test]
    fn builtin_textsim_equals_fudj_textsim() {
        let vocab = [
            "river", "trail", "lake", "peak", "camp", "view", "rock", "wood", "fern",
        ];
        let mut rng = SmallRng::seed_from_u64(4);
        let mut side = |n: usize| -> Vec<Value> {
            (0..n)
                .map(|_| {
                    let len = rng.gen_range(2..7);
                    let text: Vec<&str> = (0..len)
                        .map(|_| vocab[rng.gen_range(0..vocab.len())])
                        .collect();
                    Value::str(text.join(" "))
                })
                .collect()
        };
        let l = side(50);
        let r = side(40);
        for t in [0.5, 0.8, 0.9] {
            let params = [Value::Float64(t)];
            let builtin = reference_execute(&BuiltinTextSimJoin::new(), &l, &r, &params).unwrap();
            let fudj = FudjEngineJoin::new(Arc::new(ProxyJoin::new(TextSimilarityFudj::new())));
            let flexible = reference_execute(&fudj, &l, &r, &params).unwrap();
            assert_eq!(builtin, flexible, "t={t}");
        }
    }

    #[test]
    fn builtin_rejects_wrong_key_types() {
        let j = BuiltinSpatialJoin::new();
        let mut s = j.new_summary(Side::Left);
        assert!(j
            .local_aggregate(Side::Left, &Value::Int64(1), &mut s)
            .is_err());

        let ij = BuiltinIntervalJoin::new();
        let mut s = ij.new_summary(Side::Left);
        assert!(ij
            .local_aggregate(Side::Left, &Value::str("x"), &mut s)
            .is_err());
    }

    #[test]
    fn builtin_spatial_param_validation() {
        let j = BuiltinSpatialJoin::new();
        let s = j.new_summary(Side::Left);
        assert!(j.divide(&s, &s, &[Value::Int64(0)]).is_err());
        assert!(j.divide(&s, &s, &[Value::Int64(1 << 20)]).is_err());
        assert!(j.divide(&s, &s, &[]).is_ok(), "default grid side applies");
    }
}
