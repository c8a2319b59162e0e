//! Distributed execution of the FUDJ join — the physical Fig. 8 plan.
//!
//! Phase by phase:
//!
//! 1. **SUMMARIZE** — each worker folds its partition's keys into a local
//!    summary in parallel; local summaries are gathered to the coordinator
//!    (their serialized size is charged to the network) and merged with
//!    `global_aggregate`. A self-join on a symmetric algorithm summarizes
//!    one side only and reuses the result (§VI-C).
//! 2. **DIVIDE** — the coordinator combines both summaries and the query
//!    parameters into the `PPlan`, then broadcasts it to every worker.
//! 3. **PARTITION** — each worker runs `assign` on each local row and tags
//!    the row with each returned bucket id (the UNNEST of the logical plan).
//!    *Default-match* joins hash-shuffle both sides by bucket — the hash
//!    partitioning the optimizer unlocks when `match` is untouched.
//!    *Theta* joins (interval, band) cannot hash-partition: the left side is
//!    rebalanced and the right side broadcast, the strategy AsterixDB falls
//!    back to and the cause of the interval join's scaling ceiling (§VII-C).
//! 4. **COMBINE** — each worker groups its rows by bucket (hash map, or a
//!    bucket-sorted merge under [`crate::CombineStrategy::SortMerge`]),
//!    matches bucket pairs (map lookup for default match, NLJ over bucket
//!    ids for theta), and runs the strategy's local join (`verify` inside)
//!    plus duplicate avoidance. Duplicate *elimination* instead costs one
//!    more shuffle of the joined output followed by a distinct pass — the
//!    delta Fig. 12a measures. Workers whose inputs exceed
//!    [`FudjJoinNode::memory_budget_rows`] grace-partition to temporary
//!    files first (§III-B spilling).
//!
//! Every phase runs on the cluster's fault-aware substrate: when a seeded
//! [`fudj_core::FaultConfig`] is armed, the worker pool retries injected
//! task failures (panics, transients, lost workers) with simulated
//! backoff and speculatively re-executes stragglers, while the exchanges
//! retransmit dropped partition deliveries and dedup duplicated ones —
//! so a join under chaos produces exactly the multiset of rows a
//! fault-free run produces, with the recovery work visible in
//! [`crate::fault::FaultStats`]. The phase driver itself needs no
//! fault-specific code: recovery lives entirely below the phase
//! boundary, in [`crate::pool::WorkerPool`] and [`crate::exchange`].

use crate::exchange;
use crate::executor::{Cluster, PartitionedData};
use crate::metrics::QueryMetrics;
use crate::plan::FudjJoinNode;
use crate::recovery;
use fudj_core::{BucketId, DedupMode, EngineJoin, PPlanState, Side, SummaryState, UdfPolicy};
use fudj_types::{FudjError, Result, Row, Value};
use std::collections::{HashMap, HashSet};

/// Rows with their tag column stripped, plus a bucket → row-index map.
type GroupedRows = (Vec<Row>, HashMap<BucketId, Vec<usize>>);

/// Rows with their tag column stripped, plus `(bucket, row index)` pairs
/// sorted by bucket (the merge order for [`sort_merge_partition`]).
type SortedRows = (Vec<Row>, Vec<(BucketId, usize)>);

/// Execute one FUDJ join node.
///
/// When the node's join is guarded, this is also the policy seat for
/// [`UdfPolicy::FallbackEquality`]: a [`FudjError::UdfViolation`] from a
/// default-equality-match join degrades the whole node to a plain
/// hash-equality join on the raw keys (re-evaluating the inputs), and the
/// guard's counters are folded into the query metrics either way.
pub fn execute(
    cluster: &Cluster,
    node: &FudjJoinNode,
    metrics: &QueryMetrics,
) -> Result<PartitionedData> {
    let result = execute_flexible(cluster, node, metrics);
    let Some(guard) = node.join.guard() else {
        return result;
    };
    let result = match result {
        Err(FudjError::UdfViolation { .. })
            if guard.policy() == UdfPolicy::FallbackEquality && node.join.uses_default_match() =>
        {
            guard.note_fallback();
            equality_fallback(cluster, node, metrics)
        }
        other => other,
    };
    metrics.record_udf(&guard.stats());
    result
}

/// The degraded path of [`UdfPolicy::FallbackEquality`]: hash-shuffle both
/// sides by raw key value and equality-join locally — no user callbacks at
/// all. Sound only because the planner arms this policy exclusively for
/// joins whose match predicate is declared to be plain key equality.
fn equality_fallback(
    cluster: &Cluster,
    node: &FudjJoinNode,
    metrics: &QueryMetrics,
) -> Result<PartitionedData> {
    metrics.phase("fallback", || -> Result<PartitionedData> {
        let workers = cluster.workers();
        let left_parts = cluster.execute_partitioned(&node.left, metrics)?;
        let right_parts = if node.self_join {
            left_parts.clone()
        } else {
            cluster.execute_partitioned(&node.right, metrics)?
        };
        let lkey = node.left_key;
        let rkey = node.right_key;
        let l = exchange::shuffle_by(left_parts, cluster.pool(), metrics, |row| {
            (exchange::route_hash(row.get(lkey)) as usize) % workers
        })?;
        let r = exchange::shuffle_by(right_parts, cluster.pool(), metrics, |row| {
            (exchange::route_hash(row.get(rkey)) as usize) % workers
        })?;
        let zipped: Vec<(Vec<Row>, Vec<Row>)> = l.into_iter().zip(r).collect();
        cluster.parallel_map(metrics, zipped, |(lrows, rrows)| {
            let mut table: HashMap<Value, Vec<Row>> = HashMap::new();
            for row in lrows {
                table.entry(row.get(lkey).clone()).or_default().push(row);
            }
            let mut out = Vec::new();
            for rrow in rrows {
                if let Some(ls) = table.get(rrow.get(rkey)) {
                    for lrow in ls {
                        out.push(lrow.concat(&rrow));
                    }
                }
            }
            Ok(out)
        })
    })
}

/// Execute one FUDJ join node through the full flexible-join flow.
fn execute_flexible(
    cluster: &Cluster,
    node: &FudjJoinNode,
    metrics: &QueryMetrics,
) -> Result<PartitionedData> {
    let join = node.join.as_ref();
    let workers = cluster.workers();

    // Crash-restart resume: a durably committed `join:combine` boundary
    // means the joined output survives on disk — skip input evaluation and
    // SUMMARIZE / DIVIDE / PARTITION / COMBINE entirely, re-running only
    // the post-boundary work (duplicate elimination and the guard check).
    // A partly covered boundary falls back to the full flow, which is
    // always correct.
    if let Some(mut datasets) = metrics
        .recovery()
        .and_then(|r| r.try_resume("join:combine", &["joined"], workers))
    {
        let joined = datasets.pop().unwrap_or_default();
        return finish_join(cluster, join, joined, metrics);
    }

    // Evaluate inputs (self-join: once).
    let left_parts = cluster.execute_partitioned(&node.left, metrics)?;
    let right_parts = if node.self_join {
        left_parts.clone()
    } else {
        cluster.execute_partitioned(&node.right, metrics)?
    };

    // ---- SUMMARIZE -----------------------------------------------------
    let summarize_once = node.self_join && join.symmetric();
    let (left_summary, right_summary) = metrics.phase("summarize", || -> Result<_> {
        let ls = summarize_side(
            cluster,
            join,
            Side::Left,
            &left_parts,
            node.left_key,
            metrics,
        )?;
        let rs = if summarize_once {
            ls.clone()
        } else {
            summarize_side(
                cluster,
                join,
                Side::Right,
                &right_parts,
                node.right_key,
                metrics,
            )?
        };
        Ok((ls, rs))
    })?;

    // ---- DIVIDE ----------------------------------------------------------
    let pplan = metrics.phase("divide", || -> Result<PPlanState> {
        let plan = join.divide(&left_summary, &right_summary, &node.params)?;
        // Broadcast of the PPlan to every remote worker.
        metrics.record_state_bytes(plan.serialized_len() as u64 * workers.saturating_sub(1) as u64);
        Ok(plan)
    })?;

    // ---- PARTITION -------------------------------------------------------
    let default_match = join.uses_default_match();
    let run_partition =
        |lp: PartitionedData, rp: PartitionedData| -> Result<(PartitionedData, PartitionedData)> {
            let lt = assign_and_tag(
                cluster,
                join,
                Side::Left,
                lp,
                node.left_key,
                &pplan,
                metrics,
            )?;
            let rt = assign_and_tag(
                cluster,
                join,
                Side::Right,
                rp,
                node.right_key,
                &pplan,
                metrics,
            )?;
            if default_match {
                // Hash partitioning by bucket id: matching buckets
                // co-locate. Total over any row shape — an untagged row
                // (impossible after assign_and_tag, but not worth a panic
                // on the query path) routes to worker 0.
                let bucket_col = |row: &Row| match row.values().last() {
                    Some(bucket) => (exchange::route_hash(bucket) as usize) % workers,
                    None => 0,
                };
                let l = exchange::shuffle_by(lt, cluster.pool(), metrics, bucket_col)?;
                let r = exchange::shuffle_by(rt, cluster.pool(), metrics, bucket_col)?;
                Ok((l, r))
            } else {
                // Theta multi-join: no partitioning scheme applies.
                // Rebalance one side, broadcast the other.
                let l = exchange::rebalance(lt, cluster.pool(), metrics)?;
                let r = exchange::broadcast(rt, cluster.pool(), metrics)?;
                Ok((l, r))
            }
        };
    // Full-stage replay after a worker death needs the stage *inputs*;
    // retain them only when deaths can actually strike.
    let deaths_armed = metrics
        .recovery()
        .map(|r| r.deaths_armed())
        .unwrap_or(false);
    let partition_src = deaths_armed.then(|| (left_parts.clone(), right_parts.clone()));
    let (mut left_tagged, mut right_tagged) =
        metrics.phase("partition", || run_partition(left_parts, right_parts))?;
    recovery::stage_boundary(
        metrics,
        "join:partition",
        &mut [("left", &mut left_tagged), ("right", &mut right_tagged)],
        || {
            let (lp, rp) = partition_src.clone().ok_or_else(|| {
                FudjError::Execution(
                    "join:partition replay requested without retained inputs".into(),
                )
            })?;
            let (l, r) = run_partition(lp, rp)?;
            Ok(vec![l, r])
        },
    )?;

    // ---- COMBINE -----------------------------------------------------------
    let dedup_mode = join.dedup_mode();
    let run_combine = |lt: PartitionedData, rt: PartitionedData| -> Result<PartitionedData> {
        let zipped: Vec<(Vec<Row>, Vec<Row>)> = lt.into_iter().zip(rt).collect();
        let ctx = CombineContext {
            join,
            left_key: node.left_key,
            right_key: node.right_key,
            pplan: &pplan,
            default_match,
            dedup_mode,
            combine: node.combine,
            metrics,
        };
        cluster.parallel_map(metrics, zipped, |(lrows, rrows)| {
            // Avoidance dedup re-invokes `assign`; each combine task gets
            // its own guard fan-out window.
            if let Some(g) = join.guard() {
                g.begin_partition();
            }
            // §III-B spilling: a worker whose tagged inputs exceed the
            // memory budget spills. Default-match joins grace-partition
            // through the memory-adaptive hybrid-hash COMBINE; theta
            // joins (matches span bucket-hash partitions, so hash
            // partitioning is unsound) stream both sides to disk and
            // join block-nested within the budget.
            match node.memory_budget_rows {
                Some(budget) if lrows.len() + rrows.len() > budget => {
                    if default_match {
                        crate::spill::hybrid_hash_join(&ctx, lrows, rrows, budget, &node.spill)
                    } else {
                        crate::spill::theta_bnl_join(&ctx, lrows, rrows, budget, &node.spill)
                    }
                }
                _ => join_worker_partition(&ctx, lrows, rrows),
            }
        })
    };
    let combine_src = deaths_armed.then(|| (left_tagged.clone(), right_tagged.clone()));
    let mut joined = metrics.phase("join", || run_combine(left_tagged, right_tagged))?;
    recovery::stage_boundary(
        metrics,
        "join:combine",
        &mut [("joined", &mut joined)],
        || {
            let (lt, rt) = combine_src.clone().ok_or_else(|| {
                FudjError::Execution("join:combine replay requested without retained inputs".into())
            })?;
            Ok(vec![run_combine(lt, rt)?])
        },
    )?;

    finish_join(cluster, join, joined, metrics)
}

/// The post-COMBINE tail of the flexible-join flow: the optional duplicate
/// *elimination* stage (one more shuffle + distinct) and the deferred
/// guard-violation check. Split out so a crash-restart resume can enter
/// here directly with the joined output restored from durable checkpoints.
fn finish_join(
    cluster: &Cluster,
    join: &dyn EngineJoin,
    joined: PartitionedData,
    metrics: &QueryMetrics,
) -> Result<PartitionedData> {
    let result = if join.dedup_mode() == DedupMode::Elimination {
        metrics.phase("dedup", || -> Result<PartitionedData> {
            let shuffled = exchange::shuffle_by_row(joined, cluster.pool(), metrics)?;
            cluster.parallel_map(metrics, shuffled, |rows| {
                let before = rows.len();
                let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    if seen.insert(row.clone()) {
                        out.push(row);
                    }
                }
                metrics.record_dedup_rejections((before - out.len()) as u64);
                Ok(out)
            })
        })?
    } else {
        joined
    };

    // Surface any violation deferred by a callback with no `Result` channel
    // (a panicking theta `matches`) — nothing gets silently swallowed.
    if let Some(g) = join.guard() {
        g.check()?;
    }
    Ok(result)
}

/// SUMMARIZE one side: parallel local aggregation, gather, global merge.
fn summarize_side(
    cluster: &Cluster,
    join: &dyn EngineJoin,
    side: Side,
    parts: &PartitionedData,
    key_col: usize,
    metrics: &QueryMetrics,
) -> Result<SummaryState> {
    let locals: Vec<SummaryState> =
        cluster.parallel_map(metrics, parts.iter().collect::<Vec<&Vec<Row>>>(), |rows| {
            let mut summary = join.new_summary(side);
            for row in rows {
                join.local_aggregate(side, row.get(key_col), &mut summary)?;
            }
            Ok(summary)
        })?;
    // Gathering local summaries to the coordinator costs their bytes
    // (all but the coordinator's own).
    let state_bytes: u64 = locals
        .iter()
        .skip(1)
        .map(|s| s.serialized_len() as u64)
        .sum();
    metrics.record_state_bytes(state_bytes);

    let mut iter = locals.into_iter();
    let first = iter
        .next()
        .ok_or_else(|| FudjError::Execution("no partitions to summarize".into()))?;
    iter.try_fold(first, |acc, s| join.global_aggregate(side, acc, s))
}

/// ASSIGN/UNNEST one side: each row becomes one tagged row per bucket id,
/// with the bucket appended as a trailing `Int64` column (bit-preserving).
fn assign_and_tag(
    cluster: &Cluster,
    join: &dyn EngineJoin,
    side: Side,
    parts: PartitionedData,
    key_col: usize,
    pplan: &PPlanState,
    metrics: &QueryMetrics,
) -> Result<PartitionedData> {
    let mode = metrics.exec_mode();
    cluster.parallel_map(metrics, parts, |rows| {
        // One task = one partition: open a fresh fan-out window for the
        // guard's per-partition assign budget.
        if let Some(g) = join.guard() {
            g.begin_partition();
        }
        let mut out = Vec::with_capacity(rows.len());
        match mode {
            crate::mode::ExecMode::Columnar => {
                // Stride path: slice out the key column and cross the UDF
                // boundary once per partition via `assign_slice` — the
                // batch-level amortization of the per-call overhead. The
                // callback sees sorted, deduplicated buckets per key, so
                // the tagged output is identical to the row path's.
                let keys: Vec<&Value> = rows.iter().map(|r| r.get(key_col)).collect();
                join.assign_slice(side, &keys, pplan, &mut |i, buckets| {
                    for &b in buckets {
                        out.push(rows[i].with_appended(Value::Int64(b as i64)));
                    }
                })?;
            }
            crate::mode::ExecMode::Row => {
                let mut buckets: Vec<BucketId> = Vec::new();
                for row in rows {
                    buckets.clear();
                    join.assign(side, row.get(key_col), pplan, &mut buckets)?;
                    buckets.sort_unstable();
                    buckets.dedup();
                    for &b in &buckets {
                        out.push(row.with_appended(Value::Int64(b as i64)));
                    }
                }
            }
        }
        Ok(out)
    })
}

/// Bucket id from a tagged row's trailing column. A malformed row is an
/// execution error, not a panic — this sits on the query path and a
/// misbehaving UDF must not take the process down.
#[inline]
pub(crate) fn bucket_of(row: &Row) -> Result<BucketId> {
    match row.values().last() {
        Some(Value::Int64(b)) => Ok(*b as BucketId),
        other => Err(FudjError::Execution(format!(
            "tagged row must end with an Int64 bucket, got {other:?}"
        ))),
    }
}

/// Group tagged rows by bucket; strip the tag.
fn group_by_bucket(rows: Vec<Row>) -> Result<GroupedRows> {
    let mut stripped = Vec::with_capacity(rows.len());
    let mut groups: HashMap<BucketId, Vec<usize>> = HashMap::new();
    for row in rows {
        let b = bucket_of(&row)?;
        groups.entry(b).or_default().push(stripped.len());
        stripped.push(row.prefix(row.len() - 1));
    }
    Ok((stripped, groups))
}

/// Everything one worker's COMBINE needs, bundled to keep signatures sane.
pub(crate) struct CombineContext<'a> {
    pub(crate) join: &'a dyn EngineJoin,
    pub(crate) left_key: usize,
    pub(crate) right_key: usize,
    pub(crate) pplan: &'a PPlanState,
    pub(crate) default_match: bool,
    pub(crate) dedup_mode: DedupMode,
    pub(crate) combine: crate::plan::CombineStrategy,
    pub(crate) metrics: &'a QueryMetrics,
}

/// COMBINE on one worker: match local bucket pairs, run local joins, dedup.
pub(crate) fn join_worker_partition(
    ctx: &CombineContext<'_>,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
) -> Result<Vec<Row>> {
    if ctx.combine == crate::plan::CombineStrategy::SortMerge && ctx.default_match {
        return sort_merge_partition(ctx, lrows, rrows);
    }
    let (lrows, lgroups) = group_by_bucket(lrows)?;
    let (rrows, rgroups) = group_by_bucket(rrows)?;

    // Matched bucket pairs, deterministic order.
    let mut matched: Vec<(BucketId, BucketId)> = if ctx.default_match {
        lgroups
            .keys()
            .filter(|b| rgroups.contains_key(b))
            .map(|&b| (b, b))
            .collect()
    } else {
        let mut v = Vec::new();
        for &b1 in lgroups.keys() {
            for &b2 in rgroups.keys() {
                if ctx.join.matches(b1, b2) {
                    v.push((b1, b2));
                }
            }
        }
        v
    };
    matched.sort_unstable();

    let mut out = Vec::new();
    for (b1, b2) in matched {
        let lidx = &lgroups[&b1];
        let ridx = &rgroups[&b2];
        join_bucket_pair(ctx, b1, &lrows, lidx, b2, &rrows, ridx, &mut out)?;
    }
    Ok(out)
}

/// Sort-merge COMBINE (default-match only): sort both sides by bucket id and
/// merge equal runs — no hash table, sequential access (§VIII future work).
fn sort_merge_partition(
    ctx: &CombineContext<'_>,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
) -> Result<Vec<Row>> {
    let strip = |rows: Vec<Row>| -> Result<SortedRows> {
        let mut stripped = Vec::with_capacity(rows.len());
        let mut tagged = Vec::with_capacity(rows.len());
        for row in rows {
            let b = bucket_of(&row)?;
            tagged.push((b, stripped.len()));
            stripped.push(row.prefix(row.len() - 1));
        }
        tagged.sort_unstable();
        Ok((stripped, tagged))
    };
    let (lrows, lsorted) = strip(lrows)?;
    let (rrows, rsorted) = strip(rrows)?;

    let mut out = Vec::new();
    let mut l = 0usize;
    let mut r = 0usize;
    while l < lsorted.len() && r < rsorted.len() {
        let lb = lsorted[l].0;
        let rb = rsorted[r].0;
        match lb.cmp(&rb) {
            std::cmp::Ordering::Less => l += 1,
            std::cmp::Ordering::Greater => r += 1,
            std::cmp::Ordering::Equal => {
                let le = lsorted[l..].iter().take_while(|(b, _)| *b == lb).count() + l;
                let re = rsorted[r..].iter().take_while(|(b, _)| *b == rb).count() + r;
                let lidx: Vec<usize> = lsorted[l..le].iter().map(|(_, i)| *i).collect();
                let ridx: Vec<usize> = rsorted[r..re].iter().map(|(_, j)| *j).collect();
                join_bucket_pair(ctx, lb, &lrows, &lidx, rb, &rrows, &ridx, &mut out)?;
                l = le;
                r = re;
            }
        }
    }
    Ok(out)
}

/// Local join of one matched bucket pair: run the strategy's local join
/// (`verify` inside), then duplicate handling; append joined rows to `out`.
#[allow(clippy::too_many_arguments)]
fn join_bucket_pair(
    ctx: &CombineContext<'_>,
    b1: BucketId,
    lrows: &[Row],
    lidx: &[usize],
    b2: BucketId,
    rrows: &[Row],
    ridx: &[usize],
    out: &mut Vec<Row>,
) -> Result<()> {
    let lkeys: Vec<Value> = lidx
        .iter()
        .map(|&i| lrows[i].get(ctx.left_key).clone())
        .collect();
    let rkeys: Vec<Value> = ridx
        .iter()
        .map(|&j| rrows[j].get(ctx.right_key).clone())
        .collect();
    ctx.metrics
        .record_verify_calls((lkeys.len() * rkeys.len()) as u64);

    let mut verified: Vec<(usize, usize)> = Vec::new();
    ctx.join
        .local_join_pairs(b1, &lkeys, b2, &rkeys, ctx.pplan, &mut |i, j| {
            verified.push((i, j));
        })?;

    // Framework duplicate avoidance, engine-side: each key's bucket list is
    // computed once per bucket group, not once per verified pair — for text
    // joins, per-pair re-assignment means re-tokenizing both records and is
    // the difference between avoidance beating or losing to elimination.
    let mut lassign: Vec<Option<Vec<BucketId>>> = vec![None; lkeys.len()];
    let mut rassign: Vec<Option<Vec<BucketId>>> = vec![None; rkeys.len()];
    let cached_assign = |side: Side,
                         keys: &[Value],
                         cache: &mut Vec<Option<Vec<BucketId>>>,
                         k: usize|
     -> Result<Vec<BucketId>> {
        if let Some(cached) = &cache[k] {
            return Ok(cached.clone());
        }
        let mut buckets = Vec::new();
        ctx.join.assign(side, &keys[k], ctx.pplan, &mut buckets)?;
        buckets.sort_unstable();
        buckets.dedup();
        cache[k] = Some(buckets.clone());
        Ok(buckets)
    };

    let mut rejections = 0u64;
    for (i, j) in verified {
        let keep = match ctx.dedup_mode {
            DedupMode::None | DedupMode::Elimination => true,
            DedupMode::Custom => ctx.join.dedup(b1, &lkeys[i], b2, &rkeys[j], ctx.pplan)?,
            DedupMode::Avoidance => {
                // Accept only from the first matching bucket pair — the
                // same canonical order as `fudj_core::avoidance_accepts`.
                let lb = cached_assign(Side::Left, &lkeys, &mut lassign, i)?;
                let rb = cached_assign(Side::Right, &rkeys, &mut rassign, j)?;
                let mut first = None;
                'outer: for &x in &lb {
                    for &y in &rb {
                        if ctx.join.matches(x, y) {
                            first = Some((x, y));
                            break 'outer;
                        }
                    }
                }
                first == Some((b1, b2))
            }
        };
        if keep {
            out.push(lrows[lidx[i]].concat(&rrows[ridx[j]]));
        } else {
            rejections += 1;
        }
    }
    ctx.metrics.record_dedup_rejections(rejections);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecOpts;
    use crate::plan::PhysicalPlan;
    use fudj_core::{reference_execute, FudjEngineJoin, ProxyJoin};
    use fudj_geo::{Point, Polygon, Rect};
    use fudj_joins::builtin::{AdvancedSpatialJoin, BuiltinIntervalJoin, BuiltinSpatialJoin};
    use fudj_joins::{IntervalFudj, SpatialFudj, TextSimilarityFudj};
    use fudj_storage::DatasetBuilder;
    use fudj_temporal::Interval;
    use fudj_types::{DataType, Field, Schema};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::sync::Arc;

    fn geo_dataset(name: &str, rows: Vec<Value>, parts: usize) -> Arc<fudj_storage::Dataset> {
        let dt = rows
            .first()
            .map(Value::data_type)
            .unwrap_or(DataType::Point);
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("geom", dt),
        ]);
        let d = DatasetBuilder::new(name, schema)
            .partitions(parts)
            .build()
            .unwrap();
        for (i, g) in rows.into_iter().enumerate() {
            d.insert(Row::new(vec![Value::Int64(i as i64), g])).unwrap();
        }
        Arc::new(d)
    }

    fn spatial_values(seed: u64, polys: usize, pts: usize) -> (Vec<Value>, Vec<Value>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let parks: Vec<Value> = (0..polys)
            .map(|_| {
                let x = rng.gen_range(0.0..90.0);
                let y = rng.gen_range(0.0..90.0);
                Value::polygon(Polygon::from_rect(&Rect::new(
                    x,
                    y,
                    x + rng.gen_range(0.5..10.0),
                    y + rng.gen_range(0.5..10.0),
                )))
            })
            .collect();
        let fires: Vec<Value> = (0..pts)
            .map(|_| {
                Value::Point(Point::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                ))
            })
            .collect();
        (parks, fires)
    }

    /// Extract (left_id, right_id) pairs from a joined batch.
    fn id_pairs(batch: &fudj_types::Batch) -> Vec<(i64, i64)> {
        let mut v: Vec<(i64, i64)> = batch
            .rows()
            .iter()
            .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
            .collect();
        v.sort_unstable();
        v
    }

    fn fudj_plan(
        left: Arc<fudj_storage::Dataset>,
        right: Arc<fudj_storage::Dataset>,
        join: Arc<dyn EngineJoin>,
        params: Vec<Value>,
    ) -> PhysicalPlan {
        PhysicalPlan::FudjJoin(FudjJoinNode::new(
            PhysicalPlan::Scan { dataset: left },
            PhysicalPlan::Scan { dataset: right },
            join,
            1,
            1,
            params,
        ))
    }

    /// The central correctness claim: for every join strategy and any worker
    /// count, the distributed execution equals the sequential reference.
    #[test]
    fn distributed_spatial_equals_reference_all_worker_counts() {
        let (parks, fires) = spatial_values(42, 30, 60);
        let reference = {
            let ej = FudjEngineJoin::new(Arc::new(ProxyJoin::new(SpatialFudj::new())));
            reference_execute(&ej, &parks, &fires, &[Value::Int64(8)]).unwrap()
        };
        assert!(!reference.is_empty());
        let expected: Vec<(i64, i64)> = reference
            .iter()
            .map(|&(i, j)| (i as i64, j as i64))
            .collect();

        for workers in [1, 2, 4, 7] {
            let cluster = Cluster::new(workers);
            let plan = fudj_plan(
                geo_dataset("parks", parks.clone(), 4),
                geo_dataset("fires", fires.clone(), 4),
                Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                    SpatialFudj::new(),
                )))),
                vec![Value::Int64(8)],
            );
            let (batch, _) = cluster.execute(&plan, ExecOpts::default()).unwrap();
            assert_eq!(id_pairs(&batch), expected, "workers={workers}");
        }
    }

    #[test]
    fn distributed_builtin_and_advanced_spatial_agree() {
        let (parks, fires) = spatial_values(11, 25, 50);
        let cluster = Cluster::new(3);
        let mk = |join: Arc<dyn EngineJoin>| {
            fudj_plan(
                geo_dataset("parks", parks.clone(), 3),
                geo_dataset("fires", fires.clone(), 3),
                join,
                vec![Value::Int64(6)],
            )
        };
        let (b1, _) = cluster
            .execute(
                &mk(Arc::new(BuiltinSpatialJoin::new())),
                ExecOpts::default(),
            )
            .unwrap();
        let (b2, _) = cluster
            .execute(
                &mk(Arc::new(AdvancedSpatialJoin::new())),
                ExecOpts::default(),
            )
            .unwrap();
        let (b3, _) = cluster
            .execute(
                &mk(Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                    SpatialFudj::new(),
                ))))),
                ExecOpts::default(),
            )
            .unwrap();
        assert_eq!(id_pairs(&b1), id_pairs(&b2));
        assert_eq!(id_pairs(&b1), id_pairs(&b3));
        assert!(!b1.is_empty());
    }

    #[test]
    fn theta_interval_join_broadcasts_and_matches_reference() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut side = |n: usize| -> Vec<Value> {
            (0..n)
                .map(|_| {
                    let s = rng.gen_range(0i64..20_000);
                    Value::Interval(Interval::new(s, s + rng.gen_range(0i64..1500)))
                })
                .collect()
        };
        let l = side(60);
        let r = side(40);
        let reference = {
            let ej = FudjEngineJoin::new(Arc::new(ProxyJoin::new(IntervalFudj::new())));
            reference_execute(&ej, &l, &r, &[Value::Int64(32)]).unwrap()
        };
        let expected: Vec<(i64, i64)> = reference
            .iter()
            .map(|&(i, j)| (i as i64, j as i64))
            .collect();

        let cluster = Cluster::new(4);
        let plan = fudj_plan(
            geo_dataset("rides_a", l, 4),
            geo_dataset("rides_b", r, 4),
            Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                IntervalFudj::new(),
            )))),
            vec![Value::Int64(32)],
        );
        let (batch, metrics) = cluster.execute(&plan, ExecOpts::default()).unwrap();
        assert_eq!(id_pairs(&batch), expected);
        assert!(
            metrics.snapshot().rows_broadcast > 0,
            "theta join must broadcast one side"
        );
        // Builtin agrees too.
        let plan2 = fudj_plan(
            geo_dataset(
                "rides_a2",
                {
                    let mut rng = SmallRng::seed_from_u64(9);
                    (0..60)
                        .map(|_| {
                            let s = rng.gen_range(0i64..20_000);
                            Value::Interval(Interval::new(s, s + rng.gen_range(0i64..1500)))
                        })
                        .collect()
                },
                4,
            ),
            geo_dataset(
                "rides_b2",
                {
                    let mut rng = SmallRng::seed_from_u64(9);
                    let _: Vec<Value> = (0..60)
                        .map(|_| {
                            let s = rng.gen_range(0i64..20_000);
                            Value::Interval(Interval::new(s, s + rng.gen_range(0i64..1500)))
                        })
                        .collect();
                    (0..40)
                        .map(|_| {
                            let s = rng.gen_range(0i64..20_000);
                            Value::Interval(Interval::new(s, s + rng.gen_range(0i64..1500)))
                        })
                        .collect()
                },
                4,
            ),
            Arc::new(BuiltinIntervalJoin::new()),
            vec![Value::Int64(32)],
        );
        let (batch2, _) = cluster.execute(&plan2, ExecOpts::default()).unwrap();
        assert_eq!(id_pairs(&batch2), expected);
    }

    #[test]
    fn text_similarity_distributed_matches_reference() {
        let vocab = ["river", "trail", "lake", "peak", "camp", "view", "rock"];
        let mut rng = SmallRng::seed_from_u64(2);
        let mut side = |n: usize| -> Vec<Value> {
            (0..n)
                .map(|_| {
                    let len = rng.gen_range(2..6);
                    Value::str(
                        (0..len)
                            .map(|_| vocab[rng.gen_range(0..vocab.len())])
                            .collect::<Vec<_>>()
                            .join(" "),
                    )
                })
                .collect()
        };
        let l = side(40);
        let r = side(30);
        let reference = {
            let ej = FudjEngineJoin::new(Arc::new(ProxyJoin::new(TextSimilarityFudj::new())));
            reference_execute(&ej, &l, &r, &[Value::Float64(0.6)]).unwrap()
        };
        let expected: Vec<(i64, i64)> = reference
            .iter()
            .map(|&(i, j)| (i as i64, j as i64))
            .collect();

        let cluster = Cluster::new(3);
        let plan = fudj_plan(
            geo_dataset("rev_a", l, 3),
            geo_dataset("rev_b", r, 3),
            Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                TextSimilarityFudj::new(),
            )))),
            vec![Value::Float64(0.6)],
        );
        let (batch, _) = cluster.execute(&plan, ExecOpts::default()).unwrap();
        assert_eq!(id_pairs(&batch), expected);
    }

    /// Counts gate passes: one per pool batch the executor dispatches.
    struct CountingGate(std::sync::atomic::AtomicUsize);

    impl crate::control::DispatchGate for CountingGate {
        fn enter(&self, _tasks: usize) -> Result<()> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }
        fn exit(&self, _tasks: usize) {}
    }

    /// `stage_count` predicts the gate passes of a fault-free run for
    /// every join shape: hash and theta partitioning, both dedup modes,
    /// summarize-once self-joins, and on-top NLJ under aggregate, sort
    /// and limit.
    #[test]
    fn stage_count_equals_gate_passes() {
        use crate::control::{DispatchGate, QueryControl};
        use crate::plan::{Aggregate, SortKey};
        use fudj_joins::SpatialDedup;
        let (parks, fires) = spatial_values(7, 20, 40);
        let p = geo_dataset("p", parks, 3);
        let f = geo_dataset("f", fires, 3);
        let spatial = |dedup| -> Arc<dyn EngineJoin> {
            Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                SpatialFudj::with_dedup(dedup),
            ))))
        };
        let mut self_join = FudjJoinNode::new(
            PhysicalPlan::Scan { dataset: p.clone() },
            PhysicalPlan::Scan { dataset: p.clone() },
            spatial(SpatialDedup::FrameworkAvoidance),
            1,
            1,
            vec![Value::Int64(8)],
        );
        self_join.self_join = true;
        let rides = |name: &str, n: i64| {
            let spans = (0..n).map(|i| Value::Interval(Interval::new(i * 10, i * 10 + 25)));
            geo_dataset(name, spans.collect(), 3)
        };
        let on_top = PhysicalPlan::NlJoin {
            left: Box::new(PhysicalPlan::Scan { dataset: p.clone() }),
            right: Box::new(PhysicalPlan::Scan { dataset: f.clone() }),
            predicate: Arc::new(|l, r| Ok(l.get(0).as_i64()? == r.get(0).as_i64()?)),
        };
        let plans = [
            fudj_plan(
                p.clone(),
                f.clone(),
                spatial(SpatialDedup::FrameworkAvoidance),
                vec![Value::Int64(8)],
            ),
            fudj_plan(
                p.clone(),
                f.clone(),
                spatial(SpatialDedup::Elimination),
                vec![Value::Int64(8)],
            ),
            PhysicalPlan::FudjJoin(self_join),
            fudj_plan(
                rides("a", 30),
                rides("b", 20),
                Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                    IntervalFudj::new(),
                )))),
                vec![Value::Int64(16)],
            ),
            PhysicalPlan::Limit {
                input: Box::new(PhysicalPlan::Sort {
                    input: Box::new(PhysicalPlan::HashAggregate {
                        input: Box::new(on_top),
                        group_by: vec![0],
                        aggregates: vec![Aggregate::count_star("c")],
                    }),
                    keys: vec![SortKey::asc(0)],
                }),
                limit: 3,
            },
        ];
        for workers in [1, 3] {
            let cluster = Cluster::new(workers);
            for (i, plan) in plans.iter().enumerate() {
                let gate = Arc::new(CountingGate(Default::default()));
                let opts = ExecOpts {
                    control: Some(Arc::new(QueryControl::new("count", None))),
                    gate: Some(gate.clone() as Arc<dyn DispatchGate>),
                    ..ExecOpts::default()
                };
                cluster.execute(plan, opts).unwrap();
                assert_eq!(
                    gate.0.load(std::sync::atomic::Ordering::Relaxed),
                    crate::executor::stage_count(plan),
                    "plan {i} on {workers} workers"
                );
            }
        }
    }

    #[test]
    fn elimination_mode_runs_extra_stage_same_result() {
        use fudj_joins::{SpatialDedup, TextDedup};
        let _ = TextDedup::Avoidance; // silence unused import paths in some cfgs
        let (parks, fires) = spatial_values(5, 20, 40);
        let cluster = Cluster::new(3);
        let avoid = fudj_plan(
            geo_dataset("p1", parks.clone(), 3),
            geo_dataset("f1", fires.clone(), 3),
            Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                SpatialFudj::new(),
            )))),
            vec![Value::Int64(10)],
        );
        let elim = fudj_plan(
            geo_dataset("p2", parks, 3),
            geo_dataset("f2", fires, 3),
            Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                SpatialFudj::with_dedup(SpatialDedup::Elimination),
            )))),
            vec![Value::Int64(10)],
        );
        let (b1, m1) = cluster.execute(&avoid, ExecOpts::default()).unwrap();
        let (b2, m2) = cluster.execute(&elim, ExecOpts::default()).unwrap();
        assert_eq!(id_pairs(&b1), id_pairs(&b2));
        // Elimination pays an extra dedup stage with its own shuffle.
        assert!(m2.snapshot().phase_total("dedup") > std::time::Duration::ZERO);
        assert_eq!(
            m1.snapshot().phase_total("dedup"),
            std::time::Duration::ZERO
        );
    }

    #[test]
    fn self_join_summarizes_once() {
        let (parks, _) = spatial_values(1, 25, 0);
        let ds = geo_dataset("parks_self", parks, 3);
        let cluster = Cluster::new(3);
        let mut node = FudjJoinNode::new(
            PhysicalPlan::Scan {
                dataset: ds.clone(),
            },
            PhysicalPlan::Scan {
                dataset: ds.clone(),
            },
            Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                SpatialFudj::new(),
            )))),
            1,
            1,
            vec![Value::Int64(8)],
        );
        let (plain, _) = cluster
            .execute(&PhysicalPlan::FudjJoin(node), ExecOpts::default())
            .unwrap();

        node = FudjJoinNode::new(
            PhysicalPlan::Scan {
                dataset: ds.clone(),
            },
            PhysicalPlan::Scan { dataset: ds },
            Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                SpatialFudj::new(),
            )))),
            1,
            1,
            vec![Value::Int64(8)],
        );
        node.self_join = true;
        let (optimized, m_opt) = cluster
            .execute(&PhysicalPlan::FudjJoin(node), ExecOpts::default())
            .unwrap();
        assert_eq!(id_pairs(&plain), id_pairs(&optimized));
        // A self-join includes every (i, i) pair.
        assert!(id_pairs(&optimized).iter().filter(|(a, b)| a == b).count() >= 25);
        assert!(m_opt.snapshot().phase_total("summarize") > std::time::Duration::ZERO);
    }

    #[test]
    fn sort_merge_combine_equals_hash_combine() {
        let (parks, fires) = spatial_values(77, 35, 70);
        let cluster = Cluster::new(3);
        let mk = |combine: crate::plan::CombineStrategy| {
            let mut node = FudjJoinNode::new(
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("p_{combine:?}"), parks.clone(), 3),
                },
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("f_{combine:?}"), fires.clone(), 3),
                },
                Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                    SpatialFudj::new(),
                )))),
                1,
                1,
                vec![Value::Int64(10)],
            );
            node.combine = combine;
            PhysicalPlan::FudjJoin(node)
        };
        let (hash, _) = cluster
            .execute(
                &mk(crate::plan::CombineStrategy::HashGroup),
                ExecOpts::default(),
            )
            .unwrap();
        let (merge, _) = cluster
            .execute(
                &mk(crate::plan::CombineStrategy::SortMerge),
                ExecOpts::default(),
            )
            .unwrap();
        assert_eq!(id_pairs(&hash), id_pairs(&merge));
        assert!(!hash.is_empty());
    }

    #[test]
    fn spilling_join_equals_in_memory_join() {
        let (parks, fires) = spatial_values(55, 40, 80);
        let cluster = Cluster::new(2);
        let mk = |budget: Option<usize>| {
            let mut node = FudjJoinNode::new(
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("ps_{budget:?}"), parks.clone(), 2),
                },
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("fs_{budget:?}"), fires.clone(), 2),
                },
                Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                    SpatialFudj::new(),
                )))),
                1,
                1,
                vec![Value::Int64(8)],
            );
            node.memory_budget_rows = budget;
            PhysicalPlan::FudjJoin(node)
        };
        let (in_memory, m1) = cluster.execute(&mk(None), ExecOpts::default()).unwrap();
        // A budget far below the input size forces grace partitioning.
        let (spilled, m2) = cluster.execute(&mk(Some(10)), ExecOpts::default()).unwrap();
        assert_eq!(id_pairs(&in_memory), id_pairs(&spilled));
        assert!(!in_memory.is_empty());
        assert_eq!(m1.snapshot().spilled_rows, 0);
        assert!(m2.snapshot().spilled_rows > 0, "budget 10 must spill");
        assert!(m2.snapshot().spilled_bytes > 0);
    }

    #[test]
    fn spill_working_set_stays_within_budget_plus_one_row() {
        // Regression: the old grace path buffered every encoded row of both
        // sides in memory before writing a single byte. The hybrid-hash
        // COMBINE streams through bounded write buffers, so the peak
        // resident working set of a spilling task must never exceed the
        // budget by more than the row that triggered the eviction.
        let (parks, fires) = spatial_values(77, 60, 160);
        let budget = 24usize;
        let cluster = Cluster::new(2);
        let mk = |budget: Option<usize>| {
            let mut node = FudjJoinNode::new(
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("wp_{budget:?}"), parks.clone(), 2),
                },
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("wf_{budget:?}"), fires.clone(), 2),
                },
                Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                    SpatialFudj::new(),
                )))),
                1,
                1,
                vec![Value::Int64(8)],
            );
            node.memory_budget_rows = budget;
            PhysicalPlan::FudjJoin(node)
        };
        let (in_memory, _) = cluster.execute(&mk(None), ExecOpts::default()).unwrap();
        let (spilled, metrics) = cluster
            .execute(&mk(Some(budget)), ExecOpts::default())
            .unwrap();
        assert_eq!(id_pairs(&in_memory), id_pairs(&spilled));
        let s = metrics.snapshot();
        assert!(s.spilled_rows > 0, "workload must actually spill: {s:?}");
        assert!(s.spill_peak_resident_rows > 0);
        assert!(
            s.spill_peak_resident_rows <= budget as u64 + 1,
            "peak resident {} rows exceeds budget {budget} + 1",
            s.spill_peak_resident_rows,
        );
    }

    #[test]
    fn tiny_budget_recurses_instead_of_overflowing_fanout() {
        // Regression: the old path clamped its fan-out and then joined
        // whatever landed in each sub-partition in memory, silently
        // blowing the budget on a tiny budget with a large input. The
        // hybrid-hash COMBINE must recursively repartition instead (and
        // still produce exactly the in-memory result).
        let (parks, fires) = spatial_values(91, 80, 240);
        let cluster = Cluster::new(1);
        let mk = |budget: Option<usize>, fanout: usize| {
            let mut node = FudjJoinNode::new(
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("rp_{budget:?}"), parks.clone(), 1),
                },
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("rf_{budget:?}"), fires.clone(), 1),
                },
                Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                    SpatialFudj::new(),
                )))),
                1,
                1,
                vec![Value::Int64(8)],
            );
            node.memory_budget_rows = budget;
            node.spill.fanout = fanout;
            PhysicalPlan::FudjJoin(node)
        };
        let (in_memory, _) = cluster.execute(&mk(None, 16), ExecOpts::default()).unwrap();
        // Fan-out 2 with budget 6: the first pass cannot come close to
        // budget-sized sub-partitions, so correctness depends on recursion.
        let (spilled, metrics) = cluster
            .execute(&mk(Some(6), 2), ExecOpts::default())
            .unwrap();
        assert_eq!(id_pairs(&in_memory), id_pairs(&spilled));
        assert!(!in_memory.is_empty());
        let s = metrics.snapshot();
        assert!(s.spilled_rows > 0);
        assert!(
            s.spill_recursion_depth >= 1,
            "tiny budget + fanout 2 must recurse: {s:?}"
        );
        assert!(s.spill_passes >= 3, "recursion implies extra passes: {s:?}");
        assert!(
            s.spill_peak_resident_rows <= 6 + 1,
            "recursion must not blow the budget: {s:?}"
        );
    }

    #[test]
    fn theta_join_over_budget_spills_block_nested_and_matches_in_memory() {
        // Theta joins cannot grace-partition (matches span bucket-hash
        // sub-partitions), so an over-budget theta worker streams both
        // sides to disk and joins block-nested — same answer, bounded
        // memory, spill counters visible.
        let mut rng = SmallRng::seed_from_u64(31);
        let ivs: Vec<Value> = (0..50)
            .map(|_| {
                let s = rng.gen_range(0i64..5_000);
                Value::Interval(Interval::new(s, s + rng.gen_range(0i64..800)))
            })
            .collect();
        let cluster = Cluster::new(2);
        let mk = |budget: Option<usize>| {
            let mut node = FudjJoinNode::new(
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("iv_a_{budget:?}"), ivs.clone(), 2),
                },
                PhysicalPlan::Scan {
                    dataset: geo_dataset(&format!("iv_b_{budget:?}"), ivs.clone(), 2),
                },
                Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                    IntervalFudj::new(),
                )))),
                1,
                1,
                vec![Value::Int64(32)],
            );
            node.memory_budget_rows = budget;
            PhysicalPlan::FudjJoin(node)
        };
        let (in_memory, m1) = cluster.execute(&mk(None), ExecOpts::default()).unwrap();
        let (spilled, m2) = cluster.execute(&mk(Some(5)), ExecOpts::default()).unwrap();
        assert!(!in_memory.is_empty());
        assert_eq!(id_pairs(&in_memory), id_pairs(&spilled));
        assert_eq!(m1.snapshot().spilled_rows, 0);
        let s = m2.snapshot();
        assert!(s.spilled_rows > 0, "budget 5 must spill: {s:?}");
        assert!(
            s.spill_bnl_fallbacks > 0,
            "theta spill is block-nested: {s:?}"
        );
        assert!(
            s.spill_peak_resident_rows <= 5 + 1,
            "block pairs must respect the budget: {s:?}"
        );
    }

    #[test]
    fn default_match_join_shuffles_not_broadcasts() {
        let (parks, fires) = spatial_values(3, 20, 30);
        let cluster = Cluster::new(4);
        let plan = fudj_plan(
            geo_dataset("p", parks, 4),
            geo_dataset("f", fires, 4),
            Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
                SpatialFudj::new(),
            )))),
            vec![Value::Int64(12)],
        );
        let (_, metrics) = cluster.execute(&plan, ExecOpts::default()).unwrap();
        let s = metrics.snapshot();
        assert!(s.rows_shuffled > 0, "hash partitioning shuffles rows");
        assert_eq!(s.rows_broadcast, 0, "single-join never broadcasts rows");
        assert!(s.state_bytes > 0, "summaries and pplan cross the wire");
    }
}
