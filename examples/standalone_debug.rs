//! The paper's §VI-D-2 workflow: develop and debug a join library with the
//! *standalone single-machine runner* — no engine, no cluster, no SQL —
//! then drop the identical implementation into the distributed engine.
//!
//! This example walks a buggy-then-fixed interval join through that loop:
//!
//! 1. run the candidate library standalone against a brute-force oracle;
//! 2. inspect the runner's statistics to understand partitioning behavior;
//! 3. once standalone-correct, execute the same object distributed and
//!    confirm the answers match.
//!
//! ```text
//! cargo run --release --example standalone_debug
//! ```

use fudj_repro::core::standalone::{run_standalone_with_stats, StandaloneStats};
use fudj_repro::core::{
    reference_execute, BucketId, DedupMode, FlexibleJoin, FudjEngineJoin, ProxyJoin,
};
use fudj_repro::exec::{Cluster, ExecOpts, FudjJoinNode, PhysicalPlan};
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::temporal::{GranuleTimeline, Interval, IntervalSummary};
use fudj_repro::types::{DataType, ExtValue, Field, Result as FudjResult, Row, Schema, Value};
use std::sync::Arc;

/// A from-scratch interval join someone is developing. The `BUGGY` flag
/// recreates a classic partitioning mistake: matching buckets on *equality*
/// (like a hash join would) even though interval buckets must theta-match
/// on granule-range overlap.
#[derive(Clone, Debug, Default)]
struct MyIntervalJoin {
    buggy: bool,
}

impl FlexibleJoin for MyIntervalJoin {
    type Summary = IntervalSummary;
    type PPlan = GranuleTimeline;

    fn name(&self) -> &str {
        "my_interval_join"
    }

    fn summarize(&self, key: &ExtValue, s: &mut IntervalSummary) -> FudjResult<()> {
        s.observe(&key.as_interval()?);
        Ok(())
    }

    fn merge_summaries(&self, a: IntervalSummary, b: IntervalSummary) -> IntervalSummary {
        a.merge(&b)
    }

    fn divide(
        &self,
        l: &IntervalSummary,
        r: &IntervalSummary,
        _params: &[ExtValue],
    ) -> FudjResult<GranuleTimeline> {
        let range = l.merge(r).range().unwrap_or_else(|| Interval::new(0, 0));
        Ok(GranuleTimeline::new(range, 64))
    }

    fn assign(
        &self,
        key: &ExtValue,
        plan: &GranuleTimeline,
        out: &mut Vec<BucketId>,
    ) -> FudjResult<()> {
        out.push(plan.assign(&key.as_interval()?));
        Ok(())
    }

    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        if self.buggy {
            b1 == b2 // WRONG: drops pairs whose granule ranges differ
        } else {
            fudj_repro::temporal::granule::buckets_overlap(b1, b2)
        }
    }

    fn uses_default_match(&self) -> bool {
        false
    }

    fn verify(&self, k1: &ExtValue, k2: &ExtValue, _p: &GranuleTimeline) -> FudjResult<bool> {
        Ok(k1.as_interval()?.overlaps(&k2.as_interval()?))
    }

    fn dedup_mode(&self) -> DedupMode {
        DedupMode::None
    }
}

fn workload(n: usize, seed: u64) -> Vec<Interval> {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0i64..100_000);
            Interval::new(s, s + rng.gen_range(0i64..4_000))
        })
        .collect()
}

fn oracle(l: &[Interval], r: &[Interval]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, a) in l.iter().enumerate() {
        for (j, b) in r.iter().enumerate() {
            if a.overlaps(b) {
                out.push((i, j));
            }
        }
    }
    out
}

fn standalone(
    join: MyIntervalJoin,
    l: &[Interval],
    r: &[Interval],
) -> (Vec<(usize, usize)>, StandaloneStats) {
    let alg = ProxyJoin::new(join);
    let le: Vec<ExtValue> = l
        .iter()
        .map(|iv| ExtValue::LongArray(vec![iv.start, iv.end]))
        .collect();
    let re: Vec<ExtValue> = r
        .iter()
        .map(|iv| ExtValue::LongArray(vec![iv.start, iv.end]))
        .collect();
    run_standalone_with_stats(&alg, &le, &re, &[]).expect("standalone run")
}

fn main() {
    let left = workload(300, 1);
    let right = workload(250, 2);
    let truth = oracle(&left, &right);
    println!("oracle: {} overlapping pairs\n", truth.len());

    // --- Step 1: the buggy candidate, standalone -------------------------
    let (buggy_pairs, stats) = standalone(MyIntervalJoin { buggy: true }, &left, &right);
    println!(
        "buggy library (equality match): {} pairs — {} MISSING",
        buggy_pairs.len(),
        truth.len() - buggy_pairs.len()
    );
    println!(
        "  runner stats: {} left buckets, {} right buckets, {} bucket pairs matched",
        stats.left_buckets, stats.right_buckets, stats.matched_bucket_pairs
    );
    println!("  → too few matched bucket pairs for a theta join: match() is wrong\n");
    assert!(buggy_pairs.len() < truth.len());

    // --- Step 2: the fix, standalone ------------------------------------
    let (fixed_pairs, stats) = standalone(MyIntervalJoin { buggy: false }, &left, &right);
    println!(
        "fixed library (granule-overlap match): {} pairs — exact ✔",
        fixed_pairs.len()
    );
    println!(
        "  runner stats: {} bucket pairs matched, {} pairs verified",
        stats.matched_bucket_pairs, stats.verified_pairs
    );
    assert_eq!(fixed_pairs, truth);

    // --- Step 3: the same object, distributed ---------------------------
    let schema = Schema::shared(vec![
        Field::new("id", DataType::Int64),
        Field::new("iv", DataType::Interval),
    ]);
    let make_ds = |name: &str, ivs: &[Interval]| {
        let d = DatasetBuilder::new(name, schema.clone())
            .partitions(4)
            .build()
            .unwrap();
        for (i, iv) in ivs.iter().enumerate() {
            d.insert(Row::new(vec![Value::Int64(i as i64), Value::Interval(*iv)]))
                .unwrap();
        }
        Arc::new(d)
    };
    let engine_join = Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(
        MyIntervalJoin { buggy: false },
    ))));

    // Sequential engine reference first (another §VI-D-2 debugging layer)...
    let lv: Vec<Value> = left.iter().map(|iv| Value::Interval(*iv)).collect();
    let rv: Vec<Value> = right.iter().map(|iv| Value::Interval(*iv)).collect();
    let reference = reference_execute(engine_join.as_ref(), &lv, &rv, &[]).unwrap();
    assert_eq!(reference, truth);

    // ...then the real 4-worker cluster.
    let plan = PhysicalPlan::FudjJoin(FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: make_ds("l", &left),
        },
        PhysicalPlan::Scan {
            dataset: make_ds("r", &right),
        },
        engine_join,
        1,
        1,
        vec![],
    ));
    let (batch, metrics) = Cluster::new(4).execute(&plan, ExecOpts::default()).unwrap();
    assert_eq!(batch.len(), truth.len());
    println!(
        "\ndistributed on 4 workers: {} pairs — matches standalone exactly ✔",
        batch.len()
    );
    println!(
        "  (theta join broadcast {} row-copies between workers)",
        metrics.snapshot().rows_broadcast
    );
}
