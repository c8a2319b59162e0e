//! Skew-spill differential suite: for every join class, a memory-budgeted
//! (spilling) execution must return exactly the result multiset — and the
//! logical UDF counters — of the unbudgeted in-memory execution, on
//! Zipf-skewed inputs that concentrate most rows in a few hot buckets.
//! A second matrix re-runs the spilling plans under seeded chaos and
//! asserts the *spill* counters are bit-identical to the fault-free run:
//! task retries and re-executions must never double-count `spilled_rows`
//! or `spilled_bytes`.
//!
//! Replay a failing seed with
//! `CHAOS_SEEDS=<seed> cargo test --test spill_differential`.

use fudj_repro::core::{EngineJoin, FudjEngineJoin, JoinAlgorithm, ProxyJoin};
use fudj_repro::exec::{
    Cluster, ExecOpts, FaultConfig, FudjJoinNode, MetricsSnapshot, PhysicalPlan,
};
use fudj_repro::geo::{Point, Polygon, Rect};
use fudj_repro::joins::evil::EqualityFudj;
use fudj_repro::joins::{IntervalFudj, SpatialFudj, TextSimilarityFudj};
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::temporal::Interval;
use fudj_repro::types::{DataType, Field, Row, Schema, Value};
use std::sync::Arc;

const WORKERS: usize = 3;
/// Small enough that every default-match workload below must spill on
/// every worker, large enough that the resident set still matters.
const BUDGET: usize = 20;

/// The seed matrix: `CHAOS_SEEDS=1,2,3` overrides (the CI spill job pins
/// a 5-seed matrix; the default local run covers 10 seeds).
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => {
            let parsed: Vec<u64> = s
                .split(',')
                .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
                .collect();
            assert!(!parsed.is_empty(), "CHAOS_SEEDS set but empty");
            parsed
        }
        Err(_) => (0..10).map(|i| 4_241 + 131 * i).collect(),
    }
}

/// Deterministic xorshift64* generator — the workload data must be
/// identical across runs just like the fault schedule.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// Zipf-flavored draw over `[0, universe)`: log-uniform, so small
    /// values dominate heavily (the hot keys of the skew suite).
    fn zipf(&mut self, universe: u64) -> u64 {
        let u = self.f64_in(0.0, 1.0);
        ((universe as f64).powf(u) as u64).min(universe - 1)
    }
}

/// Skewed polygons: most rectangles crowd the hot cell near the origin.
fn skewed_polygons(n: usize) -> Vec<Value> {
    let mut g = Gen(0xA11CE);
    (0..n)
        .map(|_| {
            let (x, y) = if g.next() % 10 < 7 {
                (g.f64_in(0.0, 12.0), g.f64_in(0.0, 12.0))
            } else {
                (g.f64_in(0.0, 90.0), g.f64_in(0.0, 90.0))
            };
            let (w, h) = (g.f64_in(0.5, 10.0), g.f64_in(0.5, 10.0));
            Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h)))
        })
        .collect()
}

/// Skewed points: 70% land in the same hot cell the polygons crowd.
fn skewed_points(n: usize) -> Vec<Value> {
    let mut g = Gen(0xB0B);
    (0..n)
        .map(|_| {
            let (x, y) = if g.next() % 10 < 7 {
                (g.f64_in(0.0, 15.0), g.f64_in(0.0, 15.0))
            } else {
                (g.f64_in(0.0, 100.0), g.f64_in(0.0, 100.0))
            };
            Value::Point(Point::new(x, y))
        })
        .collect()
}

/// Skewed intervals: most starts pile into the first few hundred ticks.
fn skewed_intervals(n: usize, salt: u64) -> Vec<Value> {
    let mut g = Gen(0xCAFE + salt);
    (0..n)
        .map(|_| {
            let s = g.zipf(40_000) as i64;
            Value::Interval(Interval::new(s, s + 200 + (g.next() % 2_000) as i64))
        })
        .collect()
}

/// Skewed texts: word ranks drawn Zipf-style, so a handful of tokens
/// dominate every document.
fn skewed_texts(n: usize, salt: u64) -> Vec<Value> {
    const WORDS: [&str; 8] = [
        "river", "peak", "camp", "view", "rock", "fern", "lake", "pine",
    ];
    let mut g = Gen(0xD00D + salt);
    (0..n)
        .map(|_| {
            let k = 1 + (g.next() % 5) as usize;
            let ws: Vec<&str> = (0..k).map(|_| WORDS[g.zipf(8) as usize]).collect();
            Value::str(ws.join(" "))
        })
        .collect()
}

/// Skewed equality keys over a universe of 48, log-uniform.
fn skewed_longs(n: usize, salt: u64) -> Vec<Value> {
    let mut g = Gen(0xF00 + salt);
    (0..n).map(|_| Value::Int64(g.zipf(48) as i64)).collect()
}

fn dataset(name: &str, keys: &[Value]) -> Arc<fudj_repro::storage::Dataset> {
    let dt = keys
        .first()
        .map(Value::data_type)
        .unwrap_or(DataType::Int64);
    let schema = Schema::shared(vec![Field::new("id", DataType::Int64), Field::new("k", dt)]);
    let d = DatasetBuilder::new(name, schema)
        .partitions(WORKERS)
        .build()
        .unwrap();
    for (i, k) in keys.iter().enumerate() {
        d.insert(Row::new(vec![Value::Int64(i as i64), k.clone()]))
            .unwrap();
    }
    Arc::new(d)
}

/// One skewed workload per join class of the paper's library suite.
struct Workload {
    name: &'static str,
    engine: Arc<dyn EngineJoin>,
    left: Vec<Value>,
    right: Vec<Value>,
    params: Vec<Value>,
    /// Theta joins rebalance+broadcast and cannot spill; the budget must
    /// be ignored rather than breaking (or "spilling") them.
    theta: bool,
}

fn workloads() -> Vec<Workload> {
    fn proxy<J: fudj_repro::core::FlexibleJoin + 'static>(j: J) -> Arc<dyn EngineJoin> {
        Arc::new(FudjEngineJoin::new(Arc::new(ProxyJoin::new(j))))
    }
    let equality: Arc<dyn JoinAlgorithm> = Arc::new(EqualityFudj);
    vec![
        Workload {
            name: "spatial",
            engine: proxy(SpatialFudj::new()),
            left: skewed_polygons(40),
            right: skewed_points(140),
            params: vec![Value::Int64(8)],
            theta: false,
        },
        Workload {
            name: "interval",
            engine: proxy(IntervalFudj::new()),
            left: skewed_intervals(45, 0),
            right: skewed_intervals(45, 1),
            params: vec![Value::Int64(40)],
            theta: true,
        },
        Workload {
            name: "text",
            engine: proxy(TextSimilarityFudj::new()),
            left: skewed_texts(60, 0),
            right: skewed_texts(60, 1),
            params: vec![Value::Float64(0.5)],
            theta: false,
        },
        Workload {
            name: "equality",
            engine: Arc::new(FudjEngineJoin::new(equality)),
            left: skewed_longs(130, 0),
            right: skewed_longs(130, 1),
            params: vec![],
            theta: false,
        },
    ]
}

fn plan(w: &Workload, budget: Option<usize>) -> PhysicalPlan {
    let mut node = FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: dataset("l", &w.left),
        },
        PhysicalPlan::Scan {
            dataset: dataset("r", &w.right),
        },
        w.engine.clone(),
        1,
        1,
        w.params.clone(),
    );
    node.memory_budget_rows = budget;
    PhysicalPlan::FudjJoin(node)
}

fn run_on(
    cluster: &Cluster,
    w: &Workload,
    budget: Option<usize>,
) -> (Vec<(i64, i64)>, MetricsSnapshot) {
    let (batch, metrics) = cluster
        .execute(&plan(w, budget), ExecOpts::default())
        .unwrap();
    let mut pairs: Vec<(i64, i64)> = batch
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
        .collect();
    pairs.sort_unstable();
    (pairs, metrics.snapshot())
}

/// The logical-counter projection the spill path must preserve exactly:
/// UDF call counts and dedup decisions are a function of the data, not of
/// where sub-partitions happened to live.
fn logical(snap: &MetricsSnapshot) -> (u64, u64) {
    (snap.verify_calls, snap.dedup_rejections)
}

/// The spill-counter projection that must be identical between a
/// fault-free and a chaotic run of the *same* spilling plan.
fn spill_counters(snap: &MetricsSnapshot) -> [u64; 8] {
    [
        snap.spilled_rows,
        snap.spilled_bytes,
        snap.spill_resident_partitions,
        snap.spill_spilled_partitions,
        snap.spill_passes,
        snap.spill_recursion_depth,
        snap.spill_bnl_fallbacks,
        snap.spill_peak_resident_rows,
    ]
}

/// The tentpole differential: on Zipf-skewed inputs, every join class
/// returns identical results and identical logical counters whether it
/// joins in memory or spills under a tight budget — the default-match
/// classes through hybrid-hash sub-partitions, the theta class by
/// spilling both sides whole and block-nested-looping (hash
/// repartitioning is unsound for cross-bucket matches).
#[test]
fn spilled_equals_in_memory_across_join_classes_under_skew() {
    let cluster = Cluster::new(WORKERS);
    for w in workloads() {
        let (mem_pairs, mem_snap) = run_on(&cluster, &w, None);
        assert!(!mem_pairs.is_empty(), "{}: degenerate workload", w.name);
        let (sp_pairs, sp_snap) = run_on(&cluster, &w, Some(BUDGET));
        assert_eq!(
            sp_pairs, mem_pairs,
            "{}: spilled result diverged from in-memory",
            w.name
        );
        assert_eq!(
            logical(&sp_snap),
            logical(&mem_snap),
            "{}: spilling changed verify/dedup counts",
            w.name
        );
        assert!(
            sp_snap.spilled_rows > 0,
            "{}: budget {BUDGET} did not spill",
            w.name
        );
        assert!(sp_snap.spill_spilled_partitions > 0, "{}", w.name);
        if w.theta {
            assert!(
                sp_snap.spill_bnl_fallbacks > 0,
                "{}: budgeted theta run never took the BNL path",
                w.name
            );
        }
        assert_eq!(
            mem_snap.spilled_rows, 0,
            "{}: unbudgeted run spilled",
            w.name
        );
    }
}

/// Hybrid-hash payoff under skew: with the budget just below the input
/// size, the long tail of cold sub-partitions stays memory-resident — the
/// spill volume must be well below "everything", unlike the old grace
/// path which always wrote both sides in full.
#[test]
fn near_budget_skewed_run_keeps_a_resident_set() {
    let cluster = Cluster::new(WORKERS);
    let w = &workloads()[3]; // equality: clean row accounting
    let (mem_pairs, _) = run_on(&cluster, w, None);
    // Per-worker tagged input is ~(130+130)/3 ≈ 87 rows; budget 60 spills
    // only the hot head.
    let (pairs, snap) = run_on(&cluster, w, Some(60));
    assert_eq!(pairs, mem_pairs);
    assert!(snap.spilled_rows > 0, "near-budget run must still spill");
    assert!(
        snap.spill_resident_partitions > 0,
        "no sub-partition stayed resident: {snap:?}"
    );
    let tagged_input = 260; // every input row tagged at least once
    assert!(
        snap.spilled_rows < tagged_input,
        "near-budget spill wrote {} rows — no better than full grace \
         partitioning",
        snap.spilled_rows
    );
}

/// The chaos matrix: re-running the spilling plans under seeded fault
/// injection must reproduce the fault-free results *and* the exact spill
/// counters — proof that task retries, re-executions and duplicate
/// deliveries never double-count `spilled_rows`/`spilled_bytes` (faults
/// inject before the single real execution of each COMBINE task, and
/// exchange delivery order is deterministic, so even eviction decisions
/// replay identically).
#[test]
fn chaos_never_double_counts_spill_work() {
    let seeds = seeds();
    let mut injected = 0u64;
    for w in workloads() {
        let baseline = run_on(&Cluster::new(WORKERS), &w, Some(BUDGET));
        for &seed in &seeds {
            let cluster = Cluster::with_faults(WORKERS, FaultConfig::chaos(seed));
            let (pairs, snap) = run_on(&cluster, &w, Some(BUDGET));
            assert_eq!(
                pairs, baseline.0,
                "{} seed {seed}: chaotic spilled result diverged",
                w.name
            );
            assert_eq!(
                spill_counters(&snap),
                spill_counters(&baseline.1),
                "{} seed {seed}: spill counters moved under chaos",
                w.name
            );
            assert_eq!(
                logical(&snap),
                logical(&baseline.1),
                "{} seed {seed}: logical counters moved under chaos",
                w.name
            );
            injected += snap.fault.total_injected();
        }
    }
    assert!(injected > 0, "the chaos matrix injected nothing");
}
