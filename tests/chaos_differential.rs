//! Differential chaos suite: the paper's join libraries, executed on a
//! cluster under seeded fault injection, must return exactly the result
//! multiset of a fault-free standalone execution — across many seeds, so
//! every recovery path (task retry, worker re-execution, speculation,
//! retransmission, duplicate discard) is exercised against the oracle.
//!
//! The fault schedule is a pure function of the seed, so this suite is
//! fully reproducible: a seed that passes once passes forever, and a
//! failing seed can be replayed locally with
//! `CHAOS_SEEDS=<seed> cargo test --test chaos_differential`.

use fudj_repro::core::{
    standalone::run_standalone, EngineJoin, FudjEngineJoin, GuardConfig, GuardedJoin,
    JoinAlgorithm, ProxyJoin, UdfPolicy, UdfStats,
};
use fudj_repro::exec::{Cluster, ExecOpts, FaultConfig, FaultStats, FudjJoinNode, PhysicalPlan};
use fudj_repro::geo::{Point, Polygon, Rect};
use fudj_repro::joins::evil::{EqualityFudj, EvilJoin, EvilMode, EvilPhase};
use fudj_repro::joins::poisoned;
use fudj_repro::joins::{IntervalFudj, SpatialDedup, SpatialFudj, TextSimilarityFudj};
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::temporal::Interval;
use fudj_repro::types::{ext, DataType, ExtValue, Field, Row, Schema, Value};
use std::sync::Arc;

const WORKERS: usize = 3;

/// The seed matrix: `CHAOS_SEEDS=1,2,3` overrides (the CI chaos job pins
/// a small fixed matrix; the default local run covers 20 seeds).
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
        Err(_) => (0..20).map(|i| 9_001 + 977 * i).collect(),
    }
}

/// Tiny deterministic generator for workload data (xorshift64*) — the
/// *data* must be identical across runs just like the fault schedule.
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

    fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

fn polygons(n: usize) -> Vec<Value> {
    let mut g = Gen(11);
    (0..n)
        .map(|_| {
            let (x, y) = (g.f64_in(0.0, 90.0), g.f64_in(0.0, 90.0));
            let (w, h) = (g.f64_in(0.5, 12.0), g.f64_in(0.5, 12.0));
            Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h)))
        })
        .collect()
}

fn points(n: usize) -> Vec<Value> {
    let mut g = Gen(22);
    (0..n)
        .map(|_| Value::Point(Point::new(g.f64_in(0.0, 100.0), g.f64_in(0.0, 100.0))))
        .collect()
}

fn intervals(n: usize, salt: u64) -> Vec<Value> {
    let mut g = Gen(33 + salt);
    (0..n)
        .map(|_| {
            let s = g.i64_in(0, 50_000);
            Value::Interval(Interval::new(s, s + g.i64_in(0, 3_000)))
        })
        .collect()
}

fn texts(n: usize, salt: u64) -> Vec<Value> {
    const WORDS: [&str; 7] = ["river", "peak", "camp", "view", "rock", "fern", "lake"];
    let mut g = Gen(44 + salt);
    (0..n)
        .map(|_| {
            let k = 1 + (g.next() % 5) as usize;
            let ws: Vec<&str> = (0..k).map(|_| WORDS[(g.next() % 7) as usize]).collect();
            Value::str(ws.join(" "))
        })
        .collect()
}

/// Wrap keys in an (id, key) dataset split over `parts` partitions.
fn dataset(name: &str, keys: &[Value], parts: usize) -> Arc<fudj_repro::storage::Dataset> {
    let dt = keys
        .first()
        .map(Value::data_type)
        .unwrap_or(DataType::Int64);
    let schema = Schema::shared(vec![Field::new("id", DataType::Int64), Field::new("k", dt)]);
    let d = DatasetBuilder::new(name, schema)
        .partitions(parts)
        .build()
        .unwrap();
    for (i, k) in keys.iter().enumerate() {
        d.insert(Row::new(vec![Value::Int64(i as i64), k.clone()]))
            .unwrap();
    }
    Arc::new(d)
}

/// One join workload: an engine join, its standalone algorithm, data,
/// and parameters.
struct Workload {
    name: &'static str,
    engine: Arc<dyn EngineJoin>,
    alg: Arc<dyn JoinAlgorithm>,
    left: Vec<Value>,
    right: Vec<Value>,
    params: Vec<Value>,
}

/// The three paper libraries, including the spatial library's duplicate
/// *elimination* variant (the recovery machinery must not disturb either
/// dedup semantics).
fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    for (name, dedup) in [
        ("spatial/avoidance", SpatialDedup::FrameworkAvoidance),
        ("spatial/elimination", SpatialDedup::Elimination),
    ] {
        let alg = Arc::new(ProxyJoin::new(SpatialFudj::with_dedup(dedup)));
        out.push(Workload {
            name,
            engine: Arc::new(FudjEngineJoin::new(alg.clone())),
            alg,
            left: polygons(24),
            right: points(40),
            params: vec![Value::Int64(8)],
        });
    }
    let alg = Arc::new(ProxyJoin::new(IntervalFudj::new()));
    out.push(Workload {
        name: "interval",
        engine: Arc::new(FudjEngineJoin::new(alg.clone())),
        alg,
        left: intervals(30, 0),
        right: intervals(30, 1),
        params: vec![Value::Int64(50)],
    });
    let alg = Arc::new(ProxyJoin::new(TextSimilarityFudj::new()));
    out.push(Workload {
        name: "text",
        engine: Arc::new(FudjEngineJoin::new(alg.clone())),
        alg,
        left: texts(18, 0),
        right: texts(18, 1),
        params: vec![Value::Float64(0.5)],
    });
    out
}

fn plan(w: &Workload) -> PhysicalPlan {
    PhysicalPlan::FudjJoin(FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: dataset("l", &w.left, WORKERS),
        },
        PhysicalPlan::Scan {
            dataset: dataset("r", &w.right, WORKERS),
        },
        w.engine.clone(),
        1,
        1,
        w.params.clone(),
    ))
}

/// Run the workload on `cluster`, returning sorted (left id, right id)
/// pairs and the fault counters of the run.
fn run_on(cluster: &Cluster, w: &Workload) -> (Vec<(i64, i64)>, FaultStats) {
    let (batch, metrics) = cluster.execute(&plan(w), ExecOpts::default()).unwrap();
    let mut pairs: Vec<(i64, i64)> = batch
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
        .collect();
    pairs.sort_unstable();
    (pairs, metrics.snapshot().fault)
}

/// Fault-free oracle: the paper's standalone single-machine runner.
fn oracle(w: &Workload) -> Vec<(i64, i64)> {
    let el: Vec<ExtValue> = w
        .left
        .iter()
        .map(|v| ext::to_external(v).unwrap())
        .collect();
    let er: Vec<ExtValue> = w
        .right
        .iter()
        .map(|v| ext::to_external(v).unwrap())
        .collect();
    let ep: Vec<ExtValue> = w
        .params
        .iter()
        .map(|v| ext::to_external(v).unwrap())
        .collect();
    let mut pairs: Vec<(i64, i64)> = run_standalone(w.alg.as_ref(), &el, &er, &ep)
        .unwrap()
        .into_iter()
        .map(|(i, j)| (i as i64, j as i64))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// The tentpole guarantee: for every library and every seed, the chaotic
/// distributed result equals the fault-free standalone result — and the
/// suite as a whole genuinely injected (and recovered from) faults.
#[test]
fn chaotic_runs_match_fault_free_oracle_across_seeds() {
    let seeds = seeds();
    let mut total = FaultStats::default();
    for w in workloads() {
        let expected = oracle(&w);
        assert!(!expected.is_empty(), "{}: degenerate workload", w.name);
        for &seed in &seeds {
            let cluster = Cluster::with_faults(WORKERS, FaultConfig::chaos(seed));
            let (pairs, fault) = run_on(&cluster, &w);
            assert_eq!(
                pairs, expected,
                "{} diverged from the fault-free oracle under seed {seed}",
                w.name
            );
            total.injected_panics += fault.injected_panics;
            total.injected_transients += fault.injected_transients;
            total.injected_worker_losses += fault.injected_worker_losses;
            total.injected_stragglers += fault.injected_stragglers;
            total.dropped_deliveries += fault.dropped_deliveries;
            total.duplicated_deliveries += fault.duplicated_deliveries;
            total.task_retries += fault.task_retries;
            total.reexecutions += fault.reexecutions;
            total.speculations += fault.speculations;
            total.delivery_retries += fault.delivery_retries;
            total.duplicates_discarded += fault.duplicates_discarded;
        }
    }
    // The suite must have exercised every fault class and every recovery
    // path at least once — otherwise it proves nothing.
    assert!(total.injected_panics > 0, "no panics injected: {total:?}");
    assert!(total.injected_transients > 0, "no transients: {total:?}");
    assert!(total.injected_worker_losses > 0, "no losses: {total:?}");
    assert!(total.injected_stragglers > 0, "no stragglers: {total:?}");
    assert!(total.dropped_deliveries > 0, "no drops: {total:?}");
    assert!(total.duplicated_deliveries > 0, "no duplicates: {total:?}");
    assert!(total.task_retries > 0 && total.delivery_retries > 0);
    assert!(total.reexecutions > 0, "no re-executions: {total:?}");
    assert_eq!(total.duplicates_discarded, total.duplicated_deliveries);
}

/// The matrix extended with the permanent-death fault class: full chaos
/// (panics, transients, losses, stragglers, drops, duplicates) *plus*
/// `WorkerDeath` at stage boundaries, with checkpointing on. Results must
/// still be bit-identical to the fault-free oracle for every seed, and
/// the matrix as a whole must genuinely kill workers (a death-free run
/// of this test would prove nothing).
#[test]
fn chaos_with_worker_deaths_still_matches_oracle() {
    use fudj_repro::storage::CheckpointPolicy;

    let seeds = seeds();
    let mut deaths = 0;
    let mut restored = 0;
    for w in workloads() {
        let expected = oracle(&w);
        for &seed in &seeds {
            let cluster = Cluster::with_faults(WORKERS, FaultConfig::chaos_with_deaths(seed));
            cluster.set_checkpoint_policy(CheckpointPolicy::All);
            let (batch, metrics) = cluster.execute(&plan(&w), ExecOpts::default()).unwrap();
            let mut pairs: Vec<(i64, i64)> = batch
                .rows()
                .iter()
                .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
                .collect();
            pairs.sort_unstable();
            assert_eq!(
                pairs, expected,
                "{} diverged from the oracle under death seed {seed}",
                w.name
            );
            let r = metrics.snapshot().recovery;
            deaths += r.deaths_survived;
            restored += r.partitions_restored;
        }
    }
    assert!(deaths > 0, "no worker deaths injected across the matrix");
    assert!(restored > 0, "no partition was ever checkpoint-restored");
}

/// Same seed ⇒ identical fault schedule, identical counters, identical
/// results. This is the property that makes chaos testing debuggable.
#[test]
fn same_seed_reproduces_schedule_and_results_exactly() {
    let seed = *seeds().first().unwrap();
    for w in workloads() {
        let cluster = Cluster::with_faults(WORKERS, FaultConfig::chaos(seed));
        let (pairs_a, fault_a) = run_on(&cluster, &w);
        // A fresh cluster (fresh pool, fresh context) with the same seed.
        let cluster = Cluster::with_faults(WORKERS, FaultConfig::chaos(seed));
        let (pairs_b, fault_b) = run_on(&cluster, &w);
        assert_eq!(pairs_a, pairs_b, "{}: results diverged", w.name);
        assert_eq!(fault_a, fault_b, "{}: fault schedule diverged", w.name);
        assert!(fault_a.total_injected() > 0, "{}: nothing injected", w.name);
    }
}

/// Different seeds ⇒ different fault schedules (same results, of course).
#[test]
fn different_seeds_draw_different_schedules() {
    let w = &workloads()[0];
    let stats: Vec<FaultStats> = [5u64, 6, 7, 8]
        .iter()
        .map(|&s| run_on(&Cluster::with_faults(WORKERS, FaultConfig::chaos(s)), w).1)
        .collect();
    assert!(
        stats.windows(2).any(|p| p[0] != p[1]),
        "four different seeds produced identical schedules: {stats:?}"
    );
}

/// Chaos × guard: an evil library under the Quarantine policy, executed
/// under seeded fault injection. Two guarantees compose here: (a) the
/// surviving result multiset is exactly the fault-free quarantined result
/// for every seed, and (b) task retries re-running the same poisoned keys
/// never double-count quarantine/violation counters (the guard dedups
/// violation sites, so the counters are a function of the data, not of the
/// recovery schedule).
#[test]
fn quarantined_evil_library_survives_chaos_without_double_counting() {
    let poison_long = |v: i64| poisoned(&ExtValue::Long(v));
    let pool: Vec<i64> = (0..200).collect();
    let left: Vec<Value> = pool.iter().map(|v| Value::Int64(v % 40)).collect();
    let right: Vec<Value> = pool.iter().map(|v| Value::Int64(v % 25)).collect();

    // The guard handle is stateful (violation-site dedup), so every run
    // gets a fresh wrapper around a fresh evil join.
    let guarded_plan = || {
        let evil: Arc<dyn JoinAlgorithm> = Arc::new(EvilJoin::new(
            Arc::new(EqualityFudj),
            EvilMode::PanicIn(EvilPhase::Assign),
        ));
        let engine: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(Arc::new(
            GuardedJoin::new(evil, GuardConfig::with_policy(UdfPolicy::Quarantine)),
        )));
        PhysicalPlan::FudjJoin(FudjJoinNode::new(
            PhysicalPlan::Scan {
                dataset: dataset("l", &left, WORKERS),
            },
            PhysicalPlan::Scan {
                dataset: dataset("r", &right, WORKERS),
            },
            engine,
            1,
            1,
            vec![],
        ))
    };
    let run = |cluster: &Cluster| -> (Vec<(i64, i64)>, UdfStats) {
        let (batch, metrics) = cluster
            .execute(&guarded_plan(), ExecOpts::default())
            .unwrap();
        let mut pairs: Vec<(i64, i64)> = batch
            .rows()
            .iter()
            .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
            .collect();
        pairs.sort_unstable();
        (pairs, metrics.snapshot().udf)
    };

    // Oracle: the equality join minus every pair touching a poisoned key.
    let mut expected: Vec<(i64, i64)> = Vec::new();
    for (i, l) in left.iter().enumerate() {
        for (j, r) in right.iter().enumerate() {
            if l == r && !poison_long(l.as_i64().unwrap()) {
                expected.push((i as i64, j as i64));
            }
        }
    }
    expected.sort_unstable();
    assert!(!expected.is_empty(), "degenerate workload");

    let (clean_pairs, clean_udf) = run(&Cluster::new(WORKERS));
    assert_eq!(clean_pairs, expected, "fault-free quarantine diverged");
    assert!(clean_udf.quarantined_rows > 0, "{clean_udf:?}");
    assert!(clean_udf.assign_violations > 0, "{clean_udf:?}");

    for seed in seeds() {
        let cluster = Cluster::with_faults(WORKERS, FaultConfig::chaos(seed));
        let (pairs, udf) = run(&cluster);
        assert_eq!(pairs, expected, "seed {seed}: surviving results diverged");
        assert_eq!(
            udf, clean_udf,
            "seed {seed}: retries double-counted quarantined rows"
        );
    }
}

/// A quiet (all-zero-probability) fault plan is indistinguishable from no
/// plan at all: no counters move, and the canonical traffic metrics are
/// byte-for-byte those of an unarmed run.
#[test]
fn quiet_fault_plan_changes_nothing() {
    for w in workloads() {
        let unarmed = Cluster::new(WORKERS);
        let (batch, metrics) = unarmed.execute(&plan(&w), ExecOpts::default()).unwrap();
        let base = metrics.snapshot();

        let quiet = Cluster::with_faults(WORKERS, FaultConfig::quiet(123));
        let (qbatch, qmetrics) = quiet.execute(&plan(&w), ExecOpts::default()).unwrap();
        let qsnap = qmetrics.snapshot();

        assert_eq!(qsnap.fault, FaultStats::default(), "{}", w.name);
        assert_eq!(batch.rows().len(), qbatch.rows().len(), "{}", w.name);
        assert_eq!(base.rows_shuffled, qsnap.rows_shuffled, "{}", w.name);
        assert_eq!(base.bytes_shuffled, qsnap.bytes_shuffled, "{}", w.name);
        assert_eq!(base.rows_broadcast, qsnap.rows_broadcast, "{}", w.name);
        assert_eq!(base.bytes_broadcast, qsnap.bytes_broadcast, "{}", w.name);
        assert_eq!(base.state_bytes, qsnap.state_bytes, "{}", w.name);
        assert_eq!(base.verify_calls, qsnap.verify_calls, "{}", w.name);
        assert_eq!(base.dedup_rejections, qsnap.dedup_rejections, "{}", w.name);
    }
}
