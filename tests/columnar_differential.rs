//! Row-vs-columnar differential oracle: the vectorized execution core must
//! be *observationally indistinguishable* from the row-at-a-time
//! interpreter. For every join class, under Zipf-skewed keys, across the
//! chaos seed matrix, with spill budgets and Quarantine-guarded evil
//! libraries in the mix, both execution modes must produce bit-identical
//! result multisets AND bit-identical [`CounterFingerprint`]s — the
//! columnar engine is an evaluation strategy, not a semantics change.
//!
//! Replay a failing seed with
//! `CHAOS_SEEDS=<seed> cargo test --test columnar_differential`.

use fudj_repro::core::{
    EngineJoin, FudjEngineJoin, GuardConfig, GuardedJoin, JoinAlgorithm, ProxyJoin, UdfPolicy,
    UdfStats,
};
use fudj_repro::exec::{
    Cluster, CounterFingerprint, ExecMode, ExecOpts, FaultConfig, FudjJoinNode, PhysicalPlan,
};
use fudj_repro::geo::{Point, Polygon, Rect};
use fudj_repro::joins::evil::{EqualityFudj, EvilJoin, EvilMode, EvilPhase};
use fudj_repro::joins::{poisoned, IntervalFudj, SpatialDedup, SpatialFudj, TextSimilarityFudj};
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::temporal::Interval;
use fudj_repro::types::{DataType, ExtValue, Field, Row, Schema, Value};
use std::sync::Arc;

const WORKERS: usize = 3;

/// The seed matrix: `CHAOS_SEEDS=1,2,3` overrides (the CI columnar job
/// pins the same fixed matrix as the chaos job).
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
        Err(_) => (0..5).map(|i| 31_337 + 1_013 * i).collect(),
    }
}

/// xorshift64* — data must be a pure function of its seed.
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

    fn f64_unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64_unit() * (hi - lo)
    }

    fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// Draw `n` Zipf(s≈1.2)-distributed samples from `pool`: a few hot keys
/// dominate, giving the columnar bucket/stride paths genuinely skewed
/// partitions (the regime the paper's DIVIDE phase exists for).
fn zipf_sample(pool: &[Value], n: usize, salt: u64) -> Vec<Value> {
    let weights: Vec<f64> = (0..pool.len())
        .map(|i| 1.0 / ((i + 1) as f64).powf(1.2))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut g = Gen(0x5EED ^ salt);
    (0..n)
        .map(|_| {
            let mut u = g.f64_unit() * total;
            let mut idx = pool.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    idx = i;
                    break;
                }
                u -= w;
            }
            pool[idx].clone()
        })
        .collect()
}

fn polygon_pool(n: usize) -> Vec<Value> {
    let mut g = Gen(11);
    (0..n)
        .map(|_| {
            let (x, y) = (g.f64_in(0.0, 90.0), g.f64_in(0.0, 90.0));
            let (w, h) = (g.f64_in(0.5, 12.0), g.f64_in(0.5, 12.0));
            Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h)))
        })
        .collect()
}

/// Points jittered around the polygon pool's corners, so containment hits
/// actually occur even after Zipf sampling concentrates on hot entries.
fn point_pool(n: usize, polys: &[Value]) -> Vec<Value> {
    let mut g = Gen(22);
    (0..n)
        .map(|i| {
            let Value::Polygon(p) = &polys[i % polys.len()] else {
                panic!("polygon pool holds polygons")
            };
            let b = p.mbr();
            Value::Point(Point::new(
                g.f64_in(b.min_x, b.min_x + 2.0 * (b.max_x - b.min_x)),
                g.f64_in(b.min_y, b.min_y + 2.0 * (b.max_y - b.min_y)),
            ))
        })
        .collect()
}

fn interval_pool(n: usize, salt: u64) -> Vec<Value> {
    let mut g = Gen(33 + salt);
    (0..n)
        .map(|_| {
            let s = g.i64_in(0, 50_000);
            Value::Interval(Interval::new(s, s + g.i64_in(0, 3_000)))
        })
        .collect()
}

fn text_pool(n: usize, salt: u64) -> Vec<Value> {
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

struct Workload {
    name: &'static str,
    engine: Arc<dyn EngineJoin>,
    left: Vec<Value>,
    right: Vec<Value>,
    params: Vec<Value>,
}

/// All four join classes, each fed Zipf-skewed key distributions.
fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    for (name, dedup) in [
        ("spatial/avoidance", SpatialDedup::FrameworkAvoidance),
        ("spatial/elimination", SpatialDedup::Elimination),
    ] {
        let alg: Arc<dyn JoinAlgorithm> = Arc::new(ProxyJoin::new(SpatialFudj::with_dedup(dedup)));
        out.push(Workload {
            name,
            engine: Arc::new(FudjEngineJoin::new(alg)),
            left: zipf_sample(&polygon_pool(20), 30, 1),
            right: zipf_sample(&point_pool(32, &polygon_pool(20)), 48, 2),
            params: vec![Value::Int64(8)],
        });
    }
    let alg: Arc<dyn JoinAlgorithm> = Arc::new(ProxyJoin::new(IntervalFudj::new()));
    out.push(Workload {
        name: "interval",
        engine: Arc::new(FudjEngineJoin::new(alg)),
        left: zipf_sample(&interval_pool(24, 0), 36, 3),
        right: zipf_sample(&interval_pool(24, 1), 36, 4),
        params: vec![Value::Int64(50)],
    });
    let alg: Arc<dyn JoinAlgorithm> = Arc::new(ProxyJoin::new(TextSimilarityFudj::new()));
    out.push(Workload {
        name: "text",
        engine: Arc::new(FudjEngineJoin::new(alg)),
        left: zipf_sample(&text_pool(14, 0), 26, 5),
        right: zipf_sample(&text_pool(14, 1), 26, 6),
        params: vec![Value::Float64(0.5)],
    });
    out
}

fn plan(w: &Workload, budget: Option<usize>) -> PhysicalPlan {
    let mut node = FudjJoinNode::new(
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
    );
    node.memory_budget_rows = budget;
    PhysicalPlan::FudjJoin(node)
}

/// Execute under one mode; sorted result rows + the counter fingerprint.
fn run_mode(
    cluster: &Cluster,
    plan: &PhysicalPlan,
    mode: ExecMode,
) -> (Vec<Row>, CounterFingerprint) {
    let opts = ExecOpts {
        mode,
        ..ExecOpts::default()
    };
    let (batch, metrics) = cluster.execute(plan, opts).unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.exec_mode, mode, "snapshot must report the pinned mode");
    let mut rows = batch.rows().to_vec();
    rows.sort();
    (rows, snap.fingerprint())
}

/// Fault-free: every join class, in memory and under a tight spill budget,
/// produces bit-identical rows and counters in both modes.
#[test]
fn fault_free_modes_agree_bit_for_bit() {
    let mut spilled = 0u64;
    for w in workloads() {
        for budget in [None, Some(8)] {
            let p = plan(&w, budget);
            let cluster = Cluster::new(WORKERS);
            let (rows_r, fp_r) = run_mode(&cluster, &p, ExecMode::Row);
            let (rows_c, fp_c) = run_mode(&cluster, &p, ExecMode::Columnar);
            assert!(!rows_r.is_empty(), "{}: degenerate workload", w.name);
            assert_eq!(
                rows_r, rows_c,
                "{} (budget {budget:?}): results diverged across modes",
                w.name
            );
            assert_eq!(
                fp_r, fp_c,
                "{} (budget {budget:?}): counter fingerprints diverged",
                w.name
            );
            if budget.is_some() {
                spilled += fp_r.spilled_rows;
            }
        }
    }
    // Theta multi-joins (interval) take the broadcast path, so not every
    // workload spills — but the matrix as a whole must exercise the
    // budgeted hybrid-hash COMBINE in both modes.
    assert!(spilled > 0, "no budgeted workload ever spilled");
}

/// The chaos matrix: every join class × every pinned seed, one fresh
/// faulted cluster per mode (same seed ⇒ same schedule). Results and
/// fingerprints — including the fault/recovery counters inside the
/// fingerprint — must match across modes.
#[test]
fn chaos_matrix_modes_agree() {
    let seeds = seeds();
    let mut injected = 0u64;
    for w in workloads() {
        let p = plan(&w, None);
        for &seed in &seeds {
            let row_cluster = Cluster::with_faults(WORKERS, FaultConfig::chaos(seed));
            let (rows_r, fp_r) = run_mode(&row_cluster, &p, ExecMode::Row);
            let col_cluster = Cluster::with_faults(WORKERS, FaultConfig::chaos(seed));
            let (rows_c, fp_c) = run_mode(&col_cluster, &p, ExecMode::Columnar);
            assert_eq!(
                rows_r, rows_c,
                "{} seed {seed}: results diverged across modes",
                w.name
            );
            assert_eq!(
                fp_r, fp_c,
                "{} seed {seed}: fingerprints diverged across modes",
                w.name
            );
            injected += fp_r.fault.total_injected();
        }
    }
    assert!(injected > 0, "the chaos matrix never injected a fault");
}

/// Chaos × spill: a tight budget under fault injection still agrees across
/// modes, and the spill counters inside the fingerprint agree too.
#[test]
fn chaos_with_spill_budget_modes_agree() {
    let w = &workloads()[0];
    let p = plan(w, Some(8));
    for seed in seeds() {
        let (rows_r, fp_r) = run_mode(
            &Cluster::with_faults(WORKERS, FaultConfig::chaos(seed)),
            &p,
            ExecMode::Row,
        );
        let (rows_c, fp_c) = run_mode(
            &Cluster::with_faults(WORKERS, FaultConfig::chaos(seed)),
            &p,
            ExecMode::Columnar,
        );
        assert_eq!(rows_r, rows_c, "seed {seed}: spilled results diverged");
        assert_eq!(fp_r, fp_c, "seed {seed}: spill fingerprints diverged");
        assert!(fp_r.spilled_rows > 0, "seed {seed}: budget must spill");
    }
}

/// Quarantine-guarded evil join (panics in `assign` on poisoned keys):
/// the columnar `assign_slice` stride must quarantine exactly the rows the
/// per-row path quarantines — same survivors, same violation counters —
/// fault-free and under the first chaos seed.
#[test]
fn quarantined_evil_join_agrees_across_modes() {
    let poison_long = |v: i64| poisoned(&ExtValue::Long(v));
    let pool: Vec<i64> = (0..200).collect();
    let left: Vec<Value> = pool.iter().map(|v| Value::Int64(v % 40)).collect();
    let right: Vec<Value> = pool.iter().map(|v| Value::Int64(v % 25)).collect();

    // Fresh guard state per run: the wrapper dedups violation sites.
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
    let run = |cluster: &Cluster, mode: ExecMode| -> (Vec<(i64, i64)>, UdfStats) {
        let opts = ExecOpts {
            mode,
            ..ExecOpts::default()
        };
        let (batch, metrics) = cluster.execute(&guarded_plan(), opts).unwrap();
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

    let (pairs_r, udf_r) = run(&Cluster::new(WORKERS), ExecMode::Row);
    let (pairs_c, udf_c) = run(&Cluster::new(WORKERS), ExecMode::Columnar);
    assert_eq!(
        pairs_r, expected,
        "row-mode quarantine diverged from oracle"
    );
    assert_eq!(
        pairs_c, expected,
        "columnar quarantine diverged from oracle"
    );
    assert_eq!(udf_r, udf_c, "violation counters diverged across modes");
    assert!(udf_r.quarantined_rows > 0, "{udf_r:?}");
    assert!(udf_r.assign_violations > 0, "{udf_r:?}");

    let seed = *seeds().first().unwrap();
    let (chaos_r, chaos_udf_r) = run(
        &Cluster::with_faults(WORKERS, FaultConfig::chaos(seed)),
        ExecMode::Row,
    );
    let (chaos_c, chaos_udf_c) = run(
        &Cluster::with_faults(WORKERS, FaultConfig::chaos(seed)),
        ExecMode::Columnar,
    );
    assert_eq!(chaos_r, expected, "seed {seed}: row survivors diverged");
    assert_eq!(
        chaos_c, expected,
        "seed {seed}: columnar survivors diverged"
    );
    assert_eq!(chaos_udf_r, chaos_udf_c, "seed {seed}: counters diverged");
}

/// The relational pipeline around the joins: a SQL query whose plan
/// compiles to `VecFilter`/`VecProject`/`HashAggregate` must agree across
/// modes through the full front end, and the plan text must show that the
/// vector operators (not closures) were selected — the *same* plan serves
/// both modes.
#[test]
fn sql_scan_filter_aggregate_pipeline_agrees_across_modes() {
    use fudj_repro::datagen::{nyctaxi, GeneratorConfig};
    use fudj_repro::sql::Session;

    let run = |mode: &str| {
        let s = Session::new(WORKERS);
        s.register_dataset(nyctaxi(GeneratorConfig::new(240, 3, WORKERS)).unwrap())
            .unwrap();
        s.execute(&format!("SET exec_mode = {mode}")).unwrap();
        let sql = "SELECT n.Vendor, COUNT(*) AS c, AVG(n.Vendor) AS avg_v \
                   FROM NYCTaxi n \
                   WHERE n.Vendor >= 1 AND n.Vendor <> 3 \
                   GROUP BY n.Vendor ORDER BY n.Vendor";
        let explain = s.execute(&format!("EXPLAIN {sql}")).unwrap();
        let fudj_repro::sql::QueryOutput::Plan(text) = explain else {
            panic!("expected a plan")
        };
        assert!(text.contains("VecFilter"), "{text}");
        assert!(text.contains("VecProject"), "{text}");
        let out = s.execute(sql).unwrap();
        let rows = out.batch().rows().to_vec();
        let fp = out.metrics().fingerprint();
        (rows, fp)
    };

    let (rows_r, fp_r) = run("row");
    let (rows_c, fp_c) = run("columnar");
    assert!(!rows_r.is_empty());
    assert_eq!(rows_r, rows_c, "SQL pipeline results diverged across modes");
    assert_eq!(
        fp_r, fp_c,
        "SQL pipeline fingerprints diverged across modes"
    );
}
