//! Scheduler differential suite: the tentpole invariant of the concurrent
//! query scheduler is that scheduled concurrent execution is **result- and
//! per-query-metrics-identical** to running the same queries serially.
//! Every counter the engine exposes ([`CounterFingerprint`]) must be a
//! function of (query, data, seed) alone — never of how queries were
//! interleaved over the shared worker pool.
//!
//! The mixed workload covers the three paper libraries (spatial in both
//! dedup modes, interval, text similarity), a plain equality FUDJ, and a
//! Quarantine-guarded evil join that panics inside `assign` — so guard
//! accounting is exercised under interleaving too. The chaos variant
//! re-runs the differential under seeded fault injection
//! (`CHAOS_SEEDS=1,2,3` overrides the default matrix).

use fudj_repro::core::{
    EngineJoin, FudjEngineJoin, GuardConfig, GuardedJoin, JoinAlgorithm, ProxyJoin, UdfPolicy,
};
use fudj_repro::exec::{
    Cluster, CounterFingerprint, ExecMode, ExecOpts, FaultConfig, FudjJoinNode, PhysicalPlan,
};
use fudj_repro::geo::{Point, Polygon, Rect};
use fudj_repro::joins::evil::{EqualityFudj, EvilJoin, EvilMode, EvilPhase};
use fudj_repro::joins::{IntervalFudj, SpatialDedup, SpatialFudj, TextSimilarityFudj};
use fudj_repro::sched::{JobState, QuerySpec, Scheduler, SchedulerConfig};
use fudj_repro::serve::{sample_session, SHAPES};
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::temporal::Interval;
use fudj_repro::types::{DataType, Field, Row, Schema, Value};
use std::sync::Arc;

const WORKERS: usize = 3;

/// Seed matrix for the chaos differential (CI pins five seeds via
/// `CHAOS_SEEDS`; the default matches that matrix).
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        Err(_) => vec![101, 202, 303, 404, 505],
    }
}

/// Deterministic data generator (xorshift64*), same idiom as the chaos
/// differential: data must be identical across runs.
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

fn longs(n: usize, modulo: i64, salt: u64) -> Vec<Value> {
    let mut g = Gen(55 + salt);
    (0..n).map(|_| Value::Int64(g.i64_in(0, modulo))).collect()
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

/// One workload: a label and a factory producing a *fresh* plan per run.
/// Fresh because the guard wrapper is stateful (violation-site dedup) —
/// serial and scheduled runs must not share a guard handle.
struct Workload {
    name: &'static str,
    make_plan: Box<dyn Fn() -> PhysicalPlan + Send + Sync>,
}

fn join_plan(
    engine: Arc<dyn EngineJoin>,
    left: &[Value],
    right: &[Value],
    params: Vec<Value>,
) -> PhysicalPlan {
    PhysicalPlan::FudjJoin(FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: dataset("l", left),
        },
        PhysicalPlan::Scan {
            dataset: dataset("r", right),
        },
        engine,
        1,
        1,
        params,
    ))
}

/// The mixed query batch: ≥8 queries over four predicate families plus a
/// guarded evil join.
fn workloads() -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    for (name, dedup) in [
        ("spatial/avoidance", SpatialDedup::FrameworkAvoidance),
        ("spatial/elimination", SpatialDedup::Elimination),
    ] {
        out.push(Workload {
            name,
            make_plan: Box::new(move || {
                let alg = Arc::new(ProxyJoin::new(SpatialFudj::with_dedup(dedup)));
                join_plan(
                    Arc::new(FudjEngineJoin::new(alg)),
                    &polygons(24),
                    &points(40),
                    vec![Value::Int64(8)],
                )
            }),
        });
    }
    for (name, salt) in [("interval/a", 0), ("interval/b", 4)] {
        out.push(Workload {
            name,
            make_plan: Box::new(move || {
                let alg = Arc::new(ProxyJoin::new(IntervalFudj::new()));
                join_plan(
                    Arc::new(FudjEngineJoin::new(alg)),
                    &intervals(30, salt),
                    &intervals(30, salt + 1),
                    vec![Value::Int64(50)],
                )
            }),
        });
    }
    for (name, salt) in [("text/a", 0), ("text/b", 6)] {
        out.push(Workload {
            name,
            make_plan: Box::new(move || {
                let alg = Arc::new(ProxyJoin::new(TextSimilarityFudj::new()));
                join_plan(
                    Arc::new(FudjEngineJoin::new(alg)),
                    &texts(18, salt),
                    &texts(18, salt + 1),
                    vec![Value::Float64(0.5)],
                )
            }),
        });
    }
    for (name, salt) in [("equality/a", 0), ("equality/b", 2)] {
        out.push(Workload {
            name,
            make_plan: Box::new(move || {
                join_plan(
                    Arc::new(FudjEngineJoin::new(Arc::new(EqualityFudj))),
                    &longs(80, 30, salt),
                    &longs(80, 30, salt + 1),
                    vec![],
                )
            }),
        });
    }
    out.push(Workload {
        name: "evil/quarantined-assign-panic",
        make_plan: Box::new(|| {
            let evil: Arc<dyn JoinAlgorithm> = Arc::new(EvilJoin::new(
                Arc::new(EqualityFudj),
                EvilMode::PanicIn(EvilPhase::Assign),
            ));
            let guarded = Arc::new(GuardedJoin::new(
                evil,
                GuardConfig::with_policy(UdfPolicy::Quarantine),
            ));
            join_plan(
                Arc::new(FudjEngineJoin::new(guarded)),
                &longs(120, 40, 8),
                &longs(120, 40, 9),
                vec![],
            )
        }),
    });
    out
}

type RunResult = (Vec<Row>, CounterFingerprint);

/// Serial baseline: one query at a time on a dedicated cluster.
fn run_serial(cluster: &Cluster, w: &Workload) -> RunResult {
    let (batch, metrics) = cluster
        .execute(&(w.make_plan)(), ExecOpts::default())
        .unwrap();
    (batch.rows().to_vec(), metrics.snapshot().fingerprint())
}

fn cluster_for(seed: Option<u64>) -> Cluster {
    match seed {
        Some(s) => Cluster::with_faults(WORKERS, FaultConfig::chaos(s)),
        None => Cluster::new(WORKERS),
    }
}

/// The differential: serial results/fingerprints vs fully concurrent
/// scheduled execution of the same batch, on the given fault seed.
fn differential(seed: Option<u64>) {
    let batch = workloads();
    assert!(batch.len() >= 8, "mixed batch must be at least 8 queries");

    let serial: Vec<RunResult> = {
        let cluster = cluster_for(seed);
        batch.iter().map(|w| run_serial(&cluster, w)).collect()
    };

    let scheduler = Scheduler::with_config(
        cluster_for(seed),
        SchedulerConfig {
            max_inflight: 4,
            queue_limit: batch.len(),
            memory_quota_rows: None,
            stage_slots: 2,
        },
    );
    let handles: Vec<_> = batch
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let spec =
                QuerySpec::new(Arc::new((w.make_plan)()), w.name).with_priority(1 + (i % 3) as u32);
            scheduler.submit(spec).unwrap()
        })
        .collect();

    for ((handle, w), (rows, fingerprint)) in handles.into_iter().zip(&batch).zip(&serial) {
        let id = handle.id();
        let (out, metrics) = handle.wait().unwrap_or_else(|e| {
            panic!("{}: scheduled run failed under seed {seed:?}: {e}", w.name)
        });
        assert_eq!(
            out.rows(),
            &rows[..],
            "{}: scheduled rows diverged from serial under seed {seed:?}",
            w.name
        );
        assert_eq!(
            &metrics.fingerprint(),
            fingerprint,
            "{}: scheduled metrics diverged from serial under seed {seed:?}",
            w.name
        );
        assert_eq!(
            scheduler.job(id).unwrap().state,
            JobState::Done,
            "{}: job not marked done",
            w.name
        );
    }
}

/// Fault-free differential over the whole mixed batch.
#[test]
fn concurrent_scheduled_execution_matches_serial() {
    differential(None);
}

/// The same differential under seeded chaos: injected faults and their
/// recoveries are per-query-deterministic, so the fingerprints (which
/// include the fault counters) still match exactly.
#[test]
fn concurrent_matches_serial_under_chaos_seeds() {
    for seed in seeds() {
        differential(Some(seed));
    }
}

/// Pool hygiene: a deadlined query and a cancelled query — both running
/// the guarded evil join, so guard panics are in flight when the query
/// dies — must leave the shared pool fully usable, and later queries'
/// counters identical to a fresh cluster's.
#[test]
fn killed_queries_leave_the_pool_and_counters_clean() {
    let batch = workloads();
    let evil = &batch[batch.len() - 1];
    let cluster = Cluster::new(WORKERS);
    let scheduler = Scheduler::new(cluster.clone());

    // A deadline that trips at the first batch boundary (SIM_TASK_MS=100).
    let doomed = scheduler
        .submit(QuerySpec::new(Arc::new((evil.make_plan)()), "doomed").with_deadline_ms(50))
        .unwrap();
    let doomed_id = doomed.id();
    let err = doomed.wait().unwrap_err();
    assert!(err.to_string().contains("deadline"), "{err}");
    assert_eq!(
        scheduler.job(doomed_id).unwrap().state,
        JobState::DeadlineExceeded
    );

    // A cancellation racing the query from submission; either it lands
    // (Cancelled) or the query wins (Done) — both must leave the pool
    // clean.
    let raced = scheduler
        .submit(QuerySpec::new(Arc::new((evil.make_plan)()), "raced"))
        .unwrap();
    raced.cancel();
    let raced_state = match raced.wait() {
        Ok(_) => JobState::Done,
        Err(e) => {
            assert!(e.to_string().contains("cancelled"), "{e}");
            JobState::Cancelled
        }
    };
    let raced_info = scheduler.jobs().into_iter().nth(1).unwrap();
    assert_eq!(raced_info.state, raced_state);

    // Every workload still runs on the shared cluster and produces the
    // exact counters a fresh, never-abused cluster produces.
    let fresh = Cluster::new(WORKERS);
    for w in &batch {
        let (rows, fingerprint) = run_serial(&cluster, w);
        let (fresh_rows, fresh_fingerprint) = run_serial(&fresh, w);
        assert_eq!(rows, fresh_rows, "{}: rows corrupted after kills", w.name);
        assert_eq!(
            fingerprint, fresh_fingerprint,
            "{}: counters corrupted after kills",
            w.name
        );
    }
}

/// `\jobs` progress ends exactly at its total: every serving shape, in
/// both execution modes, finishes fault-free with `stages_done ==
/// stages_total` — the predicted stage count is the number of dispatch
/// gate passes the executor really makes.
#[test]
fn every_serving_shape_finishes_at_its_stage_total() {
    let session = sample_session(200, 2).unwrap();
    for mode in [ExecMode::Row, ExecMode::Columnar] {
        session.execute(&format!("SET exec_mode = {mode}")).unwrap();
        for shape in SHAPES {
            let handle = session.submit(&(shape.sql)(1)).unwrap();
            let id = handle.id();
            handle
                .wait()
                .unwrap_or_else(|e| panic!("{} ({mode}) failed: {e}", shape.name));
            let job = session.scheduler().job(id).unwrap();
            assert_eq!(job.state, JobState::Done, "{} ({mode})", shape.name);
            assert_eq!(
                job.stages_done, job.stages_total,
                "{} ({mode}): progress ended at {}/{}",
                shape.name, job.stages_done, job.stages_total
            );
        }
    }
}
