//! Differential recovery suite: permanent worker deaths at stage
//! boundaries, with and without stage checkpointing.
//!
//! The contract under test (ISSUE 5's acceptance criteria):
//!
//! * with checkpointing ON, a run that survives injected deaths returns
//!   results *and logical counters* bit-identical to the fault-free run,
//!   and its [`RecoveryStats`] prove the recovery was partial — lost
//!   partitions were restored from checkpoints, not recomputed
//!   (`partitions_recomputed` strictly below the stage partition count,
//!   `checkpoints_read > 0`);
//! * with checkpointing OFF, the same death schedule still completes with
//!   the right answer, but only via full-stage replays;
//! * under a starvation-level checkpoint byte budget, eviction forces the
//!   replay fallback and the answer still matches.
//!
//! Like the chaos suite, the death schedule is a pure function of the
//! seed: `RECOVERY_SEEDS=<seeds> cargo test --test recovery_differential`
//! replays any matrix deterministically.

use fudj_repro::core::{EngineJoin, FaultConfig, FudjEngineJoin, JoinAlgorithm, ProxyJoin};
use fudj_repro::exec::{Cluster, ExecOpts, FudjJoinNode, PhysicalPlan, RecoveryStats, WorkerState};
use fudj_repro::geo::{Point, Polygon, Rect};
use fudj_repro::joins::{IntervalFudj, SpatialDedup, SpatialFudj};
use fudj_repro::storage::{CheckpointPolicy, DatasetBuilder};
use fudj_repro::temporal::Interval;
use fudj_repro::types::{DataType, Field, Row, Schema, Value};
use std::sync::Arc;

const WORKERS: usize = 3;

/// Death-only fault plan: no transient faults, so any divergence from the
/// fault-free run is attributable to the death/recovery machinery alone.
fn deaths_only(seed: u64) -> FaultConfig {
    FaultConfig {
        worker_death_prob: 0.35,
        ..FaultConfig::quiet(seed)
    }
}

/// The seed matrix (`RECOVERY_SEEDS=1,2,3` overrides, mirroring
/// `CHAOS_SEEDS` in the chaos suite).
fn seeds() -> Vec<u64> {
    match std::env::var("RECOVERY_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("RECOVERY_SEEDS must be u64s"))
            .collect(),
        Err(_) => (0..10).map(|i| 4_242 + 131 * i).collect(),
    }
}

/// Deterministic workload data (xorshift64*), as in the chaos suite.
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

struct Workload {
    name: &'static str,
    engine: Arc<dyn EngineJoin>,
    left: Vec<Value>,
    right: Vec<Value>,
    params: Vec<Value>,
}

fn workloads() -> Vec<Workload> {
    let mut g = Gen(7);
    let polys: Vec<Value> = (0..24)
        .map(|_| {
            let (x, y) = (g.f64_in(0.0, 90.0), g.f64_in(0.0, 90.0));
            let (w, h) = (g.f64_in(0.5, 12.0), g.f64_in(0.5, 12.0));
            Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h)))
        })
        .collect();
    let points: Vec<Value> = (0..40)
        .map(|_| Value::Point(Point::new(g.f64_in(0.0, 100.0), g.f64_in(0.0, 100.0))))
        .collect();
    let ivals = |salt: u64| -> Vec<Value> {
        let mut g = Gen(100 + salt);
        (0..30)
            .map(|_| {
                let s = g.i64_in(0, 50_000);
                Value::Interval(Interval::new(s, s + g.i64_in(0, 3_000)))
            })
            .collect()
    };
    let spatial: Arc<dyn JoinAlgorithm> = Arc::new(ProxyJoin::new(SpatialFudj::with_dedup(
        SpatialDedup::FrameworkAvoidance,
    )));
    let interval: Arc<dyn JoinAlgorithm> = Arc::new(ProxyJoin::new(IntervalFudj::new()));
    vec![
        Workload {
            name: "spatial",
            engine: Arc::new(FudjEngineJoin::new(spatial)),
            left: polys,
            right: points,
            params: vec![Value::Int64(8)],
        },
        Workload {
            name: "interval",
            engine: Arc::new(FudjEngineJoin::new(interval)),
            left: ivals(0),
            right: ivals(1),
            params: vec![Value::Int64(50)],
        },
    ]
}

fn plan(w: &Workload) -> PhysicalPlan {
    PhysicalPlan::FudjJoin(FudjJoinNode::new(
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
    ))
}

/// Sorted (left id, right id) pairs plus the full snapshot of one run.
fn run_on(cluster: &Cluster, w: &Workload) -> (Vec<(i64, i64)>, fudj_repro::exec::MetricsSnapshot) {
    let (batch, metrics) = cluster.execute(&plan(w), ExecOpts::default()).unwrap();
    let mut pairs: Vec<(i64, i64)> = batch
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
        .collect();
    pairs.sort_unstable();
    (pairs, metrics.snapshot())
}

/// THE acceptance test: with checkpointing on, surviving a worker death
/// is invisible in both the results and the logical counters, and the
/// recovery provably restored rather than recomputed.
#[test]
fn death_with_checkpoints_is_partial_recovery_and_counter_identical() {
    for w in workloads() {
        let (base_pairs, base_snap) = run_on(&Cluster::new(WORKERS), &w);
        assert!(!base_pairs.is_empty(), "{}: degenerate workload", w.name);
        assert_eq!(base_snap.recovery, RecoveryStats::default());

        let mut total_deaths = 0;
        for seed in seeds() {
            let cluster = Cluster::with_faults(WORKERS, deaths_only(seed));
            cluster.set_checkpoint_policy(CheckpointPolicy::All);
            let (pairs, snap) = run_on(&cluster, &w);
            assert_eq!(
                pairs, base_pairs,
                "{} seed {seed}: results diverged under death recovery",
                w.name
            );

            // Logical counters must be bit-identical to the fault-free
            // run: restoring from checkpoints re-runs no exchanges and
            // no UDF calls. Only the fault/recovery counters themselves
            // may differ.
            let mut fp = snap.fingerprint();
            fp.fault = Default::default();
            fp.recovery = RecoveryStats::default();
            let mut base_fp = base_snap.fingerprint();
            base_fp.fault = Default::default();
            base_fp.recovery = RecoveryStats::default();
            assert_eq!(
                fp, base_fp,
                "{} seed {seed}: logical counters moved",
                w.name
            );

            let r = snap.recovery;
            assert!(r.checkpoints_written > 0, "{} seed {seed}: {r:?}", w.name);
            if r.deaths_survived > 0 {
                total_deaths += r.deaths_survived;
                // Partial recovery: strictly fewer partitions recomputed
                // than the stage holds, and the rest came from the store.
                assert!(r.checkpoints_read > 0, "{} seed {seed}: {r:?}", w.name);
                assert!(r.partitions_restored > 0, "{} seed {seed}: {r:?}", w.name);
                assert!(
                    r.partitions_recomputed < WORKERS as u64,
                    "{} seed {seed}: recovery was not partial: {r:?}",
                    w.name
                );
                assert_eq!(r.full_stage_replays, 0, "{} seed {seed}: {r:?}", w.name);
                // The death is visible in the membership report.
                let dead = cluster
                    .workers_status()
                    .iter()
                    .filter(|i| i.state == WorkerState::Dead)
                    .count();
                assert!(dead > 0, "{} seed {seed}: no dead worker listed", w.name);
            }
        }
        assert!(
            total_deaths > 0,
            "{}: no deaths fired across the whole seed matrix — the suite proves nothing",
            w.name
        );
    }
}

/// With checkpointing off the same deaths complete via full-stage replay:
/// same answer, no checkpoint reads, every partition recomputed.
#[test]
fn death_without_checkpoints_falls_back_to_full_stage_replay() {
    for w in workloads() {
        let (base_pairs, _) = run_on(&Cluster::new(WORKERS), &w);
        let mut total_deaths = 0;
        let mut total_replays = 0;
        for seed in seeds() {
            let cluster = Cluster::with_faults(WORKERS, deaths_only(seed));
            let (pairs, snap) = run_on(&cluster, &w);
            assert_eq!(
                pairs, base_pairs,
                "{} seed {seed}: full-stage replay diverged",
                w.name
            );
            let r = snap.recovery;
            assert_eq!(r.checkpoints_written, 0, "{} seed {seed}: {r:?}", w.name);
            assert_eq!(r.checkpoints_read, 0, "{} seed {seed}: {r:?}", w.name);
            if r.deaths_survived > 0 {
                total_deaths += r.deaths_survived;
                total_replays += r.full_stage_replays;
                assert!(r.full_stage_replays > 0, "{} seed {seed}: {r:?}", w.name);
                assert!(r.partitions_recomputed > 0, "{} seed {seed}: {r:?}", w.name);
                assert_eq!(r.partitions_restored, 0, "{} seed {seed}: {r:?}", w.name);
            }
        }
        assert!(total_deaths > 0, "{}: no deaths fired", w.name);
        assert!(total_replays > 0, "{}: no replays exercised", w.name);
    }
}

/// Eviction stress: a byte budget far below one partition's size evicts
/// checkpoints as fast as they are written, so deaths fall back to
/// replay — and the answer still matches.
#[test]
fn starved_checkpoint_budget_degrades_to_replay_not_wrong_answers() {
    let w = &workloads()[0];
    let (base_pairs, _) = run_on(&Cluster::new(WORKERS), w);
    let mut evictions = 0;
    let mut deaths = 0;
    for seed in seeds() {
        let cluster = Cluster::with_faults(WORKERS, deaths_only(seed));
        cluster.set_checkpoint_policy(CheckpointPolicy::All);
        cluster.set_checkpoint_budget(Some(16)); // smaller than any partition
        let (pairs, snap) = run_on(&cluster, w);
        assert_eq!(pairs, base_pairs, "seed {seed}: starved run diverged");
        let r = snap.recovery;
        evictions += r.checkpoints_evicted;
        deaths += r.deaths_survived;
        if r.deaths_survived > 0 {
            assert_eq!(r.partitions_restored, 0, "seed {seed}: {r:?}");
            assert!(r.full_stage_replays > 0, "seed {seed}: {r:?}");
        }
    }
    assert!(evictions > 0, "budget never evicted anything");
    assert!(deaths > 0, "no deaths fired under the starved budget");
}

/// Same seed ⇒ same death schedule, same recovery counters, same answer —
/// the property that makes death chaos debuggable.
#[test]
fn death_schedule_is_reproducible() {
    let w = &workloads()[1];
    let run = |seed: u64| {
        let cluster = Cluster::with_faults(WORKERS, deaths_only(seed));
        cluster.set_checkpoint_policy(CheckpointPolicy::All);
        run_on(&cluster, w)
    };
    for seed in seeds().into_iter().take(4) {
        let (pairs_a, snap_a) = run(seed);
        let (pairs_b, snap_b) = run(seed);
        assert_eq!(pairs_a, pairs_b, "seed {seed}: results diverged");
        assert_eq!(
            snap_a.recovery, snap_b.recovery,
            "seed {seed}: recovery schedule diverged"
        );
    }
}

/// Elastic membership: decommissioned workers leave the routing set
/// without moving unaffected partitions, queries keep answering, and a
/// replacement can rejoin the freed slot.
#[test]
fn decommission_and_rejoin_preserve_answers() {
    let w = &workloads()[0];
    let (base_pairs, _) = run_on(&Cluster::new(WORKERS), w);

    let cluster = Cluster::new(WORKERS);
    cluster.decommission_worker(1).unwrap();
    let (pairs, _) = run_on(&cluster, w);
    assert_eq!(pairs, base_pairs, "decommissioned cluster diverged");
    assert_eq!(
        cluster.workers_status()[1].state,
        WorkerState::Decommissioned
    );

    // Double-decommission and unknown ids are errors, not panics.
    assert!(cluster.decommission_worker(1).is_err());
    assert!(cluster.decommission_worker(99).is_err());

    // A replacement adopts the freed slot; at full strength add fails.
    assert_eq!(cluster.add_worker().unwrap(), 1);
    assert!(cluster.add_worker().is_err());
    let (pairs, _) = run_on(&cluster, w);
    assert_eq!(pairs, base_pairs, "rejoined cluster diverged");

    // The cluster never gives up its last worker.
    cluster.decommission_worker(0).unwrap();
    cluster.decommission_worker(2).unwrap();
    assert!(cluster.decommission_worker(1).is_err());
    let (pairs, _) = run_on(&cluster, w);
    assert_eq!(pairs, base_pairs, "single-survivor cluster diverged");
}
