//! Quick perf sanity check + machine-readable summary.
//!
//! Runs the three paper workloads through the concurrent scheduler
//! (so each run carries a per-query control clock), times the pool
//! dispatch overhead against fresh thread spawning, measures the cost
//! of stage checkpointing (off / on / on while surviving a worker
//! death), and writes the results to `BENCH_PR5.json` at the repository
//! root. It then sweeps the hybrid-hash memory budget (unbounded, 50%,
//! 10%, 1% of the per-worker COMBINE input) across all four join
//! classes and writes the runtime-vs-budget curves to `BENCH_PR6.json`,
//! races the row-at-a-time engine against the columnar stride engine on
//! scan/filter/aggregate pipelines, writing the speedups to
//! `BENCH_PR7.json`, and finally measures ingest throughput under the
//! durability knobs (no store / fsync-every-write / every-64 / off)
//! plus snapshot and recovery-replay cost, writing `BENCH_PR8.json`,
//! and replays seeded multi-tenant workloads through the serving tier
//! (caches on vs off, uniform vs shape-skewed, three priority classes),
//! writing `BENCH_PR9.json`, and sweeps crash-restart resumption of a
//! join-heavy journaled query across checkpoint cadences (no stage
//! boundaries / aggregate boundary only / every boundary), writing the
//! reopen-and-resume times plus the redo work saved to
//! `BENCH_PR10.json`. Every emitted file gets a one-line
//! `wrote <file> (<n> rows)` summary, and all the JSON formats are
//! documented in `EXPERIMENTS.md`.

use fudj_bench::runner::{measure, RunConfig, Strategy};
use fudj_bench::workloads::Workload;
use fudj_core::FudjEngineJoin;
use fudj_exec::{
    AggFunc, Aggregate, Cluster, CmpOp, ColumnCompare, ExecMode, ExecOpts, FaultConfig,
    FudjJoinNode, MetricsSnapshot, PhysicalPlan, WorkerPool,
};
use fudj_joins::EqualityFudj;
use fudj_planner::PlanOptions;
use fudj_storage::DatasetBuilder;
use fudj_types::{DataType, Field, Row, Schema, Value};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One workload's scheduled measurement.
struct WorkloadResult {
    name: &'static str,
    wall_seconds: f64,
    rows: usize,
    metrics: MetricsSnapshot,
}

/// Run one workload end to end through `Session::submit`, so the
/// metrics snapshot carries the scheduler's simulated clock.
fn scheduled_run(
    workload: Workload,
    records: usize,
    workers: usize,
    buckets: Option<i64>,
) -> WorkloadResult {
    let mut session = workload.session(records, workers, None);
    let mut options = PlanOptions::default();
    if let Some(b) = buckets {
        options.extra_join_params.push(Value::Int64(b));
    }
    session.set_options(options);

    let sql = workload.sql(0.9);
    let start = Instant::now();
    let handle = session.submit(&sql).expect("perfcheck query must submit");
    let (batch, metrics) = handle.wait().expect("perfcheck query must run");
    WorkloadResult {
        name: workload.name(),
        wall_seconds: start.elapsed().as_secs_f64(),
        rows: batch.len(),
        metrics,
    }
}

/// Per-worker busy fractions of the run's wall-clock time.
fn busy_fractions(m: &MetricsSnapshot, wall_seconds: f64) -> Vec<f64> {
    m.per_worker
        .iter()
        .map(|w| {
            if wall_seconds > 0.0 {
                w.busy.as_secs_f64() / wall_seconds
            } else {
                0.0
            }
        })
        .collect()
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_owned()
    }
}

/// Write one `BENCH_PR*.json` to the repository root and print a one-line
/// summary: the file written and how many data rows it carries (nested
/// JSON objects, one per measurement).
fn write_bench(file: &str, json: &str) {
    let rows = json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\""))
        .count();
    // The bench crate lives at crates/bench; the JSON lands at the root.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{file}"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {} ({rows} rows)", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// One recovery-overhead measurement: the spatial workload with a given
/// checkpoint policy and (optionally) a seeded death-only fault plan.
struct RecoveryRow {
    mode: &'static str,
    wall_seconds: f64,
    rows: usize,
    metrics: MetricsSnapshot,
}

fn recovery_run(
    mode: &'static str,
    records: usize,
    workers: usize,
    checkpoints: bool,
    death_seed: Option<u64>,
) -> RecoveryRow {
    let mut session = Workload::Spatial.session(records, workers, None);
    let mut options = PlanOptions::default();
    options.extra_join_params.push(Value::Int64(32));
    session.set_options(options);
    if let Some(seed) = death_seed {
        // Deaths only: the row isolates death-recovery cost, not the
        // transient-fault retry machinery.
        session.set_faults(Some(FaultConfig {
            worker_death_prob: 0.35,
            ..FaultConfig::quiet(seed)
        }));
    }
    if checkpoints {
        session
            .execute("SET checkpoint_stages = all;")
            .expect("checkpoint knob must apply");
    }
    let sql = Workload::Spatial.sql(0.9);
    let start = Instant::now();
    let output = session.execute(&sql).expect("perfcheck query must run");
    let wall_seconds = start.elapsed().as_secs_f64();
    RecoveryRow {
        mode,
        wall_seconds,
        rows: output.batch().len(),
        metrics: output.metrics().clone(),
    }
}

/// The death row must actually contain a death: the schedule is a pure
/// function of the seed, so scan a small deterministic seed range for
/// the first run that survives at least one.
fn recovery_death_run(records: usize, workers: usize) -> RecoveryRow {
    for seed in 1..64 {
        let row = recovery_run(
            "checkpoints_on_with_death",
            records,
            workers,
            true,
            Some(seed),
        );
        if row.metrics.recovery.deaths_survived > 0 {
            return row;
        }
    }
    panic!("no seed in 1..64 produced a worker death — death arming is broken");
}

/// One point on a join class's runtime-vs-budget curve.
struct SweepPoint {
    label: &'static str,
    budget: Option<usize>,
    rows: usize,
    wall_seconds: f64,
    metrics: MetricsSnapshot,
}

/// One join class's full budget sweep.
struct SweepCurve {
    class: &'static str,
    /// Theta classes broadcast, so hash repartitioning is unsound for
    /// them; over budget they spill both sides whole and block-nested-
    /// loop, which makes their spill volume flat across budgeted points.
    theta: bool,
    points: Vec<SweepPoint>,
}

/// Budget steps of the sweep: fractions of the measured per-worker
/// COMBINE input, so "50%" means half of what one spilling task sees.
const SWEEP_STEPS: [(&str, Option<u64>); 4] = [
    ("unbounded", None),
    ("50%", Some(2)),
    ("10%", Some(10)),
    ("1%", Some(100)),
];

/// Sweep one SQL workload: run unbounded to size the per-worker COMBINE
/// input (≈ shuffled rows / workers for default-match classes), then
/// re-run at each budget fraction through `SET memory_budget_rows`.
fn sweep_sql(
    class: &'static str,
    workload: Workload,
    records: usize,
    workers: usize,
) -> SweepCurve {
    let mut points = Vec::new();
    let mut per_task = 0u64;
    for (label, divisor) in SWEEP_STEPS {
        let budget = divisor.map(|d| ((per_task / d) as usize).max(4));
        let session = workload.session(records, workers, None);
        if let Some(b) = budget {
            session
                .execute(&format!("SET memory_budget_rows = {b};"))
                .expect("budget knob must apply");
        }
        let sql = workload.sql(0.9);
        let start = Instant::now();
        let output = session.execute(&sql).expect("sweep query must run");
        let wall_seconds = start.elapsed().as_secs_f64();
        let metrics = output.metrics().clone();
        if divisor.is_none() {
            // Theta classes broadcast instead of shuffling; their curve
            // exists to document that the budget is ignored, so any
            // positive base works.
            per_task = (metrics.rows_shuffled.max(metrics.rows_broadcast) / workers as u64).max(8);
        }
        points.push(SweepPoint {
            label,
            budget,
            rows: output.batch().len(),
            wall_seconds,
            metrics,
        });
    }
    SweepCurve {
        class,
        theta: workload == Workload::Interval,
        points,
    }
}

/// Sweep the equality class directly on a cluster (the SQL surface has
/// no equality workload): Zipf-ish skewed long keys, same budget steps.
fn sweep_equality(workers: usize) -> SweepCurve {
    let n = 1_200usize;
    let keys = |salt: u64| -> Vec<Value> {
        let mut x = 0x9E37_79B9 ^ salt;
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
                Value::Int64((64f64.powf(u) as i64).min(63))
            })
            .collect()
    };
    let dataset = |name: &str, keys: &[Value]| {
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("k", DataType::Int64),
        ]);
        let d = DatasetBuilder::new(name, schema)
            .partitions(workers)
            .build()
            .unwrap();
        for (i, k) in keys.iter().enumerate() {
            d.insert(Row::new(vec![Value::Int64(i as i64), k.clone()]))
                .unwrap();
        }
        Arc::new(d)
    };
    let (l, r) = (keys(1), keys(2));
    let cluster = Cluster::new(workers);
    let mut points = Vec::new();
    // Equality tags each row exactly once, so the per-worker COMBINE
    // input is known up front (unlike the SQL classes, whose tag
    // amplification is measured from the unbounded run).
    let per_task = ((2 * n) / workers) as u64;
    for (label, divisor) in SWEEP_STEPS {
        let budget = divisor.map(|d| ((per_task / d) as usize).max(4));
        let mut node = FudjJoinNode::new(
            PhysicalPlan::Scan {
                dataset: dataset("sweep_l", &l),
            },
            PhysicalPlan::Scan {
                dataset: dataset("sweep_r", &r),
            },
            Arc::new(FudjEngineJoin::new(Arc::new(EqualityFudj))),
            1,
            1,
            vec![],
        );
        node.memory_budget_rows = budget;
        let start = Instant::now();
        let (batch, metrics) = cluster
            .execute(&PhysicalPlan::FudjJoin(node), ExecOpts::default())
            .expect("equality sweep must run");
        let wall_seconds = start.elapsed().as_secs_f64();
        let metrics = metrics.snapshot();
        points.push(SweepPoint {
            label,
            budget,
            rows: batch.len(),
            wall_seconds,
            metrics,
        });
    }
    SweepCurve {
        class: "Equality",
        theta: false,
        points,
    }
}

/// Run the PR6 budget sweep across all four join classes, sanity-check
/// graceful degradation, and assemble the `BENCH_PR6.json` document.
fn budget_sweep(workers: usize) -> String {
    let curves = [
        sweep_sql("Spatial", Workload::Spatial, 1_600, workers),
        sweep_sql("Interval", Workload::Interval, 500, workers),
        sweep_sql("Set-similarity", Workload::Text, 500, workers),
        sweep_equality(workers),
    ];

    let mut json = String::new();
    json.push_str("{\n  \"pr\": 6,\n");
    let _ = writeln!(json, "  \"workers\": {workers},");
    json.push_str("  \"budget_sweep\": [\n");
    for (ci, c) in curves.iter().enumerate() {
        let base_rows = c.points[0].rows;
        for (pi, p) in c.points.iter().enumerate() {
            // Graceful degradation, not a cliff: every budget returns the
            // same answer, and for spillable classes the spill volume
            // rises monotonically as the budget shrinks.
            assert_eq!(
                p.rows, base_rows,
                "{}/{}: budget changed the answer",
                c.class, p.label
            );
            let m = &p.metrics;
            if c.theta && pi > 0 {
                // A budgeted theta run spills both sides whole and takes
                // the block-nested-loop path instead of repartitioning.
                assert!(
                    m.spill_bnl_fallbacks > 0,
                    "{}: budgeted theta run never took the BNL path",
                    c.class
                );
            }
            if pi > 0 {
                assert!(
                    m.spilled_bytes >= c.points[pi - 1].metrics.spilled_bytes,
                    "{}: spill volume not monotone in budget",
                    c.class
                );
            }
            if pi + 1 == c.points.len() {
                assert!(m.spilled_rows > 0, "{}: 1% budget never spilled", c.class);
            }
            println!(
                "sweep {} @ {}: {} rows, wall {:.4}s, spilled {} rows / {} bytes, \
                 {} resident / {} spilled parts, depth {}, {} BNL",
                c.class,
                p.label,
                p.rows,
                p.wall_seconds,
                m.spilled_rows,
                m.spilled_bytes,
                m.spill_resident_partitions,
                m.spill_spilled_partitions,
                m.spill_recursion_depth,
                m.spill_bnl_fallbacks,
            );
            let budget = p
                .budget
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".to_owned());
            let _ = write!(
                json,
                "    {{\"class\": \"{}\", \"budget_label\": \"{}\", \"budget_rows\": {}, \
                 \"rows\": {}, \"wall_seconds\": {}, \"spilled_rows\": {}, \
                 \"spilled_bytes\": {}, \"resident_partitions\": {}, \
                 \"spilled_partitions\": {}, \"passes\": {}, \"recursion_depth\": {}, \
                 \"bnl_fallbacks\": {}, \"peak_resident_rows\": {}}}",
                c.class,
                p.label,
                budget,
                p.rows,
                json_f64(p.wall_seconds),
                m.spilled_rows,
                m.spilled_bytes,
                m.spill_resident_partitions,
                m.spill_spilled_partitions,
                m.spill_passes,
                m.spill_recursion_depth,
                m.spill_bnl_fallbacks,
                m.spill_peak_resident_rows,
            );
            let last = ci + 1 == curves.len() && pi + 1 == c.points.len();
            json.push_str(if last { "\n" } else { ",\n" });
        }
    }
    json.push_str("  ]\n}\n");
    json
}

/// One row-vs-columnar race over the same physical plan and cluster.
struct ModePoint {
    workload: &'static str,
    rows_in: usize,
    rows_out: usize,
    row_seconds: f64,
    columnar_seconds: f64,
}

impl ModePoint {
    fn speedup(&self) -> f64 {
        self.row_seconds / self.columnar_seconds
    }
}

/// Time one plan under one execution mode, returning the sorted result,
/// the counter fingerprint source, and the best wall time over `rounds`
/// timed runs. Callers interleave row and columnar rounds so a noisy
/// scheduling burst penalizes both engines, not whichever one it hit.
struct ModeRace {
    rows: Vec<Row>,
    snap: MetricsSnapshot,
    best: f64,
}

fn race_mode(cluster: &Cluster, plan: &PhysicalPlan, mode: ExecMode, rounds: usize) -> ModeRace {
    let mut best = f64::MAX;
    let mut kept = None;
    for _ in 0..rounds {
        let opts = ExecOpts {
            mode,
            ..ExecOpts::default()
        };
        let start = Instant::now();
        let (batch, metrics) = cluster.execute(plan, opts).unwrap();
        let wall = start.elapsed().as_secs_f64();
        let snap = metrics.snapshot();
        assert_eq!(snap.exec_mode, mode, "executor ignored the mode override");
        best = best.min(wall);
        if kept.is_none() {
            let mut rows = batch.into_rows();
            rows.sort();
            kept = Some((rows, snap));
        }
    }
    let (rows, snap) = kept.unwrap();
    ModeRace { rows, snap, best }
}

/// Race the row engine against the columnar engine on the pipelines the
/// stride kernels target — scan+filter, scan+aggregate, and the fused
/// scan+filter+aggregate — and assemble `BENCH_PR7.json`. Asserts that
/// both engines return bit-identical answers with identical logical
/// counter fingerprints, and that the columnar engine clears 1.5x
/// rows/sec on at least two of the pipelines.
fn exec_mode_sweep(workers: usize) -> String {
    const N: usize = 480_000;
    let schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("grp", DataType::Int64),
        Field::new("val", DataType::Int64),
    ]));
    let data = DatasetBuilder::new("Fact", schema)
        .partitions(workers)
        .build()
        .unwrap();
    // Deterministic xorshift fill: 4096 groups, values in [0, 10_000).
    // The group count is large enough that the row engine's
    // `Vec<Value>`-keyed hash table feels every probe (alloc + deep hash
    // + deep compare), which is exactly the overhead the columnar
    // engine's i64 slot map amortizes away.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..N {
        let grp = (next() % 4096) as i64;
        let val = (next() % 10_000) as i64;
        data.insert(Row::new(vec![
            Value::Int64(i as i64),
            Value::Int64(grp),
            Value::Int64(val),
        ]))
        .unwrap();
    }
    let data = Arc::new(data);

    let scan = || PhysicalPlan::Scan {
        dataset: data.clone(),
    };
    let cmp = |column: usize, op: CmpOp, lit: i64| ColumnCompare {
        column,
        op,
        literal: Value::Int64(lit),
    };
    let filter = |input: PhysicalPlan, compares: Vec<ColumnCompare>| PhysicalPlan::VecFilter {
        input: Box::new(input),
        compares,
    };
    // ~78%-pass conjunction: real pruning work for the filter kernels.
    let selective = || {
        vec![
            cmp(1, CmpOp::GtEq, 64),
            cmp(1, CmpOp::NotEq, 300),
            cmp(2, CmpOp::Lt, 9_000),
        ]
    };
    // ~99%-pass predicate: almost everything flows through to the
    // aggregation, so this pipeline measures filter + aggregate together
    // rather than the filter alone.
    let pass_heavy = || vec![cmp(2, CmpOp::Lt, 9_900)];
    let project = |input: PhysicalPlan| PhysicalPlan::VecProject {
        input: Box::new(input),
        columns: vec![1],
        schema: Arc::new(Schema::new(vec![Field::new("grp", DataType::Int64)])),
    };
    let aggregate = |input: PhysicalPlan| PhysicalPlan::HashAggregate {
        input: Box::new(input),
        group_by: vec![1],
        aggregates: vec![
            Aggregate::count_star("c"),
            Aggregate::on(AggFunc::Sum, 2, "s"),
            Aggregate::on(AggFunc::Avg, 2, "a"),
        ],
    };
    let plans = [
        ("scan_filter_project", project(filter(scan(), selective()))),
        ("group_aggregate", aggregate(scan())),
        (
            "filter_group_aggregate",
            aggregate(filter(scan(), pass_heavy())),
        ),
    ];

    let cluster = Cluster::new(workers);
    let mut points = Vec::new();
    for (name, plan) in &plans {
        let row = race_mode(&cluster, plan, ExecMode::Row, 6);
        let col = race_mode(&cluster, plan, ExecMode::Columnar, 6);
        assert_eq!(row.rows, col.rows, "{name}: engines disagree on the answer");
        assert_eq!(
            row.snap.fingerprint(),
            col.snap.fingerprint(),
            "{name}: engines disagree on logical counters"
        );
        assert!(!row.rows.is_empty(), "{name}: degenerate workload");
        points.push(ModePoint {
            workload: name,
            rows_in: N,
            rows_out: row.rows.len(),
            row_seconds: row.best,
            columnar_seconds: col.best,
        });
    }

    let mut json = String::new();
    json.push_str("{\n  \"pr\": 7,\n");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"rows\": {N},");
    json.push_str("  \"exec_mode_sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        println!(
            "exec-mode {}: {} -> {} rows, row {:.4}s ({:.0} rows/s), \
             columnar {:.4}s ({:.0} rows/s), speedup {:.2}x",
            p.workload,
            p.rows_in,
            p.rows_out,
            p.row_seconds,
            p.rows_in as f64 / p.row_seconds,
            p.columnar_seconds,
            p.rows_in as f64 / p.columnar_seconds,
            p.speedup(),
        );
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"rows_in\": {}, \"rows_out\": {}, \
             \"row_seconds\": {}, \"columnar_seconds\": {}, \
             \"row_rows_per_sec\": {}, \"columnar_rows_per_sec\": {}, \
             \"speedup\": {}, \"counters_match\": true}}",
            p.workload,
            p.rows_in,
            p.rows_out,
            json_f64(p.row_seconds),
            json_f64(p.columnar_seconds),
            json_f64(p.rows_in as f64 / p.row_seconds),
            json_f64(p.rows_in as f64 / p.columnar_seconds),
            json_f64(p.speedup()),
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let cleared = points.iter().filter(|p| p.speedup() >= 1.5).count();
    assert!(
        cleared >= 2,
        "columnar engine cleared 1.5x on only {cleared} of {} pipelines",
        points.len()
    );
    json
}

/// One durable-ingest measurement.
struct IngestPoint {
    mode: &'static str,
    wall_seconds: f64,
    wal_records: u64,
    wal_bytes: u64,
    fsyncs: u64,
}

/// PR8: ingest throughput with no store, fsync-every-write,
/// fsync-every-64, and fsync-off durability, plus the snapshot and
/// recovery-replay cost on the fully-synced store. Durable modes must
/// not change the ingested row count, and recovery must restore every
/// row. Assembles `BENCH_PR8.json`.
fn durability_sweep() -> String {
    use fudj_sql::Session;
    const ROWS: usize = 20_000;
    const BATCH: usize = 200;

    let dir_for = |mode: &str| {
        std::env::temp_dir().join(format!("fudj-wal-bench-{}-{mode}", std::process::id()))
    };
    let kv_schema = || {
        Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("tag", DataType::String),
        ])
    };
    let ingest = |session: &Session| {
        let d = session.catalog().get("kv").unwrap();
        for b in 0..(ROWS / BATCH) {
            d.insert_all((0..BATCH).map(|i| {
                let id = (b * BATCH + i) as i64;
                Row::new(vec![Value::Int64(id), Value::str(format!("t{}", id % 7))])
            }))
            .unwrap();
        }
    };

    let modes: [(&'static str, Option<&'static str>); 4] = [
        ("in_memory", None),
        ("wal_fsync_every_write", Some("sync")),
        ("wal_fsync_every_64", Some("64")),
        ("wal_fsync_off", Some("off")),
    ];
    let mut points = Vec::new();
    for (mode, durability) in modes {
        let session = Session::new(4);
        if let Some(knob) = durability {
            let dir = dir_for(mode);
            let _ = std::fs::remove_dir_all(&dir);
            session
                .execute(&format!("SET durability = {knob};"))
                .expect("durability knob must apply");
            session
                .execute(&format!("SET wal_dir = '{}';", dir.display()))
                .expect("wal_dir must open");
        }
        session
            .register_dataset(
                DatasetBuilder::new("kv", kv_schema())
                    .primary_key("id")
                    .partitions(4)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let start = Instant::now();
        ingest(&session);
        let wall_seconds = start.elapsed().as_secs_f64();
        assert_eq!(
            session.catalog().get("kv").unwrap().len(),
            ROWS,
            "{mode}: durability changed the ingested row count"
        );
        let stats = session.durable().map(|s| s.stats()).unwrap_or_default();
        println!(
            "durable ingest {mode}: {ROWS} rows in {wall_seconds:.4}s ({:.0} rows/s), \
             {} WAL records ({} bytes), {} fsyncs",
            ROWS as f64 / wall_seconds,
            stats.wal_records_appended,
            stats.wal_bytes_appended,
            stats.wal_fsyncs,
        );
        points.push(IngestPoint {
            mode,
            wall_seconds,
            wal_records: stats.wal_records_appended,
            wal_bytes: stats.wal_bytes_appended,
            fsyncs: stats.wal_fsyncs,
        });
    }

    // Recovery replay + snapshot cost on the fully-synced store.
    let dir = dir_for("wal_fsync_every_write");
    let session = Session::new(4);
    let start = Instant::now();
    session
        .execute(&format!("SET wal_dir = '{}';", dir.display()))
        .expect("recovery open must succeed");
    let replay_seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        session.catalog().get("kv").expect("recovered table").len(),
        ROWS,
        "recovery lost rows"
    );
    let store = session.durable().unwrap();
    let replay = store.stats();
    let start = Instant::now();
    session.persist().expect("snapshot must write");
    let snapshot_seconds = start.elapsed().as_secs_f64();
    let snap = store.stats();
    println!(
        "durable recovery: {} records / {} rows replayed in {replay_seconds:.4}s; \
         snapshot {} bytes in {snapshot_seconds:.4}s",
        replay.wal_records_replayed, replay.rows_replayed, snap.snapshot_bytes_written,
    );
    drop(session);
    for (mode, durability) in modes {
        if durability.is_some() {
            let _ = std::fs::remove_dir_all(dir_for(mode));
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"pr\": 8,\n");
    let _ = writeln!(json, "  \"rows\": {ROWS},");
    let _ = writeln!(json, "  \"batch_rows\": {BATCH},");
    json.push_str("  \"ingest\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"wall_seconds\": {}, \"rows_per_sec\": {}, \
             \"wal_records\": {}, \"wal_bytes\": {}, \"fsyncs\": {}}}",
            p.mode,
            json_f64(p.wall_seconds),
            json_f64(ROWS as f64 / p.wall_seconds),
            p.wal_records,
            p.wal_bytes,
            p.fsyncs,
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"recovery\": {{\"wall_seconds\": {}, \"records_replayed\": {}, \
         \"rows_replayed\": {}}},",
        json_f64(replay_seconds),
        replay.wal_records_replayed,
        replay.rows_replayed,
    );
    let _ = writeln!(
        json,
        "  \"snapshot\": {{\"wall_seconds\": {}, \"bytes\": {}}}",
        json_f64(snapshot_seconds),
        snap.snapshot_bytes_written,
    );
    json.push_str("}\n");
    json
}

/// One crash-resume measurement: a checkpoint cadence, where the crash
/// struck, and what the restart paid to finish the query.
struct ResumePoint {
    cadence: &'static str,
    crash_site: &'static str,
    crash_hit: u64,
    uninterrupted_seconds: f64,
    checkpoint_frames: u64,
    checkpoint_bytes: u64,
    reopen_resume_seconds: f64,
    resumed_from: Option<String>,
    stages_resumed: u64,
    resume_rows_restored: u64,
    full_replays: u64,
}

/// PR10: crash-restart resumption cost vs checkpoint cadence on a
/// join-heavy journaled query. For each cadence, run the query once
/// uninterrupted (baseline time + checkpoint write overhead), then crash
/// the process at the last durable journal record the cadence emits,
/// reopen the same virtual disk, and time the reopen-and-resume. Coarser
/// cadences pay less during the run and redo more after the crash; the
/// no-boundary cadence must fall back to a full replay. Assembles
/// `BENCH_PR10.json`.
fn crash_resume_sweep() -> String {
    use fudj_datagen::{parks, wildfires, GeneratorConfig};
    use fudj_joins::standard_library;
    use fudj_sql::Session;
    use fudj_storage::{FaultFs, StorageFaultConfig};

    const RECORDS: usize = 600;
    const SEED: u64 = 7;
    const SQL: &str = "SELECT p.id, COUNT(w.id) AS num_fires FROM Parks p, Wildfires w \
         WHERE ST_Contains(p.boundary, w.location) GROUP BY p.id ORDER BY num_fires DESC";

    let make_session = || {
        let s = Session::new(4);
        s.install_library(standard_library());
        s.register_dataset(parks(GeneratorConfig::new(RECORDS, 1, 4)).unwrap())
            .unwrap();
        s.register_dataset(wildfires(GeneratorConfig::new(2 * RECORDS, 2, 4)).unwrap())
            .unwrap();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
        )
        .unwrap();
        s
    };
    // `nostage` names no real boundary, so the journal records submit and
    // finish only — a crash mid-query always resumes via full replay.
    let cadences: [(&'static str, &'static str, &'static str, u64); 4] = [
        ("no_boundaries", "nostage", "journal:submit", 1),
        ("agg_boundary_only", "agg:shuffle", "journal:stage", 1),
        ("every_boundary", "all", "journal:stage", 2),
        ("every_boundary_late_crash", "all", "journal:stage", 3),
    ];

    let mut points = Vec::new();
    let mut base_rows = None;
    for (cadence, stages, crash_site, crash_hit) in cadences {
        // Uninterrupted baseline under the same cadence (fresh disk).
        let session = make_session();
        session.execute("SET checkpoint_durable = on").unwrap();
        session
            .execute(&format!("SET checkpoint_stages = '{stages}'"))
            .unwrap();
        session
            .open_wal_with(
                &format!("/bench-pr10-base-{cadence}"),
                FaultFs::new(StorageFaultConfig::quiet(SEED)),
            )
            .unwrap();
        let start = Instant::now();
        let out = session.execute(SQL).expect("baseline query must run");
        let uninterrupted_seconds = start.elapsed().as_secs_f64();
        let rows = out.batch().len();
        assert_eq!(
            *base_rows.get_or_insert(rows),
            rows,
            "{cadence}: answer drifted"
        );
        let stats = session.cluster().checkpoints().stats();
        let (checkpoint_frames, checkpoint_bytes) = (
            stats.durable_frames_written,
            stats.durable_frame_bytes_written,
        );
        drop(session);

        // Crash run: die at the cadence's last durable journal record.
        let fs = FaultFs::new(StorageFaultConfig::crash_at(SEED, crash_site, crash_hit));
        let dir = format!("/bench-pr10-crash-{cadence}");
        let session = make_session();
        session.execute("SET checkpoint_durable = on").unwrap();
        session
            .execute(&format!("SET checkpoint_stages = '{stages}'"))
            .unwrap();
        session.open_wal_with(&dir, fs.clone()).unwrap();
        assert!(
            session.execute(SQL).is_err(),
            "{cadence}: the armed {crash_site} crash never fired"
        );
        drop(session);

        // Restart: reopen the same disk; the open replays the WAL and
        // re-executes the unfinished query from its last boundary.
        fs.reopen_after_crash();
        let session = make_session();
        session.execute("SET checkpoint_durable = on").unwrap();
        session
            .execute(&format!("SET checkpoint_stages = '{stages}'"))
            .unwrap();
        let start = Instant::now();
        session.open_wal_with(&dir, fs).expect("reopen must resume");
        let reopen_resume_seconds = start.elapsed().as_secs_f64();
        let mut resumed = session.take_resumed();
        assert_eq!(resumed.len(), 1, "{cadence}: expected one pending query");
        let resumed = resumed.remove(0);
        let (batch, snapshot) = resumed.result.expect("resume must succeed");
        assert_eq!(batch.len(), rows, "{cadence}: resume changed the answer");
        let rec = &snapshot.recovery;
        if crash_site == "journal:stage" {
            assert!(
                rec.stages_resumed > 0,
                "{cadence}: boundary cadence fell back to full replay"
            );
        } else {
            // No boundary was ever committed, so there is no resume spec:
            // the restart re-executes the query from scratch.
            assert_eq!(
                rec.stages_resumed, 0,
                "{cadence}: resumed without a boundary"
            );
            assert!(
                resumed.resumed_from.is_none(),
                "{cadence}: phantom boundary"
            );
        }
        println!(
            "crash resume {cadence}: baseline {uninterrupted_seconds:.4}s \
             ({checkpoint_frames} durable frames, {checkpoint_bytes} bytes), \
             reopen+resume {reopen_resume_seconds:.4}s from {:?} \
             ({} stages resumed, {} rows restored, {} full replays)",
            resumed.resumed_from,
            rec.stages_resumed,
            rec.resume_rows_restored,
            rec.resume_full_replays,
        );
        points.push(ResumePoint {
            cadence,
            crash_site,
            crash_hit,
            uninterrupted_seconds,
            checkpoint_frames,
            checkpoint_bytes,
            reopen_resume_seconds,
            resumed_from: resumed.resumed_from,
            stages_resumed: rec.stages_resumed,
            resume_rows_restored: rec.resume_rows_restored,
            full_replays: rec.resume_full_replays,
        });
    }

    let mut json = String::new();
    json.push_str("{\n  \"pr\": 10,\n");
    json.push_str("  \"workload\": \"spatial_join_group_by\",\n");
    let _ = writeln!(json, "  \"parks\": {RECORDS},");
    let _ = writeln!(json, "  \"wildfires\": {},", 2 * RECORDS);
    json.push_str("  \"cadences\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"cadence\": \"{}\", \"crash_site\": \"{}\", \"crash_hit\": {}, \
             \"uninterrupted_seconds\": {}, \"checkpoint_frames\": {}, \
             \"checkpoint_bytes\": {}, \"reopen_resume_seconds\": {}, \
             \"resumed_from\": {}, \"stages_resumed\": {}, \
             \"resume_rows_restored\": {}, \"full_replays\": {}}}",
            p.cadence,
            p.crash_site,
            p.crash_hit,
            json_f64(p.uninterrupted_seconds),
            p.checkpoint_frames,
            p.checkpoint_bytes,
            json_f64(p.reopen_resume_seconds),
            match &p.resumed_from {
                Some(s) => format!("\"{s}\""),
                None => "null".to_owned(),
            },
            p.stages_resumed,
            p.resume_rows_restored,
            p.full_replays,
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() {
    // Warm + best-of-3 end-to-end numbers for the scaling headline.
    for workers in [1usize, 4] {
        let cfg = RunConfig {
            workers,
            buckets: Some(32),
            ..RunConfig::new(Workload::Spatial, Strategy::Fudj, 4000)
        };
        let _ = measure(&cfg);
        let best = (0..3)
            .map(|_| measure(&cfg).seconds)
            .fold(f64::MAX, f64::min);
        println!("end-to-end spatial FUDJ, workers={workers}: best {best:.4}s");
    }

    // The three paper workloads, scheduled.
    const WORKERS: usize = 4;
    let results = [
        scheduled_run(Workload::Spatial, 2000, WORKERS, Some(32)),
        scheduled_run(Workload::Interval, 800, WORKERS, Some(64)),
        scheduled_run(Workload::Text, 600, WORKERS, None),
    ];
    for r in &results {
        println!(
            "scheduled {}: {} rows, {} bytes shuffled, sim {} ms, wall {:.4}s",
            r.name, r.rows, r.metrics.bytes_shuffled, r.metrics.sim_clock_ms, r.wall_seconds
        );
    }

    // Dispatch overhead: persistent pool vs a fresh thread batch per call
    // (what exchange/operator fan-out used to do), 4 tasks x 2000 calls.
    const CALLS: usize = 2000;
    let pool = WorkerPool::new(4);
    let start = Instant::now();
    for _ in 0..CALLS {
        let out = pool.run(vec![1u64, 2, 3, 4], |_, x| Ok(x * 2)).unwrap();
        assert_eq!(out.len(), 4);
    }
    let pooled = start.elapsed();

    let start = Instant::now();
    for _ in 0..CALLS {
        let items = [1u64, 2, 3, 4];
        let out: Vec<u64> = std::thread::scope(|s| {
            items
                .iter()
                .map(|x| s.spawn(move || x * 2))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(out.len(), 4);
    }
    let spawned = start.elapsed();
    println!(
        "dispatch of 4 tasks x {CALLS} calls: pool {pooled:?}, fresh spawn {spawned:?} ({:.1}x)",
        spawned.as_secs_f64() / pooled.as_secs_f64()
    );

    // Recovery overhead: the same workload with checkpointing off, on,
    // and on while surviving an injected worker death.
    let recovery_rows = [
        recovery_run("checkpoints_off", 2000, WORKERS, false, None),
        recovery_run("checkpoints_on", 2000, WORKERS, true, None),
        recovery_death_run(2000, WORKERS),
    ];
    let base_rows = recovery_rows[0].rows;
    for r in &recovery_rows {
        assert_eq!(r.rows, base_rows, "{}: recovery changed the answer", r.mode);
        let rec = &r.metrics.recovery;
        println!(
            "recovery {}: wall {:.4}s, {} checkpoints ({} bytes), {} restored, \
             {} recomputed, {} deaths",
            r.mode,
            r.wall_seconds,
            rec.checkpoints_written,
            rec.checkpoint_bytes_written,
            rec.partitions_restored,
            rec.partitions_recomputed,
            rec.deaths_survived,
        );
    }

    // Machine-readable summary (no JSON dependency in the workspace, so
    // the document is assembled by hand).
    let mut json = String::new();
    json.push_str("{\n  \"pr\": 5,\n");
    let _ = writeln!(json, "  \"workers\": {WORKERS},");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        let fractions: Vec<String> = busy_fractions(&r.metrics, r.wall_seconds)
            .into_iter()
            .map(json_f64)
            .collect();
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"rows\": {}, \"bytes_shuffled\": {}, \
             \"simulated_ms\": {}, \"wall_seconds\": {}, \"pool_busy_fractions\": [{}]}}",
            r.name,
            r.rows,
            r.metrics.bytes_shuffled,
            r.metrics.sim_clock_ms,
            json_f64(r.wall_seconds),
            fractions.join(", "),
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"recovery_overhead\": [\n");
    for (i, r) in recovery_rows.iter().enumerate() {
        let rec = &r.metrics.recovery;
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"rows\": {}, \"wall_seconds\": {}, \
             \"checkpoints_written\": {}, \"checkpoint_bytes_written\": {}, \
             \"checkpoints_read\": {}, \"partitions_restored\": {}, \
             \"partitions_recomputed\": {}, \"deaths_survived\": {}}}",
            r.mode,
            r.rows,
            json_f64(r.wall_seconds),
            rec.checkpoints_written,
            rec.checkpoint_bytes_written,
            rec.checkpoints_read,
            rec.partitions_restored,
            rec.partitions_recomputed,
            rec.deaths_survived,
        );
        json.push_str(if i + 1 < recovery_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"dispatch\": {{\"calls\": {CALLS}, \"tasks_per_call\": 4, \
         \"pool_seconds\": {}, \"spawn_seconds\": {}, \"spawn_over_pool\": {}}}",
        json_f64(pooled.as_secs_f64()),
        json_f64(spawned.as_secs_f64()),
        json_f64(spawned.as_secs_f64() / pooled.as_secs_f64()),
    );
    json.push_str("}\n");

    write_bench("BENCH_PR5.json", &json);

    // PR6: runtime-vs-budget curves for the hybrid-hash COMBINE.
    let sweep = budget_sweep(WORKERS);
    write_bench("BENCH_PR6.json", &sweep);

    // PR7: row engine vs columnar stride engine on the same plans.
    let modes = exec_mode_sweep(WORKERS);
    write_bench("BENCH_PR7.json", &modes);

    // PR8: ingest throughput under the durability knobs + recovery cost.
    let durability = durability_sweep();
    write_bench("BENCH_PR8.json", &durability);

    // PR9: multi-tenant serving-tier mixes (caches on/off, fairness).
    let serving = fudj_bench::serving::serving_sweep();
    write_bench("BENCH_PR9.json", &serving);

    // PR10: crash-restart resume cost vs checkpoint cadence.
    let resume = crash_resume_sweep();
    write_bench("BENCH_PR10.json", &resume);
}
