//! The three join workloads: one FUDJ join class each, queried in a
//! closed loop by one client and checked against the built-in operator's
//! answer on the same data.

use crate::report::{median, ms, quantile, share, us};
use crate::trace::{Tracer, NO_STMT};
use crate::{derive_seed, digest_unordered, Args, Outcome, WORKERS};
use fudj_core::EngineJoin;
use fudj_datagen::{amazon_reviews, nyctaxi, parks, wildfires, GeneratorConfig};
use fudj_exec::{MetricsSnapshot, PhysicalPlan};
use fudj_joins::builtin::{BuiltinIntervalJoin, BuiltinSpatialJoin, BuiltinTextSimJoin};
use fudj_joins::standard_library;
use fudj_planner::PlanOptions;
use fudj_sql::ast::{SelectStatement, Statement};
use fudj_sql::{QueryOutput, Session};
use fudj_storage::Dataset;
use fudj_types::{Batch, FudjError, Result, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Phases the FUDJ operator records in its metrics snapshot, with the
/// per-layer metric each one feeds. `join` is COMBINE (+ verify).
pub const PHASES: &[(&str, &str)] = &[
    ("summarize", "exec.summarize_ms"),
    ("divide", "exec.divide_ms"),
    ("partition", "exec.partition_ms"),
    ("join", "exec.combine_ms"),
    ("dedup", "exec.dedup_ms"),
];

/// Independently seeded instances of the workload's tables in one run.
/// The client cycles through them, so a run's latencies average over
/// several draws of the data rather than hinge on one.
const INSTANCES: usize = 3;

/// Fresh rebuilds of instance 0 per run. Each must reproduce its
/// counters exactly; with the instances they are the set-ups whose median
/// is `setup_s`.
const REBUILDS: usize = 5;

/// Built-in vs FUDJ execution pairs per instance, timed for
/// `core.udf_overhead_ms`.
const OVERHEAD_ROUNDS: usize = 2;

/// The quantile `query_tail_ms` reports. A run holds 160-200 statements,
/// so p95 still has eight to ten samples beyond it.
const TAIL_QUANTILE: f64 = 0.95;

#[derive(Clone, Copy, Debug)]
pub enum JoinWorkload {
    /// Parks × Wildfires, `st_contains`, grouped per park (hash path).
    SpatialGroupBy,
    /// NYCTaxi vendor 1 × vendor 2, `overlapping_interval` (theta path).
    IntervalCount,
    /// AmazonReview 5★ × 4★, Jaccard ≥ 0.9 (token-frequency summary).
    TextSelfJoin,
}

impl JoinWorkload {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "spatial_groupby" => Some(JoinWorkload::SpatialGroupBy),
            "interval_count" => Some(JoinWorkload::IntervalCount),
            "text_selfjoin" => Some(JoinWorkload::TextSelfJoin),
            _ => None,
        }
    }

    fn sql(self) -> &'static str {
        match self {
            JoinWorkload::SpatialGroupBy => {
                "SELECT p.id, COUNT(*) AS c FROM Parks p, Wildfires w \
                 WHERE st_contains(p.boundary, w.location) GROUP BY p.id"
            }
            JoinWorkload::IntervalCount => {
                "SELECT COUNT(*) FROM NYCTaxi n1, NYCTaxi n2 \
                 WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
                   AND overlapping_interval(n1.ride_interval, n2.ride_interval)"
            }
            JoinWorkload::TextSelfJoin => {
                "SELECT COUNT(*) FROM AmazonReview r1, AmazonReview r2 \
                 WHERE r1.overall = 5 AND r2.overall = 4 \
                   AND similarity_jaccard(r1.review, r2.review) >= 0.9"
            }
        }
    }

    fn ddl(self) -> &'static str {
        match self {
            JoinWorkload::SpatialGroupBy => {
                r#"CREATE JOIN st_contains(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#
            }
            JoinWorkload::IntervalCount => {
                r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
                   RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins"#
            }
            JoinWorkload::TextSelfJoin => {
                r#"CREATE JOIN similarity_jaccard(a: string, b: string, t: double)
                   RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#
            }
        }
    }

    fn join_name(self) -> &'static str {
        match self {
            JoinWorkload::SpatialGroupBy => "st_contains",
            JoinWorkload::IntervalCount => "overlapping_interval",
            JoinWorkload::TextSelfJoin => "similarity_jaccard",
        }
    }

    /// Grid side (spatial) or granule count (interval), passed to both
    /// the FUDJ library and the built-in operator.
    fn join_param(self) -> Option<i64> {
        match self {
            JoinWorkload::SpatialGroupBy => Some(32),
            JoinWorkload::IntervalCount => Some(64),
            JoinWorkload::TextSelfJoin => None,
        }
    }

    fn builtin(self) -> Arc<dyn EngineJoin> {
        match self {
            JoinWorkload::SpatialGroupBy => Arc::new(BuiltinSpatialJoin::new()),
            JoinWorkload::IntervalCount => Arc::new(BuiltinIntervalJoin::new()),
            JoinWorkload::TextSelfJoin => Arc::new(BuiltinTextSimJoin::new()),
        }
    }

    /// The workload's tables, generated from `seed`. Sizes put one query
    /// near 100 ms on a 2-core host.
    fn generate(self, seed: u64) -> Result<Vec<Dataset>> {
        let parts = WORKERS;
        match self {
            JoinWorkload::SpatialGroupBy => {
                // Parks:Wildfires ≈ 10:18, the paper's dataset ratio.
                let total = 20_000;
                let parks_n = total * 10 / 28;
                Ok(vec![
                    parks(GeneratorConfig::new(parks_n, derive_seed(seed, 1), parts))?,
                    wildfires(GeneratorConfig::new(
                        total - parks_n,
                        derive_seed(seed, 2),
                        parts,
                    ))?,
                ])
            }
            JoinWorkload::IntervalCount => Ok(vec![nyctaxi(GeneratorConfig::new(
                12_000,
                derive_seed(seed, 3),
                parts,
            ))?]),
            JoinWorkload::TextSelfJoin => Ok(vec![amazon_reviews(GeneratorConfig::new(
                8_000,
                derive_seed(seed, 4),
                parts,
            ))?]),
        }
    }
}

/// Wall time of each set-up step.
struct SetupTimes {
    total: Duration,
    generate: Duration,
    register: Duration,
}

/// Build one session: generate the tables, register them, `CREATE JOIN`.
fn setup(w: JoinWorkload, seed: u64, tracer: &mut Tracer) -> Result<(Session, SetupTimes)> {
    let start = Instant::now();
    tracer.open("setup", NO_STMT);
    let (datasets, generate, _) = tracer.time("datagen.generate", NO_STMT, || w.generate(seed));
    let datasets = datasets?;
    let mut session = Session::new(WORKERS);
    session.install_library(standard_library());
    let (registered, register, _) = tracer.time("storage.register", NO_STMT, || {
        datasets
            .into_iter()
            .try_for_each(|d| session.register_dataset(d).map(drop))
    });
    registered?;
    tracer
        .time("sqlish.create_join", NO_STMT, || session.execute(w.ddl()))
        .0?;
    let mut options = PlanOptions::default();
    options
        .extra_join_params
        .extend(w.join_param().map(Value::Int64));
    session.set_options(options);
    tracer.close();
    let total = start.elapsed();
    Ok((
        session,
        SetupTimes {
            total,
            generate,
            register,
        },
    ))
}

fn parse_select(sql: &str) -> Result<SelectStatement> {
    match fudj_sql::parse(sql)? {
        Statement::Select(sel) => Ok(sel),
        other => Err(FudjError::Execution(format!(
            "workload statement is not a SELECT: {other:?}"
        ))),
    }
}

/// The same query planned with the built-in operator in place of the
/// registered FUDJ (`PlanOptions::join_overrides`).
fn builtin_plan(w: JoinWorkload, session: &Session, sel: &SelectStatement) -> Result<PhysicalPlan> {
    let mut options = session.effective_options();
    options
        .join_overrides
        .insert(w.join_name().to_owned(), w.builtin());
    let logical = fudj_sql::binder::bind_select(sel, session.catalog())?;
    fudj_planner::plan(logical, session.registry(), &options)
}

fn execute(session: &Session, plan: &PhysicalPlan) -> Result<(Batch, MetricsSnapshot)> {
    session.execute_physical(plan, session.effective_options().exec_mode)
}

/// Join pairs the answer counts: the sum of its last (COUNT) column.
fn pairs_of(batch: &Batch) -> u64 {
    batch
        .rows()
        .iter()
        .filter_map(|row| match row.values().last() {
            Some(Value::Int64(n)) => u64::try_from(*n).ok(),
            _ => None,
        })
        .sum()
}

/// Exact per-query counters, in a fixed order.
const COUNTERS: &[&str] = &[
    "exec.result_rows",
    "exec.join_pairs",
    "exec.rows_shuffled",
    "exec.bytes_shuffled",
    "exec.rows_broadcast",
    "exec.bytes_broadcast",
    "exec.state_bytes",
    "exec.verify_calls",
    "exec.dedup_rejections",
    "exec.spilled_rows",
];

/// The exact counters of one query, in [`COUNTERS`] order.
fn counters_of(snap: &MetricsSnapshot, batch: &Batch) -> [u64; 10] {
    [
        batch.len() as u64,
        pairs_of(batch),
        snap.rows_shuffled,
        snap.bytes_shuffled,
        snap.rows_broadcast,
        snap.bytes_broadcast,
        snap.state_bytes,
        snap.verify_calls,
        snap.dedup_rejections,
        snap.spilled_rows,
    ]
}

/// What every execution on one instance must reproduce.
struct Expected {
    /// Digest of the built-in operator's answer.
    digest: (usize, u64),
    /// Counters of the first FUDJ execution.
    counters: [u64; 10],
}

/// One seeded instance: its session, both plans and the oracle.
struct Instance {
    session: Session,
    fudj: PhysicalPlan,
    builtin: PhysicalPlan,
    expected: Expected,
}

/// Plan the query both ways, compute the built-in answer (the oracle)
/// and run FUDJ once as warm-up, checking answer and work.
fn prepare(
    w: JoinWorkload,
    session: Session,
    sel: &SelectStatement,
    out: &mut Outcome,
) -> Result<Instance> {
    let builtin = builtin_plan(w, &session, sel)?;
    let fudj = session.plan_select(sel)?;
    let (oracle_batch, oracle_snap) = execute(&session, &builtin)?;
    let (batch, snap) = execute(&session, &fudj)?;
    out.attempted += 1;
    let expected = Expected {
        digest: digest_unordered(&oracle_batch),
        counters: counters_of(&snap, &batch),
    };
    if digest_unordered(&batch) != expected.digest {
        out.failed += 1;
        eprintln!("wrong answer on warm-up: FUDJ result differs from the built-in operator's");
    }
    check_same_work(&oracle_snap, &snap, out);
    Ok(Instance {
        session,
        fudj,
        builtin,
        expected,
    })
}

/// FUDJ and the built-in operator must do the same distributed work on
/// the same data: equal verify calls and equal bytes shuffled.
fn check_same_work(builtin: &MetricsSnapshot, fudj: &MetricsSnapshot, out: &mut Outcome) {
    if builtin.verify_calls != fudj.verify_calls || builtin.bytes_shuffled != fudj.bytes_shuffled {
        out.failed += 1;
        eprintln!(
            "FUDJ and built-in did different work: verify_calls {} vs {}, \
             bytes_shuffled {} vs {}",
            fudj.verify_calls, builtin.verify_calls, fudj.bytes_shuffled, builtin.bytes_shuffled
        );
    }
}

/// One closed-loop phase over the instances, in turn.
struct Loop {
    latencies_ms: Vec<f64>,
    /// Statements per second of each window: one statement on every
    /// instance.
    window_rates: Vec<f64>,
    window_start: Instant,
    window: usize,
    attempted: u64,
    failed: u64,
    counter_mismatches: u64,
}

impl Loop {
    fn new(window: usize) -> Self {
        Loop {
            latencies_ms: Vec::new(),
            window_rates: Vec::new(),
            window_start: Instant::now(),
            window,
            attempted: 0,
            failed: 0,
            counter_mismatches: 0,
        }
    }

    /// The median window rate: robust to a stall in part of the run.
    fn queries_per_s(&self) -> f64 {
        median(&self.window_rates)
    }

    /// Close the current window if it holds `window` statements.
    fn tick(&mut self) {
        if self.attempted.is_multiple_of(self.window as u64) {
            let now = Instant::now();
            let secs = now.duration_since(self.window_start).as_secs_f64();
            self.window_rates.push(self.window as f64 / secs);
            self.window_start = now;
        }
    }

    /// Record one statement's latency and check its answer (against the
    /// built-in answer) and counters (against the first execution); no
    /// answer means the statement failed.
    fn record(
        &mut self,
        latency: Duration,
        answer: Option<(&Batch, &MetricsSnapshot)>,
        expected: &Expected,
    ) {
        self.latencies_ms.push(ms(latency));
        self.attempted += 1;
        self.tick();
        let Some((batch, snap)) = answer else {
            self.failed += 1;
            return;
        };
        if digest_unordered(batch) != expected.digest {
            self.failed += 1;
            eprintln!("wrong answer: FUDJ result differs from the built-in operator's");
        }
        if counters_of(snap, batch) != expected.counters {
            self.counter_mismatches += 1;
        }
    }
}

/// Untraced closed loop: the client's call is `Session::execute`.
fn untraced_loop(instances: &[Instance], sql: &str, seconds: u64) -> Loop {
    let mut run = Loop::new(instances.len());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    for inst in instances.iter().cycle() {
        let t = Instant::now();
        let out = inst.session.execute(sql);
        let latency = t.elapsed();
        let answer = match &out {
            Ok(QueryOutput::Rows(batch, snap)) => Some((batch, &**snap)),
            Ok(other) => {
                eprintln!("query returned no rows: {other:?}");
                None
            }
            Err(e) => {
                eprintln!("query failed: {e}");
                None
            }
        };
        run.record(latency, answer, &inst.expected);
        if Instant::now() >= deadline && run.attempted.is_multiple_of(instances.len() as u64) {
            break;
        }
    }
    run
}

/// Per-query figures of the traced run.
struct ExecSamples {
    parse: Vec<f64>,
    plan: Vec<f64>,
    execute: Vec<f64>,
    phases: Vec<Vec<f64>>,
    unphased: Vec<f64>,
    busy_share: Vec<f64>,
    combine_skew: Vec<f64>,
}

impl ExecSamples {
    fn new() -> Self {
        ExecSamples {
            parse: Vec::new(),
            plan: Vec::new(),
            execute: Vec::new(),
            phases: vec![Vec::new(); PHASES.len()],
            unphased: Vec::new(),
            busy_share: Vec::new(),
            combine_skew: Vec::new(),
        }
    }

    fn absorb(&mut self, parse: Duration, plan: Duration, exec: Duration, snap: &MetricsSnapshot) {
        self.parse.push(us(parse));
        self.plan.push(us(plan));
        self.execute.push(ms(exec));
        let mut phased = Duration::ZERO;
        for (samples, (phase, _)) in self.phases.iter_mut().zip(PHASES) {
            let d = snap.phase_total(phase);
            phased += d;
            samples.push(ms(d));
        }
        self.unphased.push(ms(exec.saturating_sub(phased)));
        let busy: Duration = snap.per_worker.iter().map(|w| w.busy).sum();
        self.busy_share.push(share(
            busy.as_secs_f64(),
            WORKERS as f64 * exec.as_secs_f64(),
        ));
        if let Some(skew) = snap.skew_report().iter().find(|s| s.phase == "join") {
            self.combine_skew.push(skew.ratio());
        }
    }
}

/// Traced closed loop: the same statement through the layer entry points
/// `parse` → `plan_select` → `execute_physical`, each in its own span,
/// with the snapshot's phases as children of the execute span.
fn traced_loop(
    instances: &[Instance],
    sql: &str,
    seconds: u64,
    tracer: &mut Tracer,
    samples: &mut ExecSamples,
) -> Loop {
    let mut run = Loop::new(instances.len());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    for (stmt, inst) in (0u64..).zip(instances.iter().cycle()) {
        let t = Instant::now();
        tracer.open("query", stmt);
        let (sel, parse, _) = tracer.time("sqlish.parse", stmt, || parse_select(sql));
        let result = sel.and_then(|sel| {
            let (plan, plan_time, _) = tracer.time("planner.plan_select", stmt, || {
                inst.session.plan_select(&sel)
            });
            let plan = plan?;
            let (out, exec_time, span) = tracer.time("exec.execute_physical", stmt, || {
                execute(&inst.session, &plan)
            });
            let (batch, snap) = out?;
            if let Some(span) = span {
                tracer.add_children(span, "exec.", &snap.phases);
            }
            samples.absorb(parse, plan_time, exec_time, &snap);
            Ok((batch, snap))
        });
        tracer.close();
        let latency = t.elapsed();
        let answer = match &result {
            Ok((batch, snap)) => Some((batch, snap)),
            Err(e) => {
                eprintln!("query failed: {e}");
                None
            }
        };
        run.record(latency, answer, &inst.expected);
        if Instant::now() >= deadline && run.attempted.is_multiple_of(instances.len() as u64) {
            break;
        }
    }
    run
}

/// Median execute time of FUDJ and of the built-in operator over
/// alternating pairs on every instance, each pair checked for equal
/// answers and equal work.
fn udf_overhead(
    instances: &[Instance],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(f64, f64)> {
    let mut fudj_ms = Vec::new();
    let mut builtin_ms = Vec::new();
    for inst in instances
        .iter()
        .cycle()
        .take(OVERHEAD_ROUNDS * instances.len())
    {
        let (b, b_time, _) = tracer.time("core.builtin_execute", NO_STMT, || {
            execute(&inst.session, &inst.builtin)
        });
        let (f, f_time, _) = tracer.time("core.fudj_execute", NO_STMT, || {
            execute(&inst.session, &inst.fudj)
        });
        let ((b_batch, b_snap), (f_batch, f_snap)) = (b?, f?);
        out.attempted += 2;
        for batch in [&b_batch, &f_batch] {
            if digest_unordered(batch) != inst.expected.digest {
                out.failed += 1;
                eprintln!("wrong answer in the built-in/FUDJ comparison");
            }
        }
        check_same_work(&b_snap, &f_snap, out);
        builtin_ms.push(ms(b_time));
        fudj_ms.push(ms(f_time));
    }
    Ok((median(&fudj_ms), median(&builtin_ms)))
}

fn median_of(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> Duration) -> f64 {
    median(
        &setups
            .iter()
            .map(|s| f(s).as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

pub fn run(w: JoinWorkload, args: &Args) -> Result<Outcome> {
    let mut tracer = Tracer::new(args.trace);
    let sql = w.sql();
    let sel = parse_select(sql)?;
    let mut out = Outcome::default();

    let mut setups = Vec::with_capacity(INSTANCES + REBUILDS);
    let mut instances = Vec::with_capacity(INSTANCES);
    for r in 0..INSTANCES {
        let (session, times) = setup(w, derive_seed(args.seed, r as u64), &mut tracer)?;
        setups.push(times);
        instances.push(prepare(w, session, &sel, &mut out)?);
    }
    // Determinism: rebuild instance 0 from its seed in fresh sessions;
    // each first execution must reproduce its counters exactly.
    for _ in 0..REBUILDS {
        let (again, times) = setup(w, derive_seed(args.seed, 0), &mut tracer)?;
        setups.push(times);
        let (batch, snap) = execute(&again, &again.plan_select(&sel)?)?;
        if counters_of(&snap, &batch) != instances[0].expected.counters {
            out.counter_mismatches += 1;
        }
    }

    let mut totals = [0u64; 10];
    for inst in &instances {
        for (t, c) in totals.iter_mut().zip(inst.expected.counters) {
            *t += c;
        }
    }
    out.counters = COUNTERS
        .iter()
        .zip(totals)
        .map(|(name, v)| ((*name).to_owned(), v))
        .collect();
    out.note("instances", INSTANCES);
    out.note("setups", setups.len());
    for name in instances[0].session.catalog().names() {
        let rows = instances[0].session.catalog().get(&name)?.len();
        out.note(&format!("records.{name}"), rows);
    }

    let untraced = untraced_loop(&instances, sql, args.seconds);
    out.absorb_loop(
        untraced.attempted,
        untraced.failed,
        untraced.counter_mismatches,
    );
    out.note("samples.untraced", untraced.latencies_ms.len());
    out.note("tail_quantile", TAIL_QUANTILE);
    let m = &mut out.metrics;
    m.set("setup_s", median_of(&setups, |s| s.total));
    m.set("queries_per_s", untraced.queries_per_s());
    m.set("query_p50_ms", quantile(&untraced.latencies_ms, 0.5));
    m.set(
        "query_tail_ms",
        quantile(&untraced.latencies_ms, TAIL_QUANTILE),
    );

    if args.trace {
        let mut samples = ExecSamples::new();
        let traced = traced_loop(&instances, sql, args.seconds, &mut tracer, &mut samples);
        out.absorb_loop(traced.attempted, traced.failed, traced.counter_mismatches);
        out.note("samples.traced", traced.latencies_ms.len());
        let (fudj_ms, builtin_ms) = udf_overhead(&instances, &mut tracer, &mut out)?;
        out.note(
            "untraced.query_p50_ms",
            quantile(&untraced.latencies_ms, 0.5),
        );
        out.note("builtin.execute_ms", builtin_ms);
        out.note("fudj.execute_ms", fudj_ms);

        let per_query = |name: &str| {
            let i = COUNTERS
                .iter()
                .position(|c| *c == name)
                .expect("declared counter");
            totals[i] as f64 / INSTANCES as f64
        };
        let m = &mut out.metrics;
        m.set("datagen.generate_s", median_of(&setups, |s| s.generate));
        m.set("storage.register_s", median_of(&setups, |s| s.register));
        m.set("sqlish.parse_us", median(&samples.parse));
        m.set("planner.plan_us", median(&samples.plan));
        m.set("exec.execute_ms", median(&samples.execute));
        for (values, (_, metric)) in samples.phases.iter().zip(PHASES) {
            m.set(metric, median(values));
        }
        m.set("exec.unphased_ms", median(&samples.unphased));
        for name in [
            "exec.rows_shuffled",
            "exec.bytes_shuffled",
            "exec.bytes_broadcast",
            "exec.verify_calls",
            "exec.dedup_rejections",
        ] {
            m.set(name, per_query(name));
        }
        m.set(
            "exec.verify_pass_share",
            share(per_query("exec.join_pairs"), per_query("exec.verify_calls")),
        );
        m.set("exec.worker_busy_share", median(&samples.busy_share));
        m.set("exec.combine_skew", median(&samples.combine_skew));
        m.set("core.udf_overhead_ms", fudj_ms - builtin_ms);
        m.set(
            "core.udf_overhead_share",
            share(fudj_ms - builtin_ms, fudj_ms),
        );
        m.set(
            "trace.overhead_share",
            1.0 - traced.queries_per_s() / untraced.queries_per_s(),
        );
        // Layers this workload does not exercise: no WAL, no serving tier.
        m.zero_unset(crate::report::PER_LAYER);
    }
    out.tracer = tracer;
    Ok(out)
}
