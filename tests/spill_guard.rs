//! Spill-file hygiene under failure: a join that dies mid-spill (a UDF
//! violation under the fail-fast guard policy) must leave no
//! `fudj-spill-*` litter in the temp directory. The RAII guards inside
//! the hybrid-hash COMBINE own every file from the moment it is created,
//! so cleanup holds on *every* error path, not just the happy one.
//!
//! This suite deliberately lives in its own test binary: spill file
//! names embed the process id, so scanning the temp dir filtered by this
//! process's pid cannot race with spill files created by other
//! concurrently running test binaries.

use fudj_repro::core::{
    EngineJoin, FudjEngineJoin, GuardConfig, GuardedJoin, JoinAlgorithm, UdfPolicy,
};
use fudj_repro::exec::{Cluster, ExecOpts, FudjJoinNode, PhysicalPlan};
use fudj_repro::joins::evil::{EqualityFudj, EvilJoin, EvilMode, EvilPhase};
use fudj_repro::joins::poisoned;
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::types::{ext, DataType, Field, FudjError, Row, Schema, Value};
use std::sync::{Arc, Mutex, MutexGuard};

const WORKERS: usize = 3;

/// Both tests scan the temp dir for this process's spill files, so one
/// must not scan while the other has spill files live: they run one at a
/// time.
static TEMP_DIR_SCAN: Mutex<()> = Mutex::new(());

fn exclusive_temp_dir() -> MutexGuard<'static, ()> {
    // A failed assertion in the other test poisons the lock; the guarded
    // state is empty, so keep going.
    TEMP_DIR_SCAN.lock().unwrap_or_else(|e| e.into_inner())
}
const BUDGET: usize = 16;

/// Spill files created by *this* process and still present on disk.
fn spill_litter() -> Vec<String> {
    let prefix = format!("fudj-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir must be listable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

fn keys() -> Vec<Value> {
    // Repeating longs: plenty of equality matches, and (by construction
    // of the evil fixtures) roughly one key in eight is poisoned.
    (0..240).map(|v: i64| Value::Int64(v % 60)).collect()
}

fn dataset(name: &str, keys: &[Value]) -> Arc<fudj_repro::storage::Dataset> {
    let schema = Schema::shared(vec![
        Field::new("id", DataType::Int64),
        Field::new("k", DataType::Int64),
    ]);
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

/// An equality-join plan over-budget enough to spill, with the inner
/// algorithm misbehaving per `mode` under the fail-fast guard.
fn spilling_plan(mode: EvilMode, tag: &str) -> PhysicalPlan {
    let evil: Arc<dyn JoinAlgorithm> = Arc::new(EvilJoin::new(Arc::new(EqualityFudj), mode));
    let engine: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(Arc::new(GuardedJoin::new(
        evil,
        GuardConfig::with_policy(UdfPolicy::FailFast),
    ))));
    let ks = keys();
    let mut node = FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: dataset(&format!("l_{tag}"), &ks),
        },
        PhysicalPlan::Scan {
            dataset: dataset(&format!("r_{tag}"), &ks),
        },
        engine,
        1,
        1,
        vec![],
    );
    node.memory_budget_rows = Some(BUDGET);
    PhysicalPlan::FudjJoin(node)
}

/// Regression for the leak: an injected UDF violation in `verify` —
/// i.e. in the middle of the spilling COMBINE, while sub-partition files
/// are live on disk — must fail the query *and* leave the temp dir clean.
#[test]
fn failfast_violation_mid_spill_leaves_no_litter() {
    let _scan = exclusive_temp_dir();
    // The workload must contain poisoned keys, or the evil join never
    // fires and the test proves nothing.
    assert!(
        keys()
            .iter()
            .any(|k| poisoned(&ext::to_external(k).unwrap())),
        "fixture drifted: no poisoned keys in the workload"
    );

    // Control: the same plan with a well-behaved inner join both spills
    // and cleans up after itself — so the evil run below really does die
    // while spill files exist.
    let cluster = Cluster::new(WORKERS);
    let (batch, metrics) = cluster
        .execute(&spilling_plan(EvilMode::Tame, "tame"), ExecOpts::default())
        .unwrap();
    assert!(!batch.is_empty());
    let snap = metrics.snapshot();
    assert!(
        snap.spilled_rows > 0,
        "budget {BUDGET} must spill: {snap:?}"
    );
    assert_eq!(spill_litter(), Vec::<String>::new());

    // The actual regression: panic inside `verify` on poisoned keys.
    let err = match cluster.execute(
        &spilling_plan(EvilMode::PanicIn(EvilPhase::Verify), "verify"),
        ExecOpts::default(),
    ) {
        Ok(_) => panic!("fail-fast must surface the verify violation"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, FudjError::UdfViolation { phase, .. } if phase == "verify"),
        "unexpected error: {err:?}"
    );
    assert_eq!(
        spill_litter(),
        Vec::<String>::new(),
        "mid-spill failure leaked spill files"
    );
}

/// The same guarantee on a second, earlier failure point: a violation in
/// `assign` aborts the COMBINE while write buffers are still streaming.
#[test]
fn failfast_assign_violation_also_leaves_no_litter() {
    let _scan = exclusive_temp_dir();
    let cluster = Cluster::new(WORKERS);
    let err = match cluster.execute(
        &spilling_plan(EvilMode::PanicIn(EvilPhase::Assign), "assign"),
        ExecOpts::default(),
    ) {
        Ok(_) => panic!("fail-fast must surface the assign violation"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, FudjError::UdfViolation { phase, .. } if phase == "assign"),
        "unexpected error: {err:?}"
    );
    assert_eq!(
        spill_litter(),
        Vec::<String>::new(),
        "assign failure leaked spill files"
    );
}
