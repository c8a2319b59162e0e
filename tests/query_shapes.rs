//! Query-shape regression tests: the exact SQL constructs the paper's
//! queries rely on, checked end-to-end against hand-computed semantics.

use fudj_repro::datagen::{parks, GeneratorConfig};
use fudj_repro::joins::standard_library;
use fudj_repro::planner::{optimize, Expr, LogicalPlan};
use fudj_repro::sql::ast::Statement;
use fudj_repro::sql::binder::bind_select;
use fudj_repro::sql::{parse, QueryOutput, Session};
use fudj_repro::textutil::{jaccard_similarity_texts, token_set};
use fudj_repro::types::Value;

fn session() -> Session {
    let s = Session::new(2);
    s.register_dataset(parks(GeneratorConfig::new(250, 301, 2)).unwrap())
        .unwrap();
    s.install_library(standard_library());
    s.execute(
        r#"CREATE JOIN jaccard_similarity(a: string, b: string, t: double)
           RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#,
    )
    .unwrap();
    s
}

/// Query 2's `dp.park_id <> p.id` conjunct must survive as a residual filter
/// above the FUDJ join, and the threshold comparison must bind as the
/// join's parameter.
#[test]
fn query2_residual_filter_and_threshold() {
    let s = session();
    let sql = "SELECT a.id, b.id AS other_id \
               FROM Parks a, Parks b \
               WHERE a.id <> b.id AND jaccard_similarity(a.tags, b.tags) >= 0.8 \
               ORDER BY a.id";
    let QueryOutput::Plan(plan) = s.execute(&format!("EXPLAIN {sql}")).unwrap() else {
        panic!()
    };
    assert!(plan.contains("FudjJoin"), "{plan}");
    assert!(
        plan.contains("Filter"),
        "residual <> filter present: {plan}"
    );

    let batch = s.query(sql).unwrap();
    assert!(!batch.is_empty());
    // Semantics: no self-pairs, every pair really ≥ 0.8, symmetric closure.
    let parks_ds = s.catalog().get("Parks").unwrap();
    let tags_of = |id: &Value| -> String {
        parks_ds
            .all_rows()
            .iter()
            .find(|r| r.get(0) == id)
            .map(|r| r.get(2).as_str().unwrap().to_owned())
            .unwrap()
    };
    for row in batch.rows() {
        assert_ne!(row.get(0), row.get(1), "self pair leaked through <>");
        let sim = jaccard_similarity_texts(&tags_of(row.get(0)), &tags_of(row.get(1)));
        assert!(sim >= 0.8, "pair below threshold: {sim}");
    }
    // ORDER BY a.id holds.
    let ids: Vec<&Value> = batch.rows().iter().map(|r| r.get(0)).collect();
    assert!(ids.windows(2).all(|w| w[0] <= w[1]));
}

/// Every qualifying pair is present (completeness against a brute-force
/// scan of the same dataset).
#[test]
fn query2_completeness() {
    let s = session();
    let batch = s
        .query(
            "SELECT a.id, b.id AS other_id FROM Parks a, Parks b \
             WHERE a.id <> b.id AND jaccard_similarity(a.tags, b.tags) >= 0.8",
        )
        .unwrap();
    let rows = s.catalog().get("Parks").unwrap().all_rows();
    let mut expected = 0usize;
    for x in &rows {
        for y in &rows {
            if x.get(0) != y.get(0) {
                let a = token_set(x.get(2).as_str().unwrap());
                let b = token_set(y.get(2).as_str().unwrap());
                if !a.is_empty() && fudj_repro::textutil::jaccard_of_sorted(&a, &b) >= 0.8 {
                    expected += 1;
                }
            }
        }
    }
    assert_eq!(batch.len(), expected);
    assert!(expected > 0, "fixture must have similar parks");
}

/// Aggregates over expressions and unaliased group keys.
#[test]
fn aggregate_over_expression() {
    let s = session();
    let batch = s
        .query(
            "SELECT COUNT(*) AS n, MIN(p.id) AS first_id, MAX(p.id) AS last_id \
             FROM Parks p",
        )
        .unwrap();
    assert_eq!(batch.len(), 1);
    let row = &batch.rows()[0];
    assert_eq!(row.get(0), &Value::Int64(250));
    assert!(row.get(1) <= row.get(2));
}

/// Multi-line statements, comments, and trailing semicolons all parse.
#[test]
fn sql_formatting_robustness() {
    let s = session();
    let batch = s
        .query(
            "SELECT p.id -- choose the key\n\
             FROM Parks p /* the dataset */\n\
             LIMIT 5 ;",
        )
        .unwrap();
    assert_eq!(batch.len(), 5);
}

/// EXPLAIN ANALYZE over the text self-join reports the dedup-relevant
/// counters.
#[test]
fn explain_analyze_text_join() {
    let s = session();
    let QueryOutput::Plan(text) = s
        .execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM Parks a, Parks b \
             WHERE jaccard_similarity(a.tags, b.tags) >= 0.9",
        )
        .unwrap()
    else {
        panic!()
    };
    assert!(text.contains("phase join:"), "{text}");
    assert!(text.contains("dedup rejections:"), "{text}");
}

/// A session holding the four tables and three FUDJ joins of the repository
/// benchmark (`fudjbench`), at a small size.
fn benchmark_session() -> Session {
    use fudj_repro::datagen::{amazon_reviews, nyctaxi, wildfires};
    let s = Session::new(2);
    for ds in [
        parks(GeneratorConfig::new(60, 11, 2)),
        wildfires(GeneratorConfig::new(120, 12, 2)),
        nyctaxi(GeneratorConfig::new(120, 13, 2)),
        amazon_reviews(GeneratorConfig::new(120, 14, 2)),
    ] {
        s.register_dataset(ds.unwrap()).unwrap();
    }
    s.install_library(standard_library());
    for ddl in [
        r#"CREATE JOIN st_contains(a: polygon, b: point)
           RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
        r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
           RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins"#,
        r#"CREATE JOIN similarity_jaccard(a: string, b: string, t: double)
           RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#,
    ] {
        s.execute(ddl).unwrap();
    }
    s
}

/// The optimized logical plan's FUDJ join node: `(join name, residual)`.
fn fudj_join_of(plan: &LogicalPlan) -> Option<(&str, Option<&Expr>)> {
    match plan {
        LogicalPlan::FudjJoin {
            join_name,
            residual,
            ..
        } => Some((join_name, residual.as_ref())),
        LogicalPlan::Scan { .. } => None,
        LogicalPlan::Join { left, right, .. } => fudj_join_of(left).or_else(|| fudj_join_of(right)),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => fudj_join_of(input),
    }
}

/// The optimized logical plan of `sql` and its EXPLAIN text.
fn plan_of(s: &Session, sql: &str) -> (LogicalPlan, String) {
    let Statement::Select(sel) = parse(sql).unwrap() else {
        panic!("not a SELECT: {sql}")
    };
    let logical = bind_select(&sel, s.catalog()).unwrap();
    let optimized = optimize(logical, s.registry(), s.options()).unwrap();
    let QueryOutput::Plan(explain) = s.execute(&format!("EXPLAIN {sql}")).unwrap() else {
        panic!("EXPLAIN returned no plan")
    };
    (optimized, explain)
}

/// Plan-shape golden for one benchmark join query: the binder's comma-join
/// `true` folds away, so the FUDJ join carries no residual and no `Filter`
/// sits above the join in EXPLAIN.
fn assert_no_residual_filter(join: &str, sql: &str) {
    let (optimized, explain) = plan_of(&benchmark_session(), sql);
    assert_eq!(
        fudj_join_of(&optimized),
        Some((join, None)),
        "{join}: {optimized:?}"
    );
    let above_join = explain.split("FudjJoin").next().unwrap();
    assert!(!above_join.contains("Filter"), "{join}: {explain}");
}

#[test]
fn spatial_groupby_plans_without_residual_filter() {
    assert_no_residual_filter(
        "st_contains",
        "SELECT p.id, COUNT(*) AS c FROM Parks p, Wildfires w \
         WHERE st_contains(p.boundary, w.location) GROUP BY p.id",
    );
}

#[test]
fn interval_count_plans_without_residual_filter() {
    assert_no_residual_filter(
        "overlapping_interval",
        "SELECT COUNT(*) FROM NYCTaxi n1, NYCTaxi n2 \
         WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
           AND overlapping_interval(n1.ride_interval, n2.ride_interval)",
    );
}

#[test]
fn text_selfjoin_plans_without_residual_filter() {
    assert_no_residual_filter(
        "similarity_jaccard",
        "SELECT COUNT(*) FROM AmazonReview r1, AmazonReview r2 \
         WHERE r1.overall = 5 AND r2.overall = 4 \
           AND similarity_jaccard(r1.review, r2.review) >= 0.9",
    );
}

/// Folding the seeded `true` must not fold real conjuncts: a cross-table
/// predicate next to the FUDJ call stays the join's residual, and the
/// query's rows still honour it.
#[test]
fn cross_table_conjunct_stays_the_fudj_residual() {
    let s = benchmark_session();
    let sql = "SELECT n1.id, n2.id FROM NYCTaxi n1, NYCTaxi n2 \
               WHERE overlapping_interval(n1.ride_interval, n2.ride_interval) \
                 AND n1.id < n2.id";
    let (optimized, _) = plan_of(&s, sql);
    let (join, residual) = fudj_join_of(&optimized).expect("a FUDJ join");
    assert_eq!(join, "overlapping_interval");
    let residual = residual.expect("the cross-table conjunct is the residual");
    assert_eq!(
        residual
            .referenced_columns()
            .into_iter()
            .collect::<Vec<_>>(),
        ["n1.id", "n2.id"],
        "{residual:?}"
    );

    let kept = s.query(sql).unwrap();
    let all = s
        .query(
            "SELECT n1.id, n2.id FROM NYCTaxi n1, NYCTaxi n2 \
             WHERE overlapping_interval(n1.ride_interval, n2.ride_interval)",
        )
        .unwrap();
    assert!(!kept.is_empty());
    assert!(kept.len() < all.len(), "the residual filtered nothing");
    for row in kept.rows() {
        assert!(row.get(0) < row.get(1), "{row:?}");
    }
}
