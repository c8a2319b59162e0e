//! Property-based equivalence: for random workloads, worker counts, and
//! parameters, the distributed execution of every join strategy returns
//! exactly the pairs of (a) the sequential engine reference and (b) the
//! paper's standalone single-machine runner. This pins the three
//! implementations of the FUDJ semantics to one another.

use fudj_repro::core::{
    reference_execute, standalone::run_standalone, EngineJoin, FudjEngineJoin, ProxyJoin,
};
use fudj_repro::exec::{Cluster, ExecOpts, FudjJoinNode, PhysicalPlan};
use fudj_repro::geo::{Point, Polygon, Rect};
use fudj_repro::joins::{BandJoin, IntervalFudj, SpatialDedup, SpatialFudj, TextSimilarityFudj};
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::temporal::Interval;
use fudj_repro::types::{ext, DataType, ExtValue, Field, Row, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

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

/// Distributed pairs of a join over two key sets.
fn run_distributed(
    join: Arc<dyn EngineJoin>,
    left: &[Value],
    right: &[Value],
    params: Vec<Value>,
    workers: usize,
) -> Vec<(i64, i64)> {
    let plan = PhysicalPlan::FudjJoin(FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: dataset("l", left, workers),
        },
        PhysicalPlan::Scan {
            dataset: dataset("r", right, workers),
        },
        join,
        1,
        1,
        params,
    ));
    let (batch, _) = Cluster::new(workers)
        .execute(&plan, ExecOpts::default())
        .unwrap();
    let mut pairs: Vec<(i64, i64)> = batch
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Standalone-runner pairs (operates on external values).
fn run_via_standalone(
    alg: &dyn fudj_repro::core::JoinAlgorithm,
    left: &[Value],
    right: &[Value],
    params: &[Value],
) -> Vec<(i64, i64)> {
    let el: Vec<ExtValue> = left.iter().map(|v| ext::to_external(v).unwrap()).collect();
    let er: Vec<ExtValue> = right.iter().map(|v| ext::to_external(v).unwrap()).collect();
    let ep: Vec<ExtValue> = params
        .iter()
        .map(|v| ext::to_external(v).unwrap())
        .collect();
    run_standalone(alg, &el, &er, &ep)
        .unwrap()
        .into_iter()
        .map(|(i, j)| (i as i64, j as i64))
        .collect()
}

fn arb_point() -> impl Strategy<Value = Value> {
    (0.0..100.0f64, 0.0..100.0f64).prop_map(|(x, y)| Value::Point(Point::new(x, y)))
}

fn arb_poly() -> impl Strategy<Value = Value> {
    (0.0..90.0f64, 0.0..90.0f64, 0.5..12.0f64, 0.5..12.0f64)
        .prop_map(|(x, y, w, h)| Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h))))
}

fn arb_interval() -> impl Strategy<Value = Value> {
    (0i64..50_000, 0i64..3_000).prop_map(|(s, d)| Value::Interval(Interval::new(s, s + d)))
}

fn arb_text() -> impl Strategy<Value = Value> {
    prop::collection::vec(
        prop::sample::select(vec![
            "river", "peak", "camp", "view", "rock", "fern", "lake",
        ]),
        1..6,
    )
    .prop_map(|ws| Value::str(ws.join(" ")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn spatial_join_three_way_agreement(
        polys in prop::collection::vec(arb_poly(), 1..25),
        pts in prop::collection::vec(arb_point(), 1..40),
        n in 2i64..24,
        workers in 1usize..5,
        dedup in prop::sample::select(vec![
            SpatialDedup::FrameworkAvoidance,
            SpatialDedup::ReferencePoint,
            SpatialDedup::Elimination,
        ]),
    ) {
        let params = vec![Value::Int64(n)];
        let alg = Arc::new(ProxyJoin::new(SpatialFudj::with_dedup(dedup)));
        let ej: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(alg.clone()));

        let distributed = run_distributed(ej.clone(), &polys, &pts, params.clone(), workers);
        let reference: Vec<(i64, i64)> = reference_execute(ej.as_ref(), &polys, &pts, &params)
            .unwrap().into_iter().map(|(i, j)| (i as i64, j as i64)).collect();
        let standalone = run_via_standalone(alg.as_ref(), &polys, &pts, &params);

        prop_assert_eq!(&distributed, &reference);
        prop_assert_eq!(&distributed, &standalone);
    }

    #[test]
    fn interval_join_three_way_agreement(
        l in prop::collection::vec(arb_interval(), 1..30),
        r in prop::collection::vec(arb_interval(), 1..30),
        n in 1i64..200,
        workers in 1usize..5,
    ) {
        let params = vec![Value::Int64(n)];
        let alg = Arc::new(ProxyJoin::new(IntervalFudj::new()));
        let ej: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(alg.clone()));

        let distributed = run_distributed(ej.clone(), &l, &r, params.clone(), workers);
        let standalone = run_via_standalone(alg.as_ref(), &l, &r, &params);
        prop_assert_eq!(&distributed, &standalone);

        // Ground truth: brute-force interval overlap.
        let mut truth = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                if a.as_interval().unwrap().overlaps(&b.as_interval().unwrap()) {
                    truth.push((i as i64, j as i64));
                }
            }
        }
        prop_assert_eq!(&distributed, &truth);
    }

    #[test]
    fn text_join_three_way_agreement(
        l in prop::collection::vec(arb_text(), 1..20),
        r in prop::collection::vec(arb_text(), 1..20),
        t in 0.4f64..0.95,
        workers in 1usize..4,
    ) {
        let params = vec![Value::Float64(t)];
        let alg = Arc::new(ProxyJoin::new(TextSimilarityFudj::new()));
        let ej: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(alg.clone()));

        let distributed = run_distributed(ej.clone(), &l, &r, params.clone(), workers);
        let standalone = run_via_standalone(alg.as_ref(), &l, &r, &params);
        prop_assert_eq!(&distributed, &standalone);
    }

    #[test]
    fn band_join_three_way_agreement(
        l in prop::collection::vec((0.0..500.0f64).prop_map(Value::Float64), 1..30),
        r in prop::collection::vec((0.0..500.0f64).prop_map(Value::Float64), 1..30),
        eps in 0.5f64..30.0,
        workers in 1usize..4,
    ) {
        let params = vec![Value::Float64(eps)];
        let alg = Arc::new(ProxyJoin::new(BandJoin::new()));
        let ej: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(alg.clone()));

        let distributed = run_distributed(ej.clone(), &l, &r, params.clone(), workers);
        let standalone = run_via_standalone(alg.as_ref(), &l, &r, &params);
        prop_assert_eq!(&distributed, &standalone);

        let mut truth = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                if (a.as_f64().unwrap() - b.as_f64().unwrap()).abs() <= eps {
                    truth.push((i as i64, j as i64));
                }
            }
        }
        prop_assert_eq!(&distributed, &truth);
    }
}
