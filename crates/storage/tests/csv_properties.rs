//! Property test: CSV export → import is lossless for every supported type.

use fudj_geo::{Point, Polygon};
use fudj_storage::{read_csv, write_csv, DatasetBuilder};
use fudj_temporal::Interval;
use fudj_types::{DataType, Field, Row, Schema, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// One row covering all nine CSV-supported types, with independent
/// nullability per column (except the primary key).
fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    let strings = prop::sample::select(vec![
        "plain",
        "with, comma",
        "say \"hi\"",
        "mixed, \"both\" éß",
        "",
    ]);
    (
        any::<i64>(),                                                                // id
        prop::option::of(any::<i64>()),                                              // bigint
        prop::option::of(-1e12f64..1e12),                                            // double
        prop::option::of(any::<bool>()),                                             // bool
        prop::option::of(strings),                                                   // string
        prop::option::of(any::<u128>()),                                             // uuid
        prop::option::of(any::<i64>()),                                              // datetime
        prop::option::of((any::<i32>(), 0i32..1_000_000)),                           // interval
        prop::option::of((-1e6f64..1e6, -1e6f64..1e6)),                              // point
        prop::option::of(prop::collection::vec((-1e5f64..1e5, -1e5f64..1e5), 3..8)), // polygon
    )
        .prop_map(|(id, i, f, b, s, u, dt, iv, pt, poly)| {
            fn opt<T>(o: Option<T>, f: impl FnOnce(T) -> Value) -> Value {
                o.map(f).unwrap_or(Value::Null)
            }
            vec![
                Value::Int64(id),
                opt(i, Value::Int64),
                opt(f, Value::Float64),
                opt(b, Value::Bool),
                opt(s, Value::str),
                opt(u, Value::Uuid),
                opt(dt, Value::DateTime),
                opt(iv, |(st, d)| {
                    Value::Interval(Interval::new(st as i64, st as i64 + d as i64))
                }),
                opt(pt, |(x, y)| Value::Point(Point::new(x, y))),
                opt(poly, |pts| {
                    Value::polygon(Polygon::new(
                        pts.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
                    ))
                }),
            ]
        })
}

fn schema() -> fudj_types::SchemaRef {
    Schema::shared(vec![
        Field::new("id", DataType::Int64),
        Field::new("c_int", DataType::Int64),
        Field::new("c_float", DataType::Float64),
        Field::new("c_bool", DataType::Bool),
        Field::new("c_str", DataType::String),
        Field::new("c_uuid", DataType::Uuid),
        Field::new("c_dt", DataType::DateTime),
        Field::new("c_iv", DataType::Interval),
        Field::new("c_pt", DataType::Point),
        Field::new("c_poly", DataType::Polygon),
    ])
}

/// A fresh temp directory for one case. The process id and a per-process
/// counter make it unique even when two cases draw the same `case_id`.
fn case_dir(case_id: u64) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fudj-csv-prop-{}-{}-{case_id:x}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir(&dir).unwrap();
    dir
}

/// Write `rows` to CSV, read them back, and demand the same multiset.
fn assert_roundtrip(rows: &[Vec<Value>], case_id: u64) {
    let schema = schema();
    let d = DatasetBuilder::new("t", schema.clone())
        .partitions(3)
        .build()
        .unwrap();
    for r in rows {
        d.insert(Row::new(r.clone())).unwrap();
    }

    let dir = case_dir(case_id);
    let path = dir.join("t.csv");
    write_csv(&d, &path).unwrap();
    let back = read_csv(&path, "t2", schema, "id", 2).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let mut a = d.all_rows();
    let mut b = back.all_rows();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn csv_roundtrip_is_lossless(
        rows in prop::collection::vec(arb_row(), 1..16),
        case_id in any::<u64>(),
    ) {
        assert_roundtrip(&rows, case_id);
    }
}

/// A case upstream proptest once shrank to: an empty string beside
/// NULLs must not read back as NULL.
#[test]
fn csv_roundtrip_keeps_an_empty_string_among_nulls() {
    let mut row = vec![Value::Null; 10];
    row[0] = Value::Int64(-78);
    row[1] = Value::Int64(-6735932189210908046);
    row[4] = Value::str("");
    assert_roundtrip(&[row], 9283213316396028420);
}
