//! Differential: batched guarded verify (`GuardedJoin::verify_pairs`, one
//! hash per key per bucket pair) against the per-pair `verify` loop.
//!
//! For every join library, misbehavior, sample rate and policy, both runs
//! walk the same matched bucket pairs on fresh guards. They must emit the
//! same pairs, stop at the same first `FudjError`, and end with the same
//! `UdfStats`.

use fudj_core::{
    BucketId, GuardConfig, GuardedJoin, JoinAlgorithm, PPlanState, ProxyJoin, Side, UdfPolicy,
    UdfStats,
};
use fudj_geo::{Point, Polygon, Rect};
use fudj_joins::{
    poisoned, EqualityFudj, EvilJoin, EvilMode, EvilPhase, IntervalFudj, SpatialFudj,
    TextSimilarityFudj,
};
use fudj_temporal::Interval;
use fudj_types::ext::to_external;
use fudj_types::{ExtValue, FudjError, Value};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One library under test: the algorithm, both key sides and its params.
struct Fixture {
    name: &'static str,
    alg: Arc<dyn JoinAlgorithm>,
    left: Vec<ExtValue>,
    right: Vec<ExtValue>,
    params: Vec<ExtValue>,
}

fn ext(values: Vec<Value>) -> Vec<ExtValue> {
    values.iter().map(|v| to_external(v).unwrap()).collect()
}

fn fixtures() -> Vec<Fixture> {
    let mut rng = SmallRng::seed_from_u64(0x6A7D);
    let rect = |rng: &mut SmallRng, max: f64| {
        let (x, y) = (rng.gen_range(0.0..90.0), rng.gen_range(0.0..90.0));
        Rect::new(
            x,
            y,
            x + rng.gen_range(0.5..max),
            y + rng.gen_range(0.5..max),
        )
    };
    let parks: Vec<Value> = (0..40)
        .map(|_| Value::polygon(Polygon::from_rect(&rect(&mut rng, 15.0))))
        .collect();
    let fires: Vec<Value> = (0..60)
        .map(|_| {
            Value::Point(Point::new(
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
            ))
        })
        .collect();
    let mut intervals = |n: usize| -> Vec<Value> {
        (0..n)
            .map(|_| {
                let s = rng.gen_range(0i64..20_000);
                Value::Interval(Interval::new(s, s + rng.gen_range(0i64..2_000)))
            })
            .collect()
    };
    let (ivl, ivr) = (intervals(50), intervals(40));
    let vocab = ["river", "trail", "lake", "peak", "camp", "view", "rock"];
    let mut texts = |n: usize| -> Vec<Value> {
        (0..n)
            .map(|_| {
                let words: Vec<&str> = (0..rng.gen_range(2..5))
                    .map(|_| vocab[rng.gen_range(0..vocab.len())])
                    .collect();
                Value::str(words.join(" "))
            })
            .collect()
    };
    let (txl, txr) = (texts(40), texts(40));
    let longs = |xs: std::ops::Range<i64>| xs.map(|x| ExtValue::Long(x % 20)).collect();
    vec![
        Fixture {
            name: "spatial",
            alg: Arc::new(ProxyJoin::new(SpatialFudj::new())),
            left: ext(parks),
            right: ext(fires),
            params: vec![ExtValue::Long(8)],
        },
        Fixture {
            name: "interval",
            alg: Arc::new(ProxyJoin::new(IntervalFudj::new())),
            left: ext(ivl),
            right: ext(ivr),
            params: vec![ExtValue::Long(32)],
        },
        Fixture {
            name: "text",
            alg: Arc::new(ProxyJoin::new(TextSimilarityFudj::new())),
            left: ext(txl),
            right: ext(txr),
            params: vec![ExtValue::Double(0.5)],
        },
        Fixture {
            name: "equality",
            alg: Arc::new(EqualityFudj),
            left: longs(0..60),
            right: longs(7..47),
            params: vec![],
        },
    ]
}

/// The fixture's plan and matched bucket groups, computed on the unguarded
/// algorithm: `(b1, left indices, b2, right indices)` in bucket order.
type Groups = Vec<(BucketId, Vec<usize>, BucketId, Vec<usize>)>;

fn plan_and_groups(f: &Fixture) -> (PPlanState, Groups) {
    let alg = &f.alg;
    let summarize = |side: Side, keys: &[ExtValue]| {
        let mut s = alg.new_summary(side);
        for k in keys {
            alg.local_aggregate(side, k, &mut s).unwrap();
        }
        s
    };
    let pplan = alg
        .divide(
            &summarize(Side::Left, &f.left),
            &summarize(Side::Right, &f.right),
            &f.params,
        )
        .unwrap();
    let bucketize = |side: Side, keys: &[ExtValue]| {
        let mut m: BTreeMap<BucketId, Vec<usize>> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            let mut out = Vec::new();
            alg.assign(side, k, &pplan, &mut out).unwrap();
            out.sort_unstable();
            out.dedup();
            for b in out {
                m.entry(b).or_default().push(i);
            }
        }
        m
    };
    let (lb, rb) = (
        bucketize(Side::Left, &f.left),
        bucketize(Side::Right, &f.right),
    );
    let mut groups = Vec::new();
    for (&b1, ls) in &lb {
        for (&b2, rs) in &rb {
            if alg.matches(b1, b2) {
                groups.push((b1, ls.clone(), b2, rs.clone()));
            }
        }
    }
    (pplan, groups)
}

/// What one COMBINE walk observed: accepted `(left, right)` index pairs, the
/// first error (the walk stops there) and the guard's final counters.
#[derive(Debug, PartialEq)]
struct Outcome {
    pairs: Vec<(usize, usize)>,
    error: Option<FudjError>,
    stats: UdfStats,
}

fn walk(
    f: &Fixture,
    mode: EvilMode,
    config: &GuardConfig,
    pplan: &PPlanState,
    groups: &Groups,
    batched: bool,
) -> Outcome {
    let guard = GuardedJoin::new(EvilJoin::new(f.alg.clone(), mode), config.clone());
    let mut pairs = Vec::new();
    let mut error = None;
    for (b1, ls, b2, rs) in groups {
        let left: Vec<ExtValue> = ls.iter().map(|&i| f.left[i].clone()).collect();
        let right: Vec<ExtValue> = rs.iter().map(|&j| f.right[j].clone()).collect();
        let mut emit = |i: usize, j: usize| pairs.push((ls[i], rs[j]));
        let result = if batched {
            guard.verify_pairs(*b1, &left, *b2, &right, pplan, &mut emit)
        } else {
            left.iter().enumerate().try_for_each(|(i, k1)| {
                right.iter().enumerate().try_for_each(|(j, k2)| {
                    if guard.verify(*b1, k1, *b2, k2, pplan)? {
                        emit(i, j);
                    }
                    Ok(())
                })
            })
        };
        if let Err(e) = result {
            error = Some(e);
            break;
        }
    }
    Outcome {
        pairs,
        error,
        stats: guard.stats(),
    }
}

#[test]
fn batched_guarded_verify_matches_the_per_pair_loop() {
    let modes = [
        EvilMode::Tame,
        EvilMode::PanicIn(EvilPhase::Verify),
        EvilMode::AsymmetricVerify,
        EvilMode::HangIn(EvilPhase::Verify, 60_000),
    ];
    for f in fixtures() {
        let (pplan, groups) = plan_and_groups(&f);
        assert!(!groups.is_empty(), "{}: no matched bucket pairs", f.name);
        let poisoned_left = groups
            .iter()
            .any(|(_, ls, _, _)| ls.iter().any(|&i| poisoned(&f.left[i])));
        assert!(
            poisoned_left,
            "{}: fixture needs a poisoned left key",
            f.name
        );

        for mode in modes {
            for check_sample in [1, 16] {
                for policy in [UdfPolicy::FailFast, UdfPolicy::Quarantine] {
                    let mut config = GuardConfig::with_policy(policy);
                    config.limits.check_sample = check_sample;
                    let per_pair = walk(&f, mode, &config, &pplan, &groups, false);
                    let batched = walk(&f, mode, &config, &pplan, &groups, true);
                    let case = format!("{} {mode:?} sample={check_sample} {policy}", f.name);
                    assert_eq!(batched, per_pair, "{case}");

                    // Non-vacuous: injected panics and hangs always trip the
                    // guard; tame runs never do.
                    let violations = per_pair.stats.total_violations();
                    match mode {
                        EvilMode::Tame => {
                            assert_eq!(per_pair.stats, UdfStats::default(), "{case}");
                            assert!(!per_pair.pairs.is_empty(), "{case}");
                        }
                        EvilMode::PanicIn(_) | EvilMode::HangIn(..) => {
                            assert!(violations > 0, "{case}")
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

/// The symmetry probe arms only for symmetric avoidance-dedup joins; at
/// `check_sample = 1` it must catch the asymmetric verify on such a join in
/// both the batched and the per-pair walk.
#[test]
fn asymmetric_verify_is_caught_in_both_walks() {
    let f = fixtures().remove(2);
    assert_eq!(f.name, "text");
    let (pplan, groups) = plan_and_groups(&f);
    let mut config = GuardConfig::default();
    config.limits.check_sample = 1;
    for batched in [false, true] {
        let out = walk(
            &f,
            EvilMode::AsymmetricVerify,
            &config,
            &pplan,
            &groups,
            batched,
        );
        assert!(out.stats.contract_breaches > 0, "batched={batched}");
        let Some(FudjError::UdfViolation { phase, detail, .. }) = out.error else {
            panic!("batched={batched}: expected a verify violation")
        };
        assert_eq!(phase, "verify");
        assert!(detail.contains("symmetric"), "{detail}");
    }
}
