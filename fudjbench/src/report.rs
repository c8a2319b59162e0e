//! The metric table (declared once; `BENCHMARK.json` lists the same
//! names and units), summary statistics, and JSON output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One declared metric: its name, unit, which direction is better and,
/// for a per-layer metric, the end-to-end metric (and workload) it is
/// expected to move.
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn decl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        moves,
    }
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";
const SERVE_TAIL: &str = "query_tail_ms on serve_durable; no move on the join workloads (<0.1%)";
const STORAGE: &str =
    "queries_per_s and query_tail_ms on serve_durable; no move elsewhere (no WAL)";
const SETUP: &str = "setup_s on all workloads";
const JOURNAL: &str = "queries_per_s on serve_durable with the query journal on \
     (measured on journal-on episodes of the traced run)";

/// End-to-end metrics, reported with tracing off. `query_tail_ms` is the
/// workload's tail quantile of per-statement wall time: p95 on the join
/// workloads, p98 on `serve_durable` (see each module's
/// `TAIL_QUANTILE`).
pub const END_TO_END: &[MetricDecl] = &[
    decl("setup_s", "s", LOWER, ""),
    decl("queries_per_s", "1/s", HIGHER, ""),
    decl("query_p50_ms", "ms", LOWER, ""),
    decl("query_tail_ms", "ms", LOWER, ""),
    decl("peak_rss_mb", "MB", LOWER, ""),
];

/// Per-layer metrics, reported by the traced run. A metric that a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDecl] = &[
    decl("datagen.generate_s", "s", LOWER, SETUP),
    decl("storage.register_s", "s", LOWER, SETUP),
    decl("storage.wal_open_s", "s", LOWER, SETUP),
    decl("sqlish.parse_us", "us", LOWER, SERVE_TAIL),
    decl("planner.plan_us", "us", LOWER, SERVE_TAIL),
    decl(
        "exec.execute_ms",
        "ms",
        LOWER,
        "query_p50_ms on the join workloads",
    ),
    decl(
        "exec.summarize_ms",
        "ms",
        LOWER,
        "query_p50_ms on text_selfjoin",
    ),
    decl(
        "exec.divide_ms",
        "ms",
        LOWER,
        "query_p50_ms on text_selfjoin",
    ),
    decl(
        "exec.partition_ms",
        "ms",
        LOWER,
        "query_p50_ms on spatial_groupby and text_selfjoin",
    ),
    decl(
        "exec.combine_ms",
        "ms",
        LOWER,
        "query_p50_ms on interval_count",
    ),
    decl(
        "exec.dedup_ms",
        "ms",
        LOWER,
        "query_p50_ms on the join workloads",
    ),
    decl(
        "exec.unphased_ms",
        "ms",
        LOWER,
        "query_p50_ms on spatial_groupby",
    ),
    decl(
        "exec.rows_shuffled",
        "count",
        LOWER,
        "query_p50_ms on spatial_groupby",
    ),
    decl(
        "exec.bytes_shuffled",
        "bytes",
        LOWER,
        "query_p50_ms and peak_rss_mb on spatial_groupby",
    ),
    decl(
        "exec.bytes_broadcast",
        "bytes",
        LOWER,
        "query_p50_ms on interval_count",
    ),
    decl(
        "exec.verify_calls",
        "count",
        LOWER,
        "query_p50_ms on the join workloads",
    ),
    decl(
        "exec.dedup_rejections",
        "count",
        LOWER,
        "query_p50_ms on spatial_groupby",
    ),
    decl(
        "exec.verify_pass_share",
        "share",
        HIGHER,
        "query_p50_ms on the join workloads",
    ),
    decl(
        "exec.worker_busy_share",
        "share",
        HIGHER,
        "query_tail_ms on the join workloads",
    ),
    decl(
        "exec.combine_skew",
        "ratio",
        LOWER,
        "query_tail_ms on the join workloads",
    ),
    decl(
        "core.udf_overhead_ms",
        "ms",
        LOWER,
        "query_p50_ms on interval_count and spatial_groupby",
    ),
    decl(
        "core.udf_overhead_share",
        "share",
        LOWER,
        "query_p50_ms on interval_count and spatial_groupby",
    ),
    decl(
        "serve.result_hit_share",
        "share",
        HIGHER,
        "query_p50_ms and queries_per_s on serve_durable",
    ),
    decl(
        "serve.plan_hit_share",
        "share",
        HIGHER,
        "query_p50_ms and queries_per_s on serve_durable",
    ),
    decl(
        "serve.invalidations",
        "count",
        LOWER,
        "query_p50_ms and queries_per_s on serve_durable",
    ),
    decl(
        "serve.hit_us",
        "us",
        LOWER,
        "query_p50_ms and queries_per_s on serve_durable",
    ),
    decl(
        "serve.miss_ms",
        "ms",
        LOWER,
        "query_p50_ms and queries_per_s on serve_durable",
    ),
    decl(
        "serve.wall_p99_ms",
        "ms",
        LOWER,
        "none; the tail of serve_durable's wall-clock latency",
    ),
    decl(
        "serve.sim_p50_ms",
        "ms",
        LOWER,
        "none; simulated-clock latency beside wall-clock",
    ),
    decl(
        "serve.sim_p99_ms",
        "ms",
        LOWER,
        "none; simulated-clock latency beside wall-clock",
    ),
    decl(
        "sched.admissions",
        "count",
        LOWER,
        "serve.wall_p99_ms on serve_durable",
    ),
    decl(
        "sched.rejections",
        "count",
        LOWER,
        "serve.wall_p99_ms on serve_durable",
    ),
    decl(
        "sched.queue_depth_high_water",
        "count",
        LOWER,
        "serve.wall_p99_ms on serve_durable",
    ),
    decl("storage.insert_us", "us", LOWER, STORAGE),
    decl("storage.wal_records_per_stmt", "count", LOWER, STORAGE),
    decl("storage.wal_bytes_per_stmt", "bytes", LOWER, STORAGE),
    decl("storage.fsyncs_per_stmt", "count", LOWER, STORAGE),
    decl("storage.journal_records_per_stmt", "count", LOWER, JOURNAL),
    decl("storage.checkpoint_bytes_per_stmt", "bytes", LOWER, JOURNAL),
    decl("storage.journal_qps_share", "share", HIGHER, JOURNAL),
    decl(
        "trace.overhead_share",
        "share",
        LOWER,
        "none; it bounds the trace's error",
    ),
];

/// Metric values collected by one run, checked against the table.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name);
        assert!(known, "metric {name} is not declared in the metric table");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Set every metric of `table` not measured yet to 0: the layers a
    /// workload does not exercise.
    pub fn zero_unset(&mut self, table: &[MetricDecl]) {
        for m in table {
            self.0.entry(m.name).or_insert(0.0);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `"metrics"` JSON object for `table`; every declared metric
    /// must have been set.
    pub fn json(&self, table: &[MetricDecl]) -> String {
        let mut out = String::from("{");
        for (i, MetricDecl { name, unit, .. }) in table.iter().enumerate() {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never measured"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Quantile `q` of `values` by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, 0 when the denominator is 0.
pub fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics, with the same units and directions.
    #[test]
    fn manifest_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = manifest.matches("\"name\"").count();
        let workloads = manifest.matches("\"why\"").count();
        assert_eq!(listed - workloads, END_TO_END.len() + PER_LAYER.len());
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
