//! The repository's benchmark: four closed-loop workloads over a 2-worker
//! session, end-to-end metrics with tracing off, per-layer metrics from a
//! separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path fudjbench/Cargo.toml -- \
//!     --workload <spatial_groupby|interval_count|text_selfjoin|serve_durable> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`; with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Every run also writes, under `.bench_out/`, a result
//! file with provenance and sample counts, the exact per-seed counter
//! record, and (traced runs) Chrome trace-event JSON plus a self-time
//! table. The exit code is 0 only when every answer was correct and the
//! counters repeated exactly.

mod joins;
mod report;
mod serving;
mod trace;

use report::{json_str, Metrics, END_TO_END, PER_LAYER};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Display;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Workers per session. The client blocks while they run, so at most two
/// threads are runnable: sized for a 2-core host.
pub const WORKERS: usize = 2;

/// Where runs leave their records, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Exact counts from one seed, in a fixed order: (name, value).
pub type Counters = Vec<(String, u64)>;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one workload run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    /// Statements that errored or returned a wrong answer.
    pub failed: u64,
    /// Re-derivations of the seed's counters that did not match.
    pub counter_mismatches: u64,
    pub metrics: Metrics,
    /// The seed's exact counters (same on every run of the seed).
    pub counters: Counters,
    /// Provenance and sample counts.
    pub notes: Vec<(String, String)>,
    pub tracer: Tracer,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            counter_mismatches: 0,
            metrics: Metrics::default(),
            counters: Vec::new(),
            notes: Vec::new(),
            tracer: Tracer::new(false),
        }
    }
}

impl Outcome {
    pub fn note(&mut self, name: &str, value: impl Display) {
        self.notes.push((name.to_owned(), value.to_string()));
    }

    pub fn absorb_loop(&mut self, attempted: u64, failed: u64, counter_mismatches: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.counter_mismatches += counter_mismatches;
    }
}

/// A sub-seed for input `stream` of the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64()
}

/// splitmix64: a small seeded generator for the benchmark's own draws.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn row_hash(row: &fudj_types::Row) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

/// Order-independent digest of a result: (rows, wrapping sum of row
/// hashes). For answers whose row order the query leaves open.
pub fn digest_unordered(batch: &fudj_types::Batch) -> (usize, u64) {
    let sum = batch
        .rows()
        .iter()
        .fold(0u64, |acc, row| acc.wrapping_add(row_hash(row)));
    (batch.len(), sum)
}

/// Order-sensitive digest of a result.
pub fn digest_ordered(batch: &fudj_types::Batch) -> u64 {
    let mut h = DefaultHasher::new();
    batch.rows().hash(&mut h);
    h.finish()
}

/// The commit being measured, read from `.git` when the working
/// directory is a clone; `unknown` otherwise.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    read(".git/HEAD")
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_owned))
            }),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Identity of this build of the benchmark: a seed's counter record is
/// compared only against records from the same executable.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Write the seed's counter record, or compare it with the record an
/// earlier run of the same seed and build left. Returns whether they
/// agree.
fn check_counter_record(dir: &Path, args: &Args, counters: &Counters) -> std::io::Result<bool> {
    let path = dir.join(format!("{}-seed{}.counters", args.workload, args.seed));
    let mut text = format!("build {}\n", build_id());
    for (name, value) in counters {
        text.push_str(&format!("{name} {value}\n"));
    }
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous.lines().next() == text.lines().next() => Ok(previous == text),
        _ => std::fs::write(&path, text).map(|()| true),
    }
}

/// Provenance, sample counts, every metric measured and the counters,
/// as one JSON object.
fn result_json(args: &Args, out: &Outcome, correct: bool) -> String {
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("workers".into(), WORKERS.to_string()),
        (
            "profile".into(),
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit".into(), json_str(&git_commit())),
        ("correct".into(), correct.to_string()),
        ("attempted".into(), out.attempted.to_string()),
        ("failed".into(), out.failed.to_string()),
        (
            "failed_share".into(),
            report::share(out.failed as f64, out.attempted as f64).to_string(),
        ),
        (
            "counter_mismatches".into(),
            out.counter_mismatches.to_string(),
        ),
    ];
    for (name, value) in &out.notes {
        let value = if value.parse::<f64>().is_ok() {
            value.clone()
        } else {
            json_str(value)
        };
        fields.push((name.clone(), value));
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    fields.push(("metrics".into(), out.metrics.json(table)));
    let moves: Vec<String> = table
        .iter()
        .filter(|m| !m.moves.is_empty())
        .map(|m| format!("{}: {}", json_str(m.name), json_str(m.moves)))
        .collect();
    fields.push(("moves".into(), format!("{{{}}}", moves.join(", "))));
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(n, v)| format!("{}: {v}", json_str(n)))
        .collect();
    fields.push(("counters".into(), format!("{{{}}}", counters.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {v}", json_str(k)))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

fn write_outputs(args: &Args, out: &Outcome, correct: bool) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir)?;
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        dir.join(format!("{tag}.result.json")),
        result_json(args, out, correct),
    )?;
    if args.trace {
        std::fs::write(
            dir.join(format!("{tag}.trace.json")),
            out.tracer.chrome_json(),
        )?;
        std::fs::write(
            dir.join(format!("{tag}.selftime.txt")),
            out.tracer.self_time_table(),
        )?;
    }
    Ok(dir)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "fudjbench: {e}\nusage: fudjbench --workload <name> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve_durable" => serving::run(&args),
        name => match joins::JoinWorkload::from_name(name) {
            Some(w) => joins::run(w, &args),
            None => {
                eprintln!(
                    "fudjbench: unknown workload {name:?} (expected spatial_groupby, \
                     interval_count, text_selfjoin or serve_durable)"
                );
                return ExitCode::from(2);
            }
        },
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fudjbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let end_to_end = !args.trace;
    if end_to_end {
        out.metrics.set("peak_rss_mb", report::peak_rss_mb());
    }
    let dir = PathBuf::from(OUT_DIR);
    let _ = std::fs::create_dir_all(&dir);
    match check_counter_record(&dir, &args, &out.counters) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("counters differ from an earlier run of this seed and build");
            out.counter_mismatches += 1;
        }
        Err(e) => eprintln!("could not write the counter record: {e}"),
    }
    if out.counter_mismatches > 0 {
        eprintln!(
            "{} re-derivation(s) of the seed's counters did not repeat exactly",
            out.counter_mismatches
        );
    }
    let correct = out.failed == 0 && out.counter_mismatches == 0 && out.attempted > 0;
    match write_outputs(&args, &out, correct) {
        Ok(dir) => eprintln!("records written under {}", dir.display()),
        Err(e) => eprintln!("could not write records: {e}"),
    }
    if args.trace {
        eprint!("{}", out.tracer.self_time_table());
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.json(table)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
