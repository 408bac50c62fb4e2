//! perfbench — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gnutella_churn --seed 42 --seconds 10 --trace 0
//! ```
//!
//! One single-threaded driver process repeats one workload for
//! `--seconds` host seconds (at least [`MIN_REPS`] times), checks every
//! repetition's outputs and `sim_digest`, and prints as its last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! untraced and traced repetitions alternate, and the metrics are the
//! per-layer ones, taken from the spans of the traced repetitions. See
//! `perfbench/README.md` for every metric.

mod args;
mod digest;
mod metrics;
mod procstat;
mod spans;
mod stats;
mod workloads;

use metrics::{Metric, END_TO_END, PER_LAYER};
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::{Rep, Workload};

/// Fewest untraced repetitions per run (medians and the digest check
/// need several).
const MIN_REPS: usize = 3;

/// Every repetition of one run.
struct Runs {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    /// Untraced repetitions with their CPU seconds.
    untraced: Vec<(Rep, f64)>,
    /// Traced repetitions; their spans are in the traced recorder.
    traced: Vec<Rep>,
}

impl Runs {
    /// Runs one repetition and files its outcome. A panic, a failed check
    /// and a digest that differs from the first repetition's each count
    /// as a failed repetition.
    fn repeat(&mut self, workload: Workload, seed: u64, spans: &mut Spans, traced: bool) {
        self.attempted += 1;
        let mark = spans.mark();
        let cpu0 = procstat::cpu_secs();
        let outcome = catch_unwind(AssertUnwindSafe(|| workload.run(seed, spans)));
        let cpu = procstat::cpu_secs().and_then(|c| Ok(c - cpu0?));
        let rep = match (outcome, cpu) {
            (Ok(Ok(rep)), Ok(cpu)) => match self.digest {
                Some(d) if d != rep.digest => Err(format!(
                    "sim_digest {:016x} differs from the first repetition's {d:016x}",
                    rep.digest
                )),
                _ => Ok((rep, cpu)),
            },
            (Ok(Ok(_)), Err(e)) => Err(format!("reading CPU time: {e}")),
            (Ok(Err(e)), _) => Err(format!("check failed: {e}")),
            (Err(_), _) => Err("repetition panicked".to_owned()),
        };
        match rep {
            Ok((rep, cpu)) => {
                self.digest = Some(rep.digest);
                if traced {
                    self.traced.push(rep);
                } else {
                    self.untraced.push((rep, cpu));
                }
            }
            Err(e) => {
                eprintln!(
                    "perfbench: {} repetition {}: {e}",
                    workload.name(),
                    self.attempted
                );
                spans.rewind(mark);
                self.failed += 1;
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    match run(args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: args::Args) -> Result<String, String> {
    let w = args.workload;
    let budget = f64::from(args.seconds);
    let mut plain = Spans::new(false);
    let mut traced = Spans::new(true);
    let mut runs = Runs {
        attempted: 0,
        failed: 0,
        digest: None,
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let min_attempts = if args.trace { 2 * MIN_REPS } else { MIN_REPS } as u64;
    while runs.attempted < min_attempts || plain.now() < budget {
        let trace_turn = args.trace && runs.attempted % 2 == 1;
        let spans = if trace_turn { &mut traced } else { &mut plain };
        runs.repeat(w, args.seed, spans, trace_turn);
    }
    let peak_rss = procstat::peak_rss_mib()?;

    println!(
        "sim_digest {} seed {}: {}",
        w.name(),
        args.seed,
        runs.digest
            .map_or("none".to_owned(), |d| format!("{d:016x}"))
    );
    let e2e = metrics::end_to_end(&runs.untraced, peak_rss);
    let works = runs.untraced.first().map_or(0, |(r, _)| r.work);
    println!(
        "end_to_end {}: {} repetitions, {works} {} each",
        w.name(),
        runs.untraced.len(),
        w.work_unit()
    );
    print_metrics("end_to_end", &END_TO_END, &e2e);
    println!(
        "end_to_end failed_share = {} ({} of {} repetitions failed)",
        runs.failed as f64 / runs.attempted as f64,
        runs.failed,
        runs.attempted
    );

    let mut correct = runs.failed == 0;
    let (list, values): (&[Metric], BTreeMap<&str, f64>) = if args.trace {
        print_timings(&traced);
        let layers = metrics::per_layer(&traced, &runs.traced, e2e["run_s"]).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            correct = false;
            BTreeMap::new()
        });
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        traced
            .write_jsonl(&out)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("spans written to {}", out.display());
        print_metrics("per_layer", &PER_LAYER, &layers);
        (&PER_LAYER, layers)
    } else {
        (&END_TO_END, e2e)
    };
    Ok(result_line(
        correct,
        runs.attempted,
        runs.failed,
        list,
        &values,
    ))
}

/// Prints `values` one per line, by name and with units.
fn print_metrics(kind: &str, list: &[Metric], values: &BTreeMap<&str, f64>) {
    for m in list {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        println!(
            "{kind} {} = {v} {} ({} is better)",
            m.name, m.unit, m.better
        );
    }
}

/// Prints every span name's durations by the percentile rule: median,
/// the highest supported tail percentile, and the sample count.
fn print_timings(spans: &Spans) {
    let mut names: Vec<&str> = spans.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let d = spans.durations(name);
        if let Some(s) = stats::summarize(&d) {
            let tail = s.tail.map_or("no tail percentile".to_owned(), |(q, v)| {
                format!("p{} = {:.3} ms", q * 100.0, v * 1e3)
            });
            println!(
                "timing {name}: n = {}, median = {:.3} ms, {tail}",
                s.n,
                s.median * 1e3
            );
        }
    }
}

/// The final JSON line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[Metric],
    values: &BTreeMap<&str, f64>,
) -> String {
    let mut metrics = String::new();
    for (i, m) in list.iter().enumerate() {
        let v = values
            .get(m.name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}
