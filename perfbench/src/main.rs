//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search|dashboard|ingest_live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Human-readable lines go first; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones).

use std::path::Path;
use std::time::Instant;

use citegen::{generate, DatasetProfile};
use perfbench::stats::reference_loop_ms;
use perfbench::trace::{self_time_by_layer, Tracer};
use perfbench::workload::{Facts, METHODS};
use rankengine::CostModel;

mod client;
mod run;
mod writer;

use run::{run_pass, Metric, PassConfig, Workload};

/// Corpus size: the DBLP profile at 200k papers.
const CORPUS_PAPERS: usize = 200_000;
/// The corpus is fixed; the workload seed drives only the streams.
const CORPUS_SEED: u64 = 7;
/// Edge count of the fixed corpus, for the report.
const CORPUS_EDGES: usize = 2_037_642;
/// Scratch space for WALs, snapshot stores and span dumps, relative to
/// the repository root.
const WORK_DIR: &str = "perfbench/work";

struct Args {
    pass: PassConfig,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        pass: PassConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        },
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("perfbench: {title}");
    for m in metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <search|dashboard|ingest_live> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let work_dir = Path::new(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(work_dir) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e} (run from the repository root)");
        std::process::exit(2);
    }
    // `QueryEngine::new` re-fits its planner cost model from a bench
    // report in the working directory when one exists. Point it at a
    // file that does not exist, and pin the baked model explicitly on
    // every engine (see `run::build_engines`), so plans depend on neither
    // the directory nor a re-recorded report.
    std::env::set_var(
        "BENCH_BASELINE_PATH",
        work_dir.join("no-such-bench-report.json"),
    );
    println!(
        "perfbench: planner cost model pinned to CostModel::default() = {:?}",
        CostModel::default()
    );

    let t0 = Instant::now();
    let profile = DatasetProfile::dblp().scaled(CORPUS_PAPERS);
    let corpus = generate(&profile, CORPUS_SEED);
    let facts = Facts::of(&corpus, &profile);
    println!(
        "perfbench: corpus DBLP profile, seed {CORPUS_SEED}: {} papers, {} edges \
         (expected {CORPUS_EDGES}), {} venues, years {}..{}, generated in {:.2} s; methods {}",
        corpus.n_papers(),
        corpus.n_citations(),
        facts.venues_by_size.len(),
        facts.first_year,
        facts.current_year,
        t0.elapsed().as_secs_f64(),
        METHODS.join(", ")
    );
    println!(
        "perfbench: workload {} seed {} for {} s, trace {}; available parallelism {}",
        args.pass.workload.name(),
        args.pass.seed,
        args.pass.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let reference_start = reference_loop_ms();
    let (metrics, attempted, failed) = if args.trace {
        // Untraced and traced halves of the same workload: the traced
        // half gives the per-layer metrics, the difference the overhead.
        let half = PassConfig {
            seconds: args.pass.seconds / 2.0,
            ..args.pass
        };
        let plain = run_pass(&corpus, &facts, half, &Tracer::new(false), work_dir);
        let tracer = Tracer::new(true);
        let traced = run_pass(&corpus, &facts, half, &tracer, work_dir);
        let dump = work_dir.join(format!(
            "trace-{}-s{}.jsonl",
            args.pass.workload.name(),
            args.pass.seed
        ));
        match tracer.write_jsonl(&dump) {
            Ok(()) => println!(
                "perfbench: {} spans written to {}",
                traced.spans.len(),
                dump.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", dump.display()),
        }
        let self_ns = self_time_by_layer(&traced.spans);
        let total: u64 = self_ns.values().sum();
        println!("perfbench: self time per layer (traced half)");
        for (layer, ns) in &self_ns {
            println!(
                "  {:<12} {:>12.3} ms {:>6.1}%",
                layer,
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        println!("perfbench: tracing overhead per end-to-end metric (traced - untraced)");
        for (p, t) in plain.e2e.iter().zip(&traced.e2e) {
            println!(
                "  {:<24} {:>14.4} -> {:>14.4} {:<4} diff {:>+12.4} ({:+.1}%)",
                p.name,
                p.value,
                t.value,
                p.unit,
                t.value - p.value,
                100.0 * (t.value - p.value) / p.value.abs().max(f64::MIN_POSITIVE)
            );
        }
        print_metrics("per-layer metrics", &traced.layers);
        (
            traced.layers,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
        )
    } else {
        let pass = run_pass(&corpus, &facts, args.pass, &Tracer::new(false), work_dir);
        print_metrics("end-to-end metrics", &pass.e2e);
        (pass.e2e, pass.attempted, pass.failed)
    };
    println!(
        "perfbench: reference loop {reference_start:.1} ms before the run, {:.1} ms after",
        reference_loop_ms()
    );
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    println!(
        "perfbench: failed_ratio {failed_ratio} ({failed} failed of {attempted} attempted operations)"
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        json_metrics(&metrics)
    );
}
