//! `parbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path parbench/Cargo.toml -- \
//!     --workload <scaled-suite-cold|genprog-disk> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload for `--seconds` and prints
//! the end-to-end metrics; with `--trace 1` it runs the traced pass and
//! prints the per-layer metrics. Either way it checks every output it
//! produced and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! Any other first argument is handed to the `parpat` command line, so
//! the benchmark can time `parpat batch` as a child process (and sharded
//! batches can re-execute it as their worker binary).

mod batch;
mod common;
mod edits;
mod layers;
mod memfs;
mod report;
mod scale;
mod serve;
mod stats;
mod trace;
mod tracefs;

use common::{Ctx, Metrics, Tally};

const WORKLOADS: [&str; 2] = ["scaled-suite-cold", "genprog-disk"];

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload `{value}`; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or(1);
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let dir = cwd.join(".parbench-run").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        jobs,
        dir,
    })
}

fn run(ctx: &Ctx) -> (Tally, Metrics) {
    let wl = if ctx.workload == "scaled-suite-cold" {
        batch::scaled_suite(ctx.seed, ctx.jobs)
    } else {
        batch::genprog_corpus(ctx.seed)
    };
    if !ctx.trace {
        return batch::timed(ctx, &wl);
    }
    let mut out = report::Traced::default();
    let mut tally = batch::traced(ctx, &wl, &mut out);
    report::trace_sweep(&wl.inputs, &mut out);
    out.serve = serve::probe(ctx, &mut tally);
    (tally, report::finish(ctx, &out))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| !a.starts_with("--")) {
        // The `parpat` command line, exactly as its own binary runs it.
        match parpat::cli::run(&args) {
            Ok(out) if out.ends_with('\n') => print!("{out}"),
            Ok(out) => println!("{out}"),
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(1);
            }
        }
        return;
    }
    let ctx = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("parbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# parbench {} seed {} seconds {} trace {} on {} cores",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8, ctx.jobs
    );
    let (tally, metrics) = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.dir);
    for (name, value, unit) in &metrics.0 {
        println!("# {name:<40} {value:>14.6} {unit}");
    }
    println!(
        "# failed_ratio {}/{} = {:.6}",
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for r in &tally.reasons {
        println!("# FAILED {r}");
    }
    println!("{}", common::result_line(&tally, &metrics));
}
