//! The repository's one benchmark. See `benchmark/README.md`.
//!
//! Driver contract: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). Without `--workload` it runs everything
//! (`--reps`, `--quick`, `--check-repeat`).

mod client;
mod full;
mod gen;
mod harness;
mod ingest;
mod mixed;
mod pace;
mod proc;
mod replay;
mod report;
mod run;
mod serve;
mod stats;
mod sut;
mod trace;

use std::process::ExitCode;
use std::sync::OnceLock;

static QUICK: OnceLock<f64> = OnceLock::new();

/// 1 normally; 0.25 under `--quick`, which shrinks every workload's
/// volume or duration to a smoke test (its output is stamped and never
/// compared).
pub fn quick_factor() -> f64 {
    *QUICK.get().unwrap_or(&1.0)
}

/// `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    quick: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: RUN_SECONDS,
        trace: false,
        reps: 3,
        quick: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => a.seconds = value("a number")?.parse().map_err(|_| "--seconds: not a number")?,
            "--reps" => a.reps = value("a number")?.parse().map_err(|_| "--reps: not a number")?,
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: want 0 or 1, got {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--check-repeat" => a.check_repeat = true,
            other => {
                return Err(format!(
                    "unknown flag {other:?}\nusage: [--workload NAME --seed N --seconds S --trace 0|1] \
                     | [--seed N] [--reps N] [--seconds S] [--quick] [--check-repeat]"
                ))
            }
        }
    }
    if a.seconds <= 0.0 || a.reps == 0 {
        return Err("--seconds and --reps must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.quick {
        QUICK.set(0.25).expect("set once");
    }

    // the driver's contract: one workload, one JSON line
    if let Some(workload) = &args.workload {
        let result = if args.trace {
            run::traced_run(workload, args.seed, args.seconds)
        } else {
            run::timed_run(workload, args.seed, args.seconds)
        };
        return match result {
            Ok(o) => {
                for e in &o.errors {
                    eprintln!("WRONG: {e}");
                }
                println!("{}", report::result_line(&o));
                if o.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {workload}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // the one command: everything, by name
    let (reps, seconds) = if args.quick {
        (1, 1.0)
    } else {
        (args.reps, args.seconds)
    };
    let stamp = full::stamp(args.seed, reps, seconds, args.quick);
    println!("{{{stamp}}}");
    let first = full::run_set(args.seed, reps, seconds, true, args.quick);
    full::print_set(&first);
    let mut ok = first.errors.is_empty();
    for e in &first.errors {
        println!("WRONG: {e}");
    }
    match full::write_result(&first, &stamp) {
        Ok(path) => println!("\nresult written to {}", path.display()),
        Err(e) => eprintln!("could not write the result file: {e}"),
    }
    if args.check_repeat {
        let second = full::run_set(args.seed, reps, seconds, false, args.quick);
        for e in &second.errors {
            println!("WRONG: {e}");
        }
        ok &= second.errors.is_empty();
        ok &= full::check_repeat(&first, &second);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
