//! The one-command mode: every workload `--reps` times (each run a child
//! process, as the driver runs it), every metric printed by name with
//! unit, median, min and max, then one traced run per workload;
//! `--check-repeat` runs two such sets back to back and compares their
//! medians against each metric's bound.

use crate::report::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::out_dir;
use crate::stats::{max, median, min, spread};
use gill::query::Json;
use std::collections::BTreeMap;

/// `workload -> metric -> one value per repetition`.
pub type SetValues = BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>>;

/// What one complete set of runs produced.
pub struct Set {
    pub end_to_end: SetValues,
    pub per_layer: SetValues,
    pub attempted: BTreeMap<&'static str, u64>,
    pub failed: BTreeMap<&'static str, u64>,
    pub errors: Vec<String>,
}

/// What one child run reported on its last stdout line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn parse_result(line: &str) -> Option<ChildResult> {
    let Json::Obj(top) = Json::parse(line).ok()? else {
        return None;
    };
    let get = |key: &str| top.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let count = |key: &str| match get(key)? {
        Json::U64(n) => Some(*n),
        _ => None,
    };
    let Json::Obj(metrics) = get("metrics")? else {
        return None;
    };
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| {
            let Json::Obj(m) = m else { return None };
            let value = match &m.iter().find(|(k, _)| k == "value")?.1 {
                Json::F64(v) => *v,
                Json::U64(v) => *v as f64,
                Json::I64(v) => *v as f64,
                _ => return None,
            };
            Some((name.clone(), value))
        })
        .collect();
    Some(ChildResult {
        correct: matches!(get("correct")?, Json::Bool(true)),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Runs one workload in a process of its own — exactly what the driver
/// does — so that no run inherits another's heap, threads or page cache
/// state. Progress goes straight to stderr; the result line is parsed.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().and_then(parse_result);
    match result {
        Some(r) if r.correct && out.status.success() => Ok(r),
        Some(_) => Err(format!(
            "seed {seed}: a correctness check failed (see WRONG lines above)"
        )),
        None => Err(format!("seed {seed}: no result ({})", out.status)),
    }
}

fn absorb(
    into: &mut SetValues,
    workload: &'static str,
    defs: &'static [MetricDef],
    r: &ChildResult,
) {
    let per = into.entry(workload).or_default();
    for (name, value) in &r.metrics {
        if let Some(d) = defs.iter().find(|d| d.name == name) {
            per.entry(d.name).or_default().push(*value);
        }
    }
}

/// Runs every workload `reps` times (seed, seed+1, …) and, with `trace`,
/// once more traced.
pub fn run_set(seed: u64, reps: usize, seconds: f64, trace: bool, quick: bool) -> Set {
    let mut set = Set {
        end_to_end: SetValues::new(),
        per_layer: SetValues::new(),
        attempted: BTreeMap::new(),
        failed: BTreeMap::new(),
        errors: Vec::new(),
    };
    for workload in WORKLOADS {
        for rep in 0..reps {
            eprintln!("{workload}: timed run {} of {reps}", rep + 1);
            match run_child(workload, seed + rep as u64, seconds, false, quick) {
                Ok(r) => {
                    absorb(&mut set.end_to_end, workload, &END_TO_END, &r);
                    *set.attempted.entry(workload).or_default() += r.attempted;
                    *set.failed.entry(workload).or_default() += r.failed;
                }
                Err(e) => set.errors.push(format!("{workload}: {e}")),
            }
        }
        if trace {
            eprintln!("{workload}: traced run");
            match run_child(workload, seed, seconds, true, quick) {
                Ok(r) => absorb(&mut set.per_layer, workload, &PER_LAYER, &r),
                Err(e) => set.errors.push(format!("{workload}: traced: {e}")),
            }
        }
    }
    set
}

fn print_rows(title: &str, defs: &[MetricDef], values: &SetValues) {
    println!("\n{title}");
    println!(
        "{:<16} {:<38} {:>8} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "unit", "median", "min", "max", "iqr/med"
    );
    for workload in WORKLOADS {
        let Some(per) = values.get(workload) else {
            continue;
        };
        for d in defs {
            if let Some(v) = per.get(d.name) {
                // the quartile distance the acceptance check uses, once
                // there are enough runs to have quartiles
                let iqr = if v.len() >= 2 {
                    format!("{:.1}%", spread(v) * 100.0)
                } else {
                    "-".into()
                };
                println!(
                    "{workload:<16} {:<38} {:>8} {:>14.4} {:>14.4} {:>14.4} {iqr:>8}",
                    d.name,
                    d.unit,
                    median(v),
                    min(v),
                    max(v)
                );
            }
        }
    }
}

/// Prints every metric of a set by name.
pub fn print_set(set: &Set) {
    print_rows("end-to-end (tracing off)", &END_TO_END, &set.end_to_end);
    if !set.per_layer.is_empty() {
        print_rows("per layer (traced run)", &PER_LAYER, &set.per_layer);
    }
    println!("\noperations");
    for workload in WORKLOADS {
        println!(
            "{workload:<16} ops_attempted {:>10}  ops_failed {:>6}",
            set.attempted.get(workload).copied().unwrap_or(0),
            set.failed.get(workload).copied().unwrap_or(0)
        );
    }
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The machine / commit / toolchain stamp every output carries, as JSON
/// object members.
pub fn stamp(seed: u64, reps: usize, seconds: f64, quick: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"quick\": {quick}, \"seed\": {seed}, \"reps\": {reps}, \"run_seconds\": {seconds}, \
         \"commit\": \"{}\", \"rustc\": \"{}\", \"cpu\": \"{}\", \"kernel\": \"{}\", \"nproc\": {nproc}, \
         \"workers\": {}, \"network\": \"host loopback; no real link was crossed\", \
         \"shims\": \"crossbeam, parking_lot and rayon are the in-tree crates/shims stand-ins \
         (Mutex+Condvar channel, scoped-thread chunking), not the published crates\"",
        esc(&first_line("git", &["rev-parse", "HEAD"])),
        esc(&first_line("rustc", &["--version"])),
        esc(&cpu_model()),
        esc(&first_line("uname", &["-r"])),
        crate::sut::WORKERS,
    )
}

fn values_json(values: &SetValues, defs: &[MetricDef]) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter_map(|w| values.get(w).map(|per| (w, per)))
        .map(|(w, per)| {
            let metrics: Vec<String> = defs
                .iter()
                .filter_map(|d| per.get(d.name).map(|v| (d, v)))
                .map(|(d, v)| {
                    format!(
                        "\"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"median\": {}, \"min\": {}, \"max\": {}, \"runs\": {}}}",
                        d.name,
                        d.unit,
                        d.better.as_str(),
                        median(v),
                        min(v),
                        max(v),
                        v.len()
                    )
                })
                .collect();
            format!("    \"{w}\": {{{}}}", metrics.join(", "))
        })
        .collect();
    format!("{{\n{}\n  }}", workloads.join(",\n"))
}

/// Writes `benchmark/out/result.json`: stamp plus every metric's median,
/// min and max.
pub fn write_result(set: &Set, stamp: &str) -> std::io::Result<std::path::PathBuf> {
    let path = out_dir().join("result.json");
    std::fs::create_dir_all(out_dir())?;
    let body = format!(
        "{{\n  {stamp},\n  \"correct\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        set.errors.is_empty(),
        values_json(&set.end_to_end, &END_TO_END),
        values_json(&set.per_layer, &PER_LAYER),
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compares two sets' medians; prints both and the relative difference
/// per metric and workload. Returns whether every end-to-end pair agrees
/// within its bound, in either direction.
pub fn check_repeat(a: &Set, b: &Set) -> bool {
    println!("\nrepeat check: two sets of the same code");
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut ok = true;
    for workload in WORKLOADS {
        for d in &END_TO_END {
            let get = |s: &Set| {
                s.end_to_end
                    .get(workload)
                    .and_then(|m| m.get(d.name))
                    .map(|v| median(v))
            };
            let (Some(x), Some(y)) = (get(a), get(b)) else {
                ok = false;
                continue;
            };
            let diff = worsening(d, x, y).abs().max(worsening(d, y, x).abs());
            let pass = diff <= d.bound;
            ok &= pass;
            println!(
                "{workload:<16} {:<22} {x:>14.4} {y:>14.4} {:>8.1}% {:>6.0}%{}",
                d.name,
                diff * 100.0,
                d.bound * 100.0,
                if pass { "" } else { "  EXCEEDED" }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        let lower = &END_TO_END[0]; // setup_s, lower is better
        let higher = &END_TO_END[1]; // throughput, higher is better
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 10.0, 11.0) < 0.0);
    }
}
