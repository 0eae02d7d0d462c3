//! The repo's benchmark. See `README.md` beside this package's manifest.
//!
//! ```text
//! tq-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!     one run of one workload; the last stdout line is the result object
//!     (--trace 0: every end-to-end metric, --trace 1: every per-layer one)
//! tq-benchmark run --seed <u64>
//!     a set: 3 interleaved rounds of all workloads plus one traced run
//!     each, every run in a fresh child process; medians to
//!     out/results-seed<seed>.json
//! tq-benchmark compare <a.json> <b.json>
//!     two sets against the metrics' bounds; exits 1 on any `regressed`
//! ```

mod compare;
mod gen;
mod json;
mod probes;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use run::Outcome;
use workload::{Workload, WORKLOADS};

/// Library switches read from the environment; the benchmark measures
/// the defaults, so a stray setting must not leak in.
const STRIPPED_ENV: [&str; 4] = [
    "TQ_HEDGE",
    "TQ_NODE_VERIFY",
    "TQ_NODE_BACKEND",
    "TQ_GF256_FORCE",
];

const USAGE: &str = "usage:
  tq-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
  tq-benchmark run --seed <u64>
  tq-benchmark compare <a.json> <b.json>
workloads: mixed_4k write_4k degraded_read_64k local_mixed_4k";

fn main() -> ExitCode {
    // Before any thread exists, and for every subcommand: `run` records
    // the kernel its children will use.
    for var in STRIPPED_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_set(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => single_run(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tq-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, each flag at most once.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`\n{USAGE}"));
        }
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        if out.iter().any(|(f, _)| f == flag) {
            return Err(format!("`{flag}` given twice"));
        }
        out.push((flag, value));
    }
    Ok(out)
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(f, _)| *f == name).map(|(_, v)| *v)
}

fn parse_flag<T: std::str::FromStr>(flags: &[(&str, &str)], name: &str) -> Result<T, String> {
    let v = flag(flags, name).ok_or(format!("`{name}` is required\n{USAGE}"))?;
    v.parse()
        .map_err(|_| format!("`{name} {v}` is not a valid value"))
}

/// Where logs, traces and result sets go: `out/` beside the package's
/// manifest (`cargo run` exports its directory), else under `benchmark/`
/// in the current directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

fn host_line() -> String {
    format!(
        "host: {} cores, gf256 kernel {}, {} {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        tq_gf256::simd::active().name(),
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// `"name": {"value": v, "unit": "u"}` — one entry of a `metrics` object.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::string(name),
        json::number(value),
        json::string(unit)
    )
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| metric_json(m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn single_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = parse_flag(&flags, "--workload")?;
    let w = workload::find(&name).ok_or(format!("unknown workload `{name}`\n{USAGE}"))?;
    let seed: u64 = parse_flag(&flags, "--seed")?;
    let seconds: f64 = parse_flag(&flags, "--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("`--seconds {seconds}` is out of range"));
    }
    let traced = match parse_flag::<u8>(&flags, "--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("`--trace {other}` is not 0 or 1")),
    };
    let out = out_dir();
    let outcome = if traced {
        run::per_layer(w, seed, seconds, &out)?
    } else {
        run::end_to_end(w, seed, seconds, &out)?
    };
    println!("{}", host_line());
    println!("{}: {}", w.name, w.why);
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{}: {:<52} {:>16.4} {}", w.name, m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tq-benchmark: {}: {} of {} ops failed verification",
            w.name, outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------
// A set of runs.
// ---------------------------------------------------------------------

/// One child run's parsed result line.
struct ChildResult {
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)`, sorted by name.
    metrics: Vec<(String, f64, String)>,
}

/// Re-executes this binary for one run, in a fresh process, so RSS,
/// thread pools and health estimators never leak between runs.
fn child_run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if traced {
        // The budget tables are the traced run's human-readable product.
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let value =
        json::parse(last).map_err(|e| format!("{}: child printed no result line ({e})", w.name))?;
    let field = |name: &str| {
        value
            .get(name)
            .and_then(json::Value::as_f64)
            .ok_or(format!("{}: result line lacks `{name}`", w.name))
    };
    let object = value
        .get("metrics")
        .and_then(json::Value::as_object)
        .ok_or(format!("{}: result line lacks `metrics`", w.name))?;
    let mut metrics = Vec::new();
    for (name, m) in object {
        let v = m.get("value").and_then(json::Value::as_f64);
        let u = m.get("unit").and_then(json::Value::as_str);
        match (v, u) {
            (Some(v), Some(u)) => metrics.push((name.clone(), v, u.to_string())),
            _ => return Err(format!("{}: metric `{name}` is malformed", w.name)),
        }
    }
    let result = ChildResult {
        attempted: field("attempted")?,
        failed: field("failed")?,
        metrics,
    };
    if !output.status.success() && result.failed == 0.0 {
        return Err(format!("{}: child exited with {}", w.name, output.status));
    }
    Ok(result)
}

/// Rounds of a set; an end-to-end metric's reported value is their median.
const SET_ROUNDS: usize = 3;
/// Measured seconds of every run of a set. Sets are only comparable at
/// equal length, so this is not an argument; it keeps the whole command
/// (12 untraced + 4 traced runs with their set-ups) under five minutes.
const SET_SECONDS: f64 = 10.0;

fn run_set(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--seed"])?;
    let seed: u64 = parse_flag(&flags, "--seed")?;
    let out_file = out_dir().join(format!("results-seed{seed}.json"));
    println!("{}", host_line());

    // Rounds are interleaved (every workload once per round), so a noisy
    // minute on the host lands on all workloads, not on one.
    let mut untraced: Vec<Vec<ChildResult>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 1..=SET_ROUNDS {
        for (i, w) in WORKLOADS.iter().enumerate() {
            let r = child_run(w, seed, SET_SECONDS, false)?;
            let shown: Vec<String> = r
                .metrics
                .iter()
                .map(|(name, value, unit)| format!("{name} {value:.3} {unit}"))
                .collect();
            println!(
                "round {round} {:<18} {}  failed {}/{}",
                w.name,
                shown.join("  "),
                r.failed,
                r.attempted
            );
            untraced[i].push(r);
        }
    }
    let mut traced = Vec::new();
    for w in &WORKLOADS {
        traced.push(child_run(w, seed, SET_SECONDS, true)?);
    }

    let mut body = Vec::new();
    let mut any_failed = false;
    for ((w, runs), layer) in WORKLOADS.iter().zip(&untraced).zip(&traced) {
        let attempted: f64 = runs.iter().map(|r| r.attempted).sum::<f64>() + layer.attempted;
        let failed: f64 = runs.iter().map(|r| r.failed).sum::<f64>() + layer.failed;
        any_failed |= failed > 0.0;
        let mut e2e = Vec::new();
        for spec in &compare::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == spec.name))
                .map(|(_, v, _)| *v)
                .collect();
            if values.len() != runs.len() {
                return Err(format!("{}: a round lacks `{}`", w.name, spec.name));
            }
            let (lo, hi) = compare::range(&values);
            let med = stats::median(&values);
            println!(
                "{:<18} {:<14} median {:>12.3} {:<6} min {:>12.3} max {:>12.3}",
                w.name, spec.name, med, spec.unit, lo, hi
            );
            e2e.push(format!(
                "{}: {{\"unit\": {}, \"better\": {}, \"bound\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"values\": [{}]}}",
                json::string(spec.name),
                json::string(spec.unit),
                json::string(spec.better.as_str()),
                json::number(spec.bound),
                json::number(med),
                json::number(lo),
                json::number(hi),
                values.iter().map(|v| json::number(*v)).collect::<Vec<_>>().join(", ")
            ));
        }
        let per_layer: Vec<String> = layer
            .metrics
            .iter()
            .map(|(n, v, u)| metric_json(n, *v, u))
            .collect();
        body.push(format!(
            "    {}: {{\n      \"attempted\": {}, \"failed\": {},\n      \"end_to_end\": {{\n        {}\n      }},\n      \"per_layer\": {{\n        {}\n      }}\n    }}",
            json::string(w.name),
            json::number(attempted),
            json::number(failed),
            e2e.join(",\n        "),
            per_layer.join(",\n        ")
        ));
    }
    let text = format!(
        "{{\n  \"schema\": 1,\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"rounds\": {SET_ROUNDS},\n  \"host\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::number(SET_SECONDS),
        json::string(&host_line()),
        body.join(",\n")
    );
    write_file(&out_file, &text)?;
    println!("result set written to {}", out_file.display());
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let clean = compare::compare(&load(a)?, &load(b)?, &mut std::io::stdout())?;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
