//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <gnn-serve|attention-batch|minibatch-stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a readable report, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when the run is not correct.

use perfbench::measure::{median, peak_rss_mb, result_json};
use perfbench::{RunOpts, Workload};
use std::process::{Command, ExitCode, Stdio};

/// Cold set-up samples taken in fresh child processes before the run;
/// the run's own set-up is one more sample.
const SETUP_CHILDREN: usize = 6;

struct Args {
    workload: Workload,
    opts: RunOpts,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut setup_probe, mut corrupt_reference) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                });
            }
            "--setup-probe" => setup_probe = true,
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let opts = RunOpts {
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        corrupt_reference,
    };
    Ok(Args { workload, opts, setup_probe })
}

/// Cold set-up of one fresh child process.
fn setup_in_child(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string(), "--setup-probe"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "set-up probe printed no setup_s line".to_string())
}

fn main() -> ExitCode {
    // Knobs change what is measured: refuse to run under any of them.
    let knobs: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("SPARSETIR_")).collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with SPARSETIR_* knobs set: {}", knobs.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (w, opts) = (args.workload, &args.opts);
    if args.setup_probe {
        return match w.setup_probe(opts.seed) {
            Ok(s) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up probe: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# config: {}", w.describe());

    let mut setups = Vec::new();
    if !opts.trace {
        for _ in 0..SETUP_CHILDREN {
            match setup_in_child(w, opts.seed) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut out = match w.run(opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    if opts.trace {
        // Peak memory is reported unbounded: on minibatch-stream it grows
        // with every kernel compiled, so with throughput.
        out.metrics.push("bench.peak_rss_mb", peak_rss_mb(), "MiB");
    } else {
        setups.push(out.setup_s);
        let note = format!("median of {} cold processes: {setups:.4?}", setups.len());
        out.metrics.push_noted("setup_s", median(&setups), "s", note);
    }

    for m in &out.metrics.0 {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        println!("{:<28} {:>14.6} {:<7}{note}", m.name, m.value, m.unit);
    }
    println!("# counts: {}", out.counts.summary());
    for m in out.metrics.0.iter().filter(|m| !m.value.is_finite()) {
        out.problems.push(format!("{} has no value", m.name));
    }
    let correct = out.problems.is_empty() && out.counts.correct > 0;
    for p in out.problems.iter().take(10) {
        println!("# problem: {p}");
    }
    if out.problems.len() > 10 {
        println!("# ... and {} more problems", out.problems.len() - 10);
    }
    println!("{}", result_json(correct, &out.counts, &out.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
