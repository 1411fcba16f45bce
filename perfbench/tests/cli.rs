//! Runs the benchmark binary end to end on short windows.

use std::process::Command;

/// The binary with every `SPARSETIR_*` knob of this environment removed.
fn perfbench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("SPARSETIR_")) {
        cmd.env_remove(k);
    }
    cmd
}

fn run(args: &[&str]) -> (bool, String) {
    let out = perfbench().args(args).output().expect("run perfbench");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or_default()
}

const SHORT: [&str; 8] =
    ["--workload", "minibatch-stream", "--seed", "3", "--seconds", "0.3", "--trace", "0"];

#[test]
fn a_clean_run_is_correct() {
    let (ok, stdout) = run(&SHORT);
    assert!(ok, "{stdout}");
    let line = last_line(&stdout);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    for metric in [
        "throughput_rps",
        "latency_p50_ms",
        "latency_p95_ms",
        "slo_met_share",
        "freshness_p50_ms",
        "setup_s",
    ] {
        assert!(line.contains(&format!("\"{metric}\": {{\"value\": ")), "{metric} in {line}");
    }
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for workload in ["minibatch-stream", "attention-batch", "gnn-serve"] {
        let mut args = SHORT.to_vec();
        args[1] = workload;
        args.push("--corrupt-reference");
        let (ok, stdout) = run(&args);
        assert!(!ok, "{workload}: a wrong reference must fail the run:\n{stdout}");
        assert!(last_line(&stdout).starts_with("{\"correct\": false"), "{stdout}");
        assert!(stdout.contains("does not match the reference"), "{stdout}");
    }
}

#[test]
fn knobs_are_refused() {
    let out = perfbench().args(SHORT).env("SPARSETIR_SMOKE", "1").output().expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
}
