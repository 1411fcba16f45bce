//! End-to-end serving benchmark for the SparseTIR engine, with a traced
//! per-layer breakdown. Three seeded workloads drive the `Engine` through
//! its public submission API only: `Submission` with `submit`,
//! `try_submit` and `Ticket::wait`. Every answer is checked against a
//! native `smat` reference. See `perfbench/README.md` for how to run it.

pub mod attention_batch;
pub mod gnn_serve;
pub mod inputs;
pub mod measure;
pub mod minibatch_stream;
pub mod replay;
pub mod trace;

use measure::{median, quantile, sorted, Counts, Metrics, Outcome};
use sparsetir_engine::{Adjacency, Engine, EngineError};
use sparsetir_smat::prelude::Csr;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{SpanId, Tracer};

/// Options of one run, from the command line.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Test hook: perturb the references, so a correct engine must fail
    /// the run.
    pub corrupt_reference: bool,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub counts: Counts,
    /// End-to-end metrics except `setup_s` and `peak_rss_mb` (untraced
    /// run), or every per-layer metric (traced run).
    pub metrics: Metrics,
    /// Wrong answers, failed reconciliations and other reasons the run is
    /// not correct.
    pub problems: Vec<String>,
    /// This process's own cold set-up time.
    pub setup_s: f64,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GnnServe,
    AttentionBatch,
    MinibatchStream,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::GnnServe, Workload::AttentionBatch, Workload::MinibatchStream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GnnServe => "gnn-serve",
            Workload::AttentionBatch => "attention-batch",
            Workload::MinibatchStream => "minibatch-stream",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The resolved engine configuration and load parameters, for the
    /// run's header.
    pub fn describe(self) -> String {
        match self {
            Workload::GnnServe => gnn_serve::describe(),
            Workload::AttentionBatch => attention_batch::describe(),
            Workload::MinibatchStream => minibatch_stream::describe(),
        }
    }

    pub fn run(self, opts: &RunOpts) -> Result<RunOutput, String> {
        match self {
            Workload::GnnServe => gnn_serve::run(opts),
            Workload::AttentionBatch => attention_batch::run(opts),
            Workload::MinibatchStream => minibatch_stream::run(opts),
        }
    }

    /// Cold set-up in this (fresh) process: engine construction to the
    /// first correct answer, excluding input generation.
    pub fn setup_probe(self, seed: u64) -> Result<f64, String> {
        match self {
            Workload::GnnServe => gnn_serve::setup_probe(seed),
            Workload::AttentionBatch => attention_batch::setup_probe(seed),
            Workload::MinibatchStream => minibatch_stream::setup_probe(seed),
        }
    }
}

/// One attempted request of a timed window, as the client saw it.
#[derive(Debug, Clone)]
pub struct ReqRecord {
    pub req: u64,
    /// Scheduled send time (open loop) or `submit` call (closed loop).
    pub start: Instant,
    pub done: Instant,
    pub outcome: Outcome,
    pub traced: bool,
    /// The request's span, when traced.
    pub span: Option<SpanId>,
}

/// Client-side timestamps of one request, for its spans.
pub struct ReqTimes {
    pub start: Instant,
    pub submit: (Instant, Instant),
    pub wait: Option<(Instant, Instant)>,
    pub checked: Instant,
}

/// Record a request's spans (`bench.request` over `engine.submit`,
/// `engine.wait` and `bench.check`) and return the request span.
pub fn record_request(tr: &Tracer, req: u64, t: &ReqTimes) -> SpanId {
    let id = tr.reserve();
    tr.record("engine.submit", t.submit.0, t.submit.1, Some(id), req);
    if let Some((w0, w1)) = t.wait {
        tr.record("engine.wait", w0, w1, Some(id), req);
        tr.record("bench.check", w1, t.checked, Some(id), req);
    }
    tr.record_as(id, "bench.request", t.start, t.checked, None, req);
    id
}

/// Run `f`, as a span when a tracer is given.
pub fn timed<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(tr) => tr.time(name, None, 0, f),
        None => f(),
    }
}

pub fn counts_of(records: &[ReqRecord]) -> Counts {
    let mut c = Counts::default();
    for r in records {
        c.record(r.outcome);
    }
    c
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latencies_ms(records: &[ReqRecord], traced: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.outcome == Outcome::Correct && r.traced == traced)
        .map(|r| ms(r.done - r.start))
        .collect()
}

/// The window is cut into this many equal slices; throughput and latency
/// quantiles are each reported as their median over the slices, so a
/// passing slow phase of the machine moves them less.
pub const SLICES: usize = 3;

/// The end-to-end metrics of a window of length `window` that began at
/// `start`: throughput and latency quantiles (medians over `SLICES`
/// slices, by request start), the share of attempted requests answered
/// correctly within `limit`, and freshness.
pub fn e2e_metrics(
    records: &[ReqRecord],
    start: Instant,
    window: Duration,
    limit: Duration,
    freshness_ms: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    let slice = window / SLICES as u32;
    let (mut rps, mut p50, mut p95, mut sizes) = (vec![], vec![], vec![], vec![]);
    for k in 0..SLICES {
        let (lo, hi) = (start + slice * k as u32, start + slice * (k as u32 + 1));
        let last = k + 1 == SLICES;
        let part: Vec<ReqRecord> =
            records.iter().filter(|r| r.start >= lo && (r.start < hi || last)).cloned().collect();
        let lat = sorted(latencies_ms(&part, false));
        rps.push(answer_rate(records, lo, if last { end_of(records, hi) } else { hi }));
        p50.push(quantile(&lat, 0.5));
        p95.push(quantile(&lat, 0.95));
        sizes.push(lat.len());
    }
    let note = |what: &str| {
        format!("median over {SLICES} slices of {sizes:?} correct answers by start{what}")
    };
    m.push_noted("throughput_rps", median(&rps), "1/s", note(""));
    let beyond: Vec<usize> = sizes.iter().map(|n| n - (0.95 * *n as f64).ceil() as usize).collect();
    m.push_noted("latency_p50_ms", median(&p50), "ms", note(""));
    m.push_noted(
        "latency_p95_ms",
        median(&p95),
        "ms",
        note(&format!(", {beyond:?} samples beyond p95")),
    );
    let met = records
        .iter()
        .filter(|r| r.outcome == Outcome::Correct && r.done - r.start <= limit)
        .count();
    m.push_noted(
        "slo_met_share",
        met as f64 / records.len().max(1) as f64,
        "ratio",
        format!("{met}/{} within {} ms", records.len(), limit.as_millis()),
    );
    m.push_noted(
        "freshness_p50_ms",
        median(freshness_ms),
        "ms",
        format!("n={}", freshness_ms.len()),
    );
    m
}

/// Correct answers per second among those completed in `[lo, hi)`,
/// timed from the first such answer to the last.
fn answer_rate(records: &[ReqRecord], lo: Instant, hi: Instant) -> f64 {
    let mut done: Vec<Instant> = records
        .iter()
        .filter(|r| r.outcome == Outcome::Correct && r.done >= lo && r.done < hi)
        .map(|r| r.done)
        .collect();
    done.sort_unstable();
    match (done.first(), done.last()) {
        (Some(a), Some(b)) if b > a => (done.len() - 1) as f64 / (*b - *a).as_secs_f64(),
        _ => f64::NAN,
    }
}

/// Just past the last answer, or `hi` if that is later.
fn end_of(records: &[ReqRecord], hi: Instant) -> Instant {
    records.iter().map(|r| r.done + Duration::from_nanos(1)).max().unwrap_or(hi).max(hi)
}

/// Tracing overhead: the traced half's latency p50 over the untraced
/// half's, minus 1.
pub fn trace_overhead(records: &[ReqRecord]) -> f64 {
    let p50 = |traced| quantile(&sorted(latencies_ms(records, traced)), 0.5);
    p50(true) / p50(false) - 1.0
}

/// Up to `max` traced, correctly answered requests, evenly spaced.
pub fn replay_sample(records: &[ReqRecord], max: usize) -> Vec<&ReqRecord> {
    let pool: Vec<&ReqRecord> =
        records.iter().filter(|r| r.traced && r.outcome == Outcome::Correct).collect();
    let step = pool.len().div_ceil(max.max(1)).max(1);
    pool.into_iter().step_by(step).collect()
}

/// Post-window updates measured for `freshness_p50_ms` on the workloads
/// that do not update their graphs in the window.
pub const FRESH_PROBES: usize = 101;

/// Freshness after the window: `FRESH_PROBES` small seeded edge updates
/// of `adj` (whose matrix is `csr`), each followed by one request on the
/// successor adjacency. `serve(successor, k)` sends the `k`-th request and
/// `check(answer, updated matrix, k)` verifies its answer. Returns the
/// times in ms from each `Engine::apply_delta` call to a correct answer.
pub fn fresh_probes<O>(
    engine: &Engine,
    adj: &Adjacency,
    csr: &Csr,
    seed: u64,
    tr: Option<&Tracer>,
    mut serve: impl FnMut(&Adjacency, usize) -> Result<O, EngineError>,
    mut check: impl FnMut(&O, &Csr, usize) -> bool,
) -> Result<Vec<f64>, String> {
    let mut rng = inputs::stream(seed, 7);
    let (mut cur, mut model) = (adj.clone(), csr.clone());
    let mut fresh = Vec::with_capacity(FRESH_PROBES);
    for k in 0..FRESH_PROBES {
        let delta = inputs::edge_delta(&mut rng, &model, 8);
        let t = Instant::now();
        cur = timed(tr, "engine.apply_delta", || engine.apply_delta(&cur, &delta))
            .map_err(|e| format!("apply_delta: {e}"))?;
        let out = serve(&cur, k).map_err(|e| format!("fresh request: {e}"))?;
        let done = t.elapsed();
        model = timed(tr, "smat.apply_delta", || model.apply_delta(&delta))
            .map_err(|e| format!("Csr::apply_delta: {e}"))?;
        if check(&out, &model, k) {
            fresh.push(done.as_secs_f64() * 1e3);
        }
    }
    Ok(fresh)
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// Write the spans out and say where on the `trace.spans` metric.
pub fn note_trace(m: &mut Metrics, tr: &Tracer, workload: &str, seed: u64) {
    let path = trace_path(workload, seed);
    let note = match trace::write_jsonl(&path, &tr.spans()) {
        Ok(()) => format!("written to {}", path.display()),
        Err(e) => format!("could not write {}: {e}", path.display()),
    };
    if let Some(metric) = m.0.iter_mut().find(|m| m.name == "trace.spans") {
        metric.note = note;
    }
}
