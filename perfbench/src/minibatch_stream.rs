//! `minibatch-stream`: one closed-loop stream of small sampled subgraphs,
//! each served a few SpMM queries, with `Engine::apply_delta` edge
//! updates interleaved so writes run beside reads. Per-request fixed
//! costs dominate: wrapping each subgraph, building and lowering the IR,
//! fingerprinting it and compiling every new shape.

use crate::inputs::{OpStream, StreamOp};
use crate::measure::{submit_error, wait_error, Checker, Outcome};
use crate::replay::{self, Window, Work};
use crate::trace::Tracer;
use crate::{
    counts_of, e2e_metrics, note_trace, record_request, replay_sample, timed, trace_overhead,
    ReqRecord, ReqTimes, RunOpts, RunOutput,
};
use sparsetir_engine::{Adjacency, Engine, EngineConfig, Submission, Ticket};
use sparsetir_kernels::prelude::{prepare_spmm_structure, SpmmConfig};
use sparsetir_smat::prelude::{Csr, Dense};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Latency limit for `slo_met_share`.
pub const LIMIT: Duration = Duration::from_millis(20);
pub const TOL: f32 = 1e-3;
const REPLAYS: usize = 300;
/// Keep the operands of every `KEEP_EVERY`-th traced query for replay.
const KEEP_EVERY: u64 = 4;

pub fn config() -> EngineConfig {
    EngineConfig { workers: 1, tune: false, ..EngineConfig::default() }
}

pub fn describe() -> String {
    format!(
        "closed loop, 1 stream, subgraphs of 64-256 nodes, widths 4-16, interleaved edge updates, \
         latency limit {} ms; engine {:?}",
        LIMIT.as_millis(),
        config()
    )
}

fn reference(a: &Csr, x: &Dense, corrupt: bool) -> Dense {
    let mut want = a.spmm(x).expect("generated features match the subgraph");
    if corrupt {
        want.data_mut()[0] += 1.0;
    }
    want
}

/// The stream's first subgraph and query.
fn first(ops: &mut OpStream) -> (Csr, Dense) {
    match (ops.next(), ops.next()) {
        (Some(StreamOp::Subgraph(c)), Some(StreamOp::Query(x))) => (c, x),
        _ => unreachable!("every subgraph opens with a query"),
    }
}

/// Engine construction to the first answer: `Adjacency::new`, IR build
/// and the first compile.
fn setup(csr: Csr, x: Dense) -> Result<(Engine, Adjacency, f64, Dense), String> {
    let t = Instant::now();
    let engine = Engine::new(config());
    let adj = Adjacency::new(csr);
    let out = engine
        .submit(&adj, Submission::spmm(x))
        .and_then(Ticket::wait)
        .and_then(|o| o.into_dense())
        .map_err(|e| format!("set-up request failed: {e}"))?;
    Ok((engine, adj, t.elapsed().as_secs_f64(), out))
}

pub fn setup_probe(seed: u64) -> Result<f64, String> {
    let (csr, x) = first(&mut OpStream::new(seed));
    let want = reference(&csr, &x, false);
    let (_engine, _adj, secs, out) = setup(csr, x)?;
    let mut c = Checker::default();
    if !c.dense("set-up request", out.data(), want.data(), TOL) {
        return Err(c.problems.join("; "));
    }
    Ok(secs)
}

pub fn run(opts: &RunOpts) -> Result<RunOutput, String> {
    let mut ops = OpStream::new(opts.seed);
    let (csr, x) = first(&mut ops);
    let mut checker = Checker::default();
    let want = reference(&csr, &x, opts.corrupt_reference);
    let (engine, mut adj, setup_s, out) = setup(csr.clone(), x)?;
    checker.dense("set-up request", out.data(), want.data(), TOL);
    // The checker's own copy of the live subgraph, updated through
    // `Csr::apply_delta` independently of the engine.
    let mut model = csr;

    let tracer = Tracer::new(Instant::now());
    let before = engine.stats();
    let compiled_before = engine.runtime().compilations();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(opts.seconds);
    let traced_from = start + Duration::from_secs_f64(opts.seconds / 2.0);
    let mut records = Vec::new();
    let mut kept: HashMap<u64, (Csr, Dense)> = HashMap::new();
    let mut freshness = Vec::new();
    let mut pending_delta: Option<Instant> = None;
    let mut req = 0u64;
    let mut traced_queries = 0u64;
    // A window ends on a query, so that every update is followed by one.
    let mut last_was_query = false;
    while Instant::now() < end || !last_was_query {
        let tr = (opts.trace && Instant::now() >= traced_from).then_some(&tracer);
        let op = ops.next().expect("the op stream is endless");
        last_was_query = matches!(op, StreamOp::Query(_));
        match op {
            StreamOp::Subgraph(c) => {
                adj = timed(tr, "engine.adjacency_new", || Adjacency::new(c.clone()));
                model = c;
            }
            StreamOp::Delta(d) => {
                let t = Instant::now();
                adj = timed(tr, "engine.apply_delta", || engine.apply_delta(&adj, &d))
                    .map_err(|e| format!("apply_delta: {e}"))?;
                pending_delta = Some(t);
                model = timed(tr, "smat.apply_delta", || model.apply_delta(&d))
                    .map_err(|e| format!("Csr::apply_delta: {e}"))?;
            }
            StreamOp::Query(x) => {
                req += 1;
                let keep = tr.is_some() && {
                    traced_queries += 1;
                    traced_queries.is_multiple_of(KEEP_EVERY)
                };
                if keep {
                    kept.insert(req, (model.clone(), x.clone()));
                }
                let want = reference(&model, &x, opts.corrupt_reference);
                let t0 = Instant::now();
                let res = engine.submit(&adj, Submission::spmm(x));
                let submit = (t0, Instant::now());
                let (outcome, wait, done) = match res {
                    Err(e) => (submit_error(&e), None, submit.1),
                    Ok(ticket) => {
                        let w0 = Instant::now();
                        let res = ticket.wait().and_then(|o| o.into_dense());
                        let done = Instant::now();
                        let outcome = match res {
                            Ok(out) if checker.dense("request", out.data(), want.data(), TOL) => {
                                Outcome::Correct
                            }
                            Ok(_) => Outcome::Wrong,
                            Err(e) => wait_error(&e),
                        };
                        (outcome, Some((w0, done)), done)
                    }
                };
                if outcome == Outcome::Correct {
                    if let Some(t) = pending_delta.take() {
                        freshness.push((done - t).as_secs_f64() * 1e3);
                    }
                }
                let times = ReqTimes { start: t0, submit, wait, checked: Instant::now() };
                let span = tr.map(|tr| record_request(tr, req, &times));
                let traced = span.is_some();
                records.push(ReqRecord { req, start: t0, done, outcome, traced, span });
            }
        }
    }
    let after = engine.stats();
    let compiled_in_window = engine.runtime().compilations() - compiled_before;
    let counts = counts_of(&records);
    checker.problems.extend(counts.reconcile(&after.delta_since(&before)));

    let mut out = RunOutput { counts, problems: checker.problems, setup_s, ..RunOutput::default() };
    if !opts.trace {
        out.metrics =
            e2e_metrics(&records, start, Duration::from_secs_f64(opts.seconds), LIMIT, &freshness);
        return Ok(out);
    }

    let config = SpmmConfig::default_csr();
    let mut work: Vec<Work> = Vec::new();
    let sampled: Vec<&ReqRecord> = replay_sample(&records, usize::MAX)
        .into_iter()
        .filter(|r| kept.contains_key(&r.req))
        .collect();
    let step = sampled.len().div_ceil(REPLAYS).max(1);
    for r in sampled.into_iter().step_by(step) {
        let (a, x) = &kept[&r.req];
        let span = r.span.expect("traced requests carry a span");
        work.push(
            replay::spmm(&tracer, engine.runtime(), a, x, &config, span, r.req)
                .map_err(|e| format!("replay: {e}"))?,
        );
    }
    let (func, _) =
        prepare_spmm_structure(&model, 16, &config).map_err(|e| format!("build: {e}"))?;
    replay::probes(&tracer, engine.runtime(), &func, &model, 16)
        .map_err(|e| format!("probe: {e}"))?;
    let window = Window { kind: "spmm", before, after, compilations: compiled_in_window };
    let mut notes = HashMap::new();
    notes.insert("autotune.cache_hit_rate", "absent: this workload serves untuned".into());
    notes.insert(
        "autotune.tune_ms",
        "cold tune_op::<SpmmOp> on the last subgraph at width 16; not on the served path".into(),
    );
    notes
        .insert("engine.adjacency_new_ms", "in-stream: Adjacency::new per sampled subgraph".into());
    notes.insert("engine.apply_delta_ms", "in-stream: Engine::apply_delta per edge update".into());
    out.metrics = replay::layer_metrics(
        &tracer.spans(),
        &work,
        &engine,
        &window,
        trace_overhead(&records),
        &notes,
    );
    note_trace(&mut out.metrics, &tracer, "minibatch-stream", opts.seed);
    Ok(out)
}
