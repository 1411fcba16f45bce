//! `attention-batch`: the paper's sparse-attention operator under a
//! closed loop. Two client threads each keep a fixed number of
//! `Submission::fused_attention` requests in flight over a band and a
//! butterfly mask (1024 and 512 tokens), 2–4 heads per request; the engine
//! folds concurrent requests on one mask into multi-head launches.

use crate::inputs::{attention_masks, attention_order, attention_requests, ATTN_HEAD_DIM};
use crate::measure::{submit_error, wait_error, Checker, Outcome};
use crate::replay::{self, Window, Work};
use crate::trace::Tracer;
use crate::{
    counts_of, e2e_metrics, fresh_probes, note_trace, record_request, replay_sample,
    trace_overhead, ReqRecord, ReqTimes, RunOpts, RunOutput,
};
use sparsetir_engine::{Adjacency, Engine, EngineConfig, EngineError, Submission, Ticket};
use sparsetir_kernels::prelude::{fused_attention_ir, fused_attention_reference, AttnHead};
use sparsetir_smat::prelude::{Csr, Dense};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Closed-loop clients, each with this many requests in flight.
pub const CLIENTS: usize = 2;
pub const IN_FLIGHT: usize = 4;
/// Latency limit for `slo_met_share`.
pub const LIMIT: Duration = Duration::from_millis(1000);
/// The kernel accumulates in f64 and stores f32 intermediates; the
/// reference stays in f64 throughout.
pub const TOL: f32 = 1e-3;
const REPLAYS: usize = 48;

/// A submitted request awaiting its answer: id, `(mask, pool slot)`, the
/// `submit` call's interval, and what `submit` returned.
type InFlight = (u64, (usize, usize), (Instant, Instant), Result<Ticket, EngineError>);

pub fn config() -> EngineConfig {
    EngineConfig { workers: 1, max_batch: 8, ..EngineConfig::default() }
}

pub fn describe() -> String {
    format!(
        "closed loop, {CLIENTS} clients x {IN_FLIGHT} in flight, head dim {ATTN_HEAD_DIM}, \
         latency limit {} ms; engine {:?}",
        LIMIT.as_millis(),
        config()
    )
}

fn serve(
    engine: &Engine,
    adj: &Adjacency,
    heads: Vec<AttnHead>,
) -> Result<Vec<Dense>, EngineError> {
    engine.submit(adj, Submission::fused_attention(heads)).and_then(Ticket::wait)?.into_heads()
}

/// Per-head references, each from `fused_attention_reference` on that
/// head alone.
fn reference(a: &Csr, heads: &[AttnHead]) -> Vec<Dense> {
    heads.iter().map(|h| fused_attention_reference(a, &h.q, &h.kt, &h.v, 1)).collect()
}

fn check(c: &mut Checker, what: &str, got: &[Dense], want: &[Dense]) -> bool {
    if got.len() != want.len() {
        c.problems.push(format!("{what}: {} heads answered, {} expected", got.len(), want.len()));
        return false;
    }
    got.iter().zip(want).all(|(g, w)| c.dense(what, g.data(), w.data(), TOL))
}

/// Engine construction to the first answer: both masks wrapped, and the
/// first request's kernel compiled and run.
fn setup(
    masks: Vec<Csr>,
    heads: Vec<AttnHead>,
) -> Result<(Engine, Vec<Adjacency>, f64, Vec<Dense>), String> {
    let t = Instant::now();
    let engine = Engine::new(config());
    let adjs: Vec<Adjacency> = masks.into_iter().map(Adjacency::new).collect();
    let out = serve(&engine, &adjs[0], heads).map_err(|e| format!("set-up request failed: {e}"))?;
    Ok((engine, adjs, t.elapsed().as_secs_f64(), out))
}

pub fn setup_probe(seed: u64) -> Result<f64, String> {
    let masks = attention_masks();
    let heads = attention_requests(seed, &masks).swap_remove(0).swap_remove(0);
    let want = reference(&masks[0], &heads);
    let (_engine, _adjs, secs, out) = setup(masks, heads)?;
    let mut c = Checker::default();
    if !check(&mut c, "set-up request", &out, &want) {
        return Err(c.problems.join("; "));
    }
    Ok(secs)
}

pub fn run(opts: &RunOpts) -> Result<RunOutput, String> {
    let masks = attention_masks();
    let pool = attention_requests(opts.seed, &masks);
    let mut refs: Vec<Vec<Vec<Dense>>> = masks
        .iter()
        .zip(&pool)
        .map(|(m, reqs)| reqs.iter().map(|heads| reference(m, heads)).collect())
        .collect();
    if opts.corrupt_reference {
        refs.iter_mut().flatten().flatten().for_each(|r| r.data_mut()[0] += 1.0);
    }
    let mut checker = Checker::default();

    let (engine, adjs, setup_s, out) = setup(masks.clone(), pool[0][0].clone())?;
    check(&mut checker, "set-up request", &out, &refs[0][0]);
    // Warm-up, outside the window: one request per mask, then compile the
    // fused kernel for every head count a batch can stack.
    for (m, adj) in adjs.iter().enumerate() {
        let out = serve(&engine, adj, pool[m][0].clone()).map_err(|e| format!("warm-up: {e}"))?;
        check(&mut checker, "warm-up request", &out, &refs[m][0]);
        for heads in 1..=4 * config().max_batch {
            let f = fused_attention_ir(&masks[m], heads, ATTN_HEAD_DIM, ATTN_HEAD_DIM)
                .map_err(|e| format!("warm: {e}"))?;
            engine.runtime().compile(&f).map_err(|e| format!("warm: {e}"))?;
        }
    }

    let tracer = Tracer::new(Instant::now());
    let tr = opts.trace.then_some(&tracer);
    let before = engine.stats();
    let compiled_before = engine.runtime().compilations();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(opts.seconds);
    let traced_from = start + Duration::from_secs_f64(opts.seconds / 2.0);
    let mut per_client = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (engine, adjs, pool, refs, tracer) = (&engine, &adjs, &pool, &refs, &tracer);
                s.spawn(move || {
                    let order = attention_order(opts.seed, c as u64, adjs.len());
                    let mut checker = Checker::default();
                    let mut records = Vec::new();
                    let mut inflight: VecDeque<InFlight> = VecDeque::new();
                    let mut next = 0usize;
                    loop {
                        let open = Instant::now() < end;
                        if open && inflight.len() < IN_FLIGHT {
                            let (m, slot) = order[next % order.len()];
                            next += 1;
                            let req = (c + CLIENTS * next) as u64;
                            let sub = Submission::fused_attention(pool[m][slot].clone());
                            let t0 = Instant::now();
                            let res = engine.submit(&adjs[m], sub);
                            inflight.push_back((req, (m, slot), (t0, Instant::now()), res));
                            continue;
                        }
                        let Some((req, (m, slot), submit, res)) = inflight.pop_front() else {
                            break;
                        };
                        let traced = opts.trace && submit.0 >= traced_from;
                        let (outcome, wait, done) = match res {
                            Err(e) => (submit_error(&e), None, submit.1),
                            Ok(ticket) => {
                                let w0 = Instant::now();
                                let res = ticket.wait().and_then(|o| o.into_heads());
                                let done = Instant::now();
                                let outcome = match res {
                                    Ok(out)
                                        if check(&mut checker, "request", &out, &refs[m][slot]) =>
                                    {
                                        Outcome::Correct
                                    }
                                    Ok(_) => Outcome::Wrong,
                                    Err(e) => wait_error(&e),
                                };
                                (outcome, Some((w0, done)), done)
                            }
                        };
                        let times =
                            ReqTimes { start: submit.0, submit, wait, checked: Instant::now() };
                        let span = traced.then(|| record_request(tracer, req, &times));
                        records.push((
                            ReqRecord { req, start: submit.0, done, outcome, traced, span },
                            (m, slot),
                        ));
                    }
                    (records, checker)
                })
            })
            .collect();
        per_client =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
    });
    let after = engine.stats();
    let compiled_in_window = engine.runtime().compilations() - compiled_before;
    let mut records = Vec::new();
    let mut inputs_of = HashMap::new();
    for (recs, c) in per_client {
        checker.problems.extend(c.problems);
        for (r, input) in recs {
            inputs_of.insert(r.req, input);
            records.push(r);
        }
    }
    let counts = counts_of(&records);
    checker.problems.extend(counts.reconcile(&after.delta_since(&before)));

    // Every update is followed by the same two-head request, so the
    // median does not depend on a mix of head counts.
    let fresh_heads = &pool[0][0];
    let freshness = fresh_probes(
        &engine,
        &adjs[0],
        &masks[0],
        opts.seed,
        tr,
        |cur, _| serve(&engine, cur, fresh_heads.clone()),
        |out, model, _| {
            let mut want = reference(model, fresh_heads);
            if opts.corrupt_reference {
                want[0].data_mut()[0] += 1.0;
            }
            check(&mut checker, "fresh request", out, &want)
        },
    )?;

    let mut out = RunOutput { counts, problems: checker.problems, setup_s, ..RunOutput::default() };
    if !opts.trace {
        out.metrics =
            e2e_metrics(&records, start, Duration::from_secs_f64(opts.seconds), LIMIT, &freshness);
        return Ok(out);
    }

    let mut work: Vec<Work> = Vec::new();
    for r in replay_sample(&records, REPLAYS) {
        let (m, slot) = inputs_of[&r.req];
        let span = r.span.expect("traced requests carry a span");
        work.push(
            replay::attention(&tracer, engine.runtime(), &masks[m], &pool[m][slot], span, r.req)
                .map_err(|e| format!("replay: {e}"))?,
        );
    }
    let func = fused_attention_ir(&masks[0], 2, ATTN_HEAD_DIM, ATTN_HEAD_DIM)
        .map_err(|e| format!("build: {e}"))?;
    replay::probes(&tracer, engine.runtime(), &func, &masks[0], 32)
        .map_err(|e| format!("probe: {e}"))?;
    let window =
        Window { kind: "fused_attention", before, after, compilations: compiled_in_window };
    let mut notes = HashMap::new();
    notes.insert("autotune.cache_hit_rate", "absent: this workload serves untuned".into());
    notes.insert(
        "autotune.tune_ms",
        "cold tune_op::<SpmmOp> on the band mask at width 32; not on the served path".into(),
    );
    notes.insert("engine.adjacency_new_ms", "probe: Adjacency::new on the band mask".into());
    out.metrics = replay::layer_metrics(
        &tracer.spans(),
        &work,
        &engine,
        &window,
        trace_overhead(&records),
        &notes,
    );
    note_trace(&mut out.metrics, &tracer, "attention-batch", opts.seed);
    Ok(out)
}
