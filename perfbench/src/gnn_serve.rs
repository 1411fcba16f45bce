//! `gnn-serve`: full-graph GNN aggregation served to independent users.
//! Open loop: Poisson arrivals from one submitting thread through
//! `try_submit` with a deadline at the latency limit; a second thread
//! collects replies. Requests are SpMM on the pubmed stand-in with
//! feature widths drawn from {16, 32, 64}; the engine tunes and batches.

use crate::inputs::{gnn_features, poisson_schedule, pubmed_standin, GNN_POOL, GNN_WIDTHS};
use crate::measure::{close, submit_error, wait_error, Checker, Outcome};
use crate::replay::{self, Window, Work};
use crate::trace::Tracer;
use crate::{
    counts_of, e2e_metrics, fresh_probes, record_request, replay_sample, trace_overhead, ReqRecord,
    ReqTimes, RunOpts, RunOutput,
};
use sparsetir_autotune::tune_op;
use sparsetir_engine::{Adjacency, Engine, EngineConfig, EngineError, Submission, Ticket};
use sparsetir_gpusim::prelude::GpuSpec;
use sparsetir_kernels::prelude::{prepare_spmm_structure, SpmmConfig, SpmmOp};
use sparsetir_smat::prelude::{Csr, Dense};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load: a fixed rate at about a third of the engine's batched
/// capacity on this workload (measured near 60 req/s on 2 vCPUs). Near
/// half capacity, queueing doubled run-to-run swings of the machine's
/// speed into the latency quantiles.
pub const RATE: f64 = 20.0;
/// Latency limit, also each request's deadline.
pub const LIMIT: Duration = Duration::from_millis(500);
/// The set-up request's width (index into `GNN_WIDTHS`); the engine
/// tunes once per adjacency, at this width.
const SETUP_WIDTH: usize = 1;
/// Answers may differ from `Csr::spmm` by reduction order only.
pub const TOL: f32 = 1e-3;
const WARMUP_ROUNDS: usize = 4;
const REPLAYS: usize = 40;

pub fn config() -> EngineConfig {
    EngineConfig { workers: 1, tune: true, max_batch: 8, ..EngineConfig::default() }
}

pub fn describe() -> String {
    format!(
        "open loop, Poisson {RATE} req/s, deadline = latency limit {} ms, widths {GNN_WIDTHS:?}; \
         engine {:?}",
        LIMIT.as_millis(),
        config()
    )
}

fn serve(engine: &Engine, adj: &Adjacency, x: Dense) -> Result<Dense, EngineError> {
    engine.submit(adj, Submission::spmm(x)).and_then(Ticket::wait)?.into_dense()
}

/// Engine construction to the first answer: `Adjacency::new`, the tuning
/// search and the first compile are all on this path.
fn setup(csr: Csr, x: Dense) -> Result<(Engine, Adjacency, f64, Dense), String> {
    let t = Instant::now();
    let engine = Engine::new(config());
    let adj = Adjacency::new(csr);
    let out = serve(&engine, &adj, x).map_err(|e| format!("set-up request failed: {e}"))?;
    Ok((engine, adj, t.elapsed().as_secs_f64(), out))
}

fn reference(a: &Csr, x: &Dense) -> Dense {
    a.spmm(x).expect("generated features match the adjacency")
}

pub fn setup_probe(seed: u64) -> Result<f64, String> {
    let csr = pubmed_standin(seed);
    let x = gnn_features(seed, csr.cols()).swap_remove(SETUP_WIDTH).swap_remove(0);
    let want = reference(&csr, &x);
    let (_engine, _adj, secs, out) = setup(csr, x)?;
    if !close(out.data(), want.data(), TOL) {
        return Err("set-up answer does not match Csr::spmm".into());
    }
    Ok(secs)
}

struct Sent {
    idx: usize,
    sched: Instant,
    submit: (Instant, Instant),
    res: Result<Ticket, EngineError>,
}

pub fn run(opts: &RunOpts) -> Result<RunOutput, String> {
    let csr = pubmed_standin(opts.seed);
    let feats = gnn_features(opts.seed, csr.cols());
    let mut refs: Vec<Vec<Dense>> =
        feats.iter().map(|ws| ws.iter().map(|x| reference(&csr, x)).collect()).collect();
    if opts.corrupt_reference {
        refs.iter_mut().flatten().for_each(|r| r.data_mut()[0] += 1.0);
    }
    let schedule = poisson_schedule(opts.seed, RATE, opts.seconds);
    let mut checker = Checker::default();
    let check = |c: &mut Checker, what: &str, got: &Dense, want: &Dense| {
        c.dense(what, got.data(), want.data(), TOL)
    };

    let (engine, adj, setup_s, out) = setup(csr.clone(), feats[SETUP_WIDTH][0].clone())?;
    check(&mut checker, "set-up request", &out, &refs[SETUP_WIDTH][0]);
    // Warm-up, outside the window: requests of every width, then compile
    // every stacked width a batch of up to `max_batch` riders can reach.
    // The set-up batch's execution estimate includes the tuning search;
    // the warm-up rounds let that estimate, which admission control
    // sheds by, settle to the steady state.
    for _ in 0..WARMUP_ROUNDS {
        for (w, xs) in feats.iter().enumerate() {
            let out = serve(&engine, &adj, xs[0].clone()).map_err(|e| format!("warm-up: {e}"))?;
            check(&mut checker, "warm-up request", &out, &refs[w][0]);
        }
    }
    let tuned = tune_op::<SpmmOp>(&GpuSpec::v100(), &csr, &[GNN_WIDTHS[SETUP_WIDTH]]).config;
    let widest = GNN_WIDTHS[GNN_WIDTHS.len() - 1] * config().max_batch;
    for feat in (GNN_WIDTHS[0]..=widest).step_by(GNN_WIDTHS[0]) {
        warm_width(&engine, &csr, feat, &tuned)?;
    }

    let tracer = Tracer::new(Instant::now());
    let tr = opts.trace.then_some(&tracer);
    let before = engine.stats();
    let compiled_before = engine.runtime().compilations();
    let start = Instant::now() + Duration::from_millis(20);
    let traced_from = Duration::from_secs_f64(opts.seconds / 2.0);
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let mut records = Vec::with_capacity(schedule.len());
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Sent>();
        let (engine, adj, feats, schedule) = (&engine, &adj, &feats, &schedule);
        let submitter = s.spawn(move || {
            let mut lags = Vec::with_capacity(schedule.len());
            for (idx, a) in schedule.iter().enumerate() {
                let x = feats[a.width][a.slot].clone();
                let sched = start + a.at;
                if let Some(wait) = sched.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let t0 = Instant::now();
                lags.push((t0 - sched).as_secs_f64() * 1e3);
                let res = engine.try_submit(adj, Submission::spmm(x).deadline(LIMIT));
                let sent = Sent { idx, sched, submit: (t0, Instant::now()), res };
                if tx.send(sent).is_err() {
                    break;
                }
            }
            lags
        });
        for sent in rx {
            let a = schedule[sent.idx];
            let req = sent.idx as u64 + 1;
            let traced = opts.trace && a.at >= traced_from;
            let (outcome, wait, done) = match sent.res {
                Err(e) => (submit_error(&e), None, sent.submit.1),
                Ok(ticket) => {
                    let w0 = Instant::now();
                    let res = ticket.wait().and_then(|o| o.into_dense());
                    let done = Instant::now();
                    let outcome = match res {
                        Ok(out) if check(&mut checker, "request", &out, &refs[a.width][a.slot]) => {
                            Outcome::Correct
                        }
                        Ok(_) => Outcome::Wrong,
                        Err(e) => wait_error(&e),
                    };
                    (outcome, Some((w0, done)), done)
                }
            };
            let times =
                ReqTimes { start: sent.sched, submit: sent.submit, wait, checked: Instant::now() };
            let span = traced.then(|| record_request(&tracer, req, &times));
            records.push(ReqRecord { req, start: sent.sched, done, outcome, traced, span });
        }
        lag_ms = submitter.join().expect("submitter thread panicked");
    });
    let after = engine.stats();
    let compiled_in_window = engine.runtime().compilations() - compiled_before;
    let counts = counts_of(&records);
    checker.problems.extend(counts.reconcile(&after.delta_since(&before)));

    let fresh_x = |k: usize| &feats[0][k % GNN_POOL];
    let freshness = fresh_probes(
        &engine,
        &adj,
        &csr,
        opts.seed,
        tr,
        |cur, k| serve(&engine, cur, fresh_x(k).clone()),
        |out, model, k| {
            let mut want = reference(model, fresh_x(k));
            if opts.corrupt_reference {
                want.data_mut()[0] += 1.0;
            }
            check(&mut checker, "fresh request", out, &want)
        },
    )?;

    let problems = checker.problems;
    let mut out = RunOutput { counts, problems, setup_s, ..RunOutput::default() };
    if !opts.trace {
        out.metrics =
            e2e_metrics(&records, start, Duration::from_secs_f64(opts.seconds), LIMIT, &freshness);
        let lag = crate::measure::sorted(lag_ms);
        if let Some(m) = out.metrics.0.iter_mut().find(|m| m.name == "throughput_rps") {
            m.note.push_str(&format!(
                "; generator lag p50 {:.3} ms, max {:.3} ms",
                crate::measure::quantile(&lag, 0.5),
                lag.last().copied().unwrap_or(0.0)
            ));
        }
        return Ok(out);
    }

    let mut work: Vec<Work> = Vec::new();
    for r in replay_sample(&records, REPLAYS) {
        let a = schedule[(r.req - 1) as usize];
        let span = r.span.expect("traced requests carry a span");
        let x = &feats[a.width][a.slot];
        work.push(
            replay::spmm(&tracer, engine.runtime(), &csr, x, &tuned, span, r.req)
                .map_err(|e| format!("replay: {e}"))?,
        );
    }
    let served = GNN_WIDTHS[SETUP_WIDTH];
    let (func, _) = prepare_spmm_structure(&csr, served, &replay::widened(&tuned, served))
        .map_err(|e| format!("build: {e}"))?;
    let cold_width = GNN_WIDTHS[GNN_WIDTHS.len() - 1];
    replay::probes(&tracer, engine.runtime(), &func, &csr, cold_width)
        .map_err(|e| format!("probe: {e}"))?;
    let window = Window { kind: "spmm", before, after, compilations: compiled_in_window };
    let mut notes = HashMap::new();
    notes.insert("engine.adjacency_new_ms", "probe: Adjacency::new on the pubmed stand-in".into());
    notes.insert("autotune.tune_ms", format!("cold tune_op::<SpmmOp> at width {cold_width}"));
    out.metrics = replay::layer_metrics(
        &tracer.spans(),
        &work,
        &engine,
        &window,
        trace_overhead(&records),
        &notes,
    );
    crate::note_trace(&mut out.metrics, &tracer, "gnn-serve", opts.seed);
    Ok(out)
}

/// Compile the kernel a batch of stacked width `feat` launches, so the
/// window sees only warm cache lookups.
fn warm_width(engine: &Engine, csr: &Csr, feat: usize, config: &SpmmConfig) -> Result<(), String> {
    let wide = replay::widened(config, feat);
    let (func, _) = prepare_spmm_structure(csr, feat, &wide).map_err(|e| format!("warm: {e}"))?;
    engine.runtime().compile(&func).map_err(|e| format!("warm: {e}"))?;
    Ok(())
}
