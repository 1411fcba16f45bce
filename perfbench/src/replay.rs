//! The traced per-layer breakdown. The engine runs a batch internally,
//! where the benchmark cannot see it; so after the window, the launch of
//! each sampled request is replayed outside the engine through the same
//! public functions, on the engine's warm runtime, under the span of the
//! request it served. Each replayed call is its own span, so the layers'
//! spans are separate re-executions, not a partition of the request.

use crate::measure::{mean, Metrics};
use crate::trace::{mean_secs, self_times, Span, SpanId, Tracer};
use sparsetir_autotune::tune_op;
use sparsetir_core::prelude::{
    bind_csr, fused_attention_program, lower, sparse_fuse, spmm_program,
};
use sparsetir_engine::{Adjacency, Engine, EngineStats};
use sparsetir_gpusim::prelude::GpuSpec;
use sparsetir_ir::prelude::{ColsView, PrimFunc, RowsView, Runtime, TensorData, ViewBindings};
use sparsetir_kernels::prelude::{
    fused_attention_ir, fused_attention_views_on, prepare_spmm_structure, spmm_execute_views_on,
    AttnHead, SpmmConfig, SpmmOp,
};
use sparsetir_smat::prelude::{Csr, Dense};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Work a replayed request represents, computed from operand sizes (not
/// measured): multiply-adds and compulsory bytes moved.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub fmas: f64,
    pub bytes: f64,
}

fn csr_bytes(a: &Csr) -> f64 {
    ((a.rows() + 1) * 8 + a.nnz() * 8) as f64
}

/// The configuration `spmm_execute_views_on` launches at stacked width
/// `feat`: it widens the schedule's vector split to span the width. The
/// replay and the warm-up mirror it so their IR is the served one.
pub fn widened(config: &SpmmConfig, feat: usize) -> SpmmConfig {
    let mut wide = *config;
    wide.params.vec_width = config.params.vec_width.max(feat.div_ceil(8));
    wide
}

/// Replay one SpMM request of the engine: the monolithic launch, then the
/// pieces it is made of (IR build, lowering, IR fingerprint, warm cache
/// lookup, executor run), then the native loop on the same operands.
pub fn spmm(
    tr: &Tracer,
    rt: &Runtime,
    a: &Csr,
    x: &Dense,
    config: &SpmmConfig,
    parent: SpanId,
    req: u64,
) -> Res<Work> {
    let id = tr.reserve();
    let p = Some(id);
    let start = Instant::now();
    let feat = x.cols();
    let mut outs = vec![Dense::zeros(a.rows(), feat)];
    tr.time("kernels.launch", p, req, || spmm_execute_views_on(rt, a, &[x], &mut outs, config))?;
    let wide = widened(config, feat);
    let (func, mut structure) =
        tr.time("kernels.build_ir", p, req, || prepare_spmm_structure(a, feat, &wide))?;
    let program = spmm_program(a.rows(), a.cols(), a.nnz(), feat);
    tr.time("core.lower", p, req, || lower(&program))?;
    tr.time("ir.fingerprint", p, req, || Runtime::fingerprint(&func));
    let kernel = tr.time("ir.cache_hit", p, req, || rt.compile(&func))?;
    let mut out = Dense::zeros(a.rows(), feat);
    {
        let b_segs = [(x.data(), feat)];
        let mut views = ViewBindings::from_tensors(&mut structure);
        views.bind_cols("B", ColsView::read(a.cols(), &b_segs)?);
        views.bind_cols("C", ColsView::write(a.rows(), vec![(out.data_mut(), feat)])?);
        tr.time("ir.run", p, req, || kernel.run_views(&HashMap::new(), &mut views))?;
    }
    tr.time("smat.native", p, req, || a.spmm(x))?;
    tr.record_as(id, "bench.replay", start, Instant::now(), Some(parent), req);
    let fmas = (a.nnz() * feat) as f64;
    let bytes = csr_bytes(a) + ((a.cols() + a.rows()) * feat * 4) as f64;
    Ok(Work { fmas, bytes })
}

/// Native sparse attention for one head: `Csr::sddmm` scores, a row
/// softmax, then `Csr::spmm` aggregation.
pub fn native_attention_head(a: &Csr, h: &AttnHead) -> Res<Dense> {
    let mut scores = a.sddmm(&h.q, &h.kt)?;
    let indptr = scores.indptr().to_vec();
    let vals = scores.values_mut();
    for r in 0..indptr.len() - 1 {
        let row = &mut vals[indptr[r]..indptr[r + 1]];
        let max = row.iter().copied().fold(f32::MIN, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Ok(scores.spmm(&h.v)?)
}

/// Replay one fused-attention request: the view launch the engine runs,
/// its IR build, lowering, fingerprint, warm lookup and executor run, and
/// the native SDDMM + softmax + SpMM per head.
pub fn attention(
    tr: &Tracer,
    rt: &Runtime,
    a: &Csr,
    heads: &[AttnHead],
    parent: SpanId,
    req: u64,
) -> Res<Work> {
    let id = tr.reserve();
    let p = Some(id);
    let start = Instant::now();
    let n = heads.len();
    let (k, vf) = (heads[0].q.cols(), heads[0].v.cols());
    let qs: Vec<&Dense> = heads.iter().map(|h| &h.q).collect();
    let kts: Vec<&Dense> = heads.iter().map(|h| &h.kt).collect();
    let vs: Vec<&Dense> = heads.iter().map(|h| &h.v).collect();
    let mut outs: Vec<Dense> = heads.iter().map(|_| Dense::zeros(a.rows(), vf)).collect();
    tr.time("kernels.launch", p, req, || {
        fused_attention_views_on(rt, a, &qs, &kts, &vs, &mut outs)
    })?;
    let func = tr.time("kernels.build_ir", p, req, || fused_attention_ir(a, n, k, vf))?;
    let mut program = fused_attention_program(a.rows(), a.cols(), a.nnz(), n, k, vf);
    for pass in ["score", "rowmax", "expsum", "agg"] {
        sparse_fuse(&mut program, pass, &["I", "J"])?;
    }
    tr.time("core.lower", p, req, || lower(&program))?;
    tr.time("ir.fingerprint", p, req, || Runtime::fingerprint(&func));
    let kernel = tr.time("ir.cache_hit", p, req, || rt.compile(&func))?;
    let mut b = HashMap::new();
    bind_csr(&mut b, "A", "J", a);
    for (name, len) in
        [("S", a.nnz() * n), ("M", a.rows() * n), ("P", a.nnz() * n), ("Sum", a.rows() * n)]
    {
        b.insert(name.to_string(), TensorData::from(vec![0.0f32; len]));
    }
    let q_segs: Vec<(&[f32], usize)> = qs.iter().map(|q| (q.data(), k)).collect();
    let kt_segs: Vec<&[f32]> = kts.iter().map(|t| t.data()).collect();
    let v_segs: Vec<(&[f32], usize)> = vs.iter().map(|v| (v.data(), vf)).collect();
    let mut outs: Vec<Dense> = heads.iter().map(|_| Dense::zeros(a.rows(), vf)).collect();
    {
        let mut views = ViewBindings::from_tensors(&mut b);
        views.bind_cols("Q", ColsView::read(a.rows(), &q_segs)?);
        views.bind_rows("KT", RowsView::read(k * a.cols(), &kt_segs)?);
        views.bind_cols("V", ColsView::read(a.cols(), &v_segs)?);
        let out_segs = outs.iter_mut().map(|o| (o.data_mut(), vf)).collect();
        views.bind_cols("Out", ColsView::write(a.rows(), out_segs)?);
        tr.time("ir.run", p, req, || kernel.run_views(&HashMap::new(), &mut views))?;
    }
    tr.time("smat.native", p, req, || {
        heads.iter().map(|h| native_attention_head(a, h)).collect::<Res<Vec<_>>>()
    })?;
    tr.record_as(id, "bench.replay", start, Instant::now(), Some(parent), req);
    let per_head = (a.nnz() * (k + vf)) as f64;
    let dense = ((a.rows() * k + k * a.cols() + a.cols() * vf + a.rows() * vf) * 4) as f64;
    Ok(Work { fmas: per_head * n as f64, bytes: csr_bytes(a) + dense * n as f64 })
}

/// Per-run probes of calls that happen once per graph or shape rather
/// than once per request: a cold compile of the served kernel `func` on
/// a fresh runtime, a cold SpMM tuning search on `a` at a width nothing
/// has tuned yet, and wrapping `a` as an adjacency.
pub fn probes(
    tr: &Tracer,
    rt: &Runtime,
    func: &PrimFunc,
    a: &Csr,
    cold_tune_width: usize,
) -> Res<()> {
    for _ in 0..3 {
        let fresh = Runtime::with_fusion(rt.fusion());
        tr.time("ir.compile_cold", None, 0, || fresh.compile(func))?;
    }
    let tuned = tr.time("autotune.tune", None, 0, || {
        tune_op::<SpmmOp>(&GpuSpec::v100(), a, &[cold_tune_width])
    });
    if tuned.from_cache {
        return Err(format!("tune probe at width {cold_tune_width} hit the cache").into());
    }
    for _ in 0..3 {
        let copy = a.clone();
        tr.time("engine.adjacency_new", None, 0, || Adjacency::new(copy));
    }
    Ok(())
}

/// Engine counters around the timed window.
pub struct Window {
    pub kind: &'static str,
    pub before: EngineStats,
    pub after: EngineStats,
    /// Kernels compiled during the window.
    pub compilations: usize,
}

/// Assemble every per-layer metric from the spans and counts.
pub fn layer_metrics(
    spans: &[Span],
    work: &[Work],
    engine: &Engine,
    window: &Window,
    overhead: f64,
    notes: &HashMap<&'static str, String>,
) -> Metrics {
    let mut m = Metrics::default();
    let replayed: HashSet<u64> =
        spans.iter().filter(|s| s.name == "bench.replay").map(|s| s.req).collect();
    let n_rep = replayed.len().max(1) as f64;
    let note = |k: &str, dflt: String| notes.get(k).cloned().unwrap_or(dflt);
    let timed = |m: &mut Metrics, metric: &str, span: &str, scale: f64, unit| {
        let (secs, n) = mean_secs(spans, span);
        let v = if n == 0 { 0.0 } else { secs * scale };
        let dflt = if n == 0 { "absent: never called".into() } else { format!("mean of {n}") };
        m.push_noted(metric, v, unit, note(metric, dflt));
    };
    timed(&mut m, "engine.submit_us", "engine.submit", 1e6, "us");
    timed(&mut m, "engine.wait_ms", "engine.wait", 1e3, "ms");
    // Queue: each replayed request's wait minus its replayed launch.
    let per_req = |name: &str| -> HashMap<u64, f64> {
        spans.iter().filter(|s| s.name == name).map(|s| (s.req, s.dur_ns() as f64 / 1e6)).collect()
    };
    let (waits, launches) = (per_req("engine.wait"), per_req("kernels.launch"));
    let queue: Vec<f64> =
        launches.iter().filter_map(|(r, l)| waits.get(r).map(|w| (w - l).max(0.0))).collect();
    m.push_noted(
        "engine.queue_ms",
        mean(&queue),
        "ms",
        format!(
            "mean of {} replayed requests; the replayed launch is the request alone",
            queue.len()
        ),
    );
    let d = window.after.delta_since(&window.before);
    m.push_noted(
        "engine.batch_width_mean",
        crate::measure::batch_width_mean(&window.before, &window.after, window.kind),
        "count",
        format!("{} batches", d.batches),
    );
    m.push("engine.shed", d.rejected as f64, "count");
    m.push("engine.expired", d.expired as f64, "count");
    m.push("engine.queue_high_water", window.after.queue_high_water as f64, "count");
    timed(&mut m, "engine.adjacency_new_ms", "engine.adjacency_new", 1e3, "ms");
    timed(&mut m, "engine.apply_delta_ms", "engine.apply_delta", 1e3, "ms");
    timed(&mut m, "autotune.tune_ms", "autotune.tune", 1e3, "ms");
    let (hits, lookups) =
        (engine.tune_cache().hits(), engine.tune_cache().hits() + engine.tune_cache().misses());
    m.push_noted(
        "autotune.cache_hit_rate",
        if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        "ratio",
        note("autotune.cache_hit_rate", format!("{hits} hits / {lookups} lookups since set-up")),
    );
    timed(&mut m, "kernels.build_ir_ms", "kernels.build_ir", 1e3, "ms");
    timed(&mut m, "kernels.launch_ms", "kernels.launch", 1e3, "ms");
    let (launch, _) = mean_secs(spans, "kernels.launch");
    let (run, _) = mean_secs(spans, "ir.run");
    let (native, _) = mean_secs(spans, "smat.native");
    m.push("kernels.launch_overhead_ms", (launch - run) * 1e3, "ms");
    timed(&mut m, "core.lower_ms", "core.lower", 1e3, "ms");
    timed(&mut m, "ir.fingerprint_us", "ir.fingerprint", 1e6, "us");
    timed(&mut m, "ir.compile_cold_ms", "ir.compile_cold", 1e3, "ms");
    timed(&mut m, "ir.cache_hit_us", "ir.cache_hit", 1e6, "us");
    timed(&mut m, "ir.run_ms", "ir.run", 1e3, "ms");
    let fmas = mean(&work.iter().map(|w| w.fmas).collect::<Vec<_>>());
    let bytes = mean(&work.iter().map(|w| w.bytes).collect::<Vec<_>>());
    let computed = "computed from operand sizes, not measured".to_string();
    m.push_noted("ir.fma_count", fmas, "count", computed.clone());
    m.push_noted("ir.bytes_moved", bytes, "bytes", computed);
    m.push("ir.ns_per_fma", if fmas > 0.0 { run * 1e9 / fmas } else { 0.0 }, "ns/FMA");
    m.push("ir.executor_over_native", if native > 0.0 { run / native } else { 0.0 }, "ratio");
    m.push("ir.compilations", window.compilations as f64, "count");
    m.push("ir.kernels_cached", engine.runtime().cached() as f64, "count");
    let pool = d.pool_hits + d.pool_misses;
    m.push_noted(
        "ir.pool_hit_rate",
        if pool == 0 { 0.0 } else { d.pool_hits as f64 / pool as f64 },
        "ratio",
        format!("{} hits / {pool} acquisitions", d.pool_hits),
    );
    timed(&mut m, "smat.native_ms", "smat.native", 1e3, "ms");
    timed(&mut m, "smat.apply_delta_ms", "smat.apply_delta", 1e3, "ms");
    // Self time per layer, per replayed request.
    let selfs = self_times(spans);
    for layer in ["bench", "engine", "kernels", "core", "ir", "smat"] {
        let total: u64 = spans
            .iter()
            .filter(|s| replayed.contains(&s.req) && s.layer() == layer)
            .map(|s| selfs[&s.id])
            .sum();
        m.push_noted(
            &format!("self.{layer}_ms"),
            total as f64 / 1e6 / n_rep,
            "ms",
            format!("per replayed request ({} requests)", replayed.len()),
        );
    }
    m.push_noted(
        "trace.overhead_p50_share",
        overhead,
        "ratio",
        "traced half's latency p50 over the untraced half's, minus 1".into(),
    );
    m.push("trace.spans", spans.len() as f64, "count");
    m
}
