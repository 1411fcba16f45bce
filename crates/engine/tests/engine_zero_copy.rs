//! Zero-copy serving differential suite: widened launches that bind
//! every rider's operands and outputs as segmented views must be
//! bit-identical to per-request sequential serving — each request served
//! alone, one after another, on a fresh engine with `max_batch: 1`.
//! Cases cover widths 0, 1 and mixed, empty rows (random matrices produce
//! them by construction), 0-head attention riders, the batch-of-one
//! path, buffer-pool reuse and mid-drain expiry.

use proptest::prelude::*;
use sparsetir_engine::{
    Adjacency, Engine, EngineConfig, EngineError, Priority, RejectReason, Submission, Ticket,
};
use sparsetir_kernels::prelude::AttnHead;
use sparsetir_smat::prelude::*;
use std::time::Duration;

/// Strategy: a small random sparse matrix (dims 1..=max_dim, bounded
/// nnz — empty rows and columns appear often).
fn sparse_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(rows, cols)| {
        let total = rows * cols;
        proptest::collection::vec(
            (0..rows as u32, 0..cols as u32, 0.1f32..2.0f32),
            0..max_nnz.min(total),
        )
        .prop_map(move |entries| {
            let coo = Coo::from_entries(rows, cols, entries).expect("in-bounds");
            Csr::from_coo(&coo)
        })
    })
}

/// Strategy: 1..=6 feature widths drawn from {0, 1, 2..=7}.
fn request_widths() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(prop_oneof![Just(0usize), Just(1usize), 2usize..8], 1..7)
}

/// Strategy: per-request fused-attention shapes `(heads, k, vfeat)`,
/// 0-head requests included (they ride with any shape group).
fn fused_attn_shapes() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec(
        (prop_oneof![Just(0usize), Just(1usize), 2usize..4], 1usize..4, 1usize..4),
        1..5,
    )
}

/// The engine under test: two workers folding up to eight riders into
/// one widened view launch.
fn batched() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        queue_depth: 32,
        max_batch: 8,
        tune: false,
        batch_window: None,
        ..EngineConfig::default()
    })
}

/// The oracle: a fresh engine that never batches. Callers serve each
/// request to completion before submitting the next.
fn sequential() -> Engine {
    Engine::new(EngineConfig { workers: 1, max_batch: 1, ..EngineConfig::default() })
}

fn assert_dense_bits(got: &Dense, want: &Dense, tag: &str) -> Result<(), TestCaseError> {
    if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
        return Err(TestCaseError::fail(format!(
            "{tag}: shape {}x{} vs {}x{}",
            got.rows(),
            got.cols(),
            want.rows(),
            want.cols()
        )));
    }
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(TestCaseError::fail(format!("{tag}: elem {i}: {g} vs {w}")));
        }
    }
    Ok(())
}

fn assert_slice_bits(got: &[f32], want: &[f32], tag: &str) -> Result<(), TestCaseError> {
    if got.len() != want.len() {
        return Err(TestCaseError::fail(format!("{tag}: len {} vs {}", got.len(), want.len())));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(TestCaseError::fail(format!("{tag}: elem {i}: {g} vs {w}")));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SpMM: batched answers vs sequential serving, bit for bit, across
    /// widths 0/1/mixed.
    #[test]
    fn spmm_view_path_matches_sequential_serving(
        a in sparse_matrix(16, 48),
        widths in request_widths(),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = gen::rng(seed);
        let xs: Vec<Dense> =
            widths.iter().map(|&w| gen::random_dense(a.cols(), w, &mut rng)).collect();
        let adj = Adjacency::new(a);
        let engine = batched();
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| engine.submit(&adj, Submission::spmm(x.clone())).expect("submits"))
            .collect();
        let oracle = sequential();
        for (i, (t, x)) in tickets.into_iter().zip(&xs).enumerate() {
            let got = t.wait_dense().expect("batched engine answers");
            let want = oracle
                .submit(&adj, Submission::spmm(x.clone()))
                .and_then(Ticket::wait_dense)
                .expect("sequential engine answers");
            assert_dense_bits(&got, &want, &format!("request {i}"))?;
        }
    }

    /// SDDMM: mixed inner widths (compatible requests batch
    /// into one widened launch, incompatible ones dispatch alone) vs
    /// sequential serving, bit for bit.
    #[test]
    fn sddmm_view_path_matches_sequential_serving(
        a in sparse_matrix(12, 36),
        widths in request_widths(),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = gen::rng(seed);
        let reqs: Vec<(Dense, Dense)> = widths
            .iter()
            .map(|&k| {
                (gen::random_dense(a.rows(), k, &mut rng), gen::random_dense(k, a.cols(), &mut rng))
            })
            .collect();
        let adj = Adjacency::new(a);
        let engine = batched();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|(x, y)| {
                engine.submit(&adj, Submission::sddmm(x.clone(), y.clone())).expect("submits")
            })
            .collect();
        let oracle = sequential();
        for (i, (t, (x, y))) in tickets.into_iter().zip(&reqs).enumerate() {
            let got = t.wait_edges().expect("batched engine answers");
            let want = oracle
                .submit(&adj, Submission::sddmm(x.clone(), y.clone()))
                .and_then(Ticket::wait_edges)
                .expect("sequential engine answers");
            assert_slice_bits(&got, &want, &format!("request {i}"))?;
        }
    }

    /// Fused attention: mixed per-request head counts and `(k, vfeat)`
    /// shapes, 0-head riders included, batched vs sequential serving,
    /// bit for bit.
    #[test]
    fn fused_attention_view_path_matches_sequential_serving(
        a in sparse_matrix(12, 36),
        shapes in fused_attn_shapes(),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = gen::rng(seed);
        let reqs: Vec<Vec<AttnHead>> = shapes
            .iter()
            .map(|&(heads, k, vfeat)| {
                (0..heads)
                    .map(|_| AttnHead {
                        q: gen::random_dense(a.rows(), k, &mut rng),
                        kt: gen::random_dense(k, a.cols(), &mut rng),
                        v: gen::random_dense(a.cols(), vfeat, &mut rng),
                    })
                    .collect()
            })
            .collect();
        let adj = Adjacency::new(a);
        let engine = batched();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|heads| {
                engine.submit(&adj, Submission::fused_attention(heads.clone())).expect("submits")
            })
            .collect();
        let oracle = sequential();
        for (i, (t, heads)) in tickets.into_iter().zip(&reqs).enumerate() {
            let got = t.wait_heads().expect("batched engine answers");
            let want = oracle
                .submit(&adj, Submission::fused_attention(heads.clone()))
                .and_then(Ticket::wait_heads)
                .expect("sequential engine answers");
            prop_assert_eq!(got.len(), want.len());
            for (h, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_dense_bits(g, w, &format!("request {i} head {h}"))?;
            }
        }
    }

    /// Multi-head (unfused) attention: per-request head lists batch
    /// column-wise across requests; batched vs sequential serving, bit
    /// for bit.
    #[test]
    fn attention_view_path_matches_sequential_serving(
        a in sparse_matrix(12, 36),
        heads_per_req in proptest::collection::vec(
            prop_oneof![Just(0usize), Just(1usize), 2usize..4], 1..5),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = gen::rng(seed);
        let reqs: Vec<Vec<Dense>> = heads_per_req
            .iter()
            .map(|&h| (0..h).map(|_| gen::random_dense(a.cols(), 1 + (h % 4), &mut rng)).collect())
            .collect();
        let adj = Adjacency::new(a);
        let engine = batched();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|heads| {
                engine.submit(&adj, Submission::attention(heads.clone())).expect("submits")
            })
            .collect();
        let oracle = sequential();
        for (i, (t, heads)) in tickets.into_iter().zip(&reqs).enumerate() {
            let got = t.wait_heads().expect("batched engine answers");
            let want = oracle
                .submit(&adj, Submission::attention(heads.clone()))
                .and_then(Ticket::wait_heads)
                .expect("sequential engine answers");
            prop_assert_eq!(got.len(), want.len());
            for (h, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_dense_bits(g, w, &format!("request {i} head {h}"))?;
            }
        }
    }
}

/// Deterministically force a widened batch: occupy the single worker
/// with a heavy job, queue `riders` compatible requests behind it, and
/// return the engine, the rider adjacency, operands and answers once
/// everything answered.
fn run_forced_batch(riders: usize) -> (Engine, Adjacency, Vec<Dense>, Vec<Dense>) {
    let mut rng = gen::rng(0x2c0);
    let heavy_adj = Adjacency::new(gen::random_csr(512, 512, 0.1, &mut rng));
    let heavy_x = gen::random_dense(512, 128, &mut rng);
    let small = gen::random_csr(24, 24, 0.3, &mut rng);
    let adj = Adjacency::new(small);
    let xs: Vec<Dense> = (0..riders).map(|i| gen::random_dense(24, 2 + i, &mut rng)).collect();

    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_depth: 32,
        max_batch: 8,
        tune: false,
        batch_window: None,
        ..EngineConfig::default()
    });
    let heavy = engine.submit(&heavy_adj, Submission::spmm(heavy_x)).expect("heavy admits");
    // Let the idle worker pop the heavy job so the riders queue up
    // behind it and drain as one widened dispatch.
    std::thread::sleep(Duration::from_millis(20));
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| engine.submit(&adj, Submission::spmm(x.clone())).expect("rider admits"))
        .collect();
    heavy.wait_dense().expect("heavy job serves");
    let outs: Vec<Dense> =
        tickets.into_iter().map(|t| t.wait_dense().expect("rider serves")).collect();
    (engine, adj, xs, outs)
}

/// A forced *batched* SpMM launch answers every rider exactly like
/// serving it alone.
#[test]
fn forced_batch_matches_sequential_serving() {
    let (engine, adj, xs, outs) = run_forced_batch(4);
    let stats = engine.stats();
    assert!(stats.max_batch >= 2, "riders must have shared a widened launch: {stats:?}");
    let oracle = sequential();
    for (i, (x, out)) in xs.iter().zip(&outs).enumerate() {
        let want = oracle
            .submit(&adj, Submission::spmm(x.clone()))
            .and_then(Ticket::wait_dense)
            .expect("sequential engine answers");
        assert_eq!((out.rows(), out.cols()), (24, x.cols()));
        assert!(
            out.data().iter().zip(want.data()).all(|(g, w)| g.to_bits() == w.to_bits()),
            "rider {i} differs from sequential serving"
        );
    }
}

/// Batch-of-one fast path: a lone request of every batchable kind runs
/// end to end — single-segment views bind the caller's buffers directly.
#[test]
fn batch_of_one_serves_every_batchable_kind() {
    let mut rng = gen::rng(0x2c1);
    let a = gen::random_csr(32, 32, 0.25, &mut rng);
    let adj = Adjacency::new(a);
    let engine = batched();

    let x = gen::random_dense(32, 5, &mut rng);
    engine.serve(&adj, Submission::spmm(x)).expect("spmm serves");

    let (sx, sy) = (gen::random_dense(32, 3, &mut rng), gen::random_dense(3, 32, &mut rng));
    engine.serve(&adj, Submission::sddmm(sx, sy)).expect("sddmm serves");

    let heads = vec![AttnHead {
        q: gen::random_dense(32, 3, &mut rng),
        kt: gen::random_dense(3, 32, &mut rng),
        v: gen::random_dense(32, 4, &mut rng),
    }];
    engine.serve(&adj, Submission::fused_attention(heads)).expect("fused attention serves");

    let stats = engine.stats();
    assert_eq!(stats.completed, 3, "all three singleton requests answered: {stats:?}");
    assert_eq!(stats.max_batch, 1, "every request dispatched alone: {stats:?}");
}

/// Scratch buffers for the fused-attention pipeline come from the
/// runtime's size-classed pool: serving the same shape twice must hit
/// the pool on the second round.
#[test]
fn repeated_serving_hits_the_buffer_pool() {
    let mut rng = gen::rng(0x2c2);
    let a = gen::random_csr(32, 32, 0.25, &mut rng);
    let adj = Adjacency::new(a);
    let engine = batched();
    for _ in 0..3 {
        let heads = vec![AttnHead {
            q: gen::random_dense(32, 3, &mut rng),
            kt: gen::random_dense(3, 32, &mut rng),
            v: gen::random_dense(32, 4, &mut rng),
        }];
        engine.serve(&adj, Submission::fused_attention(heads)).expect("serves");
    }
    let stats = engine.stats();
    assert!(stats.pool_misses > 0, "first round must allocate: {stats:?}");
    assert!(stats.pool_hits > 0, "later rounds must reuse pooled scratch: {stats:?}");
}

/// Mid-drain expiry on the view path: a victim whose deadline lapses
/// while the worker grinds a heavy job is swept before dispatch — its
/// live rider still batches and answers, the victim's output buffer is
/// never assembled or written (no launch of its kind beyond the rider's),
/// and the answer is `Rejected { Expired }`.
#[test]
fn expired_victim_is_swept_without_writing_its_buffer() {
    let mut rng = gen::rng(0x2c3);
    let heavy_adj = Adjacency::new(gen::random_csr(1024, 1024, 0.15, &mut rng));
    let heavy_x = gen::random_dense(1024, 256, &mut rng);
    let small = gen::random_csr(24, 24, 0.3, &mut rng);
    let adj = Adjacency::new(small.clone());
    let victim_x = gen::random_dense(24, 3, &mut rng);
    let rider_x = gen::random_dense(24, 4, &mut rng);

    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_depth: 16,
        max_batch: 8,
        tune: false,
        batch_window: None,
        ..EngineConfig::default()
    });
    let heavy = engine.submit(&heavy_adj, Submission::spmm(heavy_x)).expect("heavy admits");
    std::thread::sleep(Duration::from_millis(10));
    // The victim's deadline is far shorter than the heavy job's runtime,
    // so it expires in the queue; the rider has no deadline and drains.
    let victim = engine
        .submit(&adj, Submission::spmm(victim_x).deadline(Duration::from_millis(1)))
        .expect("victim admits while its deadline is still open");
    let rider = engine.submit(&adj, Submission::spmm(rider_x)).expect("rider admits");

    let res = victim.wait();
    assert!(
        matches!(res, Err(EngineError::Rejected { reason: RejectReason::Expired })),
        "expired victim must answer Rejected {{ Expired }}, got {res:?}"
    );
    heavy.wait_dense().expect("heavy still serves");
    rider.wait_dense().expect("live rider still serves");

    let stats = engine.stats();
    assert_eq!(stats.expired, 1, "exactly the victim expired: {stats:?}");
    assert_eq!(stats.completed, 2, "heavy + rider answered: {stats:?}");
    assert_eq!(stats.priority(Priority::Normal).expired, 1);
    // The victim never reached assembly: every recorded SpMM dispatch is
    // a singleton (heavy, then the rider alone after the sweep).
    let w = stats.widths_of("spmm").expect("spmm dispatched");
    assert_eq!(w.max_width, 1, "the swept victim must not widen any launch: {stats:?}");
    assert_eq!(w.batches, 2, "heavy + rider dispatched exactly once each: {stats:?}");
}
