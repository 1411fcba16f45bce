//! Seeded input generation. Every workload input comes from `--seed`
//! through these functions; the engine receives only what they return.

use rand::rngs::SmallRng;
use rand::Rng;
use sparsetir_graphs::prelude::{band_mask, butterfly_mask, graph_by_name};
use sparsetir_kernels::prelude::AttnHead;
use sparsetir_smat::prelude::{gen, Coo, Csr, Dense, GraphDelta};
use std::time::Duration;

/// An independent generator for one input stream of a workload, so that
/// changing one stream (say, the arrival schedule) leaves the others as
/// they were.
pub fn stream(seed: u64, tag: u64) -> SmallRng {
    gen::rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

// ---------------------------------------------------------------------------
// gnn-serve
// ---------------------------------------------------------------------------

/// Feature widths of `gnn-serve` requests.
pub const GNN_WIDTHS: [usize; 3] = [16, 32, 64];
/// Distinct feature matrices generated per width.
pub const GNN_POOL: usize = 3;

/// The pubmed stand-in (19.7k nodes, ~78k non-zeros, power-law degrees)
/// with its nodes relabelled by a seeded permutation: each seed serves a
/// different matrix with the same degree distribution, so the work (and
/// the tuning decision, which keys on the degree histogram) is the same
/// for every seed.
pub fn pubmed_standin(seed: u64) -> Csr {
    let a = graph_by_name("pubmed").expect("pubmed is a Table 1 graph").generate();
    let perm = shuffled(&mut stream(seed, 0), a.rows());
    let mut coo = Coo::new(a.rows(), a.cols());
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            coo.push(perm[r] as u32, perm[c as usize] as u32, v);
        }
    }
    Csr::from_coo(&coo)
}

/// `0..n` in a seeded order.
pub fn shuffled(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

/// `GNN_POOL` feature matrices (`rows × width`) per width of
/// [`GNN_WIDTHS`].
pub fn gnn_features(seed: u64, rows: usize) -> Vec<Vec<Dense>> {
    let mut rng = stream(seed, 1);
    GNN_WIDTHS
        .iter()
        .map(|&w| (0..GNN_POOL).map(|_| gen::random_dense(rows, w, &mut rng)).collect())
        .collect()
}

/// One open-loop arrival: when it is due and which pooled operand it
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub at: Duration,
    pub width: usize,
    pub slot: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`, conditioned on
/// their count in each whole second: every second receives `rate`
/// arrivals at uniform times (a Poisson process given its count), so
/// every seed offers the same load without long-range bursts. Widths are
/// dealt in equal shares in a seeded order, so every seed offers the
/// same mix.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = stream(seed, 2);
    let n = (rate * seconds).round().max(1.0) as usize;
    let per_bin = rate.round().max(1.0) as usize;
    let mut times: Vec<f64> = (0..n)
        .map(|i| {
            let lo = (i / per_bin) as f64;
            rng.gen_range(lo..(lo + 1.0).min(seconds).max(lo + 1e-9))
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let order = shuffled(&mut rng, n);
    times
        .into_iter()
        .zip(order)
        .map(|(t, k)| Arrival {
            at: Duration::from_secs_f64(t),
            width: k % GNN_WIDTHS.len(),
            slot: rng.gen_range(0..GNN_POOL),
        })
        .collect()
}

/// A small seeded edit of `a`: `ops` edge upserts and deletes.
pub fn edge_delta(rng: &mut SmallRng, a: &Csr, ops: usize) -> GraphDelta {
    let mut d = GraphDelta::new();
    for _ in 0..ops {
        let r = rng.gen_range(0..a.rows());
        let (cols, _) = a.row(r);
        if !cols.is_empty() && rng.gen_bool(0.5) {
            d.delete(r as u32, cols[rng.gen_range(0..cols.len())]);
        } else {
            let c = rng.gen_range(0..a.cols()) as u32;
            d.upsert(r as u32, c, rng.gen_range(0.1f32..1.0));
        }
    }
    d
}

// ---------------------------------------------------------------------------
// attention-batch
// ---------------------------------------------------------------------------

/// Per-head query/key width and value width of attention requests.
pub const ATTN_HEAD_DIM: usize = 8;
/// Distinct requests generated per mask.
pub const ATTN_POOL: usize = 6;

/// The two attention masks: a Longformer band over 1024 tokens and a
/// Pixelated Butterfly mask over 512. Their sizes are fixed so every
/// seed offers the same work; the seed varies the operands and the
/// request order.
pub fn attention_masks() -> Vec<Csr> {
    vec![band_mask(1024, 8), butterfly_mask(512, 2)]
}

/// `ATTN_POOL` requests per mask; head counts cycle through 2, 3 and 4.
pub fn attention_requests(seed: u64, masks: &[Csr]) -> Vec<Vec<Vec<AttnHead>>> {
    let mut rng = stream(seed, 4);
    masks
        .iter()
        .map(|m| {
            (0..ATTN_POOL)
                .map(|i| {
                    (0..2 + i % 3)
                        .map(|_| AttnHead {
                            q: gen::random_dense(m.rows(), ATTN_HEAD_DIM, &mut rng),
                            kt: gen::random_dense(ATTN_HEAD_DIM, m.cols(), &mut rng),
                            v: gen::random_dense(m.cols(), ATTN_HEAD_DIM, &mut rng),
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The request order of one closed-loop client: `(mask, pool slot)`
/// pairs, cycled for as long as the window lasts.
pub fn attention_order(seed: u64, client: u64, masks: usize) -> Vec<(usize, usize)> {
    let mut rng = stream(seed, 5 + client);
    (0..512).map(|_| (rng.gen_range(0..masks), rng.gen_range(0..ATTN_POOL))).collect()
}

// ---------------------------------------------------------------------------
// minibatch-stream
// ---------------------------------------------------------------------------

/// One step of the minibatch stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOp {
    /// Start serving a freshly sampled subgraph.
    Subgraph(Csr),
    /// An SpMM query on the live subgraph.
    Query(Dense),
    /// An edge update of the live subgraph.
    Delta(GraphDelta),
}

/// The endless, seeded op stream of `minibatch-stream`: each sampled
/// subgraph (64–256 nodes, fan-out 1–8 per row) is served 2–4 SpMM
/// queries (feature width 4–16), with edge updates interleaved between
/// them; every update is followed by at least one query.
pub struct OpStream {
    rng: SmallRng,
    pending: std::collections::VecDeque<StreamOp>,
}

impl OpStream {
    pub fn new(seed: u64) -> OpStream {
        OpStream { rng: stream(seed, 6), pending: std::collections::VecDeque::new() }
    }

    fn refill(&mut self) {
        let rng = &mut self.rng;
        let n = rng.gen_range(64..257usize);
        let sub = gen::random_csr_with_row_lengths(n, n, |r| r.gen_range(1..9usize), rng);
        let query = |rng: &mut SmallRng| {
            let d = rng.gen_range(4..17usize);
            StreamOp::Query(gen::random_dense(n, d, rng))
        };
        let first = query(rng);
        let mut ops = vec![first];
        for _ in 1..rng.gen_range(2..5usize) {
            if rng.gen_bool(0.5) {
                let k = rng.gen_range(4..17usize);
                ops.push(StreamOp::Delta(edge_delta(rng, &sub, k)));
            }
            ops.push(query(rng));
        }
        self.pending.push_back(StreamOp::Subgraph(sub));
        self.pending.extend(ops);
    }
}

impl Iterator for OpStream {
    type Item = StreamOp;

    fn next(&mut self) -> Option<StreamOp> {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetir_engine::Adjacency;

    fn fingerprints(seed: u64) -> Vec<u64> {
        let mut fps = vec![Adjacency::new(pubmed_standin(seed)).fingerprint()];
        fps.extend(OpStream::new(seed).take(200).filter_map(|op| match op {
            StreamOp::Subgraph(c) => Some(Adjacency::new(c).fingerprint()),
            _ => None,
        }));
        fps
    }

    fn op_sequence(seed: u64) -> (Vec<Arrival>, Vec<(usize, usize)>, Vec<StreamOp>) {
        (
            poisson_schedule(seed, 20.0, 5.0),
            attention_order(seed, 0, 2),
            OpStream::new(seed).take(200).collect(),
        )
    }

    fn attention_operands(seed: u64) -> Vec<f32> {
        attention_requests(seed, &attention_masks())
            .into_iter()
            .flatten()
            .flatten()
            .flat_map(|h| h.q.data().to_vec())
            .collect()
    }

    #[test]
    fn one_seed_reproduces_fingerprints_and_op_sequences() {
        assert_eq!(fingerprints(7), fingerprints(7));
        assert_eq!(op_sequence(7), op_sequence(7));
        let (a, b) = (gnn_features(7, 50), gnn_features(7, 50));
        assert!(a.iter().flatten().zip(b.iter().flatten()).all(|(x, y)| x == y));
        assert_eq!(attention_operands(7), attention_operands(7));
    }

    #[test]
    fn another_seed_changes_fingerprints_and_op_sequences() {
        let (fa, fb) = (fingerprints(7), fingerprints(8));
        assert_ne!(fa[0], fb[0], "pubmed stand-in must depend on the seed");
        assert_ne!(fa, fb);
        let (sa, sb) = (op_sequence(7), op_sequence(8));
        assert_ne!(sa.0, sb.0);
        assert_ne!(sa.1, sb.1);
        assert_ne!(sa.2, sb.2);
        assert_ne!(attention_operands(7), attention_operands(8));
    }

    #[test]
    fn seeds_relabel_the_graph_but_keep_its_degrees() {
        let (a, b) = (pubmed_standin(1), pubmed_standin(2));
        assert_ne!(a, b);
        assert_eq!(a.nnz(), b.nnz());
        assert_eq!(a.degree_histogram_log2(), b.degree_histogram_log2());
    }

    #[test]
    fn schedule_offers_a_fixed_count_in_order() {
        let s = poisson_schedule(3, 20.0, 10.0);
        assert_eq!(s.len(), 200);
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(s.last().is_some_and(|a| a.at < Duration::from_secs(10)));
        for w in 0..GNN_WIDTHS.len() {
            let share = s.iter().filter(|a| a.width == w).count();
            assert!(share.abs_diff(200 / GNN_WIDTHS.len()) <= 1);
        }
    }

    #[test]
    fn every_stream_delta_is_followed_by_a_query() {
        let ops: Vec<StreamOp> = OpStream::new(11).take(500).collect();
        for w in ops.windows(2) {
            if matches!(w[0], StreamOp::Delta(_)) {
                assert!(matches!(w[1], StreamOp::Query(_)));
            }
        }
    }
}
