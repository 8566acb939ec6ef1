//! Mint — quasi-streaming game-theoretic partitioning (Hua et al.,
//! TPDS 2019), reimplemented from its published description (the original
//! code is closed-source; see DESIGN.md §4).
//!
//! Edges are ingested in batches; within a batch each edge is a player that
//! best-responds by choosing the partition minimizing
//! `new_replicas(e → p) + α · balance(p)`, iterating to a (batch-local) Nash
//! equilibrium. Batches are grouped into *waves* of `wave_width`: every
//! batch of a wave plays against the same snapshot of the committed loads,
//! so the wave's games are independent and run in parallel (bounded by
//! `threads`) — the trade that buys Mint its scalability at "medium"
//! quality: unlike HDRF/Greedy there is **no global replica table** (state
//! is `O(batch_size × min(threads, wave_width))`, which is what the paper's
//! Fig. 6 shows). The wave width is a fixed semantic knob, deliberately decoupled
//! from the thread count, so results are bit-identical whether a wave is
//! solved by 1 or 8 worker threads.

use crate::error::Result;
use crate::memory::MemoryReport;
use crate::partition::{PartitionRun, Partitioning, Timings};
use crate::partitioner::{finish_run, mix64, start_run, Partitioner};
use crate::state::PartitionLoads;
use clugp_graph::stream::{chunk_edges, for_each_chunk, RestreamableStream};
use clugp_graph::types::Edge;
use rustc_hash::FxHashMap;

/// Default [`MintConfig::wave_width`]: batches whose games share one load
/// snapshot.
pub const DEFAULT_WAVE_WIDTH: usize = 8;

/// Tunables of Mint.
#[derive(Debug, Clone, PartialEq)]
pub struct MintConfig {
    /// Edges per batch game.
    pub batch_size: usize,
    /// Batches ingested per wave; every batch of a wave plays against the
    /// same committed-load snapshot (0 = [`DEFAULT_WAVE_WIDTH`]). This is a
    /// semantic knob — it changes the equilibria — so it is deliberately
    /// independent of `threads`.
    pub wave_width: usize,
    /// Max worker threads solving a wave's batches (0 = rayon default).
    /// Affects wall-clock only, never the result.
    pub threads: usize,
    /// Best-response round cap per batch.
    pub max_rounds: usize,
    /// Balance weight α in the edge cost.
    pub balance_weight: f64,
    /// Seed for the hash-based initial placement.
    pub seed: u64,
}

impl Default for MintConfig {
    fn default() -> Self {
        MintConfig {
            batch_size: 6400,
            wave_width: DEFAULT_WAVE_WIDTH,
            threads: 0,
            max_rounds: 5,
            balance_weight: 1.0,
            seed: 0x317,
        }
    }
}

/// The Mint partitioner.
#[derive(Debug, Clone, Default)]
pub struct Mint {
    config: MintConfig,
}

impl Mint {
    /// Creates Mint with the given configuration.
    pub fn new(config: MintConfig) -> Self {
        Mint { config }
    }
}

impl Partitioner for Mint {
    fn name(&self) -> &'static str {
        "Mint"
    }

    fn partition(&mut self, stream: &mut dyn RestreamableStream, k: u32) -> Result<PartitionRun> {
        let start = std::time::Instant::now();
        let (n, m) = start_run(stream, k)?;
        let mut waves = Waves::new(&self.config, k, PartitionLoads::new(k), Vec::new())?;
        waves.assignments.reserve(m as usize);
        for_each_chunk(stream, chunk_edges(), |chunk| waves.push(chunk));
        waves.drain();
        finish_run(stream, m, waves.assignments.len())?;

        let mut memory = MemoryReport::new();
        memory.add("batch-state", waves.peak_state);
        memory.add("loads", waves.loads.memory_bytes());
        Ok(PartitionRun {
            partitioning: Partitioning {
                k,
                num_vertices: n,
                assignments: waves.assignments,
                loads: waves.loads.into_vec(),
            },
            memory,
            timings: Timings {
                total: start.elapsed(),
                ..Default::default()
            },
        })
    }
}

/// Mint's wave loop: buffers streamed edges and, whenever a full wave —
/// `wave_width` batches of `batch_size` edges — is pending, plays its batch
/// games and commits them. Batch and wave boundaries depend only on the
/// running edge count, never on how the stream was chunked into
/// [`Waves::push`] calls, so the equilibria (and assignments) are
/// bit-identical for any chunking of the same stream; the monolith and the
/// distributed worker (which carries `pending` to the next worker in its
/// token) both drive this.
pub(crate) struct Waves<'a> {
    cfg: &'a MintConfig,
    k: u32,
    wave_edges: usize,
    pool: Option<rayon::ThreadPool>,
    /// Streamed edges no wave has solved yet: fewer than a wave's worth
    /// between calls.
    pub(crate) pending: Vec<Edge>,
    /// Committed loads.
    pub(crate) loads: PartitionLoads,
    /// Committed assignments, in stream order.
    pub(crate) assignments: Vec<u32>,
    /// The largest solver state any wave held at once, in bytes.
    pub(crate) peak_state: usize,
}

impl<'a> Waves<'a> {
    /// A wave loop continuing from `loads` with `pending` edges already
    /// streamed (fewer than a wave's worth).
    pub(crate) fn new(
        cfg: &'a MintConfig,
        k: u32,
        loads: PartitionLoads,
        pending: Vec<Edge>,
    ) -> Result<Waves<'a>> {
        if cfg.batch_size == 0 {
            return Err(crate::error::PartitionError::InvalidParam(
                "batch_size must be positive".into(),
            ));
        }
        let wave_width = if cfg.wave_width == 0 {
            DEFAULT_WAVE_WIDTH
        } else {
            cfg.wave_width
        };
        Ok(Waves {
            cfg,
            k,
            wave_edges: wave_width.saturating_mul(cfg.batch_size),
            pool: build_pool(cfg.threads)?,
            pending,
            loads,
            assignments: Vec::new(),
            peak_state: 0,
        })
    }

    /// Streams `edges` in, solving every wave they complete.
    pub(crate) fn push(&mut self, mut edges: &[Edge]) {
        loop {
            let room = self.wave_edges.saturating_sub(self.pending.len());
            if edges.len() < room {
                break;
            }
            let (head, rest) = edges.split_at(room);
            self.pending.extend_from_slice(head);
            edges = rest;
            self.drain();
        }
        self.pending.extend_from_slice(edges);
    }

    /// Solves whatever is pending as one (possibly partial) wave: the end of
    /// the stream.
    pub(crate) fn drain(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let wave: Vec<&[Edge]> = self.pending.chunks(self.cfg.batch_size).collect();
        // Each batch plays against a snapshot of the committed loads, in
        // parallel; results are merged in batch order, so the outcome is
        // deterministic regardless of thread scheduling.
        let snapshot: Vec<u64> = self.loads.as_slice().to_vec();
        let solve = || -> Vec<BatchOutcome> {
            use rayon::prelude::*;
            wave.par_iter()
                .map(|batch| solve_batch(batch, self.k, &snapshot, self.cfg))
                .collect()
        };
        let outcomes = match &self.pool {
            Some(pool) => pool.install(solve),
            None => solve(),
        };
        // At most `concurrency` batch games are live at once (each worker
        // solves its batches one after another), so the state charged to
        // this wave is the sum of its `concurrency` largest batch states — a
        // final partial wave is charged only for the batches it held, and a
        // narrow pool under a wide wave is not charged for games it never
        // ran concurrently.
        let concurrency = match &self.pool {
            Some(pool) => pool.current_num_threads(),
            None => rayon::current_num_threads(),
        }
        .clamp(1, wave.len());
        let mut batch_states = Vec::with_capacity(wave.len());
        for (batch, outcome) in wave.iter().zip(outcomes) {
            debug_assert_eq!(batch.len(), outcome.assignments.len());
            for &p in &outcome.assignments {
                self.loads.add(p);
            }
            self.assignments.extend(outcome.assignments);
            batch_states.push(outcome.state_bytes);
        }
        batch_states.sort_unstable_by(|a, b| b.cmp(a));
        let wave_state: usize = batch_states[..concurrency].iter().sum();
        self.peak_state = self.peak_state.max(wave_state);
        self.pending.clear();
    }
}

struct BatchOutcome {
    assignments: Vec<u32>,
    state_bytes: usize,
}

/// Builds the dedicated wave-solving pool (`None` = use the global pool).
fn build_pool(threads: usize) -> Result<Option<rayon::ThreadPool>> {
    if threads == 0 {
        return Ok(None);
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map(Some)
        .map_err(|e| crate::error::PartitionError::InvalidParam(format!("thread pool: {e}")))
}

/// Plays one batch game to (local) equilibrium.
fn solve_batch(batch: &[Edge], k: u32, snapshot: &[u64], cfg: &MintConfig) -> BatchOutcome {
    let ku = k as usize;
    // Vertex-partition presence counts *within the batch*. Key = v * k + p.
    let mut presence: FxHashMap<u64, u32> = FxHashMap::default();
    let vp = |v: u32, p: u32| u64::from(v) * u64::from(k) + u64::from(p);

    // Hash-based initial placement keyed on the source vertex, so edges
    // sharing a source start co-located.
    let mut assign: Vec<u32> = batch
        .iter()
        .map(|e| (mix64(u64::from(e.src) ^ cfg.seed) % u64::from(k)) as u32)
        .collect();
    let mut batch_loads = vec![0u64; ku];
    for (e, &p) in batch.iter().zip(&assign) {
        *presence.entry(vp(e.src, p)).or_insert(0) += 1;
        *presence.entry(vp(e.dst, p)).or_insert(0) += 1;
        batch_loads[p as usize] += 1;
    }

    for _ in 0..cfg.max_rounds {
        // Per-round balance normalization (recomputing per move would be
        // O(k) per evaluation; the round granularity is Mint's published
        // design point).
        let combined: Vec<u64> = snapshot
            .iter()
            .zip(&batch_loads)
            .map(|(&s, &b)| s + b)
            .collect();
        let maxl = combined.iter().copied().max().unwrap_or(0) as f64;
        let minl = combined.iter().copied().min().unwrap_or(0) as f64;
        let denom = 1.0 + maxl - minl;

        let mut moved = 0u64;
        for (i, e) in batch.iter().enumerate() {
            let cur = assign[i];
            // Remove this edge's own contribution before evaluating.
            decrement(&mut presence, vp(e.src, cur));
            decrement(&mut presence, vp(e.dst, cur));
            batch_loads[cur as usize] -= 1;

            let mut best_p = cur;
            let mut best_cost = f64::INFINITY;
            for p in 0..k {
                let mut cost = 0.0;
                if !presence.contains_key(&vp(e.src, p)) {
                    cost += 1.0;
                }
                if !presence.contains_key(&vp(e.dst, p)) {
                    cost += 1.0;
                }
                let load = (snapshot[p as usize] + batch_loads[p as usize]) as f64;
                cost += cfg.balance_weight * (load - minl) / denom;
                if cost < best_cost - 1e-12 {
                    best_cost = cost;
                    best_p = p;
                }
            }
            if best_p != cur {
                moved += 1;
            }
            assign[i] = best_p;
            *presence.entry(vp(e.src, best_p)).or_insert(0) += 1;
            *presence.entry(vp(e.dst, best_p)).or_insert(0) += 1;
            batch_loads[best_p as usize] += 1;
        }
        if moved == 0 {
            break;
        }
    }

    let state_bytes = presence.capacity() * (8 + 4) + batch.len() * 4 + ku * 8;
    BatchOutcome {
        assignments: assign,
        state_bytes,
    }
}

fn decrement(map: &mut FxHashMap<u64, u32>, key: u64) {
    if let Some(c) = map.get_mut(&key) {
        *c -= 1;
        if *c == 0 {
            map.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use clugp_graph::gen::{generate_copying_model, CopyingModelConfig};
    use clugp_graph::order::{ordered_edges, StreamOrder};
    use clugp_graph::stream::InMemoryStream;

    fn web_edges(n: u64, seed: u64) -> (u64, Vec<Edge>) {
        let g = generate_copying_model(&CopyingModelConfig {
            vertices: n,
            seed,
            ..Default::default()
        });
        (g.num_vertices(), ordered_edges(&g, StreamOrder::Bfs))
    }

    #[test]
    fn assigns_all_and_validates() {
        let (n, edges) = web_edges(1_000, 1);
        let mut s = InMemoryStream::new(n, edges);
        let run = Mint::default().partition(&mut s, 8).unwrap();
        run.partitioning.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        let (n, edges) = web_edges(800, 2);
        let mut s = InMemoryStream::new(n, edges);
        let a = Mint::default().partition(&mut s, 8).unwrap();
        let b = Mint::default().partition(&mut s, 8).unwrap();
        assert_eq!(a.partitioning.assignments, b.partitioning.assignments);
    }

    #[test]
    fn quality_between_hashing_and_hdrf() {
        let (n, edges) = web_edges(3_000, 3);
        let mut s = InMemoryStream::new(n, edges.clone());
        let mint = Mint::default().partition(&mut s, 16).unwrap();
        let hash = crate::baselines::Hashing::default()
            .partition(&mut s, 16)
            .unwrap();
        let qm = PartitionQuality::compute(&edges, &mint.partitioning);
        let qh = PartitionQuality::compute(&edges, &hash.partitioning);
        assert!(
            qm.replication_factor < qh.replication_factor,
            "mint {} should beat hashing {}",
            qm.replication_factor,
            qh.replication_factor
        );
    }

    #[test]
    fn small_batches_still_cover_stream() {
        let (n, edges) = web_edges(500, 4);
        let len = edges.len();
        let mut s = InMemoryStream::new(n, edges);
        let run = Mint::new(MintConfig {
            batch_size: 37,
            ..Default::default()
        })
        .partition(&mut s, 4)
        .unwrap();
        assert_eq!(run.partitioning.assignments.len(), len);
        run.partitioning.validate().unwrap();
    }

    #[test]
    fn rejects_zero_batch() {
        let (n, edges) = web_edges(100, 5);
        let mut s = InMemoryStream::new(n, edges);
        let err = Mint::new(MintConfig {
            batch_size: 0,
            ..Default::default()
        })
        .partition(&mut s, 4);
        assert!(err.is_err());
    }

    #[test]
    fn balance_is_reasonable() {
        let (n, edges) = web_edges(2_000, 6);
        let mut s = InMemoryStream::new(n, edges.clone());
        let run = Mint::default().partition(&mut s, 8).unwrap();
        let q = PartitionQuality::compute(&edges, &run.partitioning);
        assert!(q.relative_balance < 2.0, "balance {}", q.relative_balance);
    }

    #[test]
    fn thread_count_never_changes_result() {
        // Small batches force many multi-batch waves; the thread count only
        // bounds the worker pool, so every count must yield bit-identical
        // assignments.
        let (n, edges) = web_edges(2_000, 7);
        let mut s = InMemoryStream::new(n, edges);
        let run_with = |threads: usize, s: &mut InMemoryStream| {
            Mint::new(MintConfig {
                batch_size: 97,
                threads,
                ..Default::default()
            })
            .partition(s, 8)
            .unwrap()
            .partitioning
            .assignments
        };
        let baseline = run_with(1, &mut s);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                run_with(threads, &mut s),
                baseline,
                "threads={threads} changed the result"
            );
        }
    }

    #[test]
    fn wave_width_is_a_semantic_knob_not_thread_count() {
        // With one batch in total, the wave width cannot matter; before the
        // wave/thread decoupling, `threads` doubled as the wave width.
        let (n, edges) = web_edges(400, 8);
        let mut s = InMemoryStream::new(n, edges);
        let run_with = |wave_width: usize, s: &mut InMemoryStream| {
            Mint::new(MintConfig {
                wave_width,
                ..Default::default()
            })
            .partition(s, 4)
            .unwrap()
        };
        let a = run_with(1, &mut s);
        let b = run_with(8, &mut s);
        assert_eq!(a.partitioning.assignments, b.partitioning.assignments);
    }

    #[test]
    fn memory_counts_actual_concurrent_state_not_wave_width() {
        // One batch exists in total, so the peak concurrent batch state is
        // one batch's state no matter how wide the wave is. The old report
        // multiplied the peak batch state by the full wave concurrency,
        // overcounting 8x here.
        let (n, edges) = web_edges(400, 9);
        let mut s = InMemoryStream::new(n, edges);
        let batch_state = |wave_width: usize, s: &mut InMemoryStream| {
            Mint::new(MintConfig {
                wave_width,
                ..Default::default()
            })
            .partition(s, 4)
            .unwrap()
            .memory
            .get("batch-state")
            .expect("batch-state item")
        };
        let narrow = batch_state(1, &mut s);
        let wide = batch_state(8, &mut s);
        assert!(narrow > 0);
        assert_eq!(narrow, wide, "final partial wave must not be overcounted");
    }

    #[test]
    fn partial_final_wave_charged_for_batches_it_held() {
        // 10 batches with wave width 4 and 4 worker threads -> waves of
        // 4, 4, 2. The peak charge must be about 4 batches' state, well
        // below wave_width x peak for the last wave and never above full
        // waves' sum. Threads are pinned so the concurrency cap is
        // machine-independent.
        let (n, edges) = web_edges(1_000, 10);
        let len = edges.len();
        let batch = len.div_ceil(10);
        let mut s = InMemoryStream::new(n, edges);
        let run = Mint::new(MintConfig {
            batch_size: batch,
            wave_width: 4,
            threads: 4,
            ..Default::default()
        })
        .partition(&mut s, 4)
        .unwrap();
        let charged = run.memory.get("batch-state").unwrap();
        // A single batch's state is a lower bound on the wave peak; 4x a
        // single batch's state (plus slack for per-batch hash-map capacity
        // jitter) is an upper bound.
        let mut s2 = InMemoryStream::new(n, web_edges(1_000, 10).1);
        let single_state = Mint::new(MintConfig {
            batch_size: batch,
            wave_width: 1,
            ..Default::default()
        })
        .partition(&mut s2, 4)
        .unwrap()
        .memory
        .get("batch-state")
        .unwrap();
        assert!(charged >= single_state);
        assert!(
            charged <= single_state * 5,
            "peak wave state {charged} vs single batch {single_state}"
        );
    }

    #[test]
    fn narrow_pool_not_charged_for_games_it_never_ran_concurrently() {
        // One worker thread solves a wave's batches sequentially, so only
        // one batch's solver state is ever live; the report must not charge
        // the whole wave's sum.
        let (n, edges) = web_edges(1_000, 12);
        let len = edges.len();
        let batch = len.div_ceil(8);
        let charge_with = |threads: usize| {
            let mut s = InMemoryStream::new(n, web_edges(1_000, 12).1);
            Mint::new(MintConfig {
                batch_size: batch,
                wave_width: 8,
                threads,
                ..Default::default()
            })
            .partition(&mut s, 4)
            .unwrap()
            .memory
            .get("batch-state")
            .expect("batch-state item")
        };
        let narrow = charge_with(1);
        let wide = charge_with(8);
        assert!(narrow > 0);
        assert!(
            narrow * 4 <= wide,
            "1-thread charge {narrow} should be far below 8-thread charge {wide}"
        );
    }
}
