//! The state the CLUGP passes stream against, and the two per-edge steps
//! that read and write it — each written once.
//!
//! Streaming clustering *writes* the vertex→cluster table; the cluster-graph
//! scan and the partition transformation only *read* it (§III-C, §V-D).
//! [`Pass1::step`] is Algorithm 2's loop body and [`Balancer::step`]
//! Algorithm 1's, over one [`VertexState`]. The monolith
//! ([`super::clustering`], [`super::transform`]), every distributed worker
//! path and the coordinator's between-pass work call these and nothing else,
//! which is what keeps all of them bit-identical; [`VertexState`] also owns
//! the width-3 row its three tables travel as between workers.
//!
//! Both run once per streamed edge: [`Pass1::step`] keeps each endpoint's
//! cluster in a local (only a split changes it), and [`Balancer::step`] folds
//! Algorithm 1's lines 15-22 into one comparison of the keys `(divided,
//! degree)` — the rule is in [`super::transform`]'s module docs, the case
//! analysis it replaced is the oracle of this module's tests.

use super::clustering::NO_CLUSTER;
use super::config::MigrationPolicy;
use crate::error::{PartitionError, Result};
use crate::vertex_table::VertexTable;
use clugp_graph::types::{Edge, VertexId};

/// Words in a [`VertexState`] row on the wire and in a sharded table.
pub(crate) const ROW_WIDTH: usize = 3;

/// The three per-vertex tables of a CLUGP run, grown in lockstep and keyed
/// by compact internal ids — index them with a bare [`VertexId`]
/// (`state.cluster_of[v]`).
#[derive(Debug, Clone)]
pub struct VertexState {
    /// Vertex → cluster id (`NO_CLUSTER` for vertices absent from the
    /// stream): raw ids while pass 1 streams, dense ones after compaction.
    /// This is the paper's vertex-cluster mapping table.
    pub cluster_of: VertexTable<u32>,
    /// Per-vertex degree observed by pass 1 (the paper's `deg[]`, consumed
    /// by the transformation pass).
    pub degree: VertexTable<u32>,
    /// Vertices marked *divided* (they triggered a split and therefore have
    /// mirror vertices).
    pub divided: VertexTable<bool>,
}

impl VertexState {
    /// Tables pre-sized to `hint` untouched vertices, capped at
    /// `max_vertices`.
    pub(crate) fn new(hint: u64, max_vertices: u64) -> Result<VertexState> {
        Ok(VertexState {
            cluster_of: VertexTable::with_limit(hint, NO_CLUSTER, max_vertices)?,
            degree: VertexTable::with_limit(hint, 0, max_vertices)?,
            divided: VertexTable::with_limit(hint, false, max_vertices)?,
        })
    }

    /// Makes `v` a valid index of all three tables.
    #[inline]
    pub(crate) fn ensure(&mut self, v: VertexId) -> Result<()> {
        self.cluster_of.ensure(v)?;
        self.degree.ensure(v)?;
        self.divided.ensure(v)
    }

    /// [`VertexState::ensure`] for the vertex a wire key names. A key past
    /// `u32` saturates onto the id no table accepts.
    pub(crate) fn ensure_key(&mut self, key: u64) -> Result<VertexId> {
        let v = u32::try_from(key).unwrap_or(u32::MAX);
        self.ensure(v)?;
        Ok(v)
    }

    /// One past the highest vertex id the tables cover.
    pub(crate) fn len(&self) -> u64 {
        self.cluster_of.len()
    }

    /// `v`'s row, `(cluster + 1, degree, divided)`. Word 0 is biased so that
    /// the all-zero row an empty shard reads back is a vertex nobody has
    /// touched.
    pub(crate) fn row(&self, v: VertexId) -> [u64; ROW_WIDTH] {
        let c = match self.cluster_of[v] {
            NO_CLUSTER => 0,
            c => u64::from(c) + 1,
        };
        [c, u64::from(self.degree[v]), u64::from(self.divided[v])]
    }

    /// Inverse of [`VertexState::row`]: `(cluster, degree, divided)`.
    pub(crate) fn unpack(row: &[u64]) -> (u32, u32, bool) {
        let cluster = match row[0] {
            0 => NO_CLUSTER,
            c => (c - 1) as u32,
        };
        (cluster, row[1] as u32, row[2] != 0)
    }

    /// Overwrites the tables at `keys` with the flattened `rows`, growing
    /// them to cover every key.
    pub(crate) fn import(&mut self, keys: &[u64], rows: &[u64]) -> Result<()> {
        if rows.len() != keys.len() * ROW_WIDTH {
            return Err(PartitionError::InvalidParam(
                "vertex row payload does not match key count".into(),
            ));
        }
        for (&key, row) in keys.iter().zip(rows.chunks_exact(ROW_WIDTH)) {
            let v = self.ensure_key(key)?;
            (self.cluster_of[v], self.degree[v], self.divided[v]) = VertexState::unpack(row);
        }
        Ok(())
    }

    /// The flattened rows of `keys`.
    pub(crate) fn export(&self, keys: &[u64]) -> Vec<u64> {
        let mut rows = Vec::with_capacity(keys.len() * ROW_WIDTH);
        for &key in keys {
            rows.extend_from_slice(&self.row(key as u32));
        }
        rows
    }
}

/// Pass 1 in flight: Algorithm 2's state and parameters. `vol` is indexed by
/// *raw* cluster id; a fresh cluster is a push onto it, so its length is the
/// raw-id watermark.
pub(crate) struct Pass1 {
    pub(crate) vertices: VertexState,
    pub(crate) vol: Vec<u64>,
    pub(crate) splits: u64,
    pub(crate) migrations: u64,
    pub(crate) vmax: u64,
    pub(crate) splitting: bool,
    pub(crate) migration: MigrationPolicy,
}

impl Pass1 {
    /// Allocation–splitting–migration for one streamed edge.
    #[inline]
    pub(crate) fn step(&mut self, e: Edge) -> Result<()> {
        let (u, v) = (e.src, e.dst);
        self.vertices.ensure(u.max(v))?;
        let vmax = self.vmax;

        // Allocation. The endpoints' clusters live in locals from here on:
        // only a split changes them, and `&mut self` would otherwise re-read
        // both tables around every volume update.
        let mut allocate = |w: VertexId| {
            let c = &mut self.vertices.cluster_of[w];
            if *c == NO_CLUSTER {
                *c = self.vol.len() as u32;
                self.vol.push(0);
            }
            *c
        };
        let (mut cu, mut cv) = (allocate(u), allocate(v));
        self.vertices.degree[u] += 1;
        self.vertices.degree[v] += 1;
        self.vol[cu as usize] += 1;
        self.vol[cv as usize] += 1;

        // Splitting: evict the endpoint whose cluster just overflowed into
        // a fresh cluster, carrying its degree with it.
        if self.splitting {
            if self.vol[cu as usize] >= vmax {
                self.split(u);
                cu = self.vertices.cluster_of[u];
            }
            if v == u {
                cv = cu;
            } else if self.vol[cv as usize] >= vmax {
                self.split(v);
                cv = self.vertices.cluster_of[v];
            }
        }
        if cu == cv {
            return Ok(());
        }

        // Migration: pull an endpoint of the smaller cluster into the
        // bigger one, provided neither cluster is full. The policy decides
        // which vertices may move:
        //  * Paper    — Algorithm 2 verbatim, no further conditions; lets
        //    migrations overfill clusters, which parks them at Vmax and
        //    turns every subsequent member edge into a spurious split.
        //  * Headroom — Hollocou's original guard (destination stays ≤ Vmax).
        //  * Anchored — Headroom plus: only vertices alone in their cluster
        //    (anchor 0) move, so a single cross edge cannot yank an
        //    established vertex out of its community (churn guard).
        let (vol_u, vol_v) = (self.vol[cu as usize], self.vol[cv as usize]);
        if vol_u < vmax && vol_v < vmax {
            let (mover, from, into) = if vol_u <= vol_v {
                (u, cu, cv)
            } else {
                (v, cv, cu)
            };
            let d = u64::from(self.vertices.degree[mover]);
            let anchor = self.vol[from as usize] - d;
            let headroom_ok = self.vol[into as usize] + d <= vmax;
            let allowed = match self.migration {
                MigrationPolicy::Paper => true,
                MigrationPolicy::Headroom => headroom_ok,
                MigrationPolicy::Anchored => anchor == 0 && headroom_ok,
            };
            if allowed {
                self.vol[from as usize] -= d;
                self.vol[into as usize] += d;
                self.vertices.cluster_of[mover] = into;
                self.migrations += 1;
            }
        }
        Ok(())
    }

    fn split(&mut self, w: VertexId) {
        let old = self.vertices.cluster_of[w] as usize;
        let d = u64::from(self.vertices.degree[w]);
        debug_assert!(self.vol[old] >= d, "cluster volume below member degree");
        // A vertex alone in its cluster would be evicted into a fresh cluster
        // identical to the one it left: the mapping is unchanged, but the raw
        // vol vec grows and the splits/divided diagnostics inflate on every
        // further edge of a saturated hub. Skip the vacuous self-split.
        if self.vol[old] <= d {
            return;
        }
        self.vol[old] -= d;
        self.vol.push(d);
        self.vertices.cluster_of[w] = (self.vol.len() - 1) as u32;
        self.vertices.divided[w] = true;
        self.splits += 1;
    }
}

/// Pass 3 in flight: Algorithm 1's running loads under the cap `lmax`, the
/// monotone cursor of the overflow scan (loads only grow, so full partitions
/// stay full and the scan is O(1) amortized) and the count of edges the
/// balance path rerouted. One load per partition: `k` is `loads.len()`.
pub(crate) struct Balancer {
    pub(crate) lmax: u64,
    pub(crate) loads: Vec<u64>,
    pub(crate) cursor: u32,
    pub(crate) reroutes: u64,
}

impl Balancer {
    /// The partition of one streamed edge, through the vertex → cluster →
    /// partition join; charges it to `loads`.
    #[inline]
    pub(crate) fn step(
        &mut self,
        e: Edge,
        vertices: &VertexState,
        cluster_partition: &[u32],
    ) -> Result<u32> {
        let (u, v) = (e.src, e.dst);
        let cu = vertices.cluster_of[u];
        let cv = vertices.cluster_of[v];
        debug_assert_ne!(cu, NO_CLUSTER, "pass 3 saw a vertex pass 1 did not");
        debug_assert_ne!(cv, NO_CLUSTER, "pass 3 saw a vertex pass 1 did not");
        let pu = cluster_partition[cu as usize];
        let pv = cluster_partition[cv as usize];
        let (lmax, loads) = (self.lmax, &mut self.loads);

        let p = if loads[pu as usize] >= lmax || loads[pv as usize] >= lmax {
            self.reroutes += 1;
            if loads[pu as usize] < lmax {
                pu
            } else if loads[pv as usize] < lmax {
                pv
            } else {
                let k = loads.len() as u32;
                while self.cursor < k && loads[self.cursor as usize] >= lmax {
                    self.cursor += 1;
                }
                if self.cursor >= k {
                    return Err(PartitionError::InvalidParam(format!(
                        "no partition has room under the load cap {lmax}: \
                         the stream holds more edges than the cap was sized for"
                    )));
                }
                self.cursor
            }
        } else {
            // Lines 15-22 as one comparison of the keys (divided, degree):
            // follow the endpoint with the smaller key, so the one that has
            // mirrors already, or is the bigger hub, is cut. Equal keys: a
            // divided pair follows `u`, an undivided pair the lighter
            // partition (`u` on equal loads). `pu == pv` needs no case of its
            // own: both answers are that partition.
            let key = |w| u64::from(vertices.divided[w]) << 32 | u64::from(vertices.degree[w]);
            let (ku, kv) = (key(u), key(v));
            let follow_u = if ku == kv {
                vertices.divided[u] || loads[pu as usize] <= loads[pv as usize]
            } else {
                ku < kv
            };
            if follow_u {
                pu
            } else {
                pv
            }
        };
        loads[p as usize] += 1;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Algorithm 1's loop body with lines 15-22 spelled out case by case, as
    /// the paper lists them: the oracle [`Balancer::step`] is held to.
    fn spelled_out_step(
        b: &mut Balancer,
        e: Edge,
        vertices: &VertexState,
        cluster_partition: &[u32],
    ) -> Result<u32> {
        let (u, v) = (e.src, e.dst);
        let pu = cluster_partition[vertices.cluster_of[u] as usize];
        let pv = cluster_partition[vertices.cluster_of[v] as usize];
        let (lmax, loads) = (b.lmax, &mut b.loads);
        let p = if loads[pu as usize] >= lmax || loads[pv as usize] >= lmax {
            b.reroutes += 1;
            if loads[pu as usize] < lmax {
                pu
            } else if loads[pv as usize] < lmax {
                pv
            } else {
                let k = loads.len() as u32;
                while b.cursor < k && loads[b.cursor as usize] >= lmax {
                    b.cursor += 1;
                }
                if b.cursor >= k {
                    return Err(PartitionError::InvalidParam("no room".into()));
                }
                b.cursor
            }
        } else if pu == pv {
            pu
        } else {
            let du = vertices.degree[u];
            let dv = vertices.degree[v];
            match (vertices.divided[u], vertices.divided[v]) {
                // Both already replicated: cut the higher-degree one, i.e.
                // follow the lower-degree endpoint (§IV note on divided
                // vertices).
                (true, true) => {
                    if du <= dv {
                        pu
                    } else {
                        pv
                    }
                }
                (true, false) => pv, // u has mirrors: cutting it again is cheap
                (false, true) => pu,
                (false, false) => {
                    if dv > du {
                        pu // cut v, the higher-degree endpoint
                    } else if du > dv {
                        pv
                    } else if loads[pu as usize] <= loads[pv as usize] {
                        pu
                    } else {
                        pv
                    }
                }
            }
        };
        loads[p as usize] += 1;
        Ok(p)
    }

    #[test]
    fn balancer_step_matches_the_spelled_out_cases() {
        // Vertices 0 and 1 sit in clusters 0 and 1; partition 2 is where the
        // overflow scan can land.
        let mut vertices = VertexState::new(2, 2).unwrap();
        (vertices.cluster_of[0], vertices.cluster_of[1]) = (0, 1);
        let lmax = 5;
        for (divided_u, divided_v) in [(false, false), (false, true), (true, false), (true, true)] {
            for (degree_u, degree_v) in (0..9u32).map(|i| (i / 3, i % 3)) {
                (vertices.divided[0], vertices.divided[1]) = (divided_u, divided_v);
                (vertices.degree[0], vertices.degree[1]) = (degree_u, degree_v);
                // Every load order of the two partitions, below the cap and
                // at it, with the spare partition open or full.
                for loads in [[1, 2], [2, 2], [2, 1], [5, 2], [2, 5], [5, 5]] {
                    for spare in [0, lmax] {
                        for cluster_partition in [[0u32, 1], [1, 0], [0, 0], [1, 1]] {
                            for e in [Edge::new(0, 1), Edge::new(1, 0)] {
                                let fresh = || Balancer {
                                    lmax,
                                    loads: vec![loads[0], loads[1], spare],
                                    cursor: 0,
                                    reroutes: 0,
                                };
                                let (mut got, mut want) = (fresh(), fresh());
                                let p = got.step(e, &vertices, &cluster_partition).ok();
                                let q =
                                    spelled_out_step(&mut want, e, &vertices, &cluster_partition)
                                        .ok();
                                let case = format!(
                                    "divided ({divided_u}, {divided_v}) degree ({degree_u}, \
                                     {degree_v}) loads {loads:?} spare {spare} map \
                                     {cluster_partition:?} edge {e:?}"
                                );
                                assert_eq!(p, q, "{case}");
                                assert_eq!(got.loads, want.loads, "{case}");
                                assert_eq!(
                                    (got.cursor, got.reroutes),
                                    (want.cursor, want.reroutes),
                                    "{case}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
