//! Master/mirror placement: turning a vertex-cut partitioning into
//! per-machine subgraphs (PowerGraph §3: "vertex-cut" representation).

use clugp::state::ReplicaTable;
use clugp::Partitioning;
use clugp_graph::types::{Edge, VertexId};

/// Sentinel for "vertex not present on this machine".
pub const NOT_LOCAL: u32 = u32::MAX;

/// One machine's share of the graph.
#[derive(Debug, Clone)]
pub struct MachineSubgraph {
    /// Global ids of the vertices replicated on this machine (masters and
    /// mirrors), in ascending order.
    pub vertices: Vec<VertexId>,
    /// Local edges, as indices into `vertices` (`(src_local, dst_local)`).
    pub edges: Vec<(u32, u32)>,
    /// For each local vertex, whether this machine holds its master.
    pub is_master: Vec<bool>,
}

impl MachineSubgraph {
    /// Number of mirror (non-master) replicas hosted here.
    pub fn num_mirrors(&self) -> usize {
        self.is_master.iter().filter(|&&m| !m).count()
    }
}

/// The fully placed distributed graph.
#[derive(Debug, Clone)]
pub struct DistributedGraph {
    /// Number of machines (= partitions).
    pub k: u32,
    /// Number of global vertices.
    pub num_vertices: u64,
    /// Per-machine subgraphs.
    pub machines: Vec<MachineSubgraph>,
    /// Master machine per global vertex (`NOT_LOCAL` for vertices absent
    /// from every partition, i.e. isolated vertices).
    pub master_of: Vec<u32>,
}

impl DistributedGraph {
    /// Places `edges` (stream order) according to `partitioning`.
    ///
    /// Masters are assigned to the least-loaded machine (by replica count)
    /// holding the vertex — PowerGraph's heuristic for balancing master
    /// duty.
    ///
    /// # Panics
    ///
    /// Panics if `edges.len() != partitioning.assignments.len()`, or if the
    /// partitioning's dimensions exceed the internal id space (impossible
    /// for a `Partitioning` produced by an in-tree partitioner, whose own
    /// `max_vertices` caps are checked first — see `clugp::vertex_table`).
    pub fn place(edges: &[Edge], partitioning: &Partitioning) -> Self {
        let (k, parts) = (partitioning.k, &partitioning.assignments);
        assert_eq!(edges.len(), parts.len(), "edges and assignments must align");
        // The replica table quality reads, sized to the declared vertex count
        // so isolated vertices read as replica-free.
        let too_big = "partitioning dimensions exceed the internal id space";
        let mut replicas = ReplicaTable::new(partitioning.num_vertices, k).expect(too_big);
        replicas.record(edges, parts).expect(too_big);
        let n = replicas.num_vertices() as usize;

        // Stage each edge's endpoints on its machine, still as global ids:
        // local indices exist only after master selection below.
        let mut machines: Vec<MachineSubgraph> = (0..k)
            .map(|_| MachineSubgraph {
                vertices: Vec::new(),
                edges: Vec::new(),
                is_master: Vec::new(),
            })
            .collect();
        for (e, &p) in edges.iter().zip(parts) {
            machines[p as usize].edges.push((e.src, e.dst));
        }

        // Master selection: least master-loaded machine among replicas.
        let mut master_of = vec![NOT_LOCAL; n];
        let mut master_load = vec![0u64; k as usize];
        for v in 0..n as u32 {
            let mut best: Option<u32> = None;
            for p in replicas.partitions_of(v) {
                best = match best {
                    None => Some(p),
                    Some(b) if master_load[p as usize] < master_load[b as usize] => Some(p),
                    keep => keep,
                };
            }
            if let Some(p) = best {
                master_of[v as usize] = p;
                master_load[p as usize] += 1;
            }
        }

        // Build per-machine vertex lists and local indices, then rewrite the
        // staged global edge pairs into local indices in place.
        let mut local_index = vec![vec![NOT_LOCAL; n]; k as usize];
        for v in 0..n as u32 {
            for p in replicas.partitions_of(v) {
                let m = &mut machines[p as usize];
                local_index[p as usize][v as usize] = m.vertices.len() as u32;
                m.vertices.push(v);
                m.is_master.push(master_of[v as usize] == p);
            }
        }
        for (p, m) in machines.iter_mut().enumerate() {
            for e in &mut m.edges {
                let sl = local_index[p][e.0 as usize];
                let dl = local_index[p][e.1 as usize];
                debug_assert_ne!(sl, NOT_LOCAL);
                debug_assert_ne!(dl, NOT_LOCAL);
                *e = (sl, dl);
            }
        }

        DistributedGraph {
            k,
            num_vertices: n as u64,
            machines,
            master_of,
        }
    }

    /// Total number of replicas across machines (`Σ_v |P(v)|`).
    pub fn total_replicas(&self) -> u64 {
        self.machines.iter().map(|m| m.vertices.len() as u64).sum()
    }

    /// Total number of mirrors (`Σ_v (|P(v)|−1)`).
    pub fn total_mirrors(&self) -> u64 {
        self.machines.iter().map(|m| m.num_mirrors() as u64).sum()
    }

    /// Total edges across machines (must equal the input edge count).
    pub fn total_edges(&self) -> u64 {
        self.machines.iter().map(|m| m.edges.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partitioning(k: u32, n: u64, assignments: Vec<u32>) -> Partitioning {
        let mut loads = vec![0u64; k as usize];
        for &p in &assignments {
            loads[p as usize] += 1;
        }
        Partitioning {
            k,
            num_vertices: n,
            assignments,
            loads,
        }
    }

    #[test]
    fn every_edge_lands_on_its_partition() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)];
        let p = partitioning(2, 4, vec![0, 1, 1]);
        let d = DistributedGraph::place(&edges, &p);
        assert_eq!(d.machines[0].edges.len(), 1);
        assert_eq!(d.machines[1].edges.len(), 2);
        assert_eq!(d.total_edges(), 3);
    }

    #[test]
    fn shared_vertex_has_one_master() {
        // Vertex 1 appears on both machines.
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        let p = partitioning(2, 3, vec![0, 1]);
        let d = DistributedGraph::place(&edges, &p);
        let m = d.master_of[1];
        assert!(m < 2);
        let masters: usize = d
            .machines
            .iter()
            .filter(|mach| {
                let li = mach.vertices.binary_search(&1);
                li.is_ok_and(|li| mach.is_master[li])
            })
            .count();
        assert_eq!(masters, 1);
        assert_eq!(d.total_mirrors(), 1);
        assert_eq!(d.total_replicas(), 4); // v0:1 + v1:2 + v2:1
    }

    #[test]
    fn local_indices_resolve_round_trip() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        let p = partitioning(2, 3, vec![0, 1]);
        let d = DistributedGraph::place(&edges, &p);
        for m in &d.machines {
            for (li, &g) in m.vertices.iter().enumerate() {
                assert_eq!(m.vertices.binary_search(&g), Ok(li));
            }
        }
    }

    #[test]
    fn isolated_vertices_have_no_master() {
        let edges = vec![Edge::new(0, 1)];
        let p = partitioning(2, 10, vec![0]);
        let d = DistributedGraph::place(&edges, &p);
        assert_eq!(d.master_of[5], NOT_LOCAL);
        assert_ne!(d.master_of[0], NOT_LOCAL);
    }

    #[test]
    fn vertices_sorted_per_machine() {
        let edges = vec![Edge::new(3, 1), Edge::new(0, 2), Edge::new(1, 0)];
        let p = partitioning(2, 4, vec![0, 0, 0]);
        let d = DistributedGraph::place(&edges, &p);
        let vs = &d.machines[0].vertices;
        assert!(vs.windows(2).all(|w| w[0] < w[1]));
    }
}
