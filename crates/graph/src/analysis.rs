//! Graph analysis: degree distributions, power-law exponent estimation, and
//! connected components.
//!
//! Used to validate that the synthetic corpora look like the paper's
//! (Table III) and to provide ground truth for the engine's Connected
//! Components application.

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Histogram of a degree distribution: `counts[d]` = number of vertices with
/// degree exactly `d` (index 0 = isolated vertices).
pub fn degree_histogram(degrees: &[u64]) -> Vec<u64> {
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0u64; max + 1];
    for &d in degrees {
        hist[d as usize] += 1;
    }
    hist
}

/// Histogram of total (in + out) degrees of `graph`.
pub fn total_degree_histogram(graph: &CsrGraph) -> Vec<u64> {
    degree_histogram(&graph.total_degrees())
}

/// Discrete maximum-likelihood estimate of the power-law exponent α for a
/// degree histogram, using the Clauset–Shalizi–Newman approximation
/// `α ≈ 1 + n / Σ ln(x_i / (x_min − ½))`.
///
/// `x_min = 2`: the continuous approximation is badly biased at `x_min = 1`
/// for discrete data, so degree-1 vertices are excluded from the fit (the
/// standard de-biasing practice).
///
/// Returns `f64::NAN` for degenerate inputs (no vertex with degree ≥ 2).
pub fn estimate_power_law_alpha(histogram: &[u64]) -> f64 {
    let x_min = 2.0f64;
    let mut n = 0u64;
    let mut log_sum = 0.0f64;
    for (degree, &count) in histogram.iter().enumerate().skip(x_min as usize) {
        n += count;
        log_sum += count as f64 * ((degree as f64) / (x_min - 0.5)).ln();
    }
    if n == 0 || log_sum == 0.0 {
        return f64::NAN;
    }
    1.0 + (n as f64) / log_sum
}

/// Union-find (disjoint set) over dense `u32` ids with path halving and
/// union by size. Ground truth for connected components.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Finds the representative of `v` (with path halving).
    pub fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            self.parent[v as usize] = self.parent[self.parent[v as usize] as usize];
            v = self.parent[v as usize];
        }
        v
    }

    /// Unions the sets containing `a` and `b`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

/// Weakly connected component labels: `labels[v]` = smallest vertex id in
/// `v`'s component (edges treated as undirected).
fn connected_component_labels(graph: &CsrGraph) -> Vec<VertexId> {
    let n = graph.num_vertices() as usize;
    let mut uf = UnionFind::new(n);
    for e in graph.edges() {
        uf.union(e.src, e.dst);
    }
    // Min-id per root, then per vertex.
    let mut min_of_root: Vec<u32> = (0..n as u32).collect();
    for v in 0..n as u32 {
        let r = uf.find(v);
        if v < min_of_root[r as usize] {
            min_of_root[r as usize] = v;
        }
    }
    (0..n as u32)
        .map(|v| {
            let r = uf.find(v);
            min_of_root[r as usize]
        })
        .collect()
}

/// Number of weakly connected components.
pub fn num_components(graph: &CsrGraph) -> usize {
    let labels = connected_component_labels(graph);
    let mut roots: Vec<VertexId> = labels.clone();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// Summary statistics printed by the dataset inventory (Table III analogue).
#[derive(Debug, Clone, Default)]
pub struct GraphSummary {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of directed edges.
    pub num_edges: u64,
    /// Mean total degree.
    pub mean_degree: f64,
    /// Maximum total degree.
    pub max_degree: u64,
    /// MLE power-law exponent of the total-degree distribution.
    pub alpha: f64,
    /// Number of weakly connected components.
    pub components: usize,
}

/// Computes a [`GraphSummary`] in two passes over the graph.
pub fn summarize(graph: &CsrGraph) -> GraphSummary {
    let degrees = graph.total_degrees();
    let hist = degree_histogram(&degrees);
    GraphSummary {
        num_vertices: graph.num_vertices(),
        num_edges: graph.num_edges(),
        mean_degree: if graph.num_vertices() == 0 {
            0.0
        } else {
            2.0 * graph.num_edges() as f64 / graph.num_vertices() as f64
        },
        max_degree: degrees.iter().copied().max().unwrap_or(0),
        alpha: estimate_power_law_alpha(&hist),
        components: num_components(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    #[test]
    fn histogram_counts_degrees() {
        let hist = degree_histogram(&[0, 1, 1, 3]);
        assert_eq!(hist, vec![1, 2, 0, 1]);
    }

    #[test]
    fn histogram_of_empty() {
        assert_eq!(degree_histogram(&[]), vec![0]);
    }

    #[test]
    fn alpha_estimate_on_true_power_law() {
        // Construct an exact power-law histogram f(d) = C d^-2.2.
        let alpha_true = 2.2f64;
        let mut hist = vec![0u64; 2001];
        for (d, slot) in hist.iter_mut().enumerate().skip(1) {
            *slot = ((1e7 * (d as f64).powf(-alpha_true)).round()) as u64;
        }
        let est = estimate_power_law_alpha(&hist);
        assert!(
            (est - alpha_true).abs() < 0.15,
            "estimated {est}, wanted ~{alpha_true}"
        );
    }

    #[test]
    fn alpha_estimate_degenerate_is_nan() {
        assert!(estimate_power_law_alpha(&[5]).is_nan());
        assert!(estimate_power_law_alpha(&[]).is_nan());
        // Only degree-1 vertices: excluded from the fit entirely.
        assert!(estimate_power_law_alpha(&[0, 10]).is_nan());
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        assert_eq!(uf.len(), 4);
        assert!(!uf.is_empty());
    }

    #[test]
    fn component_labels_are_min_ids() {
        // Components {0,1,2} and {3,4}, vertex 5 isolated.
        let g =
            CsrGraph::from_edges(6, &[Edge::new(1, 0), Edge::new(1, 2), Edge::new(4, 3)]).unwrap();
        assert_eq!(connected_component_labels(&g), vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(num_components(&g), 3);
    }

    #[test]
    fn direction_is_ignored_for_components() {
        let g = CsrGraph::from_edges(3, &[Edge::new(2, 1), Edge::new(1, 0)]).unwrap();
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn summary_fields() {
        let g = CsrGraph::from_edges(3, &[Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        let s = summarize(&g);
        assert_eq!(s.num_vertices, 3);
        assert_eq!(s.num_edges, 2);
        assert_eq!(s.components, 1);
        assert_eq!(s.max_degree, 2);
        assert!((s.mean_degree - 4.0 / 3.0).abs() < 1e-9);
    }
}
