//! One entry point per table/figure of the paper's evaluation (§VI).
//!
//! | Entry | Paper artifact | What it reproduces |
//! |-------|----------------|--------------------|
//! | [`tables::table1`] | Table I | measured time/quality classes of the six algorithms |
//! | [`tables::table3`] | Table III | dataset inventory of the synthetic analogues |
//! | [`quality::fig3`] | Fig. 3 | RF vs #partitions, 4 web graphs, 6 algorithms |
//! | [`quality::fig4`] | Fig. 4 | Twitter: RF (HDRF vs CLUGP) + end-to-end runtime |
//! | [`quality::fig5`] | Fig. 5 | RF vs sampled graph size |
//! | [`scalability::fig6`] | Fig. 6 | memory vs #partitions |
//! | [`scalability::fig7`] | Fig. 7 | partitioning runtime vs #partitions |
//! | [`system::fig8`] | Fig. 8 | PageRank on the GAS simulator: comm volume, runtime, latency sweep |
//! | [`quality::fig9`] | Fig. 9 | ablations CLUGP / CLUGP-S / CLUGP-G (+ migration policies) |
//! | [`scalability::fig10`] | Fig. 10 | parallelization: threads, compute-vs-I/O, batch size |
//! | [`quality::fig11`] | Fig. 11 | imbalance factor τ and relative weight sweeps |
//! | [`orders::orders`] | §VI-A footnote | every algorithm under every stream order |

pub mod orders;
pub mod quality;
pub mod scalability;
pub mod system;
pub mod tables;

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Dataset scale multiplier (also via `CLUGP_SCALE`).
    pub scale: f64,
    /// Partition counts to sweep (also via `CLUGP_KS`).
    pub ks: Vec<u32>,
}

impl ExpContext {
    /// The full-scale context: scale 1.0 and [`crate::runner::k_sweep`],
    /// unless `CLUGP_SCALE` or `CLUGP_KS` says otherwise. A variable that is
    /// set but cannot be used is an error naming it.
    pub fn from_env() -> Result<Self, String> {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Ok(ExpContext {
            scale: match var("CLUGP_SCALE") {
                Some(value) => crate::datasets::parse_scale(&value)?,
                None => 1.0,
            },
            ks: match var("CLUGP_KS") {
                Some(value) => crate::runner::parse_ks(&value)?,
                None => crate::runner::k_sweep(),
            },
        })
    }

    /// A reduced context for smoke tests: small
    /// datasets, short k sweep.
    pub fn quick() -> Self {
        ExpContext {
            scale: 0.05,
            ks: vec![4, 16],
        }
    }
}

/// The entry point of one table or figure.
pub type Experiment = fn(&ExpContext);

/// Every experiment id with its entry point, in paper order.
pub const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("table3", tables::table3),
    ("table1", tables::table1),
    ("fig3", quality::fig3),
    ("fig4", quality::fig4),
    ("fig5", quality::fig5),
    ("fig6", scalability::fig6),
    ("fig7", scalability::fig7),
    ("fig8", system::fig8),
    ("fig9", quality::fig9),
    ("fig10", scalability::fig10),
    ("fig11", quality::fig11),
    ("orders", orders::orders),
];

/// Runs every experiment in paper order.
pub fn run_all(ctx: &ExpContext) {
    for (_, run) in EXPERIMENTS {
        run(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{cells_json, CellResult};

    /// Every JSON writer on fixed values: well-formed, with its named keys.
    #[test]
    fn json_writers_name_their_fields() {
        let phases = vec![("clustering".into(), 0.5), ("game".into(), 0.25)];
        let cell = CellResult {
            phases,
            ..Default::default()
        };
        let model = clugp_engine::CostModel::default();
        let got = [
            cells_json(&[cell]),
            scalability::fig10a_row_json("CLU8", 8, 0.25, 1.5),
            tables::summary_json("uk-s", &Default::default()),
            system::estimate_json("it-s", "DBH", &model, &model.estimate(&Default::default())),
            orders::order_cell_json("HDRF", "BFS", 1.25, 1.5),
        ];
        let want = [
            r#"[{"dataset":"","algorithm":"","k":0,"replication_factor":0.000000,"relative_balance":0.000000,"partition_secs":0.000000,"memory_bytes":0,"phases":{"clustering":0.500000,"game":0.250000}}]"#,
            r#"{"label":"CLU8","threads":8,"io_secs":0.250000,"total_secs":1.500000}"#,
            r#"{"dataset":"uk-s","num_vertices":0,"num_edges":0,"mean_degree":0.000000,"max_degree":0,"alpha":0.000000,"components":0}"#,
            r#"{"dataset":"it-s","algorithm":"DBH","rtt_ms":10,"compute_secs":0.000000,"communication_secs":0.000000,"total_bytes":0,"total_messages":0,"supersteps":0}"#,
            r#"{"algorithm":"HDRF","order":"BFS","replication_factor":1.250000,"relative_balance":1.500000}"#,
        ];
        for (json, want) in got.iter().zip(want) {
            clugp_obs::json::validate(json).unwrap();
            assert_eq!(json, want);
        }
    }
}
