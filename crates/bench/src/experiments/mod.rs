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
//! | [`quality::fig9`] | Fig. 9 | ablations CLUGP / CLUGP-S / CLUGP-G (+ migration policies, Vmax factors) |
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
    /// The context `experiments` runs under, read from `CLUGP_SCALE` and
    /// `CLUGP_KS` (see [`ExpContext::with_vars`]).
    pub fn from_env(quick: bool) -> Result<Self, String> {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Self::with_vars(
            quick,
            var("CLUGP_SCALE").as_deref(),
            var("CLUGP_KS").as_deref(),
        )
    }

    /// Scale 1.0 and [`crate::runner::k_sweep`], or with `quick` the smoke
    /// defaults, scale 0.05 and ks [4, 16]; a variable that is set replaces
    /// its own field either way. A set value that cannot be used is an error
    /// naming its variable.
    pub fn with_vars(quick: bool, scale: Option<&str>, ks: Option<&str>) -> Result<Self, String> {
        let (default_scale, default_ks) = if quick {
            (0.05, vec![4, 16])
        } else {
            (1.0, crate::runner::k_sweep())
        };
        Ok(ExpContext {
            scale: scale.map_or(Ok(default_scale), crate::datasets::parse_scale)?,
            ks: ks.map_or(Ok(default_ks), crate::runner::parse_ks)?,
        })
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

    #[test]
    fn quick_supplies_defaults_the_variables_override() {
        let ctx = |quick, scale, ks| {
            let ctx = ExpContext::with_vars(quick, scale, ks).unwrap();
            (ctx.scale, ctx.ks)
        };
        let full_ks = crate::runner::k_sweep();
        assert_eq!(ctx(false, None, None), (1.0, full_ks.clone()));
        assert_eq!(ctx(true, None, None), (0.05, vec![4, 16]));
        assert_eq!(ctx(false, Some("0.02"), Some("8")), (0.02, vec![8]));
        assert_eq!(ctx(true, Some("0.02"), Some("8")), (0.02, vec![8]));
        // Each variable replaces its own field only.
        assert_eq!(ctx(true, Some("0.1"), None), (0.1, vec![4, 16]));
        assert_eq!(ctx(true, None, Some("2,32")), (0.05, vec![2, 32]));
        assert_eq!(ctx(false, None, Some("2")), (1.0, vec![2]));
        // A malformed value is refused, quick or not.
        for quick in [false, true] {
            let err = ExpContext::with_vars(quick, Some("0,1"), None).unwrap_err();
            assert!(err.starts_with("CLUGP_SCALE="), "{err}");
            let err = ExpContext::with_vars(quick, None, Some("4,x")).unwrap_err();
            assert!(err.starts_with("CLUGP_KS="), "{err}");
        }
    }

    /// Every JSON writer on fixed values: well-formed, with its named keys.
    #[test]
    fn json_writers_name_their_fields() {
        let phases = vec![("clustering".into(), 0.5), ("game".into(), 0.25)];
        let cell = CellResult {
            row: "CLUGP".into(),
            column: "k=4".into(),
            phases,
            ..Default::default()
        };
        let model = clugp_engine::CostModel::default();
        let got = [
            cells_json(&[cell]),
            scalability::fig10a_row_json("CLU8", 8, 0.25, 1.5),
            tables::summary_json("uk-s", &Default::default()),
            system::estimate_json("it-s", "DBH", &model, &model.estimate(&Default::default())),
        ];
        let want = [
            r#"[{"row":"CLUGP","column":"k=4","dataset":"","algorithm":"","k":0,"replication_factor":0.000000,"relative_balance":0.000000,"partition_secs":0.000000,"memory_bytes":0,"phases":{"clustering":0.500000,"game":0.250000}}]"#,
            r#"{"label":"CLU8","threads":8,"io_secs":0.250000,"total_secs":1.500000}"#,
            r#"{"dataset":"uk-s","num_vertices":0,"num_edges":0,"mean_degree":0.000000,"max_degree":0,"alpha":0.000000,"components":0}"#,
            r#"{"dataset":"it-s","algorithm":"DBH","rtt_ms":10,"compute_secs":0.000000,"communication_secs":0.000000,"total_bytes":0,"total_messages":0,"supersteps":0}"#,
        ];
        for (json, want) in got.iter().zip(want) {
            clugp_obs::json::validate(json).unwrap();
            assert_eq!(json, want);
        }
    }
}
