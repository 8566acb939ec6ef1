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
//! | [`scalability::parallel`] | Fig. 10(a) claim | measured game thread-scaling curve (`BENCH_parallel.json`) |
//! | [`quality::fig11`] | Fig. 11 | imbalance factor τ and relative weight sweeps |
//! | [`memory::memory`] | Fig. 6 claim + id-space layer | memory trajectory + sparse-web remap leg (`BENCH_memory.json`) |
//! | [`ampc::ampc`] | §V deployment claim | coordinator/worker engine: wall-clock + bytes-exchanged vs worker count, both transports (`BENCH_ampc.json`) |

pub mod ampc;
pub mod memory;
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

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            scale: crate::datasets::scale(),
            ks: crate::runner::k_sweep(),
        }
    }
}

impl ExpContext {
    /// A reduced context for smoke tests: small
    /// datasets, short k sweep.
    pub fn quick() -> Self {
        ExpContext {
            scale: 0.05,
            ks: vec![4, 16],
        }
    }
}

/// Runs every experiment in paper order.
pub fn run_all(ctx: &ExpContext) {
    tables::table3(ctx);
    tables::table1(ctx);
    quality::fig3(ctx);
    quality::fig4(ctx);
    quality::fig5(ctx);
    scalability::fig6(ctx);
    scalability::fig7(ctx);
    system::fig8(ctx);
    quality::fig9(ctx);
    scalability::fig10(ctx);
    quality::fig11(ctx);
    orders::orders(ctx);
    scalability::parallel(ctx);
    memory::memory(ctx);
    ampc::ampc(ctx);
}
