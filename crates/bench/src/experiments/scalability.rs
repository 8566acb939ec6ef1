//! Scalability figures: Fig. 6 (memory), Fig. 7 (runtime) and Fig. 10
//! (parallelization & batch size).

use super::ExpContext;
use crate::datasets::Dataset;
use crate::report::{fmt_secs, results_dir, save_json, Table};
use crate::runner::{
    cells_json, clugp_with, competitors, grid, k_columns, named, run_cell, CellResult,
    PreparedDataset,
};
use clugp::ampc::coordinator::DistAlgo;
use clugp_graph::io::binary::{write_binary_graph, FileEdgeStream};
use clugp_graph::order::StreamOrder;
use clugp_graph::stream::TimedStream;
use clugp_obs::json::{Arr, Obj};
use std::path::PathBuf;

/// Fig. 6 — working-state memory vs number of partitions on the it-2004
/// analogue.
pub fn fig6(ctx: &ExpContext) {
    let prep = PreparedDataset::load(Dataset::ItS, ctx.scale);
    let all = grid(
        "Fig 6 — memory (MiB) vs #partitions (it-s)",
        "fig6",
        "Algorithm",
        &named(competitors()),
        &k_columns(&ctx.ks),
        |algo, &k| run_cell(&prep, algo, k),
        |_, cell| format!("{:.2}", cell.memory_bytes as f64 / (1024.0 * 1024.0)),
    );
    save_json("fig6", &cells_json(&all));
}

/// Fig. 7 — partitioning runtime vs number of partitions on the uk-2002 and
/// it-2004 analogues.
pub fn fig7(ctx: &ExpContext) {
    let mut all = Vec::new();
    for ds in [Dataset::UkS, Dataset::ItS] {
        let prep = PreparedDataset::load(ds, ctx.scale);
        all.extend(grid(
            &format!("Fig 7 — runtime (s) vs #partitions ({})", ds.name()),
            &format!("fig7_{}", ds.name()),
            "Algorithm",
            &named(competitors()),
            &k_columns(&ctx.ks),
            |algo, &k| run_cell(&prep, algo, k),
            |_, cell| format!("{:.3}", cell.partition_secs),
        ));
    }
    save_json("fig7", &cells_json(&all));
}

/// Removes its directory, with everything in it, when dropped: on return
/// and on panic alike.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fig. 10 — parallelization: (a) runtime split into computation vs I/O for
/// the heuristics and CLUGP at 8/16/32 threads, streaming from disk so the
/// three-pass I/O cost is charged honestly; (b) RF and runtime vs game batch
/// size.
pub fn fig10(ctx: &ExpContext) {
    let prep = PreparedDataset::load(Dataset::ItS, ctx.scale);
    let k = 32;

    // Persist both stream orders to disk once, in a directory of this
    // process's own.
    let dir = std::env::temp_dir().join(format!("clugp_fig10_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let _remove = RemoveOnDrop(dir.clone());
    let bfs_path = dir.join("it_bfs.bin");
    let rnd_path = dir.join("it_rnd.bin");
    let (clugp, hdrf) = (DistAlgo::clugp(), DistAlgo::hdrf());
    let n = prep.graph.num_vertices();
    write_binary_graph(&bfs_path, n, prep.edges_for(&clugp)).expect("write bfs stream");
    write_binary_graph(&rnd_path, n, prep.edges_for(&hdrf)).expect("write random stream");

    let mut table = Table::new(
        "Fig 10(a) — runtime split, file-backed streams (it-s, k=32)",
        ["Algorithm", "Threads", "Passes", "I/O", "Compute", "Total"],
    );
    let mut rows_json = Arr::new();
    let clugp_on = |t| (format!("CLU{t}"), clugp_with(|c| c.threads = t), t);
    let mint = DistAlgo::Mint { threads: 32 };
    let rows = [
        ("HDRF".to_string(), hdrf, 0),
        ("Greedy".to_string(), DistAlgo::greedy(), 0),
        ("Mint".to_string(), mint, 32),
        clugp_on(8),
        clugp_on(16),
        clugp_on(32),
    ];
    for (label, algo, threads) in rows {
        let path = match algo.stream_order() {
            StreamOrder::Bfs => &bfs_path,
            _ => &rnd_path,
        };
        let file = FileEdgeStream::open(path).expect("open stream file");
        let mut timed = TimedStream::new(file);
        let mut partitioner = algo.monolith();
        let t = std::time::Instant::now();
        partitioner.partition(&mut timed, k).expect("partition");
        let total = t.elapsed().as_secs_f64();
        let io = timed.io_time().as_secs_f64();
        let passes = if matches!(algo, DistAlgo::Clugp(_)) {
            3
        } else {
            1
        };
        table.row(vec![
            label.clone(),
            if threads == 0 {
                "all".into()
            } else {
                threads.to_string()
            },
            passes.to_string(),
            fmt_secs(io),
            fmt_secs(total - io),
            fmt_secs(total),
        ]);
        rows_json.raw(&fig10a_row_json(&label, threads, io, total));
    }
    table.print();
    table.save_csv(&results_dir().join("fig10a.csv"));
    save_json("fig10a", &rows_json.finish());

    // (b) batch size sweep: B = 640 × {1..10}, each run once and shown in
    // both columns.
    let runs: Vec<(String, CellResult)> = (1..=10)
        .map(|mult| {
            let batch_size = 640 * mult;
            let clugp = clugp_with(|c| c.batch_size = batch_size);
            (batch_size.to_string(), run_cell(&prep, &clugp, k))
        })
        .collect();
    type Show = fn(&CellResult) -> String;
    let columns: [(String, Show); 2] = [
        ("RF".into(), |cell| {
            format!("{:.3}", cell.replication_factor)
        }),
        ("Runtime".into(), |cell| fmt_secs(cell.partition_secs)),
    ];
    let cells = grid(
        "Fig 10(b) — effect of game batch size (it-s, k=32)",
        "fig10b",
        "BatchSize",
        &runs,
        &columns,
        |run, _| run.clone(),
        |show, cell| show(cell),
    );
    save_json("fig10b", &cells_json(&cells));
}

/// One Fig. 10(a) row as JSON (`threads` 0 means all cores).
pub(super) fn fig10a_row_json(
    label: &str,
    threads: usize,
    io_secs: f64,
    total_secs: f64,
) -> String {
    Obj::new()
        .str("label", label)
        .u64("threads", threads as u64)
        .f64("io_secs", io_secs)
        .f64("total_secs", total_secs)
        .finish()
}
