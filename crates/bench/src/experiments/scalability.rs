//! Scalability figures: Fig. 6 (memory), Fig. 7 (runtime) and Fig. 10
//! (parallelization & batch size).

use super::ExpContext;
use crate::algorithms::{Algorithm, BuildOptions};
use crate::datasets::Dataset;
use crate::report::{fmt_secs, results_dir, save_json, Table};
use crate::runner::{cells_json, run_cell, run_cell_with, PreparedDataset};
use clugp_graph::io::binary::{write_binary_graph, FileEdgeStream};
use clugp_graph::stream::TimedStream;
use clugp_obs::json::{Arr, Obj};

/// Fig. 6 — working-state memory vs number of partitions on the it-2004
/// analogue.
pub fn fig6(ctx: &ExpContext) {
    let prep = PreparedDataset::load(Dataset::ItS, ctx.scale);
    let mut table = Table::new_owned("Fig 6 — memory (MiB) vs #partitions (it-s)", {
        let mut h = vec!["Algorithm".to_string()];
        h.extend(ctx.ks.iter().map(|k| format!("k={k}")));
        h
    });
    let mut all = Vec::new();
    for algo in Algorithm::COMPETITORS {
        let mut row = vec![algo.name().to_string()];
        for &k in &ctx.ks {
            let cell = run_cell(&prep, algo, k);
            row.push(format!(
                "{:.2}",
                cell.memory_bytes as f64 / (1024.0 * 1024.0)
            ));
            all.push(cell);
        }
        table.row(row);
    }
    table.print();
    table.save_csv(&results_dir().join("fig6.csv"));
    save_json("fig6", &cells_json(&all));
}

/// Fig. 7 — partitioning runtime vs number of partitions on the uk-2002 and
/// it-2004 analogues.
pub fn fig7(ctx: &ExpContext) {
    let mut all = Vec::new();
    for ds in [Dataset::UkS, Dataset::ItS] {
        let prep = PreparedDataset::load(ds, ctx.scale);
        let mut table = Table::new_owned(
            &format!("Fig 7 — runtime (s) vs #partitions ({})", ds.name()),
            {
                let mut h = vec!["Algorithm".to_string()];
                h.extend(ctx.ks.iter().map(|k| format!("k={k}")));
                h
            },
        );
        for algo in Algorithm::COMPETITORS {
            let mut row = vec![algo.name().to_string()];
            for &k in &ctx.ks {
                let cell = run_cell(&prep, algo, k);
                row.push(format!("{:.3}", cell.partition_secs));
                all.push(cell);
            }
            table.row(row);
        }
        table.print();
        table.save_csv(&results_dir().join(format!("fig7_{}.csv", ds.name())));
    }
    save_json("fig7", &cells_json(&all));
}

/// Fig. 10 — parallelization: (a) runtime split into computation vs I/O for
/// the heuristics and CLUGP at 8/16/32 threads, streaming from disk so the
/// three-pass I/O cost is charged honestly; (b) RF and runtime vs game batch
/// size.
pub fn fig10(ctx: &ExpContext) {
    let prep = PreparedDataset::load(Dataset::ItS, ctx.scale);
    let k = 32;

    // Persist both stream orders to disk once.
    let dir = std::env::temp_dir().join("clugp_fig10");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bfs_path = dir.join("it_bfs.bin");
    let rnd_path = dir.join("it_rnd.bin");
    write_binary_graph(
        &bfs_path,
        prep.graph.num_vertices(),
        prep.edges_for(Algorithm::Clugp),
    )
    .expect("write bfs stream");
    write_binary_graph(
        &rnd_path,
        prep.graph.num_vertices(),
        prep.edges_for(Algorithm::Hdrf),
    )
    .expect("write random stream");

    let mut table = Table::new(
        "Fig 10(a) — runtime split, file-backed streams (it-s, k=32)",
        &["Algorithm", "Threads", "Passes", "I/O", "Compute", "Total"],
    );
    let mut rows_json = Arr::new();
    let mut run_one = |label: &str, algo: Algorithm, threads: usize, table: &mut Table| {
        let path = match algo.stream_order() {
            clugp_graph::order::StreamOrder::Bfs => &bfs_path,
            _ => &rnd_path,
        };
        let file = FileEdgeStream::open(path).expect("open stream file");
        let mut timed = TimedStream::new(file);
        let mut partitioner = algo.build_with(&BuildOptions {
            threads,
            ..Default::default()
        });
        let t = std::time::Instant::now();
        let run = partitioner.partition(&mut timed, k).expect("partition");
        let total = t.elapsed().as_secs_f64();
        let io = timed.io_time().as_secs_f64();
        let passes = if matches!(
            algo,
            Algorithm::Clugp | Algorithm::ClugpNoSplit | Algorithm::ClugpGreedyAssign
        ) {
            3
        } else {
            1
        };
        drop(run);
        table.row(vec![
            label.to_string(),
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
        rows_json.raw(&fig10a_row_json(label, threads, io, total));
    };
    run_one("HDRF", Algorithm::Hdrf, 0, &mut table);
    run_one("Greedy", Algorithm::Greedy, 0, &mut table);
    run_one("Mint", Algorithm::Mint, 32, &mut table);
    for threads in [8usize, 16, 32] {
        run_one(
            &format!("CLU{threads}"),
            Algorithm::Clugp,
            threads,
            &mut table,
        );
    }
    table.print();
    table.save_csv(&results_dir().join("fig10a.csv"));
    save_json("fig10a", &rows_json.finish());

    // (b) batch size sweep: B = 640 × {1..10}.
    let mut table_b = Table::new(
        "Fig 10(b) — effect of game batch size (it-s, k=32)",
        &["BatchSize", "RF", "Runtime"],
    );
    let mut json_b = Vec::new();
    for mult in 1..=10usize {
        let batch = 640 * mult;
        let cell = run_cell_with(
            &prep,
            Algorithm::Clugp,
            k,
            &BuildOptions {
                batch_size: batch,
                ..Default::default()
            },
        );
        table_b.row(vec![
            batch.to_string(),
            format!("{:.3}", cell.replication_factor),
            fmt_secs(cell.partition_secs),
        ]);
        json_b.push(cell);
    }
    table_b.print();
    table_b.save_csv(&results_dir().join("fig10b.csv"));
    save_json("fig10b", &cells_json(&json_b));
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
