//! The `experiments` binary end to end: every JSON file it writes is valid,
//! holds every cell its tables print, and the run leaves no scratch files.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory named for this process and `name`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clugp_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `experiments` at scale 0.05 with ks 4, `args` and `vars`, writing
/// into `results`; panics unless it exits 0.
fn experiments(args: &[&str], vars: &[(&str, &Path)], results: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .envs([("CLUGP_SCALE", "0.05"), ("CLUGP_KS", "4")])
        .envs(vars.iter().copied())
        .env("CLUGP_RESULTS_DIR", results)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn table3_and_table1_write_valid_json() {
    let dir = fresh_dir("experiments_json");
    experiments(&["table3", "table1"], &[], &dir);
    let mut written = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "json") {
            let json = std::fs::read_to_string(&path).unwrap();
            clugp_obs::json::validate(&json).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            written += 1;
        }
    }
    assert_eq!(written, 2);
    // Table I: six cells, each an object with every `CellResult` key.
    let table1 = std::fs::read_to_string(dir.join("table1.json")).unwrap();
    let keys = "row column dataset algorithm k replication_factor relative_balance";
    for key in keys
        .split(' ')
        .chain(["partition_secs", "memory_bytes", "phases"])
    {
        assert_eq!(table1.matches(&format!("\"{key}\":")).count(), 6, "{key}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `(row, column, rf)` of every entry of the CSV tables `names`, row-major,
/// table after table.
fn csv_entries(dir: &Path, names: &[&str]) -> Vec<(String, String, f64)> {
    let mut entries = Vec::new();
    for name in names {
        let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
        let mut lines = csv.lines().map(|l| l.split(',').collect::<Vec<_>>());
        let header = lines.next().unwrap();
        for row in lines {
            for (column, rf) in header[1..].iter().zip(&row[1..]) {
                entries.push((row[0].to_string(), column.to_string(), rf.parse().unwrap()));
            }
        }
    }
    entries
}

/// `(row, column, rf)` of every cell of a `cells_json` array, in order.
fn json_entries(json: &str) -> Vec<(String, String, f64)> {
    json.split(r#"{"row":""#)
        .skip(1)
        .map(|cell| {
            let (row, rest) = cell.split_once(r#"","column":""#).unwrap();
            let (column, rest) = rest.split_once('"').unwrap();
            let rf = rest.split(r#""replication_factor":"#).nth(1).unwrap();
            let rf = rf.split(',').next().unwrap().parse().unwrap();
            (row.to_string(), column.to_string(), rf)
        })
        .collect()
}

#[test]
fn fig9_and_fig11_json_hold_every_printed_cell() {
    let dir = fresh_dir("experiments_cells");
    experiments(&["fig9", "fig11"], &[], &dir);
    for (figure, tables, cells) in [
        ("fig9", &["fig9", "fig9_migration", "fig9_vmax"][..], 8),
        ("fig11", &["fig11a", "fig11b"][..], 4 * (6 + 5)),
    ] {
        let json = std::fs::read_to_string(dir.join(format!("{figure}.json"))).unwrap();
        clugp_obs::json::validate(&json).unwrap();
        let (got, printed) = (json_entries(&json), csv_entries(&dir, tables));
        assert_eq!((got.len(), printed.len()), (cells, cells), "{figure}");
        for ((row, column, rf), entry) in got.iter().zip(&printed) {
            assert_eq!((row, column), (&entry.0, &entry.1));
            // The CSV prints rf to three places, the JSON to six.
            assert!((rf - entry.2).abs() <= 5e-4 + 1e-9, "{entry:?}: {rf}");
        }
        let labels: BTreeSet<_> = got.iter().map(|(row, column, _)| (row, column)).collect();
        assert_eq!(
            labels.len(),
            cells,
            "{figure}: a (row, column) pair repeats"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fig10_removes_its_stream_files() {
    let (tmp, results) = (fresh_dir("fig10_tmp"), fresh_dir("fig10_results"));
    experiments(&["--quick", "fig10"], &[("TMPDIR", &tmp)], &results);
    let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().collect();
    assert!(left.is_empty(), "fig10 left {left:?} behind");
    assert!(results.join("fig10a.csv").is_file());
    std::fs::remove_dir_all(&tmp).unwrap();
    std::fs::remove_dir_all(&results).unwrap();
}
