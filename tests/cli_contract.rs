//! The CLI contract of `clugp-part`, pinned at the bytes it emits.
//!
//! Drives the real binary over one small generated web-crawl graph written
//! as text, flat binary (`CLUGPGR1`) and pack (`CLUGPZ`): 6 algorithms × 4
//! orders × 3 formats as the monolith, CLUGP's 12 of them also under
//! `--workers 2`, `--workers 2 --transport unix` and `--workers 2
//! --ampc-mode relaxed` (the coordinator/worker engine runs CLUGP only),
//! plus `--sparse` and the 4-worker unix / relaxed runs CI used to diff by
//! hand. Every cell's TSV, `assignments.clugppa`, `replicas.clugprt`
//! and its `replication factor` / `relative balance` / `mirrors` stdout
//! lines are FNV-1a hashed and compared with `tests/cli_contract.golden`.
//!
//! The goldens are a recording, not a derivation: they were written by the
//! binary of the commit before the CLI's run path was rewritten, and a
//! change that means to keep the contract must not edit them. A change that
//! means to move it re-records with
//! `CLI_CONTRACT_RECORD=1 cargo test --release --test cli_contract` and
//! says why in its description.
//!
//! The fixture files stay behind in `target/tmp/cli_contract/` (CI's
//! killed-worker and trace smokes run on `web.txt`).

use clugp_repro::{clugp_part_exe, fnv1a, test_web_graph, web_fixture, Input};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/cli_contract.golden");

const ALGOS: [&str; 6] = ["clugp", "hdrf", "greedy", "hashing", "dbh", "mint"];
const ORDERS: [&str; 4] = ["bfs", "dfs", "random", "asis"];
const FORMATS: [(&str, &str); 3] = [
    ("text", "web.txt"),
    ("bin", "web.bin"),
    ("pack", "web.clugpz"),
];
/// The three sequenced modes come first: `sequenced_modes_agree` relies on it.
/// Every mode but the monolith runs CLUGP only.
const MODES: [(&str, &[&str]); 4] = [
    ("mono", &[]),
    ("w2", &["--workers", "2"]),
    ("w2unix", &["--workers", "2", "--transport", "unix"]),
    ("w2relaxed", &["--workers", "2", "--ampc-mode", "relaxed"]),
];

struct Cell {
    name: String,
    input: &'static str,
    flags: Vec<String>,
    /// `--sparse` cells record no placement: the commit the goldens come
    /// from wrote none for them.
    placement: bool,
}

fn cell(name: String, input: &'static str, flags: &[&str], placement: bool) -> Cell {
    Cell {
        name,
        input,
        flags: flags.iter().map(|s| s.to_string()).collect(),
        placement,
    }
}

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for algo in ALGOS {
        for order in ORDERS {
            for (format, file) in FORMATS {
                for (mode, mode_flags) in MODES {
                    if mode != "mono" && algo != "clugp" {
                        continue;
                    }
                    let mut flags = vec!["--algo", algo, "--order", order];
                    flags.extend_from_slice(mode_flags);
                    out.push(cell(
                        format!("{algo}-{order}-{format}-{mode}"),
                        file,
                        &flags,
                        true,
                    ));
                }
            }
        }
        out.push(cell(
            format!("{algo}-sparse"),
            "sparse.txt",
            &["--algo", algo, "--sparse"],
            false,
        ));
    }
    // Default order, 4 workers: separate OS processes over Unix sockets,
    // and the relaxed mode whose only promise is determinism.
    out.push(cell(
        "clugp-bfs-text-w4unix".into(),
        "web.txt",
        &["--algo", "clugp", "--workers", "4", "--transport", "unix"],
        true,
    ));
    out.push(cell(
        "clugp-bfs-text-w4relaxed".into(),
        "web.txt",
        &[
            "--algo",
            "clugp",
            "--workers",
            "4",
            "--ampc-mode",
            "relaxed",
        ],
        true,
    ));
    out
}

/// The hex [`fnv1a`] of `bytes`, as the golden file records it.
fn hex_hash(bytes: Vec<u8>) -> String {
    format!("{:016x}", fnv1a(bytes))
}

fn hash_file(path: &Path) -> String {
    hex_hash(std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

/// Writes the one graph in every input format the CLI reads.
fn write_fixtures(dir: &Path) {
    web_fixture(dir, Input::Text, 1500, 22);
    web_fixture(dir, Input::Binary, 1500, 22);
    // Small blocks, so that a block-range split gives every worker edges.
    let pack = Input::Pack {
        block_bytes: 4096,
        prefetch: 0,
    };
    web_fixture(dir, pack, 1500, 22);
    // The same edges under hashed-URL-style ids (an odd multiplier is a
    // bijection on u64).
    let (_, edges) = test_web_graph(1500, 22);
    let ext = |v: u32| (u64::from(v) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let sparse: String = edges
        .iter()
        .map(|e| format!("{} {}\n", ext(e.src), ext(e.dst)))
        .collect();
    std::fs::write(dir.join("sparse.txt"), sparse).unwrap();
}

/// Runs one cell; returns its golden row (`tsv assignments replicas quality`).
fn run_cell(exe: &Path, dir: &Path, cell: &Cell) -> String {
    let tsv = dir.join("out").join(format!("{}.tsv", cell.name));
    let placed = dir.join("out").join(&cell.name);
    let mut cmd = Command::new(exe);
    cmd.arg(dir.join(cell.input))
        .args(["--k", "8", "--threads", "2"])
        .args(&cell.flags)
        .arg("--output")
        .arg(&tsv);
    if cell.placement {
        cmd.arg("--emit-placement").arg(&placed);
    }
    let out = cmd.output().expect("spawn clugp-part");
    assert!(
        out.status.success(),
        "{}: exit {:?}\n{}",
        cell.name,
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let quality: Vec<&str> = stdout
        .lines()
        .filter(|l| {
            ["replication factor", "relative balance", "mirrors"]
                .iter()
                .any(|p| l.starts_with(p))
        })
        .collect();
    assert_eq!(
        quality.len(),
        3,
        "{}: quality lines in\n{stdout}",
        cell.name
    );
    let placement = |file: &str| match cell.placement {
        true => hash_file(&placed.join(file)),
        false => "-".into(),
    };
    format!(
        "{} {} {} {}",
        hash_file(&tsv),
        placement("assignments.clugppa"),
        placement("replicas.clugprt"),
        hex_hash(quality.join("\n").into_bytes())
    )
}

/// For every (order, format) CLUGP's three sequenced modes must print one
/// row — the bit-identity contract, whatever the goldens say.
fn sequenced_modes_agree(rows: &BTreeMap<String, String>) -> Vec<String> {
    let mut diverged = Vec::new();
    for order in ORDERS {
        for (format, _) in FORMATS {
            let row = |mode: &str| &rows[&format!("clugp-{order}-{format}-{mode}")];
            for (mode, _) in &MODES[1..3] {
                if row(mode) != row("mono") {
                    diverged.push(format!("clugp-{order}-{format}-{mode} != monolith"));
                }
            }
        }
    }
    diverged
}

#[test]
fn every_cell_matches_the_recorded_bytes() {
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_contract");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("out")).unwrap();
    write_fixtures(&dir);

    // A unix cell is three processes; keep the machine's share small.
    let cells = cells();
    let cursor = AtomicUsize::new(0);
    let rows = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(cell) = cells.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let row = run_cell(&exe, &dir, cell);
                    rows.lock()
                        .expect("a cell panicked")
                        .insert(cell.name.clone(), row);
                }
            });
        }
    });
    let rows = rows.into_inner().expect("a cell panicked");
    assert_eq!(rows.len(), cells.len(), "cell names must be unique");

    let diverged = sequenced_modes_agree(&rows);
    assert!(
        diverged.is_empty(),
        "sequenced runs diverged:\n{}",
        diverged.join("\n")
    );

    if std::env::var_os("CLI_CONTRACT_RECORD").is_some() {
        let text: String = rows.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        std::fs::write(GOLDEN, text).unwrap();
        eprintln!("recorded {} cells to {GOLDEN}", rows.len());
        return;
    }
    let golden: BTreeMap<String, String> = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e}"))
        .lines()
        .map(|l| {
            let (name, row) = l.split_once(' ').expect("golden line: name then hashes");
            (name.to_string(), row.to_string())
        })
        .collect();
    let mut wrong: Vec<String> = rows
        .iter()
        .filter(|(name, row)| golden.get(*name) != Some(*row))
        .map(|(name, row)| {
            format!(
                "{name}\n  golden {}\n  got    {row}",
                golden.get(name).map_or("(no such cell)", |g| g.as_str())
            )
        })
        .collect();
    wrong.extend(
        golden
            .keys()
            .filter(|name| !rows.contains_key(*name))
            .map(|name| format!("{name}: in the goldens, not run")),
    );
    assert!(
        wrong.is_empty(),
        "{} of {} cells differ (columns: tsv assignments replicas quality):\n{}",
        wrong.len(),
        rows.len(),
        wrong.join("\n")
    );
}

/// HDRF and Greedy follow a locality-ordered stream into one partition
/// (rf 1.0000, balance = k): that stays exit 0, and is said on stderr.
#[test]
fn one_partition_holding_every_edge_warns_and_exits_zero() {
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_contract_warning");
    std::fs::create_dir_all(&dir).unwrap();
    let ring: String = (0..64).map(|v| format!("{v} {}\n", (v + 1) % 64)).collect();
    std::fs::write(dir.join("ring.txt"), ring).unwrap();
    let stderr_of = |order: &str| {
        let out = Command::new(&exe)
            .arg(dir.join("ring.txt"))
            .args(["--k", "4", "--algo", "hdrf", "--order", order])
            .output()
            .expect("spawn clugp-part");
        assert!(out.status.success(), "--order {order}: {:?}", out.status);
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let bfs = stderr_of("bfs");
    assert!(
        bfs.contains("warning: HDRF put all 64 edges on one of 4 partitions in bfs order"),
        "{bfs}"
    );
    assert!(bfs.contains("--order random"), "{bfs}");
    assert!(!stderr_of("random").contains("warning:"));
    if cfg!(target_os = "linux") {
        assert!(bfs.contains("peak rss = "), "{bfs}");
    }
}

/// Without `--order` each algorithm streams in its own order
/// (`DistAlgo::stream_order`): HDRF and Greedy get the random order that
/// spreads the crawl, where BFS follows its locality onto one partition
/// (all but five edges of this fixture; the ring above gets the warning).
#[test]
fn default_order_is_the_algorithms_own() {
    let Some(exe) = clugp_part_exe() else {
        eprintln!("skipping: clugp-part binary not built");
        return;
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_contract_default_order");
    std::fs::create_dir_all(&dir).unwrap();
    let web = web_fixture(&dir, Input::Text, 1500, 22);
    // Exit code, stderr and relative balance of one run at k = 16.
    let run = |flags: &[&str]| {
        let out = Command::new(&exe)
            .arg(&web)
            .args(["--k", "16"])
            .args(flags)
            .output()
            .expect("spawn clugp-part");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let balance = stdout
            .lines()
            .find_map(|l| l.strip_prefix("relative balance"))
            .and_then(|v| v.trim_start_matches([' ', '=']).parse::<f64>().ok());
        (out.status.code(), stderr, balance)
    };
    for algo in ["hdrf", "greedy"] {
        let (code, stderr, balance) = run(&["--algo", algo]);
        assert_eq!(code, Some(0), "{algo}: {stderr}");
        assert!(!stderr.contains("warning:"), "{algo}: {stderr}");
        assert!(stderr.contains("(order: random,"), "{algo}: {stderr}");
        assert!(balance.is_some_and(|b| b < 1.10), "{algo}: {balance:?}");

        let (code, stderr, balance) = run(&["--algo", algo, "--order", "bfs"]);
        assert_eq!(code, Some(0), "{algo} --order bfs: {stderr}");
        assert!(
            balance.is_some_and(|b| b > 15.0),
            "{algo} --order bfs: {balance:?}"
        );
    }
    let (code, stderr, _) = run(&["--algo", "grid"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown algorithm \"grid\""), "{stderr}");
}
