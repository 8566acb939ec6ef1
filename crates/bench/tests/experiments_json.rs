//! `experiments table3 table1` end to end: every JSON file it writes is valid.

#[test]
fn table3_and_table1_write_valid_json() {
    let dir = std::env::temp_dir().join(format!("clugp_experiments_json_{}", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table3", "table1"])
        .envs([("CLUGP_SCALE", "0.05"), ("CLUGP_KS", "4")])
        .env("CLUGP_RESULTS_DIR", &dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
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
    let keys = "dataset algorithm k replication_factor relative_balance partition_secs";
    for key in keys.split(' ').chain(["memory_bytes", "phases"]) {
        assert_eq!(table1.matches(&format!("\"{key}\":")).count(), 6, "{key}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
