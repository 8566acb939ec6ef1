//! Table printing and result export.
//!
//! Every experiment prints an aligned table (the "same rows/series the
//! paper reports") and writes a CSV plus a JSON provenance blob, built with
//! `clugp_obs::json`, under `results/`.

use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<S: ToString>(title: &str, headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV, creating the parent directory.
    ///
    /// # Panics
    ///
    /// If the file cannot be written: the message names the path and the
    /// I/O error, so a run never ends without its artifact.
    pub fn save_csv(&self, path: &Path) {
        let csv: String = std::iter::once(&self.headers)
            .chain(&self.rows)
            .map(|row| row.join(",") + "\n")
            .collect();
        write_result(path, csv.as_bytes());
    }
}

/// Writes one result file, creating its directory; panics naming the path
/// and the I/O error.
fn write_result(path: &Path, contents: &[u8]) {
    let dir = path.parent().unwrap_or(Path::new(""));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, contents)) {
        panic!("cannot write result {}: {e}", path.display());
    }
}

/// Directory where experiment outputs are written (`results/` by default,
/// override with `CLUGP_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var("CLUGP_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Saves JSON text as `<name>.json` under the results dir.
///
/// # Panics
///
/// If the file cannot be written, naming the path and the I/O error.
pub fn save_json(name: &str, json: &str) {
    write_result(&results_dir().join(format!("{name}.json")), json.as_bytes());
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.0}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Formats bytes as MiB/GiB.
pub fn fmt_bytes(b: u64) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let b = b as f64;
    if b >= 1024.0 * MIB {
        format!("{:.2}GiB", b / (1024.0 * MIB))
    } else {
        format!("{:.2}MiB", b / MIB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", ["algo", "rf"]);
        t.row(vec!["CLUGP".into(), "1.50".into()]);
        t.row(vec!["H".into(), "10.25".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("CLUGP"));
        let lines: Vec<&str> = r.lines().collect();
        // All data lines have equal length after alignment.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", ["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new("x", ["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("clugp_report_test");
        let path = dir.join("t.csv");
        t.save_csv(&path);
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn unwritable_result_panics_naming_its_path() {
        let dir = std::env::temp_dir().join("clugp_report_unwritable");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("regular-file");
        std::fs::write(&file, "not a directory").unwrap();
        let path = file.join("t.csv");
        let t = Table::new("x", ["a"]);
        let panic = std::panic::catch_unwind(|| t.save_csv(&path)).unwrap_err();
        let msg = panic.downcast_ref::<String>().expect("formatted message");
        assert!(
            msg.contains(&path.display().to_string()),
            "message does not name {}: {msg}",
            path.display()
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(0.0000005), "0us");
        assert_eq!(fmt_secs(0.0123), "12.3ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00MiB");
        assert!(fmt_bytes(3 * 1024 * 1024 * 1024).ends_with("GiB"));
    }

    #[test]
    fn table_len() {
        let mut t = Table::new("x", ["a"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }
}
