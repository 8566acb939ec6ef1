//! Honest memory accounting for the space-overhead experiment (Fig. 6).
//!
//! Every partitioner reports the heap bytes of the internal state it had to
//! maintain, itemized by structure, measured from actual `Vec` capacities —
//! not an analytic formula. The output edge-assignment vector is excluded
//! for every algorithm (all algorithms emit it, so it cancels out of the
//! comparison; the paper likewise charges only the algorithm's working
//! state, which is why Hashing reports ~0).

/// Itemized heap footprint of a partitioner's working state.
#[derive(Debug, Clone, Default)]
pub struct MemoryReport {
    items: Vec<(String, usize)>,
}

impl MemoryReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` for a named structure.
    pub fn add(&mut self, name: &str, bytes: usize) {
        self.items.push((name.to_string(), bytes));
    }

    /// Total bytes across all structures.
    pub fn total_bytes(&self) -> usize {
        self.items.iter().map(|(_, b)| b).sum()
    }

    /// The recorded `(name, bytes)` items in insertion order.
    pub fn items(&self) -> &[(String, usize)] {
        &self.items
    }

    /// Bytes of the named item, if present.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.items.iter().find(|(n, _)| n == name).map(|(_, b)| *b)
    }
}

impl std::fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} MiB",
            self.total_bytes() as f64 / (1024.0 * 1024.0)
        )?;
        if !self.items.is_empty() {
            write!(f, " (")?;
            for (i, (n, b)) in self.items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{n}: {:.2} MiB", *b as f64 / (1024.0 * 1024.0))?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_lookup() {
        let mut r = MemoryReport::new();
        r.add("degrees", 1000);
        r.add("replica-table", 5000);
        assert_eq!(r.total_bytes(), 6000);
        assert_eq!(r.get("degrees"), Some(1000));
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.items().len(), 2);
    }

    #[test]
    fn empty_report_is_zero() {
        assert_eq!(MemoryReport::new().total_bytes(), 0);
    }

    #[test]
    fn display_mentions_items() {
        let mut r = MemoryReport::new();
        r.add("x", 1024 * 1024);
        let s = r.to_string();
        assert!(s.contains("1.00 MiB"));
        assert!(s.contains("x:"));
    }
}
