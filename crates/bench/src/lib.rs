//! Experiment harness for the CLUGP reproduction.
//!
//! One module per concern:
//!
//! * [`datasets`] — the synthetic analogues of the paper's Table III
//!   corpora (see DESIGN.md §4 for the substitution rationale), with an
//!   in-process cache and a global scale knob (`CLUGP_SCALE`).
//! * [`runner`] — the rows under test (the core's `DistAlgo` roster: the
//!   six competitors and CLUGP's ablations, each streaming in the order
//!   the paper grants it), one `(dataset, algorithm, k)` cell with its
//!   quality/time/memory measurements, and `grid`, which runs a figure's
//!   rows × columns, prints and saves its table and returns every cell
//!   stamped with the row and column it is printed under.
//! * [`report`] — aligned-table printing and CSV/JSON export into
//!   `results/`.
//! * [`experiments`] — one entry point per paper table/figure
//!   (`table1`, `table3`, `fig3` … `fig11`).
//!
//! The `experiments` binary dispatches to these.

#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod runner;
