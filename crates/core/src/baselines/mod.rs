//! The vertex-cut streaming baselines of Table I, implemented from their
//! original papers:
//!
//! | Algorithm | Source | Time | Quality |
//! |-----------|--------|------|---------|
//! | [`Hashing`] | PowerGraph random vertex-cut (Gonzalez et al., OSDI'12) | Low | Low |
//! | [`Dbh`] | Degree-Based Hashing (Xie et al., NeurIPS'14) | Low | Low |
//! | [`Mint`] | Quasi-streaming game partitioning (Hua et al., TPDS'19) | Medium | Medium |
//! | [`Greedy`] | PowerGraph oblivious greedy (Gonzalez et al., OSDI'12) | High | High |
//! | [`Hdrf`] | High-Degree Replicated First (Petroni et al., CIKM'15) | High | High |

pub(crate) mod dbh;
pub(crate) mod greedy;
pub(crate) mod hashing;
pub(crate) mod hdrf;
pub(crate) mod kernel;
pub(crate) mod mint;

pub use dbh::Dbh;
pub use greedy::Greedy;
pub use hashing::Hashing;
pub use hdrf::Hdrf;
pub use mint::Mint;
