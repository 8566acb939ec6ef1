//! Barrier checkpoints (`CLUGPCK1`).
//!
//! At every pass barrier the coordinator snapshots the complete
//! distributed state — the sequencing [`Token`], the stage about to run,
//! and the tables, which it owns whenever they are not empty — into one
//! [`Checkpoint`]. The
//! supervisor keeps the latest one in memory to replay a failed pass;
//! with `--checkpoint-dir` it is also persisted so a later run can
//! `--resume` past already-finished passes.
//!
//! On-disk format (following the `pack/` header/footer conventions:
//! magic + little-endian body + trailing CRC):
//!
//! ```text
//! [8]  magic "CLUGPCK1"
//! [8]  body length (u64 LE)
//! [..] body (wire-codec encoded)
//! [4]  CRC32 of the body (same IEEE CRC as CLUGPZ packs)
//! ```
//!
//! Files are written to a dot-prefixed temp name, fsynced, then
//! atomically renamed to `ckpt-<seq>.clugpck` — a torn write leaves
//! either no file or a temp file the loader never looks at, and the CRC
//! rejects any partially-flushed rename survivor, so a torn checkpoint is
//! never loadable.

use super::proto::{get_stage, get_token, put_stage, put_token, Stage, Token};
use super::wire::{Rd, Wr};
use crate::error::{PartitionError, Result};
use clugp_graph::pack::crc32;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"CLUGPCK1";

/// One table slot's full contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableDump {
    /// Words per row.
    pub width: u32,
    /// Row keys: ascending as written today, in any order to a reader.
    pub keys: Vec<u64>,
    /// Flattened rows, `keys.len() * width` words.
    pub rows: Vec<u64>,
}

/// A complete barrier snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Barrier sequence number (1-based; CLUGP has barriers 1..=3).
    pub seq: u64,
    /// The stage that runs *after* this barrier.
    pub stage: Stage,
    /// Sequencing token at the barrier.
    pub token: Token,
    /// Algorithm name (fingerprint: a checkpoint only resumes the same
    /// algorithm).
    pub algo: String,
    /// Partition count (fingerprint).
    pub k: u32,
    /// Total edge count of the input (fingerprint). Worker count and
    /// chunk size are deliberately *not* part of the fingerprint: results
    /// are bit-identical across both, so a resume may change them.
    pub m: u64,
    /// Vertex-count hint of the input.
    pub n_hint: u64,
    /// Exact edge count derived from degrees (CLUGP; 0 before it is
    /// known).
    pub m_real: u64,
    /// Compacted cluster count (CLUGP; 0 before compaction).
    pub num_clusters: u64,
    /// Per-table state dumps.
    pub tables: Vec<TableDump>,
}

impl Checkpoint {
    /// Whether this checkpoint belongs to the run described by
    /// `(algo, k, m)`.
    pub fn matches(&self, algo: &str, k: u32, m: u64) -> bool {
        self.algo == algo && self.k == k && self.m == m
    }

    /// Canonical file name for a barrier.
    pub fn file_name(seq: u64) -> String {
        format!("ckpt-{seq:05}.clugpck")
    }

    /// Serializes the checkpoint (magic + body + CRC footer).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Wr::new();
        w.u64(self.seq);
        put_stage(&mut w, self.stage);
        put_token(&mut w, &self.token);
        w.str(&self.algo);
        w.u32(self.k);
        w.u64(self.m);
        w.u64(self.n_hint);
        w.u64(self.m_real);
        w.u64(self.num_clusters);
        w.u64(self.tables.len() as u64);
        for t in &self.tables {
            w.u32(t.width);
            w.u64s(&t.keys);
            w.u64s(&t.rows);
        }
        let body = w.into_bytes();
        let mut out = Vec::with_capacity(8 + 8 + body.len() + 4);
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Parses and CRC-validates a serialized checkpoint.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint> {
        let bad = |what: &str| PartitionError::InvalidParam(format!("checkpoint: {what}"));
        if bytes.len() < 20 || &bytes[..8] != CHECKPOINT_MAGIC {
            return Err(bad("bad magic"));
        }
        let body_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let rest = &bytes[16..];
        if rest.len() != body_len + 4 {
            return Err(bad("truncated"));
        }
        let (body, footer) = rest.split_at(body_len);
        let stored = u32::from_le_bytes(footer.try_into().unwrap());
        if crc32(body) != stored {
            return Err(bad("CRC mismatch"));
        }
        let mut r = Rd::new(body);
        let seq = r.u64()?;
        let stage = get_stage(&mut r)?;
        let token = get_token(&mut r)?;
        let algo = r.str()?;
        let k = r.u32()?;
        let m = r.u64()?;
        let n_hint = r.u64()?;
        let m_real = r.u64()?;
        let num_clusters = r.u64()?;
        let n_tables = r.len(4)?;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            tables.push(TableDump {
                width: r.u32()?,
                keys: r.u64s()?,
                rows: r.u64s()?,
            });
        }
        if !r.done() {
            return Err(bad("trailing bytes"));
        }
        Ok(Checkpoint {
            seq,
            stage,
            token,
            algo,
            k,
            m,
            n_hint,
            m_real,
            num_clusters,
            tables,
        })
    }
}

fn ck_io(what: &str, e: std::io::Error) -> PartitionError {
    PartitionError::InvalidParam(format!("checkpoint {what}: {e}"))
}

/// Writes `ck` into `dir` with an atomic rename-commit. Returns the
/// committed path.
pub fn write_checkpoint(dir: &Path, ck: &Checkpoint) -> Result<PathBuf> {
    std::fs::create_dir_all(dir).map_err(|e| ck_io("dir", e))?;
    let final_path = dir.join(Checkpoint::file_name(ck.seq));
    let tmp_path = dir.join(format!(".tmp-{}", Checkpoint::file_name(ck.seq)));
    let bytes = ck.encode();
    let mut f = std::fs::File::create(&tmp_path).map_err(|e| ck_io("create", e))?;
    f.write_all(&bytes).map_err(|e| ck_io("write", e))?;
    f.sync_all().map_err(|e| ck_io("sync", e))?;
    drop(f);
    std::fs::rename(&tmp_path, &final_path).map_err(|e| ck_io("commit", e))?;
    Ok(final_path)
}

/// Loads the newest checkpoint in `dir` that decodes, CRC-validates, and
/// matches the `(algo, k, m)` fingerprint. Unreadable, torn, or foreign
/// files are skipped, never fatal.
pub fn load_latest(dir: &Path, algo: &str, k: u32, m: u64) -> Option<Checkpoint> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<Checkpoint> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("ckpt-") || !name.ends_with(".clugpck") {
            continue;
        }
        let Ok(bytes) = std::fs::read(entry.path()) else {
            continue;
        };
        let Ok(ck) = Checkpoint::decode(&bytes) else {
            continue;
        };
        if !ck.matches(algo, k, m) {
            continue;
        }
        if best.as_ref().is_none_or(|b| ck.seq > b.seq) {
            best = Some(ck);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            seq: 2,
            stage: Stage::ClugpPairs { num_clusters: 17 },
            token: Token {
                loads: vec![3, 1, 4],
                cursor: 1,
                next_raw: 59,
                splits: 2,
                migrations: 6,
                reroutes: 5,
                table_len: 35,
            },
            algo: "clugp".into(),
            k: 3,
            m: 1000,
            n_hint: 35,
            m_real: 998,
            num_clusters: 17,
            tables: vec![
                TableDump {
                    width: 3,
                    keys: vec![0, 1, 2],
                    rows: vec![9; 9],
                },
                TableDump {
                    width: 1,
                    keys: vec![5],
                    rows: vec![7],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let ck = sample();
        assert_eq!(Checkpoint::decode(&ck.encode()).unwrap(), ck);
    }

    /// Format pin, recorded with the byte-at-a-time `crc32` (commit
    /// 77db6d0): the CRC footer and FNV-1a of a whole encoded checkpoint.
    /// A checkpoint persisted by a build on either side of the slicing-by-16
    /// kernel must `--resume` on the other.
    #[test]
    fn encoded_bytes_are_pinned_across_crc_kernels() {
        let bytes = sample().encode();
        let footer = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        assert_eq!(footer, 0x9D11_AB0F, "{footer:#010X}");
        let fnv = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!(fnv, 0x55A0_9014_3BC5_4D55, "{fnv:#018X}");
    }

    #[test]
    fn corrupt_or_truncated_bytes_rejected() {
        let bytes = sample().encode();
        // Torn tail.
        assert!(Checkpoint::decode(&bytes[..bytes.len() - 3]).is_err());
        // Flipped body byte fails the CRC.
        let mut bad = bytes.clone();
        bad[20] ^= 0x01;
        assert!(Checkpoint::decode(&bad).is_err());
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Checkpoint::decode(&bad).is_err());
    }

    #[test]
    fn dir_store_commit_and_latest_selection() {
        let dir = std::env::temp_dir().join(format!("clugpck-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = sample();
        ck.seq = 1;
        write_checkpoint(&dir, &ck).unwrap();
        ck.seq = 2;
        ck.token.cursor = 2;
        write_checkpoint(&dir, &ck).unwrap();
        // A torn file on disk must never load: fake one by truncating.
        let torn = dir.join(Checkpoint::file_name(3));
        std::fs::write(&torn, &ck.encode()[..30]).unwrap();
        // A checkpoint from a different run is skipped by fingerprint.
        let mut foreign = sample();
        foreign.seq = 9;
        foreign.k = 12;
        write_checkpoint(&dir, &foreign).unwrap();

        let picked = load_latest(&dir, "clugp", 3, 1000).unwrap();
        assert_eq!(picked.seq, 2);
        assert_eq!(picked.token.cursor, 2);
        assert!(load_latest(&dir, "hdrf", 3, 1000).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
