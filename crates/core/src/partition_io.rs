//! Persisting partitionings: a versioned binary snapshot of an
//! edge→partition assignment so partitioning (expensive, offline) and
//! consumption (the distributed engine, repeatedly) can run in separate
//! processes — the operational split every production deployment needs.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   [u8; 8] = b"CLUGPPA1"
//! k       u32
//! n       u64     number of vertices
//! m       u64     number of edges
//! a       m × u32 per-edge partition ids (stream order)
//! ```
//!
//! A *placement directory* ([`write_placement_dir`]) pairs that snapshot
//! with the vertex replica table the distributed engine derives from it
//! (`CLUGPRT1`: k, n, then n bitset rows of `ceil(k/64)` u64 words), so
//! consumers can load a placement without re-streaming the graph.
//!
//! Both files are exactly header + payload: a reader holds the header's
//! counts against the file's length before it sizes anything from them, so
//! a truncated, padded or forged snapshot is a [`GraphError::Format`], never
//! an allocation.

use crate::error::{PartitionError, Result};
use crate::partition::{Partitioning, MAX_PARTITIONS};
use crate::state::ReplicaTable;
use clugp_graph::GraphError;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CLUGPPA1";
const RT_MAGIC: &[u8; 8] = b"CLUGPRT1";

/// File name of the assignment snapshot inside a placement directory.
pub const PLACEMENT_ASSIGNMENTS: &str = "assignments.clugppa";
/// File name of the replica-table snapshot inside a placement directory.
pub const PLACEMENT_REPLICAS: &str = "replicas.clugprt";

/// Bytes of the slab the snapshot writers and readers move per call.
const SLAB_BYTES: usize = 64 * 1024;
/// `CLUGPPA1` header: magic, `k`, `n`, `m`.
const PA_HEADER: u64 = 8 + 4 + 8 + 8;
/// `CLUGPRT1` header: magic, `k`, `n`.
const RT_HEADER: u64 = 8 + 4 + 8;

fn pa_header(k: u32, n: u64, m: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(PA_HEADER as usize);
    b.extend_from_slice(MAGIC);
    b.extend_from_slice(&k.to_le_bytes());
    b.extend_from_slice(&n.to_le_bytes());
    b.extend_from_slice(&m.to_le_bytes());
    b
}

fn rt_header(k: u32, n: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(RT_HEADER as usize);
    b.extend_from_slice(RT_MAGIC);
    b.extend_from_slice(&k.to_le_bytes());
    b.extend_from_slice(&n.to_le_bytes());
    b
}

/// Writes `partitioning` to `path`.
pub fn write_partitioning(path: &Path, partitioning: &Partitioning) -> Result<()> {
    check_k(partitioning.k)?;
    let mut file = File::create(path).map_err(io_err)?;
    let header = pa_header(
        partitioning.k,
        partitioning.num_vertices,
        partitioning.assignments.len() as u64,
    );
    file.write_all(&header).map_err(io_err)?;
    let mut slab = vec![0u8; SLAB_BYTES];
    for ids in partitioning.assignments.chunks(SLAB_BYTES / 4) {
        let bytes = &mut slab[..ids.len() * 4];
        for (dst, p) in bytes.chunks_exact_mut(4).zip(ids) {
            dst.copy_from_slice(&p.to_le_bytes());
        }
        file.write_all(bytes).map_err(io_err)?;
    }
    Ok(())
}

/// `k` sizes the load vector: a partitioning file names between 1 and
/// [`MAX_PARTITIONS`] of them, on the way out and on the way in.
fn check_k(k: u32) -> Result<()> {
    if k == 0 {
        return Err(format_err("k must be positive"));
    }
    if k > MAX_PARTITIONS {
        return Err(format_err(&format!(
            "k = {k} is above the {MAX_PARTITIONS} partitions a partitioning file may name"
        )));
    }
    Ok(())
}

/// Reads a partitioning; recomputes the load vector and validates ids.
pub fn read_partitioning(path: &Path) -> Result<Partitioning> {
    let mut file = File::open(path).map_err(io_err)?;
    let mut header = [0u8; PA_HEADER as usize];
    file.read_exact(&mut header).map_err(truncated)?;
    if &header[..8] != MAGIC {
        return Err(format_err("bad magic bytes"));
    }
    let k = le_u32(&header[8..12]);
    check_k(k)?;
    let num_vertices = le_u64(&header[12..20]);
    let m = le_u64(&header[20..28]);
    check_file_len(&file, PA_HEADER, m.checked_mul(4))?;
    // `m` ids are on disk behind the header, so `m` fits the address space.
    let mut assignments = Vec::with_capacity(m as usize);
    let mut loads = vec![0u64; k as usize];
    let mut slab = vec![0u8; SLAB_BYTES];
    while assignments.len() < m as usize {
        let ids = (m as usize - assignments.len()).min(SLAB_BYTES / 4);
        let bytes = &mut slab[..ids * 4];
        file.read_exact(bytes).map_err(truncated)?;
        for b in bytes.chunks_exact(4) {
            let p = le_u32(b);
            if p >= k {
                return Err(format_err(&format!(
                    "partition id {p} out of range (k={k})"
                )));
            }
            loads[p as usize] += 1;
            assignments.push(p);
        }
    }
    Ok(Partitioning {
        k,
        num_vertices,
        assignments,
        loads,
    })
}

/// Writes a replica-table snapshot (`CLUGPRT1`) to `path`.
pub fn write_replica_table(path: &Path, replicas: &ReplicaTable) -> Result<()> {
    let mut file = File::create(path).map_err(io_err)?;
    let n = replicas.num_vertices();
    file.write_all(&rt_header(replicas.k(), n))
        .map_err(io_err)?;
    let row_bytes = replicas.words_per_row() * 8;
    let per_slab = (SLAB_BYTES / row_bytes).max(1);
    let mut slab = vec![0u8; per_slab * row_bytes];
    for first in (0..n).step_by(per_slab) {
        let rows = per_slab.min((n - first) as usize);
        let bytes = &mut slab[..rows * row_bytes];
        for (dst, v) in bytes.chunks_exact_mut(row_bytes).zip(first..) {
            for (d, word) in dst.chunks_exact_mut(8).zip(replicas.row(v as u32)) {
                d.copy_from_slice(&word.to_le_bytes());
            }
        }
        file.write_all(bytes).map_err(io_err)?;
    }
    Ok(())
}

/// Reads a replica-table snapshot written by [`write_replica_table`].
pub fn read_replica_table(path: &Path) -> Result<ReplicaTable> {
    let mut file = File::open(path).map_err(io_err)?;
    let mut header = [0u8; RT_HEADER as usize];
    file.read_exact(&mut header).map_err(truncated)?;
    if &header[..8] != RT_MAGIC {
        return Err(format_err("bad replica-table magic bytes"));
    }
    let k = le_u32(&header[8..12]);
    if k == 0 {
        return Err(format_err("k must be positive"));
    }
    let n = le_u64(&header[12..20]);
    let words = (k as usize).div_ceil(64);
    let payload = n.checked_mul(words as u64).and_then(|w| w.checked_mul(8));
    check_file_len(&file, RT_HEADER, payload)?;
    let mut replicas = ReplicaTable::new(n, k)?;
    if n == 0 {
        // Nothing behind the header to vouch for `k`: size no buffer by it.
        return Ok(replicas);
    }
    let row_bytes = words * 8;
    let per_slab = (SLAB_BYTES / row_bytes).max(1);
    let mut slab = vec![0u8; per_slab * row_bytes];
    let mut row = vec![0u64; words];
    for first in (0..n).step_by(per_slab) {
        let rows = per_slab.min((n - first) as usize);
        let bytes = &mut slab[..rows * row_bytes];
        file.read_exact(bytes).map_err(truncated)?;
        for (src, v) in bytes.chunks_exact(row_bytes).zip(first..) {
            for (word, b) in row.iter_mut().zip(src.chunks_exact(8)) {
                *word = le_u64(b);
            }
            replicas.import_row(v as u32, &row);
        }
    }
    Ok(replicas)
}

/// Writes a placement directory: the assignment snapshot plus the replica
/// table, under fixed file names (created if `dir` does not exist).
pub fn write_placement_dir(
    dir: &Path,
    partitioning: &Partitioning,
    replicas: &ReplicaTable,
) -> Result<()> {
    std::fs::create_dir_all(dir).map_err(io_err)?;
    write_partitioning(&dir.join(PLACEMENT_ASSIGNMENTS), partitioning)?;
    write_replica_table(&dir.join(PLACEMENT_REPLICAS), replicas)
}

/// Reads a placement directory written by [`write_placement_dir`],
/// checking that the two snapshots agree on `k`.
pub fn read_placement_dir(dir: &Path) -> Result<(Partitioning, ReplicaTable)> {
    let partitioning = read_partitioning(&dir.join(PLACEMENT_ASSIGNMENTS))?;
    let replicas = read_replica_table(&dir.join(PLACEMENT_REPLICAS))?;
    if replicas.k() != partitioning.k {
        return Err(format_err(&format!(
            "placement dir mismatch: assignments have k={}, replicas have k={}",
            partitioning.k,
            replicas.k()
        )));
    }
    Ok((partitioning, replicas))
}

fn io_err(e: std::io::Error) -> PartitionError {
    PartitionError::Graph(GraphError::Io(e))
}

const TRUNCATED: &str = "partitioning file truncated";

fn truncated(_: std::io::Error) -> PartitionError {
    format_err(TRUNCATED)
}

/// Holds a snapshot's header against the file's real length before anything
/// is sized from that header: a few forged bytes must not be able to ask the
/// allocator for terabytes. `payload` is the byte count the header implies
/// (`None` when it overflows `u64`, which no file can hold either).
fn check_file_len(file: &File, header: u64, payload: Option<u64>) -> Result<()> {
    let have = file.metadata().map_err(io_err)?.len();
    match payload.and_then(|p| p.checked_add(header)) {
        Some(want) if want == have => Ok(()),
        Some(want) if want < have => Err(format_err(&format!(
            "partitioning file oversized: {} bytes after the payload its header declares",
            have - want
        ))),
        _ => Err(format_err(TRUNCATED)),
    }
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("a 4-byte slice"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte slice"))
}

fn format_err(msg: &str) -> PartitionError {
    PartitionError::Graph(GraphError::Format(msg.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clugp_partition_io");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> Partitioning {
        Partitioning {
            k: 3,
            num_vertices: 10,
            assignments: vec![0, 2, 1, 2, 2],
            loads: vec![1, 1, 3],
        }
    }

    #[test]
    fn round_trip() {
        let path = tmp("rt.part");
        write_partitioning(&path, &sample()).unwrap();
        let back = read_partitioning(&path).unwrap();
        assert_eq!(back.k, 3);
        assert_eq!(back.num_vertices, 10);
        assert_eq!(back.assignments, sample().assignments);
        assert_eq!(back.loads, sample().loads);
        back.validate().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("magic.part");
        std::fs::write(&path, b"NOTMAGIC0000000000000000000000").unwrap();
        assert!(read_partitioning(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncation() {
        let path = tmp("trunc.part");
        write_partitioning(&path, &sample()).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 2]).unwrap();
        assert!(read_partitioning(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_range_partition() {
        let path = tmp("range.part");
        let mut bad = sample();
        bad.k = 2; // assignment "2" is now out of range
        write_partitioning(&path, &bad).unwrap();
        assert!(read_partitioning(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Both snapshots, sized past one slab, against the layout written out
    /// word by word: the slab writers change how bytes reach the file, not
    /// which bytes.
    #[test]
    fn multi_slab_files_match_the_documented_layout() {
        let (k, n, m) = (70u32, 5_000u64, 40_000usize);
        let assignments: Vec<u32> = (0..m as u32).map(|i| (i * 7 + i / 3) % k).collect();
        let mut replicas = ReplicaTable::new(n, k).unwrap();
        let mut loads = vec![0u64; k as usize];
        for (i, &p) in assignments.iter().enumerate() {
            loads[p as usize] += 1;
            replicas.insert((i as u64 * 13 % n) as u32, p);
        }
        let p = Partitioning {
            k,
            num_vertices: n,
            assignments,
            loads,
        };
        let dir = tmp("layout_dir");
        write_placement_dir(&dir, &p, &replicas).unwrap();

        let mut want = MAGIC.to_vec();
        want.extend_from_slice(&k.to_le_bytes());
        want.extend_from_slice(&n.to_le_bytes());
        want.extend_from_slice(&(m as u64).to_le_bytes());
        for a in &p.assignments {
            want.extend_from_slice(&a.to_le_bytes());
        }
        assert!(want.len() > 2 * SLAB_BYTES);
        assert_eq!(
            std::fs::read(dir.join(PLACEMENT_ASSIGNMENTS)).unwrap(),
            want
        );

        let mut want = RT_MAGIC.to_vec();
        want.extend_from_slice(&k.to_le_bytes());
        want.extend_from_slice(&n.to_le_bytes());
        let mut row = [0u64; 2];
        for v in 0..n as u32 {
            replicas.export_row(v, &mut row);
            for word in row {
                want.extend_from_slice(&word.to_le_bytes());
            }
        }
        assert!(want.len() > SLAB_BYTES);
        assert_eq!(std::fs::read(dir.join(PLACEMENT_REPLICAS)).unwrap(), want);

        let (p2, r2) = read_placement_dir(&dir).unwrap();
        assert_eq!(p2.assignments, p.assignments);
        assert_eq!(p2.loads, p.loads);
        assert_eq!(r2.total_replicas(), replicas.total_replicas());
        for v in 0..n as u32 {
            assert_eq!(r2.row(v), replicas.row(v), "vertex {v}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn format_message(err: PartitionError) -> String {
        match err {
            PartitionError::Graph(GraphError::Format(msg)) => msg,
            other => panic!("expected GraphError::Format, got {other:?}"),
        }
    }

    /// A header is a claim, not a size: files that promise more than they
    /// hold are refused from their length alone (a 28-byte file asking for
    /// 2^40 ids must not reach the allocator), and so are files that hold
    /// more than they promise.
    #[test]
    fn headers_that_disagree_with_the_file_length_are_rejected() {
        let path = tmp("hostile.part");
        for m in [1u64 << 40, u64::MAX / 4, u64::MAX] {
            std::fs::write(&path, pa_header(3, 10, m)).unwrap();
            let msg = format_message(read_partitioning(&path).unwrap_err());
            assert!(msg.contains("truncated"), "m={m}: {msg}");
        }
        // k alone inflated: 28 bytes that would size a 32 GiB load vector.
        for k in [u32::MAX, MAX_PARTITIONS + 1] {
            std::fs::write(&path, pa_header(k, 10, 0)).unwrap();
            let msg = format_message(read_partitioning(&path).unwrap_err());
            assert!(msg.contains("partitions"), "k={k}: {msg}");
            let forged = Partitioning {
                k,
                num_vertices: 10,
                assignments: Vec::new(),
                loads: Vec::new(),
            };
            let msg = format_message(write_partitioning(&path, &forged).unwrap_err());
            assert!(msg.contains("partitions"), "k={k}: {msg}");
        }
        std::fs::write(&path, pa_header(MAX_PARTITIONS, 10, 0)).unwrap();
        assert_eq!(read_partitioning(&path).unwrap().k, MAX_PARTITIONS);
        let mut trailing = pa_header(3, 10, 2);
        trailing.extend_from_slice(&[0; 8 + 5]);
        std::fs::write(&path, &trailing).unwrap();
        let msg = format_message(read_partitioning(&path).unwrap_err());
        assert!(msg.contains("oversized") && msg.contains('5'), "{msg}");

        // Inflated n; k whose row width overflows n x words x 8; k alone
        // inflated behind an empty table (nothing to allocate, nothing read).
        for (k, n) in [(3u32, 1u64 << 31), (u32::MAX, u64::MAX / 8), (64, 1 << 61)] {
            std::fs::write(&path, rt_header(k, n)).unwrap();
            let msg = format_message(read_replica_table(&path).unwrap_err());
            assert!(msg.contains("truncated"), "k={k} n={n}: {msg}");
        }
        std::fs::write(&path, rt_header(u32::MAX, 0)).unwrap();
        assert_eq!(read_replica_table(&path).unwrap().num_vertices(), 0);
        let mut trailing = rt_header(3, 2);
        trailing.extend_from_slice(&[0; 2 * 8 + 1]);
        std::fs::write(&path, &trailing).unwrap();
        let msg = format_message(read_replica_table(&path).unwrap_err());
        assert!(msg.contains("oversized"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn placement_dir_round_trips() {
        let dir = tmp("placement_dir");
        let p = sample();
        let mut replicas = ReplicaTable::new(p.num_vertices, p.k).unwrap();
        replicas.insert(0, 0);
        replicas.insert(0, 2);
        replicas.insert(7, 1);
        write_placement_dir(&dir, &p, &replicas).unwrap();
        let (p2, r2) = read_placement_dir(&dir).unwrap();
        assert_eq!(p2.assignments, p.assignments);
        assert_eq!(r2.num_vertices(), replicas.num_vertices());
        for v in 0..replicas.num_vertices() as u32 {
            assert_eq!(
                r2.partitions_of(v).collect::<Vec<_>>(),
                replicas.partitions_of(v).collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn placement_dir_rejects_k_mismatch() {
        let dir = tmp("placement_dir_bad");
        let p = sample();
        let replicas = ReplicaTable::new(p.num_vertices, p.k + 1).unwrap();
        write_placement_dir(&dir, &p, &replicas).unwrap();
        let err = read_placement_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_partitioning_round_trips() {
        let path = tmp("empty.part");
        let p = Partitioning {
            k: 4,
            num_vertices: 0,
            assignments: vec![],
            loads: vec![0; 4],
        };
        write_partitioning(&path, &p).unwrap();
        let back = read_partitioning(&path).unwrap();
        assert!(back.assignments.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
