//! Integrity checksums of the `CLUGPZ` format: the vendored-free CRC32
//! (IEEE, reflected) every on-disk structure is stamped with, and the
//! [`ChecksumPolicy`] that decides how much of it a *reader* verifies.
//!
//! Writers always emit every checksum — the policy is purely a read-side
//! trade between integrity coverage and decode throughput. [`crc32`] is one
//! slicing-by-16 kernel (sixteen 256-entry tables, sixteen input bytes per
//! step, safe and portable; every value equals the byte-at-a-time walk it
//! replaced, so packs and `CLUGPCK1` checkpoints of any age stay valid).
//! `BENCH_io` measures what verification still costs: a `full` drain runs at
//! 0.85–0.9x the speed of an unchecked one, where the per-byte walk ran at
//! about 0.5x.

use std::str::FromStr;

/// How much checksum verification a pack reader performs.
///
/// The on-disk metadata consistency checks (magic bytes, contiguous block
/// offsets, header/index edge accounting) run under every policy — the
/// policy only gates CRC *comparisons*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChecksumPolicy {
    /// Verify header, index, footer, and every block payload (the
    /// historical always-on behavior, and the default).
    #[default]
    Full,
    /// Verify header, index, and footer at open; skip the per-block payload
    /// CRC on the decode hot path. Catches metadata corruption (which would
    /// misdirect seeks) but trusts payload bytes — which buys back the
    /// 10–25 % of a drain the payload CRC costs, no longer half of it.
    HeaderAndIndex,
    /// Skip all CRC comparisons. Structural validation still applies, so a
    /// truncated or mis-indexed file is rejected; flipped payload bits are
    /// not. For rereads of packs verified once via `clugp-pack verify`; no
    /// faster than `HeaderAndIndex` past open.
    Off,
}

impl ChecksumPolicy {
    /// Whether open-time metadata (header/index/footer) CRCs are compared.
    #[inline]
    pub fn verify_metadata(self) -> bool {
        !matches!(self, ChecksumPolicy::Off)
    }

    /// Whether per-block payload CRCs are compared while streaming.
    #[inline]
    pub fn verify_payload(self) -> bool {
        matches!(self, ChecksumPolicy::Full)
    }

    /// One-byte tag: what the process-wide decode options store and the
    /// AMPC handshake carries.
    pub fn tag(self) -> u8 {
        match self {
            ChecksumPolicy::Full => 0,
            ChecksumPolicy::HeaderAndIndex => 1,
            ChecksumPolicy::Off => 2,
        }
    }

    /// Decodes [`ChecksumPolicy::tag`]; `None` for any other byte.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ChecksumPolicy::Full,
            1 => ChecksumPolicy::HeaderAndIndex,
            2 => ChecksumPolicy::Off,
            _ => return None,
        })
    }

    /// Short name for logs, CLI echo, and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ChecksumPolicy::Full => "full",
            ChecksumPolicy::HeaderAndIndex => "header",
            ChecksumPolicy::Off => "off",
        }
    }
}

impl FromStr for ChecksumPolicy {
    type Err = String;

    /// Parses the CLI spelling: `full` | `header` | `off`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Ok(ChecksumPolicy::Full),
            "header" => Ok(ChecksumPolicy::HeaderAndIndex),
            "off" => Ok(ChecksumPolicy::Off),
            other => Err(format!(
                "unknown checksum policy {other:?} (expected full, header, or off)"
            )),
        }
    }
}

/// Lookup tables of the slicing-by-16 kernel. `TABLES[0]` is the classic
/// byte table of the reflected IEEE polynomial; `TABLES[j][b]` is the CRC
/// contribution of byte `b` followed by `j` zero bytes, which is what lets
/// sixteen input bytes fold in one step with no carried dependency between
/// their lookups.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = crc32_tables();

/// One byte through the classic table: the whole kernel for inputs under
/// sixteen bytes, and the tail of every longer one.
#[inline]
fn byte_step(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// Four input bytes (one little-endian word, already XORed with the running
/// CRC where it applies) through the four tables `hi, hi-1, hi-2, hi-3`.
#[inline]
fn word_step(w: u32, hi: usize) -> u32 {
    TABLES[hi][(w & 0xFF) as usize]
        ^ TABLES[hi - 1][((w >> 8) & 0xFF) as usize]
        ^ TABLES[hi - 2][((w >> 16) & 0xFF) as usize]
        ^ TABLES[hi - 3][(w >> 24) as usize]
}

/// CRC32 (IEEE) of `bytes`, as used for every checksum in the format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        c = word_step(word(&b[0..4]) ^ c, 15)
            ^ word_step(word(&b[4..8]), 11)
            ^ word_step(word(&b[8..12]), 7)
            ^ word_step(word(&b[12..16]), 3);
    }
    for &b in blocks.remainder() {
        c = byte_step(c, b);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One byte per step, as `crc32` was until slicing-by-16, and with the
    /// table entry recomputed from the polynomial on the spot, so the oracle
    /// shares no table with the kernel it checks.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    fn xorshift_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_answer() {
        // The standard IEEE check value, and the usual companions.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn sliced_kernel_equals_bytewise_on_every_tail_length() {
        let buf = xorshift_bytes(257, 0x9E37_79B9_7F4A_7C15);
        for len in 0..=buf.len() {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
    }

    #[test]
    fn sliced_kernel_equals_bytewise_on_unaligned_starts() {
        let buf = xorshift_bytes(4096 + 16, 0xD1B5_4A32_D192_ED03);
        for start in 0..16 {
            for len in [0, 15, 16, 17, 1000, 4096] {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn sliced_kernel_equals_bytewise_on_a_mebibyte() {
        let buf = xorshift_bytes(1 << 20, 0x2545_F491_4F6C_DD1D);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn policy_parse_and_gates() {
        assert_eq!("full".parse::<ChecksumPolicy>(), Ok(ChecksumPolicy::Full));
        assert_eq!(
            "HEADER".parse::<ChecksumPolicy>(),
            Ok(ChecksumPolicy::HeaderAndIndex)
        );
        assert_eq!("off".parse::<ChecksumPolicy>(), Ok(ChecksumPolicy::Off));
        assert!("crc".parse::<ChecksumPolicy>().is_err());

        assert!(ChecksumPolicy::Full.verify_metadata());
        assert!(ChecksumPolicy::Full.verify_payload());
        assert!(ChecksumPolicy::HeaderAndIndex.verify_metadata());
        assert!(!ChecksumPolicy::HeaderAndIndex.verify_payload());
        assert!(!ChecksumPolicy::Off.verify_metadata());
        assert!(!ChecksumPolicy::Off.verify_payload());
        assert_eq!(ChecksumPolicy::default(), ChecksumPolicy::Full);
        for p in [
            ChecksumPolicy::Full,
            ChecksumPolicy::HeaderAndIndex,
            ChecksumPolicy::Off,
        ] {
            assert_eq!(p.name().parse::<ChecksumPolicy>(), Ok(p), "{p:?}");
        }
    }
}
