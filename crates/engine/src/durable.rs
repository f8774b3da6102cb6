//! The durable-blob container: version + kind + checksum around any
//! serialized snapshot.
//!
//! Both the engine's [`crate::snapshot::EngineSnapshot`] and the
//! distributed site's write-ahead checkpoint persist across restarts as
//! opaque byte blobs. A blob read back from disk may be truncated by a
//! crash mid-write, bit-rotted, or produced by a *future* release with a
//! layout this build cannot parse. This module wraps every blob in a
//! small self-describing envelope so all of those turn into clean typed
//! errors instead of a garbled restore:
//!
//! ```text
//! magic:u32 ("SSWL") | version:u16 | kind:u8 | len:u32 | payload[len] | crc32:u32
//! ```
//!
//! All little-endian. The CRC covers `version | kind | len | payload`,
//! so corruption anywhere after the magic is detected. The payload
//! encoding itself is the caller's business (the workspace's binary
//! codec in `setstream-distributed::codec` is the intended one) — this
//! layer only guarantees you get back exactly the bytes you sealed, from
//! a version you understand, describing the kind of state you expected.

use setstream_hash::crc32;
use std::fmt;

/// Durable container magic: "SSWL" (SetStream Write-ahead Log).
const MAGIC: u32 = 0x5353_574c;

/// Envelope bytes around the payload: magic + version + kind + len + crc.
const OVERHEAD: usize = 4 + 2 + 1 + 4 + 4;

/// The on-disk format version this build writes — and the only one it
/// reads.
///
/// Bump when the envelope layout or any sealed payload's encoding changes
/// incompatibly. Readers reject blobs with a higher version (a downgrade
/// cannot guess a future layout) and, since no legacy decoder is kept,
/// blobs with a lower one. Version 2 was the first whose sketches carry
/// sparse counter blocks (version 1 blobs held dense counter arrays).
/// Version 3 drops the registered queries, threshold watches and their id
/// counters from the engine snapshot, since subscriptions became the
/// engine's only standing-query registry; a version-2 engine snapshot
/// would otherwise be misread field by field. Version 4 changes what the
/// counters mean, not how they are laid out: the second-level functions
/// became the GF(2)-affine family `parity(aⱼ & x) ⊕ bⱼ`, so a version-3
/// sketch's cells, merged with version-4 ones, would silently mix two
/// sets of coins.
pub const FORMAT_VERSION: u16 = 4;

/// What kind of state a durable blob carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableKind {
    /// A full [`crate::snapshot::EngineSnapshot`].
    EngineSnapshot,
    /// A distributed site's epoch checkpoint (write-ahead snapshot).
    SiteCheckpoint,
}

impl DurableKind {
    fn as_byte(self) -> u8 {
        match self {
            DurableKind::EngineSnapshot => 1,
            DurableKind::SiteCheckpoint => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, DurableError> {
        match b {
            1 => Ok(DurableKind::EngineSnapshot),
            2 => Ok(DurableKind::SiteCheckpoint),
            other => Err(DurableError::BadKind(other)),
        }
    }
}

/// Why a durable blob could not be opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The blob does not start with the container magic — not a durable
    /// blob at all (or the very first bytes were destroyed).
    BadMagic(u32),
    /// Written by a newer release than this build can read.
    FutureVersion {
        /// Version stamped on the blob.
        found: u16,
        /// Newest version this build understands.
        supported: u16,
    },
    /// Written by an older release whose payload encoding this build no
    /// longer decodes (version 1 carried dense counter arrays, version 2
    /// engine snapshots the retired query and watch registries).
    RetiredVersion {
        /// Version stamped on the blob.
        found: u16,
        /// The only version this build understands.
        supported: u16,
    },
    /// Unknown kind byte.
    BadKind(u8),
    /// The caller expected one kind of state but the blob holds another
    /// (e.g. restoring a site from an engine snapshot).
    KindMismatch {
        /// What the caller asked for.
        expected: DurableKind,
        /// What the blob actually holds.
        found: DurableKind,
    },
    /// The blob is shorter than its header claims — crash mid-write.
    Truncated,
    /// Extra bytes after the checksum.
    TrailingBytes(usize),
    /// Checksum mismatch — bit rot or torn write.
    Corrupt {
        /// CRC stored in the blob.
        expected: u32,
        /// CRC computed over the content read back.
        actual: u32,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::BadMagic(m) => write!(f, "not a durable blob (magic {m:#x})"),
            DurableError::FutureVersion { found, supported } => write!(
                f,
                "blob format version {found} is newer than supported {supported}"
            ),
            DurableError::RetiredVersion { found, supported } => write!(
                f,
                "blob format version {found} is retired; this build reads only version {supported}"
            ),
            DurableError::BadKind(k) => write!(f, "unknown durable kind byte {k}"),
            DurableError::KindMismatch { expected, found } => {
                write!(f, "expected {expected:?} blob, found {found:?}")
            }
            DurableError::Truncated => write!(f, "durable blob truncated (torn write?)"),
            DurableError::TrailingBytes(n) => write!(f, "{n} trailing bytes after blob"),
            DurableError::Corrupt { expected, actual } => write!(
                f,
                "durable blob checksum mismatch: stored {expected:#x}, computed {actual:#x}"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

/// Seal `payload` into a versioned, checksummed blob of the given kind.
pub fn seal(kind: DurableKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + OVERHEAD);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind.as_byte());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(out.get(4..).unwrap_or_default());
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A bounds-checked little-endian reader over a blob.
///
/// Every read is `get`-based and returns [`DurableError::Truncated`] when
/// the bytes run out, so the decode path is panic-free by construction —
/// no slice indexing, no `expect` — which also keeps it a clean target for
/// the Miri lane (`scripts/miri.sh`).
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// The next `n` bytes, advancing past them.
    fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        let end = self.at.checked_add(n).ok_or(DurableError::Truncated)?;
        let slice = self
            .bytes
            .get(self.at..end)
            .ok_or(DurableError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    fn read_u8(&mut self) -> Result<u8, DurableError> {
        let b = *self.bytes.get(self.at).ok_or(DurableError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn read_u16(&mut self) -> Result<u16, DurableError> {
        self.take(2)?
            .try_into()
            .map(u16::from_le_bytes)
            .map_err(|_| DurableError::Truncated)
    }

    fn read_u32(&mut self) -> Result<u32, DurableError> {
        self.take(4)?
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| DurableError::Truncated)
    }

    /// The bytes between absolute offsets `from..self.at` (already taken).
    fn span_from(&self, from: usize) -> Result<&'a [u8], DurableError> {
        self.bytes.get(from..self.at).ok_or(DurableError::Truncated)
    }

    /// Succeeds only if every byte has been consumed.
    fn finish(&self) -> Result<(), DurableError> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            extra => Err(DurableError::TrailingBytes(extra)),
        }
    }
}

/// Open a sealed blob, verifying magic, version, kind and checksum, and
/// return the payload bytes.
pub fn unseal(bytes: &[u8], expected: DurableKind) -> Result<&[u8], DurableError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.read_u32()?;
    if magic != MAGIC {
        return Err(DurableError::BadMagic(magic));
    }
    let covered_start = cur.at;
    let version = cur.read_u16()?;
    if version > FORMAT_VERSION {
        return Err(DurableError::FutureVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if version < FORMAT_VERSION {
        return Err(DurableError::RetiredVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = DurableKind::from_byte(cur.read_u8()?)?;
    let len = cur.read_u32()? as usize;
    let payload = cur.take(len)?;
    let covered = cur.span_from(covered_start)?;
    let expected_crc = cur.read_u32()?;
    cur.finish()?;
    let actual_crc = crc32(covered);
    if expected_crc != actual_crc {
        return Err(DurableError::Corrupt {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    if kind != expected {
        return Err(DurableError::KindMismatch {
            expected,
            found: kind,
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trip() {
        let payload = b"engine state bytes";
        let blob = seal(DurableKind::EngineSnapshot, payload);
        let back = unseal(&blob, DurableKind::EngineSnapshot).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let blob = seal(DurableKind::SiteCheckpoint, &[]);
        assert_eq!(unseal(&blob, DurableKind::SiteCheckpoint).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let blob = seal(DurableKind::SiteCheckpoint, b"checkpoint epoch 9");
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x01;
            assert!(
                unseal(&bad, DurableKind::SiteCheckpoint).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let blob = seal(DurableKind::EngineSnapshot, b"payload");
        for cut in 0..blob.len() {
            assert!(
                matches!(
                    unseal(&blob[..cut], DurableKind::EngineSnapshot),
                    Err(DurableError::Truncated) | Err(DurableError::Corrupt { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn future_version_is_rejected_not_parsed() {
        let mut blob = seal(DurableKind::EngineSnapshot, b"from the future");
        let future = (FORMAT_VERSION + 1).to_le_bytes();
        blob[4..6].copy_from_slice(&future);
        // Re-stamp the CRC so only the version differs.
        let total = blob.len();
        let crc = crc32(&blob[4..total - 4]).to_le_bytes();
        blob[total - 4..].copy_from_slice(&crc);
        match unseal(&blob, DurableKind::EngineSnapshot) {
            Err(DurableError::FutureVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected FutureVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_one_blobs_are_a_typed_refusal() {
        // A blob sealed by a release that wrote dense counter arrays.
        let mut blob = seal(DurableKind::SiteCheckpoint, b"dense v1 payload");
        blob[4..6].copy_from_slice(&1u16.to_le_bytes());
        let total = blob.len();
        let crc = crc32(&blob[4..total - 4]).to_le_bytes();
        blob[total - 4..].copy_from_slice(&crc);
        assert_eq!(
            unseal(&blob, DurableKind::SiteCheckpoint),
            Err(DurableError::RetiredVersion {
                found: 1,
                supported: FORMAT_VERSION
            })
        );
        let retired = DurableError::RetiredVersion {
            found: 1,
            supported: FORMAT_VERSION,
        };
        assert!(retired.to_string().contains("retired"));
    }

    #[test]
    fn version_two_blobs_are_a_typed_refusal() {
        // A blob sealed by a release whose engine snapshots still carried
        // registered queries and watches.
        let mut blob = seal(DurableKind::EngineSnapshot, b"v2 engine snapshot");
        blob[4..6].copy_from_slice(&2u16.to_le_bytes());
        let total = blob.len();
        let crc = crc32(&blob[4..total - 4]).to_le_bytes();
        blob[total - 4..].copy_from_slice(&crc);
        assert_eq!(
            unseal(&blob, DurableKind::EngineSnapshot),
            Err(DurableError::RetiredVersion {
                found: 2,
                supported: 4
            })
        );
    }

    #[test]
    fn version_three_blobs_are_a_typed_refusal() {
        // A blob sealed by a release whose second-level functions were
        // the mod-(2⁶¹−1) family: same bytes, cells from other coins.
        for kind in [DurableKind::EngineSnapshot, DurableKind::SiteCheckpoint] {
            let mut blob = seal(kind, b"v3 mod-p cells");
            blob[4..6].copy_from_slice(&3u16.to_le_bytes());
            let total = blob.len();
            let crc = crc32(&blob[4..total - 4]).to_le_bytes();
            blob[total - 4..].copy_from_slice(&crc);
            assert_eq!(
                unseal(&blob, kind),
                Err(DurableError::RetiredVersion {
                    found: 3,
                    supported: 4
                })
            );
        }
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let blob = seal(DurableKind::EngineSnapshot, b"x");
        match unseal(&blob, DurableKind::SiteCheckpoint) {
            Err(DurableError::KindMismatch { expected, found }) => {
                assert_eq!(expected, DurableKind::SiteCheckpoint);
                assert_eq!(found, DurableKind::EngineSnapshot);
            }
            other => panic!("expected KindMismatch, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_claim_is_truncation_not_overflow() {
        let mut blob = seal(DurableKind::EngineSnapshot, b"x");
        // Claim a payload far larger than the blob (and large enough that a
        // careless `offset + len` would wrap on 32-bit targets).
        blob[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            unseal(&blob, DurableKind::EngineSnapshot),
            Err(DurableError::Truncated)
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut blob = seal(DurableKind::SiteCheckpoint, b"x");
        blob.push(0);
        assert_eq!(
            unseal(&blob, DurableKind::SiteCheckpoint),
            Err(DurableError::TrailingBytes(1))
        );
    }

    #[test]
    fn garbage_is_not_a_blob() {
        assert!(matches!(
            unseal(b"definitely not sealed", DurableKind::EngineSnapshot),
            Err(DurableError::BadMagic(_))
        ));
        assert!(matches!(
            unseal(b"", DurableKind::EngineSnapshot),
            Err(DurableError::Truncated)
        ));
    }
}
