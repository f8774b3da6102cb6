//! Sealed, versioned persistence for engine snapshots.
//!
//! [`EngineSnapshot`] is a plain serde value; pairing it with the
//! workspace binary codec and the [`setstream_engine::durable`] container
//! gives it a crash-safe on-disk form:
//!
//! ```text
//! magic "SSWL" | version:u16 | kind:u8 | len:u32 | payload | crc32
//! ```
//!
//! A corrupt, truncated or future-version blob is a clean typed error
//! ([`RestoreError`]) — never a silently wrong engine. Site write-ahead
//! checkpoints use the same container (see
//! [`Site::checkpoint_bytes`](crate::site::Site::checkpoint_bytes)).

use crate::codec;
use crate::site::RestoreError;
use crate::wire::WireError;
use setstream_engine::durable::{self, DurableKind};
use setstream_engine::EngineSnapshot;

/// Serialize and seal an engine snapshot for disk.
pub fn seal_engine_snapshot(snapshot: &EngineSnapshot) -> Result<Vec<u8>, WireError> {
    let payload = codec::to_bytes(snapshot)?;
    Ok(durable::seal(DurableKind::EngineSnapshot, &payload))
}

/// Verify and decode a sealed engine snapshot.
pub fn unseal_engine_snapshot(bytes: &[u8]) -> Result<EngineSnapshot, RestoreError> {
    let payload = durable::unseal(bytes, DurableKind::EngineSnapshot)?;
    Ok(codec::from_bytes(payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use setstream_core::SketchFamily;
    use setstream_engine::durable::DurableError;
    use setstream_engine::{StreamEngine, SubscriptionOptions, Tolerance};
    use setstream_stream::{StreamId, Update};

    fn sample_engine() -> StreamEngine {
        // Kept deliberately tiny: the corruption test below re-parses the
        // blob once per byte, so blob size is quadratic in test time.
        let family = SketchFamily::builder()
            .copies(4)
            .second_level(4)
            .seed(13)
            .build();
        let mut engine = StreamEngine::new(family);
        for e in 0..40u64 {
            engine.process(&Update::insert(StreamId(0), e, 1));
        }
        let alarm = SubscriptionOptions::builder()
            .tolerance(Tolerance::Above {
                threshold: 10.0,
                hysteresis: 2.0,
            })
            .build()
            .unwrap();
        engine.subscribe("A".parse().unwrap(), alarm).unwrap();
        engine.publish_epoch();
        engine
    }

    #[test]
    fn sealed_snapshot_round_trips() {
        let engine = sample_engine();
        let blob = seal_engine_snapshot(&engine.snapshot()).unwrap();
        let restored = StreamEngine::restore(unseal_engine_snapshot(&blob).unwrap());
        assert_eq!(engine.stats(), restored.stats());
        // The threshold rule and its tripped state survive the codec.
        let (a, b) = (engine.subscriptions().next(), restored.subscriptions().next());
        assert_eq!(a.unwrap().options(), b.unwrap().options());
        assert_eq!(a.unwrap().last_notified(), b.unwrap().last_notified());
    }

    #[test]
    fn corruption_anywhere_is_a_clean_error() {
        let blob = seal_engine_snapshot(&sample_engine().snapshot()).unwrap();
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x20;
            assert!(
                unseal_engine_snapshot(&bad).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn future_version_is_a_typed_error() {
        let mut blob = seal_engine_snapshot(&sample_engine().snapshot()).unwrap();
        // Bump the version field (bytes 4..6, little-endian) and refresh
        // the trailing CRC so only the version check can object.
        blob[4] = 0xff;
        let crc = setstream_hash::crc32(&blob[4..blob.len() - 4]);
        let n = blob.len();
        blob[n - 4..].copy_from_slice(&crc.to_le_bytes());
        match unseal_engine_snapshot(&blob) {
            Err(RestoreError::Durable(DurableError::FutureVersion { .. })) => {}
            other => panic!("expected FutureVersion, got {other:?}"),
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        // A site checkpoint is not an engine snapshot.
        let payload = b"not an engine";
        let blob = durable::seal(DurableKind::SiteCheckpoint, payload);
        match unseal_engine_snapshot(&blob) {
            Err(RestoreError::Durable(DurableError::KindMismatch { .. })) => {}
            other => panic!("expected KindMismatch, got {other:?}"),
        }
    }
}
