//! Property tests of the [`rtlt_store::compress`] payload codec: every
//! payload — including adversarial floating-point bit patterns — must
//! round-trip bit-exactly through `compress`/`decompress`, and damaged or
//! truncated frames must be *rejected* (never mis-decoded, never a panic)
//! so the store above degrades to recompute.

use proptest::prelude::*;
use proptest::strategy::Union;
use rtlt_store::{compress, ContentHash, KeyBuilder, MemTier, Store, StoreTier};
use std::sync::Arc;

fn key(label: &str) -> ContentHash {
    KeyBuilder::new("compress-proptest").str(label).finish()
}

/// f64 values with the bit patterns a float table can hold: NaNs with
/// live payload bits, signed zeros, infinities, denormals, plus ordinary
/// and fully arbitrary bit patterns.
fn adversarial_f64() -> Union<f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        // NaNs with arbitrary payload bits (quiet and signaling patterns).
        (0u64..(1 << 52)).prop_map(|p| f64::from_bits(0x7FF0_0000_0000_0000 | p | 1)),
        (0u64..(1 << 52)).prop_map(|p| f64::from_bits(0xFFF0_0000_0000_0000 | p | 1)),
        // Denormals: exponent 0, nonzero mantissa.
        (1u64..(1 << 52)).prop_map(f64::from_bits),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
        Just(f64::MIN),
        // Fully arbitrary bit patterns.
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        -1e12f64..1e12,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_round_trip(payload in proptest::collection::vec(0u8..=255, 0..2048)) {
        let frame = compress::compress(&payload);
        let back = compress::decompress(&frame);
        prop_assert_eq!(back.as_deref(), Some(&payload[..]));
        prop_assert_eq!(compress::decoded_len(&frame), Some(payload.len() as u64));
        // The raw escape bounds the frame: never more than payload + tag.
        prop_assert!(frame.len() <= payload.len() + 1);
    }

    #[test]
    fn adversarial_f64_tables_round_trip_bit_exactly(
        values in proptest::collection::vec(adversarial_f64(), 0..256),
        header in proptest::collection::vec(0u8..=255, 0..9),
    ) {
        // Lay the floats out as the codec does: a small header (list
        // lengths etc.) followed by packed little-endian f64 words — the
        // header shifts the words off 8-byte alignment, which no frame may
        // depend on.
        let mut payload = header.clone();
        for v in &values {
            payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let frame = compress::compress(&payload);
        let back = compress::decompress(&frame);
        prop_assert_eq!(back.as_deref(), Some(&payload[..]));
    }

    #[test]
    fn monotone_columns_round_trip(
        start in -1e9f64..1e9,
        steps in proptest::collection::vec(0.0f64..1e6, 1..200),
    ) {
        // Monotone nondecreasing columns (arrival times, slacks sorted by
        // endpoint) are the compressor's best case; correctness first.
        let mut acc = start;
        let mut payload = Vec::new();
        for s in &steps {
            acc += s;
            payload.extend_from_slice(&acc.to_bits().to_le_bytes());
        }
        let frame = compress::compress(&payload);
        let back = compress::decompress(&frame);
        prop_assert_eq!(back.as_deref(), Some(&payload[..]));
    }

    #[test]
    fn truncated_frames_are_rejected(
        values in proptest::collection::vec(adversarial_f64(), 8..64),
        cut_seed in 0usize..1_000_000,
    ) {
        let mut payload = Vec::new();
        for v in &values {
            payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let frame = compress::compress(&payload);
        // Raw frames have no structure to validate a truncation against;
        // the entry checksum above catches those. Every structured mode
        // must reject every strict prefix itself.
        if frame[0] == compress::MODE_RAW {
            return Ok(());
        }
        let cut = cut_seed % frame.len();
        prop_assert_eq!(compress::decompress(&frame[..cut]), None);
    }

    #[test]
    fn corrupt_frames_never_panic_or_overrun(
        payload in proptest::collection::vec(0u8..=255, 1..1024),
        flip_seed in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let mut frame = compress::compress(&payload);
        let at = flip_seed % frame.len();
        frame[at] ^= 1 << bit;
        // A flipped frame may still decode (the entry checksum is the
        // integrity layer); what the codec itself guarantees is memory
        // safety and bounded output.
        if let Some(out) = compress::decompress(&frame) {
            prop_assert!(out.len() as u64 <= compress::MAX_DECODED);
        }
    }

    #[test]
    fn garbage_is_rejected_or_bounded(frame in proptest::collection::vec(0u8..=255, 0..512)) {
        if let Some(out) = compress::decompress(&frame) {
            prop_assert!(out.len() as u64 <= compress::MAX_DECODED);
        }
    }
}

#[test]
fn corrupt_compressed_entry_degrades_to_recompute() {
    // A tier entry whose envelope checksum passes but whose compress frame
    // is garbage: the store must heal the slot and recompute.
    let mem = Arc::new(MemTier::new(1 << 20));
    mem.put_bytes("featurize", key("bad"), &[1, 2, 3]);
    let store = Store::with_tiers(1 << 20, vec![mem.clone()]);
    assert!(store.get::<Vec<f64>>("featurize", key("bad")).is_none());
    let s = store.stats().namespace("featurize");
    assert_eq!((s.corrupt_entries, s.misses), (1, 1));
    let v = store.get_or_compute("featurize", key("bad"), || vec![1.5f64, -0.0]);
    assert_eq!(v.len(), 2);
    // The recompute healed the slot with a valid frame.
    let fresh = Store::with_tiers(0, vec![mem]);
    assert_eq!(
        *fresh
            .get::<Vec<f64>>("featurize", key("bad"))
            .expect("healed"),
        vec![1.5f64, -0.0]
    );
}

#[test]
fn truncated_disk_frame_degrades_to_recompute() {
    let dir = std::env::temp_dir().join(format!("rtlt-compress-trunc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::on_disk(&dir);
    // A compressible artifact so the on-disk frame is a real packed mode.
    let table: Vec<f64> = (0..512).map(|i| i as f64 * 0.25).collect();
    store.put("featurize", key("t"), table.clone());
    let path = std::fs::read_dir(dir.join("featurize"))
        .expect("ns dir")
        .next()
        .expect("one entry")
        .expect("dirent")
        .path();
    let bytes = std::fs::read(&path).expect("entry bytes");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    // A fresh store (no decoded cache) must treat it as corrupt + miss,
    // then recompute and heal.
    let fresh = Store::on_disk(&dir);
    assert!(fresh.get::<Vec<f64>>("featurize", key("t")).is_none());
    let s = fresh.stats().namespace("featurize");
    assert!(s.corrupt_entries >= 1);
    let v = fresh.get_or_compute("featurize", key("t"), || table.clone());
    assert_eq!(*v, table);
    let _ = std::fs::remove_dir_all(&dir);
}
