//! The checksummed entry envelope shared by every byte-oriented store tier.
//!
//! A stored artifact travels between tiers (disk files, wire frames, the
//! server's in-memory tier) as one *entry*: a fixed header stamping the
//! [`FORMAT_VERSION`], the payload, and a trailing FNV-1a checksum. Framing
//! and validation live here so the disk tier, the remote protocol and
//! [`crate::Store`] all agree byte-for-byte — an entry written by one
//! process validates identically in any other, and a corrupted, truncated
//! or differently-versioned entry is rejected the same way everywhere
//! (always "treat as a miss", never an error).

use crate::codec::FORMAT_VERSION;

/// Magic bytes opening every entry.
pub const ENTRY_MAGIC: [u8; 4] = *b"RTLT";
/// Fixed entry header size: magic + format version + payload length.
pub const ENTRY_HEADER: usize = 4 + 4 + 8;
/// Trailing FNV-1a checksum size.
pub const ENTRY_TRAILER: usize = 8;
/// Framing overhead of one entry (header + trailer).
pub const ENTRY_OVERHEAD: usize = ENTRY_HEADER + ENTRY_TRAILER;

/// FNV-1a over a byte slice — the entry checksum. Not cryptographic; it
/// guards against torn writes and line noise, while the SHA-256 content
/// *key* already guarantees what the payload should be.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frames `payload` as one entry: header, payload, checksum.
pub fn encode_entry(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(ENTRY_OVERHEAD + payload.len());
    bytes.extend_from_slice(&ENTRY_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes
}

/// Validates one entry and returns its payload slice, or `None` for any
/// truncation, bad magic, version mismatch (older formats included: a
/// pre-compression entry reads as corrupt and is recomputed), length
/// mismatch or checksum failure.
pub fn decode_entry(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < ENTRY_OVERHEAD || bytes[..4] != ENTRY_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return None;
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    if bytes.len() != ENTRY_OVERHEAD + len {
        return None;
    }
    let payload = &bytes[ENTRY_HEADER..ENTRY_HEADER + len];
    let checksum = u64::from_le_bytes(
        bytes[ENTRY_HEADER + len..]
            .try_into()
            .expect("trailer bytes"),
    );
    if fnv1a(payload) != checksum {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_round_trips() {
        let payload = b"some artifact bytes";
        let entry = encode_entry(payload);
        assert_eq!(decode_entry(&entry), Some(&payload[..]));
        // Empty payloads are valid entries.
        let empty = encode_entry(&[]);
        assert_eq!(decode_entry(&empty), Some(&[][..]));
    }

    #[test]
    fn corruption_truncation_and_version_mismatch_rejected() {
        let good = encode_entry(b"payload");
        // Payload flip.
        let mut flipped = good.clone();
        flipped[ENTRY_HEADER] ^= 1;
        assert_eq!(decode_entry(&flipped), None);
        // Any truncation.
        for cut in 0..good.len() {
            assert_eq!(decode_entry(&good[..cut]), None, "cut {cut}");
        }
        // Stale format version.
        let mut stale = good.clone();
        stale[4] ^= 0xFF;
        assert_eq!(decode_entry(&stale), None);
        // Bad magic.
        let mut magicless = good.clone();
        magicless[0] = b'X';
        assert_eq!(decode_entry(&magicless), None);
        // Length header lying about the payload size.
        let mut lying = good;
        lying[8] ^= 0x7F;
        assert_eq!(decode_entry(&lying), None);
    }

    #[test]
    fn older_format_entries_are_rejected_and_heal() {
        use crate::{DiskTier, Store, StoreTier, TierLookup};
        let dir = std::env::temp_dir().join(format!("rtlt-entry-v2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = crate::KeyBuilder::new("entry-v2").u64(1).finish();
        let file = dir.join("src/ns").join(format!("{}.bin", key.to_hex()));

        // A v2 entry, as a pre-compression build would have written it:
        // bare codec bytes under a valid v2 envelope.
        let value = 42u64;
        let payload = crate::Codec::to_bytes(&value);
        let mut v2 = Vec::new();
        v2.extend_from_slice(&ENTRY_MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v2.extend_from_slice(&payload);
        v2.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        assert_eq!(decode_entry(&v2), None, "a v2 entry is rejected");
        std::fs::create_dir_all(file.parent().expect("ns dir")).expect("ns dir");
        std::fs::write(&file, &v2).expect("write v2 entry");

        // A store over it reads a corrupt entry: it is removed, recomputed
        // and rewritten, so a fresh store then hits the healed bytes.
        let store = Store::on_disk(dir.join("src"));
        let mut calls = 0;
        let got = store.get_or_compute("ns", key, || {
            calls += 1;
            value
        });
        assert_eq!((*got, calls), (value, 1));
        let healed = std::fs::read(&file).expect("rewritten entry");
        assert!(
            decode_entry(&healed).is_some(),
            "rewritten at the current format"
        );
        let disk = DiskTier::new(dir.join("src"));
        match disk.get_bytes("ns", key) {
            TierLookup::Hit(frame) => {
                assert_eq!(crate::compress::decompress(&frame), Some(payload))
            }
            other => panic!("healed entry should hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
