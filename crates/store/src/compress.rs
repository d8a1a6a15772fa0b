//! Hand-rolled, std-only payload compression below the versioned codec.
//!
//! Every byte tier under [`crate::Store`] carries *compress frames*, not
//! decoded codec bytes: `[mode u8] ++ mode-specific body`. Two modes:
//!
//! * [`MODE_RAW`] — passthrough escape: the body is the payload verbatim,
//!   so incompressible payloads never regress by more than the 1-byte tag.
//! * [`MODE_LZ`] — a small LZ77 with a 64 KiB window: dictionary coding
//!   for repeated signal-name strings and other byte-level redundancy.
//!
//! [`compress`] returns the LZ frame when it is shorter than the raw one
//! and the raw frame otherwise; each frame is self-describing through its
//! mode tag. Tag values are part of the on-disk and wire format and never
//! change meaning: tags 1 and 2, which older builds wrote, stay reserved
//! and read as unknown. [`decompress`] is total: malformed, truncated,
//! corrupt or unknown-mode frames yield `None`, which callers treat as a
//! cache miss — the store's universal degrade-to-recompute posture.
//! Decoders never trust a length header: declared sizes are capped by
//! [`MAX_DECODED`] and every production step is bounds-checked against
//! the declared size before bytes are materialized.

/// Mode tag: raw passthrough, body is the payload verbatim.
pub const MODE_RAW: u8 = 0;
/// Mode tag: LZ77 with a 64 KiB window.
pub const MODE_LZ: u8 = 3;

/// Hard cap on any declared decoded size (mirrors `wire::MAX_FRAME_BODY`):
/// a corrupt header cannot demand more than one maximum frame of memory.
pub const MAX_DECODED: u64 = 1 << 30;

const LZ_WINDOW: usize = 64 * 1024;
const LZ_MIN_MATCH: usize = 4;
const LZ_HASH_BITS: u32 = 15;

/// LEB128-encodes `v`, appending to `out`.
pub fn varint_encode(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from the front of `bytes`, returning the
/// value and the number of bytes consumed. Rejects encodings longer than
/// 10 bytes and any bits past the 64th.
pub fn varint_decode(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    for (i, &b) in bytes.iter().enumerate().take(10) {
        let low = u64::from(b & 0x7f);
        if i == 9 && low > 1 {
            return None;
        }
        v |= low << (7 * i);
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Wraps `payload` in a raw passthrough frame (mode byte + verbatim bytes).
/// This is the identity encoding, the frame [`compress`] emits when LZ
/// does not shrink the payload.
pub fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 1);
    out.push(MODE_RAW);
    out.extend_from_slice(payload);
    out
}

/// Compresses `payload`: the LZ frame when it is shorter than the raw
/// frame, the raw frame otherwise. Never larger than `payload.len() + 1`.
pub fn compress(payload: &[u8]) -> Vec<u8> {
    match lz_frame(payload) {
        Some(frame) if frame.len() <= payload.len() => frame,
        _ => raw_frame(payload),
    }
}

/// Decompresses a frame produced by [`compress`] / [`raw_frame`]. Returns
/// `None` on any malformed, truncated, or unknown-mode frame.
pub fn decompress(frame: &[u8]) -> Option<Vec<u8>> {
    let (&mode, body) = frame.split_first()?;
    match mode {
        MODE_RAW => Some(body.to_vec()),
        MODE_LZ => lz_decode(body),
        _ => None,
    }
}

/// Cheap peek at a frame's decoded payload size without decompressing it.
pub fn decoded_len(frame: &[u8]) -> Option<u64> {
    let (&mode, body) = frame.split_first()?;
    match mode {
        MODE_RAW => Some(body.len() as u64),
        MODE_LZ => {
            let (n, _) = varint_decode(body)?;
            (n <= MAX_DECODED).then_some(n)
        }
        _ => None,
    }
}

// ---- MODE_LZ --------------------------------------------------------------

/// Body: varint(decoded_len) ++ tokens. Literal token: varint(n << 1) then
/// `n` bytes. Match token: varint((len << 1) | 1) then varint(distance),
/// distance in `1..=produced` (overlapping copies allowed).
fn lz_frame(payload: &[u8]) -> Option<Vec<u8>> {
    if payload.len() < LZ_MIN_MATCH * 2 {
        return None;
    }
    let mut out = vec![MODE_LZ];
    varint_encode(payload.len() as u64, &mut out);
    let mut table = vec![usize::MAX; 1 << LZ_HASH_BITS];
    let mut i = 0;
    let mut lit_start = 0;
    while i + LZ_MIN_MATCH <= payload.len() {
        let h = lz_hash(&payload[i..i + LZ_MIN_MATCH]);
        let cand = table[h];
        table[h] = i;
        if cand != usize::MAX
            && i - cand <= LZ_WINDOW
            && payload[cand..cand + LZ_MIN_MATCH] == payload[i..i + LZ_MIN_MATCH]
        {
            let mut len = LZ_MIN_MATCH;
            while i + len < payload.len() && payload[cand + len] == payload[i + len] {
                len += 1;
            }
            flush_literals(&payload[lit_start..i], &mut out);
            varint_encode(((len as u64) << 1) | 1, &mut out);
            varint_encode((i - cand) as u64, &mut out);
            i += len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&payload[lit_start..], &mut out);
    Some(out)
}

fn flush_literals(lit: &[u8], out: &mut Vec<u8>) {
    if !lit.is_empty() {
        varint_encode((lit.len() as u64) << 1, out);
        out.extend_from_slice(lit);
    }
}

fn lz_hash(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes.try_into().expect("4-byte prefix"));
    (v.wrapping_mul(2_654_435_761) >> (32 - LZ_HASH_BITS)) as usize
}

fn lz_decode(body: &[u8]) -> Option<Vec<u8>> {
    lz_decode_with(body, copy_match)
}

/// [`lz_decode`] with the match copy passed in, so tests can decode the
/// same frame through [`copy_match_bytewise`].
fn lz_decode_with(mut body: &[u8], copy: fn(&mut Vec<u8>, usize, usize)) -> Option<Vec<u8>> {
    let (decoded_len, used) = varint_decode(body)?;
    if decoded_len > MAX_DECODED {
        return None;
    }
    body = &body[used..];
    let total = decoded_len as usize;
    let mut out = Vec::with_capacity(total.min(1 << 20));
    while !body.is_empty() {
        let (head, used) = varint_decode(body)?;
        body = &body[used..];
        let n = usize::try_from(head >> 1).ok()?;
        if n == 0 || n > total - out.len() {
            return None;
        }
        if head & 1 == 1 {
            let (dist, used) = varint_decode(body)?;
            body = &body[used..];
            let dist = usize::try_from(dist).ok()?;
            if dist == 0 || dist > out.len() {
                return None;
            }
            copy(&mut out, dist, n);
        } else {
            if body.len() < n {
                return None;
            }
            out.extend_from_slice(&body[..n]);
            body = &body[n..];
        }
    }
    (out.len() == total).then_some(out)
}

/// Appends the `n` bytes that start `dist` bytes (`1..=out.len()`) before
/// the end of `out`. A match longer than its distance overlaps its own
/// output: from its source on, the bytes repeat with period `dist`, so
/// each run copies everything from the source to the end, which doubles
/// the run while the match overlaps.
fn copy_match(out: &mut Vec<u8>, dist: usize, n: usize) {
    let start = out.len() - dist;
    let end = out.len() + n;
    while out.len() < end {
        let run = (out.len() - start).min(end - out.len());
        out.extend_from_within(start..start + run);
    }
}

/// The byte-at-a-time match copy [`copy_match`] replaced: the oracle.
#[cfg(test)]
fn copy_match_bytewise(out: &mut Vec<u8>, dist: usize, n: usize) {
    for _ in 0..n {
        out.push(out[out.len() - dist]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn xorshift_bytes(mut seed: u64, n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            varint_encode(v, &mut buf);
            assert_eq!(varint_decode(&buf), Some((v, buf.len())), "value {v}");
        }
        // Overlong and overflowing encodings are rejected.
        assert_eq!(varint_decode(&[0x80; 10]), None);
        assert_eq!(
            varint_decode(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]),
            None
        );
        assert_eq!(varint_decode(&[0x80]), None); // truncated continuation
    }

    #[test]
    fn float_table_compresses_and_round_trips() {
        // A monotone f64 column, the shape of sorted arrival times.
        let mut payload = Vec::new();
        for i in 0..4000u32 {
            payload.extend_from_slice(&(f64::from(i) * 0.125 + 3.0).to_bits().to_le_bytes());
        }
        let frame = compress(&payload);
        assert!(
            frame[0] != MODE_RAW,
            "float table should not fall back to raw"
        );
        assert!(
            frame.len() < payload.len() / 2,
            "{} vs {}",
            frame.len(),
            payload.len()
        );
        assert_eq!(decompress(&frame).as_deref(), Some(payload.as_slice()));
        assert_eq!(decoded_len(&frame), Some(payload.len() as u64));
    }

    #[test]
    fn repeated_strings_compress_via_lz() {
        let mut payload = Vec::new();
        for i in 0..400 {
            payload.extend_from_slice(format!("u_core/alu_{}/carry_chain/bit", i % 7).as_bytes());
        }
        let frame = compress(&payload);
        assert!(frame.len() < payload.len() / 2);
        assert_eq!(decompress(&frame).as_deref(), Some(payload.as_slice()));
    }

    #[test]
    fn incompressible_payloads_take_the_raw_escape() {
        let payload = xorshift_bytes(0x9e3779b97f4a7c15, 4096);
        let frame = compress(&payload);
        assert_eq!(frame.len(), payload.len() + 1);
        assert_eq!(frame[0], MODE_RAW);
        assert_eq!(decompress(&frame).as_deref(), Some(payload.as_slice()));
    }

    #[test]
    fn unaligned_tails_survive_every_mode() {
        for tail in 0..8 {
            let mut payload = Vec::new();
            for i in 0..200u32 {
                payload.extend_from_slice(&f64::from(i).to_bits().to_le_bytes());
            }
            payload.extend_from_slice(&vec![0xAB; tail]);
            for frame in [raw_frame(&payload), lz_frame(&payload).expect("lz")] {
                assert_eq!(decompress(&frame).as_deref(), Some(payload.as_slice()));
            }
        }
    }

    #[test]
    fn empty_and_tiny_payloads_round_trip() {
        for payload in [&b""[..], b"x", b"tiny payload"] {
            let frame = compress(payload);
            assert_eq!(decompress(&frame).as_deref(), Some(payload));
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut payload = Vec::new();
        for i in 0..300u32 {
            payload.extend_from_slice(&f64::from(i).to_bits().to_le_bytes());
        }
        let frame = lz_frame(&payload).expect("lz");
        assert!(decompress(&frame).is_some());
        for cut in 0..frame.len() {
            assert_eq!(decompress(&frame[..cut]), None, "prefix of {cut} bytes");
        }
        assert_eq!(decompress(&[]), None);
        assert_eq!(decompress(&[MODE_LZ + 42]), None, "unknown mode");
    }

    /// A hand-built LZ body: `prefix` as one literal, then one match per
    /// `(dist, len)`, its distance clamped to the bytes produced so far.
    /// Returns the body and what the byte loop decodes it to.
    fn overlapping_body(prefix: &[u8], matches: &[(usize, usize)]) -> (Vec<u8>, Vec<u8>) {
        let mut want = prefix.to_vec();
        let mut tokens = Vec::new();
        flush_literals(prefix, &mut tokens);
        for &(dist, len) in matches {
            let dist = dist.min(want.len());
            copy_match_bytewise(&mut want, dist, len);
            varint_encode(((len as u64) << 1) | 1, &mut tokens);
            varint_encode(dist as u64, &mut tokens);
        }
        let mut body = Vec::new();
        varint_encode(want.len() as u64, &mut body);
        body.extend_from_slice(&tokens);
        (body, want)
    }

    #[test]
    fn overlapping_matches_copy_their_own_output() {
        // dist 1 (a byte run), dist < len (a period repeated), dist == len,
        // and dist > len (no overlap).
        let (body, want) = overlapping_body(b"abc", &[(1, 9), (4, 13), (5, 5), (20, 7)]);
        assert_eq!(&want[..12], b"abcccccccccc");
        assert_eq!(lz_decode(&body), Some(want));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The compressor codes a periodic payload as matches that overlap
        /// their own output; the run copy decodes them like the byte loop.
        #[test]
        fn periodic_payloads_decode_like_the_byte_loop(
            period in 1usize..17,
            len in 0usize..4096,
            seed in 1u64..u64::MAX,
            head in proptest::collection::vec(0u8..=255, 0..32),
        ) {
            let mut payload = head.clone();
            payload.extend(xorshift_bytes(seed, period).iter().cycle().take(len));
            let frame = compress(&payload);
            if frame[0] == MODE_LZ {
                prop_assert_eq!(lz_decode(&frame[1..]), lz_decode_with(&frame[1..], copy_match_bytewise));
            }
            prop_assert_eq!(decompress(&frame), Some(payload));
        }

        #[test]
        fn hand_built_overlapping_matches_decode_like_the_byte_loop(
            prefix in proptest::collection::vec(0u8..=255, 1..40),
            matches in proptest::collection::vec((1usize..48, 1usize..300), 1..10),
        ) {
            let (body, want) = overlapping_body(&prefix, &matches);
            prop_assert_eq!(lz_decode_with(&body, copy_match_bytewise), Some(want.clone()));
            prop_assert_eq!(lz_decode(&body), Some(want));
        }
    }
}
