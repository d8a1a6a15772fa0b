//! Hand-rolled, std-only payload compression below the versioned codec.
//!
//! Every byte tier under [`crate::Store`] carries *compress frames*, not
//! decoded codec bytes: `[mode u8] ++ mode-specific body`. Four modes:
//!
//! * [`MODE_RAW`] — passthrough escape: the body is the payload verbatim,
//!   so incompressible payloads never regress by more than the 1-byte tag.
//! * [`MODE_PLANES`] — byte-plane transposition at stride 8: the payload's
//!   leading whole 8-byte words are transposed into eight byte planes, each
//!   plane is delta-coded (wrapping u8 differences), and the result is
//!   run-length encoded. f64-heavy `PathRow`/`VariantData` tables expose
//!   long runs of equal sign/exponent bytes once transposed, and the
//!   transform is byte-aligned, so the 4-mod-8 offsets produced by the
//!   codec's u32 length prefixes cannot break it.
//! * [`MODE_WORDS`] — order-preserving f64 bit transposition plus zigzag
//!   deltas: each u64 word goes through the sortable-bits transform
//!   (mapping IEEE-754 sign/magnitude order to unsigned integer order),
//!   consecutive words are delta-coded, and the zigzagged deltas are
//!   LEB128-varint coded. Wins on monotone numeric columns such as arrival
//!   times or per-level slack.
//! * [`MODE_LZ`] — a small LZ77 with a 64 KiB window: dictionary coding
//!   for repeated signal-name strings and other byte-level redundancy.
//!
//! [`compress`] runs every candidate encoder and keeps the smallest frame
//! (raw escape included), so mode choice is purely size-driven and each
//! frame is self-describing through its mode tag. [`decompress`] is total:
//! malformed, truncated, or corrupt frames yield `None`, which callers
//! treat as a cache miss — the store's universal degrade-to-recompute
//! posture. Decoders never trust a length header: declared sizes are
//! capped by [`MAX_DECODED`] and every production step is bounds-checked
//! against the declared size before bytes are materialized.

/// Mode tag: raw passthrough, body is the payload verbatim.
pub const MODE_RAW: u8 = 0;
/// Mode tag: byte-plane transposition + per-plane delta + RLE.
pub const MODE_PLANES: u8 = 1;
/// Mode tag: sortable-bits word deltas, zigzag varint coded.
pub const MODE_WORDS: u8 = 2;
/// Mode tag: LZ77 with a 64 KiB window.
pub const MODE_LZ: u8 = 3;

/// Hard cap on any declared decoded size (mirrors `wire::MAX_FRAME_BODY`):
/// a corrupt header cannot demand more than one maximum frame of memory.
pub const MAX_DECODED: u64 = 1 << 30;

const WORD: usize = 8;
/// Shortest run worth a run token (a run token costs >= 2 bytes).
const RUN_MIN: usize = 4;
/// Fewest whole words for which the word-granular modes are attempted.
const MIN_WORDS: usize = 4;
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

/// Maps a signed delta onto the unsigned varint-friendly zigzag line.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Order-preserving bit transform: interpreted as f64 bit patterns, the
/// mapped u64s sort in the same order as the floats (negatives reversed
/// below positives), so deltas between neighboring values stay small.
fn sortable_bits(w: u64) -> u64 {
    if w >> 63 == 1 {
        !w
    } else {
        w | (1 << 63)
    }
}

fn unsortable_bits(m: u64) -> u64 {
    if m >> 63 == 1 {
        m & !(1 << 63)
    } else {
        !m
    }
}

/// Wraps `payload` in a raw passthrough frame (mode byte + verbatim bytes).
/// This is the identity encoding, the frame [`compress`] emits when no
/// mode is smaller.
pub fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 1);
    out.push(MODE_RAW);
    out.extend_from_slice(payload);
    out
}

/// Compresses `payload`, returning the smallest frame among every mode and
/// the raw escape. Never larger than `payload.len() + 1`.
pub fn compress(payload: &[u8]) -> Vec<u8> {
    let mut best = raw_frame(payload);
    for cand in [
        planes_frame(payload),
        words_frame(payload),
        lz_frame(payload),
    ]
    .into_iter()
    .flatten()
    {
        if cand.len() < best.len() {
            best = cand;
        }
    }
    best
}

/// Decompresses a frame produced by [`compress`] / [`raw_frame`]. Returns
/// `None` on any malformed, truncated, or unknown-mode frame.
pub fn decompress(frame: &[u8]) -> Option<Vec<u8>> {
    let (&mode, body) = frame.split_first()?;
    match mode {
        MODE_RAW => Some(body.to_vec()),
        MODE_PLANES => planes_decode(body),
        MODE_WORDS => words_decode(body),
        MODE_LZ => lz_decode(body),
        _ => None,
    }
}

/// Cheap peek at a frame's decoded payload size without decompressing it.
pub fn decoded_len(frame: &[u8]) -> Option<u64> {
    let (&mode, body) = frame.split_first()?;
    match mode {
        MODE_RAW => Some(body.len() as u64),
        MODE_PLANES | MODE_WORDS | MODE_LZ => {
            let (n, _) = varint_decode(body)?;
            (n <= MAX_DECODED).then_some(n)
        }
        _ => None,
    }
}

// ---- MODE_PLANES ----------------------------------------------------------

/// Body: varint(decoded_len) ++ varint(rle_len) ++ RLE bytes ++ raw tail.
/// The RLE section decodes to the delta-coded byte planes of the first
/// `decoded_len / 8 * 8` bytes; the tail is the `decoded_len % 8` remainder.
fn planes_frame(payload: &[u8]) -> Option<Vec<u8>> {
    let words = payload.len() / WORD;
    if words < MIN_WORDS {
        return None;
    }
    let head = words * WORD;
    let mut planes = Vec::with_capacity(head);
    for p in 0..WORD {
        let mut prev = 0u8;
        for chunk in payload[..head].chunks_exact(WORD) {
            let b = chunk[p];
            planes.push(b.wrapping_sub(prev));
            prev = b;
        }
    }
    let rle = rle_encode(&planes);
    let mut out = vec![MODE_PLANES];
    varint_encode(payload.len() as u64, &mut out);
    varint_encode(rle.len() as u64, &mut out);
    out.extend_from_slice(&rle);
    out.extend_from_slice(&payload[head..]);
    Some(out)
}

fn planes_decode(body: &[u8]) -> Option<Vec<u8>> {
    let (decoded_len, used) = varint_decode(body)?;
    if decoded_len > MAX_DECODED {
        return None;
    }
    let body = &body[used..];
    let (rle_len, used) = varint_decode(body)?;
    let body = &body[used..];
    let rle_len = usize::try_from(rle_len).ok()?;
    if body.len() < rle_len {
        return None;
    }
    let (rle, tail) = body.split_at(rle_len);
    let total = decoded_len as usize;
    let words = total / WORD;
    if tail.len() != total - words * WORD {
        return None;
    }
    let planes = rle_decode(rle, words * WORD)?;
    let mut out = vec![0u8; total];
    for (p, plane) in planes.chunks_exact(words.max(1)).enumerate() {
        let mut prev = 0u8;
        for (chunk, &d) in out.chunks_exact_mut(WORD).zip(plane) {
            prev = prev.wrapping_add(d);
            chunk[p] = prev;
        }
    }
    out[words * WORD..].copy_from_slice(tail);
    Some(out)
}

/// RLE token: varint head `v` with `n = v >> 1`; `v & 1 == 1` is a run
/// (one byte follows, repeated `n` times), `v & 1 == 0` a literal block
/// (`n` bytes follow). `n == 0` is invalid — every token must progress.
fn rle_encode(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut lit_start = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let mut run = 1;
        while i + run < bytes.len() && bytes[i + run] == b {
            run += 1;
        }
        if run >= RUN_MIN {
            flush_literals(&bytes[lit_start..i], &mut out);
            varint_encode(((run as u64) << 1) | 1, &mut out);
            out.push(b);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&bytes[lit_start..], &mut out);
    out
}

fn flush_literals(lit: &[u8], out: &mut Vec<u8>) {
    if !lit.is_empty() {
        varint_encode((lit.len() as u64) << 1, out);
        out.extend_from_slice(lit);
    }
}

fn rle_decode(mut rle: &[u8], expected: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(expected.min(1 << 20));
    while !rle.is_empty() {
        let (head, used) = varint_decode(rle)?;
        rle = &rle[used..];
        let n = usize::try_from(head >> 1).ok()?;
        if n == 0 || n > expected - out.len() {
            return None;
        }
        if head & 1 == 1 {
            let (&b, rest) = rle.split_first()?;
            rle = rest;
            out.resize(out.len() + n, b);
        } else {
            if rle.len() < n {
                return None;
            }
            out.extend_from_slice(&rle[..n]);
            rle = &rle[n..];
        }
    }
    (out.len() == expected).then_some(out)
}

// ---- MODE_WORDS -----------------------------------------------------------

/// Body: varint(decoded_len) ++ one varint per whole 8-byte word (zigzag of
/// the sortable-bits delta against the previous word, seed 0) ++ raw tail.
fn words_frame(payload: &[u8]) -> Option<Vec<u8>> {
    let words = payload.len() / WORD;
    if words < MIN_WORDS {
        return None;
    }
    let head = words * WORD;
    let mut out = vec![MODE_WORDS];
    varint_encode(payload.len() as u64, &mut out);
    let mut prev = 0u64;
    for chunk in payload[..head].chunks_exact(WORD) {
        let m = sortable_bits(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        varint_encode(zigzag(m.wrapping_sub(prev) as i64), &mut out);
        prev = m;
    }
    out.extend_from_slice(&payload[head..]);
    Some(out)
}

fn words_decode(body: &[u8]) -> Option<Vec<u8>> {
    let (decoded_len, used) = varint_decode(body)?;
    if decoded_len > MAX_DECODED {
        return None;
    }
    let mut body = &body[used..];
    let total = decoded_len as usize;
    let words = total / WORD;
    if words > body.len() {
        return None; // each word needs at least one varint byte
    }
    let mut out = Vec::with_capacity(total);
    let mut prev = 0u64;
    for _ in 0..words {
        let (v, used) = varint_decode(body)?;
        body = &body[used..];
        prev = prev.wrapping_add(unzigzag(v) as u64);
        out.extend_from_slice(&unsortable_bits(prev).to_le_bytes());
    }
    if body.len() != total - words * WORD {
        return None;
    }
    out.extend_from_slice(body);
    Some(out)
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

fn lz_hash(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes.try_into().expect("4-byte prefix"));
    (v.wrapping_mul(2_654_435_761) >> (32 - LZ_HASH_BITS)) as usize
}

fn lz_decode(mut body: &[u8]) -> Option<Vec<u8>> {
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
            for _ in 0..n {
                out.push(out[out.len() - dist]);
            }
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn sortable_bits_round_trips_and_orders() {
        for f in [0.0f64, -0.0, 1.5, -1.5, f64::MAX, f64::MIN, f64::INFINITY] {
            let w = f.to_bits();
            assert_eq!(unsortable_bits(sortable_bits(w)), w);
        }
        // Order preservation: -2.0 < -1.0 < 0.0 < 1.0 < 2.0.
        let sorted: Vec<u64> = [-2.0f64, -1.0, 0.0, 1.0, 2.0]
            .iter()
            .map(|f| sortable_bits(f.to_bits()))
            .collect();
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
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
            for frame in [
                raw_frame(&payload),
                planes_frame(&payload).expect("planes"),
                words_frame(&payload).expect("words"),
                lz_frame(&payload).expect("lz"),
            ] {
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
        for frame in [
            planes_frame(&payload).expect("planes"),
            words_frame(&payload).expect("words"),
            lz_frame(&payload).expect("lz"),
        ] {
            assert!(decompress(&frame).is_some());
            for cut in 0..frame.len() {
                assert_eq!(decompress(&frame[..cut]), None, "prefix of {cut} bytes");
            }
        }
        assert_eq!(decompress(&[]), None);
        assert_eq!(decompress(&[MODE_LZ + 42]), None, "unknown mode");
    }
}
