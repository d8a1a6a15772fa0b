//! Property tests of the wire frame codec: arbitrary frames round-trip
//! bit-exactly, and the mutations a hostile or flaky network can produce —
//! truncation, payload corruption, version skew, lying length headers —
//! are always rejected (which the client maps to "miss, recompute").

use proptest::prelude::*;
use rtlt_store::wire::{
    AnnotationReply, EditSplice, Frame, FrameBudget, Request, Response, WireError, FRAME_HEADER,
    MAX_EDIT_SPLICES,
};
use rtlt_store::{ContentHash, KeyBuilder};

fn key_of(tag: u64) -> ContentHash {
    KeyBuilder::new("wire-prop").u64(tag).finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any frame round-trips through serialize → read, bit-exactly.
    #[test]
    fn frames_round_trip(
        op in 0u8..=255,
        body in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let frame = Frame { op, body: body.clone() };
        let bytes = frame.to_bytes();
        let back = Frame::read_from(&mut bytes.as_slice()).expect("round trip");
        prop_assert_eq!(back.op, op);
        prop_assert_eq!(back.body, body);
    }

    /// GET2/PUT2 requests round-trip through the typed layer.
    #[test]
    fn requests_round_trip(
        tag in 0u64..1000,
        ns in "compile|blast|label|featurize|shard|model",
        payload in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let get = Request::Get2 { ns: ns.clone(), key: key_of(tag) };
        let back = Request::from_frame(&get.to_frame()).expect("get");
        prop_assert_eq!(&back, &get);
        let put = Request::Put2 { ns, key: key_of(tag), payload };
        let frame_bytes = put.to_frame().to_bytes();
        let frame = Frame::read_from(&mut frame_bytes.as_slice()).expect("frame");
        let back = Request::from_frame(&frame).expect("put");
        prop_assert_eq!(back, put);
    }

    /// Hit/miss responses round-trip, and every strict prefix of the frame
    /// fails to read rather than yielding a wrong response.
    #[test]
    fn responses_survive_no_truncation(
        payload in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let resp = Response::Hit(payload);
        let bytes = resp.to_frame().to_bytes();
        let back = Response::from_frame(
            &Frame::read_from(&mut bytes.as_slice()).expect("full frame"),
        ).expect("decode");
        prop_assert_eq!(&back, &resp);
        let step = (bytes.len() / 16).max(1);
        let mut cut = 0;
        while cut < bytes.len() {
            prop_assert!(Frame::read_from(&mut bytes[..cut].as_ref()).is_err());
            cut += step;
        }
    }

    /// Flipping any single byte of a frame is detected: the read either
    /// fails outright or (for flips inside the opcode byte) changes `op`
    /// without corrupting the body.
    #[test]
    fn single_byte_corruption_never_passes_silently(
        body in proptest::collection::vec(0u8..=255, 1..128),
        pos_seed in 0usize..100000,
        flip in 1u8..=255,
    ) {
        let frame = Frame { op: 1, body: body.clone() };
        let mut bytes = frame.to_bytes();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        match Frame::read_from(&mut bytes.as_slice()) {
            // The opcode byte is the one header byte the checksum does not
            // cover; a flip there yields a well-formed frame with a
            // different op, which the typed request/response layer rejects.
            Ok(read) => {
                prop_assert_eq!(pos, 8);
                prop_assert_eq!(read.body, body);
                prop_assert!(read.op != 1);
            }
            Err(
                WireError::BadMagic
                | WireError::Version(_)
                | WireError::Oversized(_)
                | WireError::Checksum
                | WireError::Io(_),
            ) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected {e:?}"))),
        }
    }

    /// Batched request/response frames round-trip, misses and hits alike.
    #[test]
    fn batch_frames_round_trip(
        tags in proptest::collection::vec(0u64..1000, 0..32),
        payload in proptest::collection::vec(0u8..=255, 0..128),
        last_seed in 0u8..2,
    ) {
        let last = last_seed == 1;
        let req = Request::GetBatch2 {
            items: tags.iter().map(|t| ("featurize".to_owned(), key_of(*t))).collect(),
        };
        let bytes = req.to_frame().to_bytes();
        let back = Request::from_frame(
            &Frame::read_from(&mut bytes.as_slice()).expect("frame"),
        ).expect("decode");
        prop_assert_eq!(&back, &req);

        let resp = Response::BatchPart {
            items: tags
                .iter()
                .enumerate()
                .map(|(i, t)| (i as u64, (t % 2 == 0).then(|| payload.clone())))
                .collect(),
            last,
        };
        let bytes = resp.to_frame().to_bytes();
        let back = Response::from_frame(
            &Frame::read_from(&mut bytes.as_slice()).expect("frame"),
        ).expect("decode");
        prop_assert_eq!(back, resp);
    }

    /// The cumulative in-flight budget rejects a frame sequence at exactly
    /// the first frame whose body would push the running total past the
    /// budget — each frame individually legal, the sum bounded. This is
    /// the satellite defense for GETM: per-frame caps alone would let a
    /// batch of max-size frames balloon one connection.
    #[test]
    fn cumulative_budget_rejects_at_the_first_overflowing_frame(
        sizes in proptest::collection::vec(0usize..600, 1..12),
        budget_total in 0u64..3000,
    ) {
        let mut stream = Vec::new();
        for (i, n) in sizes.iter().enumerate() {
            stream.extend_from_slice(
                &Frame { op: 0x81, body: vec![i as u8; *n] }.to_bytes(),
            );
        }
        let mut budget = FrameBudget::new(budget_total);
        let mut r = stream.as_slice();
        let mut spent = 0u64;
        for (i, n) in sizes.iter().enumerate() {
            let n = *n as u64;
            match Frame::read_budgeted(&mut r, &mut budget) {
                Ok(frame) => {
                    spent += n;
                    prop_assert!(spent <= budget_total, "frame {i} overspent");
                    prop_assert_eq!(frame.body.len() as u64, n);
                    prop_assert_eq!(budget.remaining(), budget_total - spent);
                }
                Err(WireError::BudgetExceeded { asked, remaining }) => {
                    prop_assert_eq!(asked, n);
                    prop_assert_eq!(remaining, budget_total - spent);
                    prop_assert!(spent + n > budget_total, "rejected a frame that fit");
                    return Ok(());
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected {e:?}"))),
            }
        }
        // Every frame fit: the whole stream must have been within budget.
        prop_assert!(spent <= budget_total);
    }

    /// Session requests (OPEN/EDIT/ANNOTATE/CLOSE) round-trip with
    /// arbitrary designs, sources, and splice lists — including splices
    /// whose inserts carry NUL bytes, multi-byte UTF-8, and newlines.
    #[test]
    fn session_requests_round_trip(
        design in "alpha|beta|soc_top|lane_a0",
        source in proptest::collection::vec(0u8..=255, 0..200)
            .prop_map(|v| String::from_utf8_lossy(&v).into_owned()),
        session in 0u64..u64::MAX,
        check in 0u64..u64::MAX,
        raw_splices in proptest::collection::vec(
            (
                0u64..u64::MAX,
                0u64..u64::MAX,
                proptest::collection::vec(0u8..=255, 0..40)
                    .prop_map(|v| String::from_utf8_lossy(&v).into_owned()),
            ),
            0..16,
        ),
    ) {
        let splices: Vec<EditSplice> = raw_splices
            .into_iter()
            .map(|(at, delete, insert)| EditSplice { at, delete, insert })
            .collect();
        for req in [
            Request::Open { design, source },
            Request::Edit { session, splices, check },
            Request::Annotate { session },
            Request::Close { session },
        ] {
            let bytes = req.to_frame().to_bytes();
            let back = Request::from_frame(
                &Frame::read_from(&mut bytes.as_slice()).expect("frame"),
            ).expect("decode");
            prop_assert_eq!(back, req);
        }
    }

    /// Session responses round-trip, and every strict prefix of an
    /// ANNOTATION body is refused rather than decoded to a short reply.
    #[test]
    fn session_responses_round_trip_and_reject_truncation(
        session in 0u64..u64::MAX,
        revision in 0u64..u64::MAX,
        annotated in proptest::collection::vec(0u8..=255, 0..200)
            .prop_map(|v| String::from_utf8_lossy(&v).into_owned()),
        modules in proptest::collection::vec("alu|fetch|decode|lane_a|mul0", 0..8),
        counters in proptest::collection::vec(0u64..u64::MAX, 4..5),
    ) {
        let opened = Response::Session { session, revision, check: counters[0] };
        let bytes = opened.to_frame().to_bytes();
        let back = Response::from_frame(
            &Frame::read_from(&mut bytes.as_slice()).expect("frame"),
        ).expect("decode");
        prop_assert_eq!(&back, &opened);

        let reply = Response::Annotation(AnnotationReply {
            annotated,
            dirty_modules: modules,
            dirty_cone_bound: counters[0],
            dirty_shards: counters[1],
            reused_shards: counters[2],
            total_shards: counters[3],
        });
        let frame = reply.to_frame();
        let back = Response::from_frame(&frame).expect("decode");
        prop_assert_eq!(&back, &reply);
        let step = (frame.body.len() / 16).max(1);
        let mut cut = 0;
        while cut < frame.body.len() {
            let trunc = Frame { op: frame.op, body: frame.body[..cut].to_vec() };
            prop_assert!(
                Response::from_frame(&trunc).is_err(),
                "prefix of {} bytes decoded", cut
            );
            cut += step;
        }
    }

    /// A lying splice count — larger than the bytes behind it or past the
    /// protocol cap — is refused before any allocation, and flipping any
    /// single body byte of an EDIT frame never passes the frame layer
    /// silently (the checksum covers the whole body).
    #[test]
    fn edit_frames_reject_count_lies_and_corruption(
        session in 0u64..u64::MAX,
        inserts in proptest::collection::vec("x \\^ 1|y << 2| |wire w;", 1..8),
        lie in 0u64..4,
        pos_seed in 0usize..100000,
        flip in 1u8..=255,
    ) {
        let splices: Vec<EditSplice> = inserts
            .into_iter()
            .enumerate()
            .map(|(i, insert)| EditSplice { at: i as u64 * 10, delete: 2, insert })
            .collect();
        let req = Request::Edit { session, splices, check: 7 };
        let frame = req.to_frame();

        // Overwrite the splice-count word (a u32 right after the session
        // and check words) with a count the body cannot back.
        let mut lied = frame.clone();
        let bogus: u32 = match lie {
            0 => MAX_EDIT_SPLICES as u32 + 1,
            1 => u32::MAX,
            2 => u32::MAX / 2,
            _ => MAX_EDIT_SPLICES as u32 + 1_000_000,
        };
        lied.body[16..20].copy_from_slice(&bogus.to_le_bytes());
        prop_assert!(Request::from_frame(&lied).is_err());

        let mut bytes = frame.to_bytes();
        let pos = FRAME_HEADER + pos_seed % frame.body.len();
        bytes[pos] ^= flip;
        prop_assert!(matches!(
            Frame::read_from(&mut bytes.as_slice()),
            Err(WireError::Checksum)
        ));
    }

    /// Length headers beyond the cap are rejected before any allocation.
    #[test]
    fn oversized_length_headers_rejected(extra in 1u64..u64::MAX / 2) {
        let mut bytes = Frame { op: 2, body: vec![1, 2, 3] }.to_bytes();
        let lying = rtlt_store::wire::MAX_FRAME_BODY + extra % (u64::MAX / 2);
        bytes[9..17].copy_from_slice(&lying.to_le_bytes());
        prop_assert_eq!(
            Frame::read_from(&mut bytes.as_slice()),
            Err(WireError::Oversized(lying))
        );
    }
}

#[test]
fn header_layout_is_stable() {
    // The wire header layout is a cross-version contract: magic(4) +
    // version(4) + op(1) + len(8).
    assert_eq!(FRAME_HEADER, 17);
    let bytes = Frame {
        op: 7,
        body: vec![1],
    }
    .to_bytes();
    assert_eq!(&bytes[..4], b"RTLW");
    assert_eq!(bytes[8], 7);
    assert_eq!(bytes.len(), FRAME_HEADER + 1 + 8);
}
