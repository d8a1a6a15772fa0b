//! The multiplexed wire path end to end: tagged exchanges against a real
//! event-loop server are matched by tag whatever the interleaving or the
//! byte-stream chunking looks like; a frame truncated mid-write is
//! reassembled, not dropped; retired and unknown verbs are refused under
//! their own tags; and the pipelined client demultiplexes out-of-order
//! completions (put acks arriving around an awaited get).

use proptest::prelude::*;
use rtlt_store::server::{spawn, ServerConfig};
use rtlt_store::wire::{op, tag_request, tag_response, untag, Frame, Request, Response};
use rtlt_store::{compress, ContentHash, KeyBuilder, RemoteTier, StoreTier, TierLookup};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// One shared event-loop server for every test (and proptest case) in
/// this file; cases keep their state disjoint via per-case namespaces.
fn server_addr() -> &'static str {
    static SERVER: OnceLock<String> = OnceLock::new();
    SERVER.get_or_init(|| {
        let cfg = ServerConfig {
            dir: std::env::temp_dir().join(format!("rtlt-mux-{}", std::process::id())),
            mem_budget: 1 << 20,
        };
        spawn("127.0.0.1:0", &cfg).expect("bind").to_string()
    })
}

fn key_of(n: u64) -> ContentHash {
    KeyBuilder::new("mux").u64(n).finish()
}

fn connect() -> TcpStream {
    let stream = TcpStream::connect(server_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
}

/// What one tagged request should come back as.
enum Expected {
    Done,
    Exact(Response),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings of tagged PUT2/GET2 requests — written as
    /// one byte stream cut at arbitrary chunk boundaries — come back with
    /// every response matched to its request by tag, and every GET answer
    /// equal to what a sequential execution of the same requests yields.
    #[test]
    fn tagged_interleavings_match_responses_by_tag(
        ops in proptest::collection::vec(
            (0u8..2, 0u64..3, proptest::collection::vec(0u8..=255, 0..64)),
            1..10,
        ),
        tag_seed in 0u64..u64::MAX / 2,
        chunk in 1usize..96,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let ns = format!("mux{case}");

        // Requests are processed in arrival order on one connection, so a
        // sequential simulation is the ground truth for every GET.
        let mut stream_bytes = Vec::new();
        let mut expected: HashMap<u64, Expected> = HashMap::new();
        let mut state: HashMap<u64, Vec<u8>> = HashMap::new();
        for (i, (kind, slot, payload)) in ops.iter().enumerate() {
            // Distinct odd-multiplier tags: arbitrary, unique, unordered.
            let tag = tag_seed
                .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let key = key_of(*slot);
            let req = if *kind == 0 {
                let frame = compress::raw_frame(payload);
                state.insert(*slot, frame.clone());
                expected.insert(tag, Expected::Done);
                Request::Put2 {
                    ns: ns.clone(),
                    key,
                    payload: frame,
                }
            } else {
                expected.insert(tag, Expected::Exact(match state.get(slot) {
                    Some(frame) => Response::Hit(frame.clone()),
                    None => Response::Miss,
                }));
                Request::Get2 {
                    ns: ns.clone(),
                    key,
                }
            };
            stream_bytes.extend(tag_request(tag, &req.to_frame()).to_bytes());
        }

        let mut sock = connect();
        for piece in stream_bytes.chunks(chunk) {
            sock.write_all(piece).expect("write chunk");
        }
        let mut got: HashMap<u64, Response> = HashMap::new();
        for _ in 0..ops.len() {
            let frame = Frame::read_from(&mut sock).expect("tagged response");
            prop_assert_eq!(frame.op, op::TAGGED_RESP);
            let (tag, inner) = untag(&frame).expect("well-formed envelope");
            let prev = got.insert(tag, Response::from_frame(&inner).expect("response"));
            prop_assert!(prev.is_none(), "one response per tag");
        }
        prop_assert_eq!(got.len(), expected.len());
        for (tag, want) in &expected {
            let answer = got.get(tag).expect("every tag answered");
            match want {
                Expected::Done => prop_assert!(matches!(answer, Response::Done(_))),
                Expected::Exact(resp) => prop_assert_eq!(answer, resp),
            }
        }
    }
}

/// A request frame cut mid-header and mid-body — with real pauses, so the
/// event loop ticks over a partially buffered frame — is reassembled and
/// answered; the connection stays healthy for the next exchange.
#[test]
fn truncated_mid_frame_writes_reassemble_across_ticks() {
    let ns = "mux-truncated";
    let payload = compress::raw_frame(&vec![7u8; 512]);
    let mut sock = connect();

    let put = tag_request(
        1,
        &Request::Put2 {
            ns: ns.to_owned(),
            key: key_of(1),
            payload: payload.clone(),
        }
        .to_frame(),
    )
    .to_bytes();
    // Three cuts: inside the frame header, inside the body, the rest —
    // each separated by sleeps longer than the server's poll interval.
    for piece in [&put[..9], &put[9..40], &put[40..]] {
        sock.write_all(piece).expect("partial write");
        sock.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
    }
    let frame = Frame::read_from(&mut sock).expect("put answered");
    let (tag, inner) = untag(&frame).expect("tagged");
    assert_eq!(tag, 1);
    assert!(matches!(
        Response::from_frame(&inner).expect("response"),
        Response::Done(_)
    ));

    // Same connection, same trickle, now a GET: the reassembler state was
    // left clean by the previous frame.
    let get = tag_request(
        2,
        &Request::Get2 {
            ns: ns.to_owned(),
            key: key_of(1),
        }
        .to_frame(),
    )
    .to_bytes();
    let cut = get.len() / 2;
    for piece in [&get[..cut], &get[cut..]] {
        sock.write_all(piece).expect("partial write");
        sock.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
    }
    let frame = Frame::read_from(&mut sock).expect("get answered");
    let (tag, inner) = untag(&frame).expect("tagged");
    assert_eq!(tag, 2);
    assert_eq!(
        Response::from_frame(&inner).expect("response"),
        Response::Hit(payload)
    );
}

/// Retired opcodes (the bare-payload GET, PUT, STAT and GETM, and the
/// planner's LEASE, REPORT, PLAN and PLANSTAT) and an unknown future verb,
/// each inside an envelope, are answered `Failed` under their own tags;
/// the connection keeps serving.
#[test]
fn retired_and_unknown_opcodes_fail_under_their_own_tags() {
    let mut sock = connect();
    let ops = [1u8, 2, 3, 5, 6, 7, 8, 9, 0x7E];
    let mut bytes = Vec::new();
    for (tag, &opcode) in ops.iter().enumerate() {
        let inner = Frame {
            op: opcode,
            body: Vec::new(),
        };
        bytes.extend(tag_request(tag as u64 + 100, &inner).to_bytes());
    }
    bytes.extend(tag_request(99, &Request::Stat2.to_frame()).to_bytes());
    sock.write_all(&bytes).expect("write");
    let mut refused = Vec::new();
    for _ in 0..=ops.len() {
        let frame = Frame::read_from(&mut sock).expect("answer");
        let (tag, inner) = untag(&frame).expect("every answer is tagged");
        match Response::from_frame(&inner).expect("response") {
            Response::Failed(_) => refused.push(tag),
            Response::ServerStats(load) => {
                assert_eq!(tag, 99);
                assert!(load.connections >= 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    refused.sort_unstable();
    assert_eq!(refused, (100..100 + ops.len() as u64).collect::<Vec<_>>());
}

/// The pipelined client against a scripted peer that completes exchanges
/// **out of order**: fire-and-forget put acks arrive interleaved around
/// the awaited get answer, in scrambled order. The demux absorbs acks by
/// tag, hands the get its own answer, and `flush` drains the stragglers —
/// five requests, one wire turnaround.
#[test]
fn out_of_order_completions_demux_by_tag() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let served = compress::raw_frame(b"out-of-order payload");
    let served_for_script = served.clone();

    let script = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("one connection");
        // Four fire-and-forget puts and one awaited get arrive without any
        // intervening read on the client side.
        let mut puts = Vec::new();
        let mut get_tag = None;
        for _ in 0..5 {
            let frame = Frame::read_from(&mut stream).expect("request");
            assert_eq!(frame.op, op::TAGGED, "the client always tags");
            let (tag, inner) = untag(&frame).expect("envelope");
            match inner.op {
                op::PUT2 => puts.push(tag),
                op::GET2 => get_tag = Some(tag),
                other => panic!("unexpected op {other}"),
            }
        }
        let get_tag = get_tag.expect("one get");
        assert_eq!(puts.len(), 4);
        // Scrambled completion: last put first, then the get's answer,
        // then the remaining acks out of order.
        for (tag, resp) in [
            (puts[3], Response::Done(Default::default())),
            (get_tag, Response::Hit(served_for_script)),
            (puts[1], Response::Done(Default::default())),
            (puts[0], Response::Done(Default::default())),
            (puts[2], Response::Done(Default::default())),
        ] {
            tag_response(tag, &resp.to_frame())
                .write_to(&mut stream)
                .expect("scrambled response");
        }
    });

    let remote = RemoteTier::with_timeout(&addr, Duration::from_secs(10));
    let frame = compress::raw_frame(b"x");
    for i in 0..4 {
        remote.put_bytes("mux-ooo", key_of(i), &frame);
    }
    assert_eq!(
        remote.get_bytes("mux-ooo", key_of(9)),
        TierLookup::Hit(served),
        "the awaited get received its own answer, not a put ack"
    );
    remote.flush();
    script.join().expect("script thread");

    assert!(!remote.is_down());
    assert_eq!(
        remote.round_trips(),
        1,
        "one shared turnaround for 4 puts, 1 get and the drain"
    );
    // The drain left nothing pending: a second flush has nothing to read
    // and must not block or fail.
    remote.flush();
    assert!(!remote.is_down());
}
