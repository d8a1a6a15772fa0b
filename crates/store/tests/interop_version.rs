//! Peers of other protocol generations. A client against a peer that
//! refuses the tagged envelope must reproduce cold behavior exactly and
//! trip its breaker, never error; a client speaking the retired bare
//! frames must be refused on a connection that stays usable.

use rtlt_store::client::MAX_CONSECUTIVE_FAILURES;
use rtlt_store::server::{spawn, ServerConfig};
use rtlt_store::wire::{op, tag_request, untag, Frame, Request, Response};
use rtlt_store::TierLookup;
use rtlt_store::{compress, Codec, ContentHash, KeyBuilder, RemoteTier, Store, StoreTier};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn key(label: &str) -> ContentHash {
    KeyBuilder::new("interop").str(label).finish()
}

/// A peer that predates the envelope: it answers every frame — the
/// `TAGGED` envelope included — with a bare `Failed` on the still-alive
/// connection, as any server does with an opcode it does not know.
fn spawn_envelope_refusing_peer() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || {
                let mut stream = stream;
                while let Ok(frame) = Frame::read_from(&mut stream) {
                    let refusal = Response::Failed(format!("request opcode {}", frame.op));
                    if refusal.to_frame().write_to(&mut stream).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn new_client_falls_back_against_an_old_server() {
    let addr = spawn_envelope_refusing_peer();
    let remote = Arc::new(RemoteTier::with_timeout(&addr, Duration::from_secs(2)));
    let mut store = Store::in_memory();
    store.push_tier(remote.clone());

    // The store computes, keeps and returns exactly the cold bytes: the
    // refused lookup is a miss, the write-back a lost best-effort put.
    let artifact: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
    let mut calls = 0;
    let got = store.get_or_compute("featurize", key("x"), || {
        calls += 1;
        artifact.clone()
    });
    assert_eq!(calls, 1);
    assert_eq!(got.to_bytes(), artifact.to_bytes());
    let s = store.stats().namespace("featurize");
    assert_eq!((s.remote_hits, s.misses), (0, 1));

    // Every refused exchange counts toward the breaker, which trips open
    // after MAX_CONSECUTIVE_FAILURES and then stays a cheap no-op.
    for i in 0..MAX_CONSECUTIVE_FAILURES {
        assert!(!remote.is_down(), "tripped early, after {i} failures");
        assert_eq!(remote.get_bytes("featurize", key("x")), TierLookup::Miss);
    }
    assert!(remote.is_down());
    let frame = compress::raw_frame(&artifact.to_bytes());
    remote.put_bytes("featurize", key("y"), &frame);
    remote.flush();
    assert_eq!(
        remote.get_bytes_batch(&[("featurize".to_owned(), key("y"))]),
        vec![TierLookup::Miss]
    );
    assert!(remote.server_load().is_none());
}

#[test]
fn old_client_speaks_v1_against_a_new_server() {
    let scratch = std::env::temp_dir().join(format!("rtlt-interop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cfg = ServerConfig {
        dir: scratch.clone(),
        mem_budget: 1 << 20,
    };
    let addr = spawn("127.0.0.1:0", &cfg).expect("bind");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let read = |stream: &mut TcpStream| Frame::read_from(stream).expect("answer");

    // An old client's bare v1 GET (op 1, the same `ns, key` body GET2
    // carries) and a bare current GET2 are both refused with a bare
    // `Failed`: there is no tag to echo.
    let get = Request::Get2 {
        ns: "featurize".into(),
        key: key("y"),
    }
    .to_frame();
    let v1_get = Frame {
        op: 1,
        body: get.body.clone(),
    };
    for bare in [&v1_get, &get] {
        bare.write_to(&mut stream).expect("write");
        let answer = read(&mut stream);
        assert_eq!(answer.op, op::FAILED, "bare op {} refused bare", bare.op);
        assert!(matches!(
            Response::from_frame(&answer),
            Ok(Response::Failed(_))
        ));
    }

    // The same connection then serves tagged requests.
    let frame = compress::raw_frame(b"v1 clients are refused, not dropped");
    let put = Request::Put2 {
        ns: "featurize".into(),
        key: key("y"),
        payload: frame.clone(),
    };
    tag_request(7, &put.to_frame())
        .write_to(&mut stream)
        .expect("write");
    tag_request(8, &get).write_to(&mut stream).expect("write");
    for (want_tag, want) in [(7, None), (8, Some(Response::Hit(frame)))] {
        let (tag, inner) = untag(&read(&mut stream)).expect("tagged answer");
        assert_eq!(tag, want_tag);
        let resp = Response::from_frame(&inner).expect("response");
        match want {
            None => assert!(matches!(resp, Response::Done(_))),
            Some(want) => assert_eq!(resp, want),
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
