//! End-to-end tests of the live annotation service (`rtlt-annotated`):
//! concurrent sessions over real TCP against one single-threaded event
//! loop, byte-identity of every remote annotation vs. a local
//! [`IncrementalAnnotator`], replies matched by tag whatever order they
//! complete in, the refusal rule for bare and retired requests, and the
//! full degrade matrix — killed server mid-session and a peer that does
//! not serve sessions (a plain artifact store answering the session
//! opcodes with `Failed`) — falling back to local recompute with the same
//! bytes.

use rtl_timer::cache::stage;
use rtl_timer::live::{diff_splices, source_check, LiveAnnotator, LiveService};
use rtl_timer::pipeline::{DesignSet, RtlTimer, TimerConfig};
use rtl_timer::IncrementalAnnotator;
use rtlt_store::wire::{op, tag_request, untag, Frame, Request, Response};
use rtlt_store::Store;
use std::io::Write;
use std::sync::Arc;

fn lane(name: &str, body: &str) -> String {
    format!(
        "module {name}(input clk, input [7:0] x, output [7:0] y);
  reg [7:0] r;
  always @(posedge clk) r <= {body};
  assign y = r;
endmodule"
    )
}

fn design(top: &str, lane_a_body: &str) -> String {
    format!(
        "{}
{}
module {top}(input clk, input [7:0] a, input [7:0] b, output [7:0] q);
  wire [7:0] ya;
  wire [7:0] yb;
  laneA u0 (.clk(clk), .x(a), .y(ya));
  laneB u1 (.clk(clk), .x(b), .y(yb));
  reg [7:0] merge_r;
  always @(posedge clk) merge_r <= ya ^ yb;
  assign q = merge_r;
endmodule",
        lane("laneA", lane_a_body),
        lane("laneB", "x ^ (x >> 1)")
    )
}

struct Fixture {
    model: Arc<RtlTimer>,
    cfg: TimerConfig,
    service_store: Store,
    alpha: (rtl_timer::DesignData, String),
    beta: (rtl_timer::DesignData, String),
}

/// Prepares two editable designs plus a trainer, fits a model, and leaves
/// a warm store for the service side. The editable [`DesignData`] are
/// cloned out so the service can be built from them by reference.
fn fixture() -> Fixture {
    let cfg = TimerConfig {
        threads: 2,
        ..Default::default()
    };
    let alpha_src = design("alpha", "x + 8'd3");
    let beta_src = design("beta", "x + (x >> 2)");
    let store = Store::in_memory();
    let sources = vec![
        ("alpha".to_owned(), alpha_src.clone()),
        ("beta".to_owned(), beta_src.clone()),
        ("trainer".to_owned(), design("trainer", "x - 8'd1")),
    ];
    let set = DesignSet::prepare_named_with(&sources, &cfg, &store).unwrap();
    let (train, test) = set.split(&["alpha", "beta"]);
    let model = Arc::new(RtlTimer::fit(&train, &cfg));
    let mut alpha = None;
    let mut beta = None;
    for d in test {
        match &*d.name {
            "alpha" => alpha = Some(d.clone()),
            "beta" => beta = Some(d.clone()),
            _ => {}
        }
    }
    Fixture {
        model,
        cfg,
        service_store: store,
        alpha: (alpha.unwrap(), alpha_src),
        beta: (beta.unwrap(), beta_src),
    }
}

#[test]
fn two_concurrent_sessions_interleave_byte_identically() {
    let fx = fixture();
    // step_shards = 1 forces maximal interleaving: every pending job
    // advances one shard per tick, so neither session can starve the
    // other no matter how their edits land.
    let svc = LiveService::new(
        Arc::clone(&fx.model),
        fx.service_store,
        &[&fx.alpha.0, &fx.beta.0],
        &fx.cfg,
        1,
    );
    let handle = rtl_timer::live::spawn("127.0.0.1:0", svc).expect("bind");
    let addr = handle.addr.to_string();

    let run_session = |base: &rtl_timer::DesignData, edits: Vec<String>| {
        let model = Arc::clone(&fx.model);
        let cfg = fx.cfg.clone();
        let addr = addr.clone();
        let base = base.clone();
        move || {
            let client_store = Store::in_memory();
            // The local twin's store holds the base design's `featurize`
            // entry, as the service's does, so both first passes move the
            // same prepared rows.
            let local_store = Store::in_memory();
            local_store.put(stage::FEATURIZE, base.prepare_key, base.clone());
            let mut live = LiveAnnotator::with_remote(&base, &cfg, &addr);
            let mut local = IncrementalAnnotator::new(&base, &cfg);
            let mut remote_passes = 0u32;
            for edit in edits {
                let out = live
                    .reannotate(&edit, &model, &client_store)
                    .expect("live pass");
                let twin = local.reannotate(&edit, &model, &local_store).expect("twin");
                assert_eq!(
                    out.annotated, twin.annotated,
                    "remote annotation must be byte-identical to the local loop"
                );
                assert_eq!(out.total_shards, twin.total_shards);
                // Shard counts are per job: the other session's jobs,
                // stepped on the same ticks, never leak into them.
                assert_eq!(
                    (out.dirty_shards, out.reused_shards),
                    (twin.dirty_shards, twin.reused_shards),
                    "per-session shard counts"
                );
                if out.remote {
                    remote_passes += 1;
                    assert!(
                        out.round_trips >= 1,
                        "an edit costs at least one turnaround"
                    );
                }
            }
            remote_passes
        }
    };

    // Five revisions per session: single-lane edits, both lanes at once,
    // and a revert to the base.
    let alpha_edits = vec![
        fx.alpha.1.replace("x + 8'd3", "x + (x << 1)"),
        fx.alpha.1.replace("x ^ (x >> 1)", "x ^ (x >> 3)"),
        fx.alpha
            .1
            .replace("x + 8'd3", "x - 8'd7")
            .replace("x ^ (x >> 1)", "x & 8'd5"),
        fx.alpha.1.clone(),
        fx.alpha.1.replace("x + 8'd3", "x | 8'd9"),
    ];
    let beta_edits = vec![
        fx.beta.1.replace("x + (x >> 2)", "x + (x >> 4)"),
        fx.beta.1.replace("x ^ (x >> 1)", "x ^ (x >> 2)"),
        fx.beta.1.replace("x + (x >> 2)", "x | (x << 2)"),
        fx.beta.1.clone(),
        fx.beta
            .1
            .replace("x + (x >> 2)", "x ^ 8'd1")
            .replace("x ^ (x >> 1)", "x + 8'd2"),
    ];
    let a = run_session(&fx.alpha.0, alpha_edits);
    let b = run_session(&fx.beta.0, beta_edits);
    let (ra, rb) = std::thread::scope(|s| {
        let ta = s.spawn(a);
        let tb = s.spawn(b);
        (
            ta.join().expect("alpha session"),
            tb.join().expect("beta session"),
        )
    });
    assert_eq!(ra, 5, "every alpha pass served remotely");
    assert_eq!(rb, 5, "every beta pass served remotely");
    handle.stop();
}

/// Writes `requests` in one write, tagged by position, and returns one
/// reply per request in request order — matched by tag, not by arrival.
fn exchange(conn: &mut std::net::TcpStream, requests: &[Request]) -> Vec<Response> {
    let mut buf = Vec::new();
    for (tag, r) in requests.iter().enumerate() {
        buf.extend_from_slice(&tag_request(tag as u64, &r.to_frame()).to_bytes());
    }
    conn.write_all(&buf).expect("write requests");
    let mut replies = vec![None; requests.len()];
    for _ in requests {
        let frame = Frame::read_from(conn).expect("reply");
        let (tag, inner) = untag(&frame).expect("tagged reply");
        let slot = &mut replies[tag as usize];
        assert!(slot.is_none(), "one reply per tag");
        *slot = Some(Response::from_frame(&inner).expect("decode"));
    }
    replies.into_iter().map(|r| r.expect("every tag")).collect()
}

#[test]
fn pipelined_annotates_on_one_session_match_the_local_loop() {
    let fx = fixture();
    // One shard per tick: the first pipelined job is still in flight when
    // the second begins, so the second finds the session's resident
    // revision taken and starts from the prepared design's rows.
    let svc = LiveService::new(
        Arc::clone(&fx.model),
        fx.service_store,
        &[&fx.alpha.0],
        &fx.cfg,
        1,
    );
    let handle = rtl_timer::live::spawn("127.0.0.1:0", svc).expect("bind");
    let mut conn = std::net::TcpStream::connect(handle.addr).expect("connect");
    let base = fx.alpha.1.clone();
    let revisions = [
        base.replace("x + 8'd3", "x + (x << 1)"),
        base.replace("x + 8'd3", "x + (x << 2)"),
        base.replace("x ^ (x >> 1)", "x ^ (x >> 3)"),
    ];
    let open = exchange(
        &mut conn,
        &[Request::Open {
            design: "alpha".into(),
            source: base.clone(),
        }],
    );
    let Response::Session { session, .. } = open[0] else {
        panic!("OPEN refused: {open:?}");
    };
    let edit = |from: &str, to: &str| Request::Edit {
        session,
        splices: diff_splices(from, to),
        check: source_check(to),
    };
    let annotate = Request::Annotate { session };
    // One edit answered first: the session now has a resident revision.
    let mut replies = exchange(&mut conn, &[edit(&base, &revisions[0]), annotate.clone()]);
    // Then two edits with their ANNOTATEs pipelined before any reply.
    replies.extend(exchange(
        &mut conn,
        &[
            edit(&revisions[0], &revisions[1]),
            annotate.clone(),
            edit(&revisions[1], &revisions[2]),
            annotate,
        ],
    ));
    let annotations: Vec<_> = replies
        .into_iter()
        .filter_map(|r| match r {
            Response::Session { .. } => None,
            Response::Annotation(a) => Some(a),
            other => panic!("unexpected reply {other:?}"),
        })
        .collect();
    assert_eq!(annotations.len(), 3);

    let twin_store = Store::in_memory();
    let mut twin = IncrementalAnnotator::new(&fx.alpha.0, &fx.cfg);
    for (rev, remote) in revisions.iter().zip(&annotations) {
        let local = twin.reannotate(rev, &fx.model, &twin_store).unwrap();
        assert_eq!(remote.annotated, local.annotated, "same bytes");
        assert_eq!(remote.total_shards, local.total_shards);
        assert_eq!(
            remote.dirty_shards + remote.reused_shards,
            remote.total_shards
        );
    }
    handle.stop();
}

#[test]
fn a_warm_annotate_may_overtake_a_cold_one_and_replies_match_by_tag() {
    let fx = fixture();
    // One shard per tick: the first pass of session A walks every row
    // through the forests while session B, already warm, re-annotates one
    // lane.
    let svc = LiveService::new(
        Arc::clone(&fx.model),
        fx.service_store,
        &[&fx.alpha.0, &fx.beta.0],
        &fx.cfg,
        1,
    );
    let handle = rtl_timer::live::spawn("127.0.0.1:0", svc).expect("bind");
    let mut conn = std::net::TcpStream::connect(handle.addr).expect("connect");
    let (alpha, beta) = (fx.alpha.1.clone(), fx.beta.1.clone());
    let opened = exchange(
        &mut conn,
        &[
            Request::Open {
                design: "alpha".into(),
                source: alpha.clone(),
            },
            Request::Open {
                design: "beta".into(),
                source: beta.clone(),
            },
        ],
    );
    let [Response::Session { session: a, .. }, Response::Session { session: b, .. }] = opened[..]
    else {
        panic!("OPEN refused: {opened:?}");
    };
    let edit = |session: u64, from: &str, to: &str| Request::Edit {
        session,
        splices: diff_splices(from, to),
        check: source_check(to),
    };
    let alpha1 = alpha.replace("x + 8'd3", "x + (x << 1)");
    let beta1 = beta.replace("x + (x >> 2)", "x + (x >> 4)");
    let beta2 = beta.replace("x + (x >> 2)", "x | (x << 2)");

    // Session B goes warm: its first pass leaves a resident revision.
    let warmup = exchange(
        &mut conn,
        &[edit(b, &beta, &beta1), Request::Annotate { session: b }],
    );
    // Then, in one write, A's first pass and B's warm one.
    let replies = exchange(
        &mut conn,
        &[
            edit(a, &alpha, &alpha1),
            Request::Annotate { session: a },
            edit(b, &beta1, &beta2),
            Request::Annotate { session: b },
        ],
    );

    let twin_store = Store::in_memory();
    let mut twin_a = IncrementalAnnotator::new(&fx.alpha.0, &fx.cfg);
    let mut twin_b = IncrementalAnnotator::new(&fx.beta.0, &fx.cfg);
    let expect = [
        (
            &warmup[1],
            twin_b.reannotate(&beta1, &fx.model, &twin_store).unwrap(),
        ),
        (
            &replies[1],
            twin_a.reannotate(&alpha1, &fx.model, &twin_store).unwrap(),
        ),
        (
            &replies[3],
            twin_b.reannotate(&beta2, &fx.model, &twin_store).unwrap(),
        ),
    ];
    for (remote, local) in expect {
        let Response::Annotation(remote) = remote else {
            panic!("unexpected reply {remote:?}");
        };
        assert_eq!(remote.annotated, local.annotated, "same bytes, by tag");
        assert_eq!(remote.total_shards, local.total_shards);
    }
    handle.stop();
}

#[test]
fn bare_and_retired_requests_are_refused_on_a_live_connection() {
    let fx = fixture();
    let svc = LiveService::new(
        Arc::clone(&fx.model),
        fx.service_store,
        &[&fx.alpha.0],
        &fx.cfg,
        rtl_timer::live::DEFAULT_STEP_SHARDS,
    );
    let handle = rtl_timer::live::spawn("127.0.0.1:0", svc).expect("bind");
    let mut conn = std::net::TcpStream::connect(handle.addr).expect("connect");
    let open = Request::Open {
        design: "alpha".into(),
        source: String::new(),
    };

    // A bare request gets a bare `Failed`: there is no tag to echo.
    open.to_frame().write_to(&mut conn).expect("write");
    let answer = Frame::read_from(&mut conn).expect("answer");
    assert_eq!(answer.op, op::FAILED);

    // Retired opcodes and an unknown one, each in an envelope, get
    // `Failed` under their own tags; a real OPEN on the same connection is
    // still served.
    let mut bytes = Vec::new();
    for (tag, opcode) in [1u8, 2, 3, 5, 0x7E].into_iter().enumerate() {
        let inner = Frame {
            op: opcode,
            body: Vec::new(),
        };
        bytes.extend(tag_request(tag as u64, &inner).to_bytes());
    }
    bytes.extend(tag_request(5, &open.to_frame()).to_bytes());
    conn.write_all(&bytes).expect("write");
    let mut answers = Vec::new();
    for _ in 0..6 {
        let (tag, inner) = untag(&Frame::read_from(&mut conn).expect("answer")).expect("tagged");
        answers.push((tag, Response::from_frame(&inner).expect("decode")));
    }
    answers.sort_by_key(|(tag, _)| *tag);
    for (tag, resp) in &answers[..5] {
        assert!(matches!(resp, Response::Failed(_)), "tag {tag}: {resp:?}");
    }
    assert!(
        matches!(answers[5], (5, Response::Session { revision: 0, .. })),
        "OPEN served after the refusals: {:?}",
        answers[5]
    );
    handle.stop();
}

#[test]
fn killed_server_mid_session_degrades_to_identical_local_bytes() {
    let fx = fixture();
    let svc = LiveService::new(
        Arc::clone(&fx.model),
        fx.service_store,
        &[&fx.alpha.0],
        &fx.cfg,
        rtl_timer::live::DEFAULT_STEP_SHARDS,
    );
    let handle = rtl_timer::live::spawn("127.0.0.1:0", svc).expect("bind");
    let addr = handle.addr.to_string();

    let client_store = Store::in_memory();
    let mut live = LiveAnnotator::with_remote(&fx.alpha.0, &fx.cfg, &addr);
    let edit1 = fx.alpha.1.replace("x + 8'd3", "x + (x << 1)");
    let out1 = live
        .reannotate(&edit1, &fx.model, &client_store)
        .expect("first pass");
    assert!(out1.remote, "server up: first pass is remote");
    assert_eq!(
        client_store.stats().namespace("session").round_trips,
        out1.round_trips,
        "session turnarounds are charged to the store's session namespace"
    );

    // Kill the server mid-session, then keep editing: the loop degrades
    // to the local annotator with byte-identical output, diffing against
    // the last revision the designer saw (which the server produced).
    handle.stop();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let edit2 = fx.alpha.1.replace("x + 8'd3", "x + (x << 2)");
    let out2 = live
        .reannotate(&edit2, &fx.model, &client_store)
        .expect("degraded pass");
    assert!(!out2.remote, "server dead: pass degrades to local");

    // Twin that saw both revisions locally from the start.
    let twin_store = Store::in_memory();
    let mut twin = IncrementalAnnotator::new(&fx.alpha.0, &fx.cfg);
    let twin1 = twin.reannotate(&edit1, &fx.model, &twin_store).unwrap();
    let twin2 = twin.reannotate(&edit2, &fx.model, &twin_store).unwrap();
    assert_eq!(out1.annotated, twin1.annotated);
    assert_eq!(out2.annotated, twin2.annotated, "degrade is byte-identical");
    // The degraded diff base advanced with the remote passes: only the
    // re-edited module is dirty, not the whole design.
    assert_eq!(out2.dirty_modules, vec!["laneA".to_owned()]);
}

#[test]
fn version_skewed_store_peer_refuses_sessions_and_client_degrades() {
    let fx = fixture();
    // A plain artifact store on the other end: it answers OPEN with
    // `Failed` (a verb it does not serve), which must read as "annotate
    // locally", not as an error.
    let scratch =
        std::env::temp_dir().join(format!("rtlt-live-skew-{}-{}", std::process::id(), line!()));
    let server_addr = rtlt_store::server::spawn(
        "127.0.0.1:0",
        &rtlt_store::server::ServerConfig {
            dir: scratch.clone(),
            mem_budget: 16 << 20,
        },
    )
    .expect("spawn store");

    let client_store = Store::in_memory();
    let mut live = LiveAnnotator::with_remote(&fx.alpha.0, &fx.cfg, &server_addr.to_string());
    let edit = fx.alpha.1.replace("x + 8'd3", "x + (x << 1)");
    let out = live
        .reannotate(&edit, &fx.model, &client_store)
        .expect("degraded pass");
    assert!(!out.remote, "store peer refuses sessions");

    let twin_store = Store::in_memory();
    let mut twin = IncrementalAnnotator::new(&fx.alpha.0, &fx.cfg);
    let twin_out = twin.reannotate(&edit, &fx.model, &twin_store).unwrap();
    assert_eq!(out.annotated, twin_out.annotated);
    let _ = std::fs::remove_dir_all(scratch);
}

#[test]
fn a_hostile_edit_fails_its_session_while_another_keeps_editing() {
    let fx = fixture();
    let svc = LiveService::new(
        Arc::clone(&fx.model),
        fx.service_store,
        &[&fx.alpha.0, &fx.beta.0],
        &fx.cfg,
        rtl_timer::live::DEFAULT_STEP_SHARDS,
    );
    let handle = rtl_timer::live::spawn("127.0.0.1:0", svc).expect("bind");
    let addr = handle.addr.to_string();

    // Session beta keeps editing through the live client, byte-identical
    // to a local twin.
    let beta = || {
        let client_store = Store::in_memory();
        let twin_store = Store::in_memory();
        let mut live = LiveAnnotator::with_remote(&fx.beta.0, &fx.cfg, &addr);
        let mut twin = IncrementalAnnotator::new(&fx.beta.0, &fx.cfg);
        let mut remote_passes = 0;
        for body in ["x + (x >> 4)", "x | (x << 2)", "x ^ 8'd1"] {
            let edit = fx.beta.1.replace("x + (x >> 2)", body);
            let out = live
                .reannotate(&edit, &fx.model, &client_store)
                .expect("live pass");
            let local = twin.reannotate(&edit, &fx.model, &twin_store).unwrap();
            assert_eq!(out.annotated, local.annotated);
            remote_passes += u32::from(out.remote);
        }
        remote_passes
    };

    // Session alpha, on a raw connection, edits laneA into a 20,000-term
    // chain, which used to overflow the loop thread's stack in
    // elaboration and take every session down with it.
    let base = fx.alpha.1.clone();
    let hostile = base.replace("x + 8'd3", &vec!["x"; 20_000].join(" ^ "));
    let sound = base.replace("x + 8'd3", "x + (x << 1)");
    let beta_passes = std::thread::scope(|s| {
        let beta = s.spawn(beta);
        let mut conn = std::net::TcpStream::connect(handle.addr).expect("connect");
        let open = exchange(
            &mut conn,
            &[Request::Open {
                design: "alpha".into(),
                source: base.clone(),
            }],
        );
        let Response::Session { session, .. } = open[0] else {
            panic!("OPEN refused: {open:?}");
        };
        let edit = |from: &str, to: &str| Request::Edit {
            session,
            splices: diff_splices(from, to),
            check: source_check(to),
        };
        let annotate = Request::Annotate { session };
        let replies = exchange(&mut conn, &[edit(&base, &hostile), annotate.clone()]);
        assert!(
            matches!(replies[0], Response::Session { .. }),
            "{replies:?}"
        );
        // The reply names the line of laneA's `always` statement.
        match &replies[1] {
            Response::Failed(msg) => assert!(msg.contains("line 3: nesting deeper than"), "{msg}"),
            other => panic!("hostile source annotated: {other:?}"),
        }
        // The failed session itself recovers with a sound edit.
        let replies = exchange(&mut conn, &[edit(&hostile, &sound), annotate]);
        let Response::Annotation(remote) = &replies[1] else {
            panic!("sound edit refused: {replies:?}");
        };
        let local = IncrementalAnnotator::new(&fx.alpha.0, &fx.cfg)
            .reannotate(&sound, &fx.model, &Store::in_memory())
            .unwrap();
        assert_eq!(remote.annotated, local.annotated);
        beta.join().expect("beta session")
    });
    assert_eq!(beta_passes, 3, "every beta pass served remotely");
    handle.stop();
}
