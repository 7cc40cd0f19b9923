//! Seeded round-trip fuzz for the wire format, framing layer included.
//!
//! Three layers, each `parse ∘ display = id`:
//!
//! 1. **Payload syntax** — type-directed random expressions
//!    ([`nra_core::generate`], well-typed by construction, powerset and
//!    `while` included) and structurally random values must survive
//!    `parse_expr(format!("{e}"))` / `parse_value(format!("{v}"))`
//!    exactly. This is the property the frame grammar leans on: the
//!    concrete syntax contains neither `;` nor newlines.
//! 2. **Frame grammar** — random requests and responses (free-text
//!    reasons salted with `;`, the field separator) must survive
//!    `decode(encode(x))` exactly.
//! 3. **Framing/transport** — whole batches of encoded frames,
//!    concatenated and re-chunked at *random byte boundaries* (chunks
//!    spanning frame ends, splitting UTF-8-safe ASCII frames anywhere),
//!    must reassemble into exactly the original frame sequence on the
//!    receiving [`LineReceiver`].
//!
//! Plus the totality regression for nesting: a frame nested past
//! [`MAX_NESTING`] gets one `failed` response instead of overflowing the
//! serving thread's stack, frames at the bound are served, and a result
//! too deep for a client's parser is answered `failed`, not `ok`. An
//! undecodable frame is answered `failed` under the id the decoder reads.

use nra_core::generate::{random_expr, GenConfig, Rng as GenRng};
use nra_core::parser::{parse_expr, parse_value, MAX_NESTING};
use nra_core::types::Type;
use nra_core::Value;
use nra_serve::{
    decode_frame, decode_response, encode_request, encode_response, socketpair, spawn, Frame,
    Outcome, Request, Response, ServeConfig,
};
use nra_testkit::{check, Rng};

/// Random well-typed expression over a random relational-ish domain.
fn fuzz_expr(rng: &mut Rng) -> nra_core::Expr {
    let edge = Type::prod(Type::Nat, Type::Nat);
    let dom = match rng.below(4) {
        0 => Type::set(edge.clone()),
        1 => Type::set(Type::Nat),
        2 => Type::prod(Type::set(edge.clone()), Type::set(edge)),
        _ => Type::Nat,
    };
    let cfg = GenConfig {
        max_depth: 4,
        allow_while: rng.bool(),
        ..GenConfig::default()
    };
    random_expr(&dom, &cfg, &mut GenRng::new(rng.next_u64()))
}

/// Random structurally-valid value (not necessarily well-typed for any
/// query — the wire does not care).
fn fuzz_value(rng: &mut Rng, depth: u64) -> Value {
    match if depth == 0 {
        rng.below(3)
    } else {
        rng.below(5)
    } {
        0 => Value::nat(rng.below(100)),
        1 => Value::Bool(rng.bool()),
        2 => Value::Unit,
        3 => Value::pair(fuzz_value(rng, depth - 1), fuzz_value(rng, depth - 1)),
        _ => Value::set((0..rng.below(4)).map(|_| fuzz_value(rng, depth - 1))),
    }
}

#[test]
fn payload_syntax_round_trips() {
    check("wire_payload_round_trip", 200, |seed, rng| {
        let e = fuzz_expr(rng);
        let rendered = format!("{e}");
        assert!(
            !rendered.contains(';') && !rendered.contains('\n'),
            "seed {seed}: expr syntax leaked a frame separator: {rendered}"
        );
        assert_eq!(
            parse_expr(&rendered).expect("generated exprs reparse"),
            e,
            "seed {seed}"
        );

        let v = fuzz_value(rng, 3);
        let rendered = format!("{v}");
        assert!(
            !rendered.contains(';') && !rendered.contains('\n'),
            "seed {seed}: value syntax leaked a frame separator: {rendered}"
        );
        assert_eq!(
            parse_value(&rendered).expect("generated values reparse"),
            v,
            "seed {seed}"
        );
    });
}

#[test]
fn frames_round_trip() {
    check("wire_frame_round_trip", 120, |seed, rng| {
        let request = Request {
            tenant: format!("tenant-{}", rng.below(10)),
            id: rng.next_u64(),
            query: fuzz_expr(rng),
            input: fuzz_value(rng, 3),
        };
        let line = encode_request(&request).expect("encodable");
        assert_eq!(
            decode_frame(&line).expect("decodable"),
            Frame::Request(request),
            "seed {seed}"
        );

        // free-text fields get the separator salted in on purpose
        let salt = [
            "plain",
            "with;semi",
            "a;b;c;",
            ";leading",
            "2^24 units; Theorem 4.1",
        ];
        let outcome = match rng.below(3) {
            0 => Outcome::Ok {
                declared_budget: rng.next_u64(),
                value: fuzz_value(rng, 3),
            },
            1 => Outcome::Rejected {
                reason: salt[rng.usize_below(salt.len())].to_string(),
            },
            _ => Outcome::Failed {
                detail: salt[rng.usize_below(salt.len())].to_string(),
            },
        };
        let response = Response {
            tenant: format!("t{}", rng.below(10)),
            id: rng.next_u64(),
            outcome,
        };
        let line = encode_response(&response).expect("encodable");
        assert_eq!(
            decode_response(&line).expect("decodable"),
            response,
            "seed {seed}"
        );
    });
}

#[test]
fn framing_survives_random_chunk_boundaries() {
    check("wire_framing_fuzz", 60, |seed, rng| {
        // a batch of frames, concatenated to one byte stream
        let requests: Vec<Request> = (0..rng.range_u64(1, 12))
            .map(|i| Request {
                tenant: format!("t{}", rng.below(4)),
                id: i,
                query: fuzz_expr(rng),
                input: fuzz_value(rng, 2),
            })
            .collect();
        let mut stream = Vec::new();
        for request in &requests {
            stream.extend_from_slice(encode_request(request).unwrap().as_bytes());
            stream.push(b'\n');
        }

        // re-chunk at random boundaries and push through the transport
        let (client, mut server) = socketpair();
        let mut rest: &[u8] = &stream;
        while !rest.is_empty() {
            let cut = (rng.usize_below(rest.len()) + 1).min(rest.len());
            let (chunk, tail) = rest.split_at(cut);
            client.tx.send_bytes(chunk.to_vec()).unwrap();
            rest = tail;
        }
        drop(client);

        // the receiver must reassemble exactly the original sequence
        let mut decoded = Vec::new();
        while let Some(line) = server.rx.recv_line() {
            match decode_frame(&line).expect("reassembled frames decode") {
                Frame::Request(r) => decoded.push(r),
                Frame::Shutdown => panic!("seed {seed}: phantom shutdown frame"),
            }
        }
        assert_eq!(decoded, requests, "seed {seed}");
    });
}

/// `levels` productions deep: `levels - 1` wrappers around a leaf.
fn nest(open: &str, leaf: &str, close: &str, levels: usize) -> String {
    format!(
        "{}{leaf}{}",
        open.repeat(levels - 1),
        close.repeat(levels - 1)
    )
}

#[test]
fn overly_nested_frames_fail_and_the_server_keeps_serving() {
    let (mut client, handle) = spawn(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let next = |client: &mut nra_serve::Client| {
        client
            .recv()
            .expect("server alive")
            .expect("response decodes")
    };
    let singleton = Value::set([Value::nat(1)]);
    // past the bound: exactly one `failed` response per frame — the
    // follow-up frame's answer is the very next response
    for (id, levels) in [(1u64, 10_000usize), (3, 100_000)] {
        let frame = format!("t;{id};id;{}", nest("{", "1", "}", levels));
        client.tx.send_line(&frame).unwrap();
        let resp = next(&mut client);
        assert_eq!(resp.id, id);
        assert!(
            matches!(&resp.outcome, Outcome::Failed { detail } if detail.contains("nesting")),
            "{levels} levels: {resp:?}"
        );
        client
            .tx
            .send_line(&format!("t;{};id;{{1}}", id + 1))
            .unwrap();
        let resp = next(&mut client);
        assert_eq!(resp.id, id + 1);
        assert!(
            matches!(&resp.outcome, Outcome::Ok { value, .. } if *value == singleton),
            "{resp:?}"
        );
    }
    // at the bound: a value frame and an expression frame are both served
    let deep_value = nest("{", "1", "}", MAX_NESTING);
    client
        .tx
        .send_line(&format!("t;5;id;{deep_value}"))
        .unwrap();
    let resp = next(&mut client);
    assert_eq!(resp.id, 5);
    match &resp.outcome {
        Outcome::Ok { value, .. } => assert_eq!(value, &parse_value(&deep_value).unwrap()),
        other => panic!("value at the bound: {other:?}"),
    }
    // one level past the bound on the way out: `sng` wraps the
    // at-bound value, and the result would be an `ok` frame no client
    // can decode — it is answered `failed` instead, naming the bound
    client
        .tx
        .send_line(&format!("t;6;sng;{deep_value}"))
        .unwrap();
    let resp = next(&mut client);
    assert_eq!(resp.id, 6);
    assert!(
        matches!(&resp.outcome, Outcome::Failed { detail } if detail.contains("MAX_NESTING")),
        "result past the bound: {resp:?}"
    );
    let deep_expr = nest("compose(id,", "id", ")", MAX_NESTING);
    client
        .tx
        .send_line(&format!("t;7;{deep_expr};{{1}}"))
        .unwrap();
    let resp = next(&mut client);
    assert_eq!(resp.id, 7);
    assert!(
        matches!(&resp.outcome, Outcome::Ok { value, .. } if *value == singleton),
        "expression at the bound: {resp:?}"
    );
    client.shutdown().unwrap();
    let report = handle.join().expect("server thread survives");
    assert_eq!(report.decode_errors, 2);
}

/// An undecodable frame is answered `failed` under the id the decoder
/// reads: the salvage trims the id field exactly as `decode_frame` does,
/// so ` 7` correlates as 7, not 0.
#[test]
fn undecodable_frames_are_answered_under_their_id() {
    let (mut client, handle) = spawn(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    client
        .tx
        .send_line("acme; 7;this is not a query;{}")
        .unwrap();
    let resp = client
        .recv()
        .expect("server alive")
        .expect("response decodes");
    assert_eq!((resp.tenant.as_str(), resp.id), ("acme", 7), "{resp:?}");
    assert!(
        matches!(&resp.outcome, Outcome::Failed { detail } if detail.starts_with("wire:")),
        "{resp:?}"
    );
    client.shutdown().unwrap();
    let report = handle.join().expect("server thread survives");
    assert_eq!(report.decode_errors, 1);
}
