//! End-to-end round trip through the serve layer: a real TCP server on
//! an ephemeral port, mixed-kernel traffic from several client
//! threads, and bit-identity of served reports against direct library
//! calls.
//!
//! The bit-identity check is the serve layer's core correctness claim:
//! a report computed through the shape-keyed tape cache (replaying a
//! trace some *other* request recorded) must serialize byte-for-byte
//! like one computed by a fresh in-process [`Analysis`] run.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use scorpio::analysis::Analysis;
use scorpio::kernels::maclaurin::Series;
use scorpio::kernels::Kernel;
use scorpio::obs::json::{self, Value};
use scorpio::serve::kernels::{KernelRequest, MAX_ITEMS};
use scorpio::serve::server::MAX_LINE_BYTES;
use scorpio::serve::{Client, Server, ServerConfig, ServerSummary};

/// One analyze line per kernel, covering every structural-parameter
/// field the protocol knows, plus a 13-option full-detail batch: after
/// its first block of 4 (a warm-up when the cache is cold) it fills two
/// more full lane blocks and leaves a one-item remainder.
const REQUEST_LINES: [&str; 6] = [
    r#"{"kernel":"fisheye","width":48,"height":32,"detail":"full","items":[{"u":3.5,"v":7.25},{"u":40.0,"v":21.5},{"u":11.0,"v":30.0}]}"#,
    r#"{"kernel":"blackscholes","detail":"full","items":[{"spot":100.0,"strike":95.0,"rate":0.03,"volatility":0.25,"time":1.0},{"spot":87.5,"strike":110.0,"rate":0.01,"volatility":0.4,"time":0.5}]}"#,
    r#"{"kernel":"maclaurin","n":9,"detail":"full","items":[0.12,0.31,-0.27,0.44,0.05]}"#,
    r#"{"kernel":"nbody","detail":"full","items":[{"r0":1.1,"radius":0.05},{"r0":1.9,"radius":0.02},{"r0":0.95,"radius":0.08}]}"#,
    // Eight DCT blocks in full detail: the first block of 4 records and
    // replays item by item, the second is one lane block over the warm
    // trace, so every node's derivative (the 8,450 constants' included)
    // of both paths is compared with direct library calls.
    r#"{"kernel":"blackscholes","detail":"full","items":[{"spot":80.0,"strike":100.0,"rate":0.01,"volatility":0.15,"time":0.25},{"spot":83.5,"strike":97.5,"rate":0.0125,"volatility":0.175,"time":0.5},{"spot":87.0,"strike":105.0,"rate":0.015,"volatility":0.2,"time":0.75},{"spot":90.5,"strike":92.5,"rate":0.0175,"volatility":0.225,"time":1.0},{"spot":94.0,"strike":110.0,"rate":0.01,"volatility":0.25,"time":0.25},{"spot":97.5,"strike":100.0,"rate":0.0125,"volatility":0.275,"time":0.5},{"spot":101.0,"strike":102.5,"rate":0.015,"volatility":0.15,"time":0.75},{"spot":104.5,"strike":95.0,"rate":0.0175,"volatility":0.175,"time":1.0},{"spot":108.0,"strike":107.5,"rate":0.01,"volatility":0.2,"time":0.25},{"spot":111.5,"strike":90.0,"rate":0.0125,"volatility":0.225,"time":0.5},{"spot":115.0,"strike":100.0,"rate":0.015,"volatility":0.25,"time":0.75},{"spot":118.5,"strike":97.5,"rate":0.0175,"volatility":0.275,"time":1.0},{"spot":122.0,"strike":105.0,"rate":0.01,"volatility":0.15,"time":0.25}]}"#,
    r#"{"kernel":"dct","radius":2.0,"detail":"full","items":[[10,20,30,40,50,60,70,80,15,25,35,45,55,65,75,85,12,22,32,42,52,62,72,82,17,27,37,47,57,67,77,87,11,21,31,41,51,61,71,81,16,26,36,46,56,66,76,86,13,23,33,43,53,63,73,83,18,28,38,48,58,68,78,88],[17,27,37,47,57,67,77,87,22,32,42,52,62,72,82,92,19,29,39,49,59,69,79,89,24,34,44,54,64,74,84,94,18,28,38,48,58,68,78,88,23,33,43,53,63,73,83,93,20,30,40,50,60,70,80,90,25,35,45,55,65,75,85,95],[24,34,44,54,64,74,84,94,29,39,49,59,69,79,89,99,26,36,46,56,66,76,86,96,31,41,51,61,71,81,91,101,25,35,45,55,65,75,85,95,30,40,50,60,70,80,90,100,27,37,47,57,67,77,87,97,32,42,52,62,72,82,92,102],[31,41,51,61,71,81,91,101,36,46,56,66,76,86,96,106,33,43,53,63,73,83,93,103,38,48,58,68,78,88,98,108,32,42,52,62,72,82,92,102,37,47,57,67,77,87,97,107,34,44,54,64,74,84,94,104,39,49,59,69,79,89,99,109],[38,48,58,68,78,88,98,108,43,53,63,73,83,93,103,113,40,50,60,70,80,90,100,110,45,55,65,75,85,95,105,115,39,49,59,69,79,89,99,109,44,54,64,74,84,94,104,114,41,51,61,71,81,91,101,111,46,56,66,76,86,96,106,116],[45,55,65,75,85,95,105,115,50,60,70,80,90,100,110,120,47,57,67,77,87,97,107,117,52,62,72,82,92,102,112,122,46,56,66,76,86,96,106,116,51,61,71,81,91,101,111,121,48,58,68,78,88,98,108,118,53,63,73,83,93,103,113,123],[52,62,72,82,92,102,112,122,57,67,77,87,97,107,117,127,54,64,74,84,94,104,114,124,59,69,79,89,99,109,119,129,53,63,73,83,93,103,113,123,58,68,78,88,98,108,118,128,55,65,75,85,95,105,115,125,60,70,80,90,100,110,120,130],[59,69,79,89,99,109,119,129,64,74,84,94,104,114,124,134,61,71,81,91,101,111,121,131,66,76,86,96,106,116,126,136,60,70,80,90,100,110,120,130,65,75,85,95,105,115,125,135,62,72,82,92,102,112,122,132,67,77,87,97,107,117,127,137]]}"#,
];

fn spawn_server(
    workers: usize,
) -> (
    String,
    thread::JoinHandle<std::io::Result<ServerSummary>>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache_capacity: 16,
        manifest: None,
        out_dir: std::env::temp_dir(),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral server");
    let addr = server.local_addr().expect("local_addr").to_string();
    (addr, thread::spawn(move || server.run()))
}

fn assert_ok(reply: &Value) {
    assert_eq!(
        reply.get("ok"),
        Some(&Value::Bool(true)),
        "error reply: {:?}",
        reply.get("error")
    );
}

/// The reports a direct, replay-free library caller would produce for
/// `line`, parsed back through the same JSON writer the server uses.
fn direct_report_values(line: &str) -> Vec<Value> {
    KernelRequest::from_value(&json::parse(line).unwrap())
        .unwrap()
        .direct_reports()
        .expect("direct analysis")
        .iter()
        .map(|r| json::parse(&json::to_string(&r.to_record())).unwrap())
        .collect()
}

#[test]
fn served_reports_are_bit_identical_to_direct_library_calls() {
    let (addr, server) = spawn_server(2);
    let mut client = Client::connect(&addr).expect("connect");
    let lane_blocks = |client: &mut Client| {
        client
            .stats()
            .expect("stats")
            .get("replay")
            .and_then(|r| r.get("lane_blocks"))
            .and_then(Value::as_f64)
            .expect("replay.lane_blocks")
    };
    for line in REQUEST_LINES {
        let blocks_before = lane_blocks(&mut client);
        let reply = client.request(line).expect("request");
        assert_ok(&reply);
        if line.contains(r#""kernel":"dct""#) {
            let replayed = lane_blocks(&mut client) - blocks_before;
            assert!(replayed >= 1.0, "the DCT batch must replay a lane block");
        }
        let served = reply.get("reports").and_then(Value::as_arr).expect("reports");
        let direct = direct_report_values(line);
        assert_eq!(served.len(), direct.len());
        // Value equality is bit-exact for numbers: the json writer
        // round-trips every f64 and both sides use it.
        for (s, d) in served.iter().zip(&direct) {
            assert_eq!(s, d, "served report diverged from direct library call");
        }
        let tasks = reply.get("tasks").and_then(Value::as_arr).expect("tasks");
        assert_eq!(tasks.len(), direct.len(), "one task row per item");
    }
    // The 13-option batch and the DCT batch are served in full detail
    // by lane blocks.
    let lane_blocks = lane_blocks(&mut client);
    assert!(lane_blocks >= 3.0, "full detail must replay lane blocks: {lane_blocks}");
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn second_wave_hits_the_cache_and_replays_identically() {
    let (addr, server) = spawn_server(2);

    // Wave 1 (cold) and wave 2 (warm) send the *same* mixed traffic
    // from several client threads; every per-line response pair must
    // carry identical reports even though wave 2 is served by cached
    // traces possibly recorded on a different worker.
    let wave = || -> Vec<Value> {
        thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|c| {
                    let addr = &addr;
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        // Stagger which kernel each thread starts on so
                        // the waves genuinely interleave kernels.
                        (0..REQUEST_LINES.len())
                            .map(|i| {
                                let line = REQUEST_LINES[(c + i) % REQUEST_LINES.len()];
                                let reply = client.request(line).expect("request");
                                assert_ok(&reply);
                                (
                                    (c + i) % REQUEST_LINES.len(),
                                    reply.get("reports").expect("reports").clone(),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut by_line: Vec<Value> = vec![Value::Null; REQUEST_LINES.len()];
            for handle in handles {
                for (i, reports) in handle.join().expect("client thread") {
                    if by_line[i] == Value::Null {
                        by_line[i] = reports.clone();
                    }
                    // Threads within a wave must agree, too.
                    assert_eq!(by_line[i], reports, "divergent reports within a wave");
                }
            }
            by_line
        })
    };
    let first = wave();
    let mut control = Client::connect(&addr).expect("connect control");
    let after_first = control.stats().expect("stats");
    let second = wave();
    let after_second = control.stats().expect("stats");

    assert_eq!(first, second, "warm wave diverged from cold wave");

    let hits = |v: &Value| {
        v.get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Value::as_f64)
            .expect("cache.hits")
    };
    let misses = |v: &Value| {
        v.get("cache")
            .and_then(|c| c.get("misses"))
            .and_then(Value::as_f64)
            .expect("cache.misses")
    };
    assert!(misses(&after_first) >= 5.0, "cold wave must miss per shape");
    assert!(
        hits(&after_second) > hits(&after_first),
        "second same-shape wave produced no cache hits"
    );
    assert_eq!(
        misses(&after_second),
        misses(&after_first),
        "second wave re-recorded despite the cache"
    );

    control.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn malformed_and_unknown_requests_get_error_replies_without_killing_the_server() {
    let (addr, server) = spawn_server(1);
    let mut client = Client::connect(&addr).expect("connect");

    // 200,000 nested `[`: the parser must refuse it by depth instead of
    // recursing until the daemon's stack overflows.
    let deep = "[".repeat(200_000);
    let too_many = format!(
        r#"{{"kernel":"maclaurin","n":4,"items":[{}]}}"#,
        vec!["0.2"; MAX_ITEMS + 1].join(",")
    );
    let probes = [
        ("{not json at all", "expected"),
        (deep.as_str(), "nesting"),
        (r#"{"kernel":"warp","items":[1]}"#, "unknown kernel"),
        (r#"{"kernel":"maclaurin","n":4,"items":[]}"#, "empty"),
        (r#"{"kernel":"maclaurin","n":4,"ratio":1.5,"items":[0.2]}"#, "ratio"),
        (r#"{"kernel":"dct","items":[[1,2,3]]}"#, "64"),
        (too_many.as_str(), "4096"),
    ];
    for (line, needle) in probes {
        let reply = client.request(line).expect("error reply still arrives");
        assert_eq!(reply.get("ok"), Some(&Value::Bool(false)), "{line}");
        let error = reply.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(error.contains(needle), "{needle}: {error}");
    }

    // The same connection and a fresh one must still be served.
    let reply = client
        .request(r#"{"kernel":"maclaurin","n":4,"items":[0.2]}"#)
        .expect("request after errors");
    assert_ok(&reply);
    let mut fresh = Client::connect(&addr).expect("fresh connect");
    let reply = fresh
        .request(r#"{"kernel":"nbody","items":[{"r0":1.2,"radius":0.03}]}"#)
        .expect("fresh request");
    assert_ok(&reply);

    let stats = fresh.stats().expect("stats");
    assert!(
        stats.get("errors").and_then(Value::as_f64).expect("errors") >= probes.len() as f64,
        "error counter must record the probes"
    );

    fresh.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

/// A negative radius is refused while parsing, naming the field, so no
/// worker ever sees it: a burst of such lines, one more than there are
/// workers, leaves the pool whole and the next valid request is
/// answered.
#[test]
fn negative_radius_requests_are_refused_without_losing_a_worker() {
    let workers = 2;
    let (addr, server) = spawn_server(workers);
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..=workers {
        let reply = client
            .request(r#"{"kernel":"nbody","items":[{"r0":1.2,"radius":-0.03}]}"#)
            .expect("error reply");
        assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
        let error = reply.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(error.contains("\"radius\""), "{error}");
    }
    // Asked from a thread: a daemon without workers would never answer.
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let reply = client.request(r#"{"kernel":"nbody","items":[{"r0":1.2,"radius":0.03}]}"#);
        tx.send(reply.map(|reply| (reply, client))).ok();
    });
    let (reply, mut client) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the valid request is answered")
        .expect("reply");
    assert_ok(&reply);
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn over_long_line_gets_an_error_reply_and_the_connection_keeps_serving() {
    let (addr, server) = spawn_server(1);
    let mut client = Client::connect(&addr).expect("connect");

    // A line of exactly the bound is still read and parsed.
    let stats = r#"{"id":7,"cmd":"stats"}"#;
    let at_bound = stats.to_owned() + &" ".repeat(MAX_LINE_BYTES - stats.len());
    let reply = client.request(&at_bound).expect("reply at the bound");
    assert_ok(&reply);
    assert_eq!(reply.get("id").and_then(Value::as_f64), Some(7.0));

    let over = "x".repeat(MAX_LINE_BYTES + 1);
    let reply = client.request(&over).expect("error reply to an over-long line");
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
    let error = reply.get("error").and_then(Value::as_str).expect("error text");
    assert!(error.contains("longer than"), "{error}");

    // The rest of the over-long line was discarded: the next line on the
    // same connection is answered on its own.
    let stats = client.stats().expect("stats after the over-long line");
    assert!(stats.get("errors").and_then(Value::as_f64).expect("errors") >= 1.0);

    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

/// The served `vars` detail (the cheap default) must agree with the
/// full reports on the values it does carry.
#[test]
fn vars_detail_matches_full_detail_values() {
    let (addr, server) = spawn_server(1);
    let mut client = Client::connect(&addr).expect("connect");

    let vars_line = r#"{"kernel":"maclaurin","n":9,"detail":"vars","items":[0.12,0.31,-0.27]}"#;
    let full_line = r#"{"kernel":"maclaurin","n":9,"detail":"full","items":[0.12,0.31,-0.27]}"#;
    let vars = client.request(vars_line).expect("vars request");
    let full = client.request(full_line).expect("full request");
    assert_ok(&vars);
    assert_ok(&full);
    let vars = vars.get("reports").and_then(Value::as_arr).unwrap();
    let full = full.get("reports").and_then(Value::as_arr).unwrap();
    assert_eq!(vars.len(), full.len());
    for (v, f) in vars.iter().zip(full) {
        assert_eq!(v.get("output_significance_raw"), f.get("output_significance_raw"));
        assert_eq!(v.get("vars"), f.get("vars"));
        // Only the node-level graph is elided in vars detail.
        assert_eq!(v.get("nodes").and_then(Value::as_arr).map(<[Value]>::len), Some(0));
        assert_ne!(f.get("nodes").and_then(Value::as_arr).map(<[Value]>::len), Some(0));
    }

    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

// A direct-library sanity anchor: the serve layer's `direct_reports`
// helper really is a fresh-Analysis run (no replay machinery), so the
// bit-identity assertions above compare against the right baseline.
#[test]
fn direct_reports_match_a_handwritten_analysis_run() {
    let line = r#"{"kernel":"maclaurin","n":6,"items":[0.2]}"#;
    let request = KernelRequest::from_value(&json::parse(line).unwrap()).unwrap();
    let from_helper = &request.direct_reports().unwrap()[0];
    let by_hand = Analysis::new()
        .run(|ctx: &scorpio::analysis::Ctx<'_>| Series { n: 6 }.register(ctx, &0.2))
        .unwrap();
    assert_eq!(
        json::to_string(&from_helper.to_record()),
        json::to_string(&by_hand.to_record())
    );
}
