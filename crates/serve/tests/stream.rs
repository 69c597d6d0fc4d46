//! Loopback tests for the live observability plane: `POST
//! /recover/stream` NDJSON framing (a meta record, ordered progress
//! records, a final result bitwise-equal to the plain `/recover`
//! payload), mid-stream disconnect cancelling the job without cooling
//! the resident model, the `/debug/stats` snapshot, and the
//! `?request_id=` trace filter.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rebert::json::Json;
use rebert::{ReBertConfig, ReBertModel};
use rebert_circuits::{generate, GeneratedCircuit, Profile};
use rebert_netlist::write_bench;
use rebert_registry::{ModelRegistry, RegistryConfig, DEFAULT_MODEL};
use rebert_serve::{
    http_request, serve_registry, submit, submit_stream, ServeConfig, Server, SubmitOptions,
};

/// Options that pin the `.bench` parser, the shape most tests submit.
fn bench_opts() -> SubmitOptions {
    SubmitOptions {
        format: Some("bench".into()),
        ..SubmitOptions::default()
    }
}

/// Drops the stats fields that measure wall-clock time (and therefore
/// legitimately differ between two runs of the same recovery). Every
/// remaining byte must match between a streamed and a plain reply.
fn strip_timings(json: &mut Json) {
    const VOLATILE: [&str; 6] = [
        "tokenize_us",
        "filter_us",
        "score_us",
        "group_us",
        "elapsed_us",
        "pairs_per_sec",
    ];
    if let Json::Obj(fields) = json {
        for (key, value) in fields.iter_mut() {
            if key == "stats" {
                if let Json::Obj(stats) = value {
                    stats.retain(|(k, _)| !VOLATILE.contains(&k.as_str()));
                }
            }
        }
    }
}

fn boot(model: ReBertModel, threads: usize, queue: usize, deadline: Option<Duration>) -> Server {
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        threads,
        ..RegistryConfig::default()
    }));
    registry.install(DEFAULT_MODEL, model);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let config = ServeConfig {
        queue_capacity: queue,
        default_deadline: deadline,
        ..ServeConfig::default()
    };
    serve_registry(registry, listener, config).expect("serve")
}

fn tiny_model(seed: u64) -> ReBertModel {
    ReBertModel::new(ReBertConfig::tiny(), seed)
}

/// A model + circuit pair heavy enough that one recovery runs long
/// enough (hundreds of model calls, no Jaccard filtering) to observe a
/// mid-stream disconnect from the outside.
fn heavy_setup() -> (ReBertModel, GeneratedCircuit) {
    let mut cfg = ReBertConfig::small();
    cfg.jaccard_threshold = 0.0;
    let model = ReBertModel::new(cfg, 3);
    let circuit = generate(&Profile::new("load", 600, 48, 6), 21);
    (model, circuit)
}

fn json_field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key)
        .unwrap_or_else(|| panic!("missing field `{key}`"))
}

#[test]
fn stream_final_record_is_bitwise_equal_to_plain_recover() {
    let c = generate(&Profile::new("demo", 160, 16, 4), 9);
    let bench = write_bench(&c.netlist);
    let server = boot(tiny_model(13), 2, 8, None);
    let addr = server.addr();

    // Both requests opt out of the score cache so the deterministic
    // stats (hit/miss counts) agree regardless of submission order.
    let mut opts = bench_opts();
    opts.use_cache = false;
    let plain = submit(addr, &bench, &opts).expect("plain submit");
    assert_eq!(plain.status, 200, "{}", plain.body_text());

    opts.request_id = Some("stream-test-1".to_owned());
    let mut records: Vec<Json> = Vec::new();
    let streamed = submit_stream(addr, &bench, &opts, |line| {
        records.push(Json::parse(line).expect("stream record json"));
    })
    .expect("streamed submit");
    assert_eq!(streamed.status, 200);
    assert_eq!(
        streamed.header("X-Rebert-Request-Id"),
        Some("stream-test-1"),
        "client id echoed on the streaming head"
    );

    // The final record (the reply body) is the plain payload, byte for
    // byte, once the wall-clock timing fields (which differ between any
    // two runs) are set aside — streaming must not perturb the result.
    let mut stream_json = Json::parse(&streamed.body_text()).expect("stream final json");
    let mut plain_json = Json::parse(&plain.body_text()).expect("plain json");
    strip_timings(&mut stream_json);
    strip_timings(&mut plain_json);
    assert_eq!(
        stream_json.to_string(),
        plain_json.to_string(),
        "streamed final record differs from POST /recover"
    );

    // First interim record is the meta line carrying the request id.
    let meta = records.first().expect("at least the meta record");
    assert_eq!(json_field(meta, "type").as_str(), Some("meta"));
    assert_eq!(
        json_field(meta, "request_id").as_str(),
        Some("stream-test-1")
    );
    assert_eq!(json_field(meta, "bits").as_usize(), Some(16));

    // Live progress: several per-phase records, timestamps never going
    // backwards. (Exact counts depend on scorer batching, so the bar is
    // a floor, not an equality.)
    let progress: Vec<&Json> = records
        .iter()
        .filter(|r| r.get("type").and_then(Json::as_str) == Some("progress"))
        .collect();
    assert!(
        progress.len() >= 3,
        "want >=3 progress records, got {}: {records:?}",
        progress.len()
    );
    let ts: Vec<u64> = progress
        .iter()
        .filter_map(|r| r.get("ts_us").and_then(Json::as_u64))
        .collect();
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "progress timestamps must be non-decreasing: {ts:?}"
    );
    let phases: Vec<&str> = progress
        .iter()
        .filter_map(|r| r.get("phase").and_then(Json::as_str))
        .collect();
    for phase in ["tokenize", "filter", "score", "group"] {
        assert!(
            phases.contains(&phase),
            "no progress for `{phase}`: {phases:?}"
        );
    }

    server.shutdown();
}

#[test]
fn mid_stream_disconnect_cancels_the_job_and_keeps_the_session_warm() {
    let (model, circuit) = heavy_setup();
    let bench = write_bench(&circuit.netlist);
    let server = boot(model, 1, 4, None);
    let addr = server.addr();

    // Hand-rolled streaming request so we can hang up mid-recovery.
    {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).unwrap();
        let head = format!(
            "POST /recover/stream HTTP/1.1\r\nHost: rebert\r\nX-Rebert-Format: bench\r\nContent-Length: {}\r\n\r\n",
            bench.len()
        );
        conn.write_all(head.as_bytes()).unwrap();
        conn.write_all(bench.as_bytes()).unwrap();
        conn.flush().unwrap();
        // Wait until the stream is live (the status line arrives once
        // the job is queued), then disconnect without reading the rest.
        let mut probe = [0u8; 32];
        let n = conn.read(&mut probe).expect("read stream head");
        assert!(n > 0, "stream head should arrive before we hang up");
        assert!(probe.starts_with(b"HTTP/1.1 200"));
    } // <- connection dropped here, mid-recovery

    // The connection thread notices the hang-up, cancels through the
    // shared token, and counts the outcome. Poll /metrics for it — the
    // heavy recovery would otherwise run for much longer.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let metrics = http_request(addr, "GET", "/metrics", &[], b"").expect("metrics");
        if metrics
            .body_text()
            .contains("rebert_requests_total{endpoint=\"stream\",outcome=\"cancelled\"}")
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never recorded the cancelled stream:\n{}",
            metrics.body_text()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The model survived the cancellation: a small follow-up request
    // on the same daemon completes normally.
    let small = generate(&Profile::new("after", 120, 12, 3), 5);
    let reply =
        submit(addr, &write_bench(&small.netlist), &bench_opts()).expect("follow-up submit");
    assert_eq!(reply.status, 200, "{}", reply.body_text());
    server.shutdown();
}

#[test]
fn debug_stats_snapshot_has_queue_cache_and_quantiles() {
    let c = generate(&Profile::new("stats", 120, 12, 3), 7);
    let bench = write_bench(&c.netlist);
    let server = boot(tiny_model(5), 1, 4, None);
    let addr = server.addr();
    let reply = submit(addr, &bench, &bench_opts()).expect("submit");
    assert_eq!(reply.status, 200);

    let stats = http_request(addr, "GET", "/debug/stats", &[], b"").expect("stats");
    assert_eq!(stats.status, 200);
    let json = Json::parse(&stats.body_text()).expect("stats json");
    assert_eq!(json_field(&json, "queue_capacity").as_usize(), Some(4));
    assert!(json_field(&json, "queue_depth").as_u64().is_some());
    assert!(json_field(&json, "cache_hits_total").as_u64().is_some());
    assert!(json_field(&json, "cache_misses_total").as_u64().unwrap() >= 1);
    let phases = json_field(&json, "phase_seconds").as_array().unwrap();
    assert_eq!(phases.len(), 5, "one series per phase");
    for p in phases {
        assert_eq!(json_field(p, "count").as_u64(), Some(1), "one recovery");
        assert!(json_field(p, "p50").as_f64().unwrap() <= json_field(p, "p99").as_f64().unwrap());
    }
    let endpoints = json_field(&json, "request_duration_seconds")
        .as_array()
        .unwrap();
    assert!(
        endpoints
            .iter()
            .any(|e| e.get("endpoint").and_then(Json::as_str) == Some("recover")),
        "per-endpoint duration series for /recover: {endpoints:?}"
    );
    server.shutdown();
}

/// The key tree and value types of a JSON value: objects keep their
/// keys in order, arrays their elements, and every leaf becomes the
/// name of its type.
fn shape(json: &Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(fields.iter().map(|(k, v)| (k.clone(), shape(v))).collect()),
        Json::Arr(items) => Json::Arr(items.iter().map(shape).collect()),
        Json::Num(_) => Json::str("number"),
        Json::Str(_) => Json::str("string"),
        Json::Bool(_) => Json::str("bool"),
        Json::Null => Json::str("null"),
    }
}

/// A live `/debug/stats` reply after one recovery and one scrape keeps
/// the key tree and value types of `tests/fixtures/debug_stats_shape.json`,
/// which was captured from the same script: the `/metrics` families as
/// JSON, in exposition order.
#[test]
fn debug_stats_key_tree_matches_the_fixture() {
    let c = generate(&Profile::new("stats", 120, 12, 3), 7);
    let bench = write_bench(&c.netlist);
    let server = boot(tiny_model(5), 1, 4, None);
    let addr = server.addr();
    let reply = submit(addr, &bench, &bench_opts()).expect("submit");
    assert_eq!(reply.status, 200);
    let metrics = http_request(addr, "GET", "/metrics", &[], b"").expect("metrics");
    assert_eq!(metrics.status, 200);
    let stats = http_request(addr, "GET", "/debug/stats", &[], b"").expect("stats");
    assert_eq!(stats.status, 200);
    let live = Json::parse(&stats.body_text()).expect("stats json");
    let fixture = Json::parse(include_str!("fixtures/debug_stats_shape.json")).expect("fixture");
    assert_eq!(shape(&live), fixture, "{}", stats.body_text());
    server.shutdown();
}

#[test]
fn debug_trace_filters_by_request_id() {
    let c = generate(&Profile::new("trace", 100, 8, 2), 3);
    let bench = write_bench(&c.netlist);
    let server = boot(tiny_model(2), 1, 4, None);
    let addr = server.addr();

    for id in ["trace-keep", "trace-drop"] {
        let reply = http_request(
            addr,
            "POST",
            "/recover",
            &[("X-Rebert-Format", "bench"), ("X-Rebert-Request-Id", id)],
            bench.as_bytes(),
        )
        .expect("submit");
        assert_eq!(reply.status, 200, "{}", reply.body_text());
    }

    let trace =
        http_request(addr, "GET", "/debug/trace?request_id=trace-keep", &[], b"").expect("trace");
    let body = trace.body_text();
    let mut lines = body.lines();
    let meta = Json::parse(lines.next().expect("meta line")).expect("meta json");
    assert_eq!(json_field(&meta, "request_id").as_str(), Some("trace-keep"));
    let drained = json_field(&meta, "drained").as_usize().unwrap();
    let rest: Vec<&str> = lines.collect();
    assert_eq!(drained, rest.len(), "meta count matches record lines");
    assert!(drained > 0, "the filtered request left records");
    assert!(
        json_field(&meta, "filtered_out").as_u64().unwrap() > 0,
        "the other request's records were filtered out"
    );
    for line in rest {
        assert!(
            line.contains("trace-keep") && !line.contains("trace-drop"),
            "filtered line leaked a foreign record: {line}"
        );
    }
    server.shutdown();
}
