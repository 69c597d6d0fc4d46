//! End-to-end loopback tests for the daemon: a real `TcpListener` on an
//! ephemeral port, real connections, and the same recovery engine the
//! offline CLI uses. Pins the serving contract: bit-identical results
//! versus offline recovery, 503 backpressure, deadline 504s that leave
//! the resident model warm, 400s on malformed input, graceful drain, and a
//! well-formed Prometheus exposition.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rebert::{ReBertConfig, ReBertModel, RecoverOptions, ScoreCache};
use rebert_circuits::{corrupt, generate, GeneratedCircuit, Profile};
use rebert_netlist::{parse_bench, write_bench, write_verilog};
use rebert_registry::{ModelRegistry, RegistryConfig, DEFAULT_MODEL};
use rebert_serve::{
    http_request, serve_registry, submit, HttpReply, ServeConfig, Server, SubmitOptions,
};

/// Options that pin the `.bench` parser, the shape most tests submit.
fn bench_opts() -> SubmitOptions {
    SubmitOptions {
        format: Some("bench".into()),
        ..SubmitOptions::default()
    }
}

/// Boots a daemon serving `model` as the default resident on an
/// ephemeral loopback port.
fn boot_with(model: ReBertModel, registry: RegistryConfig, config: ServeConfig) -> Server {
    let registry = Arc::new(ModelRegistry::new(registry));
    registry.install(DEFAULT_MODEL, model);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    serve_registry(registry, listener, config).expect("serve")
}

fn boot(model: ReBertModel, threads: usize, queue: usize, deadline: Option<Duration>) -> Server {
    let registry = RegistryConfig {
        threads,
        ..RegistryConfig::default()
    };
    let config = ServeConfig {
        queue_capacity: queue,
        default_deadline: deadline,
        ..ServeConfig::default()
    };
    boot_with(model, registry, config)
}

/// Sends a `POST /recover` of `body` on a connection opened earlier and
/// reads the daemon's whole reply.
fn submit_on(mut stream: TcpStream, body: &str) -> HttpReply {
    write!(
        stream,
        "POST /recover HTTP/1.1\r\nHost: rebert\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("reply head");
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    HttpReply {
        status,
        headers,
        body: body.as_bytes().to_vec(),
    }
}

/// Scalar, uncached, uncancellable options on `threads` threads.
fn on_threads(threads: usize) -> RecoverOptions<'static> {
    RecoverOptions {
        threads,
        ..RecoverOptions::default()
    }
}

fn tiny_model(seed: u64) -> ReBertModel {
    ReBertModel::new(ReBertConfig::tiny(), seed)
}

/// A model + circuit pair heavy enough that one recovery takes long
/// enough (hundreds of model calls, no Jaccard filtering) to observe
/// queued and in-flight states from the outside.
fn heavy_setup() -> (ReBertModel, GeneratedCircuit) {
    let mut cfg = ReBertConfig::small();
    cfg.jaccard_threshold = 0.0;
    let model = ReBertModel::new(cfg, 3);
    let circuit = generate(&Profile::new("load", 600, 48, 6), 21);
    (model, circuit)
}

fn json_field<'a>(json: &'a rebert::json::Json, key: &str) -> &'a rebert::json::Json {
    json.get(key)
        .unwrap_or_else(|| panic!("missing field `{key}`"))
}

#[test]
fn loopback_matches_offline_recovery_bit_for_bit() {
    let c = generate(&Profile::new("demo", 120, 12, 3), 5);
    // The design as generated, and at R-Index 0.4, where gates are
    // replaced by equivalent templates the clean design never shows.
    let (corrupted, stats) = corrupt(&c.netlist, 0.4, 7);
    assert!(stats.replaced > 0, "R-Index 0.4 must replace gates");

    let server = boot(tiny_model(13), 2, 8, None);
    let addr = server.addr();
    for (input, netlist) in [("clean", &c.netlist), ("r=0.4", &corrupted)] {
        let bench = write_bench(netlist);
        // The offline truth, computed on the same parsed-from-text netlist
        // the daemon will see.
        let offline_nl = parse_bench("request", &bench).expect("round-trip parse");
        let offline = tiny_model(13).recover(&offline_nl, &on_threads(1)).unwrap();
        for round in 0..2 {
            let ctx = format!("{input}, round {round}");
            let reply = submit(addr, &bench, &bench_opts()).expect("submit");
            assert_eq!(reply.status, 200, "{ctx}: {}", reply.body_text());
            let json = rebert::json::Json::parse(&reply.body_text()).expect("response json");
            let assignment: Vec<usize> = json_field(&json, "assignment")
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_usize().unwrap())
                .collect();
            assert_eq!(assignment, offline.assignment, "{ctx}");
            assert_eq!(json_field(&json, "bits").as_usize(), Some(12), "{ctx}");
            let stats = json_field(&json, "stats");
            for (field, want) in [
                ("pairs_total", offline.stats.pairs_total),
                ("pairs_filtered", offline.stats.pairs_filtered),
                ("pairs_scored", offline.stats.pairs_scored),
                ("class_pairs_scored", offline.stats.class_pairs_scored),
            ] {
                assert_eq!(
                    json_field(stats, field).as_usize(),
                    Some(want),
                    "{ctx}: {field}"
                );
            }
            // Words are derived from the assignment the same way offline.
            let words = json_field(&json, "words").as_array().unwrap();
            assert_eq!(words.len(), offline.words().len(), "{ctx}");
        }
    }
    server.shutdown();
}

#[test]
fn verilog_bodies_are_sniffed_and_parsed() {
    let c = generate(&Profile::new("vdemo", 100, 8, 2), 6);
    let verilog = write_verilog(&c.netlist);
    let server = boot(tiny_model(1), 1, 4, None);
    let reply = submit(server.addr(), &verilog, &SubmitOptions::default()).expect("submit");
    assert_eq!(reply.status, 200, "{}", reply.body_text());
    let json = rebert::json::Json::parse(&reply.body_text()).unwrap();
    assert_eq!(json_field(&json, "bits").as_usize(), Some(8));
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_503_and_retry_after() {
    let (model, circuit) = heavy_setup();
    let bench = write_bench(&circuit.netlist);
    let server = boot(model, 1, 1, None);
    let addr = server.addr();

    // Six concurrent submissions into a single-slot queue with a single
    // executor: at most one runs and one waits, so at least four must be
    // turned away with backpressure.
    let submits: Vec<_> = (0..6)
        .map(|_| {
            let bench = bench.clone();
            std::thread::spawn(move || submit(addr, &bench, &bench_opts()))
        })
        .collect();
    let replies: Vec<_> = submits
        .into_iter()
        .map(|t| t.join().unwrap().expect("transport"))
        .collect();

    let ok = replies.iter().filter(|r| r.status == 200).count();
    let rejected: Vec<_> = replies.iter().filter(|r| r.status == 503).collect();
    assert_eq!(ok + rejected.len(), 6, "only 200s and 503s expected");
    assert!(ok >= 1, "at least the first job completes");
    assert!(!rejected.is_empty(), "a single-slot queue must shed load");
    for r in &rejected {
        assert_eq!(r.header("Retry-After"), Some("1"), "{}", r.body_text());
        assert!(r.body_text().contains("queue is full"));
    }
    assert!(server.metrics().rejected_total.get() >= rejected.len() as u64);
    server.shutdown();
}

#[test]
fn expired_deadline_yields_504_and_leaves_the_session_warm() {
    let (model, circuit) = heavy_setup();
    let bench = write_bench(&circuit.netlist);

    // Offline truth for the post-504 sanity check.
    let offline_nl = parse_bench("request", &bench).unwrap();
    let (offline_model, _) = heavy_setup();
    let offline = offline_model.recover(&offline_nl, &on_threads(2)).unwrap();

    let server = boot(model, 2, 4, None);
    let addr = server.addr();

    // A zero-millisecond budget has already expired by the time the
    // executor picks the job up, so the abort path is deterministic.
    let mut opts = bench_opts();
    opts.deadline_ms = Some(0);
    let reply = submit(addr, &bench, &opts).expect("submit");
    assert_eq!(reply.status, 504, "{}", reply.body_text());
    assert!(reply.body_text().contains("deadline"));
    assert_eq!(server.metrics().deadline_total.get(), 1);

    // The model is not poisoned: an unbounded request on the same
    // daemon still produces the offline answer.
    let reply = submit(addr, &bench, &bench_opts()).expect("submit");
    assert_eq!(reply.status, 200, "{}", reply.body_text());
    let json = rebert::json::Json::parse(&reply.body_text()).unwrap();
    let assignment: Vec<usize> = json_field(&json, "assignment")
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_usize().unwrap())
        .collect();
    assert_eq!(assignment, offline.assignment);
    server.shutdown();
}

#[test]
fn malformed_inputs_get_400s() {
    let server = boot(tiny_model(2), 1, 4, None);
    let addr = server.addr();

    // A body that is not a netlist in either dialect.
    let reply = submit(addr, "this is not a netlist\n", &SubmitOptions::default()).unwrap();
    assert_eq!(reply.status, 400);
    assert!(reply.body_text().contains("error"));

    // An explicit format that does not exist.
    let mut opts = bench_opts();
    opts.format = Some("vhdl".into());
    let reply = submit(addr, "INPUT(a)\n", &opts).unwrap();
    assert_eq!(reply.status, 400);
    assert!(reply.body_text().contains("vhdl"));

    // A non-numeric deadline.
    let reply = http_request(
        addr,
        "POST",
        "/recover",
        &[("X-Rebert-Deadline-Ms", "soon")],
        b"INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n",
    )
    .unwrap();
    assert_eq!(reply.status, 400);
    assert!(reply.body_text().contains("Deadline"));

    // Bytes that are not HTTP at all.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut text = String::new();
    raw.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");

    // Unknown endpoint and wrong method.
    assert_eq!(
        http_request(addr, "GET", "/nope", &[], b"").unwrap().status,
        404
    );
    assert_eq!(
        http_request(addr, "PUT", "/recover", &[], b"")
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        http_request(addr, "POST", "/metrics", &[], b"")
            .unwrap()
            .status,
        405
    );
    server.shutdown();
}

#[test]
fn lint_rejected_netlists_get_422_with_diagnostics() {
    let server = boot(tiny_model(2), 1, 4, None);
    let addr = server.addr();

    // Parses fine but fails the structural pre-flight: `ghost` is
    // consumed and never driven. The daemon must refuse to recover
    // words from it and say exactly why, machine-readably.
    let broken = "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n";
    let reply = submit(addr, broken, &bench_opts()).unwrap();
    assert_eq!(reply.status, 422, "{}", reply.body_text());
    let json = rebert::json::Json::parse(&reply.body_text()).expect("diagnostics are JSON");
    assert!(json_field(&json, "error")
        .as_str()
        .unwrap()
        .contains("lint"));
    assert_eq!(json_field(&json, "errors").as_usize(), Some(1));
    let diags = json_field(&json, "diagnostics").as_array().unwrap();
    assert_eq!(
        diags[0].get("code").and_then(rebert::json::Json::as_str),
        Some("undriven-net")
    );
    assert_eq!(
        diags[0]
            .get("nets")
            .and_then(rebert::json::Json::as_array)
            .and_then(|nets| nets[0].as_str()),
        Some("ghost")
    );

    // The refusal must not poison the model: a well-formed follow-up
    // request on the same daemon still recovers words.
    let good = "INPUT(a)\nINPUT(b)\nx = AND(a, b)\nq0 = DFF(x)\ny = OR(a, b)\nq1 = DFF(y)\nOUTPUT(q0)\nOUTPUT(q1)\n";
    let reply = submit(addr, good, &bench_opts()).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body_text());
    let json = rebert::json::Json::parse(&reply.body_text()).unwrap();
    assert_eq!(json_field(&json, "bits").as_usize(), Some(2));
    // The pipeline's warning list rides along in the success payload.
    // A structurally clean netlist never reports invariant violations
    // (score-calibration warnings may still appear for a toy model).
    let warnings = json_field(&json, "warnings").as_array().unwrap();
    assert!(
        warnings
            .iter()
            .all(|w| !w.as_str().unwrap_or("").contains("invariant")),
        "{warnings:?}"
    );

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_work() {
    let (model, circuit) = heavy_setup();
    let bench = write_bench(&circuit.netlist);
    let server = boot(model, 1, 4, None);
    let addr = server.addr();

    // Reads one counter from `/debug/stats`, as the benchmark's sampler
    // does.
    let stat = |key: &str| {
        let stats = http_request(addr, "GET", "/debug/stats", &[], b"").expect("stats");
        rebert::json::Json::parse(&stats.body_text())
            .expect("stats json")
            .get(key)
            .and_then(rebert::json::Json::as_u64)
            .unwrap_or_else(|| panic!("stats carry `{key}`"))
    };
    // Waits until `key` reads at least 1 (falls through after a generous
    // timeout if recovery is unexpectedly fast — both replies are still
    // asserted below).
    let await_stat = |key: &str| {
        let patience = Instant::now();
        while stat(key) < 1 && patience.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let spawn_submit = || {
        let bench = bench.clone();
        std::thread::spawn(move || submit(addr, &bench, &bench_opts()))
    };

    // One job in flight before the second is sent, then the second
    // queued behind it: a single job sitting in the queue before the
    // executor pops it cannot satisfy the wait.
    let first = spawn_submit();
    await_stat("inflight");
    let second = spawn_submit();
    await_stat("queue_depth");
    let submits = [first, second];

    // Drain: both already-accepted jobs must complete with 200 even
    // though the daemon is shutting down around them.
    server.shutdown();
    for t in submits {
        let reply = t.join().unwrap().expect("transport");
        assert_eq!(reply.status, 200, "{}", reply.body_text());
    }

    // The listener is gone: nothing answers on that port any more.
    assert!(http_request(addr, "GET", "/healthz", &[], b"").is_err());
}

#[test]
fn shutdown_endpoint_flags_the_drain() {
    let server = boot(tiny_model(4), 1, 4, None);
    let addr = server.addr();
    // Connect the follow-up submit before the flag goes up. The accept
    // thread exits on its first idle poll after `POST /shutdown`, but it
    // takes pending connections in FIFO order before it checks the flag,
    // so this one is always accepted.
    let follow_up = TcpStream::connect(addr).unwrap();
    assert!(!server.shutdown_requested());
    let reply = http_request(addr, "POST", "/shutdown", &[], b"").unwrap();
    assert_eq!(reply.status, 200);
    assert!(server.shutdown_requested());
    // Once the flag is up, new recoveries are refused.
    let reply = submit_on(follow_up, "INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n");
    assert_eq!(reply.status, 503);
    assert_eq!(reply.header("Retry-After"), Some("5"));
    server.shutdown();
}

#[test]
fn debug_trace_correlates_requests_with_their_header_id() {
    let c = generate(&Profile::new("demo", 100, 8, 2), 11);
    let bench = write_bench(&c.netlist);
    let server = boot(tiny_model(9), 1, 4, None);
    let addr = server.addr();

    let reply = submit(addr, &bench, &bench_opts()).expect("submit");
    assert_eq!(reply.status, 200, "{}", reply.body_text());
    let request_id = reply
        .header("X-Rebert-Request-Id")
        .expect("every response carries a request id")
        .to_owned();
    assert!(request_id.starts_with("req-"), "{request_id}");

    let trace = http_request(addr, "GET", "/debug/trace", &[], b"").unwrap();
    assert_eq!(trace.status, 200);
    assert!(trace.header("Content-Type").unwrap().contains("ndjson"));
    let body = trace.body_text();
    let mut lines = body.lines();
    let meta = rebert::json::Json::parse(lines.next().expect("meta line")).expect("meta parses");
    let drained = json_field(&meta, "drained").as_usize().unwrap();
    assert!(drained >= 1, "the recover request must be in the ring");
    assert!(meta.get("dropped_events").is_some());
    let records: Vec<rebert::json::Json> = lines
        .map(|l| rebert::json::Json::parse(l).expect("every line is one JSON record"))
        .collect();
    assert_eq!(records.len(), drained, "meta count matches the lines");

    let id_of = |r: &rebert::json::Json| {
        r.get("fields")
            .and_then(|f| f.get("request_id"))
            .and_then(rebert::json::Json::as_str)
            .map(str::to_owned)
    };
    // The request's root span is in the drain, tagged with the same id
    // the client saw in the header.
    let root = records
        .iter()
        .find(|r| {
            r.get("name").and_then(rebert::json::Json::as_str) == Some("request")
                && r.get("ph").and_then(rebert::json::Json::as_str) == Some("B")
                && id_of(r).as_deref() == Some(request_id.as_str())
        })
        .expect("root request span with the header's id");
    let root_span = root
        .get("span")
        .and_then(rebert::json::Json::as_usize)
        .unwrap();
    // The pipeline ran on the executor thread, yet its `recover` span
    // parents under that request root and inherits the id field.
    let recover = records
        .iter()
        .find(|r| {
            r.get("name").and_then(rebert::json::Json::as_str) == Some("recover")
                && r.get("ph").and_then(rebert::json::Json::as_str) == Some("B")
                && id_of(r).as_deref() == Some(request_id.as_str())
        })
        .expect("executor-side recover span carries the request id");
    assert_eq!(
        recover.get("parent").and_then(rebert::json::Json::as_usize),
        Some(root_span),
        "recovery parents under the request span"
    );

    // Draining is destructive: a second pull starts fresh, and error
    // responses carry ids too.
    let reply = submit(addr, "garbage", &SubmitOptions::default()).unwrap();
    assert_eq!(reply.status, 400);
    let err_id = reply
        .header("X-Rebert-Request-Id")
        .expect("error responses carry a request id")
        .to_owned();
    assert_ne!(err_id, request_id, "ids are unique per request");
    let trace = http_request(addr, "GET", "/debug/trace", &[], b"").unwrap();
    let body = trace.body_text();
    assert!(
        body.lines().skip(1).any(|l| l.contains(&err_id)),
        "second drain holds only newer records, including the 400"
    );
    assert!(!body.contains(&request_id), "first drain emptied the ring");
    server.shutdown();
}

#[test]
fn score_cache_serves_hits_survives_restart_and_honors_no_cache() {
    let c = generate(&Profile::new("cached", 120, 12, 3), 14);
    let bench = write_bench(&c.netlist);
    let dir = std::env::temp_dir().join(format!("rebert_serve_cache_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cache dir");
    let path = dir.join(ScoreCache::file_name(tiny_model(17).fingerprint()));
    let boot_cached = || {
        let registry = RegistryConfig {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        boot_with(tiny_model(17), registry, ServeConfig::default())
    };
    let stat = |reply: &rebert_serve::HttpReply, key: &str| -> usize {
        let json = rebert::json::Json::parse(&reply.body_text()).expect("json body");
        json_field(json_field(&json, "stats"), key)
            .as_usize()
            .unwrap_or_else(|| panic!("stats.{key} missing"))
    };
    let words_of = |reply: &rebert_serve::HttpReply| -> String {
        let json = rebert::json::Json::parse(&reply.body_text()).unwrap();
        json_field(&json, "words").to_string()
    };
    let fingerprint_of = |reply: &rebert_serve::HttpReply| -> String {
        let json = rebert::json::Json::parse(&reply.body_text()).unwrap();
        json_field(&json, "model_fingerprint")
            .as_str()
            .expect("model_fingerprint is a string")
            .to_owned()
    };

    // First daemon lifetime: cold submit, warm resubmit, bypass.
    let server = boot_cached();
    let addr = server.addr();
    let first = submit(addr, &bench, &bench_opts()).expect("submit");
    assert_eq!(first.status, 200, "{}", first.body_text());
    assert_eq!(stat(&first, "cache_hits"), 0, "fresh daemon has no entries");
    assert!(stat(&first, "cache_misses") > 0);
    let fingerprint = fingerprint_of(&first);
    assert_eq!(fingerprint.len(), 16, "{fingerprint}");

    let warm = submit(addr, &bench, &bench_opts()).expect("submit");
    assert_eq!(warm.status, 200);
    assert_eq!(stat(&warm, "cache_misses"), 0, "warm resubmit never misses");
    assert_eq!(stat(&warm, "cache_hits"), stat(&warm, "class_pairs_scored"));
    assert_eq!(words_of(&warm), words_of(&first), "identical words payload");

    // `X-Rebert-No-Cache` sidesteps the cache but not the answer.
    let mut opts = bench_opts();
    opts.use_cache = false;
    let bypass = submit(addr, &bench, &opts).expect("submit");
    assert_eq!(bypass.status, 200);
    assert_eq!(stat(&bypass, "cache_hits"), 0);
    assert_eq!(stat(&bypass, "cache_misses"), 0);
    assert_eq!(words_of(&bypass), words_of(&first));

    // The exposition carries the cache series and the model identity.
    let metrics = http_request(addr, "GET", "/metrics", &[], b"").unwrap();
    let samples = parse_prometheus(&metrics.body_text());
    let value = |name: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .value
    };
    assert!(value("rebert_cache_hits_total") >= 1.0);
    assert!(value("rebert_cache_misses_total") >= 1.0);
    assert!(value("rebert_cache_entries") >= 1.0);
    assert!(value("rebert_cache_bytes") >= 1.0);
    assert!(samples.iter().any(|s| {
        s.name == "rebert_model_info"
            && s.labels
                .iter()
                .any(|(k, v)| k == "fingerprint" && *v == fingerprint)
    }));
    server.shutdown();
    assert!(path.exists(), "shutdown flushed the cache beside the model");

    // Second lifetime: the restarted daemon answers from the persisted
    // cache — zero misses — and bit-for-bit the same words.
    let server = boot_cached();
    let revived = submit(server.addr(), &bench, &bench_opts()).expect("submit");
    assert_eq!(revived.status, 200, "{}", revived.body_text());
    assert_eq!(stat(&revived, "cache_misses"), 0, "restart loads the file");
    assert_eq!(
        stat(&revived, "cache_hits"),
        stat(&revived, "class_pairs_scored")
    );
    assert_eq!(words_of(&revived), words_of(&first));
    assert_eq!(fingerprint_of(&revived), fingerprint);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthz_answers_ok() {
    let server = boot(tiny_model(5), 1, 4, None);
    let reply = http_request(server.addr(), "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body_text(), "ok\n");
    server.shutdown();
}

/// One parsed Prometheus sample: metric name, sorted label pairs, value.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A strict-enough parser for the Prometheus text exposition format:
/// every non-comment line must be `name[{labels}] value`, every sample's
/// family must have HELP and TYPE comments, and values must be finite.
fn parse_prometheus(text: &str) -> Vec<Sample> {
    let mut helps = std::collections::HashSet::new();
    let mut types = std::collections::HashSet::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helps.insert(rest.split(' ').next().unwrap().to_owned());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap().to_owned();
            let kind = it.next().expect("TYPE line has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE `{kind}` in `{line}`"
            );
            types.insert(name);
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment `{line}`");
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad sample `{line}`"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in `{line}`"));
        assert!(value.is_finite(), "non-finite value in `{line}`");
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let rest = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unclosed labels `{line}`"));
                let mut labels = Vec::new();
                for pair in rest.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .unwrap_or_else(|| panic!("bad label `{pair}`"));
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .unwrap_or_else(|| panic!("unquoted label value `{pair}`"));
                    labels.push((k.to_owned(), v.to_owned()));
                }
                labels.sort();
                (name.to_owned(), labels)
            }
            None => (series.to_owned(), Vec::new()),
        };
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    for s in &samples {
        let family = s
            .name
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count")
            .to_owned();
        assert!(
            helps.contains(&s.name) || helps.contains(&family),
            "no HELP for `{}`",
            s.name
        );
        assert!(
            types.contains(&s.name) || types.contains(&family),
            "no TYPE for `{}`",
            s.name
        );
    }
    samples
}

#[test]
fn precision_header_selects_backend_and_rejects_unknown_values() {
    let c = generate(&Profile::new("prec", 100, 10, 2), 8);
    let bench = write_bench(&c.netlist);
    let server = boot(tiny_model(9), 1, 4, None);
    let addr = server.addr();

    // Each recognised label resolves to the backend the host supports
    // and the response reports the resolved label, not the requested one.
    let stats_backend = |reply: &rebert_serve::HttpReply| -> String {
        let json = rebert::json::Json::parse(&reply.body_text()).unwrap();
        json_field(json_field(&json, "stats"), "backend")
            .as_str()
            .expect("stats.backend is a string")
            .to_owned()
    };
    let with_precision = |label: &str| {
        let mut opts = bench_opts();
        opts.precision = Some(label.into());
        opts
    };
    let reply = submit(addr, &bench, &with_precision("int8")).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body_text());
    assert_eq!(stats_backend(&reply), "int8");

    let reply = submit(addr, &bench, &with_precision("f32-simd")).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body_text());
    assert_eq!(
        stats_backend(&reply),
        rebert::Backend::F32Simd.effective().label()
    );

    // No header and an explicit `f32` both mean the scalar default.
    let reply = submit(addr, &bench, &bench_opts()).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(stats_backend(&reply), "f32-scalar");
    let reply = submit(addr, &bench, &with_precision("f32")).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(stats_backend(&reply), "f32-scalar");

    // Unknown labels are a client error with a diagnostic body.
    let reply = submit(addr, &bench, &with_precision("fp4")).unwrap();
    assert_eq!(reply.status, 400, "{}", reply.body_text());
    let body = reply.body_text();
    assert!(body.contains("X-Rebert-Precision"), "{body}");
    assert!(body.contains("fp4"), "{body}");
    assert!(body.contains("int8"), "{body}");

    // The per-backend series track which backends actually served work.
    let metrics = http_request(addr, "GET", "/metrics", &[], b"").unwrap();
    let samples = parse_prometheus(&metrics.body_text());
    let find = |name: &str, backend: &str| -> f64 {
        samples
            .iter()
            .find(|s| {
                s.name == name && s.labels.iter().any(|(k, v)| k == "backend" && v == backend)
            })
            .unwrap_or_else(|| panic!("missing sample {name}{{backend={backend}}}"))
            .value
    };
    assert_eq!(find("rebert_backend_requests_total", "int8"), 1.0);
    assert!(find("rebert_backend_requests_total", "f32-scalar") >= 2.0);
    assert!(find("rebert_backend_pairs_per_sec", "int8") > 0.0);
    server.shutdown();
}

#[test]
fn metrics_exposition_is_well_formed_and_tracks_requests() {
    let c = generate(&Profile::new("demo", 100, 10, 2), 7);
    let bench = write_bench(&c.netlist);
    let server = boot(tiny_model(6), 1, 4, None);
    let addr = server.addr();

    assert_eq!(
        submit(addr, &bench, &SubmitOptions::default())
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        submit(addr, "garbage", &SubmitOptions::default())
            .unwrap()
            .status,
        400
    );

    let reply = http_request(addr, "GET", "/metrics", &[], b"").unwrap();
    assert_eq!(reply.status, 200);
    assert!(reply
        .header("Content-Type")
        .unwrap()
        .starts_with("text/plain"));
    let samples = parse_prometheus(&reply.body_text());

    let find = |name: &str, want: &[(&str, &str)]| -> f64 {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && want
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .unwrap_or_else(|| panic!("missing sample {name} {want:?}"))
            .value
    };

    assert_eq!(
        find(
            "rebert_requests_total",
            &[("endpoint", "recover"), ("outcome", "ok")]
        ),
        1.0
    );
    assert_eq!(
        find(
            "rebert_requests_total",
            &[("endpoint", "recover"), ("outcome", "bad_request")]
        ),
        1.0
    );
    assert_eq!(find("rebert_inflight", &[]), 0.0);
    assert_eq!(find("rebert_queue_depth", &[]), 0.0);
    assert!(find("rebert_pairs_scored_total", &[]) >= 1.0);
    assert!(find("rebert_pairs_per_sec", &[]) > 0.0);
    assert_eq!(
        find("rebert_phase_seconds_count", &[("phase", "score")]),
        1.0
    );

    // Histogram buckets are cumulative and end at +Inf == count, for
    // every phase.
    for phase in ["tokenize", "filter", "score", "group", "total"] {
        let mut buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| {
                s.name == "rebert_phase_seconds_bucket"
                    && s.labels.iter().any(|(k, v)| k == "phase" && v == phase)
            })
            .map(|s| {
                let le = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| {
                        if v == "+Inf" {
                            f64::INFINITY
                        } else {
                            v.parse().unwrap()
                        }
                    })
                    .expect("bucket has le");
                (le, s.value)
            })
            .collect();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(!buckets.is_empty(), "no buckets for phase {phase}");
        for pair in buckets.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "non-cumulative buckets for {phase}");
        }
        let (last_le, last) = buckets[buckets.len() - 1];
        assert!(last_le.is_infinite());
        assert_eq!(
            last,
            find("rebert_phase_seconds_count", &[("phase", phase)])
        );
    }
    server.shutdown();
}
