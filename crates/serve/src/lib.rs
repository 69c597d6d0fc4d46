//! # rebert-serve
//!
//! A resident word-recovery daemon for the ReBERT reproduction. The
//! one-shot `rebert recover` pays checkpoint load and scratch warm-up on
//! every invocation; this crate keeps the models of a
//! [`rebert_registry::ModelRegistry`] resident behind a small
//! dependency-free HTTP/1.1 server, so repeated recoveries run against
//! a warm model through [`rebert::ReBertModel::recover`].
//!
//! ## Endpoints
//!
//! | Endpoint          | Semantics |
//! |-------------------|-----------|
//! | `POST /recover`   | Body is a `.bench` or Verilog netlist (`X-Rebert-Format: bench\|verilog`, sniffed otherwise). Optional `X-Rebert-Deadline-Ms` bounds the recovery; optional `X-Rebert-Precision: f32\|f32-simd\|int8` selects the scoring backend (unknown values get `400`); optional `X-Rebert-Model` picks a resident model by name (unknown names get `404` listing the residents). Returns recovered words + pipeline stats as JSON. |
//! | `POST /recover/stream` | Same body and headers as `/recover`, but the reply is live NDJSON: a `meta` record, `progress` records while the recovery runs (phase begin/end, scored-pairs percent, cache hits), then the final result record — byte-identical to the `/recover` payload and the only line without a `"type"` key. A client that disconnects mid-stream cancels the job; the resident model stays warm. |
//! | `POST /batch`     | Body is a length-prefixed archive of named netlists (`<len> <name>\n` + bytes per entry; see [`client::batch_archive`]). Streams one NDJSON record per netlist as each finishes; per-entry failures are records, not HTTP errors. Honors the same model/backend/deadline headers as `/recover`. |
//! | `GET /models`     | Lists resident models: name, version, checkpoint fingerprint, per-backend served counters, score-cache stats. |
//! | `POST /models/{name}/load` | Body `{"path": "ckpt.rbt"}`. Loads the checkpoint and atomically publishes it under `name`; in-flight requests finish on the old version, which is retired (cache flushed, memory dropped) once its refcount drains. |
//! | `GET /healthz`    | Liveness probe (`200 ok`). |
//! | `GET /metrics`    | Prometheus text exposition of the [`metrics`] table: request counters, queue depth and capacity, in-flight gauge, per-phase and per-endpoint timing histograms with p50/p95/p99 gauges, pairs/sec, cone-dedup and score-cache counters, trace-ring counts, one info series per resident model, per-tenant request counters. |
//! | `POST /shutdown`  | Requests a graceful drain (also triggered by SIGINT/SIGTERM). |
//! | `GET /debug/trace`| Drains the in-memory trace ring as NDJSON: a meta line (`drained`, `dropped_events`) followed by one span/event record per line. `?request_id=<id>` narrows the output to one request's records. |
//! | `GET /debug/stats`| The `/metrics` families as JSON, keyed by name without `rebert_`: a number per unlabelled family, an array of series per labelled one, and each histogram series as its count and p50/p95/p99. |
//! | `GET /`           | With [`ServeConfig::web`] (`rebert serve --web`): the embedded single-file dashboard — a live tile per unlabelled family and a table per labelled one from `/debug/stats`, a per-request phase waterfall fed by `/recover/stream`, and a recovered-word bit heatmap. No build step, no external assets. |
//!
//! ## Semantics
//!
//! * **One job path** — `POST /recover`, `/recover/stream` and `/batch`
//!   differ only in how they frame the reply. All three pass one
//!   admission step, cheapest check first: drain (`503`), tenant quota
//!   (`429`), model (`404`), option headers and body framing (`400`).
//!   Then every netlist gets the same parse and lint pre-flight (`400`,
//!   `422`) and the same enqueue, so a refusal answers the same status
//!   on every endpoint. A batch reports per-entry failures as records.
//! * **Backpressure** — jobs flow through a bounded queue
//!   ([`queue::Bounded`]); when it is full, submissions get `503` with
//!   `Retry-After` instead of queueing invisibly.
//! * **Deadlines** — each request's deadline becomes a
//!   [`rebert::CancelToken`] threaded through the scoring work loops;
//!   overdue recoveries abort cooperatively with `504` and the model
//!   stays warm.
//! * **Graceful shutdown** — on SIGINT/SIGTERM (or `POST /shutdown`)
//!   the daemon stops accepting, drains queued work, answers every
//!   in-flight connection, and exits 0.
//! * **Multi-model residency** — a [`rebert_registry::ModelRegistry`]
//!   owns the resident models; each request pins the `Arc` of the model
//!   it resolved at admission, so a concurrent hot-load never mixes
//!   models mid-request. [`serve_registry`] serves a registry populated
//!   with [`rebert_registry::ModelRegistry::install`], whose
//!   [`rebert_registry::RegistryConfig`] holds the scoring threads and
//!   the score-cache budget and directory.
//! * **Tenant quotas** — with [`ServeConfig::tenant_quota`] set, each
//!   tenant (`X-Rebert-Tenant`, default `anonymous`) draws from its own
//!   token bucket; exhausted buckets get `429` with `Retry-After`, and
//!   per-tenant outcomes are counted in `/metrics`. Past
//!   [`rebert_registry::MAX_TENANTS`] tenants, further ones share one
//!   `_overflow` series, as the quota's own buckets are bounded.
//! * **Request correlation** — every response (including malformed-request
//!   `400`s) carries an `X-Rebert-Request-Id` header (a client-supplied
//!   id is echoed back, also on 4xx/5xx); the same id rides
//!   on every [`rebert_obs`] record the request produced, and the span
//!   tree (root `request` span → executor-side pipeline spans) survives
//!   the queue's thread hop via [`rebert_obs::TraceCtx`]. A bounded
//!   [`rebert_obs::RingSink`] buffers recent records without ever
//!   blocking the serving path; `GET /debug/trace` drains it.
//! * **One telemetry plane** — each `POST /recover/stream` reply
//!   installs its own [`rebert_obs::RingSink::for_request`] ring on the
//!   obs dispatcher while it runs, so every progress record is delivered
//!   or counted. `/metrics` and `/debug/stats` render one table of
//!   metric families in [`metrics`], from the daemon's counters plus
//!   one snapshot per scrape, read from the queue, the trace ring and
//!   the registry.
//!
//! ```no_run
//! use std::sync::Arc;
//!
//! use rebert::{ReBertConfig, ReBertModel};
//! use rebert_registry::{ModelRegistry, RegistryConfig, DEFAULT_MODEL};
//! use rebert_serve::{serve_registry, ServeConfig};
//!
//! let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
//! registry.install(DEFAULT_MODEL, ReBertModel::new(ReBertConfig::tiny(), 0));
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let server = serve_registry(registry, listener, ServeConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! rebert_serve::run_until_shutdown(server);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod metrics;
pub mod queue;
mod server;
mod web;

pub use client::{
    batch_archive, http_request, list_models, load_model_remote, submit, submit_batch,
    submit_stream, HttpReply, SubmitOptions,
};
pub use metrics::Metrics;
pub use server::{run_until_shutdown, serve_registry, signals, ServeConfig, Server};
