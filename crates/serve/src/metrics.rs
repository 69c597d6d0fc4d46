//! Daemon telemetry: one table of metric families, rendered as the
//! `GET /metrics` Prometheus text and as the `GET /debug/stats` JSON.
//!
//! [`Metrics`] holds only what the daemon counts itself, in atomics
//! plus one short mutex per labelled map, so recording never contends
//! with the scoring threads. Numbers another part owns (queue depth and
//! capacity, trace-ring counts, each resident's identity and score
//! cache) are read from their owners into one `Snapshot` per scrape.
//!
//! `Metrics::families` is the table. It is the only place a family's
//! name, kind, help text, label names and value source are written, and
//! it lists the families in exposition order. The two renderers know
//! nothing of any one family:
//!
//! * `/metrics` writes each family that has a series, with a
//!   `<name>_quantile` gauge family of [`QUANTILES`] after each
//!   histogram. Label values are escaped (`\`, `"`, newline), and a
//!   label whose value is empty is left out.
//! * `/debug/stats` is one JSON object keyed by the family names
//!   without `rebert_`. An unlabelled family is a number; a labelled
//!   one is an array of `{<labels>…, "value"}` objects (`[]` with no
//!   series); a histogram's series is `{<labels>…, "count", "p50",
//!   "p95", "p99"}`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rebert::json::Json;
use rebert::{Backend, PipelineStats};
use rebert_registry::{ModelRegistry, ResidentModel, MAX_TENANTS};
use rebert_sync::Mutex;

/// Histogram bucket upper bounds, in seconds. Spans sub-millisecond
/// grouping up to multi-second scoring runs; `+Inf` is implicit.
pub const BUCKETS: [f64; 9] = [0.001, 0.005, 0.02, 0.1, 0.25, 1.0, 2.5, 10.0, 60.0];

/// The quantiles every histogram exports: `(q, label, key)`, where
/// `label` is the `quantile` label of the `/metrics` companion gauge
/// (as in a Prometheus summary) and `key` the `/debug/stats` field.
pub const QUANTILES: [(f64, &str, &str); 3] = [
    (0.5, "0.5", "p50"),
    (0.95, "0.95", "p95"),
    (0.99, "0.99", "p99"),
];

/// The tenant label that every tenant past the first [`MAX_TENANTS`]
/// is counted under, so the header cannot grow the exposition without
/// bound.
const OVERFLOW_TENANT: &str = "_overflow";

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one (saturating at zero).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket duration histogram ([`BUCKETS`] plus `+Inf`). The sum
/// is tracked in integer microseconds so recording stays a pair of
/// atomic adds.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [Counter; BUCKETS.len() + 1],
    sum_micros: Counter,
    count: Counter,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        let slot = BUCKETS
            .iter()
            .position(|&le| secs <= le)
            .unwrap_or(BUCKETS.len());
        self.counts[slot].inc();
        self.sum_micros
            .add(d.as_micros().min(u64::MAX as u128) as u64);
        self.count.inc();
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket counts
    /// by linear interpolation inside the owning bucket — the same
    /// estimate PromQL's `histogram_quantile` computes. Observations in
    /// the `+Inf` bucket clamp to the largest finite bound, and an
    /// empty histogram reports `0.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count.get();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        let mut lower = 0.0f64;
        for (i, &le) in BUCKETS.iter().enumerate() {
            let here = self.counts[i].get();
            if here > 0 && cumulative + here >= rank {
                let into = (rank - cumulative) as f64 / here as f64;
                return lower + (le - lower) * into;
            }
            cumulative += here;
            lower = le;
        }
        BUCKETS[BUCKETS.len() - 1]
    }

    /// Renders the [`QUANTILES`] companion gauges for this histogram.
    fn render_quantiles(&self, out: &mut String, name: &str, labels: &str) {
        for (q, label, _) in QUANTILES {
            let _ = writeln!(
                out,
                "{name}_quantile{{{labels}quantile=\"{label}\"}} {}",
                self.quantile(q)
            );
        }
    }

    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let mut cumulative = 0u64;
        for (i, le) in BUCKETS.iter().enumerate() {
            cumulative += self.counts[i].get();
            let _ = writeln!(out, "{name}_bucket{{{labels}le=\"{le}\"}} {cumulative}");
        }
        cumulative += self.counts[BUCKETS.len()].get();
        let _ = writeln!(out, "{name}_bucket{{{labels}le=\"+Inf\"}} {cumulative}");
        let sum = self.sum_micros.get() as f64 / 1e6;
        let _ = writeln!(
            out,
            "{name}_sum{{{trim}}} {sum}",
            trim = labels.trim_end_matches(',')
        );
        let _ = writeln!(
            out,
            "{name}_count{{{trim}}} {count}",
            trim = labels.trim_end_matches(','),
            count = self.count.get()
        );
    }
}

/// The pipeline phases exported as histogram label values, in order.
pub const PHASES: [&str; 5] = ["tokenize", "filter", "score", "group", "total"];

/// Everything the daemon counts itself. One instance lives for the life
/// of the server and is shared by the connection threads, the executor,
/// and the `/metrics` and `/debug/stats` handlers.
#[derive(Debug)]
pub struct Metrics {
    /// `(endpoint, outcome)` → finished-request count.
    requests: Mutex<BTreeMap<(&'static str, &'static str), u64>>,
    /// Recoveries executing right now (0 or 1 with a single executor).
    pub inflight: Gauge,
    /// Jobs refused with 503 because the queue was full.
    pub rejected_total: Counter,
    /// Jobs aborted by their deadline (504).
    pub deadline_total: Counter,
    /// Cumulative bit pairs scored (memoized broadcasts included).
    pub pairs_scored_total: Counter,
    /// Cumulative unique class-pair model calls.
    pub class_pairs_scored_total: Counter,
    /// Cumulative bit pairs served from the class-pair memo.
    pub pairs_memoized_total: Counter,
    /// Cumulative cone classes observed across requests.
    pub classes_total: Counter,
    /// Cumulative score-cache hits across recoveries.
    pub cache_hits_total: Counter,
    /// Cumulative score-cache misses across recoveries.
    pub cache_misses_total: Counter,
    /// tenant → outcome → finished-request count, holding at most
    /// [`MAX_TENANTS`] tenants plus the overflow label. Only populated
    /// when quotas are on (otherwise tenants are not distinguished).
    tenants: Mutex<BTreeMap<String, BTreeMap<&'static str, u64>>>,
    /// Requests refused with 429 because a tenant ran out of tokens.
    pub throttled_total: Counter,
    /// Netlists processed through `POST /batch` archives.
    pub batch_netlists_total: Counter,
    /// Scoring throughput of the most recent completed recovery,
    /// stored as `f64::to_bits`.
    last_pairs_per_sec: AtomicU64,
    /// Completed recoveries per inference backend, indexed like
    /// [`Backend::ALL`]. The label is the *resolved* backend — what
    /// actually scored the pairs, not what the client requested.
    backend_requests: [Counter; Backend::ALL.len()],
    /// Most recent scoring throughput per backend (`f64::to_bits`; zero
    /// bits until that backend has completed a recovery).
    backend_pairs_per_sec: [AtomicU64; Backend::ALL.len()],
    /// Per-phase recovery timing histograms, indexed like [`PHASES`].
    phase: [Arc<Histogram>; PHASES.len()],
    /// `(endpoint, model)` → wall-clock request-duration histogram. The
    /// model is empty for endpoints where no model is involved.
    durations: Mutex<BTreeMap<(&'static str, String), Arc<Histogram>>>,
}

/// The numbers a scrape reads from their owners — the job queue, the
/// trace ring and the model registry — rather than from [`Metrics`].
/// `/metrics` and `/debug/stats` each take one per request and render
/// from it.
#[derive(Debug, Default)]
pub(crate) struct Snapshot {
    /// Jobs waiting in the bounded queue.
    pub queue_depth: u64,
    /// Jobs the queue holds before new submissions get `503`.
    pub queue_capacity: u64,
    /// Records buffered in the daemon's trace ring.
    pub trace_buffered: u64,
    /// Trace-ring records lost to overflow eviction or write contention
    /// (the ring's own monotone counter).
    pub trace_dropped: u64,
    /// The current version of every resident name, sorted by name.
    pub residents: Vec<Resident>,
}

/// One resident model as a scrape reads it.
#[derive(Debug)]
pub(crate) struct Resident {
    /// The registry name it serves under.
    pub name: String,
    /// Its per-name version.
    pub version: u64,
    /// Hex checkpoint fingerprint.
    pub fingerprint: String,
    /// Entries in its score cache (all three cache figures are 0 when
    /// caching is off).
    pub cache_entries: u64,
    /// Bytes resident in its score cache.
    pub cache_bytes: u64,
    /// Entries its score cache evicted to stay within the byte budget.
    pub cache_evictions: u64,
}

impl Snapshot {
    /// Reads every resident of `registry`; the queue and trace figures
    /// are left at zero for the caller to fill in.
    pub(crate) fn of_registry(registry: &ModelRegistry) -> Snapshot {
        let resident = |r: &Arc<ResidentModel>| {
            let cache = r.cache();
            Resident {
                name: r.name().to_owned(),
                version: r.version(),
                fingerprint: r.fingerprint_hex().to_owned(),
                cache_entries: cache.map_or(0, |c| c.len() as u64),
                cache_bytes: cache.map_or(0, |c| c.bytes() as u64),
                cache_evictions: cache.map_or(0, |c| c.evictions()),
            }
        };
        Snapshot {
            residents: registry.list().iter().map(resident).collect(),
            ..Snapshot::default()
        }
    }

    /// Score-cache `(entries, bytes, evictions)` summed over the
    /// residents: a swapped-out version stops counting the moment it
    /// leaves its slot.
    fn cache_totals(&self) -> (u64, u64, u64) {
        self.residents.iter().fold((0, 0, 0), |(e, b, v), r| {
            (
                e + r.cache_entries,
                b + r.cache_bytes,
                v + r.cache_evictions,
            )
        })
    }
}

/// A family's Prometheus type.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    /// A histogram, followed in `/metrics` by a `<name>_quantile` gauge
    /// family with this help text.
    Histogram(&'static str),
}

/// One sample's value.
#[derive(Debug)]
enum Value {
    Int(u64),
    Float(f64),
    Histogram(Arc<Histogram>),
}

impl Value {
    /// The `/debug/stats` form: a number, or a histogram's count and
    /// [`QUANTILES`] as an object.
    fn to_json(&self) -> Json {
        match self {
            Value::Int(v) => Json::uint(*v),
            Value::Float(v) => Json::num(*v),
            Value::Histogram(h) => {
                let mut fields = vec![("count".to_owned(), Json::uint(h.count()))];
                for (q, _, key) in QUANTILES {
                    fields.push((key.to_owned(), Json::num(h.quantile(q))));
                }
                Json::Obj(fields)
            }
        }
    }
}

/// One series: its label values, in the family's label order, and its
/// value.
#[derive(Debug)]
struct Series {
    labels: Vec<String>,
    value: Value,
}

/// One row of the metric table.
#[derive(Debug)]
struct Family {
    name: &'static str,
    kind: Kind,
    help: &'static str,
    labels: &'static [&'static str],
    series: Vec<Series>,
}

impl Family {
    /// A labelled family; `series` may be empty.
    fn new(
        name: &'static str,
        kind: Kind,
        labels: &'static [&'static str],
        series: Vec<Series>,
        help: &'static str,
    ) -> Family {
        Family {
            name,
            kind,
            help,
            labels,
            series,
        }
    }

    /// An unlabelled family: exactly one series.
    fn one(name: &'static str, kind: Kind, value: Value, help: &'static str) -> Family {
        let series = vec![Series {
            labels: Vec::new(),
            value,
        }];
        Family::new(name, kind, &[], series, help)
    }

    /// `(label, value)` for each of `s`'s labels whose value is not
    /// empty.
    fn labels_of<'a>(&self, s: &'a Series) -> impl Iterator<Item = (&'static str, &'a str)> {
        let names: &'static [&'static str] = self.labels;
        names
            .iter()
            .copied()
            .zip(s.labels.iter().map(String::as_str))
            .filter(|(_, v)| !v.is_empty())
    }

    /// `s`'s labels in exposition form, each followed by a comma.
    fn exposition_labels(&self, s: &Series) -> String {
        let mut out = String::new();
        for (name, v) in self.labels_of(s) {
            let v = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            let _ = write!(out, "{name}=\"{v}\",");
        }
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: Mutex::new(BTreeMap::new(), "serve.metrics.requests"),
            inflight: Gauge::default(),
            rejected_total: Counter::default(),
            deadline_total: Counter::default(),
            pairs_scored_total: Counter::default(),
            class_pairs_scored_total: Counter::default(),
            pairs_memoized_total: Counter::default(),
            classes_total: Counter::default(),
            cache_hits_total: Counter::default(),
            cache_misses_total: Counter::default(),
            tenants: Mutex::new(BTreeMap::new(), "serve.metrics.tenants"),
            throttled_total: Counter::default(),
            batch_netlists_total: Counter::default(),
            last_pairs_per_sec: AtomicU64::new(0),
            backend_requests: Default::default(),
            backend_pairs_per_sec: Default::default(),
            phase: Default::default(),
            durations: Mutex::new(BTreeMap::new(), "serve.metrics.durations"),
        }
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one finished request against `(endpoint, outcome)`.
    pub fn count_request(&self, endpoint: &'static str, outcome: &'static str) {
        *self.requests.lock().entry((endpoint, outcome)).or_insert(0) += 1;
    }

    /// The count recorded for `(endpoint, outcome)`.
    pub fn request_count(&self, endpoint: &str, outcome: &str) -> u64 {
        self.requests
            .lock()
            .iter()
            .filter(|((e, o), _)| *e == endpoint && *o == outcome)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Folds one completed recovery's stats into the counters and
    /// histograms.
    pub fn record_recovery(&self, stats: &PipelineStats) {
        self.pairs_scored_total.add(stats.pairs_scored as u64);
        self.class_pairs_scored_total
            .add(stats.class_pairs_scored as u64);
        self.pairs_memoized_total.add(stats.pairs_memoized as u64);
        self.classes_total.add(stats.classes as u64);
        self.cache_hits_total.add(stats.cache_hits as u64);
        self.cache_misses_total.add(stats.cache_misses as u64);
        // Scrape-only f64 bit patterns, no cross-field ordering needed.
        self.last_pairs_per_sec
            // rebert-lint: allow(relaxed-publication-store)
            .store(stats.pairs_per_sec.to_bits(), Ordering::Relaxed);
        let slot = stats.backend.index();
        self.backend_requests[slot].inc();
        // rebert-lint: allow(relaxed-publication-store)
        self.backend_pairs_per_sec[slot].store(stats.pairs_per_sec.to_bits(), Ordering::Relaxed);
        let durations = [
            stats.tokenize_time,
            stats.filter_time,
            stats.score_time,
            stats.group_time,
            stats.elapsed,
        ];
        for (h, d) in self.phase.iter().zip(durations) {
            h.observe(d);
        }
    }

    /// Counts one finished request against `(tenant, outcome)`. Only
    /// called when tenant quotas are enabled. Once [`MAX_TENANTS`]
    /// tenants have been counted, every further tenant is counted under
    /// the one label `_overflow`, the bound the quotas keep for their
    /// own buckets.
    pub fn count_tenant(&self, tenant: &str, outcome: &'static str) {
        let mut tenants = self.tenants.lock();
        let tenant = if tenants.len() < MAX_TENANTS || tenants.contains_key(tenant) {
            tenant
        } else {
            OVERFLOW_TENANT
        };
        *tenants
            .entry(tenant.to_owned())
            .or_default()
            .entry(outcome)
            .or_insert(0) += 1;
    }

    /// The count recorded for `(tenant, outcome)`.
    pub fn tenant_count(&self, tenant: &str, outcome: &str) -> u64 {
        let tenants = self.tenants.lock();
        let outcomes = tenants.get(tenant);
        outcomes.and_then(|o| o.get(outcome)).copied().unwrap_or(0)
    }

    /// Records one finished request's wall-clock duration against its
    /// `(endpoint, model)` series. `model = None` for endpoints with no
    /// model dimension (health, metrics, debug).
    pub fn observe_request_duration(
        &self,
        endpoint: &'static str,
        model: Option<&str>,
        d: Duration,
    ) {
        let histogram = {
            let mut map = self.durations.lock();
            Arc::clone(
                map.entry((endpoint, model.unwrap_or("").to_owned()))
                    .or_default(),
            )
        };
        histogram.observe(d);
    }

    /// The metric table: every family in exposition order, with its
    /// series read from these metrics and `snap`. Laid out one family
    /// per row: name, kind, labels and value source, then help text.
    #[rustfmt::skip]
    fn families(&self, snap: &Snapshot) -> Vec<Family> {
        let (cache_entries, cache_bytes, cache_evictions) = snap.cache_totals();
        let int = |counter: &Counter| Value::Int(counter.get());
        let float = |bits: &AtomicU64| Value::Float(f64::from_bits(bits.load(Ordering::Relaxed)));
        let series = |labels: Vec<String>, value| Series { labels, value };
        let per_backend = |value: &dyn Fn(usize) -> Value| -> Vec<Series> {
            let each = Backend::ALL.iter();
            each.map(|b| series(vec![b.label().into()], value(b.index()))).collect()
        };
        // Each lock is taken and released in its own statement: no two
        // are ever held together.
        let requests = self.requests.lock().iter()
            .map(|(&(e, o), &n)| series(vec![e.into(), o.into()], Value::Int(n)))
            .collect();
        let tenants = self.tenants.lock().iter()
            .flat_map(|(tenant, outcomes)| outcomes.iter()
                .map(|(&o, &n)| series(vec![tenant.clone(), o.into()], Value::Int(n))))
            .collect();
        let durations = self.durations.lock().iter()
            .map(|((e, model), h)| {
                series(vec![(*e).into(), model.clone()], Value::Histogram(h.clone()))
            })
            .collect();
        let residents = snap.residents.iter()
            .map(|r| {
                let labels = vec![r.name.clone(), r.version.to_string(), r.fingerprint.clone()];
                series(labels, Value::Int(1))
            })
            .collect();
        let phases = PHASES.iter().zip(&self.phase)
            .map(|(phase, h)| series(vec![(*phase).into()], Value::Histogram(h.clone())))
            .collect();
        vec![
            Family::new("rebert_requests_total", Kind::Counter, &["endpoint", "outcome"], requests,
                "Finished HTTP requests by endpoint and outcome."),
            Family::one("rebert_queue_depth", Kind::Gauge, Value::Int(snap.queue_depth),
                "Jobs waiting in the bounded queue."),
            Family::one("rebert_queue_capacity", Kind::Gauge, Value::Int(snap.queue_capacity),
                "Jobs the queue holds before new submissions get 503."),
            Family::one("rebert_inflight", Kind::Gauge, Value::Int(self.inflight.get()),
                "Recoveries executing right now."),
            Family::one("rebert_rejected_total", Kind::Counter, int(&self.rejected_total),
                "Jobs refused with 503 (queue full or shutting down)."),
            Family::one("rebert_deadline_exceeded_total", Kind::Counter, int(&self.deadline_total),
                "Jobs aborted by their deadline (504)."),
            Family::one("rebert_throttled_total", Kind::Counter, int(&self.throttled_total),
                "Requests refused with 429 by the per-tenant quota."),
            Family::one("rebert_batch_netlists_total", Kind::Counter,
                int(&self.batch_netlists_total),
                "Netlists processed through POST /batch archives."),
            Family::one("rebert_pairs_scored_total", Kind::Counter, int(&self.pairs_scored_total),
                "Cumulative bit pairs scored, memoized broadcasts included."),
            Family::one("rebert_class_pairs_scored_total", Kind::Counter,
                int(&self.class_pairs_scored_total),
                "Cumulative unique class-pair model calls."),
            Family::one("rebert_pairs_memoized_total", Kind::Counter,
                int(&self.pairs_memoized_total),
                "Cumulative bit pairs served from the class-pair memo."),
            Family::one("rebert_cone_classes_total", Kind::Counter, int(&self.classes_total),
                "Cumulative cone classes across recoveries."),
            Family::one("rebert_cache_hits_total", Kind::Counter, int(&self.cache_hits_total),
                "Cumulative class-pair scores served from the score cache."),
            Family::one("rebert_cache_misses_total", Kind::Counter, int(&self.cache_misses_total),
                "Cumulative class-pair scores computed and inserted into the score cache."),
            Family::one("rebert_cache_evictions_total", Kind::Counter, Value::Int(cache_evictions),
                "Score-cache entries evicted to stay within the byte budget."),
            Family::one("rebert_cache_bytes", Kind::Gauge, Value::Int(cache_bytes),
                "Bytes resident in the score cache."),
            Family::one("rebert_cache_entries", Kind::Gauge, Value::Int(cache_entries),
                "Entries resident in the score cache."),
            Family::one("rebert_trace_dropped_total", Kind::Counter, Value::Int(snap.trace_dropped),
                "Trace-ring records lost to overflow eviction or write contention."),
            Family::one("rebert_trace_buffered", Kind::Gauge, Value::Int(snap.trace_buffered),
                "Records buffered in the daemon's trace ring."),
            Family::new("rebert_model_info", Kind::Gauge, &["name", "version", "fingerprint"],
                residents, "Identity of each resident checkpoint (value is always 1)."),
            Family::new("rebert_tenant_requests_total", Kind::Counter, &["tenant", "outcome"],
                tenants, "Finished requests by tenant and outcome (quota mode only)."),
            Family::one("rebert_pairs_per_sec", Kind::Gauge, float(&self.last_pairs_per_sec),
                "Scoring throughput of the most recent recovery."),
            Family::new("rebert_backend_requests_total", Kind::Counter, &["backend"],
                per_backend(&|i| int(&self.backend_requests[i])),
                "Completed recoveries by resolved inference backend."),
            Family::new("rebert_backend_pairs_per_sec", Kind::Gauge, &["backend"],
                per_backend(&|i| float(&self.backend_pairs_per_sec[i])),
                "Most recent scoring throughput by resolved inference backend."),
            Family::new("rebert_phase_seconds", Kind::Histogram(
                "Estimated phase-duration quantiles, interpolated from the histogram buckets."),
                &["phase"], phases,
                "Recovery pipeline phase durations."),
            Family::new("rebert_request_duration_seconds", Kind::Histogram(
                "Estimated request-duration quantiles, interpolated from the histogram buckets."),
                &["endpoint", "model"], durations,
                "Wall-clock request duration by endpoint (and model where one is involved)."),
        ]
    }

    /// The `GET /metrics` body: every family of the table that has a
    /// series, in the Prometheus text exposition format.
    pub(crate) fn render(&self, snap: &Snapshot) -> String {
        let mut out = String::with_capacity(4096);
        for f in self.families(snap).iter().filter(|f| !f.series.is_empty()) {
            let type_name = match f.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Histogram(_) => "histogram",
            };
            let _ = writeln!(
                out,
                "# HELP {0} {1}\n# TYPE {0} {type_name}",
                f.name, f.help
            );
            for s in &f.series {
                let labels = f.exposition_labels(s);
                let braces = match labels.trim_end_matches(',') {
                    "" => String::new(),
                    trimmed => format!("{{{trimmed}}}"),
                };
                match &s.value {
                    Value::Int(v) => {
                        let _ = writeln!(out, "{}{braces} {v}", f.name);
                    }
                    Value::Float(v) => {
                        let _ = writeln!(out, "{}{braces} {v}", f.name);
                    }
                    Value::Histogram(h) => h.render(&mut out, f.name, &labels),
                }
            }
            if let Kind::Histogram(quantile_help) = f.kind {
                let _ = writeln!(
                    out,
                    "# HELP {0}_quantile {quantile_help}\n# TYPE {0}_quantile gauge",
                    f.name
                );
                for s in &f.series {
                    if let Value::Histogram(h) = &s.value {
                        h.render_quantiles(&mut out, f.name, &f.exposition_labels(s));
                    }
                }
            }
        }
        out
    }

    /// The `GET /debug/stats` body, the dashboard's data feed: every
    /// family of the table as JSON (see the module docs).
    pub(crate) fn debug_stats(&self, snap: &Snapshot) -> Json {
        let family = |f: Family| {
            let value = match (f.labels, f.series.as_slice()) {
                ([], [only]) => only.value.to_json(),
                _ => Json::Arr(
                    f.series
                        .iter()
                        .map(|s| {
                            let mut fields: Vec<_> = f
                                .labels_of(s)
                                .map(|(k, v)| (k.to_owned(), Json::str(v)))
                                .collect();
                            match s.value.to_json() {
                                Json::Obj(summary) => fields.extend(summary),
                                value => fields.push(("value".to_owned(), value)),
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            };
            (f.name.trim_start_matches("rebert_").to_owned(), value)
        };
        Json::Obj(self.families(snap).into_iter().map(family).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> PipelineStats {
        PipelineStats {
            pairs_total: 10,
            pairs_filtered: 4,
            pairs_scored: 6,
            classes: 3,
            class_pairs_scored: 4,
            pairs_memoized: 2,
            cache_hits: 3,
            cache_misses: 1,
            pairs_per_sec: 123.5,
            backend: Backend::F32Scalar,
            tokenize_time: Duration::from_micros(800),
            filter_time: Duration::from_millis(3),
            score_time: Duration::from_millis(40),
            group_time: Duration::from_micros(90),
            elapsed: Duration::from_millis(44),
            warnings: Vec::new(),
        }
    }

    #[test]
    fn counters_and_gauges_move() {
        let m = Metrics::new();
        m.count_request("recover", "ok");
        m.count_request("recover", "ok");
        m.count_request("metrics", "ok");
        assert_eq!(m.request_count("recover", "ok"), 2);
        assert_eq!(m.request_count("metrics", "ok"), 1);
        assert_eq!(m.request_count("recover", "rejected"), 0);
        m.inflight.inc();
        assert_eq!(m.inflight.get(), 1);
        m.inflight.dec();
        m.inflight.dec(); // saturates
        assert_eq!(m.inflight.get(), 0);
    }

    #[test]
    fn recovery_stats_accumulate() {
        let m = Metrics::new();
        m.record_recovery(&sample_stats());
        m.record_recovery(&sample_stats());
        assert_eq!(m.pairs_scored_total.get(), 12);
        assert_eq!(m.class_pairs_scored_total.get(), 8);
        assert_eq!(m.pairs_memoized_total.get(), 4);
        assert_eq!(m.classes_total.get(), 6);
        assert_eq!(m.cache_hits_total.get(), 6);
        assert_eq!(m.cache_misses_total.get(), 2);
        let text = m.render(&Snapshot::default());
        assert!(text.contains("rebert_phase_seconds_count{phase=\"score\"} 2"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(500)); // ≤ 0.001
        h.observe(Duration::from_millis(50)); // ≤ 0.1
        h.observe(Duration::from_secs(120)); // +Inf only
        let mut out = String::new();
        h.render(&mut out, "x", "");
        let mut last = 0u64;
        let mut inf = 0u64;
        for line in out.lines() {
            if let Some(rest) = line.strip_prefix("x_bucket{") {
                let v: u64 = rest.split(' ').nth(1).unwrap().parse().unwrap();
                assert!(v >= last, "buckets must be cumulative: {out}");
                last = v;
                inf = v;
            }
        }
        assert_eq!(inf, 3, "+Inf bucket counts every observation");
        assert!(out.contains("x_count{} 3"));
    }

    #[test]
    fn render_emits_help_and_type_for_every_family() {
        let m = Metrics::new();
        m.count_request("recover", "ok");
        m.record_recovery(&sample_stats());
        let snap = Snapshot::default();
        let text = m.render(&snap);
        for family in m.families(&snap).iter().filter(|f| !f.series.is_empty()) {
            let name = family.name;
            assert!(
                text.contains(&format!("# HELP {name} {}\n", family.help)),
                "missing HELP for {name}"
            );
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing TYPE for {name}"
            );
        }
        assert!(text.contains("rebert_phase_seconds_bucket{phase=\"score\",le=\"+Inf\"} 1"));
        assert!(text.contains("rebert_phase_seconds_count{phase=\"total\"} 1"));
        assert!(text.contains("rebert_pairs_per_sec 123.5"));
        assert!(text.contains("rebert_backend_requests_total{backend=\"f32-scalar\"} 1"));
        assert!(text.contains("rebert_backend_requests_total{backend=\"int8\"} 0"));
        assert!(text.contains("rebert_backend_pairs_per_sec{backend=\"f32-scalar\"} 123.5"));
    }

    /// A registry giving each resident `cache_bytes` of score cache, with
    /// tiny `(name, seed)` models installed in order; returns each install.
    fn resident_registry(
        cache_bytes: usize,
        models: &[(&str, u64)],
    ) -> (ModelRegistry, Vec<Arc<ResidentModel>>) {
        let registry = ModelRegistry::new(rebert_registry::RegistryConfig {
            threads: 1,
            cache_bytes,
            cache_dir: None,
        });
        let tiny = |seed| rebert::ReBertModel::new(rebert::ReBertConfig::tiny(), seed);
        let installed = models
            .iter()
            .map(|&(name, seed)| registry.install(name, tiny(seed)))
            .collect();
        (registry, installed)
    }

    fn info_line(r: &ResidentModel) -> String {
        format!(
            "rebert_model_info{{name=\"{}\",version=\"{}\",fingerprint=\"{}\"}} 1",
            r.name(),
            r.version(),
            r.fingerprint_hex()
        )
    }

    #[test]
    fn cache_snapshot_and_model_info_series() {
        let m = Metrics::new();
        let (empty, _) = resident_registry(0, &[]);
        let text = m.render(&Snapshot::of_registry(&empty));
        assert!(!text.contains("rebert_model_info"), "nothing resident yet");
        let (registry, installed) =
            resident_registry(rebert::ScoreCache::ENTRY_BYTES, &[("default", 1)]);
        let cache = installed[0].cache().expect("caching is on");
        for (first, second) in [(1, 2), (3, 4)] {
            let key = rebert::ScoreCache::pair_key(
                cache.fingerprint(),
                Backend::F32Scalar,
                first,
                second,
            );
            cache.insert(key, 0.5);
        }
        let text = m.render(&Snapshot::of_registry(&registry));
        assert!(text.contains(&info_line(&installed[0])), "{text}");
        assert!(
            text.contains("rebert_cache_entries 1"),
            "one-entry budget evicts"
        );
        let bytes = rebert::ScoreCache::ENTRY_BYTES;
        assert!(text.contains(&format!("rebert_cache_bytes {bytes}")));
        let evictions = cache.evictions();
        assert!(text.contains(&format!("rebert_cache_evictions_total {evictions}")));
    }

    #[test]
    fn rebert_model_info_tracks_versions_per_name() {
        let models = [("default", 1), ("default", 2), ("lut", 3)];
        let (registry, installed) = resident_registry(0, &models);
        let text = Metrics::new().render(&Snapshot::of_registry(&registry));
        let info: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("rebert_model_info{"))
            .collect();
        // default v2 replaced v1, whose identity is gone; lut is v1.
        assert_eq!(info, [info_line(&installed[1]), info_line(&installed[2])]);
        assert_eq!((installed[1].version(), installed[2].version()), (2, 1));
    }

    #[test]
    fn tenant_counters_render_only_when_populated() {
        let m = Metrics::new();
        assert!(!m
            .render(&Snapshot::default())
            .contains("rebert_tenant_requests_total"));
        m.count_tenant("acme", "ok");
        m.count_tenant("acme", "ok");
        m.count_tenant("acme", "throttled");
        assert_eq!(m.tenant_count("acme", "ok"), 2);
        assert_eq!(m.tenant_count("acme", "throttled"), 1);
        assert_eq!(m.tenant_count("globex", "ok"), 0);
        let text = m.render(&Snapshot::default());
        assert!(text.contains("rebert_tenant_requests_total{tenant=\"acme\",outcome=\"ok\"} 2"));
        assert!(
            text.contains("rebert_tenant_requests_total{tenant=\"acme\",outcome=\"throttled\"} 1")
        );
        assert!(text.contains("# HELP rebert_throttled_total "));
        assert!(text.contains("# HELP rebert_batch_netlists_total "));
    }

    #[test]
    fn quantiles_interpolate_within_the_owning_bucket() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram reports zero");
        // Ten observations in the (0.02, 0.1] bucket: p50 ranks 5th of
        // 10, landing 50% into the bucket's width.
        for _ in 0..10 {
            h.observe(Duration::from_millis(50));
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 0.06).abs() < 1e-9, "p50 = {p50}");
        // p99 ranks ceil(9.9) = 10th of 10 — the top of the bucket.
        assert!((h.quantile(0.99) - 0.1).abs() < 1e-9);
        // A +Inf outlier clamps to the largest finite bound.
        h.observe(Duration::from_secs(600));
        assert_eq!(h.quantile(1.0), BUCKETS[BUCKETS.len() - 1]);
        // Quantiles never decrease in q.
        assert!(h.quantile(0.95) >= h.quantile(0.5));
    }

    #[test]
    fn every_histogram_family_renders_quantile_gauges() {
        let m = Metrics::new();
        m.record_recovery(&sample_stats());
        m.observe_request_duration("recover", Some("default"), Duration::from_millis(44));
        m.observe_request_duration("metrics", None, Duration::from_micros(300));
        let text = m.render(&Snapshot::default());
        for family in [
            "rebert_phase_seconds_quantile",
            "rebert_request_duration_seconds",
            "rebert_request_duration_seconds_quantile",
        ] {
            assert!(
                text.contains(&format!("# HELP {family} "))
                    && text.contains(&format!("# TYPE {family} ")),
                "missing HELP/TYPE for {family}"
            );
        }
        for (_, q, _) in QUANTILES {
            assert!(
                text.contains(&format!(
                    "rebert_phase_seconds_quantile{{phase=\"score\",quantile=\"{q}\"}}"
                )),
                "missing score p{q}: {text}"
            );
        }
        assert!(text.contains(
            "rebert_request_duration_seconds_bucket{endpoint=\"recover\",model=\"default\",le=\"0.1\"} 1"
        ));
        assert!(text.contains("rebert_request_duration_seconds_count{endpoint=\"metrics\"} 1"));
        assert!(text.contains(
            "rebert_request_duration_seconds_quantile{endpoint=\"recover\",model=\"default\",quantile=\"0.99\"}"
        ));
    }

    #[test]
    fn duration_series_are_queryable_and_snapshot() {
        let m = Metrics::new();
        let endpoints = |m: &Metrics| {
            let stats = m.debug_stats(&Snapshot::default());
            stats
                .get("request_duration_seconds")
                .map(Json::to_string)
                .unwrap_or_default()
        };
        assert_eq!(endpoints(&m), "[]");
        m.observe_request_duration("recover", Some("default"), Duration::from_millis(10));
        m.observe_request_duration("recover", Some("default"), Duration::from_millis(12));
        let series = endpoints(&m);
        let head = r#"[{"endpoint":"recover","model":"default","count":2,"p50":"#;
        assert!(series.starts_with(head), "{series}");
        assert!(series.ends_with(r#","p95":0.02,"p99":0.02}]"#), "{series}");
    }

    #[test]
    fn trace_dropped_snapshot_renders_as_counter() {
        let m = Metrics::new();
        let text = m.render(&Snapshot {
            trace_dropped: 7,
            ..Snapshot::default()
        });
        assert!(text.contains("# TYPE rebert_trace_dropped_total counter"));
        assert!(text.contains("rebert_trace_dropped_total 7"));
    }

    /// The scripted metrics and snapshot behind the pinned exposition:
    /// each backend once, fixed request durations, request and tenant
    /// counts, and every counter bumped a distinct number of times.
    fn scripted() -> (Metrics, Snapshot) {
        let m = Metrics::new();
        for backend in Backend::ALL {
            m.record_recovery(&PipelineStats {
                backend,
                ..sample_stats()
            });
        }
        for (endpoint, outcome, times) in [
            ("recover", "ok", 3),
            ("recover", "bad_request", 1),
            ("metrics", "ok", 2),
            ("stream", "cancelled", 1),
        ] {
            for _ in 0..times {
                m.count_request(endpoint, outcome);
            }
        }
        for (tenant, outcome, times) in [
            ("acme", "ok", 2),
            ("acme", "throttled", 1),
            ("globex", "ok", 1),
        ] {
            for _ in 0..times {
                m.count_tenant(tenant, outcome);
            }
        }
        for (endpoint, model, d) in [
            ("recover", Some("default"), Duration::from_millis(12)),
            ("recover", Some("aux"), Duration::from_millis(300)),
            ("metrics", None, Duration::from_micros(400)),
            ("stream", Some("default"), Duration::from_secs(3)),
        ] {
            m.observe_request_duration(endpoint, model, d);
        }
        m.inflight.inc();
        for (n, counter) in [
            &m.rejected_total,
            &m.deadline_total,
            &m.throttled_total,
            &m.batch_netlists_total,
            &m.pairs_scored_total,
            &m.class_pairs_scored_total,
            &m.pairs_memoized_total,
            &m.classes_total,
            &m.cache_hits_total,
            &m.cache_misses_total,
        ]
        .into_iter()
        .enumerate()
        {
            for _ in 0..=n {
                counter.inc();
            }
        }
        let snap = Snapshot {
            queue_depth: 2,
            queue_capacity: 32,
            trace_buffered: 5,
            trace_dropped: 1,
            residents: vec![
                Resident {
                    name: "aux".into(),
                    version: 3,
                    fingerprint: "00000000000000aa".into(),
                    cache_entries: 3,
                    cache_bytes: 96,
                    cache_evictions: 1,
                },
                Resident {
                    name: "default".into(),
                    version: 2,
                    fingerprint: "00000000000000bb".into(),
                    cache_entries: 10,
                    cache_bytes: 320,
                    cache_evictions: 4,
                },
            ],
        };
        (m, snap)
    }

    /// The whole exposition, byte for byte, against the text the same
    /// script rendered before the snapshot replaced the metric mirrors
    /// (`tests/fixtures/metrics.prom`).
    #[test]
    fn scripted_exposition_matches_the_fixture() {
        let (m, snap) = scripted();
        assert_eq!(
            m.render(&snap),
            include_str!("../tests/fixtures/metrics.prom")
        );
    }

    /// One exposition sample: name, unescaped labels in order, value.
    type Sample = (String, Vec<(String, String)>, f64);

    /// Parses every sample line of an exposition, unescaping label
    /// values (`\\`, `\"`, `\n`). Panics on a line a Prometheus scrape
    /// would reject: a bad escape, an unclosed value, a missing value.
    fn samples(text: &str) -> Vec<Sample> {
        let parse = |line: &str| {
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let value: f64 = value.parse().expect("numeric sample value");
            let Some((name, body)) = series.split_once('{') else {
                return (series.to_owned(), Vec::new(), value);
            };
            let (mut labels, mut chars) = (Vec::new(), body.chars());
            loop {
                let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
                assert_eq!(chars.next(), Some('"'), "`{key}` opens a value: {line}");
                let mut v = String::new();
                loop {
                    match chars.next().expect("label value closes") {
                        '"' => break,
                        '\\' => v.push(match chars.next() {
                            Some('n') => '\n',
                            Some(c @ ('\\' | '"')) => c,
                            other => panic!("bad escape {other:?}: {line}"),
                        }),
                        c => v.push(c),
                    }
                }
                labels.push((key, v));
                match chars.next() {
                    Some(',') => continue,
                    Some('}') => break,
                    other => panic!("expected `,` or `}}`, got {other:?}: {line}"),
                }
            }
            (name.to_owned(), labels, value)
        };
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(parse)
            .collect()
    }

    /// `/debug/stats` is the exposition as JSON. Over the scripted
    /// metrics: each family but the quantile companions is a key, in
    /// exposition order; each unlabelled sample and labelled series value
    /// is the JSON's; each histogram series' `count` is its `_count`
    /// sample and its `p50`/`p95`/`p99` its `_quantile` gauges.
    #[test]
    fn debug_stats_is_the_exposition_as_json() {
        let (m, snap) = scripted();
        let text = m.render(&snap);
        let stats = m.debug_stats(&snap);
        let types: Vec<(&str, &str)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE rebert_")?.split_once(' '))
            .collect();
        let families: Vec<&str> = types
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !name.ends_with("_quantile"))
            .collect();
        let Json::Obj(keys) = &stats else {
            panic!("one object: {stats}")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, families);
        let histograms: Vec<&str> = types
            .iter()
            .filter(|&&(_, kind)| kind == "histogram")
            .map(|&(name, _)| name)
            .collect();
        // The JSON series of `key` whose labels (its string fields) are
        // exactly `labels`.
        let series = |key: &str, labels: &[(String, String)]| {
            let all = stats.get(key).and_then(Json::as_array).expect("an array");
            let labels_of = |s: &Json| match s {
                Json::Obj(fields) => fields
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                    .collect::<Vec<_>>(),
                _ => panic!("a series is an object: {s}"),
            };
            let found = all.iter().find(|s| labels_of(s) == labels);
            found.unwrap_or_else(|| panic!("{key} has no series {labels:?}"))
        };
        let number = |json: Option<&Json>| json.and_then(Json::as_f64);
        let mut series_count = BTreeMap::<String, usize>::new();
        for (name, labels, value) in samples(&text) {
            let name = name.strip_prefix("rebert_").expect("rebert_ prefix");
            let histogram = histograms
                .iter()
                .find(|h| name.strip_prefix(**h).is_some_and(|s| s.starts_with('_')));
            let (key, field) = match histogram {
                Some(h) => (*h, &name[h.len()..]),
                None => (name, ""),
            };
            match field {
                "_bucket" | "_sum" => continue,
                "_quantile" => {
                    let (quantile, labels) = labels.split_last().expect("quantile label");
                    let (_, _, p) = QUANTILES
                        .iter()
                        .find(|(_, label, _)| *label == quantile.1)
                        .expect("a known quantile");
                    assert_eq!(number(series(key, labels).get(p)), Some(value), "{name}");
                    continue;
                }
                "_count" => {
                    assert_eq!(number(series(key, &labels).get("count")), Some(value));
                }
                "" if labels.is_empty() => {
                    assert_eq!(number(stats.get(key)), Some(value), "{name}");
                    continue;
                }
                "" => {
                    assert_eq!(number(series(key, &labels).get("value")), Some(value));
                }
                other => panic!("unexpected histogram sample suffix {other}"),
            }
            *series_count.entry(key.to_owned()).or_default() += 1;
        }
        for (key, n) in series_count {
            let all = stats.get(&key).and_then(Json::as_array).expect("an array");
            assert_eq!(
                all.len(),
                n,
                "{key} has one JSON series per exposition series"
            );
        }
    }

    #[test]
    fn backend_metrics_track_each_backend_separately() {
        let m = Metrics::new();
        let mut stats = sample_stats();
        m.record_recovery(&stats);
        stats.backend = Backend::Int8;
        stats.pairs_per_sec = 500.0;
        m.record_recovery(&stats);
        m.record_recovery(&stats);
        let samples = samples(&m.render(&Snapshot::default()));
        let value = |family: &str, backend: Backend| {
            let labels = [("backend".to_owned(), backend.label().to_owned())];
            let found = samples.iter().find(|(n, l, _)| n == family && *l == labels);
            found.map(|&(.., v)| v)
        };
        let requests = |b| value("rebert_backend_requests_total", b);
        assert_eq!(requests(Backend::F32Scalar), Some(1.0));
        assert_eq!(requests(Backend::Int8), Some(2.0));
        assert_eq!(requests(Backend::F32Simd), Some(0.0));
        let pairs_per_sec = |b| value("rebert_backend_pairs_per_sec", b);
        assert_eq!(pairs_per_sec(Backend::F32Scalar), Some(123.5));
        assert_eq!(pairs_per_sec(Backend::Int8), Some(500.0));
        assert_eq!(pairs_per_sec(Backend::F32Simd), Some(0.0));
    }

    /// A tenant is a request header, so its label value is escaped:
    /// each series parses back to exactly the tenant and outcome
    /// counted, with no label repeated. `/debug/stats` carries the raw
    /// string, which JSON's own escaping round-trips.
    #[test]
    fn tenant_label_values_are_escaped() {
        let tenants = ["acme\",outcome=\"ok", "back\\slash", "two\nlines"];
        let m = Metrics::new();
        for tenant in tenants {
            m.count_tenant(tenant, "ok");
        }
        let expected: Vec<Vec<(String, String)>> = tenants
            .iter()
            .map(|t| {
                vec![
                    ("tenant".into(), (*t).into()),
                    ("outcome".into(), "ok".into()),
                ]
            })
            .collect();
        let parsed: Vec<_> = samples(&m.render(&Snapshot::default()))
            .into_iter()
            .filter(|(name, ..)| name == "rebert_tenant_requests_total")
            .map(|(_, labels, _)| labels)
            .collect();
        assert_eq!(parsed, expected);
        let json = m.debug_stats(&Snapshot::default()).to_string();
        let stats = Json::parse(&json).expect("valid JSON");
        let series = stats.get("tenant_requests_total").and_then(Json::as_array);
        let raw: Vec<&str> = series
            .expect("an array")
            .iter()
            .filter_map(|s| s.get("tenant")?.as_str())
            .collect();
        assert_eq!(raw, tenants);
    }

    /// Past `MAX_TENANTS` distinct tenants, new ones share one series,
    /// as the quotas share a bounded bucket map: 1,500 tenants leave
    /// `MAX_TENANTS + 1` series, not 1,500.
    #[test]
    fn tenant_series_are_bounded() {
        let m = Metrics::new();
        let total = 1_500;
        for i in 0..total {
            m.count_tenant(&format!("tenant-{i}"), "ok");
        }
        let series = samples(&m.render(&Snapshot::default()))
            .into_iter()
            .filter(|(name, ..)| name == "rebert_tenant_requests_total")
            .count();
        assert_eq!(series, MAX_TENANTS + 1);
        let overflow = (total - MAX_TENANTS) as u64;
        assert_eq!(m.tenant_count(OVERFLOW_TENANT, "ok"), overflow);
        // A tenant counted before the bound keeps its own series.
        m.count_tenant("tenant-0", "throttled");
        assert_eq!(m.tenant_count("tenant-0", "throttled"), 1);
        assert_eq!(m.tenant_count(OVERFLOW_TENANT, "ok"), overflow);
    }
}
