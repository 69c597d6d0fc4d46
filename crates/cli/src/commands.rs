//! Implementation of the CLI subcommands.
//!
//! [`VERBS`] declares each verb once: its name, its handler and its help
//! entry. [`run`] checks a command line against the entry's usage lines,
//! and [`usage`] renders `rebert help` from the same rows.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rebert::{
    ari, load_model, save_model, train, training_samples, DatasetConfig, ReBertConfig, ReBertModel,
    RecoverOptions, ScoreCache, TrainConfig,
};
use rebert_circuits::{corrupt, generate, profile, Profile};
use rebert_netlist::{optimize, NetlistStats};
use rebert_structural::{recover_words, StructuralConfig};

use crate::args::Args;
use crate::io::{read_labels, read_netlist, write_labels, write_netlist};

/// Top-level CLI error: any subcommand failure with a printable message.
pub type CliError = Box<dyn std::error::Error>;

/// A lint report with errors: from `rebert lint`, or from a verb that
/// refused its input netlist. Carries the fully rendered report (human
/// or JSON, per `--json`) so `main` can print it to stdout — where
/// scripted consumers expect it — while still exiting non-zero.
#[derive(Debug)]
pub struct LintFailure {
    /// The rendered report body.
    pub body: String,
}

impl std::fmt::Display for LintFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.body)
    }
}

impl std::error::Error for LintFailure {}

/// A verb's handler: returns the text to print on success.
type Handler = fn(&Args) -> Result<String, CliError>;

/// Every verb in help order: its name, its handler and its help entry.
/// An entry is the verb's usage lines, a blank line, then what the verb
/// does. The usage lines list exactly the options and flags the verb
/// accepts ([`accepted`]).
const VERBS: &[(&str, Handler, &str)] = &[
    ("generate", cmd_generate, GENERATE),
    ("corrupt", cmd_corrupt, CORRUPT),
    ("optimize", cmd_optimize, OPTIMIZE),
    ("stats", cmd_stats, STATS),
    ("lint", cmd_lint, LINT),
    ("lint-src", cmd_lint_src, LINT_SRC),
    ("train", cmd_train, TRAIN),
    ("recover", cmd_recover, RECOVER),
    ("inspect", cmd_inspect, INSPECT),
    ("serve", cmd_serve, SERVE),
    ("submit", cmd_submit, SUBMIT),
    ("models", cmd_models, MODELS),
    ("batch", cmd_batch, BATCH),
    ("help", cmd_help, "Show this text."),
];

/// Dispatches a parsed command line. Returns the text to print on
/// success (kept out of `main` so commands are unit-testable).
pub fn run(args: &Args) -> Result<String, CliError> {
    let name = match args.command.as_str() {
        "--help" | "-h" => "help",
        name => name,
    };
    let (_, handler, help) = VERBS
        .iter()
        .find(|(verb, ..)| *verb == name)
        .ok_or_else(|| format!("unknown subcommand `{name}` (try `rebert help`)"))?;
    let (options, flags) = accepted(help);
    args.expect_only(&options, &flags)?;
    // Sinks go in only once the command line is known to be good; the
    // guard uninstalls them (and writes `--trace-out`) when the command
    // returns, success or failure.
    let _trace = crate::tracing::init(args)?;
    handler(args)
}

/// The option and flag names a help entry's usage lines list: a
/// `--name` followed by a value is an option, a bare `--name` a flag.
fn accepted(help: &'static str) -> (Vec<&'static str>, Vec<&'static str>) {
    let usage = help.split_once("\n\n").map_or("", |(usage, _)| usage);
    let (mut options, mut flags) = (Vec::new(), Vec::new());
    let mut words = usage.split_whitespace().peekable();
    while let Some(word) = words.next() {
        let Some(name) = word.trim_start_matches('[').strip_prefix("--") else {
            continue;
        };
        let bare = name.trim_end_matches(']');
        match words.peek() {
            Some(value) if bare == name && !value.starts_with(['[', '-']) => options.push(bare),
            _ => flags.push(bare),
        }
    }
    (options, flags)
}

/// The `rebert help` text, rendered from [`VERBS`].
pub fn usage() -> String {
    let mut out = String::from(
        "\
rebert — gate-level to word-level netlist reverse engineering

USAGE: rebert <command> [options]

COMMANDS
",
    );
    for (name, _, help) in VERBS {
        let mut lead = format!("  {name:<8}  ");
        for line in help.lines().filter(|line| !line.is_empty()) {
            out.push_str(&lead);
            out.push_str(line);
            out.push('\n');
            lead = " ".repeat(12);
        }
    }
    out.push_str(
        "
OBSERVABILITY (train / recover / serve / submit / batch)
  --log-level <error|warn|info|debug|trace>
            Mirror span and event records to stderr (the REBERT_LOG
            environment variable sets the same default).
  --trace-out <file.json>
            On exit, write a Chrome trace-event timeline of the run —
            pipeline phases, per-worker scoring batches, training
            epochs, served requests — loadable in Perfetto
            (https://ui.perfetto.dev) or chrome://tracing.

Unknown options and flags are rejected with a nearest-spelling hint.
",
    );
    out
}

fn cmd_help(_: &Args) -> Result<String, CliError> {
    Ok(usage())
}

fn parse_profile(args: &Args) -> Result<Profile, CliError> {
    let name = args.require("profile")?;
    if let Some(p) = profile(name) {
        return Ok(p);
    }
    if name == "custom" {
        let gates = args.get_or("gates", 200usize)?;
        let ffs = args.get_or("ffs", 32usize)?;
        let words = args.get_or("words", 6usize)?;
        return Ok(Profile::new("custom", gates, ffs, words));
    }
    Err(format!("unknown profile `{name}` (b03..b18 or `custom`)").into())
}

const GENERATE: &str = "\
--profile <b03|...|custom> --out <file[.bench|.v]>
[--seed N] [--gates N --ffs N --words N]

Generate a benchmark circuit; writes ground-truth labels to
<out>.labels.json.";

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let p = parse_profile(args)?;
    let seed = args.get_or("seed", 42u64)?;
    let out = Path::new(args.require("out")?);
    let circuit = generate(&p, seed);
    write_netlist(&circuit.netlist, out)?;
    let labels_path = out.with_extension("labels.json");
    write_labels(&circuit.labels, &labels_path)?;
    Ok(format!(
        "generated `{}`: {} gates, {} FFs, {} words -> {} (+ {})",
        p.name,
        circuit.netlist.gate_count(),
        circuit.netlist.dff_count(),
        circuit.labels.word_count(),
        out.display(),
        labels_path.display()
    ))
}

const CORRUPT: &str = "\
--in <file> --out <file> --r <0..1> [--seed N]

Apply R-Index equivalence-preserving gate replacement.";

fn cmd_corrupt(args: &Args) -> Result<String, CliError> {
    let input = read_netlist(Path::new(args.require("in")?))?;
    let r: f64 = args.get_or("r", 0.4)?;
    if !(0.0..=1.0).contains(&r) {
        return Err(format!("--r must be within [0, 1], got {r}").into());
    }
    let seed = args.get_or("seed", 1u64)?;
    let (bad, stats) = corrupt(&input, r, seed);
    let out = Path::new(args.require("out")?);
    write_netlist(&bad, out)?;
    Ok(format!(
        "corrupted {} / {} gates (R-Index {r}) -> {}",
        stats.replaced,
        stats.visited,
        out.display()
    ))
}

const OPTIMIZE: &str = "\
--in <file> --out <file>

Constant folding, buffer sweeping, dead-logic elimination.";

fn cmd_optimize(args: &Args) -> Result<String, CliError> {
    let input = read_netlist(Path::new(args.require("in")?))?;
    let (opt, stats) = optimize(&input);
    let out = Path::new(args.require("out")?);
    write_netlist(&opt, out)?;
    Ok(format!(
        "optimized: {} -> {} gates ({} folded, {} buffers swept, {} dead removed) -> {}",
        input.gate_count(),
        opt.gate_count(),
        stats.gates_folded,
        stats.buffers_swept,
        stats.dead_gates_removed,
        out.display()
    ))
}

const STATS: &str = "\
--in <file>

Print gate/FF/word-relevant statistics.";

fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let input = read_netlist(Path::new(args.require("in")?))?;
    let st = NetlistStats::of(&input);
    let mut out = format!("{st}\n");
    for (g, n) in &st.by_type {
        out.push_str(&format!("  {g:<5} {n}\n"));
    }
    Ok(out)
}

/// The report as `rebert lint` prints it (`--json` or human), as a
/// [`LintFailure`] when it fails: on errors, and under `deny_warnings`
/// on warnings too.
pub fn lint_verdict(
    report: &rebert_analyze::Report,
    json: bool,
    deny_warnings: bool,
) -> Result<String, CliError> {
    let body = if json {
        report.to_json().to_string()
    } else {
        report.render_human()
    };
    if report.fails(deny_warnings) {
        Err(Box::new(LintFailure { body }))
    } else {
        Ok(body)
    }
}

/// Parses `--deny`: absent is `false`, `warnings` is `true`, anything
/// else is a usage error.
fn parse_deny(args: &Args) -> Result<bool, CliError> {
    match args.get("deny") {
        None => Ok(false),
        Some("warnings") => Ok(true),
        Some(other) => Err(format!("--deny accepts only `warnings`, got `{other}`").into()),
    }
}

const LINT: &str = "\
--in <file> [--json] [--deny warnings] [--k N]
[--model <model.json>]

Run the static-analysis battery: undriven / multi-driven
nets, floating DFF inputs, combinational cycles (full path),
dead logic, foldable constants, cones truncated past k
levels. With --model, also audit vocabulary coverage and the
Jaccard pre-filter threshold against that checkpoint. Exits
non-zero on errors (or on warnings under --deny warnings);
--json renders machine-readable diagnostics.";

fn cmd_lint(args: &Args) -> Result<String, CliError> {
    let path = Path::new(args.require("in")?);
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let format = if crate::io::is_verilog(path) {
        rebert_analyze::SourceFormat::Verilog
    } else {
        rebert_analyze::SourceFormat::Bench
    };
    let deny_warnings = parse_deny(args)?;

    let mut opts = rebert_analyze::LintOptions::default();
    if let Some(model_path) = args.get("model") {
        // Pipeline checks are calibrated to the checkpoint that will
        // consume the netlist: its cone depth, code width, vocabulary
        // size, and Jaccard pre-filter threshold.
        let model = load_model(Path::new(model_path))?;
        let cfg = model.config();
        opts.k_levels = cfg.k_levels;
        opts.code_width = cfg.code_width;
        opts.jaccard_threshold = Some(cfg.jaccard_threshold);
        opts.vocab_rows = Some(model.vocab().len());
    }
    opts.k_levels = args.get_or("k", opts.k_levels)?;

    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("netlist");
    let report = match rebert_analyze::lint_source(name, &text, format) {
        Ok(nl) => rebert_analyze::lint_with(&nl, &opts),
        Err(report) => report,
    };

    lint_verdict(&report, args.flag("json"), deny_warnings)
}

const LINT_SRC: &str = "\
[--root <dir|file.rs>] [--json] [--deny warnings]

Run the concurrency-hygiene lints over Rust sources (default
--root .): raw std::sync::{Mutex,RwLock,Condvar} outside the
rebert-sync wrapper, Ordering::Relaxed stores, lock-result
.unwrap()/.expect() on the serve/registry request path, and
`static mut`. The walk skips a directory below the root whose
Cargo.toml opens a [workspace] of its own (perfbench/); pass
it as --root to lint it. Suppress a finding with an inline
`// rebert-lint: allow(<code>)` comment on the same or the
preceding line. Exit semantics match `lint`; diagnostics
carry file:line (also in --json).";

fn cmd_lint_src(args: &Args) -> Result<String, CliError> {
    let root = Path::new(args.get("root").unwrap_or("."));
    let deny_warnings = parse_deny(args)?;
    let report = rebert_analyze::lint_rust_tree(root)?;
    lint_verdict(&report, args.flag("json"), deny_warnings)
}

const TRAIN: &str = "\
--profiles <b03,b08,...> --model <out.json>
[--seed N] [--epochs N] [--cap N] [--k N]
[--log-level <level>] [--trace-out <file.json>]

Generate training benchmarks and fit a ReBERT model.";

fn cmd_train(args: &Args) -> Result<String, CliError> {
    let names = args.require("profiles")?;
    let seed = args.get_or("seed", 42u64)?;
    let circuits: Vec<_> = names
        .split(',')
        .map(|n| {
            profile(n.trim())
                .map(|p| generate(&p, seed ^ n.len() as u64))
                .ok_or_else(|| format!("unknown profile `{n}`"))
        })
        .collect::<Result<_, _>>()?;
    let refs: Vec<_> = circuits.iter().collect();

    let mut mcfg = ReBertConfig::small();
    mcfg.k_levels = args.get_or("k", 4usize)?;
    let mut dcfg = DatasetConfig::for_model(&mcfg);
    dcfg.max_per_circuit = args.get_or("cap", 700usize)?;
    dcfg.r_indexes = vec![0.0, 0.4, 0.8];
    let samples = training_samples(&refs, &dcfg, seed);

    let mut model = ReBertModel::new(mcfg, seed);
    let report = train(
        &mut model,
        &samples,
        &TrainConfig {
            epochs: args.get_or("epochs", 8usize)?,
            lr: 1e-3,
            batch_size: 16,
            seed,
            weight_decay: 0.01,
            warmup_frac: 0.1,
        },
    );
    let model_path = Path::new(args.require("model")?);
    save_model(&model, model_path)?;
    Ok(format!(
        "trained on {} samples (final loss {:.3}, accuracy {:.3}) -> {}",
        report.samples,
        report.epoch_losses.last().copied().unwrap_or(0.0),
        report.final_accuracy,
        model_path.display()
    ))
}

/// Parses a `--precision` value into a backend, with a usage error
/// naming the accepted labels.
fn parse_precision(args: &Args) -> Result<rebert::Backend, CliError> {
    match args.get("precision") {
        None => Ok(rebert::Backend::F32Scalar),
        Some(raw) => rebert::Backend::parse(raw).ok_or_else(|| {
            format!("--precision accepts `f32`, `f32-simd`, or `int8`, got `{raw}`").into()
        }),
    }
}

/// Creates the `--cache-dir` directory when one is given. Persisted
/// score caches inside it are named [`ScoreCache::file_name`], which
/// embeds the checkpoint fingerprint; the loader also checks the
/// fingerprint in the header, so a re-trained model starts cold instead
/// of reading stale scores.
fn ensure_cache_dir(args: &Args) -> Result<Option<PathBuf>, CliError> {
    let Some(dir) = args.get("cache-dir") else {
        return Ok(None);
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
    Ok(Some(dir.to_path_buf()))
}

/// One `<who> ARI: x.xxx` line scoring `assignment` against the labels'
/// `truth`, or an error naming both bit counts when the labels belong
/// to a design of another size.
fn ari_line(who: &str, truth: &[usize], assignment: &[usize]) -> Result<String, CliError> {
    if truth.len() != assignment.len() {
        return Err(format!(
            "the labels cover {} bits but the design has {}",
            truth.len(),
            assignment.len()
        )
        .into());
    }
    Ok(format!("{who} ARI: {:.3}\n", ari(truth, assignment)))
}

const RECOVER: &str = "\
--model <model.json> --in <file>
[--labels <labels.json>] [--baseline] [--threads N]
[--precision <f32|f32-simd|int8>]
[--cache-dir <dir>] [--cache-bytes N]
[--log-level <level>] [--trace-out <file.json>]

Recover words on the batched inference engine (--threads 0 =
all cores, the default); the quadratic phase deduplicates
structurally identical cones and scores each unique class
pair once; prints per-phase timings, pair throughput, and
cone-dedup counters; print ARI when labels are given;
--baseline also runs structural matching. --precision picks
the scoring backend: f32 (default, bitwise-reproducible),
f32-simd (runtime-dispatched AVX2/NEON kernels), or int8
(per-row quantized weights); unsupported choices fall back
to scalar and the resolved backend is printed. --cache-dir
persists the content-addressed score cache (keyed by the
checkpoint fingerprint) so an edited-and-resubmitted design
only re-scores the cones the edit touched; --cache-bytes
bounds it (default 64 MiB). Cached scores are bitwise
identical to fresh ones.";

fn cmd_recover(args: &Args) -> Result<String, CliError> {
    let model = load_model(Path::new(args.require("model")?))?;
    let input = read_netlist(Path::new(args.require("in")?))?;
    let threads = args.get_or("threads", RecoverOptions::default().threads)?;
    let backend = parse_precision(args)?;
    let k_levels = model.config().k_levels;

    // With --cache-dir the quadratic phase consults a persistent
    // content-addressed score cache keyed by the checkpoint fingerprint:
    // re-running on an edited design only re-scores the cone pairs the
    // edit touched, bitwise-identically to a cold run.
    let default_bytes = rebert_registry::RegistryConfig::default().cache_bytes;
    let cache_bytes = args.get_or("cache-bytes", default_bytes)?;
    let cache = ensure_cache_dir(args)?.map(|dir| {
        let path = dir.join(ScoreCache::file_name(model.fingerprint()));
        let cache = ScoreCache::load_or_new(&path, cache_bytes, model.fingerprint());
        (cache, path)
    });
    let opts = RecoverOptions {
        threads,
        backend,
        cache: cache.as_ref().map(|(cache, _)| cache),
        cancel: None,
    };
    let rec = model.recover(&input, &opts).expect("no cancel token");
    let s = &rec.stats;
    let mut out = format!(
        "{}: {} bits -> {} words ({} pairs scored, {} filtered, {:?})\n",
        input.name(),
        rec.assignment.len(),
        rec.words().len(),
        s.pairs_scored,
        s.pairs_filtered,
        s.elapsed
    );
    out.push_str(&format!(
        "  phases: tokenize {:?} | filter {:?} | score {:?} ({:.0} pairs/s, {} threads, {} backend) | group {:?}\n",
        s.tokenize_time,
        s.filter_time,
        s.score_time,
        s.pairs_per_sec,
        rebert::resolve_threads(threads),
        s.backend,
        s.group_time
    ));
    out.push_str(&format!(
        "  cone dedup: {} classes | {} class pairs scored | {} pairs memoized\n",
        s.classes, s.class_pairs_scored, s.pairs_memoized
    ));
    if let Some((cache, path)) = &cache {
        cache
            .flush(path)
            .map_err(|e| format!("cannot flush score cache `{}`: {e}", path.display()))?;
        out.push_str(&format!(
            "  score cache: {} hits | {} misses | {} entries resident -> {}\n",
            s.cache_hits,
            s.cache_misses,
            cache.len(),
            path.display()
        ));
    }
    for warning in &s.warnings {
        out.push_str(&format!("  warning: {warning}\n"));
    }
    let bits = input.bits();
    for (wi, word) in rec.words().iter().enumerate() {
        let names: Vec<&str> = word.iter().map(|&b| input.net_name(bits[b])).collect();
        out.push_str(&format!("  word {wi}: {names:?}\n"));
    }
    if let Some(labels_path) = args.get("labels") {
        let truth = read_labels(Path::new(labels_path))?.assignment();
        out.push_str(&ari_line("ReBERT", &truth, &rec.assignment)?);
        if args.flag("baseline") {
            let scfg = StructuralConfig {
                k_levels,
                threads,
                ..Default::default()
            };
            let srec = recover_words(&input, &scfg);
            out.push_str(&ari_line("Structural", &truth, &srec.assignment)?);
        }
    }
    Ok(out)
}

const INSPECT: &str = "\
--model <model.json> [--cache-dir <dir>]

Print a checkpoint's identity: architecture summary,
parameter count, vocabulary size, and the stable fingerprint
that keys the score cache and the serve /metrics info
series. Also reports whether a persisted
score-cache-<fingerprint>.bin exists (beside the checkpoint,
or under --cache-dir) and how many entries it holds.";

/// `rebert inspect`: print a checkpoint's identity without running
/// anything — architecture, parameter count, vocabulary size, and the
/// stable fingerprint that keys the score cache and the daemon's
/// `rebert_model_info` metrics series.
fn cmd_inspect(args: &Args) -> Result<String, CliError> {
    let path = Path::new(args.require("model")?);
    let model = load_model(path)?;
    let cfg = model.config();
    let mut params = 0usize;
    let mut tensors = 0usize;
    for (_, _, t) in model.store().iter() {
        params += t.data().len();
        tensors += 1;
    }
    let mut out = format!(
        "{}\n  fingerprint: {}\n  encoder: d_model {} | {} layers | {} heads | ff {} | max seq {}\n  pipeline: k-levels {} | code width {} | jaccard threshold {}\n  parameters: {params} floats across {tensors} tensors\n  vocabulary: {} tokens\n",
        path.display(),
        model.fingerprint_hex(),
        cfg.bert.d_model,
        cfg.bert.n_layers,
        cfg.bert.n_heads,
        cfg.bert.d_ff,
        cfg.max_seq,
        cfg.k_levels,
        cfg.code_width,
        cfg.jaccard_threshold,
        model.vocab().len(),
    );
    // Report the persisted score cache that would serve this checkpoint:
    // under --cache-dir when given, else beside the checkpoint itself.
    let cache_dir = args.get("cache-dir").map_or_else(
        || path.parent().unwrap_or(Path::new(".")).to_path_buf(),
        PathBuf::from,
    );
    let cache_path = cache_dir.join(ScoreCache::file_name(model.fingerprint()));
    match ScoreCache::peek_file(&cache_path) {
        Some(info) => out.push_str(&format!(
            "  score cache: {} ({} entries, {} bytes)\n",
            cache_path.display(),
            info.entries,
            info.bytes,
        )),
        None => out.push_str(&format!(
            "  score cache: none at {}\n",
            cache_path.display()
        )),
    }
    Ok(out)
}

const SERVE: &str = "\
--model <model.json> [--addr <host:port>] [--threads N]
[--queue N] [--deadline-ms N] [--web]
[--cache-bytes N] [--cache-dir <dir>] [--tenant-quota N]
[--log-level <level>] [--trace-out <file.json>]

Run the resident word-recovery daemon: the checkpoint loads
once and stays warm across requests. POST /recover accepts
.bench or Verilog bodies; GET /metrics exposes Prometheus
counters, queue depth, per-phase histograms, and score-cache
hit/miss/eviction series; a full queue answers 503 +
Retry-After; SIGTERM/SIGINT (or POST /shutdown) drains
in-flight work and exits cleanly. The daemon keeps a
cross-request score cache (--cache-bytes, default 64 MiB,
0 disables); with --cache-dir it persists across restarts
(stale-fingerprint files are ignored), so resubmits after a
restart are served warm. Requests may opt out per-call with
the X-Rebert-No-Cache header. The daemon hosts a model
registry: POST /models/<name>/load hot-swaps checkpoints
without dropping in-flight requests, and requests pick a
model with X-Rebert-Model. --tenant-quota N enforces a
per-tenant token bucket of N requests/second (keyed by
X-Rebert-Tenant; over-quota requests get 429 +
Retry-After). --web serves the embedded operator dashboard
at GET / (live stat tiles from /debug/stats, a streaming
phase waterfall, a recovered-word bit heatmap) — one
self-contained page, no build step or external assets.
Defaults: --addr 127.0.0.1:7878, --queue 32,
--deadline-ms 0 (unbounded), --tenant-quota off, --web off.";

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let model = load_model(Path::new(args.require("model")?))?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let mut registry = rebert_registry::RegistryConfig::default();
    let mut config = rebert_serve::ServeConfig::default();
    registry.threads = args.get_or("threads", registry.threads)?;
    config.queue_capacity = args.get_or("queue", config.queue_capacity)?;
    let deadline_ms = args.get_or("deadline-ms", 0u64)?;
    registry.cache_bytes = args.get_or("cache-bytes", registry.cache_bytes)?;
    registry.cache_dir = ensure_cache_dir(args)?;
    if let Some(raw) = args.get("tenant-quota") {
        let rate: f64 = raw
            .parse()
            .map_err(|_| format!("--tenant-quota expects requests/second, got `{raw}`"))?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!("--tenant-quota must be positive, got {rate}").into());
        }
        config.tenant_quota = Some(rate);
    }
    config.default_deadline =
        (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));
    config.web = args.flag("web");

    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    let registry = Arc::new(rebert_registry::ModelRegistry::new(registry));
    registry.install(rebert_registry::DEFAULT_MODEL, model);
    let (queue, web) = (config.queue_capacity, config.web);
    let server = rebert_serve::serve_registry(registry, listener, config)?;
    // Printed before the blocking drain loop so callers (and the CI
    // smoke test) can tell the daemon is up. The banner is only that
    // notice, so a reader that closed stdout does not stop the daemon:
    // a failed write is ignored.
    let _ = crate::io::write_line(&format_args!(
        "rebert-serve listening on {} (queue {queue})",
        server.addr()
    ));
    if web {
        let _ = crate::io::write_line(&format_args!("dashboard at http://{}/", server.addr()));
    }
    rebert_serve::run_until_shutdown(server);
    Ok("drained in-flight work, shut down cleanly".to_owned())
}

/// Builds the request options shared by `submit` and `batch` from the
/// common `--deadline-ms` / `--precision` / `--no-cache` / `--model` /
/// `--tenant` surface. Precision is validated locally so typos fail
/// before the network hop; the daemon re-validates anyway.
fn submit_options(
    args: &Args,
    format: Option<&str>,
) -> Result<rebert_serve::SubmitOptions, CliError> {
    let deadline_ms = args.get_or("deadline-ms", 0u64)?;
    let precision = parse_precision(args)?;
    Ok(rebert_serve::SubmitOptions {
        format: format.map(str::to_owned),
        deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
        precision: args.get("precision").map(|_| precision.label().to_owned()),
        use_cache: !args.flag("no-cache"),
        model: args.get("model").map(str::to_owned),
        tenant: args.get("tenant").map(str::to_owned),
        request_id: None,
    })
}

/// The daemon's 200 reply, or a CLI error saying what went wrong: the
/// transport, or the status, request id and body of a refusal. The
/// request id finds the daemon side of a failure in its logs and
/// `GET /debug/trace` output.
fn daemon_ok(
    addr: &str,
    reply: std::io::Result<rebert_serve::HttpReply>,
) -> Result<rebert_serve::HttpReply, CliError> {
    let reply = reply.map_err(|e| format!("cannot reach daemon at `{addr}`: {e}"))?;
    if reply.status != 200 {
        let request_id = reply.header("X-Rebert-Request-Id").unwrap_or("unknown");
        return Err(format!(
            "daemon answered {} (request {request_id}): {}",
            reply.status,
            reply.body_text().trim()
        )
        .into());
    }
    Ok(reply)
}

/// One human line per NDJSON stream record (`rebert submit --stream`),
/// or `None` for records with nothing to show.
fn render_stream_record(line: &str) -> Option<String> {
    let rec = rebert::json::Json::parse(line).ok()?;
    let text = |key: &str| {
        rec.get(key)
            .and_then(rebert::json::Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let num = |key: &str| rec.get(key).and_then(rebert::json::Json::as_u64);
    match text("type").as_str() {
        "meta" => Some(format!(
            "streaming request {} | design {} | {} bits | model {}",
            text("request_id"),
            text("design"),
            num("bits").unwrap_or(0),
            text("model_fingerprint"),
        )),
        "error" => Some(format!("daemon reported: {}", text("error"))),
        "progress" => {
            let phase = text("phase");
            match text("event").as_str() {
                "begin" => Some(format!("  [{phase}] started")),
                "end" => Some(format!("  [{phase}] done")),
                "scoring" => Some(format!(
                    "  [score] {}/{} pairs ({:.1}%)",
                    num("done").unwrap_or(0),
                    num("total").unwrap_or(0),
                    rec.get("percent")
                        .and_then(rebert::json::Json::as_f64)
                        .unwrap_or(0.0),
                )),
                "update" => {
                    let mut line = format!("  [{phase}] {}%", num("pct").unwrap_or(0));
                    if let (Some(hits), Some(misses)) = (num("cache_hits"), num("cache_misses")) {
                        line.push_str(&format!(" | cache {hits} hits / {misses} misses"));
                    }
                    Some(line)
                }
                _ => None,
            }
        }
        _ => None,
    }
}

const SUBMIT: &str = "\
--addr <host:port> --in <file> [--labels <labels.json>]
[--deadline-ms N] [--precision <f32|f32-simd|int8>]
[--no-cache] [--stream] [--model <name>] [--tenant <id>]
[--log-level <level>] [--trace-out <file.json>]

Send a netlist to a running daemon and print the recovered
words (ARI when labels are given); --precision rides along
as the X-Rebert-Precision header; --no-cache asks the
daemon to score from scratch (X-Rebert-No-Cache); --stream
uses POST /recover/stream and prints live per-phase
progress lines while the daemon works (the final result is
identical either way); --model picks a resident registry
model (X-Rebert-Model); --tenant attributes the request to
a quota bucket (X-Rebert-Tenant).";

fn cmd_submit(args: &Args) -> Result<String, CliError> {
    let addr = args.require("addr")?;
    let path = Path::new(args.require("in")?);
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let format = if crate::io::is_verilog(path) {
        "verilog"
    } else {
        "bench"
    };
    let opts = submit_options(args, Some(format))?;
    let reply = if args.flag("stream") {
        rebert_serve::submit_stream(addr, &text, &opts, |record| {
            // Progress lines are best-effort: if the reader has closed
            // stdout, the final print still reports the verdict.
            if let Some(line) = render_stream_record(record) {
                let _ = crate::io::write_line(&line);
            }
        })
    } else {
        rebert_serve::submit(addr, &text, &opts)
    };
    let reply = daemon_ok(addr, reply)?;
    if args.flag("stream") && reply.body.is_empty() {
        // A 200 stream that ends without a result record carried an
        // error record instead (deadline, executor loss) — already
        // printed above by the record callback.
        let request_id = reply.header("X-Rebert-Request-Id").unwrap_or("unknown");
        return Err(format!(
            "stream for request {request_id} ended without a result (see lines above)"
        )
        .into());
    }

    let json = rebert::json::Json::parse(&reply.body_text())
        .map_err(|e| format!("unparseable daemon reply: {e}"))?;
    let field = |key: &str| -> Result<&rebert::json::Json, CliError> {
        json.get(key)
            .ok_or_else(|| format!("daemon reply lacks `{key}`").into())
    };
    let bits = field("bits")?.as_usize().unwrap_or(0);
    let words = field("words")?
        .as_array()
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    let names = field("names")?
        .as_array()
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    let stats = field("stats")?;
    let stat = |key: &str| {
        stats
            .get(key)
            .and_then(rebert::json::Json::as_u64)
            .unwrap_or(0)
    };

    let mut out = format!(
        "{}: {} bits -> {} words ({} pairs scored, {} filtered, {}ms on the daemon, {} backend)\n",
        field("design")?.as_str().unwrap_or("?"),
        bits,
        words.len(),
        stat("pairs_scored"),
        stat("pairs_filtered"),
        stat("elapsed_us") / 1000,
        stats
            .get("backend")
            .and_then(rebert::json::Json::as_str)
            .unwrap_or("?"),
    );
    out.push_str(&format!(
        "  cone dedup: {} classes | {} class pairs scored | {} pairs memoized\n",
        stat("classes"),
        stat("class_pairs_scored"),
        stat("pairs_memoized")
    ));
    out.push_str(&format!(
        "  score cache: {} hits | {} misses (model {})\n",
        stat("cache_hits"),
        stat("cache_misses"),
        field("model_fingerprint")?.as_str().unwrap_or("?"),
    ));
    for warning in field("warnings")?.as_array().unwrap_or_default() {
        let warning = warning.as_str().unwrap_or("?");
        out.push_str(&format!("  warning: {warning}\n"));
    }
    for (wi, word) in words.iter().enumerate() {
        let members: Vec<&str> = word
            .as_array()
            .map(|bits| {
                bits.iter()
                    .filter_map(|b| b.as_usize())
                    .filter_map(|b| names.get(b).and_then(rebert::json::Json::as_str))
                    .collect()
            })
            .unwrap_or_default();
        out.push_str(&format!("  word {wi}: {members:?}\n"));
    }
    if let Some(labels_path) = args.get("labels") {
        let labels = read_labels(Path::new(labels_path))?;
        let assignment: Vec<usize> = field("assignment")?
            .as_array()
            .map(|a| a.iter().filter_map(|v| v.as_usize()).collect())
            .unwrap_or_default();
        if assignment.len() != bits {
            return Err("daemon reply assignment is malformed".into());
        }
        out.push_str(&ari_line("ReBERT", &labels.assignment(), &assignment)?);
    }
    Ok(out)
}

const MODELS: &str = "\
--addr <host:port> [--load <model.json> --name <name>]

List a daemon's resident models (name, version,
fingerprint, served counters, cache stats). With --load,
hot-load the checkpoint at that path (as seen by the
daemon) under --name instead: the new version is published
atomically and in-flight requests finish on the old one.";

/// `rebert models`: list a daemon's resident models, or hot-load a
/// checkpoint under a name (`--load <path> --name <name>`).
fn cmd_models(args: &Args) -> Result<String, CliError> {
    let addr = args.require("addr")?;
    if let Some(ckpt) = args.get("load") {
        let name = args.require("name")?;
        let reply = daemon_ok(addr, rebert_serve::load_model_remote(addr, name, ckpt))?;
        let json = rebert::json::Json::parse(&reply.body_text())
            .map_err(|e| format!("unparseable daemon reply: {e}"))?;
        let get_str = |key: &str| {
            json.get(key)
                .and_then(rebert::json::Json::as_str)
                .unwrap_or("?")
                .to_owned()
        };
        return Ok(format!(
            "loaded `{ckpt}` as {} v{} (fingerprint {}, swap {}us)\n",
            get_str("name"),
            json.get("version")
                .and_then(rebert::json::Json::as_u64)
                .unwrap_or(0),
            get_str("fingerprint"),
            json.get("swap_us")
                .and_then(rebert::json::Json::as_u64)
                .unwrap_or(0),
        ));
    }
    if args.get("name").is_some() {
        return Err("--name only makes sense with --load".into());
    }

    let reply = daemon_ok(addr, rebert_serve::list_models(addr))?;
    let json = rebert::json::Json::parse(&reply.body_text())
        .map_err(|e| format!("unparseable daemon reply: {e}"))?;
    let models = json
        .get("models")
        .and_then(rebert::json::Json::as_array)
        .ok_or("daemon reply lacks `models`")?;
    let mut out = String::new();
    for m in models {
        let s = |key: &str| {
            m.get(key)
                .and_then(rebert::json::Json::as_str)
                .unwrap_or("?")
        };
        let n = |key: &str| m.get(key).and_then(rebert::json::Json::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "{} v{} fingerprint {} ({} served)\n",
            s("name"),
            n("version"),
            s("fingerprint"),
            n("served_total"),
        ));
        if let Some(cache) = m.get("cache") {
            out.push_str(&format!(
                "  cache: {} entries | {} bytes | {} hits | {} misses\n",
                cache
                    .get("entries")
                    .and_then(rebert::json::Json::as_u64)
                    .unwrap_or(0),
                cache
                    .get("bytes")
                    .and_then(rebert::json::Json::as_u64)
                    .unwrap_or(0),
                cache
                    .get("hits")
                    .and_then(rebert::json::Json::as_u64)
                    .unwrap_or(0),
                cache
                    .get("misses")
                    .and_then(rebert::json::Json::as_u64)
                    .unwrap_or(0),
            ));
        }
    }
    let draining = json
        .get("retired_draining")
        .and_then(rebert::json::Json::as_u64)
        .unwrap_or(0);
    if draining > 0 {
        out.push_str(&format!("{draining} retired version(s) still draining\n"));
    }
    Ok(out)
}

const BATCH: &str = "\
--addr <host:port> --in <f1,f2,...> [--format <bench|verilog>]
[--model <name>] [--tenant <id>] [--deadline-ms N]
[--precision <f32|f32-simd|int8>] [--no-cache]
[--log-level <level>] [--trace-out <file.json>]

Pack the named netlist files into one POST /batch archive
and stream the daemon's per-netlist NDJSON results as they
finish; per-entry failures are reported inline without
aborting the rest of the batch.";

/// `rebert batch`: pack netlist files into one `POST /batch` archive
/// and print the per-netlist NDJSON results.
fn cmd_batch(args: &Args) -> Result<String, CliError> {
    let addr = args.require("addr")?;
    let mut entries: Vec<(String, String)> = Vec::new();
    for raw in args.require("in")?.split(',') {
        let path = Path::new(raw.trim());
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("netlist")
            .to_owned();
        entries.push((name, text));
    }
    if entries.is_empty() {
        return Err("--in lists no files".into());
    }
    let format = match args.get("format") {
        None | Some("bench" | "verilog") => args.get("format"),
        Some(other) => {
            return Err(format!("--format accepts `bench` or `verilog`, got `{other}`").into())
        }
    };
    let opts = submit_options(args, format)?;
    let archive =
        rebert_serve::batch_archive(entries.iter().map(|(n, t)| (n.as_str(), t.as_str())));
    let reply = daemon_ok(addr, rebert_serve::submit_batch(addr, &archive, &opts))?;

    let mut out = String::new();
    let mut failures = 0usize;
    let mut records = 0usize;
    for line in reply.body_text().lines().filter(|l| !l.trim().is_empty()) {
        let record = rebert::json::Json::parse(line)
            .map_err(|e| format!("unparseable batch record `{line}`: {e}"))?;
        records += 1;
        let name = record
            .get("name")
            .and_then(rebert::json::Json::as_str)
            .unwrap_or("?")
            .to_owned();
        let ok = record.get("ok").and_then(rebert::json::Json::as_bool) == Some(true);
        if ok {
            let words = record
                .get("words")
                .and_then(rebert::json::Json::as_array)
                .map_or(0, <[rebert::json::Json]>::len);
            let bits = record
                .get("bits")
                .and_then(rebert::json::Json::as_u64)
                .unwrap_or(0);
            out.push_str(&format!("{name}: {bits} bits -> {words} words\n"));
        } else {
            failures += 1;
            let error = record
                .get("error")
                .and_then(rebert::json::Json::as_str)
                .unwrap_or("unknown error");
            out.push_str(&format!("{name}: FAILED ({error})\n"));
        }
    }
    out.push_str(&format!(
        "{} netlists, {} ok, {} failed\n",
        records,
        records - failures,
        failures
    ));
    if failures > 0 {
        return Err(out.into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string())).expect("parse")
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rebert_cli_cmd_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// A file under `examples/fixtures`.
    fn fixture(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .join("examples/fixtures")
            .join(name)
    }

    /// A tiny model whose Jaccard threshold filters every pair, so each
    /// recovery warns that every bit became a singleton word.
    fn filter_everything_model() -> ReBertModel {
        let mut cfg = ReBertConfig::tiny();
        cfg.jaccard_threshold = 1.01;
        ReBertModel::new(cfg, 0)
    }

    /// Boots an in-process daemon on an ephemeral port serving a tiny
    /// model seeded with `seed` on one thread.
    fn boot_daemon(seed: u64) -> rebert_serve::Server {
        boot_daemon_with(ReBertModel::new(ReBertConfig::tiny(), seed))
    }

    /// Boots an in-process daemon on an ephemeral port serving `model`
    /// on one thread.
    fn boot_daemon_with(model: ReBertModel) -> rebert_serve::Server {
        let registry = Arc::new(rebert_registry::ModelRegistry::new(
            rebert_registry::RegistryConfig {
                threads: 1,
                ..rebert_registry::RegistryConfig::default()
            },
        ));
        registry.install(rebert_registry::DEFAULT_MODEL, model);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        rebert_serve::serve_registry(registry, listener, rebert_serve::ServeConfig::default())
            .unwrap()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("recover"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn generate_corrupt_optimize_stats_chain() {
        let bench = tmp("chain.bench");
        let out = run(&args(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "120",
            "--ffs",
            "16",
            "--words",
            "4",
            "--seed",
            "5",
            "--out",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("16 FFs"));
        assert!(bench.exists());
        assert!(tmp("chain.labels.json").exists());

        let bad = tmp("chain_bad.bench");
        let out = run(&args(&[
            "corrupt",
            "--in",
            bench.to_str().unwrap(),
            "--out",
            bad.to_str().unwrap(),
            "--r",
            "0.5",
        ]))
        .unwrap();
        assert!(out.contains("corrupted"));

        let opt = tmp("chain_opt.bench");
        let out = run(&args(&[
            "optimize",
            "--in",
            bad.to_str().unwrap(),
            "--out",
            opt.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("optimized"));

        let out = run(&args(&["stats", "--in", opt.to_str().unwrap()])).unwrap();
        assert!(out.contains("16 FFs"));
    }

    #[test]
    fn corrupt_rejects_bad_r() {
        let bench = tmp("badr.bench");
        run(&args(&[
            "generate",
            "--profile",
            "custom",
            "--ffs",
            "8",
            "--words",
            "2",
            "--gates",
            "50",
            "--out",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&args(&[
            "corrupt",
            "--in",
            bench.to_str().unwrap(),
            "--out",
            bench.to_str().unwrap(),
            "--r",
            "1.5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("within"));
    }

    #[test]
    fn unknown_profile_reported() {
        let err = run(&args(&[
            "generate",
            "--profile",
            "b99",
            "--out",
            tmp("x.bench").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown profile"));
    }

    #[test]
    fn typo_option_rejected_with_hint() {
        let err = run(&args(&["recover", "--modle", "m.json", "--in", "x.bench"])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown option --modle"), "{msg}");
        assert!(msg.contains("did you mean --model?"), "{msg}");
    }

    #[test]
    fn lint_clean_netlist_passes() {
        let bench = tmp("lint_clean.bench");
        std::fs::write(
            &bench,
            "INPUT(a)\nINPUT(b)\nx = AND(a, b)\nq = DFF(x)\nOUTPUT(q)\n",
        )
        .unwrap();
        let out = run(&args(&["lint", "--in", bench.to_str().unwrap()])).unwrap();
        assert!(out.contains("clean"), "{out}");
    }

    #[test]
    fn lint_errors_fail_with_the_rendered_report() {
        let bench = tmp("lint_undriven.bench");
        std::fs::write(&bench, "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n").unwrap();
        let err = run(&args(&["lint", "--in", bench.to_str().unwrap()])).unwrap_err();
        let lint = err
            .downcast_ref::<LintFailure>()
            .expect("lint failures carry their report");
        assert!(lint.body.contains("undriven-net"), "{}", lint.body);
        assert!(lint.body.contains("1 error"), "{}", lint.body);
    }

    #[test]
    fn lint_json_output_parses_with_rebert_json() {
        let bench = tmp("lint_json.bench");
        std::fs::write(&bench, "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n").unwrap();
        let err = run(&args(&["lint", "--in", bench.to_str().unwrap(), "--json"])).unwrap_err();
        let body = &err.downcast_ref::<LintFailure>().unwrap().body;
        let json = rebert::json::Json::parse(body).expect("lint --json emits valid JSON");
        assert_eq!(
            json.get("errors").and_then(rebert::json::Json::as_usize),
            Some(1)
        );
        let diags = json
            .get("diagnostics")
            .and_then(rebert::json::Json::as_array)
            .unwrap();
        assert_eq!(
            diags[0].get("code").and_then(rebert::json::Json::as_str),
            Some("undriven-net")
        );
    }

    #[test]
    fn lint_deny_warnings_promotes_warnings_to_failure() {
        let bench = tmp("lint_dead.bench");
        std::fs::write(
            &bench,
            "INPUT(a)\nINPUT(b)\nx = AND(a, b)\ndead = XOR(a, b)\nq = DFF(x)\nOUTPUT(q)\n",
        )
        .unwrap();
        // Plain lint: warning, exit 0.
        let out = run(&args(&["lint", "--in", bench.to_str().unwrap()])).unwrap();
        assert!(out.contains("dead-logic"), "{out}");
        // --deny warnings: same report, now a failure.
        let err = run(&args(&[
            "lint",
            "--in",
            bench.to_str().unwrap(),
            "--deny",
            "warnings",
        ]))
        .unwrap_err();
        assert!(err.downcast_ref::<LintFailure>().is_some());
        // Any other --deny value is a usage error, not a lint failure.
        let err = run(&args(&[
            "lint",
            "--in",
            bench.to_str().unwrap(),
            "--deny",
            "everything",
        ]))
        .unwrap_err();
        assert!(err.downcast_ref::<LintFailure>().is_none());
    }

    #[test]
    fn lint_src_fixture_reports_every_code_at_its_pinned_line() {
        // The seeded fixture carries one violation per source-lint code
        // at documented lines, plus a suppressed one that must not
        // appear. CI shells through the same path.
        let fixture = fixture("srclint_violations.rs");
        let err = run(&args(&[
            "lint-src",
            "--root",
            fixture.to_str().unwrap(),
            "--json",
        ]))
        .unwrap_err();
        let body = &err.downcast_ref::<LintFailure>().unwrap().body;
        let json = rebert::json::Json::parse(body).expect("lint-src --json emits valid JSON");
        let diags = json
            .get("diagnostics")
            .and_then(rebert::json::Json::as_array)
            .unwrap();
        let found: Vec<(Option<&str>, Option<usize>)> = diags
            .iter()
            .map(|d| {
                (
                    d.get("code").and_then(rebert::json::Json::as_str),
                    d.get("line").and_then(rebert::json::Json::as_usize),
                )
            })
            .collect();
        assert_eq!(
            found,
            vec![
                (Some("raw-sync-primitive"), Some(10)),
                (Some("relaxed-publication-store"), Some(13)),
                (Some("lock-result-unwrap"), Some(17)),
                (Some("static-mut"), Some(20)),
            ],
            "{body}"
        );
    }

    #[test]
    fn lint_src_workspace_is_clean_under_deny_warnings() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let out = run(&args(&[
            "lint-src",
            "--root",
            root.to_str().unwrap(),
            "--deny",
            "warnings",
        ]))
        .unwrap();
        assert!(out.contains("clean"), "{out}");
    }

    #[test]
    fn lint_with_model_audits_pipeline_settings() {
        let model_path = tmp("lint_model.json");
        save_model(&ReBertModel::new(ReBertConfig::tiny(), 0), &model_path).unwrap();
        let bench = tmp("lint_model.bench");
        std::fs::write(
            &bench,
            "INPUT(a)\nINPUT(b)\nx = AND(a, b)\ny = OR(a, x)\nq0 = DFF(x)\nq1 = DFF(y)\nOUTPUT(q0)\nOUTPUT(q1)\n",
        )
        .unwrap();
        let out = run(&args(&[
            "lint",
            "--in",
            bench.to_str().unwrap(),
            "--model",
            model_path.to_str().unwrap(),
        ]))
        .unwrap();
        // The tiny checkpoint's vocabulary covers every token and the
        // netlist is structurally sound, so at most calibration
        // warnings appear — never an error.
        assert!(!out.contains("error["), "{out}");
        assert!(!out.contains("vocab-oov"), "{out}");
    }

    #[test]
    fn every_command_rejects_unknown_options() {
        for cmd in [
            "generate", "corrupt", "optimize", "stats", "lint", "train", "recover", "inspect",
            "serve", "submit", "models", "batch",
        ] {
            let err = run(&args(&[cmd, "--no-such-option", "x"])).unwrap_err();
            assert!(
                err.to_string().contains("unknown option"),
                "`{cmd}` accepted a bogus option: {err}"
            );
        }
    }

    #[test]
    fn stray_flag_rejected() {
        let err = run(&args(&[
            "recover",
            "--model",
            "m.json",
            "--in",
            "x.bench",
            "--baselines",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("did you mean --baseline?"),
            "{err}"
        );
    }

    #[test]
    fn usage_lines_declare_the_accepted_options_and_flags() {
        assert_eq!(
            accepted(LINT),
            (vec!["in", "deny", "k", "model"], vec!["json"])
        );
        assert_eq!(
            accepted(GENERATE),
            (
                vec!["profile", "out", "seed", "gates", "ffs", "words"],
                vec![]
            )
        );
        let (options, flags) = accepted(SUBMIT);
        assert!(options.contains(&"trace-out") && options.contains(&"tenant"));
        assert_eq!(flags, vec!["no-cache", "stream"]);
        // The rendered help carries every row, usage first.
        let help = run(&args(&["help"])).unwrap();
        for (name, _, _) in VERBS {
            assert!(help.contains(&format!("\n  {name:<8}  ")), "{name}");
        }
        assert!(help.contains("  train     --profiles <b03,b08,...> --model <out.json>\n"));
        assert!(help.contains("[--cap N] [--k N]\n"));
    }

    #[test]
    fn rejected_command_line_installs_no_sink_and_writes_no_trace() {
        let trace = tmp("stats_rejected.trace.json");
        std::fs::remove_file(&trace).ok();
        let clean = fixture("clean.bench");
        let err = run(&args(&[
            "stats",
            "--in",
            clean.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown option --trace-out"),
            "{err}"
        );
        assert!(!trace.exists(), "a rejected command wrote its trace");
    }

    #[test]
    fn netlists_with_lint_errors_are_refused_with_the_lint_report() {
        let model_path = tmp("front_door.model.json");
        save_model(&ReBertModel::new(ReBertConfig::tiny(), 0), &model_path).unwrap();
        let out = tmp("front_door_opt.bench");
        for (file, code) in [
            ("undriven_net.bench", "undriven-net"),
            ("floating_dff.bench", "floating-dff-input"),
            ("comb_cycle.bench", "comb-cycle"),
        ] {
            let input = fixture(file);
            let input = input.to_str().unwrap();
            let model = model_path.to_str().unwrap();
            for argv in [
                vec!["recover", "--model", model, "--in", input],
                vec!["optimize", "--in", input, "--out", out.to_str().unwrap()],
            ] {
                let err = run(&args(&argv)).unwrap_err();
                let lint = err
                    .downcast_ref::<LintFailure>()
                    .unwrap_or_else(|| panic!("{argv:?}: not a lint report: {err}"));
                assert!(
                    lint.body.contains(&format!("error[{code}]")),
                    "{}",
                    lint.body
                );
            }
        }
    }

    #[test]
    fn labels_of_another_design_are_an_error_naming_both_counts() {
        let bench = tmp("labels_b03.bench");
        let other = tmp("labels_b08.bench");
        run(&args(&[
            "generate",
            "--profile",
            "b03",
            "--out",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "generate",
            "--profile",
            "b08",
            "--out",
            other.to_str().unwrap(),
        ]))
        .unwrap();
        let wrong_labels = tmp("labels_b08.labels.json");
        let model_path = tmp("labels.model.json");
        save_model(&ReBertModel::new(ReBertConfig::tiny(), 0), &model_path).unwrap();

        let err = run(&args(&[
            "recover",
            "--model",
            model_path.to_str().unwrap(),
            "--in",
            bench.to_str().unwrap(),
            "--labels",
            wrong_labels.to_str().unwrap(),
            "--threads",
            "1",
        ]))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("21") && msg.contains("30"), "{msg}");

        let server = boot_daemon(5);
        let addr = server.addr().to_string();
        let err = run(&args(&[
            "submit",
            "--addr",
            &addr,
            "--in",
            bench.to_str().unwrap(),
            "--labels",
            wrong_labels.to_str().unwrap(),
        ]))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("21") && msg.contains("30"), "{msg}");
        server.shutdown();
    }

    #[test]
    fn recovery_warnings_print_between_the_counters_and_the_words() {
        let circuit = rebert_circuits::generate(&Profile::new("warn", 90, 8, 2), 3);
        let bench = tmp("warn.bench");
        write_netlist(&circuit.netlist, &bench).unwrap();
        let model_path = tmp("warn.model.json");
        save_model(&filter_everything_model(), &model_path).unwrap();
        let server = boot_daemon_with(filter_everything_model());
        let addr = server.addr().to_string();

        let recovered = run(&args(&[
            "recover",
            "--model",
            model_path.to_str().unwrap(),
            "--in",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        let submitted = run(&args(&[
            "submit",
            "--addr",
            &addr,
            "--in",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        server.shutdown();
        for out in [recovered, submitted] {
            let lines: Vec<&str> = out.lines().collect();
            let at = |prefix: &str| {
                lines
                    .iter()
                    .position(|l| l.starts_with(prefix))
                    .unwrap_or_else(|| panic!("no `{prefix}` line:\n{out}"))
            };
            let warning = at("  warning: jaccard pre-filter removed all 28 bit pairs");
            assert!(at("  cone dedup:") < warning, "{out}");
            assert!(warning < at("  word 0:"), "{out}");
        }
    }

    #[test]
    fn serve_reports_bind_failures() {
        let model_path = tmp("serve_bind.model.json");
        save_model(&ReBertModel::new(ReBertConfig::tiny(), 0), &model_path).unwrap();
        let err = run(&args(&[
            "serve",
            "--model",
            model_path.to_str().unwrap(),
            "--addr",
            "256.0.0.1:99999",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("cannot bind"), "{err}");
    }

    #[test]
    fn submit_reports_unreachable_daemon() {
        let bench = tmp("submit_dead.bench");
        std::fs::write(&bench, "INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n").unwrap();
        let err = run(&args(&[
            "submit",
            "--addr",
            "127.0.0.1:1",
            "--in",
            bench.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("cannot reach daemon"), "{err}");
    }

    #[test]
    fn submit_round_trips_through_a_live_daemon() {
        // Boot an in-process daemon, then drive it through the exact
        // code path `rebert submit` users hit.
        let circuit = rebert_circuits::generate(&Profile::new("sub", 100, 8, 2), 11);
        let bench = tmp("submit_live.bench");
        let labels = tmp("submit_live.labels.json");
        write_netlist(&circuit.netlist, &bench).unwrap();
        write_labels(&circuit.labels, &labels).unwrap();

        let server = boot_daemon(2);
        let addr = server.addr().to_string();

        let out = run(&args(&[
            "submit",
            "--addr",
            &addr,
            "--in",
            bench.to_str().unwrap(),
            "--labels",
            labels.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("8 bits"), "{out}");
        assert!(out.contains("word 0:"), "{out}");
        assert!(out.contains("cone dedup:"), "{out}");
        assert!(out.contains("ReBERT ARI:"), "{out}");
        server.shutdown();
    }

    #[test]
    fn submit_errors_carry_the_daemon_request_id() {
        // A netlist that parses but fails the daemon's lint pre-flight
        // (undriven `ghost`): submit must surface the 422 *and* the
        // request id so the failure can be found in `/debug/trace`.
        let bench = tmp("submit_422.bench");
        std::fs::write(&bench, "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n").unwrap();

        let server = boot_daemon(3);
        let addr = server.addr().to_string();

        let err = run(&args(&[
            "submit",
            "--addr",
            &addr,
            "--in",
            bench.to_str().unwrap(),
        ]))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("daemon answered 422"), "{msg}");
        assert!(msg.contains("(request req-"), "{msg}");
        server.shutdown();
    }

    #[test]
    fn recover_precision_selects_backend_and_rejects_unknown_labels() {
        let bench = tmp("prec.bench");
        run(&args(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "100",
            "--ffs",
            "10",
            "--words",
            "3",
            "--seed",
            "12",
            "--out",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        let model_path = tmp("prec.model.json");
        save_model(&ReBertModel::new(ReBertConfig::tiny(), 0), &model_path).unwrap();

        let recover = |extra: &[&str]| {
            let mut v = vec![
                "recover",
                "--model",
                model_path.to_str().unwrap(),
                "--in",
                bench.to_str().unwrap(),
            ];
            v.extend_from_slice(extra);
            run(&args(&v))
        };
        // Default and explicit f32 report the scalar backend.
        let out = recover(&[]).unwrap();
        assert!(out.contains("f32-scalar backend"), "{out}");
        let out = recover(&["--precision", "f32"]).unwrap();
        assert!(out.contains("f32-scalar backend"), "{out}");
        // int8 always resolves to itself (quantization is host-independent).
        let out = recover(&["--precision", "int8"]).unwrap();
        assert!(out.contains("int8 backend"), "{out}");
        // SIMD reports whatever the host resolves to.
        let out = recover(&["--precision", "f32-simd"]).unwrap();
        let resolved = rebert::Backend::F32Simd.effective().label();
        assert!(out.contains(&format!("{resolved} backend")), "{out}");
        // Unknown labels are a usage error naming the accepted set.
        let err = recover(&["--precision", "bf16"]).unwrap_err();
        assert!(err.to_string().contains("--precision accepts"), "{err}");
    }

    #[test]
    fn submit_precision_rides_the_header_and_is_validated_locally() {
        let circuit = rebert_circuits::generate(&Profile::new("subp", 90, 8, 2), 17);
        let bench = tmp("submit_prec.bench");
        write_netlist(&circuit.netlist, &bench).unwrap();

        let server = boot_daemon(4);
        let addr = server.addr().to_string();

        let out = run(&args(&[
            "submit",
            "--addr",
            &addr,
            "--in",
            bench.to_str().unwrap(),
            "--precision",
            "int8",
        ]))
        .unwrap();
        assert!(out.contains("int8 backend"), "{out}");

        // A bad label never reaches the daemon.
        let err = run(&args(&[
            "submit",
            "--addr",
            "127.0.0.1:1",
            "--in",
            bench.to_str().unwrap(),
            "--precision",
            "fp8",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--precision accepts"), "{err}");
        server.shutdown();
    }

    #[test]
    fn inspect_prints_fingerprint_and_architecture() {
        let model_path = tmp("inspect.model.json");
        let model = ReBertModel::new(ReBertConfig::tiny(), 7);
        let fp = model.fingerprint_hex();
        save_model(&model, &model_path).unwrap();
        let out = run(&args(&["inspect", "--model", model_path.to_str().unwrap()])).unwrap();
        assert!(out.contains(&format!("fingerprint: {fp}")), "{out}");
        assert!(out.contains("d_model 16"), "{out}");
        assert!(out.contains("parameters:"), "{out}");
        assert!(out.contains("vocabulary:"), "{out}");
        // A different seed is a different checkpoint with a different
        // fingerprint, visibly.
        let other_path = tmp("inspect_other.model.json");
        save_model(&ReBertModel::new(ReBertConfig::tiny(), 8), &other_path).unwrap();
        let other = run(&args(&["inspect", "--model", other_path.to_str().unwrap()])).unwrap();
        assert!(!other.contains(&fp), "distinct weights, distinct identity");
    }

    #[test]
    fn inspect_reports_sibling_score_cache() {
        let dir = tmp("inspect_cache_dir");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("cacheable.model.json");
        let model = ReBertModel::new(ReBertConfig::tiny(), 9);
        let fingerprint = model.fingerprint();
        save_model(&model, &model_path).unwrap();

        // No cache file yet: inspect says so.
        let out = run(&args(&["inspect", "--model", model_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("score cache: none at"), "{out}");

        // Persist a small cache beside the checkpoint and re-inspect.
        let cache = rebert::ScoreCache::new(1 << 20, fingerprint);
        cache.insert(
            rebert::ScoreCache::pair_key(fingerprint, rebert::Backend::F32Scalar, 1, 2),
            0.5,
        );
        cache.insert(
            rebert::ScoreCache::pair_key(fingerprint, rebert::Backend::F32Scalar, 3, 4),
            -0.25,
        );
        let cache_path = dir.join(ScoreCache::file_name(fingerprint));
        cache.flush(&cache_path).unwrap();
        let out = run(&args(&["inspect", "--model", model_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("2 entries"), "{out}");
        assert!(!out.contains("score cache: none"), "{out}");

        // --cache-dir pointing elsewhere reports the miss there.
        let other = tmp("inspect_cache_other");
        std::fs::create_dir_all(&other).unwrap();
        let out = run(&args(&[
            "inspect",
            "--model",
            model_path.to_str().unwrap(),
            "--cache-dir",
            other.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("score cache: none at"), "{out}");
    }

    #[test]
    fn models_lists_and_hot_loads_through_a_live_daemon() {
        let model_path = tmp("models_v2.model.json");
        let v2 = ReBertModel::new(ReBertConfig::tiny(), 21);
        let v2_fp = v2.fingerprint_hex();
        save_model(&v2, &model_path).unwrap();

        let server = boot_daemon(20);
        let addr = server.addr().to_string();

        let out = run(&args(&["models", "--addr", &addr])).unwrap();
        assert!(out.contains("default v1"), "{out}");

        let out = run(&args(&[
            "models",
            "--addr",
            &addr,
            "--load",
            model_path.to_str().unwrap(),
            "--name",
            "default",
        ]))
        .unwrap();
        assert!(out.contains("default v2"), "{out}");
        assert!(out.contains(&v2_fp), "{out}");

        let out = run(&args(&["models", "--addr", &addr])).unwrap();
        assert!(out.contains("default v2"), "{out}");
        assert!(out.contains(&v2_fp), "{out}");

        // --name without --load is a usage error.
        let err = run(&args(&["models", "--addr", &addr, "--name", "x"])).unwrap_err();
        assert!(err.to_string().contains("--load"), "{err}");
        server.shutdown();
    }

    #[test]
    fn batch_round_trips_and_reports_per_entry_failures() {
        let good = rebert_circuits::generate(&Profile::new("bat", 90, 8, 2), 31);
        let good_path = tmp("batch_good.bench");
        write_netlist(&good.netlist, &good_path).unwrap();
        let bad_path = tmp("batch_bad.bench");
        std::fs::write(&bad_path, "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n").unwrap();

        let server = boot_daemon(22);
        let addr = server.addr().to_string();

        // All-good batch succeeds.
        let out = run(&args(&[
            "batch",
            "--addr",
            &addr,
            "--in",
            good_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("1 netlists, 1 ok, 0 failed"), "{out}");

        // A lint-failing entry is reported inline and turns the exit
        // non-zero, but the good entry still completes.
        let both = format!(
            "{},{}",
            good_path.to_str().unwrap(),
            bad_path.to_str().unwrap()
        );
        let err = run(&args(&["batch", "--addr", &addr, "--in", &both])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2 netlists, 1 ok, 1 failed"), "{msg}");
        assert!(msg.contains("batch_bad: FAILED"), "{msg}");
        assert!(msg.contains("batch_good:"), "{msg}");
        server.shutdown();
    }

    #[test]
    fn recover_cache_dir_persists_and_serves_hits_bitwise() {
        let bench = tmp("rcache.bench");
        run(&args(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "100",
            "--ffs",
            "10",
            "--words",
            "3",
            "--seed",
            "23",
            "--out",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        let model_path = tmp("rcache.model.json");
        save_model(&ReBertModel::new(ReBertConfig::tiny(), 5), &model_path).unwrap();
        let cache_dir = tmp("rcache_dir");
        std::fs::remove_dir_all(&cache_dir).ok();

        let recover = |cached: bool| {
            let mut v = vec![
                "recover",
                "--model",
                model_path.to_str().unwrap(),
                "--in",
                bench.to_str().unwrap(),
                "--threads",
                "1",
            ];
            if cached {
                v.extend_from_slice(&["--cache-dir", cache_dir.to_str().unwrap()]);
            }
            run(&args(&v)).unwrap()
        };

        let cold = recover(false);
        let first = recover(true);
        assert!(first.contains("score cache: 0 hits"), "{first}");
        let persisted: Vec<_> = std::fs::read_dir(&cache_dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            persisted.iter().any(|n| n.starts_with("score-cache-")),
            "{persisted:?}"
        );

        let second = recover(true);
        assert!(second.contains("| 0 misses"), "{second}");
        // Word output (and everything before the cache line) matches the
        // cache-free run exactly: the cache changes cost, never answers.
        let words = |out: &str| {
            out.lines()
                .filter(|l| l.trim_start().starts_with("word "))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(words(&cold), words(&first));
        assert_eq!(words(&cold), words(&second));
        assert!(!words(&cold).is_empty());
    }

    #[test]
    fn recover_prints_a_300k_bit_one_cone_word_within_seconds() {
        use std::fmt::Write as _;
        // Every flip-flop shares one cone: one class, one scored slot, one
        // word. A bit-pair matrix would need 45 G entries, and names looked
        // up through a fresh `bits()` per printed bit take minutes.
        const BITS: usize = 300_000;
        let bench = tmp("flood.bench");
        let mut text = String::from("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
        for i in 0..BITS {
            writeln!(text, "q{i} = DFF(g)").unwrap();
        }
        std::fs::write(&bench, text).unwrap();
        let model_path = tmp("flood.model.json");
        save_model(&ReBertModel::new(ReBertConfig::tiny(), 0), &model_path).unwrap();

        let start = std::time::Instant::now();
        let out = run(&args(&[
            "recover",
            "--model",
            model_path.to_str().unwrap(),
            "--in",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        let elapsed = start.elapsed();
        assert!(
            out.contains(&format!("{BITS} bits -> 1 words")),
            "{}",
            out.lines().next().unwrap_or_default()
        );
        let words: Vec<&str> = out
            .lines()
            .filter(|l| l.trim_start().starts_with("word "))
            .collect();
        assert_eq!(words.len(), 1);
        // A bit is named by its D net, which every flip-flop shares.
        assert_eq!(words[0].matches("\"g\"").count(), BITS);
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "took {elapsed:?}"
        );
    }

    #[test]
    fn recover_trace_out_writes_phase_spans() {
        let bench = tmp("trace.bench");
        run(&args(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "120",
            "--ffs",
            "12",
            "--words",
            "3",
            "--seed",
            "8",
            "--out",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        let model_path = tmp("trace.model.json");
        save_model(&ReBertModel::new(ReBertConfig::tiny(), 0), &model_path).unwrap();
        let trace_path = tmp("trace.json");

        let out = run(&args(&[
            "recover",
            "--model",
            model_path.to_str().unwrap(),
            "--in",
            bench.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("12 bits"), "{out}");

        let text = std::fs::read_to_string(&trace_path).unwrap();
        let json = rebert::json::Json::parse(&text).expect("trace parses with rebert::json");
        let events = json
            .get("traceEvents")
            .and_then(rebert::json::Json::as_array)
            .expect("traceEvents array")
            .to_vec();
        // All four pipeline phases appear as balanced duration spans.
        for phase in ["tokenize", "filter", "score", "group"] {
            for ph in ["B", "E"] {
                assert!(
                    events.iter().any(|e| {
                        e.get("name").and_then(rebert::json::Json::as_str) == Some(phase)
                            && e.get("ph").and_then(rebert::json::Json::as_str) == Some(ph)
                    }),
                    "missing {ph} event for phase `{phase}`"
                );
            }
        }
    }

    #[test]
    fn verilog_output_supported() {
        let v = tmp("gen.v");
        run(&args(&[
            "generate",
            "--profile",
            "custom",
            "--ffs",
            "8",
            "--words",
            "2",
            "--gates",
            "40",
            "--out",
            v.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&v).unwrap();
        assert!(text.starts_with("module"));
    }
}
