//! Model checkpointing: config + parameters as one JSON file.
//!
//! Serialization is hand-rolled on [`crate::json`] (same field layout as
//! the previous serde-derived schema, so old checkpoints stay loadable).
//!
//! Loading decodes the document in two phases, with no tree and no
//! allocation per scalar:
//!
//! 1. One walk with [`crate::json::Reader`] turns the config and the
//!    parameter names into small [`Json`] values and takes each tensor's
//!    `data` array as the raw text between its brackets
//!    ([`crate::json::Reader::flat_array`]), jumping to its `]` without
//!    reading a scalar.
//! 2. The spans are decoded on every core, each into a buffer sized to
//!    its literal count, by a strict one-pass decoder. It accepts exactly
//!    the JSON number grammar and returns exactly the bits of
//!    `str::parse::<f32>`: literals of at most 19 significant digits
//!    with a decimal exponent within ±22 take Clinger's exact `f64`
//!    path, and an `f64` on an `f32` rounding midpoint, as well as every
//!    other literal, goes to `str::parse`.
//!
//! A document the walk rejects, a `data` array that is not flat, or a
//! span the decoder rejects sends the whole document through the
//! element-wise route instead: one walk that reads each scalar as it
//! comes, as loading did before the split. The span route reports no
//! error of its own: every grammar error comes from the element-wise
//! walk, and content errors come from the same checks on either route,
//! so the messages do not depend on the route. Precedence holds on
//! both: a grammar error anywhere in the document wins over a content
//! error, the first grammar error is the one reported, and content
//! errors follow the order the fields are checked in. Keys may come in
//! any order, and unknown keys are skipped.
//!
//! Loading **validates** the stored parameter tensors against the
//! architecture the stored config implies. The model is built around the
//! stored tensors ([`rebert_nn::Loaded`]), so every tensor must exist, in
//! registration order, with the registered name and shape, and nothing is
//! sampled. A truncated or mismatched checkpoint fails with a descriptive
//! [`PersistError::Shape`] instead of panicking mid-forward. The model's
//! fingerprint is not computed at load; [`ReBertModel::fingerprint`]
//! computes it on first use.

use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

use rebert_nn::{LayoutError, Loaded, ParamStore};
use rebert_tensor::Tensor;

use crate::json::{Json, JsonError, Kind, Reader};
use crate::model::{EmbeddingFlags, ReBertConfig, ReBertModel};

/// Error raised when saving or loading a model checkpoint.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a well-formed checkpoint document.
    Format(String),
    /// The stored parameters do not match the architecture the stored
    /// config implies (wrong count, name, or tensor shape).
    Shape(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model checkpoint i/o error: {e}"),
            PersistError::Format(e) => write!(f, "model checkpoint format error: {e}"),
            PersistError::Shape(e) => write!(f, "model checkpoint shape error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn format_err(context: &str) -> PersistError {
    PersistError::Format(format!("missing or invalid `{context}`"))
}

/// Saves the model (configuration and all parameters) to `path`.
///
/// # Errors
///
/// Returns a [`PersistError`] on I/O failure.
pub fn save_model(model: &ReBertModel, path: impl AsRef<Path>) -> Result<(), PersistError> {
    std::fs::write(path, encode_checkpoint(model.config(), model.store()))?;
    // Warm the content fingerprint while the encoded form is hot in
    // cache — saving is exactly the moment callers want it reported.
    model.fingerprint();
    Ok(())
}

/// Renders a checkpoint document; streamed into one string rather than
/// building a [`Json`] tree (stores hold hundreds of thousands of
/// scalars).
pub(crate) fn encode_checkpoint(config: &ReBertConfig, store: &ParamStore) -> String {
    let mut out = String::with_capacity(64 + store.scalar_count() * 10);
    out.push_str("{\"config\":");
    out.push_str(&encode_config(config).to_string());
    out.push_str(",\"store\":{\"names\":[");
    for (i, (_, name, _)) in store.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::json::write_json_string(&mut out, name).expect("writing to String");
    }
    out.push_str("],\"tensors\":[");
    for (i, (_, _, t)) in store.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (rows, cols) = t.shape();
        write!(out, "{{\"rows\":{rows},\"cols\":{cols},\"data\":[").expect("writing to String");
        for (j, v) in t.data().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            if v.is_finite() {
                write!(out, "{v}").expect("writing to String");
            } else {
                out.push_str("null");
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}}");
    out
}

fn encode_config(cfg: &ReBertConfig) -> Json {
    Json::Obj(vec![
        (
            "bert".to_owned(),
            Json::Obj(vec![
                ("d_model".to_owned(), Json::uint(cfg.bert.d_model as u64)),
                ("n_heads".to_owned(), Json::uint(cfg.bert.n_heads as u64)),
                ("n_layers".to_owned(), Json::uint(cfg.bert.n_layers as u64)),
                ("d_ff".to_owned(), Json::uint(cfg.bert.d_ff as u64)),
            ]),
        ),
        ("max_seq".to_owned(), Json::uint(cfg.max_seq as u64)),
        ("code_width".to_owned(), Json::uint(cfg.code_width as u64)),
        ("k_levels".to_owned(), Json::uint(cfg.k_levels as u64)),
        (
            "jaccard_threshold".to_owned(),
            Json::num(cfg.jaccard_threshold),
        ),
        (
            "embeddings".to_owned(),
            Json::Obj(vec![
                ("word".to_owned(), Json::Bool(cfg.embeddings.word)),
                ("position".to_owned(), Json::Bool(cfg.embeddings.position)),
                ("tree".to_owned(), Json::Bool(cfg.embeddings.tree)),
            ]),
        ),
    ])
}

fn decode_usize(doc: &Json, ctx: &str) -> Result<usize, PersistError> {
    doc.as_usize().ok_or_else(|| format_err(ctx))
}

fn decode_config(doc: &Json) -> Result<ReBertConfig, PersistError> {
    let bert = doc.get("bert").ok_or_else(|| format_err("config.bert"))?;
    let emb = doc
        .get("embeddings")
        .ok_or_else(|| format_err("config.embeddings"))?;
    let field = |obj: &Json, name: &str, ctx: &str| -> Result<usize, PersistError> {
        decode_usize(obj.get(name).ok_or_else(|| format_err(ctx))?, ctx)
    };
    let flag = |name: &str| -> Result<bool, PersistError> {
        emb.get(name)
            .and_then(Json::as_bool)
            .ok_or_else(|| format_err(&format!("config.embeddings.{name}")))
    };
    let mut cfg = ReBertConfig::tiny();
    cfg.bert.d_model = field(bert, "d_model", "config.bert.d_model")?;
    cfg.bert.n_heads = field(bert, "n_heads", "config.bert.n_heads")?;
    cfg.bert.n_layers = field(bert, "n_layers", "config.bert.n_layers")?;
    cfg.bert.d_ff = field(bert, "d_ff", "config.bert.d_ff")?;
    cfg.max_seq = field(doc, "max_seq", "config.max_seq")?;
    cfg.code_width = field(doc, "code_width", "config.code_width")?;
    cfg.k_levels = field(doc, "k_levels", "config.k_levels")?;
    cfg.jaccard_threshold = doc
        .get("jaccard_threshold")
        .and_then(Json::as_f64)
        .ok_or_else(|| format_err("config.jaccard_threshold"))?;
    cfg.embeddings = EmbeddingFlags {
        word: flag("word")?,
        position: flag("position")?,
        tree: flag("tree")?,
    };
    // Mirror the constructor's invariants as errors instead of panics,
    // so a tampered config cannot abort the loading process.
    if !(cfg.embeddings.word || cfg.embeddings.position || cfg.embeddings.tree) {
        return Err(PersistError::Format(
            "config enables no embedding scheme".to_owned(),
        ));
    }
    if cfg.code_width < 2 || !cfg.code_width.is_multiple_of(2) {
        return Err(PersistError::Format(format!(
            "config code_width {} is not a positive even number",
            cfg.code_width
        )));
    }
    if cfg.bert.n_heads == 0
        || cfg.bert.d_model == 0
        || !cfg.bert.d_model.is_multiple_of(cfg.bert.n_heads)
        || cfg.max_seq == 0
    {
        return Err(PersistError::Format(format!(
            "config dimensions are inconsistent (d_model {}, n_heads {}, max_seq {})",
            cfg.bert.d_model, cfg.bert.n_heads, cfg.max_seq
        )));
    }
    Ok(cfg)
}

/// How a walk takes each tensor's `data` array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// As one raw span, decoded on every core after the walk.
    Spans,
    /// Element by element, as the walk reads it.
    Elements,
}

/// The document as walked.
struct RawDoc<'a> {
    config: Option<Json>,
    store: Option<RawStore<'a>>,
}

/// `store` as walked: the names stay a small [`Json`] value.
#[derive(Default)]
struct RawStore<'a> {
    names: Option<Json>,
    /// `None` when absent or not an array.
    tensors: Option<Vec<RawTensor<'a>>>,
}

/// One `store.tensors` entry as walked.
#[derive(Default)]
struct RawTensor<'a> {
    rows: Option<Json>,
    cols: Option<Json>,
    /// On the span route, the text between the `data` array's brackets,
    /// which phase two decodes into `data`.
    span: Option<&'a str>,
    /// `None` when absent or not an array. On the element-wise route an
    /// element that is not a number reads as NaN and sets `non_number`,
    /// so it still counts toward the declared shape.
    data: Option<Vec<f32>>,
    non_number: bool,
}

/// Walks the whole document once, taking each `data` array by `route`.
/// Content problems are kept for [`decode_checkpoint`], so a grammar
/// error later in the document still takes precedence.
fn walk(text: &str, route: Route) -> Result<RawDoc<'_>, JsonError> {
    let mut doc = RawDoc {
        config: None,
        store: None,
    };
    let mut r = Reader::new(text);
    if r.peek() == Some(Kind::Obj) {
        r.object(|r, key| {
            match key {
                "config" => doc.config = Some(r.value()?),
                "store" => doc.store = Some(RawStore::read(r, route)?),
                _ => drop(r.value()?),
            }
            Ok(())
        })?;
    } else {
        r.value()?;
    }
    r.finish()?;
    Ok(doc)
}

/// Reads the document's tensor data by spans when it can and element by
/// element otherwise (see the module docs), and says which route it took.
fn read_checkpoint(text: &str) -> (Result<RawDoc<'_>, JsonError>, Route) {
    if let Ok(mut doc) = walk(text, Route::Spans) {
        if doc.decode_spans() {
            return (Ok(doc), Route::Spans);
        }
    }
    (walk(text, Route::Elements), Route::Elements)
}

impl RawDoc<'_> {
    /// Phase two: decodes every span on all cores, one tensor per claim.
    /// `false` if a span holds anything but comma-separated number
    /// literals.
    fn decode_spans(&mut self) -> bool {
        let Some(tensors) = self.store.as_mut().and_then(|s| s.tensors.as_mut()) else {
            return true;
        };
        let spans: Vec<&str> = tensors.iter().filter_map(|t| t.span).collect();
        let decoded =
            crate::par::par_map_batched(&spans, 0, 1, || (), |(), span| decode_span(span));
        let mut decoded = decoded.into_iter();
        for tensor in tensors.iter_mut().filter(|t| t.span.is_some()) {
            match decoded.next().flatten() {
                Some(data) => tensor.data = Some(data),
                None => return false,
            }
        }
        true
    }
}

impl<'a> RawStore<'a> {
    fn read(r: &mut Reader<'a>, route: Route) -> Result<RawStore<'a>, JsonError> {
        let mut raw = RawStore::default();
        if r.peek() != Some(Kind::Obj) {
            r.value()?;
            return Ok(raw);
        }
        r.object(|r, key| {
            match key {
                "names" => raw.names = Some(r.value()?),
                "tensors" if r.peek() == Some(Kind::Arr) => {
                    let mut tensors = Vec::new();
                    r.array(|r| {
                        tensors.push(RawTensor::read(r, route)?);
                        Ok(())
                    })?;
                    raw.tensors = Some(tensors);
                }
                _ => drop(r.value()?),
            }
            Ok(())
        })?;
        Ok(raw)
    }

    /// Checks the walked store in the order the fields are declared and
    /// builds the [`ParamStore`].
    fn into_store(self) -> Result<ParamStore, PersistError> {
        let names = self
            .names
            .as_ref()
            .and_then(Json::as_array)
            .ok_or_else(|| format_err("store.names"))?;
        let tensors = self.tensors.ok_or_else(|| format_err("store.tensors"))?;
        if names.len() != tensors.len() {
            return Err(PersistError::Format(format!(
                "store has {} names but {} tensors",
                names.len(),
                tensors.len()
            )));
        }
        let mut store = ParamStore::new();
        for (i, (name, tensor)) in names.iter().zip(tensors).enumerate() {
            let name = name
                .as_str()
                .ok_or_else(|| format_err(&format!("store.names[{i}]")))?;
            let rows = decode_usize(
                tensor
                    .rows
                    .as_ref()
                    .ok_or_else(|| format_err(&format!("store.tensors[{i}].rows")))?,
                "rows",
            )?;
            let cols = decode_usize(
                tensor
                    .cols
                    .as_ref()
                    .ok_or_else(|| format_err(&format!("store.tensors[{i}].cols")))?,
                "cols",
            )?;
            let data = tensor
                .data
                .ok_or_else(|| format_err(&format!("store.tensors[{i}].data")))?;
            if rows.checked_mul(cols) != Some(data.len()) {
                return Err(PersistError::Format(format!(
                    "tensor `{name}` declares {rows}x{cols} but holds {} scalars",
                    data.len()
                )));
            }
            if tensor.non_number {
                return Err(format_err(&format!("tensor `{name}` data")));
            }
            store.add(name, Tensor::from_vec(rows, cols, data));
        }
        Ok(store)
    }
}

impl<'a> RawTensor<'a> {
    fn read(r: &mut Reader<'a>, route: Route) -> Result<RawTensor<'a>, JsonError> {
        let mut raw = RawTensor::default();
        if r.peek() != Some(Kind::Obj) {
            r.value()?;
            return Ok(raw);
        }
        r.object(|r, key| {
            match key {
                "rows" => raw.rows = Some(r.value()?),
                "cols" => raw.cols = Some(r.value()?),
                "data" if r.peek() == Some(Kind::Arr) && route == Route::Spans => {
                    raw.span = Some(r.flat_array()?);
                }
                "data" if r.peek() == Some(Kind::Arr) => {
                    let mut data = Vec::new();
                    r.array(|r| {
                        // `str::parse::<f32>` on the literal, exactly as
                        // `Json::as_f32` reads it, so every bit matches.
                        let v = if r.peek() == Some(Kind::Num) {
                            r.number()?.parse().ok()
                        } else {
                            r.value()?;
                            None
                        };
                        data.push(v.unwrap_or_else(|| {
                            raw.non_number = true;
                            f32::NAN
                        }));
                        Ok(())
                    })?;
                    // The model keeps this buffer for its lifetime.
                    data.shrink_to_fit();
                    raw.data = Some(data);
                }
                _ => drop(r.value()?),
            }
            Ok(())
        })?;
        Ok(raw)
    }
}

/// Moves `i` past JSON whitespace.
fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// Decodes the text between a flat array's brackets into a buffer sized
/// to its literal count, or `None` unless it is comma-separated JSON
/// number literals (JSON whitespace allowed around each) or whitespace
/// alone.
fn decode_span(span: &str) -> Option<Vec<f32>> {
    let b = span.as_bytes();
    let mut i = skip_ws(b, 0);
    if i == b.len() {
        return Some(Vec::new());
    }
    let count = b.iter().filter(|&&c| c == b',').count() + 1;
    let mut data = Vec::with_capacity(count);
    loop {
        let start = i;
        data.push(match scan_number(b, &mut i) {
            Literal::Exact(v) => v,
            Literal::Slow => span[start..i].parse().ok()?,
            Literal::Invalid => return None,
        });
        i = skip_ws(b, i);
        match b.get(i) {
            None => break,
            Some(b',') => i = skip_ws(b, i + 1),
            Some(_) => return None,
        }
    }
    debug_assert_eq!(data.len(), count, "one literal between commas");
    Some(data)
}

/// `10^k` for `k` in `0..=22`, the powers of ten an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// What the one-pass decoder makes of a literal.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Literal {
    /// Decoded on Clinger's exact `f64` path.
    Exact(f32),
    /// A JSON number off that path: more than 19 significant digits, a
    /// mantissa above 2^53, a decimal exponent beyond ±22, or an `f64`
    /// on an `f32` rounding midpoint. `str::parse` decodes it.
    Slow,
    /// Not a JSON number.
    Invalid,
}

/// Decodes one JSON number literal to exactly the `f32` `str::parse`
/// gives, or `None` if `literal` is not a JSON number: the per-literal
/// view of [`decode_span`] that the property tests hold to `str::parse`.
#[cfg(test)]
fn decode_f32(literal: &str) -> Option<f32> {
    let mut end = 0;
    match scan_number(literal.as_bytes(), &mut end) {
        _ if end != literal.len() => None,
        Literal::Exact(v) => Some(v),
        Literal::Slow => literal.parse().ok(),
        Literal::Invalid => None,
    }
}

/// Reads the JSON number (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
/// that starts at `b[*i]` in one pass, leaving `*i` at its end, and
/// decodes it on Clinger's exact path when that applies. There the
/// mantissa (at most 19 significant digits, at most 2^53) and the power
/// of ten (at most 10^22) are exact `f64`s, so one multiply or divide
/// rounds the literal's value correctly to `f64`. Rounding that to `f32`
/// is correct too unless it landed on an `f32` midpoint, where the
/// literal may lie on either side of it (see
/// `midpoint_rounding_goes_to_str_parse`).
fn scan_number(b: &[u8], i: &mut usize) -> Literal {
    /// Appends a run of digits to `mantissa`, wrapping past 19 digits
    /// (the caller counts them), and returns the run's end.
    fn digit_run(b: &[u8], mut j: usize, mantissa: &mut u64) -> usize {
        while let Some(&c @ b'0'..=b'9') = b.get(j) {
            *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            j += 1;
        }
        j
    }
    let mut j = *i;
    let negative = b.get(j) == Some(&b'-');
    j += usize::from(negative);
    let (mut mantissa, mut digits, mut exp) = (0u64, 0usize, 0i64);
    match b.get(j) {
        Some(b'0') => j += 1,
        Some(b'1'..=b'9') => {
            let start = j;
            j = digit_run(b, j, &mut mantissa);
            digits = j - start;
        }
        _ => return Literal::Invalid,
    }
    if b.get(j) == Some(&b'.') {
        let start = j + 1;
        j = start;
        if mantissa == 0 {
            // Leading zeros only move the exponent.
            while b.get(j) == Some(&b'0') {
                j += 1;
            }
        }
        let significant = j;
        j = digit_run(b, j, &mut mantissa);
        if j == start {
            return Literal::Invalid;
        }
        digits += j - significant;
        exp -= (j - start) as i64;
    }
    if matches!(b.get(j), Some(b'e' | b'E')) {
        j += 1;
        let negative_exp = b.get(j) == Some(&b'-');
        j += usize::from(matches!(b.get(j), Some(b'+' | b'-')));
        let start = j;
        let mut e = 0i64;
        while let Some(&c @ b'0'..=b'9') = b.get(j) {
            // Saturates far beyond any exponent the exact path takes.
            e = (e * 10 + i64::from(c - b'0')).min(1 << 40);
            j += 1;
        }
        if j == start {
            return Literal::Invalid;
        }
        exp += if negative_exp { -e } else { e };
    }
    *i = j;
    if digits > 19 || mantissa > 1 << 53 || exp.unsigned_abs() > 22 {
        return Literal::Slow;
    }
    let power = POW10[exp.unsigned_abs() as usize];
    let v = if exp < 0 {
        mantissa as f64 / power
    } else {
        mantissa as f64 * power
    };
    // The 29 low bits an `f64` drops on the way to `f32` (every nonzero
    // value here, 1e-22 to 2^53 · 1e22, is a normal `f32`).
    if v.to_bits() & ((1 << 29) - 1) == 1 << 28 {
        return Literal::Slow;
    }
    let v = v as f32;
    Literal::Exact(if negative { -v } else { v })
}

/// Decodes a checkpoint document (see the module docs for the two
/// phases and the fallback). The config and the parameter names stay
/// small [`Json`] values; tensor data is never built as a tree. Any
/// grammar error (including duplicate keys, nesting depth and trailing
/// bytes) wins over a content error, wherever each sits in the document.
fn decode_checkpoint(text: &str) -> Result<(ReBertConfig, ParamStore), PersistError> {
    let doc = read_checkpoint(text)
        .0
        .map_err(|e| PersistError::Format(e.to_string()))?;
    let config = decode_config(doc.config.as_ref().ok_or_else(|| format_err("config"))?)?;
    let store = doc.store.ok_or_else(|| format_err("store"))?.into_store()?;
    Ok((config, store))
}

/// Builds the model the stored config describes around the stored
/// tensors, checking each slot's name and shape against the ones the
/// config registers there (shared by [`load_model`] and tests).
pub(crate) fn install_checkpoint(
    config: ReBertConfig,
    store: ParamStore,
) -> Result<ReBertModel, PersistError> {
    let mut loaded = Loaded::new(store);
    let model = ReBertModel::build(config, &mut loaded);
    loaded.finish(model.store()).map_err(|e| match e {
        LayoutError::Count { stored, registered } => PersistError::Shape(format!(
            "checkpoint holds {stored} parameter tensors but the stored config \
             (vocab {}, hidden {}, {} heads, {} layers) requires {registered}",
            model.vocab().len(),
            model.config().bert.d_model,
            model.config().bert.n_heads,
            model.config().bert.n_layers,
        )),
        LayoutError::Name {
            slot,
            stored,
            registered,
        } => PersistError::Shape(format!(
            "parameter {slot} is named `{stored}` in the checkpoint but the \
             config registers `{registered}` at that slot"
        )),
        LayoutError::Shape {
            name,
            stored,
            registered,
        } => PersistError::Shape(format!(
            "parameter `{name}` has shape {stored:?} in the checkpoint but \
             the config requires {registered:?}"
        )),
    })?;
    Ok(model)
}

/// Loads a model saved by [`save_model`]: reconstructs the architecture
/// from the stored configuration around the stored tensors, checking
/// that each has the name and shape that architecture registers.
///
/// # Errors
///
/// Returns a [`PersistError`] on I/O failure, malformed JSON
/// ([`PersistError::Format`]), or a config/parameter mismatch
/// ([`PersistError::Shape`]).
pub fn load_model(path: impl AsRef<Path>) -> Result<ReBertModel, PersistError> {
    let text = std::fs::read_to_string(path)?;
    let (config, store) = decode_checkpoint(&text)?;
    install_checkpoint(config, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{PairSequence, Token};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rebert_persist_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn demo_pair(cfg: &ReBertConfig) -> PairSequence {
        let toks = vec![Token::X, Token::X, Token::X];
        let codes = vec![vec![0.0; cfg.code_width]; 3];
        PairSequence::build(&toks, &codes, &toks, &codes, cfg.code_width, 64)
    }

    #[test]
    fn save_load_preserves_predictions() {
        let cfg = ReBertConfig::tiny();
        let model = ReBertModel::new(cfg.clone(), 99);
        let pair = demo_pair(&cfg);
        let before = model.predict(&pair);

        let path = tmp("model.json");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.predict(&pair), before);
        assert_eq!(loaded.config(), model.config());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fingerprint_survives_save_load_and_tracks_weights() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 17);
        let fp = model.fingerprint();
        assert_eq!(model.fingerprint(), fp, "fingerprint is cached, stable");
        assert_eq!(model.fingerprint_hex(), format!("{fp:016x}"));

        // Round-tripping through a checkpoint preserves the fingerprint
        // (it hashes exactly the bytes save_model writes).
        let path = tmp("fingerprint.json");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.fingerprint(), fp);
        std::fs::remove_file(path).ok();

        // Different seeds → different weights → different fingerprints.
        let other = ReBertModel::new(ReBertConfig::tiny(), 18);
        assert_ne!(other.fingerprint(), fp);

        // A weight update invalidates the cached fingerprint.
        let mut model = model;
        let id = model.store().iter().next().expect("non-empty store").0;
        model.store_mut().get_mut(id).data_mut()[0] += 1.0;
        assert_ne!(model.fingerprint(), fp, "stale fingerprint dropped");
    }

    #[test]
    fn load_missing_file_errors() {
        let err = load_model("/nonexistent/rebert/model.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn garbage_file_reports_format_error() {
        let path = tmp("garbage.json");
        std::fs::write(&path, "{\"config\": nonsense").unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_tensor_reports_format_error() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 4);
        let path = tmp("truncated.json");
        save_model(&model, &path).unwrap();
        // Drop one scalar from the first tensor's data array.
        let text = std::fs::read_to_string(&path).unwrap();
        let data = text.find("\"data\":[").expect("tensor data") + "\"data\":[".len();
        let comma = text[data..].find(',').expect("more than one scalar") + data;
        let tampered = format!("{}{}", &text[..data], &text[comma + 1..]);
        std::fs::write(&path, tampered).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
        assert!(err.to_string().contains("scalars"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn config_store_mismatch_reports_shape_error() {
        // Regression: a checkpoint whose config says `d_ff: 32` but whose
        // tensors were trained at `d_ff: 64` must fail at load with a
        // descriptive shape error, not panic mid-forward.
        let mut big = ReBertConfig::tiny();
        big.bert.d_ff *= 2;
        let model = ReBertModel::new(big, 7);
        let path = tmp("mismatch.json");
        save_model(&model, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let wrong = text.replacen(
            &format!("\"d_ff\":{}", model.config().bert.d_ff),
            &format!("\"d_ff\":{}", model.config().bert.d_ff / 2),
            1,
        );
        assert_ne!(wrong, text, "tamper must hit the config");
        std::fs::write(&path, wrong).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(matches!(err, PersistError::Shape(_)), "{err}");
        assert!(err.to_string().contains("shape"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn layer_count_mismatch_reports_tensor_count() {
        let mut deep = ReBertConfig::tiny();
        deep.bert.n_layers += 1;
        let donor = ReBertModel::new(ReBertConfig::tiny(), 1);
        // Claim the deeper config over the shallow model's tensors.
        let err = install_checkpoint(deep, donor.store().clone()).unwrap_err();
        assert!(matches!(err, PersistError::Shape(_)), "{err}");
        assert!(err.to_string().contains("requires"), "{err}");
    }

    #[test]
    fn renamed_parameter_rejected() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 2);
        let mut store = ParamStore::new();
        for (i, (_, name, t)) in model.store().iter().enumerate() {
            let name = if i == 0 { "emb.bogus" } else { name };
            store.add(name, t.clone());
        }
        let err = install_checkpoint(ReBertConfig::tiny(), store).unwrap_err();
        assert!(matches!(err, PersistError::Shape(_)), "{err}");
        assert!(err.to_string().contains("emb.bogus"), "{err}");
    }

    // ---- loader parity: the streaming decode against the tree decode ----

    /// The tree-based `store` decode `load_model` ran before it streamed
    /// the document, kept as the reference the streaming loader must
    /// match.
    fn reference_store(doc: &Json) -> Result<ParamStore, PersistError> {
        let names = doc
            .get("names")
            .and_then(Json::as_array)
            .ok_or_else(|| format_err("store.names"))?;
        let tensors = doc
            .get("tensors")
            .and_then(Json::as_array)
            .ok_or_else(|| format_err("store.tensors"))?;
        if names.len() != tensors.len() {
            return Err(PersistError::Format(format!(
                "store has {} names but {} tensors",
                names.len(),
                tensors.len()
            )));
        }
        let mut store = ParamStore::new();
        for (i, (name, tensor)) in names.iter().zip(tensors).enumerate() {
            let name = name
                .as_str()
                .ok_or_else(|| format_err(&format!("store.names[{i}]")))?;
            let rows = decode_usize(
                tensor
                    .get("rows")
                    .ok_or_else(|| format_err(&format!("store.tensors[{i}].rows")))?,
                "rows",
            )?;
            let cols = decode_usize(
                tensor
                    .get("cols")
                    .ok_or_else(|| format_err(&format!("store.tensors[{i}].cols")))?,
                "cols",
            )?;
            let data = tensor
                .get("data")
                .and_then(Json::as_array)
                .ok_or_else(|| format_err(&format!("store.tensors[{i}].data")))?;
            if data.len() != rows * cols {
                return Err(PersistError::Format(format!(
                    "tensor `{name}` declares {rows}x{cols} but holds {} scalars",
                    data.len()
                )));
            }
            let mut flat = Vec::with_capacity(data.len());
            for v in data {
                flat.push(
                    v.as_f32()
                        .ok_or_else(|| format_err(&format!("tensor `{name}` data")))?,
                );
            }
            store.add(name, Tensor::from_vec(rows, cols, flat));
        }
        Ok(store)
    }

    fn reference_load(text: &str) -> Result<ReBertModel, PersistError> {
        let doc = Json::parse(text).map_err(|e| PersistError::Format(e.to_string()))?;
        let config = decode_config(doc.get("config").ok_or_else(|| format_err("config"))?)?;
        let store = reference_store(doc.get("store").ok_or_else(|| format_err("store"))?)?;
        install_checkpoint(config, store)
    }

    fn streaming_load(text: &str) -> Result<ReBertModel, PersistError> {
        let (config, store) = decode_checkpoint(text)?;
        install_checkpoint(config, store)
    }

    /// Whether `text` should decode by spans: it parses, and every `data`
    /// array the loader reaches holds numbers only.
    fn expect_spans(text: &str) -> bool {
        let Ok(doc) = Json::parse(text) else {
            return false;
        };
        let tensors = doc
            .get("store")
            .and_then(|s| s.get("tensors"))
            .and_then(Json::as_array)
            .unwrap_or_default();
        tensors
            .iter()
            .filter_map(|t| t.get("data").and_then(Json::as_array))
            .all(|data| data.iter().all(|v| matches!(v, Json::Num(_))))
    }

    /// Asserts that `text` took the route [`expect_spans`] predicts, and
    /// that every tensor buffer it decoded is exactly its length.
    fn check_route(case: &str, text: &str) -> Route {
        let (doc, route) = read_checkpoint(text);
        let want = if expect_spans(text) {
            Route::Spans
        } else {
            Route::Elements
        };
        assert_eq!(route, want, "{case}");
        let tensors = doc.ok().and_then(|d| d.store).and_then(|s| s.tensors);
        for data in tensors.iter().flatten().filter_map(|t| t.data.as_ref()) {
            assert_eq!(data.capacity(), data.len(), "{case}: decode buffer");
        }
        route
    }

    /// Asserts that both loaders accept `text` with bitwise-equal stores
    /// and equal fingerprints, or both reject it with the same error.
    /// Returns whether it was accepted.
    fn check_parity(case: &str, text: &str) -> bool {
        let bits = |m: &ReBertModel| -> Vec<(String, (usize, usize), Vec<u32>)> {
            m.store()
                .iter()
                .map(|(_, name, t)| {
                    let data = t.data().iter().map(|v| v.to_bits()).collect();
                    (name.to_owned(), t.shape(), data)
                })
                .collect()
        };
        match (reference_load(text), streaming_load(text)) {
            (Ok(want), Ok(got)) => {
                assert_eq!(got.config(), want.config(), "{case}");
                assert!(bits(&got) == bits(&want), "{case}: stores differ");
                assert_eq!(got.fingerprint(), want.fingerprint(), "{case}");
                true
            }
            (Err(want), Err(got)) => {
                assert_eq!(
                    std::mem::discriminant(&got),
                    std::mem::discriminant(&want),
                    "{case}: streaming `{got}`, reference `{want}`"
                );
                assert_eq!(got.to_string(), want.to_string(), "{case}");
                false
            }
            (want, got) => panic!(
                "{case}: reference {:?}, streaming {:?}",
                want.err(),
                got.err()
            ),
        }
    }

    /// SplitMix64: the variant generator's stream.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn fields(v: &mut Json) -> &mut Vec<(String, Json)> {
        match v {
            Json::Obj(fields) => fields,
            other => panic!("not an object: {other}"),
        }
    }

    fn items(v: &mut Json) -> &mut Vec<Json> {
        match v {
            Json::Arr(items) => items,
            other => panic!("not an array: {other}"),
        }
    }

    fn field<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
        let fields = fields(v);
        &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
    }

    fn tensor(doc: &mut Json, i: usize) -> &mut Json {
        &mut items(field(field(doc, "store"), "tensors"))[i]
    }

    fn data(doc: &mut Json, i: usize) -> &mut Vec<Json> {
        items(field(tensor(doc, i), "data"))
    }

    fn nested(depth: usize) -> Json {
        (0..depth).fold(Json::uint(1), |inner, _| Json::Arr(vec![inner]))
    }

    /// `v` laid out one member per line with mixed whitespace.
    fn pretty(v: &Json, indent: usize, out: &mut String) {
        let pad = |out: &mut String, n: usize| {
            out.push_str("\r\n");
            out.push_str(&" \t".repeat(n));
        };
        match v {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    pad(out, indent + 1);
                    pretty(item, indent + 1, out);
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (key, item)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    pad(out, indent + 1);
                    out.push_str(&Json::str(key.as_str()).to_string());
                    out.push_str(" :\t");
                    pretty(item, indent + 1, out);
                }
                pad(out, indent);
                out.push('}');
            }
            leaf => out.push_str(&leaf.to_string()),
        }
    }

    /// Variant `kind` of the checkpoint `doc`, with positions drawn from
    /// `rng`.
    fn variant(kind: usize, doc: &Json, rng: &mut SplitMix64) -> (String, String) {
        let mut doc = doc.clone();
        let n_tensors = items(field(field(&mut doc, "store"), "tensors")).len();
        let t = rng.below(n_tensors);
        let j = rng.below(data(&mut doc, t).len());
        let name = match kind {
            0 => "as saved",
            1 => {
                fields(&mut doc).reverse();
                "store before config"
            }
            2 => {
                for i in 0..n_tensors {
                    fields(tensor(&mut doc, i)).rotate_right(1);
                }
                "data before rows"
            }
            3 => {
                for i in 0..n_tensors {
                    let f = fields(tensor(&mut doc, i));
                    let k = rng.below(3);
                    f.swap(k, rng.below(3));
                    f.rotate_left(rng.below(3));
                }
                fields(field(&mut doc, "store")).reverse();
                "every key order shuffled"
            }
            4 => {
                let extra = Json::Obj(vec![("a".into(), Json::Arr(vec![Json::Null]))]);
                let at = rng.below(3);
                fields(&mut doc).insert(at, ("comment".into(), Json::str("x")));
                fields(field(&mut doc, "config")).push(("extra".into(), extra.clone()));
                fields(field(&mut doc, "store")).insert(0, ("extra".into(), extra.clone()));
                fields(tensor(&mut doc, t)).insert(rng.below(4), ("data2".into(), extra));
                "unknown keys"
            }
            5 => {
                let mut out = String::from(" \n");
                pretty(&doc, 0, &mut out);
                return ("pretty-printed".into(), out + "\n\t ");
            }
            6 => {
                for v in data(&mut doc, t).iter_mut() {
                    let x = v.as_f32().expect("saved scalar");
                    *v = Json::Num(match rng.below(4) {
                        0 => format!("{x:e}"),
                        1 => format!("{x:E}").replace("E", "E+").replace("E+-", "E-"),
                        2 if x == 0.0 => "-0".to_owned(),
                        _ => format!("{x:.9e}"),
                    });
                }
                "exponent literals"
            }
            7 => {
                let d = data(&mut doc, t);
                d[j] = Json::Num(["-0", "-0.0", "0e0", "-0E+5"][rng.below(4)].to_owned());
                "negative zero"
            }
            8 => {
                let (key, value) = match rng.below(4) {
                    0 => ("config", Json::Null),
                    1 => ("rows", Json::uint(1)),
                    2 => ("names", Json::Arr(vec![])),
                    _ => ("d_model", Json::uint(16)),
                };
                let obj = match key {
                    "config" => &mut doc,
                    "rows" => tensor(&mut doc, t),
                    "names" => field(&mut doc, "store"),
                    _ => field(field(&mut doc, "config"), "bert"),
                };
                fields(obj).push((key.to_owned(), value));
                "duplicate key"
            }
            9 => {
                data(&mut doc, t)[j] = match rng.below(4) {
                    0 => Json::Null,
                    1 => Json::str("0.5"),
                    2 => Json::Arr(vec![Json::uint(0)]),
                    _ => Json::Bool(false),
                };
                "non-number scalar"
            }
            10 => {
                data(&mut doc, t).remove(j);
                "one scalar missing"
            }
            11 => {
                data(&mut doc, t).insert(j, Json::Num("0.5".into()));
                "one scalar extra"
            }
            12 => {
                let garbage = [" x", "{}", ",", "]", " null"][rng.below(5)];
                return ("trailing garbage".into(), doc.to_string() + garbage);
            }
            13 => {
                // Around the bound, at a few document depths.
                let deep = nested(56 + rng.below(12));
                match rng.below(3) {
                    0 => fields(&mut doc).push(("deep".into(), deep)),
                    1 => fields(tensor(&mut doc, t)).push(("deep".into(), deep)),
                    _ => data(&mut doc, t)[j] = deep,
                }
                "deep nesting"
            }
            14 => {
                // A content error early, then the document is cut short:
                // the grammar error wins.
                data(&mut doc, 0)[0] = Json::Null;
                let text = doc.to_string();
                let cut = text.len() / 2 + rng.below(text.len() / 2);
                return (
                    "content error, then truncated".into(),
                    text[..cut].to_owned(),
                );
            }
            15 => {
                let f = fields(tensor(&mut doc, t));
                let rows = f[0].1.clone();
                f[0].1 = f[1].1.clone();
                f[1].1 = rows;
                "rows and cols swapped"
            }
            16 => {
                let names = items(field(field(&mut doc, "store"), "names"));
                match rng.below(3) {
                    0 => names[t] = Json::str("emb.bogus"),
                    1 => names[t] = Json::uint(3),
                    _ => drop(names.pop()),
                }
                "names edited"
            }
            17 => {
                match rng.below(4) {
                    0 => drop(fields(field(&mut doc, "config")).remove(rng.below(6))),
                    1 => *field(field(field(&mut doc, "config"), "bert"), "d_ff") = Json::uint(8),
                    2 => *field(field(&mut doc, "config"), "code_width") = Json::uint(3),
                    _ => *field(field(&mut doc, "config"), "max_seq") = Json::Num("1.5".into()),
                }
                "config edited"
            }
            18 => {
                match rng.below(5) {
                    0 => *field(&mut doc, "store") = Json::Arr(vec![]),
                    1 => *field(field(&mut doc, "store"), "tensors") = Json::Obj(vec![]),
                    2 => *tensor(&mut doc, t) = Json::uint(1),
                    3 => *field(tensor(&mut doc, t), "data") = Json::uint(1),
                    _ => doc = Json::Arr(vec![doc]),
                }
                "wrong container kind"
            }
            _ => {
                let f = fields(&mut doc);
                f.remove(rng.below(f.len()));
                "top-level key missing"
            }
        };
        (name.to_owned(), doc.to_string())
    }

    const VARIANT_KINDS: usize = 20;

    /// Both loaders agree on every variant, and each variant takes the
    /// route its text calls for: spans for every accepted document and
    /// for well-formed ones with a content error, element by element for
    /// the rest.
    #[test]
    fn streaming_loader_matches_the_tree_decode() {
        let mut rng = SplitMix64(0x5eed_1a4d);
        // [span route, element route] × [accepted, rejected]
        let mut seen = [[0; 2]; 2];
        let mut check = |case: &str, text: &str| {
            let route = check_route(case, text);
            let accepted = check_parity(case, text);
            assert!(
                !accepted || route == Route::Spans,
                "{case}: accepted off the span route"
            );
            seen[usize::from(route == Route::Elements)][usize::from(!accepted)] += 1;
        };
        for seed in [3, 11] {
            let model = ReBertModel::new(ReBertConfig::tiny(), seed);
            let text = encode_checkpoint(model.config(), model.store());
            let doc = Json::parse(&text).expect("saved checkpoint parses");
            assert_eq!(doc.to_string(), text, "the tree writes the saved bytes");
            for kind in 0..VARIANT_KINDS {
                for round in 0..12 {
                    let (name, variant) = variant(kind, &doc, &mut rng);
                    check(
                        &format!("tiny seed {seed}, {name} (round {round})"),
                        &variant,
                    );
                }
            }
            let loaded = streaming_load(&text).expect("saved checkpoint loads");
            assert_eq!(loaded.fingerprint(), model.fingerprint());
        }
        // The small config is the benchmark's: one round of each kind.
        let model = ReBertModel::new(ReBertConfig::small(), 5);
        let doc = Json::parse(&encode_checkpoint(model.config(), model.store())).expect("parses");
        for kind in 0..VARIANT_KINDS {
            let (name, variant) = variant(kind, &doc, &mut rng);
            check(&format!("small, {name}"), &variant);
        }
        let [[spans_ok, spans_err], [elements_ok, elements_err]] = seen;
        assert!(
            spans_ok > 50 && spans_err > 100 && elements_err > 100 && elements_ok == 0,
            "{seen:?}"
        );
    }

    #[test]
    fn layout_errors_read_as_before() {
        let tiny = ReBertModel::new(ReBertConfig::tiny(), 1);
        let mut deep = ReBertConfig::tiny();
        deep.bert.n_layers += 1;
        let err = install_checkpoint(deep, tiny.store().clone()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "model checkpoint shape error: checkpoint holds 24 parameter tensors but the \
             stored config (vocab 13, hidden 16, 2 heads, 2 layers) requires 40"
        );

        let mut renamed = ParamStore::new();
        let mut reshaped = ParamStore::new();
        for (id, name, t) in tiny.store().iter() {
            let slot = id.index();
            renamed.add(if slot == 5 { "emb.bogus" } else { name }, t.clone());
            let t = if slot == 7 {
                Tensor::zeros(t.cols(), t.rows())
            } else {
                t.clone()
            };
            reshaped.add(name, t);
        }
        let err = install_checkpoint(ReBertConfig::tiny(), renamed).unwrap_err();
        assert_eq!(
            err.to_string(),
            "model checkpoint shape error: parameter 5 is named `emb.bogus` in the checkpoint \
             but the config registers `bert.encoder.layer0.attn.q.b` at that slot"
        );
        let err = install_checkpoint(ReBertConfig::tiny(), reshaped).unwrap_err();
        assert_eq!(
            err.to_string(),
            "model checkpoint shape error: parameter `bert.encoder.layer0.attn.k.b` has shape \
             (16, 1) in the checkpoint but the config requires (1, 16)"
        );
    }

    // ---- the literal decoder against `str::parse::<f32>` ----

    /// Asserts that `literal` decodes to exactly the bits `str::parse`
    /// gives, and returns the path it took.
    fn check_literal(literal: &str) -> Literal {
        let want = literal.parse::<f32>().expect("a JSON number parses");
        let got = decode_f32(literal);
        assert_eq!(
            got.map(f32::to_bits),
            Some(want.to_bits()),
            "`{literal}`: decoded {got:?}, str::parse {want}"
        );
        let mut end = 0;
        scan_number(literal.as_bytes(), &mut end)
    }

    /// `x` in each of the forms the property draws: `{}`, `{:e}`, `{:E}`
    /// with an explicit `E+`, and a long `{:.12}`.
    fn forms(x: f32) -> [String; 4] {
        let upper = format!("{x:E}");
        let upper = if upper.contains("E-") {
            upper
        } else {
            upper.replace('E', "E+")
        };
        [format!("{x}"), format!("{x:e}"), upper, format!("{x:.12}")]
    }

    /// A JSON number literal of 15 to 40 significant digits, sometimes
    /// behind `0.` and leading zeros, with an optional signed exponent.
    fn long_literal(rng: &mut SplitMix64) -> String {
        let mut out = String::from(["", "-"][rng.below(2)]);
        let n = 15 + rng.below(26);
        let digits: String = (0..n)
            .map(|i| {
                char::from(b'0' + (rng.below(9 + usize::from(i > 0)) + usize::from(i == 0)) as u8)
            })
            .collect();
        if rng.below(4) == 0 {
            out.push_str("0.");
            out.push_str(&"0".repeat(rng.below(12)));
            out.push_str(&digits);
        } else {
            let point = 1 + rng.below(n);
            out.push_str(&digits[..point]);
            if point < n {
                out.push('.');
                out.push_str(&digits[point..]);
            }
        }
        if rng.below(2) == 0 {
            let e = rng.below(90) as i64 - 45;
            out.push_str(&format!("{}{e}", ["e", "E"][rng.below(2)]));
        }
        out
    }

    #[test]
    fn literal_decoder_matches_str_parse_on_a_saved_checkpoint() {
        let model = ReBertModel::new(ReBertConfig::small(), 5);
        let doc = Json::parse(&encode_checkpoint(model.config(), model.store())).expect("parses");
        let tensors = doc
            .get("store")
            .and_then(|s| s.get("tensors"))
            .and_then(Json::as_array);
        let (mut literals, mut exact) = (0, 0);
        for tensor in tensors.expect("tensors") {
            for v in tensor.get("data").and_then(Json::as_array).expect("data") {
                let Json::Num(literal) = v else {
                    panic!("saved scalar {v}");
                };
                literals += 1;
                exact += usize::from(matches!(check_literal(literal), Literal::Exact(_)));
            }
        }
        assert_eq!(literals, model.parameter_count());
        // Saved weights are short literals: nearly all take the exact path.
        assert!(exact * 100 > literals * 99, "{exact} of {literals} exact");
    }

    #[test]
    fn literal_decoder_matches_str_parse_on_a_million_literals() {
        let mut rng = SplitMix64(0xdec0_de32);
        let (mut exact, mut slow) = (0, 0);
        let mut literals = 0;
        while literals < 1_000_000 {
            // Raw bit patterns reach every exponent; weight-sized values
            // are what checkpoints hold.
            let x = if literals % 2 == 0 {
                f32::from_bits(rng.next() as u32)
            } else {
                let unit = (rng.next() >> 40) as f32 / (1u64 << 24) as f32;
                let sign = [1.0, -1.0][rng.below(2)];
                sign * unit * 10f32.powi(rng.below(12) as i32 - 8)
            };
            if !x.is_finite() {
                continue;
            }
            let long = long_literal(&mut rng);
            for literal in forms(x).iter().chain([&long]) {
                match check_literal(literal) {
                    Literal::Exact(_) => exact += 1,
                    Literal::Slow => slow += 1,
                    Literal::Invalid => panic!("`{literal}` rejected"),
                }
                literals += 1;
            }
        }
        assert!(
            exact > 300_000 && slow > 300_000,
            "{exact} exact, {slow} slow"
        );
    }

    #[test]
    fn literal_decoder_edge_cases_match_str_parse() {
        for literal in [
            "0",
            "-0",
            "0e0",
            "-0.0",
            "0E-0",
            "-0e+5",
            "0.000",
            "0e999999999999",
            "1e-45",
            "1.4e-45",
            "7e-46",
            "1e-46",
            "1.1754942e-38",
            "1.17549435e-38",
            "3.4028235e38",
            "3.4028234e38",
            "3.4028236e38",
            "3.40282357e38",
            "1e39",
            "-1e39",
            "1e-99999999",
            "9007199254740993",
            "9007199254740992e-5",
            "1e22",
            "1e23",
            "1e-22",
            "1e-23",
        ] {
            check_literal(literal);
        }
        // Subnormals, the smallest normals, and f32::MAX and its
        // neighbours, in every form.
        for bits in [
            1u32,
            2,
            3,
            0x7_ffff,
            0x40_0000,
            0x7f_fffe,
            0x7f_ffff,
            0x80_0000,
            0x80_0001,
            0x7f7f_fffd,
            0x7f7f_fffe,
            0x7f7f_ffff,
        ] {
            for x in [f32::from_bits(bits), -f32::from_bits(bits)] {
                for literal in forms(x) {
                    check_literal(&literal);
                }
            }
        }
    }

    #[test]
    fn midpoint_rounding_goes_to_str_parse() {
        // 2^63 + 2^39 lies halfway between the f32s 2^63 and 2^63 + 2^40.
        // This literal is 304 above it, yet rounds onto it in f64, where
        // a tie to even would then give 2^63: one bit short.
        let literal = "922337258661059e4";
        let mut end = 0;
        assert_eq!(scan_number(literal.as_bytes(), &mut end), Literal::Slow);
        assert_eq!(decode_f32(literal).map(f32::to_bits), Some(0x5f00_0001));
        assert_eq!(
            ((922_337_258_661_059.0f64 * 1e4) as f32).to_bits(),
            0x5f00_0000
        );
        check_literal(literal);
        // Exact decimal midpoints between adjacent f32s, and the shortest
        // f64 literal of each: str::parse breaks the tie.
        assert_eq!(scan_number(b"16777217", &mut 0), Literal::Slow);
        assert_eq!(decode_f32("16777217"), Some(16_777_216.0));
        let mut rng = SplitMix64(0x0d1d_9017);
        let mut slow = 0;
        for _ in 0..20_000 {
            let lo = f32::from_bits(rng.next() as u32 & 0x7f7f_fffe);
            let mid = (f64::from(lo) + f64::from(f32::from_bits(lo.to_bits() + 1))) / 2.0;
            for literal in [
                format!("{mid}"),
                format!("{mid:e}"),
                format!("{:.0}", mid * 1e6),
            ] {
                slow += usize::from(check_literal(&literal) == Literal::Slow);
            }
        }
        assert!(slow > 20_000, "{slow} midpoints went to str::parse");
    }

    #[test]
    fn literal_decoder_rejects_what_json_rejects() {
        for literal in [
            "01", "1.", ".5", "+1", "1e", "-", "", "1 2", "NaN", "inf", "-inf", "infinity", "1e+",
            "1.e5", "-01", "0x1", "1_0", " 1", "1 ", "--1", "1e5.5", "1E-", "-.5", "\u{661}",
        ] {
            assert_eq!(decode_f32(literal), None, "{literal:?}");
        }
    }

    #[test]
    fn span_decoder_splits_on_commas_into_an_exact_buffer() {
        assert_eq!(decode_span(""), Some(vec![]));
        assert_eq!(decode_span(" \r\n\t"), Some(vec![]));
        let data = decode_span(" 1 ,\n-0.5e1\t,0,  2E+0 ").expect("numbers");
        assert_eq!(data, [1.0, -5.0, 0.0, 2.0]);
        assert_eq!(data.capacity(), data.len());
        for span in [
            "1,",
            ",1",
            "1,,2",
            "1 2",
            "null",
            "1,\"2\"",
            "[1]",
            "1;2",
            "1,\u{a0}2",
            ",",
            "1,-",
        ] {
            assert_eq!(decode_span(span), None, "{span:?}");
        }
    }
}
