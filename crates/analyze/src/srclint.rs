//! `rebert lint-src`: concurrency-hygiene lints over the workspace's
//! own Rust sources.
//!
//! The workspace's concurrency story depends on conventions no compiler
//! checks: every blocking lock goes through `rebert_sync` (so debug
//! builds check that it is a leaf, and it recovers from poisoning),
//! cross-thread publication never uses `Ordering::Relaxed` stores, and
//! request-path code never `.unwrap()`s a lock result. These lints make
//! the conventions mechanical — a blocking CI gate instead of review
//! lore.
//!
//! The pass is built on a hand-rolled lexer (no `syn`, no proc-macro
//! stack: this workspace is dependency-free and the lints only need
//! identifier/punctuation streams with comments and strings stripped).
//! The lexer understands line comments, nested block comments, string /
//! raw-string / byte-string / char literals, and the char-vs-lifetime
//! ambiguity, so a `"std::sync::Mutex"` inside a doc comment or string
//! never trips a lint.
//!
//! Findings are suppressed by an inline `// rebert-lint: allow(<code>)`
//! comment on the same line or the line directly above — each allow
//! should carry a justification, which is exactly the documentation the
//! convention wants at every intentional exception.

use std::path::Path;

use crate::codes;
use crate::diag::{Diagnostic, Report, Severity};

/// The `std::sync` types that must not be used outside `crates/sync`.
const WRAPPED_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// The one `raw-sync-primitive` message, for the path and the
/// use-group form alike.
fn raw_sync_message(name: &str) -> String {
    format!(
        "raw `std::sync::{name}` — use a `rebert_sync` lock so debug builds check \
         that it is a leaf"
    )
}

/// One token the lints care about, tagged with its 1-indexed line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
}

/// The lexed view of one file: significant tokens plus the
/// `rebert-lint: allow(...)` suppressions found in comments.
struct Lexed {
    toks: Vec<(Tok, usize)>,
    /// `(line, code)` pairs allowed by inline comments.
    allows: Vec<(usize, String)>,
}

/// Lexes Rust source into identifier/punctuation tokens, skipping
/// whitespace, comments (collecting `rebert-lint:` suppressions),
/// and every literal form that could contain lint-looking text.
fn lex(text: &str) -> Lexed {
    let b: Vec<char> = text.chars().collect();
    let n = b.len();
    let mut toks = Vec::new();
    let mut allows = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let at = |i: usize| if i < n { b[i] } else { '\0' };
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            // Line comment (includes `///` docs): scan to end of line,
            // harvesting suppressions.
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let comment: String = b[start..i].iter().collect();
            collect_allows(&comment, line, &mut allows);
        } else if c == '/' && at(i + 1) == '*' {
            // Block comment; Rust block comments nest.
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if at(i) == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if at(i) == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
        } else if (c == 'r' || (c == 'b' && at(i + 1) == 'r'))
            && raw_string_hashes(&b, i + if c == 'b' { 2 } else { 1 }).is_some()
        {
            // Raw (byte) string: `r"…"`, `r#"…"#`, `br##"…"##`, …
            let after_prefix = i + if c == 'b' { 2 } else { 1 };
            let hashes = raw_string_hashes(&b, after_prefix).expect("checked above");
            i = after_prefix + hashes + 1; // past the opening quote
            loop {
                if i >= n {
                    break;
                }
                if b[i] == '"' && (1..=hashes).all(|k| at(i + k) == '#') {
                    i += 1 + hashes;
                    break;
                }
                if b[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
        } else if c == '"' || (c == 'b' && at(i + 1) == '"') {
            // String / byte-string literal with escapes.
            i += if c == 'b' { 2 } else { 1 };
            while i < n {
                match b[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    ch => {
                        if ch == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
        } else if c == '\'' || (c == 'b' && at(i + 1) == '\'') {
            // Char literal vs lifetime. `'\…'` and `'x'` are chars;
            // `'ident` with no closing quote is a lifetime (consume the
            // identifier so `&'static mut` cannot fake a `static mut`).
            let q = i + if c == 'b' { 1 } else { 0 };
            if at(q + 1) == '\\' {
                i = q + 2;
                while i < n && b[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if at(q + 2) == '\'' {
                i = q + 3;
            } else {
                i = q + 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            toks.push((Tok::Ident(b[start..i].iter().collect()), line));
        } else if c.is_ascii_digit() {
            // Numbers (incl. `1_000`, `0xff`, `1.5e-3`); tokens the
            // lints never inspect, but they must not shed stray idents.
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            if at(i) == '.' && at(i + 1).is_ascii_digit() {
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            }
        } else {
            toks.push((Tok::Punct(c), line));
            i += 1;
        }
    }
    Lexed { toks, allows }
}

/// `Some(hash_count)` when position `i` starts a raw-string opener
/// (`#`* then `"`), else `None`.
fn raw_string_hashes(b: &[char], i: usize) -> Option<usize> {
    let mut k = 0usize;
    while i + k < b.len() && b[i + k] == '#' {
        k += 1;
    }
    (i + k < b.len() && b[i + k] == '"').then_some(k)
}

/// Harvests every `allow(code[, code…])` after a `rebert-lint:` marker.
fn collect_allows(comment: &str, line: usize, allows: &mut Vec<(usize, String)>) {
    let Some(rest) = comment.split("rebert-lint:").nth(1) else {
        return;
    };
    let mut rest = rest;
    while let Some(open) = rest.find("allow(") {
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else { return };
        for code in after[..close].split(',') {
            allows.push((line, code.trim().to_owned()));
        }
        rest = &after[close..];
    }
}

/// Whether the finding `(line, code)` is suppressed by an allow comment
/// on the same line or the line directly above.
fn allowed(allows: &[(usize, String)], line: usize, code: &str) -> bool {
    allows
        .iter()
        .any(|(l, c)| c == code && (*l == line || *l + 1 == line))
}

/// Lints one Rust source file. `file` labels the diagnostics;
/// `request_path` turns on the lock-result-unwrap lint (scoped to the
/// serve/registry request path in tree mode, always on for single-file
/// runs so fixtures exercise every code).
pub fn lint_rust_source(file: &str, text: &str, request_path: bool) -> Report {
    let lexed = lex(text);
    let toks = &lexed.toks;
    let mut report = Report::new();
    let mut push = |code: &'static str, severity: Severity, line: usize, message: String| {
        if !allowed(&lexed.allows, line, code) {
            report.push(Diagnostic::new(code, severity, message).at(file, line));
        }
    };

    let ident = |k: usize| match toks.get(k) {
        Some((Tok::Ident(s), _)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |k: usize, c: char| matches!(toks.get(k), Some((Tok::Punct(p), _)) if *p == c);
    let line_of = |k: usize| toks.get(k).map_or(0, |(_, l)| *l);

    for k in 0..toks.len() {
        // raw-sync-primitive: `std::sync::Mutex` (path form) or
        // `use std::sync::{…, Mutex, …}` (group form, any nesting).
        if ident(k) == Some("std")
            && punct(k + 1, ':')
            && punct(k + 2, ':')
            && ident(k + 3) == Some("sync")
            && punct(k + 4, ':')
            && punct(k + 5, ':')
        {
            let head = k + 6;
            if let Some(name) = ident(head).filter(|p| WRAPPED_PRIMITIVES.contains(p)) {
                push(
                    codes::RAW_SYNC_PRIMITIVE,
                    Severity::Warning,
                    line_of(head),
                    raw_sync_message(name),
                );
            } else if punct(head, '{') {
                let mut depth = 1usize;
                let mut j = head + 1;
                while j < toks.len() && depth > 0 {
                    match &toks[j].0 {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => depth -= 1,
                        Tok::Ident(s) if WRAPPED_PRIMITIVES.contains(&s.as_str()) => {
                            push(
                                codes::RAW_SYNC_PRIMITIVE,
                                Severity::Warning,
                                toks[j].1,
                                raw_sync_message(s),
                            );
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }

        // relaxed-publication-store: `.store(…, Ordering::Relaxed)`.
        // Relaxed is fine for counters and cancellation flags (loads
        // and RMWs stay unflagged) but cannot *publish* data another
        // thread then reads through a pointer; every intentional flag
        // store documents itself with an allow comment.
        if punct(k, '.') && ident(k + 1) == Some("store") && punct(k + 2, '(') {
            let mut depth = 1usize;
            let mut j = k + 3;
            let mut relaxed = false;
            while j < toks.len() && depth > 0 {
                match &toks[j].0 {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => depth -= 1,
                    Tok::Ident(s) if s == "Relaxed" => relaxed = true,
                    _ => {}
                }
                j += 1;
            }
            if relaxed {
                push(
                    codes::RELAXED_PUBLICATION_STORE,
                    Severity::Warning,
                    line_of(k + 1),
                    "`store(…, Ordering::Relaxed)` — a Relaxed store cannot publish data to \
                     another thread; use Release, or justify the flag/counter with an allow \
                     comment"
                        .to_owned(),
                );
            }
        }

        // lock-result-unwrap: `.lock().unwrap()` / `.read().expect(…)`
        // on the request path. A panicked holder poisons a std lock and
        // turns every later request into a panic; `rebert_sync` locks
        // recover instead.
        if request_path
            && punct(k, '.')
            && matches!(ident(k + 1), Some("lock" | "read" | "write"))
            && punct(k + 2, '(')
            && punct(k + 3, ')')
            && punct(k + 4, '.')
            && matches!(ident(k + 5), Some("unwrap" | "expect"))
        {
            let (m, u) = (
                ident(k + 1).expect("matched above").to_owned(),
                ident(k + 5).expect("matched above").to_owned(),
            );
            push(
                codes::LOCK_RESULT_UNWRAP,
                Severity::Warning,
                line_of(k + 5),
                format!(
                    "`.{m}().{u}(…)` on a lock result in a request path — one panicked \
                     holder poisons the lock and every later request panics with it; use \
                     the poison-recovering `rebert_sync` locks"
                ),
            );
        }

        // static-mut: always a data race waiting to happen under
        // threads (the lexer consumes lifetimes, so `&'static mut` is
        // not a false positive).
        if ident(k) == Some("static") && ident(k + 1) == Some("mut") {
            push(
                codes::STATIC_MUT,
                Severity::Error,
                line_of(k),
                "`static mut` is unsound to touch from two threads — use an atomic, a \
                 `rebert_sync` lock, or `OnceLock`"
                    .to_owned(),
            );
        }
    }
    report
}

/// Lints `root`: a single `.rs` file (all lints on, for fixtures), or a
/// directory tree. Tree mode skips `target/`, `.git/`, `fixtures/`
/// directories, `crates/sync` itself (the wrapper legitimately names
/// the raw primitives it wraps), and every directory below `root` whose
/// `Cargo.toml` opens a workspace of its own (such as `perfbench/`):
/// Cargo ends the workspace there, so lint it by passing it as `root`.
/// It scopes the lock-result-unwrap lint to `crates/serve` +
/// `crates/registry` — the request path, where a poisoned lock wedges a
/// daemon rather than one offline run.
///
/// Diagnostics come back sorted by `(file, line)` so output is stable
/// across filesystems.
///
/// # Errors
///
/// A human-readable message when `root` or a source file under it
/// cannot be read.
pub fn lint_rust_tree(root: &Path) -> Result<Report, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read `{}`: {e}", p.display()))
    };
    if root.is_file() {
        return Ok(lint_rust_source(
            &root.display().to_string(),
            &read(root)?,
            true,
        ));
    }
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report::new();
    for rel in files {
        let label = rel.to_string_lossy().replace('\\', "/");
        let request_path =
            label.starts_with("crates/serve/") || label.starts_with("crates/registry/");
        report.extend(lint_rust_source(
            &label,
            &read(&root.join(&rel))?,
            request_path,
        ));
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Recursively collects `.rs` files under `dir` as paths relative to
/// `root`, skipping build output, VCS metadata, lint fixtures, the sync
/// wrapper crate, and nested workspaces.
fn collect_rust_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<std::path::PathBuf>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read dir `{}`: {e}", dir.display()))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| format!("cannot read dir entry under `{}`: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            if name == "sync" && dir.file_name().is_some_and(|d| d == "crates") {
                continue;
            }
            let manifest = path.join("Cargo.toml");
            if manifest.is_file() {
                let text = std::fs::read_to_string(&manifest)
                    .map_err(|e| format!("cannot read `{}`: {e}", manifest.display()))?;
                if opens_workspace(&text) {
                    continue;
                }
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// Whether a `Cargo.toml` opens a workspace table of its own: a
/// `[workspace]` or `[workspace.*]` header, spaces and a trailing `#`
/// comment allowed. A member's `version.workspace = true`, or
/// `workspace = true` under `[lints]`, is not one.
fn opens_workspace(manifest: &str) -> bool {
    manifest.lines().any(|line| {
        let line = line.split('#').next().unwrap_or_default().trim();
        line.strip_prefix('[')
            .and_then(|l| l.strip_suffix(']'))
            .and_then(|header| header.split('.').next())
            .is_some_and(|table| table.trim() == "workspace")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(text: &str) -> Report {
        lint_rust_source("t.rs", text, true)
    }

    #[test]
    fn flags_raw_primitives_in_path_and_group_form() {
        let r = lint("use std::sync::Mutex;\nlet c = std::sync::Condvar::new();\n");
        assert_eq!(r.diagnostics.len(), 2);
        assert!(r
            .diagnostics
            .iter()
            .all(|d| d.code == codes::RAW_SYNC_PRIMITIVE));
        assert_eq!(r.diagnostics[0].line, Some(1));
        assert_eq!(r.diagnostics[1].line, Some(2));

        let r = lint("use std::sync::{atomic::AtomicBool, Arc,\n    RwLock};\n");
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].line, Some(2), "group member on line 2");
        assert!(r.diagnostics[0].message.contains("RwLock"));

        // Arc, mpsc, and atomics are not wrapped types.
        assert!(lint("use std::sync::{mpsc, Arc};\n").is_clean());
        // loom's primitives are the wrapper's own business.
        assert!(lint("use loom::sync::Mutex;\n").is_clean());
    }

    #[test]
    fn comments_strings_and_lifetimes_do_not_trip_lints() {
        let clean = r##"
// std::sync::Mutex in a line comment
/// docs: std::sync::Mutex
/* block /* nested: std::sync::Condvar */ still comment */
const S: &str = "std::sync::Mutex";
const R: &str = r#"std::sync::RwLock and a " quote"#;
const C: char = '"';
fn f(x: &'static mut u8) {}
"##;
        let r = lint(clean);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn flags_relaxed_stores_but_not_loads_or_rmws() {
        let r = lint("flag.store(true, Ordering::Relaxed);\n");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, codes::RELAXED_PUBLICATION_STORE);
        assert!(lint("let v = flag.load(Ordering::Relaxed);\n").is_clean());
        assert!(lint("n.fetch_add(1, Ordering::Relaxed);\n").is_clean());
        assert!(lint("flag.store(true, Ordering::Release);\n").is_clean());
    }

    #[test]
    fn flags_lock_result_unwraps_only_on_the_request_path() {
        let src = "let g = self.state.lock().unwrap();\nlet h = s.read().expect(\"poisoned\");\n";
        let r = lint_rust_source("t.rs", src, true);
        assert_eq!(r.diagnostics.len(), 2);
        assert!(r
            .diagnostics
            .iter()
            .all(|d| d.code == codes::LOCK_RESULT_UNWRAP));
        assert!(lint_rust_source("t.rs", src, false).is_clean());
        // Calls with arguments are io reads/writes, not lock results.
        assert!(lint_rust_source("t.rs", "f.write(buf).unwrap();\n", true).is_clean());
    }

    #[test]
    fn flags_static_mut_as_an_error() {
        let r = lint("static mut COUNTER: u32 = 0;\n");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, codes::STATIC_MUT);
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert!(r.has_errors());
    }

    #[test]
    fn allow_comments_suppress_on_the_same_and_previous_line() {
        let same = "use std::sync::Mutex; // rebert-lint: allow(raw-sync-primitive)\n";
        assert!(lint(same).is_clean());
        let above = "// test-only bootstrap — rebert-lint: allow(raw-sync-primitive)\nuse std::sync::Mutex;\n";
        assert!(lint(above).is_clean());
        let wrong_code = "use std::sync::Mutex; // rebert-lint: allow(static-mut)\n";
        assert_eq!(lint(wrong_code).diagnostics.len(), 1, "code must match");
        let too_far = "// rebert-lint: allow(raw-sync-primitive)\n\nuse std::sync::Mutex;\n";
        assert_eq!(
            lint(too_far).diagnostics.len(),
            1,
            "two lines up is too far"
        );
    }

    #[test]
    fn diagnostics_carry_exact_file_and_line_in_json() {
        let r = lint("\n\nuse std::sync::Mutex;\n");
        let json = r.to_json().to_string();
        let v = rebert::json::Json::parse(&json).expect("valid json");
        let d = &v
            .get("diagnostics")
            .and_then(rebert::json::Json::as_array)
            .unwrap()[0];
        assert_eq!(
            d.get("file").and_then(rebert::json::Json::as_str),
            Some("t.rs")
        );
        assert_eq!(
            d.get("line").and_then(rebert::json::Json::as_usize),
            Some(3)
        );
    }

    #[test]
    fn the_walk_stops_at_a_nested_workspace_but_not_at_its_own_root() {
        let root =
            std::env::temp_dir().join(format!("rebert-srclint-boundary-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = "fn f(flag: &AtomicBool) {\n    flag.store(true, Ordering::Relaxed);\n}\n";
        let tree = [
            ("Cargo.toml", "[workspace]\nmembers = [\"member\"]\n"),
            (
                "member/Cargo.toml",
                "[package]\nname = \"member\"\nversion.workspace = true\n\
                 # not a header: [workspace]\n\n[lints]\nworkspace = true\n",
            ),
            ("member/src/lib.rs", store),
            (
                "nested/Cargo.toml",
                "[package]\nname = \"nested\"\n\n [ workspace ] # a workspace of its own\n",
            ),
            ("nested/src/main.rs", store),
            (
                "shared/Cargo.toml",
                "[workspace.package]\nversion = \"0.1.0\"\n",
            ),
            ("shared/src/lib.rs", store),
        ];
        for (rel, text) in tree {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("has a parent")).expect("temp dir");
            std::fs::write(&path, text).expect("write temp file");
        }
        let flagged = |dir: &Path| -> Vec<(String, &'static str)> {
            lint_rust_tree(dir)
                .expect("temp tree readable")
                .diagnostics
                .into_iter()
                .map(|d| (d.file.unwrap_or_default(), d.code))
                .collect()
        };
        let outer = flagged(&root);
        let inner = flagged(&root.join("nested"));
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(
            outer,
            [(
                "member/src/lib.rs".to_owned(),
                codes::RELAXED_PUBLICATION_STORE
            )],
            "a member is linted; a nested workspace is not"
        );
        assert_eq!(
            inner,
            [("src/main.rs".to_owned(), codes::RELAXED_PUBLICATION_STORE)],
            "a nested workspace passed as the root is linted"
        );
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        // The gate CI runs, as a unit test: every lint over every crate
        // in this workspace, denying warnings. CARGO_MANIFEST_DIR is
        // `crates/analyze`, so the workspace root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let report = lint_rust_tree(root).expect("workspace sources readable");
        assert!(
            !report.fails(true),
            "workspace must pass `lint-src --deny warnings`:\n{}",
            report.render_human()
        );
    }
}
