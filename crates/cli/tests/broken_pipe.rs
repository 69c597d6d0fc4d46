//! A reader that closes `rebert`'s stdout early (`rebert … | head -1`)
//! ends the process quietly: no panic, no backtrace, and the exit status
//! of the command's own verdict.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A Rust source with 3,000 Relaxed stores, written to a fresh
/// directory under the system temp dir. `rebert lint-src` reports one
/// warning line per store, about 600 KB: far more than a 64 KiB pipe
/// buffer holds.
fn noisy_source(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rebert-broken-pipe-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut src = String::from(
        "use std::sync::atomic::{AtomicU32, Ordering};\n\
         static X: AtomicU32 = AtomicU32::new(0);\n\
         fn f() {\n",
    );
    for _ in 0..3000 {
        src.push_str("    X.store(1, Ordering::Relaxed);\n");
    }
    src.push_str("}\n");
    let path = dir.join("noisy.rs");
    std::fs::write(&path, src).expect("write source");
    path
}

/// Runs `rebert lint-src --root <src> <extra>`, reads one line of its
/// stdout, closes the pipe, and returns the exit code and stderr.
fn close_after_one_line(tag: &str, extra: &[&str]) -> (Option<i32>, String) {
    let src = noisy_source(tag);
    let mut child = Command::new(env!("CARGO_BIN_EXE_rebert"))
        .args(["lint-src", "--root", src.to_str().expect("utf-8 path")])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rebert");
    let mut first = String::new();
    {
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("first line");
    } // The read end closes here, long before rebert has written it all.
    let out = child.wait_with_output().expect("wait for rebert");
    if let Some(dir) = src.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(first.contains("relaxed-publication-store"), "{first}");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_ends_a_successful_command_with_0() {
    let (code, stderr) = close_after_one_line("warn", &[]);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(code, Some(101), "{stderr}");
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn a_closed_stdout_keeps_a_lint_failure_at_exit_1() {
    let (code, stderr) = close_after_one_line("deny", &["--deny", "warnings"]);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(code, Some(101), "{stderr}");
    assert_eq!(code, Some(1), "{stderr}");
}
