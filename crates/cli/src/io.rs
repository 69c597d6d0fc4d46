//! File and stdout I/O for the CLI: format detection by extension, the
//! lint check on every netlist read, label JSON round-trips, and stdout
//! writes that survive a reader closing the pipe.

use std::fmt;
use std::path::Path;

use rebert::json::Json;
use rebert_circuits::WordLabels;
use rebert_netlist::{parse_bench, parse_verilog, write_bench, write_verilog, Netlist};

use crate::commands::{lint_verdict, CliError};

/// Errors surfaced by CLI file handling.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Fs(std::io::Error),
    /// `.bench` parse failure.
    Bench(rebert_netlist::ParseError),
    /// Verilog parse failure.
    Verilog(rebert_netlist::VerilogError),
    /// Label JSON failure.
    Labels(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Fs(e) => write!(f, "file error: {e}"),
            IoError::Bench(e) => write!(f, "bench parse error: {e}"),
            IoError::Verilog(e) => write!(f, "verilog parse error: {e}"),
            IoError::Labels(e) => write!(f, "labels error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Fs(e)
    }
}

/// Writes `text` and a newline through a locked stdout.
///
/// # Errors
///
/// The write error, e.g. `BrokenPipe` once the reader has closed the
/// pipe.
pub fn write_line(text: &dyn fmt::Display) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{text}")?;
    out.flush()
}

/// Prints a command's output. A reader that closed the pipe early
/// (`rebert recover … | head -2`) has read all it wants, so a broken
/// pipe ends the process quietly with `code`, the verdict the command
/// already reached; any other write error ends it with a message and
/// exit 1. (`println!` panics on both.)
pub fn print_output(text: &dyn fmt::Display, code: i32) {
    match write_line(text) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(code),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Whether a path names a Verilog file (`.v` / `.sv`), as opposed to the
/// default `.bench` dialect.
pub fn is_verilog(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("v") | Some("sv")
    )
}

/// Reads a netlist, choosing the parser from the file extension, and
/// admits it only if `rebert_analyze::lint_netlist` finds no error. This
/// is the CLI's one structural check: the pipeline and `optimize`
/// assume a fully driven, acyclic netlist and do not check again.
///
/// # Errors
///
/// An [`IoError`] on filesystem or parse failure, or a
/// [`LintFailure`](crate::commands::LintFailure) carrying the report
/// `rebert lint` prints when the netlist has lint errors.
pub fn read_netlist(path: &Path) -> Result<Netlist, CliError> {
    let text = std::fs::read_to_string(path).map_err(IoError::Fs)?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design");
    let nl = if is_verilog(path) {
        parse_verilog(name, &text).map_err(IoError::Verilog)?
    } else {
        parse_bench(name, &text).map_err(IoError::Bench)?
    };
    lint_verdict(&rebert_analyze::lint_netlist(&nl), false, false)?;
    Ok(nl)
}

/// Writes a netlist, choosing the serializer from the file extension.
///
/// # Errors
///
/// Returns an [`IoError`] on filesystem failure.
pub fn write_netlist(nl: &Netlist, path: &Path) -> Result<(), IoError> {
    let text = if is_verilog(path) {
        write_verilog(nl)
    } else {
        write_bench(nl)
    };
    std::fs::write(path, text)?;
    Ok(())
}

/// Reads ground-truth word labels from JSON (`{"words": [[0,1], …]}`,
/// the schema `rebert generate` writes).
///
/// # Errors
///
/// Returns an [`IoError`] on filesystem or deserialization failure.
pub fn read_labels(path: &Path) -> Result<WordLabels, IoError> {
    let text = std::fs::read_to_string(path)?;
    let json = Json::parse(&text).map_err(|e| IoError::Labels(e.to_string()))?;
    let words_json = json
        .get("words")
        .and_then(Json::as_array)
        .ok_or_else(|| IoError::Labels("labels file lacks a `words` array".to_owned()))?;
    let mut words: Vec<Vec<usize>> = Vec::with_capacity(words_json.len());
    let mut seen = std::collections::HashSet::new();
    for (wi, word) in words_json.iter().enumerate() {
        let bits = word
            .as_array()
            .ok_or_else(|| IoError::Labels(format!("word {wi} is not an array")))?;
        let mut out = Vec::with_capacity(bits.len());
        for bit in bits {
            let b = bit
                .as_usize()
                .ok_or_else(|| IoError::Labels(format!("word {wi} holds a non-integer bit")))?;
            if !seen.insert(b) {
                return Err(IoError::Labels(format!("bit {b} appears in two words")));
            }
            out.push(b);
        }
        words.push(out);
    }
    // Distinct bits are dense exactly when none reaches their count.
    if let Some(b) = seen.iter().max().filter(|&&b| b >= seen.len()) {
        return Err(IoError::Labels(format!(
            "bit {b} is out of range: the labels cover {} bits",
            seen.len()
        )));
    }
    Ok(WordLabels::new(words))
}

/// Writes word labels as JSON in the schema [`read_labels`] accepts.
///
/// # Errors
///
/// Returns an [`IoError`] on filesystem failure.
pub fn write_labels(labels: &WordLabels, path: &Path) -> Result<(), IoError> {
    let words = Json::Arr(
        labels
            .words()
            .iter()
            .map(|w| Json::Arr(w.iter().map(|&b| Json::uint(b as u64)).collect()))
            .collect(),
    );
    let json = Json::Obj(vec![("words".to_owned(), words)]);
    std::fs::write(path, format!("{json}\n"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rebert_cli_io_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn bench_round_trip_via_files() {
        let nl = parse_bench("t", "INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n").unwrap();
        let path = tmp("x.bench");
        write_netlist(&nl, &path).unwrap();
        let back = read_netlist(&path).unwrap();
        assert_eq!(back.gate_count(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn verilog_round_trip_via_files() {
        let nl = parse_bench("t", "INPUT(a)\nINPUT(b)\ny = NAND(a, b)\nOUTPUT(y)\n").unwrap();
        let path = tmp("x.v");
        write_netlist(&nl, &path).unwrap();
        let back = read_netlist(&path).unwrap();
        assert_eq!(back.gate_count(), 1);
        assert_eq!(back.gates()[0].gtype, rebert_netlist::GateType::Nand);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn labels_round_trip() {
        let labels = WordLabels::new(vec![vec![0, 1], vec![2]]);
        let path = tmp("labels.json");
        write_labels(&labels, &path).unwrap();
        let back = read_labels(&path).unwrap();
        assert_eq!(back, labels);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_labels_rejected() {
        let path = tmp("bad_labels.json");
        for (text, what) in [
            ("{]", "unparseable JSON"),
            ("{\"bits\": []}", "missing words key"),
            ("{\"words\": 3}", "words not an array"),
            ("{\"words\": [3]}", "word not an array"),
            ("{\"words\": [[\"a\"]]}", "non-integer bit"),
            ("{\"words\": [[0, 1], [1]]}", "duplicate bit"),
            ("{\"words\": [[0], [2]]}", "bit beyond the count"),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = read_labels(&path).unwrap_err();
            assert!(matches!(err, IoError::Labels(_)), "{what}: {err:?}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn extension_detection() {
        assert!(is_verilog(Path::new("a.v")));
        assert!(is_verilog(Path::new("a.sv")));
        assert!(!is_verilog(Path::new("a.bench")));
        assert!(!is_verilog(Path::new("a")));
    }

    #[test]
    fn missing_file_reports_fs_error() {
        let err = read_netlist(Path::new("/nonexistent/rebert.bench")).unwrap_err();
        assert!(matches!(err.downcast_ref(), Some(IoError::Fs(_))), "{err}");
    }

    #[test]
    fn lint_errors_refuse_the_netlist_with_the_report() {
        let path = tmp("undriven.bench");
        std::fs::write(
            &path,
            "INPUT(a)\ny = AND(a, ghost)\nq = DFF(y)\nOUTPUT(q)\n",
        )
        .unwrap();
        let err = read_netlist(&path).unwrap_err();
        let lint = err
            .downcast_ref::<crate::commands::LintFailure>()
            .expect("a lint report");
        assert!(lint.body.contains("error[undriven-net]"), "{}", lint.body);
        assert!(lint.body.contains("1 error"), "{}", lint.body);
        // Warnings alone (here dead logic) do not refuse.
        std::fs::write(
            &path,
            "INPUT(a)\ny = NOT(a)\ndead = BUF(a)\nq = DFF(y)\nOUTPUT(q)\n",
        )
        .unwrap();
        assert_eq!(read_netlist(&path).unwrap().gate_count(), 2);
        std::fs::remove_file(path).ok();
    }
}
