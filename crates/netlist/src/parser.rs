//! Text format for netlists: an ISCAS-89 style `.bench` dialect.
//!
//! The grammar, one statement per line (`#` starts a comment):
//!
//! ```text
//! INPUT(a)
//! OUTPUT(y)
//! w1 = AND(a, b)
//! w2 = NOT(w1)
//! q  = DFF(w2)
//! one = CONST1
//! ```
//!
//! `DFF(d)` declares a flip-flop whose `q` output is the left-hand name.
//! Nets may be referenced before they are defined; undefined references are
//! reported at the end of parsing.
//!
//! [`parse_bench`] reads the text in one scan over its bytes, testing
//! eight at a time for the bytes a line stops at. The delimiters
//! `\n # = ( ) ,` are ASCII, and ASCII bytes never occur inside a
//! multi-byte UTF-8 sequence, so every cut it makes is on a character
//! boundary, and every span is trimmed exactly as [`str::trim`] trims it,
//! whatever the text holds. The scan declares the inputs and keeps each
//! definition as spans of the text; the definitions are built once every
//! input is declared, since inputs take the first net ids. Each written
//! name is hashed once and found or stored with one probe of the
//! netlist's name table.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use crate::gate::GateType;
use crate::netlist::{Driver, NetId, Netlist, NetlistError};

/// Error produced while parsing the `.bench` dialect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be understood. Carries 1-based line number and text.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// The offending line.
        text: String,
    },
    /// An unknown gate mnemonic was used.
    UnknownGate {
        /// 1-based line number.
        line: usize,
        /// The mnemonic.
        name: String,
    },
    /// A structural invariant was violated while building the netlist.
    Netlist {
        /// 1-based line number.
        line: usize,
        /// The underlying netlist error.
        source: NetlistError,
    },
}

impl ParseError {
    /// The 1-based source line the error points at. Every variant
    /// carries one, so diagnostics can always anchor to the input.
    pub fn line(&self) -> usize {
        match self {
            ParseError::Syntax { line, .. }
            | ParseError::UnknownGate { line, .. }
            | ParseError::Netlist { line, .. } => *line,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, text } => write!(f, "line {line}: syntax error: `{text}`"),
            ParseError::UnknownGate { line, name } => {
                write!(f, "line {line}: unknown gate `{name}`")
            }
            ParseError::Netlist { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Netlist { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Parses a netlist from the `.bench` dialect.
///
/// Primary inputs take the first net ids, in declaration order; every
/// other net is created where its first definition or reference is
/// processed, in statement order. Names are copied once, into the
/// netlist's name store.
///
/// The cost is one scan over the bytes, one hash and one table probe per
/// written name, and one allocation per gate for its inputs. The
/// definitions wait in a vector of spans until the scan ends.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending line: any
/// syntax error or duplicate `INPUT` first, then the first definition
/// that cannot be built, then the first `OUTPUT` of an undefined net.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "\
/// INPUT(a)
/// INPUT(b)
/// s = XOR(a, b)
/// q = DFF(s)
/// OUTPUT(s)
/// ";
/// let nl = rebert_netlist::parse_bench("toy", src)?;
/// assert_eq!(nl.gate_count(), 1);
/// assert_eq!(nl.dff_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench(name: &str, src: &str) -> Result<Netlist, ParseError> {
    let mut reader = Reader::new(name);
    // Statements that may reference nets defined later, borrowed from
    // `src` and processed once every input is declared.
    let mut outputs: Vec<(usize, &str)> = Vec::new();
    let mut defs: Vec<(usize, Def<'_>)> = Vec::new();
    let statements = Statements {
        src,
        at: 0,
        line: 0,
    };
    for stmt in statements {
        match stmt? {
            (line, Stmt::Input(n)) => {
                let (id, added) = reader.nl.net_named(n);
                if !added {
                    return Err(ParseError::Netlist {
                        line,
                        source: NetlistError::DuplicateNet(n.to_owned()),
                    });
                }
                reader.nl.promote_to_input(id);
            }
            (line, Stmt::Output(n)) => outputs.push((line, n)),
            (line, Stmt::Def(def)) => defs.push((line, def)),
        }
    }
    for (line, def) in defs {
        reader.define(line, def)?;
    }
    for (line, name) in outputs {
        let id = reader.lookup(name).ok_or_else(|| ParseError::Syntax {
            line,
            text: format!("OUTPUT({name}) references undefined net"),
        })?;
        reader.nl.add_output(id);
    }
    Ok(reader.nl)
}

/// One statement, its spans trimmed.
enum Stmt<'src> {
    Input(&'src str),
    Output(&'src str),
    Def(Def<'src>),
}

/// A `lhs = op(args)` definition; `args` is the raw text between the
/// parentheses (empty for `CONST0`/`CONST1`).
struct Def<'src> {
    lhs: &'src str,
    op: &'src str,
    args: &'src str,
}

/// The statements of `.bench` text in order, each with its 1-based line
/// number; a line that is not a statement yields its syntax error.
struct Statements<'src> {
    src: &'src str,
    /// Byte offset of the next line.
    at: usize,
    /// Number of lines read so far.
    line: usize,
}

/// The first byte at or after `at` that a line scan stops at — `\n`,
/// `#`, `=` or `(` — or the end of `bytes`. Eight bytes are tested at a
/// time: `(x - 0x01…) & !x & 0x80…` sets the high bit of `x`'s lowest
/// zero lane, and of no lane below it (a borrow only reaches the lanes
/// above a zero lane), so the lowest set bit over the four stop bytes is
/// the first stop.
fn next_stop(bytes: &[u8], mut at: usize) -> usize {
    const LANES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let zero_lanes = |x: u64| x.wrapping_sub(LANES) & !x & HIGH;
    while let Some(word) = bytes.get(at..at + 8) {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let stops = [b'\n', b'#', b'=', b'(']
            .iter()
            .fold(0, |m, &b| m | zero_lanes(word ^ (LANES * u64::from(b))));
        if stops != 0 {
            return at + stops.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    bytes[at..]
        .iter()
        .position(|b| matches!(b, b'\n' | b'#' | b'=' | b'('))
        .map_or(bytes.len(), |p| at + p)
}

impl<'src> Iterator for Statements<'src> {
    type Item = Result<(usize, Stmt<'src>), ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.src.as_bytes();
        while self.at < bytes.len() {
            // One pass over the line up to `\n` or `#` finds the first
            // `=` and the first `(` after it.
            let start = self.at;
            let (mut eq, mut paren) = (None, None);
            let mut end = next_stop(bytes, start);
            while let Some(&b) = bytes.get(end) {
                match b {
                    b'\n' | b'#' => break,
                    b'=' => {
                        eq.get_or_insert(end);
                    }
                    _ => {
                        if eq.is_some() {
                            paren.get_or_insert(end);
                        }
                    }
                }
                end = next_stop(bytes, end + 1);
            }
            self.at = match bytes.get(end) {
                Some(b'#') => bytes[end..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| end + p + 1),
                _ => end + 1,
            };
            self.line += 1;
            let text = trim(&self.src[start..end]);
            if !text.is_empty() {
                // Where `text` starts in the source, to place `eq` and
                // `paren` in it.
                let at = text.as_ptr() as usize - self.src.as_ptr() as usize;
                let stmt = statement(text, eq.map(|e| e - at), paren.map(|p| p - at));
                return Some(
                    stmt.map(|s| (self.line, s))
                        .ok_or_else(|| ParseError::Syntax {
                            line: self.line,
                            text: text.to_owned(),
                        }),
                );
            }
        }
        None
    }
}

/// The statement `text` (trimmed, non-empty) holds, or `None` for a
/// syntax error. `eq` is the offset of its first `=`, and `paren` of the
/// first `(` after that.
fn statement(text: &str, eq: Option<usize>, paren: Option<usize>) -> Option<Stmt<'_>> {
    if let Some(rest) = text.strip_prefix("INPUT(") {
        return Some(Stmt::Input(trim(rest.strip_suffix(')')?)));
    }
    if let Some(rest) = text.strip_prefix("OUTPUT(") {
        return Some(Stmt::Output(trim(rest.strip_suffix(')')?)));
    }
    // lhs = OP(arg, ...)  |  lhs = CONST0 / CONST1
    let eq = eq?;
    let lhs = trim(&text[..eq]);
    let rhs = trim(&text[eq + 1..]);
    if rhs == "CONST0" || rhs == "CONST1" {
        return Some(Stmt::Def(Def {
            lhs,
            op: rhs,
            args: "",
        }));
    }
    let paren = paren?;
    Some(Stmt::Def(Def {
        lhs,
        op: trim(&text[eq + 1..paren]),
        args: text[paren + 1..].strip_suffix(')')?,
    }))
}

/// [`str::trim`], with ASCII whitespace stripped byte by byte first. The
/// other whitespace `str::trim` strips is all non-ASCII, so it only runs
/// when a non-ASCII byte is left at an end.
fn trim(s: &str) -> &str {
    let ws = |b: &u8| matches!(b, b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b' ');
    let bytes = s.as_bytes();
    let start = bytes.iter().position(|b| !ws(b)).unwrap_or(bytes.len());
    let end = bytes.iter().rposition(|b| !ws(b)).map_or(start, |e| e + 1);
    let t = &s[start..end];
    match (t.as_bytes().first(), t.as_bytes().last()) {
        (Some(&first), Some(&last)) if !first.is_ascii() || !last.is_ascii() => t.trim(),
        _ => t,
    }
}

/// The non-empty, trimmed arguments of an argument list.
fn split_args(args: &str) -> impl Iterator<Item = &str> {
    args.split(',').map(trim).filter(|a| !a.is_empty())
}

/// A gate mnemonic: its exact upper-case spelling first, then
/// [`GateType::from_str`](std::str::FromStr)'s case-insensitive match.
fn gate_type(op: &str) -> Option<GateType> {
    Some(match op {
        "AND" => GateType::And,
        "OR" => GateType::Or,
        "NAND" => GateType::Nand,
        "NOR" => GateType::Nor,
        "XOR" => GateType::Xor,
        "XNOR" => GateType::Xnor,
        "NOT" | "INV" => GateType::Not,
        "BUF" | "BUFF" => GateType::Buf,
        "MUX" => GateType::Mux,
        _ => return op.parse().ok(),
    })
}

/// Builds a netlist from `.bench` text, resolving written names on the
/// netlist's own name store.
///
/// A written name means the net first created for it. That net carries
/// the name itself unless an internal `__const_<line>` net, which text
/// never resolves to, or a suffixed net already held it; then
/// [`Netlist::add_net`] gave it the first free `{name}_{i}`, and
/// `suffixed` maps the written name to it.
struct Reader<'src> {
    nl: Netlist,
    /// Per net id, whether text never resolves to the net by its own
    /// name: the internal constants and the suffixed nets. It is only as
    /// long as the last such id needs, so it stays empty, and costs a
    /// lookup nothing, until a constant or a name collision occurs.
    foreign: Vec<bool>,
    /// Written names whose net carries a `{name}_{i}` suffix.
    suffixed: HashMap<&'src str, NetId>,
}

impl<'src> Reader<'src> {
    fn new(name: &str) -> Self {
        Reader {
            nl: Netlist::new(name),
            foreign: Vec::new(),
            suffixed: HashMap::new(),
        }
    }

    /// Builds one definition read on `line`.
    fn define(&mut self, line: usize, def: Def<'src>) -> Result<(), ParseError> {
        let Def { lhs, op, args } = def;
        let at_line = |source| ParseError::Netlist { line, source };
        let out = self.intern(lhs);
        match op {
            "CONST0" | "CONST1" => {
                // A constant drives an existing net through a BUF from an
                // internal `__const_<line>` net, which user text never
                // resolves to.
                let c = self.nl.add_const(format!("__const_{line}"), op == "CONST1");
                self.mark_foreign(c);
                self.nl
                    .add_gate(GateType::Buf, vec![c], out)
                    .map_err(at_line)?;
            }
            "DFF" => {
                let mut data = split_args(args);
                let (Some(d), None) = (data.next(), data.next()) else {
                    return Err(ParseError::Syntax {
                        line,
                        text: format!("{lhs} = {op}(...)"),
                    });
                };
                let d = self.intern(d);
                self.nl.add_dff(d, out).map_err(at_line)?;
            }
            other => {
                let gtype = gate_type(other).ok_or_else(|| ParseError::UnknownGate {
                    line,
                    name: other.to_owned(),
                })?;
                let inputs = split_args(args).map(|a| self.intern(a)).collect();
                self.nl.add_gate(gtype, inputs, out).map_err(at_line)?;
            }
        }
        Ok(())
    }

    /// Whether text never resolves to net `id` by its own name.
    fn is_foreign(&self, id: NetId) -> bool {
        self.foreign.get(id.index()).copied().unwrap_or(false)
    }

    fn mark_foreign(&mut self, id: NetId) {
        if self.foreign.len() <= id.index() {
            self.foreign.resize(id.index() + 1, false);
        }
        self.foreign[id.index()] = true;
    }

    /// The net `name` means, if one was created for it.
    fn lookup(&self, name: &str) -> Option<NetId> {
        let id = self.nl.find_net(name)?;
        if self.is_foreign(id) {
            return self.suffixed.get(name).copied();
        }
        Some(id)
    }

    /// The net `name` means, created if this is its first use. A name
    /// that no net holds yet is found or stored in one probe.
    fn intern(&mut self, name: &'src str) -> NetId {
        let (id, added) = self.nl.net_named(name);
        if added || !self.is_foreign(id) {
            return id;
        }
        if let Some(&id) = self.suffixed.get(name) {
            return id;
        }
        let id = self.nl.add_net(name);
        self.mark_foreign(id);
        self.suffixed.insert(name, id);
        id
    }
}

/// Serializes a netlist to the `.bench` dialect accepted by
/// [`parse_bench`]. Round-trips structurally (net names preserved).
pub fn write_bench(nl: &Netlist) -> String {
    // Writing to a `String` cannot fail.
    let mut out = String::new();
    let _ = writeln!(out, "# design: {}", nl.name());
    for &pi in nl.primary_inputs() {
        let _ = writeln!(out, "INPUT({})", nl.net_name(pi));
    }
    for &po in nl.primary_outputs() {
        let _ = writeln!(out, "OUTPUT({})", nl.net_name(po));
    }
    // Emit constants first so the reader sees defined names.
    for (id, name) in nl.iter_nets() {
        match nl.driver(id) {
            Driver::ConstZero if name.starts_with("__const") => {
                let _ = writeln!(out, "{name} = CONST0");
            }
            Driver::ConstOne => {
                let _ = writeln!(out, "{name} = CONST1");
            }
            // An undriven placeholder or a constant zero: skip.
            _ => {}
        }
    }
    for g in nl.gates() {
        let _ = write!(out, "{} = {}(", nl.net_name(g.output), g.gtype.mnemonic());
        for (i, &input) in g.inputs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(nl.net_name(input));
        }
        out.push_str(")\n");
    }
    for ff in nl.dffs() {
        let _ = writeln!(out, "{} = DFF({})", nl.net_name(ff.q), nl.net_name(ff.d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = "\
# a toy circuit
INPUT(a)
INPUT(b)
s = XOR(a, b)   # sum
c = AND(a, b)
q = DFF(s)
r = DFF(c)
OUTPUT(s)
OUTPUT(c)
";

    #[test]
    fn parse_toy() {
        let nl = parse_bench("toy", TOY).expect("parse");
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.primary_outputs().len(), 2);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.dff_count(), 2);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn round_trip() {
        let nl = parse_bench("toy", TOY).expect("parse");
        let text = write_bench(&nl);
        let back = parse_bench("toy", &text).expect("reparse");
        assert_eq!(back.gate_count(), nl.gate_count());
        assert_eq!(back.dff_count(), nl.dff_count());
        assert_eq!(back.primary_inputs().len(), nl.primary_inputs().len());
        assert!(back.validate().is_ok());
        // Gate structure identical up to net ids: compare by names.
        for (g1, g2) in nl.gates().iter().zip(back.gates()) {
            assert_eq!(g1.gtype, g2.gtype);
            assert_eq!(nl.net_name(g1.output), back.net_name(g2.output));
        }
    }

    #[test]
    fn forward_references_allowed() {
        let src = "\
INPUT(a)
y = NOT(x)
x = AND(a, q)
q = DFF(y)
OUTPUT(y)
";
        let nl = parse_bench("fwd", src).expect("parse");
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn syntax_error_reported_with_line() {
        let err = parse_bench("bad", "INPUT(a)\nfoo bar baz\n").unwrap_err();
        match err {
            ParseError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn unknown_gate_reported() {
        let err = parse_bench("bad", "INPUT(a)\ny = FROB(a, a)\n").unwrap_err();
        assert!(matches!(err, ParseError::UnknownGate { .. }));
    }

    #[test]
    fn every_variant_carries_and_displays_its_line() {
        // One input per variant; each error must expose the 1-based line
        // through both `line()` and its `Display` rendering.
        let cases: &[(&str, usize)] = &[
            ("INPUT(a)\nfoo bar baz\n", 2),               // Syntax
            ("INPUT(a)\n\ny = FROB(a, a)\n", 3),          // UnknownGate
            ("INPUT(a)\nINPUT(a)\n", 2),                  // Netlist(DuplicateNet)
            ("INPUT(a)\nINPUT(b)\n\ny = NOT(a, b)\n", 4), // Netlist(BadArity)
            ("INPUT(a)\ny = NOT(a)\ny = BUF(a)\n", 3),    // Netlist(MultipleDrivers)
            ("INPUT(a)\nOUTPUT(zz)\n", 2),                // Syntax (undefined OUTPUT)
        ];
        for (src, want) in cases {
            let err = parse_bench("bad", src).unwrap_err();
            assert_eq!(err.line(), *want, "line() for {src:?}: {err}");
            assert!(
                err.to_string().contains(&format!("line {want}")),
                "Display misses line for {src:?}: {err}"
            );
        }
    }

    #[test]
    fn constants_parse() {
        let src = "\
INPUT(a)
one = CONST1
y = AND(a, one)
OUTPUT(y)
";
        let nl = parse_bench("c", src).expect("parse");
        assert!(nl.validate().is_ok());
        let text = write_bench(&nl);
        let back = parse_bench("c", &text).expect("reparse");
        assert!(back.validate().is_ok());
    }

    #[test]
    fn mux_parses() {
        let src = "\
INPUT(s)
INPUT(a)
INPUT(b)
y = MUX(s, a, b)
OUTPUT(y)
";
        let nl = parse_bench("m", src).expect("parse");
        assert_eq!(nl.gates()[0].gtype, GateType::Mux);
    }
    /// The parser as it stood before the name store, kept as the oracle
    /// for NetId order and names: a private map from each written name
    /// to the net first created for it, over the netlist's own
    /// uniquifying `add_net`.
    fn reference_parse(name: &str, src: &str) -> Result<Netlist, ParseError> {
        let mut nl = Netlist::new(name);
        let mut ids: HashMap<String, NetId> = HashMap::new();
        let mut outputs: Vec<(usize, String)> = Vec::new();
        let mut defs: Vec<(usize, String, String, Vec<String>)> = Vec::new();
        let intern = |nl: &mut Netlist, ids: &mut HashMap<String, NetId>, n: &str| {
            *ids.entry(n.to_owned()).or_insert_with(|| nl.add_net(n))
        };
        for (lineno, raw) in src.lines().enumerate() {
            let line = lineno + 1;
            let text = raw.split('#').next().unwrap_or("").trim();
            if text.is_empty() {
                continue;
            }
            let syntax = || ParseError::Syntax {
                line,
                text: text.to_owned(),
            };
            if let Some(rest) = text.strip_prefix("INPUT(") {
                let n = rest.strip_suffix(')').ok_or_else(syntax)?.trim();
                if ids.contains_key(n) {
                    return Err(ParseError::Netlist {
                        line,
                        source: NetlistError::DuplicateNet(n.to_owned()),
                    });
                }
                let id = nl.add_input(n);
                ids.insert(n.to_owned(), id);
                continue;
            }
            if let Some(rest) = text.strip_prefix("OUTPUT(") {
                let n = rest.strip_suffix(')').ok_or_else(syntax)?;
                outputs.push((line, n.trim().to_owned()));
                continue;
            }
            let (lhs, rhs) = text.split_once('=').ok_or_else(syntax)?;
            let (lhs, rhs) = (lhs.trim().to_owned(), rhs.trim());
            if rhs == "CONST0" || rhs == "CONST1" {
                defs.push((line, lhs, rhs.to_owned(), Vec::new()));
                continue;
            }
            let (op, args) = rhs.split_once('(').ok_or_else(syntax)?;
            let args = args.strip_suffix(')').ok_or_else(syntax)?;
            let args = args
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(str::to_owned)
                .collect();
            defs.push((line, lhs, op.trim().to_owned(), args));
        }
        for (line, lhs, op, args) in defs {
            let at_line = |source| ParseError::Netlist { line, source };
            let out = intern(&mut nl, &mut ids, &lhs);
            match op.as_str() {
                "CONST0" | "CONST1" => {
                    let c = nl.add_const(format!("__const_{line}"), op == "CONST1");
                    nl.add_gate(GateType::Buf, vec![c], out).map_err(at_line)?;
                }
                "DFF" => {
                    if args.len() != 1 {
                        return Err(ParseError::Syntax {
                            line,
                            text: format!("{lhs} = {op}(...)"),
                        });
                    }
                    let d = intern(&mut nl, &mut ids, &args[0]);
                    nl.add_dff(d, out).map_err(at_line)?;
                }
                other => {
                    let gtype: GateType = other.parse().map_err(|_| ParseError::UnknownGate {
                        line,
                        name: other.to_owned(),
                    })?;
                    let inputs = args.iter().map(|a| intern(&mut nl, &mut ids, a)).collect();
                    nl.add_gate(gtype, inputs, out).map_err(at_line)?;
                }
            }
        }
        for (line, name) in outputs {
            let id = ids.get(&name).copied().ok_or_else(|| ParseError::Syntax {
                line,
                text: format!("OUTPUT({name}) references undefined net"),
            })?;
            nl.add_output(id);
        }
        Ok(nl)
    }

    /// Everything observable about a parsed netlist, by NetId.
    fn observe(nl: &Netlist) -> String {
        let mut out = String::new();
        for (id, name) in nl.iter_nets() {
            let _ = writeln!(
                out,
                "{} {name:?} {:?} {}",
                id.index(),
                nl.driver(id),
                nl.is_driven(id)
            );
            assert_eq!(nl.find_net(name), Some(id), "the table finds `{name}`");
        }
        let _ = writeln!(out, "{:?} {:?}", nl.primary_inputs(), nl.primary_outputs());
        let _ = writeln!(out, "{:?} {:?}", nl.gates(), nl.dffs());
        out + &write_bench(nl)
    }

    /// Net names in NetId order.
    fn names(nl: &Netlist) -> Vec<&str> {
        nl.iter_nets().map(|(_, n)| n).collect()
    }

    /// Internal constant nets collide with inputs and with written
    /// names, and written names collide with their suffixed nets.
    const COLLISIONS: &str = "\
# name-store parity fixture
INPUT(a)
INPUT(__const_6)
INPUT(b)
OUTPUT(__const_9)
k = CONST1
y = AND(a, __const_6_1, b)
z = OR(y, __const_6_1)
m = CONST0
w = XOR(__const_9, k)
__const_9_1 = NOT(a)
v = BUF(__const_9_1)
s = MUX(a, v, __const_6)
q = DFF(w)
r = DFF(s)
t = DFF(z)
OUTPUT(__const_6_1)
OUTPUT(v)
c = CONST0(ignored, args)
";

    #[test]
    fn name_store_keeps_net_order_and_names() {
        let nl = parse_bench("pin", COLLISIONS).unwrap();
        // Pinned from the parser before the name store.
        assert_eq!(
            names(&nl),
            [
                "a",
                "__const_6",
                "b",
                "k",
                "__const_6_1",
                "y",
                "__const_6_1_1",
                "z",
                "m",
                "__const_9",
                "w",
                "__const_9_1",
                "__const_9_1_1",
                "v",
                "s",
                "q",
                "r",
                "t",
                "c",
                "__const_19",
            ]
        );
        let po: Vec<usize> = nl.primary_outputs().iter().map(|n| n.index()).collect();
        assert_eq!(po, [11, 6, 13]);
        let y = &nl.gates()[1];
        assert_eq!((y.inputs[1].index(), y.output.index()), (6, 5));
        assert_eq!(
            write_bench(&nl),
            "\
# design: pin
INPUT(a)
INPUT(__const_6)
INPUT(b)
OUTPUT(__const_9_1)
OUTPUT(__const_6_1_1)
OUTPUT(v)
__const_6_1 = CONST1
__const_6_1_1 = CONST0
__const_9 = CONST0
__const_9_1 = CONST0
__const_19 = CONST0
k = BUF(__const_6_1)
y = AND(a, __const_6_1_1, b)
z = OR(y, __const_6_1_1)
m = BUF(__const_9)
w = XOR(__const_9_1, k)
__const_9_1_1 = NOT(a)
v = BUF(__const_9_1_1)
s = MUX(a, v, __const_6)
c = BUF(__const_19)
q = DFF(w)
r = DFF(s)
t = DFF(z)
"
        );
        assert_eq!(
            observe(&nl),
            observe(&reference_parse("pin", COLLISIONS).unwrap())
        );
    }

    #[test]
    fn written_names_never_resolve_to_internal_constants() {
        let err = parse_bench(
            "e",
            "INPUT(a)\nk = CONST1\ny = AND(a, k)\nOUTPUT(__const_2)\n",
        )
        .unwrap_err();
        assert_eq!(
            err,
            ParseError::Syntax {
                line: 4,
                text: "OUTPUT(__const_2) references undefined net".into()
            }
        );
        let nl = parse_bench(
            "e",
            "INPUT(a)\nk = CONST1\ny = AND(a, __const_2)\nOUTPUT(y)\n",
        )
        .unwrap();
        assert_eq!(names(&nl), ["a", "k", "__const_2", "y", "__const_2_1"]);
        assert_eq!(nl.gates()[1].inputs[1], nl.find_net("__const_2_1").unwrap());
        assert!(
            !nl.is_driven(nl.gates()[1].inputs[1]),
            "a fresh undriven net"
        );
    }

    #[test]
    fn long_suffix_chains_resolve_in_linear_time() {
        /// Parses `src` under the time bound.
        fn parse_timed(src: &str) -> Netlist {
            let start = std::time::Instant::now();
            let nl = parse_bench("chain", src).unwrap();
            let elapsed = start.elapsed();
            assert!(
                elapsed < std::time::Duration::from_secs(10),
                "parsing {} lines took {elapsed:?}",
                src.lines().count()
            );
            nl
        }

        // Inputs take `__const_L_1` … `__const_L_n`, the constant on line
        // L = n + 1 takes `__const_L`, so the net every later reference
        // to `__const_L` means sits past the whole chain. Resolving each
        // reference by walking the chain takes over a minute here.
        let n = 50_000;
        let l = n + 1;
        let mut src = String::new();
        for i in 1..=n {
            let _ = writeln!(src, "INPUT(__const_{l}_{i})");
        }
        src.push_str("k = CONST1\n");
        for j in 0..n {
            let _ = writeln!(src, "w{j} = AND(k, __const_{l})");
        }
        let nl = parse_timed(&src);
        let past = nl.find_net(&format!("__const_{l}_{}", n + 1)).unwrap();
        assert!(!nl.is_driven(past), "a fresh undriven net");
        assert_eq!(nl.gate_count(), n + 1);
        assert!(nl.gates()[1..].iter().all(|g| g.inputs[1] == past));

        // 100k names over one 200-byte prefix, each declared and then
        // read back by a gate: every probe compares long equal prefixes.
        let prefix = "p".repeat(200);
        let n = 100_000;
        let mut src = String::new();
        for i in 0..n {
            let _ = writeln!(src, "INPUT({prefix}{i})");
        }
        for i in 0..n {
            let _ = writeln!(src, "w{i} = NOT({prefix}{i})");
        }
        let nl = parse_timed(&src);
        assert_eq!(nl.net_count(), 2 * n);
        let last = nl.find_net(&format!("{prefix}{}", n - 1)).unwrap();
        assert_eq!(nl.gates()[n - 1].inputs, [last]);

        // 100k names of one length that differ only in their last
        // character, whose UTF-8 is the last bytes of the name.
        let stem = "q".repeat(39);
        let mut src = String::new();
        let names: Vec<String> = (0x1_0000..0x1_0000 + n as u32)
            .map(|c| format!("{stem}{}", char::from_u32(c).unwrap()))
            .collect();
        for name in &names {
            let _ = writeln!(src, "INPUT({name})");
        }
        for (i, name) in names.iter().enumerate() {
            let _ = writeln!(src, "w{i} = BUF({name})");
        }
        let nl = parse_timed(&src);
        assert_eq!(nl.net_count(), 2 * n);
        assert!(names
            .iter()
            .enumerate()
            .all(|(i, name)| nl.find_net(name) == Some(NetId(i as u32))));
    }

    /// SplitMix64: a tiny seeded generator for the parity loop.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random `.bench` text over a small name pool that collides with
    /// the internal `__const_<line>` nets and their suffixes; some lines
    /// are malformed or redefine a net, so errors are compared too.
    ///
    /// It also holds what a byte scanner can get wrong: CRLF endings and
    /// a last line without one; ASCII and Unicode whitespace around names
    /// and operators; `#` after a statement and inside an argument list;
    /// `=` and `(` inside arguments; empty argument lists and trailing
    /// commas; `INPUT` after definitions; alias and mixed-case mnemonics;
    /// and names of 1-40 bytes over one shared prefix.
    fn random_bench(rng: &mut SplitMix) -> String {
        const WHITESPACE: [&str; 10] = [
            " ", "\t", "\x0b", "\x0c", "\r", "\u{a0}", "\u{85}", "\u{2028}", "\u{3000}", " \t",
        ];
        const PREFIX: &str = "datapath_register_file_bank0_slice_word_";
        let lines = 4 + rng.below(24);
        let mut pool: Vec<String> = ["a", "b", "x", "x_1", "n", "", "é", "a=b", "a(b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for l in 1..=lines {
            pool.push(format!("__const_{l}"));
            pool.push(format!("__const_{l}_1"));
        }
        for len in [1, 7, 8, 9, 15, 16, 17, 39, 40] {
            pool.push(PREFIX[..len].to_owned());
        }
        pool.push(format!("{}b", &PREFIX[..39]));
        // Mostly nothing, sometimes one or two whitespace runs.
        let ws = |rng: &mut SplitMix| match rng.below(8) {
            0 => WHITESPACE[rng.below(WHITESPACE.len())].to_owned(),
            1 => WHITESPACE[rng.below(WHITESPACE.len())].repeat(2),
            _ => String::new(),
        };
        // Inputs first in half the texts; the rest also declare inputs
        // after definitions.
        let inputs_first = rng.below(2) == 0;
        let crlf = rng.below(4) == 0;
        let mut src = String::new();
        let mut written: Vec<String> = Vec::new();
        let mut body: Vec<String> = Vec::new();
        for i in 0..lines {
            let pick = |rng: &mut SplitMix| {
                let name = &pool[rng.below(pool.len())];
                format!("{}{name}{}", ws(rng), ws(rng))
            };
            // Mostly fresh left-hand sides, so most texts parse.
            let lhs = match rng.below(4) {
                0 => pick(rng),
                _ => format!("{}w{i}{}", ws(rng), ws(rng)),
            };
            let (a, b, c) = (pick(rng), pick(rng), pick(rng));
            let eq = format!("{}={}", ws(rng), ws(rng));
            let line = match rng.below(48) {
                0 => "garbage line".to_owned(),
                1 => format!("{lhs}{eq}FROB({a})"),
                2..=4 => format!("INPUT({a})"),
                5 | 6 => format!("OUTPUT( {} )", written.last().unwrap_or(&a)),
                7..=10 => format!("{lhs}{eq}CONST{}", rng.below(2)),
                11..=13 => format!("{lhs}{eq}DFF({a})"),
                14..=16 => format!("{lhs}{eq}MUX({a}, {b}, {c})"),
                17 => format!("{lhs}{eq}not({a})"),
                18 => "# a comment".to_owned(),
                19..=21 => {
                    let op = ["BUFF", "INV", "buf", "Inv", "bUfF", "NOT"][rng.below(6)];
                    format!("{lhs}{eq}{}{op}{}({a})", ws(rng), ws(rng))
                }
                22 => format!("{lhs}{eq}AND({a}, {b}) # trailing comment"),
                23 => format!("{lhs}{eq}AND({a}, # {b})"),
                24 => format!("{lhs}{eq}OR()"),
                25 => format!("{lhs}{eq}XOR({a}, {b},)"),
                26 => format!("{lhs}{eq}NAND({a},, {b})"),
                27 => format!("{lhs}{eq}DFF({a},)"),
                _ => {
                    let op =
                        ["AND", "or", "NAND", "Nor", "XOR", "XNOR", "xNoR", "mux"][rng.below(8)];
                    let args: Vec<String> = (0..2 + rng.below(4)).map(|_| pick(rng)).collect();
                    format!("{lhs}{eq}{op}{}({})", ws(rng), args.join(","))
                }
            };
            written.push(lhs);
            body.push(format!("{}{line}{}", ws(rng), ws(rng)));
        }
        if inputs_first {
            // Stable: inputs keep their order, and so does the rest.
            body.sort_by_key(|l| !l.trim().starts_with("INPUT("));
        }
        for (i, line) in body.iter().enumerate() {
            src.push_str(line);
            if i + 1 < body.len() || rng.below(4) != 0 {
                src.push_str(if crlf { "\r\n" } else { "\n" });
            }
        }
        src
    }

    #[test]
    fn name_store_matches_the_reference_parser_on_random_texts() {
        // Fixed texts first, one per case the random texts mix in.
        let fixed = [
            "INPUT(a)\r\nINPUT(b)\r\ny = AND(a, b)\r\nq = DFF(y)\r\nOUTPUT(y)",
            "INPUT(a)\ny = NOT(a)\r",
            "\u{3000}INPUT(\u{a0}a\u{85})\u{2028}\ny\x0b=\x0cNOT\t(a)\nOUTPUT(y\u{a0})\n",
            "INPUT(a)\ny = AND(a, a) # AND(b)\nz = AND(a, # b)\n",
            "INPUT(a)\ny = AND(a=b, a(c)\n",
            "INPUT(a)\ny = AND()\n",
            "INPUT(a)\ny = AND(a, a,)\nq = DFF(y,)\n",
            "y = AND(a, b)\nINPUT(b)\nINPUT(a)\nOUTPUT(y)\n",
            "INPUT(a)\ny = Inv(a)\nz = BUFF(y)\nw = xNoR(y, z)\n",
            "INPUT(é)\n\u{e9}x = NOT(é)\n",
        ];
        let mut rng = SplitMix(0x5eed);
        let (mut parsed, mut failed, mut suffixed) = (0, 0, 0);
        // Parsed texts that declare an input after a definition, and
        // texts with definitions whose inputs all come first.
        let (mut late_inputs, mut inputs_first) = (0, 0);
        let texts = fixed
            .iter()
            .map(|t| t.to_string())
            .chain(std::iter::repeat_with(|| random_bench(&mut rng)).take(6000));
        for src in texts {
            match (parse_bench("r", &src), reference_parse("r", &src)) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(observe(&got), observe(&want), "{src:?}");
                    parsed += 1;
                    // A written name took a suffix past a name that was
                    // itself a suffix or an internal constant.
                    suffixed += usize::from(names(&got).iter().any(|n| n.ends_with("_1_1")));
                    let lines: Vec<&str> = src.lines().map(str::trim).collect();
                    let first_def = lines.iter().position(|l| l.contains('='));
                    let last_input = lines.iter().rposition(|l| l.starts_with("INPUT("));
                    match (first_def, last_input) {
                        (Some(d), Some(i)) if d < i => late_inputs += 1,
                        (Some(_), _) => inputs_first += 1,
                        _ => {}
                    }
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "{src:?}");
                    failed += 1;
                }
                (got, want) => panic!("{src:?}\ngot {got:?}\nwant {want:?}"),
            }
        }
        // Both outcomes, both reading orders, and chained suffixes are
        // well represented.
        assert!(
            parsed > 600 && failed > 600,
            "{parsed} parsed, {failed} failed"
        );
        assert!(
            late_inputs > 100 && inputs_first > 300,
            "{late_inputs} parsed with late inputs, {inputs_first} without"
        );
        assert!(suffixed > 30, "{suffixed} texts with chained suffixes");
    }
}
