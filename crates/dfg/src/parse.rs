//! A small textual DFG format, so benchmark graphs can live in plain files.
//!
//! Grammar (line-oriented; `#` starts a comment):
//!
//! ```text
//! dfg <name>
//! op <label> <mnemonic>            # e.g. `op t1 mul`
//! edge <from-label> <to-label>     # data dependency
//! ```
//!
//! Labels are arbitrary identifiers; each `op` line mints a node, `edge`
//! lines reference earlier labels.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::graph::{Dfg, GraphError, NodeId};
use crate::op::OpKind;

/// Longest accepted source line, in bytes: generous for any legitimate
/// directive, small enough that a hostile megabyte-long "line" is
/// rejected before any token is materialized.
pub const MAX_LINE_LEN: usize = 4096;

/// Longest accepted identifier (graph name or op label), in bytes.
pub const MAX_LABEL_LEN: usize = 64;

/// Most `op` directives a single graph may declare — far above every
/// benchmark in the paper, low enough to bound memory for a graph that
/// arrives over the wire.
pub const MAX_OPS: usize = 65_536;

/// Error from [`parse_dfg`], carrying the 1-based source line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDfgError {
    line: usize,
    column: usize,
    kind: ParseDfgErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseDfgErrorKind {
    MissingHeader,
    UnknownDirective(String),
    BadArity(&'static str),
    UnknownOp(String),
    DuplicateLabel(String),
    UnknownLabel(String),
    LineTooLong(usize),
    OversizedLabel(usize),
    TooManyOps,
    Graph(GraphError),
}

impl ParseDfgError {
    /// 1-based line number where parsing failed.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }

    /// 1-based column (in characters) of the offending token; column 1
    /// for whole-line errors such as an over-long line or a missing
    /// header at end of input.
    #[must_use]
    pub fn column(&self) -> usize {
        self.column
    }
}

impl fmt::Display for ParseDfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: ", self.line, self.column)?;
        match &self.kind {
            ParseDfgErrorKind::MissingHeader => {
                write!(f, "expected `dfg <name>` header before other directives")
            }
            ParseDfgErrorKind::UnknownDirective(d) => write!(f, "unknown directive `{d}`"),
            ParseDfgErrorKind::BadArity(d) => write!(f, "wrong number of arguments for `{d}`"),
            ParseDfgErrorKind::UnknownOp(m) => write!(f, "unknown op mnemonic `{m}`"),
            ParseDfgErrorKind::DuplicateLabel(l) => write!(f, "duplicate op label `{l}`"),
            ParseDfgErrorKind::UnknownLabel(l) => write!(f, "unknown op label `{l}`"),
            ParseDfgErrorKind::LineTooLong(n) => {
                write!(f, "line of {n} bytes exceeds the {MAX_LINE_LEN}-byte limit")
            }
            ParseDfgErrorKind::OversizedLabel(n) => write!(
                f,
                "identifier of {n} bytes exceeds the {MAX_LABEL_LEN}-byte limit"
            ),
            ParseDfgErrorKind::TooManyOps => {
                write!(f, "graph exceeds the {MAX_OPS}-op limit")
            }
            ParseDfgErrorKind::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseDfgError {}

/// Parses the textual DFG format.
///
/// # Errors
///
/// Returns a [`ParseDfgError`] pinpointing the offending line for malformed
/// directives, unknown labels/mnemonics or graph violations (cycles,
/// operand overflow, duplicates).
///
/// # Examples
///
/// ```
/// use troy_dfg::parse_dfg;
///
/// let g = parse_dfg(
///     "dfg demo\n\
///      op a mul\n\
///      op b mul\n\
///      op s add\n\
///      edge a s\n\
///      edge b s\n",
/// )?;
/// assert_eq!(g.name(), "demo");
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), troy_dfg::ParseDfgError>(())
/// ```
pub fn parse_dfg(text: &str) -> Result<Dfg, ParseDfgError> {
    let mut dfg: Option<Dfg> = None;
    // Labels borrow from `text`: an op costs its node's one label string.
    let mut labels: HashMap<&str, NodeId> = HashMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let err = |column, kind| ParseDfgError {
            line: line_no,
            column,
            kind,
        };
        if raw.len() > MAX_LINE_LEN {
            return Err(err(1, ParseDfgErrorKind::LineTooLong(raw.len())));
        }
        // Strip the comment but keep the original offsets: columns must
        // point into the line as the author wrote it.
        let content = raw.split('#').next().unwrap_or("");
        // Every directive takes at most two arguments, so a line's first
        // four tokens decide it: a fourth only ever means a bad arity.
        let mut tokens = [(0, ""); 4];
        let mut len = 0;
        for token in Tokens::new(content).take(tokens.len()) {
            tokens[len] = token;
            len += 1;
        }
        let Some((&(dir_col, directive), args)) = tokens[..len].split_first() else {
            continue;
        };
        let check_label = |(col, name): (usize, &str)| {
            if name.len() > MAX_LABEL_LEN {
                Err(err(col, ParseDfgErrorKind::OversizedLabel(name.len())))
            } else {
                Ok(())
            }
        };
        match directive {
            "dfg" => {
                let [(name_col, name)] = args[..] else {
                    return Err(err(dir_col, ParseDfgErrorKind::BadArity("dfg")));
                };
                check_label((name_col, name))?;
                dfg = Some(Dfg::new(name));
            }
            "op" => {
                let g = dfg
                    .as_mut()
                    .ok_or_else(|| err(dir_col, ParseDfgErrorKind::MissingHeader))?;
                let [(label_col, label), (mn_col, mnemonic)] = args[..] else {
                    return Err(err(dir_col, ParseDfgErrorKind::BadArity("op")));
                };
                check_label((label_col, label))?;
                let kind: OpKind = mnemonic
                    .parse()
                    .map_err(|_| err(mn_col, ParseDfgErrorKind::UnknownOp(mnemonic.to_owned())))?;
                let Entry::Vacant(slot) = labels.entry(label) else {
                    return Err(err(
                        label_col,
                        ParseDfgErrorKind::DuplicateLabel(label.to_owned()),
                    ));
                };
                if g.len() >= MAX_OPS {
                    return Err(err(dir_col, ParseDfgErrorKind::TooManyOps));
                }
                slot.insert(g.add_op_with(kind, label, 2));
            }
            "edge" => {
                let g = dfg
                    .as_mut()
                    .ok_or_else(|| err(dir_col, ParseDfgErrorKind::MissingHeader))?;
                let [(from_col, from), (to_col, to)] = args[..] else {
                    return Err(err(dir_col, ParseDfgErrorKind::BadArity("edge")));
                };
                let &f = labels.get(from).ok_or_else(|| {
                    err(from_col, ParseDfgErrorKind::UnknownLabel(from.to_owned()))
                })?;
                let &t = labels
                    .get(to)
                    .ok_or_else(|| err(to_col, ParseDfgErrorKind::UnknownLabel(to.to_owned())))?;
                // Graph violations (self-loop, cycle, operand overflow)
                // blame the destination token: that is where the edge as
                // written turns invalid.
                g.add_edge(f, t)
                    .map_err(|e| err(to_col, ParseDfgErrorKind::Graph(e)))?;
            }
            other => {
                return Err(err(
                    dir_col,
                    ParseDfgErrorKind::UnknownDirective(other.to_owned()),
                ));
            }
        }
    }

    dfg.ok_or(ParseDfgError {
        line: text.lines().count().max(1),
        column: 1,
        kind: ParseDfgErrorKind::MissingHeader,
    })
}

/// The whitespace-separated tokens of a comment-stripped line, as
/// `(1-based char column, token)` pairs at their original positions.
struct Tokens<'a> {
    line: &'a str,
    chars: std::str::CharIndices<'a>,
    /// Columns consumed so far.
    col: usize,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Self {
        Tokens {
            line,
            chars: line.char_indices(),
            col: 0,
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let mut start: Option<(usize, usize)> = None; // (byte offset, column)
        for (byte, ch) in self.chars.by_ref() {
            self.col += 1;
            if ch.is_whitespace() {
                if let Some((b, c)) = start {
                    return Some((c, &self.line[b..byte]));
                }
            } else if start.is_none() {
                start = Some((byte, self.col));
            }
        }
        start.map(|(b, c)| (c, &self.line[b..]))
    }
}

/// Serializes a [`Dfg`] into the textual format accepted by [`parse_dfg`].
///
/// Nodes without labels are emitted as `n<index>`.
///
/// # Examples
///
/// ```
/// use troy_dfg::{benchmarks, parse_dfg, write_dfg};
///
/// let g = benchmarks::diff2();
/// let round_tripped = parse_dfg(&write_dfg(&g))?;
/// assert_eq!(round_tripped.len(), g.len());
/// assert_eq!(round_tripped.edge_count(), g.edge_count());
/// # Ok::<(), troy_dfg::ParseDfgError>(())
/// ```
#[must_use]
pub fn write_dfg(dfg: &Dfg) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let label = |n: NodeId| -> String {
        dfg.node(n)
            .label()
            .map_or_else(|| format!("n{}", n.index()), str::to_owned)
    };
    let _ = writeln!(out, "dfg {}", dfg.name());
    for n in dfg.node_ids() {
        let _ = writeln!(out, "op {} {}", label(n), dfg.kind(n).mnemonic());
    }
    for (a, b) in dfg.edges() {
        let _ = writeln!(out, "edge {} {}", label(a), label(b));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal() {
        let g = parse_dfg("dfg t\nop a add\n").unwrap();
        assert_eq!(g.name(), "t");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse_dfg("# header\n\ndfg t # trailing\nop a add # op\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn missing_header_is_error() {
        let err = parse_dfg("op a add\n").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn empty_input_is_error() {
        assert!(parse_dfg("").is_err());
    }

    #[test]
    fn unknown_directive_reports_line() {
        let err = parse_dfg("dfg t\nfrob a b\n").unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn unknown_label_reports_line() {
        let err = parse_dfg("dfg t\nop a add\nedge a ghost\n").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = parse_dfg("dfg t\nop a add\nop a mul\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn bad_mnemonic_rejected() {
        let err = parse_dfg("dfg t\nop a spin\n").unwrap_err();
        assert!(err.to_string().contains("spin"));
    }

    #[test]
    fn cycle_via_edges_rejected() {
        let err = parse_dfg("dfg t\nop a add\nop b add\nedge a b\nedge b a\n").unwrap_err();
        assert_eq!(err.line(), 5);
    }

    #[test]
    fn symbols_accepted_as_mnemonics() {
        let g = parse_dfg("dfg t\nop a *\nop b +\nedge a b\n").unwrap();
        assert_eq!(g.kind(NodeId::new(0)), OpKind::Mul);
        assert_eq!(g.kind(NodeId::new(1)), OpKind::Add);
    }

    #[test]
    fn columns_point_at_the_offending_token() {
        // The unknown mnemonic sits at column 6 of line 2.
        let err = parse_dfg("dfg t\nop a spin\n").unwrap_err();
        assert_eq!((err.line(), err.column()), (2, 6));
        // The duplicate label is the second token of the op line.
        let err = parse_dfg("dfg t\nop a add\nop  a mul\n").unwrap_err();
        assert_eq!((err.line(), err.column()), (3, 5));
        // The unknown edge label is blamed, not the directive.
        let err = parse_dfg("dfg t\nop a add\nedge a ghost\n").unwrap_err();
        assert_eq!((err.line(), err.column()), (3, 8));
        // Whole-input failures land on column 1.
        let err = parse_dfg("# only a comment\n").unwrap_err();
        assert_eq!(err.column(), 1);
    }

    #[test]
    fn self_loop_is_a_typed_error_with_position() {
        let err = parse_dfg("dfg t\nop a add\nedge a a\n").unwrap_err();
        assert_eq!((err.line(), err.column()), (3, 8));
        assert!(err.to_string().contains("self loop"), "{err}");
    }

    #[test]
    fn oversized_identifiers_are_rejected() {
        let long = "x".repeat(MAX_LABEL_LEN + 1);
        let err = parse_dfg(&format!("dfg t\nop {long} add\n")).unwrap_err();
        assert_eq!((err.line(), err.column()), (2, 4));
        assert!(err.to_string().contains("64-byte limit"), "{err}");
        let err = parse_dfg(&format!("dfg {long}\n")).unwrap_err();
        assert_eq!((err.line(), err.column()), (1, 5));
        // Exactly at the limit is fine.
        let ok = "y".repeat(MAX_LABEL_LEN);
        assert!(parse_dfg(&format!("dfg t\nop {ok} add\n")).is_ok());
    }

    #[test]
    fn over_long_lines_are_rejected_before_tokenizing() {
        let mut text = String::from("dfg t\n");
        text.push_str(&"#".repeat(MAX_LINE_LEN + 1));
        text.push('\n');
        let err = parse_dfg(&text).unwrap_err();
        assert_eq!((err.line(), err.column()), (2, 1));
        assert!(err.to_string().contains("4096-byte limit"), "{err}");
    }

    #[test]
    fn write_then_parse_round_trip() {
        let src = "dfg rt\nop x mul\nop y mul\nop z add\nedge x z\nedge y z\n";
        let g = parse_dfg(src).unwrap();
        let g2 = parse_dfg(&write_dfg(&g)).unwrap();
        assert_eq!(g, g2);
    }
}
