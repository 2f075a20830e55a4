//! Plain-text instance serialisation.
//!
//! A simple line-oriented format so instances can be exchanged with other
//! tools (and with the CLI) without pulling in a serialisation framework:
//!
//! ```text
//! # comments and blank lines are ignored
//! dims 2
//! # node  <elementary capacities…>  |  <aggregate capacities…>
//! node 0.8 1.0 | 3.2 1.0
//! node 1.0 0.5 | 2.0 0.5
//! # service  <req elem…> | <req agg…> | <need elem…> | <need agg…>
//! service 0.5 0.5 | 1.0 0.5 | 0.5 0.0 | 1.0 0.0
//! ```

use crate::{ModelError, Node, ProblemInstance, ResourceVector, Service};
use std::fmt::Write as _;

/// Errors raised while parsing the instance text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line had an unknown keyword.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The offending keyword.
        word: String,
    },
    /// A number failed to parse or a section had the wrong arity.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        what: String,
    },
    /// The assembled instance failed model validation.
    Invalid(ModelError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownDirective { line, word } => {
                write!(f, "line {line}: unknown directive `{word}`")
            }
            ParseError::Malformed { line, what } => write!(f, "line {line}: {what}"),
            ParseError::Invalid(e) => write!(f, "invalid instance: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Appends the vectors' entries space-separated, the vectors joined by
/// ` | `, each number formatted straight into `out`.
fn fmt_vecs(out: &mut String, vectors: &[&ResourceVector]) {
    for (k, v) in vectors.iter().enumerate() {
        if k > 0 {
            out.push_str(" | ");
        }
        for (i, x) in v.as_slice().iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{x}");
        }
    }
}

/// Serialises the four descriptor vectors of a service as the text
/// format's `|`-separated body (everything after the `service` keyword).
/// Round-trips exactly through [`parse_service_body`].
pub fn write_service_body(s: &Service) -> String {
    let mut out = String::new();
    fmt_service_body(&mut out, s);
    out
}

fn fmt_service_body(out: &mut String, s: &Service) {
    fmt_vecs(out, &[&s.req_elem, &s.req_agg, &s.need_elem, &s.need_agg]);
}

/// Parses a service from its `|`-separated body (see
/// [`write_service_body`]); `line` feeds error positions.
pub fn parse_service_body(body: &str, dims: usize, line: usize) -> Result<Service, ParseError> {
    let mut v = parse_sections(body, 4, dims, line)?;
    let need_agg = v.pop().unwrap();
    let need_elem = v.pop().unwrap();
    let req_agg = v.pop().unwrap();
    let req_elem = v.pop().unwrap();
    Ok(Service {
        req_elem,
        req_agg,
        need_elem,
        need_agg,
    })
}

/// Serialises an instance to the text format.
pub fn write_instance(instance: &ProblemInstance) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "dims {}", instance.dims());
    for n in instance.nodes() {
        out.push_str("node ");
        fmt_vecs(&mut out, &[&n.elementary, &n.aggregate]);
        out.push('\n');
    }
    for s in instance.services() {
        out.push_str("service ");
        fmt_service_body(&mut out, s);
        out.push('\n');
    }
    out
}

fn parse_sections(
    rest: &str,
    expect: usize,
    dims: usize,
    line: usize,
) -> Result<Vec<ResourceVector>, ParseError> {
    let sections: Vec<&str> = rest.split('|').collect();
    if sections.len() != expect {
        return Err(ParseError::Malformed {
            line,
            what: format!(
                "expected {expect} `|`-separated sections, got {}",
                sections.len()
            ),
        });
    }
    sections
        .into_iter()
        .map(|sec| {
            let values: Result<Vec<f64>, _> = sec.split_whitespace().map(str::parse).collect();
            match values {
                Ok(v) if v.len() == dims => Ok(ResourceVector::new(v)),
                Ok(v) => Err(ParseError::Malformed {
                    line,
                    what: format!("expected {dims} values per section, got {}", v.len()),
                }),
                Err(e) => Err(ParseError::Malformed {
                    line,
                    what: format!("bad number: {e}"),
                }),
            }
        })
        .collect()
}

/// Parses an instance from the text format.
pub fn read_instance(text: &str) -> Result<ProblemInstance, ParseError> {
    let mut dims: Option<usize> = None;
    let mut nodes: Vec<Node> = Vec::new();
    let mut services: Vec<Service> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (word, rest) = trimmed
            .split_once(char::is_whitespace)
            .unwrap_or((trimmed, ""));
        match word {
            "dims" => {
                dims = Some(rest.trim().parse().map_err(|e| ParseError::Malformed {
                    line,
                    what: format!("bad dims: {e}"),
                })?);
            }
            "node" => {
                let d = dims.ok_or(ParseError::Malformed {
                    line,
                    what: "`dims` must come first".to_string(),
                })?;
                let mut v = parse_sections(rest, 2, d, line)?;
                let aggregate = v.pop().unwrap();
                let elementary = v.pop().unwrap();
                nodes.push(Node {
                    elementary,
                    aggregate,
                });
            }
            "service" => {
                let d = dims.ok_or(ParseError::Malformed {
                    line,
                    what: "`dims` must come first".to_string(),
                })?;
                services.push(parse_service_body(rest, d, line)?);
            }
            other => {
                return Err(ParseError::UnknownDirective {
                    line,
                    word: other.to_string(),
                })
            }
        }
    }
    ProblemInstance::new(nodes, services).map_err(ParseError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> ProblemInstance {
        let nodes = vec![Node::multicore(4, 0.8, 1.0), Node::multicore(2, 1.0, 0.5)];
        let services = vec![Service::new(
            vec![0.5, 0.5],
            vec![1.0, 0.5],
            vec![0.5, 0.0],
            vec![1.0, 0.0],
        )];
        ProblemInstance::new(nodes, services).unwrap()
    }

    #[test]
    fn roundtrip() {
        let inst = figure1();
        let text = write_instance(&inst);
        let back = read_instance(&text).unwrap();
        assert_eq!(back.nodes(), inst.nodes());
        assert_eq!(back.services(), inst.services());
    }

    #[test]
    fn instance_text_bytes_are_pinned() {
        let inst = ProblemInstance::new(
            vec![
                Node::multicore(4, 0.8, 1.0),
                Node::new(vec![0.1 + 0.2, 0.5], vec![1.0 / 3.0 + 1.0, 2.0]),
            ],
            vec![
                Service::new(
                    vec![1e-7, 0.25],
                    vec![0.5, 0.25],
                    vec![0.0, 0.0],
                    vec![0.0, 0.0],
                ),
                Service::new(
                    vec![0.0, 0.1],
                    vec![0.0, 0.1],
                    vec![0.2, 0.0],
                    vec![0.6, 0.0],
                ),
            ],
        )
        .unwrap();
        assert_eq!(
            write_instance(&inst),
            "dims 2\n\
             node 0.8 1 | 3.2 1\n\
             node 0.30000000000000004 0.5 | 1.3333333333333333 2\n\
             service 0.0000001 0.25 | 0.5 0.25 | 0 0 | 0 0\n\
             service 0 0.1 | 0 0.1 | 0.2 0 | 0.6 0\n"
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# hello\ndims 1\n  # indented comment\nnode 1.0 | 2.0\nservice 0.1 | 0.1 | 0.2 | 0.4\n";
        let inst = read_instance(text).unwrap();
        assert_eq!(inst.num_nodes(), 1);
        assert_eq!(inst.num_services(), 1);
        assert_eq!(inst.services()[0].need_agg[0], 0.4);
    }

    #[test]
    fn error_on_wrong_arity() {
        let text = "dims 2\nnode 1.0 | 2.0 2.0\n";
        let err = read_instance(text).unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn error_on_unknown_directive() {
        let err = read_instance("dims 1\nfrobnicate 1\n").unwrap_err();
        assert!(matches!(err, ParseError::UnknownDirective { line: 2, .. }));
    }

    #[test]
    fn error_on_missing_dims() {
        let err = read_instance("node 1.0 | 1.0\n").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 1, .. }));
    }

    #[test]
    fn invalid_instance_rejected() {
        // Elementary exceeds aggregate.
        let text = "dims 1\nnode 2.0 | 1.0\nservice 0 | 0 | 0 | 0\n";
        let err = read_instance(text).unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)));
    }
}
