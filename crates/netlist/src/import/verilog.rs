//! Recursive-descent parser for structural (gate-level) Verilog.
//!
//! The grammar is the subset the exporter emits, widened for hand-written
//! sources: scalar and bus (`[msb:0]`) port/wire declarations, cell
//! instances with named (`.pin(net)`) or positional connections, constant
//! literals, and continuous `assign`s between single bits. Behavioural
//! constructs (`always`, `reg`, expressions) are rejected with an
//! `Unsupported` error rather than misparsed.

use super::lex::{tokenize, Lexed, Token};
use super::{Assign, Conn, Design, ImportError, Instance, Loc, NetRef, PortDecl, WireDecl};
use crate::PortDirection;

/// Words with grammatical meaning; they cannot name nets or instances.
const KEYWORDS: [&str; 7] = [
    "module",
    "endmodule",
    "input",
    "output",
    "wire",
    "assign",
    "inout",
];

struct Parser {
    tokens: Vec<Lexed>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn loc(&self) -> Loc {
        self.tokens[self.pos].loc
    }

    fn bump(&mut self) -> Lexed {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn syntax(&self, message: impl Into<String>) -> ImportError {
        ImportError::Syntax {
            loc: self.loc(),
            message: message.into(),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ImportError> {
        if *self.peek() == Token::Punct(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.syntax(format!("expected `{c}`, found {}", self.peek().describe())))
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if *self.peek() == Token::Punct(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, word: &str) -> Result<(), ImportError> {
        match self.peek() {
            Token::Ident(name) if name == word => {
                self.bump();
                Ok(())
            }
            other => Err(self.syntax(format!("expected `{word}`, found {}", other.describe()))),
        }
    }

    /// An identifier usable as a name (keywords rejected).
    fn expect_name(&mut self, what: &str) -> Result<(String, Loc), ImportError> {
        let loc = self.loc();
        match self.peek().clone() {
            Token::Ident(name) if !KEYWORDS.contains(&name.as_str()) => {
                self.bump();
                Ok((name, loc))
            }
            other => Err(self.syntax(format!("expected {what}, found {}", other.describe()))),
        }
    }

    /// Optional `[msb:0]` range; returns the width. A non-zero LSB is
    /// rejected — net flattening assumes bit 0 is the LSB everywhere.
    fn parse_range(&mut self) -> Result<Option<usize>, ImportError> {
        if !self.eat_punct('[') {
            return Ok(None);
        }
        let loc = self.loc();
        let msb = match self.bump().token {
            Token::Number(n) => n,
            other => {
                return Err(ImportError::Syntax {
                    loc,
                    message: format!("expected range msb, found {}", other.describe()),
                })
            }
        };
        self.expect_punct(':')?;
        let lsb_loc = self.loc();
        let lsb = match self.bump().token {
            Token::Number(n) => n,
            other => {
                return Err(ImportError::Syntax {
                    loc: lsb_loc,
                    message: format!("expected range lsb, found {}", other.describe()),
                })
            }
        };
        self.expect_punct(']')?;
        if lsb != 0 {
            return Err(ImportError::Unsupported {
                loc: lsb_loc,
                construct: format!("range [{msb}:{lsb}] (lsb must be 0)"),
            });
        }
        let width = usize::try_from(msb).unwrap_or(usize::MAX).saturating_add(1);
        if width > 4096 {
            return Err(ImportError::Unsupported {
                loc,
                construct: format!("bus width {width} (limit 4096)"),
            });
        }
        Ok(Some(width))
    }

    /// A net reference: literal, `name`, or `name[bit]`.
    fn parse_net_ref(&mut self) -> Result<(NetRef, Loc), ImportError> {
        let loc = self.loc();
        match self.peek().clone() {
            Token::Literal(b) => {
                self.bump();
                Ok((NetRef::Const(b), loc))
            }
            Token::Ident(name) if !KEYWORDS.contains(&name.as_str()) => {
                self.bump();
                if self.eat_punct('[') {
                    let idx_loc = self.loc();
                    let index = match self.bump().token {
                        Token::Number(n) => u32::try_from(n).map_err(|_| ImportError::Syntax {
                            loc: idx_loc,
                            message: format!("bit index {n} too large"),
                        })?,
                        other => {
                            return Err(ImportError::Syntax {
                                loc: idx_loc,
                                message: format!("expected bit index, found {}", other.describe()),
                            })
                        }
                    };
                    self.expect_punct(']')?;
                    Ok((NetRef::Bit(name, index), loc))
                } else {
                    Ok((NetRef::Name(name), loc))
                }
            }
            Token::Punct('{') => Err(ImportError::Unsupported {
                loc,
                construct: "concatenation `{...}`".to_owned(),
            }),
            other => Err(ImportError::Syntax {
                loc,
                message: format!("expected net reference, found {}", other.describe()),
            }),
        }
    }
}

/// Parses one structural Verilog module into a [`Design`].
pub(super) fn parse(source: &str) -> Result<Design, ImportError> {
    let mut p = Parser {
        tokens: tokenize(source)?,
        pos: 0,
    };
    p.expect_keyword("module")?;
    let (name, _) = p.expect_name("module name")?;
    // Header port list: names only; directions come from body decls. The
    // ANSI style (`module m (input a, ...)`) is also accepted.
    let mut header: Vec<(String, Loc)> = Vec::new();
    let mut ports: Vec<PortDecl> = Vec::new();
    let mut ansi = false;
    if p.eat_punct('(') && !p.eat_punct(')') {
        loop {
            let dir = match p.peek() {
                Token::Ident(w) if w == "input" => Some(PortDirection::Input),
                Token::Ident(w) if w == "output" => Some(PortDirection::Output),
                Token::Ident(w) if w == "inout" => {
                    return Err(ImportError::Unsupported {
                        loc: p.loc(),
                        construct: "inout port".to_owned(),
                    })
                }
                _ => None,
            };
            if let Some(dir) = dir {
                ansi = true;
                p.bump();
                let width = p.parse_range()?;
                let (pname, ploc) = p.expect_name("port name")?;
                ports.push(PortDecl {
                    name: pname,
                    dir,
                    width,
                    loc: ploc,
                });
            } else {
                if ansi {
                    // ANSI continuation: same direction/width as prior.
                    let (pname, ploc) = p.expect_name("port name")?;
                    let prev = ports.last().expect("ansi implies a prior port");
                    ports.push(PortDecl {
                        name: pname,
                        dir: prev.dir,
                        width: prev.width,
                        loc: ploc,
                    });
                } else {
                    let (pname, ploc) = p.expect_name("port name")?;
                    header.push((pname, ploc));
                }
            }
            if !p.eat_punct(',') {
                break;
            }
        }
        p.expect_punct(')')?;
    }
    p.expect_punct(';')?;

    let mut wires: Vec<WireDecl> = Vec::new();
    let mut instances: Vec<Instance> = Vec::new();
    let mut assigns: Vec<Assign> = Vec::new();
    // Directions declared in the body, applied to header names.
    let mut body_ports: Vec<PortDecl> = Vec::new();

    loop {
        match p.peek().clone() {
            Token::Ident(w) if w == "endmodule" => {
                p.bump();
                break;
            }
            Token::Eof => {
                return Err(p.syntax("expected `endmodule`, found end of file"));
            }
            Token::Ident(w) if w == "input" || w == "output" => {
                let dir = if w == "input" {
                    PortDirection::Input
                } else {
                    PortDirection::Output
                };
                p.bump();
                let width = p.parse_range()?;
                loop {
                    let (pname, ploc) = p.expect_name("port name")?;
                    body_ports.push(PortDecl {
                        name: pname,
                        dir,
                        width,
                        loc: ploc,
                    });
                    if !p.eat_punct(',') {
                        break;
                    }
                }
                p.expect_punct(';')?;
            }
            Token::Ident(w) if w == "inout" => {
                return Err(ImportError::Unsupported {
                    loc: p.loc(),
                    construct: "inout port".to_owned(),
                });
            }
            Token::Ident(w) if w == "wire" => {
                p.bump();
                let width = p.parse_range()?;
                loop {
                    let (wname, wloc) = p.expect_name("wire name")?;
                    wires.push(WireDecl {
                        name: wname,
                        width,
                        loc: wloc,
                    });
                    if !p.eat_punct(',') {
                        break;
                    }
                }
                p.expect_punct(';')?;
            }
            Token::Ident(w) if w == "assign" => {
                p.bump();
                let (target, tloc) = p.parse_net_ref()?;
                if matches!(target, NetRef::Const(_)) {
                    return Err(ImportError::Syntax {
                        loc: tloc,
                        message: "cannot assign to a literal".to_owned(),
                    });
                }
                p.expect_punct('=')?;
                let (source_ref, _) = p.parse_net_ref()?;
                p.expect_punct(';')?;
                assigns.push(Assign {
                    target,
                    source: source_ref,
                    loc: tloc,
                });
            }
            Token::Ident(w)
                if matches!(
                    w.as_str(),
                    "always" | "reg" | "initial" | "parameter" | "localparam" | "function"
                ) =>
            {
                return Err(ImportError::Unsupported {
                    loc: p.loc(),
                    construct: format!("behavioural construct `{w}`"),
                });
            }
            Token::Ident(_) => {
                instances.push(parse_instance(&mut p)?);
            }
            other => {
                return Err(p.syntax(format!(
                    "expected declaration or instance, found {}",
                    other.describe()
                )))
            }
        }
    }
    if *p.peek() != Token::Eof {
        return Err(p.syntax(format!(
            "unexpected {} after `endmodule`",
            p.peek().describe()
        )));
    }

    // Merge header names with body directions.
    let final_ports = if ansi {
        if !header.is_empty() {
            // Mixed ANSI and non-ANSI entries in one list.
            let (_, loc) = header[0];
            return Err(ImportError::Syntax {
                loc,
                message: "mixing ANSI and non-ANSI port declarations".to_owned(),
            });
        }
        if let Some(extra) = body_ports.first() {
            return Err(ImportError::DuplicateName {
                loc: extra.loc,
                name: extra.name.clone(),
            });
        }
        ports
    } else {
        resolve_header_ports(&header, body_ports)?
    };

    Ok(Design {
        name,
        ports: final_ports,
        wires,
        instances,
        assigns,
    })
}

/// Pairs the header name list with body `input`/`output` declarations,
/// preserving header order.
fn resolve_header_ports(
    header: &[(String, Loc)],
    body: Vec<PortDecl>,
) -> Result<Vec<PortDecl>, ImportError> {
    let mut out = Vec::with_capacity(header.len());
    let mut remaining = body;
    for (name, loc) in header {
        let at = remaining.iter().position(|p| &p.name == name);
        match at {
            Some(i) => {
                let mut decl = remaining.remove(i);
                if remaining.iter().any(|p| &p.name == name) {
                    return Err(ImportError::DuplicateName {
                        loc: decl.loc,
                        name: name.clone(),
                    });
                }
                decl.loc = *loc;
                out.push(decl);
            }
            None => {
                return Err(ImportError::Syntax {
                    loc: *loc,
                    message: format!("port `{name}` has no input/output declaration"),
                })
            }
        }
    }
    if let Some(orphan) = remaining.first() {
        return Err(ImportError::Syntax {
            loc: orphan.loc,
            message: format!(
                "`{}` declared as a port but not listed in the header",
                orphan.name
            ),
        });
    }
    // Header duplicates surface as the duplicated declaration being
    // consumed twice — catch the plain case explicitly too.
    for (i, (name, loc)) in header.iter().enumerate() {
        if header[..i].iter().any(|(n, _)| n == name) {
            return Err(ImportError::DuplicateName {
                loc: *loc,
                name: name.clone(),
            });
        }
    }
    Ok(out)
}

/// `CELL instance_name ( .pin(net), ... );` or positional `( net, ... )`.
fn parse_instance(p: &mut Parser) -> Result<Instance, ImportError> {
    let (cell, _) = p.expect_name("cell name")?;
    let (name, loc) = p.expect_name("instance name")?;
    p.expect_punct('(')?;
    let mut conns = Vec::new();
    let mut named = None; // Some(true) once a style is seen.
    if !p.eat_punct(')') {
        loop {
            let cloc = p.loc();
            if p.eat_punct('.') {
                match named {
                    Some(false) => {
                        return Err(ImportError::Syntax {
                            loc: cloc,
                            message: "mixing named and positional connections".to_owned(),
                        })
                    }
                    _ => named = Some(true),
                }
                let (pin, _) = p.expect_name("pin name")?;
                p.expect_punct('(')?;
                let target = if *p.peek() == Token::Punct(')') {
                    None // unconnected pin: `.y()`
                } else {
                    Some(p.parse_net_ref()?.0)
                };
                p.expect_punct(')')?;
                conns.push(Conn {
                    pin: Some(pin),
                    target,
                    loc: cloc,
                });
            } else {
                match named {
                    Some(true) => {
                        return Err(ImportError::Syntax {
                            loc: cloc,
                            message: "mixing named and positional connections".to_owned(),
                        })
                    }
                    _ => named = Some(false),
                }
                let (target, _) = p.parse_net_ref()?;
                conns.push(Conn {
                    pin: None,
                    target: Some(target),
                    loc: cloc,
                });
            }
            if !p.eat_punct(',') {
                break;
            }
        }
        p.expect_punct(')')?;
    }
    p.expect_punct(';')?;
    Ok(Instance {
        name,
        cell,
        conns,
        loc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exporter_style_module() {
        let d = parse(
            "module fa1 (a, b, cin, sum, cout);\n\
             \x20 input a;\n\
             \x20 input b;\n\
             \x20 input cin;\n\
             \x20 output sum;\n\
             \x20 output cout;\n\
             \x20 wire w3;\n\
             \x20 wire w4;\n\
             \x20 FA_X2 g0 (.a(a), .b(b), .c(cin), .y(w3), .co(w4));\n\
             \x20 assign sum = w3;\n\
             \x20 assign cout = w4;\n\
             endmodule\n",
        )
        .unwrap();
        assert_eq!(d.name, "fa1");
        assert_eq!(d.ports.len(), 5);
        assert_eq!(d.ports[0].name, "a");
        assert_eq!(d.ports[3].dir, PortDirection::Output);
        assert_eq!(d.wires.len(), 2);
        assert_eq!(d.instances.len(), 1);
        assert_eq!(d.instances[0].cell, "FA_X2");
        assert_eq!(d.instances[0].conns[0].pin.as_deref(), Some("a"));
        assert_eq!(d.assigns.len(), 2);
    }

    #[test]
    fn parses_ansi_header_and_buses() {
        let d = parse(
            "module m (input [3:0] a, b, output y);\n\
             \x20 AND2_X1 u (.a(a[0]), .b(b[3]), .y(y));\n\
             endmodule",
        )
        .unwrap();
        assert_eq!(d.ports[0].width, Some(4));
        assert_eq!(d.ports[1].width, Some(4));
        assert_eq!(d.ports[1].dir, PortDirection::Input);
        assert_eq!(d.ports[2].width, None);
        assert_eq!(
            d.instances[0].conns[1].target,
            Some(NetRef::Bit("b".into(), 3))
        );
    }

    #[test]
    fn positional_connections_parse() {
        let d = parse(
            "module m (a, y);\n input a;\n output y;\n\
             INV_X1 u (a, y);\nendmodule",
        )
        .unwrap();
        assert_eq!(d.instances[0].conns.len(), 2);
        assert!(d.instances[0].conns[0].pin.is_none());
    }

    #[test]
    fn mixed_connection_styles_error() {
        let err = parse(
            "module m (a, y);\n input a;\n output y;\n\
             INV_X1 u (.a(a), y);\nendmodule",
        )
        .unwrap_err();
        assert!(matches!(err, ImportError::Syntax { .. }), "{err}");
    }

    #[test]
    fn missing_direction_decl_is_an_error() {
        let err = parse("module m (a, y);\n input a;\nendmodule").unwrap_err();
        assert!(
            err.to_string().contains("no input/output declaration"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_wire_is_reported_by_mapper_not_parser() {
        // The parser keeps both; the mapper raises DuplicateName.
        let d = parse(
            "module m (a, y);\n input a;\n output y;\n wire w, w;\n\
             INV_X1 u (.a(a), .y(y));\nendmodule",
        )
        .unwrap();
        assert_eq!(d.wires.len(), 2);
    }

    #[test]
    fn behavioural_source_is_unsupported() {
        let err = parse("module m (q);\n output q;\n reg q;\nendmodule").unwrap_err();
        assert!(matches!(err, ImportError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn trailing_garbage_after_endmodule() {
        let err = parse("module m ();\nendmodule\nmodule n ();\nendmodule").unwrap_err();
        assert!(err.to_string().contains("after `endmodule`"), "{err}");
    }

    #[test]
    fn truncated_file_is_positioned() {
        let err = parse("module m (a, y);\n input a;\n output y;\n INV_X1 u (.a(a)").unwrap_err();
        assert!(err.loc().is_some());
        assert!(matches!(err, ImportError::Syntax { .. }));
    }

    #[test]
    fn escaped_identifiers_survive() {
        let d = parse(
            "module m (\\a[3] , y);\n input \\a[3] ;\n output y;\n\
             INV_X1 u (.a(\\a[3] ), .y(y));\nendmodule",
        )
        .unwrap();
        assert_eq!(d.ports[0].name, "a[3]");
    }
}
