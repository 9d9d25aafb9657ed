//! Hand-rolled lexer for the structural Verilog subset.
//!
//! Tracks 1-based line:column positions on every token so parse errors
//! point at the offending character. Handles `//` and `/* */` comments,
//! plain and escaped (`\foo `) identifiers, decimal numbers, and sized
//! binary literals (`1'b0` / `1'b1`; wider literals are reported as
//! unsupported rather than silently truncated).

use super::{ImportError, Loc};

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Token {
    /// Identifier or keyword (escaped identifiers arrive unescaped).
    Ident(String),
    /// Unsigned decimal number.
    Number(u64),
    /// A 1-bit literal: `1'b0` or `1'b1`.
    Literal(bool),
    /// Single punctuation character: `( ) [ ] { } , ; . : = #`.
    Punct(char),
    /// End of input.
    Eof,
}

impl Token {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Self::Ident(name) => format!("`{name}`"),
            Self::Number(n) => format!("number {n}"),
            Self::Literal(b) => format!("literal 1'b{}", u8::from(*b)),
            Self::Punct(c) => format!("`{c}`"),
            Self::Eof => "end of file".to_owned(),
        }
    }
}

/// A token plus its source position.
#[derive(Debug, Clone)]
pub(super) struct Lexed {
    pub token: Token,
    pub loc: Loc,
}

/// Tokenizes `source`, failing with a positioned [`ImportError`] on any
/// character outside the subset.
pub(super) fn tokenize(source: &str) -> Result<Vec<Lexed>, ImportError> {
    let mut tokens = Vec::new();
    let mut chars: Vec<char> = source.chars().collect();
    // Simplify lookahead by guaranteeing one trailing sentinel.
    chars.push('\0');
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    let n = chars.len() - 1;
    macro_rules! advance {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }
    while i < n {
        let c = chars[i];
        let loc = Loc::new(line, col);
        if c.is_whitespace() {
            advance!();
            continue;
        }
        if c == '/' && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                advance!();
            }
            continue;
        }
        if c == '/' && chars[i + 1] == '*' {
            advance!();
            advance!();
            loop {
                if i >= n {
                    return Err(ImportError::Syntax {
                        loc,
                        message: "unterminated block comment".to_owned(),
                    });
                }
                if chars[i] == '*' && chars[i + 1] == '/' {
                    advance!();
                    advance!();
                    break;
                }
                advance!();
            }
            continue;
        }
        if c == '\\' {
            // Escaped identifier: everything up to the next whitespace.
            advance!();
            let mut name = String::new();
            while i < n && !chars[i].is_whitespace() {
                name.push(chars[i]);
                advance!();
            }
            if name.is_empty() {
                return Err(ImportError::Syntax {
                    loc,
                    message: "empty escaped identifier".to_owned(),
                });
            }
            tokens.push(Lexed {
                token: Token::Ident(name),
                loc,
            });
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            let mut name = String::new();
            while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '$')
            {
                name.push(chars[i]);
                advance!();
            }
            tokens.push(Lexed {
                token: Token::Ident(name),
                loc,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let mut value = 0u64;
            let mut digits = 0usize;
            while i < n && chars[i].is_ascii_digit() {
                value = value
                    .saturating_mul(10)
                    .saturating_add(u64::from(chars[i] as u8 - b'0'));
                digits += 1;
                advance!();
            }
            let _ = digits;
            if i < n && chars[i] == '\'' {
                // Sized literal: only 1'b0 / 1'b1 are representable.
                advance!();
                let base = chars[i];
                if i >= n || !matches!(base, 'b' | 'B') {
                    return Err(ImportError::Unsupported {
                        loc,
                        construct: format!("literal base `'{base}` (only 'b is supported)"),
                    });
                }
                advance!();
                let mut bits = String::new();
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    bits.push(chars[i]);
                    advance!();
                }
                let bit = match (value, bits.as_str()) {
                    (1, "0") => false,
                    (1, "1") => true,
                    _ => {
                        return Err(ImportError::Unsupported {
                            loc,
                            construct: format!("literal {value}'b{bits} (only 1'b0 and 1'b1)"),
                        })
                    }
                };
                tokens.push(Lexed {
                    token: Token::Literal(bit),
                    loc,
                });
            } else {
                tokens.push(Lexed {
                    token: Token::Number(value),
                    loc,
                });
            }
            continue;
        }
        if "()[]{},;.:=#".contains(c) {
            tokens.push(Lexed {
                token: Token::Punct(c),
                loc,
            });
            advance!();
            continue;
        }
        return Err(ImportError::Syntax {
            loc,
            message: format!("unexpected character `{c}`"),
        });
    }
    tokens.push(Lexed {
        token: Token::Eof,
        loc: Loc::new(line, col),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|l| l.token)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("module m (a);"),
            vec![
                Token::Ident("module".into()),
                Token::Ident("m".into()),
                Token::Punct('('),
                Token::Ident("a".into()),
                Token::Punct(')'),
                Token::Punct(';'),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_positions() {
        let toks = tokenize("// line\n/* block\n */ x").unwrap();
        assert_eq!(toks[0].token, Token::Ident("x".into()));
        assert_eq!(toks[0].loc, Loc::new(3, 5));
    }

    #[test]
    fn escaped_identifier_keeps_punctuation() {
        let toks = tokenize("\\a[3] ;").unwrap();
        assert_eq!(toks[0].token, Token::Ident("a[3]".into()));
        assert_eq!(toks[1].token, Token::Punct(';'));
    }

    #[test]
    fn one_bit_literals() {
        assert_eq!(
            kinds("1'b0 1'b1"),
            vec![Token::Literal(false), Token::Literal(true), Token::Eof]
        );
    }

    #[test]
    fn wide_literal_is_unsupported() {
        let err = tokenize("2'b10").unwrap_err();
        assert!(matches!(err, ImportError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn unterminated_comment_is_positioned() {
        let err = tokenize("x /* never ends").unwrap_err();
        assert_eq!(err.loc(), Some(Loc::new(1, 3)));
    }

    #[test]
    fn stray_character_errors() {
        let err = tokenize("a @ b").unwrap_err();
        assert!(matches!(err, ImportError::Syntax { .. }));
        assert_eq!(err.loc(), Some(Loc::new(1, 3)));
    }
}
