//! Lexer for the Almanac DSL.
//!
//! Produces a token stream with source spans. Comments (`//…` and `/*…*/`)
//! and whitespace are skipped. The not-equal operator is spelled `<>`,
//! following the paper's grammar.

use crate::error::{AlmanacError, Phase, Result, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    // Punctuation / operators
    LBrace,
    RBrace,
    LParen,
    RParen,
    Semi,
    Comma,
    Dot,
    At,
    Colon,
    Assign,
    Eq,
    Ne,
    Le,
    Ge,
    Lt,
    Gt,
    Plus,
    Minus,
    Star,
    Slash,
    Eof,
}

impl Tok {
    /// Human-readable description for diagnostics.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(i) => format!("integer `{i}`"),
            Tok::Float(x) => format!("float `{x}`"),
            Tok::Str(s) => format!("string {s:?}"),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Semi => "`;`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Dot => "`.`".into(),
            Tok::At => "`@`".into(),
            Tok::Colon => "`:`".into(),
            Tok::Assign => "`=`".into(),
            Tok::Eq => "`==`".into(),
            Tok::Ne => "`<>`".into(),
            Tok::Le => "`<=`".into(),
            Tok::Ge => "`>=`".into(),
            Tok::Lt => "`<`".into(),
            Tok::Gt => "`>`".into(),
            Tok::Plus => "`+`".into(),
            Tok::Minus => "`-`".into(),
            Tok::Star => "`*`".into(),
            Tok::Slash => "`/`".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpannedTok {
    pub(crate) tok: Tok,
    pub(crate) span: Span,
}

/// Tokenizes an Almanac source file.
///
/// # Errors
///
/// Returns a lex-phase [`AlmanacError`] on unterminated strings/comments or
/// unexpected characters.
pub(crate) fn lex(src: &str) -> Result<Vec<SpannedTok>> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if bytes[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let span = Span::new(line, col);
        match c {
            ' ' | '\t' | '\r' | '\n' => bump!(),
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    bump!();
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                bump!();
                bump!();
                let mut closed = false;
                while i + 1 < bytes.len() {
                    if bytes[i] == '*' && bytes[i + 1] == '/' {
                        bump!();
                        bump!();
                        closed = true;
                        break;
                    }
                    bump!();
                }
                if !closed {
                    return Err(AlmanacError::new(
                        Phase::Lex,
                        span,
                        "unterminated block comment",
                    ));
                }
            }
            '"' => {
                bump!();
                let mut s = String::new();
                let mut closed = false;
                while i < bytes.len() {
                    let c = bytes[i];
                    if c == '"' {
                        bump!();
                        closed = true;
                        break;
                    }
                    if c == '\\' && i + 1 < bytes.len() {
                        bump!();
                        let esc = bytes[i];
                        s.push(match esc {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
                        bump!();
                        continue;
                    }
                    s.push(c);
                    bump!();
                }
                if !closed {
                    return Err(AlmanacError::new(Phase::Lex, span, "unterminated string"));
                }
                out.push(SpannedTok {
                    tok: Tok::Str(s),
                    span,
                });
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                let mut is_float = false;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
                    if bytes[i] != '_' {
                        text.push(bytes[i]);
                    }
                    bump!();
                }
                // A dot starts a fraction only if followed by a digit (so
                // `10.ival` stays Int + Dot + Ident).
                if i + 1 < bytes.len() && bytes[i] == '.' && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    text.push('.');
                    bump!();
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        text.push(bytes[i]);
                        bump!();
                    }
                }
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| {
                        AlmanacError::new(Phase::Lex, span, format!("bad float literal {text}"))
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| {
                        AlmanacError::new(Phase::Lex, span, format!("bad int literal {text}"))
                    })?)
                };
                out.push(SpannedTok { tok, span });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut text = String::new();
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    text.push(bytes[i]);
                    bump!();
                }
                out.push(SpannedTok {
                    tok: Tok::Ident(text),
                    span,
                });
            }
            '{' => {
                out.push(SpannedTok {
                    tok: Tok::LBrace,
                    span,
                });
                bump!();
            }
            '}' => {
                out.push(SpannedTok {
                    tok: Tok::RBrace,
                    span,
                });
                bump!();
            }
            '(' => {
                out.push(SpannedTok {
                    tok: Tok::LParen,
                    span,
                });
                bump!();
            }
            ')' => {
                out.push(SpannedTok {
                    tok: Tok::RParen,
                    span,
                });
                bump!();
            }
            ';' => {
                out.push(SpannedTok {
                    tok: Tok::Semi,
                    span,
                });
                bump!();
            }
            ',' => {
                out.push(SpannedTok {
                    tok: Tok::Comma,
                    span,
                });
                bump!();
            }
            '.' => {
                out.push(SpannedTok {
                    tok: Tok::Dot,
                    span,
                });
                bump!();
            }
            '@' => {
                out.push(SpannedTok { tok: Tok::At, span });
                bump!();
            }
            ':' => {
                out.push(SpannedTok {
                    tok: Tok::Colon,
                    span,
                });
                bump!();
            }
            '+' => {
                out.push(SpannedTok {
                    tok: Tok::Plus,
                    span,
                });
                bump!();
            }
            '-' => {
                out.push(SpannedTok {
                    tok: Tok::Minus,
                    span,
                });
                bump!();
            }
            '*' => {
                out.push(SpannedTok {
                    tok: Tok::Star,
                    span,
                });
                bump!();
            }
            '/' => {
                out.push(SpannedTok {
                    tok: Tok::Slash,
                    span,
                });
                bump!();
            }
            '=' => {
                bump!();
                if i < bytes.len() && bytes[i] == '=' {
                    bump!();
                    out.push(SpannedTok { tok: Tok::Eq, span });
                } else {
                    out.push(SpannedTok {
                        tok: Tok::Assign,
                        span,
                    });
                }
            }
            '<' => {
                bump!();
                if i < bytes.len() && bytes[i] == '=' {
                    bump!();
                    out.push(SpannedTok { tok: Tok::Le, span });
                } else if i < bytes.len() && bytes[i] == '>' {
                    bump!();
                    out.push(SpannedTok { tok: Tok::Ne, span });
                } else {
                    out.push(SpannedTok { tok: Tok::Lt, span });
                }
            }
            '>' => {
                bump!();
                if i < bytes.len() && bytes[i] == '=' {
                    bump!();
                    out.push(SpannedTok { tok: Tok::Ge, span });
                } else {
                    out.push(SpannedTok { tok: Tok::Gt, span });
                }
            }
            other => {
                return Err(AlmanacError::new(
                    Phase::Lex,
                    span,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    out.push(SpannedTok {
        tok: Tok::Eof,
        span: Span::new(line, col),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_identifiers_and_punctuation() {
        assert_eq!(
            toks("machine HH { place all; }"),
            vec![
                Tok::Ident("machine".into()),
                Tok::Ident("HH".into()),
                Tok::LBrace,
                Tok::Ident("place".into()),
                Tok::Ident("all".into()),
                Tok::Semi,
                Tok::RBrace,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn distinguishes_numbers_from_field_access() {
        // `10.ival` must lex as Int(10), Dot, Ident — not a float.
        assert_eq!(
            toks("10.ival 2.5"),
            vec![
                Tok::Int(10),
                Tok::Dot,
                Tok::Ident("ival".into()),
                Tok::Float(2.5),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_comparison_operators() {
        assert_eq!(
            toks("a <= b >= c <> d == e < f > g = h"),
            vec![
                Tok::Ident("a".into()),
                Tok::Le,
                Tok::Ident("b".into()),
                Tok::Ge,
                Tok::Ident("c".into()),
                Tok::Ne,
                Tok::Ident("d".into()),
                Tok::Eq,
                Tok::Ident("e".into()),
                Tok::Lt,
                Tok::Ident("f".into()),
                Tok::Gt,
                Tok::Ident("g".into()),
                Tok::Assign,
                Tok::Ident("h".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        let src = "a // line comment\n/* block\ncomment */ b";
        assert_eq!(
            toks(src),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn strings_support_escapes() {
        assert_eq!(
            toks(r#""10.1.1.4" "a\"b""#),
            vec![
                Tok::Str("10.1.1.4".into()),
                Tok::Str("a\"b".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn reports_spans() {
        let ts = lex("machine\n  HH").unwrap();
        assert_eq!(ts[0].span, Span::new(1, 1));
        assert_eq!(ts[1].span, Span::new(2, 3));
    }

    #[test]
    fn rejects_unterminated_string_and_comment() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
        assert!(lex("a # b").is_err());
    }

    #[test]
    fn numeric_underscores_are_allowed() {
        assert_eq!(toks("1_000_000"), vec![Tok::Int(1_000_000), Tok::Eof]);
    }
}
