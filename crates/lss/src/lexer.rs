//! Lexer for the LSS specification language.

use liberty_core::prelude::SimError;
use std::fmt;

/// Source position (1-based line and column) for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier (also carries soft keywords resolved by the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (unescaped).
    Str(String),
    /// `module`
    KwModule,
    /// `param`
    KwParam,
    /// `instance`
    KwInstance,
    /// `connect`
    KwConnect,
    /// `port`
    KwPort,
    /// `for`
    KwFor,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `in`
    KwIn,
    /// `out`
    KwOut,
    /// `true`
    KwTrue,
    /// `false`
    KwFalse,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `=`
    Eq,
    /// `->`
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::KwModule => write!(f, "module"),
            Tok::KwParam => write!(f, "param"),
            Tok::KwInstance => write!(f, "instance"),
            Tok::KwConnect => write!(f, "connect"),
            Tok::KwPort => write!(f, "port"),
            Tok::KwFor => write!(f, "for"),
            Tok::KwIf => write!(f, "if"),
            Tok::KwElse => write!(f, "else"),
            Tok::KwIn => write!(f, "in"),
            Tok::KwOut => write!(f, "out"),
            Tok::KwTrue => write!(f, "true"),
            Tok::KwFalse => write!(f, "false"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Semi => write!(f, ";"),
            Tok::Colon => write!(f, ":"),
            Tok::Comma => write!(f, ","),
            Tok::Dot => write!(f, "."),
            Tok::DotDot => write!(f, ".."),
            Tok::Eq => write!(f, "="),
            Tok::Arrow => write!(f, "->"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// The character starting at byte `i` of `src` (a char boundary).
fn char_at(src: &str, i: usize) -> char {
    src[i..]
        .chars()
        .next()
        .expect("lexer stops only at char boundaries")
}

/// Tokenize LSS source. `//` line comments and `/* */` block comments are
/// skipped.
///
/// The lexer walks the UTF-8 bytes: every token starts with an ASCII
/// byte, so identifier and number text is sliced straight out of `src`,
/// and non-ASCII text can only be whitespace or sit inside a comment or a
/// string. Positions still count characters: a UTF-8 continuation byte
/// (`0b10xx_xxxx`) does not advance the column.
pub fn lex(src: &str) -> Result<Vec<Spanned>, SimError> {
    let bytes = src.as_bytes();
    // A token and the space after it average well over four bytes, so
    // this reservation is rarely outgrown.
    let mut out = Vec::with_capacity(bytes.len() / 4 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            let b = bytes[i];
            if b == b'\n' {
                line += 1;
                col = 1;
            } else if b & 0xC0 != 0x80 {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let pos = Pos { line, col };
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => bump!(),
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                bump!();
                bump!();
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(SimError::elab(format!("{pos}: unterminated block comment")));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    bump!();
                }
                let word = &src[start..i];
                let tok = match word {
                    "module" => Tok::KwModule,
                    "param" => Tok::KwParam,
                    "instance" => Tok::KwInstance,
                    "connect" => Tok::KwConnect,
                    "port" => Tok::KwPort,
                    "for" => Tok::KwFor,
                    "if" => Tok::KwIf,
                    "else" => Tok::KwElse,
                    "in" => Tok::KwIn,
                    "out" => Tok::KwOut,
                    "true" => Tok::KwTrue,
                    "false" => Tok::KwFalse,
                    _ => Tok::Ident(word.to_owned()),
                };
                out.push(Spanned { tok, pos });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    bump!();
                }
                // A float has a '.' followed by a digit ('..' is a range).
                let is_float =
                    i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit();
                if is_float {
                    bump!();
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        bump!();
                    }
                    let text = &src[start..i];
                    let v = text
                        .parse::<f64>()
                        .map_err(|e| SimError::elab(format!("{pos}: bad float {text:?}: {e}")))?;
                    out.push(Spanned {
                        tok: Tok::Float(v),
                        pos,
                    });
                } else {
                    let text = &src[start..i];
                    let v = text
                        .parse::<i64>()
                        .map_err(|e| SimError::elab(format!("{pos}: bad int {text:?}: {e}")))?;
                    out.push(Spanned {
                        tok: Tok::Int(v),
                        pos,
                    });
                }
            }
            b'"' => {
                bump!();
                let mut s = String::new();
                // Unescaped text is copied a run at a time; a run ends at
                // an ASCII byte, so it is sliced at char boundaries.
                let mut run = i;
                loop {
                    if i >= bytes.len() {
                        return Err(SimError::elab(format!("{pos}: unterminated string")));
                    }
                    match bytes[i] {
                        b'"' => {
                            s.push_str(&src[run..i]);
                            bump!();
                            break;
                        }
                        b'\\' => {
                            s.push_str(&src[run..i]);
                            bump!();
                            if i >= bytes.len() {
                                return Err(SimError::elab(format!("{pos}: unterminated escape")));
                            }
                            s.push(match bytes[i] {
                                b'n' => '\n',
                                b't' => '\t',
                                b'\\' => '\\',
                                b'"' => '"',
                                _ => {
                                    let other = char_at(src, i);
                                    return Err(SimError::elab(format!(
                                        "{pos}: unknown escape \\{other}"
                                    )));
                                }
                            });
                            bump!();
                            run = i;
                        }
                        _ => bump!(),
                    }
                }
                out.push(Spanned {
                    tok: Tok::Str(s),
                    pos,
                });
            }
            b'{' => {
                out.push(Spanned {
                    tok: Tok::LBrace,
                    pos,
                });
                bump!();
            }
            b'}' => {
                out.push(Spanned {
                    tok: Tok::RBrace,
                    pos,
                });
                bump!();
            }
            b'[' => {
                out.push(Spanned {
                    tok: Tok::LBracket,
                    pos,
                });
                bump!();
            }
            b']' => {
                out.push(Spanned {
                    tok: Tok::RBracket,
                    pos,
                });
                bump!();
            }
            b'(' => {
                out.push(Spanned {
                    tok: Tok::LParen,
                    pos,
                });
                bump!();
            }
            b')' => {
                out.push(Spanned {
                    tok: Tok::RParen,
                    pos,
                });
                bump!();
            }
            b';' => {
                out.push(Spanned {
                    tok: Tok::Semi,
                    pos,
                });
                bump!();
            }
            b':' => {
                out.push(Spanned {
                    tok: Tok::Colon,
                    pos,
                });
                bump!();
            }
            b',' => {
                out.push(Spanned {
                    tok: Tok::Comma,
                    pos,
                });
                bump!();
            }
            b'.' if bytes.get(i + 1) == Some(&b'.') => {
                out.push(Spanned {
                    tok: Tok::DotDot,
                    pos,
                });
                bump!();
                bump!();
            }
            b'.' => {
                out.push(Spanned { tok: Tok::Dot, pos });
                bump!();
            }
            b'=' => {
                out.push(Spanned { tok: Tok::Eq, pos });
                bump!();
            }
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                out.push(Spanned {
                    tok: Tok::Arrow,
                    pos,
                });
                bump!();
                bump!();
            }
            b'-' => {
                out.push(Spanned {
                    tok: Tok::Minus,
                    pos,
                });
                bump!();
            }
            b'+' => {
                out.push(Spanned {
                    tok: Tok::Plus,
                    pos,
                });
                bump!();
            }
            b'*' => {
                out.push(Spanned {
                    tok: Tok::Star,
                    pos,
                });
                bump!();
            }
            b'/' => {
                out.push(Spanned {
                    tok: Tok::Slash,
                    pos,
                });
                bump!();
            }
            b'%' => {
                out.push(Spanned {
                    tok: Tok::Percent,
                    pos,
                });
                bump!();
            }
            _ => {
                // Any other whitespace (vertical tab, form feed, the
                // Unicode spaces) is skipped a character at a time.
                let other = char_at(src, i);
                if !other.is_whitespace() {
                    return Err(SimError::elab(format!(
                        "{pos}: unexpected character {other:?}"
                    )));
                }
                for _ in 0..other.len_utf8() {
                    bump!();
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("module foo in out"),
            vec![
                Tok::KwModule,
                Tok::Ident("foo".into()),
                Tok::KwIn,
                Tok::KwOut
            ]
        );
    }

    #[test]
    fn numbers_and_ranges() {
        assert_eq!(
            toks("0..4 1.5 42"),
            vec![
                Tok::Int(0),
                Tok::DotDot,
                Tok::Int(4),
                Tok::Float(1.5),
                Tok::Int(42)
            ]
        );
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(
            toks("a -> b - c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Arrow,
                Tok::Ident("b".into()),
                Tok::Minus,
                Tok::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // comment\n b /* block\n comment */ c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into())
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""hello \"w\"" "#),
            vec![Tok::Str("hello \"w\"".into())]
        );
    }

    #[test]
    fn positions_track_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn errors_report_position() {
        let err = lex("a\n @").unwrap_err();
        assert!(err.to_string().contains("2:2"));
    }

    #[test]
    fn unterminated_constructs_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
    }

    fn lex_err(src: &str) -> String {
        lex(src).unwrap_err().to_string()
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // Multi-byte UTF-8 in a block comment, a line comment and a
        // string, then an error whose column counts each as one.
        assert_eq!(
            lex_err("/* é */ @"),
            "elaboration error: 1:9: unexpected character '@'"
        );
        assert_eq!(
            lex_err("// ünïcode\n  @"),
            "elaboration error: 2:3: unexpected character '@'"
        );
        assert_eq!(
            lex_err("\"é\" @"),
            "elaboration error: 1:5: unexpected character '@'"
        );
        // Unicode whitespace is skipped like a space, one column each.
        assert_eq!(
            lex_err("\u{a0}a\u{2028}b @"),
            "elaboration error: 1:6: unexpected character '@'"
        );
        assert_eq!(
            lex_err("\"ü\\q\""),
            "elaboration error: 1:1: unknown escape \\q"
        );
        assert_eq!(
            lex_err("x é"),
            "elaboration error: 1:3: unexpected character 'é'"
        );
        assert_eq!(
            lex_err("/* ü"),
            "elaboration error: 1:1: unterminated block comment"
        );
        assert_eq!(
            lex_err("\"ü"),
            "elaboration error: 1:1: unterminated string"
        );
        assert_eq!(
            lex_err("\"\\"),
            "elaboration error: 1:1: unterminated escape"
        );
        assert_eq!(
            lex_err("99999999999999999999"),
            "elaboration error: 1:1: bad int \"99999999999999999999\": number too large to fit in target type"
        );
        // Non-ASCII text survives a string intact, escapes included.
        assert_eq!(
            toks("\"日本\\n\\\"ß\\\"\""),
            vec![Tok::Str("日本\n\"ß\"".into())]
        );
    }
}
