//! Lexer for the LSS specification language.

use crate::ast::{Names, Sym};
use liberty_core::names::NameIndex;
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
    /// Identifier, interned.
    Ident(Sym),
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

impl Tok {
    /// Render the token as written, naming identifiers from `names`.
    pub fn display<'a>(&'a self, names: &'a Names) -> impl fmt::Display + 'a {
        TokShow(self, names)
    }
}

struct TokShow<'a>(&'a Tok, &'a Names);

impl fmt::Display for TokShow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Tok::Ident(s) => write!(f, "{}", self.1.get(*s)),
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

/// The LSS tokenizer: an iterator over the tokens of one source text
/// that interns every identifier as it goes. `//` line comments and
/// `/* */` block comments are skipped.
///
/// The lexer walks the UTF-8 bytes: every token starts with an ASCII
/// byte, so identifier and number text is sliced straight out of `src`,
/// and non-ASCII text can only be whitespace or sit inside a comment or a
/// string. Positions still count characters: a UTF-8 continuation byte
/// (`0b10xx_xxxx`) does not advance the column.
///
/// An identifier's text is hashed once, with std's keyed hasher (the
/// text is untrusted), to find its [`Sym`] in a [`NameIndex`] over the
/// [`Names`] buffer: a new name costs its bytes there and nothing else.
pub struct Lexer<'src> {
    src: &'src str,
    i: usize,
    line: u32,
    col: u32,
    index: NameIndex,
    names: Names,
}

impl<'src> Lexer<'src> {
    /// Start reading `src`.
    pub fn new(src: &'src str) -> Self {
        // A new identifier takes at least a declaration and a use, which
        // rarely fit in 64 bytes of text: sized so the index seldom grows.
        let mut lexer = Lexer {
            src,
            i: 0,
            line: 1,
            col: 1,
            index: NameIndex::with_capacity(src.len() / 64),
            names: Names::new(),
        };
        for reserved in 0..lexer.names.len() as u32 {
            let names = &lexer.names;
            let name = names.get(Sym(reserved));
            let _ = lexer.index.insert(name, |i| names.get(Sym(i)));
        }
        lexer
    }

    /// The identifiers read so far.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// The identifier table, once reading is done.
    pub fn into_names(self) -> Names {
        self.names
    }

    fn intern(&mut self, word: &str) -> Sym {
        let names = &self.names;
        match self.index.insert(word, |i| names.get(Sym(i))) {
            Ok(id) => {
                let sym = self.names.push(word);
                debug_assert_eq!(sym.0, id, "the index and the names count alike");
                sym
            }
            Err(old) => Sym(old),
        }
    }

    /// Advance past the byte at the cursor.
    fn bump(&mut self) {
        let b = self.src.as_bytes()[self.i];
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.col += 1;
        }
        self.i += 1;
    }

    /// Advance past the run of ASCII bytes matching `keep` at the cursor:
    /// one column each.
    fn skip_ascii(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.src.as_bytes()[self.i..];
        let len = rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
        self.i += len;
        self.col += len as u32;
    }

    /// Skip whitespace and comments.
    fn skip_trivia(&mut self) -> Result<(), SimError> {
        let bytes = self.src.as_bytes();
        while let Some(&c) = bytes.get(self.i) {
            match c {
                b' ' | b'\t' | b'\r' => self.skip_ascii(|b| matches!(b, b' ' | b'\t' | b'\r')),
                b'\n' => self.bump(),
                b'/' if bytes.get(self.i + 1) == Some(&b'/') => {
                    while self.i < bytes.len() && bytes[self.i] != b'\n' {
                        self.bump();
                    }
                }
                b'/' if bytes.get(self.i + 1) == Some(&b'*') => {
                    let pos = self.pos();
                    self.bump();
                    self.bump();
                    loop {
                        if self.i + 1 >= bytes.len() {
                            return Err(SimError::elab(format!(
                                "{pos}: unterminated block comment"
                            )));
                        }
                        if bytes[self.i] == b'*' && bytes[self.i + 1] == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                // Any other whitespace (vertical tab, form feed, the
                // Unicode spaces) is skipped a character at a time.
                _ if !c.is_ascii_graphic() && char_at(self.src, self.i).is_whitespace() => {
                    for _ in 0..char_at(self.src, self.i).len_utf8() {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        Ok(())
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    /// The next token, `None` at the end of the text.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Spanned>, SimError> {
        self.skip_trivia()?;
        let src = self.src;
        let bytes = src.as_bytes();
        let Some(&c) = bytes.get(self.i) else {
            return Ok(None);
        };
        let pos = self.pos();
        let start = self.i;
        let tok = match c {
            c if c.is_ascii_alphabetic() || c == b'_' => {
                self.skip_ascii(|b| b.is_ascii_alphanumeric() || b == b'_');
                let word = &src[start..self.i];
                match word {
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
                    _ => Tok::Ident(self.intern(word)),
                }
            }
            c if c.is_ascii_digit() => {
                self.skip_ascii(|b| b.is_ascii_digit());
                // A float has a '.' followed by a digit ('..' is a range).
                let is_float = self.i + 1 < bytes.len()
                    && bytes[self.i] == b'.'
                    && bytes[self.i + 1].is_ascii_digit();
                if is_float {
                    self.bump();
                    self.skip_ascii(|b| b.is_ascii_digit());
                }
                let text = &src[start..self.i];
                if is_float {
                    Tok::Float(
                        text.parse::<f64>().map_err(|e| {
                            SimError::elab(format!("{pos}: bad float {text:?}: {e}"))
                        })?,
                    )
                } else {
                    Tok::Int(
                        text.parse::<i64>()
                            .map_err(|e| SimError::elab(format!("{pos}: bad int {text:?}: {e}")))?,
                    )
                }
            }
            b'"' => Tok::Str(self.string(pos)?),
            _ => {
                let (tok, len): (Tok, u32) = match (c, bytes.get(self.i + 1)) {
                    (b'.', Some(b'.')) => (Tok::DotDot, 2),
                    (b'-', Some(b'>')) => (Tok::Arrow, 2),
                    (b'{', _) => (Tok::LBrace, 1),
                    (b'}', _) => (Tok::RBrace, 1),
                    (b'[', _) => (Tok::LBracket, 1),
                    (b']', _) => (Tok::RBracket, 1),
                    (b'(', _) => (Tok::LParen, 1),
                    (b')', _) => (Tok::RParen, 1),
                    (b';', _) => (Tok::Semi, 1),
                    (b':', _) => (Tok::Colon, 1),
                    (b',', _) => (Tok::Comma, 1),
                    (b'.', _) => (Tok::Dot, 1),
                    (b'=', _) => (Tok::Eq, 1),
                    (b'-', _) => (Tok::Minus, 1),
                    (b'+', _) => (Tok::Plus, 1),
                    (b'*', _) => (Tok::Star, 1),
                    (b'/', _) => (Tok::Slash, 1),
                    (b'%', _) => (Tok::Percent, 1),
                    _ => {
                        let other = char_at(src, self.i);
                        return Err(SimError::elab(format!(
                            "{pos}: unexpected character {other:?}"
                        )));
                    }
                };
                // Punctuation is ASCII: one column a byte.
                self.i += len as usize;
                self.col += len;
                tok
            }
        };
        Ok(Some(Spanned { tok, pos }))
    }

    /// The string literal at the cursor, unescaped; `pos` is where it
    /// starts.
    fn string(&mut self, pos: Pos) -> Result<String, SimError> {
        let src = self.src;
        let bytes = src.as_bytes();
        self.bump();
        let mut s = String::new();
        // Unescaped text is copied a run at a time; a run ends at an ASCII
        // byte, so it is sliced at char boundaries.
        let mut run = self.i;
        loop {
            if self.i >= bytes.len() {
                return Err(SimError::elab(format!("{pos}: unterminated string")));
            }
            match bytes[self.i] {
                b'"' => {
                    s.push_str(&src[run..self.i]);
                    self.bump();
                    return Ok(s);
                }
                b'\\' => {
                    s.push_str(&src[run..self.i]);
                    self.bump();
                    if self.i >= bytes.len() {
                        return Err(SimError::elab(format!("{pos}: unterminated escape")));
                    }
                    s.push(match bytes[self.i] {
                        b'n' => '\n',
                        b't' => '\t',
                        b'\\' => '\\',
                        b'"' => '"',
                        _ => {
                            let other = char_at(src, self.i);
                            return Err(SimError::elab(format!("{pos}: unknown escape \\{other}")));
                        }
                    });
                    self.bump();
                    run = self.i;
                }
                _ => self.bump(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src`, and the identifier table.
    fn lex(src: &str) -> Result<(Vec<Spanned>, Names), SimError> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::new();
        while let Some(t) = lx.next()? {
            out.push(t);
        }
        Ok((out, lx.into_names()))
    }

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().0.into_iter().map(|s| s.tok).collect()
    }

    /// The first identifiers a text interns, after the reserved three.
    const A: Tok = Tok::Ident(Sym(3));
    const B: Tok = Tok::Ident(Sym(4));
    const C: Tok = Tok::Ident(Sym(5));

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("module foo in out"),
            vec![Tok::KwModule, A, Tok::KwIn, Tok::KwOut]
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
        assert_eq!(toks("a -> b - c"), vec![A, Tok::Arrow, B, Tok::Minus, C,]);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // comment\n b /* block\n comment */ c"),
            vec![A, B, C]
        );
    }

    #[test]
    fn each_identifier_is_interned_once() {
        let (ts, names) = lex("q self q.in r q").unwrap();
        let ts: Vec<Tok> = ts.into_iter().map(|s| s.tok).collect();
        let (q, r) = (A, B);
        assert_eq!(
            ts,
            [
                q.clone(),
                Tok::Ident(Sym::SELF),
                q.clone(),
                Tok::Dot,
                Tok::KwIn,
                r,
                q
            ]
        );
        assert_eq!(names.len(), 5);
        assert_eq!(names.get(Sym(3)), "q");
        assert_eq!(names.get(Sym(4)), "r");
        assert_eq!(Tok::Ident(Sym(4)).display(&names).to_string(), "r");
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
        let ts = lex("a\n  b").unwrap().0;
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
