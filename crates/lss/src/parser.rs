//! Recursive-descent parser for LSS.

use crate::ast::*;
use crate::lexer::{Lexer, Pos, Spanned, Tok};
use liberty_core::prelude::{Dir, SimError};

/// Maximum statement/expression nesting. Recursive descent uses the host
/// stack, so an adversarial spec ("((((…" or thousands of nested `if`s)
/// must hit a diagnostic, not a stack overflow. Real specifications nest
/// a handful of levels; 128 is far beyond anything structural.
const MAX_NESTING: u32 = 128;

/// A one-token-lookahead parser pulling tokens from the lexer as it goes.
struct Parser<'src> {
    lex: Lexer<'src>,
    /// The current (next unconsumed) token; `None` at the end of input.
    cur: Option<Spanned>,
    /// Position of the last token read, for diagnostics at end of input.
    last: Pos,
    /// Set when the lexer failed: its diagnostic is the one reported.
    lex_failed: bool,
    depth: u32,
}

impl<'src> Parser<'src> {
    /// Read the next token into `cur`.
    fn advance(&mut self) -> Result<(), SimError> {
        match self.lex.next() {
            Ok(t) => {
                if let Some(s) = &t {
                    self.last = s.pos;
                }
                self.cur = t;
                Ok(())
            }
            Err(e) => {
                self.lex_failed = true;
                Err(e)
            }
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.cur.as_ref().map(|s| &s.tok)
    }

    fn pos(&self) -> Pos {
        self.cur.as_ref().map_or(self.last, |s| s.pos)
    }

    fn err(&self, msg: &str) -> SimError {
        match &self.cur {
            Some(s) => SimError::elab(format!(
                "{}: {msg}, found `{}`",
                s.pos,
                s.tok.display(self.lex.names())
            )),
            None => SimError::elab(format!("end of input: {msg}")),
        }
    }

    /// Consume the current token.
    fn bump(&mut self) -> Result<Option<Tok>, SimError> {
        let t = self.cur.take().map(|s| s.tok);
        self.advance()?;
        Ok(t)
    }

    fn expect(&mut self, want: &Tok) -> Result<(), SimError> {
        if self.peek() == Some(want) {
            self.advance()
        } else {
            Err(self.err(&format!("expected `{}`", want.display(self.lex.names()))))
        }
    }

    fn ident(&mut self, what: &str) -> Result<Sym, SimError> {
        // `in` and `out` are soft keywords: they name ports throughout the
        // component libraries, so they stay valid identifiers here.
        let sym = match self.peek() {
            Some(Tok::Ident(s)) => *s,
            Some(Tok::KwIn) => Sym::IN,
            Some(Tok::KwOut) => Sym::OUT,
            _ => return Err(self.err(&format!("expected {what} identifier"))),
        };
        self.advance()?;
        Ok(sym)
    }

    fn modules(&mut self) -> Result<Vec<ModuleDef>, SimError> {
        let mut modules = Vec::new();
        while self.peek().is_some() {
            modules.push(self.module()?);
        }
        Ok(modules)
    }

    fn module(&mut self) -> Result<ModuleDef, SimError> {
        self.expect(&Tok::KwModule)?;
        let name = self.ident("module name")?;
        self.expect(&Tok::LBrace)?;
        let mut params = Vec::new();
        let mut ports = Vec::new();
        let mut body = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            match self.peek() {
                Some(Tok::KwParam) => {
                    self.advance()?;
                    let pname = self.ident("parameter name")?;
                    self.expect(&Tok::Eq)?;
                    let default = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    params.push(ParamDecl {
                        name: pname,
                        default,
                    });
                }
                Some(Tok::KwPort) => {
                    self.advance()?;
                    let dir = match self.peek() {
                        Some(Tok::KwIn) => Dir::In,
                        Some(Tok::KwOut) => Dir::Out,
                        _ => return Err(self.err("expected `in` or `out` after `port`")),
                    };
                    self.advance()?;
                    let pname = self.ident("port name")?;
                    self.expect(&Tok::Semi)?;
                    ports.push(PortDecl { dir, name: pname });
                }
                Some(_) => body.push(self.stmt()?),
                None => return Err(self.err("expected `}` to close module")),
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(ModuleDef {
            name,
            params,
            ports,
            body,
        })
    }

    fn enter(&mut self) -> Result<(), SimError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(&format!(
                "nesting deeper than {MAX_NESTING} levels (unbalanced brackets?)"
            )));
        }
        Ok(())
    }

    fn stmt(&mut self) -> Result<Stmt, SimError> {
        self.enter()?;
        let r = self.stmt_inner();
        self.depth -= 1;
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt, SimError> {
        match self.peek() {
            Some(Tok::KwInstance) => {
                self.advance()?;
                let name = self.ident("instance name")?;
                let count = if self.peek() == Some(&Tok::LBracket) {
                    self.advance()?;
                    let e = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    Some(e)
                } else {
                    None
                };
                self.expect(&Tok::Colon)?;
                let template = self.ident("template name")?;
                let mut overrides = Vec::new();
                if self.peek() == Some(&Tok::LBrace) {
                    self.advance()?;
                    while self.peek() != Some(&Tok::RBrace) {
                        let k = self.ident("parameter name")?;
                        self.expect(&Tok::Eq)?;
                        let v = self.expr()?;
                        self.expect(&Tok::Semi)?;
                        overrides.push((k, v));
                    }
                    self.expect(&Tok::RBrace)?;
                }
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Instance {
                    name,
                    count,
                    template,
                    overrides,
                })
            }
            Some(Tok::KwConnect) => {
                self.advance()?;
                let from = self.port_ref()?;
                self.expect(&Tok::Arrow)?;
                let to = self.port_ref()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Connect { from, to })
            }
            Some(Tok::KwFor) => {
                self.advance()?;
                let var = self.ident("loop variable")?;
                self.expect(&Tok::KwIn)?;
                let lo = self.expr()?;
                self.expect(&Tok::DotDot)?;
                let hi = self.expr()?;
                self.expect(&Tok::LBrace)?;
                let mut body = Vec::new();
                while self.peek() != Some(&Tok::RBrace) {
                    body.push(self.stmt()?);
                }
                self.expect(&Tok::RBrace)?;
                Ok(Stmt::For { var, lo, hi, body })
            }
            Some(Tok::KwIf) => {
                self.advance()?;
                let cond = self.expr()?;
                self.expect(&Tok::LBrace)?;
                let mut then_body = Vec::new();
                while self.peek() != Some(&Tok::RBrace) {
                    then_body.push(self.stmt()?);
                }
                self.expect(&Tok::RBrace)?;
                let mut else_body = Vec::new();
                if self.peek() == Some(&Tok::KwElse) {
                    self.advance()?;
                    self.expect(&Tok::LBrace)?;
                    while self.peek() != Some(&Tok::RBrace) {
                        else_body.push(self.stmt()?);
                    }
                    self.expect(&Tok::RBrace)?;
                }
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            _ => Err(self.err("expected `instance`, `connect`, `for`, `if`, `param`, or `port`")),
        }
    }

    fn port_ref(&mut self) -> Result<PortRef, SimError> {
        // `self` is an ordinary identifier here.
        let inst = self.ident("instance name")?;
        let index = if self.peek() == Some(&Tok::LBracket) {
            self.advance()?;
            let e = self.expr()?;
            self.expect(&Tok::RBracket)?;
            Some(e)
        } else {
            None
        };
        self.expect(&Tok::Dot)?;
        let port = self.ident("port name")?;
        Ok(PortRef { inst, index, port })
    }

    fn expr(&mut self) -> Result<Expr, SimError> {
        self.add_expr()
    }

    fn add_expr(&mut self) -> Result<Expr, SimError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.advance()?;
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, SimError> {
        let mut lhs = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Rem,
                _ => break,
            };
            self.advance()?;
            let rhs = self.atom()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Expr, SimError> {
        self.enter()?;
        let r = self.atom_inner();
        self.depth -= 1;
        r
    }

    fn atom_inner(&mut self) -> Result<Expr, SimError> {
        let pos = self.pos();
        match self.bump()? {
            Some(Tok::Int(i)) => Ok(Expr::Int(i)),
            Some(Tok::Float(x)) => Ok(Expr::Float(x)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::KwTrue) => Ok(Expr::Bool(true)),
            Some(Tok::KwFalse) => Ok(Expr::Bool(false)),
            Some(Tok::Ident(v)) => Ok(Expr::Var(v)),
            // Soft keywords stay usable as parameter/variable names.
            Some(Tok::KwIn) => Ok(Expr::Var(Sym::IN)),
            Some(Tok::KwOut) => Ok(Expr::Var(Sym::OUT)),
            Some(Tok::Minus) => Ok(Expr::Neg(Box::new(self.atom()?))),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(SimError::elab(format!(
                "{pos}: expected expression, found {}",
                other
                    .map(|t| t.display(self.lex.names()).to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }
}

/// Parse LSS source into a [`Spec`].
///
/// The text is read in one pass, the parser pulling tokens as it needs
/// them. A lexical error anywhere in the text takes precedence over a
/// syntax error before it: after a syntax error the rest of the text is
/// still lexed, and the first lexical error found there is reported.
pub fn parse(src: &str) -> Result<Spec, SimError> {
    let mut p = Parser {
        lex: Lexer::new(src),
        cur: None,
        last: Pos { line: 0, col: 0 },
        lex_failed: false,
        depth: 0,
    };
    let modules = p.advance().and_then(|()| p.modules());
    match modules {
        Ok(modules) => Ok(Spec {
            modules,
            names: p.lex.into_names(),
        }),
        Err(e) if p.lex_failed => Err(e),
        Err(e) => {
            while p.lex.next()?.is_some() {}
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_module() {
        let spec = parse("module main { }").unwrap();
        assert_eq!(spec.modules.len(), 1);
        assert_eq!(spec.names.get(spec.modules[0].name), "main");
    }

    #[test]
    fn full_module_shape() {
        let src = r#"
            module node {
                param id = 0;
                param rate = 0.5;
                port in rx;
                port out tx;
                instance q : queue { depth = 4 * 2; };
                connect self.rx -> q.in;
                connect q.out -> self.tx;
            }
            module main {
                instance n[4] : node { id = 1; };
                for i in 0..3 {
                    connect n[i].tx -> n[i + 1].rx;
                }
            }
        "#;
        let spec = parse(src).unwrap();
        assert_eq!(spec.modules.len(), 2);
        let node = &spec.modules[0];
        assert_eq!(node.params.len(), 2);
        assert_eq!(node.ports.len(), 2);
        assert_eq!(node.body.len(), 3);
        let main = &spec.modules[1];
        match &main.body[0] {
            Stmt::Instance {
                name,
                count,
                template,
                overrides,
            } => {
                assert_eq!(spec.names.get(*name), "n");
                assert!(count.is_some());
                assert_eq!(spec.names.get(*template), "node");
                assert_eq!(overrides.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &main.body[1] {
            Stmt::For { var, body, .. } => {
                assert_eq!(spec.names.get(*var), "i");
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let spec = parse("module m { param x = 1 + 2 * 3; }").unwrap();
        let e = &spec.modules[0].params[0].default;
        assert_eq!(e.display(&spec.names).to_string(), "(1 + (2 * 3))");
    }

    #[test]
    fn negative_numbers() {
        let spec = parse("module m { param x = -4 + 1; }").unwrap();
        let e = &spec.modules[0].params[0].default;
        assert_eq!(e.display(&spec.names).to_string(), "((-4) + 1)");
    }

    #[test]
    fn error_reports_position_and_token() {
        let err = parse("module m { instance ; }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("1:"), "{msg}");
        assert!(msg.contains("instance name"), "{msg}");
    }

    #[test]
    fn diagnostics_name_the_token_and_count_characters() {
        let err = |src: &str| parse(src).unwrap_err().to_string();
        // The direction check names the token it looked at.
        assert_eq!(
            err("module m { port foo; }"),
            "elaboration error: 1:17: expected `in` or `out` after `port`, found `foo`"
        );
        assert_eq!(
            err("module m { port"),
            "elaboration error: end of input: expected `in` or `out` after `port`"
        );
        // A multi-byte string earlier on the line counts one column a char.
        assert_eq!(
            err("module m { param x = \"ü\"; instance ; }"),
            "elaboration error: 1:36: expected instance name identifier, found `;`"
        );
        assert_eq!(
            err("module m { param x = ; }"),
            "elaboration error: 1:22: expected expression, found ;"
        );
    }

    #[test]
    fn a_lexical_error_outranks_an_earlier_syntax_error() {
        let err = |src: &str| parse(src).unwrap_err().to_string();
        assert_eq!(
            err("module m { instance ; }\nmodule n { param s = \"open; }"),
            "elaboration error: 2:22: unterminated string"
        );
        assert_eq!(
            err("module m { instance ; } module n { }"),
            "elaboration error: 1:21: expected instance name identifier, found `;`"
        );
    }

    #[test]
    fn missing_semi_is_an_error() {
        assert!(parse("module m { param x = 1 }").is_err());
    }

    #[test]
    fn pathological_nesting_is_a_diagnostic_not_a_stack_overflow() {
        let deep_expr = format!(
            "module m {{ param x = {}1{}; }}",
            "(".repeat(10_000),
            ")".repeat(10_000)
        );
        let err = parse(&deep_expr).unwrap_err().to_string();
        assert!(err.contains("nesting"), "{err}");
        let deep_neg = format!("module m {{ param x = {}1; }}", "-".repeat(10_000));
        assert!(parse(&deep_neg).is_err());
        let deep_if = format!(
            "module m {{ {}instance q : queue;{} }}",
            "if 1 { ".repeat(10_000),
            " }".repeat(10_000)
        );
        let err = parse(&deep_if).unwrap_err().to_string();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn sane_nesting_is_fine() {
        let e = format!(
            "module m {{ param x = {}1{}; }}",
            "(".repeat(60),
            ")".repeat(60)
        );
        assert!(parse(&e).is_ok());
    }

    #[test]
    fn print_parse_roundtrip() {
        let src = r#"
            module node {
                param id = 0;
                port in rx;
                port out tx;
                instance q : queue { depth = 8; bypass = true; };
                connect self.rx -> q.in;
                connect q.out -> self.tx;
            }
            module main {
                instance n[3] : node;
                for i in 0..2 { connect n[i].tx -> n[i + 1].rx; }
            }
        "#;
        let spec = parse(src).unwrap();
        let printed = spec.to_string();
        let reparsed = parse(&printed).unwrap();
        assert_eq!(spec, reparsed);
    }
}
