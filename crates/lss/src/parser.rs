//! Recursive-descent parser for LSS.

use crate::ast::*;
use crate::lexer::{lex, Pos, Spanned, Tok};
use liberty_core::prelude::{Dir, SimError};

/// Maximum statement/expression nesting. Recursive descent uses the host
/// stack, so an adversarial spec ("((((…" or thousands of nested `if`s)
/// must hit a diagnostic, not a stack overflow. Real specifications nest
/// a handful of levels; 128 is far beyond anything structural.
const MAX_NESTING: u32 = 128;

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    depth: u32,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|s| &s.tok)
    }

    fn pos(&self) -> Pos {
        self.toks
            .get(self.i.min(self.toks.len().saturating_sub(1)))
            .map(|s| s.pos)
            .unwrap_or(Pos { line: 0, col: 0 })
    }

    fn err(&self, msg: &str) -> SimError {
        match self.toks.get(self.i) {
            Some(s) => SimError::elab(format!("{}: {msg}, found `{}`", s.pos, s.tok)),
            None => SimError::elab(format!("end of input: {msg}")),
        }
    }

    /// Consume the current token, moving its text out of the token
    /// vector. Nothing reads a consumed token again: the one diagnostic
    /// that names a token only looked at (`port` without a direction)
    /// peeks instead of consuming.
    fn bump(&mut self) -> Option<Tok> {
        let t = self
            .toks
            .get_mut(self.i)
            .map(|s| std::mem::replace(&mut s.tok, Tok::Semi));
        self.i += 1;
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), SimError> {
        if self.peek() == Some(want) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{want}`")))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, SimError> {
        // `in` and `out` are soft keywords: they name ports throughout the
        // component libraries, so they stay valid identifiers here.
        match self.peek() {
            Some(Tok::Ident(_)) => match self.bump() {
                Some(Tok::Ident(s)) => Ok(s),
                _ => unreachable!(),
            },
            Some(Tok::KwIn) => {
                self.bump();
                Ok("in".to_owned())
            }
            Some(Tok::KwOut) => {
                self.bump();
                Ok("out".to_owned())
            }
            _ => Err(self.err(&format!("expected {what} identifier"))),
        }
    }

    fn spec(&mut self) -> Result<Spec, SimError> {
        let mut modules = Vec::new();
        while self.peek().is_some() {
            modules.push(self.module()?);
        }
        Ok(Spec { modules })
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
                    self.bump();
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
                    self.bump();
                    let dir = match self.peek() {
                        Some(Tok::KwIn) => Dir::In,
                        Some(Tok::KwOut) => Dir::Out,
                        _ => return Err(self.err("expected `in` or `out` after `port`")),
                    };
                    self.i += 1;
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
                self.bump();
                let name = self.ident("instance name")?;
                let count = if self.peek() == Some(&Tok::LBracket) {
                    self.bump();
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
                    self.bump();
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
                self.bump();
                let from = self.port_ref()?;
                self.expect(&Tok::Arrow)?;
                let to = self.port_ref()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Connect { from, to })
            }
            Some(Tok::KwFor) => {
                self.bump();
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
                self.bump();
                let cond = self.expr()?;
                self.expect(&Tok::LBrace)?;
                let mut then_body = Vec::new();
                while self.peek() != Some(&Tok::RBrace) {
                    then_body.push(self.stmt()?);
                }
                self.expect(&Tok::RBrace)?;
                let mut else_body = Vec::new();
                if self.peek() == Some(&Tok::KwElse) {
                    self.bump();
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
            self.bump();
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
            self.bump();
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
            self.bump();
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
        match self.bump() {
            Some(Tok::Int(i)) => Ok(Expr::Int(i)),
            Some(Tok::Float(x)) => Ok(Expr::Float(x)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::KwTrue) => Ok(Expr::Bool(true)),
            Some(Tok::KwFalse) => Ok(Expr::Bool(false)),
            Some(Tok::Ident(v)) => Ok(Expr::Var(v)),
            // Soft keywords stay usable as parameter/variable names.
            Some(Tok::KwIn) => Ok(Expr::Var("in".to_owned())),
            Some(Tok::KwOut) => Ok(Expr::Var("out".to_owned())),
            Some(Tok::Minus) => Ok(Expr::Neg(Box::new(self.atom()?))),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(SimError::elab(format!(
                "{pos}: expected expression, found {}",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }
}

/// Parse LSS source into a [`Spec`].
pub fn parse(src: &str) -> Result<Spec, SimError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        i: 0,
        depth: 0,
    };
    p.spec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_module() {
        let spec = parse("module main { }").unwrap();
        assert_eq!(spec.modules.len(), 1);
        assert_eq!(spec.modules[0].name, "main");
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
                assert_eq!(name, "n");
                assert!(count.is_some());
                assert_eq!(template, "node");
                assert_eq!(overrides.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &main.body[1] {
            Stmt::For { var, body, .. } => {
                assert_eq!(var, "i");
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let spec = parse("module m { param x = 1 + 2 * 3; }").unwrap();
        let e = &spec.modules[0].params[0].default;
        assert_eq!(e.to_string(), "(1 + (2 * 3))");
    }

    #[test]
    fn negative_numbers() {
        let spec = parse("module m { param x = -4 + 1; }").unwrap();
        assert_eq!(spec.modules[0].params[0].default.to_string(), "((-4) + 1)");
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
