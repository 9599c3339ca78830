//! Abstract syntax of the LSS specification language.
//!
//! An LSS file is a list of `module` definitions. Each module is a
//! hierarchical template (paper §2.1): parameter declarations, exported
//! ports, customized sub-instances (possibly arrays), and connections —
//! including connections to `self.<port>` that bind exported ports to
//! sub-instance ports.

use liberty_core::prelude::Dir;
use std::fmt;

/// An identifier, interned: an index into its specification's [`Names`].
/// The lexer hashes each identifier's text once; everything after it
/// compares and indexes by these dense ids. A symbol means something only
/// with the table it came from: a [`Spec`] built by hand must intern its
/// names into its own `names`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// `self`, the enclosing module in a port reference.
    pub const SELF: Sym = Sym(0);
    /// `in`, a soft keyword that also names ports.
    pub const IN: Sym = Sym(1);
    /// `out`, a soft keyword that also names ports.
    pub const OUT: Sym = Sym(2);
}

/// The identifier table of a specification: each distinct identifier's
/// text once, end to end in one buffer. It starts with [`Sym::SELF`],
/// [`Sym::IN`] and [`Sym::OUT`].
#[derive(Clone, Debug, PartialEq)]
pub struct Names {
    text: String,
    /// `ends[s]`: where symbol `s`'s text ends in `text`.
    ends: Vec<u32>,
}

impl Default for Names {
    fn default() -> Self {
        let mut names = Names {
            text: String::new(),
            ends: Vec::new(),
        };
        for reserved in ["self", "in", "out"] {
            names.push(reserved);
        }
        names
    }
}

impl Names {
    /// The table of the reserved symbols alone.
    pub fn new() -> Self {
        Self::default()
    }

    /// The text of `sym`.
    pub fn get(&self, sym: Sym) -> &str {
        let i = sym.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Always false: the reserved symbols are there from the start.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The symbol for `name`, added if new. A linear scan, for building
    /// small specifications by hand; the lexer keeps a hash index while
    /// it reads.
    pub fn intern(&mut self, name: &str) -> Sym {
        (0..self.ends.len() as u32)
            .map(Sym)
            .find(|&s| self.get(s) == name)
            .unwrap_or_else(|| self.push(name))
    }

    /// Append `name` as a new symbol, without looking for it first.
    pub(crate) fn push(&mut self, name: &str) -> Sym {
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
        Sym(self.ends.len() as u32 - 1)
    }
}

/// A whole specification: a set of module templates and the names they
/// use.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Spec {
    /// Module definitions in source order.
    pub modules: Vec<ModuleDef>,
    /// Every identifier the modules mention.
    pub names: Names,
}

/// One `module name { ... }` definition.
#[derive(Clone, Debug, PartialEq)]
pub struct ModuleDef {
    /// Template name.
    pub name: Sym,
    /// Parameter declarations.
    pub params: Vec<ParamDecl>,
    /// Exported ports.
    pub ports: Vec<PortDecl>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// `param name = default;`
#[derive(Clone, Debug, PartialEq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: Sym,
    /// Default value expression (evaluated in the parent's environment).
    pub default: Expr,
}

/// `port in name;` / `port out name;`
#[derive(Clone, Debug, PartialEq)]
pub struct PortDecl {
    /// Direction from this module's perspective.
    pub dir: Dir,
    /// Exported port name.
    pub name: Sym,
}

/// A body statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `instance name : template { p = e; ... };` or
    /// `instance name[count] : template { ... };`
    Instance {
        /// Instance (array) name.
        name: Sym,
        /// Array size; `None` for a scalar instance.
        count: Option<Expr>,
        /// Template to instantiate (module def or registry template).
        template: Sym,
        /// Parameter overrides.
        overrides: Vec<(Sym, Expr)>,
    },
    /// `connect a.p -> b.q;` (either side may be `self.<port>` or indexed).
    Connect {
        /// Source endpoint (an output, or an exported input via `self`).
        from: PortRef,
        /// Destination endpoint.
        to: PortRef,
    },
    /// `for i in lo..hi { ... }`
    For {
        /// Loop variable, visible in body expressions and indices.
        var: Sym,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `if cond { ... } [else { ... }]` — conditional elaboration: a
    /// nonzero int / `true` bool selects the then-branch. This is how a
    /// specification grows optional structure (a predictor, a second
    /// cache level) under a parameter.
    If {
        /// The elaboration-time condition.
        cond: Expr,
        /// Statements elaborated when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements elaborated otherwise.
        else_body: Vec<Stmt>,
    },
}

/// A reference to a port of an instance (or of the enclosing module via
/// the instance name [`Sym::SELF`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PortRef {
    /// Instance name, or [`Sym::SELF`].
    pub inst: Sym,
    /// Array index (for instance arrays).
    pub index: Option<Expr>,
    /// Port name.
    pub port: Sym,
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// Parameter or loop-variable reference.
    Var(Sym),
    /// Binary arithmetic.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
}

/// An AST node shown with the names it refers to.
struct Show<'a, T: ?Sized>(&'a T, &'a Names);

impl Expr {
    /// Render the expression, naming variables from `names`.
    pub fn display<'a>(&'a self, names: &'a Names) -> impl fmt::Display + 'a {
        Show(self, names)
    }
}

impl fmt::Display for Show<'_, Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.1;
        match self.0 {
            Expr::Int(i) => write!(f, "{i}"),
            Expr::Float(x) => {
                // Keep a decimal point so the round trip re-lexes a float.
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Expr::Str(s) => write!(f, "{s:?}"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Var(v) => write!(f, "{}", names.get(*v)),
            Expr::Bin(op, l, r) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                };
                write!(f, "({} {sym} {})", l.display(names), r.display(names))
            }
            Expr::Neg(e) => write!(f, "(-{})", e.display(names)),
        }
    }
}

impl fmt::Display for Show<'_, PortRef> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (r, names) = (self.0, self.1);
        write!(f, "{}", names.get(r.inst))?;
        if let Some(ix) = &r.index {
            write!(f, "[{}]", ix.display(names))?;
        }
        write!(f, ".{}", names.get(r.port))
    }
}

fn write_stmts(
    f: &mut fmt::Formatter<'_>,
    names: &Names,
    stmts: &[Stmt],
    indent: usize,
) -> fmt::Result {
    let pad = "  ".repeat(indent);
    let name = |s: &Sym| names.get(*s);
    for s in stmts {
        match s {
            Stmt::Instance {
                name: inst,
                count,
                template,
                overrides,
            } => {
                write!(f, "{pad}instance {}", name(inst))?;
                if let Some(c) = count {
                    write!(f, "[{}]", c.display(names))?;
                }
                write!(f, " : {}", name(template))?;
                if overrides.is_empty() {
                    writeln!(f, ";")?;
                } else {
                    write!(f, " {{ ")?;
                    for (k, v) in overrides {
                        write!(f, "{} = {}; ", name(k), v.display(names))?;
                    }
                    writeln!(f, "}};")?;
                }
            }
            Stmt::Connect { from, to } => writeln!(
                f,
                "{pad}connect {} -> {};",
                Show(from, names),
                Show(to, names)
            )?,
            Stmt::For { var, lo, hi, body } => {
                writeln!(
                    f,
                    "{pad}for {} in {}..{} {{",
                    name(var),
                    lo.display(names),
                    hi.display(names)
                )?;
                write_stmts(f, names, body, indent + 1)?;
                writeln!(f, "{pad}}}")?;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                writeln!(f, "{pad}if {} {{", cond.display(names))?;
                write_stmts(f, names, then_body, indent + 1)?;
                if else_body.is_empty() {
                    writeln!(f, "{pad}}}")?;
                } else {
                    writeln!(f, "{pad}}} else {{")?;
                    write_stmts(f, names, else_body, indent + 1)?;
                    writeln!(f, "{pad}}}")?;
                }
            }
        }
    }
    Ok(())
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = &self.names;
        for m in &self.modules {
            writeln!(f, "module {} {{", names.get(m.name))?;
            for p in &m.params {
                writeln!(
                    f,
                    "  param {} = {};",
                    names.get(p.name),
                    p.default.display(names)
                )?;
            }
            for p in &m.ports {
                let d = if p.dir == Dir::In { "in" } else { "out" };
                writeln!(f, "  port {d} {};", names.get(p.name))?;
            }
            write_stmts(f, names, &m.body, 1)?;
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}
