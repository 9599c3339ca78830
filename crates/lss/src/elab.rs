//! Elaboration: turning a parsed LSS [`Spec`] into a flat, validated
//! netlist (paper Fig. 1: "Liberty Simulator Constructor").
//!
//! Hierarchical module templates are flattened recursively. An instance of
//! an LSS-defined module contributes its sub-instances under a dotted name
//! prefix; its exported ports are *bindings* to inner leaf ports, so
//! connections through the hierarchy always terminate at leaf module
//! instances, matching the kernel's flat edge model.
//!
//! The elaborator never hashes a name. Every identifier arrives interned
//! as a [`Sym`], and what a symbol means where it is used is found by
//! indexing a table with it:
//!
//! * a template symbol is resolved once per elaboration — to an LSS
//!   module, or to a registry template looked up by its text — and every
//!   later instance of it reuses the answer;
//! * instance names and parameter or loop variables use *shallow
//!   binding*: one cell per symbol holds the innermost definition, tagged
//!   with the depth of the module instance that made it, and a trail
//!   restores whatever a definition shadowed when that module instance
//!   (or `for` iteration) ends;
//! * a module instance's exported ports are slots indexed by the port's
//!   declaration, in one stack shared by the whole elaboration.
//!
//! So expanding a template costs index arithmetic per use, and the only
//! strings allocated per leaf are the flat instance names handed to the
//! netlist.

use crate::ast::*;
use liberty_core::module::Dir;
use liberty_core::prelude::*;
use liberty_core::registry::{ExportedPort, Template};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::ops::Range;
use std::sync::Arc;

/// Statistics about an elaboration, used by the reuse census (E6) and
/// construction-cost experiments (E1).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ElabReport {
    /// Number of leaf module instances in the flat netlist.
    pub leaf_instances: usize,
    /// Number of connections.
    pub edges: usize,
    /// How many times each leaf template was instantiated.
    pub template_uses: BTreeMap<String, usize>,
    /// How many times each LSS-defined hierarchical module was elaborated.
    pub module_uses: BTreeMap<String, usize>,
}

/// Where an exported port of a hierarchical instance actually lands. The
/// port name borrows the specification, except for a Rust-defined
/// composite template's exports, which arrive owned.
#[derive(Clone, Debug)]
struct Binding<'a> {
    inner: InstanceId,
    port: Cow<'a, str>,
    dir: Dir,
}

/// What an instance name means in its module: an array of instances
/// (a scalar is an array of one).
enum ScopeEntry {
    /// `len` leaves with consecutive ids from `first`: one `instance`
    /// statement adds its elements one after another.
    Leaf { first: InstanceId, len: usize },
    /// `len` instances of the LSS module `def`; element `k`'s exported
    /// ports are the slots `base + k * stride ..` of the exports stack,
    /// `stride` being the module's port count.
    Module { def: usize, base: usize, len: usize },
    /// Instances of a Rust-defined composite template, each with the
    /// exported ports it reported.
    Composite(Vec<Vec<ExportedPort>>),
}

/// A definition's place in its namespace's value stack, tagged with the
/// depth of the module instance that made it (the root is depth 1).
#[derive(Clone, Copy)]
struct Cell {
    depth: u32,
    at: u32,
}

const UNBOUND: Cell = Cell { depth: 0, at: 0 };

/// One namespace under shallow binding: `cell[sym]` is the innermost
/// definition of `sym`, visible only at the depth that made it.
struct Bindings<T> {
    cell: Vec<Cell>,
    values: Vec<T>,
    /// `(sym, shadowed cell)` for every definition, undone in reverse.
    trail: Vec<(Sym, Cell)>,
}

/// A point to unwind a [`Bindings`] back to.
#[derive(Clone, Copy)]
struct Mark {
    values: usize,
    trail: usize,
}

impl<T> Bindings<T> {
    fn new(syms: usize) -> Self {
        Bindings {
            cell: vec![UNBOUND; syms],
            values: Vec::new(),
            trail: Vec::new(),
        }
    }

    fn get(&self, sym: Sym, depth: u32) -> Option<&T> {
        let c = self.cell[sym.0 as usize];
        (c.depth == depth).then(|| &self.values[c.at as usize])
    }

    fn define(&mut self, sym: Sym, depth: u32, v: T) {
        let slot = &mut self.cell[sym.0 as usize];
        self.trail.push((sym, *slot));
        *slot = Cell {
            depth,
            at: self.values.len() as u32,
        };
        self.values.push(v);
    }

    fn mark(&self) -> Mark {
        Mark {
            values: self.values.len(),
            trail: self.trail.len(),
        }
    }

    fn undo(&mut self, m: Mark) {
        for (sym, old) in self.trail.drain(m.trail..).rev() {
            self.cell[sym.0 as usize] = old;
        }
        self.values.truncate(m.values);
    }
}

/// The parameters and loop variables in scope, and the depth that sees
/// them.
struct Env {
    vars: Bindings<ParamValue>,
    depth: u32,
}

fn eval(e: &Expr, env: &Env, names: &Names) -> Result<ParamValue, SimError> {
    Ok(match e {
        Expr::Int(i) => ParamValue::Int(*i),
        Expr::Float(x) => ParamValue::Float(*x),
        Expr::Str(s) => ParamValue::Str(s.clone()),
        Expr::Bool(b) => ParamValue::Bool(*b),
        Expr::Var(v) => env.vars.get(*v, env.depth).cloned().ok_or_else(|| {
            SimError::elab(format!("unknown parameter or variable {:?}", names.get(*v)))
        })?,
        Expr::Neg(inner) => match eval(inner, env, names)? {
            ParamValue::Int(i) => ParamValue::Int(i.wrapping_neg()),
            ParamValue::Float(x) => ParamValue::Float(-x),
            other => {
                return Err(SimError::elab(format!("cannot negate {other}")));
            }
        },
        Expr::Bin(op, l, r) => {
            let l = eval(l, env, names)?;
            let r = eval(r, env, names)?;
            match (l, r) {
                // Integer arithmetic wraps, like the machine words it
                // sizes: `i64::MIN / -1` is `i64::MIN`, not a panic.
                (ParamValue::Int(a), ParamValue::Int(b)) => ParamValue::Int(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(SimError::elab("division by zero".to_owned()));
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return Err(SimError::elab("remainder by zero".to_owned()));
                        }
                        a.wrapping_rem(b)
                    }
                }),
                (a, b) => {
                    let fa = to_f64(&a)?;
                    let fb = to_f64(&b)?;
                    ParamValue::Float(match op {
                        BinOp::Add => fa + fb,
                        BinOp::Sub => fa - fb,
                        BinOp::Mul => fa * fb,
                        BinOp::Div => fa / fb,
                        BinOp::Rem => fa % fb,
                    })
                }
            }
        }
    })
}

fn to_f64(v: &ParamValue) -> Result<f64, SimError> {
    match v {
        ParamValue::Int(i) => Ok(*i as f64),
        ParamValue::Float(x) => Ok(*x),
        other => Err(SimError::elab(format!(
            "expected numeric value, got {other}"
        ))),
    }
}

fn eval_index(
    e: &Expr,
    env: &Env,
    names: &Names,
    len: usize,
    what: &str,
) -> Result<usize, SimError> {
    match eval(e, env, names)? {
        ParamValue::Int(i) if i >= 0 && (i as usize) < len => Ok(i as usize),
        ParamValue::Int(i) => Err(SimError::elab(format!(
            "{what}: index {i} out of range 0..{len}"
        ))),
        other => Err(SimError::elab(format!(
            "{what}: index must be an int, got {other}"
        ))),
    }
}

/// Append `name`, then `[idx]` for an array element.
fn push_elem(s: &mut String, name: &str, idx: Option<usize>) {
    s.push_str(name);
    if let Some(i) = idx {
        write!(s, "[{i}]").expect("write to String");
    }
}

/// `prefix` + `name`, then `[idx]` for an array element: one allocation
/// of exactly the right size.
fn elem_path(prefix: &str, name: &str, idx: Option<usize>) -> String {
    let brackets = idx.map_or(0, |i| i.checked_ilog10().map_or(1, |d| d as usize + 1) + 2);
    let mut s = String::with_capacity(prefix.len() + name.len() + brackets);
    s.push_str(prefix);
    push_elem(&mut s, name, idx);
    s
}

/// The declaration index and direction of exported port `port` of `def`
/// (of a repeated declaration, the last).
fn declared_port(def: &ModuleDef, port: Sym) -> Option<(usize, Dir)> {
    let i = def.ports.iter().rposition(|p| p.name == port)?;
    Some((i, def.ports[i].dir))
}

/// Reject what the language leaves no meaning for: a module declaring a
/// parameter twice, or an instance overriding one twice.
fn check_duplicates(spec: &Spec) -> Result<(), SimError> {
    /// The first symbol `syms` repeats. `seen[sym]` holds the number of
    /// the list that last named `sym`; `syms` is list number `list`.
    fn first_repeat(
        seen: &mut [u32],
        list: u32,
        mut syms: impl Iterator<Item = Sym>,
    ) -> Option<Sym> {
        syms.find(|s| std::mem::replace(&mut seen[s.0 as usize], list) == list)
    }
    fn overrides(
        seen: &mut [u32],
        lists: &mut u32,
        body: &[Stmt],
        names: &Names,
        module: Sym,
    ) -> Result<(), SimError> {
        for s in body {
            match s {
                Stmt::Instance {
                    name, overrides, ..
                } => {
                    *lists += 1;
                    let keys = overrides.iter().map(|(k, _)| *k);
                    if let Some(k) = first_repeat(seen, *lists, keys) {
                        return Err(SimError::elab(format!(
                            "module {}: instance {:?}: duplicate parameter override {:?}",
                            names.get(module),
                            names.get(*name),
                            names.get(k)
                        )));
                    }
                }
                Stmt::For { body, .. } => overrides(seen, lists, body, names, module)?,
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    overrides(seen, lists, then_body, names, module)?;
                    overrides(seen, lists, else_body, names, module)?;
                }
                Stmt::Connect { .. } => {}
            }
        }
        Ok(())
    }
    let names = &spec.names;
    let mut seen = vec![0; names.len()];
    let mut lists = 0;
    for def in &spec.modules {
        lists += 1;
        if let Some(p) = first_repeat(&mut seen, lists, def.params.iter().map(|p| p.name)) {
            return Err(SimError::elab(format!(
                "module {}: duplicate parameter {:?}",
                names.get(def.name),
                names.get(p)
            )));
        }
        overrides(&mut seen, &mut lists, &def.body, names, def.name)?;
    }
    Ok(())
}

/// What a template symbol names.
#[derive(Clone, Copy)]
enum Resolved<'a> {
    /// An LSS module: an index into [`Spec::modules`].
    Module(usize),
    /// A leaf template of the registry.
    Leaf(&'a Template),
    /// A Rust-defined composite template of the registry.
    Composite(&'a Template),
}

/// Where a module instance's parameter overrides come from.
#[derive(Clone)]
enum Args<'p> {
    /// The caller's overrides of the root module.
    Root(&'p Params),
    /// Values an `instance` statement evaluated onto the args stack.
    Stack(Range<usize>),
}

/// No template resolved for this symbol yet.
const UNRESOLVED: u32 = u32::MAX;

struct Elaborator<'a> {
    spec: &'a Spec,
    names: &'a Names,
    registry: &'a Registry,
    builder: NetlistBuilder,
    /// Per symbol: its index in `resolved`, or [`UNRESOLVED`].
    template_of: Vec<u32>,
    resolved: Vec<Resolved<'a>>,
    /// Per `resolved` entry: how many instances elaborated it (modules
    /// and composites only).
    uses: Vec<usize>,
    /// Module-definition stack, for recursion detection.
    stack: Vec<usize>,
    env: Env,
    scope: Bindings<ScopeEntry>,
    /// Exported-port slots of the module instances still in scope.
    exports: Vec<Option<Binding<'a>>>,
    /// Overrides evaluated by the `instance` statements being elaborated.
    args: Vec<(Sym, ParamValue)>,
    /// Per symbol: its text as a parameter name, shared by every
    /// [`Params`] that overrides it.
    param_keys: Vec<Option<Arc<str>>>,
    /// Dotted path of the module instance being elaborated, ending in
    /// `.` below the root.
    prefix: String,
}

impl<'a> Elaborator<'a> {
    fn name(&self, sym: Sym) -> &'a str {
        self.names.get(sym)
    }

    /// What `sym` names as a template, looked up on its first use.
    fn resolve_template(&mut self, sym: Sym) -> Result<Resolved<'a>, SimError> {
        let slot = self.template_of[sym.0 as usize];
        if slot != UNRESOLVED {
            return Ok(self.resolved[slot as usize]);
        }
        let t = self.registry.get(self.name(sym))?;
        let r = if t.is_composite() {
            Resolved::Composite(t)
        } else {
            Resolved::Leaf(t)
        };
        self.template_of[sym.0 as usize] = self.resolved.len() as u32;
        self.resolved.push(r);
        self.uses.push(0);
        Ok(r)
    }

    /// The override of parameter `p` in `args`.
    fn arg(&self, args: &Args<'_>, p: Sym) -> Option<ParamValue> {
        match args {
            Args::Root(params) => params.get(self.name(p)).cloned(),
            Args::Stack(r) => self.args[r.clone()]
                .iter()
                .find(|(k, _)| *k == p)
                .map(|(_, v)| v.clone()),
        }
    }

    /// The first override in `args` (in name order) that `def` does not
    /// declare.
    fn unknown_arg(&self, args: &Args<'_>, def: &ModuleDef) -> Option<String> {
        match args {
            Args::Root(params) => params
                .iter()
                .map(|(k, _)| k)
                .find(|&k| !def.params.iter().any(|p| self.name(p.name) == k))
                .map(str::to_owned),
            Args::Stack(r) => self.args[r.clone()]
                .iter()
                .filter(|(k, _)| !def.params.iter().any(|p| p.name == *k))
                .map(|(k, _)| self.name(*k))
                .min()
                .map(str::to_owned),
        }
    }

    /// Elaborate one instance of module `def_ix`, under `self.prefix`,
    /// with parameter overrides `args`, binding its exported ports into
    /// the slots `exports[out..]`.
    fn elab_module(&mut self, def_ix: usize, args: Args<'_>, out: usize) -> Result<(), SimError> {
        let def = &self.spec.modules[def_ix];
        if self.stack.contains(&def_ix) {
            let path: Vec<&str> = self
                .stack
                .iter()
                .map(|&d| self.name(self.spec.modules[d].name))
                .collect();
            return Err(SimError::elab(format!(
                "recursive module instantiation: {} -> {}",
                path.join(" -> "),
                self.name(def.name)
            )));
        }
        self.stack.push(def_ix);
        self.uses[self.template_of[def.name.0 as usize] as usize] += 1;
        self.env.depth += 1;
        let (vars, scope, exports) = (self.env.vars.mark(), self.scope.mark(), self.exports.len());

        // Parameter environment: defaults (evaluated in order, so later
        // defaults may reference earlier parameters) overridden by args.
        for p in &def.params {
            let v = match self.arg(&args, p.name) {
                Some(v) => v,
                None => eval(&p.default, &self.env, self.names)?,
            };
            self.env.vars.define(p.name, self.env.depth, v);
        }
        if let Some(name) = self.unknown_arg(&args, def) {
            return Err(SimError::elab(format!(
                "module {}: unknown parameter override {name:?}",
                self.name(def.name)
            )));
        }

        self.elab_stmts(&def.body, def, out)?;

        self.env.vars.undo(vars);
        self.scope.undo(scope);
        self.exports.truncate(exports);
        self.env.depth -= 1;
        self.stack.pop();
        Ok(())
    }

    fn elab_stmts(
        &mut self,
        stmts: &'a [Stmt],
        def: &'a ModuleDef,
        out: usize,
    ) -> Result<(), SimError> {
        for stmt in stmts {
            match stmt {
                Stmt::Instance {
                    name,
                    count,
                    template,
                    overrides,
                } => self.elab_instance(*name, count.as_ref(), *template, overrides, def)?,
                Stmt::Connect { from, to } => self.elab_connect(from, to, def, out)?,
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let truthy = match eval(cond, &self.env, self.names)? {
                        ParamValue::Bool(b) => b,
                        ParamValue::Int(i) => i != 0,
                        other => {
                            return Err(SimError::elab(format!(
                                "if: condition must be bool or int, got {other}"
                            )))
                        }
                    };
                    let branch = if truthy { then_body } else { else_body };
                    self.elab_stmts(branch, def, out)?;
                }
                Stmt::For { var, lo, hi, body } => {
                    let bound = |e: &Expr, this: &Self| match eval(e, &this.env, this.names)? {
                        ParamValue::Int(i) => Ok(i),
                        other => Err(SimError::elab(format!(
                            "for {}: bounds must be ints, got {other}",
                            this.name(*var)
                        ))),
                    };
                    let lo = bound(lo, self)?;
                    let hi = bound(hi, self)?;
                    for i in lo..hi {
                        let m = self.env.vars.mark();
                        self.env
                            .vars
                            .define(*var, self.env.depth, ParamValue::Int(i));
                        self.elab_stmts(body, def, out)?;
                        self.env.vars.undo(m);
                    }
                }
            }
        }
        Ok(())
    }

    fn elab_instance(
        &mut self,
        name: Sym,
        count: Option<&Expr>,
        template: Sym,
        overrides: &'a [(Sym, Expr)],
        def: &'a ModuleDef,
    ) -> Result<(), SimError> {
        let depth = self.env.depth;
        if self.scope.get(name, depth).is_some() {
            return Err(SimError::elab(format!(
                "module {}: duplicate instance name {:?}",
                self.name(def.name),
                self.name(name)
            )));
        }
        let n = match count {
            None => None,
            Some(c) => match eval(c, &self.env, self.names)? {
                ParamValue::Int(i) if i >= 0 => Some(i as usize),
                other => {
                    return Err(SimError::elab(format!(
                        "instance {}: array size must be a non-negative int, got {other}",
                        self.name(name)
                    )))
                }
            },
        };
        let args_from = self.args.len();
        for (k, v) in overrides {
            let v = eval(v, &self.env, self.names)?;
            self.args.push((*k, v));
        }
        let total = n.unwrap_or(1);
        let entry = if total == 0 {
            // An empty array names no template, so none is looked up.
            ScopeEntry::Leaf {
                first: InstanceId(0),
                len: 0,
            }
        } else {
            match self.resolve_template(template)? {
                Resolved::Module(d) => {
                    // Each element's slots are added as it is elaborated
                    // (the size is the spec's to choose, so nothing is
                    // reserved for it up front); what an element adds
                    // above its slots is gone when it returns, so element
                    // `k`'s slots start at `base + k * stride`.
                    let stride = self.spec.modules[d].ports.len();
                    let base = self.exports.len();
                    let args = Args::Stack(args_from..self.args.len());
                    for k in 0..total {
                        let (at, out) = (self.prefix.len(), self.exports.len());
                        self.exports.resize(out + stride, None);
                        push_elem(&mut self.prefix, self.names.get(name), n.map(|_| k));
                        self.prefix.push('.');
                        self.elab_module(d, args.clone(), out)?;
                        self.prefix.truncate(at);
                    }
                    ScopeEntry::Module {
                        def: d,
                        base,
                        len: total,
                    }
                }
                Resolved::Leaf(t) => {
                    let params = self.params_from(args_from);
                    let mut first = None;
                    for k in 0..total {
                        let (spec, module) = t.instantiate(&params)?;
                        let path = elem_path(&self.prefix, self.name(name), n.map(|_| k));
                        let id = self.builder.add(path, spec, module)?;
                        first.get_or_insert(id);
                    }
                    self.check_read(&params, def, name, template)?;
                    ScopeEntry::Leaf {
                        first: first.unwrap_or(InstanceId(0)),
                        len: total,
                    }
                }
                Resolved::Composite(t) => {
                    // Rust-defined hierarchical template: expand it and
                    // adopt its exported ports as bindings.
                    let params = self.params_from(args_from);
                    let mut elems = Vec::new();
                    for k in 0..total {
                        let at = self.prefix.len();
                        push_elem(&mut self.prefix, self.names.get(name), n.map(|_| k));
                        self.prefix.push('.');
                        elems.push(t.instantiate_composite(
                            &params,
                            &mut self.builder,
                            &self.prefix,
                        )?);
                        self.prefix.truncate(at);
                        self.uses[self.template_of[template.0 as usize] as usize] += 1;
                    }
                    self.check_read(&params, def, name, template)?;
                    ScopeEntry::Composite(elems)
                }
            }
        };
        self.args.truncate(args_from);
        self.scope.define(name, depth, entry);
        Ok(())
    }

    /// The overrides evaluated from `args[from..]`, as a Rust template's
    /// parameters.
    fn params_from(&mut self, from: usize) -> Params {
        let mut params = Params::new();
        for (k, v) in self.args.drain(from..) {
            let key = self.param_keys[k.0 as usize].get_or_insert_with(|| self.names.get(k).into());
            params.set(key.clone(), v);
        }
        params
    }

    /// A Rust template must have looked up every override it was given:
    /// one it never read is a typo or has no meaning for it.
    fn check_read(
        &self,
        params: &Params,
        def: &ModuleDef,
        inst: Sym,
        template: Sym,
    ) -> Result<(), SimError> {
        match params.unread().next() {
            None => Ok(()),
            Some(key) => Err(SimError::elab(format!(
                "module {}: instance {:?}: unknown parameter override {key:?} \
                 (template {:?} never reads it)",
                self.name(def.name),
                self.name(inst),
                self.name(template)
            ))),
        }
    }

    /// Resolve a (non-`self`) port reference to a leaf endpoint. When the
    /// reference lands on a hierarchical instance's exported port,
    /// `want_dir` checks that the port is used on the correct side of the
    /// connect (leaf ports are checked later by the netlist builder).
    fn resolve(
        &self,
        r: &'a PortRef,
        def: &ModuleDef,
        want_dir: Dir,
    ) -> Result<(InstanceId, Cow<'a, str>), SimError> {
        let inst = self.name(r.inst);
        let port = self.name(r.port);
        let entry = self.scope.get(r.inst, self.env.depth).ok_or_else(|| {
            SimError::elab(format!(
                "module {}: unknown instance {inst:?} in connect",
                self.name(def.name)
            ))
        })?;
        let index = |len: usize| match &r.index {
            None if len == 1 => Ok(0),
            None => Err(SimError::elab(format!(
                "{}: instance array {inst:?} needs an index",
                self.name(def.name)
            ))),
            Some(e) => eval_index(e, &self.env, self.names, len, inst),
        };
        let no_port = || {
            SimError::elab(format!(
                "{}: instance {inst:?} has no exported port {port:?}",
                self.name(def.name)
            ))
        };
        let b = match entry {
            ScopeEntry::Leaf { first, len } => {
                let idx = index(*len)?;
                return Ok((InstanceId(first.0 + idx as u32), Cow::Borrowed(port)));
            }
            ScopeEntry::Module { def: d, base, len } => {
                let idx = index(*len)?;
                let child = &self.spec.modules[*d];
                let (p, _) = declared_port(child, r.port).ok_or_else(no_port)?;
                let slot = base + idx * child.ports.len() + p;
                self.exports[slot].clone().ok_or_else(no_port)?
            }
            ScopeEntry::Composite(elems) => {
                let idx = index(elems.len())?;
                let e = elems[idx]
                    .iter()
                    .rev()
                    .find(|e| e.name == port)
                    .ok_or_else(no_port)?;
                Binding {
                    inner: e.inst,
                    port: Cow::Owned(e.port.clone()),
                    dir: e.dir,
                }
            }
        };
        if b.dir != want_dir {
            return Err(SimError::elab(format!(
                "{}: exported port {inst}.{port} used on the wrong side of a connect",
                self.name(def.name)
            )));
        }
        Ok((b.inner, b.port))
    }

    /// Bind exported port `port` of `def` (whose slots start at `out`)
    /// to what `inner` resolves to.
    fn bind(
        &mut self,
        def: &ModuleDef,
        out: usize,
        port: Sym,
        want: Dir,
        inner: &'a PortRef,
    ) -> Result<(), SimError> {
        let dname = self.name(def.name);
        let pname = self.name(port);
        let (p, dir) = declared_port(def, port)
            .ok_or_else(|| SimError::elab(format!("module {dname}: undeclared port {pname:?}")))?;
        if dir != want {
            return Err(SimError::elab(match want {
                Dir::In => format!(
                    "module {dname}: port {pname:?} is an output; bind it with `connect inst.q -> self.{pname}`"
                ),
                Dir::Out => format!(
                    "module {dname}: port {pname:?} is an input; bind it with `connect self.{pname} -> inst.q`"
                ),
            }));
        }
        let (inner, port) = self.resolve(inner, def, dir)?;
        let slot = &mut self.exports[out + p];
        if slot.is_some() {
            return Err(SimError::elab(format!(
                "module {dname}: port {pname:?} bound twice"
            )));
        }
        *slot = Some(Binding { inner, port, dir });
        Ok(())
    }

    fn elab_connect(
        &mut self,
        from: &'a PortRef,
        to: &'a PortRef,
        def: &'a ModuleDef,
        out: usize,
    ) -> Result<(), SimError> {
        match (from.inst == Sym::SELF, to.inst == Sym::SELF) {
            (true, true) => Err(SimError::elab(format!(
                "module {}: cannot connect self to self",
                self.name(def.name)
            ))),
            // `connect self.p -> inst.q`: binds exported *input* p.
            (true, false) => self.bind(def, out, from.port, Dir::In, to),
            // `connect inst.q -> self.p`: binds exported *output* p.
            (false, true) => self.bind(def, out, to.port, Dir::Out, from),
            (false, false) => {
                let (src, src_port) = self.resolve(from, def, Dir::Out)?;
                let (dst, dst_port) = self.resolve(to, def, Dir::In)?;
                self.builder.connect(src, &src_port, dst, &dst_port)?;
                Ok(())
            }
        }
    }
}

/// Elaborate `root` (an LSS module name) into a flat netlist, using
/// `registry` for leaf templates and `args` as root parameter overrides.
pub fn elaborate(
    spec: &Spec,
    registry: &Registry,
    root: &str,
    args: &Params,
) -> Result<(Netlist, ElabReport), SimError> {
    let syms = spec.names.len();
    let mut template_of = vec![UNRESOLVED; syms];
    let mut resolved = Vec::with_capacity(spec.modules.len());
    for (i, m) in spec.modules.iter().enumerate() {
        let slot = &mut template_of[m.name.0 as usize];
        if *slot != UNRESOLVED {
            return Err(SimError::elab(format!(
                "duplicate module definition {:?}",
                spec.names.get(m.name)
            )));
        }
        *slot = i as u32;
        resolved.push(Resolved::Module(i));
    }
    let root_ix = spec
        .modules
        .iter()
        .position(|m| spec.names.get(m.name) == root)
        .ok_or_else(|| SimError::elab(format!("no module {root:?} in specification")))?;
    check_duplicates(spec)?;
    let mut e = Elaborator {
        spec,
        names: &spec.names,
        registry,
        builder: NetlistBuilder::new(),
        template_of,
        uses: vec![0; resolved.len()],
        resolved,
        stack: Vec::new(),
        env: Env {
            vars: Bindings::new(syms),
            depth: 0,
        },
        scope: Bindings::new(syms),
        exports: vec![None; spec.modules[root_ix].ports.len()],
        args: Vec::new(),
        param_keys: vec![None; syms],
        prefix: String::new(),
    };
    // Exported ports of the root stay unconnected: partial specification.
    e.elab_module(root_ix, Args::Root(args), 0)?;
    let mut module_uses = BTreeMap::new();
    for (r, &n) in e.resolved.iter().zip(&e.uses) {
        let name = match r {
            _ if n == 0 => continue,
            Resolved::Module(d) => spec.names.get(spec.modules[*d].name),
            Resolved::Composite(t) => &t.name,
            Resolved::Leaf(_) => continue,
        };
        module_uses.insert(name.to_owned(), n);
    }
    let net = e.builder.build()?;
    // The census counts ground truth in the flat netlist, so leaves added
    // by composite templates are included.
    let report = ElabReport {
        leaf_instances: net.len(),
        edges: net.edges.len(),
        template_uses: net.template_census(),
        module_uses,
    };
    Ok((net, report))
}
