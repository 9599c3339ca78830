//! Elaboration: turning a parsed LSS [`Spec`] into a flat, validated
//! netlist (paper Fig. 1: "Liberty Simulator Constructor").
//!
//! Hierarchical module templates are flattened recursively. An instance of
//! an LSS-defined module contributes its sub-instances under a dotted name
//! prefix; its exported ports are *bindings* to inner leaf ports, so
//! connections through the hierarchy always terminate at leaf module
//! instances, matching the kernel's flat edge model.
//!
//! The elaborator borrows its names from the specification: scopes,
//! parameter environments and port bindings are keyed by `&str` slices of
//! the AST, so the only strings it allocates are the flat instance names
//! it hands to the netlist.

use crate::ast::*;
use liberty_core::module::Dir;
use liberty_core::prelude::*;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;

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

/// A hierarchical instance's exported ports, by name.
type Exports<'a> = HashMap<Cow<'a, str>, Binding<'a>>;

/// One name in a module's local scope: a leaf instance array or a
/// hierarchical instance array (scalars are arrays of length 1).
enum ScopeEntry<'a> {
    /// `len` leaves with consecutive ids from `first`: one `instance`
    /// statement adds its elements one after another.
    Leaf {
        first: InstanceId,
        len: usize,
    },
    Hier(Vec<Exports<'a>>),
}

/// Environment for expression evaluation: innermost scope last. A popped
/// frame is kept, emptied, for the next push, so a `for` loop does not
/// build a map per iteration.
struct Env<'a> {
    frames: Vec<HashMap<&'a str, ParamValue>>,
    depth: usize,
}

impl<'a> Env<'a> {
    fn new() -> Self {
        Env {
            frames: vec![HashMap::new()],
            depth: 1,
        }
    }

    fn lookup(&self, name: &str) -> Option<&ParamValue> {
        self.frames[..self.depth]
            .iter()
            .rev()
            .find_map(|f| f.get(name))
    }

    fn define(&mut self, name: &'a str, v: ParamValue) {
        self.frames[self.depth - 1].insert(name, v);
    }

    fn push(&mut self) {
        if self.depth == self.frames.len() {
            self.frames.push(HashMap::new());
        }
        self.depth += 1;
    }

    fn pop(&mut self) {
        self.depth -= 1;
        self.frames[self.depth].clear();
    }
}

fn eval(e: &Expr, env: &Env<'_>) -> Result<ParamValue, SimError> {
    Ok(match e {
        Expr::Int(i) => ParamValue::Int(*i),
        Expr::Float(x) => ParamValue::Float(*x),
        Expr::Str(s) => ParamValue::Str(s.clone()),
        Expr::Bool(b) => ParamValue::Bool(*b),
        Expr::Var(v) => env
            .lookup(v)
            .cloned()
            .ok_or_else(|| SimError::elab(format!("unknown parameter or variable {v:?}")))?,
        Expr::Neg(inner) => match eval(inner, env)? {
            ParamValue::Int(i) => ParamValue::Int(i.wrapping_neg()),
            ParamValue::Float(x) => ParamValue::Float(-x),
            other => {
                return Err(SimError::elab(format!("cannot negate {other}")));
            }
        },
        Expr::Bin(op, l, r) => {
            let l = eval(l, env)?;
            let r = eval(r, env)?;
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

fn eval_index(e: &Expr, env: &Env<'_>, len: usize, what: &str) -> Result<usize, SimError> {
    match eval(e, env)? {
        ParamValue::Int(i) if i >= 0 && (i as usize) < len => Ok(i as usize),
        ParamValue::Int(i) => Err(SimError::elab(format!(
            "{what}: index {i} out of range 0..{len}"
        ))),
        other => Err(SimError::elab(format!(
            "{what}: index must be an int, got {other}"
        ))),
    }
}

/// `prefix` + `name`, then `[idx]` for an array element, then `suffix`:
/// one allocation of exactly the right size.
fn elem_path(prefix: &str, name: &str, idx: Option<usize>, suffix: &str) -> String {
    let brackets = idx.map_or(0, |i| i.checked_ilog10().map_or(1, |d| d as usize + 1) + 2);
    let mut s = String::with_capacity(prefix.len() + name.len() + brackets + suffix.len());
    s.push_str(prefix);
    s.push_str(name);
    if let Some(i) = idx {
        write!(s, "[{i}]").expect("write to String");
    }
    s.push_str(suffix);
    s
}

/// Count one use of `name`, copying the name only on its first use.
fn tally(counts: &mut BTreeMap<String, usize>, name: &str) {
    match counts.get_mut(name) {
        Some(n) => *n += 1,
        None => {
            counts.insert(name.to_owned(), 1);
        }
    }
}

/// The direction `def` declares for exported port `name` (of a repeated
/// declaration, the last).
fn declared_dir(def: &ModuleDef, name: &str) -> Option<Dir> {
    def.ports
        .iter()
        .rev()
        .find(|p| p.name == name)
        .map(|p| p.dir)
}

/// Bind exported port `name` of the module `def` being elaborated.
fn bind<'a>(
    exported: &mut Exports<'a>,
    def: &ModuleDef,
    name: &'a str,
    b: Binding<'a>,
) -> Result<(), SimError> {
    match exported.entry(Cow::Borrowed(name)) {
        Entry::Occupied(_) => Err(SimError::elab(format!(
            "module {}: port {name:?} bound twice",
            def.name
        ))),
        Entry::Vacant(v) => {
            v.insert(b);
            Ok(())
        }
    }
}

/// Resolve a (non-`self`) port reference to a leaf endpoint. When the
/// reference lands on a hierarchical instance's exported port,
/// `want_dir` checks that the port is used on the correct side of the
/// connect (leaf ports are checked later by the netlist builder). The
/// port name comes back borrowed from the specification.
fn resolve<'a>(
    r: &'a PortRef,
    def: &ModuleDef,
    env: &Env<'_>,
    scope: &HashMap<&'a str, ScopeEntry<'a>>,
    want_dir: Dir,
) -> Result<(InstanceId, Cow<'a, str>), SimError> {
    let entry = scope.get(r.inst.as_str()).ok_or_else(|| {
        SimError::elab(format!(
            "module {}: unknown instance {:?} in connect",
            def.name, r.inst
        ))
    })?;
    let index = |len: usize| match &r.index {
        None if len == 1 => Ok(0),
        None => Err(SimError::elab(format!(
            "{}: instance array {:?} needs an index",
            def.name, r.inst
        ))),
        Some(e) => eval_index(e, env, len, &r.inst),
    };
    match entry {
        ScopeEntry::Leaf { first, len } => {
            let idx = index(*len)?;
            Ok((InstanceId(first.0 + idx as u32), Cow::Borrowed(&r.port)))
        }
        ScopeEntry::Hier(elems) => {
            let idx = index(elems.len())?;
            let b = elems[idx].get(r.port.as_str()).ok_or_else(|| {
                SimError::elab(format!(
                    "{}: instance {:?} has no exported port {:?}",
                    def.name, r.inst, r.port
                ))
            })?;
            if b.dir != want_dir {
                return Err(SimError::elab(format!(
                    "{}: exported port {}.{} used on the wrong side of a connect",
                    def.name, r.inst, r.port
                )));
            }
            Ok((b.inner, b.port.clone()))
        }
    }
}

struct Elaborator<'a> {
    defs: HashMap<&'a str, &'a ModuleDef>,
    registry: &'a Registry,
    builder: NetlistBuilder,
    report: ElabReport,
    /// Template-name stack for recursion detection.
    stack: Vec<&'a str>,
}

impl<'a> Elaborator<'a> {
    /// Elaborate one module body. `prefix` is the dotted instance path,
    /// `args` the evaluated parameter overrides. Returns the exported-port
    /// bindings of this module instance.
    fn elab_module(
        &mut self,
        def: &'a ModuleDef,
        prefix: &str,
        args: &Params,
    ) -> Result<Exports<'a>, SimError> {
        if self.stack.contains(&def.name.as_str()) {
            return Err(SimError::elab(format!(
                "recursive module instantiation: {} -> {}",
                self.stack.join(" -> "),
                def.name
            )));
        }
        self.stack.push(&def.name);
        tally(&mut self.report.module_uses, &def.name);

        // Parameter environment: defaults (evaluated in order, so later
        // defaults may reference earlier parameters) overridden by args.
        let mut env = Env::new();
        for p in &def.params {
            let v = match args.get(&p.name) {
                Some(v) => v.clone(),
                None => eval(&p.default, &env)?,
            };
            env.define(&p.name, v);
        }
        for (name, _) in args.iter() {
            if !def.params.iter().any(|p| p.name == name) {
                return Err(SimError::elab(format!(
                    "module {}: unknown parameter override {name:?}",
                    def.name
                )));
            }
        }

        let mut scope = HashMap::new();
        let mut exported = Exports::new();
        self.elab_stmts(&def.body, prefix, def, &mut env, &mut scope, &mut exported)?;

        self.stack.pop();
        Ok(exported)
    }

    fn elab_stmts(
        &mut self,
        stmts: &'a [Stmt],
        prefix: &str,
        def: &'a ModuleDef,
        env: &mut Env<'a>,
        scope: &mut HashMap<&'a str, ScopeEntry<'a>>,
        exported: &mut Exports<'a>,
    ) -> Result<(), SimError> {
        for stmt in stmts {
            match stmt {
                Stmt::Instance {
                    name,
                    count,
                    template,
                    overrides,
                } => {
                    let Entry::Vacant(slot) = scope.entry(name.as_str()) else {
                        return Err(SimError::elab(format!(
                            "module {}: duplicate instance name {name:?}",
                            def.name
                        )));
                    };
                    let n = match count {
                        None => None,
                        Some(c) => match eval(c, env)? {
                            ParamValue::Int(i) if i >= 0 => Some(i as usize),
                            other => {
                                return Err(SimError::elab(format!(
                                    "instance {name}: array size must be a non-negative int, got {other}"
                                )))
                            }
                        },
                    };
                    let mut params = Params::new();
                    for (k, v) in overrides {
                        params.set(k, eval(v, env)?);
                    }
                    let total = n.unwrap_or(1);
                    let mut first_leaf = None;
                    let mut hiers = Vec::new();
                    for idx in 0..total {
                        let idx = n.map(|_| idx);
                        if let Some(mdef) = self.defs.get(template.as_str()).copied() {
                            let inner = elem_path(prefix, name, idx, ".");
                            hiers.push(self.elab_module(mdef, &inner, &params)?);
                        } else if self.registry.get(template)?.is_composite() {
                            // Rust-defined hierarchical template: expand it
                            // and adopt its exported ports as bindings.
                            let exported = self.registry.get(template)?.instantiate_composite(
                                &params,
                                &mut self.builder,
                                &elem_path(prefix, name, idx, "."),
                            )?;
                            tally(&mut self.report.module_uses, template);
                            let map = exported
                                .into_iter()
                                .map(|e| {
                                    let b = Binding {
                                        inner: e.inst,
                                        port: Cow::Owned(e.port),
                                        dir: e.dir,
                                    };
                                    (Cow::Owned(e.name), b)
                                })
                                .collect();
                            hiers.push(map);
                        } else {
                            let (spec, module) = self.registry.instantiate(template, &params)?;
                            let id =
                                self.builder
                                    .add(elem_path(prefix, name, idx, ""), spec, module)?;
                            first_leaf.get_or_insert(id);
                        }
                    }
                    slot.insert(if !hiers.is_empty() {
                        ScopeEntry::Hier(hiers)
                    } else {
                        ScopeEntry::Leaf {
                            first: first_leaf.unwrap_or(InstanceId(0)),
                            len: total,
                        }
                    });
                }
                Stmt::Connect { from, to } => {
                    self.elab_connect(from, to, def, env, scope, exported)?;
                }

                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let truthy = match eval(cond, env)? {
                        ParamValue::Bool(b) => b,
                        ParamValue::Int(i) => i != 0,
                        other => {
                            return Err(SimError::elab(format!(
                                "if: condition must be bool or int, got {other}"
                            )))
                        }
                    };
                    let branch = if truthy { then_body } else { else_body };
                    env.push();
                    self.elab_stmts(branch, prefix, def, env, scope, exported)?;
                    env.pop();
                }
                Stmt::For { var, lo, hi, body } => {
                    let lo = match eval(lo, env)? {
                        ParamValue::Int(i) => i,
                        other => {
                            return Err(SimError::elab(format!(
                                "for {var}: bounds must be ints, got {other}"
                            )))
                        }
                    };
                    let hi = match eval(hi, env)? {
                        ParamValue::Int(i) => i,
                        other => {
                            return Err(SimError::elab(format!(
                                "for {var}: bounds must be ints, got {other}"
                            )))
                        }
                    };
                    for i in lo..hi {
                        env.push();
                        env.define(var, ParamValue::Int(i));
                        self.elab_stmts(body, prefix, def, env, scope, exported)?;
                        env.pop();
                    }
                }
            }
        }
        Ok(())
    }

    fn elab_connect(
        &mut self,
        from: &'a PortRef,
        to: &'a PortRef,
        def: &ModuleDef,
        env: &Env<'a>,
        scope: &HashMap<&'a str, ScopeEntry<'a>>,
        exported: &mut Exports<'a>,
    ) -> Result<(), SimError> {
        let from_self = from.inst == "self";
        let to_self = to.inst == "self";
        match (from_self, to_self) {
            (true, true) => Err(SimError::elab(format!(
                "module {}: cannot connect self to self",
                def.name
            ))),
            // `connect self.p -> inst.q`: binds exported *input* p.
            (true, false) => {
                let dir = declared_dir(def, &from.port).ok_or_else(|| {
                    SimError::elab(format!(
                        "module {}: undeclared port {:?}",
                        def.name, from.port
                    ))
                })?;
                if dir != Dir::In {
                    return Err(SimError::elab(format!(
                        "module {}: port {:?} is an output; bind it with `connect inst.q -> self.{}`",
                        def.name, from.port, from.port
                    )));
                }
                let (inner, port) = resolve(to, def, env, scope, Dir::In)?;
                let b = Binding {
                    inner,
                    port,
                    dir: Dir::In,
                };
                bind(exported, def, &from.port, b)
            }
            // `connect inst.q -> self.p`: binds exported *output* p.
            (false, true) => {
                let dir = declared_dir(def, &to.port).ok_or_else(|| {
                    SimError::elab(format!(
                        "module {}: undeclared port {:?}",
                        def.name, to.port
                    ))
                })?;
                if dir != Dir::Out {
                    return Err(SimError::elab(format!(
                        "module {}: port {:?} is an input; bind it with `connect self.{} -> inst.q`",
                        def.name, to.port, to.port
                    )));
                }
                let (inner, port) = resolve(from, def, env, scope, Dir::Out)?;
                let b = Binding {
                    inner,
                    port,
                    dir: Dir::Out,
                };
                bind(exported, def, &to.port, b)
            }
            (false, false) => {
                let (src, src_port) = resolve(from, def, env, scope, Dir::Out)?;
                let (dst, dst_port) = resolve(to, def, env, scope, Dir::In)?;
                self.builder.connect(src, &src_port, dst, &dst_port)?;
                self.report.edges += 1;
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
    let mut defs = HashMap::new();
    for m in &spec.modules {
        if defs.insert(m.name.as_str(), m).is_some() {
            return Err(SimError::elab(format!(
                "duplicate module definition {:?}",
                m.name
            )));
        }
    }
    let root_def = *defs
        .get(root)
        .ok_or_else(|| SimError::elab(format!("no module {root:?} in specification")))?;
    let mut e = Elaborator {
        defs,
        registry,
        builder: NetlistBuilder::new(),
        report: ElabReport::default(),
        stack: Vec::new(),
    };
    // Exported ports of the root stay unconnected: partial specification.
    e.elab_module(root_def, "", args)?;
    let mut report = e.report;
    let net = e.builder.build()?;
    // The census counts ground truth in the flat netlist, so leaves added
    // by composite templates are included.
    report.leaf_instances = net.len();
    report.edges = net.edges.len();
    for inst in &net.instances {
        tally(&mut report.template_uses, &inst.spec.template);
    }
    Ok((net, report))
}
