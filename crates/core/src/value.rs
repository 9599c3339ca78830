//! The dynamic data type carried on LSE connections.
//!
//! The paper's component contract requires that *any* two modules can be
//! wired together without prior planning, including modules from different
//! domains (a processor pipeline stage and a network router, say). That
//! rules out a statically typed channel payload at the kernel level, so the
//! kernel moves [`Value`]s: a small dynamic type with the common scalar
//! shapes plus an [`Value::Opaque`] escape hatch for library-defined payload
//! structs (instructions, packets, coherence messages, ...), each of which
//! implements [`Payload`].

use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Where a [`Payload`]'s encoding goes: its fields as `u64` words, in the
/// order the payload's layout documents, with any nested [`Value`] in
/// place.
pub trait WordSink {
    /// The next field, as one word.
    fn word(&mut self, w: u64);

    /// A nested value (a routed payload, a packet's cargo).
    fn value(&mut self, v: &Value);

    /// A variable-length run: its length, then each word.
    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    /// An optional word: `0`, or `1` then the word.
    fn opt(&mut self, w: Option<u64>) {
        match w {
            None => self.word(0),
            Some(w) => {
                self.word(1);
                self.word(w);
            }
        }
    }

    /// An optional nested value: `0`, or `1` then the value.
    fn opt_value(&mut self, v: Option<&Value>) {
        match v {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.value(v);
            }
        }
    }
}

/// A library-defined type carried on a wire as [`Value::Opaque`] — the
/// only way into that variant ([`Value::wrap`], [`Value::wrap_arc`]).
///
/// A payload names itself with a dotted [`Payload::KIND`] and encodes
/// itself as words, and that is all a sink sees of it: `Display` and the
/// JSONL stream render `KIND[w0,w1,…]` (nested values recursively), VCD
/// fingerprints the kind and the words. The encoding must be exact — two
/// payloads of one kind encode alike if and only if they are `==` — or
/// the equivalence suites, which byte-compare rendered streams, go blind
/// to a difference. Each impl documents its word layout.
pub trait Payload: Any + Send + Sync + PartialEq {
    /// Dotted, JSON-safe name (`[A-Za-z0-9_.]+`), unique across
    /// libraries: `upl.Uop`, `ccl.Packet`, ...
    const KIND: &'static str;

    /// Emit the fields into `out`, in the documented layout.
    fn encode(&self, out: &mut dyn WordSink);
}

mod sealed {
    pub trait Sealed {}
    impl<T: super::Payload> Sealed for T {}
}

/// The object-safe face of a [`Payload`] behind [`Value::Opaque`].
/// Implemented for every `Payload` and nothing else.
pub trait OpaqueValue: Any + Send + Sync + sealed::Sealed {
    /// Upcast to [`Any`] for downcasting back to the concrete type.
    fn as_any(&self) -> &dyn Any;
    /// Dynamic equality: true iff `other` is the same concrete type and
    /// compares equal.
    fn eq_dyn(&self, other: &dyn OpaqueValue) -> bool;
    /// The payload's [`Payload::KIND`].
    fn kind(&self) -> &'static str;
    /// The payload's [`Payload::encode`].
    fn encode_dyn(&self, out: &mut dyn WordSink);
}

impl<T: Payload> OpaqueValue for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn eq_dyn(&self, other: &dyn OpaqueValue) -> bool {
        other
            .as_any()
            .downcast_ref::<T>()
            .is_some_and(|o| o == self)
    }

    fn kind(&self) -> &'static str {
        T::KIND
    }

    fn encode_dyn(&self, out: &mut dyn WordSink) {
        self.encode(out);
    }
}

/// Same text as `Display`: the kind and the words.
impl fmt::Debug for dyn OpaqueValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render_opaque(self, f)
    }
}

/// `KIND[w0,w1,…]`, nested values rendered by their `Display`.
fn render_opaque(o: &dyn OpaqueValue, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    struct Fields<'a, 'b> {
        f: &'a mut fmt::Formatter<'b>,
        first: bool,
        res: fmt::Result,
    }
    impl Fields<'_, '_> {
        fn field(&mut self, args: fmt::Arguments<'_>) {
            let sep = if std::mem::take(&mut self.first) {
                ""
            } else {
                ","
            };
            if self.res.is_ok() {
                self.res = self.f.write_str(sep).and_then(|()| self.f.write_fmt(args));
            }
        }
    }
    impl WordSink for Fields<'_, '_> {
        fn word(&mut self, w: u64) {
            self.field(format_args!("{w}"));
        }
        fn value(&mut self, v: &Value) {
            self.field(format_args!("{v}"));
        }
    }
    f.write_str(o.kind())?;
    f.write_str("[")?;
    let mut fields = Fields {
        f,
        first: true,
        res: Ok(()),
    };
    o.encode_dyn(&mut fields);
    fields.res?;
    fields.f.write_str("]")
}

/// A dynamically typed value carried on a connection's data signal.
///
/// `Value` is cheap to clone: the variants that can be large (`Tuple`,
/// `Bytes`, `Str`, `Opaque`) are reference counted or otherwise shared,
/// and the scalar variants are plain 16-byte copies. The `Clone` impl is
/// written out (rather than derived) so the scalar arms are guaranteed to
/// inline into the kernel's transfer path with no `Arc` refcount traffic
/// and no allocation — the counting-allocator test in `crates/bench`
/// (`tests/alloc.rs`) holds the kernel to zero heap activity across a
/// million word transfers.
#[derive(Debug)]
pub enum Value {
    /// A pure token: presence is the information (e.g. a grant wire).
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit machine word; the workhorse scalar.
    Word(u64),
    /// A signed 64-bit integer.
    Int(i64),
    /// A double-precision float (used by statistical models).
    Float(f64),
    /// A shared tuple of values.
    Tuple(Arc<Vec<Value>>),
    /// A shared immutable string.
    Str(Arc<str>),
    /// A library-defined payload (instruction, packet, coherence message...).
    Opaque(Arc<dyn OpaqueValue>),
}

impl Clone for Value {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Value::Unit => Value::Unit,
            Value::Bool(b) => Value::Bool(*b),
            Value::Word(w) => Value::Word(*w),
            Value::Int(i) => Value::Int(*i),
            Value::Float(f) => Value::Float(*f),
            Value::Tuple(t) => Value::Tuple(Arc::clone(t)),
            Value::Str(s) => Value::Str(Arc::clone(s)),
            Value::Opaque(o) => Value::Opaque(Arc::clone(o)),
        }
    }
}

impl Value {
    /// True for the inline scalar variants (`Unit`, `Bool`, `Word`, `Int`,
    /// `Float`): cloning one is a plain copy — no sharing, no refcounts,
    /// no allocation.
    #[inline]
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            Value::Unit | Value::Bool(_) | Value::Word(_) | Value::Int(_) | Value::Float(_)
        )
    }

    /// Wrap a library-defined payload into a `Value`.
    pub fn wrap<T: Payload>(v: T) -> Self {
        Value::Opaque(Arc::new(v))
    }

    /// Wrap an already shared payload without another allocation.
    pub fn wrap_arc<T: Payload>(v: Arc<T>) -> Self {
        Value::Opaque(v)
    }

    /// Borrow the payload as a concrete type, if this is an `Opaque` of that
    /// type.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        match self {
            Value::Opaque(o) => o.as_any().downcast_ref::<T>(),
            _ => None,
        }
    }

    /// The word carried by a `Word`, `Int` (reinterpreted) or `Bool` value.
    pub fn as_word(&self) -> Option<u64> {
        match self {
            Value::Word(w) => Some(*w),
            Value::Int(i) => Some(*i as u64),
            Value::Bool(b) => Some(u64::from(*b)),
            _ => None,
        }
    }

    /// The boolean carried by a `Bool` value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The float carried by a `Float` value.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Checked variant of [`Value::as_word`] that produces a structured
    /// [`SimError::Type`] naming the instance and port instead of leaving
    /// the caller to `unwrap` (and panic) on a mistyped payload. Used at
    /// the boundaries of the specialized kernels' unboxed lanes
    /// (`crate::kernel`), where a value that is not word-like cannot be
    /// lowered.
    pub fn word_checked(&self, instance: &str, port: &str) -> Result<u64, crate::error::SimError> {
        self.as_word().ok_or_else(|| {
            crate::error::SimError::type_err(format!(
                "{instance}.{port}: expected a word-like value (word, int, bool), got {}",
                self.kind()
            ))
        })
    }

    /// Checked variant of [`Value::as_bool`]; see [`Value::word_checked`].
    pub fn bool_checked(&self, instance: &str, port: &str) -> Result<bool, crate::error::SimError> {
        self.as_bool().ok_or_else(|| {
            crate::error::SimError::type_err(format!(
                "{instance}.{port}: expected a bool, got {}",
                self.kind()
            ))
        })
    }

    /// A short human-readable description of the value's dynamic type.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Word(_) => "word",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Tuple(_) => "tuple",
            Value::Str(_) => "str",
            Value::Opaque(o) => o.kind(),
        }
    }
}

/// Shared payloads (`Tuple`, `Opaque`) compare equal to *themselves* by
/// address before their contents are walked: an idempotent re-write of
/// the same `Arc` is the common case on a wire and must not cost a deep
/// compare. The short-circuit makes equality reflexive for those
/// variants even when the contents are not (`Float(NaN) != Float(NaN)`,
/// yet a tuple holding a NaN equals itself and differs from a rebuilt
/// copy) — intentional: re-driving the very value a wire already holds
/// is idempotent whatever is inside it.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Unit, Unit) => true,
            (Bool(a), Bool(b)) => a == b,
            (Word(a), Word(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Tuple(a), Tuple(b)) => Arc::ptr_eq(a, b) || a == b,
            (Str(a), Str(b)) => a == b,
            (Opaque(a), Opaque(b)) => Arc::ptr_eq(a, b) || a.eq_dyn(b.as_ref()),
            _ => false,
        }
    }
}

impl From<u64> for Value {
    fn from(w: u64) -> Self {
        Value::Word(w)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Word(w) => write!(f, "{w}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Opaque(o) => render_opaque(o.as_ref(), f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pkt {
        dst: u32,
        len: u16,
    }

    /// Layout: `[dst, len]`.
    impl Payload for Pkt {
        const KIND: &'static str = "test.Pkt";
        fn encode(&self, out: &mut dyn WordSink) {
            out.word(u64::from(self.dst));
            out.word(u64::from(self.len));
        }
    }

    /// A payload nesting a value: `[tag, cargo?]`.
    #[derive(Debug, PartialEq)]
    struct Env {
        tag: u64,
        cargo: Option<Value>,
    }

    impl Payload for Env {
        const KIND: &'static str = "test.Env";
        fn encode(&self, out: &mut dyn WordSink) {
            out.word(self.tag);
            out.opt_value(self.cargo.as_ref());
        }
    }

    #[test]
    fn shared_payloads_equal_themselves_by_address() {
        let rebuilt = || Value::Tuple(Arc::new(vec![Value::Float(f64::NAN)]));
        let nan = rebuilt();
        assert_eq!(nan, nan.clone(), "same Arc: reflexive");
        assert_ne!(nan, rebuilt());
        assert_ne!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn wrap_and_downcast() {
        let v = Value::wrap(Pkt { dst: 3, len: 64 });
        let p = v.downcast_ref::<Pkt>().expect("downcast");
        assert_eq!(p.dst, 3);
        assert_eq!(p.len, 64);
        assert!(v.downcast_ref::<u32>().is_none());
    }

    #[test]
    fn opaque_equality_is_structural() {
        let a = Value::wrap(Pkt { dst: 1, len: 2 });
        let b = Value::wrap(Pkt { dst: 1, len: 2 });
        let c = Value::wrap(Pkt { dst: 9, len: 2 });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn opaque_equality_across_types_is_false() {
        #[derive(Debug, PartialEq)]
        struct Other(u32);
        impl Payload for Other {
            const KIND: &'static str = "test.Other";
            fn encode(&self, out: &mut dyn WordSink) {
                out.word(u64::from(self.0));
            }
        }
        let a = Value::wrap(Pkt { dst: 1, len: 2 });
        let b = Value::wrap(Other(1));
        assert_ne!(a, b);
    }

    #[test]
    fn scalar_accessors() {
        assert_eq!(Value::Word(7).as_word(), Some(7));
        assert_eq!(Value::Bool(true).as_word(), Some(1));
        assert_eq!(Value::Int(-1).as_word(), Some(u64::MAX));
        assert_eq!(Value::Unit.as_word(), None);
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Float(0.5).as_float(), Some(0.5));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Word(42).to_string(), "42");
        let t = Value::Tuple(Arc::new(vec![Value::Word(1), Value::Bool(false)]));
        assert_eq!(t.to_string(), "(1, false)");
    }

    #[test]
    fn opaque_display_is_kind_and_words_with_nested_values_inline() {
        let pkt = Value::wrap(Pkt { dst: 3, len: 64 });
        assert_eq!(pkt.to_string(), "test.Pkt[3,64]");
        assert_eq!(format!("{pkt:?}"), "Opaque(test.Pkt[3,64])");
        let env = |cargo| Value::wrap(Env { tag: 7, cargo });
        assert_eq!(env(None).to_string(), "test.Env[7,0]");
        let nested = env(Some(Value::Tuple(Arc::new(vec![pkt, Value::from("a,b")]))));
        assert_eq!(
            nested.to_string(),
            "test.Env[7,1,(test.Pkt[3,64], \"a,b\")]"
        );
        let twice = env(Some(env(Some(Value::Word(5)))));
        assert_eq!(twice.to_string(), "test.Env[7,1,test.Env[7,1,5]]");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3u64), Value::Word(3));
        assert_eq!(Value::from(-3i64), Value::Int(-3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Str(Arc::from("hi")));
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Word(0).kind(), "word");
        let v = Value::wrap(Pkt { dst: 0, len: 0 });
        assert_eq!(v.kind(), "test.Pkt");
    }
}
