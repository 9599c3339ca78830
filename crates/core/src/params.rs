//! Algorithmic parameters (paper §2.1).
//!
//! LSE components are customized through *algorithmic parameters*:
//! parameter values that describe functionality (an arbitration policy, a
//! replacement policy, a latency). A module template inherits its overall
//! behaviour and adapts the specifics per instance through its [`Params`].

use crate::error::SimError;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

/// One parameter value. `List` supports per-connection parameters; `Str`
/// supports policy selectors ("round_robin", "lru", ...).
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// An integer parameter (sizes, latencies, widths).
    Int(i64),
    /// A floating-point parameter (rates, probabilities, coefficients).
    Float(f64),
    /// A boolean parameter (feature switches).
    Bool(bool),
    /// A string parameter (policy and algorithm selectors).
    Str(String),
    /// A list parameter (per-port or per-connection values).
    List(Vec<ParamValue>),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Str(s) => write!(f, "{s:?}"),
            ParamValue::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Int(v as i64)
    }
}
impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}
impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_owned())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// A set of named parameter values customizing one module instance.
///
/// Getters come in two forms: `get_*` (error if absent) and `*_or`
/// (template-provided default if absent). Absent-with-default is the normal
/// case — the paper's templates ship usable defaults so a minimal
/// specification works out of the box.
///
/// Every lookup marks the parameter as read, so after a template's
/// constructor has run, [`Params::unread`] names the values it never
/// looked at: a misspelt or meaningless override.
#[derive(Default)]
pub struct Params {
    /// Sorted by name.
    entries: Vec<Entry>,
}

struct Entry {
    key: Arc<str>,
    value: ParamValue,
    /// Set by every lookup of `key`. Atomic so a shared `Params` stays
    /// `Sync`; a relaxed store is all it needs.
    read: AtomicBool,
}

impl Clone for Params {
    fn clone(&self) -> Self {
        let entries = self
            .entries
            .iter()
            .map(|e| Entry {
                key: e.key.clone(),
                value: e.value.clone(),
                read: AtomicBool::new(e.read.load(Relaxed)),
            })
            .collect();
        Params { entries }
    }
}

/// Equal names and values; what has been read does not matter.
impl PartialEq for Params {
    fn eq(&self, other: &Self) -> bool {
        self.iter_quiet().eq(other.iter_quiet())
    }
}

impl fmt::Debug for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Values<'a>(&'a Params);
        impl fmt::Debug for Values<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter_quiet()).finish()
            }
        }
        f.debug_struct("Params")
            .field("values", &Values(self))
            .finish()
    }
}

impl Params {
    /// An empty parameter set (all defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, key: &str, value: impl Into<ParamValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Insert or replace a parameter. A caller setting the same names
    /// over and over can pass them as shared `Arc<str>`s.
    pub fn set(&mut self, key: impl AsRef<str> + Into<Arc<str>>, value: impl Into<ParamValue>) {
        let value = value.into();
        match self.find(key.as_ref()) {
            Ok(i) => {
                let e = &mut self.entries[i];
                e.value = value;
                *e.read.get_mut() = false;
            }
            Err(i) => self.entries.insert(
                i,
                Entry {
                    key: key.into(),
                    value,
                    read: AtomicBool::new(false),
                },
            ),
        }
    }

    fn find(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| (*e.key).cmp(key))
    }

    /// Raw access to a parameter value, marking it read.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        let e = &self.entries[self.find(key).ok()?];
        e.read.store(true, Relaxed);
        Some(&e.value)
    }

    /// True if the parameter is present.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterate over all `(name, value)` pairs in name order, marking
    /// every one read.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.entries.iter().map(|e| {
            e.read.store(true, Relaxed);
            (&*e.key, &e.value)
        })
    }

    fn iter_quiet(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.entries.iter().map(|e| (&*e.key, &e.value))
    }

    /// The parameters no lookup has touched since they were set, in name
    /// order.
    pub fn unread(&self) -> impl Iterator<Item = &str> {
        self.entries
            .iter()
            .filter(|e| !e.read.load(Relaxed))
            .map(|e| &*e.key)
    }

    /// Number of explicitly set parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no parameters are explicitly set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// An integer parameter, with a default.
    pub fn int_or(&self, key: &str, default: i64) -> Result<i64, SimError> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Int(i)) => Ok(*i),
            Some(other) => Err(SimError::param(format!(
                "parameter {key:?}: expected int, got {other}"
            ))),
        }
    }

    /// A non-negative integer parameter as `usize`, with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, SimError> {
        let v = self.int_or(key, default as i64)?;
        usize::try_from(v).map_err(|_| {
            SimError::param(format!("parameter {key:?}: expected non-negative, got {v}"))
        })
    }

    /// A float parameter, with a default. Integer values are widened.
    pub fn float_or(&self, key: &str, default: f64) -> Result<f64, SimError> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Float(f)) => Ok(*f),
            Some(ParamValue::Int(i)) => Ok(*i as f64),
            Some(other) => Err(SimError::param(format!(
                "parameter {key:?}: expected float, got {other}"
            ))),
        }
    }

    /// A boolean parameter, with a default.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, SimError> {
        match self.get(key) {
            None => Ok(default),
            Some(ParamValue::Bool(b)) => Ok(*b),
            Some(other) => Err(SimError::param(format!(
                "parameter {key:?}: expected bool, got {other}"
            ))),
        }
    }

    /// A string parameter, with a default.
    pub fn str_or(&self, key: &str, default: &str) -> Result<String, SimError> {
        match self.get(key) {
            None => Ok(default.to_owned()),
            Some(ParamValue::Str(s)) => Ok(s.clone()),
            Some(other) => Err(SimError::param(format!(
                "parameter {key:?}: expected string, got {other}"
            ))),
        }
    }

    /// A list parameter; absent means empty.
    pub fn list_or_empty(&self, key: &str) -> Result<&[ParamValue], SimError> {
        match self.get(key) {
            None => Ok(&[]),
            Some(ParamValue::List(l)) => Ok(l),
            Some(other) => Err(SimError::param(format!(
                "parameter {key:?}: expected list, got {other}"
            ))),
        }
    }

    /// A required integer parameter.
    pub fn require_int(&self, key: &str) -> Result<i64, SimError> {
        match self.get(key) {
            Some(ParamValue::Int(i)) => Ok(*i),
            Some(other) => Err(SimError::param(format!(
                "parameter {key:?}: expected int, got {other}"
            ))),
            None => Err(SimError::param(format!(
                "missing required parameter {key:?}"
            ))),
        }
    }

    /// A required string parameter.
    pub fn require_str(&self, key: &str) -> Result<String, SimError> {
        match self.get(key) {
            Some(ParamValue::Str(s)) => Ok(s.clone()),
            Some(other) => Err(SimError::param(format!(
                "parameter {key:?}: expected string, got {other}"
            ))),
            None => Err(SimError::param(format!(
                "missing required parameter {key:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_when_absent() {
        let p = Params::new();
        assert_eq!(p.int_or("depth", 8).unwrap(), 8);
        assert!(p.bool_or("bypass", true).unwrap());
        assert_eq!(p.str_or("policy", "round_robin").unwrap(), "round_robin");
        assert_eq!(p.float_or("rate", 0.5).unwrap(), 0.5);
        assert!(p.list_or_empty("weights").unwrap().is_empty());
    }

    #[test]
    fn explicit_values_override_defaults() {
        let p = Params::new()
            .with("depth", 32i64)
            .with("policy", "lru")
            .with("bypass", false)
            .with("rate", 0.25);
        assert_eq!(p.int_or("depth", 8).unwrap(), 32);
        assert_eq!(p.str_or("policy", "rr").unwrap(), "lru");
        assert!(!p.bool_or("bypass", true).unwrap());
        assert_eq!(p.float_or("rate", 0.5).unwrap(), 0.25);
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let p = Params::new().with("depth", "oops");
        assert!(p.int_or("depth", 8).is_err());
        assert!(p.usize_or("depth", 8).is_err());
        let p2 = Params::new().with("flag", 1i64);
        assert!(p2.bool_or("flag", false).is_err());
    }

    #[test]
    fn int_widens_to_float() {
        let p = Params::new().with("rate", 2i64);
        assert_eq!(p.float_or("rate", 0.0).unwrap(), 2.0);
    }

    #[test]
    fn negative_usize_rejected() {
        let p = Params::new().with("depth", -1i64);
        assert!(p.usize_or("depth", 1).is_err());
    }

    #[test]
    fn required_parameters() {
        let p = Params::new().with("name", "x");
        assert_eq!(p.require_str("name").unwrap(), "x");
        assert!(p.require_int("missing").is_err());
        assert!(p.require_str("missing").is_err());
    }

    #[test]
    fn list_parameters() {
        let p = Params::new().with(
            "weights",
            ParamValue::List(vec![ParamValue::Int(1), ParamValue::Int(2)]),
        );
        assert_eq!(p.list_or_empty("weights").unwrap().len(), 2);
    }

    #[test]
    fn lookups_mark_parameters_read() {
        let p = Params::new()
            .with("depth", 4i64)
            .with("dpeth", 2i64)
            .with("rate", 0.5);
        assert_eq!(p.unread().collect::<Vec<_>>(), ["depth", "dpeth", "rate"]);
        assert_eq!(p.usize_or("depth", 8).unwrap(), 4);
        assert!(p.contains("rate"));
        assert!(!p.contains("absent"));
        assert_eq!(p.unread().collect::<Vec<_>>(), ["dpeth"]);
        // A clone keeps the marks; equality ignores them.
        assert_eq!(p.clone().unread().count(), 1);
        assert_eq!(
            p,
            Params::new()
                .with("rate", 0.5)
                .with("dpeth", 2i64)
                .with("depth", 4i64)
        );
        // Replacing a value clears its mark.
        let mut p = p;
        p.set("depth", 5i64);
        assert_eq!(p.unread().collect::<Vec<_>>(), ["depth", "dpeth"]);
        assert_eq!(
            format!("{p:?}"),
            "Params { values: {\"depth\": Int(5), \"dpeth\": Int(2), \"rate\": Float(0.5)} }"
        );
    }

    #[test]
    fn display_roundtrip_shapes() {
        let v = ParamValue::List(vec![ParamValue::Int(1), ParamValue::Str("a".into())]);
        assert_eq!(v.to_string(), "[1, \"a\"]");
    }
}
