//! Shared helpers for the experiment report and Criterion benches.

#![warn(missing_docs)]

pub mod ensemble;
pub mod handler;
pub mod kernel;

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A byte buffer shared between a sink that owns its writer and the code
/// that reads the output back (tests capturing JSONL or VCD in memory).
#[derive(Clone, Default)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Everything written so far, as UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8(self.0.lock().expect("buffer lock").clone()).expect("UTF-8 output")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Time a closure, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Render a markdown table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str("| ");
    s.push_str(&headers.join(" | "));
    s.push_str(" |\n|");
    for _ in headers {
        s.push_str("---|");
    }
    s.push('\n');
    for row in rows {
        s.push_str("| ");
        s.push_str(&row.join(" | "));
        s.push_str(" |\n");
    }
    s
}

/// Generate an LSS chain specification with `n` register stages, for the
/// construction-cost experiment.
pub fn chain_spec(n: usize) -> String {
    format!(
        r#"
        module stage {{
            port in rx;
            port out tx;
            instance r : register;
            connect self.rx -> r.in;
            connect r.out -> self.tx;
        }}
        module main {{
            param n = {n};
            instance gen : seq_source;
            instance st[n] : stage;
            instance dst : sink;
            connect gen.out -> st[0].rx;
            for i in 0..n - 1 {{ connect st[i].tx -> st[i + 1].rx; }}
            connect st[n - 1].tx -> dst.in;
        }}
        "#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let t = table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn chain_spec_elaborates() {
        let reg = liberty_systems::full_registry();
        let spec = liberty_lss::parse(&chain_spec(5)).unwrap();
        let (net, _) =
            liberty_lss::elaborate(&spec, &reg, "main", &liberty_core::prelude::Params::new())
                .unwrap();
        assert_eq!(net.len(), 7);
    }
}
