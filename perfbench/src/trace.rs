//! Spans around the benchmark's calls into the workspace's layers.
//!
//! A span records the layer call's name, its start and end, and the span
//! that caused it. Spans stay in memory while the run measures and are
//! written out once it ends. Tracing off costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span handle; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `core.solve_parallel`.
    pub name: &'static str,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of the spans of each operation (a `bench.op` span and its
    /// children), in nanoseconds, grouped by layer (the name up to its
    /// first dot): a span's duration minus the part its child spans cover.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            if s.parent.is_none() && s.name != "bench.op" {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            by_layer
                .entry(layer)
                .or_default()
                .push((s.end_ns - s.start_ns).saturating_sub(c) as f64);
        }
        by_layer
    }

    /// Write every span as a tab-separated line: id, parent (or -1), name,
    /// start and end in nanoseconds since the run began.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "bench.op",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "core.solve",
                parent: Some(0),
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                name: "problems.compile",
                parent: Some(0),
                start_ns: 70,
                end_ns: 90,
            },
        ];
        t.spans.push(Span {
            name: "problems.compile",
            parent: None,
            start_ns: 100,
            end_ns: 150,
        });
        let s = t.self_ns_by_layer();
        assert_eq!(s["bench"], vec![20.0]);
        assert_eq!(s["core"], vec![60.0]);
        assert_eq!(s["problems"], vec![20.0]);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("bench.op", None);
        t.close(id);
        assert_eq!(id, None);
        assert!(t.self_ns_by_layer().is_empty());
    }
}
