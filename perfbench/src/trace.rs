//! Outside-in tracing: spans the benchmark records around its own calls
//! into each layer (no tracing runs inside the program).
//!
//! A span has a name, a start, an end and a parent; spans of one task or
//! request share an id. Spans are kept in memory and written out as TSV
//! when the run ends. A layer's self time is its span's duration minus
//! the time its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sickle_core::{abstract_evaluate_rc, Analyzer, AnalyzerChoice, PQuery, TaskContext};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Task or request id shared by all spans of one unit of work.
    pub id: u32,
    /// 1-based index of the parent span; 0 for a root.
    pub parent: u32,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store, shared by the benchmark's threads.
#[derive(Clone)]
pub struct Tracer(Arc<Inner>);

struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty store whose epoch is now.
    pub fn new() -> Tracer {
        Tracer(Arc::new(Inner {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }))
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.0.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.0
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread")
    }

    /// Records a finished span and returns its 1-based index.
    pub fn push(&self, span: Span) -> u32 {
        let mut spans = self.lock();
        spans.push(span);
        spans.len() as u32
    }

    /// Opens a span now (its end is set by [`Tracer::close`]) and
    /// returns its 1-based index, so children can name it as parent.
    pub fn open(&self, id: u32, parent: u32, name: &'static str) -> u32 {
        let now = self.now();
        self.push(Span {
            id,
            parent,
            name,
            start: now,
            end: now,
        })
    }

    /// Ends the span `index` now.
    pub fn close(&self, index: u32) {
        let now = self.now();
        self.lock()[index as usize - 1].end = now;
    }

    /// Records a batch of finished spans.
    pub fn extend(&self, spans: Vec<Span>) {
        self.lock().extend(spans);
    }

    /// Per span name: (count, total seconds, self seconds).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns() as f64 * 1e-9;
            e.2 += s.ns().saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as a TSV line `id parent name start_ns end_ns`;
    /// a span's index is its 1-based line number after the header.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in self.lock().iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Totals of the traced analyzers, added to when each one is dropped.
#[derive(Debug, Default, Clone, Copy)]
pub struct AnalyzeTotals {
    /// `is_feasible` calls.
    pub calls: u64,
    /// Calls that returned `false` (pruned).
    pub pruned: u64,
    /// Largest `AnalysisCache::approx_bytes` any analyzer saw.
    pub def3_bytes: u64,
}

/// An analyzer that runs exactly `ProvenanceAnalyzer`'s two public calls
/// (`abstract_evaluate_rc`, then `AnalysisCache::consistent`) and times
/// each as a span under `parent`.
struct TracedAnalyzer {
    tracer: Tracer,
    id: u32,
    parent: u32,
    totals: Arc<Mutex<AnalyzeTotals>>,
    spans: RefCell<Vec<Span>>,
    calls: Cell<u64>,
    pruned: Cell<u64>,
    def3_bytes: Cell<u64>,
}

impl Analyzer for TracedAnalyzer {
    fn name(&self) -> &'static str {
        "provenance"
    }

    fn is_feasible(&self, pq: &PQuery, ctx: &TaskContext) -> bool {
        let t0 = self.tracer.now();
        let abs = abstract_evaluate_rc(pq, ctx.inputs(), &ctx.universe, &ctx.eval_cache);
        let t1 = self.tracer.now();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            id: self.id,
            parent: self.parent,
            name: "analyze.abstract_eval",
            start: t0,
            end: t1,
        });
        let feasible = match abs {
            Ok(abs) => {
                let v = ctx.analysis.consistent(
                    &ctx.demo_token,
                    &ctx.demo_ref_ids,
                    &abs.sets,
                    ctx.pool(),
                );
                spans.push(Span {
                    id: self.id,
                    parent: self.parent,
                    name: "analyze.def3",
                    start: t1,
                    end: self.tracer.now(),
                });
                self.def3_bytes.set(ctx.analysis.approx_bytes() as u64);
                v
            }
            Err(_) => false,
        };
        self.calls.set(self.calls.get() + 1);
        if !feasible {
            self.pruned.set(self.pruned.get() + 1);
        }
        feasible
    }
}

impl Drop for TracedAnalyzer {
    fn drop(&mut self) {
        self.tracer.extend(std::mem::take(self.spans.get_mut()));
        if let Ok(mut t) = self.totals.lock() {
            t.calls += self.calls.get();
            t.pruned += self.pruned.get();
            t.def3_bytes = t.def3_bytes.max(self.def3_bytes.get());
        }
    }
}

/// The traced analyzer as a request's [`AnalyzerChoice`]: its spans get
/// id `id` and parent `parent`.
pub fn traced_analyzer(
    tracer: &Tracer,
    totals: &Arc<Mutex<AnalyzeTotals>>,
    id: u32,
    parent: u32,
) -> AnalyzerChoice {
    let tracer = tracer.clone();
    let totals = Arc::clone(totals);
    AnalyzerChoice::custom("provenance", move || {
        Box::new(TracedAnalyzer {
            tracer: tracer.clone(),
            id,
            parent,
            totals: Arc::clone(&totals),
            spans: RefCell::new(Vec::new()),
            calls: Cell::new(0),
            pruned: Cell::new(0),
            def3_bytes: Cell::new(0),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let root = t.push(Span {
            id: 1,
            parent: 0,
            name: "solve",
            start: 0,
            end: 1_000,
        });
        t.extend(vec![
            Span {
                id: 1,
                parent: root,
                name: "analyze.def3",
                start: 100,
                end: 300,
            },
            Span {
                id: 1,
                parent: root,
                name: "analyze.def3",
                start: 400,
                end: 500,
            },
        ]);
        let s = t.summary();
        let (n, total, own) = s["solve"];
        assert_eq!(n, 1);
        assert!((total - 1e-6).abs() < 1e-15);
        assert!((own - 0.7e-6).abs() < 1e-15);
        let (n, total, own) = s["analyze.def3"];
        assert_eq!(n, 2);
        assert!((total - 0.3e-6).abs() < 1e-15);
        assert_eq!(total, own);
    }
}
