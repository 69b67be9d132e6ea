//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions: name, start, end, parent span and the id of
//! the job the span belongs to. Nothing is recorded when tracing is off,
//! and the spans are written out once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` for job `job`.
    pub fn span<R>(&self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start_us = self.t0.elapsed().as_secs_f64() * 1e6;
        let out = f();
        let end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        OPEN.with(|s| s.borrow_mut().pop());
        self.spans.lock().unwrap().push(Span { id, parent, job, name, start_us, end_us });
        out
    }

    /// Records an already-measured interval (e.g. a round trip measured by
    /// the load generator) as a top-level span.
    pub fn record(&self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let span = Span { id, parent: None, job, name, start_us: at(start), end_us: at(end) };
        self.spans.lock().unwrap().push(span);
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.lock().unwrap().iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// How much of the window `from..to` spans without a parent cover,
    /// over the union of their intervals (overlapping spans from two
    /// threads count once), in ms.
    pub fn top_level_covered_ms(&self, from: Instant, to: Instant) -> f64 {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let (lo, hi) = (at(from), at(to));
        let mut iv: Vec<(f64, f64)> = self
            .spans
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.parent.is_none() && s.end_us > lo && s.start_us < hi)
            .map(|s| (s.start_us.max(lo), s.end_us.min(hi)))
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut covered, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
        for (s, e) in iv {
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        covered / 1e3
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().unwrap().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.job, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }

    /// Span count per name, for the run's summary lines.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for s in self.spans.lock().unwrap().iter() {
            *m.entry(s.name).or_insert(0) += 1;
        }
        m
    }
}
