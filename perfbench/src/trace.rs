//! In-memory span recorder for the traced run. Spans are opened and
//! closed around calls into the program's public functions, kept in a
//! vector, and written out once at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Identifies the job (or phase) the span belongs to.
    pub run: u32,
}

/// A disabled tracer records nothing and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close in order");
        self.spans[id].end_ns = end;
    }

    /// Time `f` under a span of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Self time (duration minus direct children) per span, seconds.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as f64 * 1e-9;
            }
        }
        own
    }

    /// Summed self time per span name, for spans of `run`.
    pub fn self_time_by_name(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if span.run == run {
                *out.entry(span.name).or_insert(0.0) += own;
            }
        }
        out
    }

    /// Write every span as one CSV row.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,run,name,parent,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{id},{},{},{parent},{},{}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
