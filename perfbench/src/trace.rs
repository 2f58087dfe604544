//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out when the run ends.
//!
//! A span named `<layer>.<what>` (it contains a dot) belongs to a layer;
//! a span without a dot (`setup`, `pass`, `replay`, `conn`) only groups
//! the layer spans under it. A layer's figure is its self time: its span
//! minus its child spans. The time inside grouping spans that no layer
//! span covers is the benchmark's own work.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::{num, object, string};

struct Span {
    name: &'static str,
    /// Seconds since the tracer was made.
    start: f64,
    end: f64,
    parent: Option<usize>,
    request: u64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; open spans are unaffected.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end = self.t0.elapsed().as_secs_f64();
            if let Some(pos) = self.open.iter().rposition(|&o| o == idx) {
                self.open.truncate(pos);
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Records a span measured elsewhere (e.g. on a client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    fn duration(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        (s.end - s.start).max(0.0)
    }

    /// Sum of the spans' durations, by name.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += self.duration(i);
        }
        out
    }

    /// Sum of self times (span minus direct children), by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p] += self.duration(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += self.duration(i) - child[i];
        }
        out
    }

    /// Share of the top-level grouping spans' time that no layer span
    /// covers.
    pub fn uncovered_share(&self) -> f64 {
        let is_layer = |i: usize| self.spans[i].name.contains('.');
        let mut total = 0.0;
        let mut covered = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && !is_layer(i) {
                total += self.duration(i);
            }
            // A layer span counts once: when no ancestor is a layer span.
            if is_layer(i) {
                let mut p = s.parent;
                let mut outermost = true;
                while let Some(q) = p {
                    if is_layer(q) {
                        outermost = false;
                        break;
                    }
                    p = self.spans[q].parent;
                }
                if outermost && s.parent.is_some() {
                    covered += self.duration(i);
                }
            }
        }
        if total > 0.0 {
            ((total - covered) / total).max(0.0)
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = object([
                ("id", i.to_string()),
                ("name", string(s.name)),
                ("start_s", num(s.start)),
                ("end_s", num(s.end)),
                (
                    "parent",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                ),
                ("request", s.request.to_string()),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_outer_layers() {
        let mut t = Tracer::new(true);
        let pass = t.begin("pass");
        let outer = t.begin("flow.simulate");
        t.span("sim.scalar", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(outer);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(pass);
        let selfs = t.self_times();
        let totals = t.totals();
        assert!(selfs["flow.simulate"] < totals["flow.simulate"]);
        assert!(
            (selfs["flow.simulate"] + selfs["sim.scalar"] - totals["flow.simulate"]).abs() < 1e-9
        );
        let share = t.uncovered_share();
        assert!(share > 0.0 && share < 0.5, "{share}");
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x.y", || 7), 7);
        assert!(off.totals().is_empty());
    }
}
