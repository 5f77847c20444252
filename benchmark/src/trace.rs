//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! replayed batch share an id. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the run ends. A span's self
//! time is its duration minus the part of that interval its children
//! cover (children may overlap each other; the union is subtracted once).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one replayed batch.
    pub batch: u32,
    /// Work items (updates, requests) the span covered.
    pub items: u64,
}

/// In-memory span recorder. With `enabled == false` every call is a
/// no-op, which is how the replay measures the cost of tracing itself.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    batch: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            batch: 0,
        }
    }

    /// Starts the next batch: later spans carry its id.
    pub fn next_batch(&mut self) {
        self.batch += 1;
    }

    /// Runs `f` inside a span named `name` covering `items` work items.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        items: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            batch: self.batch,
            items,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// Like [`Tracer::span`] for stages that learn how many items they
    /// covered only by doing the work: `f` returns the count.
    pub fn counted(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> u64) -> u64 {
        let idx = self.spans.len();
        let n = self.span(name, 0, f);
        if let Some(s) = self.spans.get_mut(idx) {
            s.items = n;
        }
        n
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-stage totals: `name -> (self ns, items)` summed over all spans.
pub fn stage_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += own;
        e.1 += s.items;
    }
    out
}

/// Writes the span file: a header object, then one span per array entry
/// (`id`, `name`, `batch`, `parent`, `start_ns`, `end_ns`, `self_ns`,
/// `items`).
pub fn write_file(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since replay start\", \"spans\": ["
    )?;
    let own = self_times(spans);
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "  {{\"id\": {i}, \"name\": \"{}\", \"batch\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"items\": {}}}{}",
            s.name,
            s.batch,
            s.start_ns,
            s.end_ns,
            s.items,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            batch: 1,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60, grandchild 20..30
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // children 10..50 and 30..70 overlap on 30..50; one pokes out of
        // the parent and is clipped
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 130, Some(0)),
        ];
        // covered = (10..70) + (90..100) = 70
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_records_parents_and_batches_and_can_be_disabled() {
        let mut t = Tracer::new(true);
        t.next_batch();
        t.span("batch", 2, |t| {
            t.span("decode", 2, |_| ());
            t.span("store", 2, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.batch == 1 && x.end_ns >= x.start_ns));
        let totals = stage_totals(s);
        assert_eq!(totals["decode"].1, 2);
        assert_eq!(t.counted("late", |_| 9), 9);
        assert_eq!(t.spans().last().unwrap().items, 9);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("batch", 1, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
