//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it, and the id of the operation it
//! belongs to. Spans are kept in memory and written out once, when the run
//! ends. A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span; `NONE` when the tracer is disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Self time of every span, aggregated by name.
pub struct SelfTimes {
    /// `(name, count, total self seconds, total seconds)`, by name.
    pub by_name: Vec<(&'static str, usize, f64, f64)>,
    /// The smallest self time of any span (negative when a child spills
    /// outside its parent or two children overlap).
    pub min_self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now. `parent` is `None` for an operation's root.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let parent = parent.filter(|p| *p != SpanId::NONE).map(|p| p.0);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id.0].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        r
    }

    fn durations_and_self(&self) -> (Vec<i64>, Vec<i64>) {
        let dur: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        let mut own = dur.clone();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        (dur, own)
    }

    /// Self time of each span: its duration minus its children's.
    pub fn self_times(&self) -> SelfTimes {
        let (dur, own) = self.durations_and_self();
        let mut agg: BTreeMap<&'static str, (usize, i64, i64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = agg.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += own[i];
            e.2 += dur[i];
        }
        SelfTimes {
            by_name: agg
                .into_iter()
                .map(|(name, (n, own, total))| (name, n, own as f64 * 1e-9, total as f64 * 1e-9))
                .collect(),
            min_self_s: own.iter().copied().min().unwrap_or(0) as f64 * 1e-9,
        }
    }

    /// For each operation, the sum of the self times of all its spans — by
    /// construction the root's duration when the spans nest — keyed by op id.
    pub fn op_self_sums(&self) -> BTreeMap<u64, f64> {
        let (_, own) = self.durations_and_self();
        let mut sums = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *sums.entry(s.op).or_insert(0.0) += own[i] as f64 * 1e-9;
        }
        sums
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let (_, own) = self.durations_and_self();
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, own[i]
            );
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
