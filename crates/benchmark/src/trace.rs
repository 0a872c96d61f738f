//! The traced pass's span recorder. Spans are recorded from the
//! benchmark's own threads around its calls into a layer, kept in
//! memory during the window, and written out afterwards as a Chrome
//! trace-event file plus the per-name duration samples the per-layer
//! sheet is computed from.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Metric stem: `client.read`, `core.submit`, `coord.twopc.commit`, …
    pub name: &'static str,
    /// Start, ns from the tracer's epoch.
    pub start_ns: u64,
    /// End, ns from the tracer's epoch.
    pub end_ns: u64,
    /// 1-based index of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// The unit (transfer / activity / global txn) this span belongs to.
    pub txn: u64,
}

/// Full [`Span`] records kept per thread for the trace file; beyond
/// this only the durations are kept (they cost 8 bytes, a span 40).
const MAX_SPANS_PER_THREAD: usize = 200_000;

/// The root span being recorded: its reserved slot and what its
/// children have covered so far.
struct OpenRoot {
    id: u32,
    txn: u64,
    name: &'static str,
    start_ns: u64,
    covered_ns: u64,
}

/// A per-thread recorder. Switched off it records nothing, so the same
/// driver code runs the untraced pass.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    /// Durations by span name: every sample, not only those whose full
    /// record fitted under the cap.
    durs: Vec<(&'static str, Vec<u64>)>,
    /// Per root span: `(duration, time covered by its children)`.
    roots: Vec<(u64, u64)>,
    open_root: Option<OpenRoot>,
    dropped: u64,
}

impl Tracer {
    /// A recorder for driver thread `thread`; every thread of a run
    /// shares `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on: false,
            epoch,
            thread,
            spans: Vec::new(),
            durs: Vec::new(),
            roots: Vec::new(),
            open_root: None,
            dropped: 0,
        }
    }

    /// Start recording (the traced window begins).
    pub fn switch_on(&mut self) {
        self.on = true;
    }

    /// Is the tracer recording?
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn sample(&mut self, name: &'static str, dur: u64) {
        match self.durs.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(dur),
            None => self.durs.push((name, vec![dur])),
        }
    }

    /// Reserve a full span record; 0 when the per-thread cap is reached.
    fn reserve(&mut self, span: Span) -> u32 {
        if self.spans.len() < MAX_SPANS_PER_THREAD {
            self.spans.push(span);
            self.spans.len() as u32
        } else {
            self.dropped += 1;
            0
        }
    }

    /// Open the root span of unit `txn`: it is the parent of every
    /// [`child`](Self::child) recorded until [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, txn: u64, start: Instant) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(start);
        let id = self.reserve(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: 0,
            txn,
        });
        self.open_root = Some(OpenRoot {
            id,
            txn,
            name,
            start_ns,
            covered_ns: 0,
        });
    }

    /// Record a span caused by the open root.
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let dur = end_ns.saturating_sub(start_ns);
        let (parent, txn) = match &mut self.open_root {
            Some(root) => {
                root.covered_ns += dur;
                (root.id, root.txn)
            }
            None => (0, 0),
        };
        self.sample(name, dur);
        self.reserve(Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn,
        });
    }

    /// Record a span of unit `txn` that stands alone: no parent and no
    /// children (it takes no part in the self-time account).
    pub fn leaf(&mut self, name: &'static str, txn: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.sample(name, end_ns.saturating_sub(start_ns));
        self.reserve(Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
            txn,
        });
    }

    /// Close the open root at `end`.
    pub fn close(&mut self, end: Instant) {
        let Some(root) = self.open_root.take() else {
            return;
        };
        let end_ns = self.ns(end);
        let dur = end_ns.saturating_sub(root.start_ns);
        if let Some(span) = (root.id as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            span.end_ns = end_ns;
        }
        self.sample(root.name, dur);
        self.roots.push((dur, root.covered_ns));
    }
}

/// Everything the threads of one traced pass recorded, merged.
#[derive(Default)]
pub struct TraceData {
    threads: Vec<(u32, Vec<Span>)>,
    durs: Vec<(&'static str, Vec<u64>)>,
    roots: Vec<(u64, u64)>,
    dropped: u64,
}

impl TraceData {
    /// Fold one thread's recorder in.
    pub fn absorb(&mut self, t: Tracer) {
        self.threads.push((t.thread, t.spans));
        for (name, v) in t.durs {
            match self.durs.iter_mut().find(|(n, _)| *n == name) {
                Some((_, all)) => all.extend(v),
                None => self.durs.push((name, v)),
            }
        }
        self.roots.extend(t.roots);
        self.dropped += t.dropped;
    }

    /// Every duration recorded under `name` (ns), unsorted.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.durs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Vec::new, |(_, v)| v.clone())
    }

    /// Median share of a root span's time **not** covered by its
    /// child spans: the root's self time, i.e. what the benchmark could
    /// not attribute to a call into a layer. 0 without roots.
    pub fn unattributed_frac(&self) -> f64 {
        let mut fracs: Vec<f64> = self
            .roots
            .iter()
            .filter(|(dur, _)| *dur > 0)
            .map(|(dur, covered)| 1.0 - (*covered).min(*dur) as f64 / *dur as f64)
            .collect();
        fracs.sort_by(f64::total_cmp);
        fracs.get(fracs.len() / 2).copied().unwrap_or(0.0)
    }

    /// Write the Chrome trace-event file (`chrome://tracing`,
    /// Perfetto): one complete (`"ph":"X"`) event per span, one lane
    /// per driver thread, plus the counter deltas of the window.
    pub fn write_chrome(
        &self,
        path: &Path,
        workload: &str,
        counters: &[(String, f64)],
    ) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"displayTimeUnit\": \"ns\", \"otherData\": ")?;
        let other = Json::obj([
            ("workload", Json::from(workload)),
            ("spans_dropped", Json::from(self.dropped)),
            (
                "counter_deltas",
                Json::obj(counters.iter().map(|(k, v)| (k.as_str(), Json::from(*v)))),
            ),
        ]);
        write!(w, "{other}, \"traceEvents\": [")?;
        let mut first = true;
        for (thread, spans) in &self.threads {
            for (i, s) in spans.iter().enumerate() {
                let ev = Json::obj([
                    ("name", Json::from(s.name)),
                    ("ph", Json::from("X")),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(u64::from(*thread))),
                    ("ts", Json::from(s.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::from(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::from(i as u64 + 1)),
                            ("parent", Json::from(u64::from(s.parent))),
                            ("txn", Json::from(s.txn)),
                        ]),
                    ),
                ]);
                write!(w, "{}\n{ev}", if first { "" } else { "," })?;
                first = false;
            }
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_root_minus_its_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch, 0);
        t.open("unit", 1, at(0)); // off: ignored
        t.close(at(10));
        t.switch_on();
        t.open("unit", 7, at(0));
        t.child("a", at(10), at(40));
        t.child("b", at(50), at(90));
        t.close(at(100));
        t.open("unit", 8, at(200));
        t.child("a", at(210), at(260));
        t.close(at(300));
        let mut data = TraceData::default();
        data.absorb(t);
        let mut unit = data.durations("unit");
        unit.sort_unstable();
        assert_eq!(unit, vec![100_000, 100_000]);
        assert_eq!(data.durations("a").len(), 2);
        // root 7: 30 of 100 unattributed; root 8: 50 of 100
        assert!((data.unattributed_frac() - 0.5).abs() < 1e-9);
        assert_eq!(data.dropped, 0);
        assert_eq!(data.threads[0].1[1].parent, 1, "child points at its root");
        assert_eq!(data.threads[0].1[3].txn, 8);
    }

    #[test]
    fn chrome_file_is_valid_json() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 3);
        t.switch_on();
        t.open("unit", 1, epoch);
        t.close(epoch + Duration::from_micros(5));
        let mut data = TraceData::default();
        data.absorb(t);
        let dir = crate::env::RunDir::create("unit-test-trace").unwrap();
        let path = dir.path().join("t.trace.json");
        data.write_chrome(&path, "w", &[("log_appends".into(), 4.0)])
            .unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().items().len(), 1);
        dir.finish(true);
    }
}
