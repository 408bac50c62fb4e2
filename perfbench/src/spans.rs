//! Host-time spans recorded by the benchmark around the public calls it
//! makes into each layer.
//!
//! A span holds a name, a start, an end and its parent. Names are
//! `<layer>.<call>`; the layer is the text before the first dot (`net`,
//! `sim`, `gnutella`, `kademlia`, `bittorrent`, and `bench` for the
//! driver's own phases). Spans stay in memory and are written once, at
//! exit. They never enter `uap_sim::Tracer` or a `RunReport`, which must
//! stay byte-identical across runs.
//!
//! Every clock read goes through `uap_sim::WallTimer`, the workspace's one
//! wall-clock boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use uap_sim::WallTimer;

/// One closed span; times are host seconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder. When disabled it still reads the clock for the
/// driver's phase stamps ([`Spans::now`]) but records nothing.
pub struct Spans {
    clock: WallTimer,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            clock: WallTimer::start(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Host seconds since the recorder started.
    pub fn now(&self) -> f64 {
        self.clock.elapsed_secs()
    }

    /// Opens span `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = end;
        }
    }

    /// Runs `f` inside span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// A point [`Spans::rewind`] can return to.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Drops the spans recorded since `mark` and forgets any still open —
    /// what a failed repetition leaves behind.
    pub fn rewind(&mut self, mark: usize) {
        self.spans.truncate(mark);
        self.open.clear();
    }

    /// The closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total duration (seconds) of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children that overlap each other are
/// counted once; a child poking out of its parent is clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.secs() - covered).max(0.0)
        })
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let t = self_times(&[span("net.gen", 1.0, 3.5, None)]);
        assert!(close(t[0], 2.5));
    }

    #[test]
    fn children_are_subtracted_from_the_parent() {
        let spans = [
            span("bench.setup", 0.0, 10.0, None),
            span("net.gen", 1.0, 3.0, Some(0)),
            span("net.underlay_build", 4.0, 8.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 4.0));
        assert!(close(t[1], 2.0));
        assert!(close(t[2], 4.0));
    }

    #[test]
    fn only_direct_children_count_for_nested_spans() {
        // rep ⊃ run ⊃ slice: the grandchild is covered by `run` already,
        // so `rep` only loses the `run` interval.
        let spans = [
            span("bench.rep", 0.0, 10.0, None),
            span("bench.run", 2.0, 9.0, Some(0)),
            span("sim.run_until", 3.0, 5.0, Some(1)),
            span("sim.run_until", 5.0, 8.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 3.0));
        assert!(close(t[1], 2.0));
        assert!(close(t[2], 2.0));
        assert!(close(t[3], 3.0));
        let by_layer = layer_self_times(&spans);
        assert!(close(by_layer["bench"], 5.0));
        assert!(close(by_layer["sim"], 5.0));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("bench.run", 0.0, 10.0, None),
            span("net.a", 1.0, 4.0, Some(0)),
            span("net.b", 3.0, 6.0, Some(0)),
            span("net.c", 9.0, 12.0, Some(0)),
        ];
        let t = self_times(&spans);
        // Covered: [1, 6) and [9, 10) = 6 s of 10.
        assert!(close(t[0], 4.0));
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let mut s = Spans::new(true);
        s.enter("bench.rep");
        let v = s.time("net.gen", || 7);
        s.exit();
        assert_eq!(v, 7);
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        assert_eq!(spans[1].layer(), "net");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.enter("bench.rep");
        assert_eq!(s.time("net.gen", || 3), 3);
        s.exit();
        assert!(s.spans().is_empty());
    }
}
