//! Spans recorded by the harness around its own calls into each layer,
//! kept in memory and written out once at exit.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent == 0` marks a root (a driver op, or
/// background work no op caused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The driver thread's span log. Times are ns since `epoch`, which the
/// counting medium shares so its background spans sit on the same axis.
pub struct Tracer {
    pub epoch: Instant,
    pub spans: Vec<Span>,
    next_id: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// What one [`Tracer::now`] costs, in ns: a span around a call is this
    /// much longer than the call.
    pub fn read_cost_ns(&self) -> f64 {
        const READS: u32 = 10_000;
        let start = self.now();
        for _ in 0..READS {
            std::hint::black_box(self.now());
        }
        (self.now() - start) as f64 / READS as f64
    }

    /// Record a span under `parent` (0 for a root) and hand back its id,
    /// for its children to name.
    #[inline]
    pub fn span(
        &mut self,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        round: u32,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            round,
        });
        id
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

impl LayerTime {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Total and self time per span name. A child takes from its parent the
/// part of the parent's interval it overlaps; the harness's children of
/// one parent never overlap each other, so the overlaps simply add.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut covered: HashMap<u32, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(p) = by_id.get(&s.parent) {
            let overlap = s
                .end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns));
            *covered.entry(p.id).or_default() += overlap;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s
            .duration_ns()
            .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Write `{"workload":…, "seed":…, "spans":[…]}` to `path`.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"round\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.round
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            round: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(1, 0, "driver.op", 0, 100),
            span(2, 1, "store.put", 10, 70),
            span(3, 0, "driver.op", 200, 260),
            span(4, 3, "client.recv", 205, 225),
            span(5, 3, "client.send", 230, 250),
            span(6, 0, "medium.write_at", 40, 90),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["driver.op"],
            LayerTime {
                count: 2,
                total_ns: 160,
                self_ns: 40 + 20
            }
        );
        assert_eq!(t["store.put"].self_ns, 60);
        assert_eq!(t["medium.write_at"].self_ns, 50);
        assert_eq!(t["client.send"].mean_ns(), 20.0);
    }

    #[test]
    fn a_child_outliving_its_parent_only_takes_the_overlap() {
        let spans = [
            span(1, 0, "driver.op", 0, 50),
            span(2, 1, "store.get", 40, 90),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["driver.op"].self_ns, 40);
        assert_eq!(t["store.get"].self_ns, 50);
    }

    #[test]
    fn tracer_ids_are_unique_and_nonzero() {
        let mut t = Tracer::new();
        let a = t.span(0, "driver.op", 0, 9, 1);
        let b = t.span(a, "store.get", 2, 7, 1);
        assert!(a != 0 && b != 0 && a != b);
        assert_eq!(t.spans[1].parent, a);
        assert!(t.now() <= t.now());
    }
}
