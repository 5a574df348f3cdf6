//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public functions (never inside the program). They stay in
//! memory and are written out once the run ends; self times are
//! computed from the parent links.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Batch id of a span that belongs to no single batch.
pub const NO_BATCH: u64 = u64::MAX;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Layer-qualified call name, e.g. `core.apply`.
    pub name: &'static str,
    /// Shared by every span of one batch ([`NO_BATCH`] otherwise).
    pub batch: u64,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span recorder. Each thread owns one; [`Tracer::merge`] joins them.
/// A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// High bits of every id this recorder hands out, so recorders on
    /// different threads never collide.
    id_base: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing against `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            id_base: 0,
            next: 1,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run (`lane` ≥ 1).
    pub fn lane(&self, lane: u64) -> Tracer {
        Tracer {
            id_base: lane << 40,
            ..Tracer::new(self.enabled, self.epoch)
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id for a span that will be closed by [`Tracer::record`]
    /// (so children can name it as their parent before it ends). Returns
    /// 0 when disabled.
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.id_base | self.next;
        self.next += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        batch: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            batch,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.open();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(id, parent, name, batch, start, end);
        out
    }

    /// Absorbs another recorder's spans.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration in ms of the spans named `name` (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (n, total) = self
            .named(name)
            .fold((0usize, 0.0), |(n, t), s| (n + 1, t + s.ms()));
        crate::stats::ratio(total, n as f64)
    }

    /// Total duration in ms of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(Span::ms).sum()
    }

    /// Per name: (count, total ms, self ms), where a span's self time is
    /// its duration minus that of its direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ms.entry(s.parent).or_default() += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0);
        }
        out
    }

    /// Writes every span, then the per-name summary, as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let batch = if s.batch == NO_BATCH {
                "null".to_string()
            } else {
                s.batch.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"batch\": {batch}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, (count, total, own)) in self.summary() {
            let _ = writeln!(
                out,
                "{{\"summary\": \"{name}\", \"count\": {count}, \"total_ms\": {total}, \
                 \"self_ms\": {own}}}"
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}

/// Measured cost in ms of recording one span (two clock reads and a
/// push), from timing `n` empty spans. The traced run multiplies it by
/// its span count to report its own overhead.
pub fn span_cost_ms(n: usize) -> f64 {
    let mut t = Tracer::new(true, Instant::now());
    let start = Instant::now();
    for i in 0..n {
        t.time("calibrate", 0, i as u64, || std::hint::black_box(i));
    }
    start.elapsed().as_secs_f64() * 1e3 / n.max(1) as f64
}
