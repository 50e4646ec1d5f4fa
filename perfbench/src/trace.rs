//! In-memory spans recorded around the benchmark's calls into the
//! library, and the per-session layer times derived from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `parent` is 0 for a session's root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub session: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// All spans of a run, kept in memory until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn session(&self, session: u32) -> SessionTrace<'_> {
        SessionTrace {
            tracer: self,
            session,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recording never panics")
    }

    /// The spans of one session.
    pub fn session_spans(&self, session: u32) -> Vec<Span> {
        self.spans()
            .iter()
            .filter(|s| s.session == session)
            .copied()
            .collect()
    }

    /// Write every span, with its self time, one JSON object a line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selves = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"session\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.session, s.id, s.parent, s.name, s.start_ns, s.end_ns, selves[&s.id]
            )?;
        }
        out.flush()
    }
}

/// The spans of one traced session share its id.
#[derive(Debug, Clone, Copy)]
pub struct SessionTrace<'a> {
    tracer: &'a Tracer,
    session: u32,
}

impl SessionTrace<'_> {
    /// Time `f` as span `name` under `parent`; `f` gets the new span's
    /// id so that the calls it makes can nest under it.
    pub fn span<T>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> T) -> T {
        let id = self.tracer.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.tracer.now_ns();
        let out = f(id);
        let end_ns = self.tracer.now_ns();
        self.tracer.spans().push(Span {
            id,
            parent,
            session: self.session,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// `trace.span(..)` when tracing, a plain call otherwise.
pub fn span<T>(
    trace: Option<&SessionTrace<'_>>,
    name: &'static str,
    parent: u32,
    f: impl FnOnce(u32) -> T,
) -> T {
    match trace {
        Some(t) => t.span(name, parent, f),
        None => f(0),
    }
}

/// Self time of every span: its duration minus the part of it that
/// the union of its children's intervals covers (children on the two
/// pool threads overlap, so they are merged, not summed).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per-session layer times (ms) from one session's spans.
pub fn session_layer_times(spans: &[Span], threads: usize) -> BTreeMap<&'static str, f64> {
    let sum = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.ms())
    };
    let explores: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "explore")
        .map(Span::ms)
        .collect();
    let wall = sum("session");
    let busy: f64 = explores.iter().sum();
    let mut out = BTreeMap::new();
    out.insert(
        "session.critical_path_ms",
        explores.iter().copied().fold(0.0, f64::max),
    );
    out.insert(
        "session.pool_busy_frac",
        if wall > 0.0 {
            busy / (threads as f64 * wall)
        } else {
            0.0
        },
    );
    out.insert("frontend.compile_ms", sum("compile"));
    out.insert("sim.profile_ms", sum("profile"));
    out.insert("opt.schedule_ms", sum("schedule"));
    out.insert("chains.analyze_ms", sum("analyze"));
    out.insert("synth.design_ms", sum("design"));
    out.insert("synth.evaluate_ms", sum("evaluate"));
    out.insert("synth.frontier_ms", sum("design_space"));
    out.insert("tier.prefetch_ms", sum("prefetch"));
    out.insert("tier.replay_ms", sum("map_all"));
    out
}

/// Total self time per span name, for the human-readable breakdown.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selves = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += selves[&s.id] as f64 / 1e6;
    }
    out
}
