//! In-memory spans recorded around calls into each layer's public
//! functions. Spans stay in memory while a workload runs and are written
//! out once at the end.

use std::time::{Duration, Instant};

use crate::json::Json;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Chunk index or request id the span belongs to.
    pub key: u64,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// Time covered. A phase span aggregated over many calls inside one
    /// chunk carries the sum of those calls, starting at the first.
    pub dur: Duration,
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span at the current instant; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, key: u64) -> usize {
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent,
            key,
            start,
            dur: Duration::ZERO,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` at the current instant.
    pub fn end(&mut self, id: usize) {
        let now = self.epoch.elapsed();
        let span = &mut self.spans[id];
        span.dur = now.saturating_sub(span.start);
    }

    /// Records a finished span that started at `start` and covered `dur`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        key: u64,
        start: Instant,
        dur: Duration,
    ) {
        let start = start.saturating_duration_since(self.epoch);
        self.spans.push(Span {
            name,
            parent,
            key,
            start,
            dur,
        });
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        key: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, parent, key, t0, t0.elapsed());
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum()
    }

    /// Summed self time of every span named `name`: each span's duration
    /// minus the durations of its direct children.
    #[must_use]
    pub fn self_time(&self, name: &str) -> Duration {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur;
            }
        }
        self.spans
            .iter()
            .zip(&child_time)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur.saturating_sub(c))
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates the file-system failure.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                ("name".into(), Json::Str(s.name.into())),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("key".into(), Json::Num(s.key as f64)),
                ("start_ns".into(), Json::Num(s.start.as_nanos() as f64)),
                (
                    "end_ns".into(),
                    Json::Num((s.start + s.dur).as_nanos() as f64),
                ),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Runs `f`, as a span named `name` when a tracer is given: one code path
/// serves the untraced baseline and the traced pass.
pub fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    key: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, parent, key, f),
        None => f(),
    }
}

/// Per-phase time accumulated over the calls inside one chunk, turned into
/// one child span per phase when the chunk closes.
#[derive(Debug)]
pub struct PhaseClock<const N: usize> {
    names: [&'static str; N],
    first: [Option<Instant>; N],
    busy: [Duration; N],
}

impl<const N: usize> PhaseClock<N> {
    /// A clock over the named phases.
    #[must_use]
    pub fn new(names: [&'static str; N]) -> Self {
        PhaseClock {
            names,
            first: [None; N],
            busy: [Duration::ZERO; N],
        }
    }

    /// Times `f` as one call of phase `phase`.
    #[inline]
    pub fn time<T>(&mut self, phase: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.busy[phase] += t0.elapsed();
        self.first[phase].get_or_insert(t0);
        out
    }

    /// Emits one span per phase that ran under `parent` and resets.
    pub fn flush(&mut self, tracer: &mut Tracer, parent: usize, key: u64) {
        for i in 0..N {
            if let Some(start) = self.first[i].take() {
                tracer.record(self.names[i], Some(parent), key, start, self.busy[i]);
            }
            self.busy[i] = Duration::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::default();
        let root = t.begin("chunk", None, 7);
        let t0 = Instant::now();
        t.record("draw", Some(root), 7, t0, Duration::from_micros(30));
        t.record("eval", Some(root), 7, t0, Duration::from_micros(50));
        t.end(root);
        t.spans[root].dur = Duration::from_micros(100);
        assert_eq!(t.self_time("chunk"), Duration::from_micros(20));
        assert_eq!(t.self_time("draw"), Duration::from_micros(30));
        assert_eq!(t.total("eval"), Duration::from_micros(50));
    }

    #[test]
    fn phase_clock_emits_one_child_per_phase() {
        let mut t = Tracer::default();
        let mut clock = PhaseClock::new(["a", "b"]);
        let chunk = t.begin("chunk", None, 0);
        for _ in 0..3 {
            clock.time(0, || std::hint::black_box(1 + 1));
        }
        clock.flush(&mut t, chunk, 0);
        t.end(chunk);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["chunk", "a"],
            "phase b never ran, so it has no span"
        );
        assert_eq!(t.spans()[1].parent, Some(chunk));
    }
}
