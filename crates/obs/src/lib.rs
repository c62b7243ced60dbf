//! Hermetic, zero-dependency observability for the xlac workspace.
//!
//! The paper's multi-accelerator methodology (§6) is built on *runtime*
//! knowledge — quality monitors, error budgets, adaptive reconfiguration
//! — and the workspace's own hot paths (the bit-sliced sweep runner, the
//! design-space explorers, the symbolic proof engine) make decisions
//! worth seeing. This crate provides the instrumentation substrate:
//!
//! * **counters** — monotone `u64` sums ([`counter_add`]); chunk-level
//!   contributions are commutative, so totals are bitwise-identical for
//!   any thread count;
//! * **gauges** — last-written `f64` samples ([`gauge_set`]);
//! * **histograms** — log2-bucketed `u64` distributions ([`observe`]);
//! * **span timers** — RAII scopes ([`span`]) that maintain a
//!   thread-local span stack; nested spans record under dotted paths
//!   (`"sim.sweep.chunk"`), and every span feeds a log2 histogram of
//!   nanosecond durations;
//! * **a JSON-lines exporter** ([`export_json_lines`]) whose span lines
//!   use the exact field set of the `BENCH_*.json` reports emitted by
//!   `xlac-bench`, so one toolchain reads both;
//! * **the workspace's JSON reader** ([`json`]) and **the report gate**
//!   ([`gate`]), which checks every report against the rules in
//!   `scripts/gates.jsonl`. Both are plain code, built with or without
//!   the `obs` feature.
//!
//! # Naming scheme
//!
//! Metric names are dotted paths whose first segment is the owning phase:
//! `sim.*` (sweep runner), `explore.*` (design-space loops), `accel.*`
//! (manager / monitor / CEC) and `analysis.*` (symbolic engine). The
//! `xlac-obs-report` binary groups its profile table by that first
//! segment.
//!
//! # Feature gating
//!
//! The registry is behind the `obs` cargo feature, **off by default**. In
//! a default build each function here is an `#[inline(always)]` empty
//! body, [`Span`] is a zero-sized type, and the `obs_count!` /
//! `obs_gauge!` / `obs_observe!` / `obs_span!` macros expand without
//! evaluating their arguments — call sites in the hot loops cost
//! nothing. With `--features obs` the same calls hit a global registry
//! (`Mutex`-guarded `BTreeMap`s); instrumented code records at *chunk*
//! granularity, never per trial, which keeps the measured sweep
//! overhead within the CI gate's 5% budget (DESIGN.md §12).
//!
//! # Example
//!
//! ```
//! let _outer = xlac_obs::obs_span!("demo");
//! xlac_obs::obs_count!("demo.widgets", 3);
//! xlac_obs::obs_observe!("demo.sizes", 100);
//! # #[cfg(feature = "obs")]
//! assert_eq!(xlac_obs::snapshot().counter("demo.widgets"), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod json;

/// A point-in-time copy of the registry, sorted by metric name.
///
/// With the `obs` feature off this is always empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Last-written gauge values, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Value histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span timing summaries, path-sorted.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// The total of the named counter, if it was ever incremented.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The last value written to the named gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// `true` when no metric of any kind has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

/// Summary of one log2-bucketed histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Bucket occupancy: bucket 0 holds the value 0, bucket `b ≥ 1`
    /// holds `2^(b-1) ..= 2^b - 1`. Trailing empty buckets are trimmed.
    pub buckets: Vec<u64>,
}

/// Summary of one span timer (all durations in nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Dotted span path (`"sim.sweep.chunk"`).
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Total time across all spans (saturating).
    pub total_ns: u64,
    /// Shortest span.
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
    /// Median estimated from the log2 histogram (geometric bucket
    /// midpoint, clamped to `[min_ns, max_ns]`) — spans do not retain
    /// individual samples.
    pub median_ns: f64,
}

#[cfg(feature = "obs")]
mod enabled {
    use super::{HistogramSnapshot, Snapshot, SpanSnapshot};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Instant;

    /// One more bucket than there are bit positions: bucket 0 is the
    /// value 0, bucket `b` covers `2^(b-1) ..= 2^b - 1`.
    const BUCKETS: usize = 65;

    #[derive(Clone)]
    pub(super) struct Histogram {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: [u64; BUCKETS],
    }

    impl Histogram {
        fn new() -> Self {
            Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; BUCKETS] }
        }

        fn record(&mut self, value: u64) {
            self.count += 1;
            self.sum = self.sum.saturating_add(value);
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            self.buckets[(64 - value.leading_zeros()) as usize] += 1;
        }

        fn median_estimate(&self) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            let target = self.count.div_ceil(2);
            let mut cumulative = 0u64;
            for (b, &c) in self.buckets.iter().enumerate() {
                cumulative += c;
                if cumulative >= target {
                    let mid = if b == 0 { 0.0 } else { 1.5 * (2.0f64).powi(b as i32 - 1) };
                    return mid.clamp(self.min as f64, self.max as f64);
                }
            }
            self.max as f64
        }

        fn histogram_snapshot(&self, name: &str) -> HistogramSnapshot {
            let last = self.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            HistogramSnapshot {
                name: name.to_string(),
                count: self.count,
                sum: self.sum,
                min: if self.count == 0 { 0 } else { self.min },
                max: self.max,
                buckets: self.buckets[..last].to_vec(),
            }
        }

        fn span_snapshot(&self, name: &str) -> SpanSnapshot {
            SpanSnapshot {
                name: name.to_string(),
                count: self.count,
                total_ns: self.sum,
                min_ns: if self.count == 0 { 0 } else { self.min },
                max_ns: self.max,
                median_ns: self.median_estimate(),
            }
        }
    }

    #[derive(Default)]
    struct Registry {
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, f64>,
        histograms: BTreeMap<String, Histogram>,
        spans: BTreeMap<String, Histogram>,
    }

    fn registry() -> MutexGuard<'static, Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        // A panicking instrumented thread must not take observability
        // down with it: recover the poisoned registry.
        REGISTRY
            .get_or_init(|| Mutex::new(Registry::default()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    thread_local! {
        static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII span timer (see [`crate::span`]).
    #[derive(Debug)]
    pub struct Span {
        path: String,
        start: Instant,
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            registry()
                .spans
                .entry(std::mem::take(&mut self.path))
                .or_insert_with(Histogram::new)
                .record(ns);
        }
    }

    pub(super) fn enabled() -> bool {
        true
    }

    pub(super) fn counter_add(name: &'static str, delta: u64) {
        let mut reg = registry();
        if let Some(total) = reg.counters.get_mut(name) {
            *total += delta;
        } else {
            reg.counters.insert(name.to_string(), delta);
        }
    }

    pub(super) fn gauge_set(name: &'static str, value: f64) {
        let mut reg = registry();
        if let Some(slot) = reg.gauges.get_mut(name) {
            *slot = value;
        } else {
            reg.gauges.insert(name.to_string(), value);
        }
    }

    pub(super) fn observe(name: &'static str, value: u64) {
        let mut reg = registry();
        if let Some(h) = reg.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            reg.histograms.insert(name.to_string(), h);
        }
    }

    pub(super) fn span(name: &'static str) -> Span {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = if stack.is_empty() {
                name.to_string()
            } else {
                let mut p = stack.join(".");
                p.push('.');
                p.push_str(name);
                p
            };
            stack.push(name);
            path
        });
        Span { path, start: Instant::now() }
    }

    pub(super) fn snapshot() -> Snapshot {
        let reg = registry();
        Snapshot {
            counters: reg.counters.iter().map(|(n, &v)| (n.clone(), v)).collect(),
            gauges: reg.gauges.iter().map(|(n, &v)| (n.clone(), v)).collect(),
            histograms: reg.histograms.iter().map(|(n, h)| h.histogram_snapshot(n)).collect(),
            spans: reg.spans.iter().map(|(n, h)| h.span_snapshot(n)).collect(),
        }
    }

    pub(super) fn reset() {
        let mut reg = registry();
        reg.counters.clear();
        reg.gauges.clear();
        reg.histograms.clear();
        reg.spans.clear();
    }
}

#[cfg(feature = "obs")]
pub use enabled::Span;

/// `true` when the `obs` feature is compiled in.
#[cfg(feature = "obs")]
#[must_use]
pub fn enabled() -> bool {
    enabled::enabled()
}

/// Adds `delta` to the named counter.
///
/// Counter totals are plain integer sums, so any set of contributions
/// produces the same total regardless of thread interleaving — the
/// property the sweep-runner determinism suite pins down.
#[cfg(feature = "obs")]
pub fn counter_add(name: &'static str, delta: u64) {
    enabled::counter_add(name, delta);
}

/// Sets the named gauge to `value` (last write wins).
#[cfg(feature = "obs")]
pub fn gauge_set(name: &'static str, value: f64) {
    enabled::gauge_set(name, value);
}

/// Records `value` into the named log2-bucketed histogram.
#[cfg(feature = "obs")]
pub fn observe(name: &'static str, value: u64) {
    enabled::observe(name, value);
}

/// Opens an RAII span timer. The span's full path is the thread's
/// current span stack joined with dots plus `name`; the duration is
/// recorded into a histogram under that path when the guard drops.
#[cfg(feature = "obs")]
#[must_use = "a span records its duration when dropped; bind it with `let _span = ...`"]
pub fn span(name: &'static str) -> Span {
    enabled::span(name)
}

/// Copies the current registry contents.
#[cfg(feature = "obs")]
#[must_use]
pub fn snapshot() -> Snapshot {
    enabled::snapshot()
}

/// Clears every metric (intended for tests and between report phases).
#[cfg(feature = "obs")]
pub fn reset() {
    enabled::reset();
}

/// The disabled [`span`] guard: a zero-sized type with a trivial drop.
#[cfg(not(feature = "obs"))]
#[derive(Debug, Clone, Copy, Default)]
pub struct Span;

/// `true` when the `obs` feature is compiled in.
#[cfg(not(feature = "obs"))]
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    false
}

/// No-op: the `obs` feature is off.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn counter_add(_name: &'static str, _delta: u64) {}

/// No-op: the `obs` feature is off.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn gauge_set(_name: &'static str, _value: f64) {}

/// No-op: the `obs` feature is off.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn observe(_name: &'static str, _value: u64) {}

/// No-op: returns the zero-sized [`Span`].
#[cfg(not(feature = "obs"))]
#[inline(always)]
#[must_use]
pub fn span(_name: &'static str) -> Span {
    Span
}

/// Always empty: the `obs` feature is off.
#[cfg(not(feature = "obs"))]
#[inline(always)]
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

/// No-op: the `obs` feature is off.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn reset() {}

/// Serializes the registry as JSON lines (one object per metric).
///
/// Span lines carry the exact field set of `xlac-bench`'s
/// `BENCH_*.json` reports (`name` / `samples` / `iters_per_sample` /
/// `median_ns` / `mean_ns` / `min_ns` / `max_ns`), so [`json`] and the
/// [`gate`] rules read bench output and span output interchangeably.
/// Counters, gauges and histograms use kind-prefixed names (`counter/…`,
/// `gauge/…`, `hist/…`); non-finite gauge values are emitted as `null`,
/// never `NaN`.
///
/// With the `obs` feature off, returns an empty string.
#[must_use]
pub fn export_json_lines() -> String {
    let snap = snapshot();
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!("{{\"name\":{:?},\"value\":{value}}}\n", format!("counter/{name}")));
    }
    for (name, value) in &snap.gauges {
        if value.is_finite() {
            out.push_str(&format!(
                "{{\"name\":{:?},\"value\":{value:.6}}}\n",
                format!("gauge/{name}")
            ));
        } else {
            out.push_str(&format!("{{\"name\":{:?},\"value\":null}}\n", format!("gauge/{name}")));
        }
    }
    for h in &snap.histograms {
        let buckets = h.buckets.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        out.push_str(&format!(
            "{{\"name\":{:?},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{buckets}]}}\n",
            format!("hist/{}", h.name),
            h.count,
            h.sum,
            h.min,
            h.max,
        ));
    }
    for s in &snap.spans {
        let mean = if s.count == 0 { 0.0 } else { s.total_ns as f64 / s.count as f64 };
        out.push_str(&format!(
            "{{\"name\":{:?},\"samples\":{},\"iters_per_sample\":1,\"median_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1}}}\n",
            format!("span/{}", s.name),
            s.count,
            s.median_ns,
            mean,
            s.min_ns as f64,
            s.max_ns as f64,
        ));
    }
    out
}

/// Adds to a counter; with the `obs` feature off the arguments are not
/// evaluated.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! obs_count {
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta)
    };
}

/// Adds to a counter; with the `obs` feature off the arguments are not
/// evaluated.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! obs_count {
    ($name:expr, $delta:expr) => {{
        let _ = || ($name, $delta);
    }};
}

/// Sets a gauge; with the `obs` feature off the arguments are not
/// evaluated.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! obs_gauge {
    ($name:expr, $value:expr) => {
        $crate::gauge_set($name, $value)
    };
}

/// Sets a gauge; with the `obs` feature off the arguments are not
/// evaluated.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! obs_gauge {
    ($name:expr, $value:expr) => {{
        let _ = || ($name, $value);
    }};
}

/// Records a histogram value; with the `obs` feature off the arguments
/// are not evaluated.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! obs_observe {
    ($name:expr, $value:expr) => {
        $crate::observe($name, $value)
    };
}

/// Records a histogram value; with the `obs` feature off the arguments
/// are not evaluated.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! obs_observe {
    ($name:expr, $value:expr) => {{
        let _ = || ($name, $value);
    }};
}

/// Opens a span timer; with the `obs` feature off this is the
/// zero-sized guard and the name is not evaluated.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Opens a span timer; with the `obs` feature off this is the
/// zero-sized guard and the name is not evaluated.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {{
        let _ = || $name;
        $crate::Span
    }};
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// The registry is process-global and libtest runs tests on several
    /// threads: serialize every test that resets and inspects it.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _guard = lock();
        reset();
        counter_add("t.a", 2);
        counter_add("t.a", 3);
        counter_add("t.b", 1);
        let snap = snapshot();
        assert_eq!(snap.counter("t.a"), Some(5));
        assert_eq!(snap.counter("t.b"), Some(1));
        assert_eq!(snap.counter("t.missing"), None);
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn gauges_keep_the_last_write() {
        let _guard = lock();
        reset();
        gauge_set("t.g", 1.5);
        gauge_set("t.g", 2.5);
        assert_eq!(snapshot().gauge("t.g"), Some(2.5));
        reset();
    }

    #[test]
    fn histograms_bucket_by_log2() {
        let _guard = lock();
        reset();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            observe("t.h", v);
        }
        let snap = snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.name, "t.h");
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!((h.min, h.max), (0, 1000));
        // value 0 → bucket 0; 1 → 1; 2,3 → 2; 4 → 3; 1000 → 10.
        assert_eq!(h.buckets[0..4], [1, 1, 2, 1]);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets.len(), 11, "trailing empty buckets are trimmed");
        reset();
    }

    #[test]
    fn nested_spans_record_dotted_paths() {
        let _guard = lock();
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _second = span("inner");
        }
        let snap = snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "outer.inner"]);
        let inner = &snap.spans[1];
        assert_eq!(inner.count, 2);
        assert!(inner.min_ns <= inner.max_ns);
        assert!(inner.max_ns >= 1_000_000, "the slept span is at least 1ms");
        assert!(inner.total_ns >= inner.max_ns);
        let outer = &snap.spans[0];
        assert!(outer.max_ns >= inner.max_ns, "outer spans its children");
        // The median estimate stays within the recorded range.
        assert!(inner.median_ns >= inner.min_ns as f64);
        assert!(inner.median_ns <= inner.max_ns as f64);
        reset();
    }

    #[test]
    fn export_is_json_lines_with_bench_compatible_spans() {
        let _guard = lock();
        reset();
        counter_add("t.c", 7);
        gauge_set("t.finite", 0.25);
        gauge_set("t.nan", f64::NAN);
        observe("t.h", 5);
        drop(span("t_span"));
        let out = export_json_lines();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines.iter().any(|l| l.contains("\"name\":\"counter/t.c\",\"value\":7")));
        assert!(lines.iter().any(|l| l.contains("\"gauge/t.nan\",\"value\":null")));
        assert!(!out.contains("NaN"), "non-finite values must not leak into JSON");
        let span_line = lines.iter().find(|l| l.contains("span/t_span")).unwrap();
        for field in [
            "\"samples\":",
            "\"iters_per_sample\":1",
            "\"median_ns\":",
            "\"mean_ns\":",
            "\"min_ns\":",
            "\"max_ns\":",
        ] {
            assert!(span_line.contains(field), "{span_line}");
        }
        reset();
    }

    #[test]
    fn macros_forward_to_the_registry() {
        let _guard = lock();
        reset();
        obs_count!("t.m", 4);
        obs_gauge!("t.mg", 9.0);
        obs_observe!("t.mh", 2);
        {
            let _s = obs_span!("t_mspan");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("t.m"), Some(4));
        assert_eq!(snap.gauge("t.mg"), Some(9.0));
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.spans.len(), 1);
        reset();
    }
}

#[cfg(all(test, not(feature = "obs")))]
mod noop_tests {
    use super::*;

    #[test]
    fn disabled_build_is_a_true_noop() {
        assert!(!enabled());
        assert_eq!(std::mem::size_of::<Span>(), 0, "the disabled span guard is zero-sized");
        counter_add("t.a", 1);
        gauge_set("t.g", 1.0);
        observe("t.h", 1);
        let _s = span("t.s");
        obs_count!("t.m", 1);
        let _ms = obs_span!("t.ms");
        assert!(snapshot().is_empty());
        assert!(export_json_lines().is_empty());
    }
}
