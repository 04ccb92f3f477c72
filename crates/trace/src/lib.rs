//! Deterministic span/event tracing for the solver stack.
//!
//! A [`Tracer`] records a tree of named spans (RAII [`Span`] guards) plus
//! per-round [`RoundEvent`]s, split the same way the `Run` JSON splits its
//! record:
//!
//! - **canonical** — span topology, per-span *round* deltas, and round
//!   events `{round, frontier}`. These are a pure function of the workload:
//!   byte-identical across distance backends (dense/implicit/spatial) and
//!   thread counts, which is what the trace-conformance tests and the
//!   golden corpus compare. Only the
//!   `rounds` counter rides here; a run's total work is in its canonical
//!   `Run` record.
//! - **timing metadata** — wall-clock timestamps, the full
//!   [`CostReport`] delta per span, and the memory high-water. These ride
//!   only in the Chrome-trace export ([`Tracer::chrome_json`], loadable in
//!   `chrome://tracing` / Perfetto).
//!
//! Solvers do not thread a tracer handle through their signatures: the
//! harness [`install`]s a tracer into a thread-local, and instrumentation
//! sites call the free functions [`span`] / [`round`], which are no-ops
//! when no tracer is installed. Spans must only be opened on the solver's
//! driving thread (never inside `par_iter` closures) so the span stack
//! stays a deterministic LIFO; the repository's inline `install` shim
//! guarantees the thread-local survives `ThreadPool::install`.

#![warn(missing_docs)]

use parfaclo_matrixops::{CostMeter, CostReport};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version tag emitted in every trace artifact; bump on schema changes.
pub const TRACE_SCHEMA: &str = "parfaclo.trace.v1";

/// How much a tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDetail {
    /// Spans only — cheap enough that the registry runner attaches one to
    /// every run for `phase_wall_ms` attribution.
    Phases,
    /// Spans plus per-round events. Round-event call sites compute frontier
    /// sizes lazily (an `O(n)` count per round in the dominator loops), so
    /// this level is opted into by `--trace` / `--progress` only.
    Rounds,
}

/// One per-round progress event, attached to the innermost open span.
#[derive(Debug, Clone)]
pub struct RoundEvent {
    /// Index of the enclosing span, if any.
    pub span: Option<usize>,
    /// Round number within the enclosing phase (1-based at the call sites).
    pub round: u64,
    /// Frontier size at the start of the round (remaining clients, alive
    /// vertices, candidate radii, …) — canonical, workload-pure.
    pub frontier: u64,
    /// Milliseconds since the tracer's origin (timing metadata).
    pub at_ms: f64,
    /// Cumulative meter snapshot at the event (timing metadata; per-round
    /// work deltas are derived at serialisation time).
    pub work: CostReport,
}

/// One closed (or still-open) span.
#[derive(Debug, Clone)]
struct SpanRecord {
    name: String,
    parent: Option<usize>,
    start_ms: f64,
    end_ms: f64,
    /// Meter snapshot at open; `work` is the delta computed at close.
    open_work: CostReport,
    work: CostReport,
    /// Tracer-wide memory high-water observed by the time the span closed.
    mem_bytes: u64,
    closed: bool,
    /// Timing-only spans ([`timing_span`]) are excluded from the canonical
    /// projection: their existence depends on configuration the canonical
    /// trace must be invariant to (e.g. the spatial-index build only runs
    /// under `--backend spatial`).
    canonical: bool,
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<SpanRecord>,
    events: Vec<RoundEvent>,
    stack: Vec<usize>,
}

/// Aggregated per-phase summary row (all closed spans sharing a name).
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// Span name.
    pub name: String,
    /// Number of spans aggregated under this name.
    pub count: u64,
    /// Summed wall-clock milliseconds.
    pub wall_ms: f64,
    /// Summed element-op delta.
    pub element_ops: u64,
    /// Summed round delta.
    pub rounds: u64,
    /// `wall_ms` as a fraction of the total traced duration.
    pub share: f64,
}

/// Records a span tree plus round events; shared via `Arc` and installed
/// into a thread-local so instrumentation sites need no handle.
#[derive(Debug)]
pub struct Tracer {
    detail: TraceDetail,
    progress: bool,
    origin: Instant,
    mem_high: AtomicU64,
    state: Mutex<TraceState>,
}

impl Tracer {
    /// Creates an empty tracer at the given detail level.
    pub fn new(detail: TraceDetail) -> Self {
        Tracer {
            detail,
            progress: false,
            origin: Instant::now(),
            mem_high: AtomicU64::new(0),
            state: Mutex::new(TraceState::default()),
        }
    }

    /// Streams round events to stderr as they are recorded (for `--progress`).
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// The detail level this tracer records at.
    pub fn detail(&self) -> TraceDetail {
        self.detail
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Raises the memory high-water mark (oracle/instance `memory_bytes`
    /// probes); timing metadata only.
    pub fn note_memory(&self, bytes: u64) {
        self.mem_high.fetch_max(bytes, Ordering::Relaxed);
    }

    /// The memory high-water mark observed so far.
    pub fn memory_high_water(&self) -> u64 {
        self.mem_high.load(Ordering::Relaxed)
    }

    fn open_span(&self, name: &str, open_work: CostReport, canonical: bool) -> usize {
        let at = self.now_ms();
        let mut st = self.state.lock().expect("trace state poisoned");
        let idx = st.spans.len();
        let parent = st.stack.last().copied();
        st.spans.push(SpanRecord {
            name: name.to_string(),
            parent,
            start_ms: at,
            end_ms: at,
            open_work,
            work: CostReport::default(),
            mem_bytes: 0,
            closed: false,
            canonical,
        });
        st.stack.push(idx);
        idx
    }

    fn close_span(&self, idx: usize, close_work: Option<CostReport>) {
        let at = self.now_ms();
        let mem = self.memory_high_water();
        let mut st = self.state.lock().expect("trace state poisoned");
        // Spans close LIFO by RAII construction; tolerate (and repair) a
        // mismatched stack rather than poisoning the whole trace.
        if let Some(pos) = st.stack.iter().rposition(|&i| i == idx) {
            st.stack.truncate(pos);
        }
        let span = &mut st.spans[idx];
        span.end_ms = at;
        span.mem_bytes = mem;
        span.closed = true;
        if let Some(now) = close_work {
            span.work = now.since(&span.open_work);
        }
    }

    fn record_round(&self, round: u64, frontier: u64, work: CostReport) {
        let at = self.now_ms();
        let mut st = self.state.lock().expect("trace state poisoned");
        let span = st.stack.last().copied();
        if self.progress {
            let name = span
                .map(|i| st.spans[i].name.as_str())
                .unwrap_or("(no span)");
            eprintln!(
                "[progress] {name} round={round} frontier={frontier} work={} t={at:.1}ms",
                work.element_ops
            );
        }
        st.events.push(RoundEvent {
            span,
            round,
            frontier,
            at_ms: at,
            work,
        });
    }

    /// Wall-clock milliseconds per direct child phase of the span `root`,
    /// aggregated by name in first-encounter order. This is what the
    /// registry runner stamps into `Run`'s timing metadata as
    /// `phase_wall_ms`.
    pub fn phase_walls(&self, root: usize) -> Vec<(String, f64)> {
        let st = self.state.lock().expect("trace state poisoned");
        let mut out: Vec<(String, f64)> = Vec::new();
        for span in st
            .spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.closed)
        {
            let wall = span.end_ms - span.start_ms;
            match out.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, acc)) => *acc += wall,
                None => out.push((span.name.clone(), wall)),
            }
        }
        out
    }

    /// Aggregated per-name summary over all closed spans, in
    /// first-encounter order. `share` is relative to the latest span end
    /// time (the total traced duration).
    pub fn phase_summary(&self) -> Vec<PhaseSummary> {
        let st = self.state.lock().expect("trace state poisoned");
        let total = st
            .spans
            .iter()
            .filter(|s| s.closed)
            .map(|s| s.end_ms)
            .fold(0.0_f64, f64::max);
        let mut out: Vec<PhaseSummary> = Vec::new();
        for span in st.spans.iter().filter(|s| s.closed) {
            let wall = span.end_ms - span.start_ms;
            let row = match out.iter_mut().find(|r| r.name == span.name) {
                Some(row) => row,
                None => {
                    out.push(PhaseSummary {
                        name: span.name.clone(),
                        count: 0,
                        wall_ms: 0.0,
                        element_ops: 0,
                        rounds: 0,
                        share: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.wall_ms += wall;
            row.element_ops += span.work.element_ops;
            row.rounds += span.work.rounds;
        }
        if total > 0.0 {
            for row in &mut out {
                row.share = row.wall_ms / total;
            }
        }
        out
    }

    /// Full trace as Chrome trace-event JSON (`chrome://tracing` /
    /// Perfetto loadable): complete spans as `ph:"X"` events with the full
    /// counter deltas in `args`, round events as `ph:"i"` instants, plus a
    /// `summary` array (per-phase wall/work/share) and the memory
    /// high-water. Extra top-level keys are ignored by the viewers.
    pub fn chrome_json(&self) -> String {
        let st = self.state.lock().expect("trace state poisoned");
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"");
        out.push_str(TRACE_SCHEMA);
        out.push_str("\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for span in st.spans.iter().filter(|s| s.closed) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"element_ops\":{},\"primitive_calls\":{},\"sort_calls\":{},\
                 \"rounds\":{},\"mem_bytes\":{}}}}}",
                escape(&span.name),
                fmt_num(span.start_ms * 1e3),
                fmt_num((span.end_ms - span.start_ms) * 1e3),
                span.work.element_ops,
                span.work.primitive_calls,
                span.work.sort_calls,
                span.work.rounds,
                span.mem_bytes,
            ));
        }
        for (i, ev) in st.events.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            // Per-round work delta: cumulative snapshot minus the previous
            // event in the same span (or the span's open snapshot).
            let base = st.events[..i]
                .iter()
                .rev()
                .find(|p| p.span == ev.span)
                .map(|p| p.work)
                .or_else(|| ev.span.map(|s| st.spans[s].open_work))
                .unwrap_or_default();
            let delta = ev.work.since(&base);
            out.push_str(&format!(
                "{{\"name\":\"round\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":1,\"s\":\"t\",\
                 \"args\":{{\"round\":{},\"frontier\":{},\"work_delta\":{}}}}}",
                fmt_num(ev.at_ms * 1e3),
                ev.round,
                ev.frontier,
                delta.element_ops,
            ));
        }
        out.push_str("],\"memory_bytes\":");
        out.push_str(&self.memory_high_water().to_string());
        out.push_str(",\"summary\":[");
        drop(st);
        for (i, row) in self.phase_summary().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"wall_ms\":{},\"element_ops\":{},\
                 \"rounds\":{},\"share\":{}}}",
                escape(&row.name),
                row.count,
                fmt_num(row.wall_ms),
                row.element_ops,
                row.rounds,
                fmt_num(row.share),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Canonical projection: span topology + per-span round deltas + round
    /// events `{round, frontier}`, all timestamps/work/memory stripped.
    /// Timing-only spans ([`timing_span`]) are filtered out (parents are
    /// remapped to the nearest canonical ancestor, events under them are
    /// dropped). Byte-identical across backends and thread counts for the
    /// same workload and configuration — what the determinism tests and the
    /// CI smoke step compare.
    pub fn canonical_json(&self) -> String {
        let st = self.state.lock().expect("trace state poisoned");
        // Map original span indices to canonical-only indices; timing-only
        // spans map to None.
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(st.spans.len());
        let mut kept = 0usize;
        for span in &st.spans {
            if span.canonical {
                remap.push(Some(kept));
                kept += 1;
            } else {
                remap.push(None);
            }
        }
        // Nearest canonical ancestor of a span, walking through any
        // timing-only links in the parent chain.
        let canon_ancestor = |mut idx: Option<usize>| -> Option<usize> {
            while let Some(i) = idx {
                if let Some(mapped) = remap[i] {
                    return Some(mapped);
                }
                idx = st.spans[i].parent;
            }
            None
        };
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":\"");
        out.push_str(TRACE_SCHEMA);
        out.push_str(".canonical\",\"spans\":[");
        let mut first = true;
        for span in st.spans.iter().filter(|s| s.canonical) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{},\"rounds\":{}}}",
                escape(&span.name),
                match canon_ancestor(span.parent) {
                    Some(p) => p.to_string(),
                    None => "null".to_string(),
                },
                span.work.rounds,
            ));
        }
        out.push_str("],\"events\":[");
        first = true;
        for ev in &st.events {
            // Events on timing-only spans are themselves configuration
            // artifacts; drop them rather than re-parenting.
            let span = match ev.span {
                Some(s) => match remap[s] {
                    Some(mapped) => Some(mapped),
                    None => continue,
                },
                None => None,
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"span\":{},\"round\":{},\"frontier\":{}}}",
                match span {
                    Some(s) => s.to_string(),
                    None => "null".to_string(),
                },
                ev.round,
                ev.frontier,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (names are ASCII identifiers; this keeps
/// the output valid even if one ever isn't).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a finite f64 as JSON (Rust's `Display` for `f64` never emits
/// exponent notation, so the output is always a valid JSON number).
fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

thread_local! {
    /// Installed tracers, innermost last. A stack so nested harnesses
    /// (bench driving the registry runner) restore cleanly.
    static CURRENT: RefCell<Vec<Arc<Tracer>>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls the tracer pushed by the matching [`install`] on drop.
#[derive(Debug)]
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Installs `tracer` as the current thread's tracer until the returned
/// guard drops. Instrumentation sites ([`span`], [`round`]) pick it up via
/// the thread-local; nothing is recorded while no tracer is installed.
#[must_use = "dropping the guard uninstalls the tracer"]
pub fn install(tracer: Arc<Tracer>) -> InstallGuard {
    CURRENT.with(|c| c.borrow_mut().push(tracer));
    InstallGuard { _private: () }
}

/// The currently installed tracer, if any.
pub fn current() -> Option<Arc<Tracer>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Whether any tracer is installed on this thread.
pub fn enabled() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Whether the installed tracer records per-round events. Call sites use
/// this (or the closure form of [`round`]) to skip frontier-size
/// computations that would otherwise cost `O(n)` per round.
pub fn rounds_enabled() -> bool {
    CURRENT.with(|c| {
        c.borrow()
            .last()
            .is_some_and(|t| t.detail() == TraceDetail::Rounds)
    })
}

/// RAII span guard: opens a span on construction, closes it (recording the
/// meter delta) on drop. A no-op when no tracer is installed.
#[derive(Debug)]
#[must_use = "binding the span to `_` closes it immediately"]
pub struct Span<'a> {
    tracer: Option<Arc<Tracer>>,
    idx: usize,
    meter: Option<&'a CostMeter>,
}

impl<'a> Span<'a> {
    /// The span's index in the tracer's span list, if one was recorded
    /// (used by the registry runner to aggregate child phases).
    pub fn index(&self) -> Option<usize> {
        self.tracer.as_ref().map(|_| self.idx)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer.take() {
            tracer.close_span(self.idx, self.meter.map(|m| m.report()));
        }
    }
}

/// Opens a span named `name` under the innermost open span. The meter, when
/// given, is snapshotted at open and the counter *delta* is recorded at
/// close, so nested spans never double-count (each span's delta is
/// inclusive of its children, like inclusive time in a profiler).
pub fn span<'a>(name: &str, meter: Option<&'a CostMeter>) -> Span<'a> {
    open(name, meter, true)
}

/// Opens a timing-only span: it appears in the Chrome export and the phase
/// summary but is excluded from the canonical projection. Use for phases
/// whose *existence* depends on configuration the canonical trace must be
/// invariant to — e.g. the spatial-index build only runs under
/// `--backend spatial`.
pub fn timing_span(name: &str) -> Span<'static> {
    open(name, None, false)
}

fn open<'a>(name: &str, meter: Option<&'a CostMeter>, canonical: bool) -> Span<'a> {
    match current() {
        Some(tracer) => {
            let open = meter.map(|m| m.report()).unwrap_or_default();
            let idx = tracer.open_span(name, open, canonical);
            Span {
                tracer: Some(tracer),
                idx,
                meter,
            }
        }
        None => Span {
            tracer: None,
            idx: 0,
            meter: None,
        },
    }
}

/// Records a per-round event on the innermost open span. The frontier size
/// is computed by the closure only when the installed tracer records
/// rounds, so `O(n)` counts (alive vertices, unfrozen clients) cost nothing
/// on untraced runs.
pub fn round<F: FnOnce() -> u64>(round: u64, frontier: F, meter: &CostMeter) {
    let tracer = CURRENT.with(|c| {
        c.borrow()
            .last()
            .filter(|t| t.detail() == TraceDetail::Rounds)
            .cloned()
    });
    if let Some(tracer) = tracer {
        tracer.record_round(round, frontier(), meter.report());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tracer_means_no_ops() {
        assert!(!enabled());
        let meter = CostMeter::new();
        let s = span("solo", Some(&meter));
        assert_eq!(s.index(), None);
        drop(s);
        round(
            1,
            || panic!("frontier must not be computed untraced"),
            &meter,
        );
    }

    #[test]
    fn span_tree_topology_and_deltas() {
        let tracer = Arc::new(Tracer::new(TraceDetail::Rounds));
        let guard = install(Arc::clone(&tracer));
        let meter = CostMeter::new();
        {
            let root = span("solve", Some(&meter));
            assert_eq!(root.index(), Some(0));
            {
                let _a = span("build", Some(&meter));
                meter.add_primitive(10);
            }
            {
                let _b = span("rounds", Some(&meter));
                meter.add_round();
                round(1, || 42, &meter);
                meter.add_round();
                round(2, || 17, &meter);
            }
        }
        drop(guard);
        let canonical = tracer.canonical_json();
        assert_eq!(
            canonical,
            "{\"schema\":\"parfaclo.trace.v1.canonical\",\"spans\":[\
             {\"name\":\"solve\",\"parent\":null,\"rounds\":2},\
             {\"name\":\"build\",\"parent\":0,\"rounds\":0},\
             {\"name\":\"rounds\",\"parent\":0,\"rounds\":2}],\
             \"events\":[{\"span\":2,\"round\":1,\"frontier\":42},\
             {\"span\":2,\"round\":2,\"frontier\":17}]}"
        );
        let phases = tracer.phase_walls(0);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "build");
        assert_eq!(phases[1].0, "rounds");
        let chrome = tracer.chrome_json();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"name\":\"solve\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"frontier\":42"));
        assert!(chrome.contains(TRACE_SCHEMA));
    }

    #[test]
    fn nested_spans_do_not_double_count() {
        let tracer = Arc::new(Tracer::new(TraceDetail::Phases));
        let guard = install(Arc::clone(&tracer));
        let meter = CostMeter::new();
        {
            let _outer = span("outer", Some(&meter));
            meter.add_work(5);
            {
                let _inner = span("inner", Some(&meter));
                meter.add_work(100);
            }
            meter.add_work(7);
        }
        drop(guard);
        let st = tracer.state.lock().unwrap();
        let outer = &st.spans[0];
        let inner = &st.spans[1];
        assert_eq!(inner.work.element_ops, 100, "inner sees only its own work");
        assert_eq!(
            outer.work.element_ops, 112,
            "outer is inclusive of the nested span, charged exactly once"
        );
    }

    #[test]
    fn phases_detail_skips_round_events_and_frontier_closures() {
        let tracer = Arc::new(Tracer::new(TraceDetail::Phases));
        let guard = install(Arc::clone(&tracer));
        assert!(enabled());
        assert!(!rounds_enabled());
        let meter = CostMeter::new();
        let _s = span("loop", Some(&meter));
        round(
            1,
            || panic!("frontier closure must not run at Phases detail"),
            &meter,
        );
        drop(_s);
        drop(guard);
        assert!(tracer.canonical_json().contains("\"events\":[]"));
    }

    #[test]
    fn timing_spans_are_chrome_only_and_parents_remap_through_them() {
        let tracer = Arc::new(Tracer::new(TraceDetail::Rounds));
        let guard = install(Arc::clone(&tracer));
        let meter = CostMeter::new();
        {
            let _root = span("solve", Some(&meter));
            {
                let _idx = timing_span("spatial-index");
                // A canonical span nested under a timing-only one must
                // re-parent to the nearest canonical ancestor.
                let _leaf = span("leaf", Some(&meter));
                round(1, || 7, &meter);
            }
        }
        drop(guard);
        let canonical = tracer.canonical_json();
        assert_eq!(
            canonical,
            "{\"schema\":\"parfaclo.trace.v1.canonical\",\"spans\":[\
             {\"name\":\"solve\",\"parent\":null,\"rounds\":0},\
             {\"name\":\"leaf\",\"parent\":0,\"rounds\":0}],\
             \"events\":[{\"span\":1,\"round\":1,\"frontier\":7}]}"
        );
        let chrome = tracer.chrome_json();
        assert!(chrome.contains("\"name\":\"spatial-index\""));
    }

    #[test]
    fn events_under_timing_spans_are_dropped_from_canonical() {
        let tracer = Arc::new(Tracer::new(TraceDetail::Rounds));
        let guard = install(Arc::clone(&tracer));
        let meter = CostMeter::new();
        {
            let _t = timing_span("index-build");
            round(1, || 99, &meter);
        }
        drop(guard);
        let canonical = tracer.canonical_json();
        assert!(canonical.contains("\"spans\":[]"));
        assert!(canonical.contains("\"events\":[]"));
        assert!(tracer.chrome_json().contains("\"frontier\":99"));
    }

    #[test]
    fn install_guard_restores_previous_tracer() {
        let a = Arc::new(Tracer::new(TraceDetail::Phases));
        let b = Arc::new(Tracer::new(TraceDetail::Rounds));
        let ga = install(Arc::clone(&a));
        {
            let _gb = install(Arc::clone(&b));
            assert!(rounds_enabled());
        }
        assert!(enabled());
        assert!(!rounds_enabled(), "outer tracer restored");
        drop(ga);
        assert!(!enabled());
    }

    #[test]
    fn canonical_is_timestamp_free_and_memory_free() {
        let tracer = Arc::new(Tracer::new(TraceDetail::Rounds));
        let guard = install(Arc::clone(&tracer));
        tracer.note_memory(123_456);
        let meter = CostMeter::new();
        {
            let _s = span("work", Some(&meter));
            std::thread::sleep(std::time::Duration::from_millis(2));
            meter.add_work(9);
        }
        drop(guard);
        let canonical = tracer.canonical_json();
        assert!(!canonical.contains("ms"));
        assert!(!canonical.contains("123456"));
        assert!(!canonical.contains("element_ops"));
        let chrome = tracer.chrome_json();
        assert!(chrome.contains("\"memory_bytes\":123456"));
        assert!(chrome.contains("\"element_ops\":9"));
    }

    #[test]
    fn summary_aggregates_repeated_names() {
        let tracer = Arc::new(Tracer::new(TraceDetail::Phases));
        let guard = install(Arc::clone(&tracer));
        let meter = CostMeter::new();
        for _ in 0..3 {
            let _s = span("probe", Some(&meter));
            meter.add_round();
        }
        drop(guard);
        let summary = tracer.phase_summary();
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].name, "probe");
        assert_eq!(summary[0].count, 3);
        assert_eq!(summary[0].rounds, 3);
        assert!(summary[0].share > 0.0 && summary[0].share <= 1.0 + 1e-9);
    }
}
