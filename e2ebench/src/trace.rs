//! In-memory span recorder for the traced run.
//!
//! A span is `(layer, name, start, end, parent, job)`. Recording is off
//! unless [`enable`] was called, in which case [`span`] costs one
//! `Instant::now` at each end plus a push under a mutex at close. Spans
//! are kept in memory and written once, at exit, as chrome-trace JSON.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static JOB: Cell<u64> = const { Cell::new(0) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span; times are nanoseconds since the recorder epoch.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub job: u64,
    pub tid: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Tags the spans this thread records from now on with `job`.
pub fn set_job(job: u64) {
    JOB.with(|j| j.set(job));
}

/// An open span; it closes when dropped.
pub struct Guard(Option<(u32, Option<u32>, Instant, &'static str, &'static str)>);

pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard(Some((id, parent, Instant::now(), layer, name)))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, start, layer, name)) = self.0.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let base = epoch();
        let rec = SpanRec {
            layer,
            name,
            start_ns: (start - base).as_nanos() as u64,
            end_ns: (end - base).as_nanos() as u64,
            id,
            parent,
            job: JOB.with(|j| j.get()),
            tid: TID.with(|t| *t),
        };
        SPANS.lock().expect("span log").push(rec);
    }
}

/// Runs `f` inside a span.
pub fn timed<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(layer, name);
    f()
}

/// Takes every span recorded so far.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span log"))
}

/// Self time (own duration minus direct children) summed per layer, with
/// the number of spans per layer.
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.layer).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Total duration and count of the spans called `name` in `layer`.
pub fn total(spans: &[SpanRec], layer: &str, name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
}

/// The spans as a chrome://tracing document (`ph: "X"` events, µs).
pub fn chrome_trace(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \
             \"job\": {}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.job
        );
    }
    out.push_str("\n]}\n");
    out
}
