//! The traced run's instruments: in-memory spans around every call the
//! benchmark makes into a layer, and a per-thread allocation counter.
//! Both cost one branch when tracing is off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One benchmark call into a layer.  Spans of one query share `query`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u64,
}

/// A per-thread span recorder; a disabled one records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: &'static str) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, query: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            query,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Closes a span under a name known only once its call returned.
    pub fn close_as(&mut self, id: Option<usize>, name: &'static str) {
        if let Some(i) = id {
            self.spans[i].name = name;
        }
        self.close(id);
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Appends this tracer's spans as JSON lines.
    pub fn dump(&self, out: &mut String) {
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"thread\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"query\": {}}}",
                self.thread, s.name, s.start_ns, s.end_ns, s.query
            );
        }
    }
}

/// Counts each thread's heap allocations (and reallocations) while
/// [`count_allocations`] is on; the same wrapper over `System` as the
/// workspace's allocation-regression tests, made per-thread so the server
/// and the client are counted apart.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on (traced runs only).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations the calling thread has made while counting was on.
pub fn thread_allocations() -> u64 {
    ALLOCS.with(Cell::get)
}
