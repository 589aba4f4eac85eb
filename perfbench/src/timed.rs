//! A timing [`TaskHooks`] forwarder: the traced run's spans.
//!
//! Every hook call into the wrapped detector is one span. Spans are kept
//! in memory as per-kind call counts and summed durations, and written
//! out with the traced run's result. Boundary spans are the parallel
//! constructs (`spawn`/`create`/`sync`/`get`/task end/task return);
//! access spans are the flushed access batches and single accesses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sfrd_runtime::{AccessBatch, TaskHooks};

/// Span totals of one traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Boundary hook calls.
    pub boundary_calls: u64,
    /// Seconds inside boundary hooks, summed over threads.
    pub boundary_s: f64,
    /// Access hook calls.
    pub access_calls: u64,
    /// Seconds inside access hooks, summed over threads.
    pub access_s: f64,
}

#[derive(Default)]
struct Kind {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Kind {
    #[inline]
    fn span<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        // Relaxed: these are statistics, read after the run has joined.
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn read(&self) -> (u64, f64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        )
    }
}

/// Forwards every hook to `inner`, timing each call.
pub struct Timed<H> {
    inner: H,
    boundary: Kind,
    access: Kind,
}

impl<H> Timed<H> {
    /// Wrap `inner`.
    pub fn new(inner: H) -> Self {
        Self {
            inner,
            boundary: Kind::default(),
            access: Kind::default(),
        }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Span totals so far.
    pub fn totals(&self) -> SpanTotals {
        let (boundary_calls, boundary_s) = self.boundary.read();
        let (access_calls, access_s) = self.access.read();
        SpanTotals {
            boundary_calls,
            boundary_s,
            access_calls,
            access_s,
        }
    }
}

impl<H: TaskHooks> TaskHooks for Timed<H> {
    type Strand = H::Strand;

    fn root(&self) -> Self::Strand {
        self.inner.root()
    }
    fn on_spawn(&self, p: &mut Self::Strand) -> Self::Strand {
        self.boundary.span(|| self.inner.on_spawn(p))
    }
    fn on_create(&self, p: &mut Self::Strand) -> Self::Strand {
        self.boundary.span(|| self.inner.on_create(p))
    }
    fn on_sync(&self, s: &mut Self::Strand, children: Vec<Self::Strand>) {
        self.boundary.span(|| self.inner.on_sync(s, children))
    }
    fn on_get(&self, s: &mut Self::Strand, done: &Self::Strand) {
        self.boundary.span(|| self.inner.on_get(s, done))
    }
    fn on_task_end(&self, s: &mut Self::Strand) {
        self.boundary.span(|| self.inner.on_task_end(s))
    }
    fn on_task_return(&self, p: &mut Self::Strand, c: &mut Self::Strand) {
        self.boundary.span(|| self.inner.on_task_return(p, c))
    }
    fn on_read(&self, s: &mut Self::Strand, addr: u64) {
        self.access.span(|| self.inner.on_read(s, addr))
    }
    fn on_write(&self, s: &mut Self::Strand, addr: u64) {
        self.access.span(|| self.inner.on_write(s, addr))
    }
    fn on_access_batch(&self, s: &mut Self::Strand, batch: &mut AccessBatch) {
        self.access.span(|| self.inner.on_access_batch(s, batch))
    }
}
