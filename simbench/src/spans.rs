//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer — or one *batch* of calls, with
//! the call count attached, so that the two clock reads cost little next
//! to the calls they time. Spans nest through an explicit stack; each
//! records its parent, so self time (duration minus the time covered by
//! direct children) can be computed afterwards. Nothing is written until
//! [`Tracer::to_jsonl`] is called at the end of the run.

use ndp_sim::spec::json_escape;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in [`Tracer::spans`].
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `sim.run` or `mmu.tlb_lookup`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Calls into the layer the span covers (1 for a single call).
    pub calls: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span, attaching its call count.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced `exit` is a bug in the
    /// benchmark).
    pub fn exit(&mut self, calls: u64) {
        let id = self.open.pop().expect("exit without a matching enter");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Runs `f` inside a span of one call.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit(1);
        out
    }

    /// Runs a batch of calls inside one span; `f` returns the batch's
    /// result and its call count.
    pub fn batch<T>(&mut self, name: &str, f: impl FnOnce() -> (T, u64)) -> T {
        self.enter(name);
        let (out, calls) = f();
        self.exit(calls);
        out
    }

    /// Every closed span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (indexed like [`Self::spans`]). Children never
    /// outlive their parent, so with a monotonic clock this is never
    /// negative; it is returned signed so a test can check exactly that.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<i128> {
        let mut out: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.duration_ns()))
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                out[parent] -= i128::from(span.duration_ns());
            }
        }
        out
    }

    /// Total seconds spent in spans named `name`.
    #[must_use]
    pub fn seconds(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// One JSON object per span, with its self time.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::new();
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"calls\":{}}}\n",
                span.id,
                parent,
                json_escape(&span.name),
                span.start_ns,
                span.end_ns,
                self_ns,
                span.calls
            ));
        }
        out
    }
}
