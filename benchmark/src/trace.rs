//! The benchmark's clock and its span recorder.
//!
//! Every timestamp is nanoseconds since one shared [`Clock`] started; the
//! clock wraps `sisg_obs::Stopwatch`, the repository's only sanctioned
//! time source. Spans are recorded by the benchmark around its calls into
//! the layers' public functions — nothing inside the program is
//! instrumented — kept in memory per thread, and written as JSON lines
//! when the traced run ends.

use sisg_obs::Stopwatch;
use std::io::Write;
use std::path::Path;

/// Nanoseconds since the run started, from a single `Stopwatch`.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Stopwatch);

impl Clock {
    /// Starts the run clock.
    pub fn start() -> Self {
        Clock(Stopwatch::start())
    }

    /// Nanoseconds since [`Clock::start`].
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// No request id: a set-up or pipeline span.
pub const NO_REQUEST: u64 = u64::MAX;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Unique within the run; `0` is never used.
    pub id: u64,
    /// The span that caused this one, `0` for a root.
    pub parent: u64,
    /// Layer boundary, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, ns on the run clock.
    pub start_ns: u64,
    /// End, ns on the run clock.
    pub end_ns: u64,
    /// Request index shared by every span of one request, or
    /// [`NO_REQUEST`].
    pub request: u64,
}

/// A span buffer. Its ids count up from `base`; the load generator's
/// request spans use their own range (see `load`), so the two never
/// collide.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    next_id: u64,
    spans: Vec<SpanRec>,
    /// Keep at most this many spans; later ones are counted, not stored.
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A buffer whose span ids start at `base + 1`.
    pub fn new(clock: Clock, base: u64, cap: usize) -> Self {
        Tracer {
            clock,
            next_id: base,
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Reserves a span id (so children can name their parent before the
    /// parent span ends).
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span under a reserved id.
    pub fn record(&mut self, rec: SpanRec) {
        if self.spans.len() < self.cap {
            self.spans.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Times `f` as a span named `name` under `parent`; returns the
    /// span's id, its duration in ns and the result of `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (u64, u64, T) {
        let id = self.reserve();
        let start_ns = self.clock.now_ns();
        let out = f();
        let end_ns = self.clock.now_ns();
        self.record(SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            request: NO_REQUEST,
        });
        (id, end_ns - start_ns, out)
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans over the cap that were counted but not stored.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
            if s.request == NO_REQUEST {
                writeln!(out, ",\"request\":null}}")?;
            } else {
                writeln!(out, ",\"request\":{}}}", s.request)?;
            }
        }
        out.flush()
    }
}
