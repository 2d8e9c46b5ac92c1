//! The open-loop load generator.
//!
//! Arrivals follow a fixed schedule that never waits for the engine:
//! every tick (1 ms) a burst of `rate × tick` requests falls due at the
//! tick instant, the way a front end fans many users' clicks into the
//! matcher at once. Latency is measured from the due time, so time a
//! request spends behind earlier ones — in the submitter, a shard queue
//! or the reply path — counts, and so does any lateness of the
//! generator itself (reported separately as `bench.gen_lag_p99_us`).
//!
//! Two threads: a submitter that calls `ServeEngine::submit` on schedule
//! and a collector that waits on the replies in submission order, the
//! way a fan-in front end gathers one burst's answers.

use crate::stats::{median_f64, quantile};
use crate::trace::{Clock, SpanRec, Tracer};
use sisg_serve::{PendingResponse, ServeEngine, ServeError, ServeRequest, ServeResponse};
use std::sync::mpsc;

/// Most answered requests in one latency slice: enough for a slice's
/// p99 to have ten samples beyond it.
pub const SLICE: usize = 1_000;

/// Arrival tick of every open-loop schedule.
pub const TICK_NS: u64 = 1_000_000;

/// Sleep only while the next due time is further away than this, and
/// yield-spin otherwise: at 1 ms ticks the submitter never sleeps, so a
/// burst starts within a few µs of its tick instead of after the timer's
/// wake-up slack, and the spin yields to any runnable worker.
const SPIN_NS: u64 = 2_000_000;

/// In traced runs, every `SPAN_EVERY`-th request keeps its three spans
/// (request, submit, wait) in the span log; layer timings still cover
/// every request.
const SPAN_EVERY: u64 = 16;

/// Span ids of request `i` are `REQUEST_SPAN_BASE + 3i (+1, +2)`, far
/// above the ids set-up tracers hand out.
const REQUEST_SPAN_BASE: u64 = 1 << 40;

/// A deterministic request stream: request `index` is a pure function of
/// the index (and the workload's seed), whatever the timing.
pub trait Traffic: Sync {
    /// The request at global position `index`.
    fn request(&self, index: u64) -> ServeRequest;
}

/// One open-loop phase: `rate` requests per second for `duration_ns`,
/// numbering its requests from `first_index`.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Requests per second.
    pub rate: f64,
    /// Length of the arrival schedule.
    pub duration_ns: u64,
    /// Global index of the phase's first request.
    pub first_index: u64,
    /// Record per-request layer timings and spans.
    pub traced: bool,
}

impl LoadSpec {
    /// Requests the schedule offers.
    pub fn offered(&self) -> u64 {
        let ticks = self.duration_ns / TICK_NS;
        self.due_by_tick(ticks.saturating_sub(1))
    }

    /// Cumulative requests due at or before tick `k`.
    fn due_by_tick(&self, k: u64) -> u64 {
        ((k + 1) as f64 * self.rate * TICK_NS as f64 / 1e9).floor() as u64
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Requests submitted.
    pub offered: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests refused by a full queue or an exhausted budget.
    pub shed: u64,
    /// Failures other than sheds (each fails the run).
    pub errors: Vec<String>,
    /// Due-to-collected latency of each answered request, in
    /// submission order.
    pub latencies_ns: Vec<u64>,
    /// Due time of each answered request, parallel to `latencies_ns`.
    pub due_ns: Vec<u64>,
    /// How late each burst's first submit started after its tick.
    pub burst_lag_ns: Vec<u64>,
    /// Caller time inside `ServeEngine::submit` (traced phases only).
    pub submit_ns: Vec<u64>,
    /// Time inside `PendingResponse::wait` (traced phases only).
    pub wait_ns: Vec<u64>,
    /// Spans of sampled requests (traced phases only).
    pub spans: Vec<SpanRec>,
}

impl LoadResult {
    /// Latency quantile over every answered request, in ns.
    pub fn latency_q(&self, q: f64) -> f64 {
        quantile(&mut self.latencies_ns.clone(), q)
    }

    /// The median, over consecutive slices of [`SLICE`] answered
    /// requests, of each slice's latency `q`-quantile, in ns: a stall that
    /// lands in one slice moves one of the values, not the median.
    pub fn sliced_q(&self, q: f64) -> f64 {
        median_f64(&self.slice_quantiles(q, None))
    }

    /// Each slice's latency `q`-quantile, in order. A slice holds
    /// [`SLICE`] consecutive answered requests, or fewer when `max_span_ns`
    /// is set and their due times would span more than that.
    fn slice_quantiles(&self, q: f64, max_span_ns: Option<u64>) -> Vec<f64> {
        let n = self.latencies_ns.len();
        let span = max_span_ns.unwrap_or(u64::MAX);
        let mut out = Vec::new();
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n && end - start < SLICE && self.due_ns[end] - self.due_ns[start] < span {
                end += 1;
            }
            out.push(quantile(&mut self.latencies_ns[start..end].to_vec(), q));
            start = end;
        }
        out
    }

    /// The median of the slices' `q`-quantiles over slices of at most
    /// [`SLICE`] requests and [`VERDICT_SLICE_NS`] of due time: short
    /// enough in time that most slices fall between two host stalls at
    /// any offered rate, so the median describes the engine, not the host.
    pub fn verdict_q(&self, q: f64) -> f64 {
        median_f64(&self.slice_quantiles(q, Some(VERDICT_SLICE_NS)))
    }

    /// [`LoadResult::verdict_q`] of the median over the final half's
    /// slices only: with a growing backlog latency rises through the run,
    /// while one stall moves only the slices it lands in.
    pub fn final_half_p50(&self) -> f64 {
        let p50s = self.slice_quantiles(0.5, Some(VERDICT_SLICE_NS));
        median_f64(&p50s[p50s.len() / 2..])
    }
}

struct Submitted {
    index: u64,
    due_ns: u64,
    submit_start: u64,
    submit_end: u64,
    pending: Result<PendingResponse, ServeError>,
}

/// Sleeps, then yield-spins, until the run clock reaches `due_ns`.
pub fn wait_until(clock: Clock, due_ns: u64) {
    loop {
        let now = clock.now_ns();
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(std::time::Duration::from_nanos(left - SPIN_NS));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs one open-loop phase against `engine`. `on_response` sees every
/// answered request (index, response, collection time) on the collector
/// thread, so it must stay cheap.
pub fn run(
    engine: &ServeEngine,
    clock: Clock,
    spec: LoadSpec,
    traffic: &dyn Traffic,
    on_response: &mut dyn FnMut(u64, &ServeResponse, u64),
) -> LoadResult {
    let (tx, rx) = mpsc::channel::<Submitted>();
    let start_ns = clock.now_ns() + TICK_NS;
    let ticks = spec.duration_ns / TICK_NS;
    let traced = spec.traced;
    // Buffers are sized up front so their growth does not show in
    // `peak_rss_mb` differently from run to run.
    let offered = spec.offered() as usize;
    let mut result = LoadResult {
        latencies_ns: Vec::with_capacity(offered),
        due_ns: Vec::with_capacity(offered),
        wait_ns: Vec::with_capacity(if traced { offered } else { 0 }),
        ..LoadResult::default()
    };
    let (burst_lag_ns, submit_ns) = std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut lags = Vec::with_capacity(ticks as usize);
            let mut submit_ns = Vec::with_capacity(if traced { offered } else { 0 });
            let mut sent = 0u64;
            for k in 0..ticks {
                let due_ns = start_ns + k * TICK_NS;
                let due_total = spec.due_by_tick(k);
                if sent == due_total {
                    continue;
                }
                wait_until(clock, due_ns);
                lags.push(clock.now_ns() - due_ns);
                while sent < due_total {
                    let index = spec.first_index + sent;
                    let req = traffic.request(index);
                    let submit_start = if traced { clock.now_ns() } else { 0 };
                    let pending = engine.submit(req);
                    let submit_end = if traced { clock.now_ns() } else { 0 };
                    if traced {
                        submit_ns.push(submit_end - submit_start);
                    }
                    sent += 1;
                    let msg = Submitted {
                        index,
                        due_ns,
                        submit_start,
                        submit_end,
                        pending,
                    };
                    if tx.send(msg).is_err() {
                        return (lags, submit_ns);
                    }
                }
            }
            (lags, submit_ns)
        });
        for msg in rx {
            result.offered += 1;
            let pending = match msg.pending {
                Ok(p) => p,
                Err(ServeError::Overloaded { .. } | ServeError::SloBudgetExhausted { .. }) => {
                    result.shed += 1;
                    continue;
                }
                Err(e) => {
                    result.errors.push(format!("request {}: {e}", msg.index));
                    continue;
                }
            };
            let wait_start = if traced { clock.now_ns() } else { 0 };
            let answer = pending.wait();
            let done_ns = clock.now_ns();
            match answer {
                Ok(resp) => {
                    result.completed += 1;
                    result.latencies_ns.push(done_ns - msg.due_ns);
                    result.due_ns.push(msg.due_ns);
                    on_response(msg.index, &resp, done_ns);
                }
                Err(ServeError::Overloaded { .. } | ServeError::SloBudgetExhausted { .. }) => {
                    result.shed += 1;
                }
                Err(e) => result.errors.push(format!("request {}: {e}", msg.index)),
            }
            if traced {
                result.wait_ns.push(done_ns - wait_start);
                if msg.index % SPAN_EVERY == 0 {
                    let id = REQUEST_SPAN_BASE + 3 * msg.index;
                    let span = |id, parent, name, start_ns, end_ns| SpanRec {
                        id,
                        parent,
                        name,
                        start_ns,
                        end_ns,
                        request: msg.index,
                    };
                    result.spans.extend([
                        span(id, 0, "request", msg.due_ns, done_ns),
                        span(id + 1, id, "serve.submit", msg.submit_start, msg.submit_end),
                        span(id + 2, id, "serve.wait", wait_start, done_ns),
                    ]);
                }
            }
        }
        submitter.join().expect("submitter thread panicked")
    });
    result.burst_lag_ns = burst_lag_ns;
    result.submit_ns = submit_ns;
    result
}

/// Moves a phase's request spans into a tracer.
pub fn keep_spans(tracer: &mut Option<Tracer>, result: &mut LoadResult) {
    if let Some(t) = tracer.as_mut() {
        for s in result.spans.drain(..) {
            t.record(s);
        }
    }
}

/// Longest due-time span of one slice for [`LoadResult::verdict_q`].
pub const VERDICT_SLICE_NS: u64 = 10 * TICK_NS;

/// A fixed geometric ladder of offered rates for `max_rps_at_slo`.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Lowest rung, requests per second.
    pub base: f64,
    /// Ratio between neighbouring rungs; the metric's resolution.
    pub ratio: f64,
    /// Number of rungs.
    pub rungs: usize,
}

impl Ladder {
    /// The rate of rung `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.base * self.ratio.powi(i as i32)
    }
}

/// One ladder probe, for the report.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Rung probed.
    pub rung: usize,
    /// Offered rate.
    pub rate: f64,
    /// The probe's p99 ([`LoadResult::verdict_q`]), µs.
    pub p99_us: f64,
    /// Final-half median latency ([`LoadResult::final_half_p50`]), µs.
    pub tail_p50_us: f64,
    /// Requests shed.
    pub shed: u64,
    /// Verdict.
    pub pass: bool,
}

/// Finds the highest rung at which p99 latency stays within `limit_ns`,
/// nothing is shed, and the backlog does not grow. A probe's p99 is
/// [`LoadResult::verdict_q`], and the backlog check asks
/// [`LoadResult::final_half_p50`] to be within the limit too. Two
/// independent bisections of the ladder run one after the other, each with
/// half of the `probes`, and the higher answer counts: host stalls can
/// fail a probe but never pass one, and a noisy second or two then spoils
/// at most one of the searches. Returns the rate (0 if even the lowest rung
/// fails) and the probes made.
#[allow(clippy::too_many_arguments)]
pub fn max_rps_at_slo(
    engine: &ServeEngine,
    clock: Clock,
    traffic: &dyn Traffic,
    ladder: Ladder,
    probe_ns: u64,
    probes: usize,
    limit_ns: f64,
    mut next_index: u64,
    errors: &mut Vec<String>,
) -> (f64, Vec<Probe>) {
    let mut made = Vec::new();
    let mut probe = |rung: usize, next_index: &mut u64| -> bool {
        let spec = LoadSpec {
            rate: ladder.rate(rung),
            duration_ns: probe_ns,
            first_index: *next_index,
            traced: false,
        };
        *next_index += spec.offered();
        let mut r = run(engine, clock, spec, traffic, &mut |_, _, _| {});
        errors.append(&mut r.errors);
        let (p99, tail) = if r.latencies_ns.is_empty() {
            (f64::INFINITY, f64::INFINITY)
        } else {
            (r.verdict_q(0.99), r.final_half_p50())
        };
        let pass = r.shed == 0 && p99 <= limit_ns && tail <= limit_ns;
        made.push(Probe {
            rung,
            rate: spec.rate,
            p99_us: p99 / 1e3,
            tail_p50_us: tail / 1e3,
            shed: r.shed,
            pass,
        });
        pass
    };
    let mut best = 0usize;
    for _ in 0..2 {
        // Rungs below `lo` passed and rung `hi` failed in this search.
        let (mut lo, mut hi) = (0usize, ladder.rungs);
        let mut left = probes / 2;
        while lo < hi && left > 0 {
            let mid = lo + (hi - lo) / 2;
            left -= 1;
            if probe(mid, &mut next_index) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        best = best.max(lo);
    }
    let rate = if best == 0 {
        0.0
    } else {
        ladder.rate(best - 1)
    };
    (rate, made)
}
