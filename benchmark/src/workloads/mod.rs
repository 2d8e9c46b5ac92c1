//! The three workloads and what they share: scale, set-up repetition,
//! and the serve-layer accounting every workload reports.

pub mod cold_ann;
pub mod daily_refresh;
pub mod warm_cached;

use crate::load::{self, Ladder, LoadResult, Traffic, TICK_NS};
use crate::report::{Metric, Outcome};
use crate::stats::{median_f64, mix64, quantile};
use crate::trace::{Clock, Tracer, NO_REQUEST};
use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemFeature, ItemId};
use sisg_obs::{names, registry, Histogram, HISTOGRAM_BUCKETS};
use sisg_serve::{ServeEngine, ServeEngineConfig, ServeEngineConfigBuilder, ServeRequest};

/// Workers in every engine the benchmark starts.
pub const SHARDS: usize = 2;
/// Probes per `max_rps_at_slo` search, and the share of the measured
/// window they take together.
const LADDER_PROBES: usize = 14;
/// See [`LADDER_PROBES`].
const LADDER_SHARE: f64 = 0.45;
/// Candidates per request.
pub const K: usize = 10;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Online matching over a trained artifact, dominated by the serve
    /// handoff and the admission cache.
    WarmCached,
    /// All-cold uniform traffic over a 100k-item catalog through the
    /// quantized ANN cold path.
    ColdAnn,
    /// Streaming ingest and publication beside a query stream.
    DailyRefresh,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WarmCached,
        Workload::ColdAnn,
        Workload::DailyRefresh,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmCached => "warm_cached",
            Workload::ColdAnn => "cold_ann",
            Workload::DailyRefresh => "daily_refresh",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and offered rates. [`Scale::full`] is the benchmark;
/// [`Scale::tiny`] is the self-test's seconds-scale version.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Items of the trained catalog (`warm_cached`, `daily_refresh`).
    pub items: u32,
    /// Sessions of the generated click log.
    pub sessions: u32,
    /// Embedding dimension.
    pub dim: usize,
    /// Items of the synthesized all-cold catalog (`cold_ann`).
    pub cold_items: u32,
    /// Brute-force truth queries for `recall_at_10` on `cold_ann`: at 200,
    /// the estimate's own noise (about ±0.01) read 0.94 on a seed whose
    /// recall over 2,500 queries is 0.958.
    pub recall_samples: usize,
    /// Set-ups per run for `warm_cached` and `daily_refresh`.
    pub setup_reps: usize,
    /// Set-ups per run for `cold_ann` (each builds two 50k-item indexes).
    pub cold_setup_reps: usize,
    /// Nominal offered rate of `warm_cached`, requests/s.
    pub warm_rate: f64,
    /// Lowest `max_rps_at_slo` rung of `warm_cached`.
    pub warm_ladder_base: f64,
    /// Nominal offered rate of `cold_ann`, requests/s.
    pub cold_rate: f64,
    /// Lowest `max_rps_at_slo` rung of `cold_ann`.
    pub cold_ladder_base: f64,
    /// Click-event arrival rate of `daily_refresh`, sessions/s.
    pub event_rate: f64,
    /// Nominal reader rate of `daily_refresh`, requests/s.
    pub reader_rate: f64,
    /// Lowest `max_rps_at_slo` rung of `daily_refresh`'s readers.
    pub reader_ladder_base: f64,
    /// Sessions per ingest batch.
    pub batch_sessions: usize,
    /// Batches per publication.
    pub publish_every: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            items: 2_400,
            sessions: 7_500,
            dim: 64,
            cold_items: 100_000,
            recall_samples: 4_000,
            setup_reps: 3,
            cold_setup_reps: 2,
            warm_rate: 100_000.0,
            warm_ladder_base: 10_000.0,
            cold_rate: 1_000.0,
            cold_ladder_base: 500.0,
            event_rate: 300.0,
            reader_rate: 50_000.0,
            reader_ladder_base: 10_000.0,
            batch_sessions: 50,
            publish_every: 3,
        }
    }

    /// Seconds-scale sizes for the self-test.
    pub fn tiny() -> Self {
        Scale {
            items: 300,
            sessions: 900,
            dim: 16,
            cold_items: 3_000,
            recall_samples: 40,
            setup_reps: 2,
            cold_setup_reps: 2,
            warm_rate: 2_000.0,
            warm_ladder_base: 500.0,
            cold_rate: 300.0,
            cold_ladder_base: 100.0,
            event_rate: 200.0,
            reader_rate: 1_000.0,
            reader_ladder_base: 200.0,
            batch_sessions: 20,
            publish_every: 2,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Span tracing on: report per-layer metrics.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
}

impl RunConfig {
    /// `fraction` of the measured window, in ns, whole ticks.
    pub fn window_ns(&self, fraction: f64) -> u64 {
        let ns = (self.seconds * fraction * 1e9) as u64;
        (ns / TICK_NS).max(1) * TICK_NS
    }
}

/// Runs one workload.
pub fn run_workload(cfg: &RunConfig) -> Outcome {
    let clock = Clock::start();
    let mut ctx = Ctx {
        cfg: cfg.clone(),
        clock,
        tracer: cfg.traced.then(|| Tracer::new(clock, 0, 1 << 20)),
    };
    let mut outcome = match cfg.workload {
        Workload::WarmCached => warm_cached::run(&mut ctx),
        Workload::ColdAnn => cold_ann::run(&mut ctx),
        Workload::DailyRefresh => daily_refresh::run(&mut ctx),
    };
    if cfg.traced {
        outcome.per_layer.push(metric(
            "bench.spans",
            "count",
            ctx.tracer.as_ref().map_or(0, Tracer::len) as f64,
        ));
    } else {
        outcome
            .end_to_end
            .push(metric("peak_rss_mb", "MB", outcome.peak_rss_mb));
    }
    outcome.tracer = ctx.tracer.take();
    outcome
}

/// State shared by a workload's phases.
pub struct Ctx {
    /// The invocation.
    pub cfg: RunConfig,
    /// The run clock.
    pub clock: Clock,
    /// Span buffer of a traced run.
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// Times `f`, recording a span under `parent` in traced runs.
    /// Returns (span id or 0, seconds, result).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (u64, f64, T) {
        match self.tracer.as_mut() {
            Some(t) => {
                let (id, ns, out) = t.time(name, parent, f);
                (id, ns as f64 / 1e9, out)
            }
            None => {
                let start = self.clock.now_ns();
                let out = f();
                (0, (self.clock.now_ns() - start) as f64 / 1e9, out)
            }
        }
    }

    /// Opens a span whose end is recorded later with [`Ctx::close`].
    pub fn open(&mut self, parent: u64) -> (u64, u64, u64) {
        let id = self.tracer.as_mut().map_or(0, Tracer::reserve);
        (id, parent, self.clock.now_ns())
    }

    /// Closes a span opened with [`Ctx::open`]; returns its seconds.
    pub fn close(&mut self, name: &'static str, open: (u64, u64, u64)) -> f64 {
        let end_ns = self.clock.now_ns();
        if let Some(t) = self.tracer.as_mut() {
            t.record(crate::trace::SpanRec {
                id: open.0,
                parent: open.1,
                name,
                start_ns: open.2,
                end_ns,
                request: NO_REQUEST,
            });
        }
        (end_ns - open.2) as f64 / 1e9
    }
}

/// Builds a metric.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Repeats a workload's set-up `reps` times, each on the same inputs and
/// each dropping the previous artifacts first, and keeps the last. The
/// set-up function gets the parent span and whether this is the kept
/// (last) repetition, where it also computes the benchmark's truth; it
/// returns its artifacts and the seconds that count as set-up (program
/// work only). Returns the artifacts and the median set-up time.
pub fn repeat_setup<T>(
    ctx: &mut Ctx,
    reps: usize,
    mut setup: impl FnMut(&mut Ctx, u64, bool) -> (T, f64),
) -> (T, f64) {
    let reps = reps.max(1);
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<T> = None;
    for rep in 0..reps {
        drop(kept.take());
        let root = ctx.open(0);
        let (artifacts, seconds) = setup(ctx, root.0, rep + 1 == reps);
        ctx.close("setup", root);
        times.push(seconds);
        kept = Some(artifacts);
    }
    (kept.expect("at least one set-up ran"), median_f64(&times))
}

/// The generated click log every trained workload starts from.
pub fn generate_corpus(ctx: &mut Ctx, parent: u64) -> (GeneratedCorpus, f64) {
    let mut config = CorpusConfig::scaled(ctx.cfg.scale.items, ctx.cfg.seed);
    config.n_sessions = ctx.cfg.scale.sessions;
    let (_, secs, corpus) = ctx.span("corpus.generate", parent, || {
        GeneratedCorpus::generate(config)
    });
    (corpus, secs)
}

/// Click counts per item.
pub fn click_counts(corpus: &GeneratedCorpus) -> Vec<u64> {
    let mut clicks = vec![0u64; corpus.config.n_items as usize];
    for s in corpus.sessions.iter() {
        for it in s.items {
            clicks[it.index()] += 1;
        }
    }
    clicks
}

/// The engine configuration every workload shares: two shards, queues
/// deep enough that a nominal-rate burst never sheds.
pub fn engine_config() -> ServeEngineConfigBuilder {
    ServeEngineConfig::builder()
        .n_shards(SHARDS)
        .queue_capacity(8_192)
}

/// Counter readings of the process-global obs registry. Each workload
/// runs in its own process, and every figure is a delta between two
/// readings around the window it describes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    requests: u64,
    cache_clears: u64,
    quant_searches: u64,
    quant_reranked: u64,
    ann_hops_count: u64,
    ann_hops_sum: u64,
}

impl ServeCounters {
    /// Reads the counters now, and restarts the service-time histogram
    /// so its quantiles cover only the window that starts here.
    pub fn start_window() -> Self {
        registry().histogram(names::SERVE_REQUEST_NS).reset();
        Self::read()
    }

    fn read() -> Self {
        let r = registry();
        let hops = r.histogram(names::SERVE_ANN_HOPS);
        ServeCounters {
            requests: r.counter(names::SERVE_REQUESTS_TOTAL).get(),
            cache_clears: r.counter(names::SERVE_CACHE_CLEARS_TOTAL).get(),
            quant_searches: r.counter(names::SERVE_QUANT_COLD_SEARCHES_TOTAL).get(),
            quant_reranked: r.counter(names::SERVE_QUANT_RERANKED_TOTAL).get(),
            ann_hops_count: hops.count(),
            ann_hops_sum: hops.sum(),
        }
    }
}

/// How a workload's cold path touches embedding rows, for the computed
/// `embedding.*` figures.
#[derive(Debug, Clone, Copy)]
pub enum ColdPathBytes {
    /// Exact f32 scan of every item row per cold search.
    Brute { items: usize, dim: usize },
    /// int8 HNSW hops plus exact f32 re-rank.
    Quant { dim: usize },
}

/// Response-side tallies the collector keeps during a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResponseTally {
    /// Responses answered from the admission cache.
    pub cache_hits: u64,
    /// Responses on an epoch older than the newest installed one.
    pub stale: u64,
}

/// The serve, ann and embedding per-layer metrics of one traced window,
/// plus the tracing overhead against the untraced window run just
/// before it at the same rate.
pub fn serve_layer_metrics(
    out: &mut Outcome,
    traced: &LoadResult,
    untraced: &LoadResult,
    before: ServeCounters,
    tally: ResponseTally,
    cold: ColdPathBytes,
    extra_requests: u64,
) {
    let after = ServeCounters::read();
    let service = registry().histogram(names::SERVE_REQUEST_NS);
    let us = |ns: f64| ns / 1e3;
    let submit_p50 = quantile(&mut traced.submit_ns.clone(), 0.5);
    let submit_p99 = quantile(&mut traced.submit_ns.clone(), 0.99);
    let wait_p50 = quantile(&mut traced.wait_ns.clone(), 0.5);
    let wait_p99 = quantile(&mut traced.wait_ns.clone(), 0.99);
    let service_p50 = histogram_q(service, 0.5);
    let service_p99 = histogram_q(service, 0.99);
    let completed = traced.completed.max(1) as f64;
    let searches = after.quant_searches - before.quant_searches;
    let per_search = |v: u64| {
        if searches == 0 {
            0.0
        } else {
            v as f64 / searches as f64
        }
    };
    let hops = if after.ann_hops_count == before.ann_hops_count {
        0.0
    } else {
        (after.ann_hops_sum - before.ann_hops_sum) as f64
            / (after.ann_hops_count - before.ann_hops_count) as f64
    };
    let reranked = per_search(after.quant_reranked - before.quant_reranked);
    let (bytes_per_item, bytes_per_search) = match cold {
        ColdPathBytes::Brute { items, dim } => ((dim * 4) as f64, (items * dim * 4) as f64),
        ColdPathBytes::Quant { dim } => (
            (dim + 4) as f64,
            hops * (dim + 4) as f64 + reranked * (dim * 4) as f64,
        ),
    };
    let requests = after.requests - before.requests;
    out.check(
        "serve.requests_total delta equals the benchmark's completed count",
        requests == traced.completed + extra_requests,
        format!(
            "registry {requests}, benchmark {} completed + {extra_requests} engine-internal",
            traced.completed
        ),
    );
    let mut lag = traced.burst_lag_ns.clone();
    out.per_layer.extend([
        metric("serve.submit_us_p50", "us", us(submit_p50)),
        metric("serve.submit_us_p99", "us", us(submit_p99)),
        metric("serve.wait_us_p50", "us", us(wait_p50)),
        metric("serve.wait_us_p99", "us", us(wait_p99)),
        metric("serve.service_us_p50", "us", us(service_p50)),
        metric("serve.service_us_p99", "us", us(service_p99)),
        metric("serve.handoff_us_p50", "us", us(wait_p50 - service_p50)),
        metric(
            "serve.cache_hit_frac",
            "ratio",
            tally.cache_hits as f64 / completed,
        ),
        metric("serve.shed", "count", traced.shed as f64),
        metric("serve.requests_total", "count", requests as f64),
        metric(
            "serve.cache_clears",
            "count",
            (after.cache_clears - before.cache_clears) as f64,
        ),
        metric("serve.stale_frac", "ratio", tally.stale as f64 / completed),
        metric("ann.hops_per_search", "count", hops),
        metric("ann.reranked_per_search", "count", reranked),
        metric("embedding.bytes_per_item", "B", bytes_per_item),
        metric("embedding.bytes_per_search", "B", bytes_per_search),
        metric("bench.gen_lag_p99_us", "us", us(quantile(&mut lag, 0.99))),
        metric("bench.offered", "count", traced.offered as f64),
        metric("bench.completed", "count", traced.completed as f64),
        metric(
            "bench.trace_overhead_p50_us",
            "us",
            us(traced.latency_q(0.5) - untraced.latency_q(0.5)),
        ),
        metric(
            "bench.trace_overhead_p99_us",
            "us",
            us(traced.sliced_q(0.99) - untraced.sliced_q(0.99)),
        ),
    ]);
    out.notes.push("embedding.bytes_per_search is computed from hop and re-rank counts and row sizes (brute force: every item row), not measured".into());
}

/// The set-up per-layer metrics every workload shares.
pub struct SetupLayers {
    /// `GeneratedCorpus::generate` (or the catalog synthesis of `cold_ann`).
    pub generate_s: f64,
    /// `MatchingService::build` (or `IngestPipeline::freeze`).
    pub service_build_s: f64,
    /// `ServeEngine::start`, which reshards through
    /// `ServingSnapshot::from_service_with`.
    pub snapshot_build_s: f64,
    /// SGNS training counters (zero where the workload does not train).
    pub sgns: SgnsDelta,
}

/// Deltas of the SGNS counters around one training call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SgnsDelta {
    /// Positive pairs trained.
    pub pairs: u64,
    /// Tokens kept by subsampling.
    pub kept: u64,
    /// Tokens dropped by subsampling.
    pub dropped: u64,
    /// Seconds of the training call.
    pub seconds: f64,
}

impl SgnsDelta {
    /// Runs `train` and returns the counter deltas around it.
    pub fn around<T>(ctx: &mut Ctx, parent: u64, train: impl FnOnce() -> T) -> (T, SgnsDelta) {
        let r = registry();
        let read = || {
            (
                r.counter(names::SGNS_PAIRS_TOTAL).get(),
                r.counter(names::SGNS_TOKENS_TOTAL).get(),
                r.counter(names::SGNS_TOKENS_DROPPED_TOTAL).get(),
            )
        };
        let before = read();
        let (_, seconds, out) = ctx.span("sgns.train", parent, train);
        let after = read();
        let delta = SgnsDelta {
            pairs: after.0 - before.0,
            kept: after.1 - before.1,
            dropped: after.2 - before.2,
            seconds,
        };
        (out, delta)
    }

    /// Pairs per second of the training call.
    pub fn pairs_per_s(&self) -> f64 {
        if self.seconds > 0.0 {
            self.pairs as f64 / self.seconds
        } else {
            0.0
        }
    }
}

impl SetupLayers {
    /// Appends the set-up per-layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        let total = (self.sgns.kept + self.sgns.dropped).max(1) as f64;
        out.per_layer.extend([
            metric("corpus.generate_s", "s", self.generate_s),
            metric("core.service_build_s", "s", self.service_build_s),
            metric("serve.snapshot_build_s", "s", self.snapshot_build_s),
            metric("sgns.pairs", "count", self.sgns.pairs as f64),
            metric("sgns.keep_frac", "ratio", self.sgns.kept as f64 / total),
            metric("sgns.pairs_per_s", "1/s", self.sgns.pairs_per_s()),
        ]);
    }
}

/// Runs the `max_rps_at_slo` search over a ladder of 5% steps from `base`
/// and notes every probe in the report. Probe requests are numbered from
/// 2^49, clear of every other phase.
#[allow(clippy::too_many_arguments)]
pub fn max_rps(
    ctx: &Ctx,
    out: &mut Outcome,
    engine: &ServeEngine,
    traffic: &dyn Traffic,
    base: f64,
    rungs: usize,
    limit_ns: f64,
    errors: &mut Vec<String>,
) -> f64 {
    let ladder = Ladder {
        base,
        ratio: 1.05,
        rungs,
    };
    let probe_ns = ctx.cfg.window_ns(LADDER_SHARE / LADDER_PROBES as f64);
    let (rate, probes) = load::max_rps_at_slo(
        engine,
        ctx.clock,
        traffic,
        ladder,
        probe_ns,
        LADDER_PROBES,
        limit_ns,
        1 << 49,
        errors,
    );
    for p in &probes {
        out.notes.push(format!(
            "ladder rung {} {:.0} req/s: p99 {:.1} us, final-half p50 {:.1} us, shed {} -> {}",
            p.rung,
            p.rate,
            p.p99_us,
            p.tail_p50_us,
            p.shed,
            if p.pass { "pass" } else { "fail" }
        ));
    }
    rate
}

/// Fails the run on any error other than a shed.
pub fn check_errors(out: &mut Outcome, errors: &[String]) {
    out.check(
        "no error other than a shed",
        errors.is_empty(),
        errors.first().cloned().unwrap_or_else(|| "none".into()),
    );
}

/// Recall of `got` against `truth`: the share of truth items returned.
pub fn recall(got: &[ItemId], truth: &[ItemId]) -> (usize, usize) {
    (
        truth.iter().filter(|t| got.contains(t)).count(),
        truth.len(),
    )
}

/// Candidate requests with uniform keys over a whole catalog.
pub struct UniformItems {
    /// Workload seed.
    pub seed: u64,
    /// Catalog SI values, by item.
    pub si_values: Vec<[u32; ItemFeature::COUNT]>,
}

impl UniformItems {
    /// The item of request `index`.
    pub fn item(&self, index: u64) -> ItemId {
        ItemId((mix64(self.seed ^ mix64(index)) % self.si_values.len() as u64) as u32)
    }
}

impl Traffic for UniformItems {
    fn request(&self, index: u64) -> ServeRequest {
        let item = self.item(index);
        ServeRequest::Candidates {
            item,
            si_values: self.si_values[item.index()],
            k: K,
        }
    }
}

/// The `q`-quantile of an obs histogram, interpolated linearly inside the
/// bucket the rank falls in. `Histogram::quantile` answers with the
/// bucket's midpoint, a value that repeats exactly from run to run; the
/// bucket bounds here follow the registry's quarter-log2 layout (exact
/// below 8, four sub-buckets per octave above).
pub fn histogram_q(h: &Histogram, q: f64) -> f64 {
    let counts: Vec<u64> = (0..HISTOGRAM_BUCKETS).map(|i| h.bucket_count(i)).collect();
    let total: u64 = counts.iter().sum();
    let rank = (q * total as f64).max(1.0);
    let mut below = 0u64;
    for (idx, &c) in counts.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= rank {
            let (lo, width) = if idx < 8 {
                (idx as f64, 1.0)
            } else {
                let octave = 3 + (idx - 8) / 4;
                let width = (1u64 << (octave - 2)) as f64;
                (
                    (1u64 << octave) as f64 + ((idx - 8) % 4) as f64 * width,
                    width,
                )
            };
            return lo + (rank - below as f64) / c as f64 * width;
        }
        below += c;
    }
    f64::NAN
}
