//! `daily_refresh`: writes beside reads.
//!
//! Phase A (set-up) warm-starts an `IngestPipeline` on "today", the first
//! 60% of the click log, with two training threads, freezes the model and
//! starts the engine on it. Phase B streams tomorrow's sessions in at a
//! fixed open-loop rate: the benchmark calls `ingest_batch` as each batch
//! falls due and `publish(engine, now)` every few batches, while a
//! fixed-rate open-loop query stream reads from the same engine. It is the
//! only workload that trains (`sgns` batch and increment, `corpus`
//! enrichment), freezes (`core`), installs (`serve`), and makes readers
//! pay for cache clears on every publish.

use super::{
    check_errors, engine_config, generate_corpus, histogram_q, max_rps, metric, recall,
    repeat_setup, serve_layer_metrics, ColdPathBytes, Ctx, ResponseTally, ServeCounters,
    SetupLayers, SgnsDelta, UniformItems, K, SHARDS,
};
use crate::load::{self, wait_until, LoadResult, LoadSpec, TICK_NS};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median_f64, quantile};
use sisg_core::{ServingConfig, Variant};
use sisg_corpus::split::{EvalCase, NextItemSplit, SplitStage};
use sisg_corpus::{Corpus, ItemId, SessionEvent, TokenId};
use sisg_eval::evaluate_hit_rates;
use sisg_obs::{names, registry};
use sisg_serve::{ColdPathMode, ServeEngine, ServeRequest, ServingSnapshot};
use sisg_sgns::{resolve_engine, SgnsConfig, SubsampleTable, TrainEngine};
use sisg_stream::{IngestPipeline, StreamConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// p99 limit of the readers' `max_rps_at_slo`.
const SLO_NS: f64 = 1_000_000.0;
/// Share of the log that is "today".
const TODAY: f64 = 0.6;
/// Readers keep running this long after the last event, so the final
/// publication is observed.
const READER_TAIL_NS: u64 = 500_000_000;
/// Items whose final engine answers are compared with the direct
/// `MatchingService` answers.
const RECALL_SAMPLES: u32 = 200;

struct Artifacts {
    pipeline: IngestPipeline,
    engine: ServeEngine,
    /// Tomorrow's sessions minus their held-out last clicks, in arrival
    /// order.
    tomorrow: Vec<(sisg_corpus::UserId, Vec<ItemId>)>,
    eval: Vec<EvalCase>,
    traffic: UniformItems,
    layers: SetupLayers,
    engine_label: String,
}

fn stream_config(ctx: &Ctx) -> StreamConfig {
    StreamConfig {
        variant: Variant::SisgFU,
        sgns: SgnsConfig {
            dim: ctx.cfg.scale.dim,
            window: 2,
            negatives: 2,
            epochs: 1,
            threads: 2,
            seed: ctx.cfg.seed,
            ..Default::default()
        },
        serving: ServingConfig {
            k: K,
            min_clicks_for_warm: 2,
        },
        batch_sessions: ctx.cfg.scale.batch_sessions,
        publish_every: ctx.cfg.scale.publish_every,
    }
}

/// The engine `TrainEngine::Auto` resolves to for the warm start: the
/// pipeline trains with the variant's window mode and its window scaled by
/// the expected surviving tokens per surviving item occurrence, so the
/// same scaling is applied here before asking `resolve_engine`.
fn resolved_engine(pipeline: &IngestPipeline, config: &StreamConfig) -> TrainEngine {
    let mut sgns = config.sgns.clone();
    sgns.window_mode = config.variant.window_mode();
    let freqs = pipeline.freqs();
    let table = SubsampleTable::new(freqs, sgns.subsample);
    let n_items = pipeline.space().n_items() as usize;
    let (mut surviving, mut surviving_items) = (0.0f64, 0.0f64);
    for (i, &c) in freqs.iter().enumerate() {
        let kept = f64::from(table.keep_prob(TokenId(i as u32))) * c as f64;
        surviving += kept;
        if i < n_items {
            surviving_items += kept;
        }
    }
    if surviving_items > 0.0 {
        sgns.window *= ((surviving / surviving_items).round() as usize).max(1);
    }
    resolve_engine(freqs, &sgns)
}

fn setup(ctx: &mut Ctx, root: u64, _kept: bool) -> (Artifacts, f64) {
    let (corpus, generate_s) = generate_corpus(ctx, root);
    let boundary = (corpus.sessions.len() as f64 * TODAY) as usize;
    let (mut today, mut tomorrow_all) = (Corpus::new(), Corpus::new());
    for (i, s) in corpus.sessions.iter().enumerate() {
        if i < boundary {
            today.push(s.user, s.items);
        } else {
            tomorrow_all.push(s.user, s.items);
        }
    }
    let split = NextItemSplit::default().split(&tomorrow_all, SplitStage::Test);
    let config = stream_config(ctx);
    let mut pipeline =
        IngestPipeline::new(corpus.catalog.clone(), corpus.users.clone(), config.clone())
            .expect("stream config is valid");
    let (warm, sgns_delta) = SgnsDelta::around(ctx, root, || pipeline.warm_start(&today));
    warm.expect("warm start trains");
    let engine_label = format!("{:?}", resolved_engine(&pipeline, &config));
    let (_, service_build_s, service) = ctx.span("core.service_build", root, || pipeline.freeze());
    let service = service.expect("warm-start model freezes");
    let engine_config = engine_config()
        .cache_capacity(1_024)
        .cache_admit_after(1)
        .build()
        .expect("engine config is valid");
    let (_, snapshot_build_s, engine) = ctx.span("serve.snapshot_build", root, || {
        ServeEngine::start(service, engine_config)
    });
    let engine = engine.expect("engine starts");
    let setup_s = generate_s + sgns_delta.seconds + service_build_s + snapshot_build_s;
    let traffic = UniformItems {
        seed: ctx.cfg.seed,
        si_values: (0..corpus.config.n_items)
            .map(|i| *corpus.catalog.si_values(ItemId(i)))
            .collect(),
    };
    let tomorrow = split
        .train
        .iter()
        .map(|s| (s.user, s.items.to_vec()))
        .collect();
    (
        Artifacts {
            pipeline,
            engine,
            tomorrow,
            eval: split.eval,
            traffic,
            layers: SetupLayers {
                generate_s,
                service_build_s,
                snapshot_build_s,
                sgns: sgns_delta,
            },
            engine_label,
        },
        setup_s,
    )
}

/// What the reader collector observes.
#[derive(Default)]
struct Readers {
    /// `first_seen[e]`: collection time of the first response on epoch `e`.
    first_seen: Vec<u64>,
    /// Newest epoch answered per shard.
    last_epoch: [u64; SHARDS],
    /// Responses whose epoch was older than the shard's previous one.
    backwards: u64,
    tally: ResponseTally,
}

impl Readers {
    fn observe(&mut self, shard: usize, epoch: u64, cache_hit: bool, done_ns: u64, installed: u64) {
        let e = epoch as usize;
        if self.first_seen.len() <= e {
            self.first_seen.resize(e + 1, u64::MAX);
        }
        self.first_seen[e] = self.first_seen[e].min(done_ns);
        if let Some(last) = self.last_epoch.get_mut(shard) {
            if epoch < *last {
                self.backwards += 1;
            }
            *last = (*last).max(epoch);
        }
        self.tally.cache_hits += u64::from(cache_hit);
        self.tally.stale += u64::from(epoch < installed);
    }

    /// The first collection time of any response on epoch `epoch` or later.
    fn first_at_or_after(&self, epoch: u64) -> Option<u64> {
        self.first_seen
            .get(epoch as usize..)?
            .iter()
            .copied()
            .min()
            .filter(|&t| t != u64::MAX)
    }
}

/// One phase B window.
struct Window {
    readers: LoadResult,
    seen: Readers,
    /// Due-to-first-served time of every published event, ns.
    freshness_ns: Vec<u64>,
    /// Published events no reader response ever carried.
    unobserved: u64,
    ingest_ns: Vec<u64>,
    publish_ns: Vec<u64>,
    batches: u64,
    publishes: u64,
    errors: Vec<String>,
}

/// Streams `sessions` in at the fixed event rate while readers query the
/// engine, publishing every `publish_every` batches and once after the
/// last batch.
fn phase_b(
    ctx: &Ctx,
    a: &mut Artifacts,
    sessions: std::ops::Range<usize>,
    first_index: u64,
    traced: bool,
) -> Window {
    let clock = ctx.clock;
    let spacing_ns = 1e9 / ctx.cfg.scale.event_rate;
    let n = sessions.len();
    let events_ns = (n as f64 * spacing_ns) as u64;
    let spec = LoadSpec {
        rate: ctx.cfg.scale.reader_rate,
        duration_ns: (events_ns + READER_TAIL_NS) / TICK_NS * TICK_NS,
        first_index,
        traced,
    };
    let batch = ctx.cfg.scale.batch_sessions;
    let publish_every = ctx.cfg.scale.publish_every;
    let installed = AtomicU64::new(a.engine.epoch());
    let Artifacts {
        pipeline,
        engine,
        tomorrow,
        traffic,
        ..
    } = a;
    let (engine, traffic) = (&*engine, &*traffic);
    let mut w = Window {
        readers: LoadResult::default(),
        seen: Readers::default(),
        freshness_ns: Vec::new(),
        unobserved: 0,
        ingest_ns: Vec::new(),
        publish_ns: Vec::new(),
        batches: 0,
        publishes: 0,
        errors: Vec::new(),
    };
    let mut published: Vec<(u64, Vec<u64>)> = Vec::new();
    let (readers, seen) = std::thread::scope(|scope| {
        let installed = &installed;
        let reader = scope.spawn(move || {
            let mut seen = Readers::default();
            let r = load::run(engine, clock, spec, traffic, &mut |_, resp, done| {
                // ORDERING: Acquire pairs with the Release store after each
                // publish: a response collected after the store sees it.
                seen.observe(
                    resp.shard,
                    resp.epoch,
                    resp.cache_hit,
                    done,
                    installed.load(Ordering::Acquire),
                );
            });
            (r, seen)
        });
        // The readers' schedule starts one tick from their spawn.
        let t0 = clock.now_ns() + TICK_NS;
        let due = |j: usize| t0 + (j as f64 * spacing_ns) as u64;
        let mut pending: Vec<u64> = Vec::new();
        let mut since_publish = 0usize;
        let chunks: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(batch.max(1))
            .map(|s| s..(s + batch).min(n))
            .collect();
        for (b, range) in chunks.iter().enumerate() {
            wait_until(clock, due(range.end - 1));
            let events: Vec<SessionEvent> = range
                .clone()
                .map(|j| {
                    let (user, items) = &tomorrow[sessions.start + j];
                    pending.push(due(j));
                    SessionEvent {
                        time: due(j) / 1_000,
                        user: *user,
                        items: items.clone(),
                    }
                })
                .collect();
            let start = clock.now_ns();
            let ingested = pipeline.ingest_batch(&events);
            w.ingest_ns.push(clock.now_ns() - start);
            w.batches += 1;
            if let Err(e) = ingested {
                w.errors.push(format!("ingest batch {b}: {e}"));
            }
            since_publish += 1;
            if since_publish == publish_every || b + 1 == chunks.len() {
                since_publish = 0;
                let start = clock.now_ns();
                let result = pipeline.publish(engine, start / 1_000);
                w.publish_ns.push(clock.now_ns() - start);
                w.publishes += 1;
                match result {
                    Ok(epoch) => {
                        // ORDERING: Release pairs with the readers' Acquire load.
                        installed.store(epoch, Ordering::Release);
                        published.push((epoch, std::mem::take(&mut pending)));
                    }
                    Err(e) => w.errors.push(format!("publish after batch {b}: {e}")),
                }
            }
        }
        reader.join().expect("reader thread panicked")
    });
    for (epoch, dues) in published {
        match seen.first_at_or_after(epoch) {
            Some(t) => w
                .freshness_ns
                .extend(dues.iter().map(|&d| t.saturating_sub(d))),
            None => w.unobserved += dues.len() as u64,
        }
    }
    w.errors.extend(readers.errors.iter().cloned());
    w.readers = readers;
    w.seen = seen;
    w
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let reps = ctx.cfg.scale.setup_reps;
    let (mut a, setup_s) = repeat_setup(ctx, reps, setup);
    out.labels.push((
        "train_engine",
        format!(
            "TrainEngine::Auto resolved to {} (2 threads)",
            a.engine_label
        ),
    ));

    let warm_up = LoadSpec {
        rate: ctx.cfg.scale.reader_rate,
        duration_ns: ctx.cfg.window_ns(0.05),
        first_index: 1 << 50,
        traced: false,
    };
    let mut errors = load::run(&a.engine, ctx.clock, warm_up, &a.traffic, &mut |_, _, _| {}).errors;

    let per_window = ((ctx.cfg.scale.event_rate * ctx.cfg.seconds * 0.45) as usize)
        .min(a.tomorrow.len() / 2)
        .max(1);
    let epoch_before = a.engine.epoch();
    let first = phase_b(ctx, &mut a, 0..per_window, 0, false);
    out.peak_rss_mb = peak_rss_mb();
    let mut windows = vec![first];
    if ctx.cfg.traced {
        registry()
            .histogram(&format!("{}.us", names::STREAM_TRAIN_SPAN))
            .reset();
        let before = ServeCounters::start_window();
        let mut traced = phase_b(ctx, &mut a, per_window..2 * per_window, 1 << 48, true);
        serve_layer_metrics(
            &mut out,
            &traced.readers,
            &windows[0].readers,
            before,
            traced.seen.tally,
            ColdPathBytes::Brute {
                items: ctx.cfg.scale.items as usize,
                dim: ctx.cfg.scale.dim,
            },
            traced.publishes,
        );
        a.layers.report(&mut out);
        let increment_ms = histogram_q(
            registry().histogram(&format!("{}.us", names::STREAM_TRAIN_SPAN)),
            0.5,
        ) / 1e3;
        let ms = |v: &[u64], q: f64| quantile(&mut v.to_vec(), q) / 1e6;
        let ingest_p50 = ms(&traced.ingest_ns, 0.5);
        out.workload_metrics.extend([
            metric("stream.ingest_batch_ms_p50", "ms", ingest_p50),
            metric(
                "stream.ingest_batch_ms_p99",
                "ms",
                ms(&traced.ingest_ns, 0.99),
            ),
            metric("sgns.increment_ms_p50", "ms", increment_ms),
            metric("stream.enrich_ms_p50", "ms", ingest_p50 - increment_ms),
            metric("stream.publish_ms_p50", "ms", ms(&traced.publish_ns, 0.5)),
            metric("stream.publish_ms_p99", "ms", ms(&traced.publish_ns, 0.99)),
        ]);
        out.notes.push("sgns.increment_ms_p50 is read from the stream.train span histogram; stream.enrich_ms_p50 is ingest-batch p50 minus increment p50".into());
        load::keep_spans(&mut ctx.tracer, &mut traced.readers);
        windows.push(traced);
    }

    let mut freshness: Vec<u64> = Vec::new();
    let (mut publishes, mut unobserved, mut backwards) = (0u64, 0u64, 0u64);
    for w in &windows {
        out.attempted += w.readers.offered + w.batches + w.publishes;
        out.failed += w.readers.shed + w.errors.len() as u64;
        errors.extend(w.errors.iter().cloned());
        freshness.extend(&w.freshness_ns);
        publishes += w.publishes;
        unobserved += w.unobserved;
        backwards += w.seen.backwards;
    }
    let final_epoch = a.engine.epoch();
    out.check(
        "response epochs never go backwards on a shard",
        backwards == 0,
        format!("{backwards} backwards steps"),
    );
    out.check(
        "final epoch equals the number of publishes",
        final_epoch - epoch_before == publishes && a.pipeline.publishes() == publishes,
        format!("epoch {final_epoch} (from {epoch_before}), {publishes} publishes"),
    );
    out.check(
        "every published event was served on a new epoch",
        unobserved == 0 && !freshness.is_empty(),
        format!(
            "{} events measured, {unobserved} unobserved",
            freshness.len()
        ),
    );

    // Final-state answers against the direct service of the same model.
    let service = a.pipeline.freeze().expect("final model freezes");
    let (mut hits, mut total, mut mismatched) = (0usize, 0usize, 0u64);
    let n_items = ctx.cfg.scale.items;
    for s in 0..RECALL_SAMPLES.min(n_items) {
        let item = ItemId(s * n_items / RECALL_SAMPLES.min(n_items));
        let si_values = a.traffic.si_values[item.index()];
        let want = service
            .candidates(item, &si_values, K)
            .expect("sampled item is in the catalog");
        match a.engine.serve(ServeRequest::Candidates {
            item,
            si_values,
            k: K,
        }) {
            Ok(resp) => {
                let got: Vec<ItemId> = resp.recommendations.iter().map(|r| r.item).collect();
                let truth: Vec<ItemId> = want.iter().map(|r| r.item).collect();
                let (h, t) = recall(&got, &truth);
                hits += h;
                total += t;
                mismatched += u64::from(resp.recommendations != want);
            }
            Err(e) => errors.push(format!("final check request: {e}")),
        }
    }
    out.check(
        "final answers equal the direct MatchingService answers",
        mismatched == 0 && total > 0,
        format!(
            "{mismatched} of {} sampled items differ",
            RECALL_SAMPLES.min(n_items)
        ),
    );
    let hr = evaluate_hit_rates("final", a.engine.snapshot().model(), &a.eval, &[K])
        .at(K)
        .unwrap_or(f64::NAN);

    if ctx.cfg.traced {
        // `publish` installs inside one call; `ServeEngine::install` is
        // timed here on the final state, after the epoch check.
        let mut install_us = Vec::new();
        for _ in 0..3 {
            let snapshot = ServingSnapshot::from_service_with(
                a.pipeline.freeze().expect("final model freezes"),
                SHARDS,
                ColdPathMode::BruteForce,
            );
            let start = ctx.clock.now_ns();
            let installed = a.engine.install(snapshot);
            install_us.push((ctx.clock.now_ns() - start) as f64 / 1e3);
            if let Err(e) = installed {
                errors.push(format!("install: {e}"));
            }
        }
        out.workload_metrics
            .push(metric("serve.install_us", "us", median_f64(&install_us)));
        out.notes.push("serve.install_us is timed out of band: three installs of the final model after phase B".into());
    } else {
        let max_rps = max_rps(
            ctx,
            &mut out,
            &a.engine,
            &a.traffic,
            ctx.cfg.scale.reader_ladder_base,
            100,
            SLO_NS,
            &mut errors,
        );
        let r = &windows[0].readers;
        out.end_to_end.extend([
            metric("setup_s", "s", setup_s),
            metric("p50_us", "us", r.verdict_q(0.5) / 1e3),
            metric("recall_at_10", "ratio", hits as f64 / total.max(1) as f64),
        ]);
        out.workload_metrics
            .push(metric("max_rps_at_slo", "1/s", max_rps));
        out.workload_metrics
            .push(metric("p99_us", "us", r.sliced_q(0.99) / 1e3));
    }
    let ms = |q: f64| quantile(&mut freshness.clone(), q) / 1e6;
    out.workload_metrics.extend([
        metric("train_pairs_per_s", "1/s", a.layers.sgns.pairs_per_s()),
        metric("sgns.train_s", "s", a.layers.sgns.seconds),
        metric("freshness_p50_ms", "ms", ms(0.5)),
        metric("freshness_p99_ms", "ms", ms(0.99)),
        metric("hr_at_10", "ratio", hr),
        metric(
            "error_rate",
            "ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        ),
    ]);
    check_errors(&mut out, &errors);
    out
}
