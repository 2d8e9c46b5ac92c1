//! `cold_ann`: all-cold uniform traffic over a 100k-item synthesized
//! catalog, served through the quantized cold path (int8 HNSW per shard
//! at `ef_search` 96, exact f32 re-rank) with the cache off.
//!
//! Each request spends most of its time in HNSW hops, `dot_q8` and the
//! re-rank, so the serve handoff is a small share of its cost — the
//! opposite layer mix to `warm_cached`. Set-up is mostly the per-shard
//! index build.

use super::{
    check_errors, engine_config, max_rps, metric, recall, repeat_setup, serve_layer_metrics,
    ColdPathBytes, Ctx, ResponseTally, ServeCounters, SetupLayers, SgnsDelta, UniformItems, K,
};
use crate::load::{self, LoadSpec};
use crate::report::{peak_rss_mb, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_core::{MatchingService, ServingConfig, SisgModel, Variant};
use sisg_corpus::schema::SchemaCardinalities;
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{ItemFeature, ItemId, UserRegistry};
use sisg_embedding::EmbeddingStore;
use sisg_serve::{ColdPathMode, ServeEngine};

/// p99 limit of `max_rps_at_slo`.
const SLO_NS: f64 = 10_000_000.0;
/// Layer-0 beam width of the quantized cold path. `perf_serve` uses 96,
/// tuned for 8 shards of 12.5k items; with 2 shards of 50k items, 96 gave
/// recall@10 0.946 (seed 1), under the 0.95 check.
const EF_SEARCH: usize = 128;

/// The catalog: `n_items` items at `dim` dimensions, all cold, built
/// without training. Every SI token keeps its seeded random init and an
/// item's vector is the sum of its SI vectors plus item noise, so items
/// sharing shop, brand or category cluster the way Eq. 6 inference
/// expects, while every item stays distinct.
fn synthesize(
    n_items: u32,
    dim: usize,
    seed: u64,
) -> (SisgModel, UserRegistry, Vec<[u32; ItemFeature::COUNT]>) {
    let cards = SchemaCardinalities::for_items(n_items);
    let users = UserRegistry::generate(64, 4, seed);
    let space = TokenSpace::new(n_items, &cards, users.n_user_types());
    let mut store = EmbeddingStore::new(space.len(), dim, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C);
    let si_values: Vec<[u32; ItemFeature::COUNT]> = (0..n_items)
        .map(|_| {
            let mut vals = [0u32; ItemFeature::COUNT];
            for feature in ItemFeature::ALL {
                vals[feature.slot()] = rng.gen_range(0..cards.cardinality(feature));
            }
            vals
        })
        .collect();
    for (i, vals) in si_values.iter().enumerate() {
        let mut row = vec![0.0f32; dim];
        for feature in ItemFeature::ALL {
            let token = space.side_info(feature, vals[feature.slot()]);
            for (r, &v) in row.iter_mut().zip(store.input(token)) {
                *r += v;
            }
        }
        for r in row.iter_mut() {
            *r += (rng.gen::<f32>() - 0.5) / dim as f32;
        }
        store.input_matrix_mut().row_mut(i).copy_from_slice(&row);
    }
    let model = SisgModel::from_store(Variant::SisgFU, space, store)
        .expect("synthesized store covers the space");
    (model, users, si_values)
}

struct Artifacts {
    engine: ServeEngine,
    traffic: UniformItems,
    /// (request index, brute-force top-K) of the recall sample.
    truth: Vec<(u64, Vec<ItemId>)>,
    layers: SetupLayers,
}

fn nominal_spec(ctx: &Ctx, first_index: u64, traced: bool) -> LoadSpec {
    LoadSpec {
        rate: ctx.cfg.scale.cold_rate,
        duration_ns: ctx.cfg.window_ns(0.5),
        first_index,
        traced,
    }
}

fn setup(ctx: &mut Ctx, root: u64, kept: bool) -> (Artifacts, f64) {
    let (n_items, dim, seed) = (ctx.cfg.scale.cold_items, ctx.cfg.scale.dim, ctx.cfg.seed);
    let (_, generate_s, (model, users, si_values)) =
        ctx.span("corpus.generate", root, || synthesize(n_items, dim, seed));
    let serving = ServingConfig {
        k: K,
        min_clicks_for_warm: 1,
    };
    let clicks = vec![0u64; n_items as usize];
    let (_, service_build_s, service) = ctx.span("core.service_build", root, || {
        MatchingService::build(model, users, &clicks, serving)
    });
    let service = service.expect("serving config is valid");
    let traffic = UniformItems { seed, si_values };

    // Brute-force truth for an evenly spaced sample of the nominal
    // window's requests, on the kept set-up only and on both cores:
    // benchmark work, not set-up.
    let offered = nominal_spec(ctx, 0, false).offered().max(1);
    let samples = if kept {
        (ctx.cfg.scale.recall_samples as u64).min(offered)
    } else {
        0
    };
    let truth_of = |j: u64| {
        let index = j * offered / samples;
        let item = traffic.item(index);
        let top: Vec<ItemId> = service
            .candidates(item, &traffic.si_values[item.index()], K)
            .expect("sampled item is in the catalog")
            .into_iter()
            .map(|r| r.item)
            .collect();
        (index, top)
    };
    let half = samples / 2;
    let truth = std::thread::scope(|scope| {
        let upper = scope.spawn(|| (half..samples).map(truth_of).collect::<Vec<_>>());
        let mut truth: Vec<(u64, Vec<ItemId>)> = (0..half).map(truth_of).collect();
        truth.extend(upper.join().expect("truth thread panicked"));
        truth
    });

    let config = engine_config()
        .cache_capacity(0)
        .cold_path(ColdPathMode::QuantAnn {
            ef_search: EF_SEARCH,
        })
        .build()
        .expect("engine config is valid");
    let (_, snapshot_build_s, engine) = ctx.span("serve.snapshot_build", root, || {
        ServeEngine::start(service, config)
    });
    let engine = engine.expect("engine starts");
    let layers = SetupLayers {
        generate_s,
        service_build_s,
        snapshot_build_s,
        sgns: SgnsDelta::default(),
    };
    (
        Artifacts {
            engine,
            traffic,
            truth,
            layers,
        },
        generate_s + service_build_s + snapshot_build_s,
    )
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let reps = ctx.cfg.scale.cold_setup_reps;
    let (a, setup_s) = repeat_setup(ctx, reps, setup);
    out.labels.push((
        "train_engine",
        "none (catalog synthesized without training)".into(),
    ));

    let warm_up = LoadSpec {
        duration_ns: ctx.cfg.window_ns(0.05),
        first_index: 1 << 50,
        ..nominal_spec(ctx, 0, false)
    };
    let mut errors = load::run(&a.engine, ctx.clock, warm_up, &a.traffic, &mut |_, _, _| {}).errors;

    // The sample is sorted by index; responses arrive in index order.
    let (mut hits, mut total, mut next) = (0usize, 0usize, 0usize);
    let nominal = load::run(
        &a.engine,
        ctx.clock,
        nominal_spec(ctx, 0, false),
        &a.traffic,
        &mut |i, resp, _| {
            if let Some((index, truth)) = a.truth.get(next) {
                if *index == i {
                    next += 1;
                    let got: Vec<ItemId> = resp.recommendations.iter().map(|r| r.item).collect();
                    let (h, t) = recall(&got, truth);
                    hits += h;
                    total += t;
                }
            }
        },
    );
    errors.extend(nominal.errors.iter().cloned());
    out.peak_rss_mb = peak_rss_mb();
    out.attempted = nominal.offered;
    out.failed = nominal.shed + nominal.errors.len() as u64;
    let recall_at_10 = hits as f64 / total.max(1) as f64;

    if ctx.cfg.traced {
        let before = ServeCounters::start_window();
        let mut tally = ResponseTally::default();
        let mut traced = load::run(
            &a.engine,
            ctx.clock,
            nominal_spec(ctx, 1 << 48, true),
            &a.traffic,
            &mut |_, resp, _| {
                tally.cache_hits += u64::from(resp.cache_hit);
            },
        );
        errors.extend(traced.errors.iter().cloned());
        out.attempted += traced.offered;
        out.failed += traced.shed + traced.errors.len() as u64;
        serve_layer_metrics(
            &mut out,
            &traced,
            &nominal,
            before,
            tally,
            ColdPathBytes::Quant {
                dim: ctx.cfg.scale.dim,
            },
            0,
        );
        a.layers.report(&mut out);
        load::keep_spans(&mut ctx.tracer, &mut traced);
    } else {
        let max_rps = max_rps(
            ctx,
            &mut out,
            &a.engine,
            &a.traffic,
            ctx.cfg.scale.cold_ladder_base,
            64,
            SLO_NS,
            &mut errors,
        );
        out.end_to_end.extend([
            metric("setup_s", "s", setup_s),
            metric("p50_us", "us", nominal.verdict_q(0.5) / 1e3),
            metric("recall_at_10", "ratio", recall_at_10),
        ]);
        out.workload_metrics
            .push(metric("max_rps_at_slo", "1/s", max_rps));
        out.workload_metrics
            .push(metric("p99_us", "us", nominal.sliced_q(0.99) / 1e3));
    }
    out.workload_metrics.push(metric(
        "error_rate",
        "ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    ));
    out.check(
        "recall_at_10 against brute force is at least 0.95",
        total > 0 && recall_at_10 >= 0.95,
        format!("recall {recall_at_10:.4} over {} queries", next),
    );
    check_errors(&mut out, &errors);
    out
}
