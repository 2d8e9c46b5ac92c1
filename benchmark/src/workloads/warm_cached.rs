//! `warm_cached`: online matching over a trained SISG-F-U artifact.
//!
//! 75% of requests repeat a small pool of cold-item keys (admission-cache
//! hits once seen), 20% are warm top-K lookups and 5% cold-user queries,
//! with the cache on. Nearly all the work is the serve handoff (submit →
//! shard queue → worker wake → reply channel → collect) and the cache:
//! the cold scorer sees about one miss per distinct key. The bursty
//! open-loop arrivals make the per-request handoff cost pile up inside
//! each burst, where the latencies show it.

use super::{
    check_errors, click_counts, engine_config, generate_corpus, max_rps, metric, recall,
    repeat_setup, serve_layer_metrics, ColdPathBytes, Ctx, ResponseTally, ServeCounters,
    SetupLayers, SgnsDelta, K,
};
use crate::load::{self, LoadSpec, Traffic};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::mix64;
use sisg_core::{MatchingService, Recommendation, ServingConfig, SisgModel, Variant};
use sisg_corpus::ItemId;
use sisg_serve::{ServeEngine, ServeRequest, ServeResponse};
use sisg_sgns::SgnsConfig;

/// p99 limit of `max_rps_at_slo`.
const SLO_NS: f64 = 1_000_000.0;
/// Repeating cold-item keys, warm keys.
const COLD_KEYS: usize = 48;
const WARM_KEYS: usize = 256;
/// Every `CHECK_EVERY`-th request's answer is compared with the direct
/// `MatchingService` answer.
const CHECK_EVERY: u64 = 64;

/// The request mix over a fixed key pool: cold keys first, then warm,
/// then cold-user keys.
struct WarmTraffic {
    seed: u64,
    keys: Vec<ServeRequest>,
    n_cold: usize,
    n_warm: usize,
}

impl WarmTraffic {
    fn key(&self, index: u64) -> usize {
        let h = mix64(self.seed ^ mix64(index));
        let pick = (h >> 32) as usize;
        let n_user = self.keys.len() - self.n_cold - self.n_warm;
        match h % 100 {
            0..=74 => pick % self.n_cold,
            75..=94 => self.n_cold + pick % self.n_warm,
            _ => self.n_cold + self.n_warm + pick % n_user,
        }
    }
}

impl Traffic for WarmTraffic {
    fn request(&self, index: u64) -> ServeRequest {
        self.keys[self.key(index)]
    }
}

struct Artifacts {
    engine: ServeEngine,
    traffic: WarmTraffic,
    expected: Vec<Vec<Recommendation>>,
    layers: SetupLayers,
}

fn same_bits(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

fn setup(ctx: &mut Ctx, root: u64, _kept: bool) -> (Artifacts, f64) {
    let seed = ctx.cfg.seed;
    let dim = ctx.cfg.scale.dim;
    let (corpus, generate_s) = generate_corpus(ctx, root);
    let sgns = SgnsConfig {
        dim,
        window: 2,
        negatives: 2,
        epochs: 1,
        threads: 1,
        seed,
        ..Default::default()
    };
    let (trained, sgns_delta) = SgnsDelta::around(ctx, root, || {
        SisgModel::train(&corpus, Variant::SisgFU, &sgns)
    });
    let (model, _) = trained.expect("training config is valid");
    let clicks = click_counts(&corpus);
    let users = corpus.users.clone();
    let serving = ServingConfig {
        k: 32,
        min_clicks_for_warm: 3,
    };
    let (_, service_build_s, service) = ctx.span("core.service_build", root, || {
        MatchingService::build(model, users, &clicks, serving)
    });
    let service = service.expect("serving config is valid");

    // The key pool and its direct answers: benchmark work, not set-up.
    let all: Vec<ItemId> = (0..corpus.config.n_items).map(ItemId).collect();
    let mut start = mix64(seed) as usize % all.len();
    let mut pick = |cold: bool, n: usize| -> Vec<ItemId> {
        start = (start + 1) % all.len();
        let rotated = all[start..].iter().chain(&all[..start]);
        rotated
            .copied()
            .filter(|&i| service.is_cold(i) == cold)
            .take(n)
            .collect()
    };
    let cold_items = pick(true, COLD_KEYS);
    let warm_items = pick(false, WARM_KEYS);
    let candidates = |item: ItemId| ServeRequest::Candidates {
        item,
        si_values: *corpus.catalog.si_values(item),
        k: K,
    };
    let mut keys: Vec<ServeRequest> = cold_items
        .iter()
        .chain(&warm_items)
        .map(|&i| candidates(i))
        .collect();
    let mut expected: Vec<Vec<Recommendation>> = keys
        .iter()
        .map(|r| match *r {
            ServeRequest::Candidates { item, si_values, k } => service
                .candidates(item, &si_values, k)
                .expect("pool items are in the catalog"),
            ServeRequest::ColdUser { .. } => unreachable!("pool holds candidate keys only"),
        })
        .collect();
    for (gender, age, purchase) in [
        (None, None, None),
        (Some(0), None, None),
        (Some(1), None, None),
        (None, Some(1), None),
        (None, None, Some(1)),
    ] {
        if let Ok(answer) = service.cold_user_candidates(gender, age, purchase, K) {
            keys.push(ServeRequest::ColdUser {
                gender,
                age,
                purchase,
                k: K,
            });
            expected.push(answer);
        }
    }
    let traffic = WarmTraffic {
        seed,
        n_cold: cold_items.len(),
        n_warm: warm_items.len(),
        keys,
    };
    assert!(
        traffic.n_cold > 0
            && traffic.n_warm > 0
            && traffic.keys.len() > traffic.n_cold + traffic.n_warm,
        "the corpus yields cold, warm and cold-user keys"
    );

    let config = engine_config()
        .cache_capacity(4_096)
        .cache_admit_after(1)
        .build()
        .expect("engine config is valid");
    let (_, snapshot_build_s, engine) = ctx.span("serve.snapshot_build", root, || {
        ServeEngine::start(service, config)
    });
    let engine = engine.expect("engine starts");
    let setup_s = generate_s + sgns_delta.seconds + service_build_s + snapshot_build_s;
    let layers = SetupLayers {
        generate_s,
        service_build_s,
        snapshot_build_s,
        sgns: sgns_delta,
    };
    (
        Artifacts {
            engine,
            traffic,
            expected,
            layers,
        },
        setup_s,
    )
}

/// Answer checks of one window.
#[derive(Default)]
struct Checked {
    compared: u64,
    mismatched: u64,
    recall_hits: usize,
    recall_total: usize,
    tally: ResponseTally,
}

impl Checked {
    fn observe(&mut self, a: &Artifacts, index: u64, resp: &ServeResponse) {
        self.tally.cache_hits += u64::from(resp.cache_hit);
        if !index.is_multiple_of(CHECK_EVERY) {
            return;
        }
        let want = &a.expected[a.traffic.key(index)];
        self.compared += 1;
        self.mismatched += u64::from(!same_bits(&resp.recommendations, want));
        let got: Vec<ItemId> = resp.recommendations.iter().map(|r| r.item).collect();
        let truth: Vec<ItemId> = want.iter().map(|r| r.item).collect();
        let (h, t) = recall(&got, &truth);
        self.recall_hits += h;
        self.recall_total += t;
    }
}

fn window(
    ctx: &Ctx,
    a: &Artifacts,
    first_index: u64,
    traced: bool,
    checked: &mut Checked,
) -> load::LoadResult {
    let spec = LoadSpec {
        rate: ctx.cfg.scale.warm_rate,
        duration_ns: ctx.cfg.window_ns(0.4),
        first_index,
        traced,
    };
    load::run(&a.engine, ctx.clock, spec, &a.traffic, &mut |i, resp, _| {
        checked.observe(a, i, resp)
    })
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let reps = ctx.cfg.scale.setup_reps;
    let (a, setup_s) = repeat_setup(ctx, reps, setup);
    out.labels.push((
        "train_engine",
        "single-thread reference (threads = 1)".into(),
    ));

    // Warm-up, unmeasured: every key once, then a short burst schedule,
    // so the cache is filled and lazy start-up is done before timing.
    for key in &a.traffic.keys {
        a.engine.serve(*key).expect("warm-up request is servable");
    }
    let warm_up = LoadSpec {
        rate: ctx.cfg.scale.warm_rate,
        duration_ns: ctx.cfg.window_ns(0.05),
        first_index: 1 << 50,
        traced: false,
    };
    let mut errors = load::run(&a.engine, ctx.clock, warm_up, &a.traffic, &mut |_, _, _| {}).errors;

    let mut checked = Checked::default();
    let nominal = window(ctx, &a, 0, false, &mut checked);
    errors.extend(nominal.errors.iter().cloned());
    out.peak_rss_mb = peak_rss_mb();
    out.attempted = nominal.offered;
    out.failed = nominal.shed + nominal.errors.len() as u64;

    if ctx.cfg.traced {
        let before = ServeCounters::start_window();
        let mut traced_checked = Checked::default();
        let mut traced = window(ctx, &a, 1 << 48, true, &mut traced_checked);
        errors.extend(traced.errors.iter().cloned());
        out.attempted += traced.offered;
        out.failed += traced.shed + traced.errors.len() as u64;
        serve_layer_metrics(
            &mut out,
            &traced,
            &nominal,
            before,
            traced_checked.tally,
            ColdPathBytes::Brute {
                items: ctx.cfg.scale.items as usize,
                dim: ctx.cfg.scale.dim,
            },
            0,
        );
        a.layers.report(&mut out);
        load::keep_spans(&mut ctx.tracer, &mut traced);
        checked.compared += traced_checked.compared;
        checked.mismatched += traced_checked.mismatched;
    } else {
        let max_rps = max_rps(
            ctx,
            &mut out,
            &a.engine,
            &a.traffic,
            ctx.cfg.scale.warm_ladder_base,
            100,
            SLO_NS,
            &mut errors,
        );
        out.end_to_end.extend([
            metric("setup_s", "s", setup_s),
            metric("p50_us", "us", nominal.verdict_q(0.5) / 1e3),
            metric(
                "recall_at_10",
                "ratio",
                checked.recall_hits as f64 / checked.recall_total.max(1) as f64,
            ),
        ]);
        out.workload_metrics
            .push(metric("max_rps_at_slo", "1/s", max_rps));
        out.workload_metrics
            .push(metric("p99_us", "us", nominal.sliced_q(0.99) / 1e3));
    }
    out.workload_metrics.extend([
        metric("train_pairs_per_s", "1/s", a.layers.sgns.pairs_per_s()),
        metric("sgns.train_s", "s", a.layers.sgns.seconds),
        metric(
            "error_rate",
            "ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        ),
    ]);
    out.check(
        "sampled answers are bit-identical to the direct MatchingService answers",
        checked.compared > 0 && checked.mismatched == 0,
        format!(
            "{} compared, {} mismatched",
            checked.compared, checked.mismatched
        ),
    );
    check_errors(&mut out, &errors);
    out
}
