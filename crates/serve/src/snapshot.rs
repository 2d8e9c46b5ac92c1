//! The immutable serving artifact, resharded for the worker pool.
//!
//! A [`ServingSnapshot`] is a [`MatchingService`] decomposed and
//! re-laid-out by shard: item `i` belongs to shard `i % n_shards` at local
//! index `i / n_shards`, so each worker answers warm lookups from its own
//! contiguous slice of the artifact. The lists are moved out of the
//! service verbatim — a snapshot answers bit-identically to the service it
//! came from, by construction rather than by re-derivation.
//!
//! **Cold paths** (Eq. 6 cold items, demographic cold users) score an
//! arbitrary query vector against the whole catalog. Under
//! [`ColdPathMode::BruteForce`] that is an exact linear scan of the f32
//! item matrix — fine at bench scale, hopeless at millions of items.
//! Under [`ColdPathMode::QuantAnn`] each shard instead carries a
//! [`ColdIndex`] slice: its items' normalized vectors quantized to int8
//! scale-per-row, serialized into the mmap-friendly codec blob
//! (`sisg_embedding::codec`), and navigated zero-copy by a quantized HNSW
//! (`sisg_ann::qhnsw`). A cold request fans the ANN search out over every
//! shard's index, merges the candidates, and re-ranks them with the exact
//! f32 scorer — so the ids it returns come from the quantized graph but
//! the scores (and the order among surviving candidates) are identical to
//! brute force.

use crate::api::{ServeError, ServeRequest, ServeResponse};
use crate::cache::{AdmissionCache, CacheKey};
use crate::config::{ColdPathMode, TenantId};
use crate::metrics::{ServeMetrics, TenantMetrics};
use sisg_ann::qhnsw::{HnswConfig, QHnswIndex};
use sisg_core::cold_start;
use sisg_core::serving::MatchingParts;
use sisg_core::{MatchingService, Recommendation, SiAggregation, SisgModel};
use sisg_corpus::{ItemId, TokenId, UserRegistry};
use sisg_embedding::codec::{encode_quant, QuantBlob};
use sisg_embedding::{Matrix, Neighbor, QuantMatrix};
use sisg_obs::Stopwatch;
use std::num::NonZeroUsize;

/// Per-request tenant context threaded from the engine's submit path into
/// the worker's serve call: who to account the request to, how to
/// aggregate SI on the cold path, and which per-tenant metric slice to
/// record into (`None` when the engine runs without a tenant table).
pub(crate) struct TenantCtx {
    pub(crate) tenant: TenantId,
    pub(crate) si_weighting: SiAggregation,
    pub(crate) metrics: Option<TenantMetrics>,
}

impl TenantCtx {
    /// The untagged-traffic context: default tenant, Eq. 6 sum, no
    /// per-tenant metric slice.
    pub(crate) fn untenanted() -> Self {
        TenantCtx {
            tenant: TenantId::DEFAULT,
            si_weighting: SiAggregation::Sum,
            metrics: None,
        }
    }
}

/// Per-shard quantized ANN indexes over the normalized item matrix —
/// the bounded-memory cold path (DESIGN.md §11).
pub struct ColdIndex {
    /// `indexes[s]` covers items `s, s + n_shards, s + 2·n_shards, …`
    /// (local id `l` ↔ global item `l · n_shards + s`), each scoring
    /// zero-copy out of its encoded codec blob.
    indexes: Vec<QHnswIndex<QuantBlob>>,
    /// Quantized payload bytes per item (`dim` int8 weights + f32 scale).
    bytes_per_item: usize,
    /// Link-graph overhead across all shards, reported separately from
    /// the payload in the memory accounting.
    link_bytes: usize,
}

impl ColdIndex {
    /// Quantizes and indexes the normalized item matrix `item_norm`,
    /// sharded the same way as the warm lists.
    ///
    /// The shard graphs are built concurrently on up to
    /// `min(n_shards, available_parallelism)` scoped threads, shards
    /// striped across them, and the caller blocks until they finish. Next
    /// to a live engine (e.g. an ingest pipeline publishing a snapshot)
    /// the build competes with the serve workers for every core. Each
    /// shard graph is seeded and inserted independently of the others, so
    /// the result is identical to building the shards one after another.
    ///
    /// Returns `None` only if an encoded shard blob fails to parse back
    /// (cannot happen for blobs we just encoded; the caller degrades to
    /// brute force rather than panicking — this crate's API is
    /// panic-free). A panic on a build thread is re-raised on the caller,
    /// not degraded.
    fn build(item_norm: &Matrix, n_shards: usize, ef_search: usize) -> Option<Self> {
        let config = HnswConfig {
            ef_search,
            ..HnswConfig::default()
        };
        let workers = std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(n_shards);
        let mut slots: Vec<Option<QHnswIndex<QuantBlob>>> = (0..n_shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        (w..n_shards)
                            .step_by(workers)
                            .map(|s| {
                                let blob = shard_blob(item_norm, n_shards, s);
                                (s, blob.map(|blob| QHnswIndex::build(blob, config)))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(built) => {
                        for (s, index) in built {
                            slots[s] = index;
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        let indexes: Vec<_> = slots.into_iter().collect::<Option<_>>()?;
        let link_bytes = indexes.iter().map(QHnswIndex::link_bytes).sum();
        Some(Self {
            indexes,
            bytes_per_item: item_norm.dim() + std::mem::size_of::<f32>(),
            link_bytes,
        })
    }

    /// Quantized payload bytes per item.
    pub fn bytes_per_item(&self) -> usize {
        self.bytes_per_item
    }

    /// Link-graph bytes across all shard indexes.
    pub fn link_bytes(&self) -> usize {
        self.link_bytes
    }
}

/// The int8 codec blob of shard `s`: rows `s, s + n_shards, …` of
/// `item_norm`, quantized and encoded. The intermediate [`QuantMatrix`] is
/// dropped as soon as it is encoded, so concurrent shard builds each hold
/// only their blob. `None` if the blob fails to parse back.
fn shard_blob(item_norm: &Matrix, n_shards: usize, s: usize) -> Option<QuantBlob> {
    let n_items = item_norm.rows();
    let count = if s < n_items {
        (n_items - s - 1) / n_shards + 1
    } else {
        0
    };
    let bytes = {
        let qm =
            QuantMatrix::from_rows(count, item_norm.dim(), |l| item_norm.row(l * n_shards + s));
        encode_quant(&qm)
    };
    QuantBlob::new(bytes).ok()
}

impl std::fmt::Debug for ColdIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdIndex")
            .field("shards", &self.indexes.len())
            .field("bytes_per_item", &self.bytes_per_item)
            .finish_non_exhaustive()
    }
}

/// One immutable generation of the serving artifact, sharded by item.
pub struct ServingSnapshot {
    n_shards: usize,
    /// `shards[s][local]` = top-K list of item `local * n_shards + s`;
    /// empty for cold items.
    shards: Vec<Vec<Vec<Recommendation>>>,
    /// Cold flags, indexed by item.
    cold: Vec<bool>,
    model: SisgModel,
    users: UserRegistry,
    /// Present under [`ColdPathMode::QuantAnn`]; `None` = brute force.
    cold_index: Option<ColdIndex>,
}

impl std::fmt::Debug for ServingSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingSnapshot")
            .field("n_shards", &self.n_shards)
            .field("n_items", &self.cold.len())
            .field("quant_ann", &self.cold_index.is_some())
            .finish_non_exhaustive()
    }
}

impl ServingSnapshot {
    /// Reshards a built [`MatchingService`] across `n_shards` workers with
    /// brute-force cold paths (the pre-quantization default).
    /// `n_shards` must already be validated (the engine config builder
    /// does); a zero value is lifted to 1 rather than dividing by zero.
    pub fn from_service(service: MatchingService, n_shards: usize) -> Self {
        Self::from_service_with(service, n_shards, ColdPathMode::BruteForce)
    }

    /// Reshards a built [`MatchingService`] and equips the requested cold
    /// path. Building [`ColdPathMode::QuantAnn`] quantizes and indexes the
    /// catalog once, here — the request path never allocates an index.
    /// That build runs the per-shard graphs on up to
    /// `min(n_shards, available_parallelism)` threads and blocks until
    /// they finish, so a caller next to a live engine (an ingest thread
    /// publishing a snapshot, say) shares every core with its serve
    /// workers for the duration.
    pub fn from_service_with(
        service: MatchingService,
        n_shards: usize,
        cold_path: ColdPathMode,
    ) -> Self {
        let n_shards = n_shards.max(1);
        let MatchingParts {
            lists,
            cold,
            model,
            users,
            ..
        } = service.into_parts();
        let mut shards: Vec<Vec<Vec<Recommendation>>> = (0..n_shards)
            .map(|s| Vec::with_capacity(lists.len() / n_shards + usize::from(s == 0)))
            .collect();
        for (i, list) in lists.into_iter().enumerate() {
            shards[i % n_shards].push(list);
        }
        let cold_index = match cold_path {
            ColdPathMode::BruteForce => None,
            ColdPathMode::QuantAnn { ef_search } => {
                ColdIndex::build(model.item_norm_matrix(), n_shards, ef_search)
            }
        };
        Self {
            n_shards,
            shards,
            cold,
            model,
            users,
            cold_index,
        }
    }

    /// The shard an item belongs to.
    #[inline]
    pub fn shard_of_item(&self, item: ItemId) -> usize {
        item.index() % self.n_shards
    }

    /// Worker shards in this layout.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Items in the served catalog.
    pub fn n_items(&self) -> usize {
        self.cold.len()
    }

    /// True when `item` is in range and served through the cold path.
    pub fn is_cold(&self, item: ItemId) -> bool {
        self.cold.get(item.index()).copied().unwrap_or(false)
    }

    /// The model this snapshot answers from.
    pub fn model(&self) -> &SisgModel {
        &self.model
    }

    /// The quantized in-shard cold index, when this snapshot carries one.
    pub fn cold_index(&self) -> Option<&ColdIndex> {
        self.cold_index.as_ref()
    }

    /// The warm list of `item`; `None` for cold or unknown items.
    pub fn warm_list(&self, item: ItemId) -> Option<&[Recommendation]> {
        let idx = item.index();
        if idx >= self.cold.len() || self.cold[idx] {
            return None;
        }
        self.shards
            .get(idx % self.n_shards)
            .and_then(|shard| shard.get(idx / self.n_shards))
            .map(Vec::as_slice)
    }

    /// Answers one request on the calling (worker) thread. `shard` and
    /// `epoch` are stamped into the response; `cache` is the worker-local
    /// cold-path cache partition of the request's tenant; `ctx` carries
    /// the tenant's identity, SI-aggregation mode, and metric slice.
    pub(crate) fn serve(
        &self,
        req: &ServeRequest,
        ctx: &TenantCtx,
        shard: usize,
        epoch: u64,
        cache: &mut AdmissionCache,
        metrics: &ServeMetrics,
    ) -> Result<ServeResponse, ServeError> {
        let watch = Stopwatch::start();
        metrics.requests.inc();
        if let Some(tm) = &ctx.metrics {
            tm.requests.inc();
        }
        let respond = |recommendations, cache_hit| ServeResponse {
            recommendations,
            epoch,
            shard,
            cache_hit,
            tenant: ctx.tenant,
        };
        let out = match *req {
            ServeRequest::Candidates { item, si_values, k } => {
                if self.model.space().try_item(item).is_none() {
                    return Err(ServeError::Rejected(sisg_core::CoreError::UnknownItem(
                        item,
                    )));
                }
                if let Some(list) = self.warm_list(item) {
                    metrics.warm_hits.inc();
                    if let Some(tm) = &ctx.metrics {
                        tm.warm_hits.inc();
                    }
                    respond(list[..k.min(list.len())].to_vec(), false)
                } else {
                    metrics.cold_items.inc();
                    if let Some(tm) = &ctx.metrics {
                        tm.cold_items.inc();
                    }
                    let key = CacheKey::ColdItem {
                        item: item.0,
                        si_values,
                        k,
                    };
                    if let Some(hit) = cache.lookup(&key) {
                        metrics.cache_hits.inc();
                        if let Some(tm) = &ctx.metrics {
                            tm.cache_hits.inc();
                        }
                        respond(hit.clone(), true)
                    } else {
                        metrics.cache_misses.inc();
                        let computed =
                            self.cold_item_answer(item, &si_values, k, ctx.si_weighting, metrics)?;
                        cache.admit(key, computed.clone());
                        respond(computed, false)
                    }
                }
            }
            ServeRequest::ColdUser {
                gender,
                age,
                purchase,
                k,
            } => {
                metrics.cold_users.inc();
                if let Some(tm) = &ctx.metrics {
                    tm.cold_users.inc();
                }
                let key = CacheKey::ColdUser {
                    gender,
                    age,
                    purchase,
                    k,
                };
                if let Some(hit) = cache.lookup(&key) {
                    metrics.cache_hits.inc();
                    if let Some(tm) = &ctx.metrics {
                        tm.cache_hits.inc();
                    }
                    respond(hit.clone(), true)
                } else {
                    metrics.cache_misses.inc();
                    let computed = self.cold_user_answer(gender, age, purchase, k, metrics)?;
                    cache.admit(key, computed.clone());
                    respond(computed, false)
                }
            }
        };
        let elapsed = watch.elapsed();
        metrics.request_ns.record_duration_ns(elapsed);
        if let Some(tm) = &ctx.metrics {
            tm.request_ns.record_duration_ns(elapsed);
        }
        Ok(out)
    }

    /// Fans one cold query out over every shard's quantized index,
    /// fetching up to `fetch` candidates per shard, and returns the merged
    /// global item ids. Records search effort (`serve.ann_hops`, summed
    /// over shards) and candidate volume.
    fn quant_candidates(
        &self,
        index: &ColdIndex,
        query: &[f32],
        fetch: usize,
        metrics: &ServeMetrics,
    ) -> Vec<TokenId> {
        let mut hops = 0u64;
        let mut candidates = Vec::with_capacity(fetch * self.n_shards);
        for (s, shard_index) in index.indexes.iter().enumerate() {
            let (hits, h) = shard_index.search_with_effort(query, fetch);
            hops += h;
            candidates.extend(
                hits.into_iter()
                    .map(|hit| TokenId((hit.id.0 as usize * self.n_shards + s) as u32)),
            );
        }
        metrics.quant_cold_searches.inc();
        metrics.quant_reranked.add(candidates.len() as u64);
        metrics.ann_hops.record(hops);
        candidates
    }

    /// Retrieves the `fetch` best items for an arbitrary cold query
    /// vector: quantized ANN + exact f32 re-rank when this snapshot
    /// carries a [`ColdIndex`], exact brute force otherwise. Either way
    /// the returned scores come from the f32 scorer.
    fn cold_query_neighbors(
        &self,
        query: &[f32],
        fetch: usize,
        metrics: &ServeMetrics,
    ) -> Vec<Neighbor> {
        match &self.cold_index {
            Some(index) => {
                let candidates = self.quant_candidates(index, query, fetch, metrics);
                self.model
                    .rerank_items_to_vector(query, candidates.into_iter(), fetch)
            }
            None => self.model.similar_items_to_vector(query, fetch),
        }
    }

    /// The Eq. (6) cold-item path, mirroring
    /// [`MatchingService::candidates`] exactly: over-fetch by one, drop
    /// the queried item, take `k`. The query vector is aggregated under
    /// the tenant's [`SiAggregation`] mode (the plain sum for untagged
    /// traffic).
    fn cold_item_answer(
        &self,
        item: ItemId,
        si_values: &[u32; sisg_corpus::schema::ItemFeature::COUNT],
        k: usize,
        si_weighting: SiAggregation,
        metrics: &ServeMetrics,
    ) -> Result<Vec<Recommendation>, ServeError> {
        let query = cold_start::cold_item_vector_with(&self.model, si_values, si_weighting)?;
        Ok(self
            .cold_query_neighbors(&query, k + 1, metrics)
            .into_iter()
            .map(|n| Recommendation {
                item: ItemId(n.token.0),
                score: n.score,
            })
            .filter(|r| r.item != item)
            .take(k)
            .collect())
    }

    /// The cold-user path, mirroring [`MatchingService::cold_user_candidates`].
    fn cold_user_answer(
        &self,
        gender: Option<u8>,
        age: Option<u8>,
        purchase: Option<u8>,
        k: usize,
        metrics: &ServeMetrics,
    ) -> Result<Vec<Recommendation>, ServeError> {
        let query = cold_start::cold_user_vector(&self.model, &self.users, gender, age, purchase)?;
        Ok(self
            .cold_query_neighbors(&query, k, metrics)
            .into_iter()
            .map(|n| Recommendation {
                item: ItemId(n.token.0),
                score: n.score,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_embedding::math::normalize;

    // The scoped shard build moves finished indexes across threads, and
    // the engine shares snapshots through `Arc<ServingSnapshot>`: an
    // `Rc`/`Cell` creeping into the index must fail here, at compile time.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<QHnswIndex<QuantBlob>>();
        send_sync::<ColdIndex>();
    };

    fn unit_rows(rows: usize, dim: usize, seed: u64) -> Matrix {
        let mut m = Matrix::uniform_init(rows, dim, seed);
        for i in 0..rows {
            normalize(m.row_mut(i));
        }
        m
    }

    #[test]
    fn parallel_cold_index_is_identical_to_serial_shard_builds() {
        let ef_search = 32;
        let config = HnswConfig {
            ef_search,
            ..HnswConfig::default()
        };
        let bits = |hits: &[sisg_ann::Hit]| -> Vec<(u32, u32)> {
            hits.iter().map(|h| (h.id.0, h.score.to_bits())).collect()
        };
        let dim = 16;
        let queries = unit_rows(24, dim, 99);
        // 5 items leave shards empty under 8 shards; 700 items give every
        // shard a multi-layer graph.
        for n_items in [5, 700] {
            let item_norm = unit_rows(n_items, dim, 7);
            for n_shards in [1, 2, 3, 8] {
                let parallel = ColdIndex::build(&item_norm, n_shards, ef_search).expect("build");
                let serial: Vec<_> = (0..n_shards)
                    .map(|s| {
                        let blob = shard_blob(&item_norm, n_shards, s).expect("blob parses");
                        QHnswIndex::build(blob, config)
                    })
                    .collect();
                let case = format!("{n_items} items, {n_shards} shards");
                assert_eq!(parallel.indexes.len(), n_shards, "{case}");
                assert_eq!(
                    parallel.link_bytes(),
                    serial.iter().map(QHnswIndex::link_bytes).sum::<usize>(),
                    "{case}"
                );
                for (s, (p, r)) in parallel.indexes.iter().zip(&serial).enumerate() {
                    assert_eq!(p.layers(), r.layers(), "{case}, shard {s}");
                    assert_eq!(p.link_bytes(), r.link_bytes(), "{case}, shard {s}");
                    for q in 0..queries.rows() {
                        let (p_hits, p_hops) = p.search_with_effort(queries.row(q), 10);
                        let (r_hits, r_hops) = r.search_with_effort(queries.row(q), 10);
                        assert_eq!(p_hops, r_hops, "{case}, shard {s}, query {q}");
                        assert_eq!(bits(&p_hits), bits(&r_hits), "{case}, shard {s}, query {q}");
                    }
                }
            }
        }
    }
}
