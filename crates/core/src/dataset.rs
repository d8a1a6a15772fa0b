//! Path-level dataset construction (the register-oriented RTL processing of
//! paper §3.2): for every register endpoint, the slowest path plus `K`
//! random paths from its input cone, featurized for the bit-wise models.
//!
//! [`build_all_variant_data`] is the one construction path: one
//! [`ConeShard`] per RTL signal, computed on the signal's canonically
//! extracted input cone ([`rtlt_bog::extract_signal_cone`]) and memoized
//! in the store under a module-set × cone-content key. Shards carry only
//! cone-local quantities; the cheap merge step splices in the
//! design-global features (rank percentile, cell counts). Editing one
//! module recomputes only the shards whose cones it feeds.
//!
//! Each shard splits into a **seed-independent kernel** and a
//! **seed-dependent replay**. Everything a per-signal evaluation derives
//! before the RNG is ever consulted — levelized pseudo-STA tables,
//! per-endpoint cone summaries, the critical path and its featurized row —
//! is a pure function of the cone's canonical content, so it is computed
//! once per *unique* cone ([`ConeEval`], memoized in the `conesta` store
//! namespace plus an in-process once-map) and shared by every signal whose
//! extracted cone is byte-identical (bit lanes of one word, replicated
//! blocks). The per-signal seeded path sampling then *replays* over the
//! shared evaluation. The tests keep a one-pass per-signal evaluation as the
//! oracle the replay must match bit for bit.
//!
//! A row holds only what the models read: its Table-2 features and its
//! endpoint. The one consumer of per-node token sequences, the Transformer
//! ablation of Table 4, gets them from [`token_rows`], which replays the
//! same path choice over the SOG variant's cones; nothing stores them.

use crate::cache::{conesta_key, shard_key, stage};
use crate::features::{design_features, op_class, path_features, token_features};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtlt_bog::{
    input_cone_scratch, Bog, BogVariant, ConeExtractor, ConeInfo, ConeScratch, Endpoint, NodeId,
};
use rtlt_liberty::Library;
use rtlt_sta::{LevelScratch, Sta, StaConfig, StaResult, TimingPath};
use rtlt_store::{ContentHash, Store};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One featurized timing path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathRow {
    /// Table-2 feature vector ([`crate::features::PATH_FEATURE_NAMES`]).
    pub features: Vec<f64>,
    /// Owning register endpoint index.
    pub endpoint: usize,
}

/// The token sequence of one path row, the Transformer ablation's input
/// ([`token_rows`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TokenRow {
    /// Operator-class token sequence (source → endpoint).
    pub ops: Vec<usize>,
    /// Per-token features ([`crate::features::token_features`]).
    pub tok_feats: Vec<Vec<f64>>,
}

/// All sampled paths of one design under one BOG representation.
#[derive(Debug, Clone)]
pub struct VariantData {
    /// Which representation.
    pub variant: BogVariant,
    /// Path rows.
    pub rows: Vec<PathRow>,
    /// Row indices per register endpoint.
    pub groups: Vec<Vec<usize>>,
    /// Pseudo-STA arrival per register endpoint.
    pub endpoint_sta_at: Vec<f64>,
    /// Driving-register count per endpoint (cone feature, reused by the
    /// ensemble).
    pub driving_regs: Vec<f64>,
    /// Design-level features of this representation.
    pub design_feats: Vec<f64>,
}

/// Maximum random paths sampled per endpoint (on top of the slowest path).
pub const MAX_RANDOM_PATHS: usize = 5;

/// One signal's slice of a variant dataset: everything the per-endpoint
/// processing derives from the signal's input cone alone. Global context
/// (rank percentile, design cell counts) is deliberately absent — the merge
/// step fills it — so a shard is reusable across any edit that leaves the
/// cone's feeding modules unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ConeShard {
    /// Cone-local pseudo-STA arrival per endpoint (bit), LSB first.
    pub sta_at: Vec<f64>,
    /// Driving-register count per endpoint.
    pub driving_regs: Vec<f64>,
    /// Path rows; `endpoint` is the bit index within the signal, and
    /// feature slots 0..4 (rank percentile + design features) are
    /// placeholders overwritten at merge.
    pub rows: Vec<PathRow>,
    /// Row indices per endpoint (bit).
    pub groups: Vec<Vec<usize>>,
}

/// Deterministic per-shard sampling seed: a function of the design seed,
/// the representation, and the signal *name* (stable across edits — signal
/// indices are not).
pub fn shard_seed(design_seed: u64, variant_idx: usize, signal: &str) -> u64 {
    let mut h = design_seed ^ (variant_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in signal.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed-independent evaluation of one canonical cone under one
/// representation: everything a per-signal evaluation derives before the
/// RNG is ever consulted. One evaluation is shared by all signals whose
/// extracted cones are byte-identical — within a design through the
/// in-process once-map, across designs and runs through the `conesta`
/// store namespace ([`crate::cache::conesta_key`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ConeEval {
    /// Pseudo-STA tables of the variant-converted cone (levelized kernel).
    pub sta: Arc<StaResult>,
    /// Fanout counts per node.
    pub fanout: Vec<u32>,
    /// Input-cone summary per endpoint (bit).
    pub cones: Vec<ConeInfo>,
    /// Critical-path node sequence per endpoint — the dedup filter the
    /// replay applies to sampled paths, and the critical row's tokens in
    /// [`token_rows`].
    pub crit_nodes: Vec<Vec<NodeId>>,
    /// Featurized critical-path row per endpoint. Global slots 0..4 are
    /// placeholders, same contract as [`ConeShard::rows`].
    pub crit_rows: Vec<PathRow>,
    /// Design features of the variant-converted cone — per-graph constants
    /// that fill the placeholder slots 1..4 of every replayed row (two full
    /// node passes each, so computed once here instead of once per row).
    pub design: Vec<f64>,
}

/// Computes the seed-independent evaluation of a variant-converted cone:
/// levelized pseudo-STA over `levels`-backed SoA tables, then per
/// endpoint the input-cone summary (via the reused `cones` scratch, whose
/// depth memo is shared across the cone's endpoints), critical path, and
/// its featurized row. Bit-identical to what the per-signal evaluation
/// derives for the same inputs.
pub fn compute_cone_eval(
    vbog: &Bog,
    n_eps: usize,
    lib: &Library,
    clock: f64,
    levels: &mut LevelScratch,
    cone_scratch: &mut ConeScratch,
) -> ConeEval {
    let cfg = StaConfig {
        clock_period: clock,
        ..StaConfig::default()
    };
    let sta = Sta::run_levelized(vbog, lib, cfg, levels);
    let fanout = vbog.fanout_counts();
    let design = design_features(vbog);
    cone_scratch.begin(vbog);
    let mut cones = Vec::with_capacity(n_eps);
    let mut crit_nodes = Vec::with_capacity(n_eps);
    let mut crit_rows = Vec::with_capacity(n_eps);
    for e in 0..n_eps {
        let ep = Endpoint::Reg(e as u32);
        let cone = input_cone_scratch(vbog, vbog.endpoint_node(ep), cone_scratch);
        let crit = sta.critical_path(ep);
        let features = path_features(&sta, vbog, &crit, &cone, 0.0, &fanout, &design);
        crit_rows.push(PathRow {
            features,
            endpoint: e,
        });
        crit_nodes.push(crit.nodes);
        cones.push(cone);
    }
    ConeEval {
        sta: sta.result_arc(),
        fanout,
        cones,
        crit_nodes,
        crit_rows,
        design,
    }
}

/// Replays the seed-dependent part of a per-signal evaluation over a shared
/// evaluation: re-seeds the sampler and draws the `K` random paths per
/// endpoint against the already-computed STA tables. The RNG consumption
/// sequence matches the per-signal evaluation exactly (all draws happen
/// inside `sample_paths`), so the resulting shard is bit-identical.
pub fn replay_cone_shard(
    vbog: &Bog,
    eval: &ConeEval,
    n_eps: usize,
    lib: &Library,
    clock: f64,
    seed: u64,
) -> ConeShard {
    replay_cone_shard_with(vbog, eval, n_eps, lib, clock, seed, |eval, e| {
        eval.crit_rows[e].clone()
    })
}

/// [`replay_cone_shard`] consuming the evaluation: critical-path rows are
/// moved into the shard instead of deep-cloned. This is the singleton-cone
/// fast path — an evaluation used by exactly one signal never needs its
/// rows again.
pub fn replay_cone_shard_owned(
    vbog: &Bog,
    mut eval: ConeEval,
    n_eps: usize,
    lib: &Library,
    clock: f64,
    seed: u64,
) -> ConeShard {
    let mut crit_rows = std::mem::take(&mut eval.crit_rows);
    replay_cone_shard_with(vbog, &eval, n_eps, lib, clock, seed, |_, e| {
        std::mem::take(&mut crit_rows[e])
    })
}

fn replay_cone_shard_with(
    vbog: &Bog,
    eval: &ConeEval,
    n_eps: usize,
    lib: &Library,
    clock: f64,
    seed: u64,
    mut crit_row: impl FnMut(&ConeEval, usize) -> PathRow,
) -> ConeShard {
    let sta = replay_sta(vbog, eval, lib, clock);
    let mut shard = ConeShard {
        sta_at: Vec::with_capacity(n_eps),
        driving_regs: Vec::with_capacity(n_eps),
        rows: Vec::new(),
        groups: Vec::with_capacity(n_eps),
    };
    choose_paths(&sta, eval, n_eps, seed, |e, path| {
        let row = shard.rows.len();
        match path {
            None => {
                shard.driving_regs.push(eval.cones[e].driving_regs as f64);
                shard.sta_at.push(eval.sta.endpoint_at[e]);
                shard.groups.push(vec![row]);
                shard.rows.push(crit_row(eval, e));
            }
            Some(p) => {
                let features = path_features(
                    &sta,
                    vbog,
                    &p,
                    &eval.cones[e],
                    0.0,
                    &eval.fanout,
                    &eval.design,
                );
                shard.groups[e].push(row);
                shard.rows.push(PathRow {
                    features,
                    endpoint: e,
                });
            }
        }
    });
    shard
}

/// The STA view a replay walks: the variant-converted cone over the
/// evaluation's shared tables.
fn replay_sta<'a>(vbog: &'a Bog, eval: &ConeEval, lib: &'a Library, clock: f64) -> Sta<'a> {
    let cfg = StaConfig {
        clock_period: clock,
        ..StaConfig::default()
    };
    Sta::with_result(vbog, lib, cfg, Arc::clone(&eval.sta))
}

/// The one per-endpoint path choice every row and every token sequence
/// derives from, visited in row order. For each endpoint `e`: its
/// critical path first (`None`; the evaluation holds it), then the
/// `K = clamp(driving_regs / 3, 0, MAX_RANDOM_PATHS)` paths
/// `sample_paths` draws under `seed`, minus repeats of the critical path.
/// All RNG draws happen inside `sample_paths`, so the choice is the
/// per-signal evaluation's exactly.
fn choose_paths(
    sta: &Sta<'_>,
    eval: &ConeEval,
    n_eps: usize,
    seed: u64,
    mut visit: impl FnMut(usize, Option<TimingPath>),
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for e in 0..n_eps {
        visit(e, None);
        let k = (eval.cones[e].driving_regs / 3).clamp(0, MAX_RANDOM_PATHS);
        for p in sta.sample_paths(Endpoint::Reg(e as u32), k, &mut rng) {
            if p.nodes != eval.crit_nodes[e] {
                visit(e, Some(p));
            }
        }
    }
}

/// Replays the SOG paths of a design into token sequences, one
/// [`TokenRow`] per row of the SOG variant's data and in the same order:
/// the Transformer ablation's input. Arguments are the ones the design
/// was featurized with ([`build_all_variant_data`]). Each signal's cone is
/// evaluated directly — tokens depend only on the signal's own cone, and
/// a shared evaluation has the same bits — and walked by the same path
/// choice as the shard replay, so row `i`'s tokens are the nodes of row
/// `i`'s path.
pub fn token_rows(sog: &Bog, lib: &Library, clock: f64, design_seed: u64) -> Vec<TokenRow> {
    let (vi, variant) = (0, BogVariant::ALL[0]);
    let (mut levels, mut cones) = (LevelScratch::default(), ConeScratch::new());
    let mut out = Vec::new();
    for (s, ext) in sog.signals().iter().zip(ConeExtraction::all(sog)) {
        let n_eps = s.width as usize;
        let vbog = ext.cone.to_variant(variant);
        let eval = compute_cone_eval(&vbog, n_eps, lib, clock, &mut levels, &mut cones);
        let sta = replay_sta(&vbog, &eval, lib, clock);
        let seed = shard_seed(design_seed, vi, &s.name);
        choose_paths(&sta, &eval, n_eps, seed, |e, path| {
            let nodes = path.as_ref().map_or(&eval.crit_nodes[e], |p| &p.nodes);
            out.push(TokenRow {
                ops: nodes.iter().map(|&n| op_class(vbog.node(n).op)).collect(),
                tok_feats: token_features(&sta, nodes, &eval.fanout),
            });
        });
    }
    out
}

static TOTAL_SIGNALS: AtomicU64 = AtomicU64::new(0);
static UNIQUE_CONES: AtomicU64 = AtomicU64::new(0);
static SAVED_EVALS: AtomicU64 = AtomicU64::new(0);
static FEATURIZE_NANOS: AtomicU64 = AtomicU64::new(0);

/// Process-wide shared-cone featurization counters, accumulated by every
/// [`build_all_variant_data`] call (cache-warm or cold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConeDedupStats {
    /// Signals featurized (one canonical extraction each).
    pub total_signals: u64,
    /// Distinct canonical cone contents among them (per design, summed).
    pub unique_cones: u64,
    /// Seed-independent evaluations answered by the once-map or the
    /// `conesta` namespace instead of being recomputed.
    pub saved_evals: u64,
    /// Wall time spent inside `build_all_variant_data` (seconds, summed
    /// across threads).
    pub featurize_seconds: f64,
}

/// Snapshot of the shared-cone dedup counters.
pub fn cone_dedup_stats() -> ConeDedupStats {
    ConeDedupStats {
        total_signals: TOTAL_SIGNALS.load(Ordering::Relaxed),
        unique_cones: UNIQUE_CONES.load(Ordering::Relaxed),
        saved_evals: SAVED_EVALS.load(Ordering::Relaxed),
        featurize_seconds: FEATURIZE_NANOS.load(Ordering::Relaxed) as f64 * 1e-9,
    }
}

/// Worker-local scratch for the featurize hot loop: the levelized kernel's
/// topology tables plus the per-variant merge buffers that used to be
/// reallocated for every variant of every design. One instance per worker
/// thread (see `rtlt_runtime::try_par_map_with`); buffers grow to the
/// largest design seen and are reused.
#[derive(Debug, Default)]
pub struct FeaturizeScratch {
    /// Levelized-kernel topology tables.
    pub levels: LevelScratch,
    /// Input-cone traversal scratch (stamped visited set + shared depth
    /// memo), reset per cone graph.
    pub cones: ConeScratch,
    /// Endpoint permutation reused by the merge's rank sort.
    order: Vec<usize>,
    /// Rank-percentile table reused by the merge.
    rank_pct: Vec<f64>,
    /// Per-variant merge pieces (cleared per variant, capacity kept).
    pieces: Vec<Piece>,
}

impl FeaturizeScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Feature slots the merge writes into every row: the rank percentile
/// (slot 0) and the variant graph's first three design features (slots
/// 1..4). Every other slot of a moved row is its prior value, verbatim.
pub(crate) const MERGED_SLOTS: usize = 4;

/// A run of rows the merge moved over from the prior revision: prior rows
/// `from..from + len` became merged rows `to..to + len`, equal in every
/// slot outside [`MERGED_SLOTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowMove {
    /// First row in the prior revision.
    pub from: usize,
    /// First row in the merged data.
    pub to: usize,
    /// Rows moved.
    pub len: usize,
}

/// One signal's slice of a variant, as the merge receives it.
#[derive(Debug)]
enum Piece {
    /// A shard from the store or freshly computed: its rows are cloned.
    Shard(Arc<ConeShard>),
    /// A signal of `width` endpoints whose rows move over from the
    /// previous revision's merged data.
    Prior { width: usize },
}

impl Piece {
    fn endpoints(&self) -> usize {
        match self {
            Piece::Shard(shard) => shard.sta_at.len(),
            Piece::Prior { width } => *width,
        }
    }
}

/// The one merge behind every featurize path: splices the pieces (signal
/// order) into a full [`VariantData`], then splices in the design-global
/// context — endpoint rank percentiles over the merged arrivals and the
/// variant graph's design features, slots 0..4 of every row.
///
/// A [`Piece::Prior`] moves its rows, groups and endpoint arrays out of
/// `prior`, the previous revision's data of the same variant over the same
/// signal list (so its endpoints line up with the merged ones). A moved
/// row equals the row its shard would give: the merge rewrites exactly the
/// slots that depend on the rest of the design. The moved rows are
/// reported as runs, adjacent signals' rows folded into one; a shard's
/// rows have no origin, so a merge without prior data reports none.
fn merge_pieces(
    variant: BogVariant,
    design_feats: Vec<f64>,
    pieces: &[Piece],
    mut prior: Option<&mut VariantData>,
    order: &mut Vec<usize>,
    rank_pct: &mut Vec<f64>,
) -> (VariantData, Vec<RowMove>) {
    let mut moves: Vec<RowMove> = Vec::new();
    let n_eps: usize = pieces.iter().map(Piece::endpoints).sum();
    let n_rows = prior.as_ref().map_or(0, |p| p.rows.len())
        + pieces
            .iter()
            .map(|p| match p {
                Piece::Shard(shard) => shard.rows.len(),
                Piece::Prior { .. } => 0,
            })
            .sum::<usize>();
    let mut data = VariantData {
        variant,
        rows: Vec::with_capacity(n_rows),
        groups: Vec::with_capacity(n_eps),
        endpoint_sta_at: Vec::with_capacity(n_eps),
        driving_regs: Vec::with_capacity(n_eps),
        design_feats,
    };
    for piece in pieces {
        let row_base = data.rows.len();
        let ep_base = data.endpoint_sta_at.len();
        match piece {
            Piece::Shard(shard) => {
                data.endpoint_sta_at.extend_from_slice(&shard.sta_at);
                data.driving_regs.extend_from_slice(&shard.driving_regs);
                for g in &shard.groups {
                    data.groups.push(g.iter().map(|r| r + row_base).collect());
                }
                for row in &shard.rows {
                    let mut row = row.clone();
                    row.endpoint += ep_base;
                    data.rows.push(row);
                }
            }
            Piece::Prior { width } => {
                let prev = prior.as_deref_mut().expect("prior pieces need prior data");
                debug_assert_eq!(prev.groups.len(), n_eps, "prior signal list differs");
                let eps = ep_base..ep_base + width;
                // Every group starts with its endpoint's critical-path row,
                // so a signal's rows run from its first group's head to the
                // next signal's.
                let first = prev.groups[ep_base][0];
                let end = prev.groups.get(eps.end).map_or(prev.rows.len(), |g| g[0]);
                data.endpoint_sta_at
                    .extend_from_slice(&prev.endpoint_sta_at[eps.clone()]);
                data.driving_regs
                    .extend_from_slice(&prev.driving_regs[eps.clone()]);
                for g in &mut prev.groups[eps] {
                    let mut g = std::mem::take(g);
                    for r in &mut g {
                        *r = *r - first + row_base;
                    }
                    data.groups.push(g);
                }
                data.rows
                    .extend(prev.rows[first..end].iter_mut().map(std::mem::take));
                let len = end - first;
                match moves.last_mut() {
                    Some(m) if m.from + m.len == first && m.to + m.len == row_base => m.len += len,
                    _ => moves.push(RowMove {
                        from: first,
                        to: row_base,
                        len,
                    }),
                }
            }
        }
    }

    // Endpoint rank percentile by merged pseudo-STA arrival.
    order.clear();
    order.extend(0..n_eps);
    order.sort_by(|&a, &b| {
        data.endpoint_sta_at[a]
            .partial_cmp(&data.endpoint_sta_at[b])
            .expect("finite")
    });
    rank_pct.clear();
    rank_pct.resize(n_eps, 0.5f64);
    for (rank, &i) in order.iter().enumerate() {
        if n_eps > 1 {
            rank_pct[i] = rank as f64 / (n_eps - 1) as f64;
        }
    }
    for row in &mut data.rows {
        row.features[0] = rank_pct[row.endpoint];
        row.features[1..MERGED_SLOTS].copy_from_slice(&data.design_feats[0..MERGED_SLOTS - 1]);
    }
    (data, moves)
}

/// Fingerprint multiplicity within one design: only cones that occur more
/// than once go through the memoized `conesta` path — see
/// `shared_cone_eval`.
fn fingerprint_multiplicity(extractions: &[ConeExtraction]) -> HashMap<ContentHash, u32> {
    let mut multiplicity: HashMap<ContentHash, u32> = HashMap::new();
    for e in extractions {
        *multiplicity.entry(e.fingerprint).or_insert(0) += 1;
    }
    multiplicity
}

/// One signal's canonical input-cone extraction and its two keys. The
/// content hash of the cone's bytes keys the per-seed shard cache
/// (name-sensitive); the structural fingerprint keys the shared
/// seed-independent evaluation (name-free, so isomorphic cones of
/// different signals collide).
#[derive(Debug, Clone)]
pub(crate) struct ConeExtraction {
    /// The extracted cone ([`rtlt_bog::extract_signal_cone`]).
    pub cone: Bog,
    /// Content hash of the cone's codec bytes.
    pub content: ContentHash,
    /// Structural fingerprint ([`rtlt_bog::cone_fingerprint`]).
    pub fingerprint: ContentHash,
}

impl ConeExtraction {
    /// Extracts and hashes signal `sig` of the extractor's graph.
    pub(crate) fn of(extractor: &mut ConeExtractor<'_>, sig: usize) -> ConeExtraction {
        let cone = extractor.extract(sig);
        let content = ContentHash::of_bytes(&rtlt_store::Codec::to_bytes(&cone));
        let fingerprint = rtlt_bog::cone_fingerprint(&cone);
        ConeExtraction {
            cone,
            content,
            fingerprint,
        }
    }

    /// Every signal of `sog`, in signal order, through one extractor.
    pub(crate) fn all(sog: &Bog) -> Vec<ConeExtraction> {
        let mut extractor = ConeExtractor::new(sog);
        (0..sog.signals().len())
            .map(|sig| ConeExtraction::of(&mut extractor, sig))
            .collect()
    }
}

/// Builds all four variants' datasets through the sharded path: one
/// extraction per signal, one memoized [`ConeShard`] per (signal ×
/// variant), keyed by the canonical cone content (see
/// [`crate::cache::shard_key`]). The extraction is cheap (linear in the
/// cone, no STA/sampling) — it is the probe that decides whether the
/// expensive shard computation can be skipped.
///
/// Allocates a fresh [`FeaturizeScratch`]; the pipeline's parallel prepare
/// path calls [`build_all_variant_data_scratch`] with a worker-local one.
pub fn build_all_variant_data(
    store: &Store,
    sog: &Bog,
    lib: &Library,
    clock: f64,
    design_seed: u64,
) -> Vec<VariantData> {
    build_all_variant_data_scratch(
        store,
        sog,
        lib,
        clock,
        design_seed,
        &mut FeaturizeScratch::new(),
    )
}

/// [`build_all_variant_data`] with an explicit scratch: a [`FeaturizeJob`]
/// stepped to completion in one call. Each *unique* canonical cone gets one
/// seed-independent [`ConeEval`] — computed via the levelized kernel,
/// memoized in-process and in the `conesta` namespace — and every signal
/// sharing it replays only the seeded sampling.
pub fn build_all_variant_data_scratch(
    store: &Store,
    sog: &Bog,
    lib: &Library,
    clock: f64,
    design_seed: u64,
    scratch: &mut FeaturizeScratch,
) -> Vec<VariantData> {
    let mut job = FeaturizeJob::new(sog, clock, design_seed);
    std::mem::swap(&mut job.scratch, scratch);
    while !job.step(store, sog, lib, usize::MAX) {}
    std::mem::swap(&mut job.scratch, scratch);
    job.finish().variant_data
}

/// The previous revision's merged datasets, offered to a [`FeaturizeJob`]
/// over the same signal list. A signal flagged in `reuse` — its shard keys
/// are unchanged — moves its rows out of `variant_data` instead of being
/// looked up.
#[derive(Debug)]
pub(crate) struct PriorRows {
    /// The previous revision's data, one per variant in
    /// [`BogVariant::ALL`] order.
    pub variant_data: Vec<VariantData>,
    /// Per signal: whether its rows move over.
    pub reuse: Vec<bool>,
}

/// Where a [`FeaturizeJob`]'s shards came from — counted by the job
/// itself, so concurrent jobs on one store never see each other's lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardCounts {
    /// Shards computed (`shard`-namespace misses).
    pub computed: u64,
    /// Shards the store served.
    pub stored: u64,
    /// Shards whose rows moved over from the previous revision, with no
    /// store lookup at all.
    pub resident: u64,
}

/// What a finished [`FeaturizeJob`] hands back.
#[derive(Debug)]
pub(crate) struct FeaturizeOutput {
    /// The merged datasets, one per variant in [`BogVariant::ALL`] order.
    pub variant_data: Vec<VariantData>,
    /// The cone extraction of every signal, in signal order.
    pub extractions: Vec<ConeExtraction>,
    /// Per variant: the rows moved over from the prior revision (none
    /// without one).
    pub moves: Vec<Vec<RowMove>>,
    /// Where the shards came from.
    pub counts: ShardCounts,
}

/// The resumable sharded featurize walk behind every featurize path,
/// sliced into bounded `step` calls so a single-threaded event loop can
/// interleave many re-annotations without one large design starving the
/// tick. Iteration order, cache keys, dedup behavior and merged output do
/// not depend on the slicing — a job stepped to completion produces the
/// same [`VariantData`] as [`build_all_variant_data`] (which is this job
/// stepped in one call; the live annotation service's whole degrade story
/// rests on this).
#[derive(Debug)]
pub struct FeaturizeJob {
    clock: f64,
    design_seed: u64,
    extractions: Vec<ConeExtraction>,
    multiplicity: HashMap<ContentHash, u32>,
    prior: Option<PriorRows>,
    scratch: FeaturizeScratch,
    once: HashMap<ContentHash, (Arc<Bog>, Arc<ConeEval>)>,
    /// Each variant's design-level features, when the caller counted them
    /// (see [`FeaturizeJob::with_design_features`]).
    design_feats: Option<Vec<Vec<f64>>>,
    vi: usize,
    sig: usize,
    done: Vec<VariantData>,
    moves: Vec<Vec<RowMove>>,
    counts: ShardCounts,
}

impl FeaturizeJob {
    /// Extracts every signal cone of `sog` up front (cheap, linear) and
    /// positions the job at the first shard of the first variant. `step`
    /// must then be given the same `sog`.
    pub fn new(sog: &Bog, clock: f64, design_seed: u64) -> FeaturizeJob {
        let started = Instant::now();
        let job =
            FeaturizeJob::with_extractions(clock, design_seed, ConeExtraction::all(sog), None);
        FEATURIZE_NANOS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        job
    }

    /// A job over cones the caller already extracted (signal order of the
    /// SOG later passed to `step`). With `prior`, every signal it flags
    /// moves its rows over from the previous revision; the rest are looked
    /// up as usual.
    pub(crate) fn with_extractions(
        clock: f64,
        design_seed: u64,
        extractions: Vec<ConeExtraction>,
        prior: Option<PriorRows>,
    ) -> FeaturizeJob {
        TOTAL_SIGNALS.fetch_add(extractions.len() as u64, Ordering::Relaxed);
        let multiplicity = fingerprint_multiplicity(&extractions);
        UNIQUE_CONES.fetch_add(multiplicity.len() as u64, Ordering::Relaxed);
        if let Some(p) = &prior {
            assert_eq!(
                p.reuse.len(),
                extractions.len(),
                "prior signal list differs"
            );
        }
        FeaturizeJob {
            clock,
            design_seed,
            extractions,
            multiplicity,
            prior,
            scratch: FeaturizeScratch::new(),
            once: HashMap::new(),
            design_feats: None,
            vi: 0,
            sig: 0,
            done: Vec::with_capacity(BogVariant::ALL.len()),
            moves: Vec::with_capacity(BogVariant::ALL.len()),
            counts: ShardCounts::default(),
        }
    }

    /// Merges each variant with `feats[vi]` as its design-level features
    /// (in [`BogVariant::ALL`] order) instead of converting the SOG to
    /// count them. They must equal [`design_features`] of each conversion.
    pub(crate) fn with_design_features(mut self, feats: Vec<Vec<f64>>) -> FeaturizeJob {
        assert_eq!(feats.len(), BogVariant::ALL.len(), "one per variant");
        self.design_feats = Some(feats);
        self
    }

    /// Whether signal `sig` moves its rows over from the prior revision.
    fn reuses(&self, sig: usize) -> bool {
        self.prior.as_ref().is_some_and(|p| p.reuse[sig])
    }

    /// Every `(namespace, key)` pair the job will look up, in walk order —
    /// one [`Store::prefetch`] over these pulls all cold shards in a
    /// single batched GETM round trip before stepping begins.
    pub fn shard_items(&self, sog: &Bog) -> Vec<(String, ContentHash)> {
        let mut items = Vec::with_capacity(BogVariant::ALL.len() * self.extractions.len());
        for vi in 0..BogVariant::ALL.len() {
            for (sig, s) in sog.signals().iter().enumerate() {
                if !self.reuses(sig) {
                    let seed = shard_seed(self.design_seed, vi, &s.name);
                    let key = shard_key(vi, self.clock, seed, &self.extractions[sig].content);
                    items.push((stage::SHARD.to_owned(), key));
                }
            }
        }
        items
    }

    /// Total shards the job evaluates (signals × variants).
    pub fn total_shards(&self) -> u64 {
        (BogVariant::ALL.len() * self.extractions.len()) as u64
    }

    /// Shards not yet evaluated.
    pub fn remaining_shards(&self) -> u64 {
        let per_variant = self.extractions.len();
        let done = self.vi * per_variant + self.sig.min(per_variant);
        self.total_shards() - done as u64
    }

    /// Whether every variant has been merged.
    pub fn is_done(&self) -> bool {
        self.vi >= BogVariant::ALL.len()
    }

    /// Evaluates up to `max_shards` more store lookups (at least one),
    /// merging each variant as its last shard lands; rows moving over from
    /// the prior revision cost no lookup and no budget. Returns `true` once
    /// the job is done and `finish` may be called.
    pub fn step(&mut self, store: &Store, sog: &Bog, lib: &Library, max_shards: usize) -> bool {
        let started = Instant::now();
        let mut budget = max_shards.max(1);
        let n = sog.signals().len();
        assert_eq!(n, self.extractions.len(), "job stepped on another SOG");
        while self.vi < BogVariant::ALL.len() {
            let variant = BogVariant::ALL[self.vi];
            while self.sig < n {
                let piece = if self.reuses(self.sig) {
                    self.counts.resident += 1;
                    Piece::Prior {
                        width: sog.signals()[self.sig].width as usize,
                    }
                } else if budget == 0 {
                    FEATURIZE_NANOS
                        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    return false;
                } else {
                    budget -= 1;
                    Piece::Shard(self.shard(store, sog, lib))
                };
                self.scratch.pieces.push(piece);
                self.sig += 1;
            }
            // The SOG is its own SOG variant: only the other three convert.
            let design_feats = match &self.design_feats {
                Some(feats) => feats[self.vi].clone(),
                None if variant == sog.variant => design_features(sog),
                None => design_features(&sog.to_variant(variant)),
            };
            let prior = self.prior.as_mut().map(|p| &mut p.variant_data[self.vi]);
            let (data, moves) = merge_pieces(
                variant,
                design_feats,
                &self.scratch.pieces,
                prior,
                &mut self.scratch.order,
                &mut self.scratch.rank_pct,
            );
            self.done.push(data);
            self.moves.push(moves);
            self.scratch.pieces.clear();
            self.once.clear();
            self.vi += 1;
            self.sig = 0;
        }
        // Only husks of the prior revision remain: release them now.
        self.prior = None;
        FEATURIZE_NANOS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        true
    }

    /// Looks the current signal's shard of the current variant up in the
    /// `shard` namespace, computing it on a miss, and counts which it was.
    fn shard(&mut self, store: &Store, sog: &Bog, lib: &Library) -> Arc<ConeShard> {
        let (vi, clock) = (self.vi, self.clock);
        let variant = BogVariant::ALL[vi];
        let s = &sog.signals()[self.sig];
        let ext = &self.extractions[self.sig];
        let n_eps = s.width as usize;
        let seed = shard_seed(self.design_seed, vi, &s.name);
        let (levels, cone_scratch) = (&mut self.scratch.levels, &mut self.scratch.cones);
        let (once, multiplicity) = (&mut self.once, &self.multiplicity);
        let computed = Cell::new(false);
        let key = shard_key(vi, clock, seed, &ext.content);
        let shard = store.get_or_compute(stage::SHARD, key, || {
            computed.set(true);
            let sub = &ext.cone;
            if multiplicity.get(&ext.fingerprint).copied().unwrap_or(1) > 1 {
                let (vbog, eval) = shared_cone_eval(
                    store,
                    once,
                    vi,
                    variant,
                    clock,
                    &ext.fingerprint,
                    sub,
                    n_eps,
                    lib,
                    levels,
                    cone_scratch,
                );
                replay_cone_shard(&vbog, &eval, n_eps, lib, clock, seed)
            } else {
                // Singleton cone (~90 % of signals on the bundled suites):
                // compute and replay in place — no store round-trip, no
                // Arc, crit rows moved not cloned.
                let vbog = sub.to_variant(variant);
                let eval = compute_cone_eval(&vbog, n_eps, lib, clock, levels, cone_scratch);
                replay_cone_shard_owned(&vbog, eval, n_eps, lib, clock, seed)
            }
        });
        if computed.get() {
            self.counts.computed += 1;
        } else {
            self.counts.stored += 1;
        }
        shard
    }

    /// The merged variant datasets, the extractions and the shard counts.
    /// Panics if the job is not done.
    pub(crate) fn finish(self) -> FeaturizeOutput {
        assert!(self.is_done(), "FeaturizeJob finished before completion");
        FeaturizeOutput {
            variant_data: self.done,
            extractions: self.extractions,
            moves: self.moves,
            counts: self.counts,
        }
    }
}

/// Resolves the shared evaluation of one canonical cone: the once-map
/// first (an earlier signal of the same design × variant), then the
/// `conesta` namespace (other designs, earlier runs), then a fresh
/// levelized-kernel computation. Counts every resolution that skipped the
/// computation.
///
/// Only called for fingerprints with multiplicity > 1 within the design —
/// singleton cones (~90 % on the bundled suites) bypass the `conesta`
/// round-trip entirely, since persisting their (large) STA tables costs
/// more than the dedup would save.
#[allow(clippy::too_many_arguments)]
fn shared_cone_eval(
    store: &Store,
    once: &mut HashMap<ContentHash, (Arc<Bog>, Arc<ConeEval>)>,
    vi: usize,
    variant: BogVariant,
    clock: f64,
    fingerprint: &ContentHash,
    sub: &Bog,
    n_eps: usize,
    lib: &Library,
    levels: &mut LevelScratch,
    cone_scratch: &mut ConeScratch,
) -> (Arc<Bog>, Arc<ConeEval>) {
    if let Some((vbog, eval)) = once.get(fingerprint) {
        SAVED_EVALS.fetch_add(1, Ordering::Relaxed);
        return (Arc::clone(vbog), Arc::clone(eval));
    }
    let vbog = Arc::new(sub.to_variant(variant));
    let computed = Cell::new(false);
    let eval = store.get_or_compute(stage::CONESTA, conesta_key(vi, clock, fingerprint), || {
        computed.set(true);
        compute_cone_eval(&vbog, n_eps, lib, clock, levels, cone_scratch)
    });
    if !computed.get() {
        SAVED_EVALS.fetch_add(1, Ordering::Relaxed);
    }
    once.insert(*fingerprint, (Arc::clone(&vbog), Arc::clone(&eval)));
    (vbog, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtlt_bog::blast;
    use rtlt_verilog::compile;

    /// Builds one signal's shard on its extracted cone in one pass:
    /// cone-local pseudo-STA, then the slowest + `K` random paths per bit
    /// endpoint, plus each row's token sequence. The extracted graph's
    /// first `n_eps` registers are the signal's bits; boundary registers
    /// beyond them are launch points only. The test oracle for the shared
    /// evaluation + replay split, and for [`token_rows`].
    fn build_cone_shard(
        sub: &Bog,
        n_eps: usize,
        lib: &Library,
        clock: f64,
        seed: u64,
    ) -> (ConeShard, Vec<TokenRow>) {
        let cfg = StaConfig {
            clock_period: clock,
            ..StaConfig::default()
        };
        let sta = Sta::run(sub, lib, cfg);
        let fanout = sub.fanout_counts();
        let design = design_features(sub);
        let mut cone_scratch = ConeScratch::new();
        cone_scratch.begin(sub);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shard = ConeShard {
            sta_at: Vec::with_capacity(n_eps),
            driving_regs: Vec::with_capacity(n_eps),
            rows: Vec::new(),
            groups: Vec::with_capacity(n_eps),
        };
        let mut tokens = Vec::new();
        for e in 0..n_eps {
            let ep = Endpoint::Reg(e as u32);
            let cone = input_cone_scratch(sub, sub.endpoint_node(ep), &mut cone_scratch);
            shard.driving_regs.push(cone.driving_regs as f64);
            shard.sta_at.push(sta.result().endpoint_at[e]);
            let crit = sta.critical_path(ep);
            let k = (cone.driving_regs / 3).clamp(0, MAX_RANDOM_PATHS);
            let crit_nodes = crit.nodes.clone();
            let mut paths = vec![crit];
            for p in sta.sample_paths(ep, k, &mut rng) {
                if p.nodes != crit_nodes {
                    paths.push(p);
                }
            }
            let mut group = Vec::with_capacity(paths.len());
            for p in paths {
                // Slots 0..4 (rank percentile + design-level features) are
                // filled at merge; the placeholder values computed here from
                // the sub-graph are overwritten.
                let features = path_features(&sta, sub, &p, &cone, 0.0, &fanout, &design);
                let ops = p.nodes.iter().map(|&n| op_class(sub.node(n).op)).collect();
                let tok_feats = token_features(&sta, &p.nodes, &fanout);
                group.push(shard.rows.len());
                shard.rows.push(PathRow {
                    features,
                    endpoint: e,
                });
                tokens.push(TokenRow { ops, tok_feats });
            }
            shard.groups.push(group);
        }
        (shard, tokens)
    }

    /// A featurized design as the tests compare it: all four variants'
    /// data and the SOG rows' token sequences.
    struct Featurized {
        data: Vec<VariantData>,
        tokens: Vec<TokenRow>,
    }

    /// The production path: the sharded build, then [`token_rows`] over
    /// the same store.
    fn featurized(store: &Store, sog: &Bog, lib: &Library, clock: f64, seed: u64) -> Featurized {
        Featurized {
            data: build_all_variant_data(store, sog, lib, clock, seed),
            tokens: token_rows(sog, lib, clock, seed),
        }
    }

    /// The per-signal path every featurize path must match bit for bit:
    /// each signal of each variant evaluates its own cone through
    /// [`build_cone_shard`], and the shards merge through the same
    /// [`merge_pieces`] production uses. The SOG shards' tokens, in
    /// signal order, are the rows' tokens.
    fn build_all_variant_data_naive(
        sog: &Bog,
        lib: &Library,
        clock: f64,
        design_seed: u64,
    ) -> Featurized {
        let (mut order, mut rank_pct) = (Vec::new(), Vec::new());
        let mut all = Vec::new();
        let mut sog_tokens = Vec::new();
        for (vi, &variant) in BogVariant::ALL.iter().enumerate() {
            let pieces: Vec<Piece> = sog
                .signals()
                .iter()
                .enumerate()
                .map(|(sig, s)| {
                    let sub = rtlt_bog::extract_signal_cone(sog, sig).to_variant(variant);
                    let seed = shard_seed(design_seed, vi, &s.name);
                    let n_eps = s.width as usize;
                    let (shard, tokens) = build_cone_shard(&sub, n_eps, lib, clock, seed);
                    if vi == 0 {
                        sog_tokens.extend(tokens);
                    }
                    Piece::Shard(Arc::new(shard))
                })
                .collect();
            let design_feats = design_features(&sog.to_variant(variant));
            let (data, moves) = merge_pieces(
                variant,
                design_feats,
                &pieces,
                None,
                &mut order,
                &mut rank_pct,
            );
            assert!(moves.is_empty(), "shard rows have no origin");
            all.push(data);
        }
        Featurized {
            data: all,
            tokens: sog_tokens,
        }
    }

    /// f64 slices compared as raw bits: `==` on floats would conflate
    /// `-0.0`/`0.0` and hide NaN divergence, and "bit-exact" is the contract.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bit_identical(a: &Featurized, b: &Featurized) {
        assert_eq!(a.data.len(), b.data.len());
        for (x, y) in a.data.iter().zip(&b.data) {
            assert_eq!(x.variant, y.variant);
            assert_eq!(x.groups, y.groups);
            assert_eq!(bits(&x.endpoint_sta_at), bits(&y.endpoint_sta_at));
            assert_eq!(bits(&x.driving_regs), bits(&y.driving_regs));
            assert_eq!(bits(&x.design_feats), bits(&y.design_feats));
            assert_eq!(x.rows.len(), y.rows.len());
            for (r, s) in x.rows.iter().zip(&y.rows) {
                assert_eq!(bits(&r.features), bits(&s.features));
                assert_eq!(r.endpoint, s.endpoint);
            }
        }
        // Tokens line up with the SOG variant's rows, one per row.
        assert_eq!(a.tokens.len(), a.data[0].rows.len());
        assert_eq!(a.tokens.len(), b.tokens.len());
        for (r, s) in a.tokens.iter().zip(&b.tokens) {
            assert_eq!(r.ops, s.ops);
            assert_eq!(r.tok_feats.len(), s.tok_feats.len());
            for (tf, sf) in r.tok_feats.iter().zip(&s.tok_feats) {
                assert_eq!(bits(tf), bits(sf));
            }
        }
    }

    fn bog() -> Bog {
        blast(
            &compile(
                "module m(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
                   reg [15:0] r;
                   reg [15:0] s;
                   always @(posedge clk) begin
                     r <= a + b;
                     s <= s + (r ^ a);
                   end
                   assign q = s;
                 endmodule",
                "m",
            )
            .unwrap(),
        )
    }

    /// The SOG variant of the sharded build over a fresh store.
    fn sog_data(bog: &Bog, seed: u64) -> VariantData {
        let lib = Library::pseudo_bog();
        let mut all = build_all_variant_data(&Store::in_memory(), bog, &lib, 1.0, seed);
        all.swap_remove(0)
    }

    #[test]
    fn dataset_covers_every_endpoint() {
        let bog = bog();
        let data = sog_data(&bog, 1);
        assert_eq!(data.groups.len(), bog.regs().len());
        assert!(
            data.groups.iter().all(|g| !g.is_empty()),
            "each endpoint has >= 1 path"
        );
        // First row of every group is the slowest path: its arrival equals
        // the endpoint pseudo-STA arrival.
        for (e, g) in data.groups.iter().enumerate() {
            let crit_arrival = data.rows[g[0]].features[7];
            assert!((crit_arrival - data.endpoint_sta_at[e]).abs() < 1e-9);
            for &r in g {
                assert_eq!(data.rows[r].endpoint, e);
                assert!(data.rows[r].features[7] <= crit_arrival + 1e-9);
            }
        }
    }

    #[test]
    fn bigger_cones_get_more_paths() {
        let data = sog_data(&bog(), 1);
        // `s` endpoints depend on r+a (wide cones) → sampled extra paths;
        // at least one endpoint should have multiple paths.
        assert!(data.groups.iter().any(|g| g.len() > 1));
    }

    #[test]
    fn deterministic_per_seed() {
        let bog = bog();
        let a = sog_data(&bog, 9);
        let b = sog_data(&bog, 9);
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.features, y.features);
        }
    }

    #[test]
    fn sharded_build_covers_all_endpoints_consistently() {
        let bog = bog();
        let lib = Library::pseudo_bog();
        let store = Store::in_memory();
        let all = build_all_variant_data(&store, &bog, &lib, 1.0, 7);
        assert_eq!(all.len(), 4);
        for data in &all {
            assert_eq!(data.groups.len(), bog.regs().len());
            assert_eq!(data.endpoint_sta_at.len(), bog.regs().len());
            assert!(data.groups.iter().all(|g| !g.is_empty()));
            // Critical-path row arrival equals the endpoint pseudo-STA
            // arrival, and global slots are filled in every row.
            for (e, g) in data.groups.iter().enumerate() {
                assert!((data.rows[g[0]].features[7] - data.endpoint_sta_at[e]).abs() < 1e-9);
                for &r in g {
                    assert_eq!(data.rows[r].endpoint, e);
                    assert_eq!(data.rows[r].features[1..4], data.design_feats[0..3]);
                }
            }
        }
        // Shards were populated: signals × 4 misses, and a second build is
        // answered entirely from the store with identical output.
        let misses = store.stats().namespace(stage::SHARD).misses;
        assert_eq!(misses as usize, bog.signals().len() * 4);
        let again = build_all_variant_data(&store, &bog, &lib, 1.0, 7);
        assert_eq!(store.stats().namespace(stage::SHARD).misses, misses);
        for (a, b) in all.iter().zip(&again) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.endpoint_sta_at, b.endpoint_sta_at);
        }
    }

    /// Two signals with isomorphic cones (same structure, different input
    /// and signal names) — the dedup unit.
    fn twin_bog() -> Bog {
        blast(
            &compile(
                "module m(input clk, input [7:0] a, input [7:0] b,
                          input [7:0] c, input [7:0] d,
                          output [7:0] q1, output [7:0] q2);
                   reg [7:0] r1;
                   reg [7:0] r2;
                   always @(posedge clk) begin
                     r1 <= a & b;
                     r2 <= c & d;
                   end
                   assign q1 = r1;
                   assign q2 = r2;
                 endmodule",
                "m",
            )
            .unwrap(),
        )
    }

    #[test]
    fn dedup_and_legacy_paths_are_bit_identical() {
        let lib = Library::pseudo_bog();
        for bog in [bog(), twin_bog()] {
            for clock in [1.0, 0.37] {
                let store = Store::in_memory();
                let deduped = featurized(&store, &bog, &lib, clock, 7);
                let legacy = build_all_variant_data_naive(&bog, &lib, clock, 7);
                assert_bit_identical(&deduped, &legacy);
                // One shard per signal × variant, as the per-signal path
                // computes them.
                assert_eq!(
                    store.stats().namespace(stage::SHARD).misses as usize,
                    bog.signals().len() * 4
                );
            }
        }
    }

    #[test]
    fn isomorphic_cones_share_one_evaluation() {
        let bog = twin_bog();
        let lib = Library::pseudo_bog();
        let store = Store::in_memory();
        build_all_variant_data(&store, &bog, &lib, 1.0, 7);
        // r1/r2 cones are isomorphic: one conesta entry per variant serves
        // both signals' shards.
        let conesta = store.stats().namespace(stage::CONESTA).misses;
        let shard = store.stats().namespace(stage::SHARD).misses;
        assert_eq!(shard as usize, bog.signals().len() * 4);
        assert_eq!(conesta as usize, 4, "one shared evaluation per variant");
    }

    #[test]
    fn conesta_survives_round_trip_through_store() {
        // A second build over the same store must not recompute conesta
        // entries, and replaying from decoded (not in-process) evaluations
        // must give identical bytes.
        let bog = twin_bog();
        let lib = Library::pseudo_bog();
        let store = Store::in_memory();
        build_all_variant_data(&store, &bog, &lib, 1.0, 7);
        let conesta_misses = store.stats().namespace(stage::CONESTA).misses;
        // Different seed → different shard keys → shards recompute, but the
        // seed-independent evaluations are all served from the store.
        let second = featurized(&store, &bog, &lib, 1.0, 8);
        assert_eq!(
            store.stats().namespace(stage::CONESTA).misses,
            conesta_misses
        );
        assert_bit_identical(&second, &build_all_variant_data_naive(&bog, &lib, 1.0, 8));
    }

    #[test]
    fn token_rows_replay_shared_evaluations_row_for_row() {
        // r1/r2 are twins: featurize resolves both SOG cones through one
        // shared evaluation, while `token_rows` evaluates each cone
        // itself; both match the per-signal oracle bit for bit.
        let bog = twin_bog();
        let lib = Library::pseudo_bog();
        let store = Store::in_memory();
        let data = build_all_variant_data(&store, &bog, &lib, 1.0, 7);
        let tokens = token_rows(&bog, &lib, 1.0, 7);
        let oracle = build_all_variant_data_naive(&bog, &lib, 1.0, 7);
        assert_bit_identical(&Featurized { data, tokens }, &oracle);
        // Each token sequence walks its row's path: its combinational
        // tokens (classes 2..=6) are the row's `path_levels`.
        let sog = &oracle.data[0];
        for (row, tok) in sog.rows.iter().zip(&oracle.tokens) {
            let levels = tok.ops.iter().filter(|op| (2..=6).contains(*op)).count();
            assert_eq!(row.features[8], levels as f64);
        }
    }

    /// A design with `twins` isomorphic register cones (same structure over
    /// disjoint input lanes, distinct names) plus one deliberately different
    /// cone — the adversarial case for structural fingerprinting.
    fn twin_source(width: u32, twins: usize, op: &str) -> String {
        let x = width - 1;
        let mut ports = String::new();
        let mut body = String::new();
        for i in 0..twins {
            ports.push_str(&format!(
                "input [{x}:0] a{i}, input [{x}:0] b{i}, output [{x}:0] q{i}, "
            ));
            body.push_str(&format!(
                "reg [{x}:0] r{i};\nalways @(posedge clk) r{i} <= (a{i} {op} b{i}) ^ (r{i} >> 1);\nassign q{i} = r{i};\n"
            ));
        }
        format!(
            "module t(input clk, {ports}input [{x}:0] c, output [{x}:0] qz);\n\
             reg [{x}:0] rz;\n\
             always @(posedge clk) rz <= c + {w}'d3;\n\
             assign qz = rz;\n\
             {body}endmodule",
            w = width
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For arbitrary small designs with shared bit-lane structure and
        /// extreme clocks, the deduplicated path (shared seed-independent
        /// evaluation + seeded replay) matches the naive per-signal path
        /// bit for bit, and the shared evaluation really is shared.
        #[test]
        fn dedup_matches_naive_bit_for_bit(
            width in 2u32..7,
            twins in 2usize..4,
            pick in 0usize..4,
            seed in 0u64..1000,
            clock_pick in 0usize..4,
        ) {
            let ops = ["+", "&", "^", "|"];
            // Includes a denormal-adjacent and a huge clock: arithmetic near
            // the extremes is where a reordered kernel would drift first.
            let clocks = [1.0f64, 0.037, 4.9e-300, 8.1e12];
            let clock = clocks[clock_pick];
            let sog = blast(&compile(&twin_source(width, twins, ops[pick]), "t").expect("compiles"));
            let lib = Library::pseudo_bog();

            let store = Store::in_memory();
            let dedup = featurized(&store, &sog, &lib, clock, seed);
            assert_bit_identical(&dedup, &build_all_variant_data_naive(&sog, &lib, clock, seed));

            // One shard per signal × variant, as the naive path computes
            // them, and the twins collapse onto shared evaluations (fewer
            // conesta entries than shard entries).
            let stats = store.stats();
            let shard = stats.namespace(stage::SHARD).misses;
            prop_assert_eq!(shard as usize, sog.signals().len() * 4);
            let conesta = stats.namespace(stage::CONESTA).misses;
            prop_assert!(conesta > 0);
            prop_assert!(
                conesta < shard,
                "isomorphic cones should share evaluations ({} conesta vs {} shard)",
                conesta,
                shard
            );
        }
    }

    #[test]
    fn shard_seed_tracks_signal_identity_not_position() {
        assert_eq!(shard_seed(1, 0, "a"), shard_seed(1, 0, "a"));
        assert_ne!(shard_seed(1, 0, "a"), shard_seed(1, 0, "b"));
        assert_ne!(shard_seed(1, 0, "a"), shard_seed(1, 1, "a"));
        assert_ne!(shard_seed(1, 0, "a"), shard_seed(2, 0, "a"));
    }
}
