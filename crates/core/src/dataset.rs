//! Path-level dataset construction (the register-oriented RTL processing of
//! paper §3.2): for every register endpoint, the slowest path plus `K`
//! random paths from its input cone, featurized for the bit-wise models.
//!
//! [`FeaturizeJob`] is the one construction path: one shard per RTL
//! signal × variant, computed on the signal's canonically extracted input
//! cone ([`rtlt_bog::extract_signal_cone`]). A shard is a pure function of
//! the variant, the clock, the signal's sampling seed and the cone's
//! content, and carries only cone-local quantities; the cheap merge step
//! moves the shards' rows into one table and splices in the
//! design-global features (rank percentile, cell counts). Nothing here
//! touches the store: the prepare stores the merged table as its
//! `featurize` entry, and an edit session hands the job its previous
//! revision, whose rows move over for every signal whose cone content is
//! unchanged.
//!
//! Each shard splits into a **seed-independent kernel** and a
//! **seed-dependent replay**. Everything a per-signal evaluation derives
//! before the RNG is ever consulted — levelized pseudo-STA tables,
//! per-endpoint cone summaries, the critical path and its featurized row —
//! is a pure function of the cone's structure, so within one design ×
//! variant it is computed once per *unique* cone (`ConeEval`, kept in the
//! featurize job's once-map) and shared by every signal whose extracted
//! cone is structurally identical (bit lanes of one word, replicated
//! blocks). The per-signal seeded path sampling then *replays* over the
//! shared evaluation. The tests keep a one-pass per-signal evaluation as
//! the oracle the replay must match bit for bit.
//!
//! A row holds only what the models read: its Table-2 features and its
//! endpoint. The one consumer of per-node token sequences, the Transformer
//! ablation of Table 4, gets them from [`token_rows`], which replays the
//! same path choice over the SOG variant's cones; nothing stores them.

use crate::features::{design_features, op_class, path_features, token_features};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtlt_bog::{
    input_cone_scratch, Bog, BogVariant, ConeExtractor, ConeInfo, ConeScratch, Endpoint, NodeId,
};
use rtlt_liberty::Library;
use rtlt_sta::{LevelScratch, Sta, StaConfig, StaResult, TimingPath};
use rtlt_store::ContentHash;
use std::collections::HashMap;
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
/// step fills it — so a signal's merged rows stay valid across any edit
/// that leaves its cone's content unchanged.
#[derive(Debug)]
struct ConeShard {
    /// Cone-local pseudo-STA arrival per endpoint (bit), LSB first.
    sta_at: Vec<f64>,
    /// Driving-register count per endpoint.
    driving_regs: Vec<f64>,
    /// Path rows; `endpoint` is the bit index within the signal, and
    /// feature slots 0..4 (rank percentile + design features) are
    /// placeholders overwritten at merge.
    rows: Vec<PathRow>,
    /// Row indices per endpoint (bit).
    groups: Vec<Vec<usize>>,
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
/// RNG is ever consulted. Within one design × variant, one evaluation is
/// shared by all signals whose extracted cones are structurally identical
/// (a [`FeaturizeJob`]'s once-map).
#[derive(Debug, Clone, PartialEq)]
struct ConeEval {
    /// Pseudo-STA tables of the variant-converted cone (levelized kernel).
    sta: Arc<StaResult>,
    /// Fanout counts per node.
    fanout: Vec<u32>,
    /// Input-cone summary per endpoint (bit).
    cones: Vec<ConeInfo>,
    /// Critical-path node sequence per endpoint — the dedup filter the
    /// replay applies to sampled paths, and the critical row's tokens in
    /// [`token_rows`].
    crit_nodes: Vec<Vec<NodeId>>,
    /// Featurized critical-path row per endpoint. Global slots 0..4 are
    /// placeholders, same contract as [`ConeShard::rows`].
    crit_rows: Vec<PathRow>,
    /// Design features of the variant-converted cone — per-graph constants
    /// that fill the placeholder slots 1..4 of every replayed row (two full
    /// node passes each, so computed once here instead of once per row).
    design: Vec<f64>,
}

/// Computes the seed-independent evaluation of a variant-converted cone:
/// levelized pseudo-STA over `levels`-backed SoA tables, then per
/// endpoint the input-cone summary (via the reused `cones` scratch, whose
/// depth memo is shared across the cone's endpoints), critical path, and
/// its featurized row. Bit-identical to what the per-signal evaluation
/// derives for the same inputs.
fn compute_cone_eval(
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
/// inside `sample_paths`), so the resulting shard is bit-identical. The
/// critical-path rows move out of `owned` when it holds them (a singleton
/// cone's evaluation, which no other signal reads) and are cloned from
/// `eval` otherwise.
fn replay_cone_shard(
    vbog: &Bog,
    eval: &ConeEval,
    mut owned: Vec<PathRow>,
    n_eps: usize,
    lib: &Library,
    clock: f64,
    seed: u64,
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
                let crit = owned.get_mut(e).map(std::mem::take);
                shard
                    .rows
                    .push(crit.unwrap_or_else(|| eval.crit_rows[e].clone()));
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

/// Shared-cone featurization counts of one [`FeaturizeJob`], or of a
/// prepare summed over the designs it featurized
/// ([`crate::pipeline::DesignSet::featurize_stats`]). Each job counts its
/// own, so concurrent prepares never see each other's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConeDedupStats {
    /// Signals featurized (one canonical extraction each).
    pub total_signals: u64,
    /// Distinct canonical cone contents among them (per design, summed).
    pub unique_cones: u64,
    /// Seed-independent evaluations a featurize job's once-map answered
    /// (an earlier signal of the same design × variant had a structurally
    /// identical cone) instead of computing them again.
    pub saved_evals: u64,
    /// Wall time spent featurizing (seconds, summed across threads).
    pub featurize_seconds: f64,
}

impl std::ops::AddAssign for ConeDedupStats {
    fn add_assign(&mut self, other: ConeDedupStats) {
        self.total_signals += other.total_signals;
        self.unique_cones += other.unique_cones;
        self.saved_evals += other.saved_evals;
        self.featurize_seconds += other.featurize_seconds;
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
    /// A shard the job computed: its rows move into the merged data.
    Shard(ConeShard),
    /// A signal of `width` endpoints whose rows move over from the
    /// previous revision's merged data, where its endpoints start at
    /// `from`.
    Prior { width: usize, from: usize },
}

/// The one merge behind every featurize path: moves the pieces (signal
/// order) into a full [`VariantData`], then splices in the design-global
/// context — endpoint rank percentiles over the merged arrivals and the
/// variant graph's design features, slots 0..4 of every row.
///
/// A [`Piece::Prior`] moves its rows, groups and endpoint arrays out of
/// `prior`, the previous revision's data of the same variant, and re-bases
/// each moved row's endpoint onto the merged signal list (the two lists
/// may differ in order and membership). A moved row equals the row its
/// shard would give: the merge rewrites exactly the slots that depend on
/// the rest of the design. The moved rows are reported as runs, adjacent
/// signals' rows folded into one; a shard's rows have no origin, so a
/// merge without prior data reports none.
fn merge_pieces(
    variant: BogVariant,
    design_feats: Vec<f64>,
    pieces: &mut Vec<Piece>,
    mut prior: Option<&mut VariantData>,
    order: &mut Vec<usize>,
    rank_pct: &mut Vec<f64>,
) -> (VariantData, Vec<RowMove>) {
    let mut moves: Vec<RowMove> = Vec::new();
    let mut data = VariantData {
        variant,
        rows: Vec::new(),
        groups: Vec::new(),
        endpoint_sta_at: Vec::new(),
        driving_regs: Vec::new(),
        design_feats,
    };
    for piece in pieces.drain(..) {
        let row_base = data.rows.len();
        let ep_base = data.endpoint_sta_at.len();
        match piece {
            Piece::Shard(shard) => {
                data.endpoint_sta_at.extend(shard.sta_at);
                data.driving_regs.extend(shard.driving_regs);
                for mut g in shard.groups {
                    for r in &mut g {
                        *r += row_base;
                    }
                    data.groups.push(g);
                }
                data.rows.extend(shard.rows.into_iter().map(|mut row| {
                    row.endpoint += ep_base;
                    row
                }));
            }
            Piece::Prior { width, from } => {
                let prev = prior.as_deref_mut().expect("prior pieces need prior data");
                let eps = from..from + width;
                // A signal's groups list its rows in order, one contiguous
                // run from its first group's head to its last group's end.
                let first = prev.groups[from][0];
                let end = prev.groups[eps.end - 1].last().expect("a row per endpoint") + 1;
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
                    .extend(prev.rows[first..end].iter_mut().map(|row| {
                        let mut row = std::mem::take(row);
                        row.endpoint = row.endpoint - from + ep_base;
                        row
                    }));
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
    let n_eps = data.endpoint_sta_at.len();
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
/// than once go through the once-map — see [`FeaturizeJob`]'s `shard`.
fn fingerprint_multiplicity(extractions: &[ConeExtraction]) -> HashMap<ContentHash, u32> {
    let mut multiplicity: HashMap<ContentHash, u32> = HashMap::new();
    for e in extractions {
        *multiplicity.entry(e.fingerprint).or_insert(0) += 1;
    }
    multiplicity
}

/// One signal's canonical input-cone extraction and its two keys. The
/// content hash of the cone's bytes decides whether an edit session moves
/// the signal's rows over from its previous revision (name-sensitive); the
/// structural fingerprint keys the once-map of shared seed-independent
/// evaluations (name-free, so isomorphic cones of different signals
/// collide).
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

/// Builds all four variants' datasets of `sog`: a [`FeaturizeJob`]
/// stepped to completion in one call on `scratch` (the pipeline's
/// parallel prepare passes one per worker). One extraction per signal,
/// then one shard per signal × variant; each *unique* canonical cone of a
/// variant gets one seed-independent evaluation — computed via the
/// levelized kernel, kept in the job's once-map — and every signal sharing
/// it replays only the seeded sampling.
pub fn build_all_variant_data(
    sog: &Bog,
    lib: &Library,
    clock: f64,
    design_seed: u64,
    scratch: &mut FeaturizeScratch,
) -> Vec<VariantData> {
    FeaturizeJob::new(sog, clock, design_seed)
        .run(sog, lib, scratch)
        .variant_data
}

/// The previous revision's merged datasets, offered to a [`FeaturizeJob`].
/// A signal with a `from` entry — its cone content is unchanged — moves
/// its rows out of `variant_data` instead of computing its shards.
#[derive(Debug)]
pub(crate) struct PriorRows {
    /// The previous revision's data, one per variant in
    /// [`BogVariant::ALL`] order.
    pub variant_data: Vec<VariantData>,
    /// Per signal of the job: the first endpoint of its rows in
    /// `variant_data`, if they move over.
    pub from: Vec<Option<usize>>,
}

/// Where a [`FeaturizeJob`]'s shards came from — counted by the job
/// itself, so concurrent jobs never see each other's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardCounts {
    /// Shards computed.
    pub computed: u64,
    /// The part of `computed` that replayed an evaluation from the job's
    /// once-map instead of evaluating its cone.
    pub shared: u64,
    /// Shards whose rows moved over from the previous revision.
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
    /// The job's shared-cone counts and featurize time.
    pub stats: ConeDedupStats,
}

/// The resumable sharded featurize walk behind every featurize path,
/// sliced into bounded `step` calls so a single-threaded event loop can
/// interleave many re-annotations without one large design starving the
/// tick. Iteration order, dedup behavior and merged output do not depend
/// on the slicing — a job stepped to completion produces the same
/// [`VariantData`] as [`build_all_variant_data`] (which is this job
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
    /// The current variant's evaluations of cones that occur more than
    /// once in the design, by fingerprint, with their converted cones.
    once: HashMap<ContentHash, (Bog, ConeEval)>,
    /// Each variant's design-level features, when the caller counted them
    /// (see [`FeaturizeJob::with_design_features`]).
    design_feats: Option<Vec<Vec<f64>>>,
    vi: usize,
    sig: usize,
    done: Vec<VariantData>,
    moves: Vec<Vec<RowMove>>,
    counts: ShardCounts,
    /// Wall time spent extracting and stepping (seconds).
    seconds: f64,
}

impl FeaturizeJob {
    /// Extracts every signal cone of `sog` up front (cheap, linear) and
    /// positions the job at the first shard of the first variant. `step`
    /// must then be given the same `sog`.
    pub fn new(sog: &Bog, clock: f64, design_seed: u64) -> FeaturizeJob {
        let started = Instant::now();
        let mut job =
            FeaturizeJob::with_extractions(clock, design_seed, ConeExtraction::all(sog), None);
        job.seconds = started.elapsed().as_secs_f64();
        job
    }

    /// A job over cones the caller already extracted (signal order of the
    /// SOG later passed to `step`). With `prior`, every signal it gives a
    /// `from` moves its rows over from the previous revision; the rest are
    /// computed.
    pub(crate) fn with_extractions(
        clock: f64,
        design_seed: u64,
        extractions: Vec<ConeExtraction>,
        prior: Option<PriorRows>,
    ) -> FeaturizeJob {
        if let Some(p) = &prior {
            assert_eq!(p.from.len(), extractions.len(), "one entry per signal");
        }
        FeaturizeJob {
            clock,
            design_seed,
            multiplicity: fingerprint_multiplicity(&extractions),
            extractions,
            prior,
            scratch: FeaturizeScratch::new(),
            once: HashMap::new(),
            design_feats: None,
            vi: 0,
            sig: 0,
            done: Vec::with_capacity(BogVariant::ALL.len()),
            moves: Vec::with_capacity(BogVariant::ALL.len()),
            counts: ShardCounts::default(),
            seconds: 0.0,
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

    /// Computes up to `max_shards` more shards (at least one), merging
    /// each variant as its last shard lands; rows moving over from the
    /// prior revision cost no budget. Returns `true` once the job is done
    /// and `finish` may be called.
    pub fn step(&mut self, sog: &Bog, lib: &Library, max_shards: usize) -> bool {
        let started = Instant::now();
        let mut budget = max_shards.max(1);
        let n = sog.signals().len();
        assert_eq!(n, self.extractions.len(), "job stepped on another SOG");
        while self.vi < BogVariant::ALL.len() {
            let variant = BogVariant::ALL[self.vi];
            while self.sig < n {
                let piece = match self.prior.as_ref().and_then(|p| p.from[self.sig]) {
                    Some(from) => {
                        self.counts.resident += 1;
                        let width = sog.signals()[self.sig].width as usize;
                        Piece::Prior { width, from }
                    }
                    None if budget == 0 => {
                        self.seconds += started.elapsed().as_secs_f64();
                        return false;
                    }
                    None => {
                        budget -= 1;
                        Piece::Shard(self.shard(sog, lib))
                    }
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
                &mut self.scratch.pieces,
                prior,
                &mut self.scratch.order,
                &mut self.scratch.rank_pct,
            );
            self.done.push(data);
            self.moves.push(moves);
            self.once.clear();
            self.vi += 1;
            self.sig = 0;
        }
        // Only husks of the prior revision remain: release them now.
        self.prior = None;
        self.seconds += started.elapsed().as_secs_f64();
        true
    }

    /// Computes the current signal's shard of the current variant and
    /// counts it.
    fn shard(&mut self, sog: &Bog, lib: &Library) -> ConeShard {
        let (vi, clock) = (self.vi, self.clock);
        let variant = BogVariant::ALL[vi];
        let s = &sog.signals()[self.sig];
        let ext = &self.extractions[self.sig];
        let n_eps = s.width as usize;
        let seed = shard_seed(self.design_seed, vi, &s.name);
        let (levels, cone_scratch) = (&mut self.scratch.levels, &mut self.scratch.cones);
        let mut evaluated = false;
        let mut evaluate = || {
            evaluated = true;
            let vbog = ext.cone.to_variant(variant);
            let eval = compute_cone_eval(&vbog, n_eps, lib, clock, levels, cone_scratch);
            (vbog, eval)
        };
        let shard = if self
            .multiplicity
            .get(&ext.fingerprint)
            .copied()
            .unwrap_or(1)
            > 1
        {
            // The first signal of a repeated cone evaluates it; the others
            // replay that evaluation.
            let (vbog, eval) = self.once.entry(ext.fingerprint).or_insert_with(evaluate);
            replay_cone_shard(vbog, eval, Vec::new(), n_eps, lib, clock, seed)
        } else {
            // Singleton cone (~90 % of signals on the bundled suites):
            // compute and replay in place, crit rows moved not cloned.
            let (vbog, mut eval) = evaluate();
            let owned = std::mem::take(&mut eval.crit_rows);
            replay_cone_shard(&vbog, &eval, owned, n_eps, lib, clock, seed)
        };
        self.counts.computed += 1;
        self.counts.shared += u64::from(!evaluated);
        shard
    }

    /// Steps the job to completion on `scratch` and finishes it.
    pub(crate) fn run(
        mut self,
        sog: &Bog,
        lib: &Library,
        scratch: &mut FeaturizeScratch,
    ) -> FeaturizeOutput {
        std::mem::swap(&mut self.scratch, scratch);
        while !self.step(sog, lib, usize::MAX) {}
        std::mem::swap(&mut self.scratch, scratch);
        self.finish()
    }

    /// The merged variant datasets, the extractions and the job's counts.
    /// Panics if the job is not done.
    pub(crate) fn finish(self) -> FeaturizeOutput {
        assert!(self.is_done(), "FeaturizeJob finished before completion");
        let stats = ConeDedupStats {
            total_signals: self.extractions.len() as u64,
            unique_cones: self.multiplicity.len() as u64,
            saved_evals: self.counts.shared,
            featurize_seconds: self.seconds,
        };
        FeaturizeOutput {
            variant_data: self.done,
            extractions: self.extractions,
            moves: self.moves,
            counts: self.counts,
            stats,
        }
    }
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

    /// The production path: the sharded build as one [`FeaturizeJob`],
    /// then [`token_rows`]; also the job's shard counts.
    fn featurized(sog: &Bog, lib: &Library, clock: f64, seed: u64) -> (Featurized, ShardCounts) {
        let out = FeaturizeJob::new(sog, clock, seed).run(sog, lib, &mut FeaturizeScratch::new());
        let data = Featurized {
            data: out.variant_data,
            tokens: token_rows(sog, lib, clock, seed),
        };
        (data, out.counts)
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
            let mut pieces: Vec<Piece> = sog
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
                    Piece::Shard(shard)
                })
                .collect();
            let design_feats = design_features(&sog.to_variant(variant));
            let (data, moves) = merge_pieces(
                variant,
                design_feats,
                &mut pieces,
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

    /// The SOG variant of the sharded build.
    fn sog_data(bog: &Bog, seed: u64) -> VariantData {
        let lib = Library::pseudo_bog();
        let mut all = build_all_variant_data(bog, &lib, 1.0, seed, &mut FeaturizeScratch::new());
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
        let (Featurized { data: all, .. }, counts) = featurized(&bog, &lib, 1.0, 7);
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
        // The job computed one shard per signal × variant, and a second
        // job computes them all again with identical output.
        assert_eq!(counts.computed as usize, bog.signals().len() * 4);
        let (again, again_counts) = featurized(&bog, &lib, 1.0, 7);
        assert_eq!(again_counts, counts);
        for (a, b) in all.iter().zip(&again.data) {
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
                let (deduped, counts) = featurized(&bog, &lib, clock, 7);
                let legacy = build_all_variant_data_naive(&bog, &lib, clock, 7);
                assert_bit_identical(&deduped, &legacy);
                // One shard per signal × variant, as the per-signal path
                // computes them.
                assert_eq!(counts.computed as usize, bog.signals().len() * 4);
            }
        }
    }

    #[test]
    fn isomorphic_cones_share_one_evaluation() {
        let bog = twin_bog();
        let lib = Library::pseudo_bog();
        let (_, counts) = featurized(&bog, &lib, 1.0, 7);
        // r1/r2 cones are isomorphic: per variant, the first computes the
        // evaluation and the second replays it from the once-map.
        assert_eq!(counts.computed as usize, bog.signals().len() * 4);
        assert_eq!(counts.shared, 4, "one shared evaluation per variant");
        assert_eq!(counts.resident, 0, "no prior revision");
        // A second job starts with an empty once-map of its own and counts
        // the same again.
        let (_, again) = featurized(&bog, &lib, 1.0, 7);
        assert_eq!(again, counts);
    }

    #[test]
    fn token_rows_replay_shared_evaluations_row_for_row() {
        // r1/r2 are twins: featurize resolves both SOG cones through one
        // shared evaluation, while `token_rows` evaluates each cone
        // itself; both match the per-signal oracle bit for bit.
        let bog = twin_bog();
        let lib = Library::pseudo_bog();
        let data = build_all_variant_data(&bog, &lib, 1.0, 7, &mut FeaturizeScratch::new());
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

            let (dedup, counts) = featurized(&sog, &lib, clock, seed);
            assert_bit_identical(&dedup, &build_all_variant_data_naive(&sog, &lib, clock, seed));

            // One shard per signal × variant, as the naive path computes
            // them, and per variant every twin after the first replays the
            // first one's evaluation.
            prop_assert_eq!(counts.computed as usize, sog.signals().len() * 4);
            prop_assert_eq!(counts.shared as usize, 4 * (twins - 1));
        }
    }

    #[test]
    fn a_move_between_reordered_signal_lists_rebases_endpoints_like_a_fresh_merge() {
        let sog = blast(&compile(&twin_source(4, 3, "+"), "t").expect("compiles"));
        let lib = Library::pseudo_bog();
        let variant = BogVariant::ALL[0];
        let widths: Vec<usize> = sog.signals().iter().map(|s| s.width as usize).collect();
        let n = widths.len();
        assert!(n >= 4, "rz and three twins");
        let shard = |sig: usize| {
            let sub = rtlt_bog::extract_signal_cone(&sog, sig).to_variant(variant);
            let seed = shard_seed(7, 0, &sog.signals()[sig].name);
            Piece::Shard(build_cone_shard(&sub, widths[sig], &lib, 1.0, seed).0)
        };
        let merge = |pieces: &mut Vec<Piece>, prior: Option<&mut VariantData>| {
            let feats = design_features(&sog);
            merge_pieces(
                variant,
                feats,
                pieces,
                prior,
                &mut Vec::new(),
                &mut Vec::new(),
            )
        };
        // The prior revision lists every signal in order; the next lists
        // them reversed, without signal 1. Every other signal of the next
        // list moves over, the rest are computed afresh.
        let (mut prior, _) = merge(&mut (0..n).map(shard).collect(), None);
        let before = prior.clone();
        let next: Vec<usize> = (0..n).rev().filter(|&sig| sig != 1).collect();
        let mut pieces: Vec<Piece> = next
            .iter()
            .enumerate()
            .map(|(i, &sig)| match i % 2 {
                0 => Piece::Prior {
                    width: widths[sig],
                    from: widths[..sig].iter().sum(),
                },
                _ => shard(sig),
            })
            .collect();
        let (moved, moves) = merge(&mut pieces, Some(&mut prior));
        let (fresh, _) = merge(&mut next.iter().map(|&sig| shard(sig)).collect(), None);

        assert_eq!(moved.groups, fresh.groups);
        assert_eq!(bits(&moved.endpoint_sta_at), bits(&fresh.endpoint_sta_at));
        assert_eq!(bits(&moved.driving_regs), bits(&fresh.driving_regs));
        assert_eq!(moved.rows.len(), fresh.rows.len());
        for (r, s) in moved.rows.iter().zip(&fresh.rows) {
            assert_eq!(r.endpoint, s.endpoint, "endpoints re-based");
            assert_eq!(bits(&r.features), bits(&s.features));
        }
        // One run per moved signal (reversed order folds none), each equal
        // to the prior rows it came from outside the merged slots.
        assert_eq!(moves.len(), next.len().div_ceil(2));
        for m in &moves {
            for k in 0..m.len {
                let (was, now) = (&before.rows[m.from + k], &moved.rows[m.to + k]);
                assert_eq!(
                    bits(&was.features[MERGED_SLOTS..]),
                    bits(&now.features[MERGED_SLOTS..])
                );
            }
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
