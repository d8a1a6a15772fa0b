//! Incremental re-annotation of edited designs (paper §3.5.1, Fig. 3).
//!
//! The early-optimization loop the paper targets: the designer edits
//! Verilog, slack annotations refresh fast enough to steer the next edit.
//! [`IncrementalAnnotator`] holds the loop's fixed context — the design
//! name, the **pinned clock** from the baseline label flow (slack is always
//! evaluated against a target clock; deriving a new one per keystroke would
//! make slacks incomparable across edits) — and drives each edit through
//! the module-granular pipeline:
//!
//! 1. recompile (one whole-file parse) unless the store holds the
//!    revision's `blast` artifact; the dirty-module set is the text-key
//!    diff against the previous pass,
//! 2. re-blast (cheap, linear) and record each signal's module provenance
//!    (both stored in the `blast` artifact),
//! 3. refeaturize through the `shard` namespace — only cones fed by an
//!    edited module miss ([`crate::cache::shard_key`]); everything else is
//!    served from the store,
//! 4. predict with the caller's (typically memoized, see
//!    [`RtlTimer::fit_with`]) model and re-emit the annotated source.
//!
//! The annotator also keeps the **last finished revision resident**: every
//! signal's cone extraction and keys, the merged rows of all four
//! variants, the module keys the revision was built from, the node counts
//! of its variant conversions ([`VariantCensus`]), and its prediction —
//! each path row's and endpoint's, with the split cells they were
//! predicted from. The next edit re-extracts only the cones it may have
//! reached and moves every other signal's rows over instead of looking
//! its shards up, moves the census by converting only the SOG structure
//! the edit changed, then re-walks the forests only for rows that are new
//! or whose cells the edit moved, so the per-edit work that scales with
//! the design shrinks to the design-global passes (recompile and blast,
//! one hash lookup per SOG node, rank percentiles, cell coding, render).
//!
//! The ground-truth label flow is deliberately **not** on this path: labels
//! exist to train models, and an edited design has no ground truth until it
//! is synthesized again. The per-endpoint pseudo-STA arrivals stand in as
//! placeholder labels (they only feed endpoint counting in the WNS/TNS
//! head, never the annotations themselves). A cold store produces the
//! byte-identical annotation — incrementality changes what is *reused*,
//! never what is computed.

use crate::annotate::annotate_source;
use crate::cache::PrepareKeys;
use crate::dataset::{ConeExtraction, FeaturizeJob, FeaturizeOutput, PriorRows, VariantData};
use crate::features::{design_features, design_features_of};
use crate::pipeline::{
    design_seed, DesignData, PredictCarry, PredictScratch, Prediction, PrepareStages, RtlTimer,
    TimerConfig,
};
use rtlt_bog::{Bog, BogVariant, ConeExtractor, ConeMatch, VariantCensus};
use rtlt_liberty::Library;
use rtlt_store::{ContentHash, Store};
use rtlt_verilog::VerilogError;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Result of one [`IncrementalAnnotator::reannotate`] pass.
#[derive(Debug)]
pub struct ReannotateOutcome {
    /// The freshly annotated source.
    pub annotated: String,
    /// Modules whose text key changed since the previous pass (added
    /// modules included, removed ones listed too).
    pub dirty_modules: Vec<String>,
    /// Signals whose cone provenance contains a dirty module — the
    /// invalidation *upper bound* the module-granular architecture
    /// guarantees. The shards actually recomputed are a subset (content
    /// keys skip cones whose logic an edit did not reach). A source without
    /// module keys (one the splitter cannot handle) bounds nothing, so
    /// every signal is listed.
    pub dirty_cone_bound: Vec<String>,
    /// Featurize shards this pass computed.
    pub dirty_shards: u64,
    /// Featurize shards this pass reused: served by the store or moved
    /// over from the resident revision.
    pub reused_shards: u64,
    /// The part of `reused_shards` moved over from the resident revision,
    /// with no store lookup.
    pub resident_shards: u64,
    /// Total shards (signals × 4 representations).
    pub total_shards: u64,
    /// Path rows this pass walked through the bit-wise forests (all four
    /// representations); the rest kept the resident revision's
    /// predictions.
    pub walked_rows: u64,
    /// Path rows of the pass (all four representations).
    pub total_rows: u64,
    /// Endpoints whose ensemble meta row this pass walked.
    pub walked_endpoints: u64,
    /// Endpoints of the pass.
    pub total_endpoints: u64,
    /// The prediction behind the annotation (for reporting).
    pub prediction: Prediction,
}

/// Per-module *text* hashes of a source ([`rtlt_verilog::modsrc::text_keys`]:
/// not dependency-closed — the diff should name the module the designer
/// actually touched, not everything above it). Empty when the source
/// cannot be split (flat fallback — every edit then dirties everything).
pub fn module_key_map(source: &str) -> BTreeMap<String, ContentHash> {
    rtlt_verilog::modsrc::text_keys(source)
        .into_iter()
        .collect()
}

/// Modules whose key differs between two key maps — added, changed and
/// removed ones — sorted by name.
fn changed_modules(
    old: &BTreeMap<String, ContentHash>,
    new: &BTreeMap<String, ContentHash>,
) -> Vec<String> {
    let mut changed: Vec<String> = new
        .iter()
        .filter(|(name, key)| old.get(*name) != Some(*key))
        .map(|(name, _)| name.clone())
        .collect();
    changed.extend(old.keys().filter(|name| !new.contains_key(*name)).cloned());
    changed.sort();
    changed
}

/// The last finished revision of a session, kept so the next edit moves
/// what it did not touch instead of rebuilding it.
struct Resident {
    /// The revision's SOG: reused extractions are matched against it.
    sog: Bog,
    /// Per-module text keys the revision was built from.
    module_keys: BTreeMap<String, ContentHash>,
    /// Every signal's cone extraction and keys, in signal order.
    extractions: Vec<ConeExtraction>,
    /// The merged datasets, one per variant.
    variant_data: Vec<VariantData>,
    /// The node counts of the SOG's variant conversions, which the next
    /// revision moves instead of converting the whole design again.
    census: VariantCensus,
    /// The revision's prediction, row by row, with the cells it was made
    /// from.
    carry: PredictCarry,
}

impl std::fmt::Debug for Resident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resident")
            .field("signals", &self.extractions.len())
            .field("modules", &self.module_keys.len())
            .finish_non_exhaustive()
    }
}

/// A session's resident-revision slot, shared with its in-flight job:
/// [`IncrementalAnnotator::begin`] takes the revision out and
/// [`ReannotateJob::finish`] puts the new one back, so a second job begun
/// meanwhile finds the slot empty and walks the whole design.
#[derive(Debug, Default)]
struct ResidentSlot(Arc<Mutex<Option<Resident>>>);

impl ResidentSlot {
    fn lock(&self) -> MutexGuard<'_, Option<Resident>> {
        // The slot only ever holds whole revisions, so a poisoned lock
        // still guards a consistent value.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn take(&self) -> Option<Resident> {
        self.lock().take()
    }

    fn put(&self, revision: Resident) {
        *self.lock() = Some(revision);
    }

    fn share(&self) -> ResidentSlot {
        ResidentSlot(Arc::clone(&self.0))
    }
}

/// Every variant's design-level features of `sog`, in [`BogVariant::ALL`]
/// order: the SOG's from its own cell counts, the others' from `census`,
/// which has been moved to `sog`.
fn census_design_features(sog: &Bog, census: &VariantCensus) -> Vec<Vec<f64>> {
    BogVariant::ALL
        .iter()
        .map(|&v| {
            if v == sog.variant {
                design_features(sog)
            } else {
                design_features_of(&census.counts(v))
            }
        })
        .collect()
}

/// Whether two revisions have the same signal list (names and widths, in
/// order) — the precondition for moving rows between them.
fn same_signals(old: &Bog, new: &Bog) -> bool {
    old.signals().len() == new.signals().len()
        && old
            .signals()
            .iter()
            .zip(new.signals())
            .all(|(a, b)| a.name == b.name && a.width == b.width)
}

/// Carries a resident revision over to `sog`, a revision with the same
/// signal list. A signal outside the provenance bound of the modules
/// changed since the resident revision keeps its extraction once a
/// lockstep [`ConeMatch`] against the resident SOG shows a fresh extraction
/// would be identical (an edit can still shift declaration lines, or
/// rewire a pass-through module no provenance names). Every other signal
/// is extracted afresh, all through one [`ConeExtractor`]. Either way, a
/// signal whose content key is unchanged moves its rows over instead of
/// being looked up. The resident prediction rides along, for the rows
/// that move.
fn carry_over(
    prev: Resident,
    sog: &Bog,
    keys: &BTreeMap<String, ContentHash>,
    provenance: &[Vec<String>],
) -> (Vec<ConeExtraction>, PriorRows, PredictCarry) {
    let changed = changed_modules(&prev.module_keys, keys);
    let mut matcher = ConeMatch::new(&prev.sog, sog);
    let mut extractor = ConeExtractor::new(sog);
    let mut reuse = Vec::with_capacity(prev.extractions.len());
    let extractions = prev
        .extractions
        .into_iter()
        .enumerate()
        .map(|(sig, old)| {
            let bound = provenance[sig].iter().any(|m| changed.contains(m));
            if !bound && matcher.same_signal_cone(&prev.sog, sig, sog, sig) {
                #[cfg(test)]
                assert_eq!(
                    ConeExtraction::of(&mut extractor, sig).content,
                    old.content,
                    "reused extraction of {} differs from a fresh one",
                    sog.signals()[sig].name
                );
                reuse.push(true);
                old
            } else {
                let fresh = ConeExtraction::of(&mut extractor, sig);
                reuse.push(fresh.content == old.content);
                fresh
            }
        })
        .collect();
    let prior = PriorRows {
        variant_data: prev.variant_data,
        reuse,
    };
    (extractions, prior, prev.carry)
}

/// Driver of the edit → re-annotate loop for one design. `Clone` exists
/// for the live service: it keeps one prototype per prepared design and
/// clones it per OPEN, so every session starts from the same pinned clock
/// and diff base a local loop would — and from an empty resident slot of
/// its own.
#[derive(Debug)]
pub struct IncrementalAnnotator {
    name: String,
    cfg: TimerConfig,
    clock: f64,
    setup: f64,
    module_keys: BTreeMap<String, ContentHash>,
    resident: ResidentSlot,
}

impl Clone for IncrementalAnnotator {
    /// Copies the session context with a fresh, empty resident slot: a
    /// clone never shares, or copies, another session's revision.
    fn clone(&self) -> IncrementalAnnotator {
        IncrementalAnnotator {
            name: self.name.clone(),
            cfg: self.cfg.clone(),
            clock: self.clock,
            setup: self.setup,
            module_keys: self.module_keys.clone(),
            resident: ResidentSlot::default(),
        }
    }
}

impl IncrementalAnnotator {
    /// Opens a session against a fully prepared baseline: the label flow's
    /// clock and setup are pinned for every subsequent pass.
    pub fn new(base: &DesignData, cfg: &TimerConfig) -> IncrementalAnnotator {
        IncrementalAnnotator {
            name: base.name.to_string(),
            cfg: cfg.clone(),
            clock: base.clock,
            setup: base.setup,
            module_keys: module_key_map(&base.source),
            resident: ResidentSlot::default(),
        }
    }

    /// The pinned evaluation clock (ns).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Re-annotates an edited revision of the session's design, running
    /// the resumable pipeline to completion in one call.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors — a syntactically broken edit reports its
    /// parse/elaboration error and leaves the session state unchanged, so
    /// the next (fixed) revision diffs against the last good one.
    pub fn reannotate(
        &mut self,
        source: &str,
        model: &RtlTimer,
        store: &Store,
    ) -> Result<ReannotateOutcome, VerilogError> {
        let mut job = self.begin(source, store)?;
        while !job.step(store, usize::MAX) {}
        Ok(job.finish(model, store))
    }

    /// Starts a resumable re-annotation pass: recompile + re-blast, diff
    /// the dirty modules, bound the invalidation through provenance, carry
    /// the resident revision over, and prefetch every shard left to look
    /// up in one batched round trip. The returned [`ReannotateJob`] is then
    /// driven by bounded [`ReannotateJob::step`] calls — the live
    /// annotation service interleaves many of these on one event-loop tick.
    ///
    /// The job walks the whole design, as a cold pass would, when there is
    /// no usable resident revision: on the first pass, while another job
    /// of this session holds it, when the signal list changed, and for a
    /// source without module keys. Its predict re-walks every row as well
    /// when the resident prediction came from another model. Every path
    /// produces the same bytes.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors; session state (the module-key diff
    /// base and the resident revision) is only touched once the edit
    /// compiles.
    pub fn begin(&mut self, source: &str, store: &Store) -> Result<ReannotateJob, VerilogError> {
        let prepare_keys = PrepareKeys::derive(&self.name, source, &self.cfg);
        let blasted = PrepareStages::new(&self.cfg).blasted_with_keys(
            store,
            &prepare_keys,
            &self.name,
            source,
        )?;
        let sog = blasted.sog.clone();

        // Dirty-module diff against the previous pass (text-level hashes:
        // the report names what was edited, not its dependents). The
        // blasted design carries the keys; a flat source the splitter
        // could not handle carries none.
        let keys: BTreeMap<String, ContentHash> = blasted.module_keys.iter().cloned().collect();
        let dirty_modules = changed_modules(&self.module_keys, &keys);
        self.module_keys = keys.clone();
        let flat = keys.is_empty();

        // The provenance map, stored with the blasted design, bounds what
        // this edit may invalidate: cones whose module set contains a dirty
        // module. Without module keys nothing bounds the edit, so every
        // signal is in the bound.
        let provenance = &blasted.provenance;
        let dirty_cone_bound: Vec<String> = sog
            .signals()
            .iter()
            .zip(provenance)
            .filter(|(_, mods)| flat || mods.iter().any(|m| dirty_modules.contains(m)))
            .map(|(s, _)| s.name.clone())
            .collect();

        // A flat source never uses or keeps a resident revision. The
        // variant census moves to any revision, a changed signal list
        // included; a first pass builds it from scratch.
        let mut resident = self.resident.take().filter(|_| !flat);
        let census = (!flat).then(|| {
            let mut census = resident
                .as_mut()
                .map(|prev| std::mem::take(&mut prev.census))
                .unwrap_or_default();
            census.update(&sog);
            census
        });
        let resident = resident.filter(|prev| same_signals(&prev.sog, &sog));
        let (extractions, prior, carry) = match resident {
            Some(prev) => {
                let (extractions, prior, carry) = carry_over(prev, &sog, &keys, provenance);
                (extractions, Some(prior), Some(carry))
            }
            None => (ConeExtraction::all(&sog), None, None),
        };

        // Featurize through the shard namespace against the pinned clock.
        let seed = design_seed(self.cfg.seed, &self.name);
        let mut feat = FeaturizeJob::with_extractions(self.clock, seed, extractions, prior);
        if let Some(census) = &census {
            feat = feat.with_design_features(census_design_features(&sog, census));
        }
        // Pull every cold shard from the fleet cache in one batched GETM
        // round trip (a no-op without a remote tier) — the stepped walk
        // then runs against staged payloads instead of per-key latency.
        store.prefetch(&feat.shard_items(&sog));
        Ok(ReannotateJob {
            revision: Revision {
                name: self.name.clone(),
                source: source.to_owned(),
                clock: self.clock,
                setup: self.setup,
                seed,
                synth_effort: self.cfg.synth_effort,
                prepare_key: prepare_keys.featurize,
                ast_feats: blasted.ast_feats.clone(),
                sog,
            },
            dirty_modules,
            dirty_cone_bound,
            lib: Library::pseudo_bog(),
            feat,
            slot: (!flat).then(|| self.resident.share()),
            census,
            carry,
            module_keys: keys,
        })
    }

    /// Advances the diff base to `source` without recomputing anything —
    /// called when a *remote* session produced this revision's annotation,
    /// so a later local fallback diffs against the revision the designer
    /// actually sees, not a stale one. The resident revision is dropped:
    /// it is no longer the one the designer sees.
    pub fn note_revision(&mut self, source: &str) {
        self.module_keys = module_key_map(source);
        self.resident.take();
    }
}

/// One in-flight re-annotation pass, resumable in bounded slices. Created
/// by [`IncrementalAnnotator::begin`]; stepping to completion and calling
/// [`ReannotateJob::finish`] produces output byte-identical to
/// [`IncrementalAnnotator::reannotate`] (which is itself implemented over
/// this job).
#[derive(Debug)]
pub struct ReannotateJob {
    revision: Revision,
    dirty_modules: Vec<String>,
    dirty_cone_bound: Vec<String>,
    lib: Library,
    feat: FeaturizeJob,
    /// The session's resident slot (`None` for a flat source, which never
    /// keeps its revision).
    slot: Option<ResidentSlot>,
    /// This revision's variant census, kept with it once resident (`None`
    /// exactly when `slot` is).
    census: Option<VariantCensus>,
    /// The resident revision's prediction, for the rows `feat` moves over
    /// from it.
    carry: Option<PredictCarry>,
    /// Module keys of this revision, kept with it once resident.
    module_keys: BTreeMap<String, ContentHash>,
}

/// Everything of an edited revision's [`DesignData`] but its rows.
#[derive(Debug)]
struct Revision {
    name: String,
    source: String,
    clock: f64,
    setup: f64,
    seed: u64,
    synth_effort: f64,
    prepare_key: ContentHash,
    ast_feats: Vec<f64>,
    sog: Bog,
}

impl Revision {
    /// The revision's design data over its merged rows. Pseudo labels: the
    /// SOG pseudo-STA arrivals. Ground truth does not exist for an
    /// unsynthesized edit; these only feed the labeled-endpoint count of
    /// the WNS/TNS head and the (unused here) evaluation fields of the
    /// prediction.
    fn with_rows(self, variant_data: Vec<VariantData>) -> DesignData {
        let labels_at: Arc<[f64]> = variant_data[0].endpoint_sta_at.as_slice().into();
        let signal_names = crate::pipeline::signal_names_of(&self.sog);
        DesignData {
            name: self.name.as_str().into(),
            source: self.source,
            signal_names,
            sog: self.sog,
            variant_data,
            labels_at,
            clock: self.clock,
            setup: self.setup,
            wns: f64::NAN,
            tns: f64::NAN,
            area: f64::NAN,
            power: f64::NAN,
            ast_feats: self.ast_feats,
            synth_seed: self.seed,
            synth_effort: self.synth_effort,
            prepare_key: self.prepare_key,
        }
    }
}

impl ReannotateJob {
    /// Evaluates up to `max_shards` more cone shards. Returns `true` once
    /// the pass is ready to [`ReannotateJob::finish`].
    pub fn step(&mut self, store: &Store, max_shards: usize) -> bool {
        self.feat
            .step(store, &self.revision.sog, &self.lib, max_shards)
    }

    /// Total shards this pass evaluates (signals × variants).
    pub fn total_shards(&self) -> u64 {
        self.feat.total_shards()
    }

    /// Shards not yet evaluated.
    pub fn remaining_shards(&self) -> u64 {
        self.feat.remaining_shards()
    }

    /// Modules whose text changed since the previous pass.
    pub fn dirty_modules(&self) -> &[String] {
        &self.dirty_modules
    }

    /// Assembles the design data, predicts, renders the annotated source,
    /// and leaves this revision resident in its session. A session that
    /// keeps its revision predicts through the resident prediction:
    /// only rows the edit added, or whose split cells it moved, are
    /// walked. Panics if the job was not stepped to completion. The shard
    /// counts are the job's own (no store is consulted here).
    pub fn finish(self, model: &RtlTimer, _store: &Store) -> ReannotateOutcome {
        let FeaturizeOutput {
            variant_data,
            extractions,
            moves,
            counts,
        } = self.feat.finish();
        let total_shards = (self.revision.sog.signals().len() * 4) as u64;
        let d = self.revision.with_rows(variant_data);

        // A flat source keeps nothing, so it records nothing either.
        let mut carry = self.slot.is_some().then(|| self.carry.unwrap_or_default());
        let (prediction, walked) =
            model.predict_carried(&d, &mut PredictScratch::default(), carry.as_mut(), &moves);
        let annotated = annotate_source(&d, &prediction);
        if let (Some(slot), Some(carry), Some(census)) = (self.slot, carry, self.census) {
            slot.put(Resident {
                sog: d.sog,
                module_keys: self.module_keys,
                extractions,
                variant_data: d.variant_data,
                census,
                carry,
            });
        }

        ReannotateOutcome {
            annotated,
            dirty_modules: self.dirty_modules,
            dirty_cone_bound: self.dirty_cone_bound,
            dirty_shards: counts.computed,
            reused_shards: counts.stored + counts.resident,
            resident_shards: counts.resident,
            total_shards,
            walked_rows: walked.walked_rows,
            total_rows: walked.total_rows,
            walked_endpoints: walked.walked_endpoints,
            total_endpoints: walked.total_endpoints,
            prediction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::stage;
    use crate::pipeline::DesignSet;

    fn lane(name: &str, body: &str) -> String {
        format!(
            "module {name}(input clk, input [7:0] x, output [7:0] y);
  reg [7:0] r;
  always @(posedge clk) r <= {body};
  assign y = r;
endmodule"
        )
    }

    fn design_of(lane_a: &str, lane_b: &str) -> String {
        format!(
            "{lane_a}
{lane_b}
module hier_top(input clk, input [7:0] a, input [7:0] b, output [7:0] q);
  wire [7:0] ya;
  wire [7:0] yb;
  laneA u0 (.clk(clk), .x(a), .y(ya));
  laneB u1 (.clk(clk), .x(b), .y(yb));
  reg [7:0] merge_r;
  always @(posedge clk) merge_r <= ya ^ yb;
  assign q = merge_r;
endmodule"
        )
    }

    fn design(lane_a_body: &str) -> String {
        design_of(&lane("laneA", lane_a_body), &lane("laneB", "x ^ (x >> 1)"))
    }

    fn session() -> (IncrementalAnnotator, RtlTimer, Store, TimerConfig, String) {
        session_with(design("x + 8'd3"), design("x - 8'd1"))
    }

    /// A session on `base` (top `hier_top`), with a model trained on
    /// `trainer` renamed to its own top.
    fn session_with(
        base: String,
        trainer: String,
    ) -> (IncrementalAnnotator, RtlTimer, Store, TimerConfig, String) {
        let cfg = TimerConfig {
            threads: 2,
            ..Default::default()
        };
        let store = Store::in_memory();
        let sources = vec![
            ("hier_top".to_owned(), base.clone()),
            ("trainer".to_owned(), trainer.replace("hier_top", "trainer")),
        ];
        let set = DesignSet::prepare_named_with(&sources, &cfg, &store).unwrap();
        let (train, test) = set.split(&["hier_top"]);
        let model = RtlTimer::fit(&train, &cfg);
        let annotator = IncrementalAnnotator::new(test[0], &cfg);
        (annotator, model, store, cfg, base)
    }

    /// The same session context with no diff base and no resident revision.
    fn cold_twin(a: &IncrementalAnnotator) -> IncrementalAnnotator {
        IncrementalAnnotator {
            module_keys: BTreeMap::new(),
            ..a.clone()
        }
    }

    /// `source` annotated from scratch on an empty store.
    fn cold(a: &IncrementalAnnotator, source: &str, model: &RtlTimer) -> ReannotateOutcome {
        cold_twin(a)
            .reannotate(source, model, &Store::in_memory())
            .expect("cold pass")
    }

    /// A model fitted on `trainer` (top `hier_top`, renamed), prepared
    /// through `store`.
    fn fitted_on(trainer: &str, cfg: &TimerConfig, store: &Store) -> RtlTimer {
        let sources = vec![("trainer".to_owned(), trainer.replace("hier_top", "trainer"))];
        let set = DesignSet::prepare_named_with(&sources, cfg, store).unwrap();
        let (train, _) = set.split(&[]);
        RtlTimer::fit(&train, cfg)
    }

    /// `source` predicted cold: a job on an empty store with no resident
    /// revision, its design data handed to [`RtlTimer::predict`].
    fn cold_prediction(a: &IncrementalAnnotator, source: &str, model: &RtlTimer) -> Prediction {
        let store = Store::in_memory();
        let mut job = cold_twin(a).begin(source, &store).expect("cold pass");
        while !job.step(&store, usize::MAX) {}
        let d = job.revision.with_rows(job.feat.finish().variant_data);
        model.predict(&d)
    }

    /// The resident revision's rows, field for field, against a cold
    /// featurize of its SOG — stricter than the rendered annotation, which
    /// rounds slacks.
    fn assert_resident_rows_are_cold(a: &IncrementalAnnotator) {
        let slot = a.resident.lock();
        let r = slot.as_ref().expect("a revision is resident");
        let cold = crate::dataset::build_all_variant_data(
            &Store::in_memory(),
            &r.sog,
            &Library::pseudo_bog(),
            a.clock,
            design_seed(a.cfg.seed, &a.name),
        );
        for (x, y) in r.variant_data.iter().zip(&cold) {
            assert_eq!(x.variant, y.variant);
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.groups, y.groups);
            assert_eq!(x.endpoint_sta_at, y.endpoint_sta_at);
            assert_eq!(x.driving_regs, y.driving_regs);
            assert_eq!(x.design_feats, y.design_feats);
        }
    }

    /// The signals of `source` whose freshly compiled provenance names a
    /// module of `dirty`, in signal order.
    fn fresh_cone_bound(source: &str, dirty: &[String]) -> Vec<String> {
        let netlist = rtlt_verilog::compile(source, "hier_top").unwrap();
        let provenance = rtlt_bog::signal_provenance(&netlist);
        rtlt_bog::blast(&netlist)
            .signals()
            .iter()
            .zip(&provenance)
            .filter(|(_, mods)| mods.iter().any(|m| dirty.contains(m)))
            .map(|(s, _)| s.name.clone())
            .collect()
    }

    fn run(job: ReannotateJob, model: &RtlTimer, store: &Store) -> ReannotateOutcome {
        let mut job = job;
        while !job.step(store, usize::MAX) {}
        job.finish(model, store)
    }

    #[test]
    fn editing_one_module_dirties_only_its_cones() {
        let (mut annotator, model, store, _cfg, base) = session();
        // First pass on the unedited source: every shard hits (they were
        // filled by the suite preparation against the same pinned clock).
        let out0 = annotator.reannotate(&base, &model, &store).unwrap();
        assert!(out0.dirty_modules.is_empty());
        assert_eq!(out0.dirty_shards, 0, "baseline pass is fully warm");
        assert_eq!(out0.reused_shards, out0.total_shards);
        assert_eq!(out0.resident_shards, 0, "nothing resident yet");

        // Edit laneB only. The provenance bound covers laneB's register and
        // the downstream merge register (it reads yb); the content keys
        // refine that to just laneB's own cone — the merge cone's logic
        // (xor of two launch registers) did not change.
        let edited = base.replace("x ^ (x >> 1)", "x ^ (x >> 2)");
        let out = annotator.reannotate(&edited, &model, &store).unwrap();
        assert_eq!(out.dirty_modules, vec!["laneB".to_owned()]);
        // Signal order follows netlist register order (top's own registers
        // elaborate before instance registers).
        assert_eq!(
            out.dirty_cone_bound,
            vec!["merge_r".to_owned(), "u1.r".to_owned()]
        );
        // 3 signals × 4 variants total.
        assert_eq!(out.total_shards, 12);
        assert_eq!(out.dirty_shards, 4, "only laneB's own cone recomputes");
        assert!(
            out.dirty_shards <= 4 * out.dirty_cone_bound.len() as u64,
            "recomputation stays within the provenance bound"
        );
        assert_eq!(out.reused_shards, 8, "laneA + merge cones are reused");
        assert_eq!(
            out.resident_shards, 8,
            "... straight from the last revision"
        );
        assert!(out.annotated.contains("(merge_r) Slack@"));
    }

    #[test]
    fn incremental_annotation_matches_cold_recompute() {
        let (mut annotator, model, store, _cfg, base) = session();
        let edited = base.replace("x + 8'd3", "x + (x << 1)");
        let warm = annotator.reannotate(&edited, &model, &store).unwrap();
        assert!(warm.dirty_shards < warm.total_shards, "some shards reused");

        // Cold pass: fresh store, fresh session state — everything
        // recomputes from scratch.
        let cold_out = cold(&annotator, &edited, &model);
        assert_eq!(cold_out.dirty_shards, cold_out.total_shards);
        assert_eq!(
            warm.annotated, cold_out.annotated,
            "incremental result is byte-identical to a cold recompute"
        );
    }

    #[test]
    fn chunked_stepping_is_byte_identical_to_one_shot() {
        let (mut annotator, model, store, _cfg, base) = session();
        let edited = base.replace("x + 8'd3", "x + (x << 2)");
        let one_shot = annotator.reannotate(&edited, &model, &store).unwrap();

        // The same revision through 1-shard steps on a cold twin — the
        // slicing the live service uses to keep one slow session from
        // starving its event-loop tick must not change a single byte.
        let cold_store = Store::in_memory();
        let mut twin = cold_twin(&annotator);
        let mut job = twin.begin(&edited, &cold_store).unwrap();
        assert_eq!(job.total_shards(), 12);
        let mut steps = 0;
        while !job.step(&cold_store, 1) {
            steps += 1;
            assert!(job.remaining_shards() > 0);
        }
        assert!(steps >= 11, "12 shards actually stepped one at a time");
        let out = job.finish(&model, &cold_store);
        assert_eq!(out.annotated, one_shot.annotated);
        assert_eq!(out.total_shards, 12);
        assert_eq!(out.dirty_shards, 12, "cold twin recomputes everything");
    }

    #[test]
    fn broken_edit_reports_error_and_preserves_session() {
        let (mut annotator, model, store, _cfg, base) = session();
        annotator.reannotate(&base, &model, &store).unwrap();
        let keys_before = annotator.module_keys.clone();
        // A syntax error inside a module, and tokens after the last one.
        let trailing = format!("{base}\n)))\n");
        for (broken, line) in [
            ("module hier_top(input clk; endmodule", 1),
            (trailing.as_str(), base.lines().count() as u32 + 1),
        ] {
            let err = annotator.reannotate(broken, &model, &store).unwrap_err();
            assert!(!err.message.is_empty());
            assert_eq!(err.line, Some(line), "{err}");
            assert_eq!(annotator.module_keys, keys_before);
        }
        // The loop continues against the last good revision, still
        // resident.
        let ok = annotator.reannotate(&base, &model, &store).unwrap();
        assert!(ok.annotated.contains("Slack@"));
        assert_eq!(ok.resident_shards, ok.total_shards);
    }

    #[test]
    fn a_prepare_and_an_edit_store_one_frontend_artifact() {
        let (mut annotator, model, store, _cfg, _base) = session();
        annotator
            .reannotate(&design("x + 8'd5"), &model, &store)
            .unwrap();
        // Exactly these namespaces: `blast` is the only frontend artifact.
        let names: Vec<String> = store
            .stats()
            .namespaces
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let expected = [stage::BLAST, stage::FEATURIZE, stage::LABEL, stage::SHARD];
        assert_eq!(names, expected);
    }

    #[test]
    fn every_revision_of_a_multi_edit_stream_matches_a_cold_recompute() {
        let (mut annotator, model, store, _cfg, base) = session();
        let lane_a = |body: &str| lane("laneA", body);
        let lane_b = |body: &str| lane("laneB", body);
        // laneA grows a second register signal feeding its output.
        let lane_a_extra = "module laneA(input clk, input [7:0] x, output [7:0] y);
  reg [7:0] r;
  reg [7:0] extra;
  always @(posedge clk) r <= x + 8'd3;
  always @(posedge clk) extra <= r ^ x;
  assign y = r ^ extra;
endmodule";
        enum Step {
            Edit(String, bool),
            Broken,
            Remote(String),
        }
        use Step::{Broken, Edit, Remote};
        let a1 = design_of(&lane_a("x + 8'd5"), &lane_b("x ^ (x >> 1)"));
        let stream = [
            // (revision, whether some rows must come from the resident one)
            Edit(base.clone(), false),
            Edit(a1.clone(), true),
            Edit(design_of(&lane_a("x + 8'd5"), &lane_b("x | 8'd9")), true),
            // Two lanes in one revision.
            Edit(design_of(&lane_a("x - x"), &lane_b("x & 8'd7")), true),
            // laneA's cone now reads its own register, so it samples more
            // paths and laneB's resident rows after it shift.
            Edit(design_of(&lane_a("r + x"), &lane_b("x & 8'd7")), true),
            // A revert to the base: warm in the store, merge cone resident.
            Edit(base.clone(), true),
            // A new register signal: the signal list changed.
            Edit(design_of(lane_a_extra, &lane_b("x ^ (x >> 1)")), false),
            Broken,
            Edit(design_of(lane_a_extra, &lane_b("x + 8'd1")), true),
            Edit(a1.clone(), false),
            // A remote pass produced this revision: nothing stays resident.
            Remote(base.replace("x ^ (x >> 1)", "x ^ (x >> 3)")),
            Edit(base.replace("x ^ (x >> 1)", "x ^ (x >> 4)"), false),
            Edit(base.clone(), true),
            // A line added to laneA shifts every declaration below it: the
            // shifted cones are extracted afresh, laneA's rows stay.
            Edit(
                base.replacen("  assign y = r;", "  // widened next\n  assign y = r;", 1),
                true,
            ),
        ];
        let blast_misses = || store.stats().namespace(stage::BLAST).misses;
        let (mut passes, mut stored_blasts) = (0, 0);
        for step in stream {
            match step {
                Edit(source, resident) => {
                    let misses = blast_misses();
                    let out = annotator.reannotate(&source, &model, &store).unwrap();
                    // The bound read from the `blast` artifact, stored or
                    // fresh, is the one a fresh compile's provenance gives.
                    stored_blasts += usize::from(blast_misses() == misses);
                    assert_eq!(
                        out.dirty_cone_bound,
                        fresh_cone_bound(&source, &out.dirty_modules),
                        "revision {passes}"
                    );
                    let cold_out = cold(&annotator, &source, &model);
                    assert_eq!(out.annotated, cold_out.annotated, "revision {passes}");
                    assert!(
                        out.prediction.same_bits(&cold_out.prediction),
                        "revision {passes}: prediction bits"
                    );
                    assert!(out
                        .prediction
                        .same_bits(&cold_prediction(&annotator, &source, &model)));
                    assert_eq!(
                        out.resident_shards > 0,
                        resident,
                        "revision {passes}: {} resident shards",
                        out.resident_shards
                    );
                    assert_eq!(out.dirty_shards + out.reused_shards, out.total_shards);
                    assert_resident_rows_are_cold(&annotator);
                    passes += 1;
                }
                Broken => {
                    let bad = base.replace("endmodule", "");
                    assert!(annotator.reannotate(&bad, &model, &store).is_err());
                }
                Remote(source) => annotator.note_revision(&source),
            }
        }
        assert!(passes >= 8);
        // The base (first pass and both reverts) and `a1`'s revert.
        assert_eq!(stored_blasts, 4);
    }

    #[test]
    fn a_rewired_pass_through_module_is_caught_outside_the_provenance_bound() {
        // `merge_r` reads laneA through `pick`, which only wires an input
        // through: elaboration resolves that net away, so no cone's
        // provenance names `pick`.
        let with_pick = |wire: &str| {
            format!(
                "module pick(input [7:0] i, input [7:0] j, output [7:0] o);
  assign o = {wire};
endmodule
{}",
                design("x + 8'd3").replace(
                    "  always @(posedge clk) merge_r <= ya ^ yb;",
                    "  wire [7:0] p;
  pick u2 (.i(ya), .j(yb), .o(p));
  always @(posedge clk) merge_r <= p + yb;",
                )
            )
        };
        let (mut annotator, model, store, _cfg, base) =
            session_with(with_pick("i"), with_pick("j"));
        annotator.reannotate(&base, &model, &store).unwrap();
        let rewired = with_pick("j");
        let out = annotator.reannotate(&rewired, &model, &store).unwrap();
        assert_eq!(out.dirty_modules, vec!["pick".to_owned()]);
        assert!(
            !out.dirty_cone_bound.contains(&"merge_r".to_owned()),
            "provenance cannot see the pass-through module"
        );
        assert!(out.dirty_shards > 0, "merge_r's cone did change");
        assert_eq!(out.annotated, cold(&annotator, &rewired, &model).annotated);
        assert_resident_rows_are_cold(&annotator);
    }

    #[test]
    fn interleaved_jobs_on_one_store_count_only_their_own_shards() {
        let edit_a = |base: &str| base.replace("x + 8'd3", "x + (x << 3)");
        let edit_b = |base: &str| base.replace("x ^ (x >> 1)", "x ^ (x >> 3)");
        // Each session warms its own resident revision first, then edits
        // its own lane.
        let sessions = || {
            let (proto, model, store, _cfg, base) = session();
            let (mut a, mut b) = (proto.clone(), proto.clone());
            a.reannotate(&base, &model, &store).unwrap();
            b.reannotate(&base, &model, &store).unwrap();
            (a, b, model, store, base)
        };
        let counts = |o: &ReannotateOutcome| (o.dirty_shards, o.reused_shards, o.resident_shards);

        let (mut a, mut b, model, store, base) = sessions();
        let alone_a = a.reannotate(&edit_a(&base), &model, &store).unwrap();
        let alone_b = b.reannotate(&edit_b(&base), &model, &store).unwrap();

        let (mut a, mut b, model, store, base) = sessions();
        let mut ja = a.begin(&edit_a(&base), &store).unwrap();
        let mut jb = b.begin(&edit_b(&base), &store).unwrap();
        let (mut done_a, mut done_b) = (false, false);
        while !(done_a && done_b) {
            done_a = done_a || ja.step(&store, 1);
            done_b = done_b || jb.step(&store, 1);
        }
        let (ia, ib) = (ja.finish(&model, &store), jb.finish(&model, &store));
        assert_eq!(counts(&ia), counts(&alone_a));
        assert_eq!(counts(&ib), counts(&alone_b));
        assert_eq!(counts(&ia), (4, 8, 8), "one lane cone computed");
        assert_eq!(ia.annotated, alone_a.annotated);
        assert_eq!(ib.annotated, alone_b.annotated);
    }

    #[test]
    fn a_job_begun_while_another_holds_the_revision_walks_the_whole_design() {
        let (mut annotator, model, store, _cfg, base) = session();
        annotator.reannotate(&base, &model, &store).unwrap();
        let first = base.replace("x + 8'd3", "x + 8'd6");
        let second = base.replace("x ^ (x >> 1)", "x ^ (x >> 5)");
        let j1 = annotator.begin(&first, &store).unwrap();
        let j2 = annotator.begin(&second, &store).unwrap();
        let (o1, o2) = (run(j1, &model, &store), run(j2, &model, &store));
        assert!(o1.resident_shards > 0, "the first job took the revision");
        assert_eq!(o2.resident_shards, 0, "the second found the slot empty");
        assert_eq!(o1.annotated, cold(&annotator, &first, &model).annotated);
        assert_eq!(o2.annotated, cold(&annotator, &second, &model).annotated);
        // The slot holds a finished revision again.
        let again = annotator.reannotate(&base, &model, &store).unwrap();
        assert!(again.resident_shards > 0);
        assert_eq!(again.annotated, cold(&annotator, &base, &model).annotated);
    }

    #[test]
    fn a_clone_starts_with_an_empty_slot_of_its_own() {
        let (mut annotator, model, store, _cfg, base) = session();
        annotator.reannotate(&base, &model, &store).unwrap();
        let edited = base.replace("x + 8'd3", "x + 8'd4");
        let mut clone = annotator.clone();
        let from_clone = clone.reannotate(&edited, &model, &store).unwrap();
        assert_eq!(from_clone.resident_shards, 0);
        let from_original = annotator.reannotate(&edited, &model, &store).unwrap();
        assert!(
            from_original.resident_shards > 0,
            "original kept its revision"
        );
        assert_eq!(from_clone.annotated, from_original.annotated);
    }

    #[test]
    fn a_source_without_module_keys_bounds_every_signal_and_reuses_nothing() {
        let (mut annotator, model, store, _cfg, base) = session();
        annotator.reannotate(&base, &model, &store).unwrap();
        // Two modules on one line: the splitter refuses the source, so the
        // compiled design carries no module keys.
        let flat = |body: &str| {
            design(body).replacen("endmodule\nmodule laneB", "endmodule module laneB", 1)
        };
        assert!(module_key_map(&flat("x + 8'd3")).is_empty());
        let all = vec!["merge_r".to_owned(), "u0.r".to_owned(), "u1.r".to_owned()];
        for body in ["x + 8'd3", "x + 8'd2"] {
            let source = flat(body);
            let out = annotator.reannotate(&source, &model, &store).unwrap();
            assert_eq!(out.dirty_cone_bound, all, "every signal is bound");
            assert_eq!(out.resident_shards, 0, "a flat source reuses nothing");
            assert!(out.dirty_shards <= 4 * out.dirty_cone_bound.len() as u64);
            assert_eq!(out.annotated, cold(&annotator, &source, &model).annotated);
        }
        // A flat pass leaves nothing resident for the next revision either.
        let out = annotator.reannotate(&base, &model, &store).unwrap();
        assert_eq!(out.resident_shards, 0);
        assert_eq!(out.annotated, cold(&annotator, &base, &model).annotated);
    }

    #[test]
    fn a_model_switch_walks_every_row_once_then_carries_again() {
        let (mut annotator, model_a, store, cfg, base) = session();
        let model_b = fitted_on(&design("x & 8'd7"), &cfg, &store);
        let walked = |o: &ReannotateOutcome| (o.walked_rows, o.walked_endpoints);
        let all = |o: &ReannotateOutcome| (o.total_rows, o.total_endpoints);

        let first = annotator.reannotate(&base, &model_a, &store).unwrap();
        assert!(first.total_rows > 0 && first.total_endpoints > 0);
        assert_eq!(walked(&first), all(&first), "nothing resident yet");
        let again = annotator.reannotate(&base, &model_a, &store).unwrap();
        assert_eq!(walked(&again), (0, 0), "every row moved with its cells");

        let switched = annotator.reannotate(&base, &model_b, &store).unwrap();
        assert_eq!(walked(&switched), all(&switched), "another model's carry");
        let next = annotator.reannotate(&base, &model_b, &store).unwrap();
        assert!(next.walked_rows < next.total_rows);
        assert!(next
            .prediction
            .same_bits(&cold_prediction(&annotator, &base, &model_b)));

        let edited = base.replace("x + 8'd3", "x + (x << 1)");
        let out = annotator.reannotate(&edited, &model_b, &store).unwrap();
        assert!(out.walked_rows < out.total_rows, "laneB's rows moved");
        assert!(out
            .prediction
            .same_bits(&cold_prediction(&annotator, &edited, &model_b)));
    }

    /// A pass of a random edit stream: each `(kind, arg)` step rewrites
    /// one lane from a small pool, reverts, shifts lines, adds a register,
    /// breaks the source, notes a remote revision, or switches models.
    fn apply_step(
        (kind, arg): (usize, usize),
        state: &mut StreamState,
        annotator: &mut IncrementalAnnotator,
    ) -> Option<String> {
        const POOL: [&str; 8] = [
            "x + 8'd3",
            "x - 8'd1",
            "x ^ (x >> 1)",
            "x + (x << 1)",
            "x & 8'd7",
            "x | 8'd9",
            "r + x",
            "x - x",
        ];
        match kind {
            0..=2 => state.lane_a = POOL[arg % POOL.len()],
            3 | 4 => state.lane_b = POOL[arg % POOL.len()],
            5 => *state = StreamState::base(state.model),
            6 => state.shifted = !state.shifted,
            7 => state.extra = !state.extra,
            8 => return Some(state.source().replace("endmodule", "")),
            9 => {
                let remote = StreamState {
                    lane_b: POOL[arg % POOL.len()],
                    ..*state
                };
                annotator.note_revision(&remote.source());
                return None;
            }
            _ => state.model = 1 - state.model,
        }
        Some(state.source())
    }

    /// The revision a random edit stream stands at.
    #[derive(Clone, Copy)]
    struct StreamState {
        lane_a: &'static str,
        lane_b: &'static str,
        shifted: bool,
        extra: bool,
        model: usize,
    }

    impl StreamState {
        fn base(model: usize) -> StreamState {
            StreamState {
                lane_a: "x + 8'd3",
                lane_b: "x ^ (x >> 1)",
                shifted: false,
                extra: false,
                model,
            }
        }

        fn source(&self) -> String {
            let mut a = if self.extra {
                format!(
                    "module laneA(input clk, input [7:0] x, output [7:0] y);
  reg [7:0] r;
  reg [7:0] extra;
  always @(posedge clk) r <= {};
  always @(posedge clk) extra <= r ^ x;
  assign y = r ^ extra;
endmodule",
                    self.lane_a
                )
            } else {
                lane("laneA", self.lane_a)
            };
            if self.shifted {
                a = a.replacen("  assign y", "  // shifted\n  assign y", 1);
            }
            design_of(&a, &lane("laneB", self.lane_b))
        }
    }

    /// One session and two models fitted on different trainers, shared by
    /// every case of the stream property.
    fn stream_fixture() -> &'static (IncrementalAnnotator, [RtlTimer; 2], Store) {
        static FIXTURE: std::sync::OnceLock<(IncrementalAnnotator, [RtlTimer; 2], Store)> =
            std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (annotator, model, store, cfg, _) = session();
            let other = fitted_on(&design("x & 8'd7"), &cfg, &store);
            (annotator, [model, other], store)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

        /// After every pass of a random edit stream, the prediction equals
        /// a cold `RtlTimer::predict` of the revision bit for bit, however
        /// many rows the pass carried.
        #[test]
        fn carried_predictions_match_a_cold_predict_over_random_edit_streams(
            steps in proptest::collection::vec((0usize..11, 0usize..8), 1..9),
        ) {
            let (proto, models, store) = stream_fixture();
            let mut annotator = proto.clone();
            let mut state = StreamState::base(0);
            for (i, &step) in steps.iter().enumerate() {
                let Some(source) = apply_step(step, &mut state, &mut annotator) else {
                    continue;
                };
                let model = &models[state.model];
                match annotator.reannotate(&source, model, store) {
                    Ok(out) => {
                        let cold = cold_prediction(&annotator, &source, model);
                        proptest::prop_assert!(
                            out.prediction.same_bits(&cold),
                            "step {} {:?}: {} of {} rows walked",
                            i,
                            step,
                            out.walked_rows,
                            out.total_rows
                        );
                        proptest::prop_assert!(out.walked_rows <= out.total_rows);
                    }
                    Err(_) => proptest::prop_assert!(step.0 == 8, "only the broken edit fails"),
                }
            }
        }
    }
}
