//! End-to-end pipeline: design preparation as named dataflow stages
//! ([`PrepareStages`]: compile → blast → label via synthesis → featurize),
//! model fitting, prediction, cross-validation.
//!
//! All CPU parallelism (suite preparation, cross-validation fits and
//! predictions) runs on the shared [`rtlt_runtime`] work-queue executor,
//! and every stage output is memoizable through the shared
//! [`rtlt_store::Store`] handle threaded into the `*_with` entry points
//! (see [`crate::cache`] for the key derivation). The storeless entry
//! points delegate to the same code path with a pass-through store, so
//! cached and uncached preparation cannot diverge.

use crate::bitwise::{BitModelKind, BitwiseCorpus, BitwiseModel};
use crate::cache::{model_key, stage, PrepareKeys};
use crate::dataset::{FeaturizeScratch, RowMove, VariantData, MERGED_SLOTS};
use crate::design::{design_row, direct_wns_tns, DesignTimingModel};
use crate::ensemble::{meta_rows, meta_rows_into, EnsembleModel, META_FEATURE_NAMES};
use crate::metrics;
use crate::signal::{signal_labels, signal_rows, signal_rows_into, SignalModels};
use rtlt_bog::{blast, Bog, SignalInfo};
use rtlt_liberty::{CellFunc, Drive, Library};
use rtlt_ml::{FeatureMatrix, Gbdt};
use rtlt_store::{ContentHash, KeyBuilder, Store};
use rtlt_synth::{synthesize, SynthOptions, SynthResult};
use rtlt_verilog::ast::SourceFile;
use rtlt_verilog::{modsrc, VerilogError};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Global pipeline configuration.
#[derive(Debug, Clone)]
pub struct TimerConfig {
    /// Master seed (per-design seeds derive from it and the design name).
    pub seed: u64,
    /// Synthesis effort for label generation.
    pub synth_effort: f64,
    /// Worker threads for suite preparation / cross-validation.
    pub threads: usize,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig {
            seed: 2024,
            // Bounded default effort: the label flow leaves realistic
            // residual violations (Table 6 operates on these).
            synth_effort: 0.6,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// Failure to prepare one design of a set: the design's name plus the
/// underlying frontend error.
#[derive(Debug)]
pub struct PrepareError {
    /// Name of the design that failed to prepare.
    pub design: String,
    /// The frontend error that caused the failure.
    pub source: VerilogError,
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.design, self.source)
    }
}

impl std::error::Error for PrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

pub(crate) fn design_seed(master: u64, name: &str) -> u64 {
    let mut h = master ^ 0x9e3779b97f4a7c15;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// RTL signal names of a SOG, in signal order (shared by featurization and
/// store decoding so both construct identical [`DesignData`]s).
pub(crate) fn signal_names_of(sog: &Bog) -> Arc<[String]> {
    sog.signals().iter().map(|s| s.name.clone()).collect()
}

/// A fully prepared design: featurized representations plus ground-truth
/// labels from the synthesis simulator.
#[derive(Debug, Clone)]
pub struct DesignData {
    /// Design name (top module).
    pub name: Arc<str>,
    /// Original Verilog source.
    pub source: String,
    /// SOG representation (kept for annotation/optimization/baselines).
    pub sog: Bog,
    /// Path datasets for SOG, AIG, AIMG, XAG (in [`BogVariant::ALL`] order).
    pub variant_data: Vec<VariantData>,
    /// Ground-truth arrival time per register (bit) endpoint (shared into
    /// each [`Prediction`] without copying).
    pub labels_at: Arc<[f64]>,
    /// Clock period used by the label flow (ns).
    pub clock: f64,
    /// DFF setup time (ns).
    pub setup: f64,
    /// Ground-truth design WNS (ns).
    pub wns: f64,
    /// Ground-truth design TNS (ns).
    pub tns: f64,
    /// Ground-truth area.
    pub area: f64,
    /// Ground-truth power.
    pub power: f64,
    /// AST features (ICCAD'22-style baseline input).
    pub ast_feats: Vec<f64>,
    /// Per-design seed (reused by optimization flows).
    pub synth_seed: u64,
    /// Synthesis effort used by the label flow (optimization flows scale
    /// from this).
    pub synth_effort: f64,
    /// RTL signal names, aligned with [`DesignData::signals`] (shared into
    /// each [`Prediction`] without copying).
    pub signal_names: Arc<[String]>,
    /// Content key of this preparation ([`PrepareKeys::featurize`]) —
    /// provenance, and the base key for derived memoizations such as the
    /// optimization candidate flows.
    pub prepare_key: ContentHash,
}

/// Output of [`PrepareStages::compile`]: frontend artifacts of one design.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    /// Design name (top module).
    pub name: String,
    /// Original Verilog source.
    pub source: String,
    /// AST features (ICCAD'22-style baseline input), restricted to the top
    /// module's dependency cone — the `blast` artifact that carries them
    /// must be a pure function of its module-granular key.
    pub ast_feats: Vec<f64>,
    /// Elaborated word-level netlist: [`PrepareStages::blast`] lowers it
    /// and derives the signals' provenance from it, then drops it.
    pub netlist: rtlt_verilog::rtlir::Netlist,
    /// Per-module text keys of the source ([`modsrc::text_keys`], in
    /// declaration order; empty when the source cannot be split) — the
    /// incremental driver's dirty-module diff reads them from here instead
    /// of re-splitting the source. Text-level on purpose: the diff should
    /// name the module the designer actually touched, not everything
    /// coupled to it through a closed parent key.
    pub module_keys: Vec<(String, ContentHash)>,
}

/// Output of [`PrepareStages::blast`], the stored `blast` artifact: what
/// the later stages and the edit loop read of the compiled design, plus
/// its SOG. The word-level netlist is not kept; the per-signal module
/// provenance derived from it is.
#[derive(Debug, Clone)]
pub struct BlastedDesign {
    /// Design name (top module).
    pub name: String,
    /// Original Verilog source.
    pub source: String,
    /// AST features ([`CompiledDesign::ast_feats`]).
    pub ast_feats: Vec<f64>,
    /// Per-module text keys ([`CompiledDesign::module_keys`]).
    pub module_keys: Vec<(String, ContentHash)>,
    /// Module names feeding each signal's input cone, in SOG signal order
    /// ([`rtlt_bog::signal_provenance`]): the edit loop's invalidation
    /// bound.
    pub provenance: Vec<Vec<String>>,
    /// Bit-blasted SOG representation.
    pub sog: Bog,
}

/// Output of [`PrepareStages::label`]: the design plus ground-truth labels
/// from the synthesis simulator.
#[derive(Debug)]
pub struct LabeledDesign {
    /// Blasted design.
    pub blasted: BlastedDesign,
    /// Synthesis-flow outcome (arrival labels, WNS/TNS, area, power).
    pub synth: SynthResult,
    /// Per-design seed used by the label flow.
    pub synth_seed: u64,
    /// DFF setup time (ns) of the label library.
    pub setup: f64,
}

/// The slice of a label flow that featurization (and therefore the cache)
/// actually needs — [`LabeledDesign`] minus the mapped netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelOutcome {
    /// Ground-truth arrival time per register endpoint (ns).
    pub endpoint_at: Vec<f64>,
    /// Ground-truth design WNS (ns).
    pub wns: f64,
    /// Ground-truth design TNS (ns).
    pub tns: f64,
    /// Ground-truth area.
    pub area: f64,
    /// Ground-truth power.
    pub power: f64,
    /// Clock period used by the label flow (ns).
    pub clock: f64,
    /// DFF setup time (ns).
    pub setup: f64,
    /// Per-design seed used by the label flow.
    pub synth_seed: u64,
}

impl LabelOutcome {
    /// Extracts the cacheable slice of a full label-stage output.
    pub fn of(labeled: &LabeledDesign) -> LabelOutcome {
        LabelOutcome {
            endpoint_at: labeled.synth.endpoint_at.clone(),
            wns: labeled.synth.wns,
            tns: labeled.synth.tns,
            area: labeled.synth.area,
            power: labeled.synth.power,
            clock: labeled.synth.clock_period,
            setup: labeled.setup,
            synth_seed: labeled.synth_seed,
        }
    }
}

/// The design-preparation dataflow, split into named, individually-callable
/// stages: `compile → blast → label → featurize`.
///
/// [`DesignData::prepare`] runs all four back to back; calling the stages
/// separately lets a driver memoize, distribute, or batch each boundary
/// independently. [`PrepareStages::run_with`] is the memoized runner: the
/// `blast` (which carries what the later stages read of the compiled
/// design), `label` and `featurize` outputs each have a content key, and
/// the runner consults the given [`rtlt_store::Store`] before computing
/// one, so anything from compile + blast to the whole preparation can be
/// skipped on a warm cache.
#[derive(Debug, Clone, Copy)]
pub struct PrepareStages<'a> {
    cfg: &'a TimerConfig,
}

impl<'a> PrepareStages<'a> {
    /// Stage runner bound to one pipeline configuration.
    pub fn new(cfg: &'a TimerConfig) -> PrepareStages<'a> {
        PrepareStages { cfg }
    }

    /// **Stage 1 — compile**: parse the whole source, extract AST features
    /// from the top's dependency cone (the artifact must be a pure function
    /// of its module-granular key), elaborate.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors (parse/elaborate failures).
    pub fn compile(&self, name: &str, source: &str) -> Result<CompiledDesign, VerilogError> {
        let file = rtlt_verilog::parse(source)?;
        let cone: BTreeSet<String> = modsrc::dependency_cone(&file, name).into_iter().collect();
        let cone_file = SourceFile {
            modules: file
                .modules
                .iter()
                .filter(|m| cone.contains(&m.name))
                .cloned()
                .collect(),
        };
        let ast_feats = rtlt_verilog::astfeat::extract(&cone_file).to_vec();
        let netlist = rtlt_verilog::elaborate(&file, name)?;
        Ok(CompiledDesign {
            name: name.to_owned(),
            source: source.to_owned(),
            ast_feats,
            netlist,
            module_keys: modsrc::text_keys(source),
        })
    }

    /// **Stage 2 — blast**: lower the word-level netlist to the bit-level
    /// SOG whose register bits are the timing endpoints, and record each
    /// signal's module provenance while the netlist is at hand; the
    /// netlist itself is dropped.
    pub fn blast(&self, compiled: CompiledDesign) -> BlastedDesign {
        BlastedDesign {
            sog: blast(&compiled.netlist),
            provenance: rtlt_bog::signal_provenance(&compiled.netlist),
            name: compiled.name,
            source: compiled.source,
            ast_feats: compiled.ast_feats,
            module_keys: compiled.module_keys,
        }
    }

    /// The label synthesis flow (stage 3's body, shared by the cached and
    /// uncached runners).
    fn run_label_flow(&self, blasted: &BlastedDesign) -> (SynthResult, u64, f64) {
        let lib = Library::nangate45_like();
        let seed = design_seed(self.cfg.seed, &blasted.name);
        let synth = synthesize(
            &blasted.sog,
            &lib,
            &SynthOptions {
                seed,
                effort: self.cfg.synth_effort,
                ..Default::default()
            },
        );
        let setup = lib.cell(CellFunc::Dff, Drive::X1).seq.expect("dff").setup;
        (synth, seed, setup)
    }

    /// **Stage 3 — label**: run the ground-truth synthesis flow against the
    /// NanGate45-like library.
    pub fn label(&self, blasted: BlastedDesign) -> LabeledDesign {
        let (synth, synth_seed, setup) = self.run_label_flow(&blasted);
        LabeledDesign {
            blasted,
            synth,
            synth_seed,
            setup,
        }
    }

    /// Stage 3 producing only the cacheable [`LabelOutcome`].
    fn label_outcome(&self, blasted: &BlastedDesign) -> LabelOutcome {
        let (synth, synth_seed, setup) = self.run_label_flow(blasted);
        LabelOutcome {
            endpoint_at: synth.endpoint_at,
            wns: synth.wns,
            tns: synth.tns,
            area: synth.area,
            power: synth.power,
            clock: synth.clock_period,
            setup,
            synth_seed,
        }
    }

    /// **Stage 4 — featurize**: build the path datasets of all four BOG
    /// variants against the label clock and assemble the [`DesignData`].
    pub fn featurize(&self, labeled: LabeledDesign) -> DesignData {
        let outcome = LabelOutcome::of(&labeled);
        let keys = PrepareKeys::derive(&labeled.blasted.name, &labeled.blasted.source, self.cfg);
        self.featurize_parts(
            &Store::disabled(),
            &labeled.blasted,
            &outcome,
            keys.featurize,
        )
    }

    /// Stage 4's body: assemble a [`DesignData`] from the blasted design
    /// and the label outcome. Featurization runs through the sharded path
    /// (one memoized [`crate::dataset::ConeShard`] per signal × variant);
    /// with a pass-through store that is simply the canonical computation.
    /// `prepare_key` is the caller's already-derived featurize key (keys
    /// are derived once per preparation, not re-derived per stage).
    pub(crate) fn featurize_parts(
        &self,
        store: &Store,
        blasted: &BlastedDesign,
        label: &LabelOutcome,
        prepare_key: ContentHash,
    ) -> DesignData {
        self.featurize_parts_scratch(
            store,
            blasted,
            label,
            prepare_key,
            &mut FeaturizeScratch::new(),
        )
    }

    /// [`Self::featurize_parts`] with a caller-owned featurize scratch —
    /// the parallel prepare path passes one per worker thread so the
    /// levelized-kernel tables and merge buffers are reused across every
    /// design a worker processes.
    pub(crate) fn featurize_parts_scratch(
        &self,
        store: &Store,
        blasted: &BlastedDesign,
        label: &LabelOutcome,
        prepare_key: ContentHash,
        scratch: &mut FeaturizeScratch,
    ) -> DesignData {
        let sog = blasted.sog.clone();
        let pseudo = Library::pseudo_bog();
        let variant_data = crate::dataset::build_all_variant_data_scratch(
            store,
            &sog,
            &pseudo,
            label.clock,
            label.synth_seed,
            scratch,
        );

        DesignData {
            name: blasted.name.as_str().into(),
            source: blasted.source.clone(),
            signal_names: signal_names_of(&sog),
            sog,
            variant_data,
            labels_at: label.endpoint_at.as_slice().into(),
            clock: label.clock,
            setup: label.setup,
            wns: label.wns,
            tns: label.tns,
            area: label.area,
            power: label.power,
            ast_feats: blasted.ast_feats.clone(),
            synth_seed: label.synth_seed,
            synth_effort: self.cfg.synth_effort,
            prepare_key,
        }
    }

    /// Runs all four stages back to back.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors from [`PrepareStages::compile`].
    pub fn run(&self, name: &str, source: &str) -> Result<DesignData, VerilogError> {
        let compiled = self.compile(name, source)?;
        Ok(self.featurize(self.label(self.blast(compiled))))
    }

    /// The blast-stage artifact through the store: consults the `blast`
    /// namespace before compiling and blasting.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors from [`PrepareStages::compile`].
    pub fn blasted_with(
        &self,
        store: &Store,
        name: &str,
        source: &str,
    ) -> Result<Arc<BlastedDesign>, VerilogError> {
        let keys = PrepareKeys::derive(name, source, self.cfg);
        self.blasted_with_keys(store, &keys, name, source)
    }

    /// [`Self::blasted_with`] under keys the caller already derived, with
    /// the carried source rebound to the live one (see
    /// [`Self::design_with_live_source`]).
    pub(crate) fn blasted_with_keys(
        &self,
        store: &Store,
        keys: &PrepareKeys,
        name: &str,
        source: &str,
    ) -> Result<Arc<BlastedDesign>, VerilogError> {
        let b = self.stored_blast(store, keys, name, source)?;
        if b.source == source {
            return Ok(b);
        }
        let mut patched = (*b).clone();
        patched.source = source.to_owned();
        Ok(Arc::new(patched))
    }

    /// Rebinds a cached artifact's carried source to the text the caller
    /// actually passed. The module-granular keys deliberately ignore
    /// everything outside the top's dependency cone, so a cache hit can
    /// carry an older byte-variant of the file (e.g. before an unused
    /// module was appended); every computed field is identical by
    /// construction — cone module texts *and positions* are in the key —
    /// but the source must be the live one so annotation re-emits the
    /// user's current file.
    fn design_with_live_source(d: Arc<DesignData>, source: &str) -> Arc<DesignData> {
        if d.source == source {
            d
        } else {
            Arc::new(DesignData {
                source: source.to_owned(),
                ..(*d).clone()
            })
        }
    }

    fn stored_blast(
        &self,
        store: &Store,
        keys: &PrepareKeys,
        name: &str,
        source: &str,
    ) -> Result<Arc<BlastedDesign>, VerilogError> {
        store.get_or_try_compute(stage::BLAST, keys.blast, || {
            Ok(self.blast(self.compile(name, source)?))
        })
    }

    /// Runs all four stages through the store: the `blast`, `label` and
    /// `featurize` outputs are keyed (see [`PrepareKeys`]) and skipped when
    /// the store already holds them. A fully warm cache answers from the
    /// `featurize` namespace, skipping elaboration, blasting, labelling and
    /// featurization (deriving the keys still parses the source to find
    /// the top's dependency cone).
    ///
    /// # Errors
    ///
    /// Propagates frontend errors from [`PrepareStages::compile`] (only
    /// successful stage outputs are ever stored).
    pub fn run_with(
        &self,
        store: &Store,
        name: &str,
        source: &str,
    ) -> Result<Arc<DesignData>, VerilogError> {
        self.run_with_scratch(store, name, source, &mut FeaturizeScratch::new())
    }

    /// [`Self::run_with`] with a caller-owned featurize scratch (reused
    /// across the designs a prepare worker processes).
    ///
    /// # Errors
    ///
    /// Propagates frontend errors from [`PrepareStages::compile`].
    pub fn run_with_scratch(
        &self,
        store: &Store,
        name: &str,
        source: &str,
        scratch: &mut FeaturizeScratch,
    ) -> Result<Arc<DesignData>, VerilogError> {
        let keys = PrepareKeys::derive(name, source, self.cfg);
        let d = store.get_or_try_compute(stage::FEATURIZE, keys.featurize, || {
            let blasted = self.stored_blast(store, &keys, name, source)?;
            let label =
                store.get_or_compute(stage::LABEL, keys.label, || self.label_outcome(&blasted));
            Ok(self.featurize_parts_scratch(store, &blasted, &label, keys.featurize, scratch))
        })?;
        Ok(Self::design_with_live_source(d, source))
    }
}

impl DesignData {
    /// Compiles, labels and featurizes one design (all four
    /// [`PrepareStages`] back to back).
    ///
    /// # Errors
    ///
    /// Propagates frontend errors (parse/elaborate failures).
    pub fn prepare(
        name: &str,
        source: &str,
        cfg: &TimerConfig,
    ) -> Result<DesignData, VerilogError> {
        PrepareStages::new(cfg).run(name, source)
    }

    /// RTL signals of the design.
    pub fn signals(&self) -> &[SignalInfo] {
        self.sog.signals()
    }

    /// Ground-truth signal-level max arrival per signal.
    pub fn signal_labels(&self) -> Vec<f64> {
        signal_labels(&self.labels_at, self.signals())
    }

    /// The token sequences of the SOG variant's rows, one per row
    /// ([`crate::dataset::token_rows`] under the inputs featurize used).
    /// Only the Transformer ablation reads them.
    pub fn token_rows(&self) -> Vec<crate::dataset::TokenRow> {
        let tokens = crate::dataset::token_rows(
            &self.sog,
            &Library::pseudo_bog(),
            self.clock,
            self.synth_seed,
        );
        assert_eq!(
            tokens.len(),
            self.variant_data[0].rows.len(),
            "token rows line up with the SOG rows"
        );
        tokens
    }

    /// Operator histogram (normalized) — the SNS-style baseline input.
    pub fn op_histogram(&self) -> Vec<f64> {
        let s = self.sog.stats();
        let t = (s.comb_total + s.dff).max(1) as f64;
        vec![
            s.not as f64 / t,
            s.and2 as f64 / t,
            s.or2 as f64 / t,
            s.xor2 as f64 / t,
            s.mux2 as f64 / t,
            s.dff as f64 / t,
            (s.total_cells as f64).ln_1p(),
            s.max_level as f64,
            self.clock,
        ]
    }
}

/// An owned collection of prepared designs.
///
/// Designs are held behind `Arc` so the set, the store's in-memory tier and
/// every in-flight prediction share one copy of each preparation.
#[derive(Debug, Default)]
pub struct DesignSet {
    designs: Vec<Arc<DesignData>>,
}

impl DesignSet {
    /// Wraps prepared designs.
    pub fn new(designs: Vec<DesignData>) -> DesignSet {
        DesignSet {
            designs: designs.into_iter().map(Arc::new).collect(),
        }
    }

    /// Wraps already-shared prepared designs.
    pub fn from_shared(designs: Vec<Arc<DesignData>>) -> DesignSet {
        DesignSet { designs }
    }

    /// Prepares the full 21-design benchmark suite in parallel.
    ///
    /// # Panics
    ///
    /// Panics if any generated design fails to compile (the generator and
    /// frontend are tested together, so this indicates a bug).
    pub fn prepare_suite(cfg: &TimerConfig) -> DesignSet {
        Self::prepare_suite_with(cfg, &Store::disabled())
    }

    /// [`DesignSet::prepare_suite`] through a shared artifact store.
    ///
    /// # Panics
    ///
    /// Panics if any generated design fails to compile.
    pub fn prepare_suite_with(cfg: &TimerConfig, store: &Store) -> DesignSet {
        let sources = rtlt_designgen::generate_all();
        Self::prepare_named_with(&sources, cfg, store).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Prepares an arbitrary list of `(name, source)` designs in parallel
    /// (work-queue scheduled on [`TimerConfig::threads`] workers).
    ///
    /// # Errors
    ///
    /// Returns the [`PrepareError`] of the first failing design (first by
    /// input order, deterministically — not by wall-clock completion).
    pub fn prepare_named(
        sources: &[(String, String)],
        cfg: &TimerConfig,
    ) -> Result<DesignSet, PrepareError> {
        Self::prepare_named_with(sources, cfg, &Store::disabled())
    }

    /// [`DesignSet::prepare_named`] through a shared artifact store: the
    /// store handle is threaded into every worker, so concurrent
    /// preparations fill (and draw from) the same two cache tiers.
    ///
    /// # Errors
    ///
    /// Returns the [`PrepareError`] of the first failing design (first by
    /// input order, deterministically — not by wall-clock completion).
    pub fn prepare_named_with(
        sources: &[(String, String)],
        cfg: &TimerConfig,
        store: &Store,
    ) -> Result<DesignSet, PrepareError> {
        Self::prefetch_prepare_keys(store, sources, cfg);
        let stages = PrepareStages::new(cfg);
        let prepared = rtlt_runtime::try_par_map_with(
            cfg.threads,
            sources,
            FeaturizeScratch::new,
            |scratch, _, (name, src)| {
                stages
                    .run_with_scratch(store, name, src, scratch)
                    .map_err(|e| PrepareError {
                        design: name.clone(),
                        source: e,
                    })
            },
        );
        // Prefetched payloads the run never consumed must not outlive the
        // preparation they were staged for.
        store.drop_staged();
        // Drain fire-and-forget remote writes: the suite's artifacts are
        // in the server's custody before the prepare reports done, so a
        // subsequent warm run on another machine (or the round-trip
        // counters a bench samples here) see a settled store.
        store.flush();
        Ok(DesignSet { designs: prepared? })
    }

    /// Batched read-ahead of the whole set's prepare keys through the
    /// store's remote tier (a no-op without one): one `GETM` round trip
    /// for every featurize key, then one more for the earlier-stage keys
    /// of the designs the first round could not cover — two round trips
    /// where the per-key path would pay latency per artifact.
    fn prefetch_prepare_keys(store: &Store, sources: &[(String, String)], cfg: &TimerConfig) {
        if !store.has_remote() || sources.is_empty() {
            return;
        }
        let keys: Vec<PrepareKeys> = sources
            .iter()
            .map(|(name, src)| PrepareKeys::derive(name, src, cfg))
            .collect();
        let featurize: Vec<(String, ContentHash)> = keys
            .iter()
            .map(|k| (stage::FEATURIZE.to_owned(), k.featurize))
            .collect();
        let covered = store.prefetch(&featurize);
        let mut rest = Vec::new();
        for (k, covered) in keys.iter().zip(&covered) {
            if !covered {
                // A warm featurize artifact answers the whole preparation,
                // so the earlier stages are only worth shipping for the
                // designs the first round missed.
                rest.push((stage::BLAST.to_owned(), k.blast));
                rest.push((stage::LABEL.to_owned(), k.label));
            }
        }
        if !rest.is_empty() {
            store.prefetch(&rest);
        }
    }

    /// [`DesignSet::prepare_named`], panicking on failure — for bench
    /// binaries and tests where a frontend error is a bug.
    ///
    /// # Panics
    ///
    /// Panics with the failing design's name if a source fails to compile.
    pub fn prepare_named_or_panic(sources: &[(String, String)], cfg: &TimerConfig) -> DesignSet {
        Self::prepare_named(sources, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The prepared designs.
    pub fn designs(&self) -> &[Arc<DesignData>] {
        &self.designs
    }

    /// Finds a design by name.
    pub fn get(&self, name: &str) -> Option<&DesignData> {
        self.designs.iter().find(|d| &*d.name == name).map(|d| &**d)
    }

    /// Splits into `(train, test)` by test-design names.
    pub fn split<'a>(&'a self, test_names: &[&str]) -> (Vec<&'a DesignData>, Vec<&'a DesignData>) {
        let mut train = Vec::new();
        let mut test = Vec::new();
        for d in &self.designs {
            if test_names.contains(&&*d.name) {
                test.push(&**d);
            } else {
                train.push(&**d);
            }
        }
        (train, test)
    }

    /// Content digest of the prepared set: a stable hash over every
    /// design's name, prepare key, ground-truth outputs (labels, WNS/TNS,
    /// area, power, clock), AST features and the full featurized
    /// `variant_data` (through its canonical codec encoding — the bulk of
    /// what the cache tiers actually serve), order-independent (sorted by
    /// name). The carried `source` text is deliberately excluded: cache
    /// hits rebind it to the caller's live file, which may legitimately
    /// differ outside the top module's dependency cone.
    ///
    /// Two preparations that took different routes to the same artifacts —
    /// cold vs. warm, one batch vs. several, local vs. remote tier — digest
    /// identically iff they produced identical results; the store tests
    /// and CI smoke lanes assert exactly that, so a tier bug serving a
    /// wrong-but-well-formed payload shows up here.
    pub fn content_digest(&self) -> ContentHash {
        let mut sorted: Vec<&Arc<DesignData>> = self.designs.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        let mut kb = KeyBuilder::new("rtlt.suite.digest.v2").u64(sorted.len() as u64);
        for d in sorted {
            kb = kb.str(&d.name).key(&d.prepare_key);
            kb = kb.u64(d.labels_at.len() as u64);
            for &l in d.labels_at.iter() {
                kb = kb.f64(l);
            }
            kb = kb
                .f64(d.clock)
                .f64(d.setup)
                .f64(d.wns)
                .f64(d.tns)
                .f64(d.area)
                .f64(d.power)
                .codec(&d.ast_feats)
                .codec(&d.variant_data)
                .u64(d.signal_names.len() as u64);
        }
        kb.finish()
    }

    /// Deterministic k-fold partition of design names (round-robin after a
    /// stable ordering). Names are shared, not copied.
    pub fn folds(&self, k: usize) -> Vec<Vec<Arc<str>>> {
        let mut names: Vec<Arc<str>> = self.designs.iter().map(|d| d.name.clone()).collect();
        names.sort();
        let mut folds = vec![Vec::new(); k.max(1)];
        for (i, n) in names.into_iter().enumerate() {
            folds[i % k.max(1)].push(n);
        }
        folds
    }
}

/// Source of [`RtlTimer`] ids: one per fitted or decoded stack.
static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(1);

/// The fitted RTL-Timer model stack.
#[derive(Debug)]
pub struct RtlTimer {
    /// Names this stack among those the process fitted or decoded, so an
    /// edit session never carries another stack's predictions (never
    /// persisted; 0 is no stack's).
    id: u64,
    pub(crate) bitwise: Vec<BitwiseModel>,
    pub(crate) ensemble: EnsembleModel,
    pub(crate) signal: SignalModels,
    pub(crate) design_timing: DesignTimingModel,
}

impl RtlTimer {
    /// A stack of fitted or decoded parts, under a fresh id.
    pub(crate) fn from_parts(
        bitwise: Vec<BitwiseModel>,
        ensemble: EnsembleModel,
        signal: SignalModels,
        design_timing: DesignTimingModel,
    ) -> RtlTimer {
        RtlTimer {
            id: NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed),
            bitwise,
            ensemble,
            signal,
            design_timing,
        }
    }

    /// Fits the full stack on the given training designs: the four
    /// bit-wise forests one after another, then the heads over them.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit(train: &[&DesignData], cfg: &TimerConfig) -> RtlTimer {
        let bitwise = (0..4).map(|v| Self::fit_forest(train, v, cfg)).collect();
        Self::fit_heads(train, bitwise, cfg)
    }

    /// Step 1 of [`RtlTimer::fit`]: the bit-wise model (grouped max-loss)
    /// of representation `v`. The four are independent of each other.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    fn fit_forest(train: &[&DesignData], v: usize, cfg: &TimerConfig) -> BitwiseModel {
        assert!(!train.is_empty(), "RtlTimer::fit needs at least one design");
        let corpus = BitwiseCorpus {
            designs: train
                .iter()
                .map(|d| (&d.variant_data[v], &d.labels_at[..]))
                .collect(),
        };
        BitwiseModel::fit(BitModelKind::TreeMax, &corpus, cfg.seed ^ (v as u64))
    }

    /// Steps 2 and 3 of [`RtlTimer::fit`]: the heads over the four
    /// bit-wise models [`RtlTimer::fit_forest`] fitted on the same `train`.
    fn fit_heads(train: &[&DesignData], bitwise: Vec<BitwiseModel>, cfg: &TimerConfig) -> RtlTimer {
        // 2. Ensemble meta-model over the per-variant predictions. Each
        // design's meta rows are kept for step 3.
        let mut scratch = PredictScratch::default();
        let mut meta_feat = FeatureMatrix::new(crate::ensemble::META_FEATURE_NAMES.len());
        let mut meta_label = Vec::new();
        let mut design_meta = Vec::with_capacity(train.len());
        for d in train {
            let preds: Vec<Vec<f64>> = (0..4)
                .map(|v| {
                    bitwise[v].predict_endpoints_with(
                        &d.variant_data[v],
                        &mut scratch.walk.gather,
                        &mut scratch.walk.walked,
                    )
                })
                .collect();
            let meta = meta_rows(&preds, &d.variant_data[0]);
            for (e, row) in meta.rows().enumerate() {
                if d.labels_at[e].is_finite() {
                    meta_feat.push_row(row);
                    meta_label.push(d.labels_at[e]);
                }
            }
            design_meta.push(meta);
        }
        let ensemble = EnsembleModel::fit(&meta_feat, &meta_label, cfg.seed ^ 0xE);

        // 3. Signal-level models on the ensembled bit predictions.
        let mut per_design_signal = Vec::new();
        let mut design_rows_v = FeatureMatrix::new(crate::design::DESIGN_ROW_NAMES.len());
        let mut wns_labels = Vec::new();
        let mut tns_labels = Vec::new();
        let mut ep_counts = Vec::new();
        for (d, meta) in train.iter().zip(&design_meta) {
            let bits = ensemble.predict(meta);
            let srows = signal_rows(
                &bits,
                &d.variant_data[0].endpoint_sta_at,
                d.signals(),
                &d.variant_data[0].design_feats,
            );
            let slabels = d.signal_labels();
            per_design_signal.push((srows, slabels));

            design_rows_v.push_row(&design_row(
                &bits,
                d.clock,
                d.setup,
                &d.variant_data[0].design_feats,
            ));
            wns_labels.push(d.wns);
            tns_labels.push(d.tns);
            ep_counts.push(d.labels_at.iter().filter(|l| l.is_finite()).count() as f64);
        }
        let signal = SignalModels::fit(&per_design_signal, cfg.seed ^ 0x5);
        let design_timing = DesignTimingModel::fit(
            &design_rows_v,
            &wns_labels,
            &tns_labels,
            &ep_counts,
            cfg.seed ^ 0xD,
        );

        RtlTimer::from_parts(bitwise, ensemble, signal, design_timing)
    }

    /// [`RtlTimer::fit`] through the store: the fitted stack is memoized
    /// under `H(sorted train prepare_keys, cfg.seed)` (see
    /// [`crate::cache::model_key`]), so re-running a fold — or re-opening
    /// an incremental annotation session — with unchanged training
    /// preparations deserializes the GBDT ensembles instead of refitting.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit_with(store: &Store, train: &[&DesignData], cfg: &TimerConfig) -> Arc<RtlTimer> {
        let key = model_key(train, cfg);
        store.get_or_compute(stage::MODEL, key, || Self::fit(train, cfg))
    }

    /// Runs the full prediction stack on one (unseen) design.
    pub fn predict(&self, d: &DesignData) -> Prediction {
        let mut scratch = PredictScratch::default();
        self.predict_with(d, &mut scratch)
    }

    /// [`RtlTimer::predict`] with caller-owned scratch, so per-design
    /// prediction loops (cross-validation folds, table6 what-if sweeps)
    /// reuse one set of feature-matrix buffers instead of reallocating
    /// them per call. [`RtlTimer::predict_carried`] with no carry: every
    /// row is walked, nothing is recorded.
    pub fn predict_with(&self, d: &DesignData, scratch: &mut PredictScratch) -> Prediction {
        self.predict_carried(d, scratch, None, &[]).0
    }

    /// The one prediction routine. With a `carry`, it codes the rows into
    /// split cells, re-walks only the rows an edit may have re-routed, and
    /// leaves this prediction in `carry` for the next revision:
    ///
    /// - a path row that `moves[v]` brought over from the carried
    ///   revision keeps its carried prediction when the cells of its
    ///   merged slots (the only ones the merge rewrote) equal the carried
    ///   ones; every other path row is walked;
    /// - an endpoint keeps its carried meta prediction when the cells of
    ///   all its meta features equal the carried ones (endpoints line up:
    ///   a revision is carried only over an identical signal list);
    /// - the signal and design heads are walked in full.
    ///
    /// A carry made by another stack counts as none, so every row is
    /// walked. Group maxima are folded afresh in group order. Walked and
    /// kept rows alike give the bits [`RtlTimer::predict`] gives.
    pub(crate) fn predict_carried(
        &self,
        d: &DesignData,
        scratch: &mut PredictScratch,
        mut carry: Option<&mut PredictCarry>,
        moves: &[Vec<RowMove>],
    ) -> (Prediction, WalkCounts) {
        let recording = carry.is_some();
        let coded = |slots: usize| if recording { slots } else { 0 };
        let prior = carry
            .as_deref_mut()
            .map(std::mem::take)
            .filter(|p| p.model == self.id);
        let mut next = PredictCarry {
            model: self.id,
            ..PredictCarry::default()
        };
        let mut counts = WalkCounts::default();

        let mut variant_bit_preds = Vec::with_capacity(4);
        for (v, data) in d.variant_data.iter().enumerate().take(4) {
            let (forest, crit_only) = self.bitwise[v]
                .forest()
                .expect("an RtlTimer holds tree models only");
            let rows = if recording {
                next.rows.push(CarriedRows::default());
                next.rows.last_mut().expect("just pushed")
            } else {
                &mut scratch.rows
            };
            counts.walked_rows += walk_rows(
                forest,
                data.rows.len(),
                |r| &data.rows[r].features,
                coded(MERGED_SLOTS),
                moves.get(v).map_or(&[], Vec::as_slice),
                prior.as_ref().and_then(|p| p.rows.get(v)),
                rows,
                &mut scratch.walk,
            );
            counts.total_rows += data.rows.len() as u64;
            variant_bit_preds.push(group_maxima(&data.groups, &rows.pred, crit_only));
        }

        meta_rows_into(&variant_bit_preds, &d.variant_data[0], &mut scratch.meta);
        let n_eps = scratch.meta.n_rows();
        let meta = if recording {
            &mut next.meta
        } else {
            &mut scratch.rows
        };
        let meta_rows = &scratch.meta;
        counts.walked_endpoints = walk_rows(
            self.ensemble.forest(),
            n_eps,
            |e| meta_rows.row(e),
            coded(META_FEATURE_NAMES.len()),
            &[RowMove {
                from: 0,
                to: 0,
                len: n_eps,
            }],
            prior
                .as_ref()
                .map(|p| &p.meta)
                .filter(|m| m.pred.len() == n_eps),
            meta,
            &mut scratch.walk,
        );
        counts.total_endpoints = n_eps as u64;
        let bit_pred = meta.pred.clone();

        signal_rows_into(
            &bit_pred,
            &d.variant_data[0].endpoint_sta_at,
            d.signals(),
            &d.variant_data[0].design_feats,
            &mut scratch.signals,
        );
        let (signal_pred, signal_rank_score) = self.signal.predict(&scratch.signals);

        let drow = design_row(&bit_pred, d.clock, d.setup, &d.variant_data[0].design_feats);
        let n_eps = d.labels_at.iter().filter(|l| l.is_finite()).count() as f64;
        let (wns_pred, tns_pred) = self.design_timing.predict(&drow, n_eps);
        let (wns_direct, tns_direct) = direct_wns_tns(&bit_pred, d.clock, d.setup);

        if let Some(carry) = carry {
            *carry = next;
        }
        let prediction = Prediction {
            design: d.name.clone(),
            bit_pred,
            bit_label: d.labels_at.clone(),
            variant_bit_preds,
            signal_pred,
            signal_rank_score,
            signal_label: d.signal_labels(),
            signal_names: d.signal_names.clone(),
            wns_pred,
            tns_pred,
            wns_direct,
            tns_direct,
            wns_label: d.wns,
            tns_label: d.tns,
            clock: d.clock,
            setup: d.setup,
        };
        (prediction, counts)
    }
}

/// Reusable buffers for [`RtlTimer::predict_with`]: the walk's gather
/// matrix and buffers, one row-prediction vector, one meta-row matrix and
/// one signal-row matrix, all retained across designs.
#[derive(Debug, Default)]
pub struct PredictScratch {
    pub(crate) walk: WalkScratch,
    rows: CarriedRows,
    pub(crate) meta: FeatureMatrix,
    pub(crate) signals: FeatureMatrix,
}

/// Buffers of one [`walk_rows`] call.
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    /// The rows to walk, gathered.
    pub(crate) gather: FeatureMatrix,
    /// Their predictions.
    pub(crate) walked: Vec<f64>,
    /// Per row: whether it keeps its carried prediction.
    keep: Vec<bool>,
}

/// What an edit session keeps of its last prediction, beside the rows it
/// was made from: per variant each path row's prediction and the cells of
/// its merged slots, per endpoint the cells of its meta row and its meta
/// prediction, and the stack that made them. Derived, never persisted.
#[derive(Debug, Default)]
pub(crate) struct PredictCarry {
    /// The [`RtlTimer`] id that made it.
    model: u64,
    /// Per variant, one entry per path row.
    rows: Vec<CarriedRows>,
    /// One entry per endpoint.
    meta: CarriedRows,
}

/// One forest's rows as last walked or kept: the cells of each row's
/// coded slots (row-major, empty when nothing was coded) and its
/// prediction.
#[derive(Debug, Default)]
pub(crate) struct CarriedRows {
    cells: Vec<u32>,
    pred: Vec<f64>,
}

/// Rows [`RtlTimer::predict_carried`] walked through the forests, against
/// the rows it predicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WalkCounts {
    /// Path rows walked, all four variants.
    pub walked_rows: u64,
    /// Path rows, all four variants.
    pub total_rows: u64,
    /// Endpoint meta rows walked.
    pub walked_endpoints: u64,
    /// Endpoint meta rows.
    pub total_endpoints: u64,
}

/// Predicts rows `0..n` (`row(i)` gives row `i`'s features) through
/// `forest` into `next.pred` and returns how many it walked. With
/// `coded > 0` it codes slots `0..coded` of every row into `next.cells`,
/// and a row a `moves` run brought over from `prior` keeps its prior
/// prediction when its coded cells equal the prior ones. Every other row
/// is gathered and walked through the flat kernel.
#[allow(clippy::too_many_arguments)]
fn walk_rows<'a>(
    forest: &Gbdt,
    n: usize,
    row: impl Fn(usize) -> &'a [f64],
    coded: usize,
    moves: &[RowMove],
    prior: Option<&CarriedRows>,
    next: &mut CarriedRows,
    scratch: &mut WalkScratch,
) -> u64 {
    next.cells.clear();
    next.pred.clear();
    if n == 0 {
        return 0;
    }
    next.pred.resize(n, 0.0);
    let keep = &mut scratch.keep;
    keep.clear();
    keep.resize(n, false);
    if coded > 0 {
        let cells = forest.cells();
        next.cells.reserve(n * coded);
        for i in 0..n {
            let x = row(i);
            next.cells.extend((0..coded).map(|f| cells.cell(f, x[f])));
        }
        if let Some(prior) = prior.filter(|p| p.cells.len() == p.pred.len() * coded) {
            for m in moves {
                let was = &prior.cells[m.from * coded..(m.from + m.len) * coded];
                let now = &next.cells[m.to * coded..(m.to + m.len) * coded];
                for (k, (a, b)) in was
                    .chunks_exact(coded)
                    .zip(now.chunks_exact(coded))
                    .enumerate()
                {
                    if a == b {
                        keep[m.to + k] = true;
                        next.pred[m.to + k] = prior.pred[m.from + k];
                    }
                }
            }
        }
    }
    let gather = &mut scratch.gather;
    gather.reset(row(0).len());
    for i in (0..n).filter(|&i| !keep[i]) {
        gather.push_row(row(i));
    }
    let walked = gather.n_rows();
    if walked == n {
        forest.predict_into(gather, &mut next.pred);
    } else {
        forest.predict_into(gather, &mut scratch.walked);
        let mut preds = scratch.walked.iter();
        for i in (0..n).filter(|&i| !keep[i]) {
            next.pred[i] = *preds.next().expect("one prediction per gathered row");
        }
    }
    walked as u64
}

/// Per group, the max of the row predictions it reads — all its rows, or
/// with `crit_only` its critical (first) row — folded in group order; an
/// empty group predicts 0.
fn group_maxima(groups: &[Vec<usize>], pred: &[f64], crit_only: bool) -> Vec<f64> {
    groups
        .iter()
        .map(|group| {
            if group.is_empty() {
                return 0.0;
            }
            let take = if crit_only { 1 } else { group.len() };
            group[..take]
                .iter()
                .map(|&r| pred[r])
                .fold(f64::MIN, f64::max)
        })
        .collect()
}

/// Prediction output for one design, bundled with labels for evaluation.
///
/// Label and name vectors are `Arc`-shared with the [`DesignData`] they
/// came from — constructing a `Prediction` copies none of them.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Design name.
    pub design: Arc<str>,
    /// Ensembled bit-wise arrival predictions.
    pub bit_pred: Vec<f64>,
    /// Ground-truth bit-wise arrivals (shared with the design).
    pub bit_label: Arc<[f64]>,
    /// Per-variant bit-wise predictions (SOG, AIG, AIMG, XAG).
    pub variant_bit_preds: Vec<Vec<f64>>,
    /// Signal-wise max-arrival regression predictions.
    pub signal_pred: Vec<f64>,
    /// Signal-wise LTR criticality scores (higher = more critical).
    pub signal_rank_score: Vec<f64>,
    /// Ground-truth signal max arrivals.
    pub signal_label: Vec<f64>,
    /// Signal names (aligned with the signal vectors, shared with the
    /// design).
    pub signal_names: Arc<[String]>,
    /// Model-predicted WNS.
    pub wns_pred: f64,
    /// Model-predicted TNS.
    pub tns_pred: f64,
    /// Direct WNS from predicted slacks.
    pub wns_direct: f64,
    /// Direct TNS from predicted slacks.
    pub tns_direct: f64,
    /// Ground-truth WNS.
    pub wns_label: f64,
    /// Ground-truth TNS.
    pub tns_label: f64,
    /// Clock period (ns).
    pub clock: f64,
    /// DFF setup (ns).
    pub setup: f64,
}

impl Prediction {
    /// Whether every predicted number equals `other`'s bit for bit: the
    /// ensembled, per-variant and signal-wise predictions, the ranking
    /// scores and the WNS/TNS heads. Rendered slacks round to two
    /// decimals, so comparing annotations alone would hide a last-bit
    /// drift.
    pub fn same_bits(&self, other: &Prediction) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let heads = |p: &Prediction| [p.wns_pred, p.tns_pred, p.wns_direct, p.tns_direct];
        same(&self.bit_pred, &other.bit_pred)
            && self.variant_bit_preds.len() == other.variant_bit_preds.len()
            && (self.variant_bit_preds.iter())
                .zip(&other.variant_bit_preds)
                .all(|(a, b)| same(a, b))
            && same(&self.signal_pred, &other.signal_pred)
            && same(&self.signal_rank_score, &other.signal_rank_score)
            && same(&heads(self), &heads(other))
    }

    fn finite_pairs(pred: &[f64], label: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut p = Vec::new();
        let mut l = Vec::new();
        for (&a, &b) in pred.iter().zip(label) {
            if a.is_finite() && b.is_finite() {
                p.push(a);
                l.push(b);
            }
        }
        (p, l)
    }

    /// Pearson R of the bit-wise predictions.
    pub fn bit_r(&self) -> f64 {
        let (p, l) = Self::finite_pairs(&self.bit_pred, &self.bit_label);
        metrics::pearson(&p, &l)
    }

    /// MAPE (%) of the bit-wise predictions.
    pub fn bit_mape(&self) -> f64 {
        let (p, l) = Self::finite_pairs(&self.bit_pred, &self.bit_label);
        metrics::mape(&p, &l)
    }

    /// COVR (%) of bit-wise criticality groups.
    pub fn bit_covr(&self) -> f64 {
        let (p, l) = Self::finite_pairs(&self.bit_pred, &self.bit_label);
        metrics::covr(&p, &l)
    }

    /// Pearson R of one representation's bit predictions.
    pub fn variant_bit_r(&self, v: usize) -> f64 {
        let (p, l) = Self::finite_pairs(&self.variant_bit_preds[v], &self.bit_label);
        metrics::pearson(&p, &l)
    }

    /// Pearson R of the signal-wise regression.
    pub fn signal_r(&self) -> f64 {
        let (p, l) = Self::finite_pairs(&self.signal_pred, &self.signal_label);
        metrics::pearson(&p, &l)
    }

    /// MAPE (%) of the signal-wise regression.
    pub fn signal_mape(&self) -> f64 {
        let (p, l) = Self::finite_pairs(&self.signal_pred, &self.signal_label);
        metrics::mape(&p, &l)
    }

    /// COVR (%) using the regression predictions for grouping.
    pub fn signal_covr_regression(&self) -> f64 {
        let (p, l) = Self::finite_pairs(&self.signal_pred, &self.signal_label);
        metrics::covr(&p, &l)
    }

    /// COVR (%) using the LTR scores for grouping (the paper's headline
    /// ranking metric).
    pub fn signal_covr_ranking(&self) -> f64 {
        let (p, l) = Self::finite_pairs(&self.signal_rank_score, &self.signal_label);
        metrics::covr(&p, &l)
    }

    /// Predicted signal slack (ns): `clock − setup − predicted arrival`.
    pub fn signal_slack(&self) -> Vec<f64> {
        self.signal_pred
            .iter()
            .map(|at| self.clock - self.setup - at)
            .collect()
    }
}

/// Runs k-fold cross-validation (train/test splits are disjoint by design,
/// as in the paper) through a shared artifact store and returns one
/// [`Prediction`] per design, sorted by design name. Every fold's fitted
/// model is memoized where [`RtlTimer::fit_with`] memoizes it, so a warm
/// second run of any cross-validating bench binary skips model fitting
/// entirely.
///
/// The folds share one schedule on `cfg.threads` workers, in three
/// phases, each one work queue: every fold's stack is looked up; for the
/// folds that missed, every (fold, representation) forest is fitted, then
/// each fold's heads, and the stack is stored; every held-out design is
/// predicted, the most path rows first. Nothing nests a parallel map, so
/// at most `cfg.threads` fits or predictions run at once, and the stacks
/// and predictions are those of [`RtlTimer::fit`] and
/// [`RtlTimer::predict`] whatever the worker count.
pub fn cross_validate_with(
    set: &DesignSet,
    k: usize,
    cfg: &TimerConfig,
    store: &Store,
) -> Vec<Prediction> {
    let folds: Vec<(Vec<&DesignData>, Vec<&DesignData>)> = set
        .folds(k)
        .iter()
        .map(|fold| set.split(&fold.iter().map(|s| &**s).collect::<Vec<_>>()))
        .filter(|(_, test)| !test.is_empty())
        .collect();
    let keys: Vec<ContentHash> = folds
        .iter()
        .map(|(train, _)| model_key(train, cfg))
        .collect();

    // 1. Every fold's stack from the store.
    let mut stacks: Vec<Option<Arc<RtlTimer>>> =
        rtlt_runtime::par_map(cfg.threads, &keys, |&key| store.get(stage::MODEL, key));

    // 2. The folds that missed: their forests from one queue, then each
    // fold's heads over its four.
    let missed: Vec<usize> = (0..folds.len()).filter(|&f| stacks[f].is_none()).collect();
    let tasks: Vec<(usize, usize)> = missed
        .iter()
        .flat_map(|&f| (0..4).map(move |v| (f, v)))
        .collect();
    let mut forests = rtlt_runtime::par_map(cfg.threads, &tasks, |&(f, v)| {
        RtlTimer::fit_forest(&folds[f].0, v, cfg)
    })
    .into_iter();
    let forests: Vec<Mutex<Vec<BitwiseModel>>> = missed
        .iter()
        .map(|_| Mutex::new(forests.by_ref().take(4).collect()))
        .collect();
    let fitted = rtlt_runtime::par_map_indexed(cfg.threads, &missed, |i, &f| {
        let bitwise = std::mem::take(&mut *forests[i].lock().expect("forest slot lock"));
        store.put(
            stage::MODEL,
            keys[f],
            RtlTimer::fit_heads(&folds[f].0, bitwise, cfg),
        )
    });
    for (f, stack) in missed.into_iter().zip(fitted) {
        stacks[f] = Some(stack);
    }

    // 3. Every held-out design from one queue, the most path rows first.
    let mut jobs: Vec<(&RtlTimer, &DesignData)> = folds
        .iter()
        .zip(&stacks)
        .flat_map(|((_, test), stack)| {
            let stack: &RtlTimer = stack.as_deref().expect("every fold has a stack");
            test.iter().map(move |&d| (stack, d))
        })
        .collect();
    jobs.sort_by_key(|(_, d)| {
        std::cmp::Reverse(d.variant_data.iter().map(|v| v.rows.len()).sum::<usize>())
    });
    let mut out = rtlt_runtime::par_map_with(
        cfg.threads,
        &jobs,
        PredictScratch::default,
        |scratch, _, (stack, d)| stack.predict_with(d, scratch),
    );
    out.sort_by(|a, b| a.design.cmp(&b.design));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sources() -> Vec<(String, String)> {
        let mk = |name: &str, w: u32, extra: &str| {
            (
                name.to_owned(),
                format!(
                    "module {name}(input clk, input [{x}:0] a, input [{x}:0] b, output [{x}:0] q);
                       reg [{x}:0] r;
                       reg [{x}:0] s;
                       always @(posedge clk) begin
                         r <= a + b;
                         s <= s ^ (r {extra});
                       end
                       assign q = s;
                     endmodule",
                    x = w - 1,
                ),
            )
        };
        vec![
            mk("d0", 8, "+ a"),
            mk("d1", 10, "- b"),
            mk("d2", 12, "& a"),
            mk("d3", 9, "| b"),
        ]
    }

    #[test]
    fn prepare_builds_labels_and_features() {
        let cfg = TimerConfig {
            threads: 2,
            ..Default::default()
        };
        let (name, src) = &tiny_sources()[0];
        let d = DesignData::prepare(name, src, &cfg).unwrap();
        assert_eq!(d.variant_data.len(), 4);
        assert_eq!(d.labels_at.len(), d.sog.regs().len());
        assert!(d.labels_at.iter().all(|l| l.is_finite()));
        assert!(d.clock > 0.0 && d.area > 0.0);
        assert_eq!(d.signal_names.len(), d.signals().len());
    }

    #[test]
    fn default_config_has_workers() {
        assert!(TimerConfig::default().threads >= 1);
    }

    #[test]
    fn staged_preparation_matches_monolithic() {
        let cfg = TimerConfig {
            threads: 1,
            ..Default::default()
        };
        let (name, src) = &tiny_sources()[1];
        let stages = PrepareStages::new(&cfg);
        let staged = stages
            .featurize(stages.label(stages.blast(stages.compile(name, src).expect("compiles"))));
        let monolithic = DesignData::prepare(name, src, &cfg).unwrap();
        assert_eq!(staged.labels_at, monolithic.labels_at);
        assert_eq!(staged.wns, monolithic.wns);
        assert_eq!(staged.clock, monolithic.clock);
        assert_eq!(staged.ast_feats, monolithic.ast_feats);
        assert_eq!(staged.variant_data.len(), monolithic.variant_data.len());
        assert_eq!(staged.prepare_key, monolithic.prepare_key);
    }

    #[test]
    fn cached_preparation_matches_uncached() {
        let cfg = TimerConfig {
            threads: 1,
            ..Default::default()
        };
        let (name, src) = &tiny_sources()[2];
        let store = Store::in_memory();
        let stages = PrepareStages::new(&cfg);
        let cached = stages.run_with(&store, name, src).expect("compiles");
        let plain = DesignData::prepare(name, src, &cfg).unwrap();
        assert_eq!(cached.labels_at, plain.labels_at);
        assert_eq!(cached.wns, plain.wns);
        assert_eq!(cached.clock, plain.clock);
        assert_eq!(cached.prepare_key, plain.prepare_key);

        // Second run answers straight from the featurize namespace.
        let again = stages.run_with(&store, name, src).expect("compiles");
        assert!(Arc::ptr_eq(&cached, &again));
        let s = store.stats();
        assert_eq!(s.namespace(stage::FEATURIZE).mem_hits, 1);
        assert_eq!(s.namespace(stage::FEATURIZE).misses, 1);
    }

    #[test]
    fn warm_store_prepares_suite_without_misses() {
        let cfg = TimerConfig {
            threads: 2,
            ..Default::default()
        };
        let sources = tiny_sources();
        let store = Store::in_memory();
        let cold = DesignSet::prepare_named_with(&sources, &cfg, &store).unwrap();
        let cold_misses = store.stats().aggregate(stage::PREPARE).misses;
        let warm = DesignSet::prepare_named_with(&sources, &cfg, &store).unwrap();
        let s = store.stats().aggregate(stage::PREPARE);
        assert_eq!(s.misses, cold_misses, "warm run added no misses");
        assert_eq!(
            store.stats().namespace(stage::FEATURIZE).mem_hits,
            sources.len() as u64
        );
        for (a, b) in cold.designs().iter().zip(warm.designs()) {
            assert!(Arc::ptr_eq(a, b), "warm run shares the cold artifacts");
        }
    }

    #[test]
    fn prepare_named_surfaces_failing_design_by_name() {
        let cfg = TimerConfig {
            threads: 2,
            ..Default::default()
        };
        // A syntax error inside a module, and well-formed modules with
        // tokens between them (text no module span covers).
        let stray = "module leaf(input a, output y);\n  assign y = ~a;\nendmodule\nstray_junk;\n\
                     module stray(input a, output y);\n  leaf u0 (.a(a), .y(y));\nendmodule";
        for (name, src, line) in [
            ("broken", "module broken(input clk; endmodule", 1),
            ("stray", stray, 4),
        ] {
            let mut sources = tiny_sources();
            sources.insert(1, (name.to_owned(), src.to_owned()));
            let err = DesignSet::prepare_named(&sources, &cfg).unwrap_err();
            assert_eq!(err.design, name);
            assert!(err.to_string().contains(name));
            assert_eq!(err.source.line, Some(line), "{err}");
        }
    }

    #[test]
    fn fit_predict_round_trip() {
        let cfg = TimerConfig {
            threads: 2,
            ..Default::default()
        };
        let set = DesignSet::prepare_named_or_panic(&tiny_sources(), &cfg);
        let (train, test) = set.split(&["d3"]);
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        let model = RtlTimer::fit(&train, &cfg);
        let pred = model.predict(test[0]);
        assert_eq!(pred.bit_pred.len(), test[0].labels_at.len());
        assert_eq!(pred.signal_pred.len(), test[0].signals().len());
        assert!(pred.bit_r().is_finite());
        // Cross-design generalization on closely-related designs should be
        // clearly positive.
        assert!(pred.bit_r() > 0.3, "bit R = {}", pred.bit_r());
        assert!(pred.wns_pred <= 0.0 && pred.tns_pred <= pred.wns_pred + 1e-12);
    }

    #[test]
    fn cache_hits_carry_the_live_source() {
        let cfg = TimerConfig {
            threads: 1,
            ..Default::default()
        };
        let src = "module leaf(input clk, input [3:0] a, output [3:0] y);
  reg [3:0] r;
  always @(posedge clk) r <= a + 4'd1;
  assign y = r;
endmodule
module top(input clk, input [3:0] x, output [3:0] z);
  wire [3:0] t;
  leaf u0 (.clk(clk), .a(x), .y(t));
  reg [3:0] out_r;
  always @(posedge clk) out_r <= t;
  assign z = out_r;
endmodule";
        let store = Store::in_memory();
        let stages = PrepareStages::new(&cfg);
        let a = stages.run_with(&store, "top", src).expect("compiles");

        // Appending a module below the top's cone hits the same featurize
        // key — but the returned artifact must carry the *new* source, or
        // annotation would silently emit the old file.
        let appended =
            format!("{src}\nmodule unused(input a, output y);\n  assign y = a;\nendmodule\n");
        let b = stages.run_with(&store, "top", &appended).expect("compiles");
        assert_eq!(a.prepare_key, b.prepare_key, "cone key unchanged");
        assert_eq!(store.stats().namespace(stage::FEATURIZE).mem_hits, 1);
        assert_eq!(b.source, appended, "cache hit rebinds the live source");
        assert_eq!(a.labels_at, b.labels_at);
        let blasted = stages
            .blasted_with(&store, "top", &appended)
            .expect("compiles");
        assert_eq!(blasted.source, appended);

        // Moving the cone (a leading line) shifts declaration lines and
        // must be a different preparation, not a patched hit.
        let shifted = format!("// header\n{src}");
        let c = stages.run_with(&store, "top", &shifted).expect("compiles");
        assert_ne!(a.prepare_key, c.prepare_key);
        let decl = |d: &DesignData| d.signals()[0].decl_line;
        assert_eq!(decl(&c), decl(&a) + 1);
    }

    #[test]
    fn fit_with_memoizes_and_round_trips_the_model_stack() {
        use rtlt_store::Codec;
        let cfg = TimerConfig {
            threads: 2,
            ..Default::default()
        };
        let set = DesignSet::prepare_named_or_panic(&tiny_sources(), &cfg);
        let (train, test) = set.split(&["d3"]);
        let store = Store::in_memory();
        let m1 = RtlTimer::fit_with(&store, &train, &cfg);
        let m2 = RtlTimer::fit_with(&store, &train, &cfg);
        assert!(Arc::ptr_eq(&m1, &m2), "second fit served from the store");
        let s = store.stats().namespace(stage::MODEL);
        assert_eq!((s.misses, s.mem_hits), (1, 1));

        // A decoded stack predicts bit-identically (the disk-tier path).
        let decoded = RtlTimer::from_bytes(&m1.to_bytes()).expect("model round trip");
        let a = m1.predict(test[0]);
        let b = decoded.predict(test[0]);
        assert!(a.same_bits(&b));

        // A stack short of one bit-wise model per representation is a
        // corrupt entry, not a stack that panics in predict.
        let mut e = rtlt_store::Enc::new();
        e.seq_len(3);
        for m in &m1.bitwise[..3] {
            m.encode(&mut e);
        }
        m1.ensemble.encode(&mut e);
        m1.signal.encode(&mut e);
        m1.design_timing.encode(&mut e);
        assert!(RtlTimer::from_bytes(&e.into_bytes()).is_err());

        // Different train sets / seeds key differently; order does not.
        let (train_b, _) = set.split(&["d0"]);
        assert_ne!(
            crate::cache::model_key(&train, &cfg),
            crate::cache::model_key(&train_b, &cfg)
        );
        let mut rev = train.clone();
        rev.reverse();
        assert_eq!(
            crate::cache::model_key(&train, &cfg),
            crate::cache::model_key(&rev, &cfg)
        );
        let other_seed = TimerConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert_ne!(
            crate::cache::model_key(&train, &cfg),
            crate::cache::model_key(&train, &other_seed)
        );
    }

    /// The folds of `set` that hold out at least one design, each with the
    /// stack [`RtlTimer::fit`] fits on its training designs, and every
    /// held-out design predicted one by one: the serial oracle of
    /// [`cross_validate_with`].
    fn serial_cross_validation(
        set: &DesignSet,
        k: usize,
        cfg: &TimerConfig,
    ) -> (Vec<(ContentHash, RtlTimer)>, Vec<Prediction>) {
        let mut stacks = Vec::new();
        let mut preds = Vec::new();
        for fold in set.folds(k) {
            let names: Vec<&str> = fold.iter().map(|s| &**s).collect();
            let (train, test) = set.split(&names);
            if test.is_empty() {
                continue;
            }
            let stack = RtlTimer::fit(&train, cfg);
            preds.extend(test.iter().map(|d| stack.predict(d)));
            stacks.push((crate::cache::model_key(&train, cfg), stack));
        }
        preds.sort_by(|a, b| a.design.cmp(&b.design));
        (stacks, preds)
    }

    fn assert_same_predictions(got: &[Prediction], want: &[Prediction], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: one prediction per design");
        for (g, w) in got.iter().zip(want) {
            assert!(g.same_bits(w), "{what}: {} predicts other bits", w.design);
        }
    }

    #[test]
    fn cross_validation_fits_and_predicts_like_the_serial_oracle() {
        use rtlt_store::Codec;
        let cfg = TimerConfig {
            threads: 2,
            ..Default::default()
        };
        let set = DesignSet::prepare_named_or_panic(&tiny_sources(), &cfg);
        let (stacks, want) = serial_cross_validation(&set, 3, &cfg);
        assert_eq!(stacks.len(), 3);

        let store = Store::in_memory();
        let cold = cross_validate_with(&set, 3, &cfg, &store);
        assert_same_predictions(&cold, &want, "cold");
        for (key, stack) in &stacks {
            let stored: Arc<RtlTimer> = store.get(stage::MODEL, *key).expect("fold stack stored");
            assert_eq!(stored.to_bytes(), stack.to_bytes(), "stored stack bytes");
        }

        // A second call takes every stack from the store.
        let before = store.stats().namespace(stage::MODEL);
        let warm = cross_validate_with(&set, 3, &cfg, &store);
        let after = store.stats().namespace(stage::MODEL);
        assert_eq!(
            (after.misses, after.hits(), after.bytes_written),
            (before.misses, before.hits() + 3, before.bytes_written)
        );
        assert_same_predictions(&warm, &want, "warm");

        // One worker fits and predicts the same bits.
        let serial = TimerConfig { threads: 1, ..cfg };
        let one = cross_validate_with(&set, 3, &serial, &Store::in_memory());
        assert_same_predictions(&one, &want, "one worker");
    }

    #[test]
    fn content_digest_is_order_independent_and_content_sensitive() {
        let cfg = TimerConfig {
            threads: 2,
            ..Default::default()
        };
        let sources = tiny_sources();
        let set = DesignSet::prepare_named_or_panic(&sources[..2], &cfg);
        let mut reversed_sources = sources[..2].to_vec();
        reversed_sources.reverse();
        let reversed = DesignSet::prepare_named_or_panic(&reversed_sources, &cfg);
        assert_eq!(set.content_digest(), reversed.content_digest());
        // A different design subset digests differently.
        let other = DesignSet::prepare_named_or_panic(&sources[..3], &cfg);
        assert_ne!(set.content_digest(), other.content_digest());
    }

    #[test]
    fn folds_partition_all_designs() {
        let cfg = TimerConfig {
            threads: 2,
            ..Default::default()
        };
        let set = DesignSet::prepare_named_or_panic(&tiny_sources()[..2], &cfg);
        let folds = set.folds(2);
        let total: usize = folds.iter().map(|f| f.len()).sum();
        assert_eq!(total, 2);
    }
}
