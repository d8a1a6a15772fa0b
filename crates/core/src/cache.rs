//! Content-addressed caching of the prepare pipeline.
//!
//! Each [`crate::pipeline::PrepareStages`] stage is a pure function of its
//! predecessor plus the [`TimerConfig`] fields it actually reads, so stage
//! outputs are memoizable under the chained keys built here:
//!
//! ```text
//! blast     = H(H(module_key(top)))                // dep-closed module keys;
//!                                                  //   reads no config
//! label     = H(blast, cfg.seed, cfg.synth_effort) // the label flow's inputs
//! featurize = H(label)                             // derives everything else
//! model     = H(sorted train prepare_keys, seed)   // fitted RtlTimer
//! ```
//!
//! Every key also hashes [`PIPELINE_EPOCH`]. The design-level keys are
//! **module-granular**: `module_key = H(name, text, dep_module_keys)` (see
//! [`rtlt_verilog::modsrc`]), so editing a module invalidates only the
//! designs whose top-module dependency cone contains it. Inside an edited
//! design no store key is finer than the design: an edit session moves
//! the rows of every cone whose content the edit left alone out of its
//! previous revision ([`crate::incremental`]), and each row is stored once,
//! in its design's `featurize` entry.
//!
//! `cfg.threads` deliberately appears in **no** key: it changes how fast a
//! suite prepares, never what is prepared. The [`Codec`] impls in this
//! module (plus the ones in `rtlt-bog`/`rtlt-ml` for graph and model
//! types) make every stage artifact storable in the `rtlt-store` disk
//! tier, so a warm run of any bench binary skips suite preparation
//! entirely.

use crate::bitwise::BitwiseModel;
use crate::dataset::{PathRow, VariantData};
use crate::optimize::FlowMetrics;
use crate::pipeline::{BlastedDesign, DesignData, LabelOutcome, RtlTimer, TimerConfig};
use rtlt_bog::{Bog, BogVariant};
use rtlt_store::{Codec, CodecError, ContentHash, Dec, Enc, KeyBuilder};
use std::sync::Arc;

/// Store namespaces, one per memoized computation. Namespacing keeps stats
/// attributable per stage and makes the on-disk layout self-describing
/// (`<cache-dir>/<namespace>/<key>.bin`).
pub mod stage {
    /// Bit-blasted SOG, with what the later stages read of the frontend
    /// (AST features, module keys, per-signal provenance).
    pub const BLAST: &str = "blast";
    /// Ground-truth label flow outcome.
    pub const LABEL: &str = "label";
    /// Fully featurized design data.
    pub const FEATURIZE: &str = "featurize";
    /// Retired: nothing reads or writes it. A featurize shard's rows live
    /// only in its design's `featurize` entry and in an edit session's
    /// resident revision; the name stays for readers of per-namespace
    /// stats, which count nothing under it.
    pub const SHARD: &str = "shard";
    /// Retired: nothing reads or writes it. Shared cone evaluations live
    /// only in one featurize job's once-map; the name stays for readers
    /// of per-namespace stats, which count nothing under it.
    pub const CONESTA: &str = "conesta";
    /// Fitted model stacks ([`RtlTimer`]), keyed by train set × seed.
    pub const MODEL: &str = "model";
    /// Table-6 optimization candidate flows.
    pub const OPT_FLOW: &str = "optflow";

    /// The stored prepare stages, pipeline order (for aggregate
    /// reporting).
    pub const PREPARE: [&str; 3] = [BLAST, LABEL, FEATURIZE];
}

/// Pipeline algorithm epoch, folded into every stage-key domain. The
/// codec-level `FORMAT_VERSION` only guards the *shape* of stored bytes;
/// this guards their *meaning*. Bump it whenever any stage's algorithm
/// changes output for unchanged inputs (synthesis cost model, blasting
/// rules, featurization, …) so warm caches from older builds read as
/// misses instead of silently serving stale artifacts.
///
/// The `blast` artifact stores each signal's module provenance
/// ([`rtlt_bog::signal_provenance`]), so a change to what that function
/// returns needs a bump too, as a change to the blasting rules does.
///
/// Epoch 2: featurization moved to the sharded cone-local pipeline
/// (per-signal pseudo-STA and sampling seeds; AST features restricted to
/// the top module's dependency cone).
///
/// Epoch 3: path rows hold only their features and endpoint; the
/// Transformer's token sequences left the `featurize` and `shard` layouts
/// ([`crate::dataset::token_rows`] replays them).
pub const PIPELINE_EPOCH: u64 = 3;

/// The chained content keys of one design's preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareKeys {
    /// Key of the blast-stage artifact ([`BlastedDesign`]).
    pub blast: ContentHash,
    /// Key of the label-stage artifact.
    pub label: ContentHash,
    /// Key of the featurize-stage artifact (identifies the whole
    /// preparation — [`DesignData::prepare_key`] records it).
    pub featurize: ContentHash,
}

impl PrepareKeys {
    /// Derives the stage keys from the preparation inputs. Only the
    /// `TimerConfig` fields a stage reads participate in its key.
    ///
    /// The keys are **module-granular**: they chain from the dep-closed
    /// content key of the top module (`rtlt_verilog::modsrc::design_key`),
    /// so source edits outside the top's dependency cone — or pure
    /// re-ordering of unrelated modules in the file — do not invalidate
    /// the preparation. Sources the splitter cannot handle fall back to
    /// whole-source hashing. The blast key chains through an intermediate
    /// frontend key (domain `rtlt.stage.compile`): dropping that link would
    /// change every stage key and orphan every existing cache.
    pub fn derive(name: &str, source: &str, cfg: &TimerConfig) -> PrepareKeys {
        let design = rtlt_verilog::modsrc::design_key(source, name).unwrap_or_else(|| {
            KeyBuilder::new("rtlt.design.flat")
                .str(name)
                .str(source)
                .finish()
        });
        let frontend = KeyBuilder::new("rtlt.stage.compile")
            .u64(PIPELINE_EPOCH)
            .key(&design)
            .finish();
        let blast = KeyBuilder::new("rtlt.stage.blast")
            .u64(PIPELINE_EPOCH)
            .key(&frontend)
            .finish();
        let label = KeyBuilder::new("rtlt.stage.label")
            .u64(PIPELINE_EPOCH)
            .key(&blast)
            .u64(cfg.seed)
            .f64(cfg.synth_effort)
            .finish();
        let featurize = KeyBuilder::new("rtlt.stage.featurize")
            .u64(PIPELINE_EPOCH)
            .key(&label)
            .finish();
        PrepareKeys {
            blast,
            label,
            featurize,
        }
    }
}

/// Key of one optimization candidate flow: the prepared design plus the
/// criticality scores driving `group_path`/`retime`. Clock, per-design seed
/// and base effort are functions of the preparation, so `prepare_key`
/// already covers them.
pub fn opt_flow_key(prepare_key: &ContentHash, scores: &[f64]) -> ContentHash {
    let mut b = KeyBuilder::new("rtlt.optflow")
        .u64(PIPELINE_EPOCH)
        .key(prepare_key);
    let mut e = Enc::new();
    for &s in scores {
        e.f64(s);
    }
    b = b.bytes(&e.into_bytes());
    b.finish()
}

/// Key of a fitted [`RtlTimer`]: the sorted content keys of the training
/// preparations plus the only [`TimerConfig`] field `fit` reads (`seed` —
/// `synth_effort` is already inside every `prepare_key`, and `threads`
/// never keys anything).
pub fn model_key(train: &[&DesignData], cfg: &TimerConfig) -> ContentHash {
    let mut keys: Vec<ContentHash> = train.iter().map(|d| d.prepare_key).collect();
    keys.sort_by_key(|k| k.to_hex());
    let mut b = KeyBuilder::new("rtlt.model")
        .u64(PIPELINE_EPOCH)
        .u64(cfg.seed);
    for k in &keys {
        b = b.key(k);
    }
    b.finish()
}

/// The fitted model stack. Only tree-based stacks exist ([`RtlTimer::fit`]
/// always fits the GBDT family); the [`BitwiseModel`] codec rejects the
/// ablation-only MLP/transformer variants, and a stack without one
/// bit-wise model per representation is rejected too.
impl Codec for RtlTimer {
    fn encode(&self, e: &mut Enc) {
        self.bitwise.encode(e);
        self.ensemble.encode(e);
        self.signal.encode(e);
        self.design_timing.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let bitwise = Vec::<BitwiseModel>::decode(d)?;
        if bitwise.len() != BogVariant::ALL.len() {
            return Err(CodecError::new("RtlTimer bit-wise model count"));
        }
        Ok(RtlTimer::from_parts(
            bitwise,
            crate::ensemble::EnsembleModel::decode(d)?,
            crate::signal::SignalModels::decode(d)?,
            crate::design::DesignTimingModel::decode(d)?,
        ))
    }
}

impl Codec for BlastedDesign {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.name);
        e.str(&self.source);
        self.ast_feats.encode(e);
        e.seq_len(self.module_keys.len());
        for (name, key) in &self.module_keys {
            e.str(name);
            key.encode(e);
        }
        self.provenance.encode(e);
        self.sog.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let blasted = BlastedDesign {
            name: d.str()?,
            source: d.str()?,
            ast_feats: Vec::decode(d)?,
            module_keys: (0..d.seq_len(1)?)
                .map(|_| Ok((d.str()?, ContentHash::decode(d)?)))
                .collect::<Result<_, CodecError>>()?,
            provenance: Vec::decode(d)?,
            sog: Bog::decode(d)?,
        };
        if blasted.provenance.len() != blasted.sog.signals().len() {
            return Err(CodecError::new("BlastedDesign provenance per signal"));
        }
        Ok(blasted)
    }
}

impl Codec for LabelOutcome {
    fn encode(&self, e: &mut Enc) {
        self.endpoint_at.encode(e);
        e.f64(self.wns);
        e.f64(self.tns);
        e.f64(self.area);
        e.f64(self.power);
        e.f64(self.clock);
        e.f64(self.setup);
        e.u64(self.synth_seed);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(LabelOutcome {
            endpoint_at: Vec::decode(d)?,
            wns: d.f64()?,
            tns: d.f64()?,
            area: d.f64()?,
            power: d.f64()?,
            clock: d.f64()?,
            setup: d.f64()?,
            synth_seed: d.u64()?,
        })
    }
}

impl Codec for PathRow {
    fn encode(&self, e: &mut Enc) {
        self.features.encode(e);
        e.usize(self.endpoint);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(PathRow {
            features: Vec::decode(d)?,
            endpoint: d.usize()?,
        })
    }
}

impl Codec for VariantData {
    fn encode(&self, e: &mut Enc) {
        self.variant.encode(e);
        self.rows.encode(e);
        self.groups.encode(e);
        self.endpoint_sta_at.encode(e);
        self.driving_regs.encode(e);
        self.design_feats.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(VariantData {
            variant: BogVariant::decode(d)?,
            rows: Vec::decode(d)?,
            groups: Vec::decode(d)?,
            endpoint_sta_at: Vec::decode(d)?,
            driving_regs: Vec::decode(d)?,
            design_feats: Vec::decode(d)?,
        })
    }
}

impl Codec for DesignData {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.name);
        e.str(&self.source);
        self.sog.encode(e);
        self.variant_data.encode(e);
        self.labels_at.encode(e);
        e.f64(self.clock);
        e.f64(self.setup);
        e.f64(self.wns);
        e.f64(self.tns);
        e.f64(self.area);
        e.f64(self.power);
        self.ast_feats.encode(e);
        e.u64(self.synth_seed);
        e.f64(self.synth_effort);
        self.prepare_key.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let name: Arc<str> = Arc::decode(d)?;
        let source = d.str()?;
        let sog = Bog::decode(d)?;
        // Signal names are derivable from the SOG — recomputed instead of
        // stored, matching what featurization builds.
        Ok(DesignData {
            signal_names: crate::pipeline::signal_names_of(&sog),
            name,
            source,
            sog,
            variant_data: Vec::decode(d)?,
            labels_at: Arc::decode(d)?,
            clock: d.f64()?,
            setup: d.f64()?,
            wns: d.f64()?,
            tns: d.f64()?,
            area: d.f64()?,
            power: d.f64()?,
            ast_feats: Vec::decode(d)?,
            synth_seed: d.u64()?,
            synth_effort: d.f64()?,
            prepare_key: ContentHash::decode(d)?,
        })
    }
}

impl Codec for FlowMetrics {
    fn encode(&self, e: &mut Enc) {
        e.f64(self.wns);
        e.f64(self.tns);
        e.f64(self.power);
        e.f64(self.area);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(FlowMetrics {
            wns: d.f64()?,
            tns: d.f64()?,
            power: d.f64()?,
            area: d.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64, effort: f64, threads: usize) -> TimerConfig {
        TimerConfig {
            seed,
            synth_effort: effort,
            threads,
        }
    }

    #[test]
    fn keys_are_stable_for_identical_inputs() {
        let a = PrepareKeys::derive("m", "module m(); endmodule", &cfg(1, 0.6, 1));
        let b = PrepareKeys::derive("m", "module m(); endmodule", &cfg(1, 0.6, 1));
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_never_enters_a_key() {
        let a = PrepareKeys::derive("m", "src", &cfg(1, 0.6, 1));
        let b = PrepareKeys::derive("m", "src", &cfg(1, 0.6, 64));
        assert_eq!(a, b);
    }

    #[test]
    fn source_change_invalidates_every_stage() {
        let a = PrepareKeys::derive("m", "src", &cfg(1, 0.6, 1));
        let b = PrepareKeys::derive("m", "src2", &cfg(1, 0.6, 1));
        assert_ne!(a.blast, b.blast);
        assert_ne!(a.label, b.label);
        assert_ne!(a.featurize, b.featurize);
    }

    #[test]
    fn label_config_fields_invalidate_only_downstream_stages() {
        let base = PrepareKeys::derive("m", "src", &cfg(1, 0.6, 1));
        for other in [
            PrepareKeys::derive("m", "src", &cfg(2, 0.6, 1)),
            PrepareKeys::derive("m", "src", &cfg(1, 0.7, 1)),
        ] {
            assert_eq!(base.blast, other.blast);
            assert_ne!(base.label, other.label);
            assert_ne!(base.featurize, other.featurize);
        }
    }

    #[test]
    fn compile_key_ignores_modules_outside_the_top_cone() {
        let base = "module leaf(input a, output y); assign y = ~a; endmodule
module m(input clk, input a, output q);
  wire t;
  leaf u0 (.a(a), .y(t));
  reg r;
  always @(posedge clk) r <= t;
  assign q = r;
endmodule";
        let with_unused =
            format!("{base}\nmodule unused(input a, output y); assign y = a; endmodule");
        let c = cfg(1, 0.6, 1);
        let a = PrepareKeys::derive("m", base, &c);
        let b = PrepareKeys::derive("m", &with_unused, &c);
        assert_eq!(a.blast, b.blast, "unused module does not invalidate");
        assert_eq!(a.featurize, b.featurize);
        // Editing the instantiated leaf invalidates everything.
        let edited = base.replace("~a", "a");
        let e = PrepareKeys::derive("m", &edited, &c);
        assert_ne!(a.blast, e.blast);
    }

    #[test]
    fn opt_flow_key_tracks_scores_and_design() {
        let k1 = ContentHash::of_bytes(b"d1");
        let k2 = ContentHash::of_bytes(b"d2");
        let s = [1.0, 2.0, 3.0];
        assert_eq!(opt_flow_key(&k1, &s), opt_flow_key(&k1, &s));
        assert_ne!(opt_flow_key(&k1, &s), opt_flow_key(&k2, &s));
        assert_ne!(opt_flow_key(&k1, &s), opt_flow_key(&k1, &[1.0, 2.0, 3.5]));
    }

    #[test]
    fn flow_metrics_round_trip() {
        let m = FlowMetrics {
            wns: -0.25,
            tns: -10.5,
            power: 120.0,
            area: 88.25,
        };
        assert_eq!(FlowMetrics::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn a_stored_blast_carries_the_provenance_of_a_fresh_compile() {
        let source = rtlt_designgen::hier::soc("hier_soc", 4, 8, 3);
        let c = cfg(1, 0.6, 1);
        let stages = crate::PrepareStages::new(&c);
        let blasted = stages.blast(stages.compile("hier_soc", &source).unwrap());
        let dir = std::env::temp_dir().join(format!("rtlt-blast-codec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = PrepareKeys::derive("hier_soc", &source, &c).blast;
        rtlt_store::Store::on_disk(&dir).put(stage::BLAST, key, blasted.clone());
        // A fresh store decodes the entry from disk.
        let back = rtlt_store::Store::on_disk(&dir)
            .get::<BlastedDesign>(stage::BLAST, key)
            .expect("stored blast decodes");
        let _ = std::fs::remove_dir_all(&dir);

        let netlist = rtlt_verilog::compile(&source, "hier_soc").unwrap();
        let provenance = rtlt_bog::signal_provenance(&netlist);
        assert!(provenance.iter().any(|m| m.len() > 1), "hierarchical");
        assert_eq!(back.provenance, provenance);
        assert_eq!(back.provenance.len(), back.sog.signals().len());
        assert_eq!(
            (&back.name, &back.source, &back.module_keys),
            (&blasted.name, &blasted.source, &blasted.module_keys)
        );
        assert_eq!(back.ast_feats.to_bytes(), blasted.ast_feats.to_bytes());
        assert_eq!(back.sog.to_bytes(), blasted.sog.to_bytes());
    }
}
