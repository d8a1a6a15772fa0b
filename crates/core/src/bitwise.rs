//! Bit-wise endpoint arrival-time models (paper §3.4.1).
//!
//! All model families share the same interface: fit on path rows grouped by
//! endpoint, predict an endpoint as the **max** over its sampled paths
//! (Eq. 3). The `CritOnly` variants are the paper's "w/o sample" ablation —
//! they see only the pseudo-STA slowest path. The Transformer ablation
//! ([`TransformerAblation`]) reads token sequences, which path rows do not
//! carry, and takes them as a separate input.

use crate::dataset::{PathRow, TokenRow, VariantData};
use rtlt_ml::{
    FeatureMatrix, Gbdt, GbdtParams, GroupedMaxObjective, Mlp, MlpParams, PathSample,
    PathTransformer, Scaler, SquaredObjective, TransformerParams,
};

/// Model family for the bit-wise task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitModelKind {
    /// Gradient-boosted trees with the grouped max-loss (RTL-Timer's
    /// default).
    TreeMax,
    /// Trees trained on the slowest path only ("tree-based w/o sample").
    TreeCritOnly,
    /// MLP with grouped max-loss.
    MlpMax,
    /// MLP on the slowest path only ("MLP w/o sample").
    MlpCritOnly,
}

/// A fitted bit-wise model.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one model lives per representation; not worth boxing
pub enum BitwiseModel {
    /// Tree-based (max-loss or crit-only).
    Tree {
        /// The boosted ensemble.
        model: Gbdt,
        /// Whether only critical paths are used at inference.
        crit_only: bool,
    },
    /// MLP-based.
    Mlp {
        /// The network.
        model: Mlp,
        /// Feature standardizer.
        scaler: Scaler,
        /// Whether only critical paths are used at inference.
        crit_only: bool,
    },
}

/// Training corpus: per design, the variant data and per-endpoint labels.
pub struct BitwiseCorpus<'a> {
    /// `(paths of one design, arrival labels per endpoint)`.
    pub designs: Vec<(&'a VariantData, &'a [f64])>,
}

/// Flattened corpus: `(rows, per-endpoint row groups, targets, critical
/// row indices)`.
type FlatCorpus = (FeatureMatrix, Vec<Vec<usize>>, Vec<f64>, Vec<usize>);

impl<'a> BitwiseCorpus<'a> {
    /// Flattens rows/groups/targets across designs (skipping endpoints with
    /// non-finite labels, e.g. retimed-away registers).
    fn flatten(&self) -> FlatCorpus {
        let nf = self
            .designs
            .iter()
            .find_map(|(d, _)| d.rows.first())
            .map_or(0, |r| r.features.len());
        let mut rows = FeatureMatrix::new(nf);
        let mut groups = Vec::new();
        let mut targets = Vec::new();
        let mut crit_rows = Vec::new(); // first row of each group
        for (data, labels) in &self.designs {
            for (e, group) in data.groups.iter().enumerate() {
                let y = labels[e];
                if !y.is_finite() || group.is_empty() {
                    continue;
                }
                let mut g = Vec::with_capacity(group.len());
                for &r in group {
                    g.push(rows.n_rows());
                    rows.push_row(&data.rows[r].features);
                }
                crit_rows.push(g[0]);
                groups.push(g);
                targets.push(y);
            }
        }
        (rows, groups, targets, crit_rows)
    }
}

/// Gathers a subset of `rows` (by index, in order) into a fresh matrix.
fn gather(rows: &FeatureMatrix, idx: &[usize]) -> FeatureMatrix {
    let mut out = FeatureMatrix::with_capacity(rows.n_cols(), idx.len());
    for &r in idx {
        out.push_row(rows.row(r));
    }
    out
}

/// Default GBDT hyper-parameters for the bit-wise task (paper: 100 trees;
/// depth scaled down to our dataset sizes).
pub fn bitwise_gbdt_params(seed: u64) -> GbdtParams {
    let mut p = GbdtParams::default();
    p.n_trees = 120;
    p.learning_rate = 0.08;
    p.tree.max_depth = 7;
    p.seed = seed;
    p
}

impl BitwiseModel {
    /// Trains a bit-wise model of the requested kind.
    pub fn fit(kind: BitModelKind, corpus: &BitwiseCorpus<'_>, seed: u64) -> BitwiseModel {
        let (rows, groups, targets, crit_rows) = corpus.flatten();
        match kind {
            BitModelKind::TreeMax => {
                let obj = GroupedMaxObjective { groups, targets };
                let model = Gbdt::fit(&rows, &obj, &bitwise_gbdt_params(seed));
                BitwiseModel::Tree {
                    model,
                    crit_only: false,
                }
            }
            BitModelKind::TreeCritOnly => {
                let crit_feat = gather(&rows, &crit_rows);
                let obj = SquaredObjective { targets };
                let model = Gbdt::fit(&crit_feat, &obj, &bitwise_gbdt_params(seed));
                BitwiseModel::Tree {
                    model,
                    crit_only: true,
                }
            }
            BitModelKind::MlpMax | BitModelKind::MlpCritOnly => {
                let crit_only = kind == BitModelKind::MlpCritOnly;
                let scaler = Scaler::fit(&rows);
                let mut scaled = rows.clone();
                scaler.transform_all(&mut scaled);
                let mut model = Mlp::new(
                    scaled.n_cols(),
                    MlpParams {
                        hidden: vec![64, 64, 64],
                        epochs: 40,
                        seed,
                        ..Default::default()
                    },
                );
                if crit_only {
                    let crit_feat = gather(&scaled, &crit_rows);
                    model.fit_regression(&crit_feat, &targets);
                } else {
                    model.fit_grouped_max(&scaled, &groups, &targets);
                }
                BitwiseModel::Mlp {
                    model,
                    scaler,
                    crit_only,
                }
            }
        }
    }

    /// The boosted ensemble of a tree model, and whether it reads only
    /// each group's critical row; `None` for the other families.
    pub(crate) fn forest(&self) -> Option<(&Gbdt, bool)> {
        match self {
            BitwiseModel::Tree { model, crit_only } => Some((model, *crit_only)),
            BitwiseModel::Mlp { .. } => None,
        }
    }

    /// Predicts per-endpoint arrival times for one design (max over its
    /// sampled paths; `CritOnly` models use the slowest path only).
    pub fn predict_endpoints(&self, data: &VariantData) -> Vec<f64> {
        let mut scratch = FeatureMatrix::default();
        let mut preds = Vec::new();
        self.predict_endpoints_with(data, &mut scratch, &mut preds)
    }

    /// [`predict_endpoints`](Self::predict_endpoints) with caller-owned
    /// scratch buffers, so per-design prediction loops reuse one feature
    /// matrix and one prediction vector. Tree/MLP variants batch all of a
    /// design's path rows through one kernel call (identical values and
    /// fold order as the per-row walk).
    pub fn predict_endpoints_with(
        &self,
        data: &VariantData,
        scratch: &mut FeatureMatrix,
        preds: &mut Vec<f64>,
    ) -> Vec<f64> {
        let nf = data.rows.first().map_or(0, |r| r.features.len());
        let crit_only = match self {
            BitwiseModel::Tree { crit_only, .. } | BitwiseModel::Mlp { crit_only, .. } => {
                *crit_only
            }
        };
        // Gather the rows each group reads, in group traversal order.
        scratch.reset(nf);
        for group in &data.groups {
            if crit_only {
                if let Some(&r0) = group.first() {
                    scratch.push_row(&data.rows[r0].features);
                }
            } else {
                for &r in group {
                    scratch.push_row(&data.rows[r].features);
                }
            }
        }
        match self {
            BitwiseModel::Tree { model, .. } => model.predict_into(scratch, preds),
            BitwiseModel::Mlp { model, scaler, .. } => {
                scaler.transform_all(scratch);
                *preds = model.predict_all(scratch);
            }
        }
        // Reduce back to one value per group (empty groups stay 0.0).
        let mut off = 0usize;
        data.groups
            .iter()
            .map(|group| {
                if group.is_empty() {
                    return 0.0;
                }
                let take = if crit_only { 1 } else { group.len() };
                let v = preds[off..off + take]
                    .iter()
                    .cloned()
                    .fold(f64::MIN, f64::max);
                off += take;
                v
            })
            .collect()
    }
}

/// Persistence for the production (tree-based) model family. The MLP
/// variants exist only for the Table-4 ablations and are never part of a
/// fitted [`crate::pipeline::RtlTimer`]; encoding one is a logic error.
impl rtlt_store::Codec for BitwiseModel {
    fn encode(&self, e: &mut rtlt_store::Enc) {
        match self {
            BitwiseModel::Tree { model, crit_only } => {
                e.u8(0);
                e.bool(*crit_only);
                model.encode(e);
            }
            BitwiseModel::Mlp { .. } => {
                unreachable!("only tree-based bitwise models are persisted")
            }
        }
    }
    fn decode(d: &mut rtlt_store::Dec<'_>) -> Result<Self, rtlt_store::CodecError> {
        match d.u8()? {
            0 => Ok(BitwiseModel::Tree {
                crit_only: d.bool()?,
                model: Gbdt::decode(d)?,
            }),
            _ => Err(rtlt_store::CodecError::new("BitwiseModel tag")),
        }
    }
}

/// The Transformer ablation of Table 4: a [`PathTransformer`] over each
/// SOG path's operator tokens, with the design and cone features of its row
/// as globals, fit with the max-loss over each endpoint's sampled paths.
/// Its tokens come from [`crate::dataset::token_rows`], one [`TokenRow`]
/// per row of the design's SOG data.
#[derive(Debug)]
pub struct TransformerAblation {
    model: PathTransformer,
}

impl TransformerAblation {
    /// Fits on `corpus`, whose `i`-th design's rows have the token
    /// sequences `tokens[i]`.
    pub fn fit(
        corpus: &BitwiseCorpus<'_>,
        tokens: &[&[TokenRow]],
        seed: u64,
    ) -> TransformerAblation {
        assert_eq!(
            corpus.designs.len(),
            tokens.len(),
            "one token list per design"
        );
        // Sequence training is the costliest model; cap the corpus by
        // endpoint striding (deterministic) to keep the ablation
        // tractable, as one would subsample for a slow baseline.
        const MAX_GROUPS: usize = 6000;
        let total_groups: usize = corpus.designs.iter().map(|(d, _)| d.groups.len()).sum();
        let stride = (total_groups / MAX_GROUPS).max(1);
        let mut samples = Vec::new();
        let mut tf_groups: Vec<Vec<usize>> = Vec::new();
        let mut tf_targets = Vec::new();
        let mut counter = 0usize;
        for ((data, labels), toks) in corpus.designs.iter().zip(tokens) {
            for (e, group) in data.groups.iter().enumerate() {
                counter += 1;
                if (counter - 1) % stride != 0 {
                    continue;
                }
                let y = labels[e];
                if !y.is_finite() || group.is_empty() {
                    continue;
                }
                let mut g = Vec::new();
                for &r in group {
                    g.push(samples.len());
                    samples.push(path_sample(&data.rows[r], &toks[r]));
                }
                tf_groups.push(g);
                tf_targets.push(y);
            }
        }
        let mut model = PathTransformer::new(
            crate::features::N_OP_CLASSES,
            crate::features::N_TOKEN_FEATURES,
            7, // design + cone features as globals
            TransformerParams {
                epochs: 10,
                seed,
                ..Default::default()
            },
        );
        model.fit_grouped_max(&samples, &tf_groups, &tf_targets);
        TransformerAblation { model }
    }

    /// Predicts per-endpoint arrival times for one design whose rows have
    /// the token sequences `tokens` (max over its sampled paths).
    pub fn predict_endpoints(&self, data: &VariantData, tokens: &[TokenRow]) -> Vec<f64> {
        data.groups
            .iter()
            .map(|group| {
                if group.is_empty() {
                    return 0.0;
                }
                group
                    .iter()
                    .map(|&r| self.model.predict(&path_sample(&data.rows[r], &tokens[r])))
                    .fold(f64::MIN, f64::max)
            })
            .collect()
    }
}

fn path_sample(row: &PathRow, tokens: &TokenRow) -> PathSample {
    PathSample {
        ops: tokens.ops.clone(),
        tok_feats: tokens.tok_feats.clone(),
        global: row.features[..7].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_all_variant_data, FeaturizeScratch};
    use crate::metrics::pearson;
    use rtlt_bog::blast;
    use rtlt_liberty::Library;
    use rtlt_verilog::compile;

    fn variant_and_labels() -> (VariantData, Vec<f64>) {
        let bog = blast(
            &compile(
                "module m(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
                   reg [15:0] r;
                   reg [15:0] s;
                   always @(posedge clk) begin
                     r <= a + b;
                     s <= s + (r * a[7:0]);
                   end
                   assign q = s;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let lib = Library::pseudo_bog();
        let data =
            build_all_variant_data(&bog, &lib, 1.0, 3, &mut FeaturizeScratch::new()).swap_remove(0);
        // Synthetic labels: a monotone transform of the pseudo-STA arrival
        // (learnable from path features).
        let labels: Vec<f64> = data
            .endpoint_sta_at
            .iter()
            .map(|a| 0.5 * a + 0.05 * a * a)
            .collect();
        (data, labels)
    }

    #[test]
    fn tree_max_beats_random_on_self_fit() {
        let (data, labels) = variant_and_labels();
        let corpus = BitwiseCorpus {
            designs: vec![(&data, &labels)],
        };
        let model = BitwiseModel::fit(BitModelKind::TreeMax, &corpus, 1);
        let preds = model.predict_endpoints(&data);
        assert!(pearson(&preds, &labels) > 0.9);
    }

    #[test]
    fn crit_only_uses_single_path() {
        let (data, labels) = variant_and_labels();
        let corpus = BitwiseCorpus {
            designs: vec![(&data, &labels)],
        };
        let model = BitwiseModel::fit(BitModelKind::TreeCritOnly, &corpus, 1);
        let preds = model.predict_endpoints(&data);
        assert_eq!(preds.len(), data.groups.len());
        assert!(pearson(&preds, &labels) > 0.8);
    }

    #[test]
    fn nan_labels_are_skipped() {
        let (data, mut labels) = variant_and_labels();
        labels[0] = f64::NAN;
        let corpus = BitwiseCorpus {
            designs: vec![(&data, &labels)],
        };
        let model = BitwiseModel::fit(BitModelKind::TreeMax, &corpus, 1);
        let preds = model.predict_endpoints(&data);
        assert!(preds.iter().all(|p| p.is_finite()));
    }
}
