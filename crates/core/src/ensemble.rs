//! Representation ensemble (paper §3.1/§3.3): combine the four per-variant
//! bit-wise predictions — "supplemented by statistics such as the maximum,
//! minimum, and average of these predictions" plus cone and design features
//! — through a tree-based meta-model.

use crate::dataset::VariantData;
use rtlt_ml::{FeatureMatrix, Gbdt, GbdtParams, SquaredObjective};

/// Names of the ensemble meta-features.
pub const META_FEATURE_NAMES: [&str; 15] = [
    "pred_sog",
    "pred_aig",
    "pred_aimg",
    "pred_xag",
    "pred_mean",
    "pred_min",
    "pred_max",
    "pred_std",
    "sog_sta_at",
    "rank_pct",
    "log_driving_regs",
    "log_seq_cells",
    "log_comb_cells",
    "log_total_cells",
    "max_level",
];

/// Builds per-endpoint meta-feature rows from the four variant predictions
/// (ordered SOG, AIG, AIMG, XAG) and the SOG dataset.
pub fn meta_rows(variant_preds: &[Vec<f64>], sog: &VariantData) -> FeatureMatrix {
    let mut out = FeatureMatrix::new(META_FEATURE_NAMES.len());
    meta_rows_into(variant_preds, sog, &mut out);
    out
}

/// [`meta_rows`] into a caller-owned scratch matrix (cleared first).
pub fn meta_rows_into(variant_preds: &[Vec<f64>], sog: &VariantData, out: &mut FeatureMatrix) {
    assert_eq!(variant_preds.len(), 4, "four representations expected");
    let n = sog.endpoint_sta_at.len();
    out.reset(META_FEATURE_NAMES.len());
    // Rank percentile of each endpoint by SOG pseudo-STA arrival.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        sog.endpoint_sta_at[a]
            .partial_cmp(&sog.endpoint_sta_at[b])
            .expect("finite")
    });
    let mut rank_pct = vec![0.0; n];
    for (rank, &i) in order.iter().enumerate() {
        rank_pct[i] = if n > 1 {
            rank as f64 / (n - 1) as f64
        } else {
            0.5
        };
    }
    let mut row = Vec::with_capacity(META_FEATURE_NAMES.len());
    for e in 0..n {
        row.clear();
        row.extend(variant_preds.iter().map(|v| v[e]));
        let ps = &row[..4];
        let mean = ps.iter().sum::<f64>() / ps.len() as f64;
        let min = ps.iter().cloned().fold(f64::MAX, f64::min);
        let max = ps.iter().cloned().fold(f64::MIN, f64::max);
        let std = (ps.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / ps.len() as f64).sqrt();
        row.push(mean);
        row.push(min);
        row.push(max);
        row.push(std);
        row.push(sog.endpoint_sta_at[e]);
        row.push(rank_pct[e]);
        row.push(sog.driving_regs[e].ln_1p());
        row.extend(sog.design_feats.iter().copied());
        out.push_row(&row);
    }
}

/// The fitted ensemble meta-model.
#[derive(Debug)]
pub struct EnsembleModel {
    meta: Gbdt,
}

impl EnsembleModel {
    /// Fits on meta rows pooled over training designs.
    pub fn fit(rows: &FeatureMatrix, labels: &[f64], seed: u64) -> EnsembleModel {
        let mut params = GbdtParams::default();
        params.n_trees = 150;
        params.learning_rate = 0.07;
        params.tree.max_depth = 6;
        params.seed = seed;
        let obj = SquaredObjective {
            targets: labels.to_vec(),
        };
        EnsembleModel {
            meta: Gbdt::fit(rows, &obj, &params),
        }
    }

    /// Predicts ensembled endpoint arrivals.
    pub fn predict(&self, rows: &FeatureMatrix) -> Vec<f64> {
        self.meta.predict_all(rows)
    }

    /// The boosted meta-model.
    pub(crate) fn forest(&self) -> &Gbdt {
        &self.meta
    }

    /// Split-count feature importance over
    /// [`META_FEATURE_NAMES`]-ordered features.
    pub fn feature_importance(&self) -> Vec<usize> {
        self.meta.feature_importance()
    }
}

impl rtlt_store::Codec for EnsembleModel {
    fn encode(&self, e: &mut rtlt_store::Enc) {
        self.meta.encode(e);
    }
    fn decode(d: &mut rtlt_store::Dec<'_>) -> Result<Self, rtlt_store::CodecError> {
        Ok(EnsembleModel {
            meta: Gbdt::decode(d)?,
        })
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

    #[test]
    fn meta_rows_shape_and_stats() {
        let bog = blast(
            &compile(
                "module m(input clk, input [7:0] a, output [7:0] q);
                   reg [7:0] r;
                   always @(posedge clk) r <= r + a;
                   assign q = r;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let lib = Library::pseudo_bog();
        let sog =
            build_all_variant_data(&bog, &lib, 1.0, 1, &mut FeaturizeScratch::new()).swap_remove(0);
        let n = sog.endpoint_sta_at.len();
        // Fake variant predictions.
        let preds: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..n).map(|e| e as f64 + k as f64).collect())
            .collect();
        let rows = meta_rows(&preds, &sog);
        assert_eq!(rows.n_rows(), n);
        assert_eq!(rows.n_cols(), META_FEATURE_NAMES.len());
        // mean/min/max consistency on first endpoint.
        let r0 = rows.row(0);
        assert!((r0[4] - (r0[0] + r0[1] + r0[2] + r0[3]) / 4.0).abs() < 1e-12);
        assert!(r0[5] <= r0[6]);
    }

    #[test]
    fn ensemble_fits_targets() {
        let bog = blast(
            &compile(
                "module m(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
                   reg [15:0] r;
                   always @(posedge clk) r <= a * b;
                   assign q = r;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let lib = Library::pseudo_bog();
        let variants = build_all_variant_data(&bog, &lib, 1.0, 2, &mut FeaturizeScratch::new());
        let n = variants[0].endpoint_sta_at.len();
        let labels: Vec<f64> = variants[0]
            .endpoint_sta_at
            .iter()
            .map(|a| a * 0.8 + 0.1)
            .collect();
        let preds: Vec<Vec<f64>> = variants.iter().map(|v| v.endpoint_sta_at.clone()).collect();
        let rows = meta_rows(&preds, &variants[0]);
        let model = EnsembleModel::fit(&rows, &labels, 1);
        let out = model.predict(&rows);
        assert_eq!(out.len(), n);
        assert!(pearson(&out, &labels) > 0.95);
    }
}
