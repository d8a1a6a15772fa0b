//! Signal-wise endpoint modeling (paper §3.4.2): aggregate bit predictions
//! to RTL signals (max over bits), then a tree regressor for the signal max
//! arrival time and a LambdaMART ranker for the criticality ordering.

use rtlt_bog::SignalInfo;
use rtlt_ml::{FeatureMatrix, Gbdt, GbdtParams, LambdaMart, LtrParams, SquaredObjective};

/// Names of the per-signal features.
pub const SIGNAL_FEATURE_NAMES: [&str; 10] = [
    "bit_pred_max",
    "bit_pred_mean",
    "bit_pred_std",
    "bit_sta_max",
    "log_width",
    "rank_pct",
    "log_seq_cells",
    "log_comb_cells",
    "log_total_cells",
    "max_level",
];

/// Builds per-signal feature rows from bit-level predictions.
///
/// `bit_pred`/`bit_sta` are indexed by register-endpoint (bit) index;
/// `signals` define the bit → signal mapping; `design_feats` are appended to
/// every row.
pub fn signal_rows(
    bit_pred: &[f64],
    bit_sta: &[f64],
    signals: &[SignalInfo],
    design_feats: &[f64],
) -> FeatureMatrix {
    let mut out = FeatureMatrix::new(SIGNAL_FEATURE_NAMES.len());
    signal_rows_into(bit_pred, bit_sta, signals, design_feats, &mut out);
    out
}

/// [`signal_rows`] into a caller-owned scratch matrix (cleared first).
pub fn signal_rows_into(
    bit_pred: &[f64],
    bit_sta: &[f64],
    signals: &[SignalInfo],
    design_feats: &[f64],
    out: &mut FeatureMatrix,
) {
    out.reset(SIGNAL_FEATURE_NAMES.len());
    // Signal-level rank percentile by predicted max.
    let maxes: Vec<f64> = signals
        .iter()
        .map(|s| {
            s.regs
                .iter()
                .map(|&b| bit_pred[b as usize])
                .fold(f64::MIN, f64::max)
        })
        .collect();
    let n = maxes.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| maxes[a].partial_cmp(&maxes[b]).expect("finite"));
    let mut rank_pct = vec![0.5; n];
    for (rank, &i) in order.iter().enumerate() {
        if n > 1 {
            rank_pct[i] = rank as f64 / (n - 1) as f64;
        }
    }

    let mut row = Vec::with_capacity(SIGNAL_FEATURE_NAMES.len());
    for (i, s) in signals.iter().enumerate() {
        let preds: Vec<f64> = s.regs.iter().map(|&b| bit_pred[b as usize]).collect();
        let stas: Vec<f64> = s.regs.iter().map(|&b| bit_sta[b as usize]).collect();
        let mean = preds.iter().sum::<f64>() / preds.len().max(1) as f64;
        let std = (preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>()
            / preds.len().max(1) as f64)
            .sqrt();
        row.clear();
        row.extend([
            maxes[i],
            mean,
            std,
            stas.iter().cloned().fold(f64::MIN, f64::max),
            (s.width as f64).ln_1p(),
            rank_pct[i],
        ]);
        row.extend(design_feats.iter().copied());
        out.push_row(&row);
    }
}

/// Signal-level labels: max over the signal's bit labels. Signals whose
/// bits are all unlabeled yield `NaN`.
pub fn signal_labels(bit_labels: &[f64], signals: &[SignalInfo]) -> Vec<f64> {
    signals
        .iter()
        .map(|s| {
            let vals: Vec<f64> = s
                .regs
                .iter()
                .map(|&b| bit_labels[b as usize])
                .filter(|v| v.is_finite())
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.into_iter().fold(f64::MIN, f64::max)
            }
        })
        .collect()
}

/// Fitted signal-level models: regression + learning-to-rank.
#[derive(Debug)]
pub struct SignalModels {
    regression: Gbdt,
    ranking: LambdaMart,
}

impl SignalModels {
    /// Fits both models. `per_design` holds `(signal rows, signal labels)`
    /// for each training design; each design is one LTR query. Relevance
    /// uses 8 label-rank octiles (finer than the paper's 4 reporting
    /// groups) so near-boundary pairs still carry ranking gradient.
    pub fn fit(per_design: &[(FeatureMatrix, Vec<f64>)], seed: u64) -> SignalModels {
        let cols = per_design
            .first()
            .map_or(SIGNAL_FEATURE_NAMES.len(), |(m, _)| m.n_cols());
        let mut rows = FeatureMatrix::new(cols);
        let mut targets = Vec::new();
        let mut queries = Vec::new();
        let mut relevance = Vec::new();
        for (drows, dlabels) in per_design {
            // Filter unlabeled signals.
            let valid: Vec<usize> = (0..drows.n_rows())
                .filter(|&i| dlabels[i].is_finite())
                .collect();
            if valid.is_empty() {
                continue;
            }
            let labels: Vec<f64> = valid.iter().map(|&i| dlabels[i]).collect();
            // Octile relevance: most critical octile → 7, least → 0.
            let n = labels.len();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| labels[b].partial_cmp(&labels[a]).expect("finite"));
            let mut octile = vec![0.0f64; n];
            for (rank, &i) in order.iter().enumerate() {
                octile[i] = 7.0 - ((rank * 8) / n.max(1)) as f64;
            }
            let mut q = Vec::with_capacity(valid.len());
            for (k, &i) in valid.iter().enumerate() {
                q.push(rows.n_rows());
                rows.push_row(drows.row(i));
                targets.push(labels[k]);
                relevance.push(octile[k]);
            }
            queries.push(q);
        }
        let mut params = GbdtParams::default();
        params.n_trees = 120;
        params.tree.max_depth = 5;
        params.seed = seed;
        let regression = Gbdt::fit(&rows, &SquaredObjective { targets }, &params);

        let mut ltr = LtrParams::default();
        ltr.gbdt.n_trees = 150;
        ltr.gbdt.learning_rate = 0.06;
        ltr.gbdt.tree.max_depth = 4;
        ltr.gbdt.seed = seed ^ 1;
        let ranking = LambdaMart::fit(&rows, &queries, &relevance, &ltr);
        SignalModels {
            regression,
            ranking,
        }
    }

    /// Predicts `(signal max arrival, ranking score)` per signal row.
    pub fn predict(&self, rows: &FeatureMatrix) -> (Vec<f64>, Vec<f64>) {
        (
            self.regression.predict_all(rows),
            self.ranking.score_all(rows),
        )
    }
}

impl rtlt_store::Codec for SignalModels {
    fn encode(&self, e: &mut rtlt_store::Enc) {
        self.regression.encode(e);
        self.ranking.encode(e);
    }
    fn decode(d: &mut rtlt_store::Dec<'_>) -> Result<Self, rtlt_store::CodecError> {
        Ok(SignalModels {
            regression: Gbdt::decode(d)?,
            ranking: LambdaMart::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_signals(widths: &[u32]) -> Vec<SignalInfo> {
        let mut signals = Vec::new();
        let mut bit = 0u32;
        for (i, &w) in widths.iter().enumerate() {
            signals.push(SignalInfo {
                name: format!("s{i}"),
                width: w,
                regs: (bit..bit + w).collect(),
                decl_line: i as u32 + 1,
                top_level: true,
            });
            bit += w;
        }
        signals
    }

    #[test]
    fn signal_labels_take_bit_max() {
        let signals = fake_signals(&[2, 3]);
        let bit_labels = [1.0, 5.0, 2.0, 9.0, 3.0];
        let labels = signal_labels(&bit_labels, &signals);
        assert_eq!(labels, vec![5.0, 9.0]);
    }

    #[test]
    fn nan_bits_are_ignored_in_labels() {
        let signals = fake_signals(&[2]);
        let labels = signal_labels(&[f64::NAN, 4.0], &signals);
        assert_eq!(labels, vec![4.0]);
        let all_nan = signal_labels(&[f64::NAN, f64::NAN], &signals);
        assert!(all_nan[0].is_nan());
    }

    #[test]
    fn rows_match_feature_names_and_stats() {
        let signals = fake_signals(&[2, 2]);
        let bit_pred = [1.0, 3.0, 2.0, 2.0];
        let bit_sta = [0.5, 0.6, 0.7, 0.8];
        let rows = signal_rows(&bit_pred, &bit_sta, &signals, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(rows.n_rows(), 2);
        assert_eq!(rows.n_cols(), SIGNAL_FEATURE_NAMES.len());
        assert_eq!(rows.row(0)[0], 3.0); // max
        assert_eq!(rows.row(0)[1], 2.0); // mean
        assert_eq!(rows.row(0)[3], 0.6); // sta max
    }

    #[test]
    fn models_learn_simple_mapping() {
        // Signals whose label is exactly bit_pred_max.
        let mut per_design = Vec::new();
        for d in 0..6 {
            let signals = fake_signals(&[2; 20]);
            let bit_pred: Vec<f64> = (0..40).map(|i| ((i * 7 + d * 13) % 23) as f64).collect();
            let bit_sta: Vec<f64> = bit_pred.iter().map(|v| v * 0.5).collect();
            let rows = signal_rows(&bit_pred, &bit_sta, &signals, &[0.0; 4]);
            let labels = signal_labels(&bit_pred, &signals);
            per_design.push((rows, labels));
        }
        let model = SignalModels::fit(&per_design, 5);
        let (reg, rank) = model.predict(&per_design[0].0);
        let labels = &per_design[0].1;
        assert!(crate::metrics::pearson(&reg, labels) > 0.95);
        // Ranking scores should order like labels (positive correlation).
        assert!(crate::metrics::pearson(&rank, labels) > 0.5);
    }
}
