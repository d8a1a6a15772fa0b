//! Gradient-boosted decision trees with pluggable objectives.

use crate::cells::SplitCells;
use crate::flat::{FlatForest, MAX_DEPTH, MAX_FEATURES};
use crate::matrix::FeatureMatrix;
use crate::tree::{Binner, Tree, TreeParams, TreeScratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Boosting hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Per-tree growth parameters.
    pub tree: TreeParams,
    /// Row subsample fraction per round.
    pub subsample: f64,
    /// Histogram bin budget.
    pub max_bins: usize,
    /// RNG seed for subsampling.
    pub seed: u64,
    /// Worker threads for the per-node feature scan (split decisions are
    /// bit-identical for any value).
    pub threads: usize,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_trees: 100,
            learning_rate: 0.1,
            tree: TreeParams::default(),
            subsample: 0.85,
            max_bins: 128,
            seed: 7,
            threads: 1,
        }
    }
}

/// A training objective: fills per-row gradients/hessians given current
/// predictions.
pub trait Objective {
    /// Computes `grad`/`hess` for the current `preds`.
    fn grad_hess(&self, preds: &[f64], grad: &mut [f64], hess: &mut [f64]);
    /// Initial bias (base score) for the ensemble.
    fn base_score(&self) -> f64;
}

/// Plain squared-error regression on per-row targets.
#[derive(Debug, Clone)]
pub struct SquaredObjective {
    /// Per-row targets.
    pub targets: Vec<f64>,
}

impl Objective for SquaredObjective {
    fn grad_hess(&self, preds: &[f64], grad: &mut [f64], hess: &mut [f64]) {
        for i in 0..preds.len() {
            grad[i] = preds[i] - self.targets[i];
            hess[i] = 1.0;
        }
    }

    fn base_score(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }
}

/// The paper's customized max-loss (Eq. 3): rows are grouped per endpoint,
/// the endpoint prediction is `max` over its rows (sampled paths), and the
/// squared-error (sub)gradient flows through the argmax row of each group.
#[derive(Debug, Clone)]
pub struct GroupedMaxObjective {
    /// Row indices per group (endpoint).
    pub groups: Vec<Vec<usize>>,
    /// One target per group.
    pub targets: Vec<f64>,
}

impl Objective for GroupedMaxObjective {
    fn grad_hess(&self, preds: &[f64], grad: &mut [f64], hess: &mut [f64]) {
        grad.iter_mut().for_each(|g| *g = 0.0);
        hess.iter_mut().for_each(|h| *h = 0.0);
        for (g, rows) in self.groups.iter().enumerate() {
            let Some(&first) = rows.first() else { continue };
            let mut argmax = first;
            let mut maxv = preds[first];
            for &r in &rows[1..] {
                if preds[r] > maxv {
                    maxv = preds[r];
                    argmax = r;
                }
            }
            grad[argmax] = maxv - self.targets[g];
            hess[argmax] = 1.0;
        }
    }

    fn base_score(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone)]
pub struct Gbdt {
    base: f64,
    learning_rate: f64,
    trees: Vec<Tree>,
    /// Arena inference kernel (and the feature width), derived from
    /// `trees` at fit/decode time — never persisted (the `model` namespace
    /// bytes are unchanged).
    flat: FlatForest,
    /// Split cells, derived from `trees` on first use (edit sessions
    /// only; fits and cold predicts never build them) — never persisted.
    cells: OnceLock<SplitCells>,
}

impl Gbdt {
    /// Trains on row-major features with the given objective.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, wider than [`MAX_FEATURES`] columns, or
    /// if `params.tree.max_depth` is above [`MAX_DEPTH`] (the flat
    /// kernel's shape limits).
    pub fn fit(rows: &FeatureMatrix, objective: &dyn Objective, params: &GbdtParams) -> Gbdt {
        assert!(!rows.is_empty(), "GBDT needs data");
        let n_features = rows.n_cols();
        assert!(
            n_features <= MAX_FEATURES,
            "GBDT fits at most {MAX_FEATURES} feature columns, got {n_features}"
        );
        assert!(
            params.tree.max_depth <= MAX_DEPTH,
            "GBDT max_depth {} is above the limit of {MAX_DEPTH}",
            params.tree.max_depth
        );
        let n = rows.n_rows();
        let binner = Binner::fit(rows, params.max_bins);
        let codes = binner.codes(rows);
        let mut rng = StdRng::seed_from_u64(params.seed);

        let base = objective.base_score();
        let mut preds = vec![base; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        let all: Vec<usize> = (0..n).collect();
        let mut scratch = TreeScratch::for_binner(&binner);

        for _round in 0..params.n_trees {
            objective.grad_hess(&preds, &mut grad, &mut hess);
            let sample: Vec<usize> = if params.subsample >= 1.0 {
                all.clone()
            } else {
                let k = ((n as f64) * params.subsample).ceil() as usize;
                let mut s = all.clone();
                s.shuffle(&mut rng);
                s.truncate(k.max(1));
                s
            };
            let tree = Tree::fit_with(
                &binner,
                &codes,
                &grad,
                &hess,
                &sample,
                &params.tree,
                &mut scratch,
                params.threads.max(1),
            );
            for i in 0..n {
                preds[i] += params.learning_rate * tree.predict_binned(&codes, i, n_features);
            }
            trees.push(tree);
        }
        let flat = FlatForest::from_trees(&trees, n_features, base, params.learning_rate)
            .expect("a forest fitted within the asserted limits");
        Gbdt {
            base,
            learning_rate: params.learning_rate,
            trees,
            flat,
            cells: OnceLock::new(),
        }
    }

    /// Predicts a single raw feature row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from training.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.flat.predict_row(row)
    }

    /// Batch prediction into a caller-owned buffer (cleared first) via the
    /// flat arena kernel.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty batch's width differs from training.
    pub fn predict_into(&self, rows: &FeatureMatrix, out: &mut Vec<f64>) {
        self.flat.predict_into(rows, out);
    }

    /// Batch prediction.
    ///
    /// # Panics
    ///
    /// As [`Gbdt::predict_into`].
    pub fn predict_all(&self, rows: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(rows, &mut out);
        out
    }

    /// The forest's split cells (built on the first call): rows whose
    /// cells agree on every feature predict the same bits.
    pub fn cells(&self) -> &SplitCells {
        self.cells
            .get_or_init(|| SplitCells::of(&self.trees, self.flat.n_features()))
    }

    /// Split counts per feature (simple importance metric).
    pub fn feature_importance(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.flat.n_features()];
        for t in &self.trees {
            for f in t.split_features() {
                counts[f] += 1;
            }
        }
        counts
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Inference needs only raw split thresholds (the training-time binner is
/// deliberately not persisted), so a decoded ensemble predicts identically
/// to the fitted one. Decode rejects a forest outside the flat kernel's
/// shape limits (a split on a feature the ensemble does not have, more
/// than 32 features, a tree over 255 nodes) in the pass that builds its
/// arenas, and the tree codec rejects malformed node arenas, so a corrupt
/// entry is recomputed instead of panicking in predict.
impl rtlt_store::Codec for Gbdt {
    fn encode(&self, e: &mut rtlt_store::Enc) {
        e.f64(self.base);
        e.f64(self.learning_rate);
        self.trees.encode(e);
        e.usize(self.flat.n_features());
    }
    fn decode(d: &mut rtlt_store::Dec<'_>) -> Result<Self, rtlt_store::CodecError> {
        let base = d.f64()?;
        let learning_rate = d.f64()?;
        let trees: Vec<Tree> = Vec::decode(d)?;
        let n_features = d.usize()?;
        let flat = FlatForest::from_trees(&trees, n_features, base, learning_rate)
            .map_err(rtlt_store::CodecError::new)?;
        Ok(Gbdt {
            base,
            learning_rate,
            trees,
            flat,
            cells: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Union;
    use rand::Rng;

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for (x, y) in a.iter().zip(b) {
            num += (x - ma) * (y - mb);
            da += (x - ma).powi(2);
            db += (y - mb).powi(2);
        }
        num / (da.sqrt() * db.sqrt()).max(1e-12)
    }

    #[test]
    fn regression_learns_nonlinear_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|_| {
                vec![
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(0.0..1.0),
                ]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r[0] * r[0] + 2.0 * (r[1] > 0.5) as i32 as f64)
            .collect();
        let rows = FeatureMatrix::from_rows(&rows);
        let model = Gbdt::fit(
            &rows,
            &SquaredObjective { targets: y.clone() },
            &GbdtParams::default(),
        );
        let preds = model.predict_all(&rows);
        assert!(pearson(&preds, &y) > 0.97);
    }

    #[test]
    fn generalizes_to_heldout_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let gen_row = |rng: &mut StdRng| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
        let f = |r: &[f64]| 3.0 * r[0] - 2.0 * r[1] + (r[0] * r[1]).sin();
        let train: Vec<Vec<f64>> = (0..800).map(|_| gen_row(&mut rng)).collect();
        let ytrain: Vec<f64> = train.iter().map(|r| f(r)).collect();
        let test: Vec<Vec<f64>> = (0..200).map(|_| gen_row(&mut rng)).collect();
        let ytest: Vec<f64> = test.iter().map(|r| f(r)).collect();
        let model = Gbdt::fit(
            &FeatureMatrix::from_rows(&train),
            &SquaredObjective { targets: ytrain },
            &GbdtParams::default(),
        );
        let preds = model.predict_all(&FeatureMatrix::from_rows(&test));
        assert!(pearson(&preds, &ytest) > 0.95);
    }

    #[test]
    fn grouped_max_recovers_group_targets() {
        // Each group has 4 rows; the target equals the max of a hidden
        // per-row function. The model must learn the per-row function well
        // enough that the per-group max matches the target.
        let mut rng = StdRng::seed_from_u64(3);
        let mut rows = Vec::new();
        let mut groups = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..300 {
            let mut g = Vec::new();
            let mut best = f64::MIN;
            for _ in 0..4 {
                let x = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
                let v = 2.0 * x[0] + x[1];
                best = best.max(v);
                g.push(rows.len());
                rows.push(x);
            }
            groups.push(g);
            targets.push(best);
        }
        let obj = GroupedMaxObjective {
            groups: groups.clone(),
            targets: targets.clone(),
        };
        let rows = FeatureMatrix::from_rows(&rows);
        let model = Gbdt::fit(&rows, &obj, &GbdtParams::default());
        let preds = model.predict_all(&rows);
        let group_preds: Vec<f64> = groups
            .iter()
            .map(|g| g.iter().map(|&r| preds[r]).fold(f64::MIN, f64::max))
            .collect();
        assert!(
            pearson(&group_preds, &targets) > 0.9,
            "R={}",
            pearson(&group_preds, &targets)
        );
    }

    #[test]
    fn codec_round_trip_predicts_identically() {
        use rtlt_store::Codec;
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 13) as f64, (i % 7) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 - r[1]).collect();
        let rows = FeatureMatrix::from_rows(&rows);
        let model = Gbdt::fit(
            &rows,
            &SquaredObjective { targets: y },
            &GbdtParams::default(),
        );
        let back = Gbdt::from_bytes(&model.to_bytes()).expect("round trip");
        assert_eq!(back.n_trees(), model.n_trees());
        for r in rows.rows() {
            assert_eq!(back.predict(r).to_bits(), model.predict(r).to_bits());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let rows = FeatureMatrix::from_rows(&rows);
        let m1 = Gbdt::fit(
            &rows,
            &SquaredObjective { targets: y.clone() },
            &GbdtParams::default(),
        );
        let m2 = Gbdt::fit(
            &rows,
            &SquaredObjective { targets: y },
            &GbdtParams::default(),
        );
        for r in rows.rows() {
            assert_eq!(m1.predict(r), m2.predict(r));
        }
    }

    #[test]
    fn feature_importance_flags_informative_feature() {
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 10.0 * r[1]).collect();
        let model = Gbdt::fit(
            &FeatureMatrix::from_rows(&rows),
            &SquaredObjective { targets: y },
            &GbdtParams::default(),
        );
        let imp = model.feature_importance();
        assert!(imp[1] > imp[0], "{imp:?}");
    }

    /// One node as the tree codec writes it, `bin` as its raw `u32`.
    enum RawNode {
        Leaf(f64),
        /// `(feature, threshold, bin, left, right)`.
        Split(usize, f64, u32, usize, usize),
    }

    /// The codec bytes of a forest over hand-made node arenas.
    fn forest_bytes(n_features: usize, trees: &[&[RawNode]]) -> Vec<u8> {
        let mut e = rtlt_store::Enc::new();
        e.f64(0.25);
        e.f64(0.5);
        e.seq_len(trees.len());
        for nodes in trees {
            e.seq_len(nodes.len());
            for node in *nodes {
                match *node {
                    RawNode::Leaf(value) => {
                        e.u8(0);
                        e.f64(value);
                    }
                    RawNode::Split(feature, threshold, bin, left, right) => {
                        e.u8(1);
                        e.usize(feature);
                        e.f64(threshold);
                        e.u32(bin);
                        e.usize(left);
                        e.usize(right);
                    }
                }
            }
        }
        e.usize(n_features);
        e.into_bytes()
    }

    const STUMP: &[RawNode] = &[
        RawNode::Split(1, 0.5, 3, 1, 2),
        RawNode::Leaf(-1.0),
        RawNode::Leaf(1.0),
    ];

    #[test]
    fn a_well_formed_hand_made_forest_decodes_and_predicts() {
        use rtlt_store::Codec;
        let model = Gbdt::from_bytes(&forest_bytes(2, &[STUMP])).expect("valid forest");
        assert_eq!(model.predict(&[9.0, 0.5]), 0.25 - 0.5);
        assert_eq!(model.predict(&[9.0, f64::NAN]), 0.25 + 0.5);
    }

    #[test]
    fn decode_rejects_an_empty_tree() {
        use rtlt_store::Codec;
        assert!(Gbdt::from_bytes(&forest_bytes(2, &[STUMP, &[]])).is_err());
    }

    #[test]
    fn decode_rejects_a_child_out_of_order_or_range() {
        use rtlt_store::Codec;
        for (left, right) in [(1, 3), (1, 0), (0, 2), (1, usize::MAX)] {
            let tree = [
                RawNode::Split(0, 0.5, 3, left, right),
                RawNode::Leaf(-1.0),
                RawNode::Leaf(1.0),
            ];
            let bytes = forest_bytes(2, &[&tree]);
            assert!(
                Gbdt::from_bytes(&bytes).is_err(),
                "children {left}, {right}"
            );
        }
    }

    #[test]
    fn decode_rejects_a_split_on_a_missing_feature() {
        use rtlt_store::Codec;
        assert!(Gbdt::from_bytes(&forest_bytes(1, &[STUMP])).is_err());
    }

    #[test]
    fn decode_rejects_a_bin_above_u16() {
        use rtlt_store::Codec;
        let tree = [
            RawNode::Split(0, 0.5, u16::MAX as u32 + 1, 1, 2),
            RawNode::Leaf(-1.0),
            RawNode::Leaf(1.0),
        ];
        assert!(Gbdt::from_bytes(&forest_bytes(2, &[&tree])).is_err());
    }

    /// A chain of `splits` splits on feature 0, each with a leaf on the
    /// left: `2 · splits + 1` nodes.
    fn chain(splits: usize) -> Vec<RawNode> {
        let mut nodes = Vec::new();
        for k in 0..splits {
            nodes.push(RawNode::Split(0, k as f64, 0, 2 * k + 1, 2 * k + 2));
            nodes.push(RawNode::Leaf(k as f64));
        }
        nodes.push(RawNode::Leaf(-1.0));
        nodes
    }

    #[test]
    fn decode_rejects_a_tree_over_255_nodes() {
        use rtlt_store::Codec;
        let fits = Gbdt::from_bytes(&forest_bytes(1, &[&chain(127)])).expect("255 nodes");
        assert_eq!(fits.predict(&[200.0]), 0.25 - 0.5);
        assert!(Gbdt::from_bytes(&forest_bytes(1, &[STUMP, &chain(128)])).is_err());
    }

    #[test]
    fn decode_rejects_a_split_on_feature_32() {
        use rtlt_store::Codec;
        let on = |feature| {
            [
                RawNode::Split(feature, 0.5, 3, 1, 2),
                RawNode::Leaf(-1.0),
                RawNode::Leaf(1.0),
            ]
        };
        assert!(Gbdt::from_bytes(&forest_bytes(32, &[&on(31)])).is_ok());
        assert!(Gbdt::from_bytes(&forest_bytes(33, &[&on(32)])).is_err());
        assert!(Gbdt::from_bytes(&forest_bytes(33, &[&on(0)])).is_err());
    }

    fn tiny(n_cols: usize, max_depth: usize) -> Gbdt {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| (0..n_cols).map(|c| ((i * (c + 3)) % 11) as f64).collect())
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let mut params = GbdtParams {
            n_trees: 2,
            ..GbdtParams::default()
        };
        params.tree.max_depth = max_depth;
        Gbdt::fit(
            &FeatureMatrix::from_rows(&rows),
            &SquaredObjective { targets: y },
            &params,
        )
    }

    #[test]
    #[should_panic(expected = "max_depth 8 is above the limit of 7")]
    fn fit_refuses_a_depth_above_seven() {
        tiny(2, 8);
    }

    #[test]
    #[should_panic(expected = "at most 32 feature columns, got 33")]
    fn fit_refuses_more_than_32_columns() {
        tiny(33, 3);
    }

    #[test]
    fn fit_takes_the_limits_themselves() {
        assert_eq!(tiny(32, 7).n_trees(), 2);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn a_narrower_batch_panics() {
        let model = tiny(3, 3);
        let narrow = FeatureMatrix::from_rows(&[vec![1.0, 2.0]]);
        model.predict_all(&narrow);
    }

    #[test]
    fn an_empty_batch_may_have_any_width() {
        assert!(tiny(3, 3).predict_all(&FeatureMatrix::new(5)).is_empty());
    }

    /// Training values on a coarse grid, so bin edges (= split thresholds)
    /// coincide with values the prediction rows reuse.
    fn grid() -> Union<f64> {
        prop_oneof![
            (-16i64..16).prop_map(|i| i as f64 * 0.25),
            Just(-0.0f64),
            -100.0f64..100.0,
        ]
    }

    /// Prediction-side values: the grid plus NaN, ±∞, ±0 and subnormals.
    fn adversarial() -> Union<f64> {
        prop_oneof![
            (-16i64..16).prop_map(|i| i as f64 * 0.25),
            Just(0.0f64),
            Just(-0.0f64),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            (1u64..(1 << 52)).prop_map(f64::from_bits),
            (1u64..(1 << 52)).prop_map(|m| -f64::from_bits(m)),
        ]
    }

    fn matrix_of(vals: &[f64], n_cols: usize) -> FeatureMatrix {
        let mut m = FeatureMatrix::new(n_cols);
        for row in vals.chunks_exact(n_cols) {
            m.push_row(row);
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `predict` and `predict_all` run the flat kernel; fitted through
        /// `Gbdt::fit` under either objective, both equal the scalar oracle
        /// base + Σ lr·`Tree::predict` bit for bit, on adversarial rows and
        /// on training rows reused verbatim (threshold-equal comparisons).
        #[test]
        fn fitted_model_predicts_like_the_scalar_walk(
            train_vals in proptest::collection::vec(grid(), 24..160),
            pred_vals in proptest::collection::vec(adversarial(), 0..256),
            n_cols in 1usize..4,
            grouped in 0usize..2,
            seed in 0u64..1024,
        ) {
            let train = matrix_of(&train_vals, n_cols);
            let y: Vec<f64> = train.rows().map(|r| r.iter().sum()).collect();
            let params = GbdtParams {
                n_trees: 8,
                max_bins: 16,
                seed,
                ..GbdtParams::default()
            };
            let model = if grouped == 1 {
                let groups: Vec<Vec<usize>> =
                    (0..y.len()).collect::<Vec<_>>().chunks(3).map(<[usize]>::to_vec).collect();
                let targets = groups
                    .iter()
                    .map(|g| g.iter().map(|&r| y[r]).fold(f64::MIN, f64::max))
                    .collect();
                Gbdt::fit(&train, &GroupedMaxObjective { groups, targets }, &params)
            } else {
                Gbdt::fit(&train, &SquaredObjective { targets: y }, &params)
            };

            let mut rows = matrix_of(&pred_vals, n_cols);
            for r in train.rows() {
                rows.push_row(r);
            }
            let batch = model.predict_all(&rows);
            prop_assert_eq!(batch.len(), rows.n_rows());
            for (row, got) in rows.rows().zip(&batch) {
                let want = model
                    .trees
                    .iter()
                    .fold(model.base, |acc, t| acc + model.learning_rate * t.predict(row));
                prop_assert_eq!(model.predict(row).to_bits(), want.to_bits());
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}
