//! Property tests of the flat arena inference kernel: [`FlatForest`] must
//! predict bit-identically to the scalar `Node`-walk over adversarial
//! feature values (signed zeros, denormals, infinities, NaNs, and values
//! exactly equal to split thresholds), and a decoded ensemble must
//! rebuild a flat kernel that predicts bit-identically to the fitted one.
//! The split cells an edit session codes rows with must be exact on the
//! same values: rows whose cells agree predict the same bits.

use proptest::prelude::*;
use proptest::strategy::Union;
use rtlt_ml::{
    Binner, FeatureMatrix, FlatForest, Gbdt, GbdtParams, GroupedMaxObjective, SplitCells,
    SquaredObjective, Tree, TreeParams,
};
use rtlt_store::{Codec, Enc};

/// Finite training features on a coarse grid plus a continuous band: the
/// grid guarantees repeated values, so bin edges (= split thresholds)
/// coincide with values the prediction rows below will also draw.
fn training_f64() -> Union<f64> {
    prop_oneof![
        (-16i64..16).prop_map(|i| i as f64 * 0.25),
        Just(0.0f64),
        Just(-0.0f64),
        -100.0f64..100.0,
    ]
}

/// Prediction-side features: everything the trained grid can collide with
/// (threshold-equal comparisons) plus the full adversarial zoo — the
/// kernel must route each of these through the same child as the scalar
/// walk, including NaN (`<=` is false, so NaN always falls right).
fn adversarial_f64() -> Union<f64> {
    prop_oneof![
        // Grid values: exactly equal to training values, hence to split
        // thresholds (thresholds are bin upper edges of training data).
        (-16i64..16).prop_map(|i| i as f64 * 0.25),
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        // NaNs with arbitrary payload bits (quiet and signaling patterns).
        (0u64..(1 << 52)).prop_map(|p| f64::from_bits(0x7FF0_0000_0000_0000 | p | 1)),
        (0u64..(1 << 52)).prop_map(|p| f64::from_bits(0xFFF0_0000_0000_0000 | p | 1)),
        // Denormals: exponent 0, nonzero mantissa.
        (1u64..(1 << 52)).prop_map(f64::from_bits),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
        Just(f64::MIN),
        // Fully arbitrary bit patterns.
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        -1e12f64..1e12,
    ]
}

/// Packs a flat value list into an `n_cols`-wide matrix, dropping the
/// ragged tail.
fn matrix_of(vals: &[f64], n_cols: usize) -> FeatureMatrix {
    let mut m = FeatureMatrix::new(n_cols);
    for row in vals.chunks_exact(n_cols) {
        m.push_row(row);
    }
    m
}

/// Grows a small hand-rolled boosted ensemble (squared error, unit
/// hessians) so the raw [`Tree`]s stay accessible for the scalar
/// reference walk.
fn boost(train: &FeatureMatrix, base: f64, lr: f64, rounds: usize) -> Vec<Tree> {
    let binner = Binner::fit(train, 16);
    let codes = binner.codes(train);
    let n = train.n_rows();
    let nf = train.n_cols();
    // Deterministic targets derived from the features themselves.
    let y: Vec<f64> = train.rows().map(|r| r.iter().sum::<f64>()).collect();
    let params = TreeParams {
        max_depth: 4,
        ..TreeParams::default()
    };
    let all: Vec<usize> = (0..n).collect();
    let mut preds = vec![base; n];
    let mut grad = vec![0.0; n];
    let hess = vec![1.0; n];
    let mut trees = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        for i in 0..n {
            grad[i] = preds[i] - y[i];
        }
        let tree = Tree::fit(&binner, &codes, &grad, &hess, &all, &params);
        for (i, p) in preds.iter_mut().enumerate() {
            *p += lr * tree.predict_binned(&codes, i, nf);
        }
        trees.push(tree);
    }
    trees
}

/// The scalar `Node`-walk reference: base, then trees in boosting order.
fn scalar_walk(trees: &[Tree], base: f64, lr: f64, row: &[f64]) -> f64 {
    let mut acc = base;
    for t in trees {
        acc += lr * t.predict(row);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `FlatForest::predict_row` and the blocked `predict_all` agree
    /// bit-for-bit with the scalar walk on adversarial inputs, including
    /// rows reused verbatim from training (threshold-equal values) and
    /// batches spanning multiple `ROW_BLOCK` blocks.
    #[test]
    fn flat_matches_scalar_walk_bit_exactly(
        train_vals in proptest::collection::vec(training_f64(), 24..160),
        pred_vals in proptest::collection::vec(adversarial_f64(), 0..384),
        n_cols in 1usize..4,
    ) {
        let train = matrix_of(&train_vals, n_cols);
        let (base, lr) = (0.125, 0.3);
        let trees = boost(&train, base, lr, 3);
        let flat = FlatForest::from_trees(&trees, n_cols, base, lr).expect("within the limits");
        prop_assert_eq!(flat.n_trees(), trees.len());

        // Adversarial rows plus every training row appended verbatim, so
        // split comparisons hit `value == threshold` exactly.
        let mut pm = matrix_of(&pred_vals, n_cols);
        for r in train.rows() {
            pm.push_row(r);
        }
        for row in pm.rows() {
            let want = scalar_walk(&trees, base, lr, row);
            prop_assert_eq!(flat.predict_row(row).to_bits(), want.to_bits());
        }
        let batch = flat.predict_all(&pm);
        prop_assert_eq!(batch.len(), pm.n_rows());
        for (i, row) in pm.rows().enumerate() {
            let want = scalar_walk(&trees, base, lr, row);
            prop_assert_eq!(batch[i].to_bits(), want.to_bits());
        }
    }

    /// Decode-then-flatten round trip: a `Gbdt` rebuilt from its stored
    /// bytes (which never contain the flat arrays) predicts bit-identically
    /// to the fitted model, per-row and batched.
    #[test]
    fn decoded_model_predicts_bit_exactly(
        train_vals in proptest::collection::vec(training_f64(), 24..120),
        pred_vals in proptest::collection::vec(adversarial_f64(), 0..256),
        n_cols in 1usize..4,
        seed in 0u64..1024,
    ) {
        let train = matrix_of(&train_vals, n_cols);
        let y: Vec<f64> = train.rows().map(|r| r.iter().sum::<f64>()).collect();
        let params = GbdtParams {
            n_trees: 8,
            max_bins: 16,
            seed,
            ..GbdtParams::default()
        };
        let model = Gbdt::fit(&train, &SquaredObjective { targets: y }, &params);
        let back = Gbdt::from_bytes(&model.to_bytes()).expect("decode");

        let mut pm = matrix_of(&pred_vals, n_cols);
        for r in train.rows() {
            pm.push_row(r);
        }
        let want = model.predict_all(&pm);
        let got = back.predict_all(&pm);
        prop_assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            prop_assert_eq!(w.to_bits(), g.to_bits());
        }
        for (i, row) in pm.rows().enumerate() {
            prop_assert_eq!(back.predict(row).to_bits(), want[i].to_bits());
        }
    }
}

/// A forest fitted through [`Gbdt::fit`] on `train`, under the grouped
/// max-loss (groups of three rows) or plain squared error.
fn fitted(train: &FeatureMatrix, grouped: bool, seed: u64) -> Gbdt {
    let y: Vec<f64> = train.rows().map(|r| r.iter().sum::<f64>()).collect();
    let params = GbdtParams {
        n_trees: 8,
        max_bins: 16,
        seed,
        ..GbdtParams::default()
    };
    if grouped {
        let groups: Vec<Vec<usize>> = (0..y.len())
            .collect::<Vec<_>>()
            .chunks(3)
            .map(<[usize]>::to_vec)
            .collect();
        let targets = groups
            .iter()
            .map(|g| g.iter().map(|&r| y[r]).fold(f64::MIN, f64::max))
            .collect();
        Gbdt::fit(train, &GroupedMaxObjective { groups, targets }, &params)
    } else {
        Gbdt::fit(train, &SquaredObjective { targets: y }, &params)
    }
}

/// Every threshold of every feature with its neighbours one bit pattern
/// away on either side (the closest values that can fall in another
/// cell).
fn threshold_neighbours(cells: &SplitCells) -> Vec<f64> {
    let mut out = Vec::new();
    for f in 0..cells.n_features() {
        for &t in cells.thresholds(f) {
            let bits = t.to_bits();
            out.extend([
                t,
                f64::from_bits(bits.wrapping_add(1)),
                f64::from_bits(bits.wrapping_sub(1)),
            ]);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pairs of rows that agree on every feature's cell but not on their
    /// values (NaN payloads, ±0, ±∞, subnormals, values on and one bit
    /// beside a threshold) predict the same bits, per row and batched.
    #[test]
    fn rows_with_equal_cells_predict_the_same_bits(
        train_vals in proptest::collection::vec(training_f64(), 24..120),
        row_vals in proptest::collection::vec(adversarial_f64(), 0..192),
        other_vals in proptest::collection::vec(adversarial_f64(), 0..96),
        n_cols in 1usize..4,
        grouped in 0usize..2,
        seed in 0u64..1024,
        pick in 0usize..4096,
    ) {
        let train = matrix_of(&train_vals, n_cols);
        let model = fitted(&train, grouped == 1, seed);
        let cells = model.cells();
        prop_assert_eq!(cells.n_features(), n_cols);
        let mut pool = other_vals.clone();
        pool.extend(threshold_neighbours(cells));
        pool.extend(train_vals.iter().copied());

        let xs = matrix_of(&row_vals, n_cols);
        let mut ys = FeatureMatrix::new(n_cols);
        for (i, x) in xs.rows().enumerate() {
            // Per feature, another value of the same cell when the pool
            // has one, scanned from a drawn offset.
            let y: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(f, &v)| {
                    let c = cells.cell(f, v);
                    let n = pool.len().max(1);
                    (0..pool.len())
                        .map(|k| pool[(pick + i * 7 + k) % n])
                        .find(|&w| cells.cell(f, w) == c && w.to_bits() != v.to_bits())
                        .unwrap_or(v)
                })
                .collect();
            prop_assert_eq!(model.predict(&y).to_bits(), model.predict(x).to_bits());
            ys.push_row(&y);
        }
        let (px, py) = (model.predict_all(&xs), model.predict_all(&ys));
        for (a, b) in px.iter().zip(&py) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Cells are monotone in the value, NaN takes the top cell, a value
    /// on `t_k` falls in cell `k`, and `v <= t_k` exactly when
    /// `cell(v) <= k` — the property the walk's routing rests on.
    #[test]
    fn cells_are_monotone_and_route_like_the_thresholds(
        train_vals in proptest::collection::vec(training_f64(), 24..120),
        probe_vals in proptest::collection::vec(adversarial_f64(), 0..128),
        n_cols in 1usize..4,
        grouped in 0usize..2,
        seed in 0u64..1024,
    ) {
        let train = matrix_of(&train_vals, n_cols);
        let model = fitted(&train, grouped == 1, seed);
        let cells = model.cells();
        let mut probes = probe_vals.clone();
        probes.extend(threshold_neighbours(cells));
        probes.extend([0.0, -0.0]);
        for f in 0..n_cols {
            let ts = cells.thresholds(f);
            prop_assert!(ts.iter().all(|t| !t.is_nan()));
            prop_assert!(ts.windows(2).all(|w| w[0] < w[1]), "ascending, deduplicated");
            prop_assert_eq!(cells.cell(f, f64::NAN) as usize, ts.len());
            prop_assert_eq!(cells.cell(f, 0.0), cells.cell(f, -0.0));
            for (k, &t) in ts.iter().enumerate() {
                prop_assert_eq!(cells.cell(f, t) as usize, k);
            }
            let mut sorted: Vec<f64> = probes.iter().copied().filter(|v| !v.is_nan()).collect();
            sorted.sort_by(f64::total_cmp);
            for w in sorted.windows(2) {
                prop_assert!(cells.cell(f, w[0]) <= cells.cell(f, w[1]), "{} {}", w[0], w[1]);
            }
            for &v in &probes {
                let c = cells.cell(f, v) as usize;
                for (k, &t) in ts.iter().enumerate() {
                    prop_assert!((v <= t) == (c <= k), "value {} threshold {}", v, t);
                }
            }
        }
    }
}

/// A decoded forest whose splits use a NaN threshold and duplicate `±0`
/// thresholds builds its cell table without panicking: the NaN threshold
/// is left out, the zeros collapse into one, and rows in one cell predict
/// the same bits.
#[test]
fn a_decoded_forest_with_nan_and_signed_zero_thresholds_builds_its_cells() {
    // Each tree: one split on feature 0 at `t`, leaves -1 / +1.
    let thresholds = [f64::NAN, -0.0, 0.0, 0.0, 1.0, -0.0];
    let mut e = Enc::new();
    e.f64(0.0);
    e.f64(1.0);
    e.seq_len(thresholds.len());
    for (i, &t) in thresholds.iter().enumerate() {
        e.seq_len(3);
        e.u8(1);
        e.usize(0);
        e.f64(t);
        e.u32(i as u32);
        e.usize(1);
        e.usize(2);
        for leaf in [-1.0, 1.0 + i as f64] {
            e.u8(0);
            e.f64(leaf);
        }
    }
    e.usize(1);
    let model = Gbdt::from_bytes(&e.into_bytes()).expect("a well-formed forest");
    let cells = model.cells();
    assert_eq!(cells.thresholds(0), &[0.0, 1.0]);
    assert_eq!(cells.cell(0, -0.0), 0);
    assert_eq!(cells.cell(0, 0.0), 0);
    assert_eq!(cells.cell(0, 0.5), 1);
    assert_eq!(cells.cell(0, f64::NAN), 2);
    assert_eq!(cells.cell(0, f64::INFINITY), 2);
    let bits = |v: f64| model.predict(&[v]).to_bits();
    assert_eq!(bits(-0.0), bits(0.0));
    assert_eq!(bits(f64::NEG_INFINITY), bits(-5e-324));
    assert_eq!(bits(1.0), bits(0.75));
    assert_eq!(bits(f64::NAN), bits(f64::INFINITY));
    assert_eq!(bits(f64::from_bits(0xFFF8_0000_0000_0001)), bits(2.0));
}
