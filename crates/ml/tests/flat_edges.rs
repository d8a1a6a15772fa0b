//! The flat kernel at the edges of its arenas: a full depth-7 tree (255
//! nodes, every slot but one), a split on feature 31, batches around the
//! 16-row block, single-leaf trees, NaN thresholds and trees that share
//! children. Every batch prediction is held to the scalar walk
//! ([`Tree::predict`]) bit for bit, and `predict_row` to the batch. The
//! refusals at the limits are tested through `Gbdt` decode and fit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlt_ml::{FeatureMatrix, FlatForest, Tree, MAX_DEPTH, MAX_FEATURES, MAX_NODES, ROW_BLOCK};
use rtlt_store::{Codec, Enc};

const BASE: f64 = 0.375;
const LR: f64 = 0.3;

/// One node as the tree codec writes it.
enum Raw {
    Leaf(f64),
    /// `(feature, threshold, left, right)`.
    Split(usize, f64, usize, usize),
}

/// A tree decoded from hand-made node bytes.
fn tree(nodes: &[Raw]) -> Tree {
    let mut e = Enc::new();
    e.seq_len(nodes.len());
    for node in nodes {
        match *node {
            Raw::Leaf(value) => {
                e.u8(0);
                e.f64(value);
            }
            Raw::Split(feature, threshold, left, right) => {
                e.u8(1);
                e.usize(feature);
                e.f64(threshold);
                e.u32(0);
                e.usize(left);
                e.usize(right);
            }
        }
    }
    Tree::from_bytes(&e.into_bytes()).expect("a well-formed tree")
}

/// Thresholds and row values share a coarse grid, so comparisons hit
/// `value == threshold`.
fn grid(rng: &mut StdRng) -> f64 {
    f64::from(rng.gen_range(-8i32..8)) * 0.25
}

/// Grows a tree depth first (a left subtree before its right sibling, so
/// siblings below the root are not adjacent in the node list): a full tree
/// when `full`, else each node below the root stops early one time in
/// four.
fn grow(
    nodes: &mut Vec<Raw>,
    depth: usize,
    n_features: usize,
    full: bool,
    rng: &mut StdRng,
) -> usize {
    let at = nodes.len();
    nodes.push(Raw::Leaf(f64::from(rng.gen_range(-1000i32..1000)) / 64.0));
    let stop = !full && at > 0 && rng.gen_range(0..4) == 0;
    if depth > 0 && !stop {
        let feature = rng.gen_range(0..n_features);
        let threshold = grid(rng);
        let left = grow(nodes, depth - 1, n_features, full, rng);
        let right = grow(nodes, depth - 1, n_features, full, rng);
        nodes[at] = Raw::Split(feature, threshold, left, right);
    }
    at
}

fn random_tree(depth: usize, n_features: usize, full: bool, rng: &mut StdRng) -> Tree {
    let mut nodes = Vec::new();
    grow(&mut nodes, depth, n_features, full, rng);
    tree(&nodes)
}

/// `n` rows of grid values mixed with NaN, ±0 and ±∞.
fn rows(n: usize, n_features: usize, rng: &mut StdRng) -> FeatureMatrix {
    let mut m = FeatureMatrix::new(n_features);
    let mut row = vec![0.0; n_features];
    for _ in 0..n {
        for v in &mut row {
            *v = match rng.gen_range(0..10) {
                0 => f64::NAN,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => grid(rng),
            };
        }
        m.push_row(&row);
    }
    m
}

/// Lays the trees out and checks every row of `m`: the batch against the
/// scalar walk, and `predict_row` against the batch.
fn assert_walks_like_the_scalar(trees: &[Tree], m: &FeatureMatrix) {
    let flat = FlatForest::from_trees(trees, m.n_cols(), BASE, LR).expect("within the limits");
    let batch = flat.predict_all(m);
    assert_eq!(batch.len(), m.n_rows());
    for (i, (row, got)) in m.rows().zip(&batch).enumerate() {
        let want = trees.iter().fold(BASE, |acc, t| acc + LR * t.predict(row));
        assert_eq!(got.to_bits(), want.to_bits(), "row {i} of {}", m.n_rows());
        assert_eq!(flat.predict_row(row).to_bits(), got.to_bits(), "row {i}");
    }
}

#[test]
fn a_full_depth_seven_tree_fills_every_slot_but_one() {
    let mut rng = StdRng::seed_from_u64(1);
    let full = random_tree(MAX_DEPTH, 23, true, &mut rng);
    assert_eq!(full.len(), MAX_NODES);
    let other = random_tree(MAX_DEPTH, 23, false, &mut rng);
    assert_walks_like_the_scalar(&[full, other], &rows(300, 23, &mut rng));
}

#[test]
fn a_255_node_chain_walks_like_the_scalar() {
    // 127 splits, each with a leaf on the left: every slot but one, 127
    // levels deep.
    let mut nodes = Vec::new();
    for k in 0..127 {
        nodes.push(Raw::Split(0, 0.5 * (k as f64 - 60.0), 2 * k + 1, 2 * k + 2));
        nodes.push(Raw::Leaf(k as f64));
    }
    nodes.push(Raw::Leaf(-1.0));
    let t = tree(&nodes);
    assert_eq!(t.len(), MAX_NODES);
    let mut rng = StdRng::seed_from_u64(2);
    assert_walks_like_the_scalar(&[t], &rows(40, 1, &mut rng));
}

#[test]
fn shared_children_are_expanded_and_counted() {
    // Each split sends both sides to the next node: `d` splits take
    // 2^(d+1) − 1 slots though the tree has d + 1 nodes.
    let chain = |d: usize| {
        let mut nodes: Vec<Raw> = (0..d)
            .map(|k| Raw::Split(k % 3, 0.25 * k as f64, k + 1, k + 1))
            .collect();
        nodes.push(Raw::Leaf(2.0));
        tree(&nodes)
    };
    let mut rng = StdRng::seed_from_u64(3);
    assert_walks_like_the_scalar(&[chain(MAX_DEPTH)], &rows(40, 3, &mut rng));
    assert!(FlatForest::from_trees(&[chain(MAX_DEPTH + 1)], 3, BASE, LR).is_err());
}

#[test]
fn a_split_on_feature_31_reads_the_last_column() {
    let last = MAX_FEATURES - 1;
    let t = tree(&[
        Raw::Split(last, 0.0, 1, 2),
        Raw::Split(0, 0.0, 3, 4),
        Raw::Leaf(1.0),
        Raw::Split(last, -1.0, 5, 6),
        Raw::Leaf(3.0),
        Raw::Leaf(5.0),
        Raw::Leaf(7.0),
    ]);
    let mut rng = StdRng::seed_from_u64(4);
    assert_walks_like_the_scalar(&[t], &rows(200, MAX_FEATURES, &mut rng));
}

#[test]
fn batches_around_the_row_block() {
    let mut rng = StdRng::seed_from_u64(5);
    let trees: Vec<Tree> = (0..12)
        .map(|_| random_tree(MAX_DEPTH, 23, false, &mut rng))
        .collect();
    for n in [
        0,
        1,
        ROW_BLOCK - 1,
        ROW_BLOCK,
        ROW_BLOCK + 1,
        2 * ROW_BLOCK + 1,
    ] {
        assert_walks_like_the_scalar(&trees, &rows(n, 23, &mut rng));
    }
}

#[test]
fn single_leaf_trees_and_nan_thresholds() {
    let mut rng = StdRng::seed_from_u64(6);
    let trees = [
        tree(&[Raw::Leaf(0.5)]),
        tree(&[
            Raw::Split(1, f64::NAN, 1, 2),
            Raw::Leaf(-4.0),
            Raw::Leaf(4.0),
        ]),
        random_tree(3, 2, false, &mut rng),
        tree(&[Raw::Leaf(-0.25)]),
        tree(&[
            Raw::Split(0, 0.25, 1, 2),
            Raw::Leaf(1.5),
            Raw::Split(1, f64::NAN, 3, 4),
            Raw::Leaf(-1.5),
            Raw::Leaf(2.5),
        ]),
    ];
    assert_walks_like_the_scalar(&trees, &rows(50, 2, &mut rng));

    // Leaves only, over no features; and no trees at all.
    let leaves = [tree(&[Raw::Leaf(0.5)]), tree(&[Raw::Leaf(-0.25)])];
    let flat = FlatForest::from_trees(&leaves, 0, BASE, LR).expect("within the limits");
    assert_eq!(
        flat.predict_row(&[]).to_bits(),
        (BASE + LR * 0.5 + LR * -0.25).to_bits()
    );
    let empty = FlatForest::from_trees(&[], 2, BASE, LR).expect("within the limits");
    assert_eq!(empty.predict_all(&rows(3, 2, &mut rng)), vec![BASE; 3]);
}
