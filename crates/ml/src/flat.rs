//! Flat inference kernel: every tree of a fitted ensemble laid out in
//! fixed 256-slot arenas and walked by `u8` cursors over 16-row blocks.
//!
//! **Arenas.** Each tree owns one 256-slot entry in each of three
//! per-forest arrays: `thresholds: [f64; 256]`, `links: [u16; 256]`
//! (`feature | left << 8`) and `values: [f64; 256]` (learning rate × leaf
//! value). The root takes
//! slot 0 and each split's children take the next free pair, so the right
//! child always sits at `left + 1` and one step is
//! `next = left + !(v <= threshold)`: a link load, a row-value load, a
//! threshold compare and an add of its carry. A `u8` cursor indexes a
//! 256-slot array and a feature is `link & 31` into a 32-wide row, so
//! every index is in bounds by its type: the step compiles to straight-line
//! code with no bounds check.
//!
//! **Leaves** have a NaN threshold and `left = slot − 1`, so `!(v <= NaN)`
//! steps a leaf onto itself whatever the row holds. A descent therefore
//! runs a fixed number of steps, the tree's depth, with no leaf test.
//!
//! **Row blocks.** A batch is walked [`ROW_BLOCK`] rows at a time: the
//! block is copied into a zero-padded `[[f64; 32]; 16]`, and for each tree
//! its 16 cursors live in a `[u8; 16]` local the compiler unrolls into
//! registers. Stepping the block one level per pass gives the CPU 16
//! independent descents to overlap, and nothing but the result leaves the
//! registers between steps. The 24-byte-node kernel this replaced kept its
//! cursors in a memory array and clamped every feature index: five loads,
//! a store, a clamp and a bounds check per step where this one has three
//! loads and an add.
//!
//! **Shape limits**, checked by [`FlatForest::from_trees`]: at most
//! [`MAX_NODES`] nodes per tree, at most [`MAX_FEATURES`] features, and
//! every split on a feature the forest has. `Gbdt::fit` asserts
//! `max_depth <= MAX_DEPTH` and the width up front; `Gbdt::decode` returns
//! the error, so a stored forest outside the limits is recomputed.
//!
//! Comparison order (`value <= threshold`, NaN falls right) and per-row
//! accumulation order (base, then `lr · leaf` of each tree in boosting
//! order) are exactly the scalar walk's, so predictions are bit-identical.
//! The scalar walk ([`Tree::predict`]) is the oracle the tests hold this
//! kernel to. The arenas are derived at fit/decode time and never
//! persisted.

use crate::matrix::FeatureMatrix;
use crate::tree::{Node, Tree};

/// Rows a batch walk steps together, one cursor each.
pub const ROW_BLOCK: usize = 16;

/// Features a forest may have: a split feature is `link & 31`.
pub const MAX_FEATURES: usize = 32;

/// Nodes a tree may have: the largest odd count that fits 256 slots.
pub const MAX_NODES: usize = SLOTS - 1;

/// Deepest tree `Gbdt::fit` grows: a full tree of this depth has
/// [`MAX_NODES`] nodes.
pub const MAX_DEPTH: usize = 7;

/// Slots per tree arena: every `u8` cursor value.
const SLOTS: usize = 256;

/// Rows of a block, each padded to [`MAX_FEATURES`] columns.
type Block = [[f64; MAX_FEATURES]; ROW_BLOCK];

/// All trees of a boosted ensemble in per-tree 256-slot arenas.
///
/// Derived from the fitted [`Tree`]s at fit/decode time — never
/// persisted, so the stored model bytes and keys are untouched.
#[derive(Debug, Clone)]
pub struct FlatForest {
    base: f64,
    n_features: usize,
    /// Per tree, each slot's split threshold; NaN on leaves and unused
    /// slots.
    thresholds: Vec<[f64; SLOTS]>,
    /// Per tree, each slot's `feature | left << 8`; a leaf's `left` is
    /// `slot − 1`.
    links: Vec<[u16; SLOTS]>,
    /// Per tree, each leaf's learning rate × value (0 elsewhere).
    values: Vec<[f64; SLOTS]>,
    /// Per tree, its depth: after that many steps every cursor sits on a
    /// leaf.
    depths: Vec<u8>,
}

impl FlatForest {
    /// Lays out a fitted or decoded ensemble over `n_features` columns.
    ///
    /// # Errors
    ///
    /// Names the broken shape limit: more than [`MAX_FEATURES`] features,
    /// a split on a feature at or above `n_features`, or a tree that
    /// takes more than [`MAX_NODES`] slots.
    pub fn from_trees(
        trees: &[Tree],
        n_features: usize,
        base: f64,
        learning_rate: f64,
    ) -> Result<FlatForest, &'static str> {
        if n_features > MAX_FEATURES {
            return Err("forest wider than 32 features");
        }
        let mut f = FlatForest {
            base,
            n_features,
            thresholds: Vec::with_capacity(trees.len()),
            links: Vec::with_capacity(trees.len()),
            values: Vec::with_capacity(trees.len()),
            depths: Vec::with_capacity(trees.len()),
        };
        // Node index per slot, in the order slots are handed out, so the
        // list is also the breadth-first queue.
        let mut order: Vec<usize> = Vec::with_capacity(MAX_NODES);
        for tree in trees {
            let nodes = tree.nodes();
            let mut thresholds = [f64::NAN; SLOTS];
            let mut links = [0u16; SLOTS];
            let mut values = [0.0; SLOTS];
            let mut depth = [0u8; SLOTS];
            order.clear();
            order.push(0);
            let mut slot = 0;
            while slot < order.len() {
                match nodes[order[slot]] {
                    Node::Leaf { value } => {
                        // `slot` is below `MAX_NODES`, so the cast is exact.
                        links[slot] = u16::from((slot as u8).wrapping_sub(1)) << 8;
                        values[slot] = learning_rate * value;
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        ..
                    } => {
                        if feature >= n_features {
                            return Err("split feature outside the forest");
                        }
                        let l = order.len();
                        if l + 2 > MAX_NODES {
                            return Err("tree larger than 255 nodes");
                        }
                        order.extend([left, right]);
                        thresholds[slot] = threshold;
                        // `feature < 32` and `l < 255`: both fit their
                        // byte of the link.
                        links[slot] = feature as u16 | (l as u16) << 8;
                        depth[l] = depth[slot] + 1;
                        depth[l + 1] = depth[slot] + 1;
                    }
                }
                slot += 1;
            }
            f.thresholds.push(thresholds);
            f.links.push(links);
            f.values.push(values);
            f.depths.push(depth.into_iter().max().unwrap_or(0));
        }
        Ok(f)
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.depths.len()
    }

    /// Feature columns a row must have.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Every tree's arenas and depth, in boosting order.
    fn trees(&self) -> impl Iterator<Item = (&[f64; SLOTS], &[u16; SLOTS], &[f64; SLOTS], u8)> {
        self.thresholds
            .iter()
            .zip(&self.links)
            .zip(&self.values)
            .zip(&self.depths)
            .map(|(((t, l), v), &d)| (t, l, v, d))
    }

    /// Predicts one raw feature row (bit-identical to the scalar walk)
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the row width is not [`FlatForest::n_features`].
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature width mismatch");
        let mut padded = [0.0; MAX_FEATURES];
        padded[..row.len()].copy_from_slice(row);
        let mut acc = self.base;
        for (thresholds, links, values, depth) in self.trees() {
            let mut cur = 0u8;
            for _ in 0..depth {
                cur = step(thresholds, links, &padded, cur);
            }
            acc += values[usize::from(cur)];
        }
        acc
    }

    /// Batch prediction into a caller-owned buffer (cleared first), one
    /// [`ROW_BLOCK`]-row block at a time.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty matrix's width is not
    /// [`FlatForest::n_features`].
    pub fn predict_into(&self, features: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        if features.is_empty() {
            return;
        }
        let nf = features.n_cols();
        assert_eq!(nf, self.n_features, "feature width mismatch");
        out.reserve(features.n_rows());
        // Columns past `nf`, and the rows past a short last block, stay
        // padding: no split reads the former, and the latter's results
        // are dropped.
        let mut block: Block = [[0.0; MAX_FEATURES]; ROW_BLOCK];
        for rows in features.as_slice().chunks(ROW_BLOCK * nf) {
            for (padded, row) in block.iter_mut().zip(rows.chunks_exact(nf)) {
                padded[..nf].copy_from_slice(row);
            }
            out.extend_from_slice(&self.walk_block(&block)[..rows.len() / nf]);
        }
    }

    /// Batch prediction.
    ///
    /// # Panics
    ///
    /// As [`FlatForest::predict_into`].
    pub fn predict_all(&self, features: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(features, &mut out);
        out
    }

    /// Walks one block through every tree: tree-outer, stepping all 16
    /// cursors one level per pass.
    fn walk_block(&self, block: &Block) -> [f64; ROW_BLOCK] {
        let mut acc = [self.base; ROW_BLOCK];
        for (thresholds, links, values, depth) in self.trees() {
            let mut cur = [0u8; ROW_BLOCK];
            for _ in 0..depth {
                for (c, row) in cur.iter_mut().zip(block) {
                    *c = step(thresholds, links, row, *c);
                }
            }
            for (a, &c) in acc.iter_mut().zip(&cur) {
                *a += values[usize::from(c)];
            }
        }
        acc
    }
}

/// One descent step from slot `cur`: left when `value <= threshold`,
/// else `left + 1`. NaN values fall right, and a leaf's NaN threshold
/// sends every value to `slot − 1 + 1`, itself.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must step right
fn step(thresholds: &[f64; SLOTS], links: &[u16; SLOTS], row: &[f64; MAX_FEATURES], cur: u8) -> u8 {
    let link = links[usize::from(cur)];
    let value = row[usize::from(link) % MAX_FEATURES];
    let [_, left] = link.to_le_bytes();
    left.wrapping_add(u8::from(!(value <= thresholds[usize::from(cur)])))
}
