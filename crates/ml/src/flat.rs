//! Flat inference kernel: every tree of a fitted ensemble linearized
//! into one contiguous node array and traversed with a tree-outer ×
//! row-block loop.
//!
//! The scalar path walks a heap of `Node` enums per row per tree — a
//! serial pointer chase whose next load depends on the previous compare.
//! This kernel packs each node's hot fields (threshold, feature, both
//! children) into one 24-byte [`FlatNode`] so a descent step touches a
//! single cache line, and encodes **leaves as self-loops** (`left ==
//! right == self`, threshold `+∞`) so a descent runs a *fixed* number of
//! branch-free steps (the tree's depth) instead of testing for leaf
//! arrival. Traversal is tree-outer over [`ROW_BLOCK`]-row blocks,
//! stepping every row of the block one level per pass: the block's
//! descents are independent chains, so the CPU overlaps their node loads
//! instead of serializing one row's full walk at a time.
//!
//! Comparison order (`value <= threshold`, NaN falls right — a self-loop
//! leaf re-selects itself on either outcome) and per-row accumulation
//! order (base, then trees in boosting order) are exactly the scalar
//! path's, so predictions are bit-identical. The scalar walk
//! ([`Tree::predict`]) is the oracle the tests hold this kernel to.

use crate::matrix::FeatureMatrix;
use crate::tree::{Node, Tree};

/// Rows traversed per tree before moving to the next tree: large enough
/// to amortize reloading the node array and to expose independent
/// descent chains, small enough that the block's cursors stay in L1.
pub const ROW_BLOCK: usize = 64;

/// One linearized tree node: the descent-hot fields, packed so a step
/// reads one cache line. Leaves self-loop (`left == right == self`) with
/// threshold `+∞`; their payload lives in [`FlatForest::value`].
#[derive(Debug, Clone, Copy, Default)]
struct FlatNode {
    /// Split threshold (`value <= threshold` goes left); `+∞` on leaves.
    threshold: f64,
    /// Split feature (0 on leaves — compared against `+∞`, never routes).
    feature: u32,
    /// Left child index; `self` on leaves.
    left: u32,
    /// Right child index; `self` on leaves.
    right: u32,
}

/// All trees of a boosted ensemble linearized into one node array.
///
/// Derived from the fitted [`Tree`]s at fit/decode time — never
/// persisted, so the stored model bytes and keys are untouched.
#[derive(Debug, Clone, Default)]
pub struct FlatForest {
    base: f64,
    learning_rate: f64,
    /// Every node of every tree, trees back to back.
    nodes: Vec<FlatNode>,
    /// Leaf value per node (0 for split nodes — never read).
    value: Vec<f64>,
    /// Per-tree root node.
    roots: Vec<u32>,
    /// Per-tree depth: split levels along the deepest path, i.e. the
    /// fixed step count after which every descent sits on a leaf.
    steps: Vec<u32>,
}

impl FlatForest {
    /// Linearizes a fitted ensemble.
    pub fn from_trees(trees: &[Tree], base: f64, learning_rate: f64) -> FlatForest {
        let mut f = FlatForest {
            base,
            learning_rate,
            ..FlatForest::default()
        };
        for tree in trees {
            let nodes = tree.nodes();
            let off = f.nodes.len();
            f.nodes.resize(off + nodes.len(), FlatNode::default());
            f.value.resize(off + nodes.len(), 0.0);
            // Node `i` takes slot `off + i`; children carry higher
            // indices than their parent (fit pushes parents first), so
            // depths resolve in one reverse sweep.
            let mut depth = vec![0u32; nodes.len()];
            for (i, n) in nodes.iter().enumerate().rev() {
                let s = (off + i) as u32;
                match n {
                    Node::Leaf { value } => {
                        f.nodes[off + i] = FlatNode {
                            threshold: f64::INFINITY,
                            feature: 0,
                            left: s,
                            right: s,
                        };
                        f.value[off + i] = *value;
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        ..
                    } => {
                        f.nodes[off + i] = FlatNode {
                            threshold: *threshold,
                            feature: *feature as u32,
                            left: (off + *left) as u32,
                            right: (off + *right) as u32,
                        };
                        depth[i] = 1 + depth[*left].max(depth[*right]);
                    }
                }
            }
            f.roots.push(off as u32);
            f.steps.push(depth[0]);
        }
        f
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Predicts one raw feature row (bit-identical to the scalar walk).
    #[inline]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut acc = self.base;
        for (t, &root) in self.roots.iter().enumerate() {
            let mut u = root as usize;
            for _ in 0..self.steps[t] {
                let n = &self.nodes[u];
                // `<=` sends NaN right, matching the scalar walk; a leaf
                // self-loops on either outcome.
                u = if row[n.feature as usize] <= n.threshold {
                    n.left
                } else {
                    n.right
                } as usize;
            }
            acc += self.learning_rate * self.value[u];
        }
        acc
    }

    /// Batch prediction into a caller-owned buffer (cleared first):
    /// tree-outer over [`ROW_BLOCK`]-row blocks, stepping the whole
    /// block one tree level per pass so the descents' node loads overlap.
    pub fn predict_into(&self, features: &FeatureMatrix, out: &mut Vec<f64>) {
        let n = features.n_rows();
        let nf = features.n_cols();
        let data = features.as_slice();
        out.clear();
        out.resize(n, self.base);
        if nf == 0 {
            // Stump-only forests: every tree is a lone leaf.
            for (t, &root) in self.roots.iter().enumerate() {
                debug_assert_eq!(self.steps[t], 0);
                let v = self.learning_rate * self.value[root as usize];
                for acc in out.iter_mut() {
                    *acc += v;
                }
            }
            return;
        }
        let mut idx = [0u32; ROW_BLOCK];
        let mut start = 0;
        while start < n {
            let len = ROW_BLOCK.min(n - start);
            let block = &data[start * nf..(start + len) * nf];
            for (t, &root) in self.roots.iter().enumerate() {
                idx[..len].fill(root);
                for _ in 0..self.steps[t] {
                    for (row, cur) in block.chunks_exact(nf).zip(idx[..len].iter_mut()) {
                        let nd = &self.nodes[*cur as usize];
                        // `.min(nf - 1)` proves the index in-bounds to the
                        // optimizer (split features are < nf by
                        // construction, so it never actually clamps).
                        let v = row[(nd.feature as usize).min(nf - 1)];
                        *cur = if v <= nd.threshold { nd.left } else { nd.right };
                    }
                }
                let lr = self.learning_rate;
                for (r, &u) in idx[..len].iter().enumerate() {
                    out[start + r] += lr * self.value[u as usize];
                }
            }
            start += len;
        }
    }

    /// Batch prediction.
    pub fn predict_all(&self, features: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(features, &mut out);
        out
    }
}
