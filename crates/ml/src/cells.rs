//! Split cells: where a feature value falls among a forest's split
//! thresholds, the coding an edit session uses to tell which rows an edit
//! may have re-routed.
//!
//! For each feature, [`SplitCells`] holds the sorted, deduplicated split
//! thresholds of every tree of a forest. A value's cell is the number of
//! thresholds `t` with `!(v <= t)`. Ascending thresholds make that set a
//! prefix, so `v <= t_k` holds exactly when `cell(v) <= k`: every split
//! of every tree routes a value by its cell alone, and two rows whose
//! cells agree on every feature take the same path through every tree and
//! predict the same bits.
//!
//! The edge cases follow the walk's `<=`:
//! - NaN fails every `<=`, so it takes the top cell and goes right
//!   everywhere, as the walk sends it.
//! - `-0.0` and `+0.0` compare equal, so they share a cell, and a forest's
//!   `-0.0` and `+0.0` thresholds collapse into one.
//! - A NaN threshold sends every value right, whatever its cell, so it is
//!   left out of the table.
//!
//! Derived from the trees on first use, never persisted: the stored model
//! bytes and keys are unchanged.

use crate::tree::{Node, Tree};

/// Per-feature split thresholds of a forest (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SplitCells {
    /// Per feature: ascending, `==`-deduplicated, NaN-free thresholds.
    thresholds: Vec<Vec<f64>>,
}

impl SplitCells {
    /// Collects the thresholds of every split of `trees` over a forest of
    /// `n_features` features.
    ///
    /// # Panics
    ///
    /// Panics if a split names a feature `>= n_features` (a decoded
    /// [`crate::Gbdt`] never does: decode rejects it).
    pub fn of(trees: &[Tree], n_features: usize) -> SplitCells {
        let mut thresholds = vec![Vec::new(); n_features];
        for tree in trees {
            for node in tree.nodes() {
                if let Node::Split {
                    feature, threshold, ..
                } = *node
                {
                    if !threshold.is_nan() {
                        thresholds[feature].push(threshold);
                    }
                }
            }
        }
        for t in &mut thresholds {
            t.sort_by(f64::total_cmp);
            // `total_cmp` puts `-0.0` right before `+0.0`; `==` merges them.
            t.dedup_by(|a, b| a == b);
        }
        SplitCells { thresholds }
    }

    /// The cell of `value` on `feature`: how many thresholds it exceeds
    /// (NaN exceeds them all).
    #[inline]
    // The negated `<=` is the walk's own comparison, NaN included.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn cell(&self, feature: usize, value: f64) -> u32 {
        self.thresholds[feature].partition_point(|&t| !(value <= t)) as u32
    }

    /// The thresholds of one feature, ascending.
    pub fn thresholds(&self, feature: usize) -> &[f64] {
        &self.thresholds[feature]
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.thresholds.len()
    }
}
