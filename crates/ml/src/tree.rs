//! Histogram-based regression trees (the building block of GBDT and
//! LambdaMART).

use crate::matrix::FeatureMatrix;

/// Quantile binner mapping raw feature values to ≤256 bins per feature.
#[derive(Debug, Clone)]
pub struct Binner {
    /// Per-feature ascending bin upper edges (bin `i` covers values ≤
    /// `edges[i]`; the last bin is unbounded).
    edges: Vec<Vec<f64>>,
}

impl Binner {
    /// Fits quantile bins (`max_bins` ≤ 256) on row-major training data.
    pub fn fit(features: &FeatureMatrix, max_bins: usize) -> Binner {
        let max_bins = max_bins.clamp(2, 256);
        let n_features = features.n_cols();
        let mut edges = Vec::with_capacity(n_features);
        for f in 0..n_features {
            let mut vals: Vec<f64> = features.rows().map(|r| r[f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            vals.dedup();
            let e: Vec<f64> = if vals.len() <= max_bins {
                vals
            } else {
                (1..=max_bins)
                    .map(|i| vals[(i * (vals.len() - 1)) / max_bins])
                    .collect()
            };
            edges.push(e);
        }
        Binner { edges }
    }

    /// Bin index of a value for a feature.
    #[inline]
    pub fn bin(&self, feature: usize, value: f64) -> u16 {
        let e = &self.edges[feature];
        // Binary search for first edge >= value.
        match e.binary_search_by(|probe| probe.partial_cmp(&value).expect("finite")) {
            Ok(i) => i as u16,
            Err(i) => i.min(e.len().saturating_sub(1)) as u16,
        }
    }

    /// Upper edge value of a bin (used to recover split thresholds).
    pub fn edge(&self, feature: usize, bin: u16) -> f64 {
        self.edges[feature][(bin as usize).min(self.edges[feature].len() - 1)]
    }

    /// Bins an entire dataset to a row-major code matrix.
    pub fn codes(&self, features: &FeatureMatrix) -> Vec<u16> {
        let nf = self.edges.len();
        let mut out = Vec::with_capacity(features.n_rows() * nf);
        for r in features.rows() {
            for f in 0..nf {
                out.push(self.bin(f, r[f]));
            }
        }
        out
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.edges.len()
    }

    /// Number of bins for a feature.
    pub fn n_bins(&self, feature: usize) -> usize {
        self.edges[feature].len()
    }
}

/// Tree growth hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth.
    pub max_depth: usize,
    /// L2 regularization on leaf values.
    pub lambda: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Minimum split gain.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            lambda: 1.0,
            min_child_weight: 1.0,
            min_gain: 1e-6,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        /// Raw threshold: go left when `value <= threshold`.
        threshold: f64,
        /// Bin threshold used during training.
        bin: u16,
        left: usize,
        right: usize,
    },
}

/// Row count below which the per-node feature scan stays sequential even
/// when `threads > 1` (thread spawn would dominate the histogram fill).
const PAR_SCAN_MIN_ROWS: usize = 4096;

/// Reusable training scratch: one flattened `(grad, hess)` histogram
/// covering every feature's bins, sized once per binner and zeroed per
/// node — replacing the two fresh `vec![0.0; nb]` allocations per feature
/// per node of the old fit loop.
#[derive(Debug, Default)]
pub struct TreeScratch {
    /// Interleaved `(grad, hess)` pairs, `2 * total_bins` long.
    hist: Vec<f64>,
    /// Per-feature starting bin offset into the flattened histogram.
    feat_off: Vec<usize>,
    /// Total bins across all features.
    total_bins: usize,
}

impl TreeScratch {
    /// Empty scratch; sized lazily on first use.
    pub fn new() -> TreeScratch {
        TreeScratch::default()
    }

    /// Scratch pre-sized for a binner.
    pub fn for_binner(binner: &Binner) -> TreeScratch {
        let mut s = TreeScratch::new();
        s.ensure(binner);
        s
    }

    fn ensure(&mut self, binner: &Binner) {
        let nf = binner.n_features();
        if self.feat_off.len() == nf
            && (0..nf).all(|f| self.bins_of(f) == binner.n_bins(f))
            && self.hist.len() == 2 * self.total_bins
        {
            return;
        }
        self.feat_off.clear();
        let mut off = 0;
        for f in 0..nf {
            self.feat_off.push(off);
            off += binner.n_bins(f);
        }
        self.total_bins = off;
        self.hist.clear();
        self.hist.resize(2 * off, 0.0);
    }

    fn bins_of(&self, f: usize) -> usize {
        let end = self.feat_off.get(f + 1).copied().unwrap_or(self.total_bins);
        end - self.feat_off[f]
    }
}

/// Fills the flattened histogram for one feature range over the given
/// rows, feature-outer / row-inner. Per-(feature, bin) accumulation order
/// is row order — identical to the row-outer fill and to the legacy
/// per-feature loop, so every fill strategy is bit-exact.
#[allow(clippy::too_many_arguments)]
fn fill_hist_features(
    hist: &mut [f64],
    feat_off: &[usize],
    base_off: usize,
    feats: std::ops::Range<usize>,
    codes: &[u16],
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
    nf: usize,
) {
    for f in feats {
        let off = feat_off[f] - base_off;
        for &r in rows {
            let b = codes[r * nf + f] as usize;
            let o = 2 * (off + b);
            hist[o] += grad[r];
            hist[o + 1] += hess[r];
        }
    }
}

/// Scans one feature's histogram slice for its best split. Returns the
/// per-feature best as `(gain, bin)` with ties keeping the earliest bin —
/// exactly the legacy sequential scan's behavior.
#[allow(clippy::too_many_arguments)]
fn scan_feature(
    hist: &[f64],
    off: usize,
    nb: usize,
    gsum: f64,
    hsum: f64,
    parent_score: f64,
    params: &TreeParams,
) -> Option<(f64, u16)> {
    let mut best: Option<(f64, u16)> = None;
    let mut gl = 0.0;
    let mut hl = 0.0;
    for b in 0..nb - 1 {
        gl += hist[2 * (off + b)];
        hl += hist[2 * (off + b) + 1];
        let gr = gsum - gl;
        let hr = hsum - hl;
        if hl < params.min_child_weight || hr < params.min_child_weight {
            continue;
        }
        let gain = gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - parent_score;
        if gain > params.min_gain && best.is_none_or(|(bg, _)| gain > bg) {
            best = Some((gain, b as u16));
        }
    }
    best
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
}

/// One pending node of the growth stack.
struct GrowEntry {
    slot: usize,
    rows: Vec<usize>,
    depth: usize,
}

impl Tree {
    /// Grows a tree on binned `codes` minimizing the second-order objective
    /// given per-row gradients and hessians (sequential, private scratch).
    pub fn fit(
        binner: &Binner,
        codes: &[u16],
        grad: &[f64],
        hess: &[f64],
        row_indices: &[usize],
        params: &TreeParams,
    ) -> Tree {
        let mut scratch = TreeScratch::for_binner(binner);
        Self::fit_with(
            binner,
            codes,
            grad,
            hess,
            row_indices,
            params,
            &mut scratch,
            1,
        )
    }

    /// [`Tree::fit`] with a caller-owned [`TreeScratch`] (reused across
    /// boosting rounds) and a `par_map` fan-out of the per-node feature
    /// scan across `threads` workers. Split decisions are bit-identical
    /// for any thread count: per-feature bests are reduced in feature
    /// order with a strict `>` comparison.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_with(
        binner: &Binner,
        codes: &[u16],
        grad: &[f64],
        hess: &[f64],
        row_indices: &[usize],
        params: &TreeParams,
        scratch: &mut TreeScratch,
        threads: usize,
    ) -> Tree {
        let nf = binner.n_features();
        scratch.ensure(binner);
        let mut nodes = Vec::new();
        let mut stack: Vec<GrowEntry> = Vec::new();
        nodes.push(Node::Leaf { value: 0.0 });
        stack.push(GrowEntry {
            slot: 0,
            rows: row_indices.to_vec(),
            depth: 0,
        });

        while let Some(GrowEntry { slot, rows, depth }) = stack.pop() {
            let gsum: f64 = rows.iter().map(|&r| grad[r]).sum();
            let hsum: f64 = rows.iter().map(|&r| hess[r]).sum();
            let leaf_value = -gsum / (hsum + params.lambda);
            if depth >= params.max_depth || rows.len() < 2 {
                nodes[slot] = Node::Leaf { value: leaf_value };
                continue;
            }

            let parent_score = gsum * gsum / (hsum + params.lambda);
            let best = if threads > 1 && rows.len() >= PAR_SCAN_MIN_ROWS {
                // Fan the fill + scan out over contiguous feature chunks;
                // each worker owns its chunk's histogram slice.
                let chunk = nf.div_ceil(threads.max(1));
                let ranges: Vec<std::ops::Range<usize>> = (0..nf)
                    .step_by(chunk.max(1))
                    .map(|s| s..(s + chunk).min(nf))
                    .collect();
                let feat_off = &scratch.feat_off;
                let per_chunk = rtlt_runtime::par_map(threads, &ranges, |range| {
                    let base = feat_off[range.start];
                    let end = range
                        .end
                        .checked_sub(1)
                        .map(|l| feat_off[l] + binner.n_bins(l))
                        .unwrap_or(base);
                    let mut hist = vec![0.0f64; 2 * (end - base)];
                    fill_hist_features(
                        &mut hist,
                        feat_off,
                        base,
                        range.clone(),
                        codes,
                        grad,
                        hess,
                        &rows,
                        nf,
                    );
                    let mut best: Option<(f64, usize, u16)> = None;
                    for f in range.clone() {
                        let nb = binner.n_bins(f);
                        if nb < 2 {
                            continue;
                        }
                        let off = feat_off[f] - base;
                        if let Some((gain, bin)) =
                            scan_feature(&hist, off, nb, gsum, hsum, parent_score, params)
                        {
                            if best.is_none_or(|(bg, _, _)| gain > bg) {
                                best = Some((gain, f, bin));
                            }
                        }
                    }
                    best
                });
                // Reduce in chunk (= feature) order with strict `>`.
                let mut best: Option<(f64, usize, u16)> = None;
                for b in per_chunk.into_iter().flatten() {
                    if best.is_none_or(|(bg, _, _)| b.0 > bg) {
                        best = Some(b);
                    }
                }
                best
            } else {
                // Single pass, row-outer / feature-inner: grad/hess and the
                // row's codes are each read once per row, and the whole
                // node needs exactly one zeroing of one flat buffer.
                scratch.hist.iter_mut().for_each(|v| *v = 0.0);
                for &r in &rows {
                    let g = grad[r];
                    let h = hess[r];
                    let row_codes = &codes[r * nf..r * nf + nf];
                    for (f, &c) in row_codes.iter().enumerate() {
                        let o = 2 * (scratch.feat_off[f] + c as usize);
                        scratch.hist[o] += g;
                        scratch.hist[o + 1] += h;
                    }
                }
                Self::scan_all(binner, &scratch.hist, gsum, hsum, parent_score, params)
            };

            match best {
                None => nodes[slot] = Node::Leaf { value: leaf_value },
                Some((_, f, bin)) => {
                    let (lrows, rrows): (Vec<usize>, Vec<usize>) =
                        rows.iter().partition(|&&r| codes[r * nf + f] <= bin);
                    let left = nodes.len();
                    nodes.push(Node::Leaf { value: 0.0 });
                    let right = nodes.len();
                    nodes.push(Node::Leaf { value: 0.0 });
                    nodes[slot] = Node::Split {
                        feature: f,
                        threshold: binner.edge(f, bin),
                        bin,
                        left,
                        right,
                    };
                    stack.push(GrowEntry {
                        slot: left,
                        rows: lrows,
                        depth: depth + 1,
                    });
                    stack.push(GrowEntry {
                        slot: right,
                        rows: rrows,
                        depth: depth + 1,
                    });
                }
            }
        }
        Tree { nodes }
    }

    /// Sequential best-split scan over all features of a filled flattened
    /// histogram; ties keep the earliest feature, then the earliest bin.
    fn scan_all(
        binner: &Binner,
        hist: &[f64],
        gsum: f64,
        hsum: f64,
        parent_score: f64,
        params: &TreeParams,
    ) -> Option<(f64, usize, u16)> {
        let mut best: Option<(f64, usize, u16)> = None;
        let mut off = 0;
        for f in 0..binner.n_features() {
            let nb = binner.n_bins(f);
            if nb >= 2 {
                if let Some((gain, bin)) =
                    scan_feature(hist, off, nb, gsum, hsum, parent_score, params)
                {
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, f, bin));
                    }
                }
            }
            off += nb;
        }
        best
    }

    /// The node arena (flat-kernel construction).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Predicts from raw (unbinned) features.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicts from binned codes (training-time fast path).
    pub fn predict_binned(&self, codes: &[u16], row: usize, nf: usize) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    bin,
                    left,
                    right,
                    ..
                } => {
                    i = if codes[row * nf + feature] <= *bin {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Node count (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Features used by splits (for importance accounting).
    pub fn split_features(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Split { feature, .. } => Some(*feature),
                _ => None,
            })
            .collect()
    }
}

impl rtlt_store::Codec for Node {
    fn encode(&self, e: &mut rtlt_store::Enc) {
        match self {
            Node::Leaf { value } => {
                e.u8(0);
                e.f64(*value);
            }
            Node::Split {
                feature,
                threshold,
                bin,
                left,
                right,
            } => {
                e.u8(1);
                e.usize(*feature);
                e.f64(*threshold);
                e.u32(*bin as u32);
                e.usize(*left);
                e.usize(*right);
            }
        }
    }
    fn decode(d: &mut rtlt_store::Dec<'_>) -> Result<Self, rtlt_store::CodecError> {
        Ok(match d.u8()? {
            0 => Node::Leaf { value: d.f64()? },
            1 => Node::Split {
                feature: d.usize()?,
                threshold: d.f64()?,
                bin: u16::try_from(d.u32()?)
                    .map_err(|_| rtlt_store::CodecError::new("tree split bin above u16::MAX"))?,
                left: d.usize()?,
                right: d.usize()?,
            },
            _ => return Err(rtlt_store::CodecError::new("tree Node tag")),
        })
    }
}

impl rtlt_store::Codec for Tree {
    fn encode(&self, e: &mut rtlt_store::Enc) {
        self.nodes.encode(e);
    }
    /// Rejects arenas the walks cannot take: an empty tree, and a child
    /// that is not after its parent or not in the tree. Fit pushes parents
    /// before their children, so every walk ends at a leaf (a cycle would
    /// loop the scalar walks); a `model` entry may come from a remote
    /// store.
    fn decode(d: &mut rtlt_store::Dec<'_>) -> Result<Self, rtlt_store::CodecError> {
        let nodes: Vec<Node> = Vec::decode(d)?;
        if nodes.is_empty() {
            return Err(rtlt_store::CodecError::new("tree without nodes"));
        }
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Split { left, right, .. } = *node {
                if [left, right].iter().any(|&c| c <= i || c >= nodes.len()) {
                    return Err(rtlt_store::CodecError::new("tree child index"));
                }
            }
        }
        Ok(Tree { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy() -> (FeatureMatrix, Vec<f64>) {
        // y = step function of x0 plus linear x1.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 10.0 { 5.0 } else { -5.0 } + 0.5 * r[1])
            .collect();
        (FeatureMatrix::from_rows(&rows), y)
    }

    #[test]
    fn single_tree_fits_step_function() {
        let (rows, y) = xy();
        let binner = Binner::fit(&rows, 64);
        let codes = binner.codes(&rows);
        let grad: Vec<f64> = y.iter().map(|v| -v).collect(); // residual from 0
        let hess = vec![1.0; rows.n_rows()];
        let idx: Vec<usize> = (0..rows.n_rows()).collect();
        let tree = Tree::fit(&binner, &codes, &grad, &hess, &idx, &TreeParams::default());
        // Predictions should correlate strongly with y.
        let preds: Vec<f64> = rows.rows().map(|r| tree.predict(r)).collect();
        let err: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).powi(2))
            .sum::<f64>()
            / rows.n_rows() as f64;
        assert!(err < 1.0, "mse {err}");
    }

    #[test]
    fn binned_and_raw_prediction_agree() {
        let (rows, y) = xy();
        let binner = Binner::fit(&rows, 32);
        let codes = binner.codes(&rows);
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; rows.n_rows()];
        let idx: Vec<usize> = (0..rows.n_rows()).collect();
        let tree = Tree::fit(&binner, &codes, &grad, &hess, &idx, &TreeParams::default());
        for (i, r) in rows.rows().enumerate() {
            assert_eq!(tree.predict(r), tree.predict_binned(&codes, i, 2));
        }
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let (rows, y) = xy();
        let binner = Binner::fit(&rows, 32);
        let codes = binner.codes(&rows);
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; rows.n_rows()];
        let idx: Vec<usize> = (0..rows.n_rows()).collect();
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let tree = Tree::fit(&binner, &codes, &grad, &hess, &idx, &params);
        assert!(tree.is_empty());
        // Leaf = mean of y under squared loss (lambda-shrunk).
        let mean_y = y.iter().sum::<f64>() / y.len() as f64;
        let pred = tree.predict(rows.row(0));
        assert!((pred - mean_y).abs() < 0.2, "{pred} vs {mean_y}");
    }

    #[test]
    fn binner_handles_constant_feature() {
        let rows = FeatureMatrix::from_rows(&[vec![3.0], vec![3.0], vec![3.0]]);
        let binner = Binner::fit(&rows, 16);
        assert_eq!(binner.n_bins(0), 1);
        assert_eq!(binner.bin(0, 3.0), 0);
        assert_eq!(binner.bin(0, 100.0), 0);
    }

    /// One tree's structure as a comparable signature.
    fn signature(t: &Tree) -> Vec<(u64, usize)> {
        t.nodes()
            .iter()
            .map(|n| match n {
                Node::Leaf { value } => (value.to_bits(), usize::MAX),
                Node::Split { feature, bin, .. } => (*bin as u64, *feature),
            })
            .collect()
    }

    #[test]
    fn scratch_reuse_matches_fresh_fit() {
        let (rows, y) = xy();
        let binner = Binner::fit(&rows, 32);
        let codes = binner.codes(&rows);
        let hess = vec![1.0; rows.n_rows()];
        let idx: Vec<usize> = (0..rows.n_rows()).collect();
        let mut scratch = TreeScratch::new();
        for round in 0..3 {
            // Different gradients per round, one shared scratch.
            let grad: Vec<f64> = y.iter().map(|v| -v * (round + 1) as f64).collect();
            let fresh = Tree::fit(&binner, &codes, &grad, &hess, &idx, &TreeParams::default());
            let reused = Tree::fit_with(
                &binner,
                &codes,
                &grad,
                &hess,
                &idx,
                &TreeParams::default(),
                &mut scratch,
                1,
            );
            assert_eq!(signature(&fresh), signature(&reused), "round {round}");
        }
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        // Needs >= PAR_SCAN_MIN_ROWS rows so threads=2 takes the par_map
        // fan-out; the reduced split decisions must be bit-identical.
        let n = PAR_SCAN_MIN_ROWS + 512;
        let rows_v: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x = (i % 97) as f64 * 0.37;
                vec![x, (i % 13) as f64, (x * 1.7).sin(), (i / 29) as f64]
            })
            .collect();
        let rows = FeatureMatrix::from_rows(&rows_v);
        let y: Vec<f64> = rows
            .rows()
            .map(|r| if r[0] > 18.0 { 3.0 } else { -1.0 } + r[2] * 0.25 + 0.1 * r[3])
            .collect();
        let binner = Binner::fit(&rows, 64);
        let codes = binner.codes(&rows);
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; n];
        let idx: Vec<usize> = (0..n).collect();
        let mut s1 = TreeScratch::new();
        let mut s2 = TreeScratch::new();
        let params = TreeParams::default();
        let seq = Tree::fit_with(&binner, &codes, &grad, &hess, &idx, &params, &mut s1, 1);
        let par = Tree::fit_with(&binner, &codes, &grad, &hess, &idx, &params, &mut s2, 2);
        assert_eq!(signature(&seq), signature(&par));
    }
}
