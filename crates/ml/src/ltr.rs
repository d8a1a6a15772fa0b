//! LambdaMART: pairwise learning-to-rank with gradient-boosted trees.
//!
//! The paper reframes signal criticality ranking as LTR (§3.4.2): each
//! design is a query, its signal endpoints are documents, and the critical
//! ranking level (group 1–4) is the relevance label. We implement the
//! classic LambdaMART lambdas: for each mis-ordered pair, a sigmoid
//! gradient scaled by |ΔNDCG|, accumulated per document and fed to the same
//! histogram-tree booster used for regression.

use crate::gbdt::{Gbdt, GbdtParams, Objective};
use crate::matrix::FeatureMatrix;

/// LambdaMART hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LtrParams {
    /// Underlying boosting parameters.
    pub gbdt: GbdtParams,
    /// Sigmoid steepness.
    pub sigma: f64,
}

impl Default for LtrParams {
    fn default() -> Self {
        let mut gbdt = GbdtParams::default();
        // Lambda hessians are tiny (σ²·ρ(1−ρ)·|ΔNDCG| per pair); the
        // regression default min_child_weight would veto every split.
        gbdt.tree.min_child_weight = 1e-4;
        gbdt.tree.lambda = 0.1;
        LtrParams { gbdt, sigma: 1.0 }
    }
}

/// A fitted ranking model. Higher scores = more critical.
#[derive(Debug, Clone)]
pub struct LambdaMart {
    model: Gbdt,
}

struct LambdaObjective {
    queries: Vec<Vec<usize>>,
    relevance: Vec<f64>,
    sigma: f64,
}

impl LambdaObjective {
    /// Ideal DCG of a query's labels.
    fn ideal_dcg(rels: &[f64]) -> f64 {
        let mut sorted: Vec<f64> = rels.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        sorted
            .iter()
            .enumerate()
            .map(|(i, r)| ((2f64).powf(*r) - 1.0) / ((i + 2) as f64).log2())
            .sum()
    }
}

impl Objective for LambdaObjective {
    fn grad_hess(&self, preds: &[f64], grad: &mut [f64], hess: &mut [f64]) {
        grad.iter_mut().for_each(|g| *g = 0.0);
        hess.iter_mut().for_each(|h| *h = 1e-6);
        for q in &self.queries {
            if q.len() < 2 {
                continue;
            }
            // Rank positions under current predictions.
            let mut order: Vec<usize> = q.clone();
            order.sort_by(|&a, &b| preds[b].partial_cmp(&preds[a]).expect("finite"));
            let mut rank_of = vec![0usize; q.len()];
            let pos_in_q: std::collections::HashMap<usize, usize> =
                q.iter().enumerate().map(|(i, &r)| (r, i)).collect();
            for (rank, &row) in order.iter().enumerate() {
                rank_of[pos_in_q[&row]] = rank;
            }
            let rels: Vec<f64> = q.iter().map(|&r| self.relevance[r]).collect();
            let idcg = Self::ideal_dcg(&rels).max(1e-9);

            for i in 0..q.len() {
                for j in 0..q.len() {
                    if rels[i] <= rels[j] {
                        continue;
                    }
                    let (ri, rj) = (q[i], q[j]);
                    // |ΔNDCG| from swapping ranks of i and j.
                    let gain_i = (2f64).powf(rels[i]) - 1.0;
                    let gain_j = (2f64).powf(rels[j]) - 1.0;
                    let disc = |rank: usize| ((rank + 2) as f64).log2();
                    let delta = ((gain_i - gain_j)
                        * (1.0 / disc(rank_of[i]) - 1.0 / disc(rank_of[j])))
                    .abs()
                        / idcg;
                    let rho = 1.0 / (1.0 + (self.sigma * (preds[ri] - preds[rj])).exp());
                    let lambda = delta * self.sigma * rho;
                    // i should rank above j: push i up, j down.
                    grad[ri] -= lambda;
                    grad[rj] += lambda;
                    let h = (delta * self.sigma * self.sigma * rho * (1.0 - rho)).max(1e-6);
                    hess[ri] += h;
                    hess[rj] += h;
                }
            }
        }
    }

    fn base_score(&self) -> f64 {
        0.0
    }
}

impl LambdaMart {
    /// Trains a ranker.
    ///
    /// * `rows` — row-major features;
    /// * `queries` — row-index sets, one per query (design);
    /// * `relevance` — per-row relevance label (higher = more critical).
    pub fn fit(
        rows: &FeatureMatrix,
        queries: &[Vec<usize>],
        relevance: &[f64],
        params: &LtrParams,
    ) -> LambdaMart {
        let obj = LambdaObjective {
            queries: queries.to_vec(),
            relevance: relevance.to_vec(),
            sigma: params.sigma,
        };
        LambdaMart {
            model: Gbdt::fit(rows, &obj, &params.gbdt),
        }
    }

    /// Ranking score for one row (higher = predicted more critical).
    pub fn score(&self, row: &[f64]) -> f64 {
        self.model.predict(row)
    }

    /// Batch scores.
    pub fn score_all(&self, rows: &FeatureMatrix) -> Vec<f64> {
        self.model.predict_all(rows)
    }
}

impl rtlt_store::Codec for LambdaMart {
    fn encode(&self, e: &mut rtlt_store::Enc) {
        self.model.encode(e);
    }
    fn decode(d: &mut rtlt_store::Dec<'_>) -> Result<Self, rtlt_store::CodecError> {
        Ok(LambdaMart {
            model: Gbdt::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Relevance driven by a noisy linear feature: LTR should order by it.
    #[test]
    fn ranker_orders_by_informative_feature() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut rows = Vec::new();
        let mut queries = Vec::new();
        let mut relevance = Vec::new();
        for _q in 0..30 {
            let mut q = Vec::new();
            for _d in 0..20 {
                let strength: f64 = rng.gen_range(0.0..1.0);
                q.push(rows.len());
                rows.push(vec![strength, rng.gen_range(0.0..1.0)]);
                // 4 relevance levels from the hidden strength.
                relevance.push((strength * 4.0).floor().min(3.0));
            }
            queries.push(q);
        }
        let mut params = LtrParams::default();
        params.gbdt.n_trees = 80;
        let model = LambdaMart::fit(
            &FeatureMatrix::from_rows(&rows),
            &queries,
            &relevance,
            &params,
        );

        // Held-out query: 20 fresh docs; check pairwise order accuracy.
        let mut correct = 0;
        let mut total = 0;
        let fresh: Vec<(Vec<f64>, f64)> = (0..20)
            .map(|_| {
                let s: f64 = rng.gen_range(0.0..1.0);
                (vec![s, rng.gen_range(0.0..1.0)], s)
            })
            .collect();
        for i in 0..fresh.len() {
            for j in 0..fresh.len() {
                if fresh[i].1 > fresh[j].1 + 0.1 {
                    total += 1;
                    if model.score(&fresh[i].0) > model.score(&fresh[j].0) {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "pairwise accuracy {acc}");
    }

    #[test]
    fn single_document_queries_are_harmless() {
        let rows = vec![vec![0.1], vec![0.9]];
        let queries = vec![vec![0], vec![1]];
        let relevance = vec![0.0, 3.0];
        let mut params = LtrParams::default();
        params.gbdt.n_trees = 5;
        let model = LambdaMart::fit(
            &FeatureMatrix::from_rows(&rows),
            &queries,
            &relevance,
            &params,
        );
        let _ = model.score(&rows[0]);
    }
}
