//! Pure-Rust machine learning for the RTL-Timer reproduction.
//!
//! Reimplements (in the same algorithmic shape, without the Python
//! ecosystem) every model family the paper evaluates:
//!
//! * [`Gbdt`] — histogram gradient-boosted regression trees (the paper's
//!   XGBoost stand-in) with pluggable objectives, including the customized
//!   **grouped max-loss** of Eq. 3: the prediction of an endpoint is the max
//!   over its sampled paths, and the (sub)gradient flows through the argmax
//!   path;
//! * [`LambdaMart`] — pairwise learning-to-rank with ΔNDCG-weighted lambdas
//!   for the critical-level ranking task;
//! * [`Mlp`] — multilayer perceptron with Adam, supporting plain regression
//!   and the same grouped max-loss;
//! * [`PathTransformer`] — a small single-head self-attention encoder over
//!   operator sequences (the paper's "transformer + MLP" bit-wise model);
//! * [`Gnn`] — a message-passing network over the BOG with endpoint
//!   readout, reproducing the customized-GNN baseline;
//! * [`Scaler`] — feature standardization.
//!
//! Everything is deterministic given a seed.

mod attention;
mod cells;
mod flat;
mod gbdt;
mod gnn;
mod ltr;
mod matrix;
mod mlp;
mod scaler;
mod tree;

pub use attention::{PathSample, PathTransformer, TransformerParams};
pub use cells::SplitCells;
pub use flat::{FlatForest, MAX_DEPTH, MAX_FEATURES, MAX_NODES, ROW_BLOCK};
pub use gbdt::{Gbdt, GbdtParams, GroupedMaxObjective, Objective, SquaredObjective};
pub use gnn::{Gnn, GnnGraph, GnnParams};
pub use ltr::{LambdaMart, LtrParams};
pub use matrix::{FeatureMatrix, Matrix};
pub use mlp::{Mlp, MlpParams};
pub use scaler::Scaler;
pub use tree::{Binner, Tree, TreeParams, TreeScratch};
