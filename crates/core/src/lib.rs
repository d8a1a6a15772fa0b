//! **RTL-Timer** — fine-grained RTL-stage timing prediction.
//!
//! Reproduction of *"Annotating Slack Directly on Your Verilog: Fine-Grained
//! RTL Timing Evaluation for Early Optimization"* (DAC 2024). Starting from
//! Verilog source, the pipeline:
//!
//! 1. bit-blasts the RTL into four Boolean-operator-graph representations
//!    (SOG/AIG/AIMG/XAG, via [`rtlt_bog`]),
//! 2. times each as a pseudo netlist ([`rtlt_sta`]) and samples the slowest
//!    plus `K` random paths into every register endpoint,
//! 3. extracts design/cone/path features (paper Table 2, [`features`]),
//! 4. trains bit-wise arrival-time models under a grouped **max-loss**
//!    ([`bitwise`]), ensembles the four representations ([`ensemble`]),
//! 5. aggregates bits → signals (regression + LambdaMART ranking,
//!    [`signal`]) and signals → design WNS/TNS ([`design`]),
//! 6. and applies the predictions: slack **annotation** on the original HDL
//!    ([`annotate`]) and `group_path`/`retime` synthesis optimization
//!    ([`optimize`]).
//!
//! Ground-truth labels come from the synthesis simulator ([`rtlt_synth`]) —
//! the documented substitute for the paper's commercial flow.
//!
//! # Quickstart
//!
//! ```no_run
//! use rtl_timer::pipeline::{DesignSet, RtlTimer, TimerConfig};
//!
//! // Prepare the benchmark suite (compile + blast + label via synthesis).
//! let set = DesignSet::prepare_suite(&TimerConfig::default());
//! // Leave-one-out: train on all designs except b18_1, predict it.
//! let (train, test) = set.split(&["b18_1"]);
//! let model = RtlTimer::fit(&train, &TimerConfig::default());
//! let pred = model.predict(test[0]);
//! println!("signal-wise R = {:.3}", pred.signal_r());
//! ```

pub mod annotate;
pub mod baselines;
pub mod bitwise;
pub mod cache;
pub mod dataset;
pub mod design;
pub mod ensemble;
pub mod features;
pub mod incremental;
pub mod live;
pub mod metrics;
pub mod optimize;
pub mod pipeline;
pub mod report;
pub mod signal;

pub use cache::PrepareKeys;
pub use incremental::{IncrementalAnnotator, ReannotateJob, ReannotateOutcome};
pub use live::{LiveAnnotator, LiveOutcome, LiveService, SessionClient};
pub use metrics::{covr, mape, pearson, r_squared, rank_groups};
pub use pipeline::{DesignData, DesignSet, PrepareError, PrepareStages, RtlTimer, TimerConfig};
