//! Feature extraction (paper Table 2): design-, cone- and path-level.

use rtlt_bog::{Bog, BogOp, CellCounts, ConeInfo, NodeId};
use rtlt_sta::{Sta, TimingPath};

/// Names of the per-path feature vector, in order.
pub const PATH_FEATURE_NAMES: [&str; 23] = [
    // Design-level.
    "rank_pct", // endpoint's pseudo-STA AT percentile within design
    "log_seq_cells",
    "log_comb_cells",
    "log_total_cells",
    // Cone-level.
    "log_driving_regs",
    "log_cone_size",
    "cone_depth",
    // Path-level.
    "path_arrival", // AT by STA on R along this path
    "path_levels",  // number of operators on the path
    "n_inv",
    "n_and",
    "n_or",
    "n_xor",
    "n_mux",
    "fanout_sum",
    "fanout_avg",
    "fanout_max",
    "load_sum",
    "load_avg",
    "load_max",
    "slew_avg",
    "slew_max",
    "launch_at", // source arrival (clk→Q or input delay)
];

/// Design-level feature vector of a BOG (log-scaled cell counts).
pub fn design_features(bog: &Bog) -> Vec<f64> {
    design_features_of(&CellCounts::from(&bog.stats()))
}

/// [`design_features`] from a graph's cell counts (a [`rtlt_bog::VariantCensus`]
/// gives them without building the graph).
pub fn design_features_of(c: &CellCounts) -> Vec<f64> {
    vec![
        (c.dff as f64).ln_1p(),
        (c.comb_total as f64).ln_1p(),
        (c.total_cells() as f64).ln_1p(),
        c.max_level as f64,
    ]
}

/// Number of design-level features produced by [`design_features`].
pub const N_DESIGN_FEATURES: usize = 4;

/// Operator class index for token sequences (transformer input).
pub fn op_class(op: BogOp) -> usize {
    match op {
        BogOp::Input => 0,
        BogOp::Const0 | BogOp::Const1 => 1,
        BogOp::Not => 2,
        BogOp::And2 => 3,
        BogOp::Or2 => 4,
        BogOp::Xor2 => 5,
        BogOp::Mux2 => 6,
        BogOp::Dff => 7,
    }
}

/// Number of operator classes.
pub const N_OP_CLASSES: usize = 8;

/// Extracts the full per-path feature vector.
///
/// `rank_pct` is the endpoint's pseudo-STA arrival percentile within its
/// design (0 = earliest, 1 = latest); `fanout` is the precomputed per-node
/// fanout table; `design` is [`design_features`] of `bog`, passed in
/// because it is per-graph constant and costs two full node passes — the
/// callers featurize many paths per graph and recomputing it per row
/// dominated the cold featurize profile.
pub fn path_features(
    sta: &Sta<'_>,
    bog: &Bog,
    path: &TimingPath,
    cone: &ConeInfo,
    rank_pct: f64,
    fanout: &[u32],
    design: &[f64],
) -> Vec<f64> {
    let res = sta.result();
    let mut n_inv = 0.0;
    let mut n_and = 0.0;
    let mut n_or = 0.0;
    let mut n_xor = 0.0;
    let mut n_mux = 0.0;
    let mut fo_sum = 0.0;
    let mut fo_max: f64 = 0.0;
    let mut load_sum = 0.0;
    let mut load_max: f64 = 0.0;
    let mut slew_sum = 0.0;
    let mut slew_max: f64 = 0.0;
    let mut levels = 0.0;
    for &n in &path.nodes {
        let node = bog.node(n);
        if node.op.is_comb() {
            levels += 1.0;
            match node.op {
                BogOp::Not => n_inv += 1.0,
                BogOp::And2 => n_and += 1.0,
                BogOp::Or2 => n_or += 1.0,
                BogOp::Xor2 => n_xor += 1.0,
                BogOp::Mux2 => n_mux += 1.0,
                _ => {}
            }
        }
        let fo = fanout[n as usize] as f64;
        fo_sum += fo;
        fo_max = fo_max.max(fo);
        let ld = res.load[n as usize];
        load_sum += ld;
        load_max = load_max.max(ld);
        let sl = res.slew[n as usize];
        slew_sum += sl;
        slew_max = slew_max.max(sl);
    }
    let len = path.nodes.len().max(1) as f64;
    let launch = res.arrival[path.nodes[0] as usize];
    vec![
        rank_pct,
        design[0],
        design[1],
        design[2],
        (cone.driving_regs as f64).ln_1p(),
        (cone.size as f64).ln_1p(),
        cone.depth as f64,
        path.arrival,
        levels,
        n_inv,
        n_and,
        n_or,
        n_xor,
        n_mux,
        fo_sum,
        fo_sum / len,
        fo_max,
        load_sum,
        load_sum / len,
        load_max,
        slew_sum / len,
        slew_max,
        launch,
    ]
}

/// Token features per path node, source → endpoint (for the transformer):
/// fanout, load, and arrival.
pub fn token_features(sta: &Sta<'_>, nodes: &[NodeId], fanout: &[u32]) -> Vec<Vec<f64>> {
    let res = sta.result();
    nodes
        .iter()
        .map(|&n| {
            vec![
                (fanout[n as usize] as f64).ln_1p(),
                res.load[n as usize],
                res.arrival[n as usize],
            ]
        })
        .collect()
}

/// Number of per-token features produced by [`token_features`].
pub const N_TOKEN_FEATURES: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use rtlt_bog::{blast, input_cone};
    use rtlt_liberty::Library;
    use rtlt_sta::StaConfig;
    use rtlt_verilog::compile;

    #[test]
    fn feature_vector_matches_names() {
        let bog = blast(
            &compile(
                "module m(input clk, input [7:0] a, output [7:0] q);
                   reg [7:0] r;
                   always @(posedge clk) r <= r + a;
                   assign q = r;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let lib = Library::pseudo_bog();
        let sta = Sta::run(&bog, &lib, StaConfig::default());
        let fanout = bog.fanout_counts();
        let ep = rtlt_bog::Endpoint::Reg(7);
        let path = sta.critical_path(ep);
        let cone = input_cone(&bog, bog.endpoint_node(ep));
        let design = design_features(&bog);
        let f = path_features(&sta, &bog, &path, &cone, 0.9, &fanout, &design);
        assert_eq!(f.len(), PATH_FEATURE_NAMES.len());
        assert!(f.iter().all(|v| v.is_finite()));
        // Arrival equals endpoint AT for the critical path.
        let i = f.iter().position(|_| true).unwrap();
        let _ = i;
        assert!(f[7] > 0.0, "path arrival positive");
        assert!(f[8] >= 1.0, "levels counted");
    }

    #[test]
    fn token_features_per_node() {
        let bog = blast(
            &compile(
                "module m(input clk, input a, input b, output q);
                   reg r;
                   always @(posedge clk) r <= a ^ b;
                   assign q = r;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let lib = Library::pseudo_bog();
        let sta = Sta::run(&bog, &lib, StaConfig::default());
        let fanout = bog.fanout_counts();
        let path = sta.critical_path(rtlt_bog::Endpoint::Reg(0));
        let toks = token_features(&sta, &path.nodes, &fanout);
        assert_eq!(toks.len(), path.nodes.len());
        assert!(toks.iter().all(|t| t.len() == N_TOKEN_FEATURES));
    }
}
