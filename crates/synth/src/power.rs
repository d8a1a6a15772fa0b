//! Area and power models.
//!
//! Area = Σ cell areas. Power = Σ leakage + k·Σ activity·load, with switching
//! activity from static signal-probability propagation (independence
//! assumption, inputs and register outputs at p = 0.5). Good enough to
//! expose the area/power side effects of upsizing and retiming that Table 6
//! tracks.

use crate::netlist::MappedNetlist;
use rtlt_liberty::{CellFunc, Library};

/// Area/power summary of a mapped netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerArea {
    /// Total cell area.
    pub area: f64,
    /// Total leakage.
    pub leakage: f64,
    /// Dynamic (switching) power estimate.
    pub dynamic: f64,
    /// Combined power figure.
    pub total_power: f64,
}

const DYNAMIC_SCALE: f64 = 0.45;

/// Computes area and power for the netlist.
pub fn power_area(n: &MappedNetlist, lib: &Library) -> PowerArea {
    let mut area = 0.0;
    let mut leakage = 0.0;
    for c in &n.cells {
        if let Some(func) = c.func {
            let cell = lib.cell(func, c.drive);
            area += cell.area;
            leakage += cell.leakage;
        }
    }

    // Signal probabilities.
    let probs = signal_probabilities(n);
    let loads = crate::timing::static_loads(n, lib);
    let mut dynamic = 0.0;
    for (id, c) in n.cells.iter().enumerate() {
        if c.func.is_some() || c.tie.is_none() {
            let p = probs[id];
            let activity = 2.0 * p * (1.0 - p);
            dynamic += activity * loads[id];
        }
    }
    dynamic *= DYNAMIC_SCALE;
    PowerArea {
        area,
        leakage,
        dynamic,
        total_power: leakage + dynamic,
    }
}

/// Static probability that each cell output is 1.
pub fn signal_probabilities(n: &MappedNetlist) -> Vec<f64> {
    let mut p = vec![0.5f64; n.cells.len()];
    for id in n.topo_order() {
        let c = &n.cells[id as usize];
        let f = |i: usize| p[c.fanins[i] as usize];
        p[id as usize] = match c.func {
            None => match c.tie {
                Some(true) => 1.0,
                Some(false) => 0.0,
                None => 0.5, // primary input
            },
            Some(CellFunc::Dff) => 0.5,
            Some(CellFunc::Buf) => f(0),
            Some(CellFunc::Inv) => 1.0 - f(0),
            Some(CellFunc::And2) => f(0) * f(1),
            Some(CellFunc::Nand2) => 1.0 - f(0) * f(1),
            Some(CellFunc::Or2) => or(f(0), f(1)),
            Some(CellFunc::Nor2) => 1.0 - or(f(0), f(1)),
            Some(CellFunc::Xor2) => xor(f(0), f(1)),
            Some(CellFunc::Xnor2) => 1.0 - xor(f(0), f(1)),
            Some(CellFunc::Mux2) => f(0) * f(1) + (1.0 - f(0)) * f(2),
            Some(CellFunc::Nand3) => 1.0 - f(0) * f(1) * f(2),
            Some(CellFunc::Nor3) => 1.0 - or(or(f(0), f(1)), f(2)),
            Some(CellFunc::Aoi21) => 1.0 - or(f(0) * f(1), f(2)),
            Some(CellFunc::Oai21) => 1.0 - or(f(0), f(1)) * f(2),
            Some(CellFunc::Aoi22) => 1.0 - or(f(0) * f(1), f(2) * f(3)),
            Some(CellFunc::Oai22) => 1.0 - or(f(0), f(1)) * or(f(2), f(3)),
        };
    }
    p
}

fn or(a: f64, b: f64) -> f64 {
    a + b - a * b
}

fn xor(a: f64, b: f64) -> f64 {
    a * (1.0 - b) + b * (1.0 - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::tech_map;
    use crate::opt::balance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rtlt_bog::blast;
    use rtlt_liberty::Drive;
    use rtlt_verilog::compile;

    fn netlist() -> (MappedNetlist, Library) {
        let bog = balance(&blast(
            &compile(
                "module m(input clk, input [7:0] a, input [7:0] b, output [7:0] q);
                   reg [7:0] r;
                   always @(posedge clk) r <= (a & b) + r;
                   assign q = r;
                 endmodule",
                "m",
            )
            .unwrap(),
        ));
        let lib = Library::nangate45_like();
        let n = tech_map(&bog, &lib, &mut StdRng::seed_from_u64(2));
        (n, lib)
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (n, _) = netlist();
        for (i, p) in signal_probabilities(&n).iter().enumerate() {
            assert!((0.0..=1.0).contains(p), "cell {i}: p={p}");
        }
    }

    #[test]
    fn and_of_independent_halves() {
        let (n, _) = netlist();
        let probs = signal_probabilities(&n);
        for (id, c) in n.cells.iter().enumerate() {
            if c.func == Some(CellFunc::And2) {
                let pa = probs[c.fanins[0] as usize];
                let pb = probs[c.fanins[1] as usize];
                assert!((probs[id] - pa * pb).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn upsizing_increases_area_and_power() {
        let (mut n, lib) = netlist();
        let before = power_area(&n, &lib);
        for c in n.cells.iter_mut() {
            if c.is_comb() {
                c.drive = Drive::X4;
            }
        }
        let after = power_area(&n, &lib);
        assert!(after.area > before.area);
        assert!(after.total_power > before.total_power);
    }
}
