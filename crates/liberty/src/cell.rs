//! Cell definitions: combinational functions, drive strengths, sequential
//! timing.

use crate::nldm::Nldm;
use std::fmt;

/// Logic function implemented by a cell.
///
/// The first group are the *pseudo cells* used when a Boolean operator graph
/// is timed as a pseudo netlist; the remainder are mapped-library functions
/// produced by technology mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellFunc {
    /// Non-inverting buffer.
    Buf,
    /// Inverter (`NOT` pseudo cell).
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input multiplexer (pins: sel, a, b).
    Mux2,
    /// D flip-flop.
    Dff,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XNOR.
    Xnor2,
    /// 3-input NAND.
    Nand3,
    /// 3-input NOR.
    Nor3,
    /// AND-OR-invert: `!((a & b) | c)`.
    Aoi21,
    /// OR-AND-invert: `!((a | b) & c)`.
    Oai21,
    /// AND-OR-invert: `!((a & b) | (c & d))`.
    Aoi22,
    /// OR-AND-invert: `!((a | b) & (c | d))`.
    Oai22,
}

impl CellFunc {
    /// Number of data input pins.
    pub fn arity(self) -> usize {
        match self {
            CellFunc::Buf | CellFunc::Inv | CellFunc::Dff => 1,
            CellFunc::And2
            | CellFunc::Or2
            | CellFunc::Xor2
            | CellFunc::Nand2
            | CellFunc::Nor2
            | CellFunc::Xnor2 => 2,
            CellFunc::Mux2
            | CellFunc::Nand3
            | CellFunc::Nor3
            | CellFunc::Aoi21
            | CellFunc::Oai21 => 3,
            CellFunc::Aoi22 | CellFunc::Oai22 => 4,
        }
    }

    /// Whether the output is logically inverted relative to the "positive"
    /// form (used by mapping to track inverter parity).
    pub fn inverting(self) -> bool {
        matches!(
            self,
            CellFunc::Inv
                | CellFunc::Nand2
                | CellFunc::Nor2
                | CellFunc::Xnor2
                | CellFunc::Nand3
                | CellFunc::Nor3
                | CellFunc::Aoi21
                | CellFunc::Oai21
                | CellFunc::Aoi22
                | CellFunc::Oai22
        )
    }
}

impl fmt::Display for CellFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellFunc::Buf => "BUF",
            CellFunc::Inv => "INV",
            CellFunc::And2 => "AND2",
            CellFunc::Or2 => "OR2",
            CellFunc::Xor2 => "XOR2",
            CellFunc::Mux2 => "MUX2",
            CellFunc::Dff => "DFF",
            CellFunc::Nand2 => "NAND2",
            CellFunc::Nor2 => "NOR2",
            CellFunc::Xnor2 => "XNOR2",
            CellFunc::Nand3 => "NAND3",
            CellFunc::Nor3 => "NOR3",
            CellFunc::Aoi21 => "AOI21",
            CellFunc::Oai21 => "OAI21",
            CellFunc::Aoi22 => "AOI22",
            CellFunc::Oai22 => "OAI22",
        };
        f.write_str(s)
    }
}

/// Drive strength variant of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Drive {
    /// Unit drive.
    X1,
    /// Double drive.
    X2,
    /// Quadruple drive.
    X4,
}

impl Drive {
    /// All drives, weakest first.
    pub const ALL: [Drive; 3] = [Drive::X1, Drive::X2, Drive::X4];

    /// Relative output conductance (1.0 for X1).
    pub fn strength(self) -> f64 {
        match self {
            Drive::X1 => 1.0,
            Drive::X2 => 2.0,
            Drive::X4 => 4.0,
        }
    }

    /// Next stronger drive, if any.
    pub fn upsize(self) -> Option<Drive> {
        match self {
            Drive::X1 => Some(Drive::X2),
            Drive::X2 => Some(Drive::X4),
            Drive::X4 => None,
        }
    }
}

impl fmt::Display for Drive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drive::X1 => f.write_str("X1"),
            Drive::X2 => f.write_str("X2"),
            Drive::X4 => f.write_str("X4"),
        }
    }
}

/// Delay and output-slew tables for the worst timing arc of a cell.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Propagation delay table (ns) vs (input slew ns, output load cap-units).
    pub delay: Nldm,
    /// Output slew table (ns).
    pub out_slew: Nldm,
}

/// Sequential constraints for flip-flops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqTiming {
    /// Clock-to-Q propagation delay (ns).
    pub clk_to_q: f64,
    /// Setup requirement at D (ns).
    pub setup: f64,
    /// Hold requirement at D (ns).
    pub hold: f64,
}

/// A characterized standard cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Liberty-style name, e.g. `NAND2_X1`.
    pub name: String,
    /// Logic function.
    pub func: CellFunc,
    /// Drive strength.
    pub drive: Drive,
    /// Cell area (µm²-like abstract units).
    pub area: f64,
    /// Leakage power (nW-like abstract units).
    pub leakage: f64,
    /// Input capacitance per data pin (cap units; 1.0 = X1 inverter pin).
    pub pin_caps: Vec<f64>,
    /// Maximum drivable load before the cell is considered overloaded.
    pub max_load: f64,
    /// Worst-arc delay/slew tables.
    pub timing: Timing,
    /// Present only for sequential cells.
    pub seq: Option<SeqTiming>,
}

impl Cell {
    /// Propagation delay (ns) for the given input slew and output load.
    pub fn delay(&self, in_slew: f64, load: f64) -> f64 {
        self.timing.delay.lookup(in_slew, load)
    }

    /// Output slew (ns) for the given input slew and output load.
    pub fn out_slew(&self, in_slew: f64, load: f64) -> f64 {
        self.timing.out_slew.lookup(in_slew, load)
    }

    /// Capacitance of one input pin.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the cell's arity.
    pub fn pin_cap(&self, pin: usize) -> f64 {
        self.pin_caps[pin]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_function() {
        assert_eq!(CellFunc::Inv.arity(), 1);
        assert_eq!(CellFunc::Nand2.arity(), 2);
        assert_eq!(CellFunc::Mux2.arity(), 3);
        assert_eq!(CellFunc::Aoi22.arity(), 4);
    }

    #[test]
    fn inverting_classification() {
        assert!(CellFunc::Nand2.inverting());
        assert!(CellFunc::Aoi21.inverting());
        assert!(!CellFunc::And2.inverting());
        assert!(!CellFunc::Mux2.inverting());
    }

    #[test]
    fn drive_ladder() {
        assert_eq!(Drive::X1.upsize(), Some(Drive::X2));
        assert_eq!(Drive::X2.upsize(), Some(Drive::X4));
        assert_eq!(Drive::X4.upsize(), None);
        assert_eq!(Drive::X4.strength(), 4.0);
    }
}
