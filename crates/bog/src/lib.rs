//! Bit-level **Boolean Operator Graph** (BOG) — the paper's universal
//! ML-friendly RTL representation (§3.1).
//!
//! A BOG is a bit-blasted view of the RTL where every node is a simple
//! Boolean operator and every RTL sequential signal bit becomes a D
//! flip-flop node. Because registers are preserved one-to-one between RTL
//! and netlist, each register bit is a *timing endpoint* that can be labeled
//! with post-synthesis slack — the key trick that makes fine-grained RTL
//! timing learning possible.
//!
//! The universal graph specializes into the paper's four variants by
//! restricting the operator alphabet ([`BogVariant`]):
//!
//! | variant | operators |
//! |---------|-----------------------------|
//! | SOG     | NOT AND OR XOR MUX          |
//! | AIG     | NOT AND                     |
//! | AIMG    | NOT AND MUX                 |
//! | XAG     | NOT AND XOR                 |
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), rtlt_verilog::VerilogError> {
//! let netlist = rtlt_verilog::compile(
//!     "module m(input clk, input [3:0] a, input [3:0] b, output [3:0] q);
//!        reg [3:0] acc;
//!        always @(posedge clk) acc <= acc + (a ^ b);
//!        assign q = acc;
//!      endmodule",
//!     "m",
//! )?;
//! let sog = rtlt_bog::blast(&netlist);
//! assert_eq!(sog.regs().len(), 4); // 4 bit-wise endpoints
//! let aig = sog.to_variant(rtlt_bog::BogVariant::Aig);
//! assert!(aig.stats().xor2 == 0 && aig.stats().or2 == 0 && aig.stats().mux2 == 0);
//! # Ok(())
//! # }
//! ```

mod blast;
mod census;
mod codec;
mod cone;
mod fold;
mod graph;
#[cfg(test)]
mod oracles;
mod provenance;
mod sim;
mod stats;
mod variants;

pub use blast::blast;
pub use census::{CellCounts, VariantCensus};
pub use cone::{
    cone_fingerprint, extract_signal_cone, input_cone, input_cone_scratch, ConeExtractor, ConeInfo,
    ConeMatch, ConeScratch,
};
pub use graph::{
    Bog, BogBuilder, BogOp, BogReg, BogVariant, Endpoint, NodeId, SignalInfo, NO_NODE,
};
pub use provenance::signal_provenance;
pub use sim::BitSim;
pub use stats::BogStats;
