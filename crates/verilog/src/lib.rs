//! Synthesizable Verilog-2001 subset frontend.
//!
//! The RTL-Timer flow starts from HDL source code — "design RTL is originally
//! in HDL code format, which cannot be directly processed by either ML or
//! traditional STA tools" (paper §1, challenge 1). This crate provides the
//! missing frontend:
//!
//! * [`lex`](lexer::lex) / [`parse`] — tokenizer and recursive-descent parser
//!   for a synthesizable subset (modules, parameters, `assign`,
//!   `always @(posedge …)` / `always @(*)`, `if`/`case`/`casez`,
//!   vectors, part selects, concatenation, instantiation),
//! * [`elaborate`] — hierarchy flattening and lowering to a word-level RTL
//!   netlist ([`rtlir::Netlist`]) with registers, named signals and source
//!   line provenance (needed later for slack annotation),
//! * [`rtlir::Netlist::simulate`] — a word-level functional simulator used to
//!   cross-check bit-blasting, and
//! * [`astfeat`] — AST-level feature extraction for the ICCAD'22-style
//!   baseline model.
//!
//! Subset restrictions (documented substitutions, see DESIGN.md): signal
//! widths ≤ 64 bits, synchronous resets only, no memories/tri-state/latches,
//! no `generate`/`for` (the benchmark generator emits unrolled code).
//!
//! Fixed bounds keep a hostile source from exhausting the stack or the
//! clock of the thread that compiles it, each an error naming its line:
//! nesting deeper than [`MAX_NESTING`], an instance of a module already on
//! the instantiation stack, a hierarchy deeper than
//! [`MAX_HIERARCHY_DEPTH`], and more than [`MAX_INSTANCES`] instances.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), rtlt_verilog::VerilogError> {
//! let src = "
//!     module counter(input clk, input rst, output [7:0] q);
//!       reg [7:0] cnt;
//!       always @(posedge clk)
//!         if (rst) cnt <= 8'd0; else cnt <= cnt + 8'd1;
//!       assign q = cnt;
//!     endmodule";
//! let ast = rtlt_verilog::parse(src)?;
//! let netlist = rtlt_verilog::elaborate(&ast, "counter")?;
//! assert_eq!(netlist.regs().len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod astfeat;
mod elab;
mod error;
mod lexer;
pub mod modsrc;
mod parser;
pub mod printer;
pub mod rtlir;

pub use elab::{elaborate, MAX_HIERARCHY_DEPTH, MAX_INSTANCES};
pub use error::VerilogError;
pub use lexer::{lex, Tok, Token};
pub use parser::{parse, MAX_NESTING};

/// Convenience: parse then elaborate `top` in one call.
///
/// # Errors
///
/// Returns the first lexical, syntax or elaboration error encountered.
pub fn compile(source: &str, top: &str) -> Result<rtlir::Netlist, VerilogError> {
    let file = parse(source)?;
    elaborate(&file, top)
}
