//! Word-level RTL intermediate representation.
//!
//! Elaboration lowers the AST into a flat word-level netlist: a DAG of
//! word-sized operations ([`WKind`]) plus a register file ([`WReg`]). This is
//! the representation the BOG bit-blaster consumes, and it doubles as an
//! executable model via [`Netlist::simulator`] (used to cross-check
//! bit-blasting correctness).

use std::collections::HashMap;

/// Node identifier inside a [`Netlist`].
pub type WId = u32;

/// Word-level unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WUnaryOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
    /// Reduction AND (1-bit result).
    RedAnd,
    /// Reduction OR (1-bit result).
    RedOr,
    /// Reduction XOR (1-bit result).
    RedXor,
}

/// Word-level binary operators. Comparisons produce 1-bit results; all
/// arithmetic is unsigned and wraps at the node width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WBinaryOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Logical shift left (`a << b`).
    Shl,
    /// Logical shift right (`a >> b`).
    Shr,
    /// Equality (1-bit).
    Eq,
    /// Unsigned less-than (1-bit).
    Lt,
}

/// Word-level node kind.
#[derive(Debug, Clone, PartialEq)]
pub enum WKind {
    /// Primary input.
    Input {
        /// Port name.
        name: String,
    },
    /// Constant.
    Const {
        /// Value (masked to node width).
        value: u64,
    },
    /// Unresolved net placeholder. None remain after successful elaboration.
    Net {
        /// Hierarchical net name (for diagnostics).
        name: String,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: WUnaryOp,
        /// Operand.
        a: WId,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: WBinaryOp,
        /// Left operand.
        a: WId,
        /// Right operand.
        b: WId,
    },
    /// 2:1 multiplexer; `cond` is 1 bit wide.
    Mux {
        /// Select (1 bit).
        cond: WId,
        /// Value when select is 1.
        t: WId,
        /// Value when select is 0.
        f: WId,
    },
    /// Concatenation, parts stored LSB-first.
    Concat {
        /// Parts, LSB-first.
        parts: Vec<WId>,
    },
    /// Contiguous bit-field extraction starting at `lsb`; the node width is
    /// the field width.
    Slice {
        /// Source.
        a: WId,
        /// Low bit index in the source.
        lsb: u32,
    },
    /// Q output of register `reg`.
    RegQ {
        /// Index into [`Netlist::regs`].
        reg: u32,
    },
}

/// A word-level node.
#[derive(Debug, Clone, PartialEq)]
pub struct WNode {
    /// Operation.
    pub kind: WKind,
    /// Bit width (1..=64).
    pub width: u32,
}

/// A word-level register — this *is* an RTL "sequential signal" in the
/// paper's sense (e.g. `reg [7:0] R1`). Its bits become the bit-wise
/// endpoints of the timing model.
#[derive(Debug, Clone, PartialEq)]
pub struct WReg {
    /// Hierarchical name (e.g. `u0.state`).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// The `RegQ` node reading this register.
    pub q: WId,
    /// Next-state value (D input), valid after elaboration.
    pub next: WId,
    /// Reset/initial value.
    pub init: u64,
    /// 1-based declaration line in the module that declared it.
    pub decl_line: u32,
    /// Whether the register was declared in the top module (directly
    /// annotatable on the top source file).
    pub top_level: bool,
}

/// Mask with the low `w` bits set.
pub fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// One elaboration scope: a module instance in the flattened hierarchy.
/// Scope 0 is the top module; every other scope points at the scope whose
/// instantiation created it, so the ancestor chain recovers the module
/// names a node's elaboration depended on (texts below via the dependency
/// graph, parameters above via the instantiating parents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeInfo {
    /// Name of the module elaborated in this scope.
    pub module: String,
    /// Scope that instantiated this one (`None` for the top).
    pub parent: Option<u32>,
}

/// A flat word-level netlist.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Top module name.
    pub name: String,
    pub(crate) nodes: Vec<WNode>,
    /// Primary input nodes in port order.
    pub(crate) inputs: Vec<WId>,
    /// Primary outputs: (port name, driver).
    pub(crate) outputs: Vec<(String, WId)>,
    pub(crate) regs: Vec<WReg>,
    /// Module-instance scopes; index 0 is the top module.
    pub(crate) scopes: Vec<ScopeInfo>,
    /// Creating scope of each node (aligned with `nodes`).
    pub(crate) node_scope: Vec<u32>,
}

impl Netlist {
    /// Node accessor.
    pub fn node(&self, id: WId) -> &WNode {
        &self.nodes[id as usize]
    }

    /// All nodes (including any unreachable leftovers from elaboration).
    pub fn nodes(&self) -> &[WNode] {
        &self.nodes
    }

    /// Registers — the design's RTL sequential signals.
    pub fn regs(&self) -> &[WReg] {
        &self.regs
    }

    /// Module-instance scopes of the flattened hierarchy (index 0 = top).
    pub fn scopes(&self) -> &[ScopeInfo] {
        &self.scopes
    }

    /// The scope that created node `id`.
    pub fn node_scope(&self, id: WId) -> u32 {
        self.node_scope[id as usize]
    }

    /// Module names along a scope's ancestor chain (scope's own module
    /// first, top last). A node's elaboration is a function of these
    /// modules' sources plus their dependency closures.
    pub fn scope_module_chain(&self, mut scope: u32) -> Vec<&str> {
        let mut chain = Vec::new();
        loop {
            let s = &self.scopes[scope as usize];
            chain.push(s.module.as_str());
            match s.parent {
                Some(p) => scope = p,
                None => return chain,
            }
        }
    }

    /// Primary inputs in port order.
    pub fn inputs(&self) -> &[WId] {
        &self.inputs
    }

    /// Primary outputs `(name, driver)` in port order.
    pub fn outputs(&self) -> &[(String, WId)] {
        &self.outputs
    }

    /// Input port name of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an `Input` node.
    pub fn input_name(&self, id: WId) -> &str {
        match &self.node(id).kind {
            WKind::Input { name } => name,
            other => panic!("node {id} is not an input: {other:?}"),
        }
    }

    /// Fanin node ids of `id` (registers' Q nodes have no combinational
    /// fanin; their `next` pointer is reached via [`Self::roots`]).
    pub fn fanins(&self, id: WId) -> Vec<WId> {
        match &self.node(id).kind {
            WKind::Input { .. } | WKind::Const { .. } | WKind::Net { .. } | WKind::RegQ { .. } => {
                Vec::new()
            }
            WKind::Unary { a, .. } | WKind::Slice { a, .. } => vec![*a],
            WKind::Binary { a, b, .. } => vec![*a, *b],
            WKind::Mux { cond, t, f } => vec![*cond, *t, *f],
            WKind::Concat { parts } => parts.clone(),
        }
    }

    /// Evaluation roots: primary outputs plus every register's next-state.
    pub fn roots(&self) -> Vec<WId> {
        self.outputs
            .iter()
            .map(|(_, id)| *id)
            .chain(self.regs.iter().map(|r| r.next))
            .collect()
    }

    /// Topological order over all nodes reachable from the roots
    /// (fanins first). Register Q nodes and inputs appear as leaves.
    ///
    /// # Panics
    ///
    /// Panics on a combinational cycle (elaboration guarantees none).
    pub fn topo_order(&self) -> Vec<WId> {
        let mut state = vec![0u8; self.nodes.len()]; // 0 unseen, 1 open, 2 done
        let mut order = Vec::new();
        let mut stack: Vec<(WId, usize)> = Vec::new();
        for root in self.roots() {
            if state[root as usize] == 2 {
                continue;
            }
            stack.push((root, 0));
            state[root as usize] = 1;
            while let Some(top) = stack.last_mut() {
                let id = top.0;
                let fis = self.fanins(id);
                if top.1 < fis.len() {
                    let f = fis[top.1];
                    top.1 += 1;
                    match state[f as usize] {
                        0 => {
                            state[f as usize] = 1;
                            stack.push((f, 0));
                        }
                        1 => panic!("combinational cycle at node {f}"),
                        _ => {}
                    }
                } else {
                    state[id as usize] = 2;
                    order.push(id);
                    stack.pop();
                }
            }
        }
        order
    }

    /// Counts of reachable nodes by coarse category:
    /// `(word ops, constants, inputs, registers)`.
    pub fn stats(&self) -> NetlistStats {
        let order = self.topo_order();
        let mut s = NetlistStats::default();
        for &id in &order {
            match &self.node(id).kind {
                WKind::Input { .. } => s.inputs += 1,
                WKind::Const { .. } => s.consts += 1,
                WKind::RegQ { .. } => {}
                WKind::Net { .. } => {}
                _ => s.ops += 1,
            }
        }
        s.regs = self.regs.len();
        s.reg_bits = self.regs.iter().map(|r| r.width as usize).sum();
        s
    }

    /// Builds a reusable functional simulator.
    pub fn simulator(&self) -> WordSim<'_> {
        WordSim::new(self)
    }
}

/// Coarse size statistics of a netlist.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Reachable word-level operation nodes.
    pub ops: usize,
    /// Reachable constants.
    pub consts: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Word registers (RTL sequential signals).
    pub regs: usize,
    /// Total register bits (bit-wise endpoints).
    pub reg_bits: usize,
}

/// Cycle-accurate word-level functional simulator.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), rtlt_verilog::VerilogError> {
/// let n = rtlt_verilog::compile(
///     "module inc(input clk, input [3:0] d, output [3:0] q);
///        reg [3:0] r;
///        always @(posedge clk) r <= d + 4'd1;
///        assign q = r;
///      endmodule",
///     "inc",
/// )?;
/// let mut sim = n.simulator();
/// sim.set_input("d", 6);
/// sim.step();
/// assert_eq!(sim.output("q"), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WordSim<'a> {
    netlist: &'a Netlist,
    order: Vec<WId>,
    values: Vec<u64>,
    reg_state: Vec<u64>,
    input_values: HashMap<String, u64>,
}

impl<'a> WordSim<'a> {
    fn new(netlist: &'a Netlist) -> Self {
        let order = netlist.topo_order();
        let reg_state = netlist
            .regs
            .iter()
            .map(|r| r.init & mask(r.width))
            .collect();
        WordSim {
            netlist,
            order,
            values: vec![0; netlist.nodes.len()],
            reg_state,
            input_values: HashMap::new(),
        }
    }

    /// Sets a primary input for subsequent cycles.
    pub fn set_input(&mut self, name: &str, value: u64) {
        self.input_values.insert(name.to_owned(), value);
    }

    /// Resets registers to their init values.
    pub fn reset(&mut self) {
        for (s, r) in self.reg_state.iter_mut().zip(&self.netlist.regs) {
            *s = r.init & mask(r.width);
        }
    }

    /// Evaluates combinational logic, advances registers by one clock, and
    /// re-settles so outputs reflect the post-edge state.
    pub fn step(&mut self) {
        self.settle();
        let next: Vec<u64> = self
            .netlist
            .regs
            .iter()
            .map(|r| self.values[r.next as usize] & mask(r.width))
            .collect();
        self.reg_state = next;
        self.settle();
    }

    /// Evaluates combinational logic without clocking registers.
    pub fn settle(&mut self) {
        for &id in &self.order {
            let node = &self.netlist.nodes[id as usize];
            let w = node.width;
            let v = match &node.kind {
                WKind::Input { name } => self.input_values.get(name).copied().unwrap_or(0),
                WKind::Const { value } => *value,
                WKind::Net { name } => panic!("unresolved net {name} in simulation"),
                WKind::RegQ { reg } => self.reg_state[*reg as usize],
                WKind::Unary { op, a } => {
                    let av = self.values[*a as usize];
                    let aw = self.netlist.nodes[*a as usize].width;
                    match op {
                        WUnaryOp::Not => !av,
                        WUnaryOp::Neg => av.wrapping_neg(),
                        WUnaryOp::RedAnd => (av == mask(aw)) as u64,
                        WUnaryOp::RedOr => (av != 0) as u64,
                        WUnaryOp::RedXor => (av.count_ones() & 1) as u64,
                    }
                }
                WKind::Binary { op, a, b } => {
                    let av = self.values[*a as usize];
                    let bv = self.values[*b as usize];
                    match op {
                        WBinaryOp::And => av & bv,
                        WBinaryOp::Or => av | bv,
                        WBinaryOp::Xor => av ^ bv,
                        WBinaryOp::Add => av.wrapping_add(bv),
                        WBinaryOp::Sub => av.wrapping_sub(bv),
                        WBinaryOp::Mul => av.wrapping_mul(bv),
                        WBinaryOp::Shl => {
                            if bv >= 64 {
                                0
                            } else {
                                av << bv
                            }
                        }
                        WBinaryOp::Shr => {
                            if bv >= 64 {
                                0
                            } else {
                                av >> bv
                            }
                        }
                        WBinaryOp::Eq => (av == bv) as u64,
                        WBinaryOp::Lt => (av < bv) as u64,
                    }
                }
                WKind::Mux { cond, t, f } => {
                    if self.values[*cond as usize] & 1 == 1 {
                        self.values[*t as usize]
                    } else {
                        self.values[*f as usize]
                    }
                }
                WKind::Concat { parts } => {
                    let mut acc = 0u64;
                    let mut shift = 0u32;
                    for &p in parts {
                        let pw = self.netlist.nodes[p as usize].width;
                        acc |= (self.values[p as usize] & mask(pw)) << shift;
                        shift += pw;
                    }
                    acc
                }
                WKind::Slice { a, lsb } => self.values[*a as usize] >> lsb,
            };
            self.values[id as usize] = v & mask(w);
        }
    }

    /// Reads a primary output after [`Self::settle`]/[`Self::step`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an output port.
    pub fn output(&self, name: &str) -> u64 {
        let (_, id) = self
            .netlist
            .outputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no output port {name}"));
        self.values[*id as usize]
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;

    #[test]
    fn simulator_counter_counts() {
        let n = compile(
            "module c(input clk, input rst, output [3:0] q);
               reg [3:0] cnt;
               always @(posedge clk)
                 if (rst) cnt <= 4'd0; else cnt <= cnt + 4'd1;
               assign q = cnt;
             endmodule",
            "c",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("rst", 1);
        sim.step();
        sim.set_input("rst", 0);
        for _ in 0..5 {
            sim.step();
        }
        sim.settle();
        assert_eq!(sim.output("q"), 5);
    }

    #[test]
    fn wrapping_arithmetic_masks_to_width() {
        let n = compile(
            "module a(input [3:0] x, input [3:0] y, output [3:0] s);
               assign s = x + y;
             endmodule",
            "a",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("x", 12);
        sim.set_input("y", 9);
        sim.settle();
        assert_eq!(sim.output("s"), (12 + 9) & 0xF);
    }

    #[test]
    fn stats_count_endpoints() {
        let n = compile(
            "module s(input clk, input [7:0] d, output [7:0] q);
               reg [7:0] a;
               reg [7:0] b;
               always @(posedge clk) begin a <= d; b <= a; end
               assign q = b;
             endmodule",
            "s",
        )
        .unwrap();
        let st = n.stats();
        assert_eq!(st.regs, 2);
        assert_eq!(st.reg_bits, 16);
    }
}
