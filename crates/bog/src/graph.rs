//! BOG node/graph types and the strashing builder.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::fold::{self, Strash};

/// Node identifier inside a [`Bog`].
pub type NodeId = u32;

/// Sentinel for unused fanin slots.
pub const NO_NODE: NodeId = NodeId::MAX;

/// Boolean operator alphabet of the universal BOG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BogOp {
    /// Primary input bit.
    Input,
    /// Constant 0.
    Const0,
    /// Constant 1.
    Const1,
    /// Inverter.
    Not,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input mux; fanins are (sel, t, f).
    Mux2,
    /// D flip-flop (Q output). The D pin lives in [`BogReg::d`].
    Dff,
}

impl BogOp {
    /// Number of used fanin slots.
    pub fn arity(self) -> usize {
        match self {
            BogOp::Input | BogOp::Const0 | BogOp::Const1 | BogOp::Dff => 0,
            BogOp::Not => 1,
            BogOp::And2 | BogOp::Or2 | BogOp::Xor2 => 2,
            BogOp::Mux2 => 3,
        }
    }

    /// Whether this is a combinational operator (counted as a pseudo cell).
    pub fn is_comb(self) -> bool {
        !matches!(
            self,
            BogOp::Input | BogOp::Const0 | BogOp::Const1 | BogOp::Dff
        )
    }
}

impl fmt::Display for BogOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BogOp::Input => "IN",
            BogOp::Const0 => "C0",
            BogOp::Const1 => "C1",
            BogOp::Not => "NOT",
            BogOp::And2 => "AND",
            BogOp::Or2 => "OR",
            BogOp::Xor2 => "XOR",
            BogOp::Mux2 => "MUX",
            BogOp::Dff => "DFF",
        };
        f.write_str(s)
    }
}

/// The four concrete representation variants (paper §3.1 / Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BogVariant {
    /// Simple-operator graph — full alphabet, closest to the mapped netlist.
    Sog,
    /// And-inverter graph.
    Aig,
    /// And-inverter-mux graph.
    Aimg,
    /// Xor-and graph.
    Xag,
}

impl BogVariant {
    /// All variants in the paper's order.
    pub const ALL: [BogVariant; 4] = [
        BogVariant::Sog,
        BogVariant::Aig,
        BogVariant::Aimg,
        BogVariant::Xag,
    ];

    /// Whether `op` is allowed in this variant.
    pub fn allows(self, op: BogOp) -> bool {
        match op {
            BogOp::Or2 => self == BogVariant::Sog,
            BogOp::Xor2 => matches!(self, BogVariant::Sog | BogVariant::Xag),
            BogOp::Mux2 => matches!(self, BogVariant::Sog | BogVariant::Aimg),
            _ => true,
        }
    }
}

impl fmt::Display for BogVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BogVariant::Sog => "SOG",
            BogVariant::Aig => "AIG",
            BogVariant::Aimg => "AIMG",
            BogVariant::Xag => "XAG",
        };
        f.write_str(s)
    }
}

/// A BOG node: operator plus up to three fanins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BogNode {
    /// Operator.
    pub op: BogOp,
    /// Fanins; unused slots are [`NO_NODE`].
    pub fanins: [NodeId; 3],
}

/// A bit-level register (one D flip-flop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BogReg {
    /// The `Dff` node (Q pin).
    pub q: NodeId,
    /// D input driver — the timing endpoint for this bit.
    pub d: NodeId,
    /// Owning RTL signal (index into [`Bog::signals`]).
    pub signal: u32,
    /// Bit position within the signal.
    pub bit: u32,
}

/// An RTL sequential signal (word register) and its bit endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalInfo {
    /// Hierarchical RTL name (e.g. `u0.state`).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Indices into [`Bog::regs`], LSB first.
    pub regs: Vec<u32>,
    /// 1-based declaration line in its module source.
    pub decl_line: u32,
    /// Declared in the top module (directly annotatable).
    pub top_level: bool,
}

/// A timing endpoint: a register D pin or a primary output bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Register endpoint (index into [`Bog::regs`]).
    Reg(u32),
    /// Primary-output endpoint (index into [`Bog::outputs`]).
    Output(u32),
}

/// A bit-level Boolean operator graph.
#[derive(Debug, Clone)]
pub struct Bog {
    /// Design name.
    pub name: String,
    /// Representation variant.
    pub variant: BogVariant,
    pub(crate) nodes: Vec<BogNode>,
    /// Input bit nodes with names like `a[3]`.
    pub(crate) inputs: Vec<(String, NodeId)>,
    /// Output bits with names like `q[0]`.
    pub(crate) outputs: Vec<(String, NodeId)>,
    pub(crate) regs: Vec<BogReg>,
    pub(crate) signals: Vec<SignalInfo>,
}

impl Bog {
    /// Node accessor.
    pub fn node(&self, id: NodeId) -> BogNode {
        self.nodes[id as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[BogNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Input bits `(name, node)`.
    pub fn inputs(&self) -> &[(String, NodeId)] {
        &self.inputs
    }

    /// Output bits `(name, driver node)`.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Bit-level registers.
    pub fn regs(&self) -> &[BogReg] {
        &self.regs
    }

    /// RTL sequential signals.
    pub fn signals(&self) -> &[SignalInfo] {
        &self.signals
    }

    /// Used fanins of a node.
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        let n = &self.nodes[id as usize];
        &n.fanins[..n.op.arity()]
    }

    /// All timing endpoints: register D pins first, then primary outputs.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        (0..self.regs.len() as u32)
            .map(Endpoint::Reg)
            .chain((0..self.outputs.len() as u32).map(Endpoint::Output))
            .collect()
    }

    /// The driver node of an endpoint (register D pin or output bit).
    pub fn endpoint_node(&self, ep: Endpoint) -> NodeId {
        match ep {
            Endpoint::Reg(i) => self.regs[i as usize].d,
            Endpoint::Output(i) => self.outputs[i as usize].1,
        }
    }

    /// Human-readable endpoint name (`signal[bit]` or output bit name).
    pub fn endpoint_name(&self, ep: Endpoint) -> String {
        match ep {
            Endpoint::Reg(i) => {
                let r = &self.regs[i as usize];
                let s = &self.signals[r.signal as usize];
                format!("{}[{}]", s.name, r.bit)
            }
            Endpoint::Output(i) => self.outputs[i as usize].0.clone(),
        }
    }

    /// Topological order of all nodes (fanins before fanouts); `Dff`,
    /// `Input` and constants are sources.
    ///
    /// Kahn's walk: the sources in id order, then each node once its last
    /// fanin is placed, readers of a node visited in id order (a reader
    /// that lists one fanin twice counts it twice). The fanout lists are
    /// one flat array indexed by per-node offsets, and the order doubles as
    /// the walk's queue.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a combinational cycle.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        // `at[f]` first counts f's readers; after the running sum and the
        // back-to-front fill below, f's readers are `fanouts[at[f]..at[f + 1]]`.
        let mut indeg = vec![0u32; n];
        let mut at = vec![0u32; n + 1];
        for id in 0..n as NodeId {
            let fanins = self.fanins(id);
            indeg[id as usize] = fanins.len() as u32;
            for &f in fanins {
                at[f as usize] += 1;
            }
        }
        let mut total = 0u32;
        for a in &mut at {
            total += *a;
            *a = total;
        }
        let mut fanouts = vec![0 as NodeId; total as usize];
        for id in (0..n as NodeId).rev() {
            for &f in self.fanins(id) {
                at[f as usize] -= 1;
                fanouts[at[f as usize] as usize] = id;
            }
        }
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        order.extend((0..n as NodeId).filter(|&i| indeg[i as usize] == 0));
        let mut head = 0;
        while head < order.len() {
            let id = order[head] as usize;
            head += 1;
            for &o in &fanouts[at[id] as usize..at[id + 1] as usize] {
                indeg[o as usize] -= 1;
                if indeg[o as usize] == 0 {
                    order.push(o);
                }
            }
        }
        assert_eq!(order.len(), n, "BOG contains a combinational cycle");
        order
    }

    /// Longest-path logic level of every node (sources = 0, each
    /// combinational operator adds 1).
    pub fn levels(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.levels_into(&mut out);
        out
    }

    /// Writes longest-path logic levels into `out` (cleared and refilled, so
    /// one buffer serves many graphs). A single id-order pass when the graph
    /// lists every fanin before its reader — true for all builder-produced
    /// graphs, including variant conversions and canonically extracted
    /// cones. Other graphs (hand-built or decoded ones) fall back to a pass
    /// in [`Bog::topo_order`]; the levels are the same either way.
    pub fn levels_into(&self, out: &mut Vec<u32>) {
        let n = self.nodes.len();
        out.clear();
        out.reserve(n);
        for id in 0..n as NodeId {
            let node = &self.nodes[id as usize];
            let mut lvl = 0u32;
            if node.op.is_comb() {
                for &f in self.fanins(id) {
                    if f >= id {
                        self.levels_in_topo_order(out);
                        return;
                    }
                    lvl = lvl.max(out[f as usize] + 1);
                }
            }
            out.push(lvl);
        }
    }

    /// [`Bog::levels_into`]'s fallback for graphs that list a fanin after
    /// its reader: the same recurrence, evaluated in Kahn order.
    fn levels_in_topo_order(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.nodes.len(), 0);
        for id in self.topo_order() {
            if self.nodes[id as usize].op.is_comb() {
                let m = self
                    .fanins(id)
                    .iter()
                    .map(|&f| out[f as usize])
                    .max()
                    .unwrap_or(0);
                out[id as usize] = m + 1;
            }
        }
    }

    /// Fanout counts per node.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for id in 0..self.nodes.len() as NodeId {
            for &f in self.fanins(id) {
                counts[f as usize] += 1;
            }
        }
        for r in &self.regs {
            counts[r.d as usize] += 1;
        }
        for (_, o) in &self.outputs {
            counts[*o as usize] += 1;
        }
        counts
    }

    /// Converts to another representation variant (see
    /// [`crate::variants`] rewriting rules).
    pub fn to_variant(&self, variant: BogVariant) -> Bog {
        crate::variants::convert(self, variant)
    }
}

/// Per-graph lookups of the port lists: which register a `Dff` node is
/// the Q pin of and which input-list entry an `Input` node is (the later
/// entry where a graph lists a node twice). Shared by cone extraction,
/// [`crate::ConeMatch`] and variant conversion.
#[derive(Debug, Default)]
pub(crate) struct PortIndex {
    /// Register index of each `Dff` node (`u32::MAX` elsewhere).
    reg_of: Vec<u32>,
    /// Input-list index of each `Input` node (`u32::MAX` elsewhere).
    input_of: Vec<u32>,
}

impl PortIndex {
    /// The index of `bog`.
    pub(crate) fn of(bog: &Bog) -> PortIndex {
        let mut reg_of = vec![u32::MAX; bog.len()];
        for (i, r) in bog.regs.iter().enumerate() {
            reg_of[r.q as usize] = i as u32;
        }
        let mut input_of = vec![u32::MAX; bog.len()];
        for (i, (_, id)) in bog.inputs.iter().enumerate() {
            input_of[*id as usize] = i as u32;
        }
        PortIndex { reg_of, input_of }
    }

    /// The register whose Q pin is `id`, if any.
    pub(crate) fn reg<'a>(&self, bog: &'a Bog, id: NodeId) -> Option<&'a BogReg> {
        bog.regs.get(self.reg_of[id as usize] as usize)
    }

    /// The input-list name of `id`, if it is listed.
    pub(crate) fn input_name<'a>(&self, bog: &'a Bog, id: NodeId) -> Option<&'a str> {
        bog.inputs
            .get(self.input_of[id as usize] as usize)
            .map(|(name, _)| name.as_str())
    }
}

/// The strash table's key: an operator application. It hashes as one
/// packed `u128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StrashKey {
    pub(crate) op: BogOp,
    pub(crate) fanins: [NodeId; 3],
}

impl Hash for StrashKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let f = self.fanins.map(u128::from);
        state.write_u128((self.op as u128) << 96 | f[0] << 64 | f[1] << 32 | f[2]);
    }
}

/// 64 × 64 → 128-bit multiply, high half folded onto the low half.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

/// The strash table's hasher state: two secret words drawn per builder
/// from [`RandomState`], since the keys follow circuit structure a network
/// client controls. The table is only ever probed, never iterated, so the
/// built graph does not depend on the draw.
pub(crate) struct StrashKeys([u64; 2]);

impl StrashKeys {
    pub(crate) fn new() -> StrashKeys {
        let s = RandomState::new();
        StrashKeys([s.hash_one(0u8), s.hash_one(1u8)])
    }
}

impl BuildHasher for StrashKeys {
    type Hasher = StrashHasher;
    fn build_hasher(&self) -> StrashHasher {
        StrashHasher {
            keys: self.0,
            state: 0,
        }
    }
}

/// Keyed folded-multiply hash of one packed strash key.
pub(crate) struct StrashHasher {
    keys: [u64; 2],
    state: u64,
}

impl Hasher for StrashHasher {
    fn write_u128(&mut self, x: u128) {
        let lo = x as u64 ^ self.keys[0];
        let hi = (x >> 64) as u64 ^ self.keys[1];
        self.state = folded_multiply(lo, hi);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a strash key hashes as one u128");
    }

    /// The murmur3 finalizer: every input bit reaches both the low bits
    /// (the bucket) and the top seven (the control byte).
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Strashing graph builder with local constant folding.
///
/// Structural hashing deduplicates identical operator applications and
/// simple folds (`a & 1 = a`, `x ^ x = 0`, double negation, mux with
/// constant select, …) are applied on the fly, mirroring what real RTL
/// frontends do while building netlist-like graphs.
#[derive(Debug)]
pub struct BogBuilder {
    name: String,
    variant: BogVariant,
    nodes: Vec<BogNode>,
    /// Strashed 2- and 3-input operators.
    strash: HashMap<StrashKey, NodeId, StrashKeys>,
    /// The strashed inverter of each node (`NO_NODE` if none yet).
    not_of: Vec<NodeId>,
    inputs: Vec<(String, NodeId)>,
    outputs: Vec<(String, NodeId)>,
    regs: Vec<BogReg>,
    signals: Vec<SignalInfo>,
    const0: Option<NodeId>,
    const1: Option<NodeId>,
}

impl BogBuilder {
    /// Creates an empty builder for a design.
    pub fn new(name: impl Into<String>, variant: BogVariant) -> Self {
        BogBuilder {
            name: name.into(),
            variant,
            nodes: Vec::new(),
            strash: HashMap::with_hasher(StrashKeys::new()),
            not_of: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            regs: Vec::new(),
            signals: Vec::new(),
            const0: None,
            const1: None,
        }
    }

    /// An empty builder with room for a graph the size of `like`.
    pub(crate) fn sized_like(name: impl Into<String>, variant: BogVariant, like: &Bog) -> Self {
        let mut b = BogBuilder::new(name, variant);
        b.nodes.reserve(like.nodes.len());
        b.not_of.reserve(like.nodes.len());
        b.strash.reserve(like.nodes.len());
        b.inputs.reserve(like.inputs.len());
        b.outputs.reserve(like.outputs.len());
        b.regs.reserve(like.regs.len());
        b.signals.reserve(like.signals.len());
        b
    }

    fn raw(&mut self, op: BogOp, fanins: [NodeId; 3]) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(BogNode { op, fanins });
        self.not_of.push(NO_NODE);
        id
    }

    /// Constant 0 node (shared).
    pub fn const0(&mut self) -> NodeId {
        match self.const0 {
            Some(id) => id,
            None => {
                let id = self.raw(BogOp::Const0, [NO_NODE; 3]);
                self.const0 = Some(id);
                id
            }
        }
    }

    /// Constant 1 node (shared).
    pub fn const1(&mut self) -> NodeId {
        match self.const1 {
            Some(id) => id,
            None => {
                let id = self.raw(BogOp::Const1, [NO_NODE; 3]);
                self.const1 = Some(id);
                id
            }
        }
    }

    /// Constant of a boolean value.
    pub fn constant(&mut self, v: bool) -> NodeId {
        if v {
            self.const1()
        } else {
            self.const0()
        }
    }

    /// New primary input bit.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.raw(BogOp::Input, [NO_NODE; 3]);
        self.inputs.push((name.into(), id));
        id
    }

    /// Inverter with folds.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        fold::not(self, a)
    }

    /// 2-input AND with folds.
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        fold::and2(self, a, b)
    }

    /// 2-input OR with folds (decomposed outside the SOG).
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        fold::or2(self, a, b)
    }

    /// 2-input XOR with folds (decomposed in the AIG and AIMG).
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        fold::xor2(self, a, b)
    }

    /// 2-input XNOR helper.
    pub fn xnor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let x = self.xor2(a, b);
        self.not(x)
    }

    /// 2:1 mux `s ? t : f` with folds (decomposed in the AIG and XAG).
    pub fn mux2(&mut self, s: NodeId, t: NodeId, f: NodeId) -> NodeId {
        fold::mux2(self, s, t, f)
    }

    /// Declares an RTL sequential signal of `width` bits, creating one DFF
    /// per bit. Returns the Q node ids (LSB first). D pins are connected
    /// later via [`Self::set_reg_d`].
    pub fn signal(
        &mut self,
        name: impl Into<String>,
        width: u32,
        decl_line: u32,
        top_level: bool,
    ) -> Vec<NodeId> {
        let name = name.into();
        let sig_idx = self.signals.len() as u32;
        let mut qs = Vec::with_capacity(width as usize);
        let mut reg_indices = Vec::with_capacity(width as usize);
        for bit in 0..width {
            let q = self.raw(BogOp::Dff, [NO_NODE; 3]);
            reg_indices.push(self.regs.len() as u32);
            self.regs.push(BogReg {
                q,
                d: NO_NODE,
                signal: sig_idx,
                bit,
            });
            qs.push(q);
        }
        self.signals.push(SignalInfo {
            name,
            width,
            regs: reg_indices,
            decl_line,
            top_level,
        });
        qs
    }

    /// Connects the D pin of register `reg_index`.
    pub fn set_reg_d(&mut self, reg_index: usize, d: NodeId) {
        self.regs[reg_index].d = d;
    }

    /// Declares a primary output bit.
    pub fn output(&mut self, name: impl Into<String>, driver: NodeId) {
        self.outputs.push((name.into(), driver));
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if any register D pin was left unconnected.
    pub fn finish(self) -> Bog {
        for (i, r) in self.regs.iter().enumerate() {
            assert!(r.d != NO_NODE, "register {i} has unconnected D pin");
        }
        Bog {
            name: self.name,
            variant: self.variant,
            nodes: self.nodes,
            inputs: self.inputs,
            outputs: self.outputs,
            regs: self.regs,
            signals: self.signals,
        }
    }

    /// Current number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes exist yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl Strash for BogBuilder {
    fn variant(&self) -> BogVariant {
        self.variant
    }

    fn node_op(&self, id: NodeId) -> BogOp {
        self.nodes[id as usize].op
    }

    fn node_fanin0(&self, id: NodeId) -> NodeId {
        self.nodes[id as usize].fanins[0]
    }

    fn konst(&mut self, v: bool) -> NodeId {
        self.constant(v)
    }

    fn intern_not(&mut self, a: NodeId) -> NodeId {
        match self.not_of[a as usize] {
            NO_NODE => {
                let id = self.raw(BogOp::Not, [a, NO_NODE, NO_NODE]);
                self.not_of[a as usize] = id;
                id
            }
            id => id,
        }
    }

    fn intern(&mut self, op: BogOp, fanins: [NodeId; 3]) -> NodeId {
        match self.strash.entry(StrashKey { op, fanins }) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                e.insert(self.nodes.len() as NodeId);
                self.raw(op, fanins)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_into_matches_levels() {
        let mut b = BogBuilder::new("t", BogVariant::Sog);
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.and2(x, y);
        let g2 = b.xor2(g1, x);
        let g3 = b.mux2(y, g2, g1);
        let _q = b.signal("q", 1, 0, true);
        b.set_reg_d(0, g3);
        let bog = b.finish();
        let mut oracle = Vec::new();
        bog.levels_in_topo_order(&mut oracle);
        assert_eq!(bog.levels(), oracle);
        for variant in BogVariant::ALL {
            let v = bog.to_variant(variant);
            v.levels_in_topo_order(&mut oracle);
            assert_eq!(v.levels(), oracle, "{variant}");
        }
        // Reuse on a second graph must fully overwrite the buffer.
        let mut scratch = bog.levels();
        let mut b2 = BogBuilder::new("t2", BogVariant::Sog);
        let a = b2.input("a");
        let _q2 = b2.signal("q", 1, 0, true);
        b2.set_reg_d(0, a);
        let small = b2.finish();
        small.levels_into(&mut scratch);
        assert_eq!(scratch, vec![0, 0]);
    }

    #[test]
    fn levels_fall_back_when_a_fanin_follows_its_reader() {
        // n0 = x & n2, n1 = !n0, n2 = y & x: n0 reads n2, listed after it.
        let node = |op, fanins| BogNode { op, fanins };
        let bog = Bog {
            name: "t".into(),
            variant: BogVariant::Sog,
            nodes: vec![
                node(BogOp::And2, [3, 2, NO_NODE]),
                node(BogOp::Not, [0, NO_NODE, NO_NODE]),
                node(BogOp::And2, [4, 3, NO_NODE]),
                node(BogOp::Input, [NO_NODE; 3]),
                node(BogOp::Input, [NO_NODE; 3]),
            ],
            inputs: vec![("x".into(), 3), ("y".into(), 4)],
            outputs: vec![("o".into(), 1)],
            regs: Vec::new(),
            signals: Vec::new(),
        };
        assert_eq!(bog.levels(), vec![2, 3, 1, 0, 0]);
        assert_eq!(bog.stats().max_level, 3);
    }

    #[test]
    fn strash_dedupes_identical_gates() {
        let mut b = BogBuilder::new("t", BogVariant::Sog);
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.and2(x, y);
        let g2 = b.and2(y, x); // commutative canonical order
        assert_eq!(g1, g2);
    }

    #[test]
    fn constant_folds() {
        let mut b = BogBuilder::new("t", BogVariant::Sog);
        let x = b.input("x");
        let c1 = b.const1();
        let c0 = b.const0();
        assert_eq!(b.and2(x, c1), x);
        assert_eq!(b.and2(x, c0), c0);
        assert_eq!(b.or2(x, c0), x);
        assert_eq!(b.xor2(x, x), c0);
        let nx = b.not(x);
        assert_eq!(b.not(nx), x);
        assert_eq!(b.and2(x, nx), c0);
        assert_eq!(b.or2(x, nx), b.const1());
    }

    #[test]
    fn mux_folds() {
        let mut b = BogBuilder::new("t", BogVariant::Sog);
        let s = b.input("s");
        let t = b.input("t");
        let f = b.input("f");
        let c1 = b.const1();
        let c0 = b.const0();
        assert_eq!(b.mux2(c1, t, f), t);
        assert_eq!(b.mux2(c0, t, f), f);
        assert_eq!(b.mux2(s, t, t), t);
        assert_eq!(b.mux2(s, c1, c0), s);
    }

    #[test]
    fn variant_gated_construction_avoids_banned_ops() {
        for v in [BogVariant::Aig, BogVariant::Aimg, BogVariant::Xag] {
            let mut b = BogBuilder::new("t", v);
            let x = b.input("x");
            let y = b.input("y");
            let s = b.input("s");
            let o = b.or2(x, y);
            let xo = b.xor2(x, y);
            let m = b.mux2(s, x, y);
            b.output("o", o);
            b.output("x", xo);
            b.output("m", m);
            let g = b.finish();
            for n in g.nodes() {
                assert!(v.allows(n.op), "{v} contains {}", n.op);
            }
        }
    }

    #[test]
    fn signal_creates_bit_endpoints() {
        let mut b = BogBuilder::new("t", BogVariant::Sog);
        let d = b.input("d");
        let qs = b.signal("r", 3, 10, true);
        for (i, _) in qs.iter().enumerate() {
            b.set_reg_d(i, d);
        }
        let g = b.finish();
        assert_eq!(g.regs().len(), 3);
        assert_eq!(g.signals()[0].name, "r");
        assert_eq!(g.endpoint_name(Endpoint::Reg(2)), "r[2]");
    }

    #[test]
    #[should_panic(expected = "unconnected D pin")]
    fn unconnected_d_pin_panics() {
        let mut b = BogBuilder::new("t", BogVariant::Sog);
        b.signal("r", 1, 1, true);
        let _ = b.finish();
    }

    #[test]
    fn topo_order_parents_after_children() {
        let mut b = BogBuilder::new("t", BogVariant::Sog);
        let x = b.input("x");
        let y = b.input("y");
        let a = b.and2(x, y);
        let o = b.or2(a, x);
        b.output("o", o);
        let g = b.finish();
        let order = g.topo_order();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for id in 0..g.len() as NodeId {
            for &f in g.fanins(id) {
                assert!(pos[&f] < pos[&id]);
            }
        }
    }

    #[test]
    fn levels_count_operator_depth() {
        let mut b = BogBuilder::new("t", BogVariant::Sog);
        let x = b.input("x");
        let y = b.input("y");
        let a = b.and2(x, y);
        let c = b.xor2(a, y);
        b.output("c", c);
        let g = b.finish();
        let lv = g.levels();
        assert_eq!(lv[x as usize], 0);
        assert_eq!(lv[a as usize], 1);
        assert_eq!(lv[c as usize], 2);
    }
}
