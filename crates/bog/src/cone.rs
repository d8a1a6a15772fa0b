//! Endpoint input cones.
//!
//! The register-oriented processing of the paper (§3.2) backtracks from each
//! endpoint to all driving registers — the endpoint's *input cone* `C`. The
//! cone's driving-register count sizes the random path sample `K_i` and is
//! itself a model feature (Table 2).
//!
//! [`extract_signal_cone`] additionally materializes a signal's combined
//! input cone as a standalone, canonically-numbered sub-graph — the unit of
//! the sharded featurize cache: two designs (or two edits of one design)
//! whose cone-feeding modules are unchanged extract byte-identical
//! sub-graphs, regardless of how node ids shifted in the full design.

use crate::graph::{Bog, BogBuilder, BogOp, NodeId, PortIndex, NO_NODE};
use rtlt_store::{Codec, ContentHash, Enc};

/// Summary of an endpoint's combinational input cone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConeInfo {
    /// Distinct register Q pins driving the endpoint.
    pub driving_regs: usize,
    /// Distinct primary-input bits driving the endpoint.
    pub driving_inputs: usize,
    /// Combinational operator count inside the cone.
    pub size: usize,
    /// Logic depth (operator count on the longest path) of the cone.
    pub depth: u32,
}

/// Computes the input cone of the node `endpoint` (usually a register D pin
/// or output driver) by backward traversal.
pub fn input_cone(bog: &Bog, endpoint: NodeId) -> ConeInfo {
    let mut scratch = ConeScratch::new();
    scratch.begin(bog);
    input_cone_scratch(bog, endpoint, &mut scratch)
}

/// Reusable tables for repeated [`input_cone_scratch`] queries against one
/// graph: a stamped visited set (O(touched) reset between endpoints) and
/// the longest-path memo, which is endpoint-independent and therefore
/// shared by every endpoint of the graph.
#[derive(Debug, Default)]
pub struct ConeScratch {
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    depth_memo: Vec<Option<u32>>,
}

impl ConeScratch {
    /// A fresh, unbound scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebinds the scratch to `bog`. Must be called before the first
    /// [`input_cone_scratch`] query against a graph and again whenever the
    /// graph changes — the depth memo is only valid for one graph.
    pub fn begin(&mut self, bog: &Bog) {
        self.seen.clear();
        self.seen.resize(bog.len(), 0);
        self.epoch = 0;
        self.stack.clear();
        self.depth_memo.clear();
        self.depth_memo.resize(bog.len(), None);
    }
}

/// [`input_cone`] against caller-owned scratch tables — identical result,
/// no per-query allocation. The scratch must have been [`ConeScratch::begin`]-bound
/// to `bog`.
pub fn input_cone_scratch(bog: &Bog, endpoint: NodeId, s: &mut ConeScratch) -> ConeInfo {
    debug_assert_eq!(s.seen.len(), bog.len(), "scratch bound to another graph");
    let mut info = ConeInfo::default();
    s.epoch += 1;
    let epoch = s.epoch;
    s.stack.clear();
    s.stack.push(endpoint);
    while let Some(id) = s.stack.pop() {
        if s.seen[id as usize] == epoch {
            continue;
        }
        s.seen[id as usize] = epoch;
        let node = bog.node(id);
        match node.op {
            BogOp::Dff => info.driving_regs += 1,
            BogOp::Input => info.driving_inputs += 1,
            BogOp::Const0 | BogOp::Const1 => {}
            _ => {
                info.size += 1;
                for &f in bog.fanins(id) {
                    if s.seen[f as usize] != epoch {
                        s.stack.push(f);
                    }
                }
            }
        }
    }
    info.depth = cone_depth(bog, endpoint, &mut s.depth_memo);
    info
}

/// **Structural** fingerprint of a canonically-extracted cone: the hash of
/// its graph structure — operators, fanins, register wiring, port node ids,
/// signal widths — with every name string (design, signal, input, output)
/// and declaration line excluded.
///
/// [`extract_signal_cone`]'s fixed traversal makes the rebuilt node/reg
/// arrays a pure function of structure, so two signals with isomorphic
/// cones (bit lanes of one word, replicated generated blocks) collide here
/// even though their full codec bytes differ in the name strings. Timing
/// evaluation never reads a name, which is what makes the fingerprint a
/// sound sharing key for seed-independent cone evaluations; anything
/// name-dependent (the per-seed shard cache, provenance) must keep using
/// the full content hash of [`Codec::to_bytes`].
pub fn cone_fingerprint(cone: &Bog) -> ContentHash {
    let mut e = Enc::new();
    cone.variant.encode(&mut e);
    e.seq_len(cone.nodes.len());
    for n in &cone.nodes {
        n.encode(&mut e);
    }
    e.seq_len(cone.inputs.len());
    for (_, id) in &cone.inputs {
        e.u32(*id);
    }
    e.seq_len(cone.outputs.len());
    for (_, id) in &cone.outputs {
        e.u32(*id);
    }
    e.seq_len(cone.regs.len());
    for r in &cone.regs {
        r.encode(&mut e);
    }
    e.seq_len(cone.signals.len());
    for s in &cone.signals {
        e.u32(s.width);
        s.regs.encode(&mut e);
    }
    ContentHash::of_bytes(&e.into_bytes())
}

fn cone_depth(bog: &Bog, id: NodeId, memo: &mut [Option<u32>]) -> u32 {
    // Iterative post-order longest path to a source.
    let mut stack = vec![(id, false)];
    while let Some((n, expanded)) = stack.pop() {
        if memo[n as usize].is_some() {
            continue;
        }
        let node = bog.node(n);
        if !node.op.is_comb() {
            memo[n as usize] = Some(0);
            continue;
        }
        if expanded {
            let m = bog
                .fanins(n)
                .iter()
                .map(|&f| memo[f as usize].expect("child computed"))
                .max()
                .unwrap_or(0);
            memo[n as usize] = Some(m + 1);
        } else {
            stack.push((n, true));
            for &f in bog.fanins(n) {
                if memo[f as usize].is_none() {
                    stack.push((f, false));
                }
            }
        }
    }
    memo[id as usize].expect("computed")
}

/// Extracts the combined input cone of one RTL signal (all its bit
/// endpoints) as a standalone [`Bog`] in **canonical numbering**.
///
/// The sub-graph is rebuilt through a fresh [`BogBuilder`] in a fixed
/// traversal order (bit 0's D cone first, fanins in slot order), so its
/// encoded bytes are a pure function of the cone's *structure*: node ids of
/// the source graph never leak in. Boundary elements become local sources:
///
/// * driving registers turn into 1-bit self-holding DFFs named
///   `signal[bit]` (launch timing is clk→Q, independent of D),
/// * primary inputs and constants keep their identity.
///
/// The target signal's registers come first (builder regs `0..width`), so a
/// per-endpoint computation over the sub-graph covers exactly the signal's
/// endpoints by iterating `0..width`.
///
/// Binds whole-graph tables for one cone; extracting many signals of one
/// graph goes through one [`ConeExtractor`] instead.
///
/// # Panics
///
/// Panics if `sig` is out of range.
pub fn extract_signal_cone(bog: &Bog, sig: usize) -> Bog {
    ConeExtractor::new(bog).extract(sig)
}

/// [`extract_signal_cone`] for many signals of one graph: the graph's port
/// index is built once, and the source → cone node map is a dense array
/// whose entries an epoch stamp invalidates between cones, so each
/// extraction costs time in its cone, not in the design.
#[derive(Debug)]
pub struct ConeExtractor<'a> {
    bog: &'a Bog,
    ports: PortIndex,
    /// Cone node of each source node, valid where `stamp == epoch`.
    map: Vec<NodeId>,
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<(NodeId, bool)>,
}

impl<'a> ConeExtractor<'a> {
    /// Tables bound to `bog`.
    pub fn new(bog: &'a Bog) -> ConeExtractor<'a> {
        ConeExtractor {
            bog,
            ports: PortIndex::of(bog),
            map: vec![NO_NODE; bog.len()],
            stamp: vec![0; bog.len()],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// `extract_signal_cone(bog, sig)`, byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if `sig` is out of range.
    pub fn extract(&mut self, sig: usize) -> Bog {
        let bog = self.bog;
        let s = &bog.signals()[sig];
        let mut b = BogBuilder::new(bog.name.clone(), bog.variant);
        let qs = b.signal(s.name.clone(), s.width, s.decl_line, s.top_level);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        for (bit, &ri) in s.regs.iter().enumerate() {
            self.set(bog.regs()[ri as usize].q, qs[bit]);
        }
        // Builder register slots: the target signal occupies 0..width,
        // boundary registers (their Q nodes here) follow in discovery order.
        let mut boundary: Vec<NodeId> = Vec::new();
        for &ri in &s.regs {
            self.translate(&mut b, bog.regs()[ri as usize].d, &mut boundary);
        }
        for (bit, &ri) in s.regs.iter().enumerate() {
            b.set_reg_d(bit, self.get(bog.regs()[ri as usize].d));
        }
        for (k, q) in boundary.into_iter().enumerate() {
            b.set_reg_d(s.width as usize + k, q);
        }
        b.finish()
    }

    fn mapped(&self, n: NodeId) -> bool {
        self.stamp[n as usize] == self.epoch
    }

    fn get(&self, n: NodeId) -> NodeId {
        assert!(self.mapped(n), "node {n} read before it was translated");
        self.map[n as usize]
    }

    fn set(&mut self, n: NodeId, to: NodeId) {
        self.map[n as usize] = to;
        self.stamp[n as usize] = self.epoch;
    }

    /// Rebuilds the not yet translated part of `root`'s cone in `b`,
    /// fanins in slot order.
    fn translate(&mut self, b: &mut BogBuilder, root: NodeId, boundary: &mut Vec<NodeId>) {
        let bog = self.bog;
        self.stack.clear();
        self.stack.push((root, false));
        while let Some((n, expanded)) = self.stack.pop() {
            if self.mapped(n) {
                continue;
            }
            let node = bog.node(n);
            if expanded {
                let f = node.fanins;
                let m = |x: NodeId| self.get(x);
                let new_id = match node.op {
                    BogOp::Not => b.not(m(f[0])),
                    BogOp::And2 => b.and2(m(f[0]), m(f[1])),
                    BogOp::Or2 => b.or2(m(f[0]), m(f[1])),
                    BogOp::Xor2 => b.xor2(m(f[0]), m(f[1])),
                    BogOp::Mux2 => b.mux2(m(f[0]), m(f[1]), m(f[2])),
                    _ => unreachable!("sources handled on first visit"),
                };
                self.set(n, new_id);
                continue;
            }
            let id = match node.op {
                BogOp::Input => b.input(self.ports.input_name(bog, n).unwrap_or("in")),
                BogOp::Const0 => b.const0(),
                BogOp::Const1 => b.const1(),
                BogOp::Dff => {
                    // Boundary register: a 1-bit self-holding launch point
                    // named after the original signal bit.
                    let r = self.ports.reg(bog, n).expect("Dff node is a register Q");
                    let src = &bog.signals()[r.signal as usize];
                    let q =
                        b.signal(format!("{}[{}]", src.name, r.bit), 1, src.decl_line, false)[0];
                    boundary.push(q);
                    q
                }
                _ => {
                    self.stack.push((n, true));
                    // Reverse so fanin slot 0 is translated first.
                    for &f in node.fanins[..node.op.arity()].iter().rev() {
                        if !self.mapped(f) {
                            self.stack.push((f, false));
                        }
                    }
                    continue;
                }
            };
            self.set(n, id);
        }
    }
}

/// Decides whether a signal's [`extract_signal_cone`] comes out identical in
/// two revisions of a design without rebuilding either extraction.
///
/// The extraction reads a cone only through its structure — operators,
/// fanins in slot order, which Q pins are the signal's own — and through
/// the labels it copies: the signal's name, width, line and top-level flag,
/// each boundary register's signal name, bit and line, each input's name.
/// [`ConeMatch::same_signal_cone`] walks both cones in lockstep and pairs
/// their nodes one to one; if the pairing is a bijection that preserves all
/// of these, the two extractions run step for step alike and produce the
/// same bytes. Node ids themselves never matter, so edits elsewhere in the
/// design that shift them do not defeat the match.
#[derive(Debug, Default)]
pub struct ConeMatch {
    old: MatchSide,
    new: MatchSide,
    epoch: u32,
    stack: Vec<(NodeId, NodeId)>,
}

/// Per-graph tables of a [`ConeMatch`].
#[derive(Debug, Default)]
struct MatchSide {
    ports: PortIndex,
    /// The paired node of the other graph, valid where `stamp == epoch`.
    peer: Vec<NodeId>,
    stamp: Vec<u32>,
}

impl MatchSide {
    fn bind(&mut self, bog: &Bog) {
        self.ports = PortIndex::of(bog);
        self.peer.clear();
        self.peer.resize(bog.len(), NodeId::MAX);
        self.stamp.clear();
        self.stamp.resize(bog.len(), 0);
    }

    /// The name [`extract_signal_cone`] gives input node `id`.
    fn input_name<'a>(&self, bog: &'a Bog, id: NodeId) -> &'a str {
        self.ports.input_name(bog, id).unwrap_or("in")
    }

    /// `(signal name, bit, line)` of the register whose Q is `id`.
    fn reg_label<'a>(&self, bog: &'a Bog, id: NodeId) -> Option<(&'a str, u32, u32)> {
        let r = self.ports.reg(bog, id)?;
        let s = &bog.signals()[r.signal as usize];
        Some((&s.name, r.bit, s.decl_line))
    }
}

impl ConeMatch {
    /// Tables bound to the two revisions, `old` and `new`. Queries must
    /// pass the same two graphs.
    pub fn new(old: &Bog, new: &Bog) -> ConeMatch {
        let mut m = ConeMatch::default();
        m.old.bind(old);
        m.new.bind(new);
        m
    }

    /// Whether `extract_signal_cone(new, new_sig)` equals
    /// `extract_signal_cone(old, old_sig)`.
    pub fn same_signal_cone(
        &mut self,
        old: &Bog,
        old_sig: usize,
        new: &Bog,
        new_sig: usize,
    ) -> bool {
        debug_assert_eq!(self.old.stamp.len(), old.len(), "bound to another graph");
        debug_assert_eq!(self.new.stamp.len(), new.len(), "bound to another graph");
        let (so, sn) = (&old.signals()[old_sig], &new.signals()[new_sig]);
        if old.name != new.name
            || old.variant != new.variant
            || so.name != sn.name
            || so.width != sn.width
            || so.decl_line != sn.decl_line
            || so.top_level != sn.top_level
        {
            return false;
        }
        self.epoch += 1;
        let q = |bog: &Bog, r: u32| bog.regs()[r as usize].q;
        let d = |bog: &Bog, r: u32| bog.regs()[r as usize].d;
        // The signal's own Q pins are pre-mapped by the extraction and
        // never labeled: pair them, but do not expand them.
        for (&ro, &rn) in so.regs.iter().zip(&sn.regs) {
            if !self.pair(q(old, ro), q(new, rn)) {
                return false;
            }
        }
        self.stack.clear();
        for (&ro, &rn) in so.regs.iter().zip(&sn.regs) {
            if !self.pair(d(old, ro), d(new, rn)) {
                return false;
            }
        }
        while let Some((o, n)) = self.stack.pop() {
            let (no, nn) = (old.node(o), new.node(n));
            let same = no.op == nn.op
                && match no.op {
                    BogOp::Input => self.old.input_name(old, o) == self.new.input_name(new, n),
                    BogOp::Const0 | BogOp::Const1 => true,
                    BogOp::Dff => {
                        let lo = self.old.reg_label(old, o);
                        lo.is_some() && lo == self.new.reg_label(new, n)
                    }
                    op => (0..op.arity()).all(|k| self.pair(no.fanins[k], nn.fanins[k])),
                };
            if !same {
                return false;
            }
        }
        true
    }

    /// Pairs `o` with `n`, queueing them for comparison when both are new
    /// to the walk. Fails when either is already paired with another node.
    fn pair(&mut self, o: NodeId, n: NodeId) -> bool {
        let e = self.epoch;
        let (o_seen, n_seen) = (
            self.old.stamp[o as usize] == e,
            self.new.stamp[n as usize] == e,
        );
        if o_seen || n_seen {
            return o_seen && n_seen && self.old.peer[o as usize] == n;
        }
        self.old.stamp[o as usize] = e;
        self.old.peer[o as usize] = n;
        self.new.stamp[n as usize] = e;
        self.new.peer[n as usize] = o;
        self.stack.push((o, n));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::blast;
    use crate::graph::Endpoint;
    use rtlt_verilog::compile;

    #[test]
    fn cone_counts_driving_registers() {
        let bog = blast(
            &compile(
                "module m(input clk, input [3:0] a, output [3:0] q);
                   reg [3:0] r1;
                   reg [3:0] r2;
                   always @(posedge clk) begin
                     r1 <= a;
                     r2 <= r1 + a;
                   end
                   assign q = r2;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        // Endpoint of r2 bit 3 depends on all lower r1 bits (ripple carry)
        // and on input bits.
        let sig_r2 = bog.signals().iter().position(|s| s.name == "r2").unwrap();
        let top_bit_reg = bog.signals()[sig_r2].regs[3] as usize;
        let ep = bog.regs()[top_bit_reg].d;
        let cone = input_cone(&bog, ep);
        assert!(cone.driving_regs >= 4, "cone regs {}", cone.driving_regs);
        assert!(cone.driving_inputs >= 4);
        assert!(cone.size > 0 && cone.depth > 0);
        // Lower bits have smaller cones.
        let low_bit_reg = bog.signals()[sig_r2].regs[0] as usize;
        let low = input_cone(&bog, bog.regs()[low_bit_reg].d);
        assert!(low.size < cone.size);
    }

    #[test]
    fn extracted_cone_preserves_cone_shape() {
        let bog = blast(
            &compile(
                "module m(input clk, input [3:0] a, input [3:0] b, output [3:0] q);
                   reg [3:0] r1;
                   reg [3:0] r2;
                   always @(posedge clk) begin
                     r1 <= a ^ b;
                     r2 <= r1 + (a & r2);
                   end
                   assign q = r2;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        for (sig, s) in bog.signals().iter().enumerate() {
            let sub = extract_signal_cone(&bog, sig);
            assert_eq!(sub.signals()[0].name, s.name);
            assert_eq!(sub.signals()[0].width, s.width);
            for (bit, &ri) in s.regs.iter().enumerate() {
                let global = input_cone(&bog, bog.regs()[ri as usize].d);
                let local = input_cone(&sub, sub.regs()[bit].d);
                assert_eq!(global.driving_regs, local.driving_regs, "{}[{bit}]", s.name);
                assert_eq!(global.driving_inputs, local.driving_inputs);
                assert_eq!(global.size, local.size);
                assert_eq!(global.depth, local.depth);
            }
        }
    }

    #[test]
    fn extraction_is_canonical_across_unrelated_edits() {
        use rtlt_store::Codec;
        let src = |extra: &str| {
            format!(
                "module m(input clk, input [7:0] a, input [7:0] b, output [7:0] q);
                   reg [7:0] keep;
                   reg [7:0] churn;
                   always @(posedge clk) begin
                     keep <= a + b;
                     churn <= {extra};
                   end
                   assign q = keep ^ churn;
                 endmodule"
            )
        };
        let base = blast(&compile(&src("a & b"), "m").unwrap());
        let edited = blast(&compile(&src("(a | b) + churn"), "m").unwrap());
        let sig =
            |bog: &Bog, name: &str| bog.signals().iter().position(|s| s.name == name).unwrap();
        // `keep`'s cone is untouched by the edit: canonical bytes match even
        // though global node ids shifted.
        let a = extract_signal_cone(&base, sig(&base, "keep"));
        let b = extract_signal_cone(&edited, sig(&edited, "keep"));
        assert_eq!(a.to_bytes(), b.to_bytes());
        // `churn`'s cone did change.
        let a = extract_signal_cone(&base, sig(&base, "churn"));
        let b = extract_signal_cone(&edited, sig(&edited, "churn"));
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn cone_match_agrees_with_extraction_bytes() {
        use rtlt_store::Codec;
        let src = |churn: &str, pad: &str| {
            format!(
                "module m(input clk, input [7:0] a, input [7:0] b, output [7:0] q);
                   reg [7:0] keep;{pad}
                   reg [7:0] churn;
                   reg [7:0] acc;
                   always @(posedge clk) begin
                     keep <= a + b;
                     churn <= {churn};
                     acc <= acc ^ (keep & churn);
                   end
                   assign q = acc;
                 endmodule"
            )
        };
        let base = blast(&compile(&src("a & b", ""), "m").unwrap());
        let revisions = [
            src("a & b", ""),
            src("(a | b) + churn", ""),
            src("a ^ b", ""),
            src("b & a", ""),
            // A declaration moved down a line: every later line shifts.
            src("a & b", "\n"),
        ];
        for rev in revisions {
            let edited = blast(&compile(&rev, "m").unwrap());
            let mut m = ConeMatch::new(&base, &edited);
            for (sig, s) in edited.signals().iter().enumerate() {
                let old_sig = base
                    .signals()
                    .iter()
                    .position(|o| o.name == s.name)
                    .unwrap();
                let same = extract_signal_cone(&base, old_sig).to_bytes()
                    == extract_signal_cone(&edited, sig).to_bytes();
                assert_eq!(
                    m.same_signal_cone(&base, old_sig, &edited, sig),
                    same,
                    "{} in {rev}",
                    s.name
                );
            }
        }
        // Different signals of one graph never match each other.
        let mut m = ConeMatch::new(&base, &base);
        assert!(m.same_signal_cone(&base, 0, &base, 0));
        assert!(!m.same_signal_cone(&base, 0, &base, 1));
    }

    #[test]
    fn extractor_clears_its_stamps_when_the_epoch_wraps() {
        use rtlt_store::Codec;
        let bog = blast(
            &compile(
                "module m(input clk, input [3:0] a, output [3:0] q);
                   reg [3:0] r1;
                   reg [3:0] r2;
                   always @(posedge clk) begin
                     r1 <= r1 + a;
                     r2 <= r2 ^ (r1 + a);
                   end
                   assign q = r2;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let fresh = |sig| extract_signal_cone(&bog, sig).to_bytes();
        let mut x = ConeExtractor::new(&bog);
        // Epoch 1 stamps r2's cone, epoch u32::MAX only the part r1 shares,
        // and the wrap comes back to epoch 1 for r2 again.
        assert_eq!(x.extract(1).to_bytes(), fresh(1));
        x.epoch = u32::MAX - 1;
        assert_eq!(x.extract(0).to_bytes(), fresh(0));
        assert_eq!(x.extract(1).to_bytes(), fresh(1));
        assert_eq!(x.epoch, 1);
    }

    #[test]
    fn hold_register_has_empty_cone() {
        let bog = blast(
            &compile(
                "module m(input clk, input d, output q);
                   reg r;
                   always @(posedge clk) r <= r;
                   assign q = r;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let ep = bog.endpoint_node(Endpoint::Reg(0));
        let cone = input_cone(&bog, ep);
        assert_eq!(cone.size, 0);
        assert_eq!(cone.depth, 0);
        assert_eq!(cone.driving_regs, 1);
    }
}
