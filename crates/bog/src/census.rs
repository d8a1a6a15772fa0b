//! A resident census of the converted variants of an edited SOG.
//!
//! The design-level features of a variant (paper Table 2: sequential,
//! combinational and total cell counts, and the deepest logic level) are
//! counts over the graph [`Bog::to_variant`] builds. Conversion interns
//! every application it requests and never drops one, so that graph's
//! nodes are the union, over the SOG's nodes, of what each node's
//! constructor requests — a function of the SOG nodes' *structures*, not
//! of their ids. A [`VariantCensus`] keeps that union resident for the
//! AIG, AIMG and XAG, each entry counted once per SOG structure that
//! requests it, and moves to the next revision by converting only the SOG
//! structures the revision added and releasing the ones it dropped. An
//! edit to one lane costs one hash lookup per SOG node plus the
//! conversion of what it changed, instead of three whole-design
//! conversions.

use crate::fold::{self, Strash};
use crate::graph::{Bog, BogOp, BogVariant, NodeId, StrashKey, StrashKeys, NO_NODE};
use crate::stats::BogStats;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;

/// The variants a census counts (the SOG is its own SOG variant).
pub(crate) const CENSUS_VARIANTS: [BogVariant; 3] =
    [BogVariant::Aig, BogVariant::Aimg, BogVariant::Xag];

/// Most applications one SOG node's constructor requests (an AIG XOR).
const MAX_REQUESTS: usize = 8;

/// The node counts of a converted graph that the design-level features
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCounts {
    /// DFF count (sequential cells).
    pub dff: usize,
    /// Combinational operator count.
    pub comb_total: usize,
    /// Deepest logic level.
    pub max_level: u32,
}

impl CellCounts {
    /// Sequential plus combinational cells.
    pub fn total_cells(&self) -> usize {
        self.dff + self.comb_total
    }
}

impl From<&BogStats> for CellCounts {
    fn from(s: &BogStats) -> CellCounts {
        CellCounts {
            dff: s.dff,
            comb_total: s.comb_total,
            max_level: s.max_level,
        }
    }
}

/// One interned application of a variant table.
#[derive(Debug, Clone, Copy)]
struct Entry {
    op: BogOp,
    fanins: [NodeId; 3],
    level: u32,
    /// Requests of the SOG structures present (0 = free slot).
    refs: u32,
}

/// The applications one SOG structure's constructor requested.
#[derive(Debug, Clone, Copy, Default)]
struct Requests {
    ids: [NodeId; MAX_REQUESTS],
    len: u8,
}

impl Requests {
    fn as_slice(&self) -> &[NodeId] {
        &self.ids[..self.len as usize]
    }
}

/// The reference-counted node table of one variant. Ids 0 and 1 are the
/// shared constants, which are never counted or released.
#[derive(Debug)]
struct Tally {
    variant: BogVariant,
    /// Interned operators and leaves; inverters sit in `slots.not_of`.
    table: HashMap<StrashKey, NodeId, StrashKeys>,
    slots: Slots,
    /// What the constructor running now has requested.
    log: Requests,
}

/// A tally's entries and what it counts over them.
#[derive(Debug)]
struct Slots {
    nodes: Vec<Entry>,
    /// The interned inverter of each entry (`NO_NODE` if none), as in
    /// `BogBuilder`.
    not_of: Vec<NodeId>,
    free: Vec<NodeId>,
    /// Live entries per operator (`BogOp as usize`).
    ops: [usize; 9],
    /// Live combinational entries per logic level.
    by_level: Vec<usize>,
}

const CONST0: NodeId = 0;
const CONST1: NodeId = 1;

impl Slots {
    /// A new entry with no requests yet, in a freed slot if there is one.
    fn alloc(&mut self, op: BogOp, fanins: [NodeId; 3]) -> NodeId {
        let level = if op.is_comb() {
            1 + fanins[..op.arity()]
                .iter()
                .map(|&f| self.nodes[f as usize].level)
                .max()
                .unwrap_or(0)
        } else {
            0
        };
        let entry = Entry {
            op,
            fanins,
            level,
            refs: 0,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = entry;
                id
            }
            None => {
                self.nodes.push(entry);
                self.not_of.push(NO_NODE);
                (self.nodes.len() - 1) as NodeId
            }
        };
        self.ops[op as usize] += 1;
        if op.is_comb() {
            if self.by_level.len() <= level as usize {
                self.by_level.resize(level as usize + 1, 0);
            }
            self.by_level[level as usize] += 1;
        }
        id
    }
}

impl Tally {
    fn new(variant: BogVariant) -> Tally {
        let konst = |op| Entry {
            op,
            fanins: [NO_NODE; 3],
            level: 0,
            refs: u32::MAX,
        };
        Tally {
            variant,
            table: HashMap::with_hasher(StrashKeys::new()),
            slots: Slots {
                nodes: vec![konst(BogOp::Const0), konst(BogOp::Const1)],
                not_of: vec![NO_NODE; 2],
                free: Vec::new(),
                ops: [0; 9],
                by_level: Vec::new(),
            },
            log: Requests::default(),
        }
    }

    /// Counts one request of `id` for the constructor running now.
    fn request(&mut self, id: NodeId) -> NodeId {
        self.slots.nodes[id as usize].refs += 1;
        let log = &mut self.log;
        log.ids[log.len as usize] = id;
        log.len += 1;
        id
    }

    /// Drops one request of each entry in `ids`, freeing those no SOG
    /// structure requests any more. Nothing may be interned while a batch
    /// of releases is under way: a freed slot can still be a fanin of an
    /// entry released later in the same batch.
    fn release(&mut self, ids: &[NodeId]) {
        let slots = &mut self.slots;
        for &id in ids {
            let e = &mut slots.nodes[id as usize];
            e.refs -= 1;
            if e.refs == 0 {
                let e = *e;
                if e.op == BogOp::Not {
                    slots.not_of[e.fanins[0] as usize] = NO_NODE;
                } else {
                    self.table.remove(&StrashKey {
                        op: e.op,
                        fanins: e.fanins,
                    });
                }
                slots.ops[e.op as usize] -= 1;
                if e.op.is_comb() {
                    slots.by_level[e.level as usize] -= 1;
                }
                slots.free.push(id);
            }
        }
    }

    fn counts(&self) -> CellCounts {
        let ops = &self.slots.ops;
        let comb_total = [
            BogOp::Not,
            BogOp::And2,
            BogOp::Or2,
            BogOp::Xor2,
            BogOp::Mux2,
        ]
        .iter()
        .map(|&op| ops[op as usize])
        .sum();
        CellCounts {
            dff: ops[BogOp::Dff as usize],
            comb_total,
            max_level: self
                .slots
                .by_level
                .iter()
                .rposition(|&n| n > 0)
                .unwrap_or(0) as u32,
        }
    }
}

impl Strash for Tally {
    fn variant(&self) -> BogVariant {
        self.variant
    }

    fn node_op(&self, id: NodeId) -> BogOp {
        self.slots.nodes[id as usize].op
    }

    fn node_fanin0(&self, id: NodeId) -> NodeId {
        self.slots.nodes[id as usize].fanins[0]
    }

    fn konst(&mut self, v: bool) -> NodeId {
        if v {
            CONST1
        } else {
            CONST0
        }
    }

    fn intern_not(&mut self, a: NodeId) -> NodeId {
        let id = match self.slots.not_of[a as usize] {
            NO_NODE => {
                let id = self.slots.alloc(BogOp::Not, [a, NO_NODE, NO_NODE]);
                self.slots.not_of[a as usize] = id;
                id
            }
            id => id,
        };
        self.request(id)
    }

    /// Interns `op` over `fanins` and counts the request. A leaf (`Input`
    /// or `Dff`) is interned over its SOG structure id, so every SOG leaf
    /// gets a node of its own, as in a conversion.
    fn intern(&mut self, op: BogOp, fanins: [NodeId; 3]) -> NodeId {
        let id = match self.table.entry(StrashKey { op, fanins }) {
            MapEntry::Occupied(e) => *e.get(),
            MapEntry::Vacant(e) => *e.insert(self.slots.alloc(op, fanins)),
        };
        self.request(id)
    }
}

/// The node counts of [`Bog::to_variant`] for the AIG, AIMG and XAG of a
/// SOG that changes revision by revision (see the module docs).
///
/// SOG nodes are matched across revisions by structure: an operator over
/// its fanins' structures in slot order, a constant by value, and an
/// input or register bit by its ordinal among the inputs or registers in
/// id order. Matching only decides what is reused; the counts are those of
/// the revision passed last either way.
#[derive(Debug)]
pub struct VariantCensus {
    /// SOG structure → structure id.
    index: HashMap<StrashKey, NodeId, StrashKeys>,
    /// Per structure id: its key, the revision it was last seen in (0 =
    /// free slot), and per counted variant its image and requests.
    keys: Vec<StrashKey>,
    seen: Vec<u32>,
    images: Vec<[NodeId; 3]>,
    requests: Vec<[Requests; 3]>,
    free: Vec<NodeId>,
    revision: u32,
    tallies: [Tally; 3],
    /// Structure id of each node of the revision being walked.
    sid_of: Vec<NodeId>,
}

impl Default for VariantCensus {
    fn default() -> VariantCensus {
        VariantCensus::new()
    }
}

impl VariantCensus {
    /// An empty census; the first [`VariantCensus::update`] converts the
    /// whole SOG.
    pub fn new() -> VariantCensus {
        VariantCensus {
            index: HashMap::with_hasher(StrashKeys::new()),
            keys: Vec::new(),
            seen: Vec::new(),
            images: Vec::new(),
            requests: Vec::new(),
            free: Vec::new(),
            revision: 0,
            tallies: CENSUS_VARIANTS.map(Tally::new),
            sid_of: Vec::new(),
        }
    }

    /// Moves the census to `sog`: structures `sog` adds are converted,
    /// structures it no longer holds are released.
    pub fn update(&mut self, sog: &Bog) {
        self.revision += 1;
        let n = sog.len();
        if self.keys.is_empty() {
            // A first revision converts every SOG structure: size the
            // per-structure tables once.
            self.index.reserve(n);
            self.keys.reserve(n);
            self.seen.reserve(n);
            self.images.reserve(n);
            self.requests.reserve(n);
        }
        self.sid_of.clear();
        self.sid_of.resize(n, NO_NODE);
        let listed_in_order = (0..n as NodeId).all(|id| sog.fanins(id).iter().all(|&f| f < id));
        let order: Vec<NodeId> = if listed_in_order {
            (0..n as NodeId).collect()
        } else {
            sog.topo_order()
        };
        let (mut inputs, mut dffs) = (0, 0);
        for id in order {
            let op = sog.node(id).op;
            let mut fanins = [NO_NODE; 3];
            match op {
                BogOp::Input => {
                    fanins[0] = inputs;
                    inputs += 1;
                }
                BogOp::Dff => {
                    fanins[0] = dffs;
                    dffs += 1;
                }
                _ => {
                    for (slot, &f) in fanins.iter_mut().zip(sog.fanins(id)) {
                        *slot = self.sid_of[f as usize];
                    }
                }
            }
            let key = StrashKey { op, fanins };
            let sid = match self.index.get(&key) {
                Some(&sid) => sid,
                None => self.add(key),
            };
            self.seen[sid as usize] = self.revision;
            self.sid_of[id as usize] = sid;
        }
        // Only now release what the revision dropped: every structure it
        // still holds has counted its requests, so no entry it needs is
        // freed, and nothing is interned while slots are being freed.
        for sid in 0..self.keys.len() {
            let seen = self.seen[sid];
            if seen != 0 && seen != self.revision {
                for (tally, requests) in self.tallies.iter_mut().zip(&self.requests[sid]) {
                    tally.release(requests.as_slice());
                }
                self.index.remove(&self.keys[sid]);
                self.seen[sid] = 0;
                self.free.push(sid as NodeId);
            }
        }
    }

    /// Converts one new SOG structure into every counted variant.
    fn add(&mut self, key: StrashKey) -> NodeId {
        let sid = match self.free.pop() {
            Some(sid) => sid,
            None => {
                self.keys.push(key);
                self.seen.push(0);
                self.images.push([NO_NODE; 3]);
                self.requests.push([Requests::default(); 3]);
                (self.keys.len() - 1) as NodeId
            }
        };
        self.keys[sid as usize] = key;
        let f = key.fanins;
        for (vi, t) in self.tallies.iter_mut().enumerate() {
            t.log = Requests::default();
            let m = |x: NodeId| self.images[x as usize][vi];
            let image = match key.op {
                BogOp::Const0 => CONST0,
                BogOp::Const1 => CONST1,
                BogOp::Input | BogOp::Dff => t.intern(key.op, [sid, NO_NODE, NO_NODE]),
                BogOp::Not => fold::not(t, m(f[0])),
                BogOp::And2 => fold::and2(t, m(f[0]), m(f[1])),
                BogOp::Or2 => fold::or2(t, m(f[0]), m(f[1])),
                BogOp::Xor2 => fold::xor2(t, m(f[0]), m(f[1])),
                BogOp::Mux2 => fold::mux2(t, m(f[0]), m(f[1]), m(f[2])),
            };
            self.images[sid as usize][vi] = image;
            self.requests[sid as usize][vi] = t.log;
        }
        self.index.insert(key, sid);
        sid
    }

    /// The counts of `variant`'s conversion of the last revision passed
    /// to [`VariantCensus::update`].
    ///
    /// # Panics
    ///
    /// If `variant` is the SOG, which a census does not count.
    pub fn counts(&self, variant: BogVariant) -> CellCounts {
        let vi = CENSUS_VARIANTS
            .iter()
            .position(|&v| v == variant)
            .expect("a census counts the AIG, AIMG and XAG");
        self.tallies[vi].counts()
    }

    /// Live entries of `op` in `variant`'s table.
    #[cfg(test)]
    pub(crate) fn op_count(&self, variant: BogVariant, op: BogOp) -> usize {
        let vi = CENSUS_VARIANTS.iter().position(|&v| v == variant).unwrap();
        self.tallies[vi].slots.ops[op as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::blast;
    use rtlt_verilog::compile;

    /// Two lanes over the same input; `lane_b` starts out as a copy of
    /// lane A, so the SOG shares their logic.
    fn design(lane_b: &str) -> Bog {
        let src = format!(
            "module m(input clk, input [7:0] x, output [7:0] q);
               reg [7:0] a;
               reg [7:0] b;
               always @(posedge clk) a <= (x ^ (x >> 1)) + (x | 8'h5a);
               always @(posedge clk) b <= {lane_b};
               assign q = a & b;
             endmodule"
        );
        blast(&compile(&src, "m").expect("compiles"))
    }

    fn assert_counts_fresh(census: &VariantCensus, sog: &Bog) {
        for variant in CENSUS_VARIANTS {
            let fresh = sog.to_variant(variant).stats();
            assert_eq!(
                census.counts(variant),
                CellCounts::from(&fresh),
                "{variant}"
            );
        }
    }

    #[test]
    fn edits_that_split_and_rejoin_shared_logic_count_like_a_conversion() {
        let shared = "(x ^ (x >> 1)) + (x | 8'h5a)";
        let revisions = [
            shared,
            "(x ^ (x >> 1)) - (x | 8'h5a)",
            "x ? (x << 2) : ~x",
            shared,
            "(x ^ (x >> 2)) + (x | 8'h5a)",
            "8'd0",
            shared,
        ];
        let mut census = VariantCensus::new();
        for lane_b in revisions {
            let sog = design(lane_b);
            census.update(&sog);
            assert_counts_fresh(&census, &sog);
        }
    }

    #[test]
    fn a_revision_passed_twice_changes_nothing() {
        let sog = design("x + 8'd3");
        let mut census = VariantCensus::new();
        census.update(&sog);
        let slots = |c: &VariantCensus| c.tallies.iter().map(|t| t.slots.nodes.len()).collect();
        let before: Vec<usize> = slots(&census);
        census.update(&sog);
        assert_eq!(slots(&census), before);
        assert!(census.tallies.iter().all(|t| t.slots.free.is_empty()));
        assert_counts_fresh(&census, &sog);
    }
}
