//! The folding operator constructors, written once over a node table.
//!
//! [`BogBuilder`](crate::BogBuilder) grows a graph through them, and
//! [`VariantCensus`](crate::VariantCensus) keeps a reference-counted table
//! through them, so both apply the same folds and the same per-variant
//! decompositions: a census tallies exactly the nodes a conversion builds.

use crate::graph::{BogOp, BogVariant, NodeId, NO_NODE};

/// A node table the constructors below build on: it answers what a node
/// is and interns the operator applications they request.
pub(crate) trait Strash {
    /// The variant whose alphabet the table builds in.
    fn variant(&self) -> BogVariant;
    /// The operator of node `id`.
    fn node_op(&self, id: NodeId) -> BogOp;
    /// The first fanin of node `id`.
    fn node_fanin0(&self, id: NodeId) -> NodeId;
    /// The shared constant node of value `v`.
    fn konst(&mut self, v: bool) -> NodeId;
    /// The interned inverter of `a`, with no folds.
    fn intern_not(&mut self, a: NodeId) -> NodeId;
    /// The interned application of a 2- or 3-input operator, with no
    /// folds.
    fn intern(&mut self, op: BogOp, fanins: [NodeId; 3]) -> NodeId;
}

fn is_not_of<S: Strash>(s: &S, maybe_not: NodeId, a: NodeId) -> bool {
    s.node_op(maybe_not) == BogOp::Not && s.node_fanin0(maybe_not) == a
}

/// Inverter with folds.
pub(crate) fn not<S: Strash>(s: &mut S, a: NodeId) -> NodeId {
    match s.node_op(a) {
        BogOp::Const0 => s.konst(true),
        BogOp::Const1 => s.konst(false),
        BogOp::Not => s.node_fanin0(a),
        _ => s.intern_not(a),
    }
}

/// 2-input AND with folds.
pub(crate) fn and2<S: Strash>(s: &mut S, a: NodeId, b: NodeId) -> NodeId {
    let (a, b) = (a.min(b), a.max(b));
    if a == b {
        return a;
    }
    match (s.node_op(a), s.node_op(b)) {
        (BogOp::Const0, _) | (_, BogOp::Const0) => return s.konst(false),
        (BogOp::Const1, _) => return b,
        (_, BogOp::Const1) => return a,
        _ => {}
    }
    if is_not_of(s, a, b) || is_not_of(s, b, a) {
        return s.konst(false);
    }
    s.intern(BogOp::And2, [a, b, NO_NODE])
}

/// 2-input OR with folds.
pub(crate) fn or2<S: Strash>(s: &mut S, a: NodeId, b: NodeId) -> NodeId {
    if !s.variant().allows(BogOp::Or2) {
        // Decompose per variant.
        return match s.variant() {
            BogVariant::Aig => {
                let na = not(s, a);
                let nb = not(s, b);
                let n = and2(s, na, nb);
                not(s, n)
            }
            BogVariant::Aimg => {
                let one = s.konst(true);
                mux2(s, a, one, b)
            }
            BogVariant::Xag => {
                let x = xor2(s, a, b);
                let n = and2(s, a, b);
                xor2(s, x, n)
            }
            BogVariant::Sog => unreachable!(),
        };
    }
    let (a, b) = (a.min(b), a.max(b));
    if a == b {
        return a;
    }
    match (s.node_op(a), s.node_op(b)) {
        (BogOp::Const1, _) | (_, BogOp::Const1) => return s.konst(true),
        (BogOp::Const0, _) => return b,
        (_, BogOp::Const0) => return a,
        _ => {}
    }
    if is_not_of(s, a, b) || is_not_of(s, b, a) {
        return s.konst(true);
    }
    s.intern(BogOp::Or2, [a, b, NO_NODE])
}

/// 2-input XOR with folds.
pub(crate) fn xor2<S: Strash>(s: &mut S, a: NodeId, b: NodeId) -> NodeId {
    if !s.variant().allows(BogOp::Xor2) {
        return match s.variant() {
            BogVariant::Aig => {
                // a^b = !( !(a & !b) & !(!a & b) )
                let nb = not(s, b);
                let t1 = and2(s, a, nb);
                let na = not(s, a);
                let t2 = and2(s, na, b);
                let n1 = not(s, t1);
                let n2 = not(s, t2);
                let n = and2(s, n1, n2);
                not(s, n)
            }
            BogVariant::Aimg => {
                let nb = not(s, b);
                mux2(s, a, nb, b)
            }
            _ => unreachable!(),
        };
    }
    let (a, b) = (a.min(b), a.max(b));
    if a == b {
        return s.konst(false);
    }
    match (s.node_op(a), s.node_op(b)) {
        (BogOp::Const0, _) => return b,
        (_, BogOp::Const0) => return a,
        (BogOp::Const1, _) => return not(s, b),
        (_, BogOp::Const1) => return not(s, a),
        _ => {}
    }
    if is_not_of(s, a, b) || is_not_of(s, b, a) {
        return s.konst(true);
    }
    s.intern(BogOp::Xor2, [a, b, NO_NODE])
}

/// 2:1 mux `s ? t : f` with folds.
pub(crate) fn mux2<S: Strash>(s: &mut S, sel: NodeId, t: NodeId, f: NodeId) -> NodeId {
    if !s.variant().allows(BogOp::Mux2) {
        return match s.variant() {
            BogVariant::Aig => {
                let a1 = and2(s, sel, t);
                let ns = not(s, sel);
                let a2 = and2(s, ns, f);
                let n1 = not(s, a1);
                let n2 = not(s, a2);
                let n = and2(s, n1, n2);
                not(s, n)
            }
            BogVariant::Xag => {
                // s?t:f = f ^ (s & (t ^ f))
                let x = xor2(s, t, f);
                let g = and2(s, sel, x);
                xor2(s, f, g)
            }
            _ => unreachable!(),
        };
    }
    match s.node_op(sel) {
        BogOp::Const1 => return t,
        BogOp::Const0 => return f,
        _ => {}
    }
    if t == f {
        return t;
    }
    if s.node_op(t) == BogOp::Const1 && s.node_op(f) == BogOp::Const0 {
        return sel;
    }
    if s.node_op(t) == BogOp::Const0 && s.node_op(f) == BogOp::Const1 {
        return not(s, sel);
    }
    s.intern(BogOp::Mux2, [sel, t, f])
}
