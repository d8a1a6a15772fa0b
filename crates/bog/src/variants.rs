//! Variant conversion: SOG → AIG / AIMG / XAG.
//!
//! Conversion rebuilds the graph through a variant-gated [`BogBuilder`]: the
//! builder's `or2`/`xor2`/`mux2` constructors decompose banned operators
//! into the target alphabet (with strashing, so shared structure stays
//! shared). All four variants are functionally equivalent by construction —
//! an invariant the test-suite checks by 64-pattern random co-simulation.

use crate::graph::{Bog, BogBuilder, BogOp, BogVariant, NodeId, PortIndex, NO_NODE};

/// Converts `bog` into `variant`, preserving endpoint/signal/output
/// identity and order.
pub fn convert(bog: &Bog, variant: BogVariant) -> Bog {
    if variant == bog.variant {
        return bog.clone();
    }
    let mut b = BogBuilder::sized_like(bog.name.clone(), variant, bog);
    let ports = PortIndex::of(bog);

    // Recreate signals first so register indices line up.
    let mut qs_by_signal: Vec<Vec<NodeId>> = Vec::with_capacity(bog.signals().len());
    for s in bog.signals() {
        qs_by_signal.push(b.signal(s.name.clone(), s.width, s.decl_line, s.top_level));
    }

    let mut map: Vec<NodeId> = vec![NO_NODE; bog.len()];
    // Pre-map DFF Q nodes.
    for r in bog.regs() {
        map[r.q as usize] = qs_by_signal[r.signal as usize][r.bit as usize];
    }

    for id in bog.topo_order() {
        if map[id as usize] != NO_NODE {
            continue;
        }
        let node = bog.node(id);
        let f = node.fanins;
        let m = |x: NodeId| map[x as usize];
        let new_id = match node.op {
            BogOp::Input => match ports.input_name(bog, id) {
                Some(name) => b.input(name),
                None => b.input(format!("in{id}")),
            },
            BogOp::Const0 => b.const0(),
            BogOp::Const1 => b.const1(),
            BogOp::Not => b.not(m(f[0])),
            BogOp::And2 => b.and2(m(f[0]), m(f[1])),
            BogOp::Or2 => b.or2(m(f[0]), m(f[1])),
            BogOp::Xor2 => b.xor2(m(f[0]), m(f[1])),
            BogOp::Mux2 => b.mux2(m(f[0]), m(f[1]), m(f[2])),
            BogOp::Dff => unreachable!("DFFs pre-mapped"),
        };
        map[id as usize] = new_id;
    }

    for (i, r) in bog.regs().iter().enumerate() {
        b.set_reg_d(i, map[r.d as usize]);
    }
    for (name, drv) in bog.outputs() {
        b.output(name.clone(), map[*drv as usize]);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::blast;
    use rtlt_verilog::compile;

    fn sample() -> Bog {
        blast(
            &compile(
                "module m(input clk, input [7:0] a, input [7:0] b, input s, output [7:0] q);
                   reg [7:0] acc;
                   wire [7:0] v;
                   assign v = s ? (a ^ b) : (a | b);
                   always @(posedge clk) acc <= acc + v;
                   assign q = acc;
                 endmodule",
                "m",
            )
            .unwrap(),
        )
    }

    #[test]
    fn variants_respect_alphabet() {
        let sog = sample();
        for v in BogVariant::ALL {
            let g = sog.to_variant(v);
            for n in g.nodes() {
                assert!(v.allows(n.op), "{v} has a {} node", n.op);
            }
            assert_eq!(g.regs().len(), sog.regs().len());
            assert_eq!(g.outputs().len(), sog.outputs().len());
            assert_eq!(g.signals().len(), sog.signals().len());
        }
    }

    #[test]
    fn aig_is_larger_than_sog() {
        let sog = sample();
        let aig = sog.to_variant(BogVariant::Aig);
        assert!(
            aig.stats().comb_total > sog.stats().comb_total,
            "AND/NOT decomposition expands node count"
        );
    }

    #[test]
    fn conversion_to_same_variant_is_identity_clone() {
        let sog = sample();
        let again = sog.to_variant(BogVariant::Sog);
        assert_eq!(again.len(), sog.len());
    }
}
