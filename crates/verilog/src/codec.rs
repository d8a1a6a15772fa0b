//! [`Codec`] implementations for the word-level RTL IR, enabling
//! `rtlt-store` persistence of compiled designs (inside the `blast`
//! artifact). Lives here because [`Netlist`]'s node/reg tables are
//! crate-private; decoding is the one sanctioned way to rebuild a netlist
//! from bytes.

use crate::rtlir::{Netlist, ScopeInfo, WBinaryOp, WKind, WNode, WReg, WUnaryOp};
use rtlt_store::{Codec, CodecError, Dec, Enc};

impl Codec for WUnaryOp {
    fn encode(&self, e: &mut Enc) {
        let tag = match self {
            WUnaryOp::Not => 0u8,
            WUnaryOp::Neg => 1,
            WUnaryOp::RedAnd => 2,
            WUnaryOp::RedOr => 3,
            WUnaryOp::RedXor => 4,
        };
        e.u8(tag);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => WUnaryOp::Not,
            1 => WUnaryOp::Neg,
            2 => WUnaryOp::RedAnd,
            3 => WUnaryOp::RedOr,
            4 => WUnaryOp::RedXor,
            _ => return Err(CodecError::new("WUnaryOp tag")),
        })
    }
}

impl Codec for WBinaryOp {
    fn encode(&self, e: &mut Enc) {
        let tag = match self {
            WBinaryOp::And => 0u8,
            WBinaryOp::Or => 1,
            WBinaryOp::Xor => 2,
            WBinaryOp::Add => 3,
            WBinaryOp::Sub => 4,
            WBinaryOp::Mul => 5,
            WBinaryOp::Shl => 6,
            WBinaryOp::Shr => 7,
            WBinaryOp::Eq => 8,
            WBinaryOp::Lt => 9,
        };
        e.u8(tag);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => WBinaryOp::And,
            1 => WBinaryOp::Or,
            2 => WBinaryOp::Xor,
            3 => WBinaryOp::Add,
            4 => WBinaryOp::Sub,
            5 => WBinaryOp::Mul,
            6 => WBinaryOp::Shl,
            7 => WBinaryOp::Shr,
            8 => WBinaryOp::Eq,
            9 => WBinaryOp::Lt,
            _ => return Err(CodecError::new("WBinaryOp tag")),
        })
    }
}

impl Codec for WKind {
    fn encode(&self, e: &mut Enc) {
        match self {
            WKind::Input { name } => {
                e.u8(0);
                e.str(name);
            }
            WKind::Const { value } => {
                e.u8(1);
                e.u64(*value);
            }
            WKind::Net { name } => {
                e.u8(2);
                e.str(name);
            }
            WKind::Unary { op, a } => {
                e.u8(3);
                op.encode(e);
                e.u32(*a);
            }
            WKind::Binary { op, a, b } => {
                e.u8(4);
                op.encode(e);
                e.u32(*a);
                e.u32(*b);
            }
            WKind::Mux { cond, t, f } => {
                e.u8(5);
                e.u32(*cond);
                e.u32(*t);
                e.u32(*f);
            }
            WKind::Concat { parts } => {
                e.u8(6);
                parts.encode(e);
            }
            WKind::Slice { a, lsb } => {
                e.u8(7);
                e.u32(*a);
                e.u32(*lsb);
            }
            WKind::RegQ { reg } => {
                e.u8(8);
                e.u32(*reg);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => WKind::Input { name: d.str()? },
            1 => WKind::Const { value: d.u64()? },
            2 => WKind::Net { name: d.str()? },
            3 => WKind::Unary {
                op: WUnaryOp::decode(d)?,
                a: d.u32()?,
            },
            4 => WKind::Binary {
                op: WBinaryOp::decode(d)?,
                a: d.u32()?,
                b: d.u32()?,
            },
            5 => WKind::Mux {
                cond: d.u32()?,
                t: d.u32()?,
                f: d.u32()?,
            },
            6 => WKind::Concat {
                parts: Vec::decode(d)?,
            },
            7 => WKind::Slice {
                a: d.u32()?,
                lsb: d.u32()?,
            },
            8 => WKind::RegQ { reg: d.u32()? },
            _ => return Err(CodecError::new("WKind tag")),
        })
    }
}

impl Codec for WNode {
    fn encode(&self, e: &mut Enc) {
        self.kind.encode(e);
        e.u32(self.width);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(WNode {
            kind: WKind::decode(d)?,
            width: d.u32()?,
        })
    }
}

impl Codec for WReg {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.name);
        e.u32(self.width);
        e.u32(self.q);
        e.u32(self.next);
        e.u64(self.init);
        e.u32(self.decl_line);
        e.bool(self.top_level);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(WReg {
            name: d.str()?,
            width: d.u32()?,
            q: d.u32()?,
            next: d.u32()?,
            init: d.u64()?,
            decl_line: d.u32()?,
            top_level: d.bool()?,
        })
    }
}

impl Codec for ScopeInfo {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.module);
        self.parent.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(ScopeInfo {
            module: d.str()?,
            parent: Option::decode(d)?,
        })
    }
}

impl Codec for Netlist {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.name);
        self.nodes.encode(e);
        self.inputs.encode(e);
        self.outputs.encode(e);
        self.regs.encode(e);
        self.scopes.encode(e);
        self.node_scope.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let netlist = Netlist {
            name: d.str()?,
            nodes: Vec::decode(d)?,
            inputs: Vec::decode(d)?,
            outputs: Vec::decode(d)?,
            regs: Vec::decode(d)?,
            scopes: Vec::decode(d)?,
            node_scope: Vec::decode(d)?,
        };
        if netlist.node_scope.len() != netlist.nodes.len() || netlist.scopes.is_empty() {
            return Err(CodecError::new("Netlist scope tables"));
        }
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netlist_round_trips() {
        let netlist = crate::compile(
            "module m(input clk, input [7:0] a, input [7:0] b, output [7:0] q, output p);
               reg [7:0] acc;
               always @(posedge clk) acc <= (a > b ? a - b : a + b) ^ {acc[6:0], acc[7]};
               assign q = acc;
               assign p = ^acc;
             endmodule",
            "m",
        )
        .expect("compiles");
        let back = Netlist::from_bytes(&netlist.to_bytes()).expect("round trip");
        assert_eq!(back.name, netlist.name);
        assert_eq!(back.nodes(), netlist.nodes());
        assert_eq!(back.inputs(), netlist.inputs());
        assert_eq!(back.outputs(), netlist.outputs());
        assert_eq!(back.regs(), netlist.regs());
        // A decoded netlist still blasts/elaborates identically downstream.
        assert_eq!(back.stats(), netlist.stats());
    }

    #[test]
    fn netlist_scopes_round_trip() {
        let netlist = crate::compile(
            "module sub(input clk, input d, output q);
               reg r;
               always @(posedge clk) r <= d;
               assign q = r;
             endmodule
             module m(input clk, input d, output q);
               sub u0 (.clk(clk), .d(d), .q(q));
             endmodule",
            "m",
        )
        .expect("compiles");
        assert_eq!(netlist.scopes().len(), 2);
        assert_eq!(netlist.scopes()[0].module, "m");
        assert_eq!(netlist.scopes()[1].module, "sub");
        assert_eq!(netlist.scope_module_chain(1), vec!["sub", "m"]);
        let back = Netlist::from_bytes(&netlist.to_bytes()).expect("round trip");
        assert_eq!(back.scopes(), netlist.scopes());
        for id in 0..netlist.nodes().len() as u32 {
            assert_eq!(back.node_scope(id), netlist.node_scope(id));
        }
    }

    #[test]
    fn corrupt_tag_fails_cleanly() {
        let kind = WKind::Mux {
            cond: 1,
            t: 2,
            f: 3,
        };
        let mut bytes = kind.to_bytes();
        bytes[0] = 99;
        assert!(WKind::from_bytes(&bytes).is_err());
    }
}
