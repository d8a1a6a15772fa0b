//! [`Codec`] implementations for BOG graphs: the SOG of the stored
//! `blast` artifact, and the bytes an extracted cone's content key hashes.
//! Lives here (not in the store crate) because [`Bog`]'s fields are
//! crate-private by design — the codec is the one sanctioned way to
//! rebuild a graph from raw parts, and it re-checks nothing: a corrupt
//! stream fails decoding, never constructs a graph.

use crate::graph::{Bog, BogNode, BogOp, BogReg, BogVariant, SignalInfo};
use rtlt_store::{Codec, CodecError, Dec, Enc};

impl Codec for BogOp {
    fn encode(&self, e: &mut Enc) {
        let tag = match self {
            BogOp::Input => 0u8,
            BogOp::Const0 => 1,
            BogOp::Const1 => 2,
            BogOp::Not => 3,
            BogOp::And2 => 4,
            BogOp::Or2 => 5,
            BogOp::Xor2 => 6,
            BogOp::Mux2 => 7,
            BogOp::Dff => 8,
        };
        e.u8(tag);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => BogOp::Input,
            1 => BogOp::Const0,
            2 => BogOp::Const1,
            3 => BogOp::Not,
            4 => BogOp::And2,
            5 => BogOp::Or2,
            6 => BogOp::Xor2,
            7 => BogOp::Mux2,
            8 => BogOp::Dff,
            _ => return Err(CodecError::new("BogOp tag")),
        })
    }
}

impl Codec for BogVariant {
    fn encode(&self, e: &mut Enc) {
        let tag = match self {
            BogVariant::Sog => 0u8,
            BogVariant::Aig => 1,
            BogVariant::Aimg => 2,
            BogVariant::Xag => 3,
        };
        e.u8(tag);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => BogVariant::Sog,
            1 => BogVariant::Aig,
            2 => BogVariant::Aimg,
            3 => BogVariant::Xag,
            _ => return Err(CodecError::new("BogVariant tag")),
        })
    }
}

impl Codec for BogNode {
    fn encode(&self, e: &mut Enc) {
        self.op.encode(e);
        for f in self.fanins {
            e.u32(f);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let op = BogOp::decode(d)?;
        let fanins = [d.u32()?, d.u32()?, d.u32()?];
        Ok(BogNode { op, fanins })
    }
}

impl Codec for BogReg {
    fn encode(&self, e: &mut Enc) {
        e.u32(self.q);
        e.u32(self.d);
        e.u32(self.signal);
        e.u32(self.bit);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(BogReg {
            q: d.u32()?,
            d: d.u32()?,
            signal: d.u32()?,
            bit: d.u32()?,
        })
    }
}

impl Codec for SignalInfo {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.name);
        e.u32(self.width);
        self.regs.encode(e);
        e.u32(self.decl_line);
        e.bool(self.top_level);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SignalInfo {
            name: d.str()?,
            width: d.u32()?,
            regs: Vec::decode(d)?,
            decl_line: d.u32()?,
            top_level: d.bool()?,
        })
    }
}

impl Codec for Bog {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.name);
        self.variant.encode(e);
        self.nodes.encode(e);
        self.inputs.encode(e);
        self.outputs.encode(e);
        self.regs.encode(e);
        self.signals.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Bog {
            name: d.str()?,
            variant: BogVariant::decode(d)?,
            nodes: Vec::decode(d)?,
            inputs: Vec::decode(d)?,
            outputs: Vec::decode(d)?,
            regs: Vec::decode(d)?,
            signals: Vec::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bog() -> Bog {
        let netlist = rtlt_verilog::compile(
            "module m(input clk, input [3:0] a, input [3:0] b, output [3:0] q);
               reg [3:0] acc;
               always @(posedge clk) acc <= acc + (a ^ b);
               assign q = acc;
             endmodule",
            "m",
        )
        .expect("compiles");
        crate::blast(&netlist)
    }

    #[test]
    fn bog_round_trips() {
        let sog = sample_bog();
        let back = Bog::from_bytes(&sog.to_bytes()).expect("round trip");
        assert_eq!(back.name, sog.name);
        assert_eq!(back.variant, sog.variant);
        assert_eq!(back.nodes(), sog.nodes());
        assert_eq!(back.inputs(), sog.inputs());
        assert_eq!(back.outputs(), sog.outputs());
        assert_eq!(back.regs(), sog.regs());
        assert_eq!(back.signals(), sog.signals());
        // Derived structure survives too.
        assert_eq!(back.levels(), sog.levels());
    }

    #[test]
    fn variant_round_trips() {
        let aig = sample_bog().to_variant(BogVariant::Aig);
        let back = Bog::from_bytes(&aig.to_bytes()).expect("round trip");
        assert_eq!(back.variant, BogVariant::Aig);
        assert_eq!(back.nodes(), aig.nodes());
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = sample_bog().to_bytes();
        assert!(Bog::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_tag_fails_cleanly() {
        let mut bytes = BogOp::Mux2.to_bytes();
        bytes[0] = 9;
        assert!(BogOp::from_bytes(&bytes).is_err());
        let mut bytes = BogVariant::Xag.to_bytes();
        bytes[0] = 4;
        assert!(BogVariant::from_bytes(&bytes).is_err());
    }
}
