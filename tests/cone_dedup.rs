//! Shared-cone evaluation under `conesta` artifact corruption: a damaged
//! on-disk evaluation must degrade to a recompute with identical bytes and
//! heal in place. (The bit-for-bit oracle against the per-signal path
//! lives with the kernel, in `rtl_timer::dataset`'s tests.)

use proptest::prelude::*;
use rtl_timer_repro::rtl_timer::cache::stage;
use rtl_timer_repro::rtl_timer::dataset::{
    build_all_variant_data, token_rows, TokenRow, VariantData,
};
use rtl_timer_repro::store::Store;

fn liberty() -> rtl_timer_repro::liberty::Library {
    rtl_timer_repro::liberty::Library::pseudo_bog()
}

fn blasted(src: &str, top: &str) -> rtl_timer_repro::bog::Bog {
    rtl_timer_repro::bog::blast(&rtl_timer_repro::verilog::compile(src, top).expect("compiles"))
}

/// f64 slices compared as raw bits: `==` on floats would conflate
/// `-0.0`/`0.0` and hide NaN divergence, and "bit-exact" is the contract.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A build's four variants plus the SOG rows' tokens, replayed through
/// [`token_rows`].
type Built = (Vec<VariantData>, Vec<TokenRow>);

fn build(
    store: &Store,
    sog: &rtl_timer_repro::bog::Bog,
    lib: &rtl_timer_repro::liberty::Library,
    clock: f64,
    seed: u64,
) -> Built {
    let data = build_all_variant_data(store, sog, lib, clock, seed);
    let tokens = token_rows(sog, lib, clock, seed);
    (data, tokens)
}

fn assert_bit_identical((a, a_tok): &Built, (b, b_tok): &Built) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.variant, y.variant);
        assert_eq!(x.groups, y.groups);
        assert_eq!(bits(&x.endpoint_sta_at), bits(&y.endpoint_sta_at));
        assert_eq!(bits(&x.driving_regs), bits(&y.driving_regs));
        assert_eq!(bits(&x.design_feats), bits(&y.design_feats));
        assert_eq!(x.rows.len(), y.rows.len());
        for (r, s) in x.rows.iter().zip(&y.rows) {
            assert_eq!(bits(&r.features), bits(&s.features));
            assert_eq!(r.endpoint, s.endpoint);
        }
    }
    assert_eq!(a_tok.len(), b_tok.len());
    for (r, s) in a_tok.iter().zip(b_tok) {
        assert_eq!(r.ops, s.ops);
        assert_eq!(r.tok_feats.len(), s.tok_feats.len());
        for (tf, sf) in r.tok_feats.iter().zip(&s.tok_feats) {
            assert_eq!(bits(tf), bits(sf));
        }
    }
}

/// Two isomorphic 4-bit register cones over disjoint input lanes plus one
/// different cone, so the `conesta` namespace holds shared evaluations.
const TWINS: &str = "module t(input clk, input [3:0] a0, input [3:0] b0, output [3:0] q0, \
input [3:0] a1, input [3:0] b1, output [3:0] q1, input [3:0] c, output [3:0] qz);
reg [3:0] rz;
always @(posedge clk) rz <= c + 4'd3;
assign qz = rz;
reg [3:0] r0;
always @(posedge clk) r0 <= (a0 ^ b0) ^ (r0 >> 1);
assign q0 = r0;
reg [3:0] r1;
always @(posedge clk) r1 <= (a1 ^ b1) ^ (r1 >> 1);
assign q1 = r1;
endmodule";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A corrupted `conesta` disk entry must degrade to recompute (same
    /// bytes out) and heal the entry in place, whichever byte is flipped.
    #[test]
    fn corrupt_conesta_entry_degrades_and_heals(
        seed in 0u64..100,
        flip in 1u8..255,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "rtlt-conesta-heal-{}-{}-{}",
            std::process::id(),
            seed,
            flip
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sog = blasted(TWINS, "t");
        let lib = liberty();
        let clock = 0.73;

        let reference = {
            let store = Store::on_disk(&dir);
            let out = build(&store, &sog, &lib, clock, seed);
            store.flush();
            out
        };

        // Corrupt every conesta payload and drop the derived shards so the
        // rebuild is forced through the (now poisoned) kernel cache.
        let conesta_dir = dir.join(stage::CONESTA);
        let mut corrupted = 0usize;
        for entry in std::fs::read_dir(&conesta_dir).expect("conesta dir") {
            let path = entry.expect("dir entry").path();
            let mut bytes = std::fs::read(&path).expect("read entry");
            let mid = bytes.len() / 2;
            bytes[mid] ^= flip;
            std::fs::write(&path, &bytes).expect("write corrupt entry");
            corrupted += 1;
        }
        prop_assert!(corrupted > 0);
        std::fs::remove_dir_all(dir.join(stage::SHARD)).expect("drop shards");

        let rebuilt = {
            let store = Store::on_disk(&dir);
            let out = build(&store, &sog, &lib, clock, seed);
            store.flush();
            // The corrupt payloads fail their checksum, so every conesta
            // read degrades to a recompute rather than decoding garbage.
            prop_assert_eq!(store.stats().namespace(stage::CONESTA).misses as usize, corrupted);
            out
        };
        assert_bit_identical(&reference, &rebuilt);

        // Healed: a third cold store now serves conesta from disk again.
        {
            let _ = std::fs::remove_dir_all(dir.join(stage::SHARD));
            let store = Store::on_disk(&dir);
            let again = build(&store, &sog, &lib, clock, seed);
            prop_assert_eq!(store.stats().namespace(stage::CONESTA).misses, 0);
            assert_bit_identical(&reference, &again);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
