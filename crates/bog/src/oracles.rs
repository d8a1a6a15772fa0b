//! Test-only oracles of the graph-construction kernels, and the property
//! tests that hold the kernels to them: [`Bog::topo_order`] against the
//! per-node fanout-list Kahn walk it replaced, [`ConeExtractor`] against
//! the per-call hash-map extraction it replaced, variant conversion
//! against itself (every builder draws a fresh hasher key) and against
//! 64-pattern co-simulation, and [`VariantCensus`] against converting each
//! revision of an edit stream from scratch.
//!
//! The graphs come in two kinds: SOGs made by the strashing builder, and
//! graphs the builder never makes, rebuilt through the codec — node ids
//! shuffled (so fanins are listed after their readers), repeated fanins
//! (`x & x`, `s ? s : t`), unfolded operators over constants, and an
//! `Input` node missing from the input list.

use crate::census::{CellCounts, VariantCensus, CENSUS_VARIANTS};
use crate::cone::{extract_signal_cone, ConeExtractor};
use crate::graph::{
    Bog, BogBuilder, BogNode, BogOp, BogReg, BogVariant, NodeId, SignalInfo, NO_NODE,
};
use crate::sim::BitSim;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rtlt_store::Codec;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// [`Bog::topo_order`] as it was: one heap fanout list per node.
fn topo_order_fanout_lists(bog: &Bog) -> Vec<NodeId> {
    let n = bog.len();
    let mut indeg = vec![0u32; n];
    let mut fanouts: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for id in 0..n as NodeId {
        for &f in bog.fanins(id) {
            indeg[id as usize] += 1;
            fanouts[f as usize].push(id);
        }
    }
    let mut queue: Vec<NodeId> = (0..n as NodeId)
        .filter(|&i| indeg[i as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        order.push(id);
        for &o in &fanouts[id as usize] {
            indeg[o as usize] -= 1;
            if indeg[o as usize] == 0 {
                queue.push(o);
            }
        }
    }
    assert_eq!(order.len(), n, "BOG contains a combinational cycle");
    order
}

/// [`extract_signal_cone`] as it was: whole-design hash maps of the input
/// names and register Q pins, and a hash-map node map, built per call.
fn extract_signal_cone_hash_maps(bog: &Bog, sig: usize) -> Bog {
    let s = &bog.signals()[sig];
    let mut b = BogBuilder::new(bog.name.clone(), bog.variant);
    let qs = b.signal(s.name.clone(), s.width, s.decl_line, s.top_level);

    let input_names: HashMap<NodeId, &str> = bog
        .inputs()
        .iter()
        .map(|(n, id)| (*id, n.as_str()))
        .collect();
    let reg_of_q: HashMap<NodeId, u32> = bog
        .regs()
        .iter()
        .enumerate()
        .map(|(i, r)| (r.q, i as u32))
        .collect();

    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for (bit, &ri) in s.regs.iter().enumerate() {
        map.insert(bog.regs()[ri as usize].q, qs[bit]);
    }
    let mut n_regs = s.width as usize;
    let mut boundary: Vec<(usize, NodeId)> = Vec::new();

    let mut translate = |b: &mut BogBuilder, root: NodeId, map: &mut HashMap<NodeId, NodeId>| {
        let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if map.contains_key(&n) {
                continue;
            }
            let node = bog.node(n);
            if expanded {
                let f = node.fanins;
                let m = |x: NodeId| map[&x];
                let new_id = match node.op {
                    BogOp::Not => b.not(m(f[0])),
                    BogOp::And2 => b.and2(m(f[0]), m(f[1])),
                    BogOp::Or2 => b.or2(m(f[0]), m(f[1])),
                    BogOp::Xor2 => b.xor2(m(f[0]), m(f[1])),
                    BogOp::Mux2 => b.mux2(m(f[0]), m(f[1]), m(f[2])),
                    _ => unreachable!("sources handled on first visit"),
                };
                map.insert(n, new_id);
                continue;
            }
            match node.op {
                BogOp::Input => {
                    let name = input_names.get(&n).copied().unwrap_or("in");
                    let id = b.input(name.to_owned());
                    map.insert(n, id);
                }
                BogOp::Const0 => {
                    let id = b.const0();
                    map.insert(n, id);
                }
                BogOp::Const1 => {
                    let id = b.const1();
                    map.insert(n, id);
                }
                BogOp::Dff => {
                    let r = &bog.regs()[reg_of_q[&n] as usize];
                    let src = &bog.signals()[r.signal as usize];
                    let q =
                        b.signal(format!("{}[{}]", src.name, r.bit), 1, src.decl_line, false)[0];
                    boundary.push((n_regs, q));
                    n_regs += 1;
                    map.insert(n, q);
                }
                _ => {
                    stack.push((n, true));
                    for &f in node.fanins[..node.op.arity()].iter().rev() {
                        if !map.contains_key(&f) {
                            stack.push((f, false));
                        }
                    }
                }
            }
        }
    };

    for &ri in &s.regs {
        let d = bog.regs()[ri as usize].d;
        translate(&mut b, d, &mut map);
    }
    for (bit, &ri) in s.regs.iter().enumerate() {
        b.set_reg_d(bit, map[&bog.regs()[ri as usize].d]);
    }
    for (reg_idx, q) in boundary {
        b.set_reg_d(reg_idx, q);
    }
    b.finish()
}

const COMB: [BogOp; 5] = [
    BogOp::Not,
    BogOp::And2,
    BogOp::Or2,
    BogOp::Xor2,
    BogOp::Mux2,
];

/// A random SOG made by the strashing builder: `n_in` input bits, `n_sig`
/// signals of 1–3 bits, `n_ops` operators over everything built so far,
/// and register D pins and 1–3 outputs drawn from the same pool.
fn built_graph(seed: u64, n_in: usize, n_sig: usize, n_ops: usize) -> Bog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = BogBuilder::new("g", BogVariant::Sog);
    let mut pool: Vec<NodeId> = (0..n_in).map(|i| b.input(format!("i{i}"))).collect();
    if rng.gen_bool(0.5) {
        pool.push(b.const0());
        pool.push(b.const1());
    }
    let mut n_regs = 0;
    for s in 0..n_sig {
        let width = rng.gen_range(1..4u32);
        pool.extend(b.signal(format!("s{s}"), width, s as u32 + 1, rng.gen_bool(0.5)));
        n_regs += width as usize;
    }
    for _ in 0..n_ops {
        let op = COMB[rng.gen_range(0..COMB.len())];
        let f: Vec<NodeId> = (0..3).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        let id = match op {
            BogOp::Not => b.not(f[0]),
            BogOp::And2 => b.and2(f[0], f[1]),
            BogOp::Or2 => b.or2(f[0], f[1]),
            BogOp::Xor2 => b.xor2(f[0], f[1]),
            _ => b.mux2(f[0], f[1], f[2]),
        };
        pool.push(id);
    }
    for r in 0..n_regs {
        b.set_reg_d(r, pool[rng.gen_range(0..pool.len())]);
    }
    for o in 0..rng.gen_range(1..4) {
        b.output(format!("o[{o}]"), pool[rng.gen_range(0..pool.len())]);
    }
    b.finish()
}

/// A random graph the builder never makes, rebuilt through the codec: the
/// same ingredients as [`built_graph`] with no folding and no strashing
/// (a second fanin repeats the first 30 % of the time), the last input
/// left off the input list, and node ids shuffled.
fn decoded_graph(seed: u64, n_in: usize, n_sig: usize, n_ops: usize) -> Bog {
    let mut rng = StdRng::seed_from_u64(seed);
    let source = |op| BogNode {
        op,
        fanins: [NO_NODE; 3],
    };
    let mut nodes = vec![source(BogOp::Input); n_in];
    nodes.push(source(BogOp::Const0));
    nodes.push(source(BogOp::Const1));
    let (mut regs, mut signals) = (Vec::new(), Vec::new());
    for s in 0..n_sig as u32 {
        let width = rng.gen_range(1..4u32);
        let mut idx = Vec::new();
        for bit in 0..width {
            idx.push(regs.len() as u32);
            regs.push(BogReg {
                q: nodes.len() as NodeId,
                d: NO_NODE,
                signal: s,
                bit,
            });
            nodes.push(source(BogOp::Dff));
        }
        signals.push(SignalInfo {
            name: format!("s{s}"),
            width,
            regs: idx,
            decl_line: s + 1,
            top_level: rng.gen_bool(0.5),
        });
    }
    for _ in 0..n_ops {
        let op = COMB[rng.gen_range(0..COMB.len())];
        let mut fanins = [NO_NODE; 3];
        for f in &mut fanins[..op.arity()] {
            *f = rng.gen_range(0..nodes.len()) as NodeId;
        }
        if op.arity() > 1 && rng.gen_bool(0.3) {
            fanins[1] = fanins[0];
        }
        nodes.push(BogNode { op, fanins });
    }
    let n = nodes.len();
    for r in &mut regs {
        r.d = rng.gen_range(0..n) as NodeId;
    }
    let outputs: Vec<(String, NodeId)> = (0..rng.gen_range(1..4))
        .map(|o| (format!("o[{o}]"), rng.gen_range(0..n) as NodeId))
        .collect();
    let inputs: Vec<(String, NodeId)> = (0..n_in.saturating_sub(1))
        .map(|i| (format!("i{i}"), i as NodeId))
        .collect();

    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    perm.shuffle(&mut rng);
    let p = |id: NodeId| perm[id as usize];
    let mut shuffled = vec![source(BogOp::Input); n];
    for (old, node) in nodes.iter().enumerate() {
        let mut moved = *node;
        for f in &mut moved.fanins[..node.op.arity()] {
            *f = p(*f);
        }
        shuffled[p(old as NodeId) as usize] = moved;
    }
    for r in &mut regs {
        (r.q, r.d) = (p(r.q), p(r.d));
    }
    let bog = Bog {
        name: "g".into(),
        variant: BogVariant::Sog,
        nodes: shuffled,
        inputs: inputs.into_iter().map(|(s, id)| (s, p(id))).collect(),
        outputs: outputs.into_iter().map(|(s, id)| (s, p(id))).collect(),
        regs,
        signals,
    };
    Bog::from_bytes(&bog.to_bytes()).expect("codec round trip")
}

/// One graph of either kind.
fn graph(decoded: bool, seed: u64, n_in: usize, n_sig: usize, n_ops: usize) -> Bog {
    if decoded {
        decoded_graph(seed, n_in, n_sig, n_ops)
    } else {
        built_graph(seed, n_in, n_sig, n_ops)
    }
}

/// Every signal, some of them twice, in shuffled order.
fn shuffled_signals_with_repeats(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sigs: Vec<usize> = (0..n).collect();
    sigs.extend((0..n).filter(|_| rng.gen_bool(0.4)));
    sigs.shuffle(&mut rng);
    sigs
}

/// The 64-pattern values of every output and register D pin after four
/// clock edges under input stimuli keyed by input name. Inputs missing
/// from the input list stay 0 in every variant.
fn co_simulate(bog: &Bog, stimuli: &HashMap<String, Vec<u64>>) -> Vec<u64> {
    let mut sim = BitSim::new(bog);
    let mut trace = Vec::new();
    for cycle in 0..4 {
        for (name, id) in bog.inputs() {
            if let Some(s) = stimuli.get(name) {
                sim.set_input_bit(*id, s[cycle]);
            }
        }
        sim.step();
        trace.extend(bog.outputs().iter().map(|(_, o)| sim.node_value(*o)));
        trace.extend(bog.regs().iter().map(|r| sim.node_value(r.d)));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat-fanout walk visits nodes in exactly the order of the
    /// per-node fanout lists, on builder-made and on decoded graphs.
    #[test]
    fn topo_order_matches_the_fanout_list_walk(
        decoded in 0u32..2,
        seed in 0u64..1_000_000,
        n_in in 1usize..8,
        n_sig in 1usize..6,
        n_ops in 0usize..120,
    ) {
        let bog = graph(decoded == 1, seed, n_in, n_sig, n_ops);
        prop_assert_eq!(bog.topo_order(), topo_order_fanout_lists(&bog));
    }

    /// A combinational cycle panics in both walks.
    #[test]
    fn topo_order_panics_on_a_cycle_like_the_oracle(
        seed in 0u64..1_000_000,
        n_in in 1usize..6,
        n_ops in 2usize..60,
    ) {
        let mut bog = decoded_graph(seed, n_in, 1, n_ops);
        // Point the first fanin of some operator at an operator reading it
        // (itself if nothing else does).
        let mut rng = StdRng::seed_from_u64(seed);
        let comb: Vec<NodeId> = (0..bog.len() as NodeId)
            .filter(|&id| bog.node(id).op.is_comb())
            .collect();
        let victim = comb[rng.gen_range(0..comb.len())];
        let reader = comb
            .iter()
            .copied()
            .find(|&r| bog.fanins(r).contains(&victim))
            .unwrap_or(victim);
        bog.nodes[victim as usize].fanins[0] = reader;
        let fast = catch_unwind(AssertUnwindSafe(|| bog.topo_order()));
        let oracle = catch_unwind(AssertUnwindSafe(|| topo_order_fanout_lists(&bog)));
        prop_assert!(fast.is_err() && oracle.is_err());
    }

    /// One extractor serving every signal, in shuffled order with
    /// repeats, gives the bytes of the per-call hash-map extraction.
    #[test]
    fn one_extractor_matches_the_hash_map_extraction(
        decoded in 0u32..2,
        seed in 0u64..1_000_000,
        n_in in 1usize..8,
        n_sig in 1usize..6,
        n_ops in 0usize..120,
    ) {
        let bog = graph(decoded == 1, seed, n_in, n_sig, n_ops);
        let mut extractor = ConeExtractor::new(&bog);
        for sig in shuffled_signals_with_repeats(bog.signals().len(), seed) {
            let oracle = extract_signal_cone_hash_maps(&bog, sig).to_bytes();
            prop_assert_eq!(extractor.extract(sig).to_bytes(), oracle.clone());
            prop_assert_eq!(extract_signal_cone(&bog, sig).to_bytes(), oracle);
        }
    }

    /// Each conversion draws its own strash key; the bytes never depend
    /// on it.
    #[test]
    fn conversion_bytes_do_not_depend_on_the_hasher_key(
        decoded in 0u32..2,
        seed in 0u64..1_000_000,
        n_in in 1usize..8,
        n_sig in 1usize..6,
        n_ops in 0usize..120,
    ) {
        let bog = graph(decoded == 1, seed, n_in, n_sig, n_ops);
        for variant in BogVariant::ALL {
            prop_assert_eq!(
                bog.to_variant(variant).to_bytes(),
                bog.to_variant(variant).to_bytes()
            );
        }
    }

    /// All four variants compute the same outputs and register D values
    /// on 64 random patterns per cycle.
    #[test]
    fn variants_co_simulate_equal(
        decoded in 0u32..2,
        seed in 0u64..1_000_000,
        n_in in 1usize..8,
        n_sig in 1usize..6,
        n_ops in 0usize..120,
    ) {
        let bog = graph(decoded == 1, seed, n_in, n_sig, n_ops);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let stimuli: HashMap<String, Vec<u64>> = bog
            .inputs()
            .iter()
            .map(|(name, _)| (name.clone(), (0..4).map(|_| rng.gen()).collect()))
            .collect();
        let reference = co_simulate(&bog, &stimuli);
        for variant in BogVariant::ALL {
            let converted = bog.to_variant(variant);
            prop_assert_eq!(co_simulate(&converted, &stimuli), reference.clone());
        }
    }

    /// A census moved through a stream of revisions counts, after every
    /// revision, what converting that revision from scratch builds, node
    /// kind by node kind. Revisions draw one of three seeds with varying
    /// operator counts, so consecutive ones share prefixes of structure
    /// that many registers read, and drop or add the rest; a quarter are
    /// decoded graphs, whose shuffled ids permute the input and register
    /// ordinals the census matches leaves by.
    #[test]
    fn census_counts_like_a_fresh_conversion_over_edit_streams(
        seed in 0u64..1_000_000,
        n_in in 1usize..6,
        n_sig in 1usize..5,
        stream in proptest::collection::vec((0u64..3, 0usize..90, 0u32..4), 1..8),
    ) {
        let mut census = VariantCensus::new();
        for (offset, n_ops, kind) in stream {
            let bog = graph(kind == 0, seed + offset, n_in, n_sig, n_ops);
            census.update(&bog);
            for variant in CENSUS_VARIANTS {
                let fresh = bog.to_variant(variant).stats();
                prop_assert_eq!(census.counts(variant), CellCounts::from(&fresh));
                let by_op = [
                    (BogOp::Not, fresh.not),
                    (BogOp::And2, fresh.and2),
                    (BogOp::Or2, fresh.or2),
                    (BogOp::Xor2, fresh.xor2),
                    (BogOp::Mux2, fresh.mux2),
                    (BogOp::Input, fresh.inputs),
                ];
                for (op, n) in by_op {
                    prop_assert_eq!(census.op_count(variant, op), n);
                }
            }
        }
    }
}
