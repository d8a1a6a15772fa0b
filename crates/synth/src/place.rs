//! Placement: recursive bisection over the connectivity graph.
//!
//! Connected cells are kept together by splitting a breadth-first ordering
//! of the region's cell set, alternating cut direction. The result is a
//! legal-enough 2-D spread whose Manhattan distances drive the wire-delay
//! model — the placement-induced component of the ground-truth labels that
//! an RTL-stage predictor cannot directly see.

use crate::netlist::{CellId, MappedNetlist};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// Site pitch between neighbouring cells (distance units).
const PITCH: f64 = 2.0;

/// Places all cells; mutates coordinates in-place.
pub fn place(n: &mut MappedNetlist, rng: &mut StdRng) {
    let mut bfs = Bfs::new(n.cells.len());
    place_with(n, rng, |cells, adj, rng| bfs.order(cells, adj, rng));
}

/// Recursive bisection with `order` as the region ordering (the
/// production [`Bfs`], or the test oracle).
fn place_with(
    n: &mut MappedNetlist,
    rng: &mut StdRng,
    mut order: impl FnMut(&[CellId], &[Vec<CellId>], &mut StdRng) -> Vec<CellId>,
) {
    let ncells = n.cells.len();
    if ncells == 0 {
        return;
    }
    // Undirected adjacency.
    let mut adj: Vec<Vec<CellId>> = vec![Vec::new(); ncells];
    for (id, c) in n.cells.iter().enumerate() {
        for &f in &c.fanins {
            adj[id].push(f);
            adj[f as usize].push(id as CellId);
        }
    }
    for r in &n.regs {
        adj[r.d as usize].push(r.q);
        adj[r.q as usize].push(r.d);
    }

    let side = ((ncells as f64).sqrt().ceil() * PITCH).max(PITCH);
    let all: Vec<CellId> = (0..ncells as CellId).collect();
    let mut region_stack = vec![(all, 0.0f64, 0.0f64, side, side, false)];
    while let Some((cells, x0, y0, x1, y1, vertical)) = region_stack.pop() {
        if cells.len() <= 4 {
            // Final placement inside a leaf region with jitter.
            for (i, &c) in cells.iter().enumerate() {
                let fx = (i % 2) as f64;
                let fy = (i / 2) as f64;
                n.cells[c as usize].x =
                    x0 + (x1 - x0) * (0.25 + 0.5 * fx) + rng.gen_range(-0.3..0.3);
                n.cells[c as usize].y =
                    y0 + (y1 - y0) * (0.25 + 0.5 * fy) + rng.gen_range(-0.3..0.3);
            }
            continue;
        }
        // BFS ordering from a random seed keeps connected clusters adjacent.
        let order = order(&cells, &adj, rng);
        let half = order.len() / 2;
        let (a, b) = order.split_at(half);
        if vertical {
            let ym = (y0 + y1) / 2.0;
            region_stack.push((a.to_vec(), x0, y0, x1, ym, false));
            region_stack.push((b.to_vec(), x0, ym, x1, y1, false));
        } else {
            let xm = (x0 + x1) / 2.0;
            region_stack.push((a.to_vec(), x0, y0, xm, y1, true));
            region_stack.push((b.to_vec(), xm, y0, x1, y1, true));
        }
    }
}

/// Breadth-first region ordering over epoch-stamped dense arrays sized to
/// the netlist, reused across every region of one placement: a cell is in
/// the current region, or seen, when its stamp equals the region's epoch.
struct Bfs {
    epoch: u32,
    inset: Vec<u32>,
    seen: Vec<u32>,
    queue: VecDeque<CellId>,
}

impl Bfs {
    fn new(ncells: usize) -> Bfs {
        Bfs {
            epoch: 0,
            inset: vec![0; ncells],
            seen: vec![0; ncells],
            queue: VecDeque::new(),
        }
    }

    /// The BFS order of `cells` from a random start: neighbours in
    /// adjacency order, restricted to the region; each disconnected
    /// component restarts from its first unseen cell in `cells` order.
    /// `seen` only grows, so the scan for that cell resumes where the last
    /// one stopped: linear in the region plus its adjacency.
    fn order(&mut self, cells: &[CellId], adj: &[Vec<CellId>], rng: &mut StdRng) -> Vec<CellId> {
        self.epoch += 1;
        let epoch = self.epoch;
        for &c in cells {
            self.inset[c as usize] = epoch;
        }
        let mut order = Vec::with_capacity(cells.len());
        let start = cells[rng.gen_range(0..cells.len())];
        self.queue.push_back(start);
        self.seen[start as usize] = epoch;
        let mut cursor = 0;
        loop {
            while let Some(c) = self.queue.pop_front() {
                order.push(c);
                for &nb in &adj[c as usize] {
                    let nb_i = nb as usize;
                    if self.inset[nb_i] == epoch && self.seen[nb_i] != epoch {
                        self.seen[nb_i] = epoch;
                        self.queue.push_back(nb);
                    }
                }
            }
            if order.len() == cells.len() {
                break;
            }
            // Disconnected component: the next unseen cell.
            while self.seen[cells[cursor] as usize] == epoch {
                cursor += 1;
            }
            let next = cells[cursor];
            self.seen[next as usize] = epoch;
            self.queue.push_back(next);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::tech_map;
    use crate::netlist::{MappedCell, MappedReg};
    use crate::opt::balance;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rtlt_bog::blast;
    use rtlt_liberty::{Drive, Library};
    use rtlt_verilog::compile;

    /// The ordering [`Bfs`] replaced, kept as its oracle: it rescans
    /// `cells` from the start for every disconnected component and builds
    /// two hash sets per region.
    fn bfs_order(cells: &[CellId], adj: &[Vec<CellId>], rng: &mut StdRng) -> Vec<CellId> {
        let inset: std::collections::HashSet<CellId> = cells.iter().copied().collect();
        let mut seen: std::collections::HashSet<CellId> = std::collections::HashSet::new();
        let mut order = Vec::with_capacity(cells.len());
        let mut queue = std::collections::VecDeque::new();
        let start = cells[rng.gen_range(0..cells.len())];
        queue.push_back(start);
        seen.insert(start);
        loop {
            while let Some(c) = queue.pop_front() {
                order.push(c);
                for &nb in &adj[c as usize] {
                    if inset.contains(&nb) && seen.insert(nb) {
                        queue.push_back(nb);
                    }
                }
            }
            if order.len() == cells.len() {
                break;
            }
            // Disconnected component: pick the next unseen cell.
            let next = cells
                .iter()
                .copied()
                .find(|c| !seen.contains(c))
                .expect("unseen remains");
            seen.insert(next);
            queue.push_back(next);
        }
        order
    }

    /// A random netlist of `components` disjoint clusters: each cell draws
    /// up to three fanins (repeats allowed) from earlier cells of its own
    /// cluster, every `isolate`-th cell draws none, and some cluster pairs
    /// close through a register. Cells are interleaved across clusters so
    /// a region's components are scattered through its cell list.
    fn random_netlist(
        seed: u64,
        ncells: usize,
        components: usize,
        isolate: usize,
    ) -> MappedNetlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells = Vec::with_capacity(ncells);
        for id in 0..ncells {
            let comp = id % components;
            let earlier: Vec<CellId> = (comp..id)
                .step_by(components)
                .map(|c| c as CellId)
                .collect();
            let mut fanins = Vec::new();
            if id % isolate != 0 && !earlier.is_empty() {
                for _ in 0..rng.gen_range(1..4usize) {
                    fanins.push(earlier[rng.gen_range(0..earlier.len())]);
                }
            }
            cells.push(MappedCell {
                func: None,
                drive: Drive::X1,
                fanins,
                x: 0.0,
                y: 0.0,
                derate: 1.0,
                tie: None,
            });
        }
        let regs = (0..ncells / 7)
            .map(|i| MappedReg {
                q: rng.gen_range(0..ncells) as CellId,
                d: rng.gen_range(0..ncells) as CellId,
                bog_reg: i as u32,
            })
            .collect();
        MappedNetlist {
            name: "random".to_owned(),
            cells,
            regs,
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The dense-array ordering is the rescanning one: same order on
        /// every region, same coordinates bit for bit, and the RNG left in
        /// the same state.
        #[test]
        fn dense_bfs_places_like_the_rescanning_oracle(
            seed in 0u64..10_000,
            ncells in 1usize..400,
            components in 1usize..40,
            isolate in 2usize..9,
        ) {
            let base = random_netlist(seed, ncells, components, isolate);
            let (mut fast, mut slow) = (base.clone(), base);
            let mut fast_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut slow_rng = fast_rng.clone();
            let mut bfs = Bfs::new(ncells);
            let mut regions = 0usize;
            place_with(&mut fast, &mut fast_rng, |cells, adj, rng| {
                let mut oracle_rng = rng.clone();
                let want = bfs_order(cells, adj, &mut oracle_rng);
                let got = bfs.order(cells, adj, rng);
                assert_eq!(got, want, "region order");
                regions += 1;
                got
            });
            place_with(&mut slow, &mut slow_rng, bfs_order);
            prop_assert!(ncells <= 4 || regions > 0);
            for (a, b) in fast.cells.iter().zip(&slow.cells) {
                prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
                prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            }
            prop_assert_eq!(fast_rng.gen::<u64>(), slow_rng.gen::<u64>());
        }
    }

    #[test]
    fn production_placement_matches_the_oracle() {
        let bog = balance(&blast(
            &compile(
                "module m(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
                   reg [15:0] r;
                   always @(posedge clk) r <= (a + b) ^ (r << 1);
                   assign q = r;
                 endmodule",
                "m",
            )
            .unwrap(),
        ));
        let lib = Library::nangate45_like();
        let mut rng = StdRng::seed_from_u64(5);
        let base = tech_map(&bog, &lib, &mut rng);
        let (mut fast, mut slow) = (base.clone(), base);
        let mut slow_rng = rng.clone();
        place(&mut fast, &mut rng);
        place_with(&mut slow, &mut slow_rng, bfs_order);
        for (a, b) in fast.cells.iter().zip(&slow.cells) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
        assert_eq!(rng.gen::<u64>(), slow_rng.gen::<u64>());
    }

    fn placed(seed: u64) -> MappedNetlist {
        let bog = balance(&blast(
            &compile(
                "module m(input clk, input [15:0] a, input [15:0] b, output [15:0] q);
                   reg [15:0] r;
                   always @(posedge clk) r <= (a + b) ^ (r << 1);
                   assign q = r;
                 endmodule",
                "m",
            )
            .unwrap(),
        ));
        let lib = Library::nangate45_like();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = tech_map(&bog, &lib, &mut rng);
        place(&mut n, &mut rng);
        n
    }

    #[test]
    fn all_cells_receive_positions_in_die() {
        let n = placed(3);
        let side = (n.cells.len() as f64).sqrt().ceil() * PITCH;
        for c in &n.cells {
            assert!(c.x > -1.0 && c.x < side + 1.0, "x {}", c.x);
            assert!(c.y > -1.0 && c.y < side + 1.0, "y {}", c.y);
        }
        // Not all on one spot.
        let xs: Vec<f64> = n.cells.iter().map(|c| c.x).collect();
        let spread = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > PITCH);
    }

    #[test]
    fn placement_is_seed_deterministic() {
        let a = placed(7);
        let b = placed(7);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.x, cb.x);
            assert_eq!(ca.y, cb.y);
        }
        let c = placed(8);
        let diff = a.cells.iter().zip(&c.cells).any(|(x, y)| x.x != y.x);
        assert!(diff, "different seeds should move cells");
    }

    #[test]
    fn connected_cells_are_near_on_average() {
        let n = placed(11);
        let mut conn_d = 0.0;
        let mut conn_c = 0usize;
        for c in n.cells.iter() {
            for &f in &c.fanins {
                let fc = &n.cells[f as usize];
                conn_d += (c.x - fc.x).abs() + (c.y - fc.y).abs();
                conn_c += 1;
            }
        }
        let avg_conn = conn_d / conn_c as f64;
        // Random pair distance baseline.
        let mut rng = StdRng::seed_from_u64(1);
        let mut rand_d = 0.0;
        for _ in 0..conn_c {
            let a = &n.cells[rng.gen_range(0..n.cells.len())];
            let b = &n.cells[rng.gen_range(0..n.cells.len())];
            rand_d += (a.x - b.x).abs() + (a.y - b.y).abs();
        }
        let avg_rand = rand_d / conn_c as f64;
        assert!(
            avg_conn < avg_rand,
            "connected avg {avg_conn:.2} should beat random {avg_rand:.2}"
        );
    }
}
