//! Timing path extraction: slowest path and random sampled paths.

use crate::arrival::Sta;
use rand::Rng;
use rtlt_bog::{Endpoint, NodeId};

/// A combinational timing path into an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Target endpoint.
    pub endpoint: Endpoint,
    /// Nodes from the launching source (register Q / input / constant) to
    /// the endpoint driver, inclusive.
    pub nodes: Vec<NodeId>,
    /// Accumulated arrival time along this specific path (ns).
    pub arrival: f64,
}

impl<'a> Sta<'a> {
    /// Traces the slowest path `S*→i` ending at `ep` by walking the max-AT
    /// fanin chain backward.
    pub fn critical_path(&self, ep: Endpoint) -> TimingPath {
        let mut nodes = Vec::new();
        let mut cur = self.bog.endpoint_node(ep);
        nodes.push(cur);
        while self.bog.node(cur).op.is_comb() {
            let worst = self
                .bog
                .fanins(cur)
                .iter()
                .copied()
                .max_by(|&x, &y| {
                    self.res.arrival[x as usize]
                        .partial_cmp(&self.res.arrival[y as usize])
                        .expect("finite ATs")
                })
                .expect("comb node has fanins");
            nodes.push(worst);
            cur = worst;
        }
        nodes.reverse();
        let arrival = self.res.arrival[*nodes.last().expect("nonempty") as usize];
        TimingPath {
            endpoint: ep,
            nodes,
            arrival,
        }
    }

    /// Samples one random path `L(k)*→i` by a backward walk from `ep`,
    /// choosing fanins with probability proportional to their arrival time
    /// (slower fanins more likely — the sample should cover plausibly
    /// critical structure, not uniformly random wires).
    ///
    /// The returned [`TimingPath::arrival`] is the accumulated delay along
    /// the sampled path (≤ the STA arrival of the endpoint).
    pub fn sample_path(&self, ep: Endpoint, rng: &mut impl Rng) -> TimingPath {
        let mut nodes = Vec::new();
        let mut cur = self.bog.endpoint_node(ep);
        let mut path_delay = 0.0f64;
        nodes.push(cur);
        while self.bog.node(cur).op.is_comb() {
            let fis = self.bog.fanins(cur);
            let chosen = if fis.len() == 1 {
                fis[0]
            } else {
                // Weight ∝ (arrival + ε) so zero-AT sources remain pickable.
                let weights: Vec<f64> = fis
                    .iter()
                    .map(|&f| self.res.arrival[f as usize] + 0.01)
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut t = rng.gen::<f64>() * total;
                let mut pick = fis[fis.len() - 1];
                for (i, w) in weights.iter().enumerate() {
                    if t < *w {
                        pick = fis[i];
                        break;
                    }
                    t -= w;
                }
                pick
            };
            path_delay += self.arc_delay(cur, chosen);
            nodes.push(chosen);
            cur = chosen;
        }
        nodes.reverse();
        let launch = self.res.arrival[nodes[0] as usize];
        TimingPath {
            endpoint: ep,
            nodes,
            arrival: launch + path_delay,
        }
    }

    /// Samples up to `k` distinct random paths (deduplicated by node
    /// sequence; gives up after `4 k` attempts).
    pub fn sample_paths(&self, ep: Endpoint, k: usize, rng: &mut impl Rng) -> Vec<TimingPath> {
        let mut out: Vec<TimingPath> = Vec::with_capacity(k);
        let mut attempts = 0;
        while out.len() < k && attempts < 4 * k.max(1) {
            attempts += 1;
            let p = self.sample_path(ep, rng);
            if !out.iter().any(|q| q.nodes == p.nodes) {
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::arrival::{Sta, StaConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rtlt_bog::{blast, Endpoint};
    use rtlt_liberty::Library;
    use rtlt_verilog::compile;

    fn setup() -> (rtlt_bog::Bog, Library) {
        let bog = blast(
            &compile(
                "module m(input clk, input [7:0] a, input [7:0] b, output [7:0] q);
                   reg [7:0] r;
                   always @(posedge clk) r <= (a + b) ^ (a & r);
                   assign q = r;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        (bog, Library::pseudo_bog())
    }

    #[test]
    fn critical_path_arrival_matches_endpoint_at() {
        let (bog, lib) = setup();
        let sta = Sta::run(&bog, &lib, StaConfig::default());
        for (i, ep) in bog.endpoints().into_iter().enumerate() {
            let p = sta.critical_path(ep);
            let at = sta.result().endpoint_at[i];
            assert!(
                (p.arrival - at).abs() < 1e-9,
                "ep {i}: {} vs {at}",
                p.arrival
            );
        }
    }

    #[test]
    fn sampled_paths_never_exceed_critical() {
        let (bog, lib) = setup();
        let sta = Sta::run(&bog, &lib, StaConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        for ep in bog.endpoints() {
            let crit = sta.critical_path(ep).arrival;
            for p in sta.sample_paths(ep, 6, &mut rng) {
                assert!(p.arrival <= crit + 1e-9, "{} > {crit}", p.arrival);
                // Path is structurally connected.
                for w in p.nodes.windows(2) {
                    assert!(bog.fanins(w[1]).contains(&w[0]));
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (bog, lib) = setup();
        let sta = Sta::run(&bog, &lib, StaConfig::default());
        let ep = Endpoint::Reg(7);
        let a: Vec<_> = sta.sample_paths(ep, 5, &mut StdRng::seed_from_u64(11));
        let b: Vec<_> = sta.sample_paths(ep, 5, &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b);
    }
}
