//! Seeded single-lane edit streams over a `hier::soc` design.
//!
//! Each edit rewrites the stage-0 statement of one seed-chosen lane as
//! `(<original right-hand side>) ^ 32'h<K>`, where `K` is a constant never
//! used before in the run. Every revision is therefore new content for the
//! store: the edited lane's stage-0 cone misses, everything else stays
//! warm. (A fixed edit would be fully warm the second time it is applied
//! against the same cache, and a benchmark built on it would time a
//! no-op.)

/// One lane's stage-0 statement: the right-hand side the generator wraps.
#[derive(Debug, Clone)]
struct Site {
    lane: usize,
    rhs: String,
}

/// One generated revision.
#[derive(Debug, Clone)]
pub struct Edit {
    /// The lane whose module text changed.
    pub lane: usize,
    /// The full edited source.
    pub source: String,
}

/// A deterministic stream of single-lane edits. Streams built with the
/// same seed and session index produce the same revisions; streams of
/// different sessions of one run never share a constant, so two sessions
/// editing one design never warm each other's cones.
#[derive(Debug, Clone)]
pub struct EditStream {
    /// Source text between the sites: `pieces.len() == sites.len() + 1`.
    pieces: Vec<String>,
    sites: Vec<Site>,
    /// The constant each site currently carries (`None` = unedited).
    current: Vec<Option<u32>>,
    rng: u64,
    offset: u32,
    session: u32,
    sessions: u32,
    edits: u32,
}

/// SplitMix64: the benchmark's seeded generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A bijection on `u32` that fixes 0 (odd multiplies and xor-shifts).
fn scramble(mut x: u32) -> u32 {
    x = x.wrapping_mul(0x9e37_79b1);
    x ^= x >> 15;
    x = x.wrapping_mul(0x85eb_ca6b);
    x ^ (x >> 13)
}

impl EditStream {
    /// Builds the stream for session `session` of `sessions` over `base`
    /// (a `hier::soc` source with `lanes` lanes). `None` when a lane's
    /// stage-0 statement cannot be found.
    pub fn new(base: &str, lanes: usize, seed: u64, session: u32, sessions: u32) -> Option<Self> {
        let mut located = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let header = format!("module {}(", rtlt_designgen::hier::lane_name(lane));
            let start = base.find(&header)?;
            let end = start + base[start..].find("endmodule")?;
            let marker = "p0 <= ";
            let rhs_start = start + base[start..end].find(marker)? + marker.len();
            let rhs_end = rhs_start + base[rhs_start..end].find(';')?;
            located.push((rhs_start, rhs_end, lane));
        }
        located.sort_unstable();
        let mut pieces = Vec::with_capacity(lanes + 1);
        let mut sites = Vec::with_capacity(lanes);
        let mut at = 0;
        for (rhs_start, rhs_end, lane) in located {
            pieces.push(base[at..rhs_start].to_owned());
            sites.push(Site {
                lane,
                rhs: base[rhs_start..rhs_end].to_owned(),
            });
            at = rhs_end;
        }
        pieces.push(base[at..].to_owned());
        let mut rng = seed ^ 0x5eed_ed17_0000_0000;
        // Below 2^31, so `offset + index + 1` never wraps to 0 and every
        // constant is non-zero (an xor with 0 would be the base text).
        let offset = (splitmix64(&mut rng) as u32) & 0x7fff_ffff;
        rng ^= u64::from(session).wrapping_mul(0xa076_1d64_78bd_642f);
        Some(EditStream {
            current: vec![None; sites.len()],
            pieces,
            sites,
            rng,
            offset,
            session,
            sessions: sessions.max(1),
            edits: 0,
        })
    }

    /// The next revision: one seed-chosen lane gets a fresh constant.
    pub fn next_edit(&mut self) -> Edit {
        let site = (splitmix64(&mut self.rng) % self.sites.len() as u64) as usize;
        let index = self.edits * self.sessions + self.session;
        self.edits += 1;
        self.current[site] = Some(scramble(self.offset + index + 1));
        Edit {
            lane: self.sites[site].lane,
            source: self.render(),
        }
    }

    fn render(&self) -> String {
        let mut out = String::with_capacity(self.pieces.iter().map(String::len).sum::<usize>() * 2);
        for (i, site) in self.sites.iter().enumerate() {
            out.push_str(&self.pieces[i]);
            match self.current[i] {
                Some(k) => out.push_str(&format!("({}) ^ 32'h{k:08x}", site.rhs)),
                None => out.push_str(&site.rhs),
            }
        }
        out.push_str(&self.pieces[self.sites.len()]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlt_designgen::hier;
    use std::collections::HashSet;

    fn base() -> String {
        hier::soc("hier_soc", 12, 32, 3)
    }

    #[test]
    fn unedited_stream_renders_the_base() {
        let b = base();
        let s = EditStream::new(&b, 12, 7, 0, 1).expect("sites");
        assert_eq!(s.render(), b);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let b = base();
        let take = |seed, session| {
            let mut s = EditStream::new(&b, 12, seed, session, 2).expect("sites");
            (0..20).map(|_| s.next_edit().source).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(2, 0));
        assert_ne!(take(1, 0), take(1, 1));
    }

    #[test]
    fn every_edit_compiles_and_touches_only_its_lane() {
        let b = base();
        for seed in [0, 1, 2024, u64::MAX] {
            let mut s = EditStream::new(&b, 12, seed, 0, 1).expect("sites");
            let mut prev = b.clone();
            for _ in 0..12 {
                let e = s.next_edit();
                rtlt_verilog::compile(&e.source, "hier_soc").expect("edited source compiles");
                let before = rtlt_verilog::modsrc::split_modules(&prev).unwrap();
                let after = rtlt_verilog::modsrc::split_modules(&e.source).unwrap();
                let changed: Vec<&str> = before
                    .modules
                    .iter()
                    .zip(&after.modules)
                    .filter(|(x, y)| x.text != y.text)
                    .map(|(x, _)| x.name.as_str())
                    .collect();
                assert_eq!(changed, vec![hier::lane_name(e.lane).as_str()]);
                prev = e.source;
            }
        }
    }

    #[test]
    fn constants_are_fresh_across_edits_and_sessions() {
        let b = base();
        let mut seen = HashSet::new();
        for session in 0..2 {
            let mut s = EditStream::new(&b, 12, 99, session, 2).expect("sites");
            for _ in 0..500 {
                let e = s.next_edit();
                let site = s.sites.iter().position(|x| x.lane == e.lane).unwrap();
                let k = s.current[site].expect("edited");
                assert_ne!(k, 0);
                assert!(seen.insert(k), "constant {k:#x} reused");
            }
        }
    }
}
