//! Mapped (post-synthesis) netlist representation.

use rtlt_liberty::{CellFunc, Drive};

/// Cell identifier inside a [`MappedNetlist`].
pub type CellId = u32;

/// Sentinel for absent cells.
pub const NO_CELL: CellId = CellId::MAX;

/// One placed standard cell (or boundary pseudo-cell).
#[derive(Debug, Clone, PartialEq)]
pub struct MappedCell {
    /// Logic function, `None` for boundary pseudo-cells (inputs/constants).
    pub func: Option<CellFunc>,
    /// Drive strength (meaningful only when `func` is `Some`).
    pub drive: Drive,
    /// Input connections (driver cell ids), in pin order.
    pub fanins: Vec<CellId>,
    /// Placement coordinates (site units).
    pub x: f64,
    /// Placement coordinates (site units).
    pub y: f64,
    /// Per-cell delay derate (models tool/process heuristics; ~1.0).
    pub derate: f64,
    /// For tie cells (constants): the driven value. `None` otherwise.
    pub tie: Option<bool>,
}

impl MappedCell {
    /// True for combinational standard cells.
    pub fn is_comb(&self) -> bool {
        matches!(self.func, Some(f) if f != CellFunc::Dff)
    }
}

/// A mapped register and its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappedReg {
    /// The DFF cell (its output is Q).
    pub q: CellId,
    /// Driver of the D pin.
    pub d: CellId,
    /// Originating BOG register index; `u32::MAX` for registers created by
    /// retiming (no RTL identity).
    pub bog_reg: u32,
}

/// A placed, mapped gate-level netlist.
#[derive(Debug, Clone)]
pub struct MappedNetlist {
    /// Design name.
    pub name: String,
    /// All cells.
    pub cells: Vec<MappedCell>,
    /// Registers (order: original BOG registers first).
    pub regs: Vec<MappedReg>,
    /// Primary inputs `(name, cell)`.
    pub inputs: Vec<(String, CellId)>,
    /// Primary outputs `(name, driver cell)`.
    pub outputs: Vec<(String, CellId)>,
}

impl MappedNetlist {
    /// Fanins of a cell.
    pub fn fanins(&self, id: CellId) -> &[CellId] {
        &self.cells[id as usize].fanins
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the netlist has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Combinational + sequential standard-cell count (excludes boundary
    /// pseudo-cells).
    pub fn gate_count(&self) -> usize {
        self.cells.iter().filter(|c| c.func.is_some()).count()
    }

    /// Topological order over all cells (fanins before fanouts; DFF outputs
    /// are sources — their D connection lives in [`MappedReg::d`]).
    ///
    /// # Panics
    ///
    /// Panics on a combinational cycle (the flow never creates one).
    pub fn topo_order(&self) -> Vec<CellId> {
        let n = self.cells.len();
        let mut indeg = vec![0u32; n];
        let mut fanouts: Vec<Vec<CellId>> = vec![Vec::new(); n];
        for (id, c) in self.cells.iter().enumerate() {
            for &f in &c.fanins {
                indeg[id] += 1;
                fanouts[f as usize].push(id as CellId);
            }
        }
        let mut queue: Vec<CellId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| i as CellId)
            .collect();
        let mut head = 0;
        let mut order = Vec::with_capacity(n);
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
        assert_eq!(order.len(), n, "combinational cycle in mapped netlist");
        order
    }

    /// Sink pins of every cell: `(sink cell, pin index)`; register D pins
    /// appear as `(q cell, 0)` sinks flagged separately via
    /// [`MappedNetlist::reg_d_sinks`].
    pub fn fanout_pins(&self) -> Vec<Vec<(CellId, usize)>> {
        let mut fo: Vec<Vec<(CellId, usize)>> = vec![Vec::new(); self.cells.len()];
        for (id, c) in self.cells.iter().enumerate() {
            for (pin, &f) in c.fanins.iter().enumerate() {
                fo[f as usize].push((id as CellId, pin));
            }
        }
        fo
    }

    /// For each cell, the register indices whose D pin it drives.
    pub fn reg_d_sinks(&self) -> Vec<Vec<usize>> {
        let mut sinks: Vec<Vec<usize>> = vec![Vec::new(); self.cells.len()];
        for (ri, r) in self.regs.iter().enumerate() {
            sinks[r.d as usize].push(ri);
        }
        sinks
    }

    /// Per-function cell histogram (for reports/tests).
    pub fn cell_histogram(&self) -> Vec<(CellFunc, usize)> {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<CellFunc, usize> = BTreeMap::new();
        for c in &self.cells {
            if let Some(f) = c.func {
                *m.entry(f).or_default() += 1;
            }
        }
        m.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlt_liberty::{CellFunc, Drive};

    fn cell(func: Option<CellFunc>, fanins: Vec<CellId>) -> MappedCell {
        MappedCell {
            func,
            drive: Drive::X1,
            fanins,
            x: 0.0,
            y: 0.0,
            derate: 1.0,
            tie: None,
        }
    }

    #[test]
    fn topo_order_and_counts() {
        let n = MappedNetlist {
            name: "t".into(),
            cells: vec![
                cell(None, vec![]),                      // 0: input
                cell(Some(CellFunc::Inv), vec![0]),      // 1
                cell(Some(CellFunc::Nand2), vec![0, 1]), // 2
            ],
            regs: vec![],
            inputs: vec![("a".into(), 0)],
            outputs: vec![("y".into(), 2)],
        };
        let order = n.topo_order();
        assert_eq!(order.len(), 3);
        assert!(order.iter().position(|&c| c == 0) < order.iter().position(|&c| c == 2));
        assert_eq!(n.gate_count(), 2);
        assert_eq!(
            n.cell_histogram(),
            vec![(CellFunc::Inv, 1), (CellFunc::Nand2, 1)]
        );
    }
}
