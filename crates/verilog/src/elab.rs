//! Elaboration: AST → flat word-level netlist.
//!
//! Hierarchy is flattened (instance nets get `inst.` prefixes), parameters
//! are resolved, `always` blocks are symbolically executed into next-state /
//! combinational expressions, and every net reference is resolved through a
//! placeholder-and-patch scheme that tolerates any declaration order and
//! detects combinational cycles / inferred latches.

use crate::ast::*;
use crate::error::VerilogError;
use crate::rtlir::{mask, Netlist, ScopeInfo, WBinaryOp, WId, WKind, WNode, WReg, WUnaryOp};
use std::collections::{HashMap, HashSet};

/// Elaborates module `top` of a parsed file into a word-level netlist.
///
/// # Errors
///
/// Reports missing modules/ports, width or constant-expression errors,
/// multiply-driven or undriven nets, inferred latches and combinational
/// cycles.
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Netlist, VerilogError> {
    let top_mod = file
        .module(top)
        .ok_or_else(|| VerilogError::general(format!("top module '{top}' not found")))?;
    let mut b = Builder {
        nodes: Vec::new(),
        regs: Vec::new(),
        net_target: Vec::new(),
        file,
        scopes: vec![ScopeInfo {
            module: top.to_owned(),
            parent: None,
        }],
        cur_scope: 0,
        node_scope: Vec::new(),
    };

    // Create Input nodes for the top module's input ports.
    let dirs = port_dirs(top_mod);
    let mut input_bindings = HashMap::new();
    let mut input_ids = Vec::new();
    for pname in &top_mod.port_order {
        match dirs.get(pname.as_str()) {
            Some(Dir::Input) => {
                // Width determined inside elab_module; create with the
                // declared width by pre-evaluating the decl range.
                let w = port_width(top_mod, pname)?;
                let id = b.new_node(
                    WKind::Input {
                        name: pname.clone(),
                    },
                    w,
                );
                input_bindings.insert(pname.clone(), id);
                input_ids.push(id);
            }
            Some(Dir::Output) => {}
            None => {
                return Err(VerilogError::at(
                    top_mod.line,
                    format!("port '{pname}' has no direction declaration"),
                ));
            }
        }
    }

    let out_map = elab_module(
        &mut b,
        top_mod,
        String::new(),
        &HashMap::new(),
        &input_bindings,
    )?;
    let mut outputs = Vec::new();
    for pname in &top_mod.port_order {
        if dirs.get(pname.as_str()) == Some(&Dir::Output) {
            let id = *out_map.get(pname).expect("output present in module map");
            outputs.push((pname.clone(), id));
        }
    }

    let mut netlist = Netlist {
        name: top.to_owned(),
        nodes: b.nodes,
        inputs: input_ids,
        outputs,
        regs: b.regs,
        scopes: b.scopes,
        node_scope: b.node_scope,
    };
    resolve(&mut netlist, &b.net_target)?;
    Ok(netlist)
}

fn port_dirs(m: &Module) -> HashMap<&str, Dir> {
    let mut dirs = HashMap::new();
    for item in &m.items {
        if let Item::PortDecl { dir, names, .. } = item {
            for n in names {
                dirs.insert(n.as_str(), *dir);
            }
        }
    }
    dirs
}

/// Width of a top-level port, resolved against default parameter values.
fn port_width(m: &Module, port: &str) -> Result<u32, VerilogError> {
    let mut params = HashMap::new();
    for item in &m.items {
        match item {
            Item::ParamDecl {
                name, value, line, ..
            } => {
                let v = const_eval(value, &params, *line)?;
                params.insert(name.clone(), v);
            }
            Item::PortDecl {
                range, names, line, ..
            } if names.iter().any(|n| n == port) => {
                return range_width(range.as_ref(), &params, *line);
            }
            _ => {}
        }
    }
    Ok(1)
}

fn range_width(
    range: Option<&(Expr, Expr)>,
    params: &HashMap<String, u64>,
    line: u32,
) -> Result<u32, VerilogError> {
    match range {
        None => Ok(1),
        Some((msb_e, lsb_e)) => {
            let msb = const_eval(msb_e, params, line)?;
            let lsb = const_eval(lsb_e, params, line)?;
            if lsb != 0 {
                return Err(VerilogError::at(line, "only [msb:0] ranges are supported"));
            }
            if msb >= 64 {
                return Err(VerilogError::at(
                    line,
                    format!("width {} exceeds 64-bit subset limit", msb + 1),
                ));
            }
            Ok(msb as u32 + 1)
        }
    }
}

// ---------------------------------------------------------------------------
// Builder: global netlist under construction.
// ---------------------------------------------------------------------------

/// Most module instances one design may elaborate, the top excluded: far
/// above the generated designs (the 192-lane `hier_soc` has 192), and
/// low enough that a hierarchy doubling at every level fails in
/// milliseconds instead of elaborating for hours.
pub const MAX_INSTANCES: usize = 1 << 14;

/// Deepest module hierarchy, the top included: elaboration recurses once
/// per level.
pub const MAX_HIERARCHY_DEPTH: usize = 64;

struct Builder<'a> {
    nodes: Vec<WNode>,
    regs: Vec<WReg>,
    /// Net placeholder node → resolved driver, indexed by node id: node
    /// ids are dense, so a chain of nets resolves without hashing.
    net_target: Vec<Option<WId>>,
    file: &'a SourceFile,
    /// Module-instance scopes created so far (0 = top).
    scopes: Vec<ScopeInfo>,
    /// Scope the builder is currently elaborating inside.
    cur_scope: u32,
    /// Creating scope per node.
    node_scope: Vec<u32>,
}

impl Builder<'_> {
    fn new_node(&mut self, kind: WKind, width: u32) -> WId {
        debug_assert!((1..=64).contains(&width));
        let id = self.nodes.len() as WId;
        self.nodes.push(WNode { kind, width });
        self.node_scope.push(self.cur_scope);
        id
    }

    /// Refuses an instance of `module` inside the current scope that would
    /// recurse without end (the module is already on the instantiation
    /// stack), nest deeper than [`MAX_HIERARCHY_DEPTH`], or exceed
    /// [`MAX_INSTANCES`] in the whole design.
    fn check_instance(&self, module: &str, inst: &str, line: u32) -> Result<(), VerilogError> {
        let mut depth = 0;
        let mut scope = Some(self.cur_scope);
        while let Some(s) = scope {
            let info = &self.scopes[s as usize];
            if info.module == module {
                return Err(VerilogError::at(
                    line,
                    format!("instance '{inst}' of module '{module}' recurses into itself"),
                ));
            }
            depth += 1;
            scope = info.parent;
        }
        if depth >= MAX_HIERARCHY_DEPTH {
            return Err(VerilogError::at(
                line,
                format!("instance '{inst}' nests deeper than {MAX_HIERARCHY_DEPTH} levels"),
            ));
        }
        if self.scopes.len() > MAX_INSTANCES {
            return Err(VerilogError::at(
                line,
                format!("instance '{inst}' exceeds the budget of {MAX_INSTANCES} instances"),
            ));
        }
        Ok(())
    }

    fn new_scope(&mut self, module: String) -> u32 {
        let id = self.scopes.len() as u32;
        self.scopes.push(ScopeInfo {
            module,
            parent: Some(self.cur_scope),
        });
        id
    }

    fn width(&self, id: WId) -> u32 {
        self.nodes[id as usize].width
    }

    fn target(&self, net: WId) -> Option<WId> {
        self.net_target.get(net as usize).copied().flatten()
    }

    fn set_target(&mut self, net: WId, driver: WId) {
        let i = net as usize;
        if self.net_target.len() <= i {
            self.net_target.resize(i + 1, None);
        }
        self.net_target[i] = Some(driver);
    }

    fn constant(&mut self, value: u64, width: u32) -> WId {
        self.new_node(
            WKind::Const {
                value: value & mask(width),
            },
            width,
        )
    }

    /// Zero-extends or truncates `id` to `width`.
    fn coerce(&mut self, id: WId, width: u32) -> WId {
        let w = self.width(id);
        if w == width {
            id
        } else if w > width {
            self.new_node(WKind::Slice { a: id, lsb: 0 }, width)
        } else {
            let pad = self.constant(0, width - w);
            self.new_node(
                WKind::Concat {
                    parts: vec![id, pad],
                },
                width,
            )
        }
    }

    /// Reduction-OR truthiness.
    #[allow(clippy::wrong_self_convention)] // builds a node; must be `&mut self`
    fn to_bool(&mut self, id: WId) -> WId {
        if self.width(id) == 1 {
            id
        } else {
            self.new_node(
                WKind::Unary {
                    op: WUnaryOp::RedOr,
                    a: id,
                },
                1,
            )
        }
    }

    /// `{old[w-1:lsb+fw], val, old[lsb-1:0]}` — field update.
    fn splice(
        &mut self,
        old: WId,
        lsb: u32,
        fw: u32,
        val: WId,
        line: u32,
    ) -> Result<WId, VerilogError> {
        let w = self.width(old);
        if lsb + fw > w {
            return Err(VerilogError::at(
                line,
                format!("part select [{}:{}] exceeds width {w}", lsb + fw - 1, lsb),
            ));
        }
        let val = self.coerce(val, fw);
        let mut parts = Vec::new();
        if lsb > 0 {
            let lo = self.new_node(WKind::Slice { a: old, lsb: 0 }, lsb);
            parts.push(lo);
        }
        parts.push(val);
        if lsb + fw < w {
            let hi = self.new_node(
                WKind::Slice {
                    a: old,
                    lsb: lsb + fw,
                },
                w - lsb - fw,
            );
            parts.push(hi);
        }
        if parts.len() == 1 {
            Ok(parts.pop().unwrap())
        } else {
            Ok(self.new_node(WKind::Concat { parts }, w))
        }
    }
}

// ---------------------------------------------------------------------------
// Constant expression evaluation.
// ---------------------------------------------------------------------------

fn const_eval(e: &Expr, params: &HashMap<String, u64>, line: u32) -> Result<u64, VerilogError> {
    let v = match e {
        Expr::Number { value, zmask, .. } => {
            if *zmask != 0 {
                return Err(VerilogError::at(
                    line,
                    "z/? digits only allowed in casez labels",
                ));
            }
            *value
        }
        Expr::Ident(n) => *params
            .get(n)
            .ok_or_else(|| VerilogError::at(line, format!("'{n}' is not a constant parameter")))?,
        Expr::Unary { op, operand } => {
            let a = const_eval(operand, params, line)?;
            match op {
                UnaryOp::Neg => a.wrapping_neg(),
                UnaryOp::BitNot => !a,
                UnaryOp::LogNot => (a == 0) as u64,
                _ => {
                    return Err(VerilogError::at(
                        line,
                        "reduction not allowed in constant expression",
                    ))
                }
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = const_eval(lhs, params, line)?;
            let b = const_eval(rhs, params, line)?;
            match op {
                BinaryOp::Add => a.wrapping_add(b),
                BinaryOp::Sub => a.wrapping_sub(b),
                BinaryOp::Mul => a.wrapping_mul(b),
                BinaryOp::And => a & b,
                BinaryOp::Or => a | b,
                BinaryOp::Xor => a ^ b,
                BinaryOp::Xnor => !(a ^ b),
                BinaryOp::Shl => {
                    if b >= 64 {
                        0
                    } else {
                        a << b
                    }
                }
                BinaryOp::Shr => {
                    if b >= 64 {
                        0
                    } else {
                        a >> b
                    }
                }
                BinaryOp::Eq => (a == b) as u64,
                BinaryOp::Ne => (a != b) as u64,
                BinaryOp::Lt => (a < b) as u64,
                BinaryOp::Le => (a <= b) as u64,
                BinaryOp::Gt => (a > b) as u64,
                BinaryOp::Ge => (a >= b) as u64,
                BinaryOp::LogAnd => (a != 0 && b != 0) as u64,
                BinaryOp::LogOr => (a != 0 || b != 0) as u64,
            }
        }
        Expr::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            if const_eval(cond, params, line)? != 0 {
                const_eval(then_e, params, line)?
            } else {
                const_eval(else_e, params, line)?
            }
        }
        _ => return Err(VerilogError::at(line, "expression is not constant")),
    };
    Ok(v)
}

// ---------------------------------------------------------------------------
// Per-module elaboration.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Decl {
    width: u32,
    dir: Option<Dir>,
    line: u32,
    /// Net placeholder node.
    node: WId,
}

struct Scope {
    prefix: String,
    params: HashMap<String, u64>,
    decls: HashMap<String, Decl>,
}

impl Scope {
    fn full(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_owned()
        } else {
            format!("{}{}", self.prefix, name)
        }
    }

    fn decl(&self, name: &str, line: u32) -> Result<&Decl, VerilogError> {
        self.decls
            .get(name)
            .ok_or_else(|| VerilogError::at(line, format!("undeclared signal '{name}'")))
    }
}

/// Elaborates one module instance; returns output port name → node id.
fn elab_module(
    b: &mut Builder,
    module: &Module,
    prefix: String,
    param_overrides: &HashMap<String, u64>,
    input_bindings: &HashMap<String, WId>,
) -> Result<HashMap<String, WId>, VerilogError> {
    // Phase A: parameters.
    let mut params = HashMap::new();
    for item in &module.items {
        if let Item::ParamDecl {
            name,
            value,
            local,
            line,
        } = item
        {
            let v = if !*local && param_overrides.contains_key(name) {
                param_overrides[name]
            } else {
                const_eval(value, &params, *line)?
            };
            params.insert(name.clone(), v);
        }
    }
    for k in param_overrides.keys() {
        if !params.contains_key(k) {
            return Err(VerilogError::at(
                module.line,
                format!("module {} has no parameter '{k}'", module.name),
            ));
        }
    }

    // Phase B: declarations (merging port + net declarations of same name).
    #[derive(Default)]
    struct RawDecl {
        width: Option<u32>,
        is_reg: bool,
        dir: Option<Dir>,
        line: u32,
    }
    let mut raw: HashMap<String, RawDecl> = HashMap::new();
    for item in &module.items {
        let (names, range, is_reg, dir, line) = match item {
            Item::NetDecl {
                kind,
                range,
                names,
                line,
            } => (names, range.as_ref(), *kind == NetKind::Reg, None, *line),
            Item::PortDecl {
                dir,
                reg,
                range,
                names,
                line,
            } => (names, range.as_ref(), *reg, Some(*dir), *line),
            _ => continue,
        };
        let w = range
            .map(|r| range_width(Some(r), &params, line))
            .transpose()?;
        for n in names {
            let e = raw.entry(n.clone()).or_default();
            if let Some(w) = w {
                if let Some(prev) = e.width {
                    if prev != w {
                        return Err(VerilogError::at(
                            line,
                            format!("conflicting widths for '{n}'"),
                        ));
                    }
                }
                e.width = Some(w);
            }
            e.is_reg |= is_reg;
            if dir.is_some() {
                e.dir = dir;
            }
            if e.line == 0 {
                e.line = line;
            }
        }
    }

    // Phase C: classify always-block targets.
    let mut nb_targets: HashSet<String> = HashSet::new(); // sequential
    let mut blk_targets: HashSet<String> = HashSet::new(); // combinational
    for item in &module.items {
        if let Item::Always(a) = item {
            let seq = matches!(a.sens, Sensitivity::Edges(_));
            let mut blocking = HashSet::new();
            let mut nonblocking = HashSet::new();
            collect_targets(&a.body, &mut blocking, &mut nonblocking);
            if seq {
                nb_targets.extend(nonblocking);
                blk_targets.extend(blocking);
            } else {
                if !nonblocking.is_empty() {
                    return Err(VerilogError::at(
                        a.line,
                        "non-blocking assignment in combinational always block",
                    ));
                }
                blk_targets.extend(blocking);
            }
        }
    }
    if let Some(both) = nb_targets.intersection(&blk_targets).next() {
        return Err(VerilogError::at(
            module.line,
            format!("'{both}' assigned both blocking and non-blocking"),
        ));
    }

    // Phase D: create net placeholders, bind inputs, create registers.
    let mut scope = Scope {
        prefix,
        params,
        decls: HashMap::new(),
    };
    let raw_names: Vec<String> = {
        let mut v: Vec<_> = raw.keys().cloned().collect();
        v.sort();
        v
    };
    for name in &raw_names {
        let rd = &raw[name];
        let width = rd.width.unwrap_or(1);
        let full = scope.full(name);
        let node = b.new_node(WKind::Net { name: full }, width);
        scope.decls.insert(
            name.clone(),
            Decl {
                width,
                dir: rd.dir,
                line: rd.line,
                node,
            },
        );
    }
    for name in &raw_names {
        let rd = &raw[name];
        let d = scope.decls[name].clone();
        match rd.dir {
            Some(Dir::Input) => {
                let bound = *input_bindings.get(name).ok_or_else(|| {
                    VerilogError::at(d.line, format!("input port '{name}' unconnected"))
                })?;
                let bound = b.coerce(bound, d.width);
                b.set_target(d.node, bound);
                if nb_targets.contains(name) || blk_targets.contains(name) {
                    return Err(VerilogError::at(
                        d.line,
                        format!("assignment to input port '{name}'"),
                    ));
                }
            }
            _ => {
                if nb_targets.contains(name) {
                    if !rd.is_reg {
                        return Err(VerilogError::at(
                            d.line,
                            format!("sequential target '{name}' must be declared reg"),
                        ));
                    }
                    let reg_idx = b.regs.len() as u32;
                    let q = b.new_node(WKind::RegQ { reg: reg_idx }, d.width);
                    b.regs.push(WReg {
                        name: scope.full(name),
                        width: d.width,
                        q,
                        next: WId::MAX,
                        init: 0,
                        decl_line: d.line,
                        top_level: scope.prefix.is_empty(),
                    });
                    b.set_target(d.node, q);
                }
            }
        }
    }

    // Phase E: drivers.
    let mut drivers: HashMap<String, Vec<(u32, u32, WId, u32)>> = HashMap::new(); // name -> (lsb, width, id, line)

    let items = &module.items;
    for item in items {
        match item {
            Item::Assign { lhs, rhs, line } => {
                let rid = lower_expr(b, &scope, None, rhs, *line)?;
                assign_lvalue(b, &scope, lhs, rid, &mut drivers, *line)?;
            }
            Item::Always(a) => {
                let seq = matches!(a.sens, Sensitivity::Edges(_));
                let mut env = Env::default();
                exec_stmt(b, &scope, &a.body, &mut env, seq, a.line)?;
                if seq {
                    for (name, id) in env.nb {
                        let d = scope.decl(&name, a.line)?;
                        let q = b
                            .target(d.node)
                            .expect("every sequential target is bound to its register");
                        let WKind::RegQ { reg } = b.nodes[q as usize].kind else {
                            return Err(VerilogError::at(
                                a.line,
                                format!("'{name}' is not a register"),
                            ));
                        };
                        let id = b.coerce(id, d.width);
                        b.regs[reg as usize].next = id;
                    }
                    for (name, id) in env.read {
                        // Blocking temps inside a sequential block drive
                        // combinational nets.
                        let d = scope.decl(&name, a.line)?.clone();
                        let id = b.coerce(id, d.width);
                        drivers
                            .entry(name)
                            .or_default()
                            .push((0, d.width, id, a.line));
                    }
                } else {
                    for (name, id) in env.read {
                        let d = scope.decl(&name, a.line)?.clone();
                        let id = b.coerce(id, d.width);
                        drivers
                            .entry(name)
                            .or_default()
                            .push((0, d.width, id, a.line));
                    }
                }
            }
            Item::Instance {
                module: child_name,
                name: inst,
                params: povr,
                conns,
                line,
            } => {
                let child = b.file.module(child_name).ok_or_else(|| {
                    VerilogError::at(*line, format!("unknown module '{child_name}'"))
                })?;
                b.check_instance(child_name, inst, *line)?;
                let mut overrides = HashMap::new();
                for (pn, pe) in povr {
                    overrides.insert(pn.clone(), const_eval(pe, &scope.params, *line)?);
                }
                let cdirs = port_dirs(child);
                // Pair up connections: (port name, Option<Expr>).
                let pairs: Vec<(String, Option<Expr>)> = match conns {
                    Connections::Named(n) => n.clone(),
                    Connections::Ordered(exprs) => {
                        if exprs.len() > child.port_order.len() {
                            return Err(VerilogError::at(*line, "too many positional connections"));
                        }
                        child
                            .port_order
                            .iter()
                            .zip(exprs.iter())
                            .map(|(p, e)| (p.clone(), Some(e.clone())))
                            .collect()
                    }
                };
                let mut child_inputs = HashMap::new();
                let mut out_conns: Vec<(String, &Expr)> = Vec::new();
                for (pname, pexpr) in &pairs {
                    match cdirs.get(pname.as_str()) {
                        Some(Dir::Input) => {
                            if let Some(e) = pexpr {
                                let id = lower_expr(b, &scope, None, e, *line)?;
                                child_inputs.insert(pname.clone(), id);
                            }
                        }
                        Some(Dir::Output) => {
                            if let Some(e) = pexpr {
                                out_conns.push((pname.clone(), e));
                            }
                        }
                        None => {
                            return Err(VerilogError::at(
                                *line,
                                format!("module {child_name} has no port '{pname}'"),
                            ));
                        }
                    }
                }
                // Unconnected inputs default to 0.
                for (pname, dir) in &cdirs {
                    if *dir == Dir::Input && !child_inputs.contains_key(*pname) {
                        let z = b.constant(0, 1);
                        child_inputs.insert((*pname).to_owned(), z);
                    }
                }
                let child_prefix = format!("{}{}.", scope.prefix, inst);
                let saved_scope = b.cur_scope;
                b.cur_scope = b.new_scope(child_name.clone());
                let out_map = elab_module(b, child, child_prefix, &overrides, &child_inputs)?;
                b.cur_scope = saved_scope;
                for (pname, e) in out_conns {
                    let src = *out_map
                        .get(&pname)
                        .ok_or_else(|| VerilogError::at(*line, format!("no output '{pname}'")))?;
                    let lv = expr_as_lvalue(e, *line)?;
                    assign_lvalue(b, &scope, &lv, src, &mut drivers, *line)?;
                }
            }
            _ => {}
        }
    }

    // Phase E2: combine slice drivers per net.
    for (name, mut slices) in drivers {
        let d = scope.decl(&name, module.line)?.clone();
        if d.dir == Some(Dir::Input) {
            return Err(VerilogError::at(
                d.line,
                format!("assignment to input port '{name}'"),
            ));
        }
        slices.sort_by_key(|s| s.0);
        let combined = if slices.len() == 1 && slices[0].0 == 0 && slices[0].1 == d.width {
            slices[0].2
        } else {
            let mut parts = Vec::new();
            let mut at = 0u32;
            for (lsb, w, id, line) in &slices {
                if *lsb < at {
                    return Err(VerilogError::at(
                        *line,
                        format!("net '{name}' multiply driven at bit {lsb}"),
                    ));
                }
                if *lsb > at {
                    return Err(VerilogError::at(
                        *line,
                        format!("net '{name}' bits [{}:{}] undriven", lsb - 1, at),
                    ));
                }
                parts.push(*id);
                at += w;
            }
            if at != d.width {
                return Err(VerilogError::at(
                    d.line,
                    format!("net '{name}' bits [{}:{}] undriven", d.width - 1, at),
                ));
            }
            if parts.len() == 1 {
                parts[0]
            } else {
                b.new_node(WKind::Concat { parts }, d.width)
            }
        };
        if b.target(d.node).is_some() {
            return Err(VerilogError::at(
                d.line,
                format!("net '{name}' multiply driven"),
            ));
        }
        b.set_target(d.node, combined);
    }

    // Output map.
    let mut out = HashMap::new();
    for (name, d) in &scope.decls {
        if d.dir == Some(Dir::Output) {
            out.insert(name.clone(), d.node);
        }
    }
    Ok(out)
}

fn expr_as_lvalue(e: &Expr, line: u32) -> Result<LValue, VerilogError> {
    match e {
        Expr::Ident(n) => Ok(LValue::Ident(n.clone())),
        Expr::Bit { base, index } => Ok(LValue::Bit {
            name: base.clone(),
            index: (**index).clone(),
        }),
        Expr::Part { base, msb, lsb } => Ok(LValue::Part {
            name: base.clone(),
            msb: (**msb).clone(),
            lsb: (**lsb).clone(),
        }),
        Expr::Concat(parts) => {
            let mut lvs = Vec::new();
            for p in parts {
                lvs.push(expr_as_lvalue(p, line)?);
            }
            Ok(LValue::Concat(lvs))
        }
        _ => Err(VerilogError::at(
            line,
            "instance output must connect to a net/bit/part/concat",
        )),
    }
}

fn lvalue_width(scope: &Scope, lv: &LValue, line: u32) -> Result<u32, VerilogError> {
    match lv {
        LValue::Ident(n) => Ok(scope.decl(n, line)?.width),
        LValue::Bit { .. } => Ok(1),
        LValue::Part { msb, lsb, .. } => {
            let m = const_eval(msb, &scope.params, line)?;
            let l = const_eval(lsb, &scope.params, line)?;
            if m < l {
                return Err(VerilogError::at(line, "reversed part select"));
            }
            Ok((m - l + 1) as u32)
        }
        LValue::Concat(parts) => {
            let mut w = 0;
            for p in parts {
                w += lvalue_width(scope, p, line)?;
            }
            Ok(w)
        }
    }
}

/// Records continuous-assignment style drivers for an lvalue.
fn assign_lvalue(
    b: &mut Builder,
    scope: &Scope,
    lv: &LValue,
    rhs: WId,
    drivers: &mut HashMap<String, Vec<(u32, u32, WId, u32)>>,
    line: u32,
) -> Result<(), VerilogError> {
    match lv {
        LValue::Ident(n) => {
            let w = scope.decl(n, line)?.width;
            let id = b.coerce(rhs, w);
            drivers.entry(n.clone()).or_default().push((0, w, id, line));
        }
        LValue::Bit { name, index } => {
            let idx = const_eval(index, &scope.params, line)? as u32;
            let id = b.coerce(rhs, 1);
            drivers
                .entry(name.clone())
                .or_default()
                .push((idx, 1, id, line));
        }
        LValue::Part { name, msb, lsb } => {
            let m = const_eval(msb, &scope.params, line)? as u32;
            let l = const_eval(lsb, &scope.params, line)? as u32;
            if m < l {
                return Err(VerilogError::at(line, "reversed part select"));
            }
            let w = m - l + 1;
            let id = b.coerce(rhs, w);
            drivers
                .entry(name.clone())
                .or_default()
                .push((l, w, id, line));
        }
        LValue::Concat(parts) => {
            // MSB-first parts; distribute rhs slices from the top down.
            let total = lvalue_width(scope, lv, line)?;
            let rhs = b.coerce(rhs, total);
            let mut hi = total;
            for p in parts {
                let w = lvalue_width(scope, p, line)?;
                let lsb = hi - w;
                let part_val = if lsb == 0 && w == total {
                    rhs
                } else {
                    b.new_node(WKind::Slice { a: rhs, lsb }, w)
                };
                assign_lvalue(b, scope, p, part_val, drivers, line)?;
                hi = lsb;
            }
        }
    }
    Ok(())
}

fn collect_targets(stmt: &Stmt, blocking: &mut HashSet<String>, nonblocking: &mut HashSet<String>) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                collect_targets(s, blocking, nonblocking);
            }
        }
        Stmt::If {
            then_br, else_br, ..
        } => {
            collect_targets(then_br, blocking, nonblocking);
            if let Some(e) = else_br {
                collect_targets(e, blocking, nonblocking);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for a in arms {
                collect_targets(&a.body, blocking, nonblocking);
            }
            if let Some(d) = default {
                collect_targets(d, blocking, nonblocking);
            }
        }
        Stmt::Assign {
            lhs,
            blocking: is_blocking,
            ..
        } => {
            let set = if *is_blocking { blocking } else { nonblocking };
            collect_lvalue_names(lhs, set);
        }
        Stmt::Empty => {}
    }
}

fn collect_lvalue_names(lv: &LValue, set: &mut HashSet<String>) {
    match lv {
        LValue::Ident(n) => {
            set.insert(n.clone());
        }
        LValue::Bit { name, .. } | LValue::Part { name, .. } => {
            set.insert(name.clone());
        }
        LValue::Concat(parts) => {
            for p in parts {
                collect_lvalue_names(p, set);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Symbolic execution of always blocks.
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct Env {
    /// Values visible to reads (blocking assignments update this).
    read: HashMap<String, WId>,
    /// Scheduled non-blocking updates.
    nb: HashMap<String, WId>,
}

#[allow(clippy::only_used_in_recursion)] // `seq` is threaded to nested blocks
fn exec_stmt(
    b: &mut Builder,
    scope: &Scope,
    stmt: &Stmt,
    env: &mut Env,
    seq: bool,
    line: u32,
) -> Result<(), VerilogError> {
    match stmt {
        Stmt::Empty => Ok(()),
        Stmt::Block(stmts) => {
            for s in stmts {
                exec_stmt(b, scope, s, env, seq, line)?;
            }
            Ok(())
        }
        Stmt::Assign {
            lhs,
            rhs,
            blocking,
            line,
        } => {
            let rid = lower_expr(b, scope, Some(&env.read), rhs, *line)?;
            let map_is_nb = !*blocking;
            exec_write(b, scope, lhs, rid, env, map_is_nb, *line)
        }
        Stmt::If {
            cond,
            then_br,
            else_br,
        } => {
            let cid = lower_expr(b, scope, Some(&env.read), cond, line)?;
            let cid = b.to_bool(cid);
            let mut then_env = env.clone();
            exec_stmt(b, scope, then_br, &mut then_env, seq, line)?;
            let mut else_env = env.clone();
            if let Some(e) = else_br {
                exec_stmt(b, scope, e, &mut else_env, seq, line)?;
            }
            *env = merge_env(b, scope, cid, &then_env, &else_env, line)?;
            Ok(())
        }
        Stmt::Case {
            wildcard,
            subject,
            arms,
            default,
        } => {
            let sid = lower_expr(b, scope, Some(&env.read), subject, line)?;
            let sw = b.width(sid);
            // Evaluate arm bodies on clones of the incoming env.
            let mut acc = env.clone();
            if let Some(d) = default {
                exec_stmt(b, scope, d, &mut acc, seq, line)?;
            }
            for arm in arms.iter().rev() {
                let mut cond: Option<WId> = None;
                for label in &arm.labels {
                    let c = case_label_match(b, scope, env, sid, sw, label, *wildcard, line)?;
                    cond = Some(match cond {
                        None => c,
                        Some(prev) => b.new_node(
                            WKind::Binary {
                                op: WBinaryOp::Or,
                                a: prev,
                                b: c,
                            },
                            1,
                        ),
                    });
                }
                let cond = cond.ok_or_else(|| VerilogError::at(line, "case arm without labels"))?;
                let mut arm_env = env.clone();
                exec_stmt(b, scope, &arm.body, &mut arm_env, seq, line)?;
                acc = merge_env(b, scope, cond, &arm_env, &acc, line)?;
            }
            *env = acc;
            Ok(())
        }
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the full case-arm lowering context
fn case_label_match(
    b: &mut Builder,
    scope: &Scope,
    env: &Env,
    sid: WId,
    sw: u32,
    label: &Expr,
    wildcard: bool,
    line: u32,
) -> Result<WId, VerilogError> {
    if wildcard {
        if let Expr::Number { value, zmask, .. } = label {
            let keep = mask(sw) & !zmask;
            let masked = if keep == mask(sw) {
                sid
            } else {
                let m = b.constant(keep, sw);
                b.new_node(
                    WKind::Binary {
                        op: WBinaryOp::And,
                        a: sid,
                        b: m,
                    },
                    sw,
                )
            };
            let want = b.constant(value & keep, sw);
            return Ok(b.new_node(
                WKind::Binary {
                    op: WBinaryOp::Eq,
                    a: masked,
                    b: want,
                },
                1,
            ));
        }
    }
    let lid = lower_expr(b, scope, Some(&env.read), label, line)?;
    let lid = b.coerce(lid, sw);
    Ok(b.new_node(
        WKind::Binary {
            op: WBinaryOp::Eq,
            a: sid,
            b: lid,
        },
        1,
    ))
}

/// Current value of `name` for splicing: pending write, else the net itself
/// (register hold / combinational self-reference, the latter caught later as
/// a latch-inference cycle).
fn pending_value(
    _b: &Builder,
    scope: &Scope,
    map: &HashMap<String, WId>,
    name: &str,
    line: u32,
) -> Result<WId, VerilogError> {
    if let Some(&v) = map.get(name) {
        return Ok(v);
    }
    Ok(scope.decl(name, line)?.node)
}

fn exec_write(
    b: &mut Builder,
    scope: &Scope,
    lv: &LValue,
    val: WId,
    env: &mut Env,
    nb: bool,
    line: u32,
) -> Result<(), VerilogError> {
    match lv {
        LValue::Ident(n) => {
            let w = scope.decl(n, line)?.width;
            let v = b.coerce(val, w);
            if nb {
                env.nb.insert(n.clone(), v);
            } else {
                env.read.insert(n.clone(), v);
            }
            Ok(())
        }
        LValue::Bit { name, index } => {
            let idx = const_eval(index, &scope.params, line);
            let map = if nb { &env.nb } else { &env.read };
            let old = pending_value(b, scope, map, name, line)?;
            let neww = match idx {
                Ok(i) => b.splice(old, i as u32, 1, val, line)?,
                Err(_) => {
                    // Dynamic bit write: old with bit replaced via shift/mask.
                    let w = b.width(old);
                    let iid = lower_expr(b, scope, Some(&env.read), index, line)?;
                    let one = b.constant(1, w);
                    let iid_w = b.coerce(iid, w.max(6));
                    let bitm = b.new_node(
                        WKind::Binary {
                            op: WBinaryOp::Shl,
                            a: one,
                            b: iid_w,
                        },
                        w,
                    );
                    let notm = b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::Not,
                            a: bitm,
                        },
                        w,
                    );
                    let cleared = b.new_node(
                        WKind::Binary {
                            op: WBinaryOp::And,
                            a: old,
                            b: notm,
                        },
                        w,
                    );
                    let v1 = b.coerce(val, w);
                    let shifted = b.new_node(
                        WKind::Binary {
                            op: WBinaryOp::Shl,
                            a: v1,
                            b: iid_w,
                        },
                        w,
                    );
                    b.new_node(
                        WKind::Binary {
                            op: WBinaryOp::Or,
                            a: cleared,
                            b: shifted,
                        },
                        w,
                    )
                }
            };
            if nb {
                env.nb.insert(name.clone(), neww);
            } else {
                env.read.insert(name.clone(), neww);
            }
            Ok(())
        }
        LValue::Part { name, msb, lsb } => {
            let m = const_eval(msb, &scope.params, line)? as u32;
            let l = const_eval(lsb, &scope.params, line)? as u32;
            if m < l {
                return Err(VerilogError::at(line, "reversed part select"));
            }
            let map = if nb { &env.nb } else { &env.read };
            let old = pending_value(b, scope, map, name, line)?;
            let neww = b.splice(old, l, m - l + 1, val, line)?;
            if nb {
                env.nb.insert(name.clone(), neww);
            } else {
                env.read.insert(name.clone(), neww);
            }
            Ok(())
        }
        LValue::Concat(parts) => {
            let total = lvalue_width(scope, lv, line)?;
            let val = b.coerce(val, total);
            let mut hi = total;
            for p in parts {
                let w = lvalue_width(scope, p, line)?;
                let lsb = hi - w;
                let pv = if lsb == 0 && w == total {
                    val
                } else {
                    b.new_node(WKind::Slice { a: val, lsb }, w)
                };
                exec_write(b, scope, p, pv, env, nb, line)?;
                hi = lsb;
            }
            Ok(())
        }
    }
}

fn merge_env(
    b: &mut Builder,
    scope: &Scope,
    cond: WId,
    then_env: &Env,
    else_env: &Env,
    line: u32,
) -> Result<Env, VerilogError> {
    let mut out = Env::default();
    out.read = merge_map(b, scope, cond, &then_env.read, &else_env.read, line)?;
    out.nb = merge_map(b, scope, cond, &then_env.nb, &else_env.nb, line)?;
    Ok(out)
}

fn merge_map(
    b: &mut Builder,
    scope: &Scope,
    cond: WId,
    t: &HashMap<String, WId>,
    f: &HashMap<String, WId>,
    line: u32,
) -> Result<HashMap<String, WId>, VerilogError> {
    let mut keys: Vec<&String> = t.keys().chain(f.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut out = HashMap::new();
    for k in keys {
        let tv = match t.get(k) {
            Some(&v) => v,
            None => scope.decl(k, line)?.node,
        };
        let fv = match f.get(k) {
            Some(&v) => v,
            None => scope.decl(k, line)?.node,
        };
        if tv == fv {
            out.insert(k.clone(), tv);
            continue;
        }
        let w = b.width(tv).max(b.width(fv));
        let tvc = b.coerce(tv, w);
        let fvc = b.coerce(fv, w);
        out.insert(
            k.clone(),
            b.new_node(
                WKind::Mux {
                    cond,
                    t: tvc,
                    f: fvc,
                },
                w,
            ),
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Expression lowering.
// ---------------------------------------------------------------------------

fn lower_expr(
    b: &mut Builder,
    scope: &Scope,
    env: Option<&HashMap<String, WId>>,
    e: &Expr,
    line: u32,
) -> Result<WId, VerilogError> {
    let id = match e {
        Expr::Number {
            width,
            value,
            zmask,
        } => {
            if *zmask != 0 {
                return Err(VerilogError::at(
                    line,
                    "z/? digits only allowed in casez labels",
                ));
            }
            let w = width.unwrap_or_else(|| if *value > u32::MAX as u64 { 64 } else { 32 });
            b.constant(*value, w)
        }
        Expr::Ident(n) => {
            if let Some(&v) = scope.params.get(n) {
                let w = if v > u32::MAX as u64 { 64 } else { 32 };
                b.constant(v, w)
            } else if let Some(v) = env.and_then(|m| m.get(n)) {
                *v
            } else {
                scope.decl(n, line)?.node
            }
        }
        Expr::Unary { op, operand } => {
            let a = lower_expr(b, scope, env, operand, line)?;
            let aw = b.width(a);
            match op {
                UnaryOp::BitNot => b.new_node(
                    WKind::Unary {
                        op: WUnaryOp::Not,
                        a,
                    },
                    aw,
                ),
                UnaryOp::Neg => b.new_node(
                    WKind::Unary {
                        op: WUnaryOp::Neg,
                        a,
                    },
                    aw,
                ),
                UnaryOp::LogNot => {
                    let t = b.to_bool(a);
                    b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::Not,
                            a: t,
                        },
                        1,
                    )
                }
                UnaryOp::RedAnd => b.new_node(
                    WKind::Unary {
                        op: WUnaryOp::RedAnd,
                        a,
                    },
                    1,
                ),
                UnaryOp::RedOr => b.new_node(
                    WKind::Unary {
                        op: WUnaryOp::RedOr,
                        a,
                    },
                    1,
                ),
                UnaryOp::RedXor => b.new_node(
                    WKind::Unary {
                        op: WUnaryOp::RedXor,
                        a,
                    },
                    1,
                ),
                UnaryOp::RedNand => {
                    let r = b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::RedAnd,
                            a,
                        },
                        1,
                    );
                    b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::Not,
                            a: r,
                        },
                        1,
                    )
                }
                UnaryOp::RedNor => {
                    let r = b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::RedOr,
                            a,
                        },
                        1,
                    );
                    b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::Not,
                            a: r,
                        },
                        1,
                    )
                }
                UnaryOp::RedXnor => {
                    let r = b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::RedXor,
                            a,
                        },
                        1,
                    );
                    b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::Not,
                            a: r,
                        },
                        1,
                    )
                }
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let a0 = lower_expr(b, scope, env, lhs, line)?;
            let b0 = lower_expr(b, scope, env, rhs, line)?;
            lower_binary(b, *op, a0, b0, line)?
        }
        Expr::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            let c = lower_expr(b, scope, env, cond, line)?;
            let c = b.to_bool(c);
            let t = lower_expr(b, scope, env, then_e, line)?;
            let f = lower_expr(b, scope, env, else_e, line)?;
            let w = b.width(t).max(b.width(f));
            let t = b.coerce(t, w);
            let f = b.coerce(f, w);
            b.new_node(WKind::Mux { cond: c, t, f }, w)
        }
        Expr::Concat(parts) => {
            // AST is MSB-first; node stores LSB-first.
            let mut ids = Vec::new();
            let mut width = 0;
            for p in parts.iter().rev() {
                let id = lower_expr(b, scope, env, p, line)?;
                width += b.width(id);
                ids.push(id);
            }
            if width > 64 {
                return Err(VerilogError::at(
                    line,
                    format!("concatenation width {width} exceeds 64"),
                ));
            }
            b.new_node(WKind::Concat { parts: ids }, width)
        }
        Expr::Repeat { count, inner } => {
            let c = const_eval(count, &scope.params, line)?;
            let id = lower_expr(b, scope, env, inner, line)?;
            let w = b.width(id);
            let total = c as u32 * w;
            if c == 0 || total > 64 {
                return Err(VerilogError::at(
                    line,
                    format!("replication width {total} out of range"),
                ));
            }
            let ids = vec![id; c as usize];
            b.new_node(WKind::Concat { parts: ids }, total)
        }
        Expr::Bit { base, index } => {
            let a = lower_base(b, scope, env, base, line)?;
            let aw = b.width(a);
            match const_eval(index, &scope.params, line) {
                Ok(i) => {
                    if i as u32 >= aw {
                        return Err(VerilogError::at(
                            line,
                            format!("bit index {i} out of range for '{base}'"),
                        ));
                    }
                    b.new_node(WKind::Slice { a, lsb: i as u32 }, 1)
                }
                Err(_) => {
                    let idx = lower_expr(b, scope, env, index, line)?;
                    let idx = b.coerce(idx, aw.clamp(7, 64));
                    let sh = b.new_node(
                        WKind::Binary {
                            op: WBinaryOp::Shr,
                            a,
                            b: idx,
                        },
                        aw,
                    );
                    b.new_node(WKind::Slice { a: sh, lsb: 0 }, 1)
                }
            }
        }
        Expr::Part { base, msb, lsb } => {
            let a = lower_base(b, scope, env, base, line)?;
            let aw = b.width(a);
            let m = const_eval(msb, &scope.params, line)? as u32;
            let l = const_eval(lsb, &scope.params, line)? as u32;
            if m < l || m >= aw {
                return Err(VerilogError::at(
                    line,
                    format!("part select [{m}:{l}] invalid for '{base}' (width {aw})"),
                ));
            }
            b.new_node(WKind::Slice { a, lsb: l }, m - l + 1)
        }
    };
    Ok(id)
}

fn lower_base(
    _b: &mut Builder,
    scope: &Scope,
    env: Option<&HashMap<String, WId>>,
    base: &str,
    line: u32,
) -> Result<WId, VerilogError> {
    if let Some(v) = env.and_then(|m| m.get(base)) {
        Ok(*v)
    } else {
        Ok(scope.decl(base, line)?.node)
    }
}

fn lower_binary(
    b: &mut Builder,
    op: BinaryOp,
    a0: WId,
    b0: WId,
    line: u32,
) -> Result<WId, VerilogError> {
    let wa = b.width(a0);
    let wb = b.width(b0);
    let id = match op {
        BinaryOp::And
        | BinaryOp::Or
        | BinaryOp::Xor
        | BinaryOp::Xnor
        | BinaryOp::Add
        | BinaryOp::Sub => {
            let w = wa.max(wb);
            let a = b.coerce(a0, w);
            let bb = b.coerce(b0, w);
            let wop = match op {
                BinaryOp::And => WBinaryOp::And,
                BinaryOp::Or => WBinaryOp::Or,
                BinaryOp::Xor | BinaryOp::Xnor => WBinaryOp::Xor,
                BinaryOp::Add => WBinaryOp::Add,
                BinaryOp::Sub => WBinaryOp::Sub,
                _ => unreachable!(),
            };
            let r = b.new_node(WKind::Binary { op: wop, a, b: bb }, w);
            if op == BinaryOp::Xnor {
                b.new_node(
                    WKind::Unary {
                        op: WUnaryOp::Not,
                        a: r,
                    },
                    w,
                )
            } else {
                r
            }
        }
        BinaryOp::Mul => {
            let w = (wa + wb).min(64);
            let a = b.coerce(a0, w);
            let bb = b.coerce(b0, w);
            b.new_node(
                WKind::Binary {
                    op: WBinaryOp::Mul,
                    a,
                    b: bb,
                },
                w,
            )
        }
        BinaryOp::LogAnd | BinaryOp::LogOr => {
            let a = b.to_bool(a0);
            let bb = b.to_bool(b0);
            let wop = if op == BinaryOp::LogAnd {
                WBinaryOp::And
            } else {
                WBinaryOp::Or
            };
            b.new_node(WKind::Binary { op: wop, a, b: bb }, 1)
        }
        BinaryOp::Eq | BinaryOp::Ne => {
            let w = wa.max(wb);
            let a = b.coerce(a0, w);
            let bb = b.coerce(b0, w);
            let r = b.new_node(
                WKind::Binary {
                    op: WBinaryOp::Eq,
                    a,
                    b: bb,
                },
                1,
            );
            if op == BinaryOp::Ne {
                b.new_node(
                    WKind::Unary {
                        op: WUnaryOp::Not,
                        a: r,
                    },
                    1,
                )
            } else {
                r
            }
        }
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            let w = wa.max(wb);
            let a = b.coerce(a0, w);
            let bb = b.coerce(b0, w);
            match op {
                BinaryOp::Lt => b.new_node(
                    WKind::Binary {
                        op: WBinaryOp::Lt,
                        a,
                        b: bb,
                    },
                    1,
                ),
                BinaryOp::Gt => b.new_node(
                    WKind::Binary {
                        op: WBinaryOp::Lt,
                        a: bb,
                        b: a,
                    },
                    1,
                ),
                BinaryOp::Le => {
                    let gt = b.new_node(
                        WKind::Binary {
                            op: WBinaryOp::Lt,
                            a: bb,
                            b: a,
                        },
                        1,
                    );
                    b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::Not,
                            a: gt,
                        },
                        1,
                    )
                }
                BinaryOp::Ge => {
                    let lt = b.new_node(
                        WKind::Binary {
                            op: WBinaryOp::Lt,
                            a,
                            b: bb,
                        },
                        1,
                    );
                    b.new_node(
                        WKind::Unary {
                            op: WUnaryOp::Not,
                            a: lt,
                        },
                        1,
                    )
                }
                _ => unreachable!(),
            }
        }
        BinaryOp::Shl | BinaryOp::Shr => {
            let wop = if op == BinaryOp::Shl {
                WBinaryOp::Shl
            } else {
                WBinaryOp::Shr
            };
            let _ = line;
            b.new_node(
                WKind::Binary {
                    op: wop,
                    a: a0,
                    b: b0,
                },
                wa,
            )
        }
    };
    Ok(id)
}

// ---------------------------------------------------------------------------
// Resolution: patch Net placeholders, detect cycles.
// ---------------------------------------------------------------------------

fn resolve(netlist: &mut Netlist, net_target: &[Option<WId>]) -> Result<(), VerilogError> {
    let n = netlist.nodes.len();
    // canonical[id]: id with Net chains collapsed; ON_CHAIN marks the nets
    // of the chain being followed, so a cycle is found in one step.
    let mut canonical: Vec<Option<WId>> = vec![None; n];
    const ON_CHAIN: WId = WId::MAX;

    fn canon(
        id: WId,
        nodes: &[WNode],
        net_target: &[Option<WId>],
        canonical: &mut [Option<WId>],
    ) -> Result<WId, VerilogError> {
        let mut chain = Vec::new();
        let mut cur = id;
        loop {
            match canonical[cur as usize] {
                Some(ON_CHAIN) => {
                    let WKind::Net { name } = &nodes[cur as usize].kind else {
                        unreachable!("only nets are marked on a chain");
                    };
                    return Err(VerilogError::general(format!(
                        "combinational cycle through net '{name}'"
                    )));
                }
                Some(c) => {
                    for &x in &chain {
                        canonical[x as usize] = Some(c);
                    }
                    return Ok(c);
                }
                None => {}
            }
            match &nodes[cur as usize].kind {
                WKind::Net { name } => {
                    canonical[cur as usize] = Some(ON_CHAIN);
                    chain.push(cur);
                    match net_target.get(cur as usize).copied().flatten() {
                        Some(t) => cur = t,
                        None => {
                            return Err(VerilogError::general(format!(
                                "net '{name}' is never driven"
                            )));
                        }
                    }
                }
                _ => {
                    for &x in &chain {
                        canonical[x as usize] = Some(cur);
                    }
                    canonical[cur as usize] = Some(cur);
                    return Ok(cur);
                }
            }
        }
    }

    // Registers must have a next-state driver before roots are walked.
    for r in &netlist.regs {
        if r.next == WId::MAX {
            return Err(VerilogError::general(format!(
                "register '{}' has no next-state driver",
                r.name
            )));
        }
    }

    // Canonicalize all fanin references reachable from the roots, checking
    // width agreement between a net and its driver.
    let roots: Vec<WId> = netlist.roots();
    let mut state = vec![0u8; n];
    let mut stack: Vec<WId> = Vec::new();

    for &root in &roots {
        let rc = canon(root, &netlist.nodes, net_target, &mut canonical)?;
        if state[rc as usize] == 0 {
            stack.push(rc);
        }
        // DFS with explicit open/done states for cycle detection.
        while let Some(&top) = stack.last() {
            match state[top as usize] {
                0 => {
                    state[top as usize] = 1;
                    // Canonicalize fanins in place.
                    let kind = netlist.nodes[top as usize].kind.clone();
                    let new_kind = match kind {
                        WKind::Unary { op, a } => WKind::Unary {
                            op,
                            a: canon(a, &netlist.nodes, net_target, &mut canonical)?,
                        },
                        WKind::Binary { op, a, b: bb } => WKind::Binary {
                            op,
                            a: canon(a, &netlist.nodes, net_target, &mut canonical)?,
                            b: canon(bb, &netlist.nodes, net_target, &mut canonical)?,
                        },
                        WKind::Mux { cond, t, f } => WKind::Mux {
                            cond: canon(cond, &netlist.nodes, net_target, &mut canonical)?,
                            t: canon(t, &netlist.nodes, net_target, &mut canonical)?,
                            f: canon(f, &netlist.nodes, net_target, &mut canonical)?,
                        },
                        WKind::Concat { parts } => {
                            let mut np = Vec::with_capacity(parts.len());
                            for p in parts {
                                np.push(canon(p, &netlist.nodes, net_target, &mut canonical)?);
                            }
                            WKind::Concat { parts: np }
                        }
                        WKind::Slice { a, lsb } => WKind::Slice {
                            a: canon(a, &netlist.nodes, net_target, &mut canonical)?,
                            lsb,
                        },
                        other => other,
                    };
                    netlist.nodes[top as usize].kind = new_kind;
                    let fis = netlist.fanins(top);
                    let mut pushed = false;
                    for f in fis {
                        match state[f as usize] {
                            0 => {
                                stack.push(f);
                                pushed = true;
                            }
                            1 => {
                                return Err(VerilogError::general(
                                    "combinational cycle detected (latch inference or feedback loop)"
                                        .to_owned(),
                                ));
                            }
                            _ => {}
                        }
                    }
                    if !pushed && netlist.fanins(top).is_empty() {
                        // leaf: fall through to completion on next visit
                    }
                }
                1 => {
                    // All children processed?
                    let fis = netlist.fanins(top);
                    if fis.iter().all(|&f| state[f as usize] == 2) {
                        state[top as usize] = 2;
                        stack.pop();
                    } else {
                        // Some child still open → it was pushed; if it is ==1
                        // and not on top, that's a cycle, caught above.
                        let next = fis.iter().find(|&&f| state[f as usize] == 0);
                        match next {
                            Some(&f) => stack.push(f),
                            None => {
                                return Err(VerilogError::general(
                                    "combinational cycle detected (latch inference or feedback loop)"
                                        .to_owned(),
                                ));
                            }
                        }
                    }
                }
                _ => {
                    stack.pop();
                }
            }
        }
    }

    // Patch register next pointers and outputs.
    for i in 0..netlist.regs.len() {
        let nx = netlist.regs[i].next;
        let c = canon(nx, &netlist.nodes, net_target, &mut canonical)?;
        let w = netlist.regs[i].width;
        if netlist.nodes[c as usize].width != w {
            return Err(VerilogError::general(format!(
                "register '{}' next-state width mismatch",
                netlist.regs[i].name
            )));
        }
        netlist.regs[i].next = c;
    }
    for i in 0..netlist.outputs.len() {
        let c = canon(
            netlist.outputs[i].1,
            &netlist.nodes,
            net_target,
            &mut canonical,
        )?;
        netlist.outputs[i].1 = c;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use crate::parser::parse;

    #[test]
    fn hierarchy_flattens_with_parameters() {
        let n = compile(
            "module add1 #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
               assign y = a + 1;
             endmodule
             module top(input clk, input [7:0] x, output [7:0] z);
               wire [7:0] t;
               add1 #(.W(8)) u0 (.a(x), .y(t));
               reg [7:0] r;
               always @(posedge clk) r <= t;
               assign z = r;
             endmodule",
            "top",
        )
        .unwrap();
        assert_eq!(n.regs().len(), 1);
        let mut sim = n.simulator();
        sim.set_input("x", 41);
        sim.step();
        sim.settle();
        assert_eq!(sim.output("z"), 42);
    }

    #[test]
    fn blocking_semantics_in_comb_block() {
        let n = compile(
            "module m(input [3:0] a, output [3:0] y);
               reg [3:0] t;
               always @(*) begin
                 t = a + 4'd1;
                 t = t + 4'd1;
               end
               assign y = t;
             endmodule",
            "m",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("a", 3);
        sim.settle();
        assert_eq!(sim.output("y"), 5);
    }

    #[test]
    fn nonblocking_reads_old_value() {
        // Classic swap: works only with correct NB semantics.
        let n = compile(
            "module m(input clk, input ld, input [3:0] av, input [3:0] bv,
                      output [3:0] ao, output [3:0] bo);
               reg [3:0] a;
               reg [3:0] b;
               always @(posedge clk)
                 if (ld) begin a <= av; b <= bv; end
                 else begin a <= b; b <= a; end
               assign ao = a;
               assign bo = b;
             endmodule",
            "m",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("ld", 1);
        sim.set_input("av", 3);
        sim.set_input("bv", 9);
        sim.step();
        sim.set_input("ld", 0);
        sim.step();
        sim.settle();
        assert_eq!(sim.output("ao"), 9);
        assert_eq!(sim.output("bo"), 3);
    }

    #[test]
    fn register_holds_when_not_assigned() {
        let n = compile(
            "module m(input clk, input en, input [3:0] d, output [3:0] q);
               reg [3:0] r;
               always @(posedge clk) if (en) r <= d;
               assign q = r;
             endmodule",
            "m",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("en", 1);
        sim.set_input("d", 7);
        sim.step();
        sim.set_input("en", 0);
        sim.set_input("d", 1);
        sim.step();
        sim.settle();
        assert_eq!(sim.output("q"), 7);
    }

    #[test]
    fn case_priority_first_match_wins() {
        let n = compile(
            "module m(input [1:0] s, output [3:0] y);
               reg [3:0] t;
               always @(*)
                 case (s)
                   2'd1: t = 4'd10;
                   2'd1: t = 4'd11;
                   default: t = 4'd0;
                 endcase
               assign y = t;
             endmodule",
            "m",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("s", 1);
        sim.settle();
        assert_eq!(sim.output("y"), 10);
    }

    #[test]
    fn casez_wildcard_matches() {
        let n = compile(
            "module m(input [3:0] s, output [1:0] y);
               reg [1:0] t;
               always @(*)
                 casez (s)
                   4'b1???: t = 2'd3;
                   4'b01??: t = 2'd2;
                   default: t = 2'd0;
                 endcase
               assign y = t;
             endmodule",
            "m",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("s", 0b1010);
        sim.settle();
        assert_eq!(sim.output("y"), 3);
        sim.set_input("s", 0b0110);
        sim.settle();
        assert_eq!(sim.output("y"), 2);
        sim.set_input("s", 0b0010);
        sim.settle();
        assert_eq!(sim.output("y"), 0);
    }

    #[test]
    fn part_select_assignment_merges() {
        let n = compile(
            "module m(input [3:0] a, input [3:0] b, output [7:0] y);
               wire [7:0] t;
               assign t[3:0] = a;
               assign t[7:4] = b;
               assign y = t;
             endmodule",
            "m",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("a", 0x5);
        sim.set_input("b", 0xA);
        sim.settle();
        assert_eq!(sim.output("y"), 0xA5);
    }

    #[test]
    fn combinational_cycle_detected() {
        let err = compile(
            "module m(output y);
               wire a;
               wire b;
               assign a = b;
               assign b = a;
               assign y = a;
             endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
    }

    #[test]
    fn latch_inference_rejected() {
        let err = compile(
            "module m(input c, input d, output y);
               reg t;
               always @(*) if (c) t = d;
               assign y = t;
             endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
    }

    #[test]
    fn undriven_net_rejected() {
        let err = compile(
            "module m(output y);
               wire a;
               assign y = a;
             endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.message.contains("never driven"), "{err}");
    }

    #[test]
    fn dynamic_bit_select_simulates() {
        let n = compile(
            "module m(input [7:0] v, input [2:0] i, output y);
               assign y = v[i];
             endmodule",
            "m",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("v", 0b0100_0000);
        sim.set_input("i", 6);
        sim.settle();
        assert_eq!(sim.output("y"), 1);
        sim.set_input("i", 5);
        sim.settle();
        assert_eq!(sim.output("y"), 0);
    }

    #[test]
    fn concat_lvalue_in_always() {
        let n = compile(
            "module m(input clk, input [7:0] d, output [3:0] hi, output [3:0] lo);
               reg [3:0] a;
               reg [3:0] b;
               always @(posedge clk) {a, b} <= d;
               assign hi = a;
               assign lo = b;
             endmodule",
            "m",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("d", 0x9C);
        sim.step();
        sim.settle();
        assert_eq!(sim.output("hi"), 0x9);
        assert_eq!(sim.output("lo"), 0xC);
    }

    #[test]
    fn shifts_and_mul() {
        let n = compile(
            "module m(input [7:0] a, input [2:0] s, output [7:0] l, output [7:0] r, output [15:0] p);
               assign l = a << s;
               assign r = a >> s;
               assign p = a * a;
             endmodule",
            "m",
        )
        .unwrap();
        let mut sim = n.simulator();
        sim.set_input("a", 13);
        sim.set_input("s", 2);
        sim.settle();
        assert_eq!(sim.output("l"), (13 << 2) & 0xFF);
        assert_eq!(sim.output("r"), 13 >> 2);
        assert_eq!(sim.output("p"), 169);
    }

    #[test]
    fn hierarchical_reg_names_are_prefixed() {
        let n = compile(
            "module sub(input clk, input d, output q);
               reg r;
               always @(posedge clk) r <= d;
               assign q = r;
             endmodule
             module top(input clk, input d, output q);
               sub s0 (.clk(clk), .d(d), .q(q));
             endmodule",
            "top",
        )
        .unwrap();
        assert_eq!(n.regs()[0].name, "s0.r");
        assert!(!n.regs()[0].top_level);
    }

    #[test]
    fn unknown_module_reported() {
        let err = compile("module m; ghost u0 (); endmodule", "m").unwrap_err();
        assert!(err.message.contains("unknown module"), "{err}");
    }

    #[test]
    fn parse_then_elaborate_error_on_width_conflict() {
        let f = parse(
            "module m(input clk);
               wire [3:0] x;
               wire [7:0] x;
             endmodule",
        )
        .unwrap();
        assert!(crate::elaborate(&f, "m").is_err());
    }
}
