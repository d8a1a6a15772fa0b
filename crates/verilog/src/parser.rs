//! Recursive-descent parser for the Verilog subset.

use crate::ast::*;
use crate::error::VerilogError;
use crate::lexer::{lex, Tok, Token};

/// Deepest nesting the parser accepts, counted on the tree it builds:
/// each enclosing statement, parenthesis, select, concatenation, ternary
/// branch and unary prefix is one level, and so is each operator of a
/// chain (`a ^ b ^ c` is three levels deep). Elaboration and every other
/// pass over the AST recurse on this tree, so the bound keeps them all
/// within a thread's stack: a debug build compiles 1,024 levels on a
/// 2 MiB thread and overflows at 1,536. The deepest generated design is
/// the 192-lane `hier_soc`, whose top XORs its lanes in one chain (193
/// levels): a `hier_soc` of more than 511 lanes does not parse, and
/// `annotate --lanes` refuses such counts.
pub const MAX_NESTING: u32 = 512;

/// Parses Verilog source into a [`SourceFile`].
///
/// # Errors
///
/// Returns the first lexical or syntax error with its source line,
/// including nesting beyond [`MAX_NESTING`].
pub fn parse(source: &str) -> Result<SourceFile, VerilogError> {
    let toks = lex(source)?;
    let mut p = Parser {
        toks,
        pos: 0,
        nest: 0,
    };
    let mut modules = Vec::new();
    while p.peek().is_some() {
        modules.push(p.module()?);
    }
    Ok(SourceFile { modules })
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Nesting levels open around the current position.
    nest: u32,
}

/// A parsed expression and the depth of its tree.
type Parsed = (Expr, u32);

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), VerilogError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> VerilogError {
        VerilogError::at(self.line(), msg)
    }

    /// Opens one nesting level around a recursive parse.
    fn enter(&mut self) -> Result<(), VerilogError> {
        self.nest += 1;
        if self.nest > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.nest -= 1;
    }

    /// Checks a node of tree depth `depth` built inside the open levels.
    fn node(&self, depth: u32) -> Result<u32, VerilogError> {
        if self.nest + depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(depth)
    }

    fn too_deep(&self) -> VerilogError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// A nested expression, one level deeper than the construct holding
    /// it.
    fn nested_expr(&mut self) -> Result<Parsed, VerilogError> {
        self.enter()?;
        let parsed = self.ternary()?;
        self.leave();
        Ok(parsed)
    }

    fn ident(&mut self) -> Result<String, VerilogError> {
        match self.bump() {
            Some(Token {
                tok: Tok::Ident(s), ..
            }) => Ok(s),
            other => Err(self.err(format!(
                "expected identifier, found {:?}",
                other.map(|t| t.tok)
            ))),
        }
    }

    // ---- modules --------------------------------------------------------

    fn module(&mut self) -> Result<Module, VerilogError> {
        let line = self.line();
        self.expect(Tok::Module)?;
        let name = self.ident()?;
        let mut items: Vec<Item> = Vec::new();
        let mut port_order: Vec<String> = Vec::new();

        // Optional parameter header `#( parameter P = e, ... )`.
        if self.eat(&Tok::Hash) {
            self.expect(Tok::LParen)?;
            loop {
                let pline = self.line();
                let local = match self.peek() {
                    Some(Tok::Parameter) => {
                        self.bump();
                        false
                    }
                    Some(Tok::Localparam) => {
                        self.bump();
                        true
                    }
                    _ => false,
                };
                let pname = self.ident()?;
                self.expect(Tok::Eq)?;
                let value = self.expr()?;
                items.push(Item::ParamDecl {
                    name: pname,
                    value,
                    local,
                    line: pline,
                });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }

        // Optional port header: ANSI or plain name list.
        if self.eat(&Tok::LParen) && !self.eat(&Tok::RParen) {
            loop {
                match self.peek() {
                    Some(Tok::Input) | Some(Tok::Output) => {
                        let (decl, names) = self.ansi_port_decl()?;
                        port_order.extend(names);
                        items.push(decl);
                    }
                    Some(Tok::Ident(_)) => {
                        port_order.push(self.ident()?);
                    }
                    _ => return Err(self.err("expected port declaration")),
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::Semi)?;

        while self.peek() != Some(&Tok::Endmodule) {
            if self.peek().is_none() {
                return Err(self.err(format!("missing endmodule for module {name}")));
            }
            items.push(self.item()?);
        }
        self.expect(Tok::Endmodule)?;
        Ok(Module {
            name,
            port_order,
            items,
            line,
        })
    }

    /// One ANSI header port entry: `input [7:0] a` (single name; additional
    /// comma-separated names are handled by the caller loop re-entering on
    /// direction keywords or bare identifiers continuing the previous decl —
    /// for simplicity each entry here carries exactly one name).
    fn ansi_port_decl(&mut self) -> Result<(Item, Vec<String>), VerilogError> {
        let line = self.line();
        let dir = match self.bump().map(|t| t.tok) {
            Some(Tok::Input) => Dir::Input,
            Some(Tok::Output) => Dir::Output,
            _ => return Err(self.err("expected input/output")),
        };
        let reg = self.eat(&Tok::Reg);
        if self.eat(&Tok::Wire) {
            // `input wire x` — wire is the default; accept and ignore.
        }
        let range = self.opt_range()?;
        let name = self.ident()?;
        Ok((
            Item::PortDecl {
                dir,
                reg,
                range,
                names: vec![name.clone()],
                line,
            },
            vec![name],
        ))
    }

    fn opt_range(&mut self) -> Result<Option<(Expr, Expr)>, VerilogError> {
        if self.eat(&Tok::LBracket) {
            let msb = self.expr()?;
            self.expect(Tok::Colon)?;
            let lsb = self.expr()?;
            self.expect(Tok::RBracket)?;
            Ok(Some((msb, lsb)))
        } else {
            Ok(None)
        }
    }

    // ---- items ----------------------------------------------------------

    fn item(&mut self) -> Result<Item, VerilogError> {
        let line = self.line();
        match self.peek() {
            Some(Tok::Input) | Some(Tok::Output) => {
                let dir = if matches!(self.bump().unwrap().tok, Tok::Input) {
                    Dir::Input
                } else {
                    Dir::Output
                };
                let reg = self.eat(&Tok::Reg);
                let range = self.opt_range()?;
                let names = self.name_list()?;
                self.expect(Tok::Semi)?;
                Ok(Item::PortDecl {
                    dir,
                    reg,
                    range,
                    names,
                    line,
                })
            }
            Some(Tok::Wire) | Some(Tok::Reg) => {
                let kind = if matches!(self.bump().unwrap().tok, Tok::Wire) {
                    NetKind::Wire
                } else {
                    NetKind::Reg
                };
                let range = self.opt_range()?;
                let names = self.name_list()?;
                self.expect(Tok::Semi)?;
                Ok(Item::NetDecl {
                    kind,
                    range,
                    names,
                    line,
                })
            }
            Some(Tok::Parameter) | Some(Tok::Localparam) => {
                let local = matches!(self.bump().unwrap().tok, Tok::Localparam);
                let name = self.ident()?;
                self.expect(Tok::Eq)?;
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Item::ParamDecl {
                    name,
                    value,
                    local,
                    line,
                })
            }
            Some(Tok::Assign) => {
                self.bump();
                let lhs = self.lvalue()?;
                self.expect(Tok::Eq)?;
                let rhs = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Item::Assign { lhs, rhs, line })
            }
            Some(Tok::Always) => {
                self.bump();
                let sens = self.sensitivity()?;
                let body = self.stmt()?;
                Ok(Item::Always(AlwaysBlock { sens, body, line }))
            }
            Some(Tok::Ident(_)) => self.instance(line),
            other => Err(self.err(format!("unexpected item start: {other:?}"))),
        }
    }

    fn name_list(&mut self) -> Result<Vec<String>, VerilogError> {
        let mut names = vec![self.ident()?];
        while self.eat(&Tok::Comma) {
            names.push(self.ident()?);
        }
        Ok(names)
    }

    fn sensitivity(&mut self) -> Result<Sensitivity, VerilogError> {
        self.expect(Tok::At)?;
        self.expect(Tok::LParen)?;
        if self.eat(&Tok::Star) {
            self.expect(Tok::RParen)?;
            return Ok(Sensitivity::Comb);
        }
        // Either an edge list or a plain signal list (combinational).
        match self.peek() {
            Some(Tok::Posedge) | Some(Tok::Negedge) => {
                let mut edges = Vec::new();
                loop {
                    let kind = match self.bump().map(|t| t.tok) {
                        Some(Tok::Posedge) => EdgeKind::Pos,
                        Some(Tok::Negedge) => EdgeKind::Neg,
                        _ => return Err(self.err("expected posedge/negedge")),
                    };
                    edges.push((kind, self.ident()?));
                    if !(self.eat(&Tok::OrKw) || self.eat(&Tok::Comma)) {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
                Ok(Sensitivity::Edges(edges))
            }
            _ => {
                // `@(a or b or c)` — level-sensitive list; treated as comb.
                loop {
                    self.ident()?;
                    if !(self.eat(&Tok::OrKw) || self.eat(&Tok::Comma)) {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
                Ok(Sensitivity::Comb)
            }
        }
    }

    fn instance(&mut self, line: u32) -> Result<Item, VerilogError> {
        let module = self.ident()?;
        let mut params = Vec::new();
        if self.eat(&Tok::Hash) {
            self.expect(Tok::LParen)?;
            loop {
                self.expect(Tok::Dot)?;
                let pname = self.ident()?;
                self.expect(Tok::LParen)?;
                let value = self.expr()?;
                self.expect(Tok::RParen)?;
                params.push((pname, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let conns = if self.peek() == Some(&Tok::Dot) {
            let mut named = Vec::new();
            loop {
                self.expect(Tok::Dot)?;
                let pname = self.ident()?;
                self.expect(Tok::LParen)?;
                let e = if self.peek() == Some(&Tok::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::RParen)?;
                named.push((pname, e));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            Connections::Named(named)
        } else if self.peek() == Some(&Tok::RParen) {
            Connections::Ordered(Vec::new())
        } else {
            let mut exprs = vec![self.expr()?];
            while self.eat(&Tok::Comma) {
                exprs.push(self.expr()?);
            }
            Connections::Ordered(exprs)
        };
        self.expect(Tok::RParen)?;
        self.expect(Tok::Semi)?;
        Ok(Item::Instance {
            module,
            name,
            params,
            conns,
            line,
        })
    }

    // ---- statements -----------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, VerilogError> {
        self.enter()?;
        let stmt = self.stmt_body()?;
        self.leave();
        Ok(stmt)
    }

    fn stmt_body(&mut self) -> Result<Stmt, VerilogError> {
        match self.peek() {
            Some(Tok::Begin) => {
                self.bump();
                // Optional block label `begin : name`.
                if self.eat(&Tok::Colon) {
                    self.ident()?;
                }
                let mut stmts = Vec::new();
                while self.peek() != Some(&Tok::End) {
                    if self.peek().is_none() {
                        return Err(self.err("missing end"));
                    }
                    stmts.push(self.stmt()?);
                }
                self.bump();
                Ok(Stmt::Block(stmts))
            }
            Some(Tok::If) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_br = Box::new(self.stmt()?);
                let else_br = if self.eat(&Tok::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_br,
                    else_br,
                })
            }
            Some(Tok::Case) | Some(Tok::Casez) => {
                let wildcard = matches!(self.bump().unwrap().tok, Tok::Casez);
                self.expect(Tok::LParen)?;
                let subject = self.expr()?;
                self.expect(Tok::RParen)?;
                let mut arms = Vec::new();
                let mut default = None;
                while self.peek() != Some(&Tok::Endcase) {
                    if self.peek().is_none() {
                        return Err(self.err("missing endcase"));
                    }
                    if self.eat(&Tok::Default) {
                        self.eat(&Tok::Colon);
                        default = Some(Box::new(self.stmt()?));
                    } else {
                        let mut labels = vec![self.expr()?];
                        while self.eat(&Tok::Comma) {
                            labels.push(self.expr()?);
                        }
                        self.expect(Tok::Colon)?;
                        let body = self.stmt()?;
                        arms.push(CaseArm { labels, body });
                    }
                }
                self.bump();
                Ok(Stmt::Case {
                    wildcard,
                    subject,
                    arms,
                    default,
                })
            }
            Some(Tok::Semi) => {
                self.bump();
                Ok(Stmt::Empty)
            }
            _ => {
                let line = self.line();
                let lhs = self.lvalue()?;
                let blocking = match self.bump().map(|t| t.tok) {
                    Some(Tok::Eq) => true,
                    Some(Tok::Le) => false,
                    other => return Err(self.err(format!("expected = or <=, found {other:?}"))),
                };
                let rhs = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Assign {
                    lhs,
                    rhs,
                    blocking,
                    line,
                })
            }
        }
    }

    fn lvalue(&mut self) -> Result<LValue, VerilogError> {
        if self.eat(&Tok::LBrace) {
            self.enter()?;
            let mut parts = vec![self.lvalue()?];
            while self.eat(&Tok::Comma) {
                parts.push(self.lvalue()?);
            }
            self.expect(Tok::RBrace)?;
            self.leave();
            return Ok(LValue::Concat(parts));
        }
        let name = self.ident()?;
        if self.eat(&Tok::LBracket) {
            let first = self.expr()?;
            if self.eat(&Tok::Colon) {
                let lsb = self.expr()?;
                self.expect(Tok::RBracket)?;
                Ok(LValue::Part {
                    name,
                    msb: first,
                    lsb,
                })
            } else {
                self.expect(Tok::RBracket)?;
                Ok(LValue::Bit { name, index: first })
            }
        } else {
            Ok(LValue::Ident(name))
        }
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, VerilogError> {
        Ok(self.ternary()?.0)
    }

    fn ternary(&mut self) -> Result<Parsed, VerilogError> {
        let (cond, dc) = self.binary(0)?;
        if self.eat(&Tok::Question) {
            let (then_e, dt) = self.nested_expr()?;
            self.expect(Tok::Colon)?;
            let (else_e, de) = self.nested_expr()?;
            let depth = self.node(1 + dc.max(dt).max(de))?;
            Ok((
                Expr::Ternary {
                    cond: Box::new(cond),
                    then_e: Box::new(then_e),
                    else_e: Box::new(else_e),
                },
                depth,
            ))
        } else {
            Ok((cond, dc))
        }
    }

    /// Precedence-climbing binary expression parser. Levels (low → high):
    /// `||`, `&&`, `|`, `^ ~^`, `&`, `== !=`, `< <= > >=`, `<< >>`, `+ -`, `*`.
    fn binary(&mut self, min_level: u8) -> Result<Parsed, VerilogError> {
        let (mut lhs, mut depth) = self.unary()?;
        loop {
            let (op, level) = match self.peek() {
                Some(Tok::PipePipe) => (BinaryOp::LogOr, 0),
                Some(Tok::AmpAmp) => (BinaryOp::LogAnd, 1),
                Some(Tok::Pipe) => (BinaryOp::Or, 2),
                Some(Tok::Caret) => (BinaryOp::Xor, 3),
                Some(Tok::TildeCaret) => (BinaryOp::Xnor, 3),
                Some(Tok::Amp) => (BinaryOp::And, 4),
                Some(Tok::EqEq) => (BinaryOp::Eq, 5),
                Some(Tok::NotEq) => (BinaryOp::Ne, 5),
                Some(Tok::Lt) => (BinaryOp::Lt, 6),
                Some(Tok::Le) => (BinaryOp::Le, 6),
                Some(Tok::Gt) => (BinaryOp::Gt, 6),
                Some(Tok::Ge) => (BinaryOp::Ge, 6),
                Some(Tok::Shl) => (BinaryOp::Shl, 7),
                Some(Tok::Shr) => (BinaryOp::Shr, 7),
                Some(Tok::Plus) => (BinaryOp::Add, 8),
                Some(Tok::Minus) => (BinaryOp::Sub, 8),
                Some(Tok::Star) => (BinaryOp::Mul, 9),
                _ => break,
            };
            if level < min_level {
                break;
            }
            self.bump();
            let (rhs, dr) = self.binary(level + 1)?;
            // A left-deep chain grows the tree one level per operator.
            depth = self.node(1 + depth.max(dr))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok((lhs, depth))
    }

    fn unary(&mut self) -> Result<Parsed, VerilogError> {
        let op = match self.peek() {
            Some(Tok::Bang) => Some(UnaryOp::LogNot),
            Some(Tok::Tilde) => Some(UnaryOp::BitNot),
            Some(Tok::Minus) => Some(UnaryOp::Neg),
            Some(Tok::Plus) => None,
            Some(Tok::Amp) => Some(UnaryOp::RedAnd),
            Some(Tok::Pipe) => Some(UnaryOp::RedOr),
            Some(Tok::Caret) => Some(UnaryOp::RedXor),
            Some(Tok::TildeAmp) => Some(UnaryOp::RedNand),
            Some(Tok::TildePipe) => Some(UnaryOp::RedNor),
            Some(Tok::TildeCaret) => Some(UnaryOp::RedXnor),
            _ => return self.primary(),
        };
        // Every prefix, unary `+` included, is one level.
        self.bump();
        self.enter()?;
        let (operand, d) = self.unary()?;
        self.leave();
        let depth = self.node(1 + d)?;
        match op {
            Some(op) => Ok((
                Expr::Unary {
                    op,
                    operand: Box::new(operand),
                },
                depth,
            )),
            None => Ok((operand, depth)),
        }
    }

    fn primary(&mut self) -> Result<Parsed, VerilogError> {
        match self.peek().cloned() {
            Some(Tok::Number {
                width,
                value,
                zmask,
            }) => {
                self.bump();
                let depth = self.node(1)?;
                Ok((
                    Expr::Number {
                        width,
                        value,
                        zmask,
                    },
                    depth,
                ))
            }
            Some(Tok::Ident(_)) => {
                let name = self.ident()?;
                if self.eat(&Tok::LBracket) {
                    let (first, df) = self.nested_expr()?;
                    if self.eat(&Tok::Colon) {
                        let (lsb, dl) = self.nested_expr()?;
                        self.expect(Tok::RBracket)?;
                        let depth = self.node(1 + df.max(dl))?;
                        Ok((
                            Expr::Part {
                                base: name,
                                msb: Box::new(first),
                                lsb: Box::new(lsb),
                            },
                            depth,
                        ))
                    } else {
                        self.expect(Tok::RBracket)?;
                        let depth = self.node(1 + df)?;
                        Ok((
                            Expr::Bit {
                                base: name,
                                index: Box::new(first),
                            },
                            depth,
                        ))
                    }
                } else {
                    let depth = self.node(1)?;
                    Ok((Expr::Ident(name), depth))
                }
            }
            Some(Tok::LParen) => {
                self.bump();
                // Parentheses build no node but are one level.
                let (e, d) = self.nested_expr()?;
                self.expect(Tok::RParen)?;
                let depth = self.node(1 + d)?;
                Ok((e, depth))
            }
            Some(Tok::LBrace) => {
                self.bump();
                let (first, df) = self.nested_expr()?;
                if self.peek() == Some(&Tok::LBrace) {
                    // `{n{e}}` replication.
                    self.bump();
                    let (inner, di) = self.nested_expr()?;
                    self.expect(Tok::RBrace)?;
                    self.expect(Tok::RBrace)?;
                    let depth = self.node(1 + df.max(di))?;
                    return Ok((
                        Expr::Repeat {
                            count: Box::new(first),
                            inner: Box::new(inner),
                        },
                        depth,
                    ));
                }
                let mut parts = vec![first];
                let mut deepest = df;
                while self.eat(&Tok::Comma) {
                    let (part, d) = self.nested_expr()?;
                    deepest = deepest.max(d);
                    parts.push(part);
                }
                self.expect(Tok::RBrace)?;
                let depth = self.node(1 + deepest)?;
                Ok((Expr::Concat(parts), depth))
            }
            other => Err(self.err(format!("unexpected token in expression: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> SourceFile {
        parse(src).expect("parse failure")
    }

    #[test]
    fn minimal_module() {
        let f = parse_ok("module m; endmodule");
        assert_eq!(f.modules.len(), 1);
        assert_eq!(f.modules[0].name, "m");
    }

    #[test]
    fn ansi_ports() {
        let f = parse_ok("module m(input clk, input [7:0] a, output reg [3:0] q); endmodule");
        let m = &f.modules[0];
        assert_eq!(m.port_order, vec!["clk", "a", "q"]);
        assert_eq!(m.items.len(), 3);
        match &m.items[2] {
            Item::PortDecl {
                dir: Dir::Output,
                reg: true,
                range: Some(_),
                names,
                ..
            } => {
                assert_eq!(names, &vec!["q".to_string()]);
            }
            other => panic!("bad item {other:?}"),
        }
    }

    #[test]
    fn non_ansi_ports() {
        let f = parse_ok(
            "module m(clk, q);
               input clk;
               output [3:0] q;
             endmodule",
        );
        assert_eq!(f.modules[0].port_order, vec!["clk", "q"]);
    }

    #[test]
    fn parameter_header_and_body() {
        let f = parse_ok(
            "module m #(parameter W = 8) ();
               localparam D = W * 2;
             endmodule",
        );
        let m = &f.modules[0];
        assert!(matches!(&m.items[0], Item::ParamDecl { name, local: false, .. } if name == "W"));
        assert!(matches!(&m.items[1], Item::ParamDecl { name, local: true, .. } if name == "D"));
    }

    #[test]
    fn precedence_mul_over_add() {
        let f = parse_ok("module m; wire [7:0] x; assign x = a + b * c; endmodule");
        let Item::Assign { rhs, .. } = &f.modules[0].items[1] else {
            panic!()
        };
        match rhs {
            Expr::Binary {
                op: BinaryOp::Add,
                rhs: r,
                ..
            } => {
                assert!(matches!(
                    **r,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("bad expr {other:?}"),
        }
    }

    #[test]
    fn ternary_and_comparison() {
        let f = parse_ok("module m; wire x; assign x = a < b ? c : d; endmodule");
        let Item::Assign { rhs, .. } = &f.modules[0].items[1] else {
            panic!()
        };
        assert!(matches!(rhs, Expr::Ternary { .. }));
    }

    #[test]
    fn concat_and_repeat() {
        let f = parse_ok("module m; wire [15:0] x; assign x = {a, 3'b101, {4{b}}}; endmodule");
        let Item::Assign { rhs, .. } = &f.modules[0].items[1] else {
            panic!()
        };
        let Expr::Concat(parts) = rhs else {
            panic!("not concat")
        };
        assert_eq!(parts.len(), 3);
        assert!(matches!(parts[2], Expr::Repeat { .. }));
    }

    #[test]
    fn always_posedge_with_reset_edge() {
        let f = parse_ok(
            "module m;
               reg q;
               always @(posedge clk or posedge rst)
                 if (rst) q <= 1'b0; else q <= d;
             endmodule",
        );
        let Item::Always(a) = &f.modules[0].items[1] else {
            panic!()
        };
        match &a.sens {
            Sensitivity::Edges(e) => assert_eq!(e.len(), 2),
            _ => panic!("expected edges"),
        }
    }

    #[test]
    fn always_comb_star() {
        let f = parse_ok("module m; reg x; always @(*) x = y & z; endmodule");
        let Item::Always(a) = &f.modules[0].items[1] else {
            panic!()
        };
        assert_eq!(a.sens, Sensitivity::Comb);
    }

    #[test]
    fn case_statement() {
        let f = parse_ok(
            "module m;
               reg [1:0] y;
               always @(*)
                 case (s)
                   2'd0: y = a;
                   2'd1, 2'd2: y = b;
                   default: y = c;
                 endcase
             endmodule",
        );
        let Item::Always(a) = &f.modules[0].items[1] else {
            panic!()
        };
        let Stmt::Case {
            arms,
            default,
            wildcard,
            ..
        } = &a.body
        else {
            panic!()
        };
        assert!(!wildcard);
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[1].labels.len(), 2);
        assert!(default.is_some());
    }

    #[test]
    fn casez_wildcard_labels() {
        let f = parse_ok(
            "module m;
               reg [1:0] y;
               always @(*)
                 casez (s)
                   4'b1???: y = 2'd3;
                   default: y = 2'd0;
                 endcase
             endmodule",
        );
        let Item::Always(a) = &f.modules[0].items[1] else {
            panic!()
        };
        let Stmt::Case { wildcard, arms, .. } = &a.body else {
            panic!()
        };
        assert!(*wildcard);
        match &arms[0].labels[0] {
            Expr::Number { zmask, .. } => assert_eq!(*zmask, 0b0111),
            other => panic!("bad label {other:?}"),
        }
    }

    #[test]
    fn named_instance_with_params() {
        let f = parse_ok(
            "module m;
               sub #(.W(8), .D(2)) u0 (.clk(clk), .a(x), .q(y));
             endmodule",
        );
        let Item::Instance {
            module,
            name,
            params,
            conns,
            ..
        } = &f.modules[0].items[0]
        else {
            panic!()
        };
        assert_eq!(module, "sub");
        assert_eq!(name, "u0");
        assert_eq!(params.len(), 2);
        match conns {
            Connections::Named(c) => assert_eq!(c.len(), 3),
            _ => panic!("expected named"),
        }
    }

    #[test]
    fn ordered_instance() {
        let f = parse_ok("module m; sub u0 (a, b, c); endmodule");
        let Item::Instance { conns, .. } = &f.modules[0].items[0] else {
            panic!()
        };
        match conns {
            Connections::Ordered(c) => assert_eq!(c.len(), 3),
            _ => panic!("expected ordered"),
        }
    }

    #[test]
    fn lvalue_forms() {
        let f = parse_ok(
            "module m;
               assign x = 1'b0;
               assign y[3] = a;
               assign z[7:4] = b;
               assign {c, d} = e;
             endmodule",
        );
        let kinds: Vec<_> = f.modules[0]
            .items
            .iter()
            .map(|i| match i {
                Item::Assign { lhs, .. } => match lhs {
                    LValue::Ident(_) => "id",
                    LValue::Bit { .. } => "bit",
                    LValue::Part { .. } => "part",
                    LValue::Concat(_) => "cat",
                },
                _ => "?",
            })
            .collect();
        assert_eq!(kinds, vec!["id", "bit", "part", "cat"]);
    }

    #[test]
    fn reduction_vs_binary_ampersand() {
        let f = parse_ok("module m; assign x = &a; assign y = a & b; endmodule");
        let Item::Assign { rhs: r0, .. } = &f.modules[0].items[0] else {
            panic!()
        };
        assert!(matches!(
            r0,
            Expr::Unary {
                op: UnaryOp::RedAnd,
                ..
            }
        ));
        let Item::Assign { rhs: r1, .. } = &f.modules[0].items[1] else {
            panic!()
        };
        assert!(matches!(
            r1,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn dynamic_bit_select() {
        let f = parse_ok("module m; assign x = v[i]; endmodule");
        let Item::Assign { rhs, .. } = &f.modules[0].items[0] else {
            panic!()
        };
        assert!(matches!(rhs, Expr::Bit { .. }));
    }

    #[test]
    fn error_reports_line() {
        let err = parse("module m;\n  assign = 1;\nendmodule").unwrap_err();
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn missing_endmodule() {
        assert!(parse("module m; wire x;").is_err());
    }
}
