//! The frontend's fixed bounds. Sources that used to overflow the stack
//! (self-instantiation, deep nesting) or elaborate for hours (a hierarchy
//! that doubles at every level) return a `VerilogError` naming their line,
//! and sources exactly at each bound still compile on a test thread.

use rtlt_verilog::{compile, VerilogError, MAX_HIERARCHY_DEPTH, MAX_INSTANCES, MAX_NESTING};

const BOUND: usize = MAX_NESTING as usize;

/// A one-module design whose line 2 assigns `expr`.
fn assign(expr: &str) -> String {
    format!("module m(input [3:0] a, output [3:0] y);\nassign y = {expr};\nendmodule")
}

fn xor_chain(terms: usize) -> String {
    assign(&vec!["a"; terms].join(" ^ "))
}

fn parens(levels: usize) -> String {
    assign(&format!("{}a{}", "(".repeat(levels), ")".repeat(levels)))
}

fn nots(prefixes: usize) -> String {
    assign(&format!("{}a", "~".repeat(prefixes)))
}

/// A register assigned inside `blocks` nested `begin … end` blocks, all on
/// line 3.
fn blocks(blocks: usize) -> String {
    format!(
        "module m(input clk, input a, output y);\nreg r;\nalways @(posedge clk) {}r <= a;{}\nassign y = r;\nendmodule",
        "begin ".repeat(blocks),
        " end".repeat(blocks)
    )
}

fn error(src: &str, top: &str) -> VerilogError {
    match compile(src, top) {
        Ok(_) => panic!("compiled"),
        Err(e) => e,
    }
}

fn assert_too_deep(src: &str, line: u32) {
    let e = error(src, "m");
    assert_eq!(e.line, Some(line), "{e}");
    assert!(e.message.contains("nesting deeper than"), "{e}");
}

#[test]
fn hostile_nesting_is_an_error_naming_its_line() {
    // Each of these aborted the process with a stack overflow: the chain
    // in elaboration, the others in the parser.
    assert_too_deep(&parens(5_000), 2);
    assert_too_deep(&xor_chain(20_000), 2);
    assert_too_deep(&nots(100_000), 2);
    assert_too_deep(&blocks(5_000), 3);
}

#[test]
fn sources_at_the_nesting_bound_compile_and_one_level_deeper_do_not() {
    // Depth counts the tree: a chain of `t` terms is `t` deep, and each
    // parenthesis, prefix or statement adds one level over its contents.
    compile(&xor_chain(BOUND), "m").expect("chain at the bound");
    assert_too_deep(&xor_chain(BOUND + 1), 2);
    compile(&parens(BOUND - 1), "m").expect("parentheses at the bound");
    assert_too_deep(&parens(BOUND), 2);
    compile(&nots(BOUND - 1), "m").expect("prefixes at the bound");
    assert_too_deep(&nots(BOUND), 2);
    compile(&blocks(BOUND - 2), "m").expect("blocks at the bound");
    assert_too_deep(&blocks(BOUND - 1), 3);
}

#[test]
fn self_instantiation_is_an_error_naming_its_line() {
    let e = error(
        "module m(input a, output y); m u(.a(a), .y(y)); endmodule",
        "m",
    );
    assert_eq!(e.line, Some(1), "{e}");
    assert!(e.message.contains("recurses into itself"), "{e}");
}

#[test]
fn an_instantiation_cycle_is_an_error_naming_its_line() {
    let src = "module a(input x, output y);
b u(.x(x), .y(y));
endmodule
module b(input x, output y);
a u(.x(x), .y(y));
endmodule";
    let e = error(src, "a");
    assert_eq!(e.line, Some(5), "{e}");
    assert!(e.message.contains("module 'a' recurses"), "{e}");
}

/// `levels` modules, each instantiating the previous one twice: module
/// `l{levels}` elaborates `2^(levels + 1) - 2` instances.
fn doubling(levels: usize) -> String {
    let mut src = String::from("module l0(input x, output y);\nassign y = ~x;\nendmodule\n");
    for i in 1..=levels {
        src.push_str(&format!(
            "module l{i}(input x, output y);\nwire t;\nl{p} u0(.x(x), .y(t));\nl{p} u1(.x(t), .y(y));\nendmodule\n",
            p = i - 1
        ));
    }
    src
}

#[test]
fn an_exponential_hierarchy_exceeds_the_instance_budget() {
    let started = std::time::Instant::now();
    let e = error(&doubling(16), "l16");
    assert!(e.message.contains("exceeds the budget"), "{e}");
    assert!(e.line.is_some(), "{e}");
    // At 30 levels the same hierarchy would elaborate for hours.
    let e = error(&doubling(30), "l30");
    assert!(e.message.contains("exceeds the budget"), "{e}");
    assert!(started.elapsed().as_secs() < 60);
    // Under the budget, the same shape compiles.
    let levels = (MAX_INSTANCES + 2).ilog2() as usize - 1;
    compile(&doubling(levels), &format!("l{levels}")).expect("under the budget");
}

/// A chain of `depth` modules, `c0` on top, each instantiating the next.
fn chain(depth: usize) -> String {
    let mut src = String::new();
    for i in 0..depth - 1 {
        src.push_str(&format!(
            "module c{i}(input x, output y);\nc{n} u(.x(x), .y(y));\nendmodule\n",
            n = i + 1
        ));
    }
    src.push_str(&format!(
        "module c{}(input x, output y);\nassign y = ~x;\nendmodule\n",
        depth - 1
    ));
    src
}

#[test]
fn hierarchy_depth_is_bounded() {
    compile(&chain(MAX_HIERARCHY_DEPTH), "c0").expect("at the bound");
    let e = error(&chain(MAX_HIERARCHY_DEPTH + 1), "c0");
    assert!(e.message.contains("nests deeper than"), "{e}");
    // The instance of the module one level too deep, in the last module
    // still inside the bound.
    assert_eq!(e.line, Some(3 * MAX_HIERARCHY_DEPTH as u32 - 1), "{e}");
}

/// `nets` nets in one chain of continuous assigns, `w{i} = w{i-1}`. The
/// first net is driven by the input, or with `cycle` by the last net.
fn net_chain(nets: usize, cycle: bool) -> String {
    let mut src = String::from("module m(input a, output y);\n");
    for i in 0..nets {
        src.push_str(&format!("wire w{i};\n"));
    }
    let first = if cycle {
        format!("w{}", nets - 1)
    } else {
        "a".to_owned()
    };
    src.push_str(&format!("assign w0 = {first};\n"));
    for i in 1..nets {
        src.push_str(&format!("assign w{i} = w{};\n", i - 1));
    }
    src.push_str(&format!("assign y = w{};\nendmodule\n", nets - 1));
    src
}

#[test]
fn a_long_net_chain_resolves_and_a_long_net_cycle_is_an_error() {
    // A cycle check that scans the chain followed so far at every net is
    // quadratic: seconds at this length.
    let on_small_stack = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            compile(&net_chain(100_000, false), "m").expect("the chain compiles");
            error(&net_chain(100_000, true), "m")
        })
        .expect("spawn a 2 MiB thread");
    let e = on_small_stack.join().expect("no stack overflow");
    assert!(
        e.message
            .contains("combinational cycle through net 'w99999'"),
        "{e}"
    );
}
