//! Per-module source extraction and content hashing.
//!
//! The incremental re-annotation loop (paper §3.5.1) needs the prepare
//! pipeline keyed at *module* granularity: editing one module must not
//! invalidate artifacts derived only from unchanged modules. This module
//! provides the stable text-level foundation:
//!
//! * [`split_modules`] — lexer-driven extraction of each `module …
//!   endmodule` span as its own text slice (comment/string safe, unlike a
//!   regex scan),
//! * [`module_keys`] — per-module content keys
//!   `H(name, text, dep_module_keys)`, dependency-closed over the
//!   instantiation graph so a module's key transitively covers everything
//!   its elaboration can read below it,
//! * [`design_key`] — the dep-closed key of a top module, the root of every
//!   prepare-stage cache key. Editing a module *outside* the top's
//!   dependency cone leaves it unchanged,
//! * [`text_keys`] — each module's own text key `H(name, text)`, in
//!   declaration order (the incremental dirty-module diff), and
//! * [`dependency_cone`] — the module set reachable from a top (what the
//!   compile stage is actually a function of).
//!
//! Parameter flow is downward (parent instantiates child with overrides),
//! so dep-closure plus the ancestor chain covers every source a node's
//! elaboration depends on; [`dependency_cone`] of the top is the union of
//! both for a whole design.

use crate::ast::{Item, Module, SourceFile};
use crate::error::VerilogError;
use crate::lexer::{lex, Tok};
use rtlt_store::{ContentHash, KeyBuilder};
use std::collections::{BTreeMap, BTreeSet};

/// One module's extracted source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleSource {
    /// Module name.
    pub name: String,
    /// The module's text, exactly the source lines
    /// `start_line..=end_line` (newline-joined, no trailing newline).
    pub text: String,
    /// 1-based line of the `module` keyword in the original source.
    pub start_line: u32,
    /// 1-based line of the matching `endmodule`.
    pub end_line: u32,
}

/// All modules of a source file, in declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleSources {
    /// Extracted modules.
    pub modules: Vec<ModuleSource>,
}

impl ModuleSources {
    /// Finds a module by name.
    pub fn get(&self, name: &str) -> Option<&ModuleSource> {
        self.modules.iter().find(|m| m.name == name)
    }
}

/// Splits a source file into per-module text slices.
///
/// Spans are line-granular: each module must start on its own line (no two
/// modules sharing a line), which every formatter and all generated sources
/// satisfy. Violations are reported as errors so callers can fall back to
/// whole-file handling.
///
/// # Errors
///
/// Lexer errors, `module` without a name, unterminated/nested module
/// spans, duplicate module names, or two modules sharing a source line.
pub fn split_modules(source: &str) -> Result<ModuleSources, VerilogError> {
    let toks = lex(source)?;
    let mut spans: Vec<(String, u32, u32)> = Vec::new();
    let mut open: Option<(String, u32)> = None;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Module => {
                if let Some((name, _)) = &open {
                    return Err(VerilogError::at(
                        toks[i].line,
                        format!("nested module inside '{name}'"),
                    ));
                }
                let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else {
                    return Err(VerilogError::at(toks[i].line, "module without a name"));
                };
                open = Some((name.clone(), toks[i].line));
            }
            Tok::Endmodule => {
                let Some((name, start)) = open.take() else {
                    return Err(VerilogError::at(toks[i].line, "endmodule without module"));
                };
                spans.push((name, start, toks[i].line));
            }
            _ => {}
        }
        i += 1;
    }
    if let Some((name, line)) = open {
        return Err(VerilogError::at(
            line,
            format!("module '{name}' not closed"),
        ));
    }

    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::with_capacity(spans.len());
    let mut seen = BTreeSet::new();
    let mut prev_end = 0u32;
    for (name, start, end) in spans {
        if !seen.insert(name.clone()) {
            return Err(VerilogError::at(
                start,
                format!("duplicate module '{name}'"),
            ));
        }
        if start <= prev_end {
            return Err(VerilogError::at(
                start,
                format!("module '{name}' shares a line with the previous module"),
            ));
        }
        prev_end = end;
        let text = lines[start as usize - 1..end as usize]
            .join("\n")
            .to_owned();
        out.push(ModuleSource {
            name,
            text,
            start_line: start,
            end_line: end,
        });
    }
    Ok(ModuleSources { modules: out })
}

/// Content keys of each module's text alone (`H(name, text)`, no
/// dependency closure), in declaration order; empty when the source cannot
/// be split. This is the per-module identity the incremental dirty-module
/// diff uses: a cone's provenance set already contains every contributing
/// module explicitly (descendants via their own nodes, ancestors via the
/// scope chain), so closing each key over the instantiation graph would be
/// redundant there — and would wrongly couple sibling modules through
/// their common parent.
pub fn text_keys(source: &str) -> Vec<(String, ContentHash)> {
    let Ok(sources) = split_modules(source) else {
        return Vec::new();
    };
    sources
        .modules
        .into_iter()
        .map(|m| {
            let key = KeyBuilder::new("rtlt.module.text")
                .str(&m.name)
                .str(&m.text)
                .finish();
            (m.name, key)
        })
        .collect()
}

/// Direct dependencies (instantiated module names) of a parsed module,
/// sorted and deduplicated.
pub fn direct_deps(module: &Module) -> Vec<String> {
    let mut deps: Vec<String> = module
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Instance { module, .. } => Some(module.clone()),
            _ => None,
        })
        .collect();
    deps.sort();
    deps.dedup();
    deps
}

/// Module names in the dependency cone of `top` (top first, then BFS
/// order), restricted to modules present in `file`.
pub fn dependency_cone(file: &SourceFile, top: &str) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut order = Vec::new();
    let mut queue = vec![top.to_owned()];
    while let Some(name) = queue.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        let Some(m) = file.module(&name) else {
            continue;
        };
        order.push(name);
        for d in direct_deps(m) {
            if !seen.contains(&d) {
                queue.push(d);
            }
        }
    }
    order
}

fn key_of(
    name: &str,
    texts: &BTreeMap<&str, &str>,
    deps: &BTreeMap<&str, Vec<String>>,
    memo: &mut BTreeMap<String, ContentHash>,
    visiting: &mut BTreeSet<String>,
) -> ContentHash {
    if let Some(k) = memo.get(name) {
        return *k;
    }
    // A missing module (frontend will error later) or a recursive
    // instantiation (always an elaboration error) keys by name alone; no
    // stage ever caches a failed elaboration, so this only has to be
    // stable, not meaningful.
    let key = match texts.get(name) {
        Some(text) if visiting.insert(name.to_owned()) => {
            let mut b = KeyBuilder::new("rtlt.module").str(name).str(text);
            for d in &deps[name] {
                let dk = key_of(d, texts, deps, memo, visiting);
                b = b.key(&dk);
            }
            visiting.remove(name);
            b.finish()
        }
        _ => KeyBuilder::new("rtlt.module.unresolved").str(name).finish(),
    };
    memo.insert(name.to_owned(), key);
    key
}

/// Dependency-closed content keys of every module:
/// `H(name, text, dep_module_keys)` over the instantiation graph.
pub fn module_keys(sources: &ModuleSources, file: &SourceFile) -> BTreeMap<String, ContentHash> {
    let texts: BTreeMap<&str, &str> = sources
        .modules
        .iter()
        .map(|m| (m.name.as_str(), m.text.as_str()))
        .collect();
    let deps: BTreeMap<&str, Vec<String>> = file
        .modules
        .iter()
        .map(|m| (m.name.as_str(), direct_deps(m)))
        .collect();
    let mut memo = BTreeMap::new();
    let mut visiting = BTreeSet::new();
    for m in &sources.modules {
        key_of(&m.name, &texts, &deps, &mut memo, &mut visiting);
    }
    memo
}

/// The module-granular identity of a compile: the dep-closed content key
/// of `top`, folded with the *file position* of every module in `top`'s
/// dependency cone. Positions matter because declaration line numbers in
/// the elaborated netlist are absolute file coordinates — moving a cone
/// module within the file changes the compiled design even though no
/// module text changed. Modules outside the cone affect neither text nor
/// cone positions, so appending or editing them leaves the key unchanged.
/// `None` when the source cannot be split/parsed (callers fall back to
/// whole-source hashing).
pub fn design_key(source: &str, top: &str) -> Option<ContentHash> {
    let sources = split_modules(source).ok()?;
    sources.get(top)?;
    let file = crate::parse(source).ok()?;
    let top_key = module_keys(&sources, &file).get(top).copied()?;
    let mut b = KeyBuilder::new("rtlt.design").key(&top_key);
    for name in dependency_cone(&file, top) {
        if let Some(m) = sources.get(&name) {
            b = b.str(&m.name).u64(m.start_line as u64);
        }
    }
    Some(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_MODULES: &str = "// header comment\n\
module leaf(input [3:0] a, output [3:0] y);\n\
  assign y = a + 4'd1;\n\
endmodule\n\
\n\
module top(input clk, input [3:0] x, output [3:0] z);\n\
  wire [3:0] t;\n\
  leaf u0 (.a(x), .y(t));\n\
  reg [3:0] r;\n\
  always @(posedge clk) r <= t;\n\
  assign z = r;\n\
endmodule\n";

    #[test]
    fn split_extracts_each_module_span() {
        let mods = split_modules(TWO_MODULES).unwrap();
        assert_eq!(mods.modules.len(), 2);
        let leaf = mods.get("leaf").unwrap();
        assert_eq!(leaf.start_line, 2);
        assert!(leaf.text.starts_with("module leaf"));
        assert!(leaf.text.ends_with("endmodule"));
        let top = mods.get("top").unwrap();
        assert_eq!(top.start_line, 6);
        assert!(top.text.contains("leaf u0"));
        // Text keys come in declaration order, not name order.
        let swapped = format!("{}\n{}", top.text, leaf.text);
        let names: Vec<String> = text_keys(&swapped).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["top", "leaf"]);
    }

    #[test]
    fn split_rejects_malformed_nesting() {
        assert!(split_modules("module a(); module b(); endmodule").is_err());
        assert!(split_modules("endmodule").is_err());
        assert!(split_modules("module a(); endmodule endmodule").is_err());
        assert!(split_modules("module a(); ").is_err());
        assert!(text_keys("module a(); ").is_empty());
    }

    #[test]
    fn split_is_comment_safe() {
        let src = "// module fake\nmodule real_one(input a, output y);\n/* module ghost */\nassign y = a;\nendmodule";
        let mods = split_modules(src).unwrap();
        assert_eq!(mods.modules.len(), 1);
        assert_eq!(mods.modules[0].name, "real_one");
    }

    #[test]
    fn keys_are_stable_and_dep_closed() {
        let mods = split_modules(TWO_MODULES).unwrap();
        let file = crate::parse(TWO_MODULES).unwrap();
        let k1 = module_keys(&mods, &file);
        let k2 = module_keys(&mods, &file);
        assert_eq!(k1, k2);

        // Editing the leaf changes both the leaf key and the top key.
        let edited = TWO_MODULES.replace("a + 4'd1", "a + 4'd2");
        let emods = split_modules(&edited).unwrap();
        let efile = crate::parse(&edited).unwrap();
        let k3 = module_keys(&emods, &efile);
        assert_ne!(k1["leaf"], k3["leaf"]);
        assert_ne!(k1["top"], k3["top"]);

        // Editing only the top leaves the leaf key unchanged.
        let edited = TWO_MODULES.replace("r <= t", "r <= t + 4'd1");
        let emods = split_modules(&edited).unwrap();
        let efile = crate::parse(&edited).unwrap();
        let k4 = module_keys(&emods, &efile);
        assert_eq!(k1["leaf"], k4["leaf"]);
        assert_ne!(k1["top"], k4["top"]);
    }

    #[test]
    fn design_key_ignores_modules_outside_the_cone() {
        let with_extra = format!(
            "{TWO_MODULES}\nmodule unused(input a, output y);\n  assign y = ~a;\nendmodule\n"
        );
        assert_eq!(
            design_key(TWO_MODULES, "top").unwrap(),
            design_key(&with_extra, "top").unwrap()
        );
        // But the unused module's own key exists and differs from top's.
        assert_ne!(
            design_key(&with_extra, "unused").unwrap(),
            design_key(&with_extra, "top").unwrap()
        );
    }

    #[test]
    fn design_key_tracks_cone_module_positions() {
        // Moving a cone module within the file shifts its declaration line
        // numbers (absolute coordinates in the elaborated netlist), so the
        // key must change even though no module text changed.
        let shifted = format!("// extra leading comment line\n{TWO_MODULES}");
        assert_ne!(
            design_key(TWO_MODULES, "top").unwrap(),
            design_key(&shifted, "top").unwrap()
        );
        // An unused module *below* every cone module shifts nothing.
        let below = format!(
            "{TWO_MODULES}\nmodule unused(input a, output y);\n  assign y = a;\nendmodule\n"
        );
        assert_eq!(
            design_key(TWO_MODULES, "top").unwrap(),
            design_key(&below, "top").unwrap()
        );
    }

    #[test]
    fn dependency_cone_reaches_instantiated_modules() {
        let file = crate::parse(TWO_MODULES).unwrap();
        let cone = dependency_cone(&file, "top");
        assert_eq!(cone, vec!["top".to_owned(), "leaf".to_owned()]);
        assert_eq!(dependency_cone(&file, "leaf"), vec!["leaf".to_owned()]);
    }

    #[test]
    fn recursive_instantiation_keys_without_hanging() {
        let src = "module a(input x, output y);\n  a u0 (.x(x), .y(y));\nendmodule";
        let mods = split_modules(src).unwrap();
        let file = crate::parse(src).unwrap();
        let keys = module_keys(&mods, &file);
        assert!(keys.contains_key("a"));
    }
}
