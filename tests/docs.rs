//! Keeps `docs/` honest: the configuration table must list exactly the
//! `RTLT_*` environment variables the code mentions, only the bench
//! harness may read the environment at all, and every relative markdown
//! link in `README.md` and `docs/*.md` must resolve to a real file. All
//! checks are pure directory walks — no network, no build.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // Vendored stand-ins and build output are not our surface.
            if name == "vendor" || name == "target" || name == ".git" {
                continue;
            }
            walk_rs_files(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Every `RTLT_<NAME>` token in `text`, longest-match.
fn rtlt_tokens(text: &str, into: &mut BTreeSet<String>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(off) = text[i..].find("RTLT_") {
        let start = i + off;
        let mut end = start + "RTLT_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end] == b'_'
                || bytes[end].is_ascii_digit())
        {
            end += 1;
        }
        if end > start + "RTLT_".len() {
            into.insert(text[start..end].trim_end_matches('_').to_string());
        }
        i = end;
    }
}

#[test]
fn configuration_table_matches_the_env_vars_the_code_mentions() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        walk_rs_files(&root.join(dir), &mut files);
    }
    assert!(!files.is_empty(), "source walk found nothing — wrong root?");

    let mut in_code = BTreeSet::new();
    for f in &files {
        if let Ok(text) = fs::read_to_string(f) {
            rtlt_tokens(&text, &mut in_code);
        }
    }

    // Documented = the rows of the configuration.md table (lines of the
    // form `| `RTLT_...` | ... |`), not incidental prose mentions.
    let config = fs::read_to_string(root.join("docs/configuration.md"))
        .expect("docs/configuration.md exists");
    let mut documented = BTreeSet::new();
    for line in config.lines() {
        if let Some(rest) = line.strip_prefix("| `RTLT_") {
            let var = rest.split('`').next().unwrap_or("");
            documented.insert(format!("RTLT_{var}"));
        }
    }

    let undocumented: Vec<_> = in_code.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&in_code).collect();
    assert!(
        undocumented.is_empty(),
        "env vars used in code but missing from docs/configuration.md: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "env vars documented in docs/configuration.md but absent from code: {stale:?}"
    );
}

/// Settings reach the library crates as arguments; only the bench harness
/// (`crates/bench/src`) turns environment variables into them. A runtime
/// switch read deep inside a library layer fails here instead of landing
/// as a new knob.
#[test]
fn only_the_bench_harness_reads_the_environment() {
    let root = repo_root();
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .flatten()
    {
        if krate.file_name() != "bench" {
            walk_rs_files(&krate.path().join("src"), &mut files);
        }
    }
    assert!(!files.is_empty(), "source walk found nothing — wrong root?");
    let readers: Vec<String> = files
        .iter()
        .filter(|f| fs::read_to_string(f).is_ok_and(|text| text.contains("env::var")))
        .map(|f| f.strip_prefix(&root).unwrap_or(f).display().to_string())
        .collect();
    assert!(
        readers.is_empty(),
        "library code reads the environment (take the setting as an argument \
         and read it in crates/bench/src): {readers:?}"
    );
}

/// Extracts markdown link targets: the `x` of `](x)`, minus anchors.
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(off) = text[i..].find("](") {
        let start = i + off + 2;
        if let Some(len) = text[start..].find(')') {
            let target = &text[start..start + len];
            out.push(target.split('#').next().unwrap_or("").to_string());
            i = start + len;
        } else {
            break;
        }
    }
    out
}

#[test]
fn every_relative_doc_link_resolves() {
    let root = repo_root();
    let mut pages = vec![root.join("README.md")];
    for entry in fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .flatten()
    {
        if entry.path().extension().and_then(|e| e.to_str()) == Some("md") {
            pages.push(entry.path());
        }
    }
    assert!(pages.len() >= 5, "expected README + at least 4 docs pages");

    let mut broken = Vec::new();
    for page in &pages {
        let text = fs::read_to_string(page).expect("readable page");
        let dir = page.parent().expect("page has a dir");
        for target in link_targets(&text) {
            if target.is_empty() || target.starts_with("http://") || target.starts_with("https://")
            {
                continue;
            }
            if !dir.join(&target).exists() {
                broken.push(format!("{}: {target}", page.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}
