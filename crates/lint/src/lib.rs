//! `redcane-lint` — a std-only workspace invariant checker.
//!
//! The repo's contracts — byte-identical artifacts across thread
//! counts and cold/warm stores, logical work counted at entry points,
//! library code that returns errors instead of panicking — are
//! enforced dynamically by CI `cmp` gates. This crate rejects the
//! known violation *patterns* statically, before they ship:
//!
//! - `R1(determinism)` — no `HashMap`/`HashSet` in stable-output modules
//! - `R2(clock)` — wall-clock reads only in allowlisted timing modules
//! - `R3(panic)` — no unwrap/expect/panic in library code without a
//!   justified `// lint: allow(panic) — <reason>` marker
//! - `R4(trace)` — registered kernel/forward entry points carry a
//!   `trace::` hook
//! - `R5(unsafe)` — `unsafe` only in files registered in
//!   `lint-allow.toml`
//!
//! Run it with `cargo run -p redcane-bench -- lint` (CI does, before
//! the build matrix) or via this crate's tests. Configuration lives in
//! the checked-in `lint-allow.toml` at the workspace root; the rules
//! are deliberately config-driven so tightening coverage is a data
//! change, not a code change.
#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::{Config, ConfigError, TracedRule};
pub use rules::Finding;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints one source string as if it were the file `file` with crate
/// module path `module`. Fixture tests use this directly.
pub fn lint_source(file: &str, module: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    rules::lint_lexed(file, module, &lexed, cfg)
}

/// Loads `lint-allow.toml` from the workspace root.
pub fn load_config(root: &Path) -> Result<Config, Box<dyn std::error::Error>> {
    let path = root.join("lint-allow.toml");
    let src = fs::read_to_string(&path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(Config::parse(&src)?)
}

/// Lints every `crates/**/src/**/*.rs` file under `root` (shims and
/// `tests/` trees are out of scope: fixtures would self-trip the
/// rules, and `#[cfg(test)]`-like exemption is implicit there).
///
/// Files are visited in sorted path order so the findings list is
/// itself deterministic.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for crate_dir in sorted_dirs(&root.join("crates"))? {
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = relative_display(root, &path);
            let module = module_path(root, &path).unwrap_or_else(|| "unknown".to_string());
            let src = fs::read_to_string(&path)?;
            findings.extend(lint_source(&rel, &module, &src, cfg));
        }
    }
    Ok(findings)
}

/// Entry point shared by the `lint` binary and the meta-test: lints
/// the workspace at `root`, printing findings to stderr. Returns the
/// number of findings (0 = clean).
pub fn run(root: &Path) -> Result<usize, Box<dyn std::error::Error>> {
    let cfg = load_config(root)?;
    let findings = lint_workspace(root, &cfg)?;
    for f in &findings {
        eprintln!("{f}");
    }
    if !findings.is_empty() {
        eprintln!(
            "redcane-lint: {} finding{} (rules R1–R5; see lint-allow.toml and README \
             \"Static analysis\")",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
    }
    Ok(findings.len())
}

/// Locates the workspace root by walking up from `start` until a
/// directory containing `lint-allow.toml` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("lint-allow.toml").is_file() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

/// Sorted subdirectories of `dir`.
fn sorted_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative display path with forward slashes.
fn relative_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Maps `crates/<dir>/src/<p>.rs` to the module path the config uses:
/// `lib.rs` → `<dir>`, `ops/gemm.rs` → `<dir>::ops::gemm`, `mod.rs`
/// drops its own segment, `bin/foo.rs` → `<dir>::bin::foo`.
fn module_path(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    // Expect ["crates", <dir>, "src", ...segments..., <file>.rs].
    if parts.len() < 4 || parts[0] != "crates" || parts[2] != "src" {
        return None;
    }
    let mut module = vec![parts[1].clone()];
    for seg in &parts[3..parts.len() - 1] {
        module.push(seg.clone());
    }
    let file = parts[parts.len() - 1].strip_suffix(".rs")?;
    if file != "lib" && file != "mod" && file != "main" {
        module.push(file.to_string());
    }
    Some(module.join("::"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths_follow_the_layout() {
        let root = Path::new("/w");
        let cases = [
            ("crates/qdp/src/lib.rs", "qdp"),
            ("crates/qdp/src/calib.rs", "qdp::calib"),
            ("crates/tensor/src/ops/gemm.rs", "tensor::ops::gemm"),
            ("crates/tensor/src/ops/mod.rs", "tensor::ops"),
            ("crates/bench/src/bin/pipeline.rs", "bench::bin::pipeline"),
        ];
        for (rel, want) in cases {
            assert_eq!(
                module_path(root, &root.join(rel)).as_deref(),
                Some(want),
                "{rel}"
            );
        }
    }
}
