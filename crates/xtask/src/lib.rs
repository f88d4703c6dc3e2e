//! `xtask` — offline workspace automation for RUSH.
//!
//! Two subcommands: `lint`, a from-scratch, registry-free static-analysis
//! pass enforcing the workspace's RUSH-specific rules — three token-level
//! rules (determinism, float hygiene, panic hygiene) and four AST/call-graph
//! rules proved on a workspace model built by the from-scratch
//! recursive-descent parser (panic reachability, slot/capacity arithmetic
//! hygiene, lock discipline, reactor discipline — see
//! `cargo xtask lint --explain RUSH-L001` … `RUSH-L013`). A rule earns its
//! place only where the compiler cannot hold the fence: what visibility,
//! borrowck or rustc's own lints already enforce is not re-checked here.
//! `bench-gate` is the fig5 steady-state regression gate CI runs against
//! the checked-in benchmark numbers, plus its `--sharded` scaling-floor
//! mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod bench_gate;
pub mod deep;
pub mod lexer;
pub mod manifest;
pub mod model;
pub mod parser;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};
use std::time::Instant;

use manifest::Manifest;
use model::WorkspaceModel;
use report::Report;
use rules::{Allowlist, Engine, FileInput};

/// Directory names never descended into during the scan.
const SKIP_DIRS: &[&str] = &["target", ".git", ".cargo", "fixtures", "node_modules"];

/// Name of the checked-in grandfathered-site allowlist at the scan root.
pub const ALLOWLIST_FILE: &str = "xtask-lint.allow";

/// Recursively collect files under `dir`, skipping [`SKIP_DIRS`].
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// One discovered crate: its directory and parsed manifest.
struct CrateInfo {
    dir: PathBuf,
    manifest: Manifest,
}

/// One loaded source file, ready for the engines.
struct LoadedFile {
    rel_path: String,
    crate_rel: String,
    owner: usize,
    src: String,
    lexed: lexer::Lexed,
}

/// Read + lex every `.rs` file that belongs to a crate. Under the
/// `parallel` feature the per-file work fans out across scoped threads
/// (files are independent); results come back in deterministic order
/// either way.
fn load_files(files: &[PathBuf], crates: &[CrateInfo], root: &Path) -> Vec<LoadedFile> {
    let jobs: Vec<(usize, &PathBuf)> = files
        .iter()
        .filter(|f| f.extension().and_then(|e| e.to_str()) == Some("rs"))
        .filter_map(|f| {
            crates
                .iter()
                .position(|c| f.starts_with(&c.dir))
                .map(|owner| (owner, f))
        })
        .collect();

    let load_one = |&(owner, path): &(usize, &PathBuf)| -> Option<LoadedFile> {
        let src = std::fs::read_to_string(path).ok()?;
        let lexed = lexer::lex(&src);
        Some(LoadedFile {
            rel_path: rel_str(path, root),
            crate_rel: rel_str(path, &crates[owner].dir),
            owner,
            src,
            lexed,
        })
    };

    #[cfg(feature = "parallel")]
    {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).min(16);
        if jobs.len() > 1 && workers > 1 {
            let chunk = jobs.len().div_ceil(workers);
            let mut slots: Vec<Vec<Option<LoadedFile>>> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .chunks(chunk)
                    .map(|part| scope.spawn(move || part.iter().map(load_one).collect::<Vec<_>>()))
                    .collect();
                for h in handles {
                    slots.push(h.join().unwrap_or_default());
                }
            });
            return slots.into_iter().flatten().flatten().collect();
        }
    }
    jobs.iter().filter_map(load_one).collect()
}

/// Run the lint — token rules, then the AST rules over the workspace
/// model — over the tree rooted at `root`.
pub fn lint(root: &Path) -> std::io::Result<Report> {
    let started = Instant::now();
    let mut files = Vec::new();
    walk(root, &mut files);

    // Discover crates (any Cargo.toml with a [package] name).
    let mut crates: Vec<CrateInfo> = Vec::new();
    for f in &files {
        if f.file_name().and_then(|n| n.to_str()) == Some("Cargo.toml") {
            if let Some(m) = manifest::load(f) {
                if !m.name.is_empty() {
                    crates.push(CrateInfo { dir: f.parent().unwrap_or(root).to_path_buf(), manifest: m });
                }
            }
        }
    }
    // Longest-prefix owner wins for nested crates.
    crates.sort_by_key(|c| std::cmp::Reverse(c.dir.components().count()));

    let allow_text = std::fs::read_to_string(root.join(ALLOWLIST_FILE)).unwrap_or_default();
    let allow = Allowlist::parse(&allow_text);
    let engine = Engine { allow: &allow };

    let mut report = Report { crates_scanned: crates.len(), ..Report::default() };

    let loaded = load_files(&files, &crates, root);
    let inputs: Vec<FileInput<'_>> = loaded
        .iter()
        .map(|lf| FileInput {
            rel_path: lf.rel_path.clone(),
            crate_rel: lf.crate_rel.clone(),
            manifest: &crates[lf.owner].manifest,
            src: &lf.src,
            lexed: &lf.lexed,
        })
        .collect();

    for input in &inputs {
        report.files_scanned += 1;
        engine.check_file(input, &mut report);
    }

    let model = WorkspaceModel::build(&inputs);
    deep::check(&model, &allow, &mut report);

    report.finalize();
    report.wall_ms = started.elapsed().as_millis() as u64;
    Ok(report)
}

/// Parse every workspace `.rs` file with the deep-lint parser, returning
/// `(rel_path, structural_errors, recovered_tokens)` per file. The parser
/// self-test pins this to all-zeros over the real workspace.
pub fn parse_workspace(root: &Path) -> std::io::Result<Vec<(String, usize, usize)>> {
    let mut files = Vec::new();
    walk(root, &mut files);
    let mut out = Vec::new();
    for f in &files {
        if f.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(f) else { continue };
        let outcome = parser::parse_file(&lexer::lex(&src));
        out.push((rel_str(f, root), outcome.errors.len(), outcome.recovered.len()));
    }
    Ok(out)
}

/// `path` relative to `base`, with forward slashes.
fn rel_str(path: &Path, base: &Path) -> String {
    path.strip_prefix(base)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
