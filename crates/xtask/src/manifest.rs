//! Minimal `Cargo.toml` reader — just enough TOML for the lint rules.
//!
//! We only need: the package name and the flags and lists under
//! `[package.metadata.rush-lint]` that opt a crate into rule scopes.

use std::path::Path;

/// Parsed subset of a crate manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `package.name`, empty for a virtual (workspace-only) manifest.
    pub name: String,
    /// `package.metadata.rush-lint.deterministic` — L1 applies.
    pub deterministic: bool,
    /// `package.metadata.rush-lint.library-hygiene` — L3 applies.
    pub library_hygiene: bool,
    /// `package.metadata.rush-lint.entry-points` — functions (`Type::name`
    /// or bare names) the deep lint uses as RUSH-L009 panic-reachability
    /// roots.
    pub entry_points: Vec<String>,
    /// `package.metadata.rush-lint.arith-hygiene` — L10 applies to
    /// slot/capacity arithmetic in this crate.
    pub arith_hygiene: bool,
    /// `package.metadata.rush-lint.reactor-loops` — event-loop functions
    /// (`Type::name` or bare names) the deep lint uses as RUSH-L013
    /// blocking-reachability roots.
    pub reactor_loops: Vec<String>,
    /// `package.metadata.rush-lint.panic-free` — crate-relative source
    /// paths whose non-test functions RUSH-L013 requires to be panic-free.
    pub panic_free: Vec<String>,
}

fn unquote(v: &str) -> String {
    let v = v.trim();
    v.trim_matches('"').to_string()
}

/// Parse a single-line TOML list value: `["a", "b"]` → `["a", "b"]`.
fn parse_list(value: &str) -> Vec<String> {
    let inner = value.trim().trim_start_matches('[').trim_end_matches(']');
    inner
        .split(',')
        .map(unquote)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Read and parse a manifest file. Returns `None` when the file cannot be
/// read. (Named `load`, not `parse`, so the deep lint's name-based call
/// graph cannot confuse this offline file reader with the wire-codec
/// `parse` functions reachable from the serve event loops.)
pub fn load(path: &Path) -> Option<Manifest> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(parse_str(&text))
}

/// Parse manifest text (line-oriented; ignores everything we don't need).
pub fn parse_str(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').trim().to_string();
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim().trim_matches('"');
        let value = line[eq + 1..].trim();
        match section.as_str() {
            "package" if key == "name" => {
                m.name = unquote(value);
            }
            "package.metadata.rush-lint" => {
                let on = value == "true";
                match key {
                    "deterministic" => m.deterministic = on,
                    "library-hygiene" => m.library_hygiene = on,
                    "arith-hygiene" => m.arith_hygiene = on,
                    "entry-points" => m.entry_points = parse_list(value),
                    "reactor-loops" => m.reactor_loops = parse_list(value),
                    "panic-free" => m.panic_free = parse_list(value),
                    _ => {}
                }
            }
            _ => {}
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_name_and_metadata() {
        let m = parse_str(
            r#"
[package]
name = "rush-core"
version = "0.1.0"

[features]
parallel = []

[dependencies]
rush-prob = { path = "../prob" }
maybe = { path = "../maybe", optional = true }

[package.metadata.rush-lint]
deterministic = true
library-hygiene = true
arith-hygiene = true
entry-points = ["Reactor::run", "planner_loop"]
reactor-loops = ["Reactor::run", "Engine::drive"]
panic-free = ["src/binary.rs"]
"#,
        );
        assert_eq!(m.name, "rush-core");
        assert!(m.deterministic);
        assert!(m.library_hygiene);
        assert!(m.arith_hygiene);
        assert_eq!(m.entry_points, ["Reactor::run", "planner_loop"]);
        assert_eq!(m.reactor_loops, ["Reactor::run", "Engine::drive"]);
        assert_eq!(m.panic_free, ["src/binary.rs"]);
    }

    #[test]
    fn virtual_manifest_has_no_name() {
        let m = parse_str("[workspace]\nmembers = [\"crates/*\"]\n");
        assert!(m.name.is_empty());
        assert!(!m.deterministic);
    }
}
