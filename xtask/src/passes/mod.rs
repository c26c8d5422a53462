//! The syntax-aware analysis passes (N1, N2, N4, N5) and the workspace model
//! they share. See DESIGN.md §12 for each pass's invariant, finding
//! code, and known approximations.

pub mod epoch;
pub mod locks;
pub mod taint;
pub mod unsafe_audit;

use crate::parser::{self, ParsedFile};
use crate::report::Finding;
use std::path::Path;

/// The parsed workspace: every source file lexed and parsed once,
/// plus DESIGN.md for the registry cross-checks. All passes run
/// against one `Model`, so the file set and token streams are
/// guaranteed consistent across passes.
pub struct Model {
    /// Parsed files, sorted by relative path.
    pub files: Vec<ParsedFile>,
    /// DESIGN.md contents (empty if absent).
    pub design: String,
}

impl Model {
    /// Load and parse the given files (paths relative to `root`).
    pub fn load(root: &Path, paths: &[std::path::PathBuf]) -> Model {
        let mut sources = Vec::new();
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Ok(src) = std::fs::read_to_string(path) {
                sources.push((rel, src));
            }
        }
        let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
        Model::from_sources(sources, design)
    }

    /// Build a model from in-memory `(rel_path, source)` pairs — used
    /// by the fixture tests to place snippets at pseudo-paths inside
    /// each pass's scope.
    pub fn from_sources(sources: Vec<(String, String)>, design: String) -> Model {
        let files = sources
            .into_iter()
            .map(|(rel, src)| parser::parse(&rel, &src))
            .collect();
        Model { files, design }
    }

    /// Run all four syntax-aware passes and collect their findings.
    pub fn run_passes(&self) -> Vec<Finding> {
        let mut findings = taint::run(self);
        findings.extend(epoch::run(self));
        findings.extend(unsafe_audit::run(self));
        findings.extend(locks::run(self));
        findings
    }
}

/// The crate name for a `crates/<name>/…` path, if any.
pub fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Is this file in a crate's `src/` tree (not tests/, benches/,
/// examples/)? Passes that reason about production code scope to this.
pub fn in_crate_src(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/")
}
