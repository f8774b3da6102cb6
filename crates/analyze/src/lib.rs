//! `setstream-analyze`: the workspace invariant analyzer.
//!
//! A lexical static-analysis pass over the setstream crates enforcing the
//! invariants the paper's (ε, δ) guarantees rest on. Each rule has a code,
//! a fix-it message, and an escape hatch:
//!
//! | code | invariant |
//! |------|-----------|
//! | A00  | `analyze: allow(...)` comments must be well-formed |
//! | A01  | atomic `Ordering::*` only in the audited lock-light modules; `SeqCst` never |
//! | A02  | raw GF(2⁶¹−1) arithmetic only inside `setstream-hash`'s field module |
//! | A03  | no `panic!`/`unwrap`/`expect`/slice-indexing in library crates |
//! | A04  | no internal callers of `#[deprecated]` setstream APIs |
//! | A05  | container magic literals defined exactly once |
//! | A06  | every public error enum implements `Display + std::error::Error` |
//! | A07  | sketch counter cells are written only by the audited cell kernel |
//! | A08  | unsafe sites carry `// SAFETY:`; `#[target_feature]` fns called only from same-feature fns or the audited dispatch |
//! | A09  | no cyclic lock-order pairs; no guards held across blocking I/O in transport/coordinator |
//! | A10  | every Release store has an Acquire load partner on the same atomic field (and vice versa) |
//! | A11  | audited hot kernels and their same-crate callees are allocation- and panic-free |
//! | A12  | no wildcard `_ =>` arms in matches over wire frame enums |
//!
//! Escape hatch: `// analyze: allow(<rule>) — <reason>` on (or directly
//! above) the offending line, or `//! analyze: allow(<rule>) — <reason>`
//! to waive a rule for a whole file. Rule names: `atomics`, `field`,
//! `panic`, `indexing`, `deprecated`, `magic`, `error-impl`, `cells`,
//! `unsafe`, `lock-order`, `atomic-pair`, `hotpath`, `wire-match`.
//!
//! The pass is lexical by design (the build environment vendors no `syn`):
//! sources are scrubbed of comments and string literals first, which makes
//! substring-level matching sound for the patterns these rules need.
//! Rules A08–A11 additionally consult a symbol table ([`symbols`]) and a
//! per-crate call/lock/atomic graph ([`graph`]) built from the same
//! scrubbed lines. See DESIGN.md §8 for semantics and known blind spots.

pub mod graph;
pub mod rules;
pub mod scrub;
pub mod symbols;

use scrub::ScrubbedFile;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule code (`A01` ... `A06`, `A00` for malformed allows).
    pub code: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}:{} {}", self.code, self.path, self.line, self.message)
    }
}

/// What to analyze and which modules are allow-listed.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace (or fixture) root; paths in diagnostics are relative to it.
    pub root: PathBuf,
    /// Directories under `root` to scan for `.rs` files.
    pub scan_dirs: Vec<String>,
    /// Crate names whose `src/` is library code for rule A03.
    pub lib_crates: Vec<String>,
    /// Path suffixes where atomic `Ordering::*` is allowed (rule A01).
    pub atomic_modules: Vec<String>,
    /// Path suffixes where raw mod-p61 arithmetic is allowed (rule A02).
    pub field_modules: Vec<String>,
    /// Path suffixes where sketch counter cells may be mutated (rule A07).
    pub cell_modules: Vec<String>,
    /// Function names that perform the audited runtime CPU-feature
    /// dispatch; calling a `#[target_feature]` fn is sanctioned from any
    /// fn whose body consults one of these (rule A08).
    pub feature_dispatch_fns: Vec<String>,
    /// Audited hot-path roots as `(path suffix, fn name)`; the fns and
    /// their transitive same-crate callees must be allocation- and
    /// panic-free (rule A11).
    pub hot_roots: Vec<(String, String)>,
    /// Wire/transport frame enum names; matches over them must not have
    /// wildcard `_ =>` arms (rule A12).
    pub wire_enums: Vec<String>,
    /// Path suffixes where a lock guard held across blocking I/O is
    /// flagged (rule A09).
    pub io_guard_modules: Vec<String>,
}

impl Config {
    /// The real workspace configuration rooted at `root`.
    pub fn workspace(root: impl Into<PathBuf>) -> Self {
        Config {
            root: root.into(),
            scan_dirs: vec!["crates".to_string()],
            lib_crates: ["hash", "stream", "expr", "core", "engine", "distributed", "obs"]
                .iter()
                .map(ToString::to_string)
                .collect(),
            atomic_modules: vec![
                "crates/obs/src/metrics.rs".to_string(),
                "crates/obs/src/trace.rs".to_string(),
                "crates/obs/src/lineage.rs".to_string(),
                "crates/hash/src/clock.rs".to_string(),
            ],
            field_modules: vec!["crates/hash/src/field.rs".to_string()],
            cell_modules: vec!["crates/core/src/sketch/two_level.rs".to_string()],
            feature_dispatch_fns: vec!["backend".to_string(), "is_runnable".to_string()],
            hot_roots: [
                ("crates/hash/src/simd.rs", "sliced_apply"),
                ("crates/hash/src/simd.rs", "register_level_lanes"),
                ("crates/hash/src/simd.rs", "affine_one"),
                ("crates/hash/src/simd.rs", "horner_many"),
                ("crates/hash/src/simd.rs", "load"),
                ("crates/core/src/sketch/two_level.rs", "update"),
                ("crates/core/src/sketch/two_level.rs", "update_batch"),
                ("crates/core/src/sketch/two_level.rs", "apply_chunks"),
                ("crates/core/src/sketch/two_level.rs", "apply_chunk"),
            ]
            .iter()
            .map(|(p, f)| ((*p).to_string(), (*f).to_string()))
            .collect(),
            wire_enums: vec!["FrameKind".to_string(), "ExtensionTag".to_string()],
            io_guard_modules: vec![
                "crates/distributed/src/transport.rs".to_string(),
                "crates/distributed/src/coordinator.rs".to_string(),
            ],
        }
    }

    /// A fixture configuration: `root` is one mini-crate whose `src/` is
    /// library code, with `src/clock.rs` / `src/field.rs` allow-listed.
    pub fn fixture(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        Config {
            scan_dirs: vec!["src".to_string()],
            lib_crates: vec!["fixture".to_string()],
            atomic_modules: vec!["src/clock.rs".to_string()],
            field_modules: vec!["src/field.rs".to_string()],
            cell_modules: vec!["src/sketch.rs".to_string()],
            feature_dispatch_fns: vec!["backend".to_string()],
            // Only a fixture with a kernel module audits one, so the
            // others do not report an unresolved root.
            hot_roots: if root.join("src/kernel.rs").is_file() {
                vec![("src/kernel.rs".to_string(), "hot_root".to_string())]
            } else {
                Vec::new()
            },
            wire_enums: vec!["WireKind".to_string()],
            io_guard_modules: vec!["src/transport.rs".to_string()],
            root,
        }
    }

    /// Whether a workspace-relative path counts as library (non-test)
    /// source for rule A03, or as wholly test code.
    fn classify(&self, rel_path: &str) -> Classified {
        let crate_name = crate_of(rel_path).to_string();
        let in_src = if rel_path.starts_with("crates/") {
            rel_path.split('/').nth(2) == Some("src")
        } else {
            rel_path.starts_with("src/")
        };
        Classified {
            is_lib_source: in_src && self.lib_crates.contains(&crate_name),
            all_test: !in_src,
        }
    }
}

struct Classified {
    is_lib_source: bool,
    all_test: bool,
}

/// A scrubbed file plus the rule scopes that apply to it.
pub struct AnalyzedFile {
    /// The scrubbed source and side tables.
    pub scrubbed: ScrubbedFile,
    /// Rule A03 applies (library crate `src/`).
    pub is_lib_source: bool,
    /// Atomic orderings allowed here (rule A01).
    pub atomics_allowed: bool,
    /// Raw field arithmetic allowed here (rule A02).
    pub field_allowed: bool,
    /// Sketch counter-cell mutation allowed here (rule A07).
    pub cells_allowed: bool,
}

/// Run every rule over the configured tree.
///
/// # Errors
/// Returns an error string if the root cannot be read.
pub fn analyze(config: &Config) -> Result<Vec<Diagnostic>, String> {
    let analyzed = load(config)?;
    let mut diags = rules::run_all(config, &analyzed);
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.code).cmp(&(b.path.as_str(), b.line, b.code))
    });
    Ok(diags)
}

/// Count the `analyze: allow(...)` waiver comments in the configured tree
/// (well-formed ones only; malformed allows are rule A00's findings, not
/// waivers). `scripts/tier1.sh` pins this so the count can only ratchet
/// down.
///
/// # Errors
/// Returns an error string if the root cannot be read.
pub fn waiver_count(config: &Config) -> Result<usize, String> {
    Ok(load(config)?.iter().map(|f| f.scrubbed.allows.len()).sum())
}

/// Non-test code lines per crate — the input of the tier-1 line ratchet.
///
/// A line counts when, outside `#[cfg(test)]` regions and test trees
/// (`tests/`, `benches/`, `examples/`), it still carries code after the
/// scrubber blanks comments and literals: blank lines, comment-only lines
/// and the continuation lines of a multi-line literal do not count. Files
/// under `crates/<name>/` count toward `<name>`; a fixture root's files
/// count toward `fixture`.
///
/// # Errors
/// Returns an error string if the root cannot be read.
pub fn loc_by_crate(config: &Config) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    for file in load(config)? {
        let scrubbed = &file.scrubbed;
        let code = scrubbed
            .lines
            .iter()
            .zip(&scrubbed.is_test)
            .filter(|(line, &test)| !test && !line.trim().is_empty())
            .count();
        *out.entry(crate_of(&scrubbed.rel_path).to_string())
            .or_insert(0) += code;
    }
    Ok(out)
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…`),
/// or `fixture` outside `crates/`.
fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("fixture")
}

/// Scrub and classify every `.rs` file under the configured scan dirs.
fn load(config: &Config) -> Result<Vec<AnalyzedFile>, String> {
    let mut files = Vec::new();
    for dir in &config.scan_dirs {
        let base = config.root.join(dir);
        if !base.exists() {
            return Err(format!("scan dir does not exist: {}", base.display()));
        }
        collect_rs_files(&base, &mut files)
            .map_err(|e| format!("walking {}: {e}", base.display()))?;
    }
    files.sort();
    let mut analyzed = Vec::with_capacity(files.len());
    for path in &files {
        let rel = rel_unix_path(&config.root, path);
        // Generated/vendored/fixture trees under a scanned dir are not
        // subject to the rules (the fixtures *are* deliberate violations).
        if rel.contains("/fixtures/") || rel.starts_with("target/") {
            continue;
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let cls = config.classify(&rel);
        let in_test_tree = cls.all_test
            || rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/");
        let scrubbed = scrub::scrub(&rel, &text, in_test_tree);
        analyzed.push(AnalyzedFile {
            atomics_allowed: config.atomic_modules.iter().any(|m| rel.ends_with(m)),
            field_allowed: config.field_modules.iter().any(|m| rel.ends_with(m)),
            cells_allowed: config.cell_modules.iter().any(|m| rel.ends_with(m)),
            is_lib_source: cls.is_lib_source,
            scrubbed,
        });
    }
    Ok(analyzed)
}

/// Render diagnostics one per line (the golden-file format).
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Render diagnostics as a JSON array (`--format json`): objects with
/// `code`, `path`, `line`, and `message` keys, one finding per element.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"code\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
            json_string(d.code),
            json_string(&d.path),
            d.line,
            json_string(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n]\n" });
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_unix_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
