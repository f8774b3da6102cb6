//! The analyzer's rules, A01 through A12 (plus A00 for malformed allows).
//!
//! Every rule works on scrubbed lines (comments and literals blanked, see
//! [`crate::scrub`]), skips test code, and honours the allow escape hatch.

use crate::graph::Graph;
use crate::scrub::{find_word, is_ident_byte};
use crate::symbols::Symbols;
use crate::{AnalyzedFile, Config, Diagnostic};
use std::collections::{BTreeMap, BTreeSet};

/// Run every rule over the scrubbed tree.
pub fn run_all(config: &Config, files: &[AnalyzedFile]) -> Vec<Diagnostic> {
    let symbols = Symbols::build(files);
    let graph = Graph::build(files, &symbols);
    let mut diags = Vec::new();
    rule_a00_malformed_allows(files, &mut diags);
    rule_a01_atomics(files, &mut diags);
    rule_a02_field(files, &mut diags);
    rule_a03_panics_and_indexing(files, &mut diags);
    rule_a04_deprecated_callers(files, &mut diags);
    rule_a05_magic_literals(files, &mut diags);
    rule_a06_error_enums(files, &mut diags);
    rule_a07_cells(files, &mut diags);
    rule_a08_unsafe_discipline(config, files, &symbols, &graph, &mut diags);
    rule_a09_lock_order(config, files, &symbols, &graph, &mut diags);
    rule_a10_atomic_pairing(files, &graph, &mut diags);
    rule_a11_hot_path(config, files, &symbols, &graph, &mut diags);
    rule_a12_wire_enums(config, files, &mut diags);
    diags
}

fn diag(
    code: &'static str,
    file: &AnalyzedFile,
    line: usize,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    out.push(Diagnostic {
        code,
        path: file.scrubbed.rel_path.clone(),
        line,
        message,
    });
}

/// Non-test, per-line iteration helper: yields `(1-based line, text)`.
fn code_lines(file: &AnalyzedFile) -> impl Iterator<Item = (usize, &str)> {
    file.scrubbed
        .lines
        .iter()
        .enumerate()
        .filter(|(i, _)| !file.scrubbed.is_test.get(*i).copied().unwrap_or(false))
        .map(|(i, l)| (i + 1, l.as_str()))
}

// ---------------------------------------------------------------- A00

fn rule_a00_malformed_allows(files: &[AnalyzedFile], out: &mut Vec<Diagnostic>) {
    for f in files {
        for (line, why) in &f.scrubbed.malformed {
            diag("A00", f, *line, format!("malformed analyze comment: {why}"), out);
        }
    }
}

// ---------------------------------------------------------------- A01

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn rule_a01_atomics(files: &[AnalyzedFile], out: &mut Vec<Diagnostic>) {
    for f in files {
        for (line, text) in code_lines(f) {
            for variant in ORDERINGS {
                let pat = format!("Ordering::{variant}");
                if find_word(text, &pat).is_none() {
                    continue;
                }
                if *variant == "SeqCst" {
                    if !f.scrubbed.is_allowed("atomics", line) {
                        diag(
                            "A01",
                            f,
                            line,
                            "`Ordering::SeqCst` is forbidden everywhere: the workspace's \
                             lock-light protocols are audited against Relaxed/Acquire/Release \
                             only — pick the weakest ordering the invariant needs"
                                .to_string(),
                            out,
                        );
                    }
                } else if !f.atomics_allowed && !f.scrubbed.is_allowed("atomics", line) {
                    diag(
                        "A01",
                        f,
                        line,
                        format!(
                            "atomic `{pat}` outside the audited lock-light modules \
                             (obs::metrics, obs::trace, obs::lineage, hash::clock) — \
                             use the obs metric types instead of raw atomics, or move the \
                             code into an audited module; escape hatch: \
                             // analyze: allow(atomics) — <reason>"
                        ),
                        out,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- A02

fn rule_a02_field(files: &[AnalyzedFile], out: &mut Vec<Diagnostic>) {
    for f in files {
        if f.field_allowed {
            continue;
        }
        for (line, text) in code_lines(f) {
            let canon: String = text
                .chars()
                .filter(|c| *c != ' ' && *c != '_')
                .collect::<String>()
                .to_ascii_lowercase();
            let shift61 = canon.find("<<61").is_some_and(|at| {
                !canon[at + 4..].starts_with(|c: char| c.is_ascii_digit())
            });
            let hit = shift61
                || canon.contains("0x1fffffffffffffff")
                || canon.contains("2305843009213693951");
            if hit && !f.scrubbed.is_allowed("field", line) {
                diag(
                    "A02",
                    f,
                    line,
                    "raw mod-p61 field arithmetic (Mersenne-prime 2^61-1 constant) outside \
                     `setstream-hash`'s field module — call `setstream_hash::field`'s audited \
                     routines (P, reduce64/reduce128, mul_add_lazy) instead; \
                     escape hatch: // analyze: allow(field) — <reason>"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------- A03

fn rule_a03_panics_and_indexing(files: &[AnalyzedFile], out: &mut Vec<Diagnostic>) {
    for f in files {
        if !f.is_lib_source {
            continue;
        }
        for (line, text) in code_lines(f) {
            for (pat, what) in [
                ("panic!", "`panic!`"),
                (".unwrap()", "`unwrap`"),
                (".expect(", "`expect`"),
            ] {
                let hit = if pat.starts_with('.') {
                    text.contains(pat)
                } else {
                    find_word(text, "panic").is_some_and(|at| {
                        text[at + "panic".len()..].starts_with('!')
                    })
                };
                if hit && !f.scrubbed.is_allowed("panic", line) {
                    diag(
                        "A03",
                        f,
                        line,
                        format!(
                            "{what} in library code — return the crate's typed error on \
                             fallible paths, or prove infallibility: \
                             // analyze: allow(panic) — <invariant>"
                        ),
                        out,
                    );
                }
            }
            if has_index_expression(text) && !f.scrubbed.is_allowed("indexing", line) {
                diag(
                    "A03",
                    f,
                    line,
                    "slice/array indexing in library code — prefer `get`/iterators, or \
                     prove the bound: // analyze: allow(indexing) — <invariant> \
                     (file-level `//! analyze: allow(indexing) — <invariant>` for \
                     kernel modules with constructor-checked dimensions)"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// Does the scrubbed line contain an index expression `recv[...]`?
///
/// An opening bracket immediately preceded by an identifier byte, `)`, or
/// `]` is an index (or slice) expression; attribute syntax (`#[`), macro
/// invocations (`vec![`), references (`&[`), and type positions (`: [u8; 4]`,
/// `Vec<[T; 2]>`) all have a different preceding byte.
fn has_index_expression(text: &str) -> bool {
    let bytes = text.as_bytes();
    bytes.iter().enumerate().any(|(i, b)| {
        *b == b'['
            && i > 0
            && (is_ident_byte(bytes[i - 1]) || bytes[i - 1] == b')' || bytes[i - 1] == b']')
    })
}

// ---------------------------------------------------------------- A04

fn rule_a04_deprecated_callers(files: &[AnalyzedFile], out: &mut Vec<Diagnostic>) {
    // Pass 1: deprecated fn names, and every fn name's non-deprecated
    // definition count (a name also defined non-deprecated somewhere is
    // ambiguous for a lexical pass — the workspace `-D deprecated` lint
    // is the precise backstop there).
    let mut deprecated: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut plain_defs: BTreeSet<String> = BTreeSet::new();
    for f in files {
        let lines = &f.scrubbed.lines;
        for (idx, text) in lines.iter().enumerate() {
            if let Some(name) = fn_name_on(text) {
                // Scan upward through the fn's own attribute/doc block for
                // `#[deprecated]`, stopping at the previous item so an
                // attribute on a *neighbouring* fn is never misattributed.
                let mut is_deprecated = text.contains("#[deprecated");
                if !is_deprecated {
                    for j in (idx.saturating_sub(6)..idx).rev() {
                        let above = lines[j].trim();
                        if above.contains("#[deprecated") {
                            is_deprecated = true;
                            break;
                        }
                        if above.contains('}')
                            || above.contains(';')
                            || fn_name_on(above).is_some()
                        {
                            break; // previous item's boundary
                        }
                    }
                }
                if is_deprecated {
                    deprecated
                        .entry(name)
                        .or_insert_with(|| (f.scrubbed.rel_path.clone(), idx + 1));
                } else {
                    plain_defs.insert(name);
                }
            }
        }
    }
    deprecated.retain(|name, _| !plain_defs.contains(name));
    if deprecated.is_empty() {
        return;
    }
    // Pass 2: non-test callers anywhere in the scanned tree.
    for f in files {
        for (line, text) in code_lines(f) {
            for (name, (def_path, def_line)) in &deprecated {
                if *def_path == f.scrubbed.rel_path
                    && (line).abs_diff(*def_line) <= 6
                {
                    continue; // the definition (and its attribute block) itself
                }
                let called = find_word(text, name).is_some_and(|at| {
                    text[at + name.len()..].trim_start().starts_with('(')
                        && !text[..at].trim_end().ends_with("fn")
                });
                if called && !f.scrubbed.is_allowed("deprecated", line) {
                    diag(
                        "A04",
                        f,
                        line,
                        format!(
                            "internal caller of deprecated `{name}` (declared at \
                             {def_path}:{def_line}) — migrate to the replacement named in \
                             its #[deprecated] note; escape hatch: \
                             // analyze: allow(deprecated) — <reason>"
                        ),
                        out,
                    );
                }
            }
        }
    }
}

/// If the line declares a function, its name.
fn fn_name_on(text: &str) -> Option<String> {
    let at = find_word(text, "fn")?;
    let rest = text[at + 2..].trim_start();
    let name: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

// ---------------------------------------------------------------- A05

fn rule_a05_magic_literals(files: &[AnalyzedFile], out: &mut Vec<Diagnostic>) {
    // Pass 1: `const <NAME>: ... = <literal>` where NAME mentions MAGIC.
    struct MagicDef {
        path: String,
        line: usize,
        value: String,
    }
    let mut defs: Vec<MagicDef> = Vec::new();
    for f in files {
        for (line, text) in code_lines(f) {
            let Some(at) = find_word(text, "const") else { continue };
            let rest = &text[at + "const".len()..];
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.to_ascii_uppercase().contains("MAGIC") {
                continue;
            }
            let Some(eq) = rest.find('=') else { continue };
            let value = canonical_literal(&rest[eq + 1..]);
            if value.is_empty() {
                continue;
            }
            defs.push(MagicDef {
                path: f.scrubbed.rel_path.clone(),
                line,
                value,
            });
        }
    }
    // Duplicate definitions of the same magic value.
    let mut by_value: BTreeMap<&str, Vec<&MagicDef>> = BTreeMap::new();
    for d in &defs {
        by_value.entry(&d.value).or_default().push(d);
    }
    for (value, sites) in &by_value {
        if sites.len() > 1 {
            for dup in &sites[1..] {
                let f = files
                    .iter()
                    .find(|f| f.scrubbed.rel_path == dup.path)
                    .expect("definition site came from this file set");
                if !f.scrubbed.is_allowed("magic", dup.line) {
                    diag(
                        "A05",
                        f,
                        dup.line,
                        format!(
                            "container magic `{value}` defined more than once (first at \
                             {}:{}) — keep a single source of truth for the wire magic and \
                             import it; escape hatch: // analyze: allow(magic) — <reason>",
                            sites[0].path, sites[0].line
                        ),
                        out,
                    );
                }
            }
        }
    }
    // Pass 2: raw occurrences of a defined magic value away from its consts.
    // One diagnostic per offending line, pointing at the canonical (first)
    // definition; lines that are themselves definitions were handled above.
    for f in files {
        for (line, text) in code_lines(f) {
            let canon = canonical_literal(text);
            for (value, sites) in &by_value {
                let is_def_site = sites
                    .iter()
                    .any(|d| d.path == f.scrubbed.rel_path && d.line == line);
                if is_def_site || !canon.contains(*value) {
                    continue;
                }
                if !f.scrubbed.is_allowed("magic", line) {
                    diag(
                        "A05",
                        f,
                        line,
                        format!(
                            "magic literal `{value}` duplicated outside its const (defined at \
                             {}:{}) — reference the const instead; escape hatch: \
                             // analyze: allow(magic) — <reason>",
                            sites[0].path, sites[0].line
                        ),
                        out,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- A07

fn rule_a07_cells(files: &[AnalyzedFile], out: &mut Vec<Diagnostic>) {
    for f in files {
        if f.cells_allowed {
            continue;
        }
        for (line, text) in code_lines(f) {
            if find_word(text, "counters").is_none() {
                continue;
            }
            if mutates_counters(text) && !f.scrubbed.is_allowed("cells", line) {
                diag(
                    "A07",
                    f,
                    line,
                    "direct write to sketch counter cells outside the audited cell \
                     kernel (core::sketch::two_level) — every cell mutation must go \
                     through `SketchVector::update`/`update_batch` or the hash-bank \
                     kernels, so the SIMD and scalar paths stay bit-identical; \
                     escape hatch: // analyze: allow(cells) — <reason>"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// Does the scrubbed line mutate counter storage named `counters`?
///
/// Flags an assignment (plain or compound) through `counters[...]`, a
/// mutable borrow `&mut <recv>.counters`, and `iter_mut`/`_mut` accessor
/// forms. Plain reads (`counters[i]`, `counters[i] == x`, `.counters()`)
/// pass.
fn mutates_counters(text: &str) -> bool {
    if text.contains("counters.iter_mut") || text.contains("counters_mut") {
        return true;
    }
    if let Some(at) = text.find("counters[") {
        let rest: String = text[at..].chars().filter(|c| *c != ' ').collect();
        if let Some(close) = rest.find(']') {
            let after = &rest[close + 1..];
            if ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="]
                .iter()
                .any(|op| after.starts_with(op))
                || (after.starts_with('=') && !after.starts_with("=="))
            {
                return true;
            }
        }
    }
    if let Some(at) = find_word(text, "counters") {
        // Strip a `<receiver>.` chain, then look for the mutable borrow.
        let before = text[..at]
            .trim_end_matches(|c: char| is_ident_byte(c as u8) || c == '.')
            .trim_end();
        if before.ends_with("&mut") {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------- A08

fn rule_a08_unsafe_discipline(
    config: &Config,
    files: &[AnalyzedFile],
    symbols: &Symbols,
    graph: &Graph,
    out: &mut Vec<Diagnostic>,
) {
    // Part 1: every `unsafe fn` / `unsafe {` / `unsafe impl` site carries
    // a `// SAFETY:` comment on the line or within 3 lines above.
    for f in files {
        for (line, text) in code_lines(f) {
            let Some(at) = find_word(text, "unsafe") else { continue };
            let rest = text[at + "unsafe".len()..].trim_start();
            let is_site = rest.starts_with('{')
                || find_word(rest, "fn") == Some(0)
                || find_word(rest, "impl") == Some(0)
                || find_word(rest, "trait") == Some(0);
            if !is_site {
                continue;
            }
            let justified = f
                .scrubbed
                .safety_lines
                .iter()
                .any(|&s| s <= line && line.saturating_sub(s) <= 3);
            if !justified && !f.scrubbed.is_allowed("unsafe", line) {
                diag(
                    "A08",
                    f,
                    line,
                    "unsafe site without a `// SAFETY:` comment — state the obligation \
                     the caller discharges (CPU feature, slice length, pointer validity) \
                     on the line or within 3 lines above; escape hatch: \
                     // analyze: allow(unsafe) — <reason>"
                        .to_string(),
                    out,
                );
            }
        }
    }
    // Part 2: `#[target_feature]` functions may only be called from fns
    // with (at least) the same features, or from a function that consults
    // the audited runtime dispatch (`backend()`-style, per config).
    for (caller_idx, caller) in symbols.fns.iter().enumerate() {
        if caller.is_test {
            continue;
        }
        let caller_file = &files[caller.file];
        let consults_dispatch = (caller.body_start..=caller.body_end).any(|l| {
            let text = caller_file.scrubbed.line(l);
            config.feature_dispatch_fns.iter().any(|d| {
                find_word(text, d).is_some_and(|at| {
                    text[at + d.len()..].trim_start().starts_with('(')
                })
            })
        });
        for &(callee_idx, line) in &graph.calls[caller_idx] {
            let callee = &symbols.fns[callee_idx];
            if callee.target_features.is_empty() {
                continue;
            }
            let same_feature = callee
                .target_features
                .iter()
                .all(|feat| caller.target_features.contains(feat));
            if same_feature || consults_dispatch {
                continue;
            }
            if !caller_file.scrubbed.is_allowed("unsafe", line) {
                diag(
                    "A08",
                    caller_file,
                    line,
                    format!(
                        "call to `#[target_feature(enable = \"{}\")]` fn `{}` from `{}`, \
                         which neither shares the feature set nor consults the audited \
                         runtime dispatch ({}) — calling it on a CPU without the feature \
                         is undefined behavior; escape hatch: \
                         // analyze: allow(unsafe) — <reason>",
                        callee.target_features.join(","),
                        callee.name,
                        caller.name,
                        config
                            .feature_dispatch_fns
                            .iter()
                            .map(|d| format!("`{d}()`"))
                            .collect::<Vec<_>>()
                            .join("/"),
                    ),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------- A09

fn rule_a09_lock_order(
    config: &Config,
    files: &[AnalyzedFile],
    symbols: &Symbols,
    graph: &Graph,
    out: &mut Vec<Diagnostic>,
) {
    use crate::graph::LockKey;
    // Order edges A -> B: while A is held (a `let` guard), B is acquired
    // later in the same fn, or a callee (transitively) acquires B.
    // Witness = (file index, 1-based line, holder fn index).
    let mut edges: BTreeMap<(LockKey, LockKey), (usize, usize, usize)> = BTreeMap::new();
    for (fi, fsym) in symbols.fns.iter().enumerate() {
        if fsym.is_test || !files[fsym.file].is_lib_source {
            continue;
        }
        let locks = &graph.locks[fi];
        for (i, held) in locks.iter().enumerate() {
            if !held.held {
                continue;
            }
            for later in locks.iter().skip(i + 1) {
                if later.key != held.key {
                    edges
                        .entry((held.key.clone(), later.key.clone()))
                        .or_insert((fsym.file, later.line, fi));
                }
            }
            for &(callee, call_line) in &graph.calls[fi] {
                if call_line < held.line {
                    continue;
                }
                for k in &graph.acquires_star[callee] {
                    if *k != held.key {
                        edges
                            .entry((held.key.clone(), k.clone()))
                            .or_insert((fsym.file, call_line, fi));
                    }
                }
            }
        }
    }
    // A cyclic pair of order edges is a deadlock hazard: flag every edge
    // that sits on a cycle (reachability of A from B over the edge set).
    let adj: BTreeMap<&LockKey, Vec<&LockKey>> = edges.keys().fold(
        BTreeMap::new(),
        |mut m, (a, b)| {
            m.entry(a).or_default().push(b);
            m
        },
    );
    let reaches = |from: &LockKey, to: &LockKey| -> bool {
        let mut seen: BTreeSet<&LockKey> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(k) = stack.pop() {
            if k == to {
                return true;
            }
            if !seen.insert(k) {
                continue;
            }
            if let Some(next) = adj.get(k) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    for ((a, b), (file, line, fi)) in &edges {
        if !reaches(b, a) {
            continue;
        }
        let f = &files[*file];
        if f.scrubbed.is_allowed("lock-order", *line) {
            continue;
        }
        diag(
            "A09",
            f,
            *line,
            format!(
                "lock-order cycle: `{}` acquires `{}` while holding `{}`, but another \
                 path acquires them in the opposite order — deadlock hazard; pick one \
                 global order (or narrow the first guard's scope); escape hatch: \
                 // analyze: allow(lock-order) — <reason>",
                symbols.fns[*fi].name, b.1, a.1
            ),
            out,
        );
    }
    // Guards held across blocking I/O in the configured modules.
    for (fi, fsym) in symbols.fns.iter().enumerate() {
        let f = &files[fsym.file];
        let in_scope = config
            .io_guard_modules
            .iter()
            .any(|m| f.scrubbed.rel_path.ends_with(m));
        if !in_scope || fsym.is_test {
            continue;
        }
        for held in graph.locks[fi].iter().filter(|l| l.held) {
            let mut crossing = None;
            for l in held.line..=fsym.body_end {
                let text = f.scrubbed.line(l);
                if l > held.line && graph_line_does_io(text) {
                    crossing = Some(l);
                    break;
                }
            }
            if crossing.is_none() {
                for &(callee, call_line) in &graph.calls[fi] {
                    if call_line > held.line && graph.does_io_star[callee] {
                        crossing = Some(call_line);
                        break;
                    }
                }
            }
            let Some(io_line) = crossing else { continue };
            if f.scrubbed.is_allowed("lock-order", held.line) {
                continue;
            }
            diag(
                "A09",
                f,
                held.line,
                format!(
                    "guard on `{}` held across blocking I/O at line {io_line} in `{}` — \
                     a slow or wedged peer stalls every other caller of the lock; \
                     copy what the I/O needs out of the guard, drop it, then block; \
                     escape hatch: // analyze: allow(lock-order) — <reason>",
                    held.key.1, fsym.name
                ),
                out,
            );
        }
    }
}

/// The I/O markers rule A09 recognizes on a single line (mirrors the
/// graph's per-fn `does_io` classification).
fn graph_line_does_io(text: &str) -> bool {
    [
        ".write_all(",
        ".read_exact(",
        ".flush()",
        ".accept()",
        "TcpStream::connect",
        "thread::sleep",
        ".recv()",
        ".recv_timeout(",
    ]
    .iter()
    .any(|p| text.contains(p))
}

// ---------------------------------------------------------------- A10

fn rule_a10_atomic_pairing(files: &[AnalyzedFile], graph: &Graph, out: &mut Vec<Diagnostic>) {
    for ((_crate, field), ops) in &graph.atomics {
        let writes: Vec<_> = ops.iter().filter(|o| o.is_release_write).collect();
        let reads: Vec<_> = ops.iter().filter(|o| !o.is_release_write).collect();
        let orphaned: Vec<_> = if writes.is_empty() {
            reads
        } else if reads.is_empty() {
            writes
        } else {
            continue; // paired
        };
        for op in orphaned {
            let f = &files[op.file];
            if f.scrubbed.is_allowed("atomic-pair", op.line) {
                continue;
            }
            let (this, partner) = if op.is_release_write {
                ("Release store", "Acquire load")
            } else {
                ("Acquire load", "Release store")
            };
            diag(
                "A10",
                f,
                op.line,
                format!(
                    "{this} on atomic field `{field}` with no {partner} anywhere in the \
                     crate — the ordering synchronizes nothing (the class of bug behind \
                     the Histogram torn-scrape fix); add the partner or relax to \
                     `Ordering::Relaxed` with a comment; escape hatch: \
                     // analyze: allow(atomic-pair) — <reason>"
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------- A11

fn rule_a11_hot_path(
    config: &Config,
    files: &[AnalyzedFile],
    symbols: &Symbols,
    graph: &Graph,
    out: &mut Vec<Diagnostic>,
) {
    // Resolve the audited roots, then walk same-crate call edges.
    let mut root_of: BTreeMap<usize, String> = BTreeMap::new();
    let mut stack: Vec<usize> = Vec::new();
    for (suffix, fn_name) in &config.hot_roots {
        let before = stack.len();
        for (i, s) in symbols.fns.iter().enumerate() {
            if s.name == *fn_name
                && files[s.file].scrubbed.rel_path.ends_with(suffix)
                && !s.is_test
            {
                root_of.insert(i, fn_name.clone());
                stack.push(i);
            }
        }
        // A root that names nothing audits nothing: a kernel renamed or
        // deleted would otherwise leave the audit without a finding.
        if stack.len() == before {
            out.push(Diagnostic {
                code: "A11",
                path: suffix.clone(),
                line: 1,
                message: format!(
                    "audited hot root `{fn_name}` matches no non-test fn in a file \
                     ending `{suffix}` — the kernel was renamed, moved or deleted, so \
                     the allocation and panic audit no longer reaches it; point the \
                     `hot_roots` entry at the kernel that replaced it"
                ),
            });
        }
    }
    while let Some(i) = stack.pop() {
        let root = root_of[&i].clone();
        for &(callee, _) in &graph.calls[i] {
            if symbols.fns[callee].crate_name == symbols.fns[i].crate_name
                && !root_of.contains_key(&callee)
            {
                root_of.insert(callee, root.clone());
                stack.push(callee);
            }
        }
    }
    const ALLOC_PATTERNS: &[&str] = &[
        "format!",
        "vec![",
        "Vec::new(",
        "Vec::with_capacity(",
        "Box::new(",
        "String::new(",
        "String::from(",
        ".to_string()",
        ".to_owned()",
        ".to_vec()",
        ".collect()",
        ".push(",
        ".clone()",
    ];
    for (&fi, root) in &root_of {
        let s = &symbols.fns[fi];
        let f = &files[s.file];
        for l in s.body_start..=s.body_end.min(f.scrubbed.lines.len()) {
            if f.scrubbed.is_test.get(l - 1).copied().unwrap_or(false) {
                continue;
            }
            let text = f.scrubbed.line(l);
            if f.scrubbed.is_allowed("hotpath", l) {
                continue;
            }
            if let Some(pat) = ALLOC_PATTERNS.iter().find(|p| text.contains(**p)) {
                diag(
                    "A11",
                    f,
                    l,
                    format!(
                        "`{pat}` in `{}`, reached from audited hot root `{root}` — the \
                         kernel paths must not allocate; hoist the buffer to the caller \
                         or use a stack array; escape hatch: \
                         // analyze: allow(hotpath) — <reason>",
                        s.name
                    ),
                    out,
                );
            }
            for pat in ["panic!", ".unwrap()", ".expect("] {
                let hit = if pat.starts_with('.') {
                    text.contains(pat)
                } else {
                    find_word(text, "panic").is_some_and(|at| {
                        text[at + "panic".len()..].starts_with('!')
                    })
                };
                if hit && !f.scrubbed.is_allowed("panic", l) {
                    diag(
                        "A11",
                        f,
                        l,
                        format!(
                            "`{pat}` in `{}`, reached from audited hot root `{root}` — \
                             kernel paths must be panic-free; escape hatch: \
                             // analyze: allow(hotpath) — <reason> (or allow(panic) with \
                             the infallibility argument)",
                            s.name
                        ),
                        out,
                    );
                }
            }
            if has_index_expression(text) && !f.scrubbed.is_allowed("indexing", l) {
                diag(
                    "A11",
                    f,
                    l,
                    format!(
                        "unchecked indexing in `{}`, reached from audited hot root \
                         `{root}` — prove the bound with an allow(indexing) invariant \
                         or restructure with iterators; escape hatch: \
                         // analyze: allow(hotpath) — <reason>",
                        s.name
                    ),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------- A12

fn rule_a12_wire_enums(config: &Config, files: &[AnalyzedFile], out: &mut Vec<Diagnostic>) {
    if config.wire_enums.is_empty() {
        return;
    }
    for f in files {
        let lines = &f.scrubbed.lines;
        // Match spans: (0-based start, 0-based close), innermost = latest
        // start containing the arm.
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for (idx, text) in lines.iter().enumerate() {
            let Some(at) = find_word(text, "match") else { continue };
            // `match` the keyword, not e.g. a field named match (escaped
            // identifiers are out of scope for a lexical pass).
            if text[at + "match".len()..].trim_start().is_empty() && idx + 1 >= lines.len() {
                continue;
            }
            if let Some((ol, oc)) = crate::scrub::find_open_brace(lines, idx) {
                if oc != usize::MAX {
                    spans.push((idx, crate::scrub::matching_close(lines, ol, oc)));
                }
            }
        }
        for (line, text) in code_lines(f) {
            if wildcard_arm_at(text).is_none() {
                continue;
            }
            let line0 = line - 1;
            let innermost = spans
                .iter()
                .filter(|(s, e)| *s <= line0 && line0 <= *e)
                .max_by_key(|(s, _)| *s);
            let Some(&(s, e)) = innermost else { continue };
            let mentioned = config.wire_enums.iter().find(|name| {
                let pat = format!("{name}::");
                lines[s..=e.min(lines.len() - 1)].iter().any(|l| l.contains(&pat))
            });
            let Some(enum_name) = mentioned else { continue };
            if f.scrubbed.is_allowed("wire-match", line) {
                continue;
            }
            diag(
                "A12",
                f,
                line,
                format!(
                    "wildcard `_ =>` arm in a match over wire enum `{enum_name}` — a \
                     newly added frame kind would be silently dropped here; list every \
                     variant (the compiler then flags new ones); escape hatch: \
                     // analyze: allow(wire-match) — <reason>"
                ),
                out,
            );
        }
    }
}

/// Byte offset of a standalone `_ =>` arm token on the line, if any
/// (`Some(_) =>` and `(_, x) =>` do not count: the `_` must not be
/// followed by a closing delimiter or comma before the `=>`).
fn wildcard_arm_at(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(pos) = text[i..].find('_') {
        let at = i + pos;
        i = at + 1;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let mut j = at + 1;
        if j < bytes.len() && is_ident_byte(bytes[j]) {
            continue; // `_name` binding
        }
        while j < bytes.len() && bytes[j] == b' ' {
            j += 1;
        }
        if before_ok && bytes.get(j) == Some(&b'=') && bytes.get(j + 1) == Some(&b'>') {
            return Some(at);
        }
    }
    None
}

/// Canonical form of a literal-bearing snippet: underscores and spaces
/// stripped, lowercased, trailing `;`/type suffixes left in place (the
/// contains-check tolerates them).
fn canonical_literal(text: &str) -> String {
    text.chars()
        .filter(|c| *c != '_' && *c != ' ' && *c != ';')
        .collect::<String>()
        .to_ascii_lowercase()
}

// ---------------------------------------------------------------- A06

fn rule_a06_error_enums(files: &[AnalyzedFile], out: &mut Vec<Diagnostic>) {
    // Pass 1: public enums whose name ends in `Error`.
    let mut enums: Vec<(String, usize, String)> = Vec::new(); // (path, line, name)
    for f in files {
        for (line, text) in code_lines(f) {
            let Some(at) = find_word(text, "enum") else { continue };
            if !text[..at].contains("pub") {
                continue;
            }
            let name: String = text[at + "enum".len()..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.ends_with("Error") && !name.is_empty() {
                enums.push((f.scrubbed.rel_path.clone(), line, name));
            }
        }
    }
    // Pass 2: look anywhere in the tree for the two impls.
    for (path, line, name) in &enums {
        let has = |impl_pat: &str| {
            files.iter().any(|f| {
                f.scrubbed
                    .lines
                    .iter()
                    .any(|l| l.contains(&format!("{impl_pat} {name}")))
            })
        };
        let display = has("Display for");
        let error = has("Error for");
        if display && error {
            continue;
        }
        let f = files
            .iter()
            .find(|f| f.scrubbed.rel_path == *path)
            .expect("enum site came from this file set");
        if f.scrubbed.is_allowed("error-impl", *line) {
            continue;
        }
        let missing = match (display, error) {
            (false, false) => "`Display` and `std::error::Error`",
            (false, true) => "`Display`",
            (true, false) => "`std::error::Error`",
            (true, true) => unreachable!(),
        };
        diag(
            "A06",
            f,
            *line,
            format!(
                "public error enum `{name}` does not implement {missing} — error types \
                 must compose with `?` and `Box<dyn Error>`; escape hatch: \
                 // analyze: allow(error-impl) — <reason>"
            ),
            out,
        );
    }
}
