//! The symbol model: item boundaries parsed from scrubbed sources.
//!
//! The analyzer's graph rules (A08–A11) need to know *which function* a
//! line belongs to, which attributes that function carries, and where its
//! body ends. This module recovers that — functions, their spans, module
//! paths, `unsafe`ness, and `#[target_feature]` sets — from the already
//! scrubbed lines, with no external parser. The recovery is lexical:
//!
//! * a **function** is a line where the `fn` keyword is followed by an
//!   identifier (macro metavariables like `fn $name` are not symbols —
//!   macro-generated items are a documented blind spot, which is why the
//!   SIMD wrappers in `hash::simd` are written out explicitly);
//! * its **body** is the brace-matched span from the declaration's `{`
//!   (signature-only declarations in traits have no body);
//! * its **attributes** are the contiguous `#[...]` lines directly above
//!   the declaration (stopping at the previous item boundary), with
//!   `#[target_feature(enable = "...")]` feature names recovered from the
//!   string-literal side table (scrubbing blanks the literal itself);
//! * its **module path** is the stack of enclosing `mod name {` blocks.
//!
//! Nested functions own their lines: per file, each line is attributed to
//! the innermost enclosing declaration (`FileSymbols::owner`).

use crate::scrub::{find_open_brace, matching_close, ScrubbedFile};
use crate::AnalyzedFile;

/// One function item.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Bare identifier (resolution is per-crate by bare name).
    pub name: String,
    /// Crate the defining file belongs to.
    pub crate_name: String,
    /// Index of the defining file in the analyzed-file slice.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// 1-based inclusive body span (== `decl_line` for bodyless items).
    pub body_start: usize,
    pub body_end: usize,
    /// `::`-joined enclosing module path within the file (may be empty).
    pub module_path: String,
    /// Self type of the enclosing `impl` block, if any
    /// (`PairwiseHashBank` for a fn inside `impl PairwiseHashBank { .. }`
    /// or `impl Trait for PairwiseHashBank`).
    /// Qualified calls `Type::name(..)` only resolve to fns whose
    /// `impl_type` matches the qualifier.
    pub impl_type: Option<String>,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Feature names from `#[target_feature(enable = "...")]` attributes.
    pub target_features: Vec<String>,
    /// Declared inside a `#[cfg(test)]` region (or a test-tree file).
    pub is_test: bool,
}

/// All function symbols of one analyzed tree, plus per-file line owners.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Every function, in (file, declaration line) order.
    pub fns: Vec<FnSym>,
    /// Per file: `owner[line0]` = index into `fns` of the innermost
    /// function owning that 0-based line, or `usize::MAX`.
    pub owners: Vec<Vec<usize>>,
}

impl Symbols {
    /// Parse every analyzed file.
    pub fn build(files: &[AnalyzedFile]) -> Symbols {
        let mut sym = Symbols::default();
        for (file_idx, f) in files.iter().enumerate() {
            let before = sym.fns.len();
            parse_file(file_idx, f, &mut sym.fns);
            let mut owner = vec![usize::MAX; f.scrubbed.lines.len()];
            // Declaration order puts nested fns after their enclosing fn,
            // so overwriting yields innermost-wins ownership.
            for (i, s) in sym.fns.iter().enumerate().skip(before) {
                for slot in owner
                    .iter_mut()
                    .take(s.body_end)
                    .skip(s.decl_line.saturating_sub(1))
                {
                    *slot = i;
                }
            }
            sym.owners.push(owner);
        }
        sym
    }

    /// The innermost function owning `(file, 1-based line)`, if any.
    pub fn owner(&self, file: usize, line: usize) -> Option<&FnSym> {
        let idx = *self.owners.get(file)?.get(line.checked_sub(1)?)?;
        self.fns.get(idx)
    }

    /// Index form of [`Self::owner`].
    pub fn owner_idx(&self, file: usize, line: usize) -> Option<usize> {
        let idx = *self.owners.get(file)?.get(line.checked_sub(1)?)?;
        (idx != usize::MAX).then_some(idx)
    }
}

/// The crate name a workspace-relative path belongs to (mirrors
/// `Config::classify`; fixture trees map to the pseudo-crate `fixture`).
pub(crate) fn crate_of(rel_path: &str) -> String {
    rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("fixture")
        .to_string()
}

fn parse_file(file_idx: usize, f: &AnalyzedFile, out: &mut Vec<FnSym>) {
    let lines = &f.scrubbed.lines;
    let crate_name = crate_of(&f.scrubbed.rel_path);
    // Enclosing-module and enclosing-impl stacks: (name, 0-based close).
    let mut mods: Vec<(String, usize)> = Vec::new();
    let mut impls: Vec<(String, usize)> = Vec::new();
    for idx in 0..lines.len() {
        while let Some((_, close)) = mods.last() {
            if idx > *close {
                mods.pop();
            } else {
                break;
            }
        }
        while let Some((_, close)) = impls.last() {
            if idx > *close {
                impls.pop();
            } else {
                break;
            }
        }
        let text = &lines[idx];
        // A fn declaration wins over the other scanners: a return type of
        // `-> impl Iterator` must not read as an impl block.
        if let Some((name, fn_at)) = fn_decl_on(text) {
            emit_fn(file_idx, f, lines, idx, name, fn_at, &mods, &impls, &crate_name, out);
            continue;
        }
        if let Some(name) = mod_decl_on(text) {
            if let Some((ol, oc)) = find_open_brace(lines, idx) {
                if oc != usize::MAX && ol <= idx + 1 {
                    mods.push((name, matching_close(lines, ol, oc)));
                }
            }
            continue;
        }
        if let Some(ty) = impl_type_on(text) {
            if let Some((ol, oc)) = find_open_brace(lines, idx) {
                if oc != usize::MAX {
                    impls.push((ty, matching_close(lines, ol, oc)));
                }
            }
            continue;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_fn(
    file_idx: usize,
    f: &AnalyzedFile,
    lines: &[String],
    idx: usize,
    name: String,
    fn_at: usize,
    mods: &[(String, usize)],
    impls: &[(String, usize)],
    crate_name: &str,
    out: &mut Vec<FnSym>,
) {
    let (body_start, body_end) = match body_open_brace(lines, idx) {
        Some((ol, oc)) => (idx + 1, matching_close(lines, ol, oc) + 1),
        None => (idx + 1, idx + 1), // signature only (trait method, extern)
    };
    out.push(FnSym {
        name,
        crate_name: crate_name.to_string(),
        file: file_idx,
        decl_line: idx + 1,
        body_start,
        body_end,
        module_path: mods.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join("::"),
        impl_type: impls.last().map(|(t, _)| t.clone()),
        is_unsafe: lines[idx][..fn_at].contains("unsafe"),
        target_features: attr_features(&f.scrubbed, idx),
        is_test: f.scrubbed.is_test.get(idx).copied().unwrap_or(false),
    });
}

/// If `text` declares a function (the `fn` keyword followed by a real
/// identifier — not a macro metavariable and not an `Fn(..)` bound),
/// return `(name, byte offset of the keyword)`.
fn fn_decl_on(text: &str) -> Option<(String, usize)> {
    let at = find_word_at(text, "fn")?;
    let rest = text[at + 2..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()))
        .then_some((name, at))
}

/// If `text` opens a module (`mod name {`, possibly `pub`), its name.
fn mod_decl_on(text: &str) -> Option<String> {
    let at = find_word_at(text, "mod")?;
    // `mod name;` declarations and `use ... as mod`-ish lines don't open
    // a scope; require a `{` later on the line or rely on find_open_brace
    // via the caller (which tolerates the brace a line below).
    let rest = text[at + 3..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let after = rest[name.len()..].trim_start();
    (!name.is_empty() && !after.starts_with(';')).then_some(name)
}

/// If `text` opens an `impl` block, the self type's bare name: the path
/// segment after `for` when present (`impl fmt::Display for Frame`), else
/// the first type after `impl` and its generics (`impl<const N: usize>
/// Kernel<N>` → `Kernel`).
fn impl_type_on(text: &str) -> Option<String> {
    let at = find_word_at(text, "impl")?;
    let mut rest = &text[at + "impl".len()..];
    // Skip the generic parameter list, if any.
    if rest.trim_start().starts_with('<') {
        let mut depth = 0i64;
        let open = rest.find('<')?;
        let mut end = open;
        for (i, c) in rest[open..].char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[end..];
    }
    if let Some(at) = find_word_at(rest, "for") {
        rest = &rest[at + "for".len()..];
    }
    // Last path segment of the type (`a::b::Type` yields `Type`).
    let mut s = rest.trim_start().trim_start_matches('&').trim_start();
    loop {
        let seg: String = s
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if seg.is_empty() {
            return None;
        }
        match s[seg.len()..].strip_prefix("::") {
            Some(next) => s = next,
            None => return Some(seg),
        }
    }
}

/// The `{` opening a function body declared at 0-based line `decl`, or
/// `None` for a signature-only declaration. Unlike the generic
/// [`find_open_brace`], a `;` at bracket depth 0 terminates the scan (so
/// `fn sig(&self) -> u64;` does not steal the next item's brace) while a
/// `;` inside `[u64; 4]`-style array types does not.
fn body_open_brace(lines: &[String], decl: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    for (l, text) in lines.iter().enumerate().skip(decl).take(8) {
        for (col, c) in text.char_indices() {
            match c {
                '(' | '[' | '<' => depth += 1,
                ')' | ']' | '>' => depth -= 1,
                '{' => return Some((l, col)),
                ';' if depth <= 0 => return None,
                _ => {}
            }
        }
    }
    None
}

/// Identifier-boundary word search returning the match offset.
fn find_word_at(hay: &str, needle: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0
            && !hay.is_empty()
            || at > 0 && !crate::scrub::is_ident_byte(bytes[at - 1]) && bytes[at - 1] != b'$';
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !crate::scrub::is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Feature names on the contiguous attribute block above 0-based `decl`.
///
/// Walks upward through attribute/blank lines (at most 8), stopping at a
/// previous item's boundary; `#[target_feature(enable = "a,b")]` features
/// come from the string-literal side table, comma-split.
fn attr_features(scrubbed: &ScrubbedFile, decl: usize) -> Vec<String> {
    let mut features = Vec::new();
    let mut collect = |line0: usize, text: &str| {
        if !text.contains("#[target_feature") {
            return;
        }
        for (l, s) in &scrubbed.strings {
            if *l == line0 + 1 {
                features.extend(
                    s.split(',').map(|f| f.trim().to_string()).filter(|f| !f.is_empty()),
                );
            }
        }
    };
    collect(decl, &scrubbed.lines[decl]);
    for j in (decl.saturating_sub(8)..decl).rev() {
        let above = scrubbed.lines[j].trim();
        if above.is_empty() || above.starts_with("#[") {
            collect(j, above);
            continue;
        }
        break; // previous item's code
    }
    features.sort();
    features.dedup();
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    fn analyzed(src: &str) -> AnalyzedFile {
        AnalyzedFile {
            scrubbed: scrub("crates/demo/src/lib.rs", src, false),
            is_lib_source: true,
            atomics_allowed: false,
            field_allowed: false,
            cells_allowed: false,
        }
    }

    #[test]
    fn fn_boundaries_and_ownership() {
        let src = "fn outer() {\n    let x = 1;\n    fn inner() {\n        noop();\n    }\n    inner();\n}\nfn after() {}\n";
        let files = [analyzed(src)];
        let sym = Symbols::build(&files);
        let names: Vec<&str> = sym.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "after"]);
        assert_eq!(sym.owner(0, 2).map(|f| f.name.as_str()), Some("outer"));
        assert_eq!(sym.owner(0, 4).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(sym.owner(0, 6).map(|f| f.name.as_str()), Some("outer"));
        assert_eq!(sym.owner(0, 8).map(|f| f.name.as_str()), Some("after"));
    }

    #[test]
    fn target_features_are_recovered_from_literals() {
        let src = "#[target_feature(enable = \"avx2\")]\npub unsafe fn k(x: &[u64]) -> u64 {\n    x.iter().sum()\n}\n";
        let files = [analyzed(src)];
        let sym = Symbols::build(&files);
        assert_eq!(sym.fns.len(), 1);
        assert!(sym.fns[0].is_unsafe);
        assert_eq!(sym.fns[0].target_features, ["avx2"]);
    }

    #[test]
    fn comma_joined_feature_lists_split() {
        let src = "#[target_feature(enable = \"avx512f,avx512dq\")]\nunsafe fn k() {}\n";
        let files = [analyzed(src)];
        let sym = Symbols::build(&files);
        assert_eq!(sym.fns[0].target_features, ["avx512dq", "avx512f"]);
    }

    #[test]
    fn macro_metavariables_are_not_symbols() {
        let src = "macro_rules! gen {\n    ($n:ident) => {\n        pub unsafe fn $n() {}\n    };\n}\n";
        let files = [analyzed(src)];
        let sym = Symbols::build(&files);
        assert!(sym.fns.is_empty(), "fn $n must not parse as an item: {:?}", sym.fns);
    }

    #[test]
    fn impl_types_are_recorded() {
        let src = "struct Bank;\nimpl Bank {\n    fn new() -> Bank { Bank }\n}\nimpl fmt::Display for Bank {\n    fn fmt(&self) {}\n}\nimpl<const N: usize> Kernel<N> {\n    fn run(&self) {}\n}\nfn free() {}\n";
        let files = [analyzed(src)];
        let sym = Symbols::build(&files);
        let ty = |name: &str| {
            sym.fns.iter().find(|f| f.name == name).and_then(|f| f.impl_type.clone())
        };
        assert_eq!(ty("new").as_deref(), Some("Bank"));
        assert_eq!(ty("fmt").as_deref(), Some("Bank"));
        assert_eq!(ty("run").as_deref(), Some("Kernel"));
        assert_eq!(ty("free"), None);
    }

    #[test]
    fn impl_trait_return_types_are_not_impl_blocks() {
        let src = "fn make() -> impl Iterator<Item = u64> {\n    0..4\n}\nfn after() {}\n";
        let files = [analyzed(src)];
        let sym = Symbols::build(&files);
        let names: Vec<&str> = sym.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["make", "after"]);
        assert_eq!(sym.fns[1].impl_type, None);
    }

    #[test]
    fn module_paths_nest() {
        let src = "mod x86 {\n    fn kern() {}\n}\nfn top() {}\n";
        let files = [analyzed(src)];
        let sym = Symbols::build(&files);
        assert_eq!(sym.fns[0].module_path, "x86");
        assert_eq!(sym.fns[1].module_path, "");
    }
}
