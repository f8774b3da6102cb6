//! The set-expression AST and its Boolean semantics (the paper's `B(E)`
//! mapping, §4).

use serde::{Deserialize, Serialize};
use setstream_stream::StreamId;
use std::fmt;

/// A set expression of the generic form
/// `E := (((A₁ op₁ A₂) op₂ A₃) ⋯ Aₙ)` with `op ∈ {∪, ∩, −}` — arbitrarily
/// nested, as the grammar in §4 allows.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SetExpr {
    /// A leaf: one input update stream `Aᵢ`.
    Stream(StreamId),
    /// Set union `E₁ ∪ E₂`.
    Union(Box<SetExpr>, Box<SetExpr>),
    /// Set intersection `E₁ ∩ E₂`.
    Intersect(Box<SetExpr>, Box<SetExpr>),
    /// Set difference `E₁ − E₂`.
    Diff(Box<SetExpr>, Box<SetExpr>),
}

impl SetExpr {
    /// Leaf constructor.
    pub fn stream(id: u32) -> Self {
        SetExpr::Stream(StreamId(id))
    }

    /// `self ∪ rhs`.
    pub fn union(self, rhs: SetExpr) -> Self {
        SetExpr::Union(Box::new(self), Box::new(rhs))
    }

    /// `self ∩ rhs`.
    pub fn intersect(self, rhs: SetExpr) -> Self {
        SetExpr::Intersect(Box::new(self), Box::new(rhs))
    }

    /// `self − rhs`.
    pub fn diff(self, rhs: SetExpr) -> Self {
        SetExpr::Diff(Box::new(self), Box::new(rhs))
    }

    /// The paper's Boolean mapping `B(E)` (§4): evaluate the expression
    /// over per-stream membership bits. `present(s)` answers "is the
    /// element (or: is the level-j bucket non-empty) for stream `s`?";
    /// union becomes `∨`, intersection `∧`, difference `∧¬`.
    pub fn eval_bool(&self, present: &impl Fn(StreamId) -> bool) -> bool {
        self.eval_bits(&|s| u64::from(present(s))) & 1 == 1
    }

    /// `B(E)` over 64 independent lanes at once: bit `i` of `present(s)`
    /// is stream `s`'s membership bit in lane `i`, and bit `i` of the
    /// result is `B(E)` in that lane. Union becomes `|`, intersection
    /// `&`, difference `& !`. The estimators pass each stream's occupied
    /// first-level buckets of one sketch copy, so one call scores every
    /// bucket of the copy.
    pub fn eval_bits(&self, present: &impl Fn(StreamId) -> u64) -> u64 {
        match self {
            SetExpr::Stream(id) => present(*id),
            SetExpr::Union(l, r) => l.eval_bits(present) | r.eval_bits(present),
            SetExpr::Intersect(l, r) => l.eval_bits(present) & r.eval_bits(present),
            SetExpr::Diff(l, r) => l.eval_bits(present) & !r.eval_bits(present),
        }
    }

    /// `B(E)` over a Venn-cell bitmask: bit `i` of `mask` set ⇔ the element
    /// belongs to the stream with id `i`. Matches the mask convention of
    /// `setstream_stream::gen::VennSpec`.
    pub fn eval_mask(&self, mask: u32) -> bool {
        self.eval_bool(&|s| (mask >> s.0) & 1 == 1)
    }

    /// Distinct streams referenced, sorted by id.
    pub fn streams(&self) -> Vec<StreamId> {
        let mut ids = Vec::new();
        self.collect_streams(&mut ids);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn collect_streams(&self, out: &mut Vec<StreamId>) {
        match self {
            SetExpr::Stream(id) => out.push(*id),
            SetExpr::Union(l, r) | SetExpr::Intersect(l, r) | SetExpr::Diff(l, r) => {
                l.collect_streams(out);
                r.collect_streams(out);
            }
        }
    }

    /// Number of operator nodes (the paper's `n − 1` for a chain over `n`
    /// streams; drives the union-bound term in Theorem 4.1).
    pub fn n_operators(&self) -> usize {
        match self {
            SetExpr::Stream(_) => 0,
            SetExpr::Union(l, r) | SetExpr::Intersect(l, r) | SetExpr::Diff(l, r) => {
                1 + l.n_operators() + r.n_operators()
            }
        }
    }

    /// Tree height (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            SetExpr::Stream(_) => 1,
            SetExpr::Union(l, r) | SetExpr::Intersect(l, r) | SetExpr::Diff(l, r) => {
                1 + l.depth().max(r.depth())
            }
        }
    }

    /// Binding strength for minimal-parentheses printing: `∩` binds
    /// tighter than `∪`/`−`.
    fn precedence(&self) -> u8 {
        match self {
            SetExpr::Stream(_) => 3,
            SetExpr::Intersect(..) => 2,
            SetExpr::Union(..) | SetExpr::Diff(..) => 1,
        }
    }
}

impl fmt::Display for SetExpr {
    /// Prints with ASCII operators (`|`, `&`, `-`) and minimal parentheses;
    /// the output re-parses to the same tree.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn side(
            f: &mut fmt::Formatter<'_>,
            child: &SetExpr,
            parent_prec: u8,
            needs_paren_on_tie: bool,
        ) -> fmt::Result {
            let wrap = child.precedence() < parent_prec
                || (needs_paren_on_tie && child.precedence() == parent_prec);
            if wrap {
                write!(f, "(")?;
            }
            write!(f, "{child}")?;
            if wrap {
                write!(f, ")")?;
            }
            Ok(())
        }
        match self {
            SetExpr::Stream(id) => write!(f, "{id}"),
            SetExpr::Union(l, r) => {
                side(f, l, 1, false)?;
                write!(f, " | ")?;
                side(f, r, 1, true) // left-assoc: parenthesize right ties
            }
            SetExpr::Diff(l, r) => {
                side(f, l, 1, false)?;
                write!(f, " - ")?;
                side(f, r, 1, true)
            }
            SetExpr::Intersect(l, r) => {
                side(f, l, 2, false)?;
                write!(f, " & ")?;
                side(f, r, 2, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SetExpr {
        SetExpr::stream(i)
    }

    #[test]
    fn boolean_semantics_match_set_semantics() {
        // (A - B) & C over all 8 membership combinations.
        let e = s(0).diff(s(1)).intersect(s(2));
        for mask in 0u32..8 {
            let a = mask & 1 != 0;
            let b = mask & 2 != 0;
            let c = mask & 4 != 0;
            assert_eq!(e.eval_mask(mask), a && !b && c, "mask={mask:03b}");
        }
    }

    #[test]
    fn union_and_intersect_truth_tables() {
        let u = s(0).union(s(1));
        let i = s(0).intersect(s(1));
        assert!(!u.eval_mask(0b00));
        assert!(u.eval_mask(0b01) && u.eval_mask(0b10) && u.eval_mask(0b11));
        assert!(i.eval_mask(0b11));
        assert!(!i.eval_mask(0b01) && !i.eval_mask(0b10) && !i.eval_mask(0b00));
    }

    #[test]
    fn streams_are_sorted_and_deduped() {
        let e = s(3).union(s(1)).intersect(s(3).diff(s(0)));
        assert_eq!(
            e.streams(),
            vec![StreamId(0), StreamId(1), StreamId(3)]
        );
    }

    #[test]
    fn structural_measures() {
        let e = s(0).diff(s(1)).intersect(s(2));
        assert_eq!(e.n_operators(), 2);
        assert_eq!(e.depth(), 3);
        assert_eq!(s(0).n_operators(), 0);
        assert_eq!(s(0).depth(), 1);
    }

    #[test]
    fn display_minimal_parens() {
        assert_eq!(s(0).union(s(1)).to_string(), "A | B");
        assert_eq!(s(0).intersect(s(1)).union(s(2)).to_string(), "A & B | C");
        assert_eq!(s(0).union(s(1)).intersect(s(2)).to_string(), "(A | B) & C");
        assert_eq!(s(0).diff(s(1)).diff(s(2)).to_string(), "A - B - C");
        assert_eq!(s(0).diff(s(1).diff(s(2))).to_string(), "A - (B - C)");
        assert_eq!(
            s(0).diff(s(1)).intersect(s(2)).to_string(),
            "(A - B) & C"
        );
    }
}
