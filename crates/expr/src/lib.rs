//! Set-expression trees over update streams.
//!
//! The paper's queries are expressions built from stream identifiers with
//! the standard set operators — e.g. `(A ∩ B) − C` "IP sources seen at both
//! R₁ and R₂ but not R₃". This crate is the expression substrate:
//!
//! * [`SetExpr`] — the AST, with the **Boolean mapping B(E)** of §4: an
//!   expression evaluates over per-stream bucket-occupancy bits
//!   (`∪ → ∨`, `∩ → ∧`, `− → ∧¬`), which is how the general estimator
//!   checks its "E witness condition";
//! * [`parser`] — a small text syntax (`(A & B) - C`, with `|`/`∪`, `&`/`∩`,
//!   `-`/`−`) for the examples and experiment binaries;
//! * [`eval`] — exact evaluation against ground-truth multi-sets.
//!
//! # Example
//!
//! ```
//! use setstream_expr::SetExpr;
//! use setstream_stream::StreamId;
//!
//! let e: SetExpr = "(A & B) - C".parse().unwrap();
//! assert_eq!(e.streams(), vec![StreamId(0), StreamId(1), StreamId(2)]);
//! // B(E): an element present in A and B but not C is in E.
//! assert!(e.eval_bool(&|s| s.0 != 2));
//! assert!(!e.eval_bool(&|_| true));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ast;
pub mod cells;
pub mod eval;
pub mod parser;
pub mod random;
pub mod simplify;
pub mod sql;

pub use ast::SetExpr;
pub use cells::{equivalent, expression_cells, venn_spec_for};
pub use parser::ParseError;
pub use random::random_expr;
pub use simplify::simplify;
pub use sql::{parse_subscribe, SubscribeError, SubscribeStatement, ToleranceSpec};
