//! Fixture: rule A11 — an audited hot root that names no function.

pub mod kernel;
