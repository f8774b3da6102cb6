//! The standing-query statement: [`parse_subscribe`] reads a
//! `SUBSCRIBE <expr> TOLERANCE <n>[%]` statement so command-line and wire
//! clients can register continuous queries against the engine's
//! subscription layer.

use crate::ast::SetExpr;
use crate::parser::ParseError;
use std::fmt;

/// `Relative` tolerances are written as percentages in the statement
/// syntax; this converts them to fractions.
const PERCENT: f64 = 100.0;

/// How a subscriber bounds "the estimate moved enough to notify me":
/// either an absolute band around the last notified value, or a band
/// relative to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ToleranceSpec {
    /// Notify when the estimate moves by more than this many elements.
    Absolute(f64),
    /// Notify when the estimate moves by more than this *fraction* of the
    /// last notified value (`TOLERANCE 5%` parses to `Relative(0.05)`).
    Relative(f64),
}

/// A parsed `SUBSCRIBE <expr> TOLERANCE <n>[%]` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeStatement {
    /// The set expression to watch continuously.
    pub expr: SetExpr,
    /// The subscriber's notification tolerance band.
    pub tolerance: ToleranceSpec,
}

/// Why a `SUBSCRIBE` statement failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum SubscribeError {
    /// The statement does not start with the `SUBSCRIBE` keyword.
    MissingSubscribe,
    /// No `TOLERANCE` clause was found after the expression.
    MissingTolerance,
    /// The tolerance value is not a non-negative finite number.
    BadTolerance(String),
    /// The expression between the keywords failed to parse.
    BadExpression(ParseError),
}

impl fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingSubscribe => {
                write!(f, "statement must start with SUBSCRIBE")
            }
            Self::MissingTolerance => {
                write!(f, "statement needs a TOLERANCE clause: SUBSCRIBE <expr> TOLERANCE <n>[%]")
            }
            Self::BadTolerance(t) => {
                write!(f, "tolerance {t:?} is not a non-negative number (use e.g. 250 or 5%)")
            }
            Self::BadExpression(e) => write!(f, "bad set expression: {e}"),
        }
    }
}

impl std::error::Error for SubscribeError {}

/// Parse a standing-query registration statement:
///
/// ```text
/// SUBSCRIBE (A & B) - C TOLERANCE 250
/// SUBSCRIBE A | B TOLERANCE 5%
/// ```
///
/// Keywords are case-insensitive and a trailing `;` is allowed. The text
/// between the keywords uses this crate's expression syntax.
///
/// ```
/// use setstream_expr::{parse_subscribe, ToleranceSpec};
/// let s = parse_subscribe("subscribe (A & B) - C tolerance 5%").unwrap();
/// assert_eq!(s.tolerance, ToleranceSpec::Relative(0.05));
/// ```
pub fn parse_subscribe(text: &str) -> Result<SubscribeStatement, SubscribeError> {
    let trimmed = text.trim().trim_end_matches(';').trim();
    let rest = strip_keyword(trimmed, "SUBSCRIBE").ok_or(SubscribeError::MissingSubscribe)?;
    let (expr_text, tol_text) =
        split_last_keyword(rest, "TOLERANCE").ok_or(SubscribeError::MissingTolerance)?;
    let expr: SetExpr = expr_text
        .trim()
        .parse()
        .map_err(SubscribeError::BadExpression)?;
    let tolerance = parse_tolerance(tol_text.trim())?;
    Ok(SubscribeStatement { expr, tolerance })
}

/// Strip a leading case-insensitive keyword followed by whitespace.
fn strip_keyword<'a>(text: &'a str, kw: &str) -> Option<&'a str> {
    if !text.is_char_boundary(kw.len()) {
        return None;
    }
    let (head, rest) = text.split_at(kw.len());
    if head.eq_ignore_ascii_case(kw) && rest.starts_with(|c: char| c.is_ascii_whitespace()) {
        Some(rest)
    } else {
        None
    }
}

/// Split at the *last* standalone (whitespace-delimited) occurrence of
/// `kw`, case-insensitively, returning the text before and after it.
fn split_last_keyword<'a>(text: &'a str, kw: &str) -> Option<(&'a str, &'a str)> {
    let lower = text.to_ascii_lowercase();
    let needle = kw.to_ascii_lowercase();
    let bytes = text.as_bytes();
    let mut best = None;
    for (i, _) in lower.match_indices(&needle) {
        let before_ok =
            i == 0 || bytes.get(i - 1).is_some_and(|b| b.is_ascii_whitespace());
        let after_ok = bytes
            .get(i + needle.len())
            .map_or(true, |b| b.is_ascii_whitespace());
        if before_ok && after_ok {
            best = Some(i);
        }
    }
    // analyze: allow(indexing) — `i` comes from match_indices over the ASCII-lowercased copy of `text`, so both cuts are char boundaries
    best.map(|i| (&text[..i], &text[i + kw.len()..]))
}

fn parse_tolerance(text: &str) -> Result<ToleranceSpec, SubscribeError> {
    let bad = || SubscribeError::BadTolerance(text.to_string());
    let (value_text, relative) = match text.strip_suffix('%') {
        Some(v) => (v.trim_end(), true),
        None => (text, false),
    };
    let value: f64 = value_text.parse().map_err(|_| bad())?;
    if !value.is_finite() || value < 0.0 {
        return Err(bad());
    }
    if relative {
        Ok(ToleranceSpec::Relative(value / PERCENT))
    } else {
        Ok(ToleranceSpec::Absolute(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(text: &str) -> SetExpr {
        text.parse().unwrap()
    }

    #[test]
    fn subscribe_absolute_tolerance() {
        let s = parse_subscribe("SUBSCRIBE (A & B) - C TOLERANCE 250").unwrap();
        assert_eq!(s.expr, e("(A & B) - C"));
        assert_eq!(s.tolerance, ToleranceSpec::Absolute(250.0));
    }

    #[test]
    fn subscribe_relative_tolerance_and_case() {
        let s = parse_subscribe("subscribe A | B tolerance 5%;").unwrap();
        assert_eq!(s.expr, e("A | B"));
        assert_eq!(s.tolerance, ToleranceSpec::Relative(0.05));
        let s = parse_subscribe("Subscribe A Tolerance 12.5 %").unwrap();
        assert_eq!(s.tolerance, ToleranceSpec::Relative(0.125));
    }

    #[test]
    fn subscribe_error_paths() {
        assert_eq!(
            parse_subscribe("SELECT * FROM t"),
            Err(SubscribeError::MissingSubscribe)
        );
        assert_eq!(
            parse_subscribe("SUBSCRIBE A & B"),
            Err(SubscribeError::MissingTolerance)
        );
        assert!(matches!(
            parse_subscribe("SUBSCRIBE A TOLERANCE lots"),
            Err(SubscribeError::BadTolerance(_))
        ));
        assert!(matches!(
            parse_subscribe("SUBSCRIBE A TOLERANCE -3"),
            Err(SubscribeError::BadTolerance(_))
        ));
        assert!(matches!(
            parse_subscribe("SUBSCRIBE A & TOLERANCE 5"),
            Err(SubscribeError::BadExpression(_))
        ));
        // Errors render human-readable messages.
        let msg = SubscribeError::MissingTolerance.to_string();
        assert!(msg.contains("TOLERANCE"));
    }

    #[test]
    fn subscribe_splits_at_last_tolerance_keyword() {
        // The keyword search takes the *last* standalone occurrence, so an
        // (admittedly perverse) expression region never eats the clause.
        let s = parse_subscribe("SUBSCRIBE A | B TOLERANCE 10").unwrap();
        assert_eq!(s.tolerance, ToleranceSpec::Absolute(10.0));
    }
}
