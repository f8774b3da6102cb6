//! Prometheus-style text exposition for collected samples.
//!
//! Renders the subset of the text format the project needs: `# HELP` /
//! `# TYPE` headers, label sets, and histograms expanded into cumulative
//! `_bucket` series with `le` labels plus `_sum`/`_count`. Samples sharing
//! a name are grouped under one header, so labeled variants (e.g. the
//! typed rejection reasons) render as one metric family.
//!
//! Conformance choices (matching the exposition format spec):
//!
//! * families render in **sorted name order**, each exactly once;
//! * duplicate series (same name *and* label set) are **deduped**, the
//!   most recently collected sample winning;
//! * `# HELP` text escapes `\` and newlines; label *values* additionally
//!   escape `"`; label *names* are sanitized to the legal
//!   `[a-zA-Z_][a-zA-Z0-9_]*` charset (invalid bytes become `_`).
//!
//! [`parse_exposition`] is the inverse direction: a validating parser for
//! scrape output, used by the CI smoke step and `setstream scrape` to
//! prove that what the server emits actually parses, and by `setstream
//! top` to read the samples back out.

use crate::registry::{Registry, Sample, SampleValue};
use std::fmt::Write as _;

/// Render all samples from `registry` in Prometheus text format.
pub fn render(registry: &Registry) -> String {
    render_samples(&registry.gather())
}

/// Render an explicit sample list in Prometheus text format.
///
/// Samples are grouped into metric families by name and the families are
/// rendered in sorted order, so interleaved labeled variants — e.g.
/// alternating per-site gauges — still render under a single `# TYPE`
/// header as the exposition format requires. Within a family, series
/// keep their collection order except that a duplicate (name, label set)
/// is replaced by its latest occurrence.
pub fn render_samples(samples: &[Sample]) -> String {
    let mut order: Vec<&str> = Vec::new();
    for s in samples {
        if !order.contains(&s.name.as_str()) {
            order.push(&s.name);
        }
    }
    order.sort_unstable();
    let mut out = String::new();
    for name in order {
        let family: Vec<&Sample> = samples.iter().filter(|s| s.name == name).collect();
        // Dedup by label set, latest occurrence winning, first-seen order.
        let mut series: Vec<&Sample> = Vec::new();
        for s in &family {
            match series.iter_mut().find(|prev| prev.labels == s.labels) {
                Some(slot) => *slot = s,
                None => series.push(s),
            }
        }
        if let Some(help) = family.iter().find_map(|s| s.help.as_deref()) {
            let _ = writeln!(out, "# HELP {} {}", name, escape_help(help));
        }
        let mut header_written = false;
        for s in series {
            if !header_written {
                let kind = match s.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {}", s.name, kind);
                header_written = true;
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, labels(&s.labels, None), v);
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, labels(&s.labels, None), v);
                }
                SampleValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, count) in h.bounds.iter().zip(&h.counts) {
                        cumulative += count;
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            s.name,
                            labels(&s.labels, Some(&bound.to_string())),
                            cumulative
                        );
                    }
                    cumulative += h.overflow;
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        s.name,
                        labels(&s.labels, Some("+Inf")),
                        cumulative
                    );
                    let _ = writeln!(out, "{}_sum{} {}", s.name, labels(&s.labels, None), h.sum);
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        labels(&s.labels, None),
                        h.count
                    );
                }
            }
        }
    }
    out
}

/// Format a label set, optionally appending an `le` label (histograms).
fn labels(pairs: &[(String, String)], le: Option<&str>) -> String {
    if pairs.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in pairs {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", sanitize_label_name(k), escape(v));
        first = false;
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{}\"", le);
    }
    out.push('}');
    out
}

/// Escape a label value per the exposition format.
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape `# HELP` text per the exposition format (backslash and newline
/// only; quotes are legal in help text).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Force a label name into the legal `[a-zA-Z_][a-zA-Z0-9_]*` charset:
/// every illegal byte becomes `_`, and a leading digit gets a `_` prefix.
/// An empty name becomes a single `_`.
fn sanitize_label_name(name: &str) -> String {
    if name.is_empty() {
        return "_".to_string();
    }
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if c == '_' || c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

// ------------------------------------------------------------ validation

/// What [`parse_exposition`] learned about a scrape body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpositionSummary {
    /// Metric family names, in the order their `# TYPE` headers appeared.
    pub families: Vec<String>,
    /// Every sample line, in body order (each histogram series line is
    /// one sample).
    pub samples: Vec<MetricLine>,
    /// Families that carried a `# HELP` header.
    pub helped: usize,
}

/// One sample line of an exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricLine {
    /// Series name, e.g. `setstream_engine_ingest_updates_total`; a
    /// histogram's lines keep their `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    /// Label pairs in exposition order, escapes undone.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl MetricLine {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a scrape body failed to parse as exposition text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpositionError {
    /// A `# TYPE`/`# HELP` comment line is malformed.
    BadComment {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A `# TYPE` header names an unknown metric kind.
    BadKind {
        /// 1-based line number.
        line: usize,
        /// The unknown kind token.
        kind: String,
    },
    /// The same family was declared twice (families must be contiguous).
    DuplicateFamily {
        /// 1-based line number of the second declaration.
        line: usize,
        /// The family name.
        name: String,
    },
    /// A sample line does not parse (bad name, labels, or value).
    BadSample {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A sample appeared before any `# TYPE` header, or under a header
    /// whose family name does not prefix the sample name.
    OrphanSample {
        /// 1-based line number.
        line: usize,
        /// The sample's metric name.
        name: String,
    },
    /// The body contained no metric family at all.
    Empty,
}

impl std::fmt::Display for ExpositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpositionError::BadComment { line, text } => {
                write!(f, "line {line}: malformed comment {text:?}")
            }
            ExpositionError::BadKind { line, kind } => {
                write!(f, "line {line}: unknown metric kind {kind:?}")
            }
            ExpositionError::DuplicateFamily { line, name } => {
                write!(f, "line {line}: family {name:?} declared twice")
            }
            ExpositionError::BadSample { line, text } => {
                write!(f, "line {line}: unparsable sample {text:?}")
            }
            ExpositionError::OrphanSample { line, name } => {
                write!(
                    f,
                    "line {line}: sample {name:?} outside its family's TYPE header"
                )
            }
            ExpositionError::Empty => write!(f, "no metric family in scrape body"),
        }
    }
}

impl std::error::Error for ExpositionError {}

/// `true` if `name` is a legal metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one sample line: a legal metric name, an optional well-formed
/// label block and a numeric value.
fn parse_sample(text: &str) -> Option<MetricLine> {
    let (name, labels, rest) = match text.find('{') {
        Some(brace) => {
            let (labels, rest) = parse_labels(text.get(brace + 1..)?)?;
            (text.get(..brace)?, labels, rest)
        }
        None => {
            let space = text.find(' ')?;
            (text.get(..space)?, Vec::new(), text.get(space..)?)
        }
    };
    if !valid_metric_name(name) {
        return None;
    }
    // Integers or floats; `+Inf` and `NaN` parse too (the renderer never
    // emits NaN).
    let value = rest.trim().parse().ok()?;
    Some(MetricLine {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Read a label block up to its closing `}`: `name="value"` pairs split
/// by commas, escapes inside the quoted values undone. Returns the pairs
/// and the text after the block.
fn parse_labels(block: &str) -> Option<(Vec<(String, String)>, &str)> {
    let mut labels = Vec::new();
    let mut chars = block.char_indices();
    loop {
        let mut key = String::new();
        loop {
            match chars.next()? {
                (i, '}') if key.is_empty() => return Some((labels, block.get(i + 1..)?)),
                (_, '=') => break,
                (_, c) if c.is_ascii_alphanumeric() || c == '_' => key.push(c),
                _ => return None,
            }
        }
        if chars.next()?.1 != '"' {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()?.1 {
                '"' => break,
                '\\' => value.push(match chars.next()?.1 {
                    'n' => '\n',
                    c => c,
                }),
                c => value.push(c),
            }
        }
        labels.push((key, value));
        match chars.next()? {
            (_, ',') => {}
            (i, '}') => return Some((labels, block.get(i + 1..)?)),
            _ => return None,
        }
    }
}

/// Validate a Prometheus text scrape body; returns a summary on success.
///
/// Checks comment syntax, metric-kind tokens, family contiguity, label
/// quoting, and that every sample line parses and belongs to a declared
/// family (histogram `_bucket`/`_sum`/`_count` suffixes included). The
/// summary keeps every sample it parsed.
///
/// # Errors
/// The first violation found, as a typed [`ExpositionError`].
pub fn parse_exposition(body: &str) -> Result<ExpositionSummary, ExpositionError> {
    let mut summary = ExpositionSummary::default();
    let mut current: Option<String> = None;
    let mut helped_current = false;
    let mut pending_help: Option<String> = None;
    for (idx, raw) in body.lines().enumerate() {
        let line = idx + 1;
        let text = raw.trim_end();
        if text.is_empty() {
            continue;
        }
        if let Some(comment) = text.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return Err(ExpositionError::BadComment {
                        line,
                        text: text.to_string(),
                    });
                };
                if !valid_metric_name(name) || parts.next().is_some() {
                    return Err(ExpositionError::BadComment {
                        line,
                        text: text.to_string(),
                    });
                }
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(ExpositionError::BadKind {
                        line,
                        kind: kind.to_string(),
                    });
                }
                if summary.families.iter().any(|f| f == name) {
                    return Err(ExpositionError::DuplicateFamily {
                        line,
                        name: name.to_string(),
                    });
                }
                summary.families.push(name.to_string());
                if helped_current {
                    summary.helped += 1;
                }
                helped_current = pending_help.as_deref() == Some(name);
                if helped_current {
                    summary.helped += 1;
                    helped_current = false;
                }
                pending_help = None;
                current = Some(name.to_string());
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(ExpositionError::BadComment {
                        line,
                        text: text.to_string(),
                    });
                }
                pending_help = Some(name.to_string());
            }
            // Other comments are free-form and ignored.
            continue;
        }
        let Some(sample) = parse_sample(text) else {
            return Err(ExpositionError::BadSample {
                line,
                text: text.to_string(),
            });
        };
        let name = sample.name.as_str();
        let belongs = current.as_deref().is_some_and(|family| {
            name == family
                || (name.strip_prefix(family).is_some_and(|suffix| {
                    matches!(suffix, "_bucket" | "_sum" | "_count")
                }))
        });
        if !belongs {
            return Err(ExpositionError::OrphanSample {
                line,
                name: sample.name,
            });
        }
        summary.samples.push(sample);
    }
    if summary.families.is_empty() {
        return Err(ExpositionError::Empty);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;
    use crate::registry::Sample;

    #[test]
    fn counters_and_gauges_render_with_one_header_per_family() {
        let samples = vec![
            Sample::counter("x_total", 3).with_label("kind", "a"),
            Sample::counter("x_total", 4).with_label("kind", "b"),
            Sample::gauge("y", -1),
        ];
        let text = render_samples(&samples);
        assert_eq!(
            text,
            "# TYPE x_total counter\n\
             x_total{kind=\"a\"} 3\n\
             x_total{kind=\"b\"} 4\n\
             # TYPE y gauge\n\
             y -1\n"
        );
    }

    #[test]
    fn families_render_in_sorted_order() {
        let samples = vec![
            Sample::gauge("z_last", 1),
            Sample::counter("a_first_total", 2),
            Sample::gauge("m_middle", 3),
        ];
        let text = render_samples(&samples);
        let a = text.find("a_first_total").unwrap();
        let m = text.find("m_middle").unwrap();
        let z = text.find("z_last").unwrap();
        assert!(a < m && m < z, "families must sort:\n{text}");
    }

    #[test]
    fn interleaved_families_are_regrouped() {
        // Per-site gauges arrive interleaved (a0, b0, a1, b1); the
        // exposition format demands each family contiguous under one header.
        let samples = vec![
            Sample::gauge("a", 1).with_label("site", "0"),
            Sample::gauge("b", 2).with_label("site", "0"),
            Sample::gauge("a", 3).with_label("site", "1"),
            Sample::gauge("b", 4).with_label("site", "1"),
        ];
        let text = render_samples(&samples);
        assert_eq!(
            text,
            "# TYPE a gauge\n\
             a{site=\"0\"} 1\n\
             a{site=\"1\"} 3\n\
             # TYPE b gauge\n\
             b{site=\"0\"} 2\n\
             b{site=\"1\"} 4\n"
        );
    }

    #[test]
    fn duplicate_series_are_deduped_latest_wins() {
        let samples = vec![
            Sample::gauge("g", 1).with_label("site", "0"),
            Sample::gauge("g", 7).with_label("site", "0"),
            Sample::gauge("g", 2).with_label("site", "1"),
        ];
        let text = render_samples(&samples);
        assert_eq!(
            text,
            "# TYPE g gauge\n\
             g{site=\"0\"} 7\n\
             g{site=\"1\"} 2\n"
        );
    }

    #[test]
    fn help_renders_escaped_before_type() {
        let samples = vec![
            Sample::counter("h_total", 1).with_help("back\\slash and\nnewline"),
            Sample::counter("h_total", 2).with_label("kind", "x"),
        ];
        let text = render_samples(&samples);
        assert!(
            text.starts_with("# HELP h_total back\\\\slash and\\nnewline\n# TYPE h_total counter\n"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_with_inf() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let text = render_samples(&[Sample::histogram("lat", h.snapshot())]);
        assert_eq!(
            text,
            "# TYPE lat histogram\n\
             lat_bucket{le=\"10\"} 1\n\
             lat_bucket{le=\"100\"} 2\n\
             lat_bucket{le=\"+Inf\"} 3\n\
             lat_sum 555\n\
             lat_count 3\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let s = Sample::counter("e_total", 1).with_label("msg", "a\"b\\c\nd");
        let text = render_samples(&[s]);
        assert!(text.contains("msg=\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn label_names_are_sanitized() {
        let samples = vec![
            Sample::counter("n_total", 1).with_label("bad name!", "v"),
            Sample::counter("n_total", 2).with_label("0digit", "v2"),
            Sample::counter("n_total", 3).with_label("", "v3"),
        ];
        let text = render_samples(&samples);
        assert!(text.contains("bad_name_=\"v\""), "{text}");
        assert!(text.contains("_0digit=\"v2\""), "{text}");
        assert!(text.contains("_=\"v3\""), "{text}");
    }

    #[test]
    fn rendered_output_round_trips_through_the_validator() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        let samples = vec![
            Sample::counter("r_total", 3)
                .with_label("reason", "stale \"quoted\"")
                .with_help("rejections by reason"),
            Sample::gauge("g", -2),
            Sample::histogram("lat_ns", h.snapshot()).with_help("latency"),
        ];
        let text = render_samples(&samples);
        let summary = parse_exposition(&text).expect("renderer output must validate");
        assert_eq!(summary.families, vec!["g", "lat_ns", "r_total"]);
        assert_eq!(summary.helped, 2);
        // counter + gauge + 2 buckets + inf + sum + count
        assert_eq!(summary.samples.len(), 7);
    }

    #[test]
    fn metric_text_round_trips_through_the_line_parser() {
        let text = "# HELP x_total help\n# TYPE x_total counter\nx_total 41\n\
                    # TYPE y gauge\ny{method=\"a b\",le=\"+Inf\"} 2.5\n";
        let lines = parse_exposition(text).expect("valid exposition").samples;
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].name, "x_total");
        assert_eq!(lines[0].value, 41.0);
        assert_eq!(lines[1].label("method"), Some("a b"));
        assert!(lines[1].value == 2.5);
        let escaped = "# TYPE e counter\ne{msg=\"a\\\"b\\\\c\\nd\"} 1\n";
        let lines = parse_exposition(escaped).expect("valid exposition").samples;
        assert_eq!(lines[0].label("msg"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn validator_rejects_malformed_bodies() {
        assert!(matches!(
            parse_exposition(""),
            Err(ExpositionError::Empty)
        ));
        assert!(matches!(
            parse_exposition("# TYPE x widget\nx 1\n"),
            Err(ExpositionError::BadKind { .. })
        ));
        assert!(matches!(
            parse_exposition("# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n"),
            Err(ExpositionError::DuplicateFamily { .. })
        ));
        assert!(matches!(
            parse_exposition("orphan 1\n"),
            Err(ExpositionError::OrphanSample { .. })
        ));
        assert!(matches!(
            parse_exposition("# TYPE x counter\nx{unterminated=\"v} 1\n"),
            Err(ExpositionError::BadSample { .. })
        ));
        assert!(matches!(
            parse_exposition("# TYPE x counter\nx not_a_number\n"),
            Err(ExpositionError::BadSample { .. })
        ));
    }
}
