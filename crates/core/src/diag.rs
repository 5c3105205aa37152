//! Source-anchored diagnostics (paper §2.2 front end; DESIGN.md §14).
//!
//! A [`Diagnostic`] carries a stable code (`L0100`), a severity, a primary
//! byte-offset [`Span`] into the original script, optional labeled secondary
//! spans, and optional help text. The front end (`lima-lang`) and the lint
//! passes (`lima-analysis`) emit diagnostics; the binaries render them as
//! caret snippets ([`Diagnostic::render`]) or JSON ([`Diagnostic::to_json`]),
//! and `limad` ships them over the wire so clients receive machine-readable
//! positions instead of flattened strings.
//!
//! JSON encoding is hand-rolled (the workspace is offline and vendors no
//! serde); [`Diagnostic::from_json`] tolerates and skips unknown keys so the
//! schema can grow without breaking old readers.

use crate::json::{self, Json};
use std::fmt;

/// A half-open byte range `[start, end)` into the original source text.
///
/// Offsets are byte offsets (not char indices) so spans survive lossless
/// round-trips through the wire protocol and JSON; renderers convert to
/// 1-based line/column on demand via [`line_col`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte of the spanned region.
    pub start: u32,
    /// Byte offset one past the last byte (>= `start`).
    pub end: u32,
}

impl Span {
    /// A span over `[start, end)`; swapped bounds are normalized.
    pub fn new(start: u32, end: u32) -> Self {
        if start <= end {
            Span { start, end }
        } else {
            Span {
                start: end,
                end: start,
            }
        }
    }

    /// A span from usize offsets, saturating at `u32::MAX` (scripts larger
    /// than 4 GiB are clamped rather than wrapped).
    pub fn of(start: usize, end: usize) -> Self {
        let clamp = |v: usize| u32::try_from(v).unwrap_or(u32::MAX);
        Span::new(clamp(start), clamp(end))
    }

    /// An empty span at a single offset (insertion point / EOF).
    pub fn point(at: usize) -> Self {
        Span::of(at, at)
    }

    /// Length in bytes.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// True when the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Smallest span covering both `self` and `other`.
    pub fn to(&self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// True when both offsets land inside `src` (end may equal `len`).
    pub fn in_bounds(&self, src_len: usize) -> bool {
        (self.start as usize) <= src_len && (self.end as usize) <= src_len
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Diagnostic severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The program is rejected.
    Error,
    /// Suspicious but accepted; promoted to an error under `--deny warnings`.
    Warning,
    /// Informational hint; never promoted.
    Note,
}

impl Severity {
    const ALL: [Severity; 3] = [Severity::Error, Severity::Warning, Severity::Note];

    /// Stable lowercase name (used in rendered output and JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }

    /// Parses the stable name back; `None` for anything else.
    pub fn from_name(s: &str) -> Option<Severity> {
        Severity::ALL.into_iter().find(|v| v.as_str() == s)
    }

    /// Stable wire encoding.
    pub fn as_u8(&self) -> u8 {
        *self as u8
    }

    /// Decodes the wire byte; `None` for unknown values.
    pub fn from_u8(v: u8) -> Option<Severity> {
        Severity::ALL.into_iter().find(|s| s.as_u8() == v)
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A labeled secondary span ("the offending call site is here").
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// Where the label points.
    pub span: Span,
    /// Short message rendered next to the underline.
    pub message: String,
}

/// One source-anchored finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Severity of the finding.
    pub severity: Severity,
    /// Stable code like `L0100` (see DESIGN.md §14 for the registry).
    pub code: String,
    /// Primary human-readable message.
    pub message: String,
    /// Span the finding anchors to; `None` for whole-program findings.
    pub primary: Option<Span>,
    /// Labeled secondary spans.
    pub labels: Vec<Label>,
    /// Optional help text rendered as a trailing `= help:` line.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A new diagnostic with the given severity.
    pub fn new(severity: Severity, code: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity,
            code: code.to_string(),
            message: message.into(),
            primary: None,
            labels: Vec::new(),
            help: None,
        }
    }

    /// An error diagnostic.
    pub fn error(code: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Error, code, message)
    }

    /// A warning diagnostic.
    pub fn warning(code: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warning, code, message)
    }

    /// A note diagnostic.
    pub fn note(code: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Note, code, message)
    }

    /// Sets the primary span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.primary = Some(span);
        self
    }

    /// Sets the primary span when one is available.
    pub fn with_span_opt(mut self, span: Option<Span>) -> Self {
        self.primary = span;
        self
    }

    /// Adds a labeled secondary span.
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Self {
        self.labels.push(Label {
            span,
            message: message.into(),
        });
        self
    }

    /// Sets the help text.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Sort key: source order first, then severity, then code.
    fn sort_key(&self) -> (u32, u8, &str, &str) {
        (
            self.primary.map(|s| s.start).unwrap_or(u32::MAX),
            self.severity.as_u8(),
            &self.code,
            &self.message,
        )
    }

    // ------------------------------------------------------------ rendering

    /// Renders a rustc-style caret snippet against the original source.
    ///
    /// The output is deterministic (golden-file friendly): no colors, no
    /// trailing whitespace, `\n`-terminated.
    pub fn render(&self, src: &str, filename: &str) -> String {
        let starts = line_starts(src);
        let mut out = String::new();
        out.push_str(&format!(
            "{}[{}]: {}\n",
            self.severity.as_str(),
            self.code,
            self.message
        ));
        // Gutter width across every snippet of this diagnostic.
        let mut max_line = 1usize;
        let mut snippets: Vec<(Span, char, &str)> = Vec::new();
        if let Some(p) = self.primary {
            snippets.push((p, '^', ""));
        }
        for l in &self.labels {
            snippets.push((l.span, '-', l.message.as_str()));
        }
        for (span, _, _) in &snippets {
            let (line, _) = locate(src, &starts, span.start as usize);
            max_line = max_line.max(line);
        }
        let width = max_line.to_string().len();
        let pad = " ".repeat(width);
        for (idx, (span, marker, label)) in snippets.iter().enumerate() {
            let start = (span.start as usize).min(src.len());
            let (line, col) = locate(src, &starts, start);
            if idx == 0 {
                out.push_str(&format!("{pad}--> {filename}:{line}:{col}\n"));
            } else {
                out.push_str(&format!("{pad}::: {filename}:{line}:{col}\n"));
            }
            out.push_str(&format!("{pad} |\n"));
            let text = line_text(src, &starts, line);
            out.push_str(&format!("{line:>width$} | {text}\n"));
            // Underline: clamp the span to this line; at least one marker.
            let line_start = starts.get(line - 1).copied().unwrap_or(0);
            let line_end = line_start + text.len();
            let end = (span.end as usize).clamp(start, line_end.max(start));
            let lead: usize = text
                .get(..start.saturating_sub(line_start))
                .map(|s| s.chars().count())
                .unwrap_or(0);
            let count = text
                .get(start.saturating_sub(line_start)..end.saturating_sub(line_start))
                .map(|s| s.chars().count())
                .unwrap_or(0)
                .max(1);
            let mut underline = format!(
                "{pad} | {}{}",
                " ".repeat(lead),
                marker.to_string().repeat(count)
            );
            if !label.is_empty() {
                underline.push(' ');
                underline.push_str(label);
            }
            underline.push('\n');
            out.push_str(&underline);
        }
        if let Some(h) = &self.help {
            out.push_str(&format!("{pad} = help: {h}\n"));
        }
        out
    }

    // ----------------------------------------------------------------- JSON

    /// Encodes the diagnostic as a single JSON object (documented schema in
    /// README "Linting"): `severity`, `code`, `message`, optional `span`
    /// (`{"start": .., "end": ..}`), `labels`, optional `help`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"severity\":\"{}\"", self.severity.as_str());
        out.push_str(",\"code\":");
        json::write_str(&mut out, &self.code);
        out.push_str(",\"message\":");
        json::write_str(&mut out, &self.message);
        if let Some(s) = self.primary {
            out.push_str(&format!(
                ",\"span\":{{\"start\":{},\"end\":{}}}",
                s.start, s.end
            ));
        }
        out.push_str(",\"labels\":[");
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"start\":{},\"end\":{},\"message\":",
                l.span.start, l.span.end
            ));
            json::write_str(&mut out, &l.message);
            out.push('}');
        }
        out.push(']');
        if let Some(h) = &self.help {
            out.push_str(",\"help\":");
            json::write_str(&mut out, h);
        }
        out.push('}');
        out
    }

    /// Decodes a diagnostic from a JSON object produced by [`to_json`]
    /// (unknown keys are skipped). `None` on malformed input.
    ///
    /// [`to_json`]: Diagnostic::to_json
    pub fn from_json(src: &str) -> Option<Diagnostic> {
        Diagnostic::from_value(&json::parse(src).ok()?)
    }

    fn from_value(v: &Json) -> Option<Diagnostic> {
        let severity = Severity::from_name(v.get("severity")?.as_str()?)?;
        let code = v.get("code")?.as_str()?.to_string();
        let message = v.get("message")?.as_str()?.to_string();
        let primary = match v.get("span") {
            Some(s) => Some(span_from(s)?),
            None => None,
        };
        let mut labels = Vec::new();
        if let Some(ls) = v.get("labels") {
            for l in ls.as_arr()? {
                labels.push(Label {
                    span: span_from(l)?,
                    message: l.get("message")?.as_str()?.to_string(),
                });
            }
        }
        let help = match v.get("help") {
            Some(h) => Some(h.as_str()?.to_string()),
            None => None,
        };
        Some(Diagnostic {
            severity,
            code,
            message,
            primary,
            labels,
            help,
        })
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.code,
            self.message
        )
    }
}

/// Sorts diagnostics into stable reporting order: by primary span start
/// (span-less findings last), then severity, code, and message.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

/// Encodes a slice of diagnostics as a JSON array.
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

/// Decodes a JSON array of diagnostics; `None` on malformed input.
pub fn diagnostics_from_json(src: &str) -> Option<Vec<Diagnostic>> {
    let v = json::parse(src).ok()?;
    v.as_arr()?.iter().map(Diagnostic::from_value).collect()
}

// ------------------------------------------------------------ line mapping

/// Byte offsets of every line start (the first is always 0).
fn line_starts(src: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

fn locate(src: &str, starts: &[usize], offset: usize) -> (usize, usize) {
    let offset = offset.min(src.len());
    let line = starts.partition_point(|s| *s <= offset); // 1-based
    let line_start = starts.get(line - 1).copied().unwrap_or(0);
    let col = src
        .get(line_start..offset)
        .map(|s| s.chars().count())
        .unwrap_or(offset - line_start)
        + 1;
    (line, col)
}

fn line_text<'a>(src: &'a str, starts: &[usize], line: usize) -> &'a str {
    let start = starts.get(line - 1).copied().unwrap_or(0);
    let end = starts.get(line).map(|e| e - 1).unwrap_or(src.len());
    src.get(start..end).unwrap_or("").trim_end_matches('\r')
}

/// 1-based line and character column of a byte offset in `src` (clamped to
/// the source length).
pub fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let starts = line_starts(src);
    locate(src, &starts, offset)
}

// ------------------------------------------------------------ JSON schema

fn as_u32(v: &Json) -> Option<u32> {
    v.as_f64()
        .filter(|n| *n >= 0.0 && *n <= u32::MAX as f64 && n.fract() == 0.0)
        .map(|n| n as u32)
}

fn span_from(v: &Json) -> Option<Span> {
    Some(Span::new(as_u32(v.get("start")?)?, as_u32(v.get("end")?)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_normalizes_and_joins() {
        assert_eq!(Span::new(5, 2), Span::new(2, 5));
        assert_eq!(Span::of(1, 3).to(Span::of(7, 9)), Span::of(1, 9));
        assert!(Span::of(0, 4).in_bounds(4));
        assert!(!Span::of(0, 5).in_bounds(4));
        assert!(Span::point(3).is_empty());
    }

    #[test]
    fn line_col_is_one_based_and_clamped() {
        let src = "ab\ncd\ne";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 4), (2, 2));
        assert_eq!(line_col(src, 6), (3, 1));
        assert_eq!(line_col(src, 999), (3, 2));
        assert_eq!(line_col("", 0), (1, 1));
    }

    #[test]
    fn render_places_carets_under_the_span() {
        let src = "x = 1;\ny = foo(x);\n";
        let d = Diagnostic::error("L0002", "unknown function 'foo'")
            .with_span(Span::of(11, 14))
            .with_help("define it or use a builtin");
        let r = d.render(src, "t.dml");
        let expected = "error[L0002]: unknown function 'foo'\n --> t.dml:2:5\n  |\n2 | y = foo(x);\n  |     ^^^\n  = help: define it or use a builtin\n";
        assert_eq!(r, expected);
    }

    #[test]
    fn render_includes_secondary_labels() {
        let src = "f = function() return (y) {\n  y = rand(rows=2, cols=2);\n}\n";
        let d = Diagnostic::warning("L0201", "function 'f' is reuse-ineligible")
            .with_span(Span::of(0, 1))
            .with_label(Span::of(34, 38), "non-deterministic call here");
        let r = d.render(src, "s.dml");
        assert!(r.contains("warning[L0201]"), "{r}");
        assert!(r.contains("--> s.dml:1:1"), "{r}");
        assert!(r.contains("::: s.dml:2:7"), "{r}");
        assert!(r.contains("---- non-deterministic call here"), "{r}");
    }

    #[test]
    fn render_handles_eof_and_out_of_bounds_spans() {
        let src = "x = ";
        let d = Diagnostic::error("L0002", "unexpected end of input").with_span(Span::point(4));
        let r = d.render(src, "t.dml");
        assert!(r.contains("--> t.dml:1:5"), "{r}");
        assert!(r.contains("^"), "{r}");
        // A span past the end clamps instead of panicking.
        let d2 = Diagnostic::error("L0002", "x").with_span(Span::of(100, 200));
        let _ = d2.render(src, "t.dml");
        let _ = d2.render("", "t.dml");
    }

    #[test]
    fn json_round_trips() {
        let d = Diagnostic::warning("L0204", "variable \"x\" shadows\nloop var")
            .with_span(Span::of(3, 9))
            .with_label(Span::of(0, 2), "first bound here")
            .with_help("rename the inner variable");
        let back = Diagnostic::from_json(&d.to_json());
        assert_eq!(back, Some(d));
    }

    #[test]
    fn json_round_trips_without_span_or_help() {
        let d = Diagnostic::note("L0205", "redundant no_cache");
        assert_eq!(Diagnostic::from_json(&d.to_json()), Some(d));
    }

    #[test]
    fn json_array_round_trips_and_skips_unknown_keys() {
        let diags = vec![
            Diagnostic::error("L0100", "racy parfor").with_span(Span::of(1, 4)),
            Diagnostic::note("L0206", "constant trip"),
        ];
        let json = diagnostics_to_json(&diags);
        assert_eq!(diagnostics_from_json(&json), Some(diags));
        // Extra keys (e.g. line/col enrichment) are tolerated.
        let enriched = r#"{"severity":"error","code":"L0100","message":"m","span":{"start":1,"end":4,"line":1,"col":2},"labels":[],"future":null}"#;
        let d = Diagnostic::from_json(enriched);
        assert_eq!(
            d,
            Some(Diagnostic::error("L0100", "m").with_span(Span::of(1, 4)))
        );
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "[{]",
            "{\"severity\":\"fatal\",\"code\":\"L1\",\"message\":\"m\"}",
            "{\"code\":\"L1\"}",
            "{\"severity\":\"error\",\"code\":\"L1\",\"message\":\"m\"} trailing",
            "{\"severity\":\"error\",\"code\":\"L1\",\"message\":\"\\q\"}",
        ] {
            assert_eq!(Diagnostic::from_json(bad), None, "input: {bad}");
        }
    }

    #[test]
    fn json_escapes_control_and_unicode() {
        let d = Diagnostic::error("L0001", "bad char '\u{1}' in ünïcode");
        let json = d.to_json();
        assert!(json.contains("\\u0001"), "{json}");
        assert_eq!(Diagnostic::from_json(&json), Some(d));
    }

    #[test]
    fn sort_orders_by_span_then_severity() {
        let mut v = vec![
            Diagnostic::note("L0206", "c"),
            Diagnostic::warning("L0204", "b").with_span(Span::of(9, 10)),
            Diagnostic::error("L0100", "a").with_span(Span::of(2, 5)),
            Diagnostic::warning("L0202", "d").with_span(Span::of(2, 5)),
        ];
        sort_diagnostics(&mut v);
        assert_eq!(v[0].code, "L0100");
        assert_eq!(v[1].code, "L0202");
        assert_eq!(v[2].code, "L0204");
        assert_eq!(v[3].code, "L0206");
    }
}
