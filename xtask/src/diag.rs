//! The diagnostic model every pass emits into.
//!
//! A [`Diagnostic`] is the unit of output: a stable lint id, a [`Span`]
//! pointing into the repository, a one-line message, and optional help
//! text. Every diagnostic that survives `xtask.toml`'s allowlists fails
//! the run. The `render` module turns slices of diagnostics into human
//! text without knowing which pass produced them.

use std::fmt;

/// A location in a repository file.
///
/// `line` and `column` are 1-based; `0` means "whole file" (file-scoped
/// findings such as a missing lint header) or "whole line" respectively.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line, or 0 for file-scoped findings.
    pub line: usize,
    /// 1-based column, or 0 for line-scoped findings.
    pub column: usize,
}

impl Span {
    /// A span covering a whole file.
    pub fn file(file: impl Into<String>) -> Self {
        Span {
            file: file.into(),
            line: 0,
            column: 0,
        }
    }

    /// A span covering one line.
    pub fn line(file: impl Into<String>, line: usize) -> Self {
        Span {
            file: file.into(),
            line,
            column: 0,
        }
    }

    /// A span pointing at a line and column.
    pub fn at(file: impl Into<String>, line: usize, column: usize) -> Self {
        Span {
            file: file.into(),
            line,
            column,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.column) {
            (0, _) => write!(f, "{}", self.file),
            (l, 0) => write!(f, "{}:{l}", self.file),
            (l, c) => write!(f, "{}:{l}:{c}", self.file),
        }
    }
}

/// One finding from one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable kebab-case lint id.
    pub lint: &'static str,
    /// Where the finding points.
    pub span: Span,
    /// One-line description of the violation.
    pub message: String,
    /// Optional remediation hint.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A finding of `lint` at `span`.
    pub fn error(lint: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            lint,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches remediation help.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {} ({})", self.lint, self.message, self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_display_degrades_gracefully() {
        assert_eq!(Span::file("a.rs").to_string(), "a.rs");
        assert_eq!(Span::line("a.rs", 3).to_string(), "a.rs:3");
        assert_eq!(Span::at("a.rs", 3, 7).to_string(), "a.rs:3:7");
    }

    #[test]
    fn diagnostic_display_carries_lint_and_span() {
        let d = Diagnostic::error("panic-ratchet", Span::line("src/lib.rs", 9), "boom")
            .with_help("return a Result");
        assert_eq!(d.to_string(), "error[panic-ratchet]: boom (src/lib.rs:9)");
        assert_eq!(d.help.as_deref(), Some("return a Result"));
    }
}
