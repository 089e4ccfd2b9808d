//! Diagnostics for the Almanac compiler pipeline.

use std::fmt;

/// Source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl Span {
    pub(crate) fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Phase of the pipeline an error originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Lex,
    Parse,
    Typecheck,
    Analysis,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Typecheck => "typecheck",
            Phase::Analysis => "analysis",
        };
        f.write_str(s)
    }
}

/// A compiler diagnostic with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlmanacError {
    pub phase: Phase,
    pub span: Span,
    pub message: String,
}

impl AlmanacError {
    pub(crate) fn new(phase: Phase, span: Span, message: impl Into<String>) -> AlmanacError {
        AlmanacError {
            phase,
            span,
            message: message.into(),
        }
    }

    /// Parse-phase error helper.
    pub(crate) fn parse(span: Span, message: impl Into<String>) -> AlmanacError {
        AlmanacError::new(Phase::Parse, span, message)
    }

    /// Typecheck-phase error helper.
    pub(crate) fn typeck(span: Span, message: impl Into<String>) -> AlmanacError {
        AlmanacError::new(Phase::Typecheck, span, message)
    }

    /// Analysis-phase error helper.
    pub(crate) fn analysis(span: Span, message: impl Into<String>) -> AlmanacError {
        AlmanacError::new(Phase::Analysis, span, message)
    }
}

impl fmt::Display for AlmanacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error at {}: {}", self.phase, self.span, self.message)
    }
}

impl std::error::Error for AlmanacError {}

/// Pipeline result type.
pub(crate) type Result<T> = std::result::Result<T, AlmanacError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_includes_phase_and_span() {
        let e = AlmanacError::parse(Span::new(3, 14), "unexpected token");
        assert_eq!(e.to_string(), "parse error at 3:14: unexpected token");
    }
}
