//! Row vs. columnar execution mode.
//!
//! The planner emits one plan; the mode only selects the *evaluation
//! strategy* inside the executor (per-row closure calls vs. typed-column
//! kernels over [`fudj_types::ColumnVec`] strides). Both strategies are
//! required to produce bit-identical results and identical logical
//! rows/bytes counters — `tests/columnar_differential.rs` pins that.

use std::fmt;

/// Which evaluation strategy the executor uses for vectorizable operators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Per-row closure evaluation (the original pipeline).
    Row,
    /// Typed-column kernels with selection bitmaps (the default).
    #[default]
    Columnar,
}

impl ExecMode {
    /// Parse a user-facing mode name (`SET exec_mode = row|columnar`).
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s.to_ascii_lowercase().as_str() {
            "row" => Some(ExecMode::Row),
            "columnar" => Some(ExecMode::Columnar),
            _ => None,
        }
    }

    /// The user-facing mode name.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Row => "row",
            ExecMode::Columnar => "columnar",
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_modes_case_insensitively() {
        assert_eq!(ExecMode::parse("row"), Some(ExecMode::Row));
        assert_eq!(ExecMode::parse("Columnar"), Some(ExecMode::Columnar));
        assert_eq!(ExecMode::parse("vectorized"), None);
    }

    #[test]
    fn default_is_columnar() {
        assert_eq!(ExecMode::default(), ExecMode::Columnar);
        assert_eq!(ExecMode::Columnar.to_string(), "columnar");
    }
}
