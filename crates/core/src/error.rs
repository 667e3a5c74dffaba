//! Error type for the core optimizer.

use std::fmt;

/// Errors surfaced by cascade construction, selection and query processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A cascade referenced a model id outside the repository, or one the
    /// scoring backend's zoo never registered.
    UnknownModel(u32),
    /// The cascade set or frontier was empty where a choice was required.
    EmptySet(&'static str),
    /// No cascade satisfies the user's constraints.
    NoFeasibleCascade,
    /// Query text failed to parse.
    Parse { position: usize, message: String },
    /// A query referenced an unknown object category.
    UnknownCategory(String),
    /// A query referenced an unknown metadata field.
    UnknownField(String),
    /// A continuous-query window was mis-specified or ticked ahead of its
    /// arrivals (see [`crate::continuous`]).
    Window(String),
    /// A scoring backend could not produce a pack's scores: an item's
    /// input representation is neither stored nor derivable from a
    /// configured source, or an evaluation seam broke its one-decision-
    /// per-item contract (see [`crate::exec`]).
    Scoring(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownModel(id) => write!(f, "unknown model id {id}"),
            CoreError::EmptySet(what) => write!(f, "empty {what}"),
            CoreError::NoFeasibleCascade => write!(f, "no cascade satisfies the constraints"),
            CoreError::Parse { position, message } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            CoreError::UnknownCategory(c) => write!(f, "unknown object category '{c}'"),
            CoreError::UnknownField(field) => write!(f, "unknown metadata field '{field}'"),
            CoreError::Window(message) => write!(f, "continuous window: {message}"),
            CoreError::Scoring(message) => write!(f, "scoring: {message}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CoreError::UnknownModel(7).to_string().contains('7'));
        assert!(CoreError::UnknownCategory("dog".into())
            .to_string()
            .contains("dog"));
        let e = CoreError::Parse {
            position: 3,
            message: "expected ident".into(),
        };
        assert!(e.to_string().contains("byte 3"));
    }
}
