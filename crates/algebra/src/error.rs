//! Errors raised by tabular algebra evaluation and parsing.

use crate::governor::PartialRun;
use tabular_core::Symbol;

/// Errors from evaluating tabular algebra programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// A parameter that must denote a single attribute denoted zero or
    /// several (paper §3.6: "a parameter representing a single column
    /// attribute should have a singleton set as interpretation, otherwise
    /// the effect of the statement is undefined").
    NotSingleton {
        /// What the parameter was for.
        context: &'static str,
        /// How many symbols it denoted.
        got: usize,
    },
    /// A wildcard was used where no binding is available (e.g. a `*` in a
    /// parameter list whose subscript never occurs in the argument list).
    UnboundWildcard(u32),
    /// The statement's target parameter does not denote a name.
    BadTarget,
    /// A `while` condition must be a (possibly bound) table name.
    BadWhileCondition,
    /// An evaluation limit was exceeded (guard against the exponential
    /// `set-new` and non-terminating `while`; see `EvalLimits`).
    LimitExceeded {
        /// Which limit.
        what: &'static str,
        /// The configured bound.
        limit: usize,
        /// The attempted size.
        attempted: usize,
    },
    /// A [`crate::governor::Budget`] resource ran out — the run was
    /// cancelled, its wall-clock deadline passed, or its cumulative cell
    /// budget was exhausted. Unlike [`AlgebraError::LimitExceeded`], the
    /// error carries the partial [`crate::EvalStats`] and partial
    /// [`crate::Trace`] collected up to the trip (the `partial` payload
    /// is diagnostic only and does not affect error equality).
    BudgetExceeded {
        /// Which resource tripped: one of
        /// [`crate::governor::RESOURCE_CANCELLED`],
        /// [`crate::governor::RESOURCE_DEADLINE`] (values in ms), or
        /// [`crate::governor::RESOURCE_RUN_CELLS`] (values in cells).
        resource: &'static str,
        /// How much was spent when the trip was detected (0 for
        /// cancellation).
        spent: usize,
        /// The configured allowance (0 for cancellation).
        limit: usize,
        /// The stats and trace accumulated up to the trip.
        partial: Box<PartialRun>,
    },
    /// An operation received the wrong number of arguments.
    Arity {
        /// Operation name.
        op: &'static str,
        /// Expected argument count.
        expected: usize,
        /// Received argument count.
        got: usize,
    },
    /// A `switch` entry parameter denoted more than one symbol.
    AmbiguousEntry(Vec<Symbol>),
    /// Parse error in the textual tabular algebra language.
    Parse {
        /// Byte offset in the source.
        at: usize,
        /// Description.
        msg: String,
    },
    /// An engine invariant did not hold mid-run. These used to be
    /// `expect`/`unreachable!` panics on paths that are also reachable
    /// while a governed run is winding down from a budget trip (partial
    /// state); in a long-lived multi-tenant process a broken invariant
    /// must fail the one run, not abort the server.
    Internal {
        /// Which invariant broke.
        what: &'static str,
    },
}

impl std::fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgebraError::NotSingleton { context, got } => {
                write!(
                    f,
                    "parameter for {context} must denote exactly one symbol, got {got}"
                )
            }
            AlgebraError::UnboundWildcard(k) => write!(f, "wildcard *{k} is unbound"),
            AlgebraError::BadTarget => write!(f, "assignment target must denote a name"),
            AlgebraError::BadWhileCondition => {
                write!(f, "while condition must be a table name")
            }
            AlgebraError::LimitExceeded {
                what,
                limit,
                attempted,
            } => write!(f, "{what} limit exceeded: {attempted} > {limit}"),
            AlgebraError::BudgetExceeded {
                resource,
                spent,
                limit,
                ..
            } => {
                if *resource == crate::governor::RESOURCE_CANCELLED {
                    write!(f, "evaluation cancelled cooperatively")
                } else {
                    write!(f, "{resource} exceeded: spent {spent} of {limit}")
                }
            }
            AlgebraError::Arity { op, expected, got } => {
                write!(f, "{op} expects {expected} argument(s), got {got}")
            }
            AlgebraError::AmbiguousEntry(syms) => {
                write!(f, "entry parameter denotes {} symbols", syms.len())
            }
            AlgebraError::Parse { at, msg } => write!(f, "parse error at byte {at}: {msg}"),
            AlgebraError::Internal { what } => {
                write!(f, "internal evaluation invariant broken: {what}")
            }
        }
    }
}

impl AlgebraError {
    /// A budget trip with an (as yet) empty partial payload; the run
    /// entry point attaches the real stats and trace as the error
    /// propagates out (`eval::run_governed_traced`).
    pub(crate) fn budget_trip(resource: &'static str, spent: usize, limit: usize) -> AlgebraError {
        AlgebraError::BudgetExceeded {
            resource,
            spent,
            limit,
            partial: Box::new(PartialRun::default()),
        }
    }
}

impl std::error::Error for AlgebraError {}

/// Result alias for algebra evaluation.
pub type Result<T> = std::result::Result<T, AlgebraError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = AlgebraError::LimitExceeded {
            what: "set-new rows",
            limit: 10,
            attempted: 4096,
        };
        assert!(e.to_string().contains("4096"));
        assert!(AlgebraError::UnboundWildcard(3).to_string().contains("*3"));
    }
}
