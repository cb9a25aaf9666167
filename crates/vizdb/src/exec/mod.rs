//! Plan execution over in-memory tables.
//!
//! Two observationally identical engines share the executor skeleton and one
//! selection type, the [`SelectionBitmap`](crate::bitmap::SelectionBitmap):
//! the row-at-a-time interpreter (the semantic reference, and the path for
//! predicates that cannot compile; it builds index candidates from `Vec`
//! scans, so they are checked independently) and the compiled engine (the
//! default), which lowers predicates once per execution and refines 4096-row
//! chunks over 64-bit words. At more than one thread the compiled engine runs its
//! chunk work as morsels ([`parallel`]) while preserving its results, work
//! profile and simulated time bit for bit.

pub mod compiled;
mod executor;
pub mod lattice;
pub mod parallel;
mod result;

pub use compiled::{CompiledPredicate, ExecEngine, DENSE_GRID_MAX_CELLS};
pub(crate) use executor::{eval_resolved, resolve_keyword_token};
pub use executor::{execute, execute_with, ExecOutcome, ExecTable};
pub use result::QueryResult;
