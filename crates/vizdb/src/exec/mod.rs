//! Plan execution over in-memory tables.
//!
//! Four observationally identical engines share the executor skeleton: the
//! row-at-a-time interpreter (the semantic reference), the compiled columnar
//! batch engine over id-vector selections, the compiled bitmap engine (the
//! default), which carries candidates as
//! [`SelectionBitmap`](crate::bitmap::SelectionBitmap)s and refines 4096-row
//! chunks over 64-bit words, and the morsel-driven parallel bitmap engine
//! ([`parallel`]), which runs the bitmap engine's chunk work on a worker crew
//! while preserving its results, work profile and simulated time bit for bit.

pub mod compiled;
mod executor;
pub mod lattice;
pub mod parallel;
mod result;

pub use compiled::{CompiledPredicate, ExecEngine, DENSE_GRID_MAX_CELLS};
pub(crate) use executor::{eval_resolved, resolve_keyword_token};
pub use executor::{execute, execute_with, ExecOutcome, ExecTable};
pub use result::QueryResult;
