//! Optimization baselines for the `vigil` reproduction of 007 (NSDI 2018).
//!
//! §5.3 of the paper defines two NP-hard benchmarks 007 is compared
//! against:
//!
//! * the **binary program** (3): find the fewest links explaining every
//!   failed connection — the minimum set cover over the routing matrix;
//! * the **integer program** (4): additionally assign a *drop count* to
//!   each blamed link (`‖p‖₁ = ‖c‖₁`, `Ap ≥ c`), which yields a ranking.
//!
//! The paper solves these with Mosek; this crate substitutes a
//! self-contained solver stack:
//!
//! * [`setcover`] — an exact branch-and-bound minimum set cover exploiting
//!   the problems' structure (see below), fast enough for epoch-scale
//!   instances;
//! * [`greedy`] — the paper's Algorithm 2, i.e. the MAX COVERAGE / Tomo
//!   approximation.
//!
//! **Structure theorem** (why [`setcover`] solves both programs): a
//! support `S ⊆ links` admits a feasible `p` for the integer program iff
//! `S` covers every failed connection. *If* `S` covers each row `i`, pick
//! any `l(i) ∈ S ∩ path(i)` and set `p_l = Σ_{i: l(i)=l} c_i`: then
//! `Σ p = ‖c‖₁` and row `i`'s path sum is at least `c_i`. *Only if*: an
//! uncovered row has path sum `0 < c_i`. Hence the minimal `‖p‖₀` of both
//! (3) and (4) equals the minimum set cover size, and (4)'s extra power is
//! in the count assignment (the ranking), which [`programs`] computes by
//! demand-weighted attribution.
//!
//! The literal MILP route — a dense two-phase simplex with branch & bound
//! on the LP relaxation and indicator variables for the `‖p‖₀` objective
//! — is exponential, so no run calls it. It lives under `tests/lp/` as
//! the reference that cross-checks this equivalence, compiled into this
//! crate's unit tests and into `tests/solver_properties.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod greedy;
pub mod instance;
pub mod programs;
pub mod setcover;

#[cfg(test)]
#[path = "../tests/lp/simplex.rs"]
mod simplex;

#[cfg(test)]
#[path = "../tests/lp/milp.rs"]
mod milp;

pub use greedy::greedy_cover;
pub use instance::{CoverInstance, FlowRow};
pub use programs::{binary_program, integer_program, BinarySolution, IntegerSolution};
pub use setcover::{min_set_cover, CoverResult, SearchLimits};
