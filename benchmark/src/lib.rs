//! The repository's benchmark: four fixed-work workloads over the 007
//! pipeline, six end-to-end metrics measured with tracing off, and a
//! per-layer ledger from a traced twin of the window loop. See
//! `README.md` beside this crate for the metric definitions.

pub mod aa;
pub mod alloc;
pub mod collector;
pub mod run;
pub mod session;
pub mod stats;
pub mod trace;
pub mod twin;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;
