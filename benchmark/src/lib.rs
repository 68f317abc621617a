//! scidive-perf: the repo benchmark. See README.md.

pub mod alloc;
pub mod check;
pub mod gen;
pub mod report;
pub mod run;
pub mod sut;
pub mod trace;
