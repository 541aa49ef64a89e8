//! Fixed-work serving benchmark library; see `main.rs` for the command.
//!
//! Wall-clock timing is the point of this package, so the workspace's
//! ban on `Instant::now` (kept for sampling code) does not apply here.
#![allow(clippy::disallowed_methods)]

pub mod inputs;
pub mod probes;
pub mod replay;
pub mod report;
pub mod stack;
pub mod sys;
pub mod trace;
pub mod workload;
