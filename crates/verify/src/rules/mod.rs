//! The rule catalog. Each rule exposes `run(&Workspace, &mut Vec<Finding>)`
//! and pushes raw findings; suppression filtering happens centrally in
//! [`crate::Workspace::analyze`].

pub mod failpoints;
pub mod wal;
