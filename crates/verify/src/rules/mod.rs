//! The rule catalog. Each rule exposes `run(&Workspace, &mut Vec<Finding>)`
//! and pushes raw findings; suppression filtering happens centrally in
//! [`crate::Workspace::analyze`].

pub mod exec_step;
pub mod failpoints;
pub mod lock_order;
pub mod status_flow;
pub mod wal;
