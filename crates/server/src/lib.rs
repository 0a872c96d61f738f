//! # asset-server — the ASSET network transaction server
//!
//! Exposes a [`Database`](asset_core::Database) over TCP with a
//! length-prefixed binary protocol (normative spec: `DESIGN.md` §13;
//! implementation: [`protocol`]). A connection maps wire tids onto
//! **session transactions**: executor-driven step programs fed through
//! per-transaction mailboxes (the private `session` module), so a
//! thousand idle connections park a thousand transactions on
//! [`TxnStep::WaitExternal`](asset_core::TxnStep::WaitExternal) without
//! occupying a single executor worker.
//!
//! Commit acknowledgements ride the group-commit flush window: the OK
//! for a `COMMIT` frame is written only after the transaction's commit
//! record is durable, and a commit-point failure whose fate is unknown
//! surfaces as the dedicated `ERR_COMMIT_AMBIGUOUS` status rather than
//! a generic error (DESIGN.md §13.4).
//!
//! ## In-process quick start
//!
//! ```
//! use asset_common::Config;
//! use asset_core::Database;
//! use asset_server::AssetServer;
//!
//! let (db, _) = Database::open(Config::in_memory().with_exec_workers(2))?;
//! let server = AssetServer::spawn(db, "127.0.0.1:0")?;
//! let addr = server.local_addr(); // connect asset_client::Client here
//! # let _ = addr;
//! server.shutdown();
//! server.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The standalone binary (`cargo run -p asset-server -- --addr
//! 127.0.0.1:4994 --dir /tmp/asset`) wraps exactly this.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

pub mod prom;
pub mod protocol;
mod server;
mod session;

pub use server::AssetServer;
