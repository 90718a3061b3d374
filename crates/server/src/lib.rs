//! # procdb-server
//!
//! `procdb` over the network: a concurrent TCP service speaking the
//! shell's command language as a line-oriented wire protocol, over the
//! same [`Session`] the interactive shell uses.
//!
//! ## Protocol
//!
//! One command per line (exactly the shell grammar — `access V`,
//! `update 5 -> 99`, `strategy rvm`, `show`, `costs`, `stats`, …).
//! Every response is zero or more data lines followed by a terminator
//! line starting with `ok` or `err`:
//!
//! ```text
//! $ nc localhost 7878
//! procdb-server: database procedures over TCP (type 'help')
//! ok ready
//! access PROGS
//! (1, 0, "Programmer")
//! ok 1 rows 12.0 ms
//! ```
//!
//! Clients read until the terminator; `quit` closes the connection,
//! `shutdown` stops the whole server.
//!
//! ## Concurrency
//!
//! Connections share one [`Session`] behind a readers-writer lock, the
//! network analogue of the paper's i-lock protocol: `access` runs under
//! a shared read lock whenever the strategy's read path needs no engine
//! mutation (Always Recompute, AVM, RVM, and a *valid* Cache &
//! Invalidate entry — see [`procdb_core::Engine::access_shared`]);
//! an invalidated cache entry escalates to the exclusive path, exactly
//! as a CI access that must refill its cache re-acquires locks.
//! Updates take the write lock on one unreplicated shard; with several
//! shards or replicas they run under the read lock, isolated by the
//! per-shard engine locks. DDL always takes the write lock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod exec;
pub mod procedures;
pub mod server;
pub mod session;
pub mod wire_server;

pub use command::{parse, Command, HELP};
pub use exec::{execute, Outcome};
pub use procedures::{CallOutcome, ProcedureRegistry};
pub use server::{Server, ServerConfig};
pub use session::{Session, SessionError, TableSpec};
