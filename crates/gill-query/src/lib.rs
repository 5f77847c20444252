//! gill-query: the serving half of GILL.
//!
//! The paper's platform does not stop at collection: §9's bgproutes.io
//! exposes the archive behind query APIs so users ask "routes for p at t"
//! instead of downloading MRT dumps. This crate reproduces that half:
//!
//! * [`store`] — a time-sharded, snapshot-accelerated route store over the
//!   update stream ([`RouteStore::rib_at`] is snapshot + bounded replay),
//!   built on interning arenas ([`arena`]), copy-on-write RIBs ([`cow`])
//!   and sealed on-disk segments ([`segment`]); [`refstore`] keeps the
//!   original owned-value implementation as the behavioural oracle;
//! * [`query`] — the looking-glass query surface (exact/LPM/more-specifics,
//!   per-VP and cross-VP, live and historical) rendered as JSON;
//! * [`http`] — a dependency-free blocking HTTP/1.1 server with a bounded
//!   worker pool and per-connection read deadlines;
//! * [`server`] — the endpoint router wiring HTTP onto a shared store,
//!   including raw-MRT download endpoints;
//! * [`storage`] — a collector storage backend that feeds a live store;
//! * [`json`] — the strict, hand-rolled JSON encoder behind it all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cow;
pub mod http;
pub mod json;
pub mod query;
pub mod refstore;
pub mod segment;
pub mod server;
pub mod storage;
pub mod store;

pub use http::{Handled, HttpServer, Request, Response, ServerConfig};
pub use json::{Json, JsonError};
pub use query::{JoinMode, MatchMode, QueryEngine, RouteQuery, UpdateQuery};
pub use refstore::ReferenceStore;
pub use server::SharedStore;
pub use storage::QueryableStorage;
pub use store::{RouteStore, RouteView, StoreConfig, StoreMemStats, StoreStats};
