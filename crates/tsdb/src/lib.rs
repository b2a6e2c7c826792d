//! # tsdb — an embedded time-series database
//!
//! PathFinder's PFMaterializer (§4.6) "employs a time-series database (like
//! InfluxDB), encapsulates a snapshot as a compacted record, and conducts
//! time-series analysis". This crate is that substrate, self-contained:
//!
//! * [`db::Db`] — an interned, columnar store: series are addressed by
//!   [`db::SeriesId`] handles, strings by [`intern::Symbol`]s, and data
//!   lives in per-series timestamp/field columns. The steady-state ingest
//!   path ([`db::Db::ingest`]) is allocation-free (see PERFORMANCE.md).
//! * [`point::Point`] — the row-oriented builder record, kept as a thin
//!   compatibility shim over the columnar store ([`db::Db::insert`]).
//! * [`query::Query`] — a small Flux-like builder
//!   (`from("path_set").filter("path.dst","LLC").range(a,b)`).
//! * [`ops`] — `min`/`max`/`mean`/`sum`/`moving_average`/`rate` operators.
//! * [`tsa`] — Holt-Winters forecasting (`holtWinters()`), Pearson
//!   correlation (`pearsonr()`), and the window-clustering step PathFinder
//!   uses to find phases of consistent data locality.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod db;
pub mod intern;
pub mod ops;
pub mod point;
pub mod query;
pub mod tsa;

pub use db::{Db, SeriesId};
pub use intern::{Interner, Symbol};
pub use point::Point;
pub use query::Query;
