//! # tsdb — an embedded time-series database
//!
//! PathFinder's PFMaterializer (§4.6) "employs a time-series database (like
//! InfluxDB), encapsulates a snapshot as a compacted record, and conducts
//! time-series analysis". This crate is that substrate, self-contained:
//!
//! * [`db::Db`] — an interned, columnar store: series are addressed by
//!   [`db::SeriesId`] handles, strings by interned symbols, and data lives
//!   in per-series timestamp/field columns. [`db::Db::series_handle`]
//!   creates a series with its columns; [`db::Db::ingest`], the one write
//!   path, appends a full row and is allocation-free in steady state (see
//!   PERFORMANCE.md). Every `&mut` method bumps the store's generation, so
//!   a reader holding a [`db::Stamp`] can tell whether the store changed
//!   since ([`db::Db::is_at`]).
//! * [`query::Query`] — a small Flux-like builder
//!   (`from("path_set").filter("path.dst","LLC").range(a,b)`) that
//!   allocates nothing, and [`db::Db::sum_per_ts`], which sums several
//!   queries per timestamp, reading in-order columns in place.
//! * [`ops`] — `min`/`max`/`mean`/`sum`/`moving_average`/`rate` operators.
//! * [`tsa`] — Holt-Winters forecasting (`holtWinters()`), Pearson
//!   correlation (`pearsonr()`), and the window-clustering step PathFinder
//!   uses to find phases of consistent data locality.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod db;
mod intern;
pub mod ops;
pub mod query;
pub mod tsa;

pub use db::{Db, SeriesId, Stamp};
pub use query::{Merge, Query};
