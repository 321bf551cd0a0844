//! # pnoc-store — content-addressed scenario result store
//!
//! The persistence layer of the simulation-as-a-service stack:
//!
//! * [`json`] — the workspace's hand-rolled JSON value model (render +
//!   parse), moved here from `pnoc-bench` so the store does not depend on
//!   the experiment harness (the harness re-exports it),
//! * [`codec`] — a **lossless** codec between
//!   [`SweepPoint`](pnoc_sim::sweep::SweepPoint) (stats + metric report)
//!   and JSON: `f64`s as exact bit patterns, `u64`s as decimal strings,
//!   sketches re-validated on decode,
//! * [`store`] — [`ResultStore`]: content-addressed on-disk cache entries
//!   with atomic writes, corruption-tolerant loads, file-mtime LRU and a
//!   wall-clock sidecar kept out of the cached payload. Implements
//!   [`pnoc_sim::scenario::PointCache`], so
//!   `pnoc_sim::scenario::run_specs_with_cache` (and therefore
//!   `repro --cache-dir` and `repro --serve`) can serve previously
//!   simulated points without simulating.
//!
//! See `src/store.md` for the key scheme, the engine-fingerprint
//! invalidation story and the atomicity guarantees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod json;
pub mod store;

pub use codec::{point_from_json, point_json, CodecError};
pub use json::{Json, JsonParseError};
pub use store::{content_hash, CompactionReport, EvictionReport, ResultStore, StoreStats};
