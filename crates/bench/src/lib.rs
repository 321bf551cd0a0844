//! # pnoc-bench — experiment harness for the d-HetPNoC reproduction
//!
//! Every table and figure of the thesis' evaluation chapter has a
//! corresponding experiment module here; the `repro` binary runs them and
//! prints the same rows / series the paper reports. The simulated figures
//! are views over **one** scenario batch: each module lists its cells as
//! plain `ScenarioSpec`s and reads its report out of the finished
//! `MatrixResult`, and [`experiments::run`] simulates the union of the named
//! experiments' cells once (through the result cache when one is given).
//! Performance is measured by the standalone `benchmark/` package
//! (`BENCHMARK.json`), not here.
//!
//! | module | paper artefact |
//! |--------|----------------|
//! | [`experiments::fig1_1`] | Figure 1-1 — GPU speedup vs flit size |
//! | [`experiments::tables`] | Tables 3-1 … 3-5 — configuration & constants |
//! | [`experiments::fig3_3_3_4`] | Figures 3-3 and 3-4 — peak bandwidth and packet energy, Firefly vs d-HetPNoC |
//! | [`experiments::fig3_5`] | Figure 3-5 — hotspot and real-application case studies |
//! | [`experiments::fig3_6`] | Figure 3-6 — area vs aggregate bandwidth |
//! | [`experiments::fig3_7_3_10`] | Figures 3-7 … 3-10 — bandwidth/energy/area scaling with total wavelengths |
//! | [`experiments::overheads`] | §3.3.1 / §3.4.3 — reservation timing, token timing, area numbers |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod runner;
pub mod scenario_io;
pub mod server;

pub use experiments::ExperimentReport;
