#![warn(missing_docs)]

//! # scibench-core — the comparative image-analytics benchmark
//!
//! The paper's contribution is a benchmark: two scientific image-analytics
//! pipelines implemented on five big-data systems and evaluated for ease
//! of use, performance, scalability and required tuning. This crate is
//! that benchmark:
//!
//! * [`workload`] — the data-size model (the paper's Tables 10a/10b).
//! * [`costmodel`] — every constant of the simulation cost model, with a
//!   calibration path against the real `sciops` kernels.
//! * [`usecases`] — the two pipelines implemented against each engine's
//!   *eager* API at test scale, cross-validated against the `sciops`
//!   reference (the paper's Figures 5–9 code styles).
//! * [`lower`] — per-engine lowering of each pipeline (and each
//!   individual step) to `simcluster` task graphs at paper scale.
//! * [`experiments`] — one driver per table/figure, returning typed rows.
//! * [`registry`] — the one engine registry: Table 1 capabilities, the
//!   end-to-end lowerings, the eager runners' test-scale shapes, and the
//!   per-engine profile accessors.
//! * [`plans`] — the shipped-configuration catalog: every lowered plan
//!   `scibench lint` and the plancheck sweep verify.
//! * [`complexity`] — the Table 1 implementation-complexity accounting.
//! * [`autotune`] — the §6 "self-tuning" future-work direction implemented
//!   as search procedures over the simulator.
//! * [`report`] — fixed-width table and CSV rendering.

pub mod autotune;
pub mod complexity;
pub mod costmodel;
pub mod experiments;
pub mod lower;
pub mod plans;
pub mod registry;
pub mod report;
pub mod usecases;
pub mod workload;
