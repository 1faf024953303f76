//! Benchmark of the replidedup dump, restore and heal collectives: the
//! workloads and their measured cycle ([`workload`]), the metric
//! vocabulary ([`metrics`]), and the per-layer measurements of the traced
//! run ([`layers`]). The `replidedup-perfbench` binary drives them; see
//! `NOTES.md`.

pub mod layers;
pub mod metrics;
pub mod stats;
pub mod workload;
