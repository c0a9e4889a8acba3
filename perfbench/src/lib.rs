//! # sz-perfbench: the steady end-to-end and per-layer benchmark
//!
//! One binary runs one named workload through the public batch API
//! (`sz_batch::BatchEngine` over `gen_jobs` or `suite16_jobs`, default
//! `SynthConfig`), checks every output, and prints the end-to-end
//! metrics; with `--trace 1` it also replays every job layer by layer
//! ([`replay`]) and prints the per-layer metrics instead. See
//! `README.md` beside this crate for why each workload exists and which
//! end-to-end metric each layer should move.

pub mod alloc;
pub mod replay;
pub mod stats;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
