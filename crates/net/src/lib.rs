#![warn(missing_docs)]
//! # dlpt-net — transports for the DLPT protocol
//!
//! The protocol handlers in `dlpt-core::protocol` are pure functions
//! over one peer shard; this crate supplies the latency simulator's
//! API and the wire format for their envelopes:
//!
//! * [`sim::LatencyNet`] — a message-level simulator that delivers
//!   envelopes after randomized latencies. It is `DlptSystem` with a
//!   non-zero [`LatencyModel`] (the scheduler lives in
//!   `dlpt_core::event`); because deliveries interleave arbitrarily,
//!   it exercises the protocol's tolerance to out-of-order messages —
//!   something the zero-delay FIFO pump never does;
//! * [`codec`] — a length-prefixed binary wire format for every
//!   protocol message (what a deployment would put on TCP).
//!   `tests/runtime_equivalence.rs` drives a full workload with every
//!   hop encoded and decoded through it.
//!
//! Real concurrency lives in `dlpt_core::engine::parallel`, the
//! shared-nothing pump, which is deterministic per `(seed, workers)`.

pub mod codec;
pub mod sim;

pub use sim::{LatencyModel, LatencyNet};
