#![warn(missing_docs)]
//! # dlpt-net — transports for the DLPT protocol
//!
//! The protocol handlers in `dlpt-core::protocol` are pure functions
//! over one peer shard; this crate supplies what carries their
//! envelopes outside the synchronous pump:
//!
//! * [`event`] — a deterministic discrete-event queue;
//! * [`sim::LatencyNet`] — a message-level simulator that delivers
//!   envelopes after randomized latencies. Because deliveries
//!   interleave arbitrarily, it exercises the protocol's tolerance to
//!   out-of-order messages — something the synchronous FIFO pump of
//!   `DlptSystem` never does;
//! * [`codec`] — a length-prefixed binary wire format for every
//!   protocol message (what a deployment would put on TCP).
//!   `tests/runtime_equivalence.rs` drives a full workload with every
//!   hop encoded and decoded through it.
//!
//! Real concurrency lives in `dlpt_core::engine::parallel`, the
//! shared-nothing pump, which is deterministic per `(seed, workers)`.

pub mod codec;
pub mod event;
pub mod sim;

pub use event::EventQueue;
pub use sim::{LatencyModel, LatencyNet};
