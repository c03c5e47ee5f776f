//! The codec arm shared by the integration tests: an [`Engine`] driven
//! through its public API over a FIFO of wire frames.
//!
//! Every envelope the engine emits is `codec::encode`d into a frame on
//! send and decoded again just before [`Engine::deliver`]. The frame
//! queue is not [`Transport::synchronous`], so the engine never chains
//! a hop inline: every hop of every operation crosses the wire format.
//! Runs are deterministic per seed, like every other runtime.

use dlpt::core::{Engine, EngineConfig, Envelope, Key, Step, Transport};
use dlpt::net::codec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Requeues an envelope may take before it is failed explicitly (the
/// ring-size floor below still applies, as in the other runtimes).
const REQUEUE_BUDGET: u32 = 4096;

/// Encoded frames awaiting delivery, each with its requeue count.
#[derive(Default)]
pub struct FrameQueue(VecDeque<(u32, Vec<u8>)>);

impl FrameQueue {
    fn push(&mut self, requeues: u32, env: &Envelope) {
        self.0.push_back((requeues, codec::encode(env).to_vec()));
    }
}

impl Transport for FrameQueue {
    fn deliver(&mut self, env: Envelope) {
        self.push(0, &env);
    }
}

/// A framed runtime: engine, frame queue and the RNG that picks entry
/// nodes.
pub struct Framed {
    pub engine: Engine,
    pub frames: FrameQueue,
    pub rng: StdRng,
}

impl Framed {
    /// An empty overlay.
    pub fn new(seed: u64) -> Self {
        Framed {
            engine: Engine::new(EngineConfig::default()),
            frames: FrameQueue::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Joins peer `id`, routing the join through the tree, and drains.
    pub fn add_peer(&mut self, id: Key) {
        assert!(!self.engine.contains_peer(&id), "duplicate peer id");
        self.engine.add_local_shard(id.clone(), u32::MAX >> 1);
        if self.engine.peer_count() > 1 {
            let env = self.engine.join_envelope(&id, &mut self.rng);
            self.send(env);
        }
    }

    /// Registers `key` and drains.
    pub fn insert_data(&mut self, key: Key) {
        let env = self.engine.insert_envelope(key, &mut self.rng);
        self.send(env);
    }

    /// Encodes `env` onto the queue and drains, then flushes replica
    /// maintenance as every runtime does after an operation (a no-op
    /// unless it mutated something at `k > 1`).
    pub fn send(&mut self, env: Envelope) {
        self.frames.deliver(env);
        self.drain();
        self.engine.flush_replication(&mut self.frames);
        self.drain();
    }

    /// Decodes and delivers frames until none remain.
    pub fn drain(&mut self) {
        while let Some((requeues, frame)) = self.frames.0.pop_front() {
            let env = codec::decode(&frame).expect("frames are self-produced");
            match self
                .engine
                .deliver(&mut self.frames, env)
                .expect("valid envelope")
            {
                Step::Done => {}
                Step::Requeue(env) => {
                    let floor = (self.engine.peer_count() as u32).saturating_mul(2);
                    if requeues >= REQUEUE_BUDGET.max(floor) {
                        self.engine
                            .fail_undeliverable(env)
                            .expect("only discovery traffic may exhaust the requeue budget");
                    } else {
                        self.frames.push(requeues + 1, &env);
                    }
                }
            }
        }
    }
}
