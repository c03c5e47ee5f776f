//! The shared-nothing multi-worker pump: discovery throughput that
//! scales with cores.
//!
//! [`ParallelPump`] processes a *batch* of discovery requests over the
//! unified [`Engine`] with `N` workers. The batch is **partitioned,
//! not shared**:
//!
//! * The interned [`Directory`]'s peer population is split into
//!   per-worker **slices**: contiguous runs of the ring order, each
//!   worker *owning* (holding by value) the [`PeerShard`]s — and
//!   therefore the capacity counters — of its run. Ring-adjacent peers
//!   land on the same worker, so tree hops between neighbours stay
//!   in-slice.
//! * Routing runs against a **frozen snapshot**: every worker carries
//!   its own copy of the `label-id → host-id → (worker, slot)` tables
//!   (`RouteTable`), so a delivery costs one interner hash plus
//!   three array reads — no shared map is walked per hop. Only the
//!   interner itself (`Key → u32`, immutable for the batch) is read
//!   through a shared reference.
//! * Cross-slice envelopes travel through **bounded SPSC rings**
//!   (`Ring`), one per ordered worker pair, hand-rolled on `std`
//!   atomics (the workspace has no channel dependency).
//! * There is **no round barrier**. Quiescence is agreed by
//!   Chandy–Lamport-style *credits*: after draining epoch `e`, worker
//!   `s` pushes every peer `r` a `Lane::Credit` carrying how many
//!   envelopes it sent `r` this epoch and its global emit total.
//!   A worker entering epoch `e + 1` consumes each sender's epoch-`e`
//!   batch as soon as that sender's credit arrives — it stalls only
//!   when it genuinely has no deliverable envelopes — and the summed
//!   totals give every worker the same termination verdict (a global
//!   total of zero ends the pump). Because rings are FIFO, a credit
//!   proves its epoch's envelopes have already arrived.
//!
//! ## Determinism rules
//!
//! * Responses are logged worker-locally tagged `(round, worker,
//!   sequence)` — the worker's log *is* its gather buffer — and folded
//!   into the engine's aggregation after the pump, sorted by that tag.
//!   "Round" is the credit **epoch**: worker `w` processes, in epoch
//!   `e`, exactly the envelopes the old barrier design would have
//!   handed it in round `e` (sender batches in worker-index order,
//!   then its own chained hops in generation order), so the fold is
//!   byte-identical to the round-barrier pump's and, with it, the
//!   golden fingerprint and the `pump_fingerprint` self-check.
//! * Partitioning, per-epoch processing order and the response fold
//!   are pure functions of `(engine state, batch, worker count)` —
//!   thread scheduling can change *when* a worker runs, never *what*
//!   it computes. Repeated seeded runs are byte-identical.
//! * Causality is preserved without timestamps: an envelope sent in
//!   epoch `e` is consumed in epoch `e + 1` (or later on the same
//!   worker at a larger sequence), so a response sorts before anything
//!   it causes.
//! * With unbounded peer capacity, outcomes are independent of the
//!   worker count (each request's route depends only on the tree).
//!   Under Section-4 capacity limits, which visit exhausts a peer
//!   depends on the slice interleaving, so outcomes are deterministic
//!   **per worker count**, like they are deterministic per runtime
//!   elsewhere.
//! * Replica failover ([`Engine`]'s capacity-refused read path) is not
//!   consulted here — a refused visit is a drop, as in the paper's
//!   capacity model.
//!
//! ## Ownership and handoff
//!
//! A slice owns its shards outright for the batch; the directory is
//! frozen (the pump holds `&Directory`), so no ownership moves while
//! workers run. Between batches, ownership moves — balancer migration,
//! crash promotion — go through [`Directory::handoff`], which restates
//! the transfer as an explicit record in interned-id space instead of
//! a silent mutation; the next batch's slices are carved from the
//! post-handoff directory. The batch API is intentionally restricted
//! to discovery: joins, registrations and churn stay on the sequential
//! pump, which matches how the experiment harness uses the system
//! (build once, then hammer it with requests).

use super::{Engine, LookupOutcome};
use crate::directory::Directory;
use crate::error::{DlptError, Result};
use crate::key::Key;
use crate::messages::{
    Address, DiscoveryMsg, DiscoveryOutcome, Envelope, Message, NodeMsg, QueryKind,
};
use crate::obs::{merge_key, EventKind, TraceEvent};
use crate::peer::PeerShard;
use crate::protocol::{discovery, Effects};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// How long a worker parks waiting for a credit before re-checking.
/// Unparks do the real waking (a credit send unparks its receiver);
/// the timeout only bounds the abort-flag latency after a sibling
/// panic and the one store/load race the parked-flag protocol leaves
/// open, so it can be generous — a short timeout would have every
/// blocked worker waking thousands of times a second, stealing the
/// very core the productive worker needs.
const PARK_TIMEOUT: Duration = Duration::from_millis(2);

/// A batch-mode discovery pump over `N` workers. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct ParallelPump {
    workers: usize,
    /// Test-only fault injection: index of a worker that dies on
    /// entry, exercising the failed-batch path.
    #[cfg(test)]
    sabotage: Option<usize>,
}

// ---------------------------------------------------------------------
// The bounded SPSC ring
// ---------------------------------------------------------------------

/// Ring capacity (a power of two). Deep enough that backpressure is
/// rare on discovery fan-outs; shallow enough that `N²` rings stay a
/// few megabytes. `push` handles overflow by blocking-with-drain, so
/// the constant is a throughput knob, not a correctness bound.
const RING_CAP: usize = 1024;

/// Cache-line padding: keeps a ring's producer and consumer cursors
/// on different lines so SPSC traffic never false-shares.
#[repr(align(64))]
#[derive(Default)]
struct CachePadded<T>(T);

/// The worker roster shared across the mesh: each worker's thread
/// handle (registered before the epochs start, for unparking) and its
/// parked flag. A worker raises its flag before parking in
/// [`Mesh::wait_credit`] and lowers it on wake; senders only pay the
/// unpark syscall when the flag is up.
struct Roster {
    threads: Vec<OnceLock<std::thread::Thread>>,
    parked: Vec<CachePadded<AtomicBool>>,
}

impl Roster {
    fn new(n: usize) -> Self {
        Roster {
            threads: (0..n).map(|_| OnceLock::new()).collect(),
            parked: (0..n).map(|_| CachePadded::default()).collect(),
        }
    }
}

/// What flows between an ordered worker pair: envelopes, then — once
/// per epoch — the credit that closes the epoch over this lane.
enum Lane {
    Env(Envelope),
    /// Epoch-close credit from the sending worker: `sent` envelopes
    /// preceded it on this ring this epoch, and the sender's global
    /// emit total this epoch was `total` (for termination agreement).
    Credit {
        epoch: u32,
        sent: u32,
        total: u64,
    },
}

/// A bounded single-producer/single-consumer ring of [`Lane`]s between
/// one ordered worker pair. Cursors are monotone (`slot = cursor &
/// mask`); the producer owns `tail`, the consumer owns `head`, and the
/// release/acquire pair on each makes the slot contents visible to the
/// other side.
struct Ring {
    buf: Box<[UnsafeCell<MaybeUninit<Lane>>]>,
    /// Monotone pop cursor; written by the consumer only.
    head: CachePadded<AtomicUsize>,
    /// Monotone push cursor; written by the producer only.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: a slot is written by the single producer strictly before the
// `tail` release-store that publishes it, and read by the single
// consumer strictly before the `head` release-store that retires it —
// the acquire loads on the opposite cursor order the accesses, so no
// slot is ever touched by both sides at once. The pump upholds the
// single-producer/single-consumer discipline by construction: ring
// `s·n + r` is pushed only by worker `s` and popped only by worker `r`.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        Ring {
            buf: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: CachePadded::default(),
            tail: CachePadded::default(),
        }
    }

    /// Pushes one lane; hands it back when the ring is full.
    ///
    /// # Safety
    ///
    /// Caller must be this ring's single producer.
    // The Err payload *is* the rejected lane — handing it back by
    // value is the point, not an oversized error type.
    #[allow(clippy::result_large_err)]
    unsafe fn push(&self, lane: Lane) -> std::result::Result<(), Lane> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail - head == self.buf.len() {
            return Err(lane);
        }
        // SAFETY: `tail - head < len`, so this slot is retired (the
        // consumer's release-store on `head` happened-before our
        // acquire load) and only the producer touches it now.
        unsafe { (*self.buf[tail & (self.buf.len() - 1)].get()).write(lane) };
        self.tail.0.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Pops the oldest lane, or `None` when the ring is empty.
    ///
    /// # Safety
    ///
    /// Caller must be this ring's single consumer.
    unsafe fn pop(&self) -> Option<Lane> {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail`, so the slot was published by the
        // producer's release-store on `tail` and belongs to the
        // consumer until the `head` store below retires it.
        let lane = unsafe { (*self.buf[head & (self.buf.len() - 1)].get()).assume_init_read() };
        self.head.0.store(head + 1, Ordering::Release);
        Some(lane)
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // A failed batch can leave lanes in flight; drop them so their
        // envelopes (and the keys inside) are released.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mask = self.buf.len() - 1;
        for i in head..tail {
            // SAFETY: `&mut self` — no concurrent side exists; slots
            // in `[head, tail)` are initialized and not yet consumed.
            unsafe { self.buf[i & mask].get_mut().assume_init_drop() };
        }
    }
}

// ---------------------------------------------------------------------
// Slices and routing
// ---------------------------------------------------------------------

/// Sentinel: label id with no live host in the snapshot.
const NONE_HOST: u32 = u32::MAX;
/// Sentinel: peer id owned by no worker (not a local shard).
const NONE_WORKER: u16 = u16::MAX;

/// One worker's owned partition of the directory: a contiguous run of
/// the ring order. `RouteTable::slot_of` indexes into `shards`.
#[derive(Default)]
struct Slice {
    /// Interned peer ids of the owned shards, in ring order.
    ids: Vec<u32>,
    /// The owned shards, parallel to `ids`.
    shards: Vec<PeerShard>,
}

/// The frozen per-batch routing snapshot, one owned copy per worker:
/// `hosts` mirrors the directory's `label-id → host-id` table at batch
/// start, `worker_of`/`slot_of` map a host id to its owning slice and
/// the shard's index inside it.
#[derive(Clone)]
struct RouteTable {
    hosts: Vec<u32>,
    worker_of: Vec<u16>,
    slot_of: Vec<u32>,
}

impl RouteTable {
    /// Resolves a node label to `(owning worker, slot)` — one interner
    /// hash, three array reads. `None` when the label is unknown, not
    /// live at snapshot time, or hosted on no local shard.
    #[inline]
    fn route(&self, directory: &Directory, label: &Key) -> Option<(u16, u32)> {
        let lid = directory.id_of(label)?;
        let hid = *self.hosts.get(lid as usize)?;
        if hid == NONE_HOST {
            return None;
        }
        let w = self.worker_of[hid as usize];
        if w == NONE_WORKER {
            return None;
        }
        Some((w, self.slot_of[hid as usize]))
    }
}

// ---------------------------------------------------------------------
// Worker-side state
// ---------------------------------------------------------------------

/// One worker's log entry: a discovery response plus its deterministic
/// position in the pump's causal order.
struct LoggedOutcome {
    round: u32,
    seq: u32,
    outcome: DiscoveryOutcome,
}

/// What one worker hands back when the pump terminates.
struct WorkerOut {
    /// This worker's index — outs are reassembled by this tag so a
    /// lost sibling can never misattribute the fold.
    worker: u32,
    /// The owned slice, handed back for re-attachment (survives a
    /// caught panic: it lives in the worker's own frame).
    slice: Slice,
    log: Vec<LoggedOutcome>,
    /// Trace events produced on this worker, tagged `(round, worker,
    /// seq)` with the same counters as the response log, so the
    /// post-pump merge interleaves them exactly like the response
    /// fold. Empty unless the engine's tracer is on.
    events: Vec<TraceEvent>,
    discovery_messages: u64,
    discovery_drops: u64,
    undeliverable: u64,
    /// Largest envelope batch this worker promised any receiver in one
    /// credit epoch (health observability; see
    /// [`PumpHealth`](super::PumpHealth)).
    lane_batch_peak: u32,
    /// True when this worker aborted — it panicked (caught at the
    /// worker boundary) or saw the shared failure flag while waiting.
    /// One failed worker fails the whole batch.
    failed: bool,
}

/// Buffered arrivals from one sender, drained off the ring while this
/// worker waits (so a blocked sender always finds room): envelopes in
/// FIFO order plus the epoch-close credits `(epoch, sent, total)`.
#[derive(Default)]
struct Inbox {
    envs: VecDeque<Envelope>,
    credits: VecDeque<(u32, u32, u64)>,
}

/// One worker's view of the ring mesh: its outbound rings (`txs[r]` is
/// `me → r`), inbound rings (`rxs[s]` is `s → me`), the per-sender
/// inboxes, and the per-receiver sent counters the next credit will
/// carry. Both wait loops drain *every* inbound ring, which is what
/// makes blocking pushes deadlock-free: a stalled worker always keeps
/// consuming.
struct Mesh<'a> {
    me: usize,
    txs: Vec<&'a Ring>,
    rxs: Vec<&'a Ring>,
    inboxes: Vec<Inbox>,
    sent: Vec<u32>,
    failed: &'a AtomicBool,
    /// Every worker's thread handle and parked flag, registered before
    /// the epochs start: a credit send unparks its receiver, so a
    /// worker blocked on [`Mesh::wait_credit`] sits off the runqueue
    /// instead of yield-spinning — on a single core that lets the
    /// worker with actual work run uninterrupted.
    roster: &'a Roster,
    /// Largest `sent` this worker has put in a [`Lane::Credit`].
    lane_batch_peak: u32,
}

impl<'a> Mesh<'a> {
    fn new(
        me: usize,
        txs: Vec<&'a Ring>,
        rxs: Vec<&'a Ring>,
        failed: &'a AtomicBool,
        roster: &'a Roster,
    ) -> Self {
        let n = txs.len();
        Mesh {
            me,
            txs,
            rxs,
            inboxes: (0..n).map(|_| Inbox::default()).collect(),
            sent: vec![0; n],
            failed,
            roster,
            lane_batch_peak: 0,
        }
    }

    /// Wakes worker `r` if it is parked in [`Mesh::wait_credit`]. The
    /// parked flag keeps the futex syscall off the sender's critical
    /// path whenever the receiver is running; the SeqCst load pairs
    /// with the receiver's SeqCst flag store so a receiver that missed
    /// this push sees our wake (the park timeout backstops the one
    /// remaining interleaving).
    fn unpark(&self, r: usize) {
        if self.roster.parked[r].0.load(Ordering::SeqCst) {
            if let Some(t) = self.roster.threads[r].get() {
                t.unpark();
            }
        }
    }

    /// Moves everything currently visible on the inbound rings into
    /// the per-sender inboxes.
    fn drain_rings(&mut self) {
        for (s, rx) in self.rxs.iter().enumerate() {
            if s == self.me {
                continue;
            }
            // SAFETY: worker `me` is ring `s → me`'s single consumer.
            while let Some(lane) = unsafe { rx.pop() } {
                match lane {
                    Lane::Env(env) => self.inboxes[s].envs.push_back(env),
                    Lane::Credit { epoch, sent, total } => {
                        self.inboxes[s].credits.push_back((epoch, sent, total))
                    }
                }
            }
        }
    }

    /// Pushes one lane to worker `r`, draining own arrivals while the
    /// ring is full. Returns false when the mesh died underneath
    /// (shared failure flag) — the caller must abort its batch.
    fn push(&mut self, r: usize, mut lane: Lane) -> bool {
        loop {
            // SAFETY: worker `me` is ring `me → r`'s single producer.
            match unsafe { self.txs[r].push(lane) } {
                Ok(()) => return true,
                Err(back) => {
                    lane = back;
                    if self.failed.load(Ordering::Relaxed) {
                        return false;
                    }
                    // The receiver may be parked on a credit; wake it
                    // so it can drain the full ring.
                    self.unpark(r);
                    self.drain_rings();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Sends an envelope to worker `r`, counting it toward the next
    /// credit.
    fn send_env(&mut self, r: usize, env: Envelope) -> bool {
        self.sent[r] += 1;
        self.push(r, Lane::Env(env))
    }

    /// Closes `epoch` toward worker `r`: emits the credit carrying the
    /// per-pair sent count (reset here) and this worker's global emit
    /// total for the epoch.
    fn send_credit(&mut self, r: usize, epoch: u32, total: u64) -> bool {
        let sent = std::mem::take(&mut self.sent[r]);
        self.lane_batch_peak = self.lane_batch_peak.max(sent);
        let ok = self.push(r, Lane::Credit { epoch, sent, total });
        // The credit is what unblocks the receiver's epoch; wake it.
        self.unpark(r);
        ok
    }

    /// Waits for sender `s`'s credit closing `epoch`, draining
    /// arrivals meanwhile. `None` when the mesh died.
    ///
    /// Short waits resolve with a yield — on a loaded single core the
    /// yield hands the CPU straight to the producer, and a park/unpark
    /// cycle would put two futex syscalls on the critical path. Only a
    /// wait that survives the yields parks the thread off the
    /// runqueue.
    fn wait_credit(&mut self, s: usize, epoch: u32) -> Option<(u32, u64)> {
        let mut spins = 0u32;
        loop {
            if let Some(&(e, sent, total)) = self.inboxes[s].credits.front() {
                debug_assert_eq!(e, epoch, "credits arrive in epoch order");
                self.inboxes[s].credits.pop_front();
                return Some((sent, total));
            }
            if self.failed.load(Ordering::Relaxed) {
                return None;
            }
            self.drain_rings();
            if self.inboxes[s].credits.front().is_some() {
                continue;
            }
            if spins < 2 {
                spins += 1;
                std::thread::yield_now();
                continue;
            }
            // Raise the parked flag (SeqCst, pairing with the sender's
            // load in `unpark`), then re-drain: a credit pushed before
            // the sender could see our flag is caught here, so the
            // only wake we can miss is covered by the park timeout.
            self.roster.parked[self.me].0.store(true, Ordering::SeqCst);
            self.drain_rings();
            if self.inboxes[s].credits.front().is_none() {
                std::thread::park_timeout(PARK_TIMEOUT);
            }
            self.roster.parked[self.me]
                .0
                .store(false, Ordering::Relaxed);
        }
    }

    /// The next buffered envelope from sender `s`. Only called under a
    /// consumed credit, whose FIFO position proves the envelope is
    /// already buffered.
    fn take_env(&mut self, s: usize) -> Envelope {
        self.inboxes[s]
            .envs
            .pop_front()
            .expect("ring FIFO: an epoch's envelopes precede its credit")
    }
}

impl ParallelPump {
    /// A pump over `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        ParallelPump {
            workers: workers.max(1),
            #[cfg(test)]
            sabotage: None,
        }
    }

    /// A pump whose `victim`-th worker dies on entry (test-only).
    #[cfg(test)]
    fn sabotaged(workers: usize, victim: usize) -> Self {
        ParallelPump {
            workers: workers.max(1),
            sabotage: Some(victim),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch of discovery requests (entry node, query) to
    /// completion and returns their outcomes in input order.
    ///
    /// Entry nodes must be live; route-cache consultation and shortcut
    /// learning run sequentially at batch boundaries through the same
    /// engine flow the sequential pump uses — the cache-ownership rule
    /// (route caches are engine state keyed by the entry peer) holds,
    /// so cached and uncached batches agree with their sequential
    /// counterparts.
    pub fn run_batch(
        &self,
        engine: &mut Engine,
        requests: Vec<(Key, QueryKind)>,
    ) -> Result<Vec<LookupOutcome>> {
        let n = self.workers.min(engine.attached_shard_count().max(1));
        // Sequential prologue: register aggregation state and consult
        // the entry caches (identical flow to the sequential pump).
        let mut ids = Vec::with_capacity(requests.len());
        let mut inits = Vec::with_capacity(requests.len());
        for (entry, query) in requests {
            match engine.begin_request(&entry, query) {
                Ok((id, env)) => {
                    ids.push(id);
                    inits.push(env);
                }
                Err(e) => {
                    // Unwind the prologue: earlier registrations must
                    // not linger as zombie aggregations/learn intents.
                    for id in ids {
                        engine.gathers.release(id);
                        engine.learn.remove(&id);
                    }
                    return Err(e);
                }
            }
        }

        // Carve the slices: contiguous runs of the ring order, so
        // ring-adjacent peers (and with them most tree edges) share a
        // worker. Freeze the routing snapshot against them.
        let detached = engine.detach_shards();
        let m = detached.len();
        let interned = engine.directory.interned_len();
        let mut route = RouteTable {
            hosts: Vec::new(),
            worker_of: vec![NONE_WORKER; interned],
            slot_of: vec![0; interned],
        };
        engine.directory.host_snapshot(&mut route.hosts);
        let mut slices: Vec<Slice> = (0..n).map(|_| Slice::default()).collect();
        {
            let (base, rem) = (m / n, m % n);
            let mut shards = detached.into_iter();
            for (w, slice) in slices.iter_mut().enumerate() {
                for _ in 0..base + usize::from(w < rem) {
                    let (pid, shard) = shards.next().expect("chunks cover the partition");
                    route.worker_of[pid as usize] = w as u16;
                    route.slot_of[pid as usize] = slice.shards.len() as u32;
                    slice.ids.push(pid);
                    slice.shards.push(shard);
                }
            }
        }

        // Route the initial envelopes.
        let mut queues: Vec<VecDeque<Envelope>> = (0..n).map(|_| VecDeque::new()).collect();
        let mut failed_early: Vec<DiscoveryOutcome> = Vec::new();
        for env in inits {
            let w = match &env.to {
                Address::Node(label) => route.route(&engine.directory, label).map(|(w, _)| w),
                _ => None,
            };
            match w {
                Some(w) => queues[w as usize].push_back(env),
                None => {
                    engine.stats.undeliverable += 1;
                    failed_early.push(failed_outcome(&env));
                }
            }
        }

        // The bounded mesh: ring `s·n + r` carries `s → r`.
        let rings: Vec<Ring> = (0..n * n).map(|_| Ring::new(RING_CAP)).collect();
        let roster = Roster::new(n);
        let failed = AtomicBool::new(false);
        let directory = &engine.directory;
        let charge = engine.config.charge_capacity;
        let trace = engine.tracer.enabled();
        #[cfg(test)]
        let sabotage = self.sabotage;
        #[cfg(not(test))]
        let sabotage: Option<usize> = None;
        let mut outs: Vec<WorkerOut> = Vec::with_capacity(n);
        // A worker that panics is caught at its own boundary (its
        // slice comes back intact); `join` can only fail if the caught
        // panic itself panicked — treated as a failed worker too.
        let mut join_failed = false;
        std::thread::scope(|scope| {
            let rings = &rings;
            let roster = &roster;
            let failed = &failed;
            let mut handles = Vec::with_capacity(n);
            for (w, (slice, queue)) in slices.drain(..).zip(queues.drain(..)).enumerate() {
                let txs: Vec<&Ring> = (0..n).map(|r| &rings[w * n + r]).collect();
                let rxs: Vec<&Ring> = (0..n).map(|s| &rings[s * n + w]).collect();
                let route = route.clone();
                handles.push(scope.spawn(move || {
                    worker_loop(
                        w, slice, queue, txs, rxs, directory, route, charge, trace, failed, roster,
                        sabotage,
                    )
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(out) => outs.push(out),
                    Err(_) => join_failed = true,
                }
            }
        });

        // Reassemble the engine: slices back onto their slots, stats
        // merged in worker order, slice ownership recorded for health.
        engine.pump_health.slice_of.clear();
        engine.pump_health.slice_of.resize(interned, 0);
        engine.pump_health.slices = n as u16;
        let mut lane_batch_peak = 0u32;
        for out in &mut outs {
            let ids = std::mem::take(&mut out.slice.ids);
            let shards = std::mem::take(&mut out.slice.shards);
            for (pid, shard) in ids.into_iter().zip(shards) {
                engine.pump_health.slice_of[pid as usize] = out.worker as u16 + 1;
                engine.attach_shard(pid, shard);
            }
            engine.stats.discovery_messages += out.discovery_messages;
            engine.stats.discovery_drops += out.discovery_drops;
            engine.stats.undeliverable += out.undeliverable;
            lane_batch_peak = lane_batch_peak.max(out.lane_batch_peak);
        }
        engine.pump_health.lane_batch_peak = lane_batch_peak;

        // Worker trace events merge by the same `(round, worker, seq)`
        // tag as the response fold below, so the trace interleaves
        // exactly as a sequential replay of the batch would.
        if trace {
            let mut events: Vec<TraceEvent> = Vec::new();
            for out in &mut outs {
                events.append(&mut out.events);
            }
            events.sort_by_key(merge_key);
            for ev in events {
                engine.tracer.absorb(ev);
            }
        }

        // Deterministic fold: all responses in causal (round, worker,
        // sequence) order, then the failures synthesized before launch.
        let mut tagged: Vec<(u32, u32, u32, DiscoveryOutcome)> = Vec::new();
        for out in &mut outs {
            for e in out.log.drain(..) {
                tagged.push((e.round, out.worker, e.seq, e.outcome));
            }
        }
        tagged.sort_by_key(|t| (t.0, t.1, t.2));
        for (_, _, _, o) in tagged {
            engine.client_response(o);
        }
        for o in failed_early {
            engine.client_response(o);
        }

        // A dead worker means an unknown number of envelopes never
        // arrived: the partial responses folded above are kept (they
        // may have finalized some requests), everything still in
        // flight is purged so no zombie aggregation lingers, and the
        // caller gets an error instead of a process abort.
        if join_failed || outs.iter().any(|o| o.failed) {
            let mut completed = 0;
            for id in ids {
                if engine.take_finished(id).is_some() {
                    completed += 1;
                } else {
                    engine.gathers.release(id);
                    engine.learn.remove(&id);
                }
            }
            return Err(DlptError::WorkerFailed { completed });
        }

        let mut results = Vec::with_capacity(ids.len());
        for id in ids {
            let out = if let Some(out) = engine.take_finished(id) {
                out
            } else if engine.gathers.contains(id) {
                // Quiescence-judging engines never eagerly finalize;
                // the pump is drained here, so judging now is exactly
                // what `judge_at_quiescence` asks for.
                engine.finish_request(id)
            } else {
                return Err(DlptError::Undeliverable(format!("request {id}")));
            };
            results.push(out);
        }
        Ok(results)
    }
}

/// The worker that owns one slice. A panic inside the epochs is caught
/// here, at the worker boundary, so the slice survives (it lives in
/// this frame, not in the panicked closure) and the batch can fail
/// cleanly; the shared flag tells every waiting sibling to wind down
/// instead of spinning on a credit that will never come.
#[allow(clippy::too_many_arguments)]
fn worker_loop<'a>(
    me: usize,
    mut slice: Slice,
    mut queue: VecDeque<Envelope>,
    txs: Vec<&'a Ring>,
    rxs: Vec<&'a Ring>,
    directory: &Directory,
    route: RouteTable,
    charge: bool,
    trace: bool,
    failed: &'a AtomicBool,
    roster: &'a Roster,
    sabotage: Option<usize>,
) -> WorkerOut {
    // Register this worker's handle so siblings can unpark it, then
    // wait for the full roster: a credit may be sent the moment the
    // epochs start, and its unpark must never miss an unregistered
    // receiver. Registration cannot fail, so the barrier always
    // completes — even a sabotaged worker registers before it panics.
    roster.threads[me]
        .set(std::thread::current())
        .expect("worker registers its parker exactly once");
    while roster.threads.iter().any(|p| p.get().is_none()) {
        std::thread::yield_now();
    }
    let mut out = WorkerOut {
        worker: me as u32,
        slice: Slice::default(),
        log: Vec::new(),
        events: Vec::new(),
        discovery_messages: 0,
        discovery_drops: 0,
        undeliverable: 0,
        lane_batch_peak: 0,
        failed: false,
    };
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if sabotage == Some(me) {
            panic!("injected worker failure (test sabotage)");
        }
        let mut worker = Worker {
            mesh: Mesh::new(me, txs, rxs, failed, roster),
            slice: &mut slice,
            queue: &mut queue,
            directory,
            route,
            charge,
            trace,
            fx: Effects::default(),
            seq: 0,
            out: &mut out,
        };
        worker.run_epochs();
        worker.out.lane_batch_peak = worker.mesh.lane_batch_peak;
    }));
    if caught.is_err() {
        out.failed = true;
        failed.store(true, Ordering::Release);
    }
    out.slice = slice;
    out
}

/// One worker's execution state: the owned slice, the local FIFO, the
/// ring mesh and the frozen routing tables.
struct Worker<'a> {
    mesh: Mesh<'a>,
    slice: &'a mut Slice,
    queue: &'a mut VecDeque<Envelope>,
    directory: &'a Directory,
    route: RouteTable,
    charge: bool,
    trace: bool,
    fx: Effects,
    seq: u32,
    out: &'a mut WorkerOut,
}

impl Worker<'_> {
    /// The credit epochs. Epoch `e > 0` consumes each sender's
    /// epoch-`(e−1)` batch in worker-index order (stalling only for
    /// the matching credit), then the worker's own chained hops, then
    /// closes the epoch with credits. The summed epoch totals give
    /// every worker the same termination verdict.
    fn run_epochs(&mut self) {
        let n = self.mesh.txs.len();
        let me = self.mesh.me;
        let mut epoch: u32 = 0;
        let mut my_total: u64 = 0;
        loop {
            let mut total: u64 = 0;
            if epoch > 0 {
                let mut global = my_total;
                for s in 0..n {
                    if s == me {
                        continue;
                    }
                    let Some((sent, their_total)) = self.mesh.wait_credit(s, epoch - 1) else {
                        self.out.failed = true;
                        return;
                    };
                    global += their_total;
                    for _ in 0..sent {
                        let env = self.mesh.take_env(s);
                        total += self.deliver(env, epoch);
                        if self.out.failed {
                            return;
                        }
                    }
                }
                if global == 0 {
                    return;
                }
            }
            while let Some(env) = self.queue.pop_front() {
                total += self.deliver(env, epoch);
                if self.out.failed {
                    return;
                }
            }
            for r in 0..n {
                if r == me {
                    continue;
                }
                if !self.mesh.send_credit(r, epoch, total) {
                    self.out.failed = true;
                    return;
                }
            }
            my_total = total;
            epoch += 1;
        }
    }

    fn next_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn log(&mut self, round: u32, outcome: DiscoveryOutcome) {
        let seq = self.next_seq();
        self.out.log.push(LoggedOutcome {
            round,
            seq,
            outcome,
        });
    }

    /// Delivers one envelope on this slice (or forwards it). Returns
    /// how many envelopes it emitted (local chains + ring pushes), the
    /// quantity the credit totals sum for termination.
    fn deliver(&mut self, env: Envelope, round: u32) -> u64 {
        match &env.to {
            Address::Client(_) => {
                if let Message::ClientResponse(o) = env.msg {
                    self.log(round, o);
                }
                return 0;
            }
            Address::Node(_) => {}
            Address::Peer(_) => {
                // Discovery batches carry no peer traffic; a stray
                // frame is dropped (counted) rather than wedging the
                // mesh.
                self.out.undeliverable += 1;
                return 0;
            }
        }
        let Address::Node(label) = &env.to else {
            unreachable!("matched above")
        };
        let Some((w, slot)) = self.route.route(self.directory, label) else {
            // Tree mutated since the batch started — not supported;
            // fail the request rather than deadlocking on a requeue.
            self.out.undeliverable += 1;
            let outcome = failed_outcome(&env);
            self.log(round, outcome);
            return 0;
        };
        if w as usize != self.mesh.me {
            if !self.mesh.send_env(w as usize, env) {
                self.out.failed = true;
                return 0;
            }
            return 1;
        }
        let shard = &mut self.slice.shards[slot as usize];
        let Envelope { to, msg } = env;
        let Address::Node(label) = to else {
            unreachable!("checked above")
        };
        let Message::Node(NodeMsg::Discovery(m)) = msg else {
            self.out.undeliverable += 1;
            return 0;
        };
        // Same gate as the sequential engine dispatch, minus requeues
        // (the directory is frozen for the batch) and replica failover
        // (see the module docs).
        let (req, hops) = (m.request_id, m.path.len());
        match discovery::deliver_visit(shard, &label, m, self.charge, &mut self.fx) {
            discovery::VisitGate::Missing(m) => {
                self.out.undeliverable += 1;
                let outcome = failed_discovery(&label, m);
                self.log(round, outcome);
                return 0;
            }
            discovery::VisitGate::Dropped(m) => {
                self.out.discovery_drops += 1;
                let mut path = m.path;
                path.push(label.clone());
                if self.trace {
                    let (lid, hid) = self
                        .directory
                        .resolve(&label)
                        .unwrap_or((u32::MAX, u32::MAX));
                    let seq = self.next_seq();
                    self.out.events.push(TraceEvent {
                        request: req as u32,
                        a: lid,
                        b: hid,
                        round,
                        seq,
                        kind: EventKind::Drop,
                        flags: 0,
                        worker: self.mesh.me as u16,
                        depth: path.len().min(u16::MAX as usize) as u16,
                    });
                }
                self.log(
                    round,
                    DiscoveryOutcome {
                        request_id: m.request_id,
                        satisfied: false,
                        dropped: true,
                        results: Vec::new(),
                        path,
                        pending_children: 0,
                    },
                );
                return 0;
            }
            discovery::VisitGate::Delivered => {}
        }
        self.out.discovery_messages += 1;
        if self.trace {
            let (lid, hid) = self
                .directory
                .resolve(&label)
                .unwrap_or((u32::MAX, u32::MAX));
            let seq = self.next_seq();
            self.out.events.push(TraceEvent {
                request: req as u32,
                a: lid,
                b: hid,
                round,
                seq,
                kind: EventKind::Hop,
                flags: 0,
                worker: self.mesh.me as u16,
                depth: hops.min(u16::MAX as usize) as u16,
            });
        }
        debug_assert!(
            self.fx.relocated.is_empty() && self.fx.removed.is_empty(),
            "discovery never mutates the tree"
        );
        self.fx.relocated.clear();
        self.fx.removed.clear();
        let mut emitted = 0u64;
        let mut fx_out = std::mem::take(&mut self.fx.out);
        for env in fx_out.drain(..) {
            match &env.to {
                Address::Client(_) => {
                    if let Message::ClientResponse(o) = env.msg {
                        self.log(round, o);
                    }
                }
                Address::Node(l) => match self.route.route(self.directory, l) {
                    Some((w, _)) if w as usize == self.mesh.me => {
                        self.queue.push_back(env);
                        emitted += 1;
                    }
                    Some((w, _)) => {
                        if !self.mesh.send_env(w as usize, env) {
                            self.out.failed = true;
                            break;
                        }
                        emitted += 1;
                    }
                    None => {
                        self.out.undeliverable += 1;
                        let outcome = failed_outcome(&env);
                        self.log(round, outcome);
                    }
                },
                Address::Peer(_) => self.out.undeliverable += 1,
            }
        }
        self.fx.out = fx_out;
        emitted
    }
}

/// A failed response resolving the request of an undeliverable
/// discovery envelope (mirrors the sequential requeue-budget path).
fn failed_outcome(env: &Envelope) -> DiscoveryOutcome {
    let (id, path) = match &env.msg {
        Message::Node(NodeMsg::Discovery(m)) => (m.request_id, m.path.clone()),
        _ => (0, Vec::new()),
    };
    DiscoveryOutcome {
        request_id: id,
        satisfied: false,
        dropped: true,
        results: Vec::new(),
        path,
        pending_children: 0,
    }
}

fn failed_discovery(label: &Key, m: DiscoveryMsg) -> DiscoveryOutcome {
    let mut path = m.path;
    path.push(label.clone());
    DiscoveryOutcome {
        request_id: m.request_id,
        satisfied: false,
        dropped: true,
        results: Vec::new(),
        path,
        pending_children: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DlptSystem;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn built_system(seed: u64, capacity: u32) -> DlptSystem {
        let mut sys = DlptSystem::builder()
            .seed(seed)
            .peer_id_len(10)
            .default_capacity(capacity)
            .bootstrap_peers(10)
            .build();
        for i in 0..30 {
            sys.insert_data(k(&format!("SVC{i:02}"))).unwrap();
        }
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort"] {
            sys.insert_data(k(name)).unwrap();
        }
        sys.end_time_unit();
        sys
    }

    fn query_mix() -> Vec<QueryKind> {
        let mut qs = Vec::new();
        for i in 0..40 {
            qs.push(QueryKind::Exact(k(&format!("SVC{:02}", i % 30))));
        }
        qs.push(QueryKind::Exact(k("MISSING")));
        qs.push(QueryKind::Complete(k("S3L")));
        qs.push(QueryKind::Range(k("D"), k("E")));
        qs
    }

    #[test]
    fn ring_is_fifo_bounded_and_drains_on_drop() {
        let ring = Ring::new(4);
        let env = |i: u64| {
            Envelope::to_client(
                i,
                DiscoveryOutcome {
                    request_id: i,
                    satisfied: true,
                    dropped: false,
                    results: Vec::new(),
                    path: Vec::new(),
                    pending_children: 0,
                },
            )
        };
        // SAFETY (whole test): single thread — trivially SPSC.
        unsafe {
            for i in 0..4 {
                assert!(ring.push(Lane::Env(env(i))).is_ok(), "ring must accept {i}");
            }
            assert!(
                ring.push(Lane::Credit {
                    epoch: 0,
                    sent: 0,
                    total: 0
                })
                .is_err(),
                "a full ring hands the lane back"
            );
            for i in 0..2 {
                match ring.pop() {
                    Some(Lane::Env(e)) => match e.msg {
                        Message::ClientResponse(o) => assert_eq!(o.request_id, i),
                        other => panic!("unexpected message {other:?}"),
                    },
                    other => panic!("expected env, got {}", other.is_some()),
                }
            }
            // Freed slots are reusable (cursors are monotone, slots
            // wrap), and dropping a non-empty ring drops its lanes.
            assert!(ring
                .push(Lane::Credit {
                    epoch: 7,
                    sent: 1,
                    total: 2
                })
                .is_ok());
        }
        drop(ring);
    }

    #[test]
    fn parallel_batch_matches_sequential_requests() {
        let mut seq_sys = built_system(42, u32::MAX >> 1);
        let mut par_sys = built_system(42, u32::MAX >> 1);
        let seq_out: Vec<_> = query_mix()
            .into_iter()
            .map(|q| seq_sys.request(q).unwrap())
            .collect();
        let par_out = par_sys.discover_batch(query_mix(), 4).unwrap();
        assert_eq!(seq_out.len(), par_out.len());
        for (a, b) in seq_out.iter().zip(&par_out) {
            assert_eq!(a.satisfied, b.satisfied);
            assert_eq!(a.found, b.found);
            assert_eq!(a.dropped, b.dropped);
            assert_eq!(a.results, b.results);
        }
        // Exact queries have a single route: full outcome equality.
        for (a, b) in seq_out.iter().zip(&par_out).take(40) {
            assert_eq!(a, b);
        }
        assert_eq!(
            seq_sys.stats.discovery_messages,
            par_sys.stats.discovery_messages
        );
    }

    #[test]
    fn seeded_parallel_runs_are_byte_identical() {
        let run = || {
            let mut sys = built_system(7, u32::MAX >> 1);
            let out = sys.discover_batch(query_mix(), 4).unwrap();
            (out, sys.stats.clone())
        };
        let (out_a, stats_a) = run();
        let (out_b, stats_b) = run();
        assert_eq!(out_a, out_b);
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn worker_count_does_not_change_results_without_capacity_pressure() {
        let reference = {
            let mut sys = built_system(11, u32::MAX >> 1);
            sys.discover_batch(query_mix(), 1).unwrap()
        };
        for workers in [2, 3, 4, 8] {
            let mut sys = built_system(11, u32::MAX >> 1);
            let got = sys.discover_batch(query_mix(), workers).unwrap();
            assert_eq!(reference.len(), got.len(), "workers={workers}");
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.satisfied, b.satisfied, "workers={workers}");
                assert_eq!(a.results, b.results, "workers={workers}");
            }
        }
    }

    #[test]
    fn capacity_pressure_is_deterministic_per_worker_count() {
        let run = || {
            let mut sys = built_system(13, 40);
            let out = sys.discover_batch(query_mix(), 4).unwrap();
            (out, sys.stats.clone())
        };
        let (out_a, stats_a) = run();
        let (out_b, stats_b) = run();
        assert_eq!(out_a, out_b);
        assert_eq!(stats_a, stats_b);
        assert!(
            stats_a.discovery_drops > 0,
            "capacity 6 must refuse some visits: {stats_a:?}"
        );
        assert!(out_a.iter().any(|o| o.dropped), "drops surface to clients");
        assert!(
            out_a.iter().any(|o| o.satisfied),
            "pressure must not refuse everything"
        );
    }

    #[test]
    fn cached_batches_learn_and_hit_through_the_shared_flow() {
        let mut sys = DlptSystem::builder()
            .seed(23)
            .peer_id_len(10)
            .cache_capacity(64)
            .bootstrap_peers(6)
            .build();
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft"] {
            sys.insert_data(k(name)).unwrap();
        }
        let hot: Vec<QueryKind> = (0..64).map(|_| QueryKind::Exact(k("DGEMM"))).collect();
        let out = sys.discover_batch(hot.clone(), 4).unwrap();
        assert!(out.iter().all(|o| o.satisfied));
        assert!(sys.cache_stats.learned > 0, "{:?}", sys.cache_stats);
        let out = sys.discover_batch(hot, 4).unwrap();
        assert!(out.iter().all(|o| o.satisfied));
        assert!(out.iter().all(|o| o.results == vec![k("DGEMM")]));
        assert!(sys.cache_stats.hits > 0, "{:?}", sys.cache_stats);
    }

    /// Regression: the pump must also serve engines configured like
    /// the asynchronous runtimes (`judge_at_quiescence`), which never
    /// eagerly finalize — the epilogue judges their still-registered
    /// gathers once the mesh is drained instead of erroring out.
    #[test]
    fn quiescence_judging_engines_run_batches_and_learn_shortcuts() {
        use crate::engine::{Engine, EngineConfig};
        use crate::node::NodeState;
        let mut e = Engine::new(EngineConfig {
            judge_at_quiescence: true,
            cache_capacity: 16,
            ..EngineConfig::default()
        });
        e.add_local_shard(k("PAAA"), 100);
        e.add_local_shard(k("ZAAA"), 100);
        let mut node = NodeState::new(k("DGEMM"));
        node.data.insert(k("DGEMM"));
        let host = e.host_peer(&k("DGEMM")).unwrap().clone();
        e.shard_mut(&host).unwrap().install(node);
        e.directory.insert(k("DGEMM"), host);
        let out = ParallelPump::new(2)
            .run_batch(&mut e, vec![(k("DGEMM"), QueryKind::Exact(k("DGEMM")))])
            .unwrap();
        assert!(out[0].satisfied);
        assert_eq!(out[0].results, vec![k("DGEMM")]);
        // The satisfied exact query must teach the entry peer's cache
        // through the quiescence-judging epilogue (`finish_request`),
        // not silently drop the learn intent.
        assert_eq!(e.cache_stats.learned, 1, "{:?}", e.cache_stats);
        let out = ParallelPump::new(2)
            .run_batch(&mut e, vec![(k("DGEMM"), QueryKind::Exact(k("DGEMM")))])
            .unwrap();
        assert!(out[0].satisfied);
        assert_eq!(e.cache_stats.hits, 1, "{:?}", e.cache_stats);
    }

    /// Satellite regression: one worker dying mid-batch used to
    /// deadlock-or-panic the whole process at the barrier. It must
    /// fail the batch with an error, keep every shard, purge the
    /// batch's in-flight aggregation state, and leave the engine fully
    /// usable.
    #[test]
    fn a_dying_worker_fails_the_batch_without_poisoning_the_engine() {
        let mut sys = built_system(17, u32::MAX >> 1);
        let nodes_before = sys.node_labels().len();
        let peers_before = sys.peer_ids().len();
        let entry = sys.node_labels().into_iter().next().unwrap();
        let requests: Vec<(Key, QueryKind)> = query_mix()
            .into_iter()
            .map(|q| (entry.clone(), q))
            .collect();
        let err = ParallelPump::sabotaged(4, 2)
            .run_batch(&mut sys, requests.clone())
            .unwrap_err();
        assert!(
            matches!(err, DlptError::WorkerFailed { .. }),
            "expected WorkerFailed, got {err:?}"
        );
        // No shard was lost and no zombie aggregation lingers.
        assert_eq!(sys.node_labels().len(), nodes_before);
        assert_eq!(sys.peer_ids().len(), peers_before);
        assert!(sys.gathers.is_empty(), "batch state must be purged");
        // The engine is still fully serviceable, batch and sequential.
        let out = ParallelPump::new(4).run_batch(&mut sys, requests).unwrap();
        assert!(out.iter().any(|o| o.satisfied));
        let out = sys.request(QueryKind::Exact(k("SVC00"))).unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn more_workers_than_peers_clamps_cleanly() {
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .bootstrap_peers(2)
            .build();
        sys.insert_data(k("DGEMM")).unwrap();
        let out = sys
            .discover_batch(vec![QueryKind::Exact(k("DGEMM"))], 16)
            .unwrap();
        assert!(out[0].satisfied);
    }

    /// Observability regression: a batch must leave behind the slice
    /// map that `Engine::collect_health` surfaces as per-peer slice
    /// occupancy, and the largest per-epoch lane batch — a count the
    /// credit protocol fixes, so it repeats across runs whatever the
    /// thread interleaving.
    #[test]
    fn pump_health_records_slice_ownership_and_lane_batches() {
        let mut sys = built_system(42, u32::MAX >> 1);
        sys.discover_batch(query_mix(), 3).unwrap();
        assert_eq!(sys.pump_health.slices, 3);
        let assigned = sys.pump_health.slice_of.iter().filter(|&&s| s != 0).count();
        assert_eq!(
            assigned,
            sys.peer_ids().len(),
            "every local shard belongs to exactly one slice"
        );
        for w in 1..=3u16 {
            assert!(
                sys.pump_health.slice_of.contains(&w),
                "slice {w} must own at least one peer"
            );
        }
        // Lane batches need hops that cross slices: a binary tree
        // spread over many peers.
        let spread = || {
            let key = |i: u32| Key::from(format!("{i:08b}").as_str());
            let mut sys = DlptSystem::builder()
                .alphabet(crate::alphabet::Alphabet::binary())
                .seed(5)
                .peer_id_len(8)
                .bootstrap_peers(16)
                .build();
            for i in 0..64 {
                sys.insert_data(key(i * 4)).unwrap();
            }
            let queries = (0..64).map(|i| QueryKind::Exact(key(i * 4))).collect();
            sys.discover_batch(queries, 3).unwrap();
            sys.pump_health.lane_batch_peak
        };
        let peak = spread();
        assert!(peak > 0, "cross-slice traffic must register in the credits");
        for _ in 0..4 {
            assert_eq!(
                spread(),
                peak,
                "the lane batch peak is scheduler-independent"
            );
        }
        // Slices are contiguous runs of the ring order: walking the
        // members in order, the slice index never decreases.
        let mut last = 0u16;
        for id in sys.peer_ids() {
            let pid = sys.directory().id_of(&id).unwrap();
            let s = sys.pump_health.slice_of[pid as usize];
            assert!(s >= last, "ring order must map to contiguous slices");
            last = s;
        }
    }
}
