//! The runtime-agnostic protocol engine.
//!
//! [`Engine`] is the one DLPT state machine every runtime drives: it
//! owns the per-peer shards, the delivery [`Directory`], the per-peer
//! [`RouteCache`]s and the replication bookkeeping, and processes
//! every envelope through [`Engine::deliver`]. Cross-cutting
//! subsystems (replication flush, cache invalidation) therefore exist
//! once. What distinguishes the runtimes is only *how messages
//! travel*, which the [`Transport`] trait abstracts:
//!
//! | Runtime | Transport | Delivery |
//! |---|---|---|
//! | [`crate::system::DlptSystem`] | [`crate::event::EventQueue`] + [`crate::event::LatencyModel`] | zero delay = FIFO; sampled delay otherwise |
//! | [`parallel::ParallelPump`] | per-slice SPSC rings | credit-based quiescence |
//!
//! `dlpt-net::sim::LatencyNet` is `DlptSystem` with a non-zero delay
//! policy, not a runtime of its own. Both runtimes are deterministic
//! per `(seed, workers)`. A transport only queues envelopes; it never
//! interprets them. The engine in turn never schedules — it reports
//! `Requeue` when a destination is still in flight and lets the
//! runtime decide when to retry.
//!
//! The protocol rules are the same whatever the runtime: every
//! discovery visit charges the hosting peer's capacity (Section 4's
//! model; runtimes that do not study capacity give peers
//! `u32::MAX >> 1`), replicas are maintained eagerly iff the
//! replication factor exceeds 1, and a request is judged only once the
//! transport has drained ([`Engine::finish_request`]), because
//! out-of-order responses can transiently zero its outstanding-branch
//! counter. [`EngineConfig`] therefore holds only the two sizes a
//! deployment chooses: the replication factor and the route-cache
//! capacity.

pub mod parallel;
#[cfg(test)]
mod slab_props;

use crate::cache::{self, CacheStats, RouteCache, Shortcut, Subscriptions};
use crate::directory::{Directory, FxHashMap, FxHashSet};
use crate::error::{DlptError, Result};
use crate::key::Key;
use crate::mapping::MappingViolation;
use crate::messages::{
    Address, DiscoveryMsg, DiscoveryOutcome, Envelope, JoinPhase, Message, NodeMsg, NodeSeed,
    PeerMsg, QueryKind,
};
use crate::metrics::SystemStats;
use crate::node::NodeState;
use crate::obs::health::{
    imbalance_of, AuditCheck, HealthMonitor, MemoryFootprint, PeerHealth, Violation,
};
use crate::obs::{EventKind, MetricsRegistry, TraceEvent, TraceRing, Tracer};
use crate::peer::PeerShard;
use crate::protocol::{self, discovery, maintenance, repair, Effects};
use crate::replication::{AntiEntropyReport, ReplicationStats};
use crate::trie::{PgcpTrie, TrieViolation};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How envelopes travel between the engine and the peers.
///
/// Implementations queue envelopes for later processing — immediate
/// FIFO, a latency-sampling event queue, or per-slice SPSC rings
/// drained under credit-based quiescence. A transport never interprets
/// an envelope: all protocol behaviour stays in the engine, which is
/// what keeps the runtimes equivalent.
pub trait Transport {
    /// Queues one envelope for delivery.
    fn deliver(&mut self, env: Envelope);

    /// Whether queuing through this transport is immediate FIFO work
    /// the engine may equivalently run inline ("hop chaining", see
    /// [`Engine::deliver`]). Only zero-delay FIFO queues say yes:
    /// modelled-latency, fault-injecting and batched transports must
    /// observe every individual hop.
    fn synchronous(&self) -> bool {
        false
    }
}

/// A mutable reference to a transport is itself a transport — this is
/// what lets decorators like
/// [`FaultyTransport`](crate::transport::FaultyTransport) wrap a
/// runtime-owned transport without taking ownership.
impl<T: Transport> Transport for &mut T {
    fn deliver(&mut self, env: Envelope) {
        (**self).deliver(env);
    }

    fn synchronous(&self) -> bool {
        (**self).synchronous()
    }
}

/// A bare immediate-FIFO transport for callers that drive
/// [`Engine::deliver`] themselves (benchmarks, tests): envelopes are
/// appended to one queue and processed strictly in order. The `u32` is
/// the per-envelope requeue count, owned by the caller's retry policy.
/// [`crate::system::DlptSystem`] schedules through its
/// [`crate::event::EventQueue`] instead.
#[derive(Debug, Default)]
pub struct FifoTransport {
    /// The pending envelopes, front = next to deliver.
    pub queue: VecDeque<(u32, Envelope)>,
}

impl Transport for FifoTransport {
    fn deliver(&mut self, env: Envelope) {
        self.queue.push_back((0, env));
    }

    fn synchronous(&self) -> bool {
        true
    }
}

/// Configuration of an [`Engine`]: the two sizes a deployment
/// chooses. Everything else is one protocol rule for every runtime
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Replication factor `k`: each tree node lives on its primary
    /// (mapping-rule) host plus `k - 1` ring-successor followers
    /// (`protocol::repair`). `1` disables replication entirely; `k > 1`
    /// also switches on eager replica maintenance — mutations record
    /// the labels they touch and [`Engine::flush_replication`]
    /// re-clones them.
    pub replication: usize,
    /// Per-peer routing-shortcut cache capacity ([`crate::cache`]);
    /// `0` disables caching entirely.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            replication: 1,
            cache_capacity: 0,
        }
    }
}

/// Result of a completed discovery request, as seen by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The paper's satisfaction criterion: the request reached its
    /// final destination (and, for exact queries, the key was
    /// registered there), with no visit ignored for lack of capacity.
    pub satisfied: bool,
    /// Exact queries: whether the key was found. Range/completion:
    /// whether the region was reached.
    pub found: bool,
    /// True iff any visit was ignored by an exhausted peer.
    pub dropped: bool,
    /// Matching keys, sorted.
    pub results: Vec<Key>,
    /// Node labels along the up/down route (entry first).
    pub path: Vec<Key>,
    /// Hosting peer of each `path` entry at completion time.
    pub host_path: Vec<Key>,
    /// Extra node visits performed by the scatter phase of
    /// range/completion queries.
    pub gather_visits: usize,
}

impl LookupOutcome {
    /// Tree edges traversed on the up/down route.
    pub fn logical_hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Physical messages on the up/down route: consecutive visits
    /// hosted by different peers (the quantity of Figure 9).
    pub fn physical_hops(&self) -> usize {
        self.host_path.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// An empty, unsatisfied outcome (used by facades when a request could
/// not even start, e.g. on an empty tree).
pub fn empty_outcome() -> LookupOutcome {
    LookupOutcome {
        satisfied: false,
        found: false,
        dropped: false,
        results: Vec::new(),
        path: Vec::new(),
        host_path: Vec::new(),
        gather_visits: 0,
    }
}

/// Aggregation state of one in-flight request. Lives in a pooled slot
/// of [`GatherPool`]; its buffers (filter table, free-list slot) are
/// reused across requests so steady-state aggregation allocates
/// nothing.
#[derive(Debug)]
struct GatherAgg {
    outstanding: i64,
    satisfied: bool,
    dropped: bool,
    results: Vec<Key>,
    best_path: Vec<Key>,
    responses: usize,
    /// Digests of the satisfied responses already applied — the
    /// idempotency filter that keeps a duplicated envelope from
    /// double-decrementing `outstanding` below the true branch count.
    /// (Unsatisfied/dropped responses are exempt: on a reliable
    /// transport distinct exhausted branches can synthesize identical
    /// reports, and a dropped report can never finalize a request as
    /// satisfied, so double-counting one is verdict-safe.) Consulted
    /// only while fault recovery is on — reliable transports cannot
    /// duplicate, so fault-off runs skip the per-response digest.
    seen: FxHashSet<u64>,
    /// Snapshot of the original entry envelope, kept only while fault
    /// recovery is on so a lost branch can be re-issued verbatim.
    /// Fault-off runs never take the snapshot.
    retry: Option<Envelope>,
    /// Fault-induced retries this request has been re-armed for.
    /// Survives `rearm` (a retry must keep its own count) and resets
    /// only when the slot is reused for a fresh request.
    attempts: u32,
}

impl GatherAgg {
    fn fresh() -> Self {
        GatherAgg {
            outstanding: 1,
            satisfied: true,
            dropped: false,
            results: Vec::new(),
            best_path: Vec::new(),
            responses: 0,
            seen: FxHashSet::default(),
            retry: None,
            attempts: 0,
        }
    }

    /// Resets the aggregation to its begin-request state, keeping the
    /// retry snapshot (a retried request re-arms with the same origin)
    /// and the filter table's capacity.
    fn rearm(&mut self) {
        self.outstanding = 1;
        self.satisfied = true;
        self.dropped = false;
        self.results.clear();
        self.best_path.clear();
        self.responses = 0;
        self.seen.clear();
    }
}

/// A finished aggregation's verdict inputs, moved out of the pool slot
/// at release time.
struct FinishedAgg {
    outstanding: i64,
    satisfied: bool,
    dropped: bool,
    responses: usize,
    attempts: u32,
    results: Vec<Key>,
    best_path: Vec<Key>,
}

/// Pooled aggregation slots keyed by request id: request begin/finish
/// stops allocating and tree-walking per response (the old
/// `BTreeMap<u64, GatherAgg>` paid a node allocation per request and
/// an O(log n) walk per response).
#[derive(Debug, Default)]
struct GatherPool {
    /// request id → slot index.
    index: FxHashMap<u64, u32>,
    slots: Vec<GatherAgg>,
    /// Released slot indices awaiting reuse.
    free: Vec<u32>,
}

impl GatherPool {
    /// Registers a fresh aggregation for `id`, reusing a released slot
    /// when one is available.
    fn begin(&mut self, id: u64) -> &mut GatherAgg {
        let i = match self.free.pop() {
            Some(i) => {
                let agg = &mut self.slots[i as usize];
                agg.rearm();
                agg.retry = None;
                agg.attempts = 0;
                i
            }
            None => {
                self.slots.push(GatherAgg::fresh());
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(id, i);
        &mut self.slots[i as usize]
    }

    fn get(&self, id: u64) -> Option<&GatherAgg> {
        self.index.get(&id).map(|&i| &self.slots[i as usize])
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut GatherAgg> {
        let &i = self.index.get(&id)?;
        Some(&mut self.slots[i as usize])
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Removes `id`'s aggregation, moving out the accumulated vectors
    /// and returning the slot to the free list (filter capacity and
    /// the slot itself are retained for reuse).
    fn release(&mut self, id: u64) -> Option<FinishedAgg> {
        let i = self.index.remove(&id)?;
        let agg = &mut self.slots[i as usize];
        let fin = FinishedAgg {
            outstanding: agg.outstanding,
            satisfied: agg.satisfied,
            dropped: agg.dropped,
            responses: agg.responses,
            attempts: agg.attempts,
            results: std::mem::take(&mut agg.results),
            best_path: std::mem::take(&mut agg.best_path),
        };
        agg.retry = None;
        self.free.push(i);
        Some(fin)
    }
}

/// Sentinel slot index meaning "peer id has no slot".
const SLOT_NONE: u32 = u32::MAX;

/// Engine-side per-peer state, slab-indexed by the peer's interned id.
#[derive(Debug)]
struct PeerSlot {
    /// The peer's identifier (renders ids back to keys at boundaries).
    key: Key,
    /// The peer's shard. `None` only while the parallel pump has lent
    /// it to a worker slice for a batch ([`Engine::detach_shards`]);
    /// between batches every member's shard is here, which
    /// [`Engine::audit`] checks.
    shard: Option<PeerShard>,
    /// The peer's entry-point routing-shortcut cache.
    cache: RouteCache,
}

/// Slab of per-peer slots over [`Directory`]-interned peer ids: a flat
/// `id → slot` index plus a free list, replacing the two
/// `BTreeMap<Key, …>` lookups (shard + cache) the delivery path paid
/// per hop. Slots survive `rename_shard` (the slot is re-bound to the
/// new id, so the cache and free-list integrity carry over) and are
/// recycled on dissolution.
#[derive(Debug, Default)]
struct PeerSlab {
    /// peer id → slot index ([`SLOT_NONE`] when not a member).
    by_id: Vec<u32>,
    slots: Vec<Option<PeerSlot>>,
    /// Released slot indices awaiting reuse.
    free: Vec<u32>,
}

impl PeerSlab {
    #[inline]
    fn slot_of(&self, pid: u32) -> Option<u32> {
        match self.by_id.get(pid as usize) {
            Some(&s) if s != SLOT_NONE => Some(s),
            _ => None,
        }
    }

    #[inline]
    fn contains(&self, pid: u32) -> bool {
        self.slot_of(pid).is_some()
    }

    #[inline]
    fn get(&self, pid: u32) -> Option<&PeerSlot> {
        let s = self.slot_of(pid)?;
        self.slots[s as usize].as_ref()
    }

    #[inline]
    fn get_mut(&mut self, pid: u32) -> Option<&mut PeerSlot> {
        let s = self.slot_of(pid)?;
        self.slots[s as usize].as_mut()
    }

    fn insert(&mut self, pid: u32, slot: PeerSlot) {
        if let Some(s) = self.slot_of(pid) {
            self.slots[s as usize] = Some(slot);
            return;
        }
        if self.by_id.len() <= pid as usize {
            self.by_id.resize(pid as usize + 1, SLOT_NONE);
        }
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(slot);
                s
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_id[pid as usize] = s;
    }

    fn remove(&mut self, pid: u32) -> Option<PeerSlot> {
        let s = self.slot_of(pid)?;
        self.by_id[pid as usize] = SLOT_NONE;
        self.free.push(s);
        self.slots[s as usize].take()
    }

    /// Re-binds the slot of `old_pid` to `new_pid` (peer rename): the
    /// slot — shard, cache, free-list position — stays put; only the
    /// id-level index moves. Returns false when `old_pid` has no slot.
    fn rebind(&mut self, old_pid: u32, new_pid: u32) -> bool {
        let Some(s) = self.slot_of(old_pid) else {
            return false;
        };
        self.by_id[old_pid as usize] = SLOT_NONE;
        if self.by_id.len() <= new_pid as usize {
            self.by_id.resize(new_pid as usize + 1, SLOT_NONE);
        }
        self.by_id[new_pid as usize] = s;
        true
    }

    /// All live slots, in slab (slot-index) order — only for
    /// order-insensitive traversals; ring-order traversals go through
    /// the membership set.
    fn iter_slots_mut(&mut self) -> impl Iterator<Item = &mut PeerSlot> {
        self.slots.iter_mut().flatten()
    }
}

/// Content digest of a satisfied response: two reports are the same
/// delivery iff their path, results and branch fan-out agree (within
/// one request a satisfied report's path is unique to its reporting
/// node, so distinct deliveries never collide).
fn response_digest(outcome: &DiscoveryOutcome) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::directory::FxHasher::default();
    outcome.path.hash(&mut h);
    outcome.results.hash(&mut h);
    outcome.pending_children.hash(&mut h);
    h.finish()
}

/// What [`Engine::deliver`] did with one envelope.
#[derive(Debug)]
pub enum Step {
    /// The envelope was processed (or consumed by aggregation).
    Done,
    /// The destination is not resolvable yet (peer unknown, node still
    /// in flight between shards): the runtime should retry later under
    /// its own policy, or abandon via [`Engine::fail_undeliverable`].
    Requeue(Envelope),
}

/// Internal result of one dispatch step: either a terminal [`Step`] or
/// the next hop of an exact-query chain, delivered inline by the
/// [`Engine::deliver`] loop instead of round-tripping the transport.
enum ChainStep {
    Step(Step),
    Chain(Envelope),
}

/// The unified DLPT runtime state machine. See the module docs.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    /// Per-peer state (shard + entry-point cache), slab-indexed by the
    /// peer's interned id. Every member's shard lives here except
    /// while a parallel batch owns it.
    peers: PeerSlab,
    /// Every live peer, in ring (identifier) order — the broadcast
    /// domain and the canonical iteration order for anything that
    /// emits messages or reports errors (the slab's slot order is a
    /// reuse artifact and must never leak into the fingerprint).
    members: BTreeSet<Key>,
    /// Node label → hosting peer (interned, incrementally ordered).
    pub(crate) directory: Directory,
    /// In-flight request aggregation, pooled by request id.
    gathers: GatherPool,
    /// Request id → `(target, entry host id)` to teach after a
    /// satisfied exact query.
    learn: FxHashMap<u64, (Key, u32)>,
    /// Label id → peers whose route cache may hold a shortcut through
    /// it: the recipients of targeted eager invalidation (a superset
    /// of the real holders; see `dlpt_core::cache`).
    subscriptions: Subscriptions,
    next_request: u64,
    pub(crate) root: Option<Key>,
    /// Reused effect buffers: one dispatch allocates nothing once the
    /// vectors have grown to the workload's high-water mark.
    scratch: Effects,
    /// Whether the transport can lose/duplicate envelopes: gates the
    /// per-response idempotency digest and the per-request retry
    /// snapshot, so reliable (fault-off) runs pay for neither.
    fault_recovery: bool,
    /// Label ids whose state changed since the last flush and whose
    /// replicas must be refreshed (eager replication only).
    pub(crate) touched: Vec<u32>,
    /// `(label id, follower peer id)` pairs whose copies must be
    /// garbage-collected because the node dissolved (eager replication
    /// only).
    dropped_replicas: Vec<(u32, u32)>,
    /// Runtime counters.
    pub stats: SystemStats,
    /// Replication counters (all zero at `k = 1`; kept out of
    /// [`SystemStats`] so the unreplicated golden fingerprint is
    /// byte-identical).
    pub repl_stats: ReplicationStats,
    /// Caching counters (all zero at capacity 0; kept out of
    /// [`SystemStats`] for the same golden-fingerprint reason).
    pub cache_stats: CacheStats,
    /// Duplicated client responses suppressed by the per-request
    /// idempotency filter. On a reliable transport this stays zero —
    /// and, like the replication and cache counters, it stays out of
    /// [`SystemStats`] so the fault-free golden fingerprint is
    /// byte-identical.
    pub duplicates_suppressed: u64,
    /// Structured-event tracing hook ([`Tracer::Noop`] by default).
    /// Every emission site gates on [`Tracer::enabled`], so the off
    /// path costs one branch, allocates nothing, and leaves the golden
    /// fingerprint byte-identical (events live outside
    /// [`SystemStats`]).
    pub tracer: Tracer,
    /// Always-on per-request shape histograms (hops, ticks, fan-out,
    /// retries). Preallocated here so recording never allocates; kept
    /// out of [`SystemStats`] for the same golden-fingerprint reason.
    pub metrics: MetricsRegistry,
    /// Post-batch observability record from the parallel pump: slice
    /// ownership and largest lane batch of the most recent batch, read by
    /// [`Engine::collect_health`]. Empty (and cost-free) on engines
    /// that never ran a parallel batch.
    pub(crate) pump_health: PumpHealth,
}

/// What the parallel pump ([`parallel::ParallelPump`]) left behind
/// after its most recent batch: which worker slice owned each peer and
/// the largest per-epoch batch one worker sent another. Kept on the
/// engine (not the pump, which is stateless) so health snapshots can
/// report slice balance; overwritten per batch, never consulted on the
/// routing hot path.
#[derive(Debug, Clone, Default)]
pub struct PumpHealth {
    /// Interned peer id → owning worker slice index **plus one**
    /// (0 = the peer was not part of the last parallel batch).
    pub(crate) slice_of: Vec<u16>,
    /// Worker-slice count of the last parallel batch (0 = none ran).
    pub(crate) slices: u16,
    /// Largest `sent` count over every credit of the last parallel
    /// batch: the most envelopes one worker handed another within one
    /// credit epoch. The credit protocol fixes which envelopes belong
    /// to each epoch, so unlike a ring-occupancy reading this does not
    /// depend on thread interleaving.
    pub(crate) lane_batch_peak: u32,
}

impl Engine {
    /// An empty engine.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            peers: PeerSlab::default(),
            members: BTreeSet::new(),
            directory: Directory::new(),
            gathers: GatherPool::default(),
            learn: FxHashMap::default(),
            subscriptions: Subscriptions::default(),
            next_request: 1,
            root: None,
            scratch: Effects::default(),
            fault_recovery: false,
            touched: Vec::new(),
            dropped_replicas: Vec::new(),
            stats: SystemStats::default(),
            repl_stats: ReplicationStats::default(),
            cache_stats: CacheStats::default(),
            duplicates_suppressed: 0,
            tracer: Tracer::Noop,
            metrics: MetricsRegistry::default(),
            pump_health: PumpHealth::default(),
        }
    }

    /// Switches structured-event tracing on with a ring buffer of
    /// `capacity` events (0 switches it off). The ring is fully
    /// preallocated here; emission never allocates afterwards.
    pub fn set_tracing(&mut self, capacity: usize) {
        self.tracer = if capacity == 0 {
            Tracer::Noop
        } else {
            Tracer::Ring(TraceRing::with_capacity(capacity))
        };
    }

    /// True when the tracer records events.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Drains the buffered trace events in deterministic merge order.
    /// Empty when tracing is off.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.drain()
    }

    /// The engine configuration.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.config
    }

    /// Reconfigures the replication factor `k` (clamped to ≥ 1).
    pub fn set_replication(&mut self, k: usize) {
        self.config.replication = k.max(1);
    }

    /// Tells the engine whether the transport can lose or duplicate
    /// envelopes. On, each request keeps a retry snapshot of its entry
    /// envelope ([`Engine::retry_envelope`]) and aggregation runs the
    /// per-response idempotency digest; off (the default), reliable
    /// runs pay for neither. Runtimes flip this alongside their fault
    /// plan and partitions.
    pub fn set_fault_recovery(&mut self, on: bool) {
        self.fault_recovery = on;
    }

    /// Reconfigures the per-peer routing-shortcut cache capacity for
    /// existing peers and every peer joining later (0 = off).
    pub fn set_cache_capacity(&mut self, n: usize) {
        self.config.cache_capacity = n;
        for slot in self.peers.iter_slots_mut() {
            slot.cache.set_capacity(n);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of peers in the ring.
    pub fn peer_count(&self) -> usize {
        self.members.len()
    }

    /// Number of logical tree nodes.
    pub fn node_count(&self) -> usize {
        self.directory.len()
    }

    /// Peer identifiers in ring order.
    pub fn peer_ids(&self) -> Vec<Key> {
        self.members.iter().cloned().collect()
    }

    /// True iff `id` is a live peer.
    pub fn contains_peer(&self, id: &Key) -> bool {
        self.members.contains(id)
    }

    /// All node labels, ascending.
    pub fn node_labels(&self) -> Vec<Key> {
        self.directory.labels().cloned().collect()
    }

    /// Borrow a peer shard (`None` for non-members and while a
    /// parallel batch owns the shards).
    pub fn shard(&self, id: &Key) -> Option<&PeerShard> {
        let pid = self.directory.id_of(id)?;
        self.peers.get(pid)?.shard.as_ref()
    }

    /// Mutably borrow a peer shard.
    pub(crate) fn shard_mut(&mut self, id: &Key) -> Option<&mut PeerShard> {
        let pid = self.directory.id_of(id)?;
        self.peers.get_mut(pid)?.shard.as_mut()
    }

    /// Borrow a live peer's entry-point route cache.
    pub fn route_cache(&self, id: &Key) -> Option<&RouteCache> {
        let pid = self.directory.id_of(id)?;
        Some(&self.peers.get(pid)?.cache)
    }

    /// Mutably borrow a peer's entry-point route cache.
    #[cfg(test)]
    fn cache_mut(&mut self, id: &Key) -> Option<&mut RouteCache> {
        let pid = self.directory.id_of(id)?;
        Some(&mut self.peers.get_mut(pid)?.cache)
    }

    /// The attached shards with their peer ids, in ring order.
    pub fn shards(&self) -> impl Iterator<Item = (&Key, &PeerShard)> + '_ {
        self.members
            .iter()
            .filter_map(move |id| self.shard(id).map(|s| (id, s)))
    }

    /// The attached shards in ring order.
    pub(crate) fn attached_shards(&self) -> impl Iterator<Item = &PeerShard> + '_ {
        self.members.iter().filter_map(move |id| self.shard(id))
    }

    /// Number of attached shards.
    pub(crate) fn attached_shard_count(&self) -> usize {
        self.attached_shards().count()
    }

    /// Detaches every shard in ring order, keyed by the peer's
    /// interned id, leaving the slots in place. The parallel
    /// pump partitions the result into per-worker slices that *own*
    /// their shards for the batch and hands each one back through
    /// [`Engine::attach_shard`]. Id-keyed (not key-keyed) so slice
    /// routing is an array index, never a map walk.
    pub(crate) fn detach_shards(&mut self) -> Vec<(u32, PeerShard)> {
        let mut out = Vec::with_capacity(self.members.len());
        let ids: Vec<u32> = self
            .members
            .iter()
            .filter_map(|id| self.directory.id_of(id))
            .collect();
        for pid in ids {
            if let Some(slot) = self.peers.get_mut(pid) {
                if let Some(shard) = slot.shard.take() {
                    out.push((pid, shard));
                }
            }
        }
        out
    }

    /// Re-attaches one shard detached by [`Engine::detach_shards`].
    /// The slot normally still exists (the directory is frozen while a
    /// batch owns the shards); a vanished slot is re-created from the
    /// interner so a failed batch can never strand a shard.
    pub(crate) fn attach_shard(&mut self, pid: u32, shard: PeerShard) {
        match self.peers.get_mut(pid) {
            Some(slot) => slot.shard = Some(shard),
            None => {
                let id = self.directory.key_of(pid).clone();
                self.insert_peer(id, shard);
            }
        }
    }

    /// The delivery directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The peer hosting node `label`, per the delivery directory.
    pub fn host_of(&self, label: &Key) -> Option<&Key> {
        self.directory.host_of(label)
    }

    /// The peer the mapping rule designates for `label`:
    /// `min {P : P >= label}`, wrapping to the minimum.
    pub fn host_peer(&self, label: &Key) -> Option<&Key> {
        self.members
            .range::<Key, _>(label..)
            .next()
            .or_else(|| self.members.iter().next())
    }

    /// Ring predecessor of `id` over the current peer set (wrapping).
    fn ring_pred(&self, id: &Key) -> Option<&Key> {
        self.members
            .range::<Key, _>(..id)
            .next_back()
            .or_else(|| self.members.iter().next_back())
    }

    /// Ring successor of `id` over the current peer set (wrapping).
    fn ring_succ(&self, id: &Key) -> Option<&Key> {
        use std::ops::Bound;
        self.members
            .range::<Key, _>((Bound::Excluded(id), Bound::Unbounded))
            .next()
            .or_else(|| self.members.iter().next())
    }

    /// Borrow a node's state wherever it is hosted.
    pub fn node(&self, label: &Key) -> Option<&NodeState> {
        let lid = self.directory.id_of(label)?;
        let hid = self.directory.host_id(lid)?;
        self.peers.get(hid)?.shard.as_ref()?.nodes.get(label)
    }

    /// Label of the current tree root.
    pub fn root(&self) -> Option<&Key> {
        self.root.as_ref()
    }

    /// Depth of every live node (root = 0), via memoized father-link
    /// walks — O(nodes) for the whole map. Feeds the per-depth visit
    /// histogram ([`crate::metrics::DepthHistogram`]).
    pub fn depth_map(&self) -> BTreeMap<Key, u32> {
        let mut depths: BTreeMap<Key, u32> = BTreeMap::new();
        for shard in self.attached_shards() {
            for node in shard.nodes.values() {
                self.depth_into(&node.label, &mut depths);
            }
        }
        depths
    }

    fn depth_into(&self, label: &Key, depths: &mut BTreeMap<Key, u32>) -> u32 {
        if let Some(&d) = depths.get(label) {
            return d;
        }
        let d = match self.node(label).and_then(|n| n.father.as_ref()) {
            None => 0,
            Some(f) => self.depth_into(f, depths) + 1,
        };
        depths.insert(label.clone(), d);
        d
    }

    /// Every registered service key, ascending.
    pub fn registered_keys(&self) -> Vec<Key> {
        let mut out = Vec::new();
        for shard in self.attached_shards() {
            for node in shard.nodes.values() {
                out.extend(node.data.iter().cloned());
            }
        }
        out.sort();
        out
    }

    /// A uniformly random node label (the "random node of the tree"
    /// every request and registration enters through). O(1) over the
    /// directory's sorted table.
    pub fn random_node(&self, rng: &mut StdRng) -> Option<Key> {
        if self.directory.is_empty() {
            return None;
        }
        let i = rng.gen_range(0..self.directory.len());
        Some(self.directory.label_at(i).clone())
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Registers a peer together with a fresh shard. The runtime then
    /// routes the join itself ([`Engine::join_envelope`]).
    pub fn add_local_shard(&mut self, id: Key, capacity: u32) {
        let shard = PeerShard::new(id.clone(), capacity);
        self.insert_peer(id, shard);
    }

    fn insert_peer(&mut self, id: Key, shard: PeerShard) {
        let pid = self.directory.intern(&id);
        self.peers.insert(
            pid,
            PeerSlot {
                key: id.clone(),
                shard: Some(shard),
                cache: RouteCache::new(self.config.cache_capacity),
            },
        );
        self.members.insert(id);
    }

    /// Forgets a peer: membership, its entry-point cache and its
    /// shard. Returns the shard.
    pub fn remove_member(&mut self, id: &Key) -> Option<PeerShard> {
        self.members.remove(id);
        let pid = self.directory.id_of(id)?;
        self.peers.remove(pid)?.shard
    }

    /// The join envelope for peer `id` (which must already be a
    /// member): route `<PeerJoin, P, 0>` through the tree from a random
    /// node, or — before any tree exists — contact an arbitrary other
    /// peer and let the ring walk of Algorithm 2 place it.
    pub fn join_envelope(&mut self, id: &Key, rng: &mut StdRng) -> Envelope {
        match self.random_node(rng) {
            Some(entry) => Envelope::to_node(
                entry,
                NodeMsg::PeerJoin {
                    joining: id.clone(),
                    phase: JoinPhase::Up,
                },
            ),
            None => {
                let contact = self
                    .members
                    .iter()
                    .find(|k| *k != id)
                    .cloned()
                    .expect("at least one other peer");
                Envelope::to_peer(
                    contact,
                    PeerMsg::NewPredecessor {
                        joining: id.clone(),
                    },
                )
            }
        }
    }

    /// The registration envelope for `key`: enter the tree at a random
    /// node, or — before any tree exists — seed the first node through
    /// the peer layer (the `Host` ring walk places it per the mapping
    /// rule).
    pub fn insert_envelope(&mut self, key: Key, rng: &mut StdRng) -> Envelope {
        match self.random_node(rng) {
            Some(entry) => Envelope::to_node(entry, NodeMsg::DataInsertion { key }),
            None => {
                let contact = self.members.iter().next().cloned().expect("non-empty ring");
                Envelope::to_peer(
                    contact,
                    PeerMsg::Host {
                        seed: NodeSeed {
                            label: key.clone(),
                            father: None,
                            children: Vec::new(),
                            data: vec![key],
                        },
                    },
                )
            }
        }
    }

    // ------------------------------------------------------------------
    // Requests (entry, aggregation, completion) — the discovery flow
    // ------------------------------------------------------------------

    /// Starts a discovery request entering at `entry`: registers the
    /// aggregation state and builds the envelope to send.
    ///
    /// When caching is on the entry node's hosting peer — the overlay's
    /// access point for this request — consults its [`RouteCache`]
    /// first: a hit whose label is still live at the recorded epoch
    /// skips the whole upward climb and delivers the request straight
    /// to the covering node in `Down` phase; a stale hit is evicted and
    /// the request falls back to the normal up/down route, so results
    /// never depend on cache freshness. Satisfied exact queries teach
    /// the entry peer a fresh shortcut when the request is judged
    /// ([`Engine::finish_request`]).
    pub fn begin_request(&mut self, entry: &Key, query: QueryKind) -> Result<(u64, Envelope)> {
        let Some((lid, hid)) = self.directory.resolve(entry) else {
            return Err(DlptError::UnknownNode(entry.to_string()));
        };
        let id = self.next_request;
        self.next_request += 1;
        self.gathers.begin(id);
        if self.tracer.enabled() {
            self.tracer
                .emit(TraceEvent::new(EventKind::Admit, id, lid, hid, 0));
        }
        let mut shortcut: Option<Shortcut> = None;
        if self.config.cache_capacity > 0 {
            let target = query.target();
            let (hits0, stale0) = (self.cache_stats.hits, self.cache_stats.stale_hits);
            if let Some(slot) = self.peers.get_mut(hid) {
                shortcut = cache::consult(
                    &mut slot.cache,
                    &self.directory,
                    &target,
                    &mut self.cache_stats,
                );
                if self.tracer.enabled() {
                    let kind = if self.cache_stats.hits > hits0 {
                        EventKind::CacheHit
                    } else if self.cache_stats.stale_hits > stale0 {
                        EventKind::CacheStale
                    } else {
                        EventKind::CacheMiss
                    };
                    self.tracer.emit(TraceEvent::new(kind, id, lid, hid, 0));
                }
            }
            if shortcut.is_none() && matches!(query, QueryKind::Exact(_)) {
                self.learn.insert(id, (target, hid));
            }
        }
        let env = match shortcut {
            Some(sc) => {
                cache::shortcut_envelope(id, query, self.directory.key_of(sc.label).clone())
            }
            None => discovery::entry_envelope(entry.clone(), id, query),
        };
        if self.fault_recovery {
            // Only faultable transports can lose a branch; the retry
            // snapshot is the one per-request clone they pay for it.
            let agg = self.gathers.get_mut(id).expect("registered above");
            agg.retry = Some(env.clone());
        }
        Ok((id, env))
    }

    /// A clone of the entry envelope request `id` was admitted with —
    /// the verbatim origin a runtime re-sends after fault-induced
    /// loss. `None` unless fault recovery was on at admission.
    pub fn retry_envelope(&self, id: u64) -> Option<Envelope> {
        self.gathers.get(id)?.retry.clone()
    }

    /// Feeds one `ClientResponse` into the request's aggregation. The
    /// runtime judges the request with [`Engine::finish_request`] once
    /// drained, so every response of the request — duplicates
    /// included — reaches the aggregation first. Responses for already
    /// judged (or unknown) requests are dropped as stale.
    pub(crate) fn client_response(&mut self, outcome: DiscoveryOutcome) {
        let fault_recovery = self.fault_recovery;
        let Some(agg) = self.gathers.get_mut(outcome.request_id) else {
            return; // stale response after request already finalized
        };
        if fault_recovery
            && outcome.satisfied
            && !outcome.dropped
            && !agg.seen.insert(response_digest(&outcome))
        {
            // A duplicated (or retried-and-redelivered) copy of a
            // response already applied: counting it again would
            // double-decrement `outstanding` below the true branch
            // count and finalize the request with partial results.
            // (Reliable transports cannot duplicate — fault-off runs
            // skip the digest entirely.)
            self.duplicates_suppressed += 1;
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::new(
                    EventKind::DedupSuppress,
                    outcome.request_id,
                    0,
                    0,
                    outcome.path.len(),
                ));
            }
            return;
        }
        agg.outstanding += outcome.pending_children as i64 - 1;
        agg.satisfied &= outcome.satisfied;
        agg.dropped |= outcome.dropped;
        agg.responses += 1;
        if self.tracer.enabled() {
            let kind = if outcome.pending_children > 0 {
                EventKind::BranchOpen
            } else {
                EventKind::BranchClose
            };
            self.tracer.emit(TraceEvent::new(
                kind,
                outcome.request_id,
                outcome.pending_children,
                0,
                outcome.path.len(),
            ));
        }
        if agg.results.is_empty() {
            // Take over the first non-empty response's buffer instead
            // of copying out of it.
            agg.results = outcome.results;
        } else {
            agg.results.extend(outcome.results);
        }
        if outcome.path.len() > agg.best_path.len() {
            agg.best_path = outcome.path;
        }
    }

    /// Feeds a judged request into the metrics registry and emits its
    /// terminal trace event. Called exactly once per request, by
    /// [`Engine::finish_request`].
    fn record_finished(&mut self, id: u64, out: &LookupOutcome, attempts: u32) {
        let hops = out.logical_hops() as u64;
        let ticks = (out.path.len() + out.gather_visits) as u64;
        self.metrics
            .record_request(hops, ticks, out.gather_visits as u64, attempts as u64);
        if self.tracer.enabled() {
            let kind = if out.satisfied {
                EventKind::Satisfy
            } else {
                EventKind::Fail
            };
            self.tracer.emit(TraceEvent::new(
                kind,
                id,
                out.results.len() as u32,
                out.gather_visits as u32,
                out.logical_hops(),
            ));
        }
    }

    /// Builds the [`LookupOutcome`] from a completed aggregation.
    fn assemble_outcome(&self, agg: FinishedAgg, satisfied: bool) -> LookupOutcome {
        let mut results = agg.results;
        // Unstable sort: no scratch allocation, and equal keys are
        // byte-identical so stability is unobservable.
        results.sort_unstable();
        results.dedup();
        let mut host_path: Vec<Key> = Vec::with_capacity(agg.best_path.len());
        host_path.extend(
            agg.best_path
                .iter()
                .filter_map(|l| self.directory.host_of(l).cloned()),
        );
        let found = !results.is_empty() || satisfied;
        LookupOutcome {
            satisfied,
            found,
            dropped: agg.dropped,
            results,
            gather_visits: agg.responses.saturating_sub(1),
            host_path,
            path: agg.best_path,
        }
    }

    /// Judges request `id` now if no branch is outstanding (see
    /// [`Engine::finish_request`]); `None`, leaving the request
    /// registered, while a branch is still out. Call it only once the
    /// transport has drained.
    pub fn take_finished(&mut self, id: u64) -> Option<LookupOutcome> {
        match self.gathers.get(id) {
            Some(agg) if agg.outstanding <= 0 => Some(self.finish_request(id)),
            _ => None,
        }
    }

    /// Judges and removes request `id` at quiescence: a request is
    /// satisfied only if every branch responded satisfied, nothing was
    /// dropped, and no branch is still outstanding (the
    /// outstanding-branch counter can transiently touch zero while
    /// responses are in flight, so this must only be called once the
    /// transport is drained). A satisfied exact query teaches its entry
    /// peer the shortcut: it proves the target's own node is live and
    /// owns the key.
    pub fn finish_request(&mut self, id: u64) -> LookupOutcome {
        let fin = self.gathers.release(id).expect("request was registered");
        let satisfied = fin.satisfied && !fin.dropped && fin.outstanding <= 0;
        match self.learn.remove(&id) {
            Some((target, host)) if satisfied => self.learn_shortcut(target, host),
            _ => {}
        }
        let attempts = fin.attempts;
        let out = self.assemble_outcome(fin, satisfied);
        self.record_finished(id, &out, attempts);
        out
    }

    /// Whether request `id` is still waiting on an outstanding branch
    /// — i.e. a response was lost in transit and the request can only
    /// terminate through a retry or an explicit failure. Only
    /// meaningful once the transport has drained (mid-flight the
    /// counter is legitimately positive).
    pub fn retry_pending(&self, id: u64) -> bool {
        self.gathers.get(id).is_some_and(|agg| agg.outstanding > 0)
    }

    /// Rearms request `id` for a retry after fault-induced loss: the
    /// aggregation state is reset to exactly what
    /// [`Engine::begin_request`] installed, idempotency filter
    /// included — a retry legitimately re-delivers responses the
    /// first attempt already applied, and they must count again. The
    /// caller re-sends a clone of the original entry envelope.
    pub fn reset_request_for_retry(&mut self, id: u64) {
        if let Some(agg) = self.gathers.get_mut(id) {
            agg.rearm();
            agg.attempts += 1;
            let attempt = agg.attempts;
            if self.tracer.enabled() {
                self.tracer
                    .emit(TraceEvent::new(EventKind::Retry, id, attempt, 0, 0));
            }
        }
    }

    /// Teaches entry peer `host` the shortcut for `target` and
    /// subscribes it to the shortcut's label, so every later eager
    /// invalidation of that label reaches it.
    fn learn_shortcut(&mut self, target: Key, host: u32) {
        if let Some(sc) = cache::learned_shortcut(&self.directory, &target) {
            if let Some(slot) = self.peers.get_mut(host) {
                slot.cache.insert(target, sc);
                self.subscriptions.subscribe(sc.label, host);
                self.cache_stats.learned += 1;
            }
        }
    }

    /// Abandons an envelope whose requeue budget is exhausted. A lost
    /// discovery message must still resolve its request; anything else
    /// is a hard error.
    pub fn fail_undeliverable(&mut self, env: Envelope) -> Result<()> {
        self.stats.undeliverable += 1;
        if let Message::Node(NodeMsg::Discovery(m)) = &env.msg {
            if self.tracer.enabled() {
                let mut ev = TraceEvent::new(EventKind::Drop, m.request_id, 0, 0, m.path.len());
                ev.flags = 1;
                self.tracer.emit(ev);
            }
            self.client_response(DiscoveryOutcome {
                request_id: m.request_id,
                satisfied: false,
                dropped: true,
                results: Vec::new(),
                path: m.path.clone(),
                pending_children: 0,
            });
            return Ok(());
        }
        Err(DlptError::Undeliverable(format!("{:?}", env.to)))
    }

    // ------------------------------------------------------------------
    // The state machine
    // ------------------------------------------------------------------

    /// Processes one envelope: the single implementation of the
    /// dispatch every runtime used to mirror. Capacity charging,
    /// per-kind counters, discovery handling with replica failover,
    /// epoch bumps for structural mutations, and effect application
    /// (directory updates, cache invalidation, outgoing messages
    /// through `t`) all happen here.
    ///
    /// Hop chaining: on a [synchronous](Transport::synchronous)
    /// transport, an exact-query discovery visit whose only effect is
    /// the next hop (one envelope, no relocations) runs that hop
    /// inline instead of round-tripping it through the queue. An exact
    /// query has exactly one envelope in flight, so the chained run
    /// performs the identical state-change sequence the queued run
    /// would — it only skips the push/pop. A chained hop that cannot
    /// deliver yet re-enters the transport exactly as an unchained
    /// forward would have (a fresh queued envelope, not a requeue of
    /// its ancestor).
    pub fn deliver<T: Transport>(&mut self, t: &mut T, env: Envelope) -> Result<Step> {
        // The scratch effect buffer is checked out once for the whole
        // chain, not once per hop.
        let mut fx = std::mem::take(&mut self.scratch);
        let mut env = env;
        let mut chained = false;
        let res = loop {
            match self.deliver_step(t, env, &mut fx) {
                Ok(ChainStep::Chain(next)) => {
                    env = next;
                    chained = true;
                }
                Ok(ChainStep::Step(Step::Requeue(e))) if chained => {
                    t.deliver(e);
                    break Ok(Step::Done);
                }
                Ok(ChainStep::Step(s)) => break Ok(s),
                Err(e) => break Err(e),
            }
        };
        self.scratch = fx;
        res
    }

    fn deliver_step<T: Transport>(
        &mut self,
        t: &mut T,
        env: Envelope,
        fx: &mut Effects,
    ) -> Result<ChainStep> {
        // Destructure: addresses are matched by move, so the hot path
        // clones no `Address` (a requeue rebuilds the envelope from the
        // owned parts).
        let Envelope { to, msg } = env;
        match to {
            Address::Client(_) => {
                if let Message::ClientResponse(outcome) = msg {
                    self.client_response(outcome);
                    Ok(ChainStep::Step(Step::Done))
                } else {
                    Err(DlptError::Undeliverable("client".into()))
                }
            }
            Address::Peer(id) => {
                // One interner probe replaces the `BTreeSet` membership
                // walk: a peer is live iff its id has a slab slot.
                let Some(pid) = self
                    .directory
                    .id_of(&id)
                    .filter(|&p| self.peers.contains(p))
                else {
                    return Ok(ChainStep::Step(Step::Requeue(Envelope::to_address(
                        Address::Peer(id),
                        msg,
                    ))));
                };
                // Replication and cache traffic are counted apart so
                // the k = 1 / cache-off system's stats stay
                // byte-identical.
                if is_replication_msg(&msg) {
                    self.repl_stats.replication_messages += 1;
                } else if let Message::Peer(PeerMsg::InvalidateCached { label, epoch }) = msg {
                    // The engine owns the route caches, so eager
                    // invalidation terminates here — the one
                    // epoch-guarded handler all runtimes share.
                    self.invalidate_at(pid, &label, epoch);
                    return Ok(ChainStep::Step(Step::Done));
                } else {
                    count_message(&mut self.stats, &msg);
                }
                // Track a freshly created root before the seed moves.
                let new_root = match &msg {
                    Message::Peer(PeerMsg::Host { seed }) if seed.father.is_none() => {
                        Some(seed.label.clone())
                    }
                    _ => None,
                };
                let shard = self
                    .peers
                    .get_mut(pid)
                    .and_then(|s| s.shard.as_mut())
                    .expect("peer-addressed deliveries require a local shard");
                match msg {
                    Message::Peer(m) => protocol::handle_peer_msg(shard, m, fx),
                    _ => return Err(DlptError::Undeliverable(format!("{id}"))),
                }
                if let Some(label) = new_root {
                    if fx.relocated.iter().any(|(l, _)| l == &label) {
                        self.root = Some(label);
                    }
                }
                self.apply(fx, t);
                Ok(ChainStep::Step(Step::Done))
            }
            Address::Node(label) => {
                // One directory probe resolves label id + host id; the
                // host's shard is then a flat slab index away (the old
                // path paid two `BTreeMap` walks and a `Key` clone).
                let Some((lid, hid)) = self.directory.resolve(&label) else {
                    return Ok(ChainStep::Step(Step::Requeue(Envelope::to_address(
                        Address::Node(label),
                        msg,
                    ))));
                };
                // One shard probe serves the whole delivery: the
                // existence check, the capacity charge and the handler
                // run under a single borrow; requeues and capacity
                // drops exit with the message intact.
                enum Gate {
                    Delivered,
                    /// Delivered an exact-query discovery visit — the
                    /// one delivery kind eligible for hop chaining.
                    DeliveredExact,
                    /// Delivered a node message that may have mutated
                    /// the node's state (epoch advances, replicas must
                    /// refresh).
                    DeliveredMutation,
                    Requeue(Message),
                    Dropped(DiscoveryMsg),
                }
                let stats = &mut self.stats;
                let gate = match self.peers.get_mut(hid).and_then(|s| s.shard.as_mut()) {
                    None => Gate::Requeue(msg),
                    Some(shard) => match msg {
                        // Capacity model (Section 4): a peer's capacity
                        // bounds the requests it can process per unit,
                        // and processing includes routing — "the upper
                        // a node is, the more times it will be visited
                        // by a request" is exactly what makes load
                        // balancing matter (Section 3.3) — so every
                        // visit charges the hosting peer one unit and
                        // counts toward the node's offered load l_n.
                        Message::Node(NodeMsg::Discovery(m)) => {
                            let exact = matches!(m.query, QueryKind::Exact(_));
                            // Two register moves, captured before the
                            // visit takes ownership of the message.
                            let (req, hops) = (m.request_id, m.path.len());
                            match discovery::deliver_visit(shard, &label, m, fx) {
                                // In flight between shards (hand-off
                                // under way): try later.
                                discovery::VisitGate::Missing(m) => {
                                    Gate::Requeue(Message::Node(NodeMsg::Discovery(m)))
                                }
                                discovery::VisitGate::Delivered => {
                                    stats.discovery_messages += 1;
                                    if self.tracer.enabled() {
                                        self.tracer.emit(TraceEvent::new(
                                            EventKind::Hop,
                                            req,
                                            lid,
                                            hid,
                                            hops,
                                        ));
                                    }
                                    if exact {
                                        Gate::DeliveredExact
                                    } else {
                                        Gate::Delivered
                                    }
                                }
                                discovery::VisitGate::Dropped(m) => Gate::Dropped(m),
                            }
                        }
                        Message::Node(m) => {
                            if shard.nodes.contains_key(&label) {
                                count_node_msg(stats, &m);
                                protocol::handle_node_msg(shard, &label, m, fx);
                                Gate::DeliveredMutation
                            } else {
                                Gate::Requeue(Message::Node(m))
                            }
                        }
                        other => {
                            return Err(DlptError::Undeliverable(format!("{label}: {other:?}")));
                        }
                    },
                };
                match gate {
                    Gate::Requeue(msg) => Ok(ChainStep::Step(Step::Requeue(Envelope::to_address(
                        Address::Node(label),
                        msg,
                    )))),
                    Gate::Dropped(m) => {
                        // Failover: a follower copy with spare capacity
                        // can serve the read the primary refused.
                        let m = if self.config.replication > 1 {
                            match self.failover_read(&label, m, fx) {
                                None => {
                                    self.apply(fx, t);
                                    return Ok(ChainStep::Step(Step::Done));
                                }
                                Some(m) => m,
                            }
                        } else {
                            m
                        };
                        self.stats.discovery_drops += 1;
                        let request_id = m.request_id;
                        let mut path = m.path;
                        path.push(label);
                        if self.tracer.enabled() {
                            self.tracer.emit(TraceEvent::new(
                                EventKind::Drop,
                                request_id,
                                lid,
                                hid,
                                path.len(),
                            ));
                        }
                        self.client_response(DiscoveryOutcome {
                            request_id,
                            satisfied: false,
                            dropped: true,
                            results: Vec::new(),
                            path,
                            pending_children: 0,
                        });
                        Ok(ChainStep::Step(Step::Done))
                    }
                    Gate::Delivered => {
                        self.apply(fx, t);
                        Ok(ChainStep::Step(Step::Done))
                    }
                    Gate::DeliveredExact => {
                        // Hop chaining (see `deliver`): hand the lone
                        // follow-up back to the dispatch loop instead
                        // of round-tripping it through the queue.
                        if t.synchronous()
                            && fx.out.len() == 1
                            && fx.relocated.is_empty()
                            && fx.removed.is_empty()
                        {
                            let next = fx.out.pop().expect("length checked");
                            return Ok(ChainStep::Chain(next));
                        }
                        self.apply(fx, t);
                        Ok(ChainStep::Step(Step::Done))
                    }
                    Gate::DeliveredMutation => {
                        if self.config.replication > 1 {
                            self.touched.push(lid);
                        }
                        // Any non-discovery node message may have
                        // mutated the node's structure: advance its
                        // epoch so learned shortcuts re-validate.
                        self.directory.bump_epoch_id(lid);
                        self.apply(fx, t);
                        Ok(ChainStep::Step(Step::Done))
                    }
                }
            }
        }
    }

    /// Delivers one eager-invalidation message to peer `id`'s cache —
    /// what [`Engine::deliver`] does with an `InvalidateCached`
    /// envelope, callable without a transport.
    #[cfg(test)]
    pub(crate) fn deliver_invalidation(&mut self, id: &Key, label: &Key, epoch: u64) {
        if let Some(pid) = self.directory.id_of(id) {
            self.invalidate_at(pid, label, epoch);
        }
    }

    /// The single invalidation handler. The epoch guard
    /// (`shortcut.epoch <= epoch` evicts, fresher re-learned entries
    /// survive) lives in [`RouteCache::invalidate_label`] and nowhere
    /// else, so reordered and duplicated deliveries are harmless. The
    /// peer stays subscribed to `label` exactly while a shortcut
    /// through it survives.
    fn invalidate_at(&mut self, pid: u32, label: &Key, epoch: u64) {
        self.cache_stats.invalidations_delivered += 1;
        let (Some(slot), Some(lid)) = (self.peers.get_mut(pid), self.directory.id_of(label)) else {
            return;
        };
        if !slot.cache.invalidate_label(lid, epoch) {
            self.subscriptions.unsubscribe(lid, pid);
        }
    }

    /// Applies (and drains) the effect buffers, leaving `fx` empty with
    /// its capacity intact so callers can reuse it allocation-free:
    /// relocations update the directory (and schedule re-replication),
    /// dissolutions drop the label, queue targeted eager cache
    /// invalidation and clear a dissolved root, outgoing envelopes
    /// enter `t`.
    pub(crate) fn apply<T: Transport>(&mut self, fx: &mut Effects, t: &mut T) {
        let eager = self.config.replication > 1;
        for (label, host) in fx.relocated.drain(..) {
            let lid = self.directory.insert(label, host);
            if eager {
                self.touched.push(lid);
            }
        }
        for label in fx.removed.drain(..) {
            if eager {
                // The node dissolved: schedule its copies for GC
                // (before the removal clears the follower record).
                if let Some(lid) = self.directory.id_of(&label) {
                    for &f in self.directory.follower_ids(lid) {
                        self.dropped_replicas.push((lid, f));
                    }
                }
            }
            self.directory.remove(&label);
            // Dissolution is the cheap eager-invalidation case: every
            // shortcut through the dead label is now a guaranteed
            // stale hit, so telling its holders beats paying the
            // fallback.
            self.queue_invalidations(&label, t);
            if self.root.as_ref() == Some(&label) {
                self.root = None; // recomputed by the runtime
            }
        }
        for env in fx.out.drain(..) {
            t.deliver(env);
        }
    }

    /// Records that `label`'s state changed and its replicas are stale
    /// (no-op at `k = 1`).
    pub(crate) fn mark_touched(&mut self, label: &Key) {
        if self.config.replication > 1 {
            let lid = self.directory.intern(label);
            self.touched.push(lid);
        }
    }

    /// Sends [`PeerMsg::InvalidateCached`] for `label` at its current
    /// epoch to every live peer subscribed to it — the peers whose
    /// cache may hold a shortcut through `label` — in subscription-list
    /// order, dropping subscribers that are no longer members. No-op
    /// with caching off. Called where eager invalidation is cheap —
    /// dissolutions and migrations — while the per-hit epoch check
    /// covers everything else lazily.
    pub fn queue_invalidations<T: Transport>(&mut self, label: &Key, t: &mut T) {
        if self.config.cache_capacity == 0 {
            return;
        }
        let Some(lid) = self.directory.id_of(label) else {
            return;
        };
        let epoch = self.directory.epoch_id(lid);
        let (peers, stats) = (&self.peers, &mut self.cache_stats);
        self.subscriptions.retain(lid, |pid| {
            let Some(slot) = peers.get(pid) else {
                return false;
            };
            stats.invalidations_sent += 1;
            t.deliver(Envelope::to_peer(
                slot.key.clone(),
                PeerMsg::InvalidateCached {
                    label: label.clone(),
                    epoch,
                },
            ));
            true
        });
    }

    // ------------------------------------------------------------------
    // Replication orchestration (`protocol::repair`)
    // ------------------------------------------------------------------

    /// Eager replica maintenance: re-clones every node touched since
    /// the last flush onto its `k - 1` ring successors and
    /// garbage-collects copies of dissolved nodes. Runtimes call this
    /// (then drain) after every public mutating operation, so replica
    /// state tracks the data plane without waiting for the next
    /// anti-entropy pass. No-op at `k = 1`.
    pub fn flush_replication<T: Transport>(&mut self, t: &mut T) {
        if self.config.replication <= 1
            || (self.touched.is_empty() && self.dropped_replicas.is_empty())
        {
            return;
        }
        let k = self.config.replication;
        for (lid, fid) in std::mem::take(&mut self.dropped_replicas) {
            // A follower is live iff its peer id still has a slot.
            if let Some(slot) = self.peers.get(fid) {
                t.deliver(Envelope::to_peer(
                    slot.key.clone(),
                    PeerMsg::DropReplica {
                        label: self.directory.key_of(lid).clone(),
                    },
                ));
            }
        }
        let mut touched_ids = std::mem::take(&mut self.touched);
        // Render ids back to keys once, then sort lexicographically so
        // the flush order (and thus the fingerprint) is id-assignment
        // independent.
        let mut touched: Vec<Key> = touched_ids
            .iter()
            .map(|&l| self.directory.key_of(l).clone())
            .collect();
        touched.sort();
        touched.dedup();
        let peers: Vec<Key> = self.members.iter().cloned().collect();
        for label in &touched {
            let Some(primary) = self.directory.host_of(label).cloned() else {
                continue; // dissolved during the same drain
            };
            let targets = repair::successors_of(&peers, &primary, k - 1);
            let stale: Vec<Key> = self
                .directory
                .followers_of(label)
                .filter(|f| !targets.contains(f))
                .cloned()
                .collect();
            for f in stale {
                if self.members.contains(&f) {
                    t.deliver(Envelope::to_peer(
                        f,
                        PeerMsg::DropReplica {
                            label: label.clone(),
                        },
                    ));
                }
            }
            self.directory.set_followers(label, &targets);
            if targets.is_empty() {
                continue;
            }
            let env = {
                let Some(shard) = self.shard(&primary) else {
                    continue;
                };
                let Some(node) = shard.nodes.get(label) else {
                    continue; // relocation still in flight
                };
                Envelope::to_peer(
                    shard.peer.succ.clone(),
                    PeerMsg::Replicate {
                        primary: primary.clone(),
                        ttl: (k - 1) as u32,
                        seed: NodeSeed::of(node),
                    },
                )
            };
            t.deliver(env);
            self.repl_stats.eager_syncs += 1;
        }
        touched_ids.clear();
        self.touched = touched_ids; // hand the capacity back
    }

    /// The planning half of a self-healing anti-entropy pass: re-plans
    /// follower sets, counts under-replicated labels, garbage-collects
    /// stale copies and — unless the overlay is already converged
    /// under eager maintenance — kicks every peer with `SyncReplicas`.
    /// Returns the report and whether anything was enqueued (the
    /// runtime then drains and fills in `messages_sent`). No-op at
    /// `k = 1`.
    pub fn anti_entropy_scan<T: Transport>(&mut self, t: &mut T) -> (AntiEntropyReport, bool) {
        let k = self.config.replication;
        let mut report = AntiEntropyReport::default();
        if k <= 1 || self.members.len() <= 1 {
            return (report, false);
        }
        self.repl_stats.anti_entropy_passes += 1;
        let peers: Vec<Key> = self.members.iter().cloned().collect();
        let want = (k - 1).min(peers.len() - 1);
        // Re-plan the follower sets over the current ring, then count
        // the labels whose *planned* followers are missing a live copy
        // — this catches crashed followers and placement displaced by
        // joins alike.
        repair::refresh_follower_records(&mut self.directory, &peers, k);
        for (label, _) in self.directory.iter() {
            let live_copies = self
                .directory
                .followers_of(label)
                .filter(|f| {
                    self.shard(f)
                        .map(|s| s.replicas.contains_key(label))
                        .unwrap_or(false)
                })
                .count();
            if live_copies < want {
                report.under_replicated += 1;
            }
        }
        // GC copies whose label died or whose holder left the set
        // (ring order: the drop envelopes are fingerprint-visible).
        let mut drops: Vec<(Key, Key)> = Vec::new();
        for (pid, shard) in self.shards() {
            for rl in shard.replicas.keys() {
                let keep = self.directory.contains(rl)
                    && self.directory.followers_of(rl).any(|f| f == pid);
                if !keep {
                    drops.push((pid.clone(), rl.clone()));
                }
            }
        }
        report.replicas_dropped = drops.len();
        // Converged pass: eager maintenance keeps copy *content* fresh,
        // so when every label has its full live follower set and
        // nothing needs GC the blanket re-clone would be pure
        // steady-state traffic — skip it.
        if report.under_replicated == 0 && drops.is_empty() {
            return (report, false);
        }
        for (pid, label) in drops {
            t.deliver(Envelope::to_peer(pid, PeerMsg::DropReplica { label }));
        }
        for p in &peers {
            t.deliver(Envelope::to_peer(
                p.clone(),
                PeerMsg::SyncReplicas { k: k as u32 },
            ));
        }
        (report, true)
    }

    /// Serves a capacity-refused discovery visit from a live follower
    /// copy, charging the follower's capacity instead. Returns the
    /// message when no follower can serve it (the caller then counts
    /// the drop as before).
    fn failover_read(
        &mut self,
        label: &Key,
        msg: DiscoveryMsg,
        fx: &mut Effects,
    ) -> Option<DiscoveryMsg> {
        let followers: Vec<Key> = self.directory.followers_of(label).cloned().collect();
        for f in followers {
            let Some(shard) = self.shard_mut(&f) else {
                continue;
            };
            if !shard.replicas.contains_key(label) || !shard.peer.try_accept() {
                continue;
            }
            let node = shard.replicas.get_mut(label).expect("checked");
            node.load += 1;
            discovery::on_discovery_at(node, msg, fx);
            self.repl_stats.failover_reads += 1;
            return None;
        }
        Some(msg)
    }

    /// The distinct live peers currently holding a copy of `label`
    /// (primary first, then followers in ring order). Empty when the
    /// label is not a live node. Local shards only.
    pub fn replica_hosts(&self, label: &Key) -> Vec<Key> {
        let mut out = Vec::new();
        if let Some(p) = self.directory.host_of(label) {
            if self
                .shard(p)
                .map(|s| s.nodes.contains_key(label))
                .unwrap_or(false)
            {
                out.push(p.clone());
            }
        }
        for f in self.directory.followers_of(label) {
            let holds = self
                .shard(f)
                .map(|s| s.replicas.contains_key(label))
                .unwrap_or(false);
            if holds && !out.contains(f) {
                out.push(f.clone());
            }
        }
        out
    }

    /// Failover after a primary crash: moves a surviving follower copy
    /// of `label` onto the peer the mapping rule now designates
    /// (usually the copy's own holder — the first live follower *is*
    /// the crashed primary's ring successor), updates the directory
    /// and prunes dead follower records. Returns false when no live
    /// copy exists.
    fn promote_from_followers(&mut self, label: &Key) -> bool {
        let holder = self
            .directory
            .followers_of(label)
            .find(|f| {
                self.shard(f)
                    .map(|s| s.replicas.contains_key(label))
                    .unwrap_or(false)
            })
            .cloned();
        let Some(holder) = holder else {
            return false;
        };
        let copy = self
            .shard_mut(&holder)
            .expect("holder is live")
            .replicas
            .remove(label)
            .expect("copy is present");
        let target = self.host_peer(label).expect("ring non-empty").clone();
        self.shard_mut(&target)
            .expect("mapping points at live peers")
            .install(copy);
        // Ownership transfer as an explicit handoff record: when the
        // crashed primary's entry is still present (the crash path
        // promotes before pruning), the record names the dead owner;
        // a re-insert after pruning carries no previous owner.
        let handoff = self.directory.handoff(label, &target);
        debug_assert_ne!(
            handoff.from,
            Some(handoff.to),
            "promotion must move ownership off the crashed primary"
        );
        // Keep the surviving follower records; the next anti-entropy
        // pass re-fills the set to k - 1.
        let remaining: Vec<Key> = self
            .directory
            .followers_of(label)
            .filter(|f| **f != target && self.contains_peer(f))
            .cloned()
            .collect();
        self.directory.set_followers(label, &remaining);
        true
    }

    /// Verifies the replication invariant: every live node has
    /// `min(k, |P|)` distinct live replica hosts. Trivially true at
    /// `k = 1` (the mapping invariant covers the single copy).
    pub fn check_replication(&self) -> std::result::Result<(), String> {
        let k = self.config.replication;
        if k <= 1 {
            return Ok(());
        }
        let want = k.min(self.members.len());
        for (label, _) in self.directory.iter() {
            let hosts = self.replica_hosts(label);
            if hosts.len() < want {
                return Err(format!(
                    "node {label} has {} live replica hosts {:?}, invariant demands {want}",
                    hosts.len(),
                    hosts
                ));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Churn (shared by the sync and latency runtimes)
    // ------------------------------------------------------------------

    /// Graceful departure: the peer hands its nodes to its successor
    /// and splices itself out (Section 4's churn model). The hand-off
    /// traffic enters `t`; the runtime drains afterwards.
    pub fn leave_shard<T: Transport>(&mut self, id: &Key, t: &mut T) -> Result<()> {
        let mut shard = self
            .remove_member(id)
            .ok_or_else(|| DlptError::UnknownPeer(id.to_string()))?;
        if self.members.is_empty() {
            // Last peer: the overlay disappears with it.
            self.directory.clear();
            self.root = None;
            return Ok(());
        }
        let mut fx = std::mem::take(&mut self.scratch);
        maintenance::leave(&mut shard, &mut fx);
        self.stats.maintenance_messages += fx.out.len() as u64;
        if self.config.replication > 1 {
            // The departing peer's follower copies vanish with it; its
            // hand-off therefore also kicks the affected primaries to
            // re-clone, so a graceful leave never opens a
            // single-failure data-loss window.
            for label in shard.replicas.keys() {
                let lid = self.directory.intern(label);
                self.touched.push(lid);
            }
        }
        self.apply(&mut fx, t);
        self.scratch = fx;
        Ok(())
    }

    /// Moves one node to another peer, updating the directory and
    /// eagerly invalidating shortcuts through it. Used by the
    /// balancers; counted as balance traffic. The runtime drains `t`
    /// afterwards.
    pub fn migrate_shard_node<T: Transport>(
        &mut self,
        label: &Key,
        to: &Key,
        t: &mut T,
    ) -> Result<()> {
        let from = self
            .directory
            .host_of(label)
            .cloned()
            .ok_or_else(|| DlptError::UnknownNode(label.to_string()))?;
        if &from == to {
            return Ok(());
        }
        if self.shard(to).is_none() {
            return Err(DlptError::UnknownPeer(to.to_string()));
        }
        let node = self
            .shard_mut(&from)
            .expect("directory points at live peers")
            .evict(label)
            .expect("directory is consistent");
        self.shard_mut(to).expect("checked").install(node);
        // The directory records the move as an explicit ownership
        // handoff from the old owner to the new one — the same
        // evict/install pair above, restated in interned-id space for
        // slice-partitioned consumers.
        let handoff = self.directory.handoff(label, to);
        debug_assert_eq!(
            handoff.from,
            self.directory.id_of(&from),
            "handoff must name the evicted owner"
        );
        self.mark_touched(label);
        self.stats.balance_migrations += 1;
        // A migration stales every shortcut pointing at the old host;
        // the balancers migrate rarely, so eager invalidation is cheap.
        self.queue_invalidations(label, t);
        Ok(())
    }

    /// Changes a peer's identifier in place (the MLT boundary move).
    /// Ring links of both neighbours, the directory entries of hosted
    /// nodes, the membership set and the peer's entry-point cache all
    /// follow.
    pub fn rename_shard(&mut self, old: &Key, new: Key) -> Result<()> {
        if old == &new {
            return Ok(());
        }
        if self.members.contains(&new) {
            return Err(DlptError::DuplicatePeer(new.to_string()));
        }
        let old_pid = self
            .directory
            .id_of(old)
            .filter(|&p| self.peers.get(p).is_some_and(|s| s.shard.is_some()))
            .ok_or_else(|| DlptError::UnknownPeer(old.to_string()))?;
        let new_pid = self.directory.intern(&new);
        // The slot — shard, entry-point cache, free-list position —
        // survives the rename: only the id binding moves, so learned
        // shortcuts and slab integrity carry over.
        self.peers.rebind(old_pid, new_pid);
        // Its cached shortcuts keep their subscriptions under the new
        // id; the old id's links are pruned at the next send.
        let slot = self.peers.get(new_pid).expect("just re-bound");
        for (_, sc) in slot.cache.iter_shortcuts() {
            self.subscriptions.subscribe(sc.label, new_pid);
        }
        self.members.remove(old);
        let eager = self.config.replication > 1;
        let slot = self.peers.get_mut(new_pid).expect("just re-bound");
        slot.key = new.clone();
        let shard = slot.shard.as_mut().expect("checked above");
        let (pred, succ) = (shard.peer.pred.clone(), shard.peer.succ.clone());
        shard.peer.id = new.clone();
        if pred == *old {
            shard.peer.pred = new.clone();
        }
        if succ == *old {
            shard.peer.succ = new.clone();
        }
        let hosted: Vec<Key> = shard.nodes.keys().cloned().collect();
        for label in hosted {
            let lid = self.directory.insert(label, new.clone());
            if eager {
                self.touched.push(lid);
            }
        }
        self.members.insert(new.clone());
        if let Some(p) = self.shard_mut(&pred) {
            if p.peer.succ == *old {
                p.peer.succ = new.clone();
            }
        }
        if let Some(s) = self.shard_mut(&succ) {
            if s.peer.pred == *old {
                s.peer.pred = new.clone();
            }
        }
        self.stats.peer_renames += 1;
        Ok(())
    }

    /// Non-graceful departure: the peer vanishes and the ring heals
    /// around it. Without replication (`k = 1`) every node the peer ran
    /// — and its registered data — is lost. With `k > 1` each lost node
    /// fails over to a surviving follower copy (`protocol::repair`);
    /// only nodes with no live replica are lost. Returns the labels of
    /// the *lost* nodes.
    pub fn crash_shard(&mut self, id: &Key) -> Result<Vec<Key>> {
        let shard = self
            .remove_member(id)
            .ok_or_else(|| DlptError::UnknownPeer(id.to_string()))?;
        let hosted: Vec<Key> = shard.nodes.keys().cloned().collect();
        if self.members.is_empty() {
            // Last peer: the overlay disappears with it.
            self.directory.clear();
            self.root = None;
            self.stats.nodes_lost += hosted.len() as u64;
            if self.config.replication > 1 {
                self.repl_stats.unrecoverable_nodes += hosted.len() as u64;
            }
            return Ok(hosted);
        }
        // Failure-detector stand-in: neighbours notice and heal.
        let (pred, succ) = (shard.peer.pred.clone(), shard.peer.succ.clone());
        if let Some(p) = self.shard_mut(&pred) {
            p.peer.succ = if succ == *id {
                pred.clone()
            } else {
                succ.clone()
            };
        }
        if let Some(s) = self.shard_mut(&succ) {
            s.peer.pred = if pred == *id {
                succ.clone()
            } else {
                pred.clone()
            };
        }
        // Failover: promote surviving follower copies; lose the rest.
        let mut lost = Vec::new();
        for label in hosted {
            if self.config.replication > 1 && self.promote_from_followers(&label) {
                self.repl_stats.promotions += 1;
            } else {
                self.directory.remove(&label);
                if self.config.replication > 1 {
                    self.repl_stats.unrecoverable_nodes += 1;
                }
                lost.push(label);
            }
        }
        self.stats.nodes_lost += lost.len() as u64;
        if self
            .root
            .as_ref()
            .map(|r| lost.contains(r))
            .unwrap_or(false)
        {
            self.root = None;
        }
        Ok(lost)
    }

    // ------------------------------------------------------------------
    // Validation against the paper's invariants
    // ------------------------------------------------------------------

    /// Test-only: verifies the peer slab's internal consistency — the
    /// id→slot index, the occupied slots and the free list partition
    /// the slab exactly, and every live slot's key interns back to the
    /// id that maps to it (the no-aliasing property id reuse after a
    /// rename depends on).
    #[cfg(test)]
    pub(crate) fn check_slab(&self) -> std::result::Result<(), String> {
        use std::collections::HashSet;
        let slab = &self.peers;
        let mut seen: HashSet<u32> = HashSet::new();
        let mut live = 0usize;
        for (pid, &s) in slab.by_id.iter().enumerate() {
            if s == SLOT_NONE {
                continue;
            }
            live += 1;
            let slot = slab
                .slots
                .get(s as usize)
                .and_then(|o| o.as_ref())
                .ok_or_else(|| format!("peer id {pid} maps to empty slot {s}"))?;
            if !seen.insert(s) {
                return Err(format!("slot {s} is referenced by two peer ids"));
            }
            match self.directory.id_of(&slot.key) {
                Some(id) if id as usize == pid => {}
                other => {
                    return Err(format!(
                        "slot {s} holds key {} which interns to {other:?}, \
                         but is indexed under peer id {pid}",
                        slot.key
                    ));
                }
            }
        }
        let mut freed: HashSet<u32> = HashSet::new();
        for &f in &slab.free {
            if !freed.insert(f) {
                return Err(format!("slot {f} appears twice on the free list"));
            }
            if seen.contains(&f) {
                return Err(format!("slot {f} is both live and on the free list"));
            }
            if slab.slots.get(f as usize).is_none_or(|o| o.is_some()) {
                return Err(format!("free slot {f} still holds a peer"));
            }
        }
        if live + slab.free.len() != slab.slots.len() {
            return Err(format!(
                "slab leak: {live} live + {} free != {} slots",
                slab.free.len(),
                slab.slots.len()
            ));
        }
        // Every live node label must resolve to a peer with a slot.
        for (label, host) in self.directory.iter() {
            let hid = self
                .directory
                .id_of(host)
                .ok_or_else(|| format!("host {host} of {label} never interned"))?;
            if !slab.contains(hid) {
                return Err(format!("host {host} of {label} has no slab slot"));
            }
        }
        Ok(())
    }

    /// Verifies `host(n) = min {P : P >= n}` for every node.
    pub fn check_mapping(&self) -> std::result::Result<(), MappingViolation> {
        for (label, actual) in self.directory.iter() {
            let expected = self.host_peer(label).expect("ring non-empty");
            if actual != expected {
                return Err(MappingViolation::WrongHost {
                    node: label.clone(),
                    actual: actual.clone(),
                    expected: expected.clone(),
                });
            }
        }
        Ok(())
    }

    /// Verifies that every peer's pred/succ links agree with the ring
    /// order of identifiers.
    pub fn check_ring(&self) -> std::result::Result<(), MappingViolation> {
        for (id, shard) in self.shards() {
            let want_pred = self.ring_pred(id).expect("non-empty");
            let want_succ = self.ring_succ(id).expect("non-empty");
            if &shard.peer.pred != want_pred {
                return Err(MappingViolation::BrokenRingLink {
                    peer: id.clone(),
                    detail: format!("pred is {}, ring order says {}", shard.peer.pred, want_pred),
                });
            }
            if &shard.peer.succ != want_succ {
                return Err(MappingViolation::BrokenRingLink {
                    peer: id.clone(),
                    detail: format!("succ is {}, ring order says {}", shard.peer.succ, want_succ),
                });
            }
        }
        Ok(())
    }

    /// Verifies Definition 1 over the distributed tree: bidirectional
    /// father/child links and pairwise-GCP labels.
    pub fn check_tree(&self) -> std::result::Result<(), TrieViolation> {
        for shard in self.attached_shards() {
            for node in shard.nodes.values() {
                for d in &node.data {
                    if d != &node.label {
                        return Err(TrieViolation::DataLabelMismatch {
                            node: node.label.clone(),
                            data: d.clone(),
                        });
                    }
                }
                if let Some(f) = &node.father {
                    let father = self
                        .node(f)
                        .ok_or_else(|| TrieViolation::BrokenParentLink {
                            node: node.label.clone(),
                        })?;
                    if !father.children.contains(&node.label) {
                        return Err(TrieViolation::BrokenParentLink {
                            node: node.label.clone(),
                        });
                    }
                }
                let children: Vec<&Key> = node.children.iter().collect();
                for c in &children {
                    let child = self
                        .node(c)
                        .ok_or_else(|| TrieViolation::BrokenParentLink { node: (*c).clone() })?;
                    if child.father.as_ref() != Some(&node.label) {
                        return Err(TrieViolation::BrokenParentLink { node: (*c).clone() });
                    }
                    if !node.label.is_proper_prefix_of(c) {
                        return Err(TrieViolation::ChildNotExtension {
                            parent: node.label.clone(),
                            child: (*c).clone(),
                        });
                    }
                }
                for (i, a) in children.iter().enumerate() {
                    for b in &children[i + 1..] {
                        if a.gcp_len(b) != node.label.len() {
                            return Err(TrieViolation::PairGcpMismatch {
                                parent: node.label.clone(),
                                a: (*a).clone(),
                                b: (*b).clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Builds the sequential oracle for the currently registered keys.
    /// A correct overlay has exactly the oracle's node labels.
    pub fn oracle(&self) -> PgcpTrie {
        let mut t = PgcpTrie::new();
        for k in self.registered_keys() {
            t.insert(k);
        }
        t
    }

    /// Closes the current time unit: every peer's capacity counter
    /// resets and every node's offered load is archived for the
    /// balancers (Section 3.3's "recent history").
    pub fn end_time_unit(&mut self) {
        for slot in self.peers.iter_slots_mut() {
            if let Some(shard) = slot.shard.as_mut() {
                shard.peer.roll_unit();
                for node in shard.nodes.values_mut() {
                    node.roll_unit();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // System-health observatory (`crate::obs::health`)
    // ------------------------------------------------------------------

    /// Audits directory↔slab↔trie↔replication cross-consistency and
    /// returns every violation found instead of panicking, so fault and
    /// partition scenarios can be audited mid-recovery. The checks are
    /// read-only and run between batches, when every member's shard is
    /// attached: a member without one is a directory violation. An
    /// empty result after quiescence is the suite-wide invariant
    /// (`tests/runtime_equivalence.rs`).
    pub fn audit(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut push = |check: AuditCheck, detail: String| out.push(Violation { check, detail });

        // Interner round-trip: every id resolves back to itself.
        for id in 0..self.directory.interned_len() as u32 {
            let k = self.directory.key_of(id);
            if self.directory.id_of(k) != Some(id) {
                push(
                    AuditCheck::Directory,
                    format!("interned id {id} ({k}) does not round-trip"),
                );
            }
        }

        // Slab integrity: id↔slot bijection, free-list partition, and
        // key↔id agreement (the runtime twin of the test-only
        // `check_slab`).
        let slab = &self.peers;
        let mut slot_owner: Vec<Option<u32>> = vec![None; slab.slots.len()];
        let mut live = 0usize;
        for (pid, &s) in slab.by_id.iter().enumerate() {
            if s == SLOT_NONE {
                continue;
            }
            live += 1;
            match slab.slots.get(s as usize).and_then(|o| o.as_ref()) {
                None => push(
                    AuditCheck::Slab,
                    format!("peer id {pid} maps to empty slot {s}"),
                ),
                Some(slot) => {
                    if let Some(prev) = slot_owner[s as usize].replace(pid as u32) {
                        push(
                            AuditCheck::Slab,
                            format!("slot {s} referenced by peer ids {prev} and {pid}"),
                        );
                    }
                    if self.directory.id_of(&slot.key) != Some(pid as u32) {
                        push(
                            AuditCheck::Slab,
                            format!("slot {s} holds {} but is indexed under id {pid}", slot.key),
                        );
                    }
                    if !self.members.contains(&slot.key) {
                        push(
                            AuditCheck::Slab,
                            format!("slot {s} peer {} is not a ring member", slot.key),
                        );
                    }
                    if slot.shard.is_none() {
                        push(
                            AuditCheck::Directory,
                            format!("member {} has no attached shard", slot.key),
                        );
                    }
                }
            }
        }
        for &f in &slab.free {
            if slab.slots.get(f as usize).is_none_or(|o| o.is_some()) {
                push(
                    AuditCheck::Slab,
                    format!("free slot {f} still holds a peer"),
                );
            }
        }
        if live + slab.free.len() != slab.slots.len() {
            push(
                AuditCheck::Slab,
                format!(
                    "slab leak: {live} live + {} free != {} slots",
                    slab.free.len(),
                    slab.slots.len()
                ),
            );
        }
        if live != self.members.len() {
            push(
                AuditCheck::Slab,
                format!("{live} slab slots vs {} ring members", self.members.len()),
            );
        }

        // Directory: every live label's host is a live member with a
        // slab slot, and obeys the mapping rule host(n) = min{P >= n}.
        for (label, host) in self.directory.iter() {
            if !self.members.contains(host) {
                push(
                    AuditCheck::Directory,
                    format!("host {host} of {label} is not a live member"),
                );
                continue;
            }
            match self.directory.id_of(host) {
                Some(hid) if slab.contains(hid) => {}
                _ => push(
                    AuditCheck::Directory,
                    format!("host {host} of {label} has no slab slot"),
                ),
            }
            match self.host_peer(label) {
                Some(expected) if expected == host => {}
                Some(expected) => push(
                    AuditCheck::Mapping,
                    format!("{label} hosted by {host}, mapping rule says {expected}"),
                ),
                None => push(
                    AuditCheck::Mapping,
                    format!("{label} is live but the ring is empty"),
                ),
            }
        }

        // Ring links.
        for (id, shard) in self.shards() {
            let (want_pred, want_succ) = (self.ring_pred(id), self.ring_succ(id));
            if want_pred != Some(&shard.peer.pred) {
                push(
                    AuditCheck::Ring,
                    format!(
                        "{id}: pred is {}, ring order says {want_pred:?}",
                        shard.peer.pred
                    ),
                );
            }
            if want_succ != Some(&shard.peer.succ) {
                push(
                    AuditCheck::Ring,
                    format!(
                        "{id}: succ is {}, ring order says {want_succ:?}",
                        shard.peer.succ
                    ),
                );
            }
        }

        // PGCP trie invariants (Definition 1).
        for shard in self.attached_shards() {
            for node in shard.nodes.values() {
                for d in &node.data {
                    if d != &node.label {
                        push(
                            AuditCheck::Trie,
                            format!("{}: data key {d} differs from label", node.label),
                        );
                    }
                }
                if let Some(f) = &node.father {
                    match self.node(f) {
                        None => push(
                            AuditCheck::Trie,
                            format!("{}: father {f} does not resolve", node.label),
                        ),
                        Some(father) if !father.children.contains(&node.label) => push(
                            AuditCheck::Trie,
                            format!("{}: father {f} does not list it as a child", node.label),
                        ),
                        Some(_) => {}
                    }
                }
                for c in &node.children {
                    match self.node(c) {
                        None => push(
                            AuditCheck::Trie,
                            format!("{}: child {c} does not resolve", node.label),
                        ),
                        Some(child) if child.father.as_ref() != Some(&node.label) => push(
                            AuditCheck::Trie,
                            format!("{c}: father link does not point back to {}", node.label),
                        ),
                        Some(_) => {}
                    }
                    if !node.label.is_proper_prefix_of(c) {
                        push(
                            AuditCheck::Trie,
                            format!("{}: child {c} is not a proper extension", node.label),
                        );
                    }
                }
            }
        }

        // Replication records: at most k − 1 followers per label, every
        // recorded follower a live member. (Copy presence is anti-
        // entropy's transient concern; the snapshot reports it as
        // `under_replicated` rather than a violation.)
        let k = self.config.replication;
        if k > 1 {
            for (label, host) in self.directory.iter() {
                let lid = self.directory.id_of(label).expect("live label is interned");
                let fids = self.directory.follower_ids(lid);
                if fids.len() > k - 1 {
                    push(
                        AuditCheck::Replication,
                        format!("{label}: {} followers recorded, k = {k}", fids.len()),
                    );
                }
                for &f in fids {
                    let fk = self.directory.key_of(f);
                    if !self.members.contains(fk) {
                        push(
                            AuditCheck::Replication,
                            format!("{label}: follower {fk} is not a live member"),
                        );
                    }
                    if fk == host {
                        push(
                            AuditCheck::Replication,
                            format!("{label}: primary {host} recorded as its own follower"),
                        );
                    }
                }
            }
        }

        // Cache shortcuts must reference epochs the directory has
        // actually issued (stale is legal; from-the-future is not), and
        // their holder must be subscribed to the label, or targeted
        // invalidation would miss it.
        for m in &self.members {
            let Some(pid) = self.directory.id_of(m) else {
                continue;
            };
            let Some(slot) = slab.get(pid) else { continue };
            for (target, sc) in slot.cache.iter_shortcuts() {
                let issued = self.directory.epoch_id(sc.label);
                if sc.epoch > issued {
                    push(
                        AuditCheck::Cache,
                        format!(
                            "{m}: shortcut for {target} carries epoch {} > directory epoch {issued}",
                            sc.epoch
                        ),
                    );
                }
                if !self.subscriptions.contains(sc.label, pid) {
                    push(
                        AuditCheck::Cache,
                        format!(
                            "{m}: holds a shortcut for {target} through {} but is not subscribed",
                            self.directory.key_of(sc.label)
                        ),
                    );
                }
            }
        }

        out
    }

    /// Estimated resident bytes of every engine component — the
    /// deterministic walk behind the snapshot's memory accounting.
    /// Length-based (Vec capacities plus fixed per-entry map
    /// estimates), so two seeded runs agree byte-for-byte; never
    /// allocates.
    pub fn bytes_estimate(&self) -> MemoryFootprint {
        use std::mem::size_of;
        let slab = &self.peers;
        let slab_bytes = slab.by_id.capacity() * size_of::<u32>()
            + slab.slots.capacity() * size_of::<Option<PeerSlot>>()
            + slab.free.capacity() * size_of::<u32>()
            // Ring membership: BTreeSet entry ≈ key + tree overhead.
            + self.members.len() * (size_of::<Key>() + 16);
        let mut shard_bytes = 0usize;
        let mut cache_bytes = self.subscriptions.bytes_estimate();
        for slot in slab.slots.iter().flatten() {
            cache_bytes += slot.cache.bytes_estimate();
            if let Some(shard) = &slot.shard {
                shard_bytes += node_map_bytes(&shard.nodes) + node_map_bytes(&shard.replicas);
            }
        }
        MemoryFootprint {
            directory_bytes: self.directory.bytes_estimate(),
            slab_bytes,
            shard_bytes,
            cache_bytes,
        }
    }

    /// Fills `mon`'s snapshot from current engine state: per-depth
    /// occupancy, per-peer load in ring order, imbalance statistics,
    /// replication health, cache/fault counter deltas and the memory
    /// footprint. A pure read at a unit boundary (call *before*
    /// [`Engine::end_time_unit`] rolls the per-unit load counters), so
    /// health-off runs are untouched and health-on runs stay
    /// deterministic; once the monitor's buffers are warm, collection
    /// does not allocate. `faults` is the transport's cumulative
    /// counter block (`FaultStats::default()` on reliable transports).
    /// `snap.audit_violations` is reset to 0 — callers that also run
    /// [`Engine::audit`] stamp the count afterwards.
    ///
    /// # Panics
    ///
    /// If a member's shard is not attached, i.e. when called while a
    /// parallel batch owns the shards.
    pub fn collect_health(
        &self,
        unit: u64,
        faults: &crate::transport::FaultStats,
        mon: &mut HealthMonitor,
    ) {
        let snap = &mut mon.snap;
        snap.unit = unit;
        snap.peers = self.members.len() as u64;
        snap.nodes = self.directory.len() as u64;
        snap.audit_violations = 0;
        snap.slices = self.pump_health.slices as u64;
        snap.lane_batch_peak = self.pump_health.lane_batch_peak as u64;

        // Per-peer rows in ring order; `scratch_rows` maps interned
        // peer id → row index so the directory pass below can attribute
        // node counts without hashing.
        snap.per_peer.clear();
        mon.scratch_rows.clear();
        mon.scratch_rows
            .resize(self.directory.interned_len(), u32::MAX);
        for m in &self.members {
            let Some(pid) = self.directory.id_of(m) else {
                continue;
            };
            mon.scratch_rows[pid as usize] = snap.per_peer.len() as u32;
            let shard = self
                .peers
                .get(pid)
                .and_then(|s| s.shard.as_ref())
                .expect("health is collected between batches, with every shard attached");
            snap.per_peer.push(PeerHealth {
                peer: pid,
                nodes: 0,
                replicas: shard.replicas.len() as u32,
                used: shard.peer.used,
                capacity: shard.peer.capacity,
                messages: shard.nodes.values().map(|n| n.load).sum::<u64>()
                    + shard.replicas.values().map(|n| n.load).sum::<u64>(),
                slice: self
                    .pump_health
                    .slice_of
                    .get(pid as usize)
                    .copied()
                    .unwrap_or(0),
            });
        }
        for (_, host) in self.directory.iter() {
            if let Some(hid) = self.directory.id_of(host) {
                if let Some(&row) = mon.scratch_rows.get(hid as usize) {
                    if row != u32::MAX {
                        snap.per_peer[row as usize].nodes += 1;
                    }
                }
            }
        }

        // Depth occupancy by walking father links (no memo map — the
        // tree is shallow and this avoids allocating).
        snap.depth_occupancy.clear();
        snap.max_depth = 0;
        for shard in self.attached_shards() {
            for node in shard.nodes.values() {
                let mut d = 0usize;
                let mut cur = node.father.as_ref();
                while let Some(f) = cur {
                    d += 1;
                    cur = self.node(f).and_then(|n| n.father.as_ref());
                }
                if d >= snap.depth_occupancy.len() {
                    snap.depth_occupancy.resize(d + 1, 0);
                }
                snap.depth_occupancy[d] += 1;
                snap.max_depth = snap.max_depth.max(d as u64);
            }
        }
        snap.optimal_depth = if snap.nodes == 0 {
            0.0
        } else {
            (snap.nodes as f64 + 1.0).log2()
        };

        mon.scratch_loads.clear();
        mon.scratch_loads
            .extend(snap.per_peer.iter().map(|p| p.messages));
        let (imb, gini) = imbalance_of(&mut mon.scratch_loads);
        snap.max_over_mean = imb;
        snap.gini = gini;

        // Replication health, read-only (anti-entropy's refresh pass
        // mutates records; this one only counts): a label is under-
        // replicated when fewer than min(k − 1, peers − 1) of its
        // recorded followers are live and provably hold a copy (remote
        // follower shards can't be inspected and count as holding).
        snap.under_replicated = 0;
        let k = self.config.replication;
        if k > 1 && self.members.len() > 1 {
            let want = (k - 1).min(self.members.len() - 1);
            for (label, _) in self.directory.iter() {
                let lid = self.directory.id_of(label).expect("live label is interned");
                let live = self
                    .directory
                    .follower_ids(lid)
                    .iter()
                    .filter(|&&f| {
                        let fk = self.directory.key_of(f);
                        self.members.contains(fk)
                            && self
                                .shard(fk)
                                .map(|s| s.replicas.contains_key(label))
                                .unwrap_or(true)
                    })
                    .count();
                if live < want {
                    snap.under_replicated += 1;
                }
            }
        }

        let cs = &self.cache_stats;
        snap.cache_hits = cs.hits.saturating_sub(mon.prev_cache.hits);
        snap.cache_stale = cs.stale_hits.saturating_sub(mon.prev_cache.stale_hits);
        snap.cache_learned = cs.learned.saturating_sub(mon.prev_cache.learned);
        mon.prev_cache = cs.clone();

        let p = &mon.prev_faults;
        snap.faults = crate::transport::FaultStats {
            lost: faults.lost.saturating_sub(p.lost),
            duplicated: faults.duplicated.saturating_sub(p.duplicated),
            reordered: faults.reordered.saturating_sub(p.reordered),
            partition_dropped: faults.partition_dropped.saturating_sub(p.partition_dropped),
            duplicates_suppressed: faults
                .duplicates_suppressed
                .saturating_sub(p.duplicates_suppressed),
            retries: faults.retries.saturating_sub(p.retries),
            requests_failed: faults.requests_failed.saturating_sub(p.requests_failed),
        };
        mon.prev_faults = *faults;

        snap.bytes = self.bytes_estimate();
    }
}

/// Heap bytes a spilled key owns (0 for inline keys).
fn key_heap_bytes(k: &Key) -> usize {
    if k.is_inline() {
        0
    } else {
        k.len() + 16
    }
}

/// Estimated bytes of one shard-side node map (`nodes` or `replicas`):
/// a fixed per-entry B-tree estimate plus each node's child/data key
/// sets and any spilled key heap.
fn node_map_bytes(map: &BTreeMap<Key, NodeState>) -> usize {
    use std::mem::size_of;
    let mut bytes = map.len() * (size_of::<Key>() + size_of::<NodeState>() + 16);
    for (label, node) in map {
        bytes += key_heap_bytes(label) + key_heap_bytes(&node.label);
        if let Some(f) = &node.father {
            bytes += key_heap_bytes(f);
        }
        for set in [&node.children, &node.data] {
            bytes += set.len() * (size_of::<Key>() + 16);
            for c in set {
                bytes += key_heap_bytes(c);
            }
        }
    }
    bytes
}

/// Per-kind delivery counters. Free functions over the stats struct
/// alone, so the dispatch hot path can update counters while a shard
/// borrow is live.
pub(crate) fn count_node_msg(stats: &mut SystemStats, m: &NodeMsg) {
    match m {
        NodeMsg::PeerJoin { .. } => stats.join_messages += 1,
        NodeMsg::DataInsertion { .. }
        | NodeMsg::UpdateChild { .. }
        | NodeMsg::DataRemoval { .. }
        | NodeMsg::RemoveChild { .. }
        | NodeMsg::SetFather { .. } => stats.insert_messages += 1,
        NodeMsg::SearchingHost { .. } => stats.host_messages += 1,
        NodeMsg::Discovery(_) => stats.discovery_messages += 1,
    }
}

pub(crate) fn count_message(stats: &mut SystemStats, msg: &Message) {
    match msg {
        Message::Node(m) => count_node_msg(stats, m),
        Message::Peer(PeerMsg::Host { .. }) => stats.host_messages += 1,
        Message::Peer(PeerMsg::TakeOver { .. }) => stats.maintenance_messages += 1,
        Message::Peer(_) => stats.join_messages += 1,
        Message::ClientResponse(_) => {}
    }
}

/// Replication traffic (`protocol::repair`) — counted in
/// [`ReplicationStats`], never in [`SystemStats`].
fn is_replication_msg(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Peer(
            PeerMsg::SyncReplicas { .. }
                | PeerMsg::Replicate { .. }
                | PeerMsg::DropReplica { .. }
                | PeerMsg::PromoteReplica { .. }
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn cached_engine(capacity: usize) -> Engine {
        let mut e = Engine::new(EngineConfig {
            cache_capacity: capacity,
            ..EngineConfig::default()
        });
        e.add_local_shard(k("P1"), 100);
        e.add_local_shard(k("P2"), 100);
        e
    }

    #[test]
    fn fifo_transport_preserves_order() {
        let mut t = FifoTransport::default();
        t.deliver(Envelope::to_peer(
            k("A"),
            PeerMsg::UpdateSuccessor { succ: k("B") },
        ));
        for p in [k("B"), k("C")] {
            t.deliver(Envelope::to_peer(
                p,
                PeerMsg::UpdateSuccessor { succ: k("X") },
            ));
        }
        let order: Vec<Address> = t.queue.iter().map(|(_, e)| e.to.clone()).collect();
        assert_eq!(
            order,
            vec![
                Address::peer(k("A")),
                Address::peer(k("B")),
                Address::peer(k("C"))
            ]
        );
    }

    fn report(id: u64, path: Vec<Key>, results: Vec<Key>, pending: u32) -> DiscoveryOutcome {
        DiscoveryOutcome {
            request_id: id,
            satisfied: true,
            dropped: false,
            results,
            path,
            pending_children: pending,
        }
    }

    /// Satellite regression: a duplicated (re-delivered) response must
    /// not double-decrement the outstanding-branch counter — before
    /// the idempotency filter, the duplicate below finalized the
    /// request with partial results (`outstanding` underflowed to 0
    /// with one branch still in flight).
    #[test]
    fn duplicated_response_cannot_double_decrement_outstanding() {
        let mut e = cached_engine(0);
        e.set_fault_recovery(true); // duplication implies a faulty transport
        e.directory.insert(k("DG"), k("P1"));
        let (id, _env) = e
            .begin_request(&k("DG"), QueryKind::Range(k("D"), k("E")))
            .unwrap();
        // The gather root reports and fans out to two children.
        e.client_response(report(id, vec![k("DG")], Vec::new(), 2));
        // One child's report arrives twice (duplicated in transit).
        let child = report(id, vec![k("DG"), k("DGEMM")], vec![k("DGEMM")], 0);
        e.client_response(child.clone());
        e.client_response(child);
        assert_eq!(e.duplicates_suppressed, 1);
        assert!(
            e.take_finished(id).is_none() && e.retry_pending(id),
            "one branch is genuinely still outstanding"
        );
        // The true second branch finally reports: now it finalizes,
        // complete.
        e.client_response(report(id, vec![k("DG"), k("DT")], vec![k("DTRSM")], 0));
        let out = e.take_finished(id).expect("all branches accounted");
        assert!(out.satisfied);
        assert_eq!(out.results, vec![k("DGEMM"), k("DTRSM")]);
    }

    /// A retry rearms the aggregation *and* the idempotency filter:
    /// the re-delivered copies of first-attempt responses must count
    /// again on the second attempt.
    #[test]
    fn reset_request_for_retry_rearms_aggregation_and_filter() {
        let mut e = cached_engine(0);
        e.set_fault_recovery(true); // retries only exist on faulty transports
        e.directory.insert(k("DG"), k("P1"));
        let (id, env) = e
            .begin_request(&k("DG"), QueryKind::Exact(k("DGEMM")))
            .unwrap();
        assert_eq!(
            e.retry_envelope(id),
            Some(env),
            "fault recovery keeps the origin snapshot for retries"
        );
        let terminal = report(id, vec![k("DG")], vec![k("DGEMM")], 1);
        // First attempt: the node forwarded to one child whose report
        // was lost — the request is stuck outstanding.
        e.client_response(terminal.clone());
        assert!(e.retry_pending(id));
        e.reset_request_for_retry(id);
        // Second attempt re-delivers the same report plus the child's.
        e.client_response(terminal);
        e.client_response(report(id, vec![k("DG"), k("DGEMM")], Vec::new(), 0));
        assert_eq!(e.duplicates_suppressed, 0, "retry responses are fresh");
        let out = e.take_finished(id).expect("finalized after retry");
        assert!(out.satisfied);
        assert_eq!(out.results, vec![k("DGEMM")]);
    }

    /// Regression for the reordered-invalidation hazard the epoch guard
    /// exists for: an eager `InvalidateCached` broadcast that is
    /// delivered *after* the same label was re-learned at a fresher
    /// epoch must spare the fresher shortcut — while an invalidation
    /// carrying the current (or a later) epoch evicts it.
    #[test]
    fn reordered_invalidation_spares_fresher_relearned_entries() {
        let mut e = cached_engine(8);
        // A live label at some epoch, with a learned shortcut on P1.
        e.directory.insert(k("DGEMM"), k("P2"));
        e.directory.bump_epoch(&k("DGEMM"));
        let stale_epoch = e.directory.epoch_of(&k("DGEMM"));
        // The label mutates (epoch advances) and P1 re-learns it fresh.
        e.directory.bump_epoch(&k("DGEMM"));
        let fresh = cache::learned_shortcut(&e.directory, &k("DGEMM")).expect("live");
        e.cache_mut(&k("P1")).unwrap().insert(k("DGEMM"), fresh);
        // A delayed invalidation from before the re-learn arrives last:
        // the epoch guard must spare the fresher entry.
        e.deliver_invalidation(&k("P1"), &k("DGEMM"), stale_epoch);
        assert_eq!(
            e.cache_mut(&k("P1")).unwrap().hit(&k("DGEMM")),
            Some(&fresh),
            "reordered stale invalidation must spare the re-learned shortcut"
        );
        // An invalidation at the current epoch evicts.
        let now_epoch = e.directory.epoch_of(&k("DGEMM"));
        e.deliver_invalidation(&k("P1"), &k("DGEMM"), now_epoch);
        assert_eq!(e.cache_mut(&k("P1")).unwrap().hit(&k("DGEMM")), None);
        assert_eq!(e.cache_stats.invalidations_delivered, 2);
    }

    /// The same guard exercised through the wire path every runtime
    /// shares: `InvalidateCached` envelopes delivered through
    /// [`Engine::deliver`] terminate at the engine-owned caches.
    #[test]
    fn invalidation_envelopes_terminate_at_the_engine_caches() {
        let mut e = cached_engine(8);
        e.directory.insert(k("DGEMM"), k("P2"));
        let sc = cache::learned_shortcut(&e.directory, &k("DGEMM")).expect("live");
        e.cache_mut(&k("P1")).unwrap().insert(k("DGEMM"), sc);
        let epoch = e.directory.epoch_of(&k("DGEMM"));
        let mut t = FifoTransport::default();
        let step = e
            .deliver(
                &mut t,
                Envelope::to_peer(
                    k("P1"),
                    PeerMsg::InvalidateCached {
                        label: k("DGEMM"),
                        epoch,
                    },
                ),
            )
            .unwrap();
        assert!(matches!(step, Step::Done));
        assert_eq!(e.cache_stats.invalidations_delivered, 1);
        assert_eq!(e.cache_mut(&k("P1")).unwrap().hit(&k("DGEMM")), None);
        // Unknown peers requeue, exactly like any peer-addressed frame.
        let step = e
            .deliver(
                &mut t,
                Envelope::to_peer(
                    k("NOPE"),
                    PeerMsg::InvalidateCached {
                        label: k("DGEMM"),
                        epoch,
                    },
                ),
            )
            .unwrap();
        assert!(matches!(step, Step::Requeue(_)));
    }

    /// Drains `t` through the engine (test-sized FIFO pump).
    fn drain(e: &mut Engine, t: &mut FifoTransport) {
        while let Some((_, env)) = t.queue.pop_front() {
            assert!(matches!(e.deliver(t, env).unwrap(), Step::Done));
        }
    }

    /// The auditor's cache findings (the hand-built engines here are
    /// not valid overlays, so the ring and mapping passes are moot).
    fn cache_violations(e: &Engine) -> Vec<Violation> {
        e.audit()
            .into_iter()
            .filter(|v| v.check == AuditCheck::Cache)
            .collect()
    }

    /// Targeted invalidation: only the subscribed holder is sent an
    /// `InvalidateCached`; delivery unsubscribes it once no shortcut
    /// through the label is left, and a fresher shortcut kept by the
    /// epoch guard keeps the subscription.
    #[test]
    fn invalidations_reach_only_subscribed_holders() {
        let mut e = cached_engine(8);
        e.add_local_shard(k("P3"), 100);
        e.directory.insert(k("DGEMM"), k("P2"));
        let lid = e.directory.id_of(&k("DGEMM")).unwrap();
        let p1 = e.directory.id_of(&k("P1")).unwrap();
        let mut t = FifoTransport::default();
        // Nobody holds a shortcut: nothing is sent.
        e.queue_invalidations(&k("DGEMM"), &mut t);
        assert!(t.queue.is_empty());
        assert_eq!(e.cache_stats.invalidations_sent, 0);
        // P1 learns it and is the one recipient.
        e.learn_shortcut(k("DGEMM"), p1);
        assert!(e.subscriptions.contains(lid, p1));
        assert_eq!(cache_violations(&e), Vec::<Violation>::new());
        e.queue_invalidations(&k("DGEMM"), &mut t);
        let to: Vec<Address> = t.queue.iter().map(|(_, env)| env.to.clone()).collect();
        assert_eq!(to, vec![Address::peer(k("P1"))]);
        assert_eq!(e.cache_stats.invalidations_sent, 1);
        drain(&mut e, &mut t);
        assert_eq!(e.route_cache(&k("P1")).unwrap().len(), 0);
        assert!(!e.subscriptions.contains(lid, p1), "pruned on delivery");
        // A stale invalidation spares a fresher re-learned shortcut and
        // its subscription.
        let stale = e.directory.epoch_of(&k("DGEMM"));
        e.directory.bump_epoch(&k("DGEMM"));
        e.learn_shortcut(k("DGEMM"), p1);
        e.deliver_invalidation(&k("P1"), &k("DGEMM"), stale);
        assert_eq!(e.route_cache(&k("P1")).unwrap().len(), 1);
        assert!(e.subscriptions.contains(lid, p1));
        assert_eq!(cache_violations(&e), Vec::<Violation>::new());
    }

    /// A lost invalidation leaves the holder subscribed, so the next
    /// invalidation of the label still reaches it; a departed
    /// subscriber is pruned at send time.
    #[test]
    fn lost_invalidations_keep_the_holder_subscribed() {
        let mut e = cached_engine(8);
        e.directory.insert(k("DGEMM"), k("P2"));
        let lid = e.directory.id_of(&k("DGEMM")).unwrap();
        let (p1, p2) = (
            e.directory.id_of(&k("P1")).unwrap(),
            e.directory.id_of(&k("P2")).unwrap(),
        );
        e.learn_shortcut(k("DGEMM"), p1);
        e.learn_shortcut(k("DGEMM"), p2);
        let mut t = FifoTransport::default();
        e.queue_invalidations(&k("DGEMM"), &mut t);
        assert_eq!(t.queue.len(), 2);
        t.queue.clear(); // both lost in transit
        assert!(e.subscriptions.contains(lid, p1) && e.subscriptions.contains(lid, p2));
        assert_eq!(cache_violations(&e), Vec::<Violation>::new());
        e.remove_member(&k("P2"));
        e.queue_invalidations(&k("DGEMM"), &mut t);
        let to: Vec<Address> = t.queue.iter().map(|(_, env)| env.to.clone()).collect();
        assert_eq!(
            to,
            vec![Address::peer(k("P1"))],
            "the retry reaches the holder"
        );
        assert!(!e.subscriptions.contains(lid, p2), "departed peer pruned");
        drain(&mut e, &mut t);
        assert_eq!(e.route_cache(&k("P1")).unwrap().len(), 0);
    }

    /// A peer rename carries the subscriptions of its cached shortcuts
    /// to the new id, so the auditor's superset check stays clean and
    /// the renamed holder keeps receiving invalidations.
    #[test]
    fn renamed_holders_stay_subscribed() {
        let mut e = cached_engine(8);
        e.directory.insert(k("DGEMM"), k("P2"));
        let p1 = e.directory.id_of(&k("P1")).unwrap();
        e.learn_shortcut(k("DGEMM"), p1);
        e.rename_shard(&k("P1"), k("P0")).unwrap();
        assert_eq!(cache_violations(&e), Vec::<Violation>::new());
        let mut t = FifoTransport::default();
        e.queue_invalidations(&k("DGEMM"), &mut t);
        let to: Vec<Address> = t.queue.iter().map(|(_, env)| env.to.clone()).collect();
        assert_eq!(to, vec![Address::peer(k("P0"))]);
        drain(&mut e, &mut t);
        assert_eq!(e.route_cache(&k("P0")).unwrap().len(), 0);
    }

    /// The auditor flags a cached shortcut whose holder is not
    /// subscribed to its label.
    #[test]
    fn audit_flags_unsubscribed_holders() {
        let mut e = cached_engine(8);
        e.directory.insert(k("DGEMM"), k("P2"));
        let sc = cache::learned_shortcut(&e.directory, &k("DGEMM")).expect("live");
        e.cache_mut(&k("P1")).unwrap().insert(k("DGEMM"), sc);
        let v = cache_violations(&e);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("not subscribed"), "{}", v[0].detail);
    }

    #[test]
    fn membership_tracks_shards_and_caches() {
        let mut e = cached_engine(4);
        assert_eq!(e.peer_count(), 2);
        assert!(e.contains_peer(&k("P1")));
        assert_eq!(e.peer_ids(), vec![k("P1"), k("P2")]);
        let shard = e.remove_member(&k("P1")).expect("shard returned");
        assert_eq!(shard.peer.id, k("P1"));
        assert_eq!(e.peer_count(), 1);
        assert!(e.remove_member(&k("P9")).is_none());
    }

    /// A member whose shard is not attached — the state a parallel
    /// batch leaves while it owns the shards — is a directory
    /// violation; re-attaching the shard clears it.
    #[test]
    fn audit_flags_a_member_without_an_attached_shard() {
        let mut e = Engine::new(EngineConfig::default());
        e.add_local_shard(k("P1"), 100);
        assert!(e.audit().is_empty(), "{:?}", e.audit());
        let lent = e.detach_shards();
        let v = e.audit();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].check, AuditCheck::Directory);
        assert!(v[0].detail.contains("no attached shard"), "{}", v[0].detail);
        for (pid, shard) in lent {
            e.attach_shard(pid, shard);
        }
        assert!(e.audit().is_empty());
    }
}
