//! The sequential DLPT runtime: a thin facade over the unified
//! [`crate::engine`] with one scheduler and a pluggable delay.
//!
//! [`DlptSystem`] owns an [`Engine`] (per-peer shards, delivery
//! directory, route caches, replication bookkeeping — see the engine
//! docs) plus the scheduler: one seeded RNG, an [`EventQueue`] fed
//! through a [`LatencyModel`], and the one drain loop (requeues,
//! request retries, fault plumbing) that runs every operation to
//! quiescence before returning.
//!
//! * Zero delay ([`LatencyModel::Constant`]`(0)`, the default) is the
//!   synchronous pump: processing is strictly FIFO, the queue never
//!   touches its heap, and the engine may chain exact-query hops
//!   inline.
//! * Any other delay samples a latency per envelope from the same RNG,
//!   so one operation's messages interleave arbitrarily — the
//!   configuration `dlpt-net`'s `LatencyNet` wraps.
//!
//! Protocol logic lives entirely in [`crate::protocol`]; envelope
//! dispatch, capacity charging (Section 4's model) and scatter/gather
//! aggregation live in the engine. All randomness comes from one
//! seeded generator, so every run is a pure function of (operations,
//! seed) — the property the experiment harness relies on for its
//! 30/50/100-run averages.

use crate::alphabet::Alphabet;
use crate::engine::{empty_outcome, parallel::ParallelPump, Engine, EngineConfig, Step, Transport};
use crate::error::{DlptError, Result};
use crate::event::{EventQueue, LatencyModel};
use crate::key::Key;
use crate::messages::{Envelope, NodeMsg, QueryKind};
use crate::node::NodeState;
use crate::replication::AntiEntropyReport;
use crate::transport::{FaultPlan, FaultStats, Faults, FaultyTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

pub use crate::engine::LookupOutcome;

/// Tunables of the runtime.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Digit alphabet shared by peers, nodes and service keys.
    pub alphabet: Alphabet,
    /// Length of randomly drawn peer identifiers.
    pub peer_id_len: usize,
    /// Capacity assigned to peers created without an explicit one.
    /// The default is effectively unbounded so functional use is never
    /// throttled; experiments set real capacities.
    pub default_capacity: u32,
    /// Upper bound on envelopes processed by one drain — a tripwire
    /// for routing loops, which the protocol makes impossible.
    pub drain_budget: usize,
    /// How many times one envelope may be requeued while its
    /// destination is still in flight. The effective budget is floored
    /// at twice the ring membership: a freshly seeded node walks the
    /// ring one hop per queue cycle before it lands, so dependent
    /// envelopes need O(ring) retries on large rings.
    pub requeue_budget: u32,
    /// Replication factor `k`: each tree node lives on its primary
    /// (mapping-rule) host plus `k - 1` ring-successor followers
    /// (`protocol::repair`). The default `1` disables replication
    /// entirely — the runtime is then byte-identical to the
    /// pre-replication system.
    pub replication: usize,
    /// Per-peer routing-shortcut cache capacity (`crate::cache`): hot
    /// query targets learned from completed discoveries route in one
    /// directory hop instead of the O(depth) up/down climb, validated
    /// by per-label epochs. The default `0` disables caching entirely —
    /// the runtime is then byte-identical to the pre-cache system.
    pub cache_capacity: usize,
    /// How many times one discovery request may be re-issued after
    /// fault-induced loss left a branch outstanding at quiescence.
    /// Only consulted when a [`FaultPlan`] is active; at exhaustion
    /// the request fails explicitly (never hangs).
    pub request_retry_budget: u32,
    /// Delivery delay of every envelope. The default zero delay is the
    /// synchronous FIFO pump; a sampled delay reorders one operation's
    /// messages (see the module docs).
    pub latency: LatencyModel,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            alphabet: Alphabet::grid(),
            peer_id_len: 16,
            default_capacity: u32::MAX >> 1,
            drain_budget: 4_000_000,
            requeue_budget: 256,
            replication: 1,
            cache_capacity: 0,
            request_retry_budget: 4,
            latency: LatencyModel::default(),
        }
    }
}

/// Builder for [`DlptSystem`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    config: SystemConfig,
    seed: u64,
    bootstrap_peers: usize,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            config: SystemConfig::default(),
            seed: 0xD1_97,
            bootstrap_peers: 0,
        }
    }
}

impl SystemBuilder {
    /// Sets the digit alphabet (default: [`Alphabet::grid`]).
    pub fn alphabet(mut self, a: Alphabet) -> Self {
        self.config.alphabet = a;
        self
    }
    /// Seeds the system RNG (entry-node choice, identifier drawing).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
    /// Length of randomly drawn peer identifiers.
    pub fn peer_id_len(mut self, len: usize) -> Self {
        self.config.peer_id_len = len;
        self
    }
    /// Capacity for peers added without an explicit one.
    pub fn default_capacity(mut self, c: u32) -> Self {
        self.config.default_capacity = c;
        self
    }
    /// Replication factor `k` (primary + `k - 1` followers; default 1 =
    /// replication off).
    pub fn replication(mut self, k: usize) -> Self {
        self.config.replication = k.max(1);
        self
    }
    /// Per-peer routing-shortcut cache capacity (default 0 = caching
    /// off).
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.config.cache_capacity = n;
        self
    }
    /// Joins `n` peers with random identifiers during `build`.
    pub fn bootstrap_peers(mut self, n: usize) -> Self {
        self.bootstrap_peers = n;
        self
    }
    /// Overrides the whole configuration.
    pub fn config(mut self, c: SystemConfig) -> Self {
        self.config = c;
        self
    }

    /// Builds the system (and bootstraps peers if requested).
    pub fn build(self) -> DlptSystem {
        let mut sys = DlptSystem::new(self.config, self.seed);
        for _ in 0..self.bootstrap_peers {
            let cap = sys.config.default_capacity;
            sys.add_peer(cap).expect("bootstrap join cannot fail");
        }
        sys
    }
}

/// A report of what [`DlptSystem::repair_tree`] did after crashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Dangling child links removed.
    pub pruned_links: usize,
    /// Orphaned subtree roots re-attached.
    pub reattached: usize,
    /// Structural nodes created while re-attaching.
    pub created_nodes: usize,
}

/// Base delay (ticks) of the exponential request-retry backoff under
/// a non-zero delay: attempt `a` re-enters the queue `base << a` ticks
/// out, past everything the first attempt scheduled. Zero-delay runs
/// retry at once (the queue is drained by then anyway).
const RETRY_BACKOFF_BASE: u64 = 8;

/// The whole overlay in one process. See the module docs.
///
/// Dereferences to the underlying [`Engine`], so introspection
/// (`peer_count`, `node_labels`, `host_of`, …), the invariant checks
/// and the `stats` / `repl_stats` / `cache_stats` counters are the
/// engine's — shared verbatim with the parallel pump.
#[derive(Debug)]
pub struct DlptSystem {
    config: SystemConfig,
    engine: Engine,
    /// The event queue this runtime drains to quiescence, with the
    /// system RNG.
    sched: Scheduler,
    /// Fault-injection state ([`crate::transport`]); inert by default.
    faults: Faults,
    /// Envelopes popped off the queue so far (requeues included).
    deliveries: u64,
}

/// The runtime's transport: the event queue, the delay policy and the
/// system RNG. The RNG lives here because sampling a delay is the one
/// draw the transport makes; entry nodes and peer identifiers come from
/// the same stream.
#[derive(Debug)]
struct Scheduler {
    /// Pending envelopes, each with its requeue count.
    queue: EventQueue<(u32, Envelope)>,
    latency: LatencyModel,
    rng: StdRng,
}

impl Transport for Scheduler {
    #[inline]
    fn deliver(&mut self, env: Envelope) {
        let delay = self.latency.sample(&mut self.rng);
        self.queue.push_after(delay, (0, env));
    }

    fn synchronous(&self) -> bool {
        self.latency.is_zero()
    }
}

impl std::ops::Deref for DlptSystem {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl std::ops::DerefMut for DlptSystem {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

impl DlptSystem {
    /// Creates an empty system.
    pub fn new(config: SystemConfig, seed: u64) -> Self {
        let engine = Engine::new(EngineConfig {
            replication: config.replication,
            cache_capacity: config.cache_capacity,
        });
        DlptSystem {
            engine,
            sched: Scheduler {
                queue: EventQueue::new(),
                latency: config.latency,
                rng: StdRng::seed_from_u64(seed),
            },
            faults: Faults::new(FaultPlan::default()),
            deliveries: 0,
            config,
        }
    }

    /// Starts a builder.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// The runtime configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Test-only view of the underlying engine, for slab/directory
    /// invariant checks that need more than the public facade.
    #[cfg(test)]
    pub(crate) fn engine_ref(&self) -> &Engine {
        &self.engine
    }

    /// Reconfigures the replication factor `k` (clamped to ≥ 1),
    /// keeping [`SystemConfig`] and the engine in sync. Shadows the
    /// engine's setter so `config()` never reports a stale knob.
    pub fn set_replication(&mut self, k: usize) {
        self.config.replication = k.max(1);
        self.engine.set_replication(k);
    }

    /// Reconfigures the per-peer routing-shortcut cache capacity
    /// (0 = off) for existing peers and every peer joining later,
    /// keeping [`SystemConfig`] and the engine in sync.
    pub fn set_cache_capacity(&mut self, n: usize) {
        self.config.cache_capacity = n;
        self.engine.set_cache_capacity(n);
    }

    /// Installs a fault plan ([`crate::transport`]), resetting the
    /// fault RNG, counters and partition. The default plan is fully
    /// inert: the drain path is byte-identical to a system that never
    /// called this.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Faults::new(plan);
        self.engine.set_fault_recovery(self.faults.is_active());
    }

    /// Severs the lexicographic key range `[lo, hi)` for faultable
    /// traffic until [`DlptSystem::heal_partition`].
    pub fn partition(&mut self, lo: Key, hi: Key) {
        self.faults.partition(lo, hi);
        self.engine.set_fault_recovery(true);
    }

    /// Heals a partition installed by [`DlptSystem::partition`].
    pub fn heal_partition(&mut self) {
        self.faults.heal();
        self.engine.set_fault_recovery(self.faults.is_active());
    }

    /// Combined fault counters: transport-level draws plus the
    /// engine's suppressed duplicates.
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.faults.stats;
        s.duplicates_suppressed += self.engine.duplicates_suppressed;
        s
    }

    /// Envelopes delivered off the queue so far, requeues included (an
    /// exact-query hop chained inline at zero delay is not queued, so
    /// it is not counted).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// A uniformly random node label (the "random node of the tree"
    /// every request and registration enters through). O(1) over the
    /// directory's sorted table — no cache to rebuild.
    pub fn random_node(&mut self) -> Option<Key> {
        self.engine.random_node(&mut self.sched.rng)
    }

    /// Draws a fresh peer identifier not colliding with existing ones.
    pub fn draw_peer_id(&mut self) -> Key {
        loop {
            let id = self
                .config
                .alphabet
                .random_id(&mut self.sched.rng, self.config.peer_id_len);
            if !self.engine.contains_peer(&id) {
                return id;
            }
        }
    }

    /// Access to the system RNG (experiments thread all randomness
    /// through the system for reproducibility).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.sched.rng
    }

    // ------------------------------------------------------------------
    // Peer membership
    // ------------------------------------------------------------------

    /// Joins a peer under a freshly drawn random identifier.
    pub fn add_peer(&mut self, capacity: u32) -> Result<Key> {
        let id = self.draw_peer_id();
        self.add_peer_with_id(id.clone(), capacity)?;
        Ok(id)
    }

    /// Joins a peer under the given identifier, routing the join
    /// through the tree (Algorithms 1 and 2) when the overlay is
    /// already populated.
    pub fn add_peer_with_id(&mut self, id: Key, capacity: u32) -> Result<()> {
        self.config.alphabet.validate(&id)?;
        if self.engine.contains_peer(&id) {
            return Err(DlptError::DuplicatePeer(id.to_string()));
        }
        self.engine.add_local_shard(id.clone(), capacity);
        if self.engine.peer_count() == 1 {
            return Ok(());
        }
        let env = self.engine.join_envelope(&id, &mut self.sched.rng);
        self.submit(env)
    }

    /// Graceful departure: the peer hands its nodes to its successor
    /// and splices itself out (Section 4's churn model).
    pub fn leave_peer(&mut self, id: &Key) -> Result<()> {
        self.engine.leave_shard(id, &mut self.sched)?;
        self.drain()?;
        self.flush_replication()
    }

    /// Non-graceful departure: the peer vanishes and the ring heals
    /// around it. Without replication (`k = 1`) every node the peer ran
    /// — and its registered data — is lost. With `k > 1` each lost node
    /// fails over to a surviving follower copy (`protocol::repair`);
    /// only nodes with no live replica are lost. Returns the labels of
    /// the *lost* nodes. Call [`DlptSystem::repair_tree`] afterwards to
    /// re-attach any orphaned subtrees.
    pub fn crash_peer(&mut self, id: &Key) -> Result<Vec<Key>> {
        self.engine.crash_shard(id)
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Registers a service key, entering the tree at a random node
    /// (Algorithm 3).
    pub fn insert_data(&mut self, key: impl Into<Key>) -> Result<()> {
        let key = key.into();
        match self.random_node() {
            Some(entry) => self.insert_data_at(&entry, key),
            None => self.insert_first(key),
        }
    }

    /// Registers a service key entering at a chosen node.
    pub fn insert_data_at(&mut self, entry: &Key, key: impl Into<Key>) -> Result<()> {
        let key = key.into();
        self.config.alphabet.validate(&key)?;
        if self.engine.peer_count() == 0 {
            return Err(DlptError::EmptyRing);
        }
        if !self.engine.directory.contains(entry) {
            return Err(DlptError::UnknownNode(entry.to_string()));
        }
        self.submit(Envelope::to_node(
            entry.clone(),
            NodeMsg::DataInsertion { key },
        ))
    }

    /// Registers a service key with every step routed through the
    /// overlay: through a random entry node like
    /// [`DlptSystem::insert_data`] while the tree exists, but the first
    /// key travels as a `Host` seed from the lowest peer along the ring
    /// to its mapped host ([`Engine::insert_envelope`]) instead of
    /// being installed there directly.
    pub fn insert_data_routed(&mut self, key: Key) -> Result<()> {
        let env = self.engine.insert_envelope(key, &mut self.sched.rng);
        self.submit(env)
    }

    /// First registration: creates the root node directly on the peer
    /// the mapping rule designates (there is no tree to route through
    /// yet).
    fn insert_first(&mut self, key: Key) -> Result<()> {
        self.config.alphabet.validate(&key)?;
        if self.engine.peer_count() == 0 {
            return Err(DlptError::EmptyRing);
        }
        let host = self.engine.host_peer(&key).expect("non-empty ring").clone();
        let mut node = NodeState::new(key.clone());
        node.data.insert(key.clone());
        self.engine
            .shard_mut(&host)
            .expect("host exists")
            .install(node);
        self.engine.directory.insert(key.clone(), host);
        self.engine.mark_touched(&key);
        self.engine.root = Some(key);
        self.flush_replication()
    }

    /// Deregisters a service key (extension over the paper — see
    /// `protocol::data_removal`). Nodes left redundant dissolve, so
    /// the overlay keeps converging to the sequential oracle of the
    /// remaining keys. No-op if the key is absent.
    pub fn remove_data(&mut self, key: &Key) -> Result<()> {
        if self.engine.peer_count() == 0 {
            return Err(DlptError::EmptyRing);
        }
        let Some(entry) = self.random_node() else {
            return Ok(()); // empty tree: nothing registered
        };
        self.submit(Envelope::to_node(
            entry,
            NodeMsg::DataRemoval { key: key.clone() },
        ))?;
        if self.engine.root().is_none() {
            self.recompute_root();
        }
        Ok(())
    }

    /// Issues a discovery request from a random entry node and runs it
    /// to completion.
    pub fn request(&mut self, query: QueryKind) -> Result<LookupOutcome> {
        let entry = self.random_node().ok_or(DlptError::EmptyTree)?;
        self.request_from(&entry, query)
    }

    /// Issues a discovery request from a chosen entry node and judges
    /// it once the queue has drained.
    ///
    /// Cache consultation, shortcut learning and scatter/gather
    /// aggregation are the engine's — see
    /// [`Engine::begin_request`] for the route-cache flow.
    pub fn request_from(&mut self, entry: &Key, query: QueryKind) -> Result<LookupOutcome> {
        let (id, env) = self.engine.begin_request(entry, query)?;
        self.sched.deliver(env);
        self.drain()?;
        // Fault-tolerant path: a lost response leaves a branch
        // outstanding at quiescence; re-issue the engine's retry
        // snapshot of the original envelope up to the retry budget,
        // then fail explicitly — a request never hangs and never
        // silently vanishes.
        let mut attempts = 0u32;
        while self.faults.is_active()
            && self.engine.retry_pending(id)
            && attempts < self.config.request_retry_budget
        {
            self.faults.stats.retries += 1;
            let origin = self
                .engine
                .retry_envelope(id)
                .expect("fault recovery keeps the origin snapshot");
            self.engine.reset_request_for_retry(id);
            let delay = if self.sched.latency.is_zero() {
                0
            } else {
                RETRY_BACKOFF_BASE << attempts.min(16)
            };
            attempts += 1;
            self.sched.queue.push_after(delay, (0, origin));
            self.drain()?;
        }
        if self.engine.retry_pending(id) {
            // Budget exhausted with a branch still stranded: the
            // outcome below is the explicit failure.
            self.faults.stats.requests_failed += 1;
        }
        Ok(self.engine.finish_request(id))
    }

    /// Runs a batch of discovery requests through the shared-nothing
    /// multi-worker pump ([`crate::engine::parallel`]): entry nodes are
    /// drawn from the system RNG exactly as [`DlptSystem::request`]
    /// draws them, then the directory is partitioned into per-worker
    /// slices exchanging envelopes over bounded SPSC rings with
    /// credit-based quiescence. Outcomes are returned in input order;
    /// with unbounded capacity they equal the sequential pump's.
    pub fn discover_batch(
        &mut self,
        queries: Vec<QueryKind>,
        workers: usize,
    ) -> Result<Vec<LookupOutcome>> {
        let mut requests = Vec::with_capacity(queries.len());
        for query in queries {
            let entry = self.random_node().ok_or(DlptError::EmptyTree)?;
            requests.push((entry, query));
        }
        ParallelPump::new(workers).run_batch(&mut self.engine, requests)
    }

    /// Exact lookup of one key.
    pub fn lookup(&mut self, key: &Key) -> LookupOutcome {
        self.request(QueryKind::Exact(key.clone()))
            .unwrap_or_else(|_| empty_outcome())
    }

    /// Range query over `[lo, hi]`.
    pub fn range(&mut self, lo: &Key, hi: &Key) -> LookupOutcome {
        self.request(QueryKind::Range(lo.clone(), hi.clone()))
            .unwrap_or_else(|_| empty_outcome())
    }

    /// Automatic completion of a partial search string.
    pub fn complete(&mut self, prefix: &Key) -> LookupOutcome {
        self.request(QueryKind::Complete(prefix.clone()))
            .unwrap_or_else(|_| empty_outcome())
    }

    // ------------------------------------------------------------------
    // Load-balancing support (used by `crate::balance`)
    // ------------------------------------------------------------------

    /// Moves one node to another peer, updating the directory. Used by
    /// the balancers; counted as balance traffic.
    pub fn migrate_node(&mut self, label: &Key, to: &Key) -> Result<()> {
        // Unlike the other mutating entry points (whose emissions are
        // all reliable-class), a migration sends the faultable
        // `InvalidateCached` — it must enter through the fault layer or
        // a partition could never strand a stale shortcut.
        if self.faults.is_active() {
            let mut t = FaultyTransport::new(&mut self.sched, &mut self.faults);
            self.engine.migrate_shard_node(label, to, &mut t)?;
        } else {
            self.engine.migrate_shard_node(label, to, &mut self.sched)?;
        }
        self.drain()?;
        self.flush_replication()
    }

    /// Changes a peer's identifier in place (the MLT boundary move:
    /// "finding the best distribution is equivalent to find the best
    /// position of P moving along the ring"). Ring links of both
    /// neighbours and the directory entries of hosted nodes follow.
    pub fn rename_peer(&mut self, old: &Key, new: Key) -> Result<()> {
        if old == &new {
            return Ok(());
        }
        self.config.alphabet.validate(&new)?;
        self.engine.rename_shard(old, new)?;
        self.flush_replication()
    }

    // ------------------------------------------------------------------
    // Replication (extension over the paper — see `protocol::repair`)
    // ------------------------------------------------------------------

    /// One self-healing anti-entropy pass (`protocol::repair`): counts
    /// nodes whose live follower set is short of `min(k - 1, |P| - 1)`,
    /// garbage-collects stale copies, refreshes the follower
    /// bookkeeping, then kicks every peer with `SyncReplicas` so each
    /// re-clones its nodes along the ring. Run once per time unit to
    /// converge the overlay back to the replication invariant after
    /// crashes and leaves. No-op at `k = 1`.
    pub fn anti_entropy(&mut self) -> Result<AntiEntropyReport> {
        let (mut report, kicked) = self.engine.anti_entropy_scan(&mut self.sched);
        if !kicked {
            return Ok(report);
        }
        let before = self.engine.repl_stats.replication_messages;
        self.drain()?;
        report.messages_sent = (self.engine.repl_stats.replication_messages - before) as usize;
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Crash repair (extension over the paper)
    // ------------------------------------------------------------------

    /// Re-attaches subtrees orphaned by crashes and prunes dangling
    /// links. System-level surgery standing in for the re-registration
    /// traffic a deployment would see; see DESIGN.md.
    pub fn repair_tree(&mut self) -> RepairReport {
        let mut report = RepairReport::default();
        // 1. Prune children pointers to dead nodes.
        let live: std::collections::BTreeSet<Key> =
            self.engine.directory.labels().cloned().collect();
        let mut touched: Vec<Key> = Vec::new();
        for pid in self.engine.peer_ids() {
            let Some(shard) = self.engine.shard_mut(&pid) else {
                continue;
            };
            for node in shard.nodes.values_mut() {
                let before = node.children.len();
                node.children.retain(|c| live.contains(c));
                if node.children.len() < before {
                    touched.push(node.label.clone());
                }
                report.pruned_links += before - node.children.len();
            }
        }
        for label in touched {
            self.engine.mark_touched(&label);
        }
        // 2. Find orphans: nodes whose father is dead, plus a missing
        //    root.
        let mut orphans: Vec<Key> = Vec::new();
        let mut root: Option<Key> = None;
        for shard in self.engine.attached_shards() {
            for node in shard.nodes.values() {
                match &node.father {
                    None => root = Some(node.label.clone()),
                    Some(f) if !live.contains(f) => orphans.push(node.label.clone()),
                    Some(_) => {}
                }
            }
        }
        orphans.sort(); // lexicographic = ancestors first
        for o in orphans {
            match &root {
                None => {
                    self.set_father(&o, None);
                    root = Some(o);
                    report.reattached += 1;
                }
                Some(r) => {
                    let r = r.clone();
                    let created = self.reattach(&r, &o, &mut root);
                    report.created_nodes += created;
                    report.reattached += 1;
                }
            }
        }
        self.engine.root = root;
        self.engine.stats.nodes_reattached += report.reattached as u64;
        report
    }

    fn set_father(&mut self, label: &Key, father: Option<Key>) {
        let host = self
            .engine
            .directory
            .host_of(label)
            .expect("live node")
            .clone();
        let node = self
            .engine
            .shard_mut(&host)
            .expect("live")
            .nodes
            .get_mut(label)
            .expect("live");
        node.father = father;
        self.engine.mark_touched(label);
    }

    fn add_child(&mut self, parent: &Key, child: Key) {
        let host = self
            .engine
            .directory
            .host_of(parent)
            .expect("live node")
            .clone();
        let node = self
            .engine
            .shard_mut(&host)
            .expect("live")
            .nodes
            .get_mut(parent)
            .expect("live");
        node.children.insert(child);
        self.engine.mark_touched(parent);
    }

    fn replace_child_of(&mut self, parent: &Key, old: &Key, new: Key) {
        let host = self
            .engine
            .directory
            .host_of(parent)
            .expect("live node")
            .clone();
        let node = self
            .engine
            .shard_mut(&host)
            .expect("live")
            .nodes
            .get_mut(parent)
            .expect("live");
        node.replace_child(old, new);
        self.engine.mark_touched(parent);
    }

    /// Creates a structural node directly on its mapped host (repair
    /// path only).
    fn create_structural(&mut self, label: Key, father: Option<Key>, children: Vec<Key>) {
        let host = self
            .engine
            .host_peer(&label)
            .expect("non-empty ring")
            .clone();
        let mut node = NodeState::new(label.clone());
        node.father = father;
        node.children = children.into_iter().collect();
        self.engine.shard_mut(&host).expect("live").install(node);
        self.engine.mark_touched(&label);
        self.engine.directory.insert(label, host);
    }

    /// Walks from `root` and links the orphan `o` (whose own subtree is
    /// intact) back into the tree, mirroring the four insertion cases.
    /// Returns how many structural nodes were created.
    fn reattach(&mut self, root: &Key, o: &Key, root_slot: &mut Option<Key>) -> usize {
        let mut cur = root.clone();
        loop {
            let node = self.engine.node(&cur).expect("walk stays on live nodes");
            let label = node.label.clone();
            if &label == o {
                // The orphan *is* this label — can't happen (labels are
                // unique and o is unattached); treat as attached.
                return 0;
            }
            if label.is_proper_prefix_of(o) {
                match node.child_extending(o).cloned() {
                    Some(q) if q.is_proper_prefix_of(o) => {
                        cur = q;
                    }
                    Some(q) if o.is_proper_prefix_of(&q) => {
                        // o slots between label and q.
                        self.replace_child_of(&label, &q, o.clone());
                        self.set_father(&q, Some(o.clone()));
                        self.add_child(o, q);
                        self.set_father(o, Some(label));
                        return 0;
                    }
                    Some(q) => {
                        // Sibling split under a new structural node.
                        let g = q.gcp(o);
                        self.replace_child_of(&label, &q, g.clone());
                        self.set_father(&q, Some(g.clone()));
                        self.set_father(o, Some(g.clone()));
                        self.create_structural(g.clone(), Some(label), vec![q, o.clone()]);
                        return 1;
                    }
                    None => {
                        self.add_child(&label, o.clone());
                        self.set_father(o, Some(label));
                        return 0;
                    }
                }
            } else if o.is_proper_prefix_of(&label) {
                // Only at the root: o becomes the new root above it.
                self.set_father(&label, Some(o.clone()));
                self.add_child(o, label);
                self.set_father(o, None);
                *root_slot = Some(o.clone());
                return 0;
            } else {
                // Divergent at the root: new structural root.
                let g = label.gcp(o);
                self.set_father(&label, Some(g.clone()));
                self.set_father(o, Some(g.clone()));
                self.create_structural(g.clone(), None, vec![label, o.clone()]);
                *root_slot = Some(g);
                return 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // The pump
    // ------------------------------------------------------------------

    /// Sends the envelope that starts a client operation through the
    /// delay policy — not through the fault layer: a client's
    /// submission is reliable — runs it to quiescence and flushes
    /// replica maintenance, as every mutating operation does.
    fn submit(&mut self, env: Envelope) -> Result<()> {
        self.sched.deliver(env);
        self.drain()?;
        self.flush_replication()
    }

    fn recompute_root(&mut self) {
        let root = self
            .engine
            .attached_shards()
            .flat_map(|s| s.nodes.values())
            .find(|n| n.father.is_none())
            .map(|n| n.label.clone());
        self.engine.root = root;
    }

    /// Eager replica maintenance after a mutating operation: the
    /// engine enqueues the re-clone traffic, the queue drains it.
    /// No-op at `k = 1`.
    fn flush_replication(&mut self) -> Result<()> {
        self.engine.flush_replication(&mut self.sched);
        self.drain()
    }

    /// Processes the queue to quiescence through the engine's
    /// dispatch.
    fn drain(&mut self) -> Result<()> {
        let start = self.deliveries;
        loop {
            while let Some((requeues, env)) = self.sched.queue.pop() {
                self.deliveries += 1;
                if self.deliveries - start > self.config.drain_budget as u64 {
                    return Err(DlptError::HopBudgetExhausted {
                        budget: self.config.drain_budget,
                    });
                }
                let step = if self.faults.is_active() {
                    let mut t = FaultyTransport::new(&mut self.sched, &mut self.faults);
                    self.engine.deliver(&mut t, env)?
                } else {
                    self.engine.deliver(&mut self.sched, env)?
                };
                if let Step::Requeue(env) = step {
                    self.requeue(requeues, env)?;
                }
            }
            // Reorder-deferred envelopes are released at quiescence;
            // they may fan out further, so drain again until nothing
            // is held.
            if !self.faults.flush_deferred(&mut self.sched) {
                return Ok(());
            }
        }
    }

    fn requeue(&mut self, requeues: u32, env: Envelope) -> Result<()> {
        // A node seed in flight advances one ring hop per queue cycle
        // (`protocol::data_insertion::on_host`), so an envelope waiting
        // on that node can legitimately requeue O(ring) times before
        // its destination lands. Floor the configured budget at twice
        // the membership: the default stays tight on small rings while
        // large rings get the headroom the walk actually needs.
        let floor = (self.engine.peer_count() as u32).saturating_mul(2);
        if requeues >= self.config.requeue_budget.max(floor) {
            return self.engine.fail_undeliverable(env);
        }
        self.engine.stats.requeues += 1;
        // Zero delay: the back of the current tick, i.e. FIFO. Otherwise
        // one tick later; the message that creates the destination is
        // already in flight.
        let delay = u64::from(!self.sched.latency.is_zero());
        self.sched.queue.push_after(delay, (requeues + 1, env));
        Ok(())
    }

    /// Depth of every live node (root = 0); see [`Engine::depth_map`].
    pub fn depth_map(&self) -> BTreeMap<Key, u32> {
        self.engine.depth_map()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::replication::ReplicationStats;
    use crate::trie::PgcpTrie;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn small_system(peers: usize) -> DlptSystem {
        DlptSystem::builder()
            .seed(42)
            .peer_id_len(8)
            .bootstrap_peers(peers)
            .build()
    }

    const PAPER_KEYS: [&str; 4] = ["01", "10101", "10111", "101111"];

    fn binary_system(peers: usize, seed: u64) -> DlptSystem {
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::binary())
            .seed(seed)
            .peer_id_len(10)
            .bootstrap_peers(peers)
            .build();
        for s in PAPER_KEYS {
            sys.insert_data(k(s)).unwrap();
        }
        sys
    }

    #[test]
    fn requeue_budget_floors_at_ring_size() {
        // A sibling split sends the new common parent on an O(ring)
        // `on_host` walk while the sibling's `SearchingHost` requeues
        // against the not-yet-installed node. A fixed budget fails
        // that insert once the ring outgrows it (first caught by
        // `Engine::audit` at ~2000 peers with the default 256, as two
        // dangling trie pointers); the membership floor must absorb
        // the wait even when the configured budget is zero.
        let mut sys = DlptSystem::builder()
            .seed(7)
            .bootstrap_peers(24)
            .config(SystemConfig {
                alphabet: Alphabet::binary(),
                peer_id_len: 10,
                requeue_budget: 0,
                ..SystemConfig::default()
            })
            .build();
        for s in PAPER_KEYS {
            sys.insert_data(k(s)).unwrap();
        }
        assert!(
            sys.stats.requeues > 0,
            "scenario must exercise the requeue path"
        );
        assert!(sys.audit().is_empty());
    }

    #[test]
    fn bootstrap_builds_consistent_ring() {
        let sys = small_system(10);
        assert_eq!(sys.peer_count(), 10);
        sys.check_ring().unwrap();
    }

    #[test]
    fn paper_tree_matches_oracle() {
        let sys = binary_system(4, 7);
        let oracle = sys.oracle();
        assert_eq!(sys.node_labels(), oracle.labels());
        sys.check_tree().unwrap();
        sys.check_mapping().unwrap();
    }

    #[test]
    fn insertion_is_order_invariant_across_entries() {
        // Same keys, different seeds (=> different entry nodes) must
        // converge to the same tree.
        let reference = binary_system(4, 1).node_labels();
        for seed in 2..10 {
            let sys = binary_system(4, seed);
            assert_eq!(sys.node_labels(), reference, "seed {seed}");
            sys.check_tree().unwrap();
            sys.check_mapping().unwrap();
        }
    }

    #[test]
    fn lookup_finds_registered_keys() {
        let mut sys = binary_system(4, 7);
        for s in PAPER_KEYS {
            let out = sys.lookup(&k(s));
            assert!(out.satisfied, "{s}");
            assert_eq!(out.results, vec![k(s)]);
            assert!(out.logical_hops() < 12);
        }
        let out = sys.lookup(&k("11"));
        assert!(!out.satisfied);
        assert!(out.results.is_empty());
    }

    #[test]
    fn range_and_completion_work_end_to_end() {
        let mut sys = binary_system(4, 7);
        let out = sys.range(&k("10"), &k("10111"));
        assert!(out.satisfied);
        assert_eq!(out.results, vec![k("10101"), k("10111")]);
        let out = sys.complete(&k("101"));
        assert!(out.satisfied);
        assert_eq!(out.results, vec![k("10101"), k("10111"), k("101111")]);
    }

    #[test]
    fn peers_join_after_data_exists() {
        let mut sys = binary_system(3, 7);
        for _ in 0..5 {
            sys.add_peer(100).unwrap();
        }
        sys.check_ring().unwrap();
        sys.check_mapping().unwrap();
        sys.check_tree().unwrap();
        assert_eq!(sys.peer_count(), 8);
    }

    #[test]
    fn graceful_leave_preserves_everything() {
        let mut sys = binary_system(6, 7);
        let victims: Vec<Key> = sys.peer_ids().into_iter().take(3).collect();
        for v in victims {
            sys.leave_peer(&v).unwrap();
            sys.check_ring().unwrap();
            sys.check_mapping().unwrap();
            sys.check_tree().unwrap();
        }
        assert_eq!(sys.peer_count(), 3);
        let mut sys2 = sys;
        for s in PAPER_KEYS {
            assert!(sys2.lookup(&k(s)).satisfied, "{s}");
        }
    }

    #[test]
    fn reinserting_every_key_from_random_entries_is_idempotent() {
        // Regression for the father == key corruption: re-registering
        // an existing key entering at an arbitrary node must route to
        // the existing node, not seed a duplicate.
        let mut sys = small_system(6);
        let names: Vec<String> = (0..30).map(|i| format!("PDGEL{i:02}")).collect();
        for n in &names {
            sys.insert_data(k(n)).unwrap();
        }
        let labels = sys.node_labels();
        for _ in 0..4 {
            for n in &names {
                sys.insert_data(k(n)).unwrap();
            }
        }
        assert_eq!(sys.node_labels(), labels);
        sys.check_tree().unwrap();
        sys.check_mapping().unwrap();
        // No node may ever be its own father.
        for l in sys.node_labels() {
            let node = sys.node(&l).unwrap();
            assert_ne!(node.father.as_ref(), Some(&l), "{l} is its own father");
        }
    }

    #[test]
    fn removal_converges_to_oracle_of_remaining_keys() {
        let mut sys = binary_system(4, 61);
        // Remove two of the paper keys; the overlay must equal the
        // oracle built from the remaining two.
        sys.remove_data(&k("10101")).unwrap();
        sys.remove_data(&k("101111")).unwrap();
        sys.check_tree().unwrap();
        sys.check_mapping().unwrap();
        assert_eq!(sys.node_labels(), sys.oracle().labels());
        assert!(!sys.lookup(&k("10101")).found);
        assert!(sys.lookup(&k("10111")).satisfied);
        assert!(sys.lookup(&k("01")).satisfied);
        // Removing an absent key is a no-op.
        let labels = sys.node_labels();
        sys.remove_data(&k("111")).unwrap();
        assert_eq!(sys.node_labels(), labels);
    }

    #[test]
    fn removing_everything_empties_the_tree() {
        let mut sys = binary_system(3, 67);
        for s in PAPER_KEYS {
            sys.remove_data(&k(s)).unwrap();
        }
        assert_eq!(sys.node_count(), 0);
        assert!(sys.root().is_none());
        // The overlay still works afterwards.
        sys.insert_data(k("1100")).unwrap();
        assert!(sys.lookup(&k("1100")).satisfied);
        assert_eq!(sys.root(), Some(&k("1100")));
    }

    #[test]
    fn insert_remove_interleaving_tracks_oracle() {
        let mut sys = small_system(5);
        let names: Vec<Key> = (0..24).map(|i| k(&format!("SVC{:02}", i))).collect();
        let mut live = std::collections::BTreeSet::new();
        for round in 0..3 {
            for (i, n) in names.iter().enumerate() {
                if (i + round) % 3 == 0 {
                    sys.insert_data(n.clone()).unwrap();
                    live.insert(n.clone());
                } else if live.contains(n) {
                    sys.remove_data(n).unwrap();
                    live.remove(n);
                }
            }
            sys.check_tree().unwrap();
            sys.check_mapping().unwrap();
            let mut oracle = PgcpTrie::new();
            for n in &live {
                oracle.insert(n.clone());
            }
            assert_eq!(sys.node_labels(), oracle.labels(), "round {round}");
        }
    }

    #[test]
    fn grid_names_register_and_resolve() {
        let mut sys = small_system(6);
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_mat_mult", "PSGESV"] {
            sys.insert_data(k(name)).unwrap();
        }
        sys.check_tree().unwrap();
        sys.check_mapping().unwrap();
        assert_eq!(sys.node_labels(), sys.oracle().labels());
        let out = sys.complete(&k("DGE"));
        assert_eq!(out.results, vec![k("DGEMM"), k("DGEMV")]);
    }

    #[test]
    fn capacity_exhaustion_drops_requests() {
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .default_capacity(2)
            .bootstrap_peers(1)
            .build();
        sys.insert_data(k("DGEMM")).unwrap();
        // Two visits fit (single-node tree → 1 visit per lookup).
        assert!(sys.lookup(&k("DGEMM")).satisfied);
        assert!(sys.lookup(&k("DGEMM")).satisfied);
        let out = sys.lookup(&k("DGEMM"));
        assert!(out.dropped);
        assert!(!out.satisfied);
        // New unit: capacity refreshes, demand was recorded.
        sys.end_time_unit();
        assert_eq!(sys.node(&k("DGEMM")).unwrap().prev_load, 3);
        assert!(sys.lookup(&k("DGEMM")).satisfied);
    }

    #[test]
    fn gather_under_capacity_pressure_keeps_surviving_results() {
        // Regression: the scatter partial of a node must be processed
        // before any of its branch visits can be refused, or a
        // synchronous capacity drop on one branch finalizes the
        // aggregation early and every surviving branch's results are
        // discarded as stale. One peer, capacity 3, three keys: the
        // completion visits root + 3 children = 4 > 3, so exactly one
        // branch drops — the other results must survive.
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .default_capacity(3)
            .bootstrap_peers(1)
            .build();
        for s in ["DGEMM", "DGEMV", "DTRSM"] {
            sys.insert_data(k(s)).unwrap();
        }
        sys.end_time_unit(); // reset capacity spent during construction
        let out = sys.complete(&k("D"));
        assert!(out.dropped, "some visit must exceed capacity 3");
        assert!(!out.satisfied, "a dropped visit forfeits satisfaction");
        // The buggy ordering finalized the request on the first drop
        // and threw every surviving partial away (results == []).
        assert!(
            out.found && !out.results.is_empty(),
            "surviving branches' keys must be reported: {out:?}"
        );
        assert_eq!(out.results, vec![k("DTRSM")], "pre-refactor behaviour");
    }

    #[test]
    fn rename_peer_keeps_invariants() {
        let mut sys = binary_system(4, 11);
        let ids = sys.peer_ids();
        let victim = ids[1].clone();
        // Rename to an id still inside (pred, victim]'s arc-safe zone:
        // use a node label hosted by the victim if any, else skip.
        let shard = sys.shard(&victim).unwrap();
        if let Some(node_label) = shard.nodes.keys().next_back().cloned() {
            sys.rename_peer(&victim, node_label.clone()).unwrap();
            assert!(sys.shard(&node_label).is_some());
            sys.check_ring().unwrap();
            sys.check_mapping().unwrap();
        }
    }

    #[test]
    fn crash_and_repair_restores_tree_shape() {
        let mut sys = binary_system(5, 13);
        let loaded: Vec<Key> = sys
            .peer_ids()
            .into_iter()
            .filter(|p| sys.shard(p).map(|s| s.node_count() > 0).unwrap_or(false))
            .collect();
        let victim = loaded[0].clone();
        let lost = sys.crash_peer(&victim).unwrap();
        assert!(!lost.is_empty());
        sys.repair_tree();
        sys.check_tree().unwrap();
        sys.check_ring().unwrap();
        // Lost keys can be re-registered and found again.
        let mut sys2 = sys;
        for l in &lost {
            // Only data keys need re-registration (structural labels
            // reappear on their own as needed).
            sys2.insert_data(l.clone()).unwrap();
        }
        sys2.check_tree().unwrap();
        for s in PAPER_KEYS {
            assert!(sys2.lookup(&k(s)).satisfied, "{s}");
        }
    }

    #[test]
    fn migrate_node_moves_and_counts() {
        let mut sys = binary_system(4, 17);
        let label = sys.node_labels()[0].clone();
        let from = sys.host_of(&label).unwrap().clone();
        let to = sys
            .peer_ids()
            .into_iter()
            .find(|p| *p != from)
            .expect("more than one peer");
        sys.migrate_node(&label, &to).unwrap();
        assert_eq!(sys.host_of(&label), Some(&to));
        assert_eq!(sys.stats.balance_migrations, 1);
        // Mapping is now intentionally violated (that is what the
        // balancers repair by renaming); the node is still reachable.
        let out = sys.lookup(&k("10101"));
        assert!(out.satisfied);
    }

    #[test]
    fn hop_accounting_matches_oracle_depth() {
        let mut sys = binary_system(3, 19);
        let out = sys.lookup(&k("101111"));
        assert!(out.satisfied);
        assert_eq!(out.path.len(), out.host_path.len());
        assert!(out.physical_hops() <= out.logical_hops());
    }

    #[test]
    fn empty_states_error_cleanly() {
        let mut sys = DlptSystem::builder().build();
        assert!(matches!(
            sys.insert_data(k("DGEMM")),
            Err(DlptError::EmptyRing)
        ));
        assert!(matches!(
            sys.request(QueryKind::Exact(k("DGEMM"))),
            Err(DlptError::EmptyTree)
        ));
        sys.add_peer(10).unwrap();
        assert!(matches!(
            sys.request(QueryKind::Exact(k("DGEMM"))),
            Err(DlptError::EmptyTree)
        ));
    }

    #[test]
    fn duplicate_peer_rejected() {
        let mut sys = small_system(2);
        let id = sys.peer_ids()[0].clone();
        assert!(matches!(
            sys.add_peer_with_id(id, 5),
            Err(DlptError::DuplicatePeer(_))
        ));
    }

    #[test]
    fn last_peer_leaving_empties_the_overlay() {
        let mut sys = small_system(1);
        sys.insert_data(k("DGEMM")).unwrap();
        let id = sys.peer_ids()[0].clone();
        sys.leave_peer(&id).unwrap();
        assert_eq!(sys.peer_count(), 0);
        assert_eq!(sys.node_count(), 0);
        assert!(sys.root().is_none());
    }

    fn replicated_system(peers: usize, k: usize, seed: u64) -> DlptSystem {
        let mut sys = DlptSystem::builder()
            .seed(seed)
            .peer_id_len(8)
            .replication(k)
            .bootstrap_peers(peers)
            .build();
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort", "PSGESV"] {
            sys.insert_data(k_(name)).unwrap();
        }
        sys
    }

    fn k_(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn eager_replication_satisfies_invariant_without_anti_entropy() {
        let sys = replicated_system(6, 2, 71);
        sys.check_replication().unwrap();
        sys.check_tree().unwrap();
        sys.check_mapping().unwrap();
        for label in sys.node_labels() {
            let hosts = sys.replica_hosts(&label);
            assert_eq!(hosts.len(), 2, "{label}: {hosts:?}");
            assert_ne!(hosts[0], hosts[1]);
        }
        assert!(sys.repl_stats.eager_syncs > 0);
        assert!(sys.repl_stats.replication_messages > 0);
        // Replication stays out of the protocol counters.
        let baseline = replicated_system(6, 1, 71);
        assert_eq!(sys.stats, baseline.stats, "SystemStats must not see k");
    }

    #[test]
    fn k1_is_observationally_identical_to_unreplicated() {
        let a = replicated_system(5, 1, 13);
        let b = {
            let mut sys = DlptSystem::builder()
                .seed(13)
                .peer_id_len(8)
                .bootstrap_peers(5)
                .build();
            for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort", "PSGESV"] {
                sys.insert_data(k_(name)).unwrap();
            }
            sys
        };
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.peer_ids(), b.peer_ids());
        assert_eq!(a.node_labels(), b.node_labels());
        assert_eq!(a.repl_stats, ReplicationStats::default());
    }

    #[test]
    fn crash_with_replication_loses_nothing() {
        let mut sys = replicated_system(6, 2, 29);
        let keys = sys.registered_keys();
        let victim = sys
            .peer_ids()
            .into_iter()
            .max_by_key(|p| sys.shard(p).map(|s| s.node_count()).unwrap_or(0))
            .unwrap();
        assert!(sys.shard(&victim).unwrap().node_count() > 0);
        let lost = sys.crash_peer(&victim).unwrap();
        assert!(lost.is_empty(), "every node had a follower: {lost:?}");
        assert!(sys.repl_stats.promotions > 0);
        sys.repair_tree();
        sys.check_tree().unwrap();
        sys.check_mapping().unwrap();
        sys.check_ring().unwrap();
        for key in &keys {
            assert!(sys.lookup(key).satisfied, "{key}");
        }
        // Anti-entropy restores full redundancy after the promotion.
        let report = sys.anti_entropy().unwrap();
        assert!(report.under_replicated > 0, "promotions left k-1 gaps");
        sys.check_replication().unwrap();
        let report = sys.anti_entropy().unwrap();
        assert_eq!(report.under_replicated, 0, "second pass finds it healed");
    }

    #[test]
    fn anti_entropy_heals_a_crashed_follower() {
        let mut sys = replicated_system(6, 3, 31);
        sys.check_replication().unwrap();
        // Crash a peer that only *follows* some label.
        let label = sys.node_labels()[0].clone();
        let follower = sys.replica_hosts(&label)[1].clone();
        sys.crash_peer(&follower).unwrap();
        sys.repair_tree();
        sys.anti_entropy().unwrap();
        sys.check_replication().unwrap();
        assert_eq!(
            sys.replica_hosts(&label).len(),
            3.min(sys.peer_count()),
            "follower set refilled"
        );
    }

    #[test]
    fn replica_gc_follows_data_removal() {
        let mut sys = replicated_system(5, 2, 37);
        sys.remove_data(&k_("DGEMM")).unwrap();
        sys.anti_entropy().unwrap();
        // No peer may hold a copy of a label the tree no longer has.
        let live: std::collections::BTreeSet<Key> = sys.node_labels().into_iter().collect();
        for id in sys.peer_ids() {
            for rl in sys.shard(&id).unwrap().replicas.keys() {
                assert!(live.contains(rl), "stale replica {rl} on {id}");
            }
        }
        sys.check_replication().unwrap();
    }

    #[test]
    fn capacity_failover_serves_reads_from_followers() {
        // One key on a 2-peer ring, primary capacity 1: the second
        // lookup visit would be dropped at k=1 but is served by the
        // follower copy at k=2.
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .default_capacity(2)
            .replication(2)
            .bootstrap_peers(2)
            .build();
        sys.insert_data(k_("DGEMM")).unwrap();
        sys.end_time_unit();
        let mut served = 0;
        for _ in 0..4 {
            if sys.lookup(&k_("DGEMM")).satisfied {
                served += 1;
            }
        }
        assert!(
            sys.repl_stats.failover_reads > 0,
            "follower must absorb overflow"
        );
        assert!(served > 2, "failover must lift satisfied beyond capacity");
    }

    #[test]
    fn graceful_leave_keeps_replication_invariant_after_anti_entropy() {
        let mut sys = replicated_system(6, 2, 41);
        let victim = sys.peer_ids()[2].clone();
        sys.leave_peer(&victim).unwrap();
        sys.anti_entropy().unwrap();
        sys.check_replication().unwrap();
        sys.check_tree().unwrap();
        sys.check_mapping().unwrap();
    }

    fn cached_system(peers: usize, capacity: usize, seed: u64) -> DlptSystem {
        let mut sys = DlptSystem::builder()
            .seed(seed)
            .peer_id_len(8)
            .cache_capacity(capacity)
            .bootstrap_peers(peers)
            .build();
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort", "PSGESV"] {
            sys.insert_data(k(name)).unwrap();
        }
        sys
    }

    #[test]
    fn cache_learns_then_hits_with_one_hop_route() {
        let mut sys = cached_system(6, 32, 91);
        let key = k("DGEMM");
        let first = sys.lookup(&key);
        assert!(first.satisfied);
        assert_eq!(sys.cache_stats.learned, 1);
        assert_eq!(sys.cache_stats.hits, 0);
        // Hammer the same key until a request enters at a peer that
        // has learned the shortcut (entry nodes are random).
        let mut hit_outcome = None;
        for _ in 0..64 {
            let before = sys.cache_stats.hits;
            let out = sys.lookup(&key);
            assert!(out.satisfied);
            assert_eq!(out.results, vec![key.clone()]);
            if sys.cache_stats.hits > before {
                hit_outcome = Some(out);
                break;
            }
        }
        let out = hit_outcome.expect("some lookup must hit the cache");
        assert_eq!(out.path, vec![key.clone()], "one-hop cached route");
        assert_eq!(out.logical_hops(), 0);
    }

    #[test]
    fn stale_hit_falls_back_and_relearns_after_migration() {
        let mut sys = cached_system(6, 32, 17);
        let key = k("S3L_fft");
        // Warm every peer's cache.
        for _ in 0..64 {
            assert!(sys.lookup(&key).satisfied);
        }
        assert!(sys.cache_stats.hits > 0, "cache must be warm");
        // Migrate the key's node: epochs advance, eager invalidation
        // broadcasts, and any shortcut that survives (it should not —
        // but the lazy check is the backstop) is stale.
        let from = sys.host_of(&key).unwrap().clone();
        let to = sys
            .peer_ids()
            .into_iter()
            .find(|p| *p != from)
            .expect("second peer");
        sys.migrate_node(&key, &to).unwrap();
        assert!(sys.cache_stats.invalidations_sent > 0);
        assert!(sys.cache_stats.invalidations_delivered > 0);
        // Every subsequent lookup still answers correctly.
        for _ in 0..32 {
            let out = sys.lookup(&key);
            assert!(out.satisfied);
            assert_eq!(out.results, vec![key.clone()]);
        }
    }

    #[test]
    fn removed_key_is_not_found_through_a_warm_cache() {
        let mut sys = cached_system(5, 32, 23);
        let key = k("DTRSM");
        for _ in 0..48 {
            assert!(sys.lookup(&key).satisfied);
        }
        assert!(sys.cache_stats.hits > 0);
        sys.remove_data(&key).unwrap();
        for _ in 0..24 {
            let out = sys.lookup(&key);
            assert!(!out.found, "cache must never resurrect a removed key");
            assert!(out.results.is_empty());
        }
        // Other keys stay correct.
        assert!(sys.lookup(&k("DGEMM")).satisfied);
    }

    #[test]
    fn cache_off_is_observationally_identical_and_counts_nothing() {
        let a = cached_system(5, 0, 13);
        let b = {
            let mut sys = DlptSystem::builder()
                .seed(13)
                .peer_id_len(8)
                .bootstrap_peers(5)
                .build();
            for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort", "PSGESV"] {
                sys.insert_data(k(name)).unwrap();
            }
            sys
        };
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.peer_ids(), b.peer_ids());
        assert_eq!(a.node_labels(), b.node_labels());
        assert_eq!(a.cache_stats, CacheStats::default());
    }

    #[test]
    fn cached_hits_relieve_capacity_pressure() {
        // One peer, capacity 4, one key at depth 0: uncached lookups
        // cost one visit each anyway, so use a multi-node tree where
        // the up/down route costs several visits and hits cost one.
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .default_capacity(1_000)
            .cache_capacity(16)
            .bootstrap_peers(1)
            .build();
        for s in ["DGEMM", "DGEMV", "DGEX"] {
            sys.insert_data(k(s)).unwrap();
        }
        sys.end_time_unit();
        let key = k("DGEMM");
        // Learn.
        assert!(sys.lookup(&key).satisfied);
        let uncached_visits = sys.stats.discovery_messages;
        // Hit: exactly one more visit.
        assert!(sys.lookup(&key).satisfied);
        assert_eq!(sys.cache_stats.hits, 1);
        assert_eq!(
            sys.stats.discovery_messages,
            uncached_visits + 1,
            "a cached route must cost exactly one visit"
        );
    }

    #[test]
    fn depth_map_matches_father_chains() {
        let sys = binary_system(4, 7);
        let depths = sys.depth_map();
        assert_eq!(depths.len(), sys.node_count());
        for (label, d) in &depths {
            let mut cur = label.clone();
            let mut walked = 0u32;
            while let Some(f) = sys.node(&cur).unwrap().father.clone() {
                walked += 1;
                cur = f;
            }
            assert_eq!(walked, *d, "{label}");
        }
        assert_eq!(depths.values().filter(|d| **d == 0).count(), 1, "one root");
    }

    #[test]
    fn stats_count_messages() {
        let mut sys = binary_system(4, 23);
        assert!(sys.stats.join_messages > 0);
        assert!(sys.stats.insert_messages > 0);
        assert!(sys.stats.host_messages > 0);
        sys.lookup(&k("10101"));
        assert!(sys.stats.discovery_messages > 0);
    }

    #[test]
    fn many_keys_many_peers_converge_to_oracle() {
        let mut sys = DlptSystem::builder()
            .seed(29)
            .peer_id_len(8)
            .bootstrap_peers(12)
            .build();
        let names: Vec<String> = ["DGEMM", "DGEMV", "DTRSM", "DTRMM", "SGEMM", "SGEMV"]
            .iter()
            .map(|s| s.to_string())
            .chain((0..40).map(|i| format!("S3L_op_{i:02}")))
            .chain((0..40).map(|i| format!("PSROUTINE{i:02}")))
            .collect();
        for n in &names {
            sys.insert_data(k(n)).unwrap();
        }
        assert_eq!(sys.node_labels(), sys.oracle().labels());
        sys.check_tree().unwrap();
        sys.check_mapping().unwrap();
        for n in &names {
            assert!(sys.lookup(&k(n)).satisfied, "{n}");
        }
        let out = sys.complete(&k("S3L"));
        assert_eq!(out.results.len(), 40);
    }

    /// Duplicated discovery traffic changes nothing a client sees.
    /// Requests are judged only once the queue drains, so every
    /// duplicate response reaches the aggregation's idempotency filter
    /// and is counted there, instead of arriving after an eager
    /// verdict and being dropped unseen as stale.
    #[test]
    fn duplicated_responses_are_suppressed_and_outcomes_match_a_fault_free_run() {
        let queries = || {
            let mut qs: Vec<QueryKind> = ["DGEMM", "DTRSM", "S3L_fft", "PSGESV", "ZTRSM"]
                .into_iter()
                .map(|n| QueryKind::Exact(k(n)))
                .collect();
            qs.push(QueryKind::Complete(k("D")));
            qs.push(QueryKind::Complete(k("S3L")));
            qs.push(QueryKind::Range(k("D"), k("T")));
            let once = qs.clone();
            for _ in 0..3 {
                qs.extend(once.iter().cloned());
            }
            qs
        };
        let run = |plan: Option<FaultPlan>| {
            let mut sys = DlptSystem::builder()
                .seed(5)
                .peer_id_len(8)
                .bootstrap_peers(8)
                .build();
            for n in [
                "DGEMM", "DGEMV", "DTRSM", "DTRMM", "S3L_fft", "S3L_sort", "PSGESV", "ZTRSM",
            ] {
                sys.insert_data(k(n)).unwrap();
            }
            if let Some(plan) = plan {
                sys.set_fault_plan(plan);
            }
            let outs: Vec<LookupOutcome> = queries()
                .into_iter()
                .map(|q| sys.request(q).unwrap())
                .collect();
            (outs, sys.fault_stats())
        };
        let (clean, _) = run(None);
        let (dup, stats) = run(Some(FaultPlan {
            dup_rate: 0.3,
            seed: 9,
            ..FaultPlan::default()
        }));
        assert!(clean.iter().all(|o| o.satisfied));
        assert!(stats.duplicated > 0, "{stats:?}");
        assert!(stats.duplicates_suppressed > 0, "{stats:?}");
        assert_eq!(stats.retries, 0, "duplication loses nothing: {stats:?}");
        // `gather_visits` is left out: gather-branch reports carry an
        // empty path, so two result-less branches with equal fan-out
        // share an idempotency digest and the filter also suppresses
        // the second (a known undercount of the digest, not of the
        // completion rule).
        let seen = |outs: &[LookupOutcome]| -> Vec<_> {
            outs.iter()
                .map(|o| (o.satisfied, o.dropped, o.results.clone(), o.path.clone()))
                .collect()
        };
        assert_eq!(seen(&dup), seen(&clean));
    }
}
