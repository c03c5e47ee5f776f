//! Message-level simulation with randomized latencies.
//!
//! [`LatencyNet`] is [`DlptSystem`] with a non-zero delay policy
//! ([`LatencyModel`]): every envelope is delivered after a delay
//! sampled from the system RNG, so messages from one operation
//! interleave in arbitrary order while dispatch, effects, capacity
//! charging, replication and cache invalidation run through exactly
//! the same engine, drain loop and request-retry loop as the
//! synchronous pump. The protocol is supposed to converge to the same
//! tree regardless of delivery order — the tests here check exactly
//! that, against the sequential oracle.
//!
//! This facade only keeps the simulator's own API: peers join under
//! explicit identifiers with effectively unbounded capacity, the
//! first registration travels as a `Host` seed through the ring
//! ([`Engine::insert_envelope`]), queries answer `(found, results)`,
//! and [`LatencyNet::deliveries`] counts queue pops.

use dlpt_core::engine::Engine;
use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::system::{DlptSystem, SystemConfig};
use dlpt_core::transport::{FaultPlan, FaultStats};

pub use dlpt_core::event::LatencyModel;

/// How many times one envelope may be requeued while its destination
/// is in flight (floored at twice the ring size, as in every
/// configuration). Sampled delays stretch the wait for a destination
/// far beyond the zero-delay default.
const REQUEUE_BUDGET: u32 = 4096;

/// The latency-simulating runtime. Dereferences to the underlying
/// [`Engine`] for introspection, invariant checks and the
/// `cache_stats` / `repl_stats` counters.
#[derive(Debug)]
pub struct LatencyNet {
    sys: DlptSystem,
    /// Messages delivered so far (see [`DlptSystem::deliveries`]).
    pub deliveries: u64,
}

impl std::ops::Deref for LatencyNet {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.sys
    }
}

impl std::ops::DerefMut for LatencyNet {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.sys
    }
}

impl LatencyNet {
    /// An empty network.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        let config = SystemConfig {
            latency,
            requeue_budget: REQUEUE_BUDGET,
            ..SystemConfig::default()
        };
        LatencyNet {
            sys: DlptSystem::new(config, seed),
            deliveries: 0,
        }
    }

    /// Runs one operation on the system, then refreshes
    /// [`LatencyNet::deliveries`].
    fn run<R>(&mut self, op: impl FnOnce(&mut DlptSystem) -> R) -> R {
        let out = op(&mut self.sys);
        self.deliveries = self.sys.deliveries();
        out
    }

    /// Installs a fault plan, resetting the fault RNG, counters and
    /// partition. The default plan is fully inert.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.sys.set_fault_plan(plan);
    }

    /// Severs the lexicographic key range `[lo, hi)` for faultable
    /// traffic until [`LatencyNet::heal_partition`].
    pub fn partition(&mut self, lo: Key, hi: Key) {
        self.sys.partition(lo, hi);
    }

    /// Heals a partition installed by [`LatencyNet::partition`].
    pub fn heal_partition(&mut self) {
        self.sys.heal_partition();
    }

    /// Combined fault counters: transport-level draws plus the
    /// engine's suppressed duplicates.
    pub fn fault_stats(&self) -> FaultStats {
        self.sys.fault_stats()
    }

    /// Adds a peer, routing the join through the tree, and runs the
    /// network to quiescence.
    pub fn add_peer(&mut self, id: Key) {
        self.run(|sys| sys.add_peer_with_id(id, u32::MAX >> 1))
            .expect("peer joins under a fresh, valid identifier");
    }

    /// Registers a key and runs to quiescence. The first key enters as
    /// a `Host` seed walking the ring to its mapped peer.
    pub fn insert_data(&mut self, key: Key) {
        assert!(self.sys.peer_count() > 0, "need at least one peer");
        self.run(|sys| sys.insert_data_routed(key))
            .expect("registration reaches quiescence");
    }

    /// Deregisters a key and runs to quiescence.
    pub fn remove_data(&mut self, key: &Key) {
        if self.sys.peer_count() > 0 {
            self.run(|sys| sys.remove_data(key))
                .expect("removal reaches quiescence");
        }
    }

    /// Exact lookup; returns `(found, results)`.
    pub fn lookup(&mut self, key: &Key) -> (bool, Vec<Key>) {
        self.request(QueryKind::Exact(key.clone()))
    }

    /// Range query.
    pub fn range(&mut self, lo: &Key, hi: &Key) -> (bool, Vec<Key>) {
        self.request(QueryKind::Range(lo.clone(), hi.clone()))
    }

    /// Completion query.
    pub fn complete(&mut self, prefix: &Key) -> (bool, Vec<Key>) {
        self.request(QueryKind::Complete(prefix.clone()))
    }

    fn request(&mut self, query: QueryKind) -> (bool, Vec<Key>) {
        match self.run(|sys| sys.request(query)) {
            Ok(out) => (out.satisfied, out.results),
            Err(_) => (false, Vec::new()),
        }
    }

    /// One anti-entropy pass (`protocol::repair`) under latency: the
    /// `Replicate` walks interleave arbitrarily with each other. Runs
    /// to quiescence. No-op at `k = 1`.
    pub fn anti_entropy(&mut self) {
        self.run(|sys| sys.anti_entropy())
            .expect("anti-entropy reaches quiescence");
    }

    /// Non-graceful departure: the peer vanishes with its state; the
    /// ring heals and every node it ran fails over to a surviving
    /// follower copy where one exists. Returns the labels actually
    /// lost. Run [`LatencyNet::anti_entropy`] beforehand (for fresh
    /// copies) and afterwards (to restore `k`).
    pub fn crash_peer(&mut self, id: &Key) -> Vec<Key> {
        self.sys.crash_peer(id).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpt_core::alphabet::Alphabet;
    use dlpt_core::cache::CacheStats;
    use dlpt_core::trie::PgcpTrie;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(latency: LatencyModel, seed: u64, peers: usize, keys: &[&str]) -> LatencyNet {
        let mut net = LatencyNet::new(latency, seed);
        let alphabet = Alphabet::grid();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        for _ in 0..peers {
            loop {
                let id = alphabet.random_id(&mut rng, 10);
                if !net.contains_peer(&id) {
                    net.add_peer(id);
                    break;
                }
            }
        }
        for k in keys {
            net.insert_data(Key::from(*k));
        }
        net
    }

    const KEYS: [&str; 10] = [
        "DGEMM", "DGEMV", "DTRSM", "DTRMM", "SGEMM", "S3L_fft", "S3L_sort", "PSGESV", "PDGEMM",
        "ZTRSM",
    ];

    #[test]
    fn converges_to_oracle_under_uniform_latency() {
        let mut oracle = PgcpTrie::new();
        for k in KEYS {
            oracle.insert(Key::from(k));
        }
        for seed in 0..8 {
            let net = build(LatencyModel::Uniform(1, 50), seed, 8, &KEYS);
            assert_eq!(
                net.node_labels(),
                oracle.labels(),
                "seed {seed}: async construction must match the oracle"
            );
            net.check_tree().unwrap();
            net.check_mapping().unwrap();
        }
    }

    #[test]
    fn constant_latency_matches_uniform_result() {
        let a = build(LatencyModel::Constant(1), 3, 6, &KEYS);
        let b = build(LatencyModel::Uniform(1, 100), 3, 6, &KEYS);
        assert_eq!(a.node_labels(), b.node_labels());
        assert_eq!(a.registered_keys(), b.registered_keys());
    }

    #[test]
    fn lookups_work_after_async_construction() {
        let mut net = build(LatencyModel::Uniform(1, 30), 11, 10, &KEYS);
        for k in KEYS {
            let (found, results) = net.lookup(&Key::from(k));
            assert!(found, "{k}");
            assert_eq!(results, vec![Key::from(k)]);
        }
        let (found, _) = net.lookup(&Key::from("MISSING"));
        assert!(!found);
    }

    #[test]
    fn range_and_completion_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 30), 13, 6, &KEYS);
        let (ok, results) = net.complete(&Key::from("S3L"));
        assert!(ok);
        assert_eq!(results, vec![Key::from("S3L_fft"), Key::from("S3L_sort")]);
        let (ok, results) = net.range(&Key::from("D"), &Key::from("E"));
        assert!(ok);
        assert_eq!(results.len(), 4, "{results:?}");
    }

    #[test]
    fn peers_joining_after_data_keep_invariants() {
        let mut net = build(LatencyModel::Uniform(1, 40), 17, 4, &KEYS);
        let alphabet = Alphabet::grid();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..6 {
            loop {
                let id = alphabet.random_id(&mut rng, 10);
                if !net.contains_peer(&id) {
                    net.add_peer(id);
                    break;
                }
            }
            net.check_mapping().unwrap();
            net.check_tree().unwrap();
        }
        assert_eq!(net.peer_count(), 10);
    }

    #[test]
    fn deliveries_are_counted() {
        let net = build(LatencyModel::Constant(1), 19, 4, &KEYS[..4]);
        assert!(net.deliveries > 10);
    }

    #[test]
    fn anti_entropy_replicates_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 40), 23, 6, &KEYS);
        net.set_replication(3);
        net.anti_entropy();
        for label in net.node_labels() {
            let hosts = net.replica_hosts(&label);
            assert_eq!(hosts.len(), 3, "{label}: {hosts:?}");
            let distinct: std::collections::BTreeSet<&Key> = hosts.iter().collect();
            assert_eq!(distinct.len(), 3);
        }
    }

    #[test]
    fn crash_with_replicas_loses_nothing_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 25), 29, 7, &KEYS);
        net.set_replication(2);
        net.anti_entropy();
        // Crash the most loaded peer.
        let victim = net
            .shards()
            .max_by_key(|(_, s)| s.node_count())
            .map(|(id, _)| id.clone())
            .unwrap();
        let lost = net.crash_peer(&victim);
        assert!(lost.is_empty(), "{lost:?}");
        net.check_tree().unwrap();
        net.check_mapping().unwrap();
        for k in KEYS {
            let (found, _) = net.lookup(&Key::from(k));
            assert!(found, "{k}");
        }
        // A second pass restores full redundancy.
        net.anti_entropy();
        for label in net.node_labels() {
            assert_eq!(net.replica_hosts(&label).len(), 2, "{label}");
        }
    }

    #[test]
    fn cached_lookups_hit_and_stay_correct_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 40), 37, 8, &KEYS);
        net.set_cache_capacity(32);
        for _ in 0..6 {
            for k in KEYS {
                let (found, results) = net.lookup(&Key::from(k));
                assert!(found, "{k}");
                assert_eq!(results, vec![Key::from(k)]);
            }
        }
        assert!(net.cache_stats.learned > 0);
        assert!(
            net.cache_stats.hits > 0,
            "repeated lookups must hit: {:?}",
            net.cache_stats
        );
        // Misses still resolve correctly.
        let (found, _) = net.lookup(&Key::from("ABSENT"));
        assert!(!found);
    }

    #[test]
    fn removal_invalidates_cached_routes_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 30), 41, 6, &KEYS);
        net.set_cache_capacity(32);
        let victim = Key::from("DGEMM");
        for _ in 0..8 {
            assert!(net.lookup(&victim).0);
        }
        assert!(net.cache_stats.hits > 0, "cache must be warm");
        net.remove_data(&victim);
        assert!(
            net.cache_stats.invalidations_sent > 0,
            "dissolution must broadcast invalidations"
        );
        assert!(net.cache_stats.invalidations_delivered > 0);
        for _ in 0..8 {
            let (found, results) = net.lookup(&victim);
            assert!(!found, "cache must never resurrect a removed key");
            assert!(results.is_empty());
        }
        // Other keys unaffected.
        assert!(net.lookup(&Key::from("DGEMV")).0);
    }

    #[test]
    fn cache_off_counts_nothing() {
        let mut net = build(LatencyModel::Uniform(1, 30), 43, 5, &KEYS[..4]);
        for _ in 0..4 {
            assert!(net.lookup(&Key::from("DGEMM")).0);
        }
        assert_eq!(net.cache_stats, CacheStats::default());
    }

    #[test]
    fn unreplicated_crash_loses_the_hosted_nodes() {
        let mut net = build(LatencyModel::Constant(1), 31, 6, &KEYS);
        let victim = net
            .shards()
            .max_by_key(|(_, s)| s.node_count())
            .map(|(id, _)| id.clone())
            .unwrap();
        let lost = net.crash_peer(&victim);
        assert!(!lost.is_empty(), "k = 1 must lose the hosted nodes");
    }
}
