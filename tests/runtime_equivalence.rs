//! Runtime-equivalence property: the unified engine means the
//! synchronous pump, `LatencyNet` at sampled 1–8 tick delays (the same
//! runtime with every operation's messages reordered) and the codec
//! arm `Framed` (every hop encoded to a wire frame and decoded again,
//! see `support`) are *the same protocol* under different transports.
//! Driving one seeded workload (joins, registrations, discoveries of
//! every kind, removals, crashes under `k = 2` replication, cache
//! on/off) through all three arms must yield identical node placements
//! and identical discovery result sets. The shared-nothing parallel
//! pump joins through its own arm below.
//!
//! What may legitimately differ: message/hop counts (transports
//! schedule differently). Capacity is charged everywhere but kept
//! unbounded here.

mod support;

use dlpt::core::messages::NodeMsg;
use dlpt::core::{DlptSystem, Envelope, FaultPlan, Key, QueryKind, Violation};
use dlpt::net::{LatencyModel, LatencyNet};
use proptest::prelude::*;
use std::collections::BTreeMap;
use support::Framed;

const KEY_POOL: [&str; 16] = [
    "DGEMM", "DGEMV", "DTRSM", "DTRMM", "SGEMM", "SGEMV", "S3L_fft", "S3L_sort", "S3L_mat",
    "PSGESV", "PDGEMM", "ZTRSM", "CAXPY", "DGEX", "DG", "S3L_",
];

#[derive(Debug, Clone)]
enum Op {
    /// Join a fresh peer (identifier drawn from a deterministic pool).
    Join,
    /// Register `KEY_POOL[i % len]`.
    Insert(u8),
    /// Deregister `KEY_POOL[i % len]`.
    Remove(u8),
    /// Exact lookup of `KEY_POOL[i % len]`.
    Lookup(u8),
    /// Completion of the first 2–3 digits of `KEY_POOL[i % len]`.
    Complete(u8),
    /// Range over the sorted pair of two pool keys.
    Range(u8, u8),
    /// Crash the `i % live`-th peer (replicated configs only; wrapped
    /// in anti-entropy passes so all runtimes fail over identically).
    Crash(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Join),
        any::<u8>().prop_map(Op::Insert),
        any::<u8>().prop_map(Op::Insert), // bias toward growth
        any::<u8>().prop_map(Op::Remove),
        any::<u8>().prop_map(Op::Lookup),
        any::<u8>().prop_map(Op::Lookup),
        any::<u8>().prop_map(Op::Complete),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Range(a, b)),
        any::<u8>().prop_map(Op::Crash),
    ]
}

fn key(i: u8) -> Key {
    Key::from(KEY_POOL[i as usize % KEY_POOL.len()])
}

/// Deterministic, collision-free peer identifier pool (valid in the
/// grid alphabet).
fn peer_id(i: usize) -> Key {
    Key::from(format!("P{i:03}X"))
}

/// The observable state the arms must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    placements: BTreeMap<Key, Key>,
    results: Vec<(bool, Vec<Key>)>,
}

/// Drives `ops` through one runtime behind a tiny trait object-free
/// adapter. `k` is the replication factor; `cache` the per-peer route
/// cache capacity.
trait Runtime {
    fn join(&mut self, id: Key);
    fn insert(&mut self, key: Key);
    fn remove(&mut self, key: &Key);
    fn query(&mut self, op: &Op) -> (bool, Vec<Key>);
    fn crash(&mut self, id: &Key);
    fn anti_entropy(&mut self);
    fn peers(&self) -> Vec<Key>;
    fn placements(&self) -> BTreeMap<Key, Key>;
    /// Runs the engine's invariant auditor
    /// (directory↔slab↔trie↔replication cross-consistency).
    fn audit(&self) -> Vec<Violation>;
}

/// A runtime with a fault-injection layer (the lossy and partition
/// arms).
trait Faulty: Runtime {
    fn set_faults(&mut self, plan: FaultPlan);
    fn partition(&mut self, lo: Key, hi: Key);
    fn heal(&mut self);
}

struct Sync(DlptSystem);
impl Runtime for Sync {
    fn join(&mut self, id: Key) {
        self.0.add_peer_with_id(id, u32::MAX >> 1).unwrap();
    }
    fn insert(&mut self, key: Key) {
        self.0.insert_data(key).unwrap();
    }
    fn remove(&mut self, key: &Key) {
        self.0.remove_data(key).unwrap();
    }
    fn query(&mut self, op: &Op) -> (bool, Vec<Key>) {
        let out = match op {
            Op::Lookup(i) => self.0.lookup(&key(*i)),
            Op::Complete(i) => {
                let k = key(*i);
                self.0.complete(&k.truncated(2.min(k.len())))
            }
            Op::Range(a, b) => {
                let (lo, hi) = ordered(*a, *b);
                self.0.range(&lo, &hi)
            }
            _ => unreachable!(),
        };
        (out.satisfied, out.results)
    }
    fn crash(&mut self, id: &Key) {
        let lost = self.0.crash_peer(id).unwrap();
        assert!(lost.is_empty(), "k=2 + fresh anti-entropy: {lost:?}");
    }
    fn anti_entropy(&mut self) {
        self.0.anti_entropy().unwrap();
    }
    fn peers(&self) -> Vec<Key> {
        self.0.peer_ids()
    }
    fn placements(&self) -> BTreeMap<Key, Key> {
        self.0
            .directory()
            .iter()
            .map(|(l, h)| (l.clone(), h.clone()))
            .collect()
    }
    fn audit(&self) -> Vec<Violation> {
        self.0.audit()
    }
}
impl Faulty for Sync {
    fn set_faults(&mut self, plan: FaultPlan) {
        self.0.set_fault_plan(plan);
    }
    fn partition(&mut self, lo: Key, hi: Key) {
        self.0.partition(lo, hi);
    }
    fn heal(&mut self) {
        self.0.heal_partition();
    }
}

struct Latency(LatencyNet);
impl Runtime for Latency {
    fn join(&mut self, id: Key) {
        self.0.add_peer(id);
    }
    fn insert(&mut self, key: Key) {
        self.0.insert_data(key);
    }
    fn remove(&mut self, key: &Key) {
        self.0.remove_data(key);
    }
    fn query(&mut self, op: &Op) -> (bool, Vec<Key>) {
        match op {
            Op::Lookup(i) => self.0.lookup(&key(*i)),
            Op::Complete(i) => {
                let k = key(*i);
                self.0.complete(&k.truncated(2.min(k.len())))
            }
            Op::Range(a, b) => {
                let (lo, hi) = ordered(*a, *b);
                self.0.range(&lo, &hi)
            }
            _ => unreachable!(),
        }
    }
    fn crash(&mut self, id: &Key) {
        let lost = self.0.crash_peer(id);
        assert!(lost.is_empty(), "k=2 + fresh anti-entropy: {lost:?}");
    }
    fn anti_entropy(&mut self) {
        self.0.anti_entropy();
    }
    fn peers(&self) -> Vec<Key> {
        self.0.peer_ids()
    }
    fn placements(&self) -> BTreeMap<Key, Key> {
        self.0
            .directory()
            .iter()
            .map(|(l, h)| (l.clone(), h.clone()))
            .collect()
    }
    fn audit(&self) -> Vec<Violation> {
        self.0.audit()
    }
}
impl Faulty for Latency {
    fn set_faults(&mut self, plan: FaultPlan) {
        self.0.set_fault_plan(plan);
    }
    fn partition(&mut self, lo: Key, hi: Key) {
        self.0.partition(lo, hi);
    }
    fn heal(&mut self) {
        self.0.heal_partition();
    }
}

/// The codec arm: the workload's operations over the engine's public
/// API, every envelope crossing `codec::encode`/`decode` (see
/// `support`).
impl Runtime for Framed {
    fn join(&mut self, id: Key) {
        self.add_peer(id);
    }
    fn insert(&mut self, key: Key) {
        self.insert_data(key);
    }
    fn remove(&mut self, key: &Key) {
        if let Some(entry) = self.engine.random_node(&mut self.rng) {
            self.send(Envelope::to_node(
                entry,
                NodeMsg::DataRemoval { key: key.clone() },
            ));
        }
    }
    fn query(&mut self, op: &Op) -> (bool, Vec<Key>) {
        let query = query_of(op).expect("a query op");
        let Some(entry) = self.engine.random_node(&mut self.rng) else {
            return (false, Vec::new());
        };
        let (id, env) = self
            .engine
            .begin_request(&entry, query)
            .expect("entry is a live node");
        self.send(env);
        let out = self.engine.finish_request(id);
        (out.satisfied, out.results)
    }
    fn crash(&mut self, id: &Key) {
        let lost = self.engine.crash_shard(id).unwrap();
        assert!(lost.is_empty(), "k=2 + fresh anti-entropy: {lost:?}");
    }
    fn anti_entropy(&mut self) {
        if self.engine.anti_entropy_scan(&mut self.frames).1 {
            self.drain();
        }
    }
    fn peers(&self) -> Vec<Key> {
        self.engine.peer_ids()
    }
    fn placements(&self) -> BTreeMap<Key, Key> {
        self.engine
            .directory()
            .iter()
            .map(|(l, h)| (l.clone(), h.clone()))
            .collect()
    }
    fn audit(&self) -> Vec<Violation> {
        self.engine.audit()
    }
}

fn ordered(a: u8, b: u8) -> (Key, Key) {
    let (x, y) = (key(a), key(b));
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

/// Runs the workload, returning every query result plus the final
/// placements. Crashes only fire when replication can absorb them.
fn drive<R: Runtime>(rt: &mut R, ops: &[Op], initial_peers: usize, k: usize) -> Observed {
    for i in 0..initial_peers {
        rt.join(peer_id(i));
    }
    let mut next_peer = initial_peers;
    let mut results = Vec::new();
    for o in ops {
        match o {
            Op::Join => {
                rt.join(peer_id(next_peer));
                next_peer += 1;
            }
            Op::Insert(i) => rt.insert(key(*i)),
            Op::Remove(i) => rt.remove(&key(*i)),
            Op::Lookup(_) | Op::Complete(_) | Op::Range(_, _) => results.push(rt.query(o)),
            Op::Crash(i) => {
                // Only when a follower copy of every hosted node can
                // exist: k = 2 and at least 3 survivors.
                let peers = rt.peers();
                if k < 2 || peers.len() < 4 {
                    continue;
                }
                let victim = peers[*i as usize % peers.len()].clone();
                // Fresh copies in, crash, redundancy restored — the
                // same fail-over path in every runtime.
                rt.anti_entropy();
                rt.crash(&victim);
                rt.anti_entropy();
            }
        }
    }
    Observed {
        placements: rt.placements(),
        results,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One workload, three arms, identical placements and result sets
    /// — replication and caching included.
    #[test]
    fn sync_codec_and_latency_arms_agree_on_placements_and_results(
        ops in proptest::collection::vec(op(), 4..28),
        seed in 0u64..500,
        initial_peers in 3usize..6,
        replicated in any::<bool>(),
        cached in any::<bool>(),
    ) {
        let k = if replicated { 2 } else { 1 };
        let cache = if cached { 32 } else { 0 };

        let mut sync = Sync(
            DlptSystem::builder()
                .seed(seed)
                .peer_id_len(8)
                .replication(k)
                .cache_capacity(cache)
                .build(),
        );
        let a = drive(&mut sync, &ops, initial_peers, k);
        sync.0.check_tree().unwrap();
        let audit = Runtime::audit(&sync);
        prop_assert!(audit.is_empty(), "sync audits clean: {:?}", audit);

        let mut latency = Latency(LatencyNet::new(LatencyModel::Uniform(1, 8), seed ^ 0x5eed));
        latency.0.set_replication(k);
        latency.0.set_cache_capacity(cache);
        let b = drive(&mut latency, &ops, initial_peers, k);
        latency.0.check_tree().unwrap();
        let audit = latency.audit();
        prop_assert!(audit.is_empty(), "latency audits clean: {:?}", audit);

        let mut framed = Framed::new(seed ^ 0x7eed);
        framed.engine.set_replication(k);
        framed.engine.set_cache_capacity(cache);
        let c = drive(&mut framed, &ops, initial_peers, k);
        framed.engine.check_tree().unwrap();
        let audit = framed.audit();
        prop_assert!(audit.is_empty(), "framed audits clean: {:?}", audit);

        prop_assert_eq!(&a.placements, &b.placements, "sync vs latency placements");
        prop_assert_eq!(&a.placements, &c.placements, "sync vs framed placements");
        prop_assert_eq!(&a.results, &b.results, "sync vs latency results");
        prop_assert_eq!(&a.results, &c.results, "sync vs framed results");
    }
}

/// One op translated to the query it contributes to a batch (`None`
/// for mutations).
fn query_of(o: &Op) -> Option<QueryKind> {
    match o {
        Op::Lookup(i) => Some(QueryKind::Exact(key(*i))),
        Op::Complete(i) => {
            let k = key(*i);
            Some(QueryKind::Complete(k.truncated(2.min(k.len()))))
        }
        Op::Range(a, b) => {
            let (lo, hi) = ordered(*a, *b);
            Some(QueryKind::Range(lo, hi))
        }
        _ => None,
    }
}

/// Drives the workload through one `DlptSystem`, batching queries.
/// `workers = None` is the sequential reference (`request` per query at
/// the flush point); `Some(w)` routes each flushed batch through the
/// shared-nothing pump at `w` workers. Flush points — before every
/// mutation, at the mid-workload migration, and at the end — are
/// identical in every arm, and both paths draw entry nodes from the
/// system RNG in query order, so all arms consume the RNG identically.
///
/// The mid-workload churn exercises the ownership-handoff path twice:
/// a node is migrated off its canonical host (an explicit
/// `Directory::handoff`), the next batches run against the handed-off
/// placement, and the node is later handed to its mapping-rule host so
/// the final audit sees the canonical mapping.
fn drive_batched(
    sys: &mut DlptSystem,
    ops: &[Op],
    initial_peers: usize,
    workers: Option<usize>,
) -> Observed {
    fn flush(
        sys: &mut DlptSystem,
        workers: Option<usize>,
        batch: &mut Vec<QueryKind>,
        results: &mut Vec<(bool, Vec<Key>)>,
    ) {
        if batch.is_empty() {
            return;
        }
        let qs = std::mem::take(batch);
        match workers {
            Some(w) => {
                for o in sys.discover_batch(qs, w).unwrap() {
                    results.push((o.satisfied, o.results));
                }
            }
            None => {
                for q in qs {
                    let o = sys.request(q).unwrap();
                    results.push((o.satisfied, o.results));
                }
            }
        }
    }

    for i in 0..initial_peers {
        sys.add_peer_with_id(peer_id(i), u32::MAX >> 1).unwrap();
    }
    // Seed the tree so batches always have an entry node and the
    // migration below always has a label to move.
    for i in 0..4u8 {
        sys.insert_data(key(i)).unwrap();
    }
    let mut next_peer = initial_peers;
    let mut results = Vec::new();
    let mut batch: Vec<QueryKind> = Vec::new();
    let mut migrated: Option<Key> = None;
    let mid = ops.len() / 2;
    for (at, o) in ops.iter().enumerate() {
        if at == mid {
            flush(sys, workers, &mut batch, &mut results);
            // Hand a node off its canonical host: deterministic pick
            // of the first placement and the last peer not hosting it.
            let moved = sys
                .directory()
                .iter()
                .map(|(l, h)| (l.clone(), h.clone()))
                .next();
            if let Some((label, home)) = moved {
                if let Some(to) = sys.peer_ids().into_iter().rev().find(|p| *p != home) {
                    sys.migrate_node(&label, &to).unwrap();
                    migrated = Some(label);
                }
            }
        }
        if let Some(q) = query_of(o) {
            batch.push(q);
            continue;
        }
        flush(sys, workers, &mut batch, &mut results);
        match o {
            Op::Join => {
                sys.add_peer_with_id(peer_id(next_peer), u32::MAX >> 1)
                    .unwrap();
                next_peer += 1;
            }
            Op::Insert(i) => sys.insert_data(key(*i)).unwrap(),
            Op::Remove(i) => sys.remove_data(&key(*i)).unwrap(),
            Op::Crash(i) => {
                let peers = sys.peer_ids();
                if peers.len() < 4 {
                    continue;
                }
                let victim = peers[*i as usize % peers.len()].clone();
                sys.anti_entropy().unwrap();
                let lost = sys.crash_peer(&victim).unwrap();
                assert!(lost.is_empty(), "k=2 + fresh anti-entropy: {lost:?}");
                sys.anti_entropy().unwrap();
            }
            Op::Lookup(_) | Op::Complete(_) | Op::Range(_, _) => unreachable!("queries batch"),
        }
    }
    flush(sys, workers, &mut batch, &mut results);
    // Hand the migrated node to its mapping-rule host so the final
    // audit sees the canonical mapping. That host is not necessarily
    // the one it left: a crash may have removed that peer, or a join
    // may have slid in ahead of the label. A deregistered node needs
    // no undo.
    if let Some(label) = migrated {
        let host = sys.host_of(&label).cloned();
        let rule = sys.host_peer(&label).cloned();
        if let (Some(host), Some(rule)) = (host, rule) {
            if host != rule {
                sys.migrate_node(&label, &rule).unwrap();
            }
        }
    }
    flush(sys, workers, &mut batch, &mut results);
    Observed {
        placements: sys
            .directory()
            .iter()
            .map(|(l, h)| (l.clone(), h.clone()))
            .collect(),
        results,
    }
}

/// Shared-nothing pump arm: the same seeded workload — k = 2
/// crashes, route caches on, a mid-workload `migrate_node` ownership
/// handoff — driven through the sequential pump and through
/// `discover_batch` at workers ∈ {1, 2, 8} must agree on placements
/// and result sets, and every arm must audit clean.
fn parallel_workers_agree(ops: &[Op], seed: u64, initial_peers: usize) {
    let build = || {
        DlptSystem::builder()
            .seed(seed)
            .peer_id_len(8)
            .replication(2)
            .cache_capacity(32)
            .build()
    };
    let mut reference = build();
    let expect = drive_batched(&mut reference, ops, initial_peers, None);
    reference.check_tree().unwrap();
    let audit = reference.audit();
    assert!(audit.is_empty(), "sequential audits clean: {audit:?}");

    for w in [1usize, 2, 8] {
        let mut sys = build();
        let got = drive_batched(&mut sys, ops, initial_peers, Some(w));
        sys.check_tree().unwrap();
        let audit = sys.audit();
        assert!(audit.is_empty(), "workers={w} audits clean: {audit:?}");
        assert_eq!(expect.placements, got.placements, "workers={w} placements");
        assert_eq!(expect.results, got.results, "workers={w} results");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn parallel_worker_counts_agree_with_the_sequential_pump(
        ops in proptest::collection::vec(op(), 4..24),
        seed in 0u64..200,
        initial_peers in 4usize..6,
    ) {
        parallel_workers_agree(&ops, seed, initial_peers);
    }
}

/// The mid-workload migration moves `D` from P000X to P003X and
/// `Crash(36)` then kills P000X: the undo must hand `D` to its current
/// mapping-rule host (P001X), since its original host is gone, or the
/// sequential arm's audit reports a `Mapping` violation.
#[test]
fn migration_undo_follows_the_mapping_rule_after_the_home_peer_crashes() {
    use Op::*;
    let ops = [
        Lookup(98),
        Lookup(203),
        Lookup(185),
        Complete(93),
        Crash(36),
        Insert(241),
        Remove(87),
    ];
    parallel_workers_agree(&ops, 156, 4);
}

/// Number of queries in an op sequence — the result count `drive` must
/// produce for the workload to count as fully terminated.
fn query_count(ops: &[Op]) -> usize {
    ops.iter()
        .filter(|o| matches!(o, Op::Lookup(_) | Op::Complete(_) | Op::Range(_, _)))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The lossy arm: the same workloads under 10% message loss, 5%
    /// duplication and 5% reordering, on the two arms with a fault
    /// layer (the sync pump and `LatencyNet`). The fault RNG streams
    /// differ per arm, so the arms need not agree on results
    /// — the property is *termination*: every drive returns, every
    /// query resolves (satisfied or explicitly failed, never hung), and
    /// the seeded sync run reproduces itself exactly.
    #[test]
    fn lossy_workloads_terminate_on_sync_and_latency_arms(
        ops in proptest::collection::vec(op(), 4..28),
        seed in 0u64..500,
        initial_peers in 3usize..6,
    ) {
        let plan = |s: u64| FaultPlan {
            loss_rate: 0.10,
            dup_rate: 0.05,
            reorder_rate: 0.05,
            seed: s,
        };
        let expected = query_count(&ops);

        let run_sync = || {
            let mut sync = Sync(DlptSystem::builder().seed(seed).peer_id_len(8).build());
            sync.set_faults(plan(seed));
            let obs = drive(&mut sync, &ops, initial_peers, 1);
            let stats = sync.0.fault_stats();
            let audit = Runtime::audit(&sync);
            (obs, stats, audit)
        };
        let (a, a_stats, a_audit) = run_sync();
        prop_assert_eq!(a.results.len(), expected, "sync: every query terminates");
        prop_assert!(a_audit.is_empty(), "sync audits clean after quiescence: {:?}", a_audit);
        let (a2, _, _) = run_sync();
        prop_assert_eq!(&a.results, &a2.results, "seeded lossy sync reproduces");
        prop_assert_eq!(&a.placements, &a2.placements);

        let mut latency = Latency(LatencyNet::new(LatencyModel::Uniform(1, 8), seed ^ 0x5eed));
        latency.set_faults(plan(seed ^ 0x10));
        let b = drive(&mut latency, &ops, initial_peers, 1);
        prop_assert_eq!(b.results.len(), expected, "latency: every query terminates");
        let b_audit = latency.audit();
        prop_assert!(b_audit.is_empty(), "latency audits clean after quiescence: {:?}", b_audit);

        // Mutations and joins travel the reliable class, so the tree
        // the runtimes build is unaffected by the fault plan.
        prop_assert_eq!(&a.placements, &b.placements, "faults never touch placements");
        let _ = a_stats;
    }
}

/// The partition scenario as a deterministic equivalence check: sever
/// a key range, observe routed requests resolving (never hanging),
/// heal, and require k = 2 + anti-entropy to converge back to fully
/// correct lookups — including across a post-heal crash.
fn drive_partition_scenario<R: Faulty>(rt: &mut R, name: &str) {
    for i in 0..5 {
        rt.join(peer_id(i));
    }
    for i in 0..KEY_POOL.len() {
        rt.insert(key(i as u8));
    }
    rt.anti_entropy();
    // Sever ["D", "K"): lookups toward that range fail explicitly
    // while the rest of the tree keeps answering.
    rt.partition(Key::from("D"), Key::from("K"));
    let mut severed_failures = 0;
    for i in 0..KEY_POOL.len() {
        let (found, results) = rt.query(&Op::Lookup(i as u8));
        if found {
            assert_eq!(results, vec![key(i as u8)], "{name}: wrong result for {i}");
        } else {
            severed_failures += 1;
        }
    }
    assert!(
        severed_failures > 0,
        "{name}: the partition must fail some lookups"
    );
    rt.heal();
    rt.anti_entropy();
    // A crash after the heal: redundancy must have survived the cut
    // (replication traffic rides the reliable class).
    let victim = rt.peers()[2].clone();
    rt.crash(&victim);
    rt.anti_entropy();
    for i in 0..KEY_POOL.len() {
        let (found, results) = rt.query(&Op::Lookup(i as u8));
        assert!(found, "{name}: key {i} must be found after the heal");
        assert_eq!(results, vec![key(i as u8)], "{name}: wrong result for {i}");
    }
    let audit = rt.audit();
    assert!(
        audit.is_empty(),
        "{name}: engine must audit clean after heal + crash + AE: {audit:?}"
    );
}

#[test]
fn partition_heals_and_k2_ae_converges_on_sync_and_latency_arms() {
    let mut sync = Sync(
        DlptSystem::builder()
            .seed(11)
            .peer_id_len(8)
            .replication(2)
            .build(),
    );
    drive_partition_scenario(&mut sync, "sync");
    sync.0.check_tree().unwrap();

    let mut latency = Latency(LatencyNet::new(LatencyModel::Uniform(1, 8), 12));
    latency.0.set_replication(2);
    drive_partition_scenario(&mut latency, "latency");
    latency.0.check_tree().unwrap();
}
