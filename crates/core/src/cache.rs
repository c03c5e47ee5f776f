//! Hot-path routing shortcuts: a per-peer LRU cache with epoch
//! invalidation, and the subscription index that aims eager
//! invalidation at the peers actually holding a shortcut.
//!
//! Under load, the paper's satisfaction curves degrade precisely
//! because every discovery request climbs toward the upper tree before
//! descending, so the root region of the DLPT is a hotspot no matter
//! how well MLT/KC spread the nodes. Caching popular routes near the
//! entry points is the classic remedy the DLPT line of work itself
//! pursued (Caron et al., *Optimization in a Self-Stabilizing Service
//! Discovery Framework for Large Scale Systems*), and shortcut links
//! are how tree overlays reach optimal lookup bounds (*Optimally
//! Efficient Prefix Search and Multicast in Structured P2P Networks*).
//!
//! Every peer keeps a fixed-capacity [`RouteCache`] mapping a query
//! *target* (the label region a request must reach, [`crate::messages::QueryKind::target`])
//! to a [`Shortcut`]: the covering node's label, its hosting peer, and
//! the label's *epoch* at learning time. Label and host are interned
//! ids of the engine's [`Directory`], which never frees an id, so an
//! id names the same key for the directory's whole lifetime. The cache
//! is consulted when a request enters the overlay: on a hit the
//! request is delivered straight to the covering node in `Down` phase
//! — one directory hop instead of the `O(depth)` up/down climb.
//!
//! ## Why stale hits are safe
//!
//! Correctness rests on two facts:
//!
//! 1. Labels are *semantic*: a node labelled `l` covers target `t` iff
//!    `l` is a prefix of `t` — a property of the strings alone, not of
//!    the tree's current shape. Descending ([`crate::protocol::discovery`])
//!    from any live node whose label prefixes the target yields exactly
//!    the same results as the full up/down route.
//! 2. The runtime validates every hit against its authoritative
//!    directory before forwarding: the cached label must still be live
//!    *and* its per-label epoch ([`crate::directory::Directory`]) must
//!    equal the epoch recorded in the shortcut. Every structural
//!    mutation of a node — insert/remove child, relocation by the
//!    MLT/KC balancers, crash promotion, dissolution — bumps the
//!    label's epoch, so a mismatch marks the shortcut stale. A stale
//!    hit is *evicted* and the request falls back to the normal
//!    up/down route; the cache can therefore never change a result,
//!    only the route taken to compute it.
//!
//! ## Targeted eager invalidation
//!
//! Epoch checks make invalidation lazy and free. Where eager
//! invalidation is cheap — a node dissolved or migrated — the engine
//! additionally sends [`crate::messages::PeerMsg::InvalidateCached`]
//! so holders drop dead shortcuts before ever paying a stale-hit
//! fallback. It sends it only to the peers the [`Subscriptions`]
//! index names for the label, not to every member:
//!
//! * **Subscription rule.** Learning a shortcut through label `l`
//!   subscribes the learning peer to `l`. A peer rename carries the
//!   subscriptions of its cached shortcuts to the new peer id.
//! * **Superset invariant.** Every peer whose cache holds a shortcut
//!   through `l` is subscribed to `l` (`Engine::audit` checks it). The
//!   index may name more peers: LRU and stale-hit evictions do not
//!   unsubscribe. So every holder receives every invalidation an
//!   all-members broadcast would have delivered to it, and cache
//!   contents evolve exactly as under that broadcast; only the no-op
//!   messages disappear.
//! * **Pruning on delivery.** The handler unsubscribes the peer once
//!   [`RouteCache::invalidate_label`] leaves no shortcut through the
//!   label. A fresher shortcut spared by the epoch guard keeps the
//!   subscription. The sender drops subscribers that are no longer
//!   members.
//! * **Loss.** A lost invalidation never reaches the handler, so the
//!   peer stays subscribed: the next invalidation of the label still
//!   reaches it, and the per-hit epoch check covers the gap.
//!
//! With capacity 0 (the default) the cache is fully inert: no entries,
//! no subscriptions, no messages, no counters — the system is
//! byte-identical to the uncached golden fingerprint.

use crate::directory::{Directory, FxHashMap};
use crate::key::Key;
use crate::messages::{DiscoveryMsg, Envelope, NodeMsg, QueryKind, RoutePhase};
use std::collections::HashMap;

/// Sentinel index meaning "no neighbour" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// One learned routing shortcut: where a query target's covering node
/// lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shortcut {
    /// Interned label id of the node covering the target region (for
    /// exact queries, the node owning the key itself).
    pub label: u32,
    /// Interned id of the peer hosting that node when the shortcut was
    /// learned — the address a deployment's entry peer would dial
    /// directly. The in-repo runtimes address envelopes logically
    /// (`Address::Node`) and resolve the live host through the
    /// authoritative directory at delivery, so here the field is
    /// carried for protocol fidelity, not consulted for routing.
    pub host: u32,
    /// The label's directory epoch at learning time; a mismatch at
    /// consult time marks the shortcut stale.
    pub epoch: u64,
}

/// One slot of the LRU list.
#[derive(Debug, Clone)]
struct Slot {
    target: Key,
    shortcut: Shortcut,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU map `query target → Shortcut`.
///
/// Implemented as an index-based intrusive doubly-linked list over a
/// slot vector plus a hash index, so hits, inserts and evictions are
/// all O(1) and fully deterministic (the iteration order of the
/// internal map is never observed). Capacity 0 disables the cache
/// entirely.
#[derive(Debug, Clone)]
pub struct RouteCache {
    capacity: usize,
    slots: Vec<Slot>,
    /// target → slot index.
    index: HashMap<Key, u32, std::hash::BuildHasherDefault<crate::directory::FxHasher>>,
    /// Most-recently-used slot (NIL when empty).
    head: u32,
    /// Least-recently-used slot (NIL when empty).
    tail: u32,
    /// Reusable slot indices left by removals.
    free: Vec<u32>,
}

impl Default for RouteCache {
    /// A disabled (capacity 0) cache. A manual impl because the
    /// derived one would zero `head`/`tail` instead of the `NIL`
    /// sentinel, corrupting the intrusive list.
    fn default() -> Self {
        RouteCache::new(0)
    }
}

impl RouteCache {
    /// A cache holding at most `capacity` shortcuts (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        RouteCache {
            capacity,
            slots: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Reconfigures the capacity; shrinking evicts from the LRU end.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached shortcuts.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True iff no shortcuts are cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up `target`, promoting the entry to most-recently-used.
    pub fn hit(&mut self, target: &Key) -> Option<&Shortcut> {
        let &i = self.index.get(target)?;
        self.unlink(i);
        self.push_front(i);
        Some(&self.slots[i as usize].shortcut)
    }

    /// Inserts (or refreshes) the shortcut for `target`, evicting the
    /// least-recently-used entry on overflow. No-op at capacity 0.
    pub fn insert(&mut self, target: Key, shortcut: Shortcut) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.index.get(&target) {
            self.slots[i as usize].shortcut = shortcut;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        if self.len() >= self.capacity {
            self.evict_lru();
        }
        let slot = Slot {
            target: target.clone(),
            shortcut,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(target, i);
        self.push_front(i);
    }

    /// Removes the shortcut for `target`; returns true iff present.
    pub fn remove(&mut self, target: &Key) -> bool {
        let Some(i) = self.index.remove(target) else {
            return false;
        };
        self.unlink(i);
        self.free.push(i);
        true
    }

    /// Drops every shortcut routing through node `label` whose epoch is
    /// `<= epoch` (the eager-invalidation handler: later-learned
    /// shortcuts already carry a fresher epoch and survive a reordered
    /// invalidation). Matching slots are unlinked during the one walk
    /// of the live list, so a warm invalidation never allocates.
    /// Returns true iff a shortcut through `label` survived — the
    /// caller keeps the peer subscribed to `label` exactly then.
    pub fn invalidate_label(&mut self, label: u32, epoch: u64) -> bool {
        let mut kept = false;
        let mut i = self.head;
        while i != NIL {
            let s = &self.slots[i as usize];
            let next = s.next;
            if s.shortcut.label == label {
                if s.shortcut.epoch <= epoch {
                    self.index.remove(&s.target);
                    self.unlink(i);
                    self.free.push(i);
                } else {
                    kept = true;
                }
            }
            i = next;
        }
        kept
    }

    /// Live `(target, shortcut)` entries in most-recently-used order
    /// (a deterministic walk of the intrusive list — the hash index's
    /// iteration order is never observed). Read-only: unlike
    /// [`RouteCache::hit`], iterating does not promote entries.
    pub fn iter_shortcuts(&self) -> impl Iterator<Item = (&Key, &Shortcut)> + '_ {
        let mut i = self.head;
        std::iter::from_fn(move || {
            if i == NIL {
                return None;
            }
            let s = &self.slots[i as usize];
            i = s.next;
            Some((&s.target, &s.shortcut))
        })
    }

    /// Estimated resident bytes: the slot vector, the free list, the
    /// index (fixed per-entry estimate) and any spilled target keys
    /// held by live slots.
    pub fn bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.slots.capacity() * size_of::<Slot>()
            + self.free.capacity() * size_of::<u32>()
            + self.index.len() * (size_of::<Key>() + size_of::<u32>() + 8);
        for (target, _) in self.iter_shortcuts() {
            if !target.is_inline() {
                bytes += target.len() + 16;
            }
        }
        bytes
    }

    /// Drops everything (capacity is retained).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn evict_lru(&mut self) {
        if self.tail == NIL {
            return;
        }
        let target = self.slots[self.tail as usize].target.clone();
        self.remove(&target);
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.head == i {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.tail == i {
            self.tail = prev;
        }
        let s = &mut self.slots[i as usize];
        s.prev = NIL;
        s.next = NIL;
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// One subscriber-list link: a peer id and the next link of the same
/// label's list.
#[derive(Debug, Clone, Copy)]
struct Link {
    peer: u32,
    next: u32,
}

/// The subscription index behind targeted invalidation: label id →
/// the peer ids whose route cache may hold a shortcut through that
/// label — always a superset of the real holders (see the module
/// docs for the rule that keeps it one).
///
/// One singly linked list per label over a pooled link vector. Only
/// labels with subscribers have a head entry, so the index grows with
/// the cached shortcuts, not with the id space (which peers share).
/// Links are recycled through a free list, so a warm
/// subscribe/send/unsubscribe cycle never allocates. List order (most
/// recent subscriber first) is a pure function of the operation
/// history, hence deterministic; the head map is never iterated.
#[derive(Debug, Clone, Default)]
pub struct Subscriptions {
    /// label id → first link of its (non-empty) list.
    heads: FxHashMap<u32, u32>,
    links: Vec<Link>,
    /// Reusable link indices left by unsubscriptions.
    free: Vec<u32>,
}

impl Subscriptions {
    /// Subscribes `peer` to `label` (idempotent).
    pub fn subscribe(&mut self, label: u32, peer: u32) {
        if self.contains(label, peer) {
            return;
        }
        let link = Link {
            peer,
            next: self.heads.get(&label).copied().unwrap_or(NIL),
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.links[i as usize] = link;
                i
            }
            None => {
                self.links.push(link);
                (self.links.len() - 1) as u32
            }
        };
        self.heads.insert(label, i);
    }

    /// True iff `peer` is subscribed to `label`.
    pub fn contains(&self, label: u32, peer: u32) -> bool {
        self.peers(label).any(|p| p == peer)
    }

    /// The subscribers of `label`, most recent first.
    fn peers(&self, label: u32) -> impl Iterator<Item = u32> + '_ {
        let mut i = self.heads.get(&label).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            if i == NIL {
                return None;
            }
            let link = self.links[i as usize];
            i = link.next;
            Some(link.peer)
        })
    }

    /// Unsubscribes `peer` from `label` (no-op when not subscribed).
    pub fn unsubscribe(&mut self, label: u32, peer: u32) {
        self.retain(label, |p| p != peer);
    }

    /// Visits the subscribers of `label` in list order, dropping every
    /// one for which `keep` returns false.
    pub fn retain(&mut self, label: u32, mut keep: impl FnMut(u32) -> bool) {
        let Some(&head) = self.heads.get(&label) else {
            return;
        };
        let (mut first, mut prev, mut i) = (head, NIL, head);
        while i != NIL {
            let Link { peer, next } = self.links[i as usize];
            if keep(peer) {
                prev = i;
            } else {
                if prev == NIL {
                    first = next;
                } else {
                    self.links[prev as usize].next = next;
                }
                self.free.push(i);
            }
            i = next;
        }
        if first == NIL {
            self.heads.remove(&label);
        } else if first != head {
            self.heads.insert(label, first);
        }
    }

    /// Estimated resident bytes: the head map (fixed per-entry
    /// estimate, like every map here), the link pool and its free
    /// list at their current capacities.
    pub fn bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        self.heads.len() * (2 * size_of::<u32>() + 8)
            + self.links.capacity() * size_of::<Link>()
            + self.free.capacity() * size_of::<u32>()
    }
}

/// Consults `cache` for `target`, validating any hit against the
/// authoritative `directory`: the cached label must still be live at
/// the recorded epoch (one read of the epoch column by label id).
/// Returns the shortcut on a validated hit; a stale hit is evicted,
/// and every outcome is counted in `stats`. Shared by all three
/// runtimes so the consult flow cannot drift between them.
pub fn consult(
    cache: &mut RouteCache,
    directory: &Directory,
    target: &Key,
    stats: &mut CacheStats,
) -> Option<Shortcut> {
    match cache.hit(target).copied() {
        Some(sc) if directory.live_epoch_id(sc.label) == Some(sc.epoch) => {
            stats.hits += 1;
            Some(sc)
        }
        Some(_) => {
            stats.stale_hits += 1;
            cache.remove(target);
            None
        }
        None => {
            stats.misses += 1;
            None
        }
    }
}

/// The shortcut a satisfied exact query teaches: the target's own
/// node (which the query just proved live and owning the key), its
/// current host and epoch. `None` when the target is not live in the
/// directory — unreachable right after a satisfied exact lookup, but
/// it keeps racy callers safe.
pub fn learned_shortcut(directory: &Directory, target: &Key) -> Option<Shortcut> {
    let (label, host) = directory.resolve(target)?;
    Some(Shortcut {
        label,
        host,
        epoch: directory.epoch_id(label),
    })
}

/// The envelope a validated shortcut turns a request into: the query
/// delivered straight to the covering node `label` in `Down` phase,
/// path empty (the target visit appends itself; hop accounting then
/// shows the one-hop route). Shared by all three runtimes so the
/// cached route's shape cannot drift between them.
pub fn shortcut_envelope(request_id: u64, query: QueryKind, label: Key) -> Envelope {
    Envelope::to_node(
        label,
        NodeMsg::Discovery(DiscoveryMsg {
            request_id,
            query,
            phase: RoutePhase::Down,
            // Pre-sized for the cached route: the covering visit plus
            // a few gather partials.
            path: Vec::with_capacity(4),
        }),
    )
}

/// Counters of the caching subsystem. Kept apart from
/// [`crate::metrics::SystemStats`] — like [`crate::replication::ReplicationStats`] —
/// so the cache-off system's observable stats stay byte-identical to
/// the pre-cache golden fingerprint. All remain zero at capacity 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered through a validated shortcut (one-hop route).
    pub hits: u64,
    /// Requests whose target had no cached shortcut.
    pub misses: u64,
    /// Hits rejected by the epoch/liveness check; the entry was
    /// evicted and the request fell back to the up/down route.
    pub stale_hits: u64,
    /// Shortcuts learned from satisfied discovery responses.
    pub learned: u64,
    /// `InvalidateCached` messages put on the wire by eager
    /// invalidation (one per subscribed live peer).
    pub invalidations_sent: u64,
    /// `InvalidateCached` messages delivered to a peer's cache.
    pub invalidations_delivered: u64,
}

impl CacheStats {
    /// Hit rate over consults (hits / (hits + stale + misses)), as a
    /// percentage. 0 when nothing was consulted.
    pub fn hit_pct(&self) -> f64 {
        let consults = self.hits + self.stale_hits + self.misses;
        if consults == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / consults as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn sc(label: u32, host: u32, epoch: u64) -> Shortcut {
        Shortcut { label, host, epoch }
    }

    #[test]
    fn hit_miss_and_promotion() {
        let mut c = RouteCache::new(2);
        assert!(c.hit(&k("A")).is_none());
        c.insert(k("A"), sc(1, 101, 1));
        c.insert(k("B"), sc(2, 102, 1));
        assert_eq!(c.len(), 2);
        // Touch A so B becomes the LRU victim.
        assert_eq!(c.hit(&k("A")).unwrap().host, 101);
        c.insert(k("C"), sc(3, 103, 1));
        assert_eq!(c.len(), 2);
        assert!(c.hit(&k("B")).is_none(), "B was least recently used");
        assert!(c.hit(&k("A")).is_some());
        assert!(c.hit(&k("C")).is_some());
    }

    #[test]
    fn insert_refreshes_existing_entry() {
        let mut c = RouteCache::new(2);
        c.insert(k("A"), sc(1, 101, 1));
        c.insert(k("A"), sc(1, 109, 5));
        assert_eq!(c.len(), 1);
        let got = c.hit(&k("A")).unwrap();
        assert_eq!(got.host, 109);
        assert_eq!(got.epoch, 5);
    }

    #[test]
    fn capacity_zero_is_inert() {
        let mut c = RouteCache::new(0);
        c.insert(k("A"), sc(1, 101, 1));
        assert!(c.is_empty());
        assert!(c.hit(&k("A")).is_none());
    }

    #[test]
    fn remove_and_slot_reuse() {
        let mut c = RouteCache::new(4);
        c.insert(k("A"), sc(1, 101, 1));
        c.insert(k("B"), sc(2, 101, 1));
        assert!(c.remove(&k("A")));
        assert!(!c.remove(&k("A")));
        c.insert(k("C"), sc(3, 101, 1));
        assert_eq!(c.slots.len(), 2, "freed slot is reused");
        assert!(c.hit(&k("B")).is_some());
        assert!(c.hit(&k("C")).is_some());
    }

    #[test]
    fn invalidate_label_respects_epochs() {
        let mut c = RouteCache::new(8);
        // Three targets routing through label 10: two learned at
        // epoch 3, one re-learned later at epoch 7.
        c.insert(k("101"), sc(10, 101, 3));
        c.insert(k("102"), sc(10, 101, 3));
        c.insert(k("103"), sc(10, 102, 7));
        c.insert(k("2"), sc(2, 103, 3));
        assert!(c.invalidate_label(10, 5), "the fresher shortcut survives");
        assert_eq!(c.len(), 2);
        assert!(c.hit(&k("101")).is_none());
        assert!(c.hit(&k("102")).is_none());
        assert!(c.hit(&k("103")).is_some(), "fresher epoch survives");
        assert!(c.hit(&k("2")).is_some(), "other labels untouched");
        assert!(!c.invalidate_label(10, 7), "nothing through 10 is left");
        assert!(c.hit(&k("103")).is_none());
        assert!(!c.invalidate_label(10, 9), "idempotent on an empty label");
        // Unlinked slots are recycled and the list stays sound.
        c.insert(k("104"), sc(10, 101, 8));
        c.insert(k("105"), sc(11, 101, 8));
        assert_eq!(c.slots.len(), 4, "freed slots are reused");
        let order: Vec<&Key> = c.iter_shortcuts().map(|(t, _)| t).collect();
        assert_eq!(order, vec![&k("105"), &k("104"), &k("2")]);
    }

    #[test]
    fn shrinking_capacity_evicts_lru_first() {
        let mut c = RouteCache::new(4);
        for (i, t) in ["A", "B", "C", "D"].iter().enumerate() {
            c.insert(k(t), sc(i as u32, 100, i as u64));
        }
        c.hit(&k("A")); // A is now MRU; B is LRU.
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert!(c.hit(&k("A")).is_some());
        assert!(c.hit(&k("D")).is_some());
        assert!(c.hit(&k("B")).is_none());
        assert!(c.hit(&k("C")).is_none());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut c = RouteCache::new(3);
        c.insert(k("A"), sc(1, 100, 1));
        c.clear();
        assert!(c.is_empty());
        c.insert(k("B"), sc(2, 100, 1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 3);
    }

    #[test]
    fn lru_order_survives_churn() {
        // Exercise the linked list: interleave inserts, hits, removals.
        let mut c = RouteCache::new(3);
        for (i, t) in ["A", "B", "C"].iter().enumerate() {
            c.insert(k(t), sc(i as u32, 100, 1));
        }
        c.hit(&k("A"));
        c.remove(&k("B"));
        c.insert(k("D"), sc(3, 100, 1));
        c.insert(k("E"), sc(4, 100, 1)); // evicts C (LRU)
        assert!(c.hit(&k("C")).is_none());
        assert!(c.hit(&k("A")).is_some());
        assert!(c.hit(&k("D")).is_some());
        assert!(c.hit(&k("E")).is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn default_cache_has_a_sound_lru_list() {
        // Regression: the derived Default zeroed head/tail instead of
        // NIL, self-looping the intrusive list.
        let mut c = RouteCache::default();
        assert_eq!(c.capacity(), 0);
        c.set_capacity(2);
        c.insert(k("A"), sc(1, 100, 1));
        c.insert(k("B"), sc(2, 100, 1));
        c.insert(k("C"), sc(3, 100, 1)); // evicts A
        assert!(!c.invalidate_label(2, 1), "walk terminates");
        assert_eq!(c.len(), 1);
        assert!(c.hit(&k("A")).is_none());
        assert!(c.hit(&k("C")).is_some());
    }

    #[test]
    fn consult_validates_against_the_directory() {
        let mut d = Directory::new();
        d.insert(k("101"), k("P1"));
        let epoch = d.live_epoch(&k("101")).unwrap();
        let mut c = RouteCache::new(4);
        let mut stats = CacheStats::default();
        // Miss.
        assert!(consult(&mut c, &d, &k("101"), &mut stats).is_none());
        assert_eq!(stats.misses, 1);
        // Learn + validated hit.
        let sc = learned_shortcut(&d, &k("101")).unwrap();
        assert_eq!(sc.epoch, epoch);
        c.insert(k("101"), sc);
        let hit = consult(&mut c, &d, &k("101"), &mut stats).unwrap();
        assert_eq!(hit.label, d.id_of(&k("101")).unwrap());
        assert_eq!(hit.host, d.id_of(&k("P1")).unwrap());
        assert_eq!(stats.hits, 1);
        // Stale hit after a structural event: evicted, fallback.
        d.bump_epoch(&k("101"));
        assert!(consult(&mut c, &d, &k("101"), &mut stats).is_none());
        assert_eq!(stats.stale_hits, 1);
        assert!(c.is_empty(), "stale entry evicted");
        // Dead labels teach nothing.
        d.remove(&k("101"));
        assert!(learned_shortcut(&d, &k("101")).is_none());
    }

    #[test]
    fn slots_carry_interned_ids_not_keys() {
        // Two interned ids and an epoch in place of two 32-byte keys.
        assert_eq!(std::mem::size_of::<Shortcut>(), 16);
        assert_eq!(std::mem::size_of::<Slot>(), 56);
    }

    #[test]
    fn subscriptions_subscribe_idempotently_and_prune() {
        let mut s = Subscriptions::default();
        assert!(!s.contains(7, 1));
        assert_eq!(s.peers(7).count(), 0, "unknown labels have no subscribers");
        s.subscribe(7, 1);
        s.subscribe(7, 2);
        s.subscribe(7, 1);
        s.subscribe(3, 1);
        assert_eq!(
            s.peers(7).collect::<Vec<_>>(),
            vec![2, 1],
            "most recent first"
        );
        assert!(s.contains(3, 1) && !s.contains(3, 2));
        s.unsubscribe(7, 2);
        assert_eq!(s.peers(7).collect::<Vec<_>>(), vec![1]);
        // Unsubscribing a non-subscriber is a no-op.
        s.unsubscribe(7, 9);
        // `retain` visits in list order and unlinks the rejected.
        s.subscribe(7, 4);
        s.subscribe(7, 5);
        let mut seen = Vec::new();
        s.retain(7, |p| {
            seen.push(p);
            p != 4
        });
        assert_eq!(seen, vec![5, 4, 1]);
        assert_eq!(s.peers(7).collect::<Vec<_>>(), vec![5, 1]);
        // Freed links are recycled: no pool growth.
        let pool = s.links.len();
        s.subscribe(8, 6);
        assert_eq!(s.links.len(), pool);
        // A label whose list empties leaves the head map.
        s.unsubscribe(8, 6);
        s.retain(7, |_| false);
        assert_eq!(s.peers(7).count(), 0);
        assert_eq!(s.heads.len(), 1, "only label 3 still has subscribers");
        assert!(s.bytes_estimate() > 0);
    }

    #[test]
    fn stats_hit_pct() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_pct(), 0.0);
        s.hits = 3;
        s.misses = 1;
        s.stale_hits = 0;
        assert!((s.hit_pct() - 75.0).abs() < 1e-9);
    }
}
