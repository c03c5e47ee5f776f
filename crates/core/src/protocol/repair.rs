//! Replication and self-healing anti-entropy (extension over the
//! paper).
//!
//! The source paper's DLPT keeps exactly one copy of every tree node,
//! so a non-graceful departure destroys the nodes its peer ran. The
//! self-stabilizing follow-up work (Caron et al., "Optimization in a
//! Self-Stabilizing Service Discovery Framework for Large Scale
//! Systems") makes the overlay survive such faults by keeping
//! redundant state and repairing it continuously. This module is that
//! loop for the DLPT:
//!
//! * **Placement.** The authoritative copy of node `n` stays where the
//!   mapping rule puts it (`min {P : P >= n}`); `k - 1` *follower*
//!   copies live on the primary's next ring successors. The placement
//!   needs only local knowledge: a [`PeerMsg::Replicate`] walk hops
//!   from successor to successor, storing a copy at each stop, until
//!   its `ttl` drains or it wraps back to the primary.
//! * **Failover.** When the primary crashes, the first live follower
//!   is — by the mapping rule — exactly the peer that should now host
//!   the node, so promotion ([`PeerMsg::PromoteReplica`]) restores
//!   both the data and the mapping invariant in one step. Exhausted
//!   primaries can likewise serve reads from a follower copy (the
//!   runtime charges the follower's capacity instead of dropping).
//! * **Anti-entropy.** Each time unit the runtime kicks every peer
//!   with [`PeerMsg::SyncReplicas`]; the peer re-clones every node it
//!   runs onto its successors. Crashed followers, stale copies and
//!   replica sets displaced by joins all converge back to the
//!   invariant *"every node has `min(k, |P|)` distinct live replica
//!   hosts"* within one pass.
//!
//! Handlers follow the crate's rule: one `&mut PeerShard`, effects out.

use crate::directory::Directory;
use crate::key::Key;
use crate::messages::{Envelope, NodeSeed, PeerMsg};
use crate::peer::PeerShard;
use crate::protocol::Effects;

/// `<SyncReplicas, k>`: re-clone every hosted node onto the ring
/// successors (anti-entropy kick, typically once per time unit).
pub fn on_sync_replicas(shard: &mut PeerShard, k: u32, fx: &mut Effects) {
    if k < 2 {
        return;
    }
    let succ = shard.peer.succ.clone();
    if succ == shard.peer.id {
        return; // solitary peer: nobody to replicate to
    }
    let primary = shard.peer.id.clone();
    for node in shard.nodes.values() {
        fx.send(Envelope::to_peer(
            succ.clone(),
            PeerMsg::Replicate {
                primary: primary.clone(),
                ttl: k - 1,
                seed: NodeSeed::of(node),
            },
        ));
    }
}

/// `<Replicate, (primary, ttl, seed)>`: store a follower copy and
/// forward the walk along the ring while the ttl lasts.
pub fn on_replicate(
    shard: &mut PeerShard,
    primary: Key,
    ttl: u32,
    seed: NodeSeed,
    fx: &mut Effects,
) {
    if shard.peer.id == primary {
        return; // wrapped around a ring smaller than k: stop
    }
    if ttl > 1 && shard.peer.succ != primary && shard.peer.succ != shard.peer.id {
        fx.send(Envelope::to_peer(
            shard.peer.succ.clone(),
            PeerMsg::Replicate {
                primary,
                ttl: ttl - 1,
                seed: seed.clone(),
            },
        ));
    }
    shard.replicas.insert(seed.label.clone(), seed.into_state());
}

/// `<DropReplica, label>`: discard a follower copy (no-op if absent).
pub fn on_drop_replica(shard: &mut PeerShard, label: &Key) {
    shard.replicas.remove(label);
}

/// `<PromoteReplica, label>`: the primary crashed — promote the local
/// follower copy to an authoritative hosted node and report the
/// relocation so the runtime's directory follows. No-op without a copy.
pub fn on_promote_replica(shard: &mut PeerShard, label: &Key, fx: &mut Effects) {
    if let Some(node) = shard.replicas.remove(label) {
        fx.relocated.push((label.clone(), shard.peer.id.clone()));
        shard.install(node);
    }
}

/// Recomputes and records the follower set of every live label over
/// the current ring — the planning half of an anti-entropy pass,
/// shared by every runtime so follower placement cannot drift
/// between them. The transport kick (`SyncReplicas` to every peer) is
/// runtime-specific. `peers` must be sorted ascending.
pub fn refresh_follower_records(directory: &mut Directory, peers: &[Key], k: usize) {
    let plans: Vec<(Key, Vec<Key>)> = directory
        .iter()
        .map(|(label, primary)| {
            (
                label.clone(),
                successors_of(peers, primary, k.saturating_sub(1)),
            )
        })
        .collect();
    for (label, targets) in &plans {
        directory.set_followers(label, targets);
    }
}

/// The `count` ring successors of `primary` over `peers` (ascending,
/// deduplicated, wrapping, `primary` excluded) — the follower set the
/// [`PeerMsg::Replicate`] walk materializes. `peers` must be sorted
/// ascending; `primary` need not be present (it may just have crashed).
pub fn successors_of(peers: &[Key], primary: &Key, count: usize) -> Vec<Key> {
    if peers.is_empty() || count == 0 {
        return Vec::new();
    }
    let start = match peers.binary_search(primary) {
        Ok(i) => i + 1,
        Err(i) => i,
    };
    let mut out = Vec::with_capacity(count.min(peers.len()));
    for off in 0..peers.len() {
        let p = &peers[(start + off) % peers.len()];
        if p == primary {
            continue;
        }
        out.push(p.clone());
        if out.len() == count {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Address, Message};
    use crate::node::NodeState;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn shard_with_ring(id: &str, pred: &str, succ: &str) -> PeerShard {
        let mut s = PeerShard::new(k(id), 100);
        s.peer.pred = k(pred);
        s.peer.succ = k(succ);
        s
    }

    #[test]
    fn sync_replicas_emits_one_walk_per_node() {
        let mut s = shard_with_ring("M", "D", "T");
        s.install(NodeState::new(k("E")));
        s.install(NodeState::new(k("K")));
        let mut fx = Effects::default();
        on_sync_replicas(&mut s, 3, &mut fx);
        assert_eq!(fx.out.len(), 2);
        for e in &fx.out {
            assert_eq!(e.to, Address::Peer(k("T")));
            match &e.msg {
                Message::Peer(PeerMsg::Replicate { primary, ttl, .. }) => {
                    assert_eq!(primary, &k("M"));
                    assert_eq!(*ttl, 2);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn sync_replicas_noop_for_k1_and_solitary() {
        let mut s = shard_with_ring("M", "D", "T");
        s.install(NodeState::new(k("E")));
        let mut fx = Effects::default();
        on_sync_replicas(&mut s, 1, &mut fx);
        assert!(fx.out.is_empty());
        let mut solo = shard_with_ring("M", "M", "M");
        solo.install(NodeState::new(k("E")));
        on_sync_replicas(&mut solo, 2, &mut fx);
        assert!(fx.out.is_empty());
    }

    #[test]
    fn replicate_stores_and_forwards_until_ttl_drains() {
        let mut s = shard_with_ring("T", "M", "Z");
        let mut fx = Effects::default();
        let seed = NodeSeed {
            label: k("E"),
            father: None,
            children: vec![],
            data: vec![k("E")],
        };
        on_replicate(&mut s, k("M"), 2, seed.clone(), &mut fx);
        assert!(s.replicas.contains_key(&k("E")));
        assert_eq!(fx.out.len(), 1, "ttl 2 forwards once more");
        let mut fx2 = Effects::default();
        on_replicate(&mut s, k("M"), 1, seed, &mut fx2);
        assert!(fx2.out.is_empty(), "ttl 1 is the last stop");
    }

    #[test]
    fn replicate_walk_stops_at_wraparound() {
        // Ring of two: M -> T -> M. A walk with a large ttl must not
        // bounce forever.
        let mut s = shard_with_ring("T", "M", "M");
        let mut fx = Effects::default();
        let seed = NodeSeed {
            label: k("E"),
            father: None,
            children: vec![],
            data: vec![],
        };
        on_replicate(&mut s, k("M"), 5, seed.clone(), &mut fx);
        assert!(s.replicas.contains_key(&k("E")));
        assert!(fx.out.is_empty(), "successor is the primary: stop");
        // And the primary itself silently drops a fully wrapped walk.
        let mut p = shard_with_ring("M", "T", "T");
        on_replicate(&mut p, k("M"), 5, seed, &mut fx);
        assert!(p.replicas.is_empty());
    }

    #[test]
    fn drop_and_promote_replica() {
        let mut s = shard_with_ring("T", "M", "Z");
        let mut node = NodeState::new(k("E"));
        node.data.insert(k("E"));
        s.replicas.insert(k("E"), node);
        let mut fx = Effects::default();
        on_promote_replica(&mut s, &k("E"), &mut fx);
        assert!(s.nodes.contains_key(&k("E")), "promoted to hosted");
        assert!(s.replicas.is_empty());
        assert_eq!(fx.relocated, vec![(k("E"), k("T"))]);
        // Promote without a copy: silent no-op.
        let mut fx2 = Effects::default();
        on_promote_replica(&mut s, &k("ZZ"), &mut fx2);
        assert!(fx2.relocated.is_empty());
        // Drop removes a copy and tolerates absence.
        s.replicas.insert(k("F"), NodeState::new(k("F")));
        on_drop_replica(&mut s, &k("F"));
        on_drop_replica(&mut s, &k("F"));
        assert!(s.replicas.is_empty());
    }

    #[test]
    fn successors_wrap_dedup_and_exclude_primary() {
        let peers: Vec<Key> = ["A", "D", "M", "T"].iter().map(|s| k(s)).collect();
        assert_eq!(successors_of(&peers, &k("M"), 2), vec![k("T"), k("A")]);
        assert_eq!(
            successors_of(&peers, &k("T"), 5),
            vec![k("A"), k("D"), k("M")],
            "capped at the other live peers"
        );
        // Primary absent (just crashed): successors from its old slot.
        assert_eq!(successors_of(&peers, &k("F"), 2), vec![k("M"), k("T")]);
        assert!(successors_of(&peers, &k("M"), 0).is_empty());
        assert!(successors_of(&[], &k("M"), 2).is_empty());
        let one = vec![k("A")];
        assert!(successors_of(&one, &k("A"), 3).is_empty());
    }
}
