//! Service discovery routing (Section 2 of the paper).
//!
//! "When a discovery request sent by a client enters the tree, on a
//! random node, the request moves upward until reaching a node whose
//! subtree contains the requested node and then moves \[downward\] to
//! this node. The DLPT system supports range queries and automatic
//! completion of partial search strings."
//!
//! Exact queries terminate at the node owning the key. Range and
//! completion queries route to the node *covering* the query's target
//! region (the GCP of the range bounds, resp. the partial string) and
//! then scatter over the covered subtree; every visited node reports
//! its matches directly to the client together with the number of
//! children it forwarded to, and the runtime aggregates until the
//! counter drains.
//!
//! Hop accounting: a node appends its label to the request's path
//! exactly once per visit; phase transitions are processed in place so
//! a visit costs one message. The hosting peer's capacity is charged by
//! the runtime at delivery (Section 4's model: requests arriving at an
//! exhausted peer are ignored).

use crate::key::Key;
use crate::messages::{DiscoveryMsg, DiscoveryOutcome, Envelope, NodeMsg, QueryKind, RoutePhase};
use crate::node::NodeState;
use crate::peer::PeerShard;
use crate::protocol::Effects;

/// Handles one visit of a discovery request at node `node_label`.
pub fn on_discovery(shard: &mut PeerShard, node_label: &Key, msg: DiscoveryMsg, fx: &mut Effects) {
    let node = shard.nodes.get(node_label).expect("routed to hosted node");
    on_discovery_at(node, msg, fx);
}

/// The routing core, over a borrowed node state. Split out of
/// [`on_discovery`] so the capacity-failover path can serve the same
/// visit from a follower replica copy (`protocol::repair`): routing
/// only ever *reads* the node, so any up-to-date copy answers alike.
pub fn on_discovery_at(node: &NodeState, mut msg: DiscoveryMsg, fx: &mut Effects) {
    // One label per visit, for hop accounting. Gather-phase branch
    // visits skip it: their envelopes deliberately carry an empty path
    // (the aggregator counts each partial as one visit via
    // `len().max(1)`, and a one-label branch path can never beat the
    // root report's routed path for `best_path`), so pushing into that
    // empty vector would be the fan-out's only allocation.
    if !matches!(msg.phase, RoutePhase::Gather) {
        msg.path.push(node.label.clone());
    }
    match msg.phase {
        RoutePhase::Up => {
            // One target computation serves the whole visit (the
            // descent reuses it instead of re-deriving it).
            let target = msg.query.target();
            match &node.father {
                // Only the father link of an upward forward is cloned
                // (inline: a memcpy).
                Some(f) if !node.label.is_prefix_of(&target) => {
                    fx.send(Envelope::to_node(f.clone(), NodeMsg::Discovery(msg)));
                }
                _ => {
                    // This node covers the target's region (or is the
                    // root): switch to the descent.
                    msg.phase = RoutePhase::Down;
                    descend(node, msg, target, fx);
                }
            }
        }
        RoutePhase::Down => {
            let target = msg.query.target();
            descend(node, msg, target, fx)
        }
        RoutePhase::Gather => gather(node, msg, fx),
    }
}

/// Downward phase: walk toward the node covering the query target
/// (`target` is the caller's already-computed [`QueryKind::target`]).
fn descend(node: &NodeState, mut msg: DiscoveryMsg, target: Key, fx: &mut Effects) {
    // The node is only inspected; the single clone below is the child
    // label a forwarded envelope must own.
    if node.label == target {
        at_covering_node(node, msg, fx);
        return;
    }
    if node.label.is_proper_prefix_of(&target) {
        match node.child_extending(&target).cloned() {
            Some(q) if q.is_prefix_of(&target) => {
                // Stay on the target's path.
                msg.phase = RoutePhase::Down;
                fx.send(Envelope::to_node(q, NodeMsg::Discovery(msg)));
            }
            Some(q) if target.is_proper_prefix_of(&q) => {
                // The target's node does not exist but q's whole
                // subtree extends the target region.
                match msg.query {
                    QueryKind::Exact(_) => finish_exact(msg, false, fx),
                    _ => {
                        msg.phase = RoutePhase::Gather;
                        // The down-phase walk is complete; report it so
                        // the aggregator owns the full route, and treat
                        // the forward as one outstanding branch.
                        let report = DiscoveryOutcome {
                            request_id: msg.request_id,
                            satisfied: true,
                            dropped: false,
                            results: Vec::new(),
                            path: std::mem::take(&mut msg.path),
                            pending_children: 1,
                        };
                        fx.send(Envelope::to_client(report.request_id, report));
                        fx.send(Envelope::to_node(q, NodeMsg::Discovery(msg)));
                    }
                }
            }
            Some(_) | None => {
                // Either a child shares a longer prefix but diverges
                // before the target, or nothing extends it: the target
                // region is empty.
                match msg.query {
                    QueryKind::Exact(_) => finish_exact(msg, false, fx),
                    _ => finish_empty_region(msg, fx),
                }
            }
        }
        return;
    }
    if target.is_proper_prefix_of(&node.label) {
        // Only reachable at the root: the covering region starts above
        // the whole tree, so the root's subtree is the covered region.
        match msg.query {
            QueryKind::Exact(_) => finish_exact(msg, false, fx),
            _ => at_covering_node(node, msg, fx),
        }
        return;
    }
    // Divergence (root case): the target region is disjoint from every
    // registered key.
    match msg.query {
        QueryKind::Exact(_) => finish_exact(msg, false, fx),
        _ => finish_empty_region(msg, fx),
    }
}

/// The request reached the node covering its target region.
fn at_covering_node(node: &NodeState, mut msg: DiscoveryMsg, fx: &mut Effects) {
    match &msg.query {
        QueryKind::Exact(k) => {
            let found = node.data.contains(k);
            finish_exact(msg, found, fx);
        }
        _ => {
            // Start the scatter here; this visit is already paid for,
            // so run the gather step inline.
            msg.phase = RoutePhase::Gather;
            gather(node, msg, fx);
        }
    }
}

/// Terminal report for an exact query.
fn finish_exact(msg: DiscoveryMsg, found: bool, fx: &mut Effects) {
    let key = match &msg.query {
        QueryKind::Exact(k) => k.clone(),
        _ => unreachable!("finish_exact on non-exact query"),
    };
    let outcome = DiscoveryOutcome {
        request_id: msg.request_id,
        satisfied: found,
        dropped: false,
        results: if found { vec![key] } else { Vec::new() },
        path: msg.path,
        pending_children: 0,
    };
    fx.send(Envelope::to_client(outcome.request_id, outcome));
}

/// Terminal report for a range/completion query whose target region is
/// provably empty. The walk still "reached its final destination" in
/// the paper's sense — there was nothing to find.
fn finish_empty_region(msg: DiscoveryMsg, fx: &mut Effects) {
    let outcome = DiscoveryOutcome {
        request_id: msg.request_id,
        satisfied: true,
        dropped: false,
        results: Vec::new(),
        path: msg.path,
        pending_children: 0,
    };
    fx.send(Envelope::to_client(outcome.request_id, outcome));
}

/// Scatter phase of range/completion queries: report local matches and
/// fan out to the children whose subtrees can intersect the query.
///
/// The node is only inspected; branch envelopes are emitted directly
/// from the borrowed child set (no staging `Vec`, one extra counting
/// pass over the few children instead), and the visit path is moved —
/// not cloned — into the partial report. The report precedes the
/// branch forwards, so on a FIFO transport the aggregator sees this
/// node's `pending_children` before any branch outcome and its
/// outstanding counter never touches zero mid-request.
fn gather(node: &NodeState, mut msg: DiscoveryMsg, fx: &mut Effects) {
    let results: Vec<Key> = node
        .data
        .iter()
        .filter(|k| msg.query.matches(k))
        .cloned()
        .collect();
    // Single pass over the children: emit the branch envelopes, then
    // splice the report in *front* of them (see above). The
    // splice shifts at most fan-out envelopes — cheaper than running
    // the prune predicate twice.
    let mark = fx.out.len();
    for c in node.children.iter() {
        if !subtree_may_match(&msg.query, c) {
            continue;
        }
        let branch = DiscoveryMsg {
            request_id: msg.request_id,
            query: msg.query.clone(),
            phase: RoutePhase::Gather,
            path: Vec::new(), // branch visits are counted via partials
        };
        fx.send(Envelope::to_node(c.clone(), NodeMsg::Discovery(branch)));
    }
    let pending_children = (fx.out.len() - mark) as u32;
    let outcome = DiscoveryOutcome {
        request_id: msg.request_id,
        satisfied: true,
        dropped: false,
        results,
        path: std::mem::take(&mut msg.path),
        pending_children,
    };
    fx.out
        .insert(mark, Envelope::to_client(outcome.request_id, outcome));
}

/// Conservative pruning: can the subtree rooted at `child` contain a
/// key matching the query? Subtree keys all have `child` as prefix.
fn subtree_may_match(query: &QueryKind, child: &Key) -> bool {
    match query {
        QueryKind::Exact(k) => child.is_prefix_of(k),
        QueryKind::Range(lo, hi) => {
            // All subtree keys are >= child and start with child.
            if child > hi {
                return false;
            }
            // If child < lo, only keys extending toward lo can reach
            // the range; that requires child to prefix lo.
            child >= lo || child.is_prefix_of(lo)
        }
        QueryKind::Complete(p) => {
            // Subtree keys extend `child`; they can extend `p` iff the
            // two are prefix-comparable.
            p.is_prefix_of(child) || child.is_prefix_of(p)
        }
    }
}

/// Builds the entry envelope for a fresh discovery request; used by
/// runtimes.
pub fn entry_envelope(entry_node: Key, request_id: u64, query: QueryKind) -> Envelope {
    Envelope::to_node(
        entry_node,
        NodeMsg::Discovery(DiscoveryMsg {
            request_id,
            query,
            phase: RoutePhase::Up,
            // Pre-sized for the up/down route of a corpus-scale tree:
            // one allocation per request, regardless of hop count.
            path: Vec::with_capacity(16),
        }),
    )
}

/// Result of [`deliver_visit`]: refusals hand the message back intact
/// so the runtime can requeue or synthesize a dropped outcome.
pub enum VisitGate {
    /// The node is not hosted here (hand-off in flight): nothing was
    /// charged — retry later.
    Missing(DiscoveryMsg),
    /// Charged and routed.
    Delivered,
    /// The peer's capacity is exhausted; offered load was recorded
    /// (`l_n` counts demand, per Section 4) but the request must be
    /// ignored — the runtime synthesizes a dropped outcome.
    Dropped(DiscoveryMsg),
}

/// Charge-and-route at delivery, the single home of the capacity
/// model's charging rule: one `nodes` probe serves the existence
/// check, increments the node's offered-load counter (`l_n`), consumes
/// one unit of the peer's capacity and runs the routing visit itself.
/// Every runtime routes every discovery delivery through it.
#[inline]
pub fn deliver_visit(
    shard: &mut PeerShard,
    node_label: &Key,
    msg: DiscoveryMsg,
    fx: &mut Effects,
) -> VisitGate {
    let Some(node) = shard.nodes.get_mut(node_label) else {
        return VisitGate::Missing(msg);
    };
    node.load += 1;
    if !shard.peer.try_accept() {
        return VisitGate::Dropped(msg);
    }
    on_discovery_at(node, msg, fx);
    VisitGate::Delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Address, Message};
    use crate::node::NodeState;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    /// Builds the Figure-1(a) tree on a single shard.
    fn paper_shard() -> PeerShard {
        let mut s = PeerShard::new(k("zz"), 1000);
        let spec: &[(&str, Option<&str>, &[&str], bool)] = &[
            ("", None, &["01", "101"], false),
            ("01", Some(""), &[], true),
            ("101", Some(""), &["10101", "10111"], false),
            ("10101", Some("101"), &[], true),
            ("10111", Some("101"), &["101111"], true),
            ("101111", Some("10111"), &[], true),
        ];
        for (label, father, children, has_data) in spec {
            let mut n = NodeState::new(k(label));
            n.father = father.map(k);
            for c in *children {
                n.children.insert(k(c));
            }
            if *has_data {
                n.data.insert(k(label));
            }
            s.install(n);
        }
        s
    }

    fn msg(query: QueryKind, phase: RoutePhase) -> DiscoveryMsg {
        DiscoveryMsg {
            request_id: 7,
            query,
            phase,
            path: Vec::new(),
        }
    }

    fn client_outcomes(fx: &Effects) -> Vec<&DiscoveryOutcome> {
        fx.out
            .iter()
            .filter_map(|e| match &e.msg {
                Message::ClientResponse(o) => Some(o),
                _ => None,
            })
            .collect()
    }

    /// Drives a request to completion on a single shard, aggregating
    /// like the runtime does. Returns (satisfied, results, down-path,
    /// total visits).
    fn run_to_completion(
        s: &mut PeerShard,
        entry: &str,
        query: QueryKind,
    ) -> (bool, Vec<Key>, Vec<Key>, usize) {
        let mut queue = vec![(k(entry), msg(query, RoutePhase::Up))];
        let mut results = Vec::new();
        let mut down_path = Vec::new();
        let mut visits = 0usize;
        let mut outstanding = 1i64;
        let mut satisfied = true;
        while let Some((label, m)) = queue.pop() {
            let mut fx = Effects::default();
            on_discovery(s, &label, m, &mut fx);
            for e in fx.out {
                match e.msg {
                    Message::ClientResponse(o) => {
                        outstanding += o.pending_children as i64 - 1;
                        satisfied &= o.satisfied;
                        results.extend(o.results);
                        visits += o.path.len().max(1);
                        if o.path.len() > down_path.len() {
                            down_path = o.path;
                        }
                    }
                    Message::Node(NodeMsg::Discovery(m2)) => {
                        if let Address::Node(l) = e.to {
                            queue.push((l, m2));
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(outstanding, 0, "aggregation must drain");
        results.sort();
        (satisfied, results, down_path, visits)
    }

    #[test]
    fn exact_lookup_up_then_down() {
        let mut s = paper_shard();
        let (sat, results, path, _) =
            run_to_completion(&mut s, "01", QueryKind::Exact(k("101111")));
        assert!(sat);
        assert_eq!(results, vec![k("101111")]);
        assert_eq!(
            path,
            vec![k("01"), Key::epsilon(), k("101"), k("10111"), k("101111")]
        );
    }

    #[test]
    fn exact_lookup_of_structural_label_is_unsatisfied() {
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "01", QueryKind::Exact(k("101")));
        assert!(!sat, "structural node holds no data");
        assert!(results.is_empty());
    }

    #[test]
    fn exact_lookup_missing_key() {
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "10101", QueryKind::Exact(k("111")));
        assert!(!sat);
        assert!(results.is_empty());
    }

    #[test]
    fn completion_gathers_subtree() {
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "01", QueryKind::Complete(k("101")));
        assert!(sat);
        assert_eq!(results, vec![k("10101"), k("10111"), k("101111")]);
    }

    #[test]
    fn completion_with_target_between_nodes() {
        // "1011" has no node; covering child 10111 extends it.
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "01", QueryKind::Complete(k("1011")));
        assert!(sat);
        assert_eq!(results, vec![k("10111"), k("101111")]);
    }

    #[test]
    fn completion_of_absent_prefix_is_empty() {
        let mut s = paper_shard();
        let (sat, results, _, _) = run_to_completion(&mut s, "10101", QueryKind::Complete(k("11")));
        assert!(sat, "reached the region; provably empty");
        assert!(results.is_empty());
    }

    #[test]
    fn range_query_collects_interval() {
        let mut s = paper_shard();
        let (sat, results, _, _) =
            run_to_completion(&mut s, "01", QueryKind::Range(k("10"), k("10111")));
        assert!(sat);
        assert_eq!(results, vec![k("10101"), k("10111")]);
    }

    #[test]
    fn range_query_covering_everything() {
        let mut s = paper_shard();
        let (sat, results, _, _) =
            run_to_completion(&mut s, "10111", QueryKind::Range(k("0"), k("2")));
        assert!(sat);
        assert_eq!(results, vec![k("01"), k("10101"), k("10111"), k("101111")]);
    }

    #[test]
    fn gather_reports_pending_children() {
        let mut s = paper_shard();
        let mut fx = Effects::default();
        on_discovery(
            &mut s,
            &k("101"),
            msg(QueryKind::Complete(k("101")), RoutePhase::Gather),
            &mut fx,
        );
        let outs = client_outcomes(&fx);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].pending_children, 2, "forwards to 10101 and 10111");
    }

    #[test]
    fn deliver_visit_counts_demand_even_when_dropped() {
        let mut s = paper_shard();
        s.peer.capacity = 1;
        let mut fx = Effects::default();
        let visit = || msg(QueryKind::Exact(k("101")), RoutePhase::Up);
        assert!(matches!(
            deliver_visit(&mut s, &k("101"), visit(), &mut fx),
            VisitGate::Delivered
        ));
        assert!(
            matches!(
                deliver_visit(&mut s, &k("101"), visit(), &mut fx),
                VisitGate::Dropped(_)
            ),
            "capacity exhausted"
        );
        assert_eq!(s.nodes[&k("101")].load, 2, "offered load counts drops");
        assert_eq!(s.peer.dropped_this_unit, 1);
        // An absent node charges nothing, not even the peer.
        assert!(matches!(
            deliver_visit(&mut s, &k("zzz"), visit(), &mut fx),
            VisitGate::Missing(_)
        ));
        assert_eq!(s.peer.dropped_this_unit, 1);
    }

    #[test]
    fn subtree_pruning() {
        assert!(subtree_may_match(&QueryKind::Complete(k("10")), &k("101")));
        assert!(subtree_may_match(
            &QueryKind::Complete(k("1011")),
            &k("101")
        ));
        assert!(!subtree_may_match(&QueryKind::Complete(k("11")), &k("101")));
        assert!(subtree_may_match(
            &QueryKind::Range(k("10"), k("11")),
            &k("101")
        ));
        assert!(!subtree_may_match(
            &QueryKind::Range(k("102"), k("11")),
            &k("101")
        ));
        assert!(subtree_may_match(
            &QueryKind::Range(k("1010"), k("1011")),
            &k("101")
        ));
    }
}
