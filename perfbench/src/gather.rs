//! `gather_latency`: the latency simulator (`LatencyNet`, uniform 1–30
//! tick delays) under completions at prefix depths 2–5, short ranges,
//! uniform exact lookups and remove/re-insert writes. Most of its work
//! is scatter/gather and the `sim` event queue; the route cache is off,
//! since only exact hits would learn shortcuts.

use crate::common::*;
use crate::lookup::{Op, Window, WORLD_SEED};
use dlpt_core::alphabet::Alphabet;
use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::obs::EventKind;
use dlpt_net::sim::{LatencyModel, LatencyNet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

const PEERS: usize = 100;
const PLAN: usize = 16_384;
const BLOCK: usize = 256;

/// The latency network with `peers` peers and every key registered; the
/// same for every seed (the network's own generator samples delays and
/// entry nodes, and has no public reseed).
fn build(peers: usize, keys: &[Key]) -> LatencyNet {
    let mut net = LatencyNet::new(LatencyModel::Uniform(1, 30), WORLD_SEED);
    let mut rng = StdRng::seed_from_u64(WORLD_SEED);
    let alphabet = Alphabet::grid();
    let mut ids = BTreeSet::new();
    while ids.len() < peers {
        let id = alphabet.random_id(&mut rng, 12);
        if ids.insert(id.clone()) {
            net.add_peer(id);
        }
    }
    for k in keys {
        net.insert_data(k.clone());
    }
    net
}

fn read(net: &mut LatencyNet, q: &QueryKind) -> (bool, Vec<Key>) {
    match q {
        QueryKind::Exact(k) => net.lookup(k),
        QueryKind::Range(lo, hi) => net.range(lo, hi),
        QueryKind::Complete(p) => net.complete(p),
    }
}

/// Physical hops of one exact request from the engine's trace: hop
/// events in order, counting changes of hosting peer.
fn physical_hops(net: &mut LatencyNet) -> u64 {
    let mut events = net.take_trace();
    events.sort_by_key(|e| e.seq);
    let hosts: Vec<u32> = events
        .iter()
        .filter(|e| e.kind == EventKind::Hop)
        .map(|e| e.b)
        .collect();
    hosts.windows(2).filter(|w| w[0] != w[1]).count() as u64
}

pub fn run(o: &Opts, out: &mut Out) {
    let mut rng = StdRng::seed_from_u64(o.seed ^ 0x6A7E);
    let keys = crate::lookup::corpus(o);
    let peers = if o.tiny { 20 } else { PEERS };
    let t = Instant::now();
    let mut net = build(peers, &keys);
    let first_setup = ns_since(t);

    let oracle = oracle(&keys);
    let mut sorted = keys.clone();
    sorted.sort();
    let plan_len = if o.tiny { 512 } else { PLAN };
    let mut plan = Vec::with_capacity(plan_len);
    for _ in 0..plan_len {
        let u = rng.gen_range(0..100u32);
        let k = keys[rng.gen_range(0..keys.len())].clone();
        let op = if u < 40 {
            Op::Read(QueryKind::Complete(k.truncated(rng.gen_range(2..=5))))
        } else if u < 60 {
            let i = rng.gen_range(0..sorted.len());
            let j = (i + rng.gen_range(1..=32usize)).min(sorted.len() - 1);
            Op::Read(QueryKind::Range(sorted[i].clone(), sorted[j].clone()))
        } else if u < 90 {
            Op::Read(QueryKind::Exact(k))
        } else {
            Op::Write(k)
        };
        plan.push(op);
    }
    let expect: Vec<Vec<Key>> = plan
        .iter()
        .map(|op| match op {
            Op::Read(q) => expected(&oracle, q),
            Op::Write(_) => Vec::new(),
        })
        .collect();

    // Count window: one untimed pass with the engine's trace ring on,
    // which is the only way this runtime exposes a request's hosts.
    let mut corrupt = o.corrupt;
    let mut win = Window::default();
    let (mut gathers, mut visits) = (0u64, 0u64);
    net.set_tracing(1 << 16);
    net.metrics.reset();
    let before = Counters::read(&net);
    let deliveries = net.deliveries;
    for (op, want) in plan.iter().zip(&expect) {
        win.ops += 1;
        match op {
            Op::Read(q) => {
                let v0 = net.stats.discovery_messages;
                let (ok, mut res) = read(&mut net, q);
                if std::mem::take(&mut corrupt) {
                    res.push(Key::from("corrupted"));
                }
                out.check(ok && res == *want);
                win.reads += 1;
                win.satisfied += ok as u64;
                if matches!(q, QueryKind::Exact(_)) {
                    win.exact += 1;
                    win.hops += physical_hops(&mut net);
                } else {
                    net.take_trace();
                    gathers += 1;
                    visits += net.stats.discovery_messages - v0;
                }
            }
            Op::Write(k) => {
                net.remove_data(k);
                net.insert_data(k.clone());
                net.take_trace();
                win.writes += 1;
            }
        }
    }
    net.set_tracing(0);
    let counts = Counters::read(&net).minus(before);
    counts.report(out, win.ops, win.writes);
    report_obs(out, &net.metrics);
    win.report(out, &net);
    let ops = win.ops as f64;
    out.det(
        "sim.deliveries_per_op",
        ratio((net.deliveries - deliveries) as f64, ops),
        "count",
    );
    out.det(
        "sim.visits_per_gather",
        ratio(visits as f64, gathers as f64),
        "count",
    );
    out.det(
        "sim.requeues_per_op",
        ratio(counts.requeues as f64, ops),
        "count",
    );

    // Timed phase: the plan again, in blocks, until the time is up.
    let mut requests = Samples::default();
    let mut passes = Passes::new();
    passes.setups.push(first_setup);
    let per_pass = plan.len() / BLOCK;
    let start = Instant::now();
    let mut block = 0usize;
    while start.elapsed().as_secs_f64() < o.seconds || passes.count() == 0 {
        let b0 = Instant::now();
        for i in 0..BLOCK {
            let idx = (block * BLOCK + i) % plan.len();
            match &plan[idx] {
                Op::Read(q) => {
                    let r0 = Instant::now();
                    let (ok, res) = read(&mut net, q);
                    let ns = ns_since(r0);
                    passes.reads.push(ns);
                    if o.trace {
                        requests.push(ns);
                    }
                    out.check(ok && res == expect[idx]);
                }
                Op::Write(k) => {
                    let w0 = Instant::now();
                    net.remove_data(k);
                    net.insert_data(k.clone());
                    passes.writes.push(ns_since(w0));
                }
            }
        }
        passes.batches.push(ns_since(b0));
        passes.ops(BLOCK as u64);
        block += 1;
        if block.is_multiple_of(per_pass) {
            passes.end();
            passes.setup(|| build(peers, &keys));
        }
    }
    // Every write removed and re-registered its key: the registered
    // set must still be the whole corpus, and the engine audit clean.
    let mut registered = net.registered_keys();
    registered.sort();
    out.check(registered == sorted);
    out.check(net.audit().is_empty());

    passes.report(out);
    if o.trace {
        out.timing("sim.request_ns", requests.mean(), "ns");
    }
}
