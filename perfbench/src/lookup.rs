//! `lookup_zipf`: the sync pump (`DlptSystem`) with route caches under
//! Zipf-skewed exact lookups, depth-4 completions and remove/re-insert
//! writes. Most of its work is in `cache`, `directory` and
//! `engine::deliver`; the writes dissolve nodes, so cache invalidations
//! fan out beside the cached reads.

use crate::common::*;
use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::system::DlptSystem;
use dlpt_workloads::corpus::Corpus;
use dlpt_workloads::popularity::{Popularity, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const PEERS: usize = 100;
const CACHE: usize = 256;
const PLAN: usize = 32_768;
const BLOCK: usize = 256;

/// Seeds the world every run shares: the ring's peer identifiers and
/// the corpus order. `--seed` draws the plan (and entry nodes) over it,
/// so runs of different seeds measure one system under different
/// request streams.
pub const WORLD_SEED: u64 = 0xD1_97;

pub enum Op {
    Read(QueryKind),
    Write(Key),
}

/// The registered corpus in a fixed shuffled order, which is also the
/// Zipf popularity rank order.
pub fn corpus(o: &Opts) -> Vec<Key> {
    let mut keys = if o.tiny {
        Corpus::grid().take_spread(200)
    } else {
        Corpus::grid().keys
    };
    keys.shuffle(&mut StdRng::seed_from_u64(WORLD_SEED));
    keys
}

/// A sync-pump system with `peers` peers and every key registered. The
/// ring is the same for every seed; the seed drives the entry-node
/// draws from here on.
pub fn build(seed: u64, peers: usize, keys: &[Key]) -> DlptSystem {
    let mut sys = DlptSystem::builder()
        .seed(WORLD_SEED)
        .peer_id_len(12)
        .cache_capacity(CACHE)
        .bootstrap_peers(peers)
        .build();
    for k in keys {
        sys.insert_data(k.clone())
            .expect("registration on a live ring");
    }
    *sys.rng() = StdRng::seed_from_u64(seed);
    sys
}

/// Remove then re-insert: the key leaves (its node may dissolve and
/// invalidate cached shortcuts) and comes back, so the registered set
/// is the same after every write.
pub fn write(sys: &mut DlptSystem, k: &Key) -> bool {
    sys.remove_data(k).is_ok() && sys.insert_data(k.clone()).is_ok()
}

/// What the count window measured: the deterministic metrics.
#[derive(Default)]
pub struct Window {
    pub ops: u64,
    pub writes: u64,
    pub reads: u64,
    pub satisfied: u64,
    pub exact: u64,
    pub hops: u64,
    pub labels: u64,
}

impl Window {
    pub fn read(&mut self, out: &dlpt_core::engine::LookupOutcome, exact: bool) {
        self.ops += 1;
        self.reads += 1;
        self.satisfied += out.satisfied as u64;
        self.labels += out.path.len() as u64;
        if exact {
            self.exact += 1;
            self.hops += out.physical_hops() as u64;
        }
    }

    pub fn report(&self, out: &mut Out, sys: &dlpt_core::Engine) {
        out.det(
            "satisfied_pct",
            100.0 * ratio(self.satisfied as f64, self.reads as f64),
            "%",
        );
        out.det(
            "hops_per_read",
            ratio(self.hops as f64, self.exact as f64),
            "count",
        );
        out.det(
            "directory.labels_per_read",
            ratio(self.labels as f64, self.reads as f64),
            "count",
        );
        let bytes = sys.bytes_estimate().total() as f64;
        out.det("bytes_per_node", ratio(bytes, sys.node_count() as f64), "B");
    }
}

/// Timings of the timed phase.
#[derive(Default)]
struct Timed {
    /// Facade request times (untraced blocks of the traced run).
    facade_reads: Samples,
    removes: Samples,
    inserts: Samples,
    resolve_ns: u64,
    resolved_labels: u64,
}

pub fn run(o: &Opts, out: &mut Out) {
    let mut rng = StdRng::seed_from_u64(o.seed ^ 0x21FF);
    let keys = corpus(o);
    let peers = if o.tiny { 20 } else { PEERS };
    let t = Instant::now();
    let mut sys = build(o.seed, peers, &keys);
    let first_setup = ns_since(t);

    // The plan and its expected results, drawn before timing starts.
    let oracle = oracle(&keys);
    let mut zipf = Zipf::new(1.2);
    let plan_len = if o.tiny { 2048 } else { PLAN };
    let mut plan = Vec::with_capacity(plan_len);
    for _ in 0..plan_len {
        let u = rng.gen_range(0..100u32);
        let op = if u < 85 {
            Op::Read(QueryKind::Exact(
                keys[zipf.pick(&keys, &mut rng, 0)].clone(),
            ))
        } else if u < 90 {
            let k = &keys[rng.gen_range(0..keys.len())];
            Op::Read(QueryKind::Complete(k.truncated(4)))
        } else {
            Op::Write(keys[rng.gen_range(0..keys.len())].clone())
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

    // Count window: one untimed pass over the plan, which also warms
    // the caches. Every deterministic metric comes from this pass.
    let mut corrupt = o.corrupt;
    let mut win = Window::default();
    let mut scratch = Ledger::new();
    sys.metrics.reset();
    let before = Counters::read(&sys);
    for (op, want) in plan.iter().zip(&expect) {
        match op {
            Op::Read(q) => {
                let exact = matches!(q, QueryKind::Exact(_));
                let res = if o.trace {
                    scratch.request(&mut sys, q.clone()).ok().flatten()
                } else {
                    sys.request(q.clone()).ok()
                };
                match res {
                    Some(mut r) => {
                        if std::mem::take(&mut corrupt) {
                            r.results.push(Key::from("corrupted"));
                        }
                        out.check(r.satisfied && r.results == *want);
                        win.read(&r, exact);
                    }
                    None => out.check(false),
                }
            }
            Op::Write(k) => {
                out.check(write(&mut sys, k));
                win.ops += 1;
                win.writes += 1;
            }
        }
    }
    let counts = Counters::read(&sys).minus(before);
    counts.report(out, win.ops, win.writes);
    report_obs(out, &sys.metrics);
    win.report(out, &sys);

    // Timed phase: the plan again, in blocks, until the time is up.
    let mut ledger = Ledger::new();
    let mut t = Timed::default();
    let mut passes = Passes::new();
    passes.setups.push(first_setup);
    let per_pass = plan.len() / BLOCK;
    let start = Instant::now();
    let mut block = 0usize;
    while start.elapsed().as_secs_f64() < o.seconds || passes.count() == 0 {
        // The traced run alternates traced and facade blocks, swapping
        // halves every pass so both see the whole plan.
        let traced = o.trace && (block + block / per_pass) % 2 == 1;
        let b0 = Instant::now();
        for i in 0..BLOCK {
            let idx = (block * BLOCK + i) % plan.len();
            match &plan[idx] {
                Op::Read(q) => {
                    let q = q.clone();
                    let r0 = Instant::now();
                    let res = if traced {
                        ledger.request(&mut sys, q).ok().flatten()
                    } else {
                        sys.request(q).ok()
                    };
                    let ns = ns_since(r0);
                    passes.reads.push(ns);
                    if o.trace && !traced {
                        t.facade_reads.push(ns);
                    }
                    match res {
                        Some(r) => {
                            out.check(r.satisfied && r.results == expect[idx]);
                            if traced {
                                match replay_path(&sys, &r.path) {
                                    Some(ns) => {
                                        t.resolve_ns += ns;
                                        t.resolved_labels += r.path.len() as u64;
                                    }
                                    None => out.check(false),
                                }
                            }
                        }
                        None => out.check(false),
                    }
                }
                Op::Write(k) => {
                    let w0 = Instant::now();
                    let ok = sys.remove_data(k).is_ok();
                    let w1 = Instant::now();
                    let ok = ok && sys.insert_data(k.clone()).is_ok();
                    let w2 = Instant::now();
                    passes.writes.push(w2.duration_since(w0).as_nanos() as u64);
                    t.removes.push(w1.duration_since(w0).as_nanos() as u64);
                    t.inserts.push(w2.duration_since(w1).as_nanos() as u64);
                    out.check(ok);
                }
            }
        }
        passes.batches.push(ns_since(b0));
        passes.ops(BLOCK as u64);
        block += 1;
        if block.is_multiple_of(per_pass) {
            passes.end();
            passes.setup(|| build(o.seed, peers, &keys));
        }
    }
    out.check(sys.audit().is_empty());

    passes.report(out);
    if o.trace {
        let facade = t.facade_reads.mean();
        out.timing("system.request_ns", facade, "ns");
        out.timing("system.remove_ns", t.removes.mean(), "ns");
        out.timing("system.insert_ns", t.inserts.mean(), "ns");
        ledger.report_engine(out, facade, &scratch);
        out.timing(
            "directory.resolve_ns",
            ratio(t.resolve_ns as f64, t.resolved_labels as f64),
            "ns",
        );
        if let Some(path) = &o.spans {
            ledger.write(path).expect("span file is writable");
        }
    }
}
