//! `churn_sec4`: the paper's Section-4 loop in its Figure 7 regime (10%
//! of peers replaced per unit, load 0.80 of aggregate capacity) over the
//! MLT, KC and no-LB curves, driven through the public `LoadBalancer`,
//! `add_peer_with_id`, `leave_peer`, `insert_data`, `request` and
//! `end_time_unit` calls. Most of its work is in `balance`, joins and
//! leaves, and the insertion protocol, under capacity drops.
//!
//! The loop mirrors `dlpt_sim::run::run_once` step for step and draw
//! for draw, so each unit's issued and satisfied counts must equal that
//! function's for the same config and run index.

use crate::common::*;
use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::system::DlptSystem;
use dlpt_core::{LoadBalancer, MetricsRegistry};
use dlpt_sim::config::{CorpusKind, ExperimentConfig};
use dlpt_sim::experiments::fig7_configs;
use dlpt_sim::run::run_once;
use dlpt_workloads::capacity::CapacityModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Run indices per curve in one benchmark run.
const RUNS_PER_CURVE: usize = 4;

/// Per-call timings, by the public call they wrap.
#[derive(Default)]
struct Calls {
    setup: Samples,
    reads: Samples,
    facade_reads: Samples,
    writes: Samples,
    joins: Samples,
    leaves: Samples,
    inserts: Samples,
    units: Samples,
    end_units: Samples,
    balance: Samples,
    join_ids: Samples,
}

/// Deterministic tallies of the count window.
#[derive(Default)]
struct Tally {
    ops: u64,
    writes: u64,
    issued: u64,
    satisfied: u64,
    hops: u64,
    units: u64,
    migrations: u64,
    bytes_per_node: f64,
    counts: Counters,
    metrics: MetricsRegistry,
}

/// One peer join: capacity draw, the balancer's identifier choice
/// (KC evaluates candidates here), then the routed join.
fn join(
    lb: &dyn LoadBalancer,
    capacities: &CapacityModel,
    sys: &mut DlptSystem,
    rng: &mut StdRng,
    calls: &mut Calls,
    out: &mut Out,
) {
    let cap = capacities.draw(rng);
    let j0 = Instant::now();
    let id = lb.choose_join_id(sys, rng, cap);
    let j1 = Instant::now();
    out.check(sys.add_peer_with_id(id, cap).is_ok());
    calls.join_ids.push(j1.duration_since(j0).as_nanos() as u64);
    calls.joins.push(ns_since(j1));
    calls.writes.push(ns_since(j0));
}

/// One episode: the Section-4 loop for `cfg` and `run_idx`. Returns each
/// unit's `(issued, satisfied)`.
fn episode(
    cfg: &ExperimentConfig,
    run_idx: usize,
    ledger: Option<&mut Ledger>,
    calls: &mut Calls,
    tally: &mut Tally,
    out: &mut Out,
    corrupt: &mut bool,
) -> Vec<(u64, u64)> {
    let mut ledger = ledger;
    let seed = cfg.base_seed.wrapping_add(run_idx as u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut corpus = cfg.corpus.build(&mut rng);
    corpus.shuffle(&mut rng);

    let t0 = Instant::now();
    let mut sys = DlptSystem::builder()
        .alphabet(cfg.corpus.alphabet())
        .seed(seed)
        .peer_id_len(cfg.peer_id_len)
        .replication(cfg.replication)
        .cache_capacity(cfg.cache_capacity)
        .build();
    let capacities = CapacityModel {
        base: cfg.base_capacity,
        ratio: cfg.capacity_ratio,
    };
    let mut lb = cfg.lb.build();
    for _ in 0..cfg.peers {
        join(&*lb, &capacities, &mut sys, &mut rng, calls, out);
    }
    calls.setup.push(ns_since(t0));
    tally.ops += cfg.peers as u64;
    tally.writes += cfg.peers as u64;
    sys.metrics.reset();
    let before = Counters::read(&sys);
    let migrations = sys.stats.balance_migrations;

    let mut pop = cfg.popularity.build();
    let per_unit_growth = corpus.len().div_ceil(cfg.growth_units.max(1) as usize);
    let mut next_key = 0usize;
    let mut live_keys: Vec<Key> = Vec::with_capacity(corpus.len());
    let mut units = Vec::with_capacity(cfg.time_units as usize);
    for t in 0..cfg.time_units {
        let u0 = Instant::now();
        // (1) Load balancing on recent history.
        let b0 = Instant::now();
        lb.before_unit(&mut sys, &mut rng);
        calls.balance.push(ns_since(b0));

        // (2) Joins.
        let joins = cfg.churn.joins(sys.peer_count(), &mut rng);
        for _ in 0..joins {
            join(&*lb, &capacities, &mut sys, &mut rng, calls, out);
        }
        tally.ops += joins as u64;
        tally.writes += joins as u64;

        // (3) Graceful leaves, never the last peer.
        let leaves = cfg.churn.leaves(sys.peer_count(), &mut rng);
        for _ in 0..leaves {
            let ids = sys.peer_ids();
            if ids.len() <= 1 {
                break;
            }
            let victim = ids[rng.gen_range(0..ids.len())].clone();
            let l0 = Instant::now();
            out.check(sys.leave_peer(&victim).is_ok());
            let ns = ns_since(l0);
            calls.leaves.push(ns);
            calls.writes.push(ns);
            tally.ops += 1;
            tally.writes += 1;
        }
        // The Figure 7 regime has no crashes; the draw is kept so the
        // random stream stays the one `run_once` consumes.
        let crashes = cfg.churn.crashes(sys.peer_count(), &mut rng);
        out.check(crashes == 0);

        // (4) Service registrations (tree growth).
        let goal = if t + 1 >= cfg.growth_units {
            corpus.len()
        } else {
            ((t as usize + 1) * per_unit_growth).min(corpus.len())
        };
        while next_key < goal {
            let key = corpus[next_key].clone();
            let i0 = Instant::now();
            out.check(sys.insert_data(key.clone()).is_ok());
            let ns = ns_since(i0);
            calls.inserts.push(ns);
            calls.writes.push(ns);
            live_keys.push(key);
            next_key += 1;
            tally.ops += 1;
            tally.writes += 1;
        }

        // (5) Discovery requests at the configured load.
        let aggregate: u64 = sys
            .peer_ids()
            .iter()
            .filter_map(|p| sys.shard(p))
            .map(|s| s.peer.capacity as u64)
            .sum();
        let n_requests = (cfg.load * aggregate as f64 / cfg.route_cost.max(1.0)).round() as usize;
        let (mut issued, mut satisfied) = (0u64, 0u64);
        if !live_keys.is_empty() {
            for _ in 0..n_requests {
                let key = live_keys[pop.pick(&live_keys, &mut rng, t)].clone();
                let q = QueryKind::Exact(key.clone());
                let r0 = Instant::now();
                let res = match ledger.as_deref_mut() {
                    Some(l) => match l.request(&mut sys, q) {
                        Ok(Some(r)) => Ok(r),
                        Ok(None) => {
                            out.check(false);
                            continue;
                        }
                        Err(e) => Err(e),
                    },
                    None => sys.request(q),
                };
                let ns = ns_since(r0);
                calls.reads.push(ns);
                if ledger.is_none() {
                    calls.facade_reads.push(ns);
                }
                let Ok(mut r) = res else {
                    continue;
                };
                if std::mem::take(corrupt) {
                    r.results.push(Key::from("corrupted"));
                }
                // Only registered keys are requested: a satisfied
                // request returns exactly its key, an unsatisfied one
                // was refused by an exhausted peer.
                out.check(if r.satisfied {
                    r.results == [key]
                } else {
                    r.dropped
                });
                issued += 1;
                tally.ops += 1;
                if r.satisfied {
                    satisfied += 1;
                    tally.hops += r.physical_hops() as u64;
                }
            }
        }
        let e0 = Instant::now();
        sys.end_time_unit();
        calls.end_units.push(ns_since(e0));
        calls.units.push(ns_since(u0));
        tally.issued += issued;
        tally.satisfied += satisfied;
        units.push((issued, satisfied));
    }
    tally.units += cfg.time_units as u64;
    tally.migrations += sys.stats.balance_migrations - migrations;
    tally.counts.add(Counters::read(&sys).minus(before));
    tally.metrics.merge(&sys.metrics);
    tally.bytes_per_node += ratio(sys.bytes_estimate().total() as f64, sys.node_count() as f64);
    out.check(sys.audit().is_empty());
    units
}

pub fn run(o: &Opts, out: &mut Out) {
    let mut configs = fig7_configs();
    if o.tiny {
        for c in &mut configs {
            c.peers = 20;
            c.corpus = CorpusKind::GridSubset(150);
            c.time_units = 8;
            c.growth_units = 3;
        }
    }
    let runs = if o.tiny { 1 } else { RUNS_PER_CURVE };
    let episodes: Vec<(usize, usize)> = (0..runs)
        .flat_map(|j| (0..configs.len()).map(move |c| (c, o.seed as usize * runs + j)))
        .collect();

    // Count window: every episode once, untimed, each checked unit by
    // unit against `run_once`.
    let mut corrupt = o.corrupt;
    let mut calls = Calls::default();
    let mut tally = Tally::default();
    let mut scratch = Ledger::new();
    let mut expect = Vec::new();
    for &(c, run_idx) in &episodes {
        let ledger = o.trace.then_some(&mut scratch);
        let got = episode(
            &configs[c],
            run_idx,
            ledger,
            &mut calls,
            &mut tally,
            out,
            &mut corrupt,
        );
        let want: Vec<(u64, u64)> = run_once(&configs[c], run_idx)
            .units
            .iter()
            .map(|u| (u.issued, u.satisfied))
            .collect();
        for (g, w) in got.iter().zip(&want) {
            out.check(g == w);
        }
        out.check(got.len() == want.len());
        expect.push(want);
    }
    let n = episodes.len() as f64;
    out.det(
        "satisfied_pct",
        100.0 * ratio(tally.satisfied as f64, tally.issued as f64),
        "%",
    );
    out.det(
        "hops_per_read",
        ratio(tally.hops as f64, tally.satisfied as f64),
        "count",
    );
    out.det("bytes_per_node", tally.bytes_per_node / n, "B");
    out.det(
        "balance.migrations_per_unit",
        ratio(tally.migrations as f64, tally.units as f64),
        "count",
    );
    tally.counts.report(out, tally.ops, tally.writes);
    report_obs(out, &tally.metrics);

    // Timed phase: the same episodes again, until the time is up. The
    // traced run alternates facade and traced replays.
    let mut setups = std::mem::take(&mut calls.setup);
    let mut calls = Calls::default();
    let mut tally = Tally::default();
    let mut ledger = Ledger::new();
    let mut passes = Passes::new();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < o.seconds || passes.count() == 0 {
        let ops = tally.ops;
        let (c, run_idx) = episodes[i % episodes.len()];
        let traced = o.trace && (i / episodes.len()) % 2 == 1;
        let got = episode(
            &configs[c],
            run_idx,
            traced.then_some(&mut ledger),
            &mut calls,
            &mut tally,
            out,
            &mut false,
        );
        out.check(got == expect[i % episodes.len()]);
        passes.ops(tally.ops - ops);
        passes.reads.0.append(&mut calls.reads.0);
        passes.writes.0.append(&mut calls.writes.0);
        passes.batches.0.append(&mut calls.units.0);
        i += 1;
        if i.is_multiple_of(episodes.len()) {
            passes.end();
        }
    }

    // Set-up is each episode's bootstrap ring (system build plus the
    // initial joins), over every episode of the run.
    passes.setups.0.append(&mut setups.0);
    passes.setups.0.append(&mut calls.setup.0);
    passes.report(out);
    if o.trace {
        let facade = calls.facade_reads.mean();
        out.timing("system.request_ns", facade, "ns");
        out.timing("system.insert_ns", calls.inserts.mean(), "ns");
        out.timing("system.join_ns", calls.joins.mean(), "ns");
        out.timing("system.leave_ns", calls.leaves.mean(), "ns");
        out.timing("system.end_unit_ns", calls.end_units.mean(), "ns");
        out.timing("balance.step_ns", calls.balance.mean(), "ns");
        out.timing("balance.join_id_ns", calls.join_ids.mean(), "ns");
        ledger.report_engine(out, facade, &scratch);
        if let Some(path) = &o.spans {
            ledger.write(path).expect("span file is writable");
        }
    }
}
