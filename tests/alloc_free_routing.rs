//! Counting-allocator proof of the zero-allocation routing hot path.
//!
//! The perf-baseline PR's claim is *per routed envelope*: once the
//! system is warm (queue, effect buffers and path vectors at their
//! high-water marks), forwarding a discovery envelope one more logical
//! hop must not allocate. Requests still pay a small constant setup
//! cost (the aggregation entry, the pre-sized path vector, the result
//! set), so the assertion is differential: a deep lookup and a shallow
//! lookup on the same warm system must allocate the *same* number of
//! times — i.e. the marginal cost of every extra hop is zero
//! allocations.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test can
//! pollute the global counter.

use dlpt::core::messages::QueryKind;
use dlpt::core::{Alphabet, DlptSystem, FifoTransport, Key};
use dlpt::net::{LatencyModel, LatencyNet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is a new allocation for the purpose of this proof.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations of one closure run.
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let r = f();
    (allocs() - before, r)
}

#[test]
fn routed_envelopes_are_allocation_free_in_steady_state() {
    // ---- Phase 1: small-key clones never touch the allocator. ------
    let key = Key::from("S3L_cholesky_factor"); // longest-family corpus name
    assert!(key.is_inline());
    let (n, clones) = count(|| {
        let mut v = Vec::with_capacity(64);
        for _ in 0..64 {
            v.push(key.clone());
        }
        v
    });
    assert_eq!(
        n, 1,
        "64 inline-key clones must cost exactly the one Vec allocation"
    );
    drop(clones);

    // Spilled keys clone by refcount — also allocation-free.
    let long = Key::from("X".repeat(100).as_str());
    assert!(!long.is_inline());
    let (n, c) = count(|| long.clone());
    assert_eq!(n, 0, "spilled-key clone is a refcount bump");
    drop(c);

    // ---- Phase 2: marginal hop cost on the sync pump is zero. ------
    // Binary paper tree: lookups from random entry nodes traverse
    // 0..=4 logical hops depending on entry/target distance.
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::binary())
        .seed(7)
        .peer_id_len(10)
        .bootstrap_peers(4)
        .build();
    for s in ["01", "10101", "10111", "101111"] {
        sys.insert_data(Key::from(s)).unwrap();
    }
    // Both requests enter at the SAME node ("01"), so the only
    // difference between them is how many envelopes get routed:
    // exact("01") resolves in place (0 hops), exact("101111") climbs
    // to ε and descends through 101 and 10111 (4 hops).
    let entry = Key::from("01");
    let shallow = QueryKind::Exact(Key::from("01"));
    let deep = QueryKind::Exact(Key::from("101111"));

    // Warm-up: run both lookups repeatedly so every internal buffer
    // (pump queue, effect scratch, gather maps, result vectors)
    // reaches its high-water mark.
    for _ in 0..32 {
        assert!(sys.request_from(&entry, shallow.clone()).unwrap().satisfied);
        assert!(sys.request_from(&entry, deep.clone()).unwrap().satisfied);
    }

    const ROUNDS: u64 = 64;
    let (shallow_allocs, hops_shallow) = count(|| {
        let mut hops = 0;
        for _ in 0..ROUNDS {
            hops += sys
                .request_from(&entry, shallow.clone())
                .unwrap()
                .logical_hops();
        }
        hops
    });
    let (deep_allocs, hops_deep) = count(|| {
        let mut hops = 0;
        for _ in 0..ROUNDS {
            hops += sys
                .request_from(&entry, deep.clone())
                .unwrap()
                .logical_hops();
        }
        hops
    });
    assert!(
        hops_deep > hops_shallow,
        "workload sanity: the deep key must route farther ({hops_deep} vs {hops_shallow} hops)"
    );
    // The deep run routes 256 extra envelopes (64 rounds x 4 hops); if
    // any per-hop path allocated, the difference would be >= 256. The
    // counter occasionally sees a couple of incidental allocations
    // (BTreeMap node churn in the aggregation maps straddling a
    // measurement boundary), so the assertion tolerates a constant
    // jitter far below one allocation per hop instead of flaking on
    // strict equality.
    const JITTER: u64 = 4;
    assert!(
        deep_allocs.abs_diff(shallow_allocs) <= JITTER,
        "extra routed envelopes must not allocate: {} hops cost {deep_allocs} allocs, \
         {} hops cost {shallow_allocs}",
        hops_deep,
        hops_shallow
    );
    // And the fixed per-request overhead itself stays small.
    assert!(
        shallow_allocs / ROUNDS <= 16,
        "per-request setup regressed: {} allocs/request",
        shallow_allocs / ROUNDS
    );

    // ---- Phase 3: gather responses are allocation-free too. --------
    // Two completion queries with the SAME result count but different
    // subtree shapes: a registered chain (every visited node holds a
    // key) versus a wide subtree whose internal branch nodes are
    // data-less. The wide query routes more hops and collects more
    // gather responses for the same four results — if a gather
    // response (branch envelope + partial report + aggregation step)
    // allocated, the wide run would cost strictly more.
    for s in ["000", "0000", "00000", "000000"] {
        sys.insert_data(Key::from(s)).unwrap();
    }
    for s in ["11000", "11011", "11100", "11111"] {
        sys.insert_data(Key::from(s)).unwrap();
    }
    let chain = QueryKind::Complete(Key::from("000"));
    let wide = QueryKind::Complete(Key::from("11"));
    for _ in 0..32 {
        assert!(sys.request_from(&entry, chain.clone()).unwrap().satisfied);
        assert!(sys.request_from(&entry, wide.clone()).unwrap().satisfied);
    }
    let (chain_allocs, chain_visits) = count(|| {
        let mut visits = 0;
        for _ in 0..ROUNDS {
            let out = sys.request_from(&entry, chain.clone()).unwrap();
            assert!(out.satisfied && out.results.len() == 4);
            visits += out.gather_visits;
        }
        visits
    });
    let (wide_allocs, wide_visits) = count(|| {
        let mut visits = 0;
        for _ in 0..ROUNDS {
            let out = sys.request_from(&entry, wide.clone()).unwrap();
            assert!(out.satisfied && out.results.len() == 4);
            visits += out.gather_visits;
        }
        visits
    });
    assert!(
        wide_visits > chain_visits,
        "workload sanity: the wide subtree must gather across more nodes \
         ({wide_visits} vs {chain_visits} partial reports)"
    );
    assert!(
        wide_allocs.abs_diff(chain_allocs) <= JITTER,
        "extra gather responses must not allocate: {wide_visits} partials cost \
         {wide_allocs} allocs, {chain_visits} partials cost {chain_allocs}"
    );

    // ---- Phase 4: fault-off admission keeps no retry snapshot. -----
    // The LatencyNet retry path re-sends a verbatim clone of the entry
    // envelope; that snapshot is only worth paying for on a faulty
    // transport, so admission defers it behind `fault_recovery`.
    let mut net = LatencyNet::new(LatencyModel::Constant(1), 11);
    for s in ["00000000", "01000000", "10000000", "11000000"] {
        net.add_peer(Key::from(s));
    }
    for s in ["00", "011", "110"] {
        net.insert_data(Key::from(s));
    }
    let entry = Key::from("00");
    let probe = QueryKind::Exact(Key::from("110"));
    // Warm both admission modes so the gather pool and learn map sit
    // at their high-water marks.
    for armed in [false, true, false] {
        net.set_fault_recovery(armed);
        for _ in 0..8 {
            let (id, _env) = net.begin_request(&entry, probe.clone()).unwrap();
            net.finish_request(id);
        }
    }
    // Behaviour flip: the snapshot exists exactly when recovery is on.
    let (id, _env) = net.begin_request(&entry, probe.clone()).unwrap();
    assert!(
        net.retry_envelope(id).is_none(),
        "fault-off admission must not keep a retry snapshot"
    );
    net.finish_request(id);
    net.set_fault_recovery(true);
    let (id, _env) = net.begin_request(&entry, probe.clone()).unwrap();
    assert!(
        net.retry_envelope(id).is_some(),
        "fault recovery keeps the origin snapshot for retries"
    );
    net.finish_request(id);
    net.set_fault_recovery(false);
    // Allocation budget: a warm fault-off admission pays exactly the
    // entry envelope's pre-sized path buffer — any snapshot (or other
    // per-request bookkeeping) sneaking back in trips this.
    let (off_allocs, _) = count(|| {
        for _ in 0..ROUNDS {
            let (id, env) = net.begin_request(&entry, probe.clone()).unwrap();
            std::hint::black_box(&env);
            net.finish_request(id);
        }
    });
    assert!(
        off_allocs <= ROUNDS + JITTER,
        "fault-off request admission must allocate only the entry envelope: \
         {off_allocs} allocs over {ROUNDS} requests"
    );

    // ---- Phase 5: the NoopTracer deliver path allocates nothing. ---
    // The observability hooks are threaded through `deliver`,
    // `begin_request` and the gather fold; with the default
    // `Tracer::Noop` every emission site must gate *before*
    // constructing an event, and the metrics registry must record into
    // its preallocated histograms — so a warm routed request costs the
    // same allocations it did before the tracer existed. The budget is
    // differential against Phase 2's own warm system: re-running the
    // deep lookup (after asserting the tracer really is off) must stay
    // within the same per-request envelope measured above.
    assert!(!sys.tracing_enabled(), "tracer must default to Noop");
    let deep = QueryKind::Exact(Key::from("101111"));
    let entry = Key::from("01");
    let (noop_allocs, _) = count(|| {
        for _ in 0..ROUNDS {
            assert!(sys.request_from(&entry, deep.clone()).unwrap().satisfied);
        }
    });
    assert!(
        noop_allocs.abs_diff(deep_allocs) <= JITTER,
        "NoopTracer deliver path must not allocate: {noop_allocs} allocs now vs \
         {deep_allocs} in the pre-phase run"
    );

    // Flipping the ring tracer ON allocates only at arming time (the
    // preallocated ring) — the warm emit path itself stays flat too,
    // events being fixed-size writes into that ring.
    sys.set_tracing(4096);
    for _ in 0..8 {
        sys.request_from(&entry, deep.clone()).unwrap();
    }
    let (ring_allocs, _) = count(|| {
        for _ in 0..ROUNDS {
            assert!(sys.request_from(&entry, deep.clone()).unwrap().satisfied);
        }
    });
    assert!(
        ring_allocs.abs_diff(deep_allocs) <= JITTER,
        "warm ring-tracer emission must write into the preallocated ring: \
         {ring_allocs} allocs vs {deep_allocs} untraced"
    );
    let events = sys.take_trace();
    assert!(!events.is_empty(), "ring tracer must have captured events");

    // ---- Phase 6: warm health collection is allocation-free. -------
    // The observatory keeps no engine state: `collect_health` is a
    // pure read into the monitor's own buffers. After one warm
    // collection sizes those buffers (per-peer rows, depth occupancy,
    // scratch vectors), every further snapshot must reuse them — the
    // off-by-default contract's on-side twin.
    use dlpt::core::transport::FaultStats;
    let mut monitor = dlpt::core::HealthMonitor::new();
    let faults = FaultStats::default();
    sys.collect_health(0, &faults, &mut monitor);
    assert!(
        monitor.snap.nodes > 0 && monitor.snap.bytes.total() > 0,
        "warm-up snapshot must observe real state"
    );
    let (snap_allocs, _) = count(|| {
        for unit in 0..ROUNDS {
            sys.collect_health(unit, &faults, &mut monitor);
        }
    });
    assert!(
        snap_allocs <= JITTER,
        "warm collect_health must reuse the monitor's buffers: \
         {snap_allocs} allocs over {ROUNDS} snapshots"
    );
    // And collection leaves the routing hot path untouched: the same
    // warm deep lookup still costs what it did before the observatory
    // ever ran.
    let (post_allocs, _) = count(|| {
        for _ in 0..ROUNDS {
            assert!(sys.request_from(&entry, deep.clone()).unwrap().satisfied);
        }
    });
    assert!(
        post_allocs.abs_diff(ring_allocs) <= JITTER,
        "health collection must not perturb routing: {post_allocs} allocs vs \
         {ring_allocs} before"
    );

    // ---- Phase 7: warm targeted invalidation allocates nothing. ----
    // A cached system learns one shortcut per round (entry peer of
    // "01" → node "101111"), then the label's eager invalidation is
    // sent to its subscribers and delivered. Only the learning peer is
    // subscribed, so exactly one envelope travels; the handler unlinks
    // the slot during its walk of the LRU list and returns the
    // subscription link to the pool. Once the queue, the free lists
    // and the effect scratch are warm, the send-and-deliver cycle
    // must not touch the allocator.
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::binary())
        .seed(7)
        .peer_id_len(10)
        .bootstrap_peers(4)
        .cache_capacity(8)
        .build();
    for s in ["01", "10101", "10111", "101111"] {
        sys.insert_data(Key::from(s)).unwrap();
    }
    let label = Key::from("101111");
    let probe = QueryKind::Exact(label.clone());
    let mut fifo = FifoTransport::default();
    let mut invalidation_allocs = 0;
    for round in 0..(8 + ROUNDS) {
        let out = sys.request_from(&entry, probe.clone()).unwrap();
        assert!(out.satisfied);
        let sent = sys.cache_stats.invalidations_sent;
        let (n, ()) = count(|| {
            sys.queue_invalidations(&label, &mut fifo);
            while let Some((_, env)) = fifo.queue.pop_front() {
                sys.deliver(&mut fifo, env).unwrap();
            }
        });
        assert_eq!(
            sys.cache_stats.invalidations_sent - sent,
            1,
            "only the subscribed holder is sent the invalidation"
        );
        if round >= 8 {
            invalidation_allocs += n;
        }
    }
    assert!(sys.audit().is_empty(), "subscriptions stay a superset");
    assert_eq!(
        invalidation_allocs, 0,
        "warm targeted invalidation must not allocate: {invalidation_allocs} allocs \
         over {ROUNDS} send-and-deliver cycles"
    );
}
