//! Pieces every workload shares: the metric sink, latency samples, the
//! correctness oracle, process CPU time and the span ledger that the
//! traced run records around calls into the layers' public functions.

use dlpt_core::engine::{FifoTransport, LookupOutcome, Step};
use dlpt_core::error::DlptError;
use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::system::DlptSystem;
use dlpt_core::trie::PgcpTrie;
use dlpt_net::codec;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Settings shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small system and short windows, for the benchmark's self-test.
    pub tiny: bool,
    /// Corrupt the first read result before it is checked, to prove
    /// that the correctness check fires.
    pub corrupt: bool,
    /// Where the traced run writes its span sample (JSONL).
    pub spans: Option<String>,
}

/// Whether a metric repeats exactly for a fixed seed.
#[derive(Clone, Copy, PartialEq)]
pub enum Class {
    Det,
    Timing,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub class: Class,
}

/// What one workload run reports.
#[derive(Default)]
pub struct Out {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Out {
    pub fn det(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Class::Det);
    }

    pub fn timing(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Class::Timing);
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, class: Class) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            class,
        });
    }

    /// One checked outcome: counts it as attempted, and as failed when
    /// `ok` is false.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut s = format!(
            "{{\"workload\": \"{workload}\", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let class = match m.class {
                Class::Det => "det",
                Class::Timing => "timing",
            };
            s.push_str(&format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\", \"class\": \"{class}\"}}",
                m.name, m.value, m.unit
            ));
        }
        s.push_str("}}");
        s
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nanoseconds since `t`.
#[inline]
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Latency samples in nanoseconds.
#[derive(Default)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Nearest-rank quantile, in nanoseconds (0 with no samples).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((self.0.len() as f64 * q).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64
    }

    pub fn mean(&self) -> f64 {
        ratio(self.0.iter().sum::<u64>() as f64, self.0.len() as f64)
    }
}

/// The mean of the middle 80% of repeated timings (0 with none).
///
/// The host this benchmark was tuned on switches between a fast and a
/// slow speed regime for seconds to minutes at a time. A single order
/// statistic (the median, the best decile) jumps from one regime's
/// value to the other's when the share of a run spent in each crosses
/// its rank. The mean moves with that share smoothly instead, and
/// trimming the extreme tenths keeps one disturbed pass from moving it.
pub fn trimmed_mean(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let cut = v.len() / 10;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The timed phase's measurements, per whole pass over the plan. Every
/// pass does the same work, so each end-to-end timing is taken per pass
/// and the passes' trimmed mean is reported (see [`trimmed_mean`]).
pub struct Passes {
    start: Instant,
    ops: u64,
    /// The current pass's read, write and batch times, in ns.
    pub reads: Samples,
    pub writes: Samples,
    pub batches: Samples,
    /// Set-up times in ns, taken across the whole run.
    pub setups: Samples,
    rates: Vec<f64>,
    /// Per pass: read p50 and p99, write p50 and p99, batch p50.
    quantiles: Vec<[f64; 5]>,
}

impl Passes {
    pub fn new() -> Self {
        Passes {
            start: Instant::now(),
            ops: 0,
            reads: Samples::default(),
            writes: Samples::default(),
            batches: Samples::default(),
            setups: Samples::default(),
            rates: Vec::new(),
            quantiles: Vec::new(),
        }
    }

    /// Counts `n` operations into the current pass.
    pub fn ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// Closes the current pass and starts the next.
    pub fn end(&mut self) {
        self.rates
            .push(self.ops as f64 / self.start.elapsed().as_secs_f64());
        self.quantiles.push([
            self.reads.quantile(0.5),
            self.reads.quantile(0.99),
            self.writes.quantile(0.5),
            self.writes.quantile(0.99),
            self.batches.quantile(0.5),
        ]);
        self.reads.0.clear();
        self.writes.0.clear();
        self.batches.0.clear();
        self.start = Instant::now();
        self.ops = 0;
    }

    /// Builds the system under test afresh off the pass clock, times
    /// the build as one set-up sample and drops it. Called between
    /// passes, so the set-up samples spread over the whole run.
    pub fn setup<T>(&mut self, build: impl FnOnce() -> T) {
        let t = Instant::now();
        let built = std::hint::black_box(build());
        self.setups.push(ns_since(t));
        drop(built);
        self.start = Instant::now();
    }

    /// Passes completed.
    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// `ops_per_s` and the latency metrics, the trimmed mean over
    /// passes, and `setup_s`, the median set-up sample.
    pub fn report(&mut self, out: &mut Out) {
        out.timing("setup_s", self.setups.quantile(0.5) / 1e9, "s");
        let col = |i: usize, scale: f64| {
            trimmed_mean(self.quantiles.iter().map(|q| q[i] / scale).collect())
        };
        out.timing("ops_per_s", trimmed_mean(self.rates.clone()), "1/s");
        out.timing("read_p50_us", col(0, 1e3), "us");
        out.timing("read_p99_us", col(1, 1e3), "us");
        out.timing("write_p50_us", col(2, 1e3), "us");
        out.timing("write_p99_us", col(3, 1e3), "us");
        out.timing("batch_p50_ms", col(4, 1e6), "ms");
    }
}

/// The sequential PGCP trie over the registered set: the oracle every
/// lookup, range and completion result is checked against.
pub fn oracle(keys: &[Key]) -> PgcpTrie {
    let mut t = PgcpTrie::new();
    for k in keys {
        t.insert(k.clone());
    }
    t
}

/// The result the oracle gives for one query.
pub fn expected(oracle: &PgcpTrie, q: &QueryKind) -> Vec<Key> {
    match q {
        QueryKind::Exact(k) => {
            if oracle.contains(k) {
                vec![k.clone()]
            } else {
                Vec::new()
            }
        }
        QueryKind::Range(lo, hi) => oracle.range(lo, hi),
        QueryKind::Complete(p) => oracle.complete(p),
    }
}

/// Counters of the sync pump's protocol layer, read through the
/// engine's public `SystemStats` and `CacheStats`.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub discovery: u64,
    pub drops: u64,
    pub insert: u64,
    pub host: u64,
    pub join: u64,
    pub maintenance: u64,
    pub requeues: u64,
    pub invalidations: u64,
    pub hits: u64,
    pub stale: u64,
    pub misses: u64,
    pub learned: u64,
    pub invalidations_sent: u64,
}

impl Counters {
    pub fn read(e: &dlpt_core::Engine) -> Self {
        let s = &e.stats;
        let c = &e.cache_stats;
        Counters {
            discovery: s.discovery_messages,
            drops: s.discovery_drops,
            insert: s.insert_messages,
            host: s.host_messages,
            join: s.join_messages,
            maintenance: s.maintenance_messages,
            requeues: s.requeues,
            invalidations: c.invalidations_delivered,
            hits: c.hits,
            stale: c.stale_hits,
            misses: c.misses,
            learned: c.learned,
            invalidations_sent: c.invalidations_sent,
        }
    }

    pub fn minus(self, b: Counters) -> Counters {
        Counters {
            discovery: self.discovery - b.discovery,
            drops: self.drops - b.drops,
            insert: self.insert - b.insert,
            host: self.host - b.host,
            join: self.join - b.join,
            maintenance: self.maintenance - b.maintenance,
            requeues: self.requeues - b.requeues,
            invalidations: self.invalidations - b.invalidations,
            hits: self.hits - b.hits,
            stale: self.stale - b.stale,
            misses: self.misses - b.misses,
            learned: self.learned - b.learned,
            invalidations_sent: self.invalidations_sent - b.invalidations_sent,
        }
    }

    pub fn add(&mut self, d: Counters) {
        self.discovery += d.discovery;
        self.drops += d.drops;
        self.insert += d.insert;
        self.host += d.host;
        self.join += d.join;
        self.maintenance += d.maintenance;
        self.requeues += d.requeues;
        self.invalidations += d.invalidations;
        self.hits += d.hits;
        self.stale += d.stale;
        self.misses += d.misses;
        self.learned += d.learned;
        self.invalidations_sent += d.invalidations_sent;
    }

    /// Protocol messages processed, cache invalidations included: the
    /// numerator of `msgs_per_op`.
    pub fn messages(&self) -> u64 {
        self.discovery + self.insert + self.host + self.join + self.maintenance + self.invalidations
    }

    /// The deterministic per-layer counts every workload reports.
    pub fn report(&self, out: &mut Out, ops: u64, writes: u64) {
        let ops = ops as f64;
        let consults = (self.hits + self.stale + self.misses) as f64;
        out.det("msgs_per_op", ratio(self.messages() as f64, ops), "count");
        out.det(
            "engine.requeues_per_op",
            ratio(self.requeues as f64, ops),
            "count",
        );
        out.det(
            "cache.hit_ratio",
            ratio(self.hits as f64, consults),
            "ratio",
        );
        out.det(
            "cache.stale_ratio",
            ratio(self.stale as f64, consults),
            "ratio",
        );
        out.det(
            "cache.invalidations_per_write",
            ratio(self.invalidations_sent as f64, writes as f64),
            "count",
        );
        out.det(
            "cache.learned_per_op",
            ratio(self.learned as f64, ops),
            "count",
        );
        let per_op = |v: u64| ratio(v as f64, ops);
        out.det(
            "protocol.discovery_msgs_per_op",
            per_op(self.discovery),
            "count",
        );
        out.det("protocol.insert_msgs_per_op", per_op(self.insert), "count");
        out.det("protocol.host_msgs_per_op", per_op(self.host), "count");
        out.det("protocol.join_msgs_per_op", per_op(self.join), "count");
        out.det(
            "protocol.maintenance_msgs_per_op",
            per_op(self.maintenance),
            "count",
        );
        out.det(
            "protocol.visit_accept_ratio",
            ratio(self.discovery as f64, (self.discovery + self.drops) as f64),
            "ratio",
        );
    }
}

/// Hop and fan-out quantiles of the engine's always-on
/// `MetricsRegistry` (the `obs` layer).
pub fn report_obs(out: &mut Out, m: &dlpt_core::MetricsRegistry) {
    let q = |h: &dlpt_core::Histogram, p: f64| h.quantile(p).unwrap_or(0) as f64;
    out.det("obs.hops_p50", q(&m.hops, 0.5), "count");
    out.det("obs.hops_p99", q(&m.hops, 0.99), "count");
    out.det("obs.fanout_p99", q(&m.fanout, 0.99), "count");
}

/// Requests of the traced run whose spans are kept verbatim and
/// written out; later requests only feed the per-layer sums.
const KEEP_REQUESTS: u64 = 2048;

/// One timed interval at a layer boundary. Spans of one request share
/// `req`; `parent` indexes the enclosing span of the same request.
struct Span {
    req: u64,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The traced run's span recorder. Keeps the first requests' spans in
/// memory, sums every span per layer, and writes the kept ones out as
/// JSONL at the end.
pub struct Ledger {
    origin: Instant,
    next_req: u64,
    kept: Vec<Span>,
    /// Layer → (span count, total ns, self ns).
    sums: BTreeMap<&'static str, (u64, u64, u64)>,
    /// The per-request spans under construction.
    open: Vec<Span>,
    pump: FifoTransport,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            next_req: 0,
            kept: Vec::new(),
            sums: BTreeMap::new(),
            open: Vec::new(),
            pump: FifoTransport::default(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn span(&mut self, layer: &'static str, start: Instant, end: Instant, parent: Option<usize>) {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.open.push(Span {
            req: self.next_req,
            layer,
            start_ns,
            end_ns,
            parent,
        });
    }

    /// Folds the open request's spans into the sums (self time = span
    /// minus its children's spans) and keeps them if still sampling.
    fn close(&mut self) {
        let mut child_ns = vec![0u64; self.open.len()];
        for s in &self.open {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, c) in self.open.iter().zip(child_ns) {
            let d = s.end_ns - s.start_ns;
            let e = self.sums.entry(s.layer).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(c);
        }
        if self.next_req < KEEP_REQUESTS {
            self.kept.append(&mut self.open);
        } else {
            self.open.clear();
        }
        self.next_req += 1;
    }

    /// Mean span of `layer` in ns (0 if never recorded).
    pub fn mean(&self, layer: &str) -> f64 {
        self.sums
            .get(layer)
            .map_or(0.0, |&(n, total, _)| ratio(total as f64, n as f64))
    }

    /// Mean self time of `layer` in ns.
    pub fn self_mean(&self, layer: &str) -> f64 {
        self.sums
            .get(layer)
            .map_or(0.0, |&(n, _, own)| ratio(own as f64, n as f64))
    }

    pub fn count(&self, layer: &str) -> u64 {
        self.sums.get(layer).map_or(0, |e| e.0)
    }

    /// Total span of `layer` in ns.
    pub fn total(&self, layer: &str) -> u64 {
        self.sums.get(layer).map_or(0, |e| e.1)
    }

    /// One discovery request driven through the engine's public calls
    /// over the ledger's own FIFO transport, exactly as the sync pump's
    /// `DlptSystem::request` drives it: entry draw, `begin_request`,
    /// `deliver` for each envelope (requeues under the pump's budget),
    /// then `take_finished`. Every envelope is also encoded and decoded
    /// by the wire codec, outside the engine spans; a frame that does
    /// not decode to its envelope is returned as `Ok(None)`.
    pub fn request(
        &mut self,
        sys: &mut DlptSystem,
        query: QueryKind,
    ) -> Result<Option<LookupOutcome>, DlptError> {
        let t0 = Instant::now();
        let Some(entry) = sys.random_node() else {
            return Err(DlptError::EmptyTree);
        };
        let tb = Instant::now();
        let (id, env) = sys.begin_request(&entry, query)?;
        let te = Instant::now();
        self.span("engine.begin", tb, te, Some(0));
        let budget = sys.config().requeue_budget.max(2 * sys.peer_count() as u32);
        let mut pump = std::mem::take(&mut self.pump);
        pump.queue.push_back((0, env));
        let mut codec_ok = true;
        while let Some((requeues, env)) = pump.queue.pop_front() {
            let c0 = Instant::now();
            let frame = codec::encode(&env);
            let c1 = Instant::now();
            let back = codec::decode(&frame);
            let c2 = Instant::now();
            codec_ok &= back.as_ref().is_ok_and(|b| *b == env);
            self.span("codec.encode", c0, c1, Some(0));
            self.span("codec.decode", c1, c2, Some(0));
            // Frame sizes ride in the sums as a pseudo-layer whose
            // "duration" is the frame length, so `mean` gives bytes/frame.
            let bytes = self.sums.entry("codec.bytes").or_default();
            bytes.0 += 1;
            bytes.1 += frame.len() as u64;
            let d0 = Instant::now();
            let step = sys.deliver(&mut pump, env);
            self.span("engine.deliver", d0, Instant::now(), Some(0));
            match step? {
                Step::Done => {}
                Step::Requeue(env) if requeues >= budget => sys.fail_undeliverable(env)?,
                Step::Requeue(env) => {
                    sys.stats.requeues += 1;
                    pump.queue.push_back((requeues + 1, env));
                }
            }
        }
        self.pump = pump;
        let f0 = Instant::now();
        let out = sys.take_finished(id);
        let end = Instant::now();
        self.span("engine.finish", f0, end, Some(0));
        // The request span is the parent of everything above: put it
        // first so the children's `Some(0)` point at it.
        self.span("system.request", t0, end, None);
        let root = self.open.pop().expect("just pushed");
        self.open.insert(0, root);
        self.close();
        let out = out.ok_or_else(|| DlptError::Undeliverable(format!("request {id}")))?;
        Ok(codec_ok.then_some(out))
    }

    /// Writes the kept spans as JSONL (one span per line).
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        // `span` numbers the spans within their request; `parent` is
        // the `span` of the enclosing one (-1 for a request's root).
        let mut local = 0usize;
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 && self.kept[i - 1].req != s.req {
                local = 0;
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{{\"req\": {}, \"span\": {local}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.req, s.layer, s.start_ns, s.end_ns
            )?;
            local += 1;
        }
        w.flush()
    }

    /// The codec and engine-span metrics of a sync-pump workload, and
    /// the ledger residual against the untraced request time. The
    /// deterministic counts come from `counted`, the ledger of the count
    /// window, which drives every request of the plan exactly once; the
    /// timed ledger's coverage depends on where the clock stopped.
    pub fn report_engine(&self, out: &mut Out, untraced_request_ns: f64, counted: &Ledger) {
        let requests = self.count("system.request") as f64;
        let delivers = self.count("engine.deliver") as f64;
        let begin = self.mean("engine.begin");
        let deliver = self.mean("engine.deliver");
        let finish = self.mean("engine.finish");
        out.timing("engine.begin_ns", begin, "ns");
        out.timing("engine.deliver_ns", deliver, "ns");
        out.timing("engine.finish_ns", finish, "ns");
        out.det(
            "engine.delivers_per_op",
            ratio(
                counted.count("engine.deliver") as f64,
                counted.count("system.request") as f64,
            ),
            "count",
        );
        let spans = begin + deliver * ratio(delivers, requests) + finish;
        out.timing(
            "engine.residual_pct",
            100.0 * ratio(untraced_request_ns - spans, untraced_request_ns),
            "%",
        );
        out.timing(
            "system.request_self_ns",
            self.self_mean("system.request"),
            "ns",
        );
        // The traced request span holds a codec round trip of every
        // envelope, which the untraced request does not do: take it out,
        // so the overhead is that of the span bookkeeping alone.
        let codec = ratio(
            (self.total("codec.encode") + self.total("codec.decode")) as f64,
            requests,
        );
        out.timing(
            "obs.trace_overhead_pct",
            100.0
                * ratio(
                    self.mean("system.request") - codec - untraced_request_ns,
                    untraced_request_ns,
                ),
            "%",
        );
        out.timing("codec.encode_ns", self.mean("codec.encode"), "ns");
        out.timing("codec.decode_ns", self.mean("codec.decode"), "ns");
        out.det("codec.bytes_per_frame", counted.mean("codec.bytes"), "B");
    }
}

/// Replays a finished request's path through `Directory::resolve` and
/// returns the elapsed ns; `None` if a label on the path is not live.
pub fn replay_path(sys: &DlptSystem, path: &[Key]) -> Option<u64> {
    let dir = sys.directory();
    let t = Instant::now();
    let mut ok = true;
    for label in path {
        ok &= std::hint::black_box(dir.resolve(label)).is_some();
    }
    let ns = ns_since(t);
    ok.then_some(ns)
}
