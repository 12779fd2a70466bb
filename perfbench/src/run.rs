//! One measured pass of a workload: set-up, warm-up, the timed window,
//! the oracle checks, the writer phase and the simulated restarts, and
//! the metrics computed from them.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use citegraph::{CitationNetwork, PaperId};
use perfbench::oracle;
use perfbench::stats::{beyond, median, peak_rss_mb, quantile};
use perfbench::trace::{durations, Span, Tracer};
use perfbench::workload::{
    panel_shapes, DashboardStream, DeltaStream, Facts, QueryClass, SearchStream, DASHBOARD_BATCH,
    METHODS,
};
use rankengine::query::DEFAULT_PLAN_CACHE_CAPACITY;
use rankengine::{
    CacheConfig, CacheStats, MethodSpec, PlanCacheStats, Query, QueryEngine, RerankStrategy,
};
use sparsela::KernelWorkspace;

use crate::client::{
    dashboard_window, search_reader, Client, PlanProbe, ReadLog, Sample, Samples, SERVE_SPANS,
};
use crate::writer::{
    build_engines, restart, Files, WriteLog, Writer, OPEN_SPANS, PERSIST_EVERY, PERSIST_SPANS,
    PUBLISH_SPANS, REPLAY_SPANS, TAIL_BATCHES,
};

/// Engine set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 3;
/// Batches published before freshness is measured (the first publish
/// after a build pays one-off costs).
const WARMUP_BATCHES: usize = 2;
/// Measured batches the writer publishes alone on `search`/`dashboard`.
const PROBE_BATCHES: usize = 32;
/// Measured read segments; the kept read samples are checked between
/// them, and on `search`/`dashboard` writer-only batches run there.
const READ_SEGMENTS: usize = 3;
/// Read requests served before the window (not measured).
const WARMUP_READS: usize = 200;
/// Most seeded samples checked against a dense solve per pass (each
/// dense solve is a full power iteration).
const MAX_SEEDED_CHECKS: usize = 4;
/// Simulated restarts per pass; `recover_s` is their median.
const RESTARTS: usize = 5;
/// Planner driver names, as `QueryPlan::table` reports them.
const DRIVERS: [&str; 5] = [
    "unfiltered",
    "id_range",
    "venue_bands",
    "author_bands",
    "mask_algebra",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct search queries, closed loop, no writes.
    Search,
    /// Zipf-repeated dashboard batches, closed loop, no writes.
    Dashboard,
    /// A writer ingesting beside a search reader, then restarts.
    IngestLive,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "search" => Some(Workload::Search),
            "dashboard" => Some(Workload::Dashboard),
            "ingest_live" => Some(Workload::IngestLive),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Search => "search",
            Workload::Dashboard => "dashboard",
            Workload::IngestLive => "ingest_live",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// What one pass measured.
pub struct PassOutput {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (meaningful on a traced pass).
    pub layers: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (typed errors, oracle mismatches, visibility
    /// misses, acknowledged papers missing after restart).
    pub failed: u64,
    /// The spans recorded (empty when untraced).
    pub spans: Vec<Span>,
}

/// Attempted/failed counts; the first few failures are printed.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
}

impl Tally {
    pub(crate) fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: FAILURE: {what}");
        }
    }

    pub(crate) fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Checks kept read samples against the oracle, on the snapshots that
/// served them, dense-solving at most `seeded_budget` seeded ones (the
/// budget is spent). Returns how many were checked.
fn check_samples(
    qe: &QueryEngine,
    samples: &[Sample],
    seeded_budget: &mut usize,
    tally: &mut Tally,
) -> usize {
    let mut orders: HashMap<(String, u64), Vec<PaperId>> = HashMap::new();
    let mut workspace = KernelWorkspace::new();
    let mut checked = 0;
    for s in samples {
        let method = s.q.method.clone().unwrap_or_else(|| METHODS[0].into());
        let net = s.snap.network();
        let result = if s.q.seeds.is_empty() {
            let order = orders
                .entry((method, s.snap.epoch()))
                .or_insert_with(|| oracle::full_order(s.snap.scores().as_slice()));
            oracle::check_page(
                net,
                s.snap.scores().as_slice(),
                order,
                &s.q,
                &s.items,
                s.matched,
            )
        } else if *seeded_budget > 0 {
            *seeded_budget -= 1;
            let alpha = qe
                .engine(Some(&method))
                .ok()
                .and_then(|e| e.method().parse::<MethodSpec>().ok())
                .and_then(|spec| spec.damping())
                .expect("seeded methods have a damping factor");
            oracle::check_seeded_page(net, alpha, &s.q, &s.items, s.matched, &mut workspace)
        } else {
            continue;
        };
        checked += 1;
        if let Err(e) = result {
            tally.fail(format!("oracle mismatch: {e}"));
        }
    }
    checked
}

/// Counter deltas of the two serving caches, summed over the measured
/// read segments (warm-up reads between segments are not counted).
#[derive(Default)]
struct CacheWindow {
    plans: (u64, u64, u64),
    pers: (u64, u64, u64, u64),
    bytes: usize,
}

impl CacheWindow {
    fn start(qe: &QueryEngine) -> (PlanCacheStats, CacheStats) {
        (qe.plan_cache_stats(), qe.personalization_stats())
    }

    /// Adds the counters' growth since `start`.
    fn add(&mut self, qe: &QueryEngine, start: (PlanCacheStats, CacheStats)) {
        let (a, c) = start;
        let (b, d) = (qe.plan_cache_stats(), qe.personalization_stats());
        self.plans.0 += b.hits - a.hits;
        self.plans.1 += b.misses - a.misses;
        self.plans.2 += b.stale - a.stale;
        self.pers.0 += d.hits - c.hits;
        self.pers.1 += d.warm_repushes - c.warm_repushes;
        self.pers.2 += d.cold_pushes - c.cold_pushes;
        self.pers.3 += d.fallbacks - c.fallbacks;
        self.bytes = d.bytes;
    }

    fn metrics(&self) -> Vec<Metric> {
        let (hits, misses, stale) = self.plans;
        let lookups = (hits + misses + stale).max(1) as f64;
        let (p_hits, p_warm, p_cold, p_fall) = self.pers;
        let requests = (p_hits + p_warm + p_cold + p_fall).max(1) as f64;
        vec![
            metric("query.plan_cache.hit_ratio", "ratio", hits as f64 / lookups),
            metric("query.plan_cache.stale", "count", stale as f64),
            metric(
                "personalization.hit_ratio",
                "ratio",
                p_hits as f64 / requests,
            ),
            metric("personalization.cold_pushes", "count", p_cold as f64),
            metric("personalization.warm_repushes", "count", p_warm as f64),
            metric("personalization.fallbacks", "count", p_fall as f64),
            metric("personalization.bytes", "bytes", self.bytes as f64),
        ]
    }
}

/// How a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct PassConfig {
    /// The workload.
    pub workload: Workload,
    /// Workload seed (drives every input stream).
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
}

/// Runs one pass: set-up, warm-up, the measured window, the oracle
/// checks, the writer phase and the restarts.
pub fn run_pass(
    corpus: &CitationNetwork,
    facts: &Facts,
    cfg: PassConfig,
    tracer: &Tracer,
    work_dir: &Path,
) -> PassOutput {
    let PassConfig { workload, seed, .. } = cfg;
    let files = Files::new(work_dir.join(format!("{}-s{seed}", workload.name())));
    let mut tally = Tally::default();

    // Set-up, several times: `setup_s` is the median.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        files.clear();
        let net = corpus.clone();
        let t0 = Instant::now();
        built = Some(build_engines(net, &files));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let qe = built.expect("at least one set-up");

    let stream = DeltaStream::new(facts, seed);
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut writer = Writer::new(&qe, &stream, tracer, &files);
    if workload == Workload::IngestLive {
        for _ in 0..WARMUP_BATCHES {
            writer.batch(false);
        }
    }
    // Warm-up reads, untraced, from a stream of their own, before each
    // measured read segment: they refill the caches the writer's
    // publishes invalidated.
    let quiet = Tracer::new(false);
    let shapes = panel_shapes(facts);
    let all_panels: Vec<Query> = shapes
        .iter()
        .map(|s| s.parse().expect("panel shapes parse"))
        .collect();
    let mut warm = Client::new(&qe, &quiet, SearchStream::new(facts, seed, 1));
    let mut warm_up = |tally: &mut Tally| {
        let mut scrap = ReadLog::default();
        if workload == Workload::Dashboard {
            for (q, page) in all_panels.iter().zip(qe.query_batch(&all_panels)) {
                scrap.tally.attempted += 1;
                if let Err(e) = page {
                    scrap.tally.fail(format!("warm-up panel {q}: {e}"));
                }
            }
        } else {
            for _ in 0..WARMUP_READS {
                warm.step(&mut scrap, false);
            }
            warm.end_walk();
        }
        tally.absorb(scrap.tally);
    };

    let mut reads = ReadLog::default();
    let mut samples = Samples::default();
    let mut caches = CacheWindow::default();
    let mut read_s = 0.0;
    // Kept samples are checked (outside the timed windows) and released
    // after each read segment, so no pinned epoch outlives its segment.
    let (mut kept, mut checked, mut seeded_budget) = (0, 0, MAX_SEEDED_CHECKS);
    let mut check = |samples: &mut Samples, tally: &mut Tally| {
        kept += samples.0.len();
        checked += check_samples(&qe, &samples.0, &mut seeded_budget, tally);
        samples.0.clear();
    };
    let mut client = Client::new(&qe, tracer, SearchStream::new(facts, seed, 0));
    if workload == Workload::IngestLive {
        warm_up(&mut tally);
        // The window is cut into segments too, so the kept read samples
        // are checked and released between them. In each, the writer
        // starts batches until the deadline and the reader reads until
        // the writer's last batch is done, so every measured batch ran
        // beside reads; `read_s` is the reader's own time.
        for _ in 0..READ_SEGMENTS {
            let before = CacheWindow::start(&qe);
            let deadline = Instant::now() + window / READ_SEGMENTS as u32;
            let writing = AtomicBool::new(true);
            std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    search_reader(
                        &mut client,
                        || !writing.load(Ordering::Acquire),
                        &mut reads,
                        &mut samples,
                    )
                });
                while Instant::now() < deadline && !writer.broken {
                    writer.batch(true);
                }
                writing.store(false, Ordering::Release);
                read_s += reader.join().expect("reader thread panicked");
            });
            caches.add(&qe, before);
            client.end_walk();
            check(&mut samples, &mut tally);
        }
    } else {
        // The read window is cut into segments with a share of the
        // writer-only batches after each, so both the reads and the writes
        // sample the whole run rather than one stretch of it (the
        // machine's speed drifts over tens of seconds).
        let mut dashboard = DashboardStream::new(shapes.len(), seed);
        for segment in 0..READ_SEGMENTS {
            warm_up(&mut tally);
            let before = CacheWindow::start(&qe);
            let start = Instant::now();
            let deadline = start + window / READ_SEGMENTS as u32;
            match workload {
                Workload::Dashboard => dashboard_window(
                    &qe,
                    &shapes,
                    &mut dashboard,
                    tracer,
                    deadline,
                    &mut reads,
                    &mut samples,
                ),
                _ => {
                    search_reader(
                        &mut client,
                        || Instant::now() >= deadline,
                        &mut reads,
                        &mut samples,
                    );
                }
            }
            read_s += start.elapsed().as_secs_f64();
            caches.add(&qe, before);
            client.end_walk();
            check(&mut samples, &mut tally);
            if segment == 0 {
                for _ in 0..WARMUP_BATCHES {
                    writer.batch(false);
                }
            }
            let share = PROBE_BATCHES / READ_SEGMENTS
                + usize::from(segment < PROBE_BATCHES % READ_SEGMENTS);
            for _ in 0..share {
                writer.batch(true);
            }
        }
    }
    if workload == Workload::Dashboard {
        describe_dashboard(&shapes, seed, reads.latency_us.len());
    } else {
        describe_search(facts, seed, reads.served as usize);
    }
    tally.absorb(std::mem::take(&mut reads.tally));
    println!("perfbench: oracle checked {checked} of {kept} kept read samples");

    writer.finish();
    let acked = writer.next_batch;
    let mut wlog = std::mem::take(&mut writer.log);
    drop(writer);
    drop(qe);
    tally.absorb(std::mem::take(&mut wlog.tally));
    let recover_s: Vec<f64> = (0..RESTARTS)
        .map(|_| restart(&stream, acked, &files, tracer, &mut tally))
        .collect();
    let peak = peak_rss_mb().unwrap_or(0.0);

    println!(
        "perfbench: writer: {} papers/batch, {:.1} edges/batch, {acked} batches \
         acknowledged ({} measured); persist every {PERSIST_EVERY}; {TAIL_BATCHES} replayed at \
         each of {RESTARTS} restarts",
        stream.papers_per_batch(),
        (0..acked)
            .map(|b| stream.batch(b).n_citations())
            .sum::<usize>() as f64
            / acked.max(1) as f64,
        wlog.fresh_ms.len()
    );
    let lat = &reads.latency_us;
    println!(
        "perfbench: reads: {} served over {read_s:.2} s; {} latency samples, {} beyond p99",
        reads.served,
        lat.len(),
        beyond(lat, 0.99)
    );
    let e2e = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric("read_qps", "1/s", reads.served as f64 / read_s),
        metric("read_p50_us", "us", quantile(lat, 0.5)),
        metric("read_p99_us", "us", quantile(lat, 0.99)),
        metric("fresh_p50_ms", "ms", quantile(&wlog.fresh_ms, 0.5)),
        metric("fresh_p90_ms", "ms", quantile(&wlog.fresh_ms, 0.9)),
        metric(
            "ingest_papers_per_s",
            "1/s",
            wlog.measured_papers as f64 / wlog.measured_wall.as_secs_f64(),
        ),
        metric("recover_s", "s", median(&recover_s)),
        metric("peak_rss_mb", "MB", peak),
    ];

    let spans = tracer.spans();
    let layers = layer_metrics(&spans, &reads.probes, &caches, &wlog);
    PassOutput {
        e2e,
        layers,
        attempted: tally.attempted,
        failed: tally.failed,
        spans,
    }
}

/// Prints the properties of the `search` requests a pass served
/// (recomputed from the stream, outside the timed window).
fn describe_search(facts: &Facts, seed: u64, requests: usize) {
    let mut texts: HashSet<String> = HashSet::new();
    let mut fingerprints: HashSet<String> = HashSet::new();
    let mut seed_sets: HashSet<String> = HashSet::new();
    let (mut firsts, mut dups, mut seeded, mut seed_repeats, mut served) = (0, 0, 0, 0, 0);
    let mut stream = SearchStream::new(facts, seed, 0);
    while served < requests {
        let req = stream.next().expect("the stream is endless");
        served += req.pages;
        firsts += 1;
        if !texts.insert(req.text.clone()) {
            dups += 1;
        }
        let q: Query = req.text.parse().expect("stream queries parse");
        if !q.seeds.is_empty() {
            seeded += 1;
            let mut s = q.seeds.clone();
            s.sort_unstable();
            if !seed_sets.insert(format!("{:?}/{s:?}", q.method)) {
                seed_repeats += 1;
            }
        }
        let filter = Query {
            k: 0,
            cursor: None,
            ..q
        };
        fingerprints.insert(filter.to_string());
    }
    let bound = personalization_bound(facts.n_papers);
    println!(
        "perfbench: search mix: {firsts} first pages; exact-duplicate share {:.4}; \
         {} distinct fingerprints vs plan-cache capacity {DEFAULT_PLAN_CACHE_CAPACITY}; \
         {} distinct seed sets vs personalization bound ~{bound}; seed-set repeat share {:.4}",
        dups as f64 / firsts.max(1) as f64,
        fingerprints.len(),
        seed_sets.len(),
        seed_repeats as f64 / seeded.max(1) as f64
    );
}

/// Prints the properties of the `dashboard` batches a pass served.
fn describe_dashboard(shapes: &[String], seed: u64, batches: usize) {
    let mut stream = DashboardStream::new(shapes.len(), seed);
    let mut dup_sum = 0.0;
    let mut seeded_members = 0usize;
    let mut seeded_first = 0usize;
    for _ in 0..batches {
        let members = stream.next().expect("the stream is endless");
        let distinct: HashSet<usize> = members.iter().copied().collect();
        dup_sum += (members.len() - distinct.len()) as f64 / members.len() as f64;
        let seeded: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| shapes[i].contains("seed="))
            .collect();
        let seeded_distinct: HashSet<usize> = seeded.iter().copied().collect();
        seeded_members += seeded.len();
        seeded_first += seeded_distinct.len();
    }
    let dup_share = dup_sum / batches.max(1) as f64;
    let seeded_shapes = shapes.iter().filter(|s| s.contains("seed=")).count();
    println!(
        "perfbench: dashboard mix: {batches} batches of {DASHBOARD_BATCH}; exact-duplicate share per batch {dup_share:.4}; \
         {} distinct fingerprints vs plan-cache capacity {DEFAULT_PLAN_CACHE_CAPACITY}; \
         {seeded_shapes} distinct seed sets; seed-set repeat share within batches {:.4}",
        shapes.len(),
        1.0 - seeded_first as f64 / seeded_members.max(1) as f64
    );
}

/// How many personalized vectors the default cache bounds hold at `n`
/// papers (each entry keeps scores plus the warm-start form).
fn personalization_bound(n: usize) -> usize {
    let c = CacheConfig::default();
    c.capacity.min(c.max_bytes / (2 * 8 * n.max(1)))
}

/// Median of the spans named `name`, in ns scaled by `scale`.
fn span_median(spans: &[Span], name: &str, scale: f64) -> f64 {
    median(&durations(spans, name)) / scale
}

fn layer_metrics(
    spans: &[Span],
    probes: &[PlanProbe],
    caches: &CacheWindow,
    wlog: &WriteLog,
) -> Vec<Metric> {
    let mut out = vec![metric(
        "query.parse_us",
        "us",
        span_median(spans, "query.parse", 1e3),
    )];
    for (class, span) in QueryClass::ALL.iter().zip(SERVE_SPANS) {
        out.push(metric(
            format!("query.serve_us.{}", class.name()),
            "us",
            span_median(spans, span, 1e3),
        ));
    }
    let candidates: usize = probes.iter().map(|p| p.candidates).sum();
    let hits: usize = probes.iter().map(|p| p.hits).sum();
    out.push(metric(
        "query.examined_per_result",
        "ratio",
        candidates as f64 / hits.max(1) as f64,
    ));
    // How far the planner's estimate is from the measured serve time, as
    // |ln(estimate / actual)|: 0 is exact, and over- and underestimates
    // by the same factor count the same.
    for driver in DRIVERS {
        let errors: Vec<f64> = probes
            .iter()
            .filter(|p| p.driver == driver && p.est_ns > 0.0 && p.actual_ns > 0.0)
            .map(|p| (p.est_ns / p.actual_ns).ln().abs())
            .collect();
        out.push(metric(
            format!("query.est_over_actual.abs_ln.{driver}"),
            "ln_ratio",
            median(&errors),
        ));
    }
    let cache = caches.metrics();
    out.extend(cache[..2].iter().cloned());
    out.push(metric(
        "batch.serve_us",
        "us",
        span_median(spans, "batch.serve", 1e3),
    ));
    out.extend(cache[2..].iter().cloned());
    out.push(metric(
        "engine.ingest_us",
        "us",
        span_median(spans, "engine.ingest", 1e3),
    ));
    for (m, span) in PUBLISH_SPANS.iter().enumerate() {
        out.push(metric(
            format!("engine.publish_ms.{}", METHODS[m]),
            "ms",
            span_median(spans, span, 1e6),
        ));
    }
    out.push(metric(
        "engine.visible_us",
        "us",
        span_median(spans, "engine.visible", 1e3),
    ));
    for (m, name) in METHODS.iter().enumerate() {
        let (mut pushes, mut work, mut pushed, mut full) = (0u64, 0u64, 0u64, 0u64);
        for s in &wlog.strategies[m] {
            match *s {
                RerankStrategy::Push {
                    pushes: p,
                    edge_work,
                } => {
                    pushes += p;
                    work += edge_work;
                    pushed += 1;
                }
                RerankStrategy::Full => full += 1,
                _ => {}
            }
        }
        out.push(metric(
            format!("solver.pushes.{name}"),
            "count",
            pushes as f64 / pushed.max(1) as f64,
        ));
        out.push(metric(
            format!("solver.edge_work.{name}"),
            "count",
            work as f64 / pushed.max(1) as f64,
        ));
        out.push(metric(
            format!("solver.full_publishes.{name}"),
            "count",
            full as f64,
        ));
    }
    out.push(metric(
        "citegraph.rebuild_ms",
        "ms",
        span_median(spans, "citegraph.rebuild", 1e6),
    ));
    for (m, span) in PERSIST_SPANS.iter().enumerate() {
        out.push(metric(
            format!("graphstore.persist_ms.{}", METHODS[m]),
            "ms",
            span_median(spans, span, 1e6),
        ));
    }
    out.push(metric(
        "graphstore.snapshot_bytes_per_edge",
        "bytes",
        median(&wlog.snapshot_bytes_per_edge),
    ));
    out.push(metric(
        "graphstore.wal_bytes_per_paper",
        "bytes",
        median(&wlog.wal_bytes_per_paper),
    ));
    for (m, span) in OPEN_SPANS.iter().enumerate() {
        out.push(metric(
            format!("graphstore.open_ms.{}", METHODS[m]),
            "ms",
            span_median(spans, span, 1e6),
        ));
    }
    for (m, span) in REPLAY_SPANS.iter().enumerate() {
        out.push(metric(
            format!("graphstore.replay_ms.{}", METHODS[m]),
            "ms",
            span_median(spans, span, 1e6),
        ));
    }
    out
}
