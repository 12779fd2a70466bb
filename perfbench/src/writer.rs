//! The write side: engine set-up with WALs, the single writer (ingest,
//! publish, visibility, persist), and the simulated restart.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use citegraph::CitationNetwork;
use perfbench::oracle;
use perfbench::trace::Tracer;
use perfbench::workload::{DeltaStream, METHODS};
use rankengine::{CostModel, QueryEngine, RankingEngine, RerankPolicy, RerankStrategy};

use crate::run::Tally;

/// Every this many batches the writer persists each method's epoch: a
/// weekly snapshot of daily batches. No in-repo source sets the cadence;
/// it bounds the WAL a restart replays to a week.
pub(crate) const PERSIST_EVERY: usize = 7;
/// Batches acknowledged after the last persist; the restart replays them
/// from the WAL.
pub(crate) const TAIL_BATCHES: usize = 4;
/// A batch not visible on every method this long after its ingest is a
/// visibility miss.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(20);

/// Span names of each method's `rerank`, in [`METHODS`] order.
pub(crate) const PUBLISH_SPANS: [&str; 3] = [
    "engine.publish.attrank",
    "engine.publish.cc",
    "engine.publish.pagerank",
];
/// Span names of each method's `persist_epoch`.
pub(crate) const PERSIST_SPANS: [&str; 3] = [
    "graphstore.persist.attrank",
    "graphstore.persist.cc",
    "graphstore.persist.pagerank",
];
/// Span names of each method's `RankingEngine::open_from_store`.
pub(crate) const OPEN_SPANS: [&str; 3] = [
    "graphstore.open.attrank",
    "graphstore.open.cc",
    "graphstore.open.pagerank",
];
/// Span names of each method's `ColdStart::wait` (WAL replay).
pub(crate) const REPLAY_SPANS: [&str; 3] = [
    "graphstore.replay.attrank",
    "graphstore.replay.cc",
    "graphstore.replay.pagerank",
];

/// Where a pass keeps its WALs and snapshot stores.
pub(crate) struct Files {
    dir: PathBuf,
}

impl Files {
    pub(crate) fn new(dir: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the work directory");
        Files { dir }
    }

    fn wal(&self, m: usize) -> PathBuf {
        self.dir.join(format!("{}.wal", METHODS[m]))
    }

    fn store(&self, m: usize) -> PathBuf {
        self.dir.join(format!("{}.store", METHODS[m]))
    }

    pub(crate) fn clear(&self) {
        for m in 0..METHODS.len() {
            let _ = std::fs::remove_file(self.wal(m));
            let _ = std::fs::remove_file(self.store(m));
        }
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Builds the engines "ready to serve": one `RankingEngine` per method
/// (each ranks the corpus), the planner's cost model pinned, and a WAL
/// attached to every engine.
pub(crate) fn build_engines(net: CitationNetwork, files: &Files) -> QueryEngine {
    let mut qe = QueryEngine::from_configs(net, &METHODS, RerankPolicy::Manual)
        .expect("the served methods build");
    qe.set_cost_model(CostModel::default());
    for m in 0..METHODS.len() {
        engine(&qe, m)
            .attach_wal(files.wal(m))
            .expect("attach a fresh WAL");
    }
    qe
}

fn engine(qe: &QueryEngine, m: usize) -> &Arc<RankingEngine> {
    qe.engine(Some(METHODS[m])).expect("served method")
}

/// What the writer recorded.
#[derive(Default)]
pub(crate) struct WriteLog {
    pub(crate) fresh_ms: Vec<f64>,
    pub(crate) measured_papers: usize,
    pub(crate) measured_wall: Duration,
    pub(crate) strategies: [Vec<RerankStrategy>; 3],
    pub(crate) snapshot_bytes_per_edge: Vec<f64>,
    pub(crate) wal_bytes_per_paper: Vec<f64>,
    pub(crate) tally: Tally,
}

/// The single writer: ingest → rerank every method → wait until the
/// batch is visible on every method → check it → persist every
/// [`PERSIST_EVERY`] batches.
pub(crate) struct Writer<'a> {
    qe: &'a QueryEngine,
    stream: &'a DeltaStream<'a>,
    tracer: &'a Tracer,
    files: &'a Files,
    pub(crate) next_batch: usize,
    papers_since_persist: usize,
    pub(crate) log: WriteLog,
    pub(crate) broken: bool,
}

impl<'a> Writer<'a> {
    pub(crate) fn new(
        qe: &'a QueryEngine,
        stream: &'a DeltaStream<'a>,
        tracer: &'a Tracer,
        files: &'a Files,
    ) -> Self {
        Writer {
            qe,
            stream,
            tracer,
            files,
            next_batch: 0,
            papers_since_persist: 0,
            log: WriteLog::default(),
            broken: false,
        }
    }

    /// Ingests and publishes the next batch; `measured` batches feed the
    /// freshness and throughput figures.
    pub(crate) fn batch(&mut self, measured: bool) {
        if self.broken {
            return;
        }
        let b = self.next_batch;
        let wall = Instant::now();
        let delta = self.stream.batch(b);
        let request = b as u64;
        let parent = self.tracer.on().then(|| {
            let snap = self.qe.snapshot(None).expect("default method");
            Arc::clone(snap.network())
        });
        self.log.tally.attempted += 1;
        let root = self.tracer.open("bench.batch", 0, request);
        let t0 = Instant::now();
        let ingested = self
            .tracer
            .span("engine.ingest", root, request, || self.qe.ingest(&delta));
        if let Err(e) = ingested {
            self.tracer.close(root);
            self.log.tally.fail(format!("ingest of batch {b}: {e}"));
            self.broken = true;
            return;
        }
        self.next_batch += 1;
        for (m, span) in PUBLISH_SPANS.iter().enumerate() {
            self.tracer
                .span(span, root, request, || engine(self.qe, m).rerank());
        }
        let target = self.stream.first_id(b + 1) as usize;
        let visible = self.tracer.span("engine.visible", root, request, || loop {
            if (0..METHODS.len()).all(|m| engine(self.qe, m).snapshot().n_papers() >= target) {
                break true;
            }
            if t0.elapsed() > VISIBLE_TIMEOUT {
                break false;
            }
            std::thread::yield_now();
        });
        let fresh = t0.elapsed();
        self.tracer.close(root);

        // Outside the freshness window: check what became visible.
        let mut wrong =
            (!visible).then(|| format!("batch {b} not visible within {VISIBLE_TIMEOUT:?}"));
        for (m, strategies) in self.log.strategies.iter_mut().enumerate() {
            let snap = engine(self.qe, m).snapshot();
            if measured {
                strategies.push(snap.strategy());
            }
            let first = self.stream.first_id(b);
            if let Err(e) =
                oracle::check_batch(snap.network(), snap.scores().as_slice(), &delta, first)
            {
                wrong.get_or_insert(format!("{} after publish: {e}", METHODS[m]));
            }
        }
        if let Some(e) = wrong {
            self.log.tally.fail(format!("visibility: {e}"));
        }
        if let Some(parent) = parent {
            self.tracer
                .span("citegraph.rebuild", 0, request, || {
                    parent.with_delta(&delta).map(|net| net.n_papers())
                })
                .expect("a batch the engines accepted applies to their parent network");
        }
        self.papers_since_persist += delta.n_papers();
        if (b + 1).is_multiple_of(PERSIST_EVERY) {
            self.persist();
        }
        if measured {
            self.log.fresh_ms.push(fresh.as_secs_f64() * 1e3);
            self.log.measured_papers += delta.n_papers();
            self.log.measured_wall += wall.elapsed();
        }
    }

    /// Persists every method's published epoch (which truncates its WAL).
    fn persist(&mut self) {
        if self.papers_since_persist > 0 {
            let wal: f64 = (0..METHODS.len())
                .map(|m| file_len(&self.files.wal(m)) as f64)
                .sum::<f64>()
                / METHODS.len() as f64;
            self.log
                .wal_bytes_per_paper
                .push(wal / self.papers_since_persist as f64);
        }
        for (m, span) in PERSIST_SPANS.iter().enumerate() {
            self.log.tally.attempted += 1;
            let eng = engine(self.qe, m);
            let r = self.tracer.span(span, 0, self.next_batch as u64, || {
                eng.persist_epoch(self.files.store(m))
            });
            match r {
                Ok(_) => {
                    let edges = eng.snapshot().n_citations().max(1) as f64;
                    self.log
                        .snapshot_bytes_per_edge
                        .push(file_len(&self.files.store(m)) as f64 / edges);
                }
                Err(e) => self.log.tally.fail(format!("persist {}: {e}", METHODS[m])),
            }
        }
        self.papers_since_persist = 0;
    }

    /// The writer's tail before a restart: persist, then acknowledge
    /// [`TAIL_BATCHES`] more batches that only the WAL holds.
    pub(crate) fn finish(&mut self) {
        self.persist();
        for _ in 0..TAIL_BATCHES {
            self.batch(false);
        }
    }
}

/// Simulated restart: reopen each method in turn from its snapshot store
/// and WAL and wait for its replay, then check that every acknowledged
/// paper is served. Returns the time until every method served the last
/// acknowledged state. (Methods restart one after another so each
/// method's open and replay spans are its own on two cores.)
pub(crate) fn restart(
    stream: &DeltaStream<'_>,
    acked: usize,
    files: &Files,
    tracer: &Tracer,
    tally: &mut Tally,
) -> f64 {
    let expected = stream.first_id(acked) as usize;
    let t0 = Instant::now();
    let root = tracer.open("bench.restart", 0, 0);
    let mut engines = Vec::new();
    for m in 0..METHODS.len() {
        let opened = tracer.span(OPEN_SPANS[m], root, 0, || {
            RankingEngine::open_from_store(files.store(m), Some(files.wal(m)), RerankPolicy::Manual)
        });
        match opened {
            Ok(cs) => engines.push((m, tracer.span(REPLAY_SPANS[m], root, 0, || cs.wait()).0)),
            Err(e) => tally.fail(format!("reopen {}: {e}", METHODS[m])),
        }
    }
    while engines
        .iter()
        .any(|(_, e)| e.snapshot().n_papers() < expected)
        && t0.elapsed() < VISIBLE_TIMEOUT
    {
        std::thread::yield_now();
    }
    let recover_s = t0.elapsed().as_secs_f64();
    tracer.close(root);
    tally.attempted += 1;
    if engines.len() < METHODS.len() {
        tally.fail("not every method reopened");
    }
    for b in 0..acked {
        tally.attempted += 1;
        let delta = stream.batch(b);
        let missing = engines.iter().find_map(|(m, eng)| {
            let snap = eng.snapshot();
            oracle::check_batch(
                snap.network(),
                snap.scores().as_slice(),
                &delta,
                stream.first_id(b),
            )
            .err()
            .map(|e| format!("{} after restart: {e}", METHODS[*m]))
        });
        if let Some(e) = missing {
            tally.fail(format!("acknowledged batch {b} lost: {e}"));
        }
    }
    recover_s
}
