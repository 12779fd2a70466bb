//! The read side: a `search` client that serves one page-request at a
//! time, the `ingest_live` reader and the `dashboard` batch client, and
//! the read samples they keep for the oracle.

use std::sync::Arc;
use std::time::Instant;

use perfbench::trace::Tracer;
use perfbench::workload::{DashboardStream, QueryClass, SearchStream};
use rankengine::{EpochSnapshot, Hit, PageBuf, Query, QueryEngine, QueryScratch};

use crate::run::Tally;

/// Every this many read requests one is kept for the oracle.
const SAMPLE_EVERY: u64 = 16;
/// Most read samples checked per pass.
const MAX_SAMPLES: usize = 240;
/// Span names of `query_with_at` per request class, in
/// [`QueryClass::ALL`] order.
pub(crate) const SERVE_SPANS: [&str; 7] = [
    "query.serve.unfiltered",
    "query.serve.cursor",
    "query.serve.venue",
    "query.serve.author_year",
    "query.serve.year_range",
    "query.serve.venue_or",
    "query.serve.seeded",
];

/// A read kept for the oracle, with the snapshot that served it.
pub(crate) struct Sample {
    pub(crate) q: Query,
    pub(crate) snap: Arc<EpochSnapshot>,
    pub(crate) items: Vec<Hit>,
    pub(crate) matched: usize,
}

/// The read samples a reader keeps for the oracle: at most
/// [`MAX_SAMPLES`], from the latest epoch it saw of each method only. A
/// sample from a newer epoch releases the method's older ones, because a
/// pinned epoch holds a whole network that the engine has moved past.
#[derive(Default)]
pub(crate) struct Samples(pub(crate) Vec<Sample>);

impl Samples {
    fn keep(&mut self, s: Sample) {
        let (method, epoch) = (&s.q.method, s.snap.epoch());
        if self
            .0
            .iter()
            .any(|k| &k.q.method == method && k.snap.epoch() > epoch)
        {
            return;
        }
        self.0
            .retain(|k| &k.q.method != method || k.snap.epoch() == epoch);
        if self.0.len() < MAX_SAMPLES {
            self.0.push(s);
        }
    }
}

/// Planner estimate vs measured cost of one traced request.
pub(crate) struct PlanProbe {
    pub(crate) driver: &'static str,
    pub(crate) est_ns: f64,
    pub(crate) actual_ns: f64,
    pub(crate) candidates: usize,
    pub(crate) hits: usize,
}

/// What a reader recorded.
#[derive(Default)]
pub(crate) struct ReadLog {
    pub(crate) latency_us: Vec<f64>,
    pub(crate) served: u64,
    pub(crate) tally: Tally,
    pub(crate) probes: Vec<PlanProbe>,
}

/// An unfiltered walk in progress: later pages resume from the cursor
/// on the snapshot page 1 was served from.
struct Walk {
    base: String,
    snap: Arc<EpochSnapshot>,
    pages_left: usize,
    token: String,
}

/// A search client: serves the stream one page-request at a time.
pub(crate) struct Client<'a> {
    qe: &'a QueryEngine,
    tracer: &'a Tracer,
    stream: SearchStream<'a>,
    scratch: QueryScratch,
    out: PageBuf,
    text: String,
    walk: Option<Walk>,
    next_request: u64,
}

impl<'a> Client<'a> {
    pub(crate) fn new(qe: &'a QueryEngine, tracer: &'a Tracer, stream: SearchStream<'a>) -> Self {
        Client {
            qe,
            tracer,
            stream,
            scratch: QueryScratch::new(),
            out: PageBuf::new(),
            text: String::new(),
            walk: None,
            next_request: 0,
        }
    }

    /// Serves the next page-request, timed into `log`. Returns the page
    /// for the oracle when `keep` is set.
    pub(crate) fn step(&mut self, log: &mut ReadLog, keep: bool) -> Option<Sample> {
        let t0 = Instant::now();
        let request = self.next_request;
        self.next_request += 1;
        let root = self.tracer.open("bench.request", 0, request);
        if self.walk.as_ref().is_some_and(|w| w.pages_left == 0) {
            self.walk = None;
        }
        let (class, pinned, pages) = match &self.walk {
            Some(w) => {
                self.text.clear();
                self.text.push_str(&w.base);
                self.text.push_str(",cursor=");
                self.text.push_str(&w.token);
                (QueryClass::Cursor, Some(Arc::clone(&w.snap)), 0)
            }
            None => {
                let req = self.stream.next().expect("the stream is endless");
                self.text = req.text;
                (req.class, None, req.pages)
            }
        };
        let parsed: Result<Query, _> = self
            .tracer
            .span("query.parse", root, request, || self.text.parse::<Query>());
        let served = parsed.and_then(|q| {
            let snap = match pinned {
                Some(s) => s,
                None => self.qe.snapshot(q.method.as_deref())?,
            };
            let span = self.tracer.open(SERVE_SPANS[class.index()], root, request);
            let r = self
                .qe
                .query_with_at(&snap, &q, &mut self.scratch, &mut self.out);
            let actual_ns = self.tracer.close(span);
            r.map(|()| (q, snap, actual_ns))
        });
        log.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        log.served += 1;
        log.tally.attempted += 1;
        self.tracer.close(root);
        let (q, snap, actual_ns) = match served {
            Ok(v) => v,
            Err(e) => {
                log.tally.fail(format!("{}: {e}", self.text));
                self.walk = None;
                return None;
            }
        };
        // Advance the walk: page 1 starts it, each cursor page uses one.
        if pages > 1 {
            self.walk = Some(Walk {
                base: self.text.clone(),
                snap: Arc::clone(&snap),
                pages_left: pages - 1,
                token: String::new(),
            });
        } else if let Some(w) = self.walk.as_mut() {
            w.pages_left -= 1;
        }
        match (self.out.next_token(), self.walk.as_mut()) {
            (Some(token), Some(w)) => {
                w.token.clear();
                w.token.push_str(token);
            }
            (None, _) => self.walk = None,
            _ => {}
        }
        if self.tracer.on() && q.seeds.is_empty() {
            self.probe(&q, actual_ns, log);
        }
        keep.then(|| Sample {
            q,
            snap,
            items: self.out.items().to_vec(),
            matched: self.out.matched(),
        })
    }

    /// Abandons an unfinished walk, releasing the snapshot it pins.
    pub(crate) fn end_walk(&mut self) {
        self.walk = None;
    }

    /// Traced runs only: the planner's view of the unseeded request just
    /// served (the plan does not price a personalized solve).
    fn probe(&self, q: &Query, actual_ns: u64, log: &mut ReadLog) {
        if let Ok(plan) = self.qe.explain(q) {
            if let Some(chosen) = plan.table.iter().find(|c| c.chosen) {
                log.probes.push(PlanProbe {
                    driver: chosen.driver,
                    est_ns: plan.cost_ns,
                    actual_ns: actual_ns as f64,
                    candidates: plan.candidates,
                    hits: self.out.items().len(),
                });
            }
        }
    }
}

/// The `dashboard` client: sends
/// [`DASHBOARD_BATCH`](perfbench::workload::DASHBOARD_BATCH)-member
/// `query_batch` requests from `batches` until `deadline`, one latency
/// sample per batch.
pub(crate) fn dashboard_window(
    qe: &QueryEngine,
    shapes: &[String],
    batches: &mut DashboardStream,
    tracer: &Tracer,
    deadline: Instant,
    log: &mut ReadLog,
    kept: &mut Samples,
) {
    loop {
        let t0 = Instant::now();
        if t0 >= deadline {
            return;
        }
        let n = log.latency_us.len() as u64;
        let members = batches.next().expect("the stream is endless");
        let root = tracer.open("bench.request", 0, n);
        let queries: Vec<Query> = members
            .iter()
            .map(|&i| {
                tracer
                    .span("query.parse", root, n, || shapes[i].parse::<Query>())
                    .expect("panel shapes parse")
            })
            .collect();
        let pages = tracer.span("batch.serve", root, n, || qe.query_batch(&queries));
        tracer.close(root);
        log.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        log.served += pages.len() as u64;
        log.tally.attempted += pages.len() as u64;
        let keep = n.is_multiple_of(SAMPLE_EVERY);
        for (q, page) in queries.into_iter().zip(pages) {
            match page {
                Err(e) => log.tally.fail(format!("{q}: {e}")),
                // No writes run beside the dashboard: the method's current
                // snapshot is the one that served the page (the oracle
                // checks the epoch too).
                Ok(page) if keep => {
                    let snap = qe.snapshot(q.method.as_deref()).expect("served method");
                    if snap.epoch() != page.epoch {
                        log.tally
                            .fail(format!("{q}: served from epoch {}", page.epoch));
                        continue;
                    }
                    kept.keep(Sample {
                        q,
                        snap,
                        items: page.items,
                        matched: page.matched,
                    });
                }
                Ok(_) => {}
            }
        }
    }
}

/// Runs the `search` mix on `client`, closed loop, until `stop` says so
/// (the `search` workload, and the reader of `ingest_live`). Returns the
/// seconds it ran.
pub(crate) fn search_reader(
    client: &mut Client<'_>,
    stop: impl Fn() -> bool,
    log: &mut ReadLog,
    kept: &mut Samples,
) -> f64 {
    let start = Instant::now();
    while !stop() {
        let keep = log.served.is_multiple_of(SAMPLE_EVERY);
        if let Some(s) = client.step(log, keep) {
            kept.keep(s);
        }
    }
    start.elapsed().as_secs_f64()
}
