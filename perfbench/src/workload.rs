//! The three workloads' input streams, generated from the corpus and the
//! workload seed alone.
//!
//! Every stream is a pure function of `(corpus facts, seed)`: the same
//! seed yields byte-identical query texts and delta batches, whatever the
//! engine under test does with them. That is what lets two commits be
//! compared on identical inputs.

use citegen::DatasetProfile;
use citegraph::{AuthorId, CitationNetwork, GraphDelta, PaperId, VenueId, Year};

use crate::rng::{Rng, Zipf};

/// The served methods, default first. Seeded queries use only the two
/// with a damping factor.
pub const METHODS: [&str; 3] = ["attrank", "cc", "pagerank"];

/// Methods that can serve `seed=` queries.
pub const SEEDED_METHODS: [&str; 2] = ["attrank", "pagerank"];

/// A seed kept out of every run made while building or tuning the
/// benchmark: confirm a claimed gain on it after the claim is made.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// How many of the most prolific authors the query streams draw from.
const AUTHOR_POOL: usize = 50_000;

/// How many recent, highly cited papers the dashboard's "related"
/// panels are seeded from.
const HOT_POOL: usize = 5_000;

/// Exponent of every popularity draw of the query streams (venues by
/// size, authors by output, seed papers by citations, dashboard panels):
/// Zipf's law in its classic form. No query log exists to fit it.
const ZIPF_S: f64 = 1.0;

/// Corpus properties the streams are drawn from, extracted once.
#[derive(Debug, Clone)]
pub struct Facts {
    /// The growth profile the corpus was generated with; new papers
    /// follow it.
    pub profile: DatasetProfile,
    /// Papers in the base corpus.
    pub n_papers: usize,
    /// Earliest publication year.
    pub first_year: Year,
    /// Latest publication year (new papers are published in it).
    pub current_year: Year,
    /// Venues by paper count, largest first (ties by id).
    pub venues_by_size: Vec<VenueId>,
    /// The most prolific authors, most papers first (ties by id).
    pub authors_by_output: Vec<AuthorId>,
    /// Every paper by citation count, most cited first (ties by id).
    pub papers_by_citations: Vec<PaperId>,
    /// Papers of the last three years by citation count, most cited
    /// first.
    pub recent_hot: Vec<PaperId>,
    /// First paper id of each year from `first_year` on, then the corpus
    /// size (ids are in publication order).
    pub year_starts: Vec<PaperId>,
    /// Each paper's topic: its venue divided by the profile's venues per
    /// topic, as the generator assigns venues.
    pub topics: Vec<u16>,
    /// Running totals of the citations each paper received.
    pub citation_cdf: Vec<u64>,
    /// Running totals of the citations each paper received from papers
    /// of the profile's attention window (its last `attention_window`
    /// years).
    pub attention_cdf: Vec<u64>,
    /// Running totals of each author's paper count.
    pub author_cdf: Vec<u64>,
}

/// Running totals of `weights`.
fn running_totals(weights: impl Iterator<Item = u64>) -> Vec<u64> {
    weights
        .scan(0u64, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect()
}

/// An index drawn with probability proportional to its weight, given the
/// weights' running totals; `None` when every weight is 0.
fn draw(totals: &[u64], rng: &mut Rng) -> Option<usize> {
    let total = *totals.last()?;
    (total > 0).then(|| {
        let x = rng.next_u64() % total;
        totals.partition_point(|&t| t <= x)
    })
}

impl Facts {
    /// Extracts the facts of a corpus generated with `profile`.
    ///
    /// # Panics
    /// Panics if the corpus is empty, lacks venue or author metadata,
    /// lists papers out of publication order, or has venues the profile
    /// does not define.
    pub fn of(net: &CitationNetwork, profile: &DatasetProfile) -> Self {
        let venues = net.venues().expect("corpus has venue metadata");
        let authors = net.authors().expect("corpus has author metadata");
        assert!(
            net.years().windows(2).all(|w| w[0] <= w[1]),
            "corpus ids are in publication order"
        );
        assert_eq!(
            venues.n_venues(),
            profile.n_topics * profile.venues_per_topic,
            "corpus venues are the profile's"
        );
        let mut venues_by_size: Vec<VenueId> = (0..venues.n_venues() as VenueId).collect();
        venues_by_size.sort_by_key(|&v| (std::cmp::Reverse(venues.n_papers_at(v)), v));
        let mut authors_by_output: Vec<AuthorId> = (0..authors.n_authors() as AuthorId).collect();
        authors_by_output.sort_by_key(|&a| (std::cmp::Reverse(authors.papers_of(a).len()), a));
        authors_by_output.truncate(AUTHOR_POOL);
        let cites = net.citation_counts();
        let mut papers_by_citations: Vec<PaperId> = (0..net.n_papers() as PaperId).collect();
        papers_by_citations.sort_by_key(|&p| (std::cmp::Reverse(cites[p as usize]), p));
        let first_year = net.first_year().expect("non-empty corpus");
        let current_year = net.current_year().expect("non-empty corpus");
        let recent_hot: Vec<PaperId> = papers_by_citations
            .iter()
            .copied()
            .filter(|&p| net.year(p) + 2 >= current_year)
            .take(HOT_POOL)
            .collect();
        let year_starts: Vec<PaperId> = (first_year..=current_year + 1)
            .map(|y| net.years().partition_point(|&py| py < y) as PaperId)
            .collect();
        let topics = (0..net.n_papers() as PaperId)
            .map(|p| {
                let v = venues.venue_of(p).expect("every corpus paper has a venue");
                (v as usize / profile.venues_per_topic) as u16
            })
            .collect();
        let window_start = current_year + 1 - profile.attention_window as Year;
        let mut attention = vec![0u64; net.n_papers()];
        for citing in year_starts[(window_start - first_year) as usize] as usize..net.n_papers() {
            for &cited in net.references(citing as PaperId) {
                attention[cited as usize] += 1;
            }
        }
        Facts {
            profile: profile.clone(),
            n_papers: net.n_papers(),
            first_year,
            current_year,
            venues_by_size,
            authors_by_output,
            papers_by_citations,
            recent_hot,
            year_starts,
            topics,
            citation_cdf: running_totals(cites.iter().map(|&c| c as u64)),
            attention_cdf: running_totals(attention.into_iter()),
            author_cdf: running_totals(
                (0..authors.n_authors() as AuthorId).map(|a| authors.papers_of(a).len() as u64),
            ),
        }
    }

    /// Papers the corpus published per day of its current year.
    pub fn papers_per_day(&self) -> usize {
        let n = self.year_starts.len();
        let current = (self.year_starts[n - 1] - self.year_starts[n - 2]) as usize;
        (current / 365).max(1)
    }
}

/// The request classes of the `search` mix; each has its own latency
/// series in the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Global top-k, first page.
    Unfiltered,
    /// Pages 2–3 of an unfiltered walk, resumed from a cursor.
    Cursor,
    /// One venue.
    Venue,
    /// One author within a year window.
    AuthorYear,
    /// A year window.
    YearRange,
    /// Several venues (OR).
    VenueOr,
    /// A personalized ranking around a seed set.
    Seeded,
}

impl QueryClass {
    /// Every class, in reporting order.
    pub const ALL: [QueryClass; 7] = [
        QueryClass::Unfiltered,
        QueryClass::Cursor,
        QueryClass::Venue,
        QueryClass::AuthorYear,
        QueryClass::YearRange,
        QueryClass::VenueOr,
        QueryClass::Seeded,
    ];

    /// The class's metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Unfiltered => "unfiltered",
            QueryClass::Cursor => "cursor",
            QueryClass::Venue => "venue",
            QueryClass::AuthorYear => "author_year",
            QueryClass::YearRange => "year_range",
            QueryClass::VenueOr => "venue_or",
            QueryClass::Seeded => "seeded",
        }
    }

    /// Position in [`Self::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("every class is listed")
    }
}

/// One client request of the `search` mix. An unfiltered request is a
/// walk: page 1 is `text`, pages 2..=`pages` append the previous page's
/// cursor token and count as [`QueryClass::Cursor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRequest {
    /// Class of the first page.
    pub class: QueryClass,
    /// Query text of the first page.
    pub text: String,
    /// Pages the client reads (3 for unfiltered walks, else 1).
    pub pages: usize,
}

/// The fixed mix, per cycle of 20 requests (shuffled per cycle).
const SEARCH_CYCLE: [(QueryClass, usize); 6] = [
    (QueryClass::Venue, 4),
    (QueryClass::AuthorYear, 4),
    (QueryClass::YearRange, 3),
    (QueryClass::VenueOr, 3),
    (QueryClass::Unfiltered, 3),
    (QueryClass::Seeded, 3),
];

/// Pages read per unfiltered walk.
const WALK_PAGES: usize = 3;

/// The `search` stream: distinct text queries in a fixed class mix.
#[derive(Debug, Clone)]
pub struct SearchStream<'a> {
    facts: &'a Facts,
    rng: Rng,
    cycle: Vec<QueryClass>,
    pos: usize,
    venue_zipf: Zipf,
    author_zipf: Zipf,
    seed_zipf: Zipf,
}

impl<'a> SearchStream<'a> {
    /// The stream for `seed`. `stream` separates independent streams of
    /// one seed (the measured stream from its warm-up, say).
    pub fn new(facts: &'a Facts, seed: u64, stream: u64) -> Self {
        let cycle = SEARCH_CYCLE
            .iter()
            .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
            .collect();
        SearchStream {
            facts,
            rng: Rng::new(seed, 0x5ea7c4 ^ stream),
            cycle,
            pos: usize::MAX,
            venue_zipf: Zipf::new(facts.venues_by_size.len(), ZIPF_S),
            author_zipf: Zipf::new(facts.authors_by_output.len(), ZIPF_S),
            seed_zipf: Zipf::new(facts.papers_by_citations.len(), ZIPF_S),
        }
    }

    fn method(&mut self) -> &'static str {
        METHODS[self.rng.below(METHODS.len())]
    }

    fn venue(&mut self) -> VenueId {
        self.facts.venues_by_size[self.venue_zipf.sample(&mut self.rng)]
    }

    /// A year window ending at most `back` years before the current
    /// year and spanning at most `span` years.
    fn window(&mut self, back: usize, span: usize) -> (Year, Year) {
        let hi = self.facts.current_year - self.rng.below(back) as Year;
        let lo = (hi - self.rng.below(span) as Year).max(self.facts.first_year);
        (lo, hi)
    }
}

impl Iterator for SearchStream<'_> {
    type Item = SearchRequest;

    fn next(&mut self) -> Option<SearchRequest> {
        if self.pos >= self.cycle.len() {
            let mut cycle = std::mem::take(&mut self.cycle);
            self.rng.shuffle(&mut cycle);
            self.cycle = cycle;
            self.pos = 0;
        }
        let class = self.cycle[self.pos];
        self.pos += 1;
        let k = 5 + self.rng.below(46);
        let (text, pages) = match class {
            QueryClass::Unfiltered | QueryClass::Cursor => {
                (format!("method={},k={k}", self.method()), WALK_PAGES)
            }
            QueryClass::Venue => (
                format!("method={},venue={},k={k}", self.method(), self.venue()),
                1,
            ),
            QueryClass::AuthorYear => {
                let author = self.facts.authors_by_output[self.author_zipf.sample(&mut self.rng)];
                let (lo, hi) = self.window(12, 6);
                (
                    format!(
                        "method={},author={author},year={lo}..{hi},k={k}",
                        self.method()
                    ),
                    1,
                )
            }
            QueryClass::YearRange => {
                let (lo, hi) = self.window(25, 4);
                (format!("method={},year={lo}..{hi},k={k}", self.method()), 1)
            }
            QueryClass::VenueOr => {
                let want = 2 + self.rng.below(3);
                let mut venues: Vec<VenueId> = Vec::with_capacity(want);
                while venues.len() < want {
                    let v = self.venue();
                    if !venues.contains(&v) {
                        venues.push(v);
                    }
                }
                let list: Vec<String> = venues.iter().map(|v| v.to_string()).collect();
                (
                    format!("method={},venue={},k={k}", self.method(), list.join("|")),
                    1,
                )
            }
            QueryClass::Seeded => {
                let method = SEEDED_METHODS[self.rng.below(SEEDED_METHODS.len())];
                let want = 1 + self.rng.below(3);
                let mut seeds: Vec<PaperId> = Vec::with_capacity(want);
                while seeds.len() < want {
                    let p = self.facts.papers_by_citations[self.seed_zipf.sample(&mut self.rng)];
                    if !seeds.contains(&p) {
                        seeds.push(p);
                    }
                }
                let list: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
                (format!("method={method},seed={},k={k}", list.join("|")), 1)
            }
        };
        Some(SearchRequest { class, text, pages })
    }
}

/// Members per `dashboard` request.
pub const DASHBOARD_BATCH: usize = 64;

/// The `dashboard` panel set: 32 fixed shapes, most popular first —
/// global top lists, top-per-venue, author pages, trending year windows
/// and "related" panels seeded on hot recent papers.
pub fn panel_shapes(facts: &Facts) -> Vec<String> {
    let cur = facts.current_year;
    let mut shapes = vec![
        "method=attrank,k=10".to_string(),
        "method=pagerank,k=10".to_string(),
    ];
    for (i, v) in facts.venues_by_size.iter().take(10).enumerate() {
        shapes.push(format!("method={},venue={v},k=10", METHODS[i % 3]));
    }
    for (i, a) in facts.authors_by_output.iter().take(8).enumerate() {
        shapes.push(format!("method={},author={a},k=20", METHODS[i % 3]));
    }
    for span in 0..3 {
        for m in ["attrank", "cc"] {
            shapes.push(format!("method={m},year={}..{cur},k=10", cur - span));
        }
    }
    for p in facts.recent_hot.iter().take(3) {
        for m in SEEDED_METHODS {
            shapes.push(format!("method={m},seed={p},k=10"));
        }
    }
    shapes
}

/// The `dashboard` stream: each request is [`DASHBOARD_BATCH`] panel
/// indices drawn Zipf-style from [`panel_shapes`].
#[derive(Debug, Clone)]
pub struct DashboardStream {
    rng: Rng,
    zipf: Zipf,
}

impl DashboardStream {
    /// The stream for `seed` over `n_shapes` panels.
    pub fn new(n_shapes: usize, seed: u64) -> Self {
        DashboardStream {
            rng: Rng::new(seed, 0xda5b),
            zipf: Zipf::new(n_shapes, ZIPF_S),
        }
    }
}

impl Iterator for DashboardStream {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        Some(
            (0..DASHBOARD_BATCH)
                .map(|_| self.zipf.sample(&mut self.rng))
                .collect(),
        )
    }
}

/// The writer's batches of new papers, drawn with the corpus's own growth
/// model (`citegen`'s generator and the corpus's [`DatasetProfile`]).
///
/// Batch `b` holds papers `n + b·per_batch ..` (where `n` is the base
/// corpus size), one day of the corpus's current-year output, published
/// in the current year. As in the generator, each new paper gets a
/// uniform topic and a venue of that topic, a geometric number of authors
/// with the profile's mean (each repeating an existing author in
/// proportion to their output), and a log-normal number of references
/// with the profile's median and dispersion. Each reference is drawn from
/// the profile's mixture — recent attention (papers cited from within the
/// attention window), recency (a year weighted by its size, the age decay
/// and the citation lag, then a paper of that year), or the long-memory
/// background (by citation count, one in five uniformly) — and kept on
/// the citing paper's topic with the profile's affinity.
///
/// Departures from the generator: targets are papers that exist before
/// the batch (base corpus and earlier batches); the attention and
/// citation-count draws use the base corpus's citations only; no new
/// authors are minted; the generator's phantom fitness and burst events
/// are not visible in a corpus and so are not drawn.
#[derive(Debug, Clone)]
pub struct DeltaStream<'a> {
    facts: &'a Facts,
    seed: u64,
    per_batch: usize,
}

impl<'a> DeltaStream<'a> {
    /// The stream for `seed`, [`Facts::papers_per_day`] papers per batch.
    pub fn new(facts: &'a Facts, seed: u64) -> Self {
        DeltaStream {
            facts,
            seed,
            per_batch: facts.papers_per_day(),
        }
    }

    /// Papers per batch.
    pub fn papers_per_batch(&self) -> usize {
        self.per_batch
    }

    /// Id of the first paper of batch `b`.
    pub fn first_id(&self, b: usize) -> PaperId {
        (self.facts.n_papers + b * self.per_batch) as PaperId
    }

    /// The venue of new paper `id`: a uniform topic, then a uniform venue
    /// of it (a function of the seed and the id, so the topic of a paper
    /// of an earlier batch is known without regenerating the batch).
    fn venue_of_new(&self, id: PaperId) -> VenueId {
        let p = &self.facts.profile;
        let mut rng = Rng::new(self.seed, 0x7e0c ^ u64::from(id));
        let topic = rng.below(p.n_topics);
        (topic * p.venues_per_topic + rng.below(p.venues_per_topic)) as VenueId
    }

    fn topic(&self, id: PaperId) -> usize {
        match self.facts.topics.get(id as usize) {
            Some(&t) => t as usize,
            None => self.venue_of_new(id) as usize / self.facts.profile.venues_per_topic,
        }
    }

    /// Papers of year offset `y`, given that papers `..end` exist.
    fn year_range(&self, y: usize, end: PaperId) -> std::ops::Range<PaperId> {
        let starts = &self.facts.year_starts;
        let hi = if y + 2 == starts.len() {
            end
        } else {
            starts[y + 1]
        };
        starts[y]..hi
    }

    /// Running totals of the recency component's year weights
    /// `size · e^{decay·age} · (1 − lag·e^{−1.2·age})`, given that papers
    /// `..end` exist.
    fn recency_totals(&self, end: PaperId) -> Vec<f64> {
        let p = &self.facts.profile;
        let years = self.facts.year_starts.len() - 1;
        let mut acc = 0.0;
        (0..years)
            .map(|y| {
                let age = (years - 1 - y) as f64;
                let r = self.year_range(y, end);
                acc += f64::from(r.end - r.start)
                    * (p.recency_decay * age).exp()
                    * (1.0 - p.citation_lag * (-1.2 * age).exp());
                acc
            })
            .collect()
    }

    /// One draw of the reference mixture among papers `..end`.
    fn target(&self, rng: &mut Rng, end: PaperId, recency: &[f64]) -> Option<PaperId> {
        let p = &self.facts.profile;
        let f = self.facts;
        let roll = rng.unit();
        if roll < p.w_attention {
            draw(&f.attention_cdf, rng).map(|i| i as PaperId)
        } else if roll < p.w_attention + p.w_recency {
            let x = rng.unit() * recency.last()?;
            let y = recency.partition_point(|&t| t <= x).min(recency.len() - 1);
            let r = self.year_range(y, end);
            (r.end > r.start).then(|| r.start + rng.below((r.end - r.start) as usize) as PaperId)
        } else if rng.unit() < 0.2 {
            Some(rng.below(end as usize) as PaperId)
        } else {
            draw(&f.citation_cdf, rng).map(|i| i as PaperId)
        }
    }

    /// Batch `b` (a pure function of the facts, the seed and `b`; it is
    /// valid once batches `0..b` have been applied).
    pub fn batch(&self, b: usize) -> GraphDelta {
        let p = &self.facts.profile;
        let mut rng = Rng::new(self.seed, 0xde17a ^ (b as u64).wrapping_mul(0x1_0001));
        let end = self.first_id(b);
        let recency = self.recency_totals(end);
        let mut delta = GraphDelta::new();
        for j in 0..self.per_batch {
            let id = end + j as PaperId;
            let venue = self.venue_of_new(id);
            let topic = self.topic(id);
            // Geometric author count with the profile's mean, as the
            // generator draws it.
            let mut n_authors = 1;
            while n_authors < 12 && rng.unit() < 1.0 - 1.0 / p.authors_per_paper.max(1.0) {
                n_authors += 1;
            }
            let mut authors: Vec<AuthorId> = Vec::with_capacity(n_authors);
            for _ in 0..n_authors {
                let a =
                    draw(&self.facts.author_cdf, &mut rng).expect("corpus has authors") as AuthorId;
                if !authors.contains(&a) {
                    authors.push(a);
                }
            }
            delta.add_paper_with_metadata(self.facts.current_year, authors, Some(venue));
            // Log-normal reference count with median `refs_mean`.
            let z = (-2.0 * rng.unit().max(1e-12).ln()).sqrt()
                * (2.0 * std::f64::consts::PI * rng.unit()).cos();
            let n_refs =
                ((p.refs_mean.ln() + p.refs_sigma * z).exp().round() as usize).min(p.max_refs);
            let mut refs: Vec<PaperId> = Vec::with_capacity(n_refs);
            for _ in 0..n_refs {
                // The generator's attempts: on-topic for the first eight
                // with the profile's affinity, then any topic; on
                // exhaustion the reference is dropped.
                for attempt in 0..12 {
                    let want_topic = attempt < 8 && rng.unit() < p.topic_affinity;
                    let Some(t) = self.target(&mut rng, end, &recency) else {
                        continue;
                    };
                    if refs.contains(&t) || (want_topic && self.topic(t) != topic) {
                        continue;
                    }
                    refs.push(t);
                    break;
                }
            }
            refs.sort_unstable();
            for r in refs {
                delta.add_citation(id, r);
            }
        }
        delta
    }
}
