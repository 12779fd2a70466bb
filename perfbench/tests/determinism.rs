//! The workload streams are pure functions of (corpus, seed): the same
//! seed gives byte-identical query and delta streams, another seed gives
//! different ones, and every generated input is valid for the engine.

use citegen::{generate, DatasetProfile};
use citegraph::CitationNetwork;
use perfbench::oracle;
use perfbench::workload::{
    panel_shapes, DashboardStream, DeltaStream, Facts, SearchStream, HELD_OUT_SEED,
};
use rankengine::{PageBuf, Query, QueryEngine, QueryScratch, RerankPolicy};

fn profile() -> DatasetProfile {
    DatasetProfile::dblp().scaled(4_000)
}

fn corpus() -> CitationNetwork {
    generate(&profile(), 7)
}

/// The first `n` search requests, as the bytes a client would send.
fn search_bytes(facts: &Facts, seed: u64, n: usize) -> Vec<u8> {
    SearchStream::new(facts, seed, 0)
        .take(n)
        .flat_map(|r| format!("{:?}|{}|{}\n", r.class, r.pages, r.text).into_bytes())
        .collect()
}

/// The first `n` delta batches, rendered field by field.
fn delta_bytes(facts: &Facts, seed: u64, n: usize) -> Vec<u8> {
    let stream = DeltaStream::new(facts, seed);
    (0..n)
        .flat_map(|b| format!("{:?}\n", stream.batch(b)).into_bytes())
        .collect()
}

fn dashboard_bytes(seed: u64, n: usize) -> Vec<u8> {
    DashboardStream::new(32, seed)
        .take(n)
        .flat_map(|b| format!("{b:?}\n").into_bytes())
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_streams() {
    let net = corpus();
    let facts = Facts::of(&net, &profile());
    for seed in [1, 2, HELD_OUT_SEED] {
        assert_eq!(
            search_bytes(&facts, seed, 500),
            search_bytes(&facts, seed, 500)
        );
        assert_eq!(delta_bytes(&facts, seed, 6), delta_bytes(&facts, seed, 6));
        assert_eq!(dashboard_bytes(seed, 50), dashboard_bytes(seed, 50));
    }
    // Facts extraction itself is deterministic.
    assert_eq!(
        format!("{:?}", Facts::of(&net, &profile())),
        format!("{:?}", Facts::of(&corpus(), &profile()))
    );
}

#[test]
fn another_seed_gives_different_streams() {
    let facts = Facts::of(&corpus(), &profile());
    for (a, b) in [(1, 2), (1, HELD_OUT_SEED)] {
        assert_ne!(search_bytes(&facts, a, 200), search_bytes(&facts, b, 200));
        assert_ne!(delta_bytes(&facts, a, 3), delta_bytes(&facts, b, 3));
        assert_ne!(dashboard_bytes(a, 20), dashboard_bytes(b, 20));
    }
    // The warm-up stream of a seed is not its measured stream.
    let warm: Vec<String> = SearchStream::new(&facts, 1, 1)
        .take(50)
        .map(|r| r.text)
        .collect();
    let measured: Vec<String> = SearchStream::new(&facts, 1, 0)
        .take(50)
        .map(|r| r.text)
        .collect();
    assert_ne!(warm, measured);
}

#[test]
fn every_generated_input_is_valid() {
    let net = corpus();
    let facts = Facts::of(&net, &profile());
    for r in SearchStream::new(&facts, 3, 0).take(1_000) {
        r.text.parse::<Query>().expect("search queries parse");
    }
    for shape in panel_shapes(&facts) {
        shape.parse::<Query>().expect("panel shapes parse");
    }
    assert_eq!(panel_shapes(&facts).len(), 32);
    let stream = DeltaStream::new(&facts, 3);
    let mut grown = net.clone();
    for b in 0..12 {
        let delta = stream.batch(b);
        assert_eq!(delta.n_papers(), stream.papers_per_batch());
        assert_eq!(grown.n_papers(), stream.first_id(b) as usize);
        grown = grown
            .with_delta(&delta)
            .expect("stream batches apply in order");
        oracle::check_batch(
            &grown,
            &vec![1.0; grown.n_papers()],
            &delta,
            stream.first_id(b),
        )
        .expect("applied batch reads back");
    }
}

#[test]
fn oracle_agrees_with_the_engine_on_the_search_mix() {
    let net = corpus();
    let facts = Facts::of(&net, &profile());
    let qe = QueryEngine::from_configs(net, &["attrank", "cc", "pagerank"], RerankPolicy::Manual)
        .expect("engines build");
    let mut scratch = QueryScratch::new();
    let mut out = PageBuf::new();
    let mut workspace = sparsela::KernelWorkspace::new();
    for r in SearchStream::new(&facts, 5, 0).take(120) {
        let mut q: Query = r.text.parse().expect("parses");
        let snap = qe.snapshot(q.method.as_deref()).expect("served method");
        for _page in 0..r.pages {
            qe.query_with_at(&snap, &q, &mut scratch, &mut out)
                .expect("stream queries serve");
            let net = snap.network();
            if q.seeds.is_empty() {
                let order = oracle::full_order(snap.scores().as_slice());
                oracle::check_page(
                    net,
                    snap.scores().as_slice(),
                    &order,
                    &q,
                    out.items(),
                    out.matched(),
                )
                .expect("page equals the reference");
            } else {
                let alpha = qe
                    .engine(q.method.as_deref())
                    .expect("served")
                    .method()
                    .parse::<rankengine::MethodSpec>()
                    .expect("canonical spec parses")
                    .damping()
                    .expect("seeded methods damp");
                oracle::check_seeded_page(
                    net,
                    alpha,
                    &q,
                    out.items(),
                    out.matched(),
                    &mut workspace,
                )
                .expect("seeded page within tolerance of the dense solve");
            }
            match out.next() {
                Some(c) => q.cursor = Some(c),
                None => break,
            }
        }
    }
}

#[test]
fn oracle_catches_a_wrong_page() {
    let net = corpus();
    let facts = Facts::of(&net, &profile());
    let qe = QueryEngine::from_configs(net, &["cc"], RerankPolicy::Manual).expect("engine builds");
    let snap = qe.snapshot(None).expect("default method");
    let q: Query = format!("venue={},k=10", facts.venues_by_size[0])
        .parse()
        .expect("parses");
    let page = qe.query_at(&snap, &q).expect("serves");
    let order = oracle::full_order(snap.scores().as_slice());
    let scores = snap.scores().as_slice();
    oracle::check_page(
        snap.network(),
        scores,
        &order,
        &q,
        &page.items,
        page.matched,
    )
    .expect("the served page is right");
    let mut swapped = page.items.clone();
    swapped.swap(0, 1);
    assert!(
        oracle::check_page(snap.network(), scores, &order, &q, &swapped, page.matched).is_err()
    );
    assert!(oracle::check_page(
        snap.network(),
        scores,
        &order,
        &q,
        &page.items,
        page.matched + 1
    )
    .is_err());
}

#[test]
fn delta_batches_follow_the_corpus_profile() {
    let net = corpus();
    let p = profile();
    let facts = Facts::of(&net, &p);
    let stream = DeltaStream::new(&facts, 9);
    let venues = net.venues().expect("venues");
    let (mut papers, mut authors, mut on_topic, mut to_base) = (0, 0, 0, 0);
    let mut refs_per_paper = Vec::new();
    for b in 0..400 {
        let delta = stream.batch(b);
        let first = stream.first_id(b);
        for (j, paper_authors) in delta.authors.iter().enumerate() {
            let id = first + j as u32;
            papers += 1;
            authors += paper_authors.len();
            let topic =
                delta.venues[j].expect("new papers have a venue") as usize / p.venues_per_topic;
            let refs: Vec<u32> = delta
                .citations
                .iter()
                .filter(|&&(citing, _)| citing == id)
                .map(|&(_, cited)| cited)
                .collect();
            refs_per_paper.push(refs.len());
            for cited in refs.into_iter().filter(|&c| (c as usize) < net.n_papers()) {
                to_base += 1;
                let v = venues.venue_of(cited).expect("corpus papers have a venue");
                on_topic += usize::from(v as usize / p.venues_per_topic == topic);
            }
        }
    }
    refs_per_paper.sort_unstable();
    let mean_authors = authors as f64 / papers as f64;
    let median_refs = refs_per_paper[refs_per_paper.len() / 2] as f64;
    let topic_share = on_topic as f64 / to_base as f64;
    assert!(
        (0.75..=1.1).contains(&(mean_authors / p.authors_per_paper)),
        "mean authors {mean_authors} vs profile {}",
        p.authors_per_paper
    );
    assert!(
        (0.75..=1.25).contains(&(median_refs / p.refs_mean)),
        "median references {median_refs} vs profile {}",
        p.refs_mean
    );
    // The generator's topic constraint is soft (each attempt applies it
    // with the affinity's probability), so compare with the on-topic
    // share of the corpus's own current-year papers.
    let topic_of = |q: u32| venues.venue_of(q).expect("venue") as usize / p.venues_per_topic;
    let current = facts.year_starts[facts.year_starts.len() - 2];
    let (mut corpus_on, mut corpus_refs) = (0, 0);
    for citing in current..net.n_papers() as u32 {
        for &cited in net.references(citing) {
            corpus_refs += 1;
            corpus_on += usize::from(topic_of(cited) == topic_of(citing));
        }
    }
    let corpus_share = corpus_on as f64 / corpus_refs as f64;
    assert!(
        (topic_share - corpus_share).abs() < 0.1,
        "on-topic share {topic_share} vs the corpus's {corpus_share}"
    );
}
