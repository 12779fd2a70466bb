//! Naive reference answers the served pages are checked against.
//!
//! The oracle follows the definitions, not the planner: sort every paper
//! by score (descending, ties by ascending id, NaN last), keep the ones
//! the query's facets admit, skip past the cursor, truncate to `k`.
//! Seeded pages are checked against a dense power-iteration solve of the
//! personalized system, within the push solver's tolerance.

use std::cmp::Ordering;

use citegraph::{dense_personalized, CitationNetwork, GraphDelta, PaperId, SeedPersonalization};
use rankengine::{Hit, Query};
use sparsela::KernelWorkspace;

/// Largest per-paper deviation allowed between a push-served seeded
/// score and the dense solve (both solvers stop at an L1 residual of
/// 1e-12, so this leaves ample room while catching real errors).
pub const SEEDED_TOLERANCE: f64 = 1e-9;

/// The total order of a ranking: descending score, ties by ascending
/// id, NaN last.
fn rank_cmp(scores: &[f64], a: PaperId, b: PaperId) -> Ordering {
    let (x, y) = (scores[a as usize], scores[b as usize]);
    match (x.is_nan(), y.is_nan()) {
        (true, true) => a.cmp(&b),
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => y.total_cmp(&x).then(a.cmp(&b)),
    }
}

/// Every paper id, fully sorted into ranking order.
pub fn full_order(scores: &[f64]) -> Vec<PaperId> {
    let mut ids: Vec<PaperId> = (0..scores.len() as PaperId).collect();
    ids.sort_by(|&a, &b| rank_cmp(scores, a, b));
    ids
}

/// Whether the query's year, venue and author facets admit paper `id`.
pub fn admits(net: &CitationNetwork, q: &Query, id: PaperId) -> bool {
    let year = net.year(id);
    q.year_min.is_none_or(|lo| year >= lo)
        && q.year_max.is_none_or(|hi| year <= hi)
        && (q.venues.is_empty()
            || net
                .venues()
                .and_then(|t| t.venue_of(id))
                .is_some_and(|v| q.venues.contains(&v)))
        && (q.authors.is_empty()
            || net
                .authors()
                .is_some_and(|t| t.authors_of(id).iter().any(|a| q.authors.contains(a))))
}

/// The reference page of `q` over a full ranking order: the admitted
/// ids strictly after the cursor's last id (if any), truncated to `k`,
/// and the number of admitted ids from there on (the page's `matched`).
pub fn expected_page(
    net: &CitationNetwork,
    order: &[PaperId],
    q: &Query,
) -> Result<(Vec<PaperId>, usize), String> {
    let admitted: Vec<PaperId> = order
        .iter()
        .copied()
        .filter(|&id| admits(net, q, id))
        .collect();
    let from = match &q.cursor {
        None => 0,
        Some(c) => {
            1 + admitted
                .iter()
                .position(|&id| id == c.last_id())
                .ok_or_else(|| format!("cursor id {} is not admitted", c.last_id()))?
        }
    };
    let rest = &admitted[from..];
    Ok((rest.iter().take(q.k).copied().collect(), rest.len()))
}

/// Checks a served unseeded page against the reference computed on the
/// snapshot that served it (`scores`, `order` and `net` all from it).
pub fn check_page(
    net: &CitationNetwork,
    scores: &[f64],
    order: &[PaperId],
    q: &Query,
    items: &[Hit],
    matched: usize,
) -> Result<(), String> {
    let (want, want_matched) = expected_page(net, order, q)?;
    let got: Vec<PaperId> = items.iter().map(|h| h.id).collect();
    if got != want {
        return Err(format!("{q}: ids {got:?}, reference {want:?}"));
    }
    if matched != want_matched {
        return Err(format!("{q}: matched {matched}, reference {want_matched}"));
    }
    check_hit_fields(net, q, items)?;
    match items
        .iter()
        .find(|h| h.score.to_bits() != scores[h.id as usize].to_bits())
    {
        Some(h) => Err(format!(
            "{q}: paper {} score differs from the snapshot",
            h.id
        )),
        None => Ok(()),
    }
}

/// Year and venue of every hit must be the paper's own.
fn check_hit_fields(net: &CitationNetwork, q: &Query, items: &[Hit]) -> Result<(), String> {
    for h in items {
        let venue = net.venues().and_then(|t| t.venue_of(h.id));
        if h.year != net.year(h.id) || h.venue != venue {
            return Err(format!("{q}: paper {} carries wrong metadata", h.id));
        }
    }
    Ok(())
}

/// Checks a served seeded page against a dense solve on the snapshot
/// network that served it: every hit's score within
/// [`SEEDED_TOLERANCE`] of the dense score, no admitted paper the page
/// left out scoring clearly above the page's lowest hit, and `matched`
/// equal to the admitted count.
pub fn check_seeded_page(
    net: &CitationNetwork,
    alpha: f64,
    q: &Query,
    items: &[Hit],
    matched: usize,
    workspace: &mut KernelWorkspace,
) -> Result<(), String> {
    let seed = SeedPersonalization::uniform(&q.seeds, net.n_papers())
        .map_err(|e| format!("{q}: seed set rejected by the oracle: {e}"))?;
    let dense = dense_personalized(net, &seed, alpha, workspace);
    let dense = dense.as_slice();
    check_hit_fields(net, q, items)?;
    for h in items {
        let err = (h.score - dense[h.id as usize]).abs();
        if err.is_nan() || err > SEEDED_TOLERANCE {
            return Err(format!(
                "{q}: paper {} seeded score off the dense solve by {err:e}",
                h.id
            ));
        }
    }
    let (want, want_matched) = expected_page(net, &full_order(dense), q)?;
    if matched != want_matched {
        return Err(format!("{q}: matched {matched}, reference {want_matched}"));
    }
    if items.len() != want.len() {
        return Err(format!(
            "{q}: {} hits, reference {}",
            items.len(),
            want.len()
        ));
    }
    let floor = items
        .iter()
        .map(|h| dense[h.id as usize])
        .fold(f64::INFINITY, f64::min);
    if let Some(&missed) = want.iter().find(|&&id| {
        !items.iter().any(|h| h.id == id) && dense[id as usize] > floor + 2.0 * SEEDED_TOLERANCE
    }) {
        return Err(format!(
            "{q}: paper {missed} outranks the page's lowest hit but is missing"
        ));
    }
    Ok(())
}

/// Checks that every paper of `delta` (ids from `first_id`) is served by
/// a snapshot with network `net` and scores `scores`: present, with a
/// finite score, its year, venue, authors and reference list intact.
pub fn check_batch(
    net: &CitationNetwork,
    scores: &[f64],
    delta: &GraphDelta,
    first_id: PaperId,
) -> Result<(), String> {
    let end = first_id as usize + delta.n_papers();
    if net.n_papers() < end || scores.len() < end {
        return Err(format!(
            "papers {first_id}..{end} not visible (snapshot has {})",
            net.n_papers()
        ));
    }
    for (j, &year) in delta.papers.iter().enumerate() {
        let id = first_id + j as PaperId;
        let mut want_refs: Vec<PaperId> = delta
            .citations
            .iter()
            .filter(|&&(citing, _)| citing == id)
            .map(|&(_, cited)| cited)
            .collect();
        want_refs.sort_unstable();
        want_refs.dedup();
        let mut refs = net.references(id).to_vec();
        refs.sort_unstable();
        let mut authors: Vec<u32> = net
            .authors()
            .map(|t| t.authors_of(id).to_vec())
            .unwrap_or_default();
        authors.sort_unstable();
        let mut want_authors = delta.authors.get(j).cloned().unwrap_or_default();
        want_authors.sort_unstable();
        want_authors.dedup();
        let venue = net.venues().and_then(|t| t.venue_of(id));
        let want_venue = delta.venues.get(j).copied().flatten();
        if net.year(id) != year
            || venue != want_venue
            || authors != want_authors
            || refs != want_refs
            || !scores[id as usize].is_finite()
        {
            return Err(format!("paper {id} is served with wrong data"));
        }
    }
    Ok(())
}
