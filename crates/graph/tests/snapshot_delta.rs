//! Property tests for the incremental delta-snapshot path.
//!
//! The invariant that makes the whole update pipeline trustworthy:
//! `Snapshot::apply_batch` (copy-on-write page rebuilds) is
//! **extensionally identical** to the full rebuild
//! (`DynGraph::apply_batch` + `snapshot()`), for any valid batch over any
//! graph — both adjacency directions and the out-degrees compare equal
//! (`Snapshot: PartialEq`). The same holds transitively for `DynGraph`'s
//! coherent cached snapshot across arbitrary batch sequences, and every
//! older snapshot a reader still holds keeps describing its own epoch.

use lfpr_graph::snapshot::PAGE_SIZE;
use lfpr_graph::{BatchSpec, BatchUpdate, DynGraph, Snapshot, VertexId};
use proptest::prelude::*;
use std::sync::Arc;

/// Build a valid graph from arbitrary drawn data: ids clamped into
/// `0..n`, duplicates removed by `from_edges`.
fn graph_from(n: usize, raw: &[(u32, u32)]) -> DynGraph {
    let edges: Vec<(u32, u32)> = raw
        .iter()
        .map(|&(u, v)| (u % n as u32, v % n as u32))
        .collect();
    DynGraph::from_edges(n, edges).expect("clamped ids are in range")
}

proptest! {
    /// Incremental patch ≡ full rebuild for a random generated batch
    /// over a random graph.
    #[test]
    fn apply_batch_equals_full_rebuild(
        n in 2usize..80,
        raw in proptest::collection::vec((0u32..100, 0u32..100), 0..300),
        fraction in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let mut g = graph_from(n, &raw);
        let prev = g.snapshot();
        let batch = BatchSpec::mixed(fraction, seed).generate(&g);
        let incremental = prev.apply_batch(&batch).expect("generated batch is valid");
        g.apply_batch(&batch).expect("generated batch is valid");
        prop_assert_eq!(&incremental, &g.snapshot());
        // Degrees patched, not recomputed — spot-check against the graph.
        for v in 0..n as u32 {
            prop_assert_eq!(incremental.out_degree(v) as usize, g.out_degree(v));
        }
    }

    /// A chain of batches keeps the graph's coherent cached snapshot
    /// equal to a from-scratch rebuild at every step, with the previous
    /// snapshot held across each batch and released after it.
    #[test]
    fn cached_snapshot_coherent_across_batch_chains(
        n in 2usize..60,
        raw in proptest::collection::vec((0u32..80, 0u32..80), 0..200),
        seeds in proptest::collection::vec(0u64..1000, 1..6),
    ) {
        let mut g = graph_from(n, &raw);
        let mut retired = Some(g.snapshot_shared());
        for seed in seeds {
            let batch = BatchSpec::mixed(0.1, seed).generate(&g);
            g.apply_batch(&batch).expect("generated batch is valid");
            drop(retired.take());
            let shared = g.snapshot_shared();
            prop_assert_eq!(shared.as_ref(), &g.snapshot());
            retired = Some(shared);
        }
    }

    /// Copy-on-write persistence: over graphs of at least three pages
    /// (the last one partial), a chain of batches that edit the runs of
    /// vertices `PAGE_SIZE − 1`, `PAGE_SIZE` and `n − 1` and
    /// delete-then-reinsert one edge leaves every retained snapshot equal
    /// to the full rebuild of its own epoch, and the newest equal to the
    /// graph's.
    #[test]
    fn retained_snapshots_survive_later_batches(
        full_pages in 2usize..4,
        extra in 1usize..PAGE_SIZE,
        raw in proptest::collection::vec((0u32..4096, 0u32..4096), 0..1500),
        seeds in proptest::collection::vec(0u64..1000, 1..6),
    ) {
        let n = full_pages * PAGE_SIZE + extra;
        let mut g = graph_from(n, &raw);
        let adjacency = |g: &DynGraph| -> Vec<Vec<VertexId>> {
            (0..n as VertexId).map(|u| g.out_neighbors(u).to_vec()).collect()
        };
        let mut retained = vec![(g.snapshot_shared(), adjacency(&g))];
        for seed in seeds {
            let batch = boundary_batch(&g, seed);
            g.apply_batch(&batch).expect("boundary batch is valid");
            retained.push((g.snapshot_shared(), adjacency(&g)));
        }
        for (epoch, (snapshot, adj)) in retained.iter().enumerate() {
            prop_assert_eq!(snapshot.as_ref(), &Snapshot::from_adjacency(adj), "epoch {}", epoch);
        }
        let newest = &retained.last().expect("epoch 0 is retained").0;
        prop_assert_eq!(newest.as_ref(), &g.snapshot());
        prop_assert!(Arc::ptr_eq(newest, &g.snapshot_shared()));
    }

    /// Delete-then-reinsert of the same edge inside one batch nets to
    /// "present" on both paths.
    #[test]
    fn delete_reinsert_roundtrip(
        n in 2usize..40,
        raw in proptest::collection::vec((0u32..50, 0u32..50), 1..120),
    ) {
        let mut g = graph_from(n, &raw);
        if g.num_edges() > 0 {
            let (u, v) = g.edges().next().unwrap();
            let prev = g.snapshot();
            let batch = BatchUpdate {
                deletions: vec![(u, v)],
                insertions: vec![(u, v)],
            };
            let incremental = prev.apply_batch(&batch).expect("net no-op batch is valid");
            prop_assert_eq!(&incremental, &prev);
            g.apply_batch(&batch).expect("net no-op batch is valid");
            prop_assert_eq!(incremental, g.snapshot());
        }
    }

    /// Invalid batches are rejected without corrupting either path:
    /// `Snapshot::apply_batch` errors and `DynGraph::apply_batch` stays
    /// all-or-nothing.
    #[test]
    fn invalid_batches_rejected_consistently(
        n in 2usize..40,
        raw in proptest::collection::vec((0u32..50, 0u32..50), 0..120),
        u in 0u32..50,
        v in 0u32..50,
    ) {
        let mut g = graph_from(n, &raw);
        let (u, v) = (u % n as u32, v % n as u32);
        let prev = g.snapshot();
        let before = g.clone();
        let bad = if g.has_edge(u, v) {
            BatchUpdate::insert_only(vec![(u, v)])
        } else {
            BatchUpdate::delete_only(vec![(u, v)])
        };
        prop_assert!(prev.apply_batch(&bad).is_err());
        prop_assert!(g.apply_batch(&bad).is_err());
        prop_assert_eq!(g, before);
    }
}

/// A valid batch over `g` that mixes a generated batch with edits to
/// the runs of the page-boundary vertices `PAGE_SIZE − 1`, `PAGE_SIZE`
/// and `n − 1` (an out-run and an in-run each) and a delete-then-reinsert
/// of one existing edge.
fn boundary_batch(g: &DynGraph, seed: u64) -> BatchUpdate {
    let mut b = BatchSpec::mixed(0.02, seed).generate(g);
    let n = g.num_vertices() as VertexId;
    let p = PAGE_SIZE as VertexId;
    let s = seed as VertexId;
    let free = |b: &BatchUpdate, e: &(VertexId, VertexId)| {
        !b.deletions.contains(e) && !b.insertions.contains(e)
    };
    for x in [p - 1, p, n - 1] {
        for e in [(x, (x + s) % n), ((x.wrapping_mul(7) + s) % n, x)] {
            if !free(&b, &e) {
                continue;
            }
            if g.has_edge(e.0, e.1) {
                b.deletions.push(e);
            } else {
                b.insertions.push(e);
            }
        }
    }
    let edges: Vec<_> = g.edges().collect();
    if !edges.is_empty() {
        let at = seed as usize % edges.len();
        if let Some(&e) = edges[at..].iter().chain(&edges[..at]).find(|e| free(&b, e)) {
            b.deletions.push(e);
            b.insertions.push(e);
        }
    }
    b
}

#[test]
fn snapshot_apply_batch_handles_boundary_vertices() {
    // First and last vertices touched: exercises a page rebuild's
    // prefix, gap, and tail copies.
    let g = DynGraph::from_edges(5, vec![(0, 4), (4, 0), (2, 2)]).unwrap();
    let prev = g.snapshot();
    let batch = BatchUpdate {
        deletions: vec![(0, 4), (4, 0)],
        insertions: vec![(0, 1), (4, 3), (4, 2)],
    };
    let next = prev.apply_batch(&batch).unwrap();
    let mut g2 = g.clone();
    g2.apply_batch(&batch).unwrap();
    assert_eq!(next, g2.snapshot());
    assert_eq!(next.out(4), &[2, 3]);
    assert_eq!(next.in_(0), &[] as &[u32]);
}

#[test]
fn empty_graph_and_empty_batch() {
    let g = DynGraph::new(3);
    let prev = g.snapshot();
    let next = prev.apply_batch(&BatchUpdate::new()).unwrap();
    assert_eq!(next, prev);
    let empty = Snapshot::from_edges(0, &[]);
    assert_eq!(empty.apply_batch(&BatchUpdate::new()).unwrap(), empty);
}
