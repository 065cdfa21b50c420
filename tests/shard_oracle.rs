//! Sharded ≡ unsharded oracle: the same scripted session against a
//! 4-shard [`lockfree_pagerank::shard::ShardRouter`] and against the
//! single-session server must agree —
//!
//! * **bit-for-bit** when the partition has no crossing edges (the
//!   correction overlay is `None` and every shard solves its subsystem
//!   exactly as the unsharded kernel would, at `threads = 1`), and
//! * within the documented exchange bound `n·PUSH_TOL / (1 − α)`
//!   (≈ 4e-14 at n = 64, α = 0.85) plus both kernels' τ when edges
//!   cross shards.
//!
//! Replies are compared through the typed protocol parser, not as raw
//! text: a sharded reply carries `epochs=a,b,c,d` where the unsharded
//! one carries `epoch=e`, so the transcript bytes differ by design
//! while the payloads must not.

use lockfree_pagerank::graph::generators::erdos_renyi;
use lockfree_pagerank::graph::selfloops::add_self_loops;
use lockfree_pagerank::graph::{DynGraph, GraphBuilder, Partition};
use lockfree_pagerank::protocol::{continuation_lines, parse_response, Response};
use lockfree_pagerank::serve::serve_connection;
use lockfree_pagerank::shard::{serve_shard_client, ShardRouter, ShardSpec};
use lockfree_pagerank::{Algorithm, BatchUpdate, PagerankOptions, UpdateSession};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;

const SHARDS: usize = 4;

fn opts() -> PagerankOptions {
    PagerankOptions::default().with_threads(1)
}

/// Four 16-vertex blocks, edges strictly inside each block — the block
/// partition at 4 shards has zero crossing edges.
fn block_local_graph() -> DynGraph {
    let mut edges = Vec::new();
    for b in 0u32..4 {
        let base = b * 16;
        for i in 0..16u32 {
            edges.push((base + i, base + (i + 1) % 16)); // block ring
            edges.push((base + i, base + (i * 5 + 3) % 16)); // block chords
        }
    }
    let mut g = GraphBuilder::new(64).edges(edges).build_dyn().unwrap();
    add_self_loops(&mut g);
    g
}

/// Reply blocks of a transcript, using the head-line framing rule.
fn blocks(out: &str) -> Vec<Response> {
    let mut lines = out.lines();
    let mut parsed = Vec::new();
    while let Some(head) = lines.next() {
        let mut block = head.to_string();
        for _ in 0..continuation_lines(head) {
            block.push('\n');
            block.push_str(lines.next().expect("truncated reply block"));
        }
        parsed.push(parse_response(&block).unwrap_or_else(|| panic!("unparsable reply: {block}")));
    }
    parsed
}

/// Run `script` against a fresh unsharded session over `g` and a fresh
/// `SHARDS`-shard router over the same graph; return both parsed
/// transcripts.
fn both_transcripts(g: &DynGraph, script: &str) -> (Vec<Response>, Vec<Response>) {
    let mut session = UpdateSession::new(g.clone(), Algorithm::DfLF, opts());
    session.enable_delta_tracking();
    let mut single = Vec::new();
    serve_connection(&mut session, script.as_bytes(), &mut single).unwrap();

    let router =
        ShardRouter::new(g.clone(), Algorithm::DfLF, opts(), ShardSpec::new(SHARDS)).unwrap();
    let mut sharded = Vec::new();
    serve_shard_client(&router, script.as_bytes(), &mut sharded).unwrap();
    router.shutdown();

    (
        blocks(&String::from_utf8(single).unwrap()),
        blocks(&String::from_utf8(sharded).unwrap()),
    )
}

/// The bit-identity script: every commit touches exactly ONE block, so
/// the global incremental solve and the owning shard's solve run the
/// same frontier sweeps and freeze at the same bits. (A commit spanning
/// blocks converges each region against a shared stopping gate in the
/// unsharded kernel — regions that converge early keep getting swept —
/// so multi-shard commits agree only to the τ neighbourhood; the
/// crossing-edge test below covers those.) `movers` is probed only
/// after the first commit: it merges each shard's *latest* deltas, so
/// once a second single-shard commit lands, the sharded reply would
/// also surface the previous shard's (older) movement by design.
fn script(n: u32) -> String {
    let mut s = String::new();
    for round in 0u32..3 {
        let base = round * 16; // round r edits block r only
        writeln!(s, "insert {} {}", base + round, base + (7 + round * 3) % 16).unwrap();
        writeln!(
            s,
            "insert {} {}",
            base + round + 2,
            base + (11 + round) % 16
        )
        .unwrap();
        writeln!(s, "delete {} {}", base, base + 1).unwrap();
        writeln!(s, "batch").unwrap();
        writeln!(s, "topk 8").unwrap();
        if round == 0 {
            writeln!(s, "movers 4").unwrap();
        }
    }
    writeln!(s, "batch").unwrap(); // empty commit: no shard advances
    for v in 0..n {
        writeln!(s, "rank {v}").unwrap();
    }
    writeln!(s, "stats").unwrap();
    writeln!(s, "quit").unwrap();
    s
}

/// The crossing-edge script: commits deliberately span shards.
fn crossing_script(n: u32) -> String {
    let mut s = String::new();
    for round in 0u32..3 {
        for b in 0u32..4 {
            let base = b * 16;
            writeln!(s, "insert {} {}", base + round, (base + 23 + round * 7) % n).unwrap();
        }
        writeln!(s, "batch").unwrap();
    }
    for v in 0..n {
        writeln!(s, "rank {v}").unwrap();
    }
    writeln!(s, "quit").unwrap();
    s
}

#[test]
fn sharded_is_bit_identical_without_crossing_edges() {
    let g = block_local_graph();
    assert_eq!(
        Partition::block(64, SHARDS).unwrap().crossing_edges(&g),
        vec![],
        "fixture must not cross the block partition"
    );
    let (single, sharded) = both_transcripts(&g, &script(64));
    assert_eq!(single.len(), sharded.len(), "transcripts must pair up");
    for (a, b) in single.iter().zip(&sharded) {
        match (a, b) {
            (Response::Rank { v, rank: ra, .. }, Response::Rank { v: w, rank: rb, .. }) => {
                assert_eq!(v, w);
                assert_eq!(
                    ra.to_bits(),
                    rb.to_bits(),
                    "rank {v}: {ra:e} vs {rb:e} must be bitwise equal"
                );
            }
            (Response::TopK { entries: ea, .. }, Response::TopK { entries: eb, .. }) => {
                assert_eq!(ea.len(), eb.len());
                for ((va, ra), (vb, rb)) in ea.iter().zip(eb) {
                    assert_eq!(va, vb, "topk order must match");
                    assert_eq!(ra.to_bits(), rb.to_bits());
                }
            }
            (Response::Movers { entries: ea, .. }, Response::Movers { entries: eb, .. }) => {
                let ka: Vec<_> = ea.iter().map(|m| (m.v, m.rank.to_bits())).collect();
                let kb: Vec<_> = eb.iter().map(|m| (m.v, m.rank.to_bits())).collect();
                assert_eq!(ka, kb, "movers must match bitwise");
            }
            (
                Response::BatchOk {
                    batch: ba,
                    m: ma,
                    status: sa,
                    ..
                },
                Response::BatchOk {
                    batch: bb,
                    m: mb,
                    status: sb,
                    ..
                },
            ) => {
                assert_eq!((ba, ma, sa), (bb, mb, sb));
            }
            (
                Response::Stats {
                    n: na,
                    m: ma,
                    staged: sa,
                    ..
                },
                Response::Stats {
                    n: nb,
                    m: mb,
                    staged: sb,
                    ..
                },
            ) => {
                assert_eq!((na, ma, sa), (nb, mb, sb));
            }
            (Response::Staged { count: a }, Response::Staged { count: b }) => assert_eq!(a, b),
            (Response::Error(a), Response::Error(b)) => assert_eq!(a, b),
            (Response::Bye, Response::Bye) => {}
            (a, b) => panic!("transcript shape diverged: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn sharded_stays_within_the_exchange_round_bound_with_crossing_edges() {
    // An Erdős–Rényi graph crosses the block partition heavily; the
    // router must land every rank within the documented exchange bound
    // of the single-session answer. The push's own L1 error is at most
    // n·PUSH_TOL/(1−α) ≈ 4e-14 here; 1e-8 leaves room for both
    // kernels' τ = 1e-10 solves.
    let mut g = erdos_renyi(64, 384, 11);
    add_self_loops(&mut g);
    assert!(
        !Partition::block(64, SHARDS)
            .unwrap()
            .crossing_edges(&g)
            .is_empty(),
        "fixture must cross the partition"
    );
    let (single, sharded) = both_transcripts(&g, &crossing_script(64));
    assert_eq!(single.len(), sharded.len());
    let mut ranks_checked = 0;
    for (a, b) in single.iter().zip(&sharded) {
        if let (Response::Rank { v, rank: ra, .. }, Response::Rank { rank: rb, .. }) = (a, b) {
            let diff = (ra - rb).abs();
            assert!(
                diff < 1e-8,
                "rank {v} drifted past the exchange bound: {ra:e} vs {rb:e} (diff {diff:e})"
            );
            ranks_checked += 1;
        }
    }
    assert_eq!(ranks_checked, 64, "every rank probe must be compared");
}

#[test]
fn sharded_smoke_fixture_is_byte_identical() {
    // The same script/expected pair CI drives through `lfpr serve
    // --gen 200 800 7 --threads 1 --shards 4`, pinned here so plain
    // `cargo test` catches wire drift without the CLI.
    let mut g = erdos_renyi(200, 800, 7);
    add_self_loops(&mut g);
    let router = ShardRouter::new(g, Algorithm::DfLF, opts(), ShardSpec::new(4)).unwrap();
    let script = std::fs::read_to_string("tests/data/serve_shard_smoke.in").unwrap();
    let mut out = Vec::new();
    serve_shard_client(&router, script.as_bytes(), &mut out).unwrap();
    router.shutdown();
    let expected = std::fs::read_to_string("tests/data/serve_shard_smoke.expected").unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        expected,
        "sharded smoke replies drifted from tests/data/serve_shard_smoke.expected"
    );
}

#[test]
fn router_boundary_vertex_sets_are_exact() {
    // 8 vertices, 2 shards (0–3 | 4–7). Crossing: 1→5 and 6→2, so the
    // boundary of shard 0 is exactly {1} and of shard 1 exactly {6}.
    let mut g = GraphBuilder::new(8)
        .edges(vec![(0, 1), (1, 5), (2, 3), (4, 7), (6, 2), (5, 4)])
        .build_dyn()
        .unwrap();
    add_self_loops(&mut g);
    let router = ShardRouter::new(g.clone(), Algorithm::DfLF, opts(), ShardSpec::new(2)).unwrap();
    let part = router.partition();
    assert_eq!(part.boundary_vertices(&g, 0), vec![1]);
    assert_eq!(part.boundary_vertices(&g, 1), vec![6]);
    assert_eq!(part.crossing_edges(&g), vec![(1, 5), (6, 2)]);
    // The boundary is what the exchange exports: with crossing edges
    // present a correction overlay must exist, and dropping the only
    // crossing sources' influence (deleting both edges) must clear it.
    let pin = router.pin();
    let total: f64 = (0..8).map(|v| pin.rank(v)).sum();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "corrected ranks must stay a distribution"
    );
    router.shutdown();
}

/// Deterministic xorshift64 stream for the randomized histories.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// A random edge `u→v` (no self-loop) that crosses the partition when
/// `cross` is set and stays inside `owner(u)` otherwise.
fn random_edge(rng: &mut Rng, part: &Partition, u: u32, cross: bool) -> (u32, u32) {
    loop {
        let v = rng.below(part.num_vertices()) as u32;
        if v != u && (part.owner(u) != part.owner(v)) == cross {
            return (u, v);
        }
    }
}

/// The exchange's stopping rule: every residual at most this.
const PUSH_TOL: f64 = 1e-16;

/// A cold exchange pass: the correction overlay for shard ranks `r_sh`
/// over `edges`, forward-pushed from zero until every residual is at
/// most `PUSH_TOL`.
fn cold_correction(part: &Partition, edges: &BTreeSet<(u32, u32)>, r_sh: &[f64]) -> Vec<f64> {
    let n = r_sh.len();
    let alpha = opts().alpha;
    let mut outs = vec![Vec::new(); n];
    for &(u, v) in edges {
        outs[u as usize].push(v as usize);
    }
    let mut res = vec![0.0; n];
    for (u, targets) in outs.iter().enumerate() {
        for &v in targets {
            if part.owner(u as u32) != part.owner(v as u32) {
                res[v] += alpha * r_sh[u] / targets.len() as f64;
            }
        }
    }
    let mut corr = vec![0.0; n];
    let mut queued = vec![true; n];
    let mut queue: VecDeque<usize> = (0..n).collect();
    while let Some(v) = queue.pop_front() {
        queued[v] = false;
        let r = std::mem::replace(&mut res[v], 0.0);
        corr[v] += r;
        for &x in &outs[v] {
            res[x] += alpha * r / outs[v].len() as f64;
            if !queued[x] && res[x].abs() > PUSH_TOL {
                queued[x] = true;
                queue.push_back(x);
            }
        }
    }
    corr
}

/// Run `commits` seeded random commits against a `shards`-way router
/// and an unsharded session over the same graph. The history mixes
/// crossing and local insertions and deletions (local ones at boundary
/// sources change the out-degree that crossing pushes divide by),
/// periodically deletes every crossing edge and re-adds some, and sends
/// batches that one shard rejects. After every commit the served
/// overlay, warm-started from the previous commit's, must match a cold
/// pass over the same pinned ranks, and the served ranks the unsharded
/// session.
fn warm_exchange_history(shards: usize, commits: usize, seed: u64) {
    const N: usize = 200;
    let part = Partition::block(N, shards).unwrap();
    let mut rng = Rng(seed);
    let mut edges = BTreeSet::new();
    for u in 0..N as u32 {
        edges.insert((u, u));
        for k in 0..4 {
            edges.insert(random_edge(&mut rng, &part, u, k == 0));
        }
    }
    let g = GraphBuilder::new(N)
        .edges(edges.iter().copied().collect::<Vec<_>>())
        .build_dyn()
        .unwrap();
    let router =
        ShardRouter::new(g.clone(), Algorithm::DfLF, opts(), ShardSpec::new(shards)).unwrap();
    let mut single = UpdateSession::new(g, Algorithm::DfLF, opts());
    let crosses = |&(u, v): &(u32, u32)| part.owner(u) != part.owner(v);
    // Each pass lies within n·PUSH_TOL/(1−α) of the exact overlay, so
    // two passes lie within twice that of each other. (Recovering the
    // shard ranks as `rank − correction` costs an ulp per vertex, two
    // orders of magnitude below the bound.)
    let bound = 2.0 * N as f64 * PUSH_TOL / (1.0 - opts().alpha);
    let (mut cleared, mut rejected) = (0, 0);
    for i in 0..commits {
        let mut batch = BatchUpdate::new();
        if i % 97 == 50 {
            batch.deletions = edges.iter().copied().filter(crosses).collect();
        } else {
            let mut touched = BTreeSet::new();
            for _ in 0..1 + rng.below(6) {
                let boundary: Vec<u32> = edges.iter().filter(|e| crosses(e)).map(|e| e.0).collect();
                let u = match rng.below(3) {
                    0 if !boundary.is_empty() => boundary[rng.below(boundary.len())],
                    _ => rng.below(N) as u32,
                };
                let cross = rng.below(2) == 0;
                let outs: Vec<(u32, u32)> = edges
                    .range((u, 0)..(u + 1, 0))
                    .copied()
                    .filter(|e| e.1 != u && crosses(e) == cross)
                    .collect();
                if rng.below(2) == 0 && !outs.is_empty() {
                    let e = outs[rng.below(outs.len())];
                    if touched.insert(e) {
                        batch.deletions.push(e);
                    }
                } else {
                    let e = random_edge(&mut rng, &part, u, cross);
                    if !edges.contains(&e) && touched.insert(e) {
                        batch.insertions.push(e);
                    }
                }
            }
        }
        // Every 37th batch also re-inserts an existing edge, so the shard
        // owning it rejects its sub-batch while the others land.
        let poison = (i % 37 == 36).then(|| {
            let deleted: BTreeSet<_> = batch.deletions.iter().copied().collect();
            let kept: Vec<_> = edges.difference(&deleted).copied().collect();
            kept[rng.below(kept.len())]
        });
        let mut landed = BatchUpdate::new();
        for (s, sub) in part.split_batch(&batch).into_iter().enumerate() {
            if poison.is_none_or(|(u, _)| part.owner(u) != s) {
                landed.insertions.extend(sub.insertions);
                landed.deletions.extend(sub.deletions);
            }
        }
        batch.insertions.extend(poison);
        match router.commit(batch) {
            Ok(_) => assert!(poison.is_none(), "commit {i}: poisoned batch accepted"),
            Err(_) => {
                assert!(poison.is_some(), "commit {i}: clean batch rejected");
                rejected += 1;
            }
        }
        for e in &landed.deletions {
            edges.remove(e);
        }
        edges.extend(landed.insertions.iter().copied());
        single.step(&landed).unwrap();

        let pin = router.pin();
        let warm: Vec<f64> = (0..N as u32).map(|v| pin.correction(v)).collect();
        if edges.iter().any(crosses) {
            let r_sh: Vec<f64> = (0..N as u32)
                .map(|v| pin.rank(v) - warm[v as usize])
                .collect();
            let cold = cold_correction(&part, &edges, &r_sh);
            let l1: f64 = warm.iter().zip(&cold).map(|(w, c)| (w - c).abs()).sum();
            assert!(
                l1 <= bound,
                "commit {i}: warm vs cold L1 {l1:e} > {bound:e}"
            );
        } else {
            // Nothing crosses: the overlay is dropped, not pushed to ~0.
            assert!(warm.iter().all(|&c| c == 0.0), "commit {i}: stale overlay");
            cleared += 1;
        }
        for v in 0..N as u32 {
            let diff = (pin.rank(v) - single.rank(v)).abs();
            assert!(diff < 1e-8, "commit {i}: rank {v} off by {diff:e}");
        }
    }
    assert!(cleared > 0 && rejected > 0, "history missed a case");
    router.shutdown();
}

#[test]
fn warm_started_exchange_matches_a_cold_pass_at_2_shards() {
    warm_exchange_history(2, 1000, 0x9e37_79b9_7f4a_7c15);
}

#[test]
fn warm_started_exchange_matches_a_cold_pass_at_4_shards() {
    warm_exchange_history(4, 1000, 0xd1b5_4a32_d192_ed03);
}
