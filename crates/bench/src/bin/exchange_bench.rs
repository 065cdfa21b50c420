//! Shard-exchange benchmark — commit cost of a two-shard router on road
//! grids of several sizes.
//!
//! The exchange that corrects crossing edges costs one O(n + m) seed
//! scan plus the pushes the residual needs. How far a commit's change
//! spreads before every residual is below the push threshold is set by
//! α and the threshold, not by n, so on a small grid it covers the whole
//! graph and on a large one it stays local. This bench measures both
//! regimes with the same commit stream shape as the served `sharded`
//! workload: 100-edge near-neighbour commits (half deletions of existing
//! roads, half insertions at most three grid steps apart) whose sources
//! alternate between the two blocks, every fifth insertion crossing the
//! block boundary.
//!
//! Per grid size it reports the median and p90 of `ShardRouter::commit`
//! (shard kernels + exchange) and the median exchange pushes
//! (`ShardCommit::rounds`). Kernels run at one thread with the server's
//! default options, so pushes repeat exactly between runs.
//!
//! Usage: `exchange_bench [--vertices n1,n2,..] [--commits k]
//!   [--warmup w] [--batch e] [--seed x] [--json path]`

use lfpr_core::{Algorithm, PagerankOptions};
use lfpr_graph::generators::grid_road;
use lfpr_graph::selfloops::add_self_loops;
use lfpr_graph::{BatchUpdate, DynGraph};
use lfpr_sched::{ChunkPolicy, ExecMode, Schedule};
use lockfree_pagerank::shard::{ShardRouter, ShardSpec};
use std::collections::HashSet;
use std::time::Instant;

struct Args {
    vertices: Vec<usize>,
    commits: usize,
    warmup: usize,
    batch: usize,
    seed: u64,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut a = Args {
        vertices: vec![20_000, 1_000_000],
        commits: 12,
        warmup: 2,
        batch: 100,
        seed: 1,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--vertices" => {
                a.vertices = val
                    .split(',')
                    .map(|v| v.trim().parse().expect("--vertices n1,n2,.."))
                    .collect()
            }
            "--commits" => a.commits = val.parse().expect("--commits k"),
            "--warmup" => a.warmup = val.parse().expect("--warmup w"),
            "--batch" => a.batch = val.parse().expect("--batch e"),
            "--seed" => a.seed = val.parse().expect("--seed x"),
            "--json" => a.json = Some(val),
            _ => panic!("unknown flag {flag}"),
        }
    }
    assert!(a.commits > 0, "--commits must be positive");
    a
}

/// splitmix64: a small seeded generator, enough to draw commits.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One near-neighbour commit drawn against `g` (see the module docs);
/// `split` is the first vertex of the second shard.
fn grid_commit(g: &DynGraph, rng: &mut Rng, cols: usize, size: usize, split: u32) -> BatchUpdate {
    let n = g.num_vertices() as u64;
    let mut batch = BatchUpdate::new();
    let mut seen = HashSet::new();
    let source = |rng: &mut Rng, i: usize| {
        if i % 2 == 0 {
            rng.below(split as u64) as u32
        } else {
            (split as u64 + rng.below(n - split as u64)) as u32
        }
    };
    while batch.deletions.len() < size / 2 {
        let u = source(rng, batch.deletions.len());
        let outs = g.out_neighbors(u);
        let v = outs[rng.below(outs.len() as u64) as usize];
        if u != v && seen.insert((u, v)) {
            batch.deletions.push((u, v));
        }
    }
    while batch.insertions.len() < size - size / 2 {
        let crossing = batch.insertions.len() % 5 == 4;
        let u = if crossing {
            let row = (split as usize / cols + rng.below(4) as usize).saturating_sub(2);
            (row * cols + rng.below(cols as u64) as usize).min(n as usize - 1) as u32
        } else {
            source(rng, batch.insertions.len())
        };
        let row = (u as usize / cols) as i64 + rng.below(7) as i64 - 3;
        let col = (u as usize % cols) as i64 + rng.below(7) as i64 - 3;
        let v = row * cols as i64 + col;
        if row < 0 || col < 0 || col >= cols as i64 || v >= n as i64 {
            continue;
        }
        let v = v as u32;
        if crossing && (u < split) == (v < split) {
            continue;
        }
        if u != v && !g.has_edge(u, v) && seen.insert((u, v)) {
            batch.insertions.push((u, v));
        }
    }
    batch
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let args = parse_args();
    // `ServeConfig::pagerank_options` at its defaults: one kernel
    // thread, τ = τf = 1e-10, fixed 2048-vertex chunks on the pool.
    let opts = PagerankOptions::default()
        .with_threads(1)
        .with_tolerance(1e-10)
        .with_frontier_tolerance(1e-10)
        .with_schedule(Schedule {
            policy: ChunkPolicy::Fixed(2048),
            executor: ExecMode::Pool,
        });
    let mut rows = Vec::new();
    println!("vertices  setup_s  commit_p50_s  commit_p90_s  pushes_p50");
    for &n in &args.vertices {
        let mut g = grid_road(n, args.seed);
        add_self_loops(&mut g);
        let cols = (n as f64).sqrt().round().max(1.0) as usize;
        let t = Instant::now();
        let router = ShardRouter::new(g.clone(), Algorithm::DfLF, opts.clone(), ShardSpec::new(2))
            .expect("router");
        let setup = t.elapsed().as_secs_f64();
        let split = router.partition().owned_range(1).start;
        let mut rng = Rng(args.seed ^ 0x5eed);
        let mut times = Vec::new();
        let mut pushes = Vec::new();
        for i in 0..args.warmup + args.commits {
            let batch = grid_commit(&g, &mut rng, cols, args.batch, split);
            g.apply_batch(&batch).expect("a valid commit");
            let t = Instant::now();
            let done = router.commit(batch).expect("every shard accepts");
            if i >= args.warmup {
                times.push(t.elapsed().as_secs_f64());
                pushes.push(done.rounds as f64);
            }
        }
        router.shutdown();
        times.sort_by(f64::total_cmp);
        pushes.sort_by(f64::total_cmp);
        let (p50, p90, pm) = (
            quantile(&times, 0.5),
            quantile(&times, 0.9),
            quantile(&pushes, 0.5),
        );
        println!("{n:>8}  {setup:>7.3}  {p50:>12.4}  {p90:>12.4}  {pm:>10.0}");
        rows.push(format!(
            "{{\"vertices\": {n}, \"setup_s\": {setup:.6}, \"commit_p50_s\": {p50:.6}, \"commit_p90_s\": {p90:.6}, \"pushes_p50\": {pm}}}"
        ));
    }
    if let Some(path) = &args.json {
        let body = format!(
            "{{\"bench\": \"exchange_bench\", \"runs\": [{}]}}\n",
            rows.join(", ")
        );
        std::fs::write(path, body).expect("cannot write --json");
    }
}
