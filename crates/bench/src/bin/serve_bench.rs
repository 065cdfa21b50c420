//! Serving benchmark — read throughput and latency of the concurrent
//! TCP server, with and without a racing batch writer.
//!
//! The point of the concurrent serving layer (ISSUE 5) is that
//! read-only queries proceed while a batch commits instead of stalling
//! behind it. This bench quantifies exactly that on one in-process
//! server:
//!
//! 1. **idle phase** — reader clients hammer `rank <v>` over TCP with
//!    no writer; per-request latency gives the baseline p50/p99.
//! 2. **concurrent phase** — the same readers keep hammering while one
//!    writer client replays a precomputed batch sequence (staged
//!    `insert`/`delete` lines + `batch`, measured from the `batch` send
//!    to its `ok` reply).
//!
//! 3. **notify phase** — a subscriber holds `eps = 0` subscriptions on
//!    a vertex block and tight-polls while the writer commits more
//!    batches; per-commit notify latency is the gap between the
//!    writer's `ok` and the first `poll` whose push block reports that
//!    epoch.
//!
//! Headline: `commit_to_read_ratio = mean batch-commit latency /
//! concurrent read p99`. With the seed's one-connection-at-a-time
//! server this ratio is ≤ 1 by construction (a read issued during a
//! commit waits the whole commit out); the epoch-published read path
//! must keep p99 well below one commit — `--require x` makes the floor
//! fatal for CI. The analogous `commit_to_notify_ratio` (mean notify
//! commit / notify p99) gets its own `--require-notify x` floor:
//! subscription delivery must also stay cheap relative to a commit.
//!
//! The batch sequence is generated against a local replica graph, so
//! the bench never has to guess which edges exist; after the run the
//! server's final epoch and edge count are checked against the replica.
//!
//! 4. **connection sweep** — the same server holds a growing crowd of
//!    mostly-idle connections (`--connections 4,64,256,1024`) while a
//!    fixed set of active readers keeps hammering; read p99 at the
//!    largest crowd over p99 at the smallest is the `idle_p99_factor`.
//!    The event-loop engine serves every crowd size with the same
//!    `--workers` threads, so the factor must stay small —
//!    `--require-idle-factor x` makes it a CI floor.
//!
//! 5. **coalescing A/B** — a fresh pair of servers (writer-side commit
//!    coalescing on, then off) each absorb the same multi-client commit
//!    storm of pipelined small batches; `coalesce_throughput_ratio` =
//!    commits/s with merging over commits/s without. Coalescing
//!    amortizes per-commit fixed costs (the snapshot page-table copy,
//!    the view publication, the WAL fsync when durable) across queued
//!    commits, so the storm runs in the regime where those dominate:
//!    `--storm-batch 10`-edge commits on a `--storm-vertices 400000`
//!    graph (each 0 = inherit the main phases' value). Large batches
//!    are refresh-bound — per-edge work is additive across a merge —
//!    and would measure the kernel, not the server.
//!    `--require-coalesce x` floors the ratio.
//!
//! 6. **shard scaling** — a fixed fleet of four writer threads, each
//!    committing durable batches against its own quarter of a
//!    block-local graph, replays the same edge stream against a
//!    [`lockfree_pagerank::shard::ShardRouter`] at `--shards 1,2,4`
//!    with `fsync = always`. At one shard the four clients serialize
//!    their fsyncs through the single writer; at four shards each
//!    client owns a writer (and its own WAL), so the fsyncs overlap —
//!    which is why the stream must stay fsync-dominated: the graph is
//!    block-local (zero crossing edges, so the exchange pass is a
//!    no-op) and the batches are small. `shard_scale_ratio` =
//!    commits/s at the largest shard count over commits/s at one
//!    shard; `--require-shard-scale x` floors it for CI. This holds on
//!    a 1-core box because the win is overlapped *IO waits*, not CPU.
//!
//! Usage: `serve_bench [--vertices n] [--batch k] [--batches b]
//!   [--clients c] [--workers w] [--reads r] [--threads t] [--seed x]
//!   [--topology grid|kmer|er] [--notify-batches nb]
//!   [--connections list] [--storm-clients c] [--storm-commits k]
//!   [--storm-batch e] [--storm-vertices n] [--shards list]
//!   [--shard-commits k] [--shard-batch e] [--json path] [--require x]
//!   [--require-notify x] [--require-idle-factor x]
//!   [--require-coalesce x] [--require-shard-scale x]`

use lfpr_bench::client::{field, Client};
use lfpr_core::{Algorithm, PagerankOptions, UpdateSession};
use lfpr_graph::generators::{erdos_renyi, grid_road, kmer_chain};
use lfpr_graph::selfloops::add_self_loops;
use lfpr_graph::BatchSpec;
use lockfree_pagerank::server;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

struct Args {
    vertices: usize,
    topology: String,
    batch: usize,
    batches: usize,
    clients: usize,
    workers: usize,
    reads: usize,
    threads: usize,
    seed: u64,
    tolerance: f64,
    notify_batches: usize,
    connections: Vec<usize>,
    storm_clients: usize,
    storm_commits: usize,
    storm_batch: usize,
    storm_vertices: usize,
    shards: Vec<usize>,
    shard_commits: usize,
    shard_batch: usize,
    json_path: Option<String>,
    require: Option<f64>,
    require_notify: Option<f64>,
    require_idle_factor: Option<f64>,
    require_coalesce: Option<f64>,
    require_shard_scale: Option<f64>,
}

fn parse_args() -> Args {
    let mut a = Args {
        vertices: 100_000,
        topology: "grid".to_string(),
        batch: 1_000,
        batches: 12,
        clients: 2,
        workers: 0, // 0 = clients + 1
        reads: 400,
        threads: 1,
        seed: 42,
        tolerance: 1e-7,
        notify_batches: 6,
        connections: vec![4, 64, 256, 1024],
        storm_clients: 4,
        storm_commits: 50,
        // Coalescing amortizes the per-commit fixed costs — the
        // snapshot page-table copy and the O(n) view publication — across queued
        // commits, so the storm measures the regime where those costs
        // exist: many small concurrent commits on a large graph. Big
        // batches are refresh-bound (per-edge work is additive across a
        // merge) and would measure the kernel, not the server. 0 = use
        // the main phases' |Δ| / vertex count instead.
        storm_batch: 10,
        storm_vertices: 400_000,
        // Shard scaling measures overlapped fsync waits, so the graph
        // is deliberately tiny (kernel cost ≈ 0) and the batches small
        // — at 4 writer clients × 100 commits × 4 edges the phase is a
        // pure stream of WAL appends.
        shards: vec![1, 2, 4],
        shard_commits: 100,
        shard_batch: 4,
        json_path: None,
        require: None,
        require_notify: None,
        require_idle_factor: None,
        require_coalesce: None,
        require_shard_scale: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let val = argv.get(i + 1).cloned().unwrap_or_default();
        match argv[i].as_str() {
            "--vertices" => a.vertices = val.parse().expect("--vertices n"),
            "--topology" => a.topology = val.clone(),
            "--batch" => a.batch = val.parse().expect("--batch k"),
            "--batches" => a.batches = val.parse().expect("--batches b"),
            "--clients" => a.clients = val.parse().expect("--clients c"),
            "--workers" => a.workers = val.parse().expect("--workers w"),
            "--reads" => a.reads = val.parse().expect("--reads r"),
            "--threads" => a.threads = val.parse().expect("--threads t"),
            "--seed" => a.seed = val.parse().expect("--seed x"),
            "--tolerance" => a.tolerance = val.parse().expect("--tolerance t"),
            "--notify-batches" => a.notify_batches = val.parse().expect("--notify-batches nb"),
            "--connections" => {
                a.connections = val
                    .split(',')
                    .map(|c| c.trim().parse().expect("--connections c1,c2,..."))
                    .collect();
                assert!(
                    !a.connections.is_empty(),
                    "--connections needs at least one size"
                );
            }
            "--storm-clients" => a.storm_clients = val.parse().expect("--storm-clients c"),
            "--storm-commits" => a.storm_commits = val.parse().expect("--storm-commits k"),
            "--storm-batch" => a.storm_batch = val.parse().expect("--storm-batch e"),
            "--storm-vertices" => a.storm_vertices = val.parse().expect("--storm-vertices n"),
            "--shards" => {
                a.shards = val
                    .split(',')
                    .map(|c| c.trim().parse().expect("--shards s1,s2,..."))
                    .collect();
                assert!(!a.shards.is_empty(), "--shards needs at least one count");
            }
            "--shard-commits" => a.shard_commits = val.parse().expect("--shard-commits k"),
            "--shard-batch" => a.shard_batch = val.parse().expect("--shard-batch e"),
            "--json" => a.json_path = Some(val.clone()),
            "--require" => a.require = Some(val.parse().expect("--require x")),
            "--require-notify" => a.require_notify = Some(val.parse().expect("--require-notify x")),
            "--require-idle-factor" => {
                a.require_idle_factor = Some(val.parse().expect("--require-idle-factor x"))
            }
            "--require-coalesce" => {
                a.require_coalesce = Some(val.parse().expect("--require-coalesce x"))
            }
            "--require-shard-scale" => {
                a.require_shard_scale = Some(val.parse().expect("--require-shard-scale x"))
            }
            other => panic!("unknown argument: {other}"),
        }
        i += 2;
    }
    a
}

/// Latency percentiles over a sorted sample set.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Phase {
    reads: usize,
    wall_s: f64,
    p50_s: f64,
    p99_s: f64,
    max_s: f64,
}

fn summarize(all: Vec<Vec<f64>>, wall_s: f64) -> Phase {
    let mut lat: Vec<f64> = all.into_iter().flatten().collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Phase {
        reads: lat.len(),
        wall_s,
        p50_s: percentile(&lat, 0.50),
        p99_s: percentile(&lat, 0.99),
        max_s: lat.last().copied().unwrap_or(0.0),
    }
}

/// Run `clients` reader threads, each timing `rank <v>` round trips
/// until it has done `reads` requests *and* `stop` (if any) is set.
fn read_phase(
    addr: SocketAddr,
    clients: usize,
    reads: usize,
    n: usize,
    stop: Option<&AtomicBool>,
) -> Phase {
    let t0 = Instant::now();
    let lat: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut lat = Vec::with_capacity(reads);
                    let mut i = 0usize;
                    loop {
                        let done_quota = lat.len() >= reads;
                        match stop {
                            // Keep reading until the writer finishes, so
                            // commits always race live readers.
                            Some(flag) => {
                                if done_quota && flag.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                            None => {
                                if done_quota {
                                    break;
                                }
                            }
                        }
                        let v = (c * 7919 + i * 104729) % n;
                        let t = Instant::now();
                        client.send(&format!("rank {v}"));
                        let reply = client.recv_line();
                        lat.push(t.elapsed().as_secs_f64());
                        debug_assert!(reply.starts_with("rank "), "{reply}");
                        i += 1;
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    summarize(lat, t0.elapsed().as_secs_f64())
}

fn build_graph(args: &Args, vertices: usize, seed: u64) -> lfpr_graph::DynGraph {
    match args.topology.as_str() {
        "grid" => grid_road(vertices, seed),
        "kmer" => kmer_chain(vertices, seed),
        "er" => erdos_renyi(vertices, vertices * 10, seed),
        other => panic!("unknown topology {other} (grid|kmer|er)"),
    }
}

/// One commit storm against a fresh server: `storm_clients` threads
/// each stage-and-commit `storm_commits` batches of `storm_batch`
/// pre-validated fresh edges (disjoint across clients, so every commit
/// succeeds no matter how the writer groups them). Returns commits/s.
fn storm_throughput(args: &Args, coalesce: bool) -> f64 {
    let storm_vertices = if args.storm_vertices == 0 {
        args.vertices
    } else {
        args.storm_vertices
    };
    let mut g = build_graph(args, storm_vertices, args.seed + 7);
    add_self_loops(&mut g);
    let n = g.num_vertices();
    let base_edges = g.num_edges();
    let storm_batch = if args.storm_batch == 0 {
        args.batch
    } else {
        args.storm_batch
    };
    // Deterministically pick enough absent, pairwise-distinct edges.
    // The offset term varies with i / n, so the candidate space is ~n²
    // pairs — a storm needing ≥ n edges cannot exhaust it.
    let total = args.storm_clients * args.storm_commits * storm_batch;
    assert!(
        (total as u64) < (n as u64) * (n as u64) / 4,
        "storm wants {total} fresh edges on {n} vertices"
    );
    let mut fresh: Vec<(u32, u32)> = Vec::with_capacity(total);
    let mut taken = std::collections::HashSet::new();
    let mut i = 0u64;
    while fresh.len() < total {
        let hop = (i / n as u64) * 104_729 + 13;
        let u = (i % n as u64) as u32;
        let v = ((i * 7919 + hop) % n as u64) as u32;
        i += 1;
        if u != v && !g.has_edge(u, v) && taken.insert((u, v)) {
            fresh.push((u, v));
        }
    }
    let opts = PagerankOptions::default()
        .with_threads(args.threads)
        .with_tolerance(args.tolerance)
        .with_frontier_tolerance(args.tolerance);
    let session = UpdateSession::new(g, Algorithm::DfLF, opts);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    // One event loop on purpose: between writer rounds it resumes every
    // pipelined client in one pass, so all queued batches reach the
    // writer together and the measured ratio reflects coalescing depth,
    // not how clients happened to spread across loops.
    let srv = server::spawn_with(
        session,
        listener,
        server::ServerOptions {
            workers: 1,
            durable: None,
            reorder: None,
            coalesce,
        },
    )
    .expect("spawn storm server");
    let addr = srv.addr();
    let per_client = args.storm_commits * storm_batch;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.storm_clients)
            .map(|c| {
                let edges = &fresh[c * per_client..(c + 1) * per_client];
                s.spawn(move || {
                    // Pipeline the whole script: the server executes the
                    // next stage lines the moment the previous commit
                    // acks, so the writer is never idle waiting on a
                    // client round trip — the storm measures commit
                    // throughput, not socket latency.
                    let mut w = Client::connect(addr);
                    let mut script = String::new();
                    for chunk in edges.chunks(storm_batch) {
                        for &(u, v) in chunk {
                            script.push_str(&format!("insert {u} {v}\n"));
                        }
                        script.push_str("batch\n");
                    }
                    w.send_raw(&script);
                    for _ in edges.chunks(storm_batch) {
                        for _ in 0..storm_batch {
                            let reply = w.recv_line();
                            assert!(reply.starts_with("staged"), "{reply}");
                        }
                        let reply = w.recv_line();
                        assert!(
                            reply.starts_with("ok batch="),
                            "storm commit failed: {reply}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let commits = (args.storm_clients * args.storm_commits) as f64;
    let (session, totals) = srv.stop();
    assert_eq!(totals.batches as f64, commits, "storm lost commits");
    assert_eq!(session.graph().num_edges(), base_edges + total);
    if !coalesce {
        // Without merging, every commit is its own epoch.
        assert_eq!(session.steps() as f64, commits);
    }
    eprintln!(
        "  storm coalesce={}: {commits} commits in {} rounds, {:.2} commits/s",
        coalesce,
        session.steps(),
        commits / wall.max(1e-12)
    );
    commits / wall.max(1e-12)
}

/// Coalescing on vs off under the same storm → (on, off) commits/s.
fn coalesce_storm(args: &Args) -> (f64, f64) {
    let on = storm_throughput(args, true);
    let off = storm_throughput(args, false);
    (on, off)
}

/// Writer clients in the shard-scaling fleet. Fixed (rather than tied
/// to `--clients`) so the offered commit concurrency is identical at
/// every shard count and divides the 4-way quarter layout evenly.
const SHARD_FLEET: usize = 4;

/// Phase 6: fsync-dominated commit throughput vs shard count.
///
/// The same four writer threads replay the same per-quarter edge
/// streams against a fresh durable `ShardRouter` at each requested
/// shard count. The graph's edges stay inside `n/4`-vertex quarters,
/// so every block partition of 1/2/4 shards has zero crossing edges:
/// the exchange pass is a no-op, each commit costs one small kernel
/// refresh plus one `fsync`, and the only thing that changes between
/// runs is how many WAL writers those fsyncs can overlap on.
/// Returns `(shards, commits_per_s)` per requested count.
fn shard_scaling(args: &Args) -> Vec<(usize, f64)> {
    use lfpr_graph::io::wal::FsyncPolicy;
    use lfpr_graph::{BatchUpdate, GraphBuilder};
    use lockfree_pagerank::durable::DurabilityOptions;
    use lockfree_pagerank::shard::{ShardRouter, ShardSpec};

    // Tiny on purpose: the phase measures IO waits, not kernel work.
    // On the 1-core CI box only IO waits overlap across shard writers —
    // CPU work serializes at any shard count — so the per-commit CPU
    // share (kernel refresh + scatter bookkeeping) must stay well under
    // one fsync for the scaling floor to be meaningful.
    let quarter = 256usize;
    let n = SHARD_FLEET * quarter;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for q in 0..SHARD_FLEET as u32 {
        let base = q * quarter as u32;
        for i in 0..quarter as u32 {
            edges.push((base + i, base + (i + 1) % quarter as u32));
        }
    }
    let mut g = GraphBuilder::new(n)
        .edges(edges)
        .build_dyn()
        .expect("fleet graph");
    add_self_loops(&mut g);
    // Disjoint fresh quarter-local edges, `shard_commits` batches of
    // `shard_batch` per client, precomputed so every commit succeeds.
    let per_client = args.shard_commits * args.shard_batch;
    let batches: Vec<Vec<BatchUpdate>> = (0..SHARD_FLEET)
        .map(|q| {
            let base = (q * quarter) as u32;
            let mut fresh = Vec::with_capacity(per_client);
            let mut i = 0u64;
            while fresh.len() < per_client {
                let u = base + (i % quarter as u64) as u32;
                let v =
                    base + ((i * 7919 + i / quarter as u64 * 104_729 + 2) % quarter as u64) as u32;
                i += 1;
                if u != v && !g.has_edge(u, v) && !fresh.contains(&(u, v)) {
                    fresh.push((u, v));
                }
            }
            fresh
                .chunks(args.shard_batch)
                .map(|c| {
                    let mut b = BatchUpdate::new();
                    b.insertions.extend_from_slice(c);
                    b
                })
                .collect()
        })
        .collect();
    // Coarse tolerance for the same reason: the refresh after each
    // 4-edge commit should touch a handful of vertices, not chase a
    // 1e-7 residual around the quarter rings. Rank quality is not what
    // this phase measures; the kernel work is identical at every shard
    // count either way.
    let opts = PagerankOptions::default()
        .with_threads(args.threads)
        .with_tolerance(1e-4)
        .with_frontier_tolerance(1e-4);
    let mut out = Vec::new();
    for &shards in &args.shards {
        assert!(
            shards >= 1 && SHARD_FLEET % shards.min(SHARD_FLEET) == 0,
            "--shards counts must divide the {SHARD_FLEET}-quarter layout"
        );
        let wal = std::env::temp_dir().join(format!(
            "lfpr_serve_bench_shards_{}_{shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&wal);
        let spec = ShardSpec {
            wal_dir: Some(wal.clone()),
            durability: DurabilityOptions {
                fsync: FsyncPolicy::Always,
                checkpoint_every: 0, // pure append stream, no checkpoint fsyncs
                crash_after: None,
            },
            ..ShardSpec::new(shards)
        };
        let router =
            ShardRouter::new(g.clone(), Algorithm::DfLF, opts.clone(), spec).expect("router");
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for client in batches.iter() {
                let router = &router;
                s.spawn(move || {
                    for b in client {
                        let c = router.commit(b.clone()).expect("shard commit");
                        debug_assert_eq!(c.rounds, 0, "fleet graph must not cross shards");
                    }
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let commits = (SHARD_FLEET * args.shard_commits) as f64;
        let epochs = router.pin().epochs();
        assert_eq!(
            epochs.iter().sum::<u64>(),
            commits as u64,
            "every commit must land as exactly one shard epoch"
        );
        router.shutdown();
        let _ = std::fs::remove_dir_all(&wal);
        let cps = commits / wall.max(1e-12);
        eprintln!(
            "  shards={shards}: {commits} durable commits ({} clients) in {wall:.3}s, {cps:.1} commits/s",
            SHARD_FLEET
        );
        out.push((shards, cps));
    }
    out
}

fn main() {
    let args = parse_args();
    let workers = if args.workers == 0 {
        args.clients + 1
    } else {
        args.workers
    };
    // The sweep holds ~1k client sockets in this process on top of the
    // in-process server's own ~1k: ask for headroom once, up front.
    lockfree_pagerank::net::raise_nofile_limit(4096);
    let mut g = build_graph(&args, args.vertices, args.seed);
    add_self_loops(&mut g);
    let n = g.num_vertices();

    // Precompute the writer's batch scripts against a replica, so the
    // TCP writer never stages an edge the server must reject.
    let mut replica = g.clone();
    let mut scripts: Vec<Vec<String>> = Vec::new();
    for i in 0..args.batches {
        let fraction = args.batch as f64 / replica.num_edges() as f64;
        let b = BatchSpec::mixed(fraction, args.seed + 1 + i as u64).generate(&replica);
        let mut lines: Vec<String> = Vec::with_capacity(b.len());
        for &(u, v) in &b.deletions {
            lines.push(format!("delete {u} {v}"));
        }
        for &(u, v) in &b.insertions {
            lines.push(format!("insert {u} {v}"));
        }
        replica.apply_batch(&b).expect("replica batch must apply");
        scripts.push(lines);
    }
    // Edge count after phase 2, checked mid-run before the notify phase
    // extends the replica further.
    let mid_edges = replica.num_edges();
    let mut notify_scripts: Vec<Vec<String>> = Vec::new();
    for i in 0..args.notify_batches {
        let fraction = args.batch as f64 / replica.num_edges() as f64;
        let b = BatchSpec::mixed(fraction, args.seed + 1000 + i as u64).generate(&replica);
        let mut lines: Vec<String> = Vec::with_capacity(b.len());
        for &(u, v) in &b.deletions {
            lines.push(format!("delete {u} {v}"));
        }
        for &(u, v) in &b.insertions {
            lines.push(format!("insert {u} {v}"));
        }
        replica.apply_batch(&b).expect("replica batch must apply");
        notify_scripts.push(lines);
    }

    // Same steady-state serving regime as update_bench: τ = 1e-7 at
    // this scale, τf = τ (warm starts are τ-converged).
    let opts = PagerankOptions::default()
        .with_threads(args.threads)
        .with_tolerance(args.tolerance)
        .with_frontier_tolerance(args.tolerance);
    println!(
        "Serve bench: {} vertices / {} edges ({}), |Δ| ≈ {}, {} batches, \
         {} reader clients, {} workers, {} kernel thread(s)",
        n,
        g.num_edges(),
        args.topology,
        args.batch,
        args.batches,
        args.clients,
        workers,
        args.threads
    );
    let t0 = Instant::now();
    let session = UpdateSession::new(g, Algorithm::DfLF, opts);
    println!("initial static ranks in {:?}", t0.elapsed());

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let srv = server::spawn(session, listener, workers).expect("spawn server");
    let addr = srv.addr();

    // Phase 1: reads with no writer.
    let idle = read_phase(addr, args.clients, args.reads, n, None);
    println!(
        "idle       reads {:>6}  wall {:>8.3}s  {:>9.0} req/s  p50 {:>9.6}s  p99 {:>9.6}s  max {:>9.6}s",
        idle.reads,
        idle.wall_s,
        idle.reads as f64 / idle.wall_s.max(1e-12),
        idle.p50_s,
        idle.p99_s,
        idle.max_s
    );

    // Phase 2: the same read hammering while a writer replays batches.
    let stop = AtomicBool::new(false);
    let (concurrent, commits) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            // Set `stop` even if an assert below panics — otherwise the
            // readers (whose requests keep succeeding) spin forever and
            // the panic only surfaces at scope exit, hanging CI.
            struct StopGuard<'a>(&'a AtomicBool);
            impl Drop for StopGuard<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
            let _guard = StopGuard(&stop);
            let mut w = Client::connect(addr);
            let mut commit_lat = Vec::with_capacity(scripts.len());
            for lines in &scripts {
                for line in lines {
                    w.send(line);
                    let reply = w.recv_line();
                    assert!(reply.starts_with("staged"), "staging failed: {reply}");
                }
                let t = Instant::now();
                w.send("batch");
                let reply = w.recv_line();
                commit_lat.push(t.elapsed().as_secs_f64());
                assert!(reply.starts_with("ok batch="), "commit failed: {reply}");
            }
            commit_lat
        });
        let phase = read_phase(addr, args.clients, args.reads, n, Some(&stop));
        (phase, writer.join().unwrap())
    });
    let mean_commit = commits.iter().sum::<f64>() / commits.len().max(1) as f64;
    println!(
        "concurrent reads {:>6}  wall {:>8.3}s  {:>9.0} req/s  p50 {:>9.6}s  p99 {:>9.6}s  max {:>9.6}s",
        concurrent.reads,
        concurrent.wall_s,
        concurrent.reads as f64 / concurrent.wall_s.max(1e-12),
        concurrent.p50_s,
        concurrent.p99_s,
        concurrent.max_s
    );
    println!(
        "commits    count {:>6}  mean {:>9.6}s  max {:>9.6}s",
        commits.len(),
        mean_commit,
        commits.iter().fold(0.0f64, |a, &b| a.max(b))
    );

    // The server must have committed every batch and nothing else.
    let mut check = Client::connect(addr);
    let stats = check.roundtrip("stats");
    assert_eq!(
        field(&stats, "epoch"),
        Some(args.batches as u64),
        "server epoch drifted: {stats}"
    );
    assert_eq!(
        field(&stats, "m"),
        Some(mid_edges as u64),
        "server edge count drifted from the replica: {stats}"
    );
    drop(check);

    // Phase 3: subscription notify latency. A subscriber with eps=0 on
    // a vertex block tight-polls while the writer commits more batches;
    // each commit's latency is the gap from the writer's `ok` to the
    // first poll whose push block reports that epoch (clamped at zero —
    // the published view can beat the writer's own `ok` reply).
    let base_epoch = args.batches as u64;
    let final_epoch = base_epoch + args.notify_batches as u64;
    let mut sub = Client::connect(addr);
    for v in 0..64u32.min(n as u32) {
        let reply = sub.roundtrip(&format!("subscribe {v} 0"));
        assert!(reply.starts_with("subscribed "), "{reply}");
    }
    let (oks, seen) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = Client::connect(addr);
            let mut oks = Vec::with_capacity(notify_scripts.len());
            for lines in &notify_scripts {
                for line in lines {
                    w.send(line);
                    let reply = w.recv_line();
                    assert!(reply.starts_with("staged"), "staging failed: {reply}");
                }
                let t = Instant::now();
                w.send("batch");
                let reply = w.recv_line();
                let commit_s = t.elapsed().as_secs_f64();
                assert!(reply.starts_with("ok batch="), "commit failed: {reply}");
                let epoch = field(&reply, "epoch").expect("ok reply carries epoch");
                oks.push((epoch, Instant::now(), commit_s));
            }
            oks
        });
        let mut seen: Vec<(u64, Instant)> = Vec::new();
        let mut last = base_epoch;
        while last < final_epoch {
            let block = sub.reply_block("poll");
            let t = Instant::now();
            let head = block.lines().next().unwrap_or_default();
            let e = field(head, "epoch").unwrap_or_else(|| panic!("bad poll reply: {block}"));
            while last < e {
                last += 1;
                seen.push((last, t));
            }
        }
        (writer.join().unwrap(), seen)
    });
    let mut notify_lat: Vec<f64> = oks
        .iter()
        .map(|&(epoch, ok_at, _)| {
            let (_, seen_at) = seen
                .iter()
                .find(|&&(e, _)| e == epoch)
                .unwrap_or_else(|| panic!("epoch {epoch} never observed by the subscriber"));
            seen_at.saturating_duration_since(ok_at).as_secs_f64()
        })
        .collect();
    notify_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let notify_commit_mean = oks.iter().map(|&(_, _, s)| s).sum::<f64>() / oks.len().max(1) as f64;
    let notify = Phase {
        reads: notify_lat.len(),
        wall_s: 0.0,
        p50_s: percentile(&notify_lat, 0.50),
        p99_s: percentile(&notify_lat, 0.99),
        max_s: notify_lat.last().copied().unwrap_or(0.0),
    };
    println!(
        "notify     cmts  {:>6}  commit mean {:>9.6}s  p50 {:>9.6}s  p99 {:>9.6}s  max {:>9.6}s",
        notify.reads, notify_commit_mean, notify.p50_s, notify.p99_s, notify.max_s
    );

    // Final state check after both write phases.
    let mut check = Client::connect(addr);
    let stats = check.roundtrip("stats");
    assert_eq!(field(&stats, "epoch"), Some(final_epoch), "{stats}");
    assert_eq!(
        field(&stats, "m"),
        Some(replica.num_edges() as u64),
        "server edge count drifted from the replica: {stats}"
    );
    drop(check);
    drop(sub);

    // Phase 4: connection sweep. Grow a crowd of idle connections while
    // the same small set of active readers keeps hammering: the event
    // loops must serve every crowd size with the same threads, so read
    // tail latency should barely move.
    let mut sweep: Vec<(usize, Phase)> = Vec::new();
    for &conns in &args.connections {
        let idle_count = conns.saturating_sub(args.clients);
        let parked: Vec<Client> = (0..idle_count).map(|_| Client::connect(addr)).collect();
        let phase = read_phase(addr, args.clients, args.reads, n, None);
        println!(
            "sweep {:>5} conns  reads {:>6}  {:>9.0} req/s  p50 {:>9.6}s  p99 {:>9.6}s  max {:>9.6}s",
            conns,
            phase.reads,
            phase.reads as f64 / phase.wall_s.max(1e-12),
            phase.p50_s,
            phase.p99_s,
            phase.max_s
        );
        drop(parked);
        sweep.push((conns, phase));
    }
    let idle_factor = match (sweep.first(), sweep.last()) {
        (Some((_, small)), Some((_, big))) if sweep.len() > 1 => big.p99_s / small.p99_s.max(1e-12),
        _ => 1.0,
    };
    println!(
        "idle-connection factor: p99 at {} conns ≈ {idle_factor:.2}× p99 at {} conns",
        sweep.last().map(|s| s.0).unwrap_or(0),
        sweep.first().map(|s| s.0).unwrap_or(0)
    );
    srv.stop();

    // Phase 5: coalescing A/B. A fresh server pair absorbs the same
    // multi-client commit storm with writer-side merging on, then off.
    let (on_cps, off_cps) = coalesce_storm(&args);
    let coalesce_ratio = on_cps / off_cps.max(1e-12);
    println!(
        "coalescing: {on_cps:.1} commits/s merged vs {off_cps:.1} sequential → {coalesce_ratio:.2}×"
    );

    // Phase 6: sharded commit throughput under an fsync-dominated
    // stream, swept over shard counts.
    let shard_rows = shard_scaling(&args);
    let shard_scale_ratio = match (shard_rows.first(), shard_rows.last()) {
        (Some(&(s1, base)), Some(&(sn, top))) if shard_rows.len() > 1 => {
            let r = top / base.max(1e-12);
            println!(
                "shard scaling: {top:.1} commits/s at {sn} shards ≈ {r:.2}× \
                 {base:.1} commits/s at {s1} shard(s)"
            );
            r
        }
        _ => 1.0,
    };

    let ratio = mean_commit / concurrent.p99_s.max(1e-12);
    println!(
        "\ncommit-to-read ratio: one batch commit ({mean_commit:.6}s) ≈ {ratio:.1}× \
         the concurrent read p99 ({:.6}s)",
        concurrent.p99_s
    );
    let notify_ratio = notify_commit_mean / notify.p99_s.max(1e-12);
    println!(
        "commit-to-notify ratio: one batch commit ({notify_commit_mean:.6}s) ≈ {notify_ratio:.1}× \
         the notify p99 ({:.6}s)",
        notify.p99_s
    );

    let json = render_json(
        &args,
        workers,
        &idle,
        &concurrent,
        &commits,
        ratio,
        &notify,
        notify_commit_mean,
        notify_ratio,
        &sweep,
        idle_factor,
        on_cps,
        off_cps,
        coalesce_ratio,
        &shard_rows,
        shard_scale_ratio,
    );
    if let Some(path) = &args.json_path {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    } else {
        println!("\n{json}");
    }
    if let Some(required) = args.require {
        assert!(
            ratio >= required,
            "commit-to-read ratio {ratio:.2} below required {required:.2} — \
             reads are stalling behind batch commits"
        );
        println!("ratio target ≥ {required:.2} met");
    }
    if let Some(required) = args.require_notify {
        assert!(
            notify_ratio >= required,
            "commit-to-notify ratio {notify_ratio:.2} below required {required:.2} — \
             subscription pushes are stalling behind batch commits"
        );
        println!("notify ratio target ≥ {required:.2} met");
    }
    if let Some(allowed) = args.require_idle_factor {
        assert!(
            idle_factor <= allowed,
            "idle-connection p99 factor {idle_factor:.2} above allowed {allowed:.2} — \
             parked connections are degrading active readers"
        );
        println!("idle factor target ≤ {allowed:.2} met");
    }
    if let Some(required) = args.require_coalesce {
        assert!(
            coalesce_ratio >= required,
            "coalescing throughput ratio {coalesce_ratio:.2} below required {required:.2} — \
             merged commits are not beating sequential ones"
        );
        println!("coalescing ratio target ≥ {required:.2} met");
    }
    if let Some(required) = args.require_shard_scale {
        assert!(
            shard_scale_ratio >= required,
            "shard-scaling throughput ratio {shard_scale_ratio:.2} below required {required:.2} — \
             per-shard writers are not overlapping fsync-dominated commits"
        );
        println!("shard scaling target ≥ {required:.2} met");
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    args: &Args,
    workers: usize,
    idle: &Phase,
    concurrent: &Phase,
    commits: &[f64],
    ratio: f64,
    notify: &Phase,
    notify_commit_mean: f64,
    notify_ratio: f64,
    sweep: &[(usize, Phase)],
    idle_factor: f64,
    on_cps: f64,
    off_cps: f64,
    coalesce_ratio: f64,
    shard_rows: &[(usize, f64)],
    shard_scale_ratio: f64,
) -> String {
    let phase = |name: &str, p: &Phase| {
        format!(
            "  \"{name}\": {{\"reads\": {}, \"wall_s\": {:.6}, \"throughput_rps\": {:.1}, \
             \"p50_s\": {:.9}, \"p99_s\": {:.9}, \"max_s\": {:.9}}}",
            p.reads,
            p.wall_s,
            p.reads as f64 / p.wall_s.max(1e-12),
            p.p50_s,
            p.p99_s,
            p.max_s
        )
    };
    let mean_commit = commits.iter().sum::<f64>() / commits.len().max(1) as f64;
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"serve_bench\",\n");
    s.push_str(&format!("  \"vertices\": {},\n", args.vertices));
    s.push_str(&format!("  \"topology\": \"{}\",\n", args.topology));
    s.push_str(&format!("  \"batch\": {},\n", args.batch));
    s.push_str(&format!("  \"batches\": {},\n", args.batches));
    s.push_str(&format!("  \"clients\": {},\n", args.clients));
    s.push_str(&format!("  \"workers\": {workers},\n"));
    s.push_str(&format!("  \"threads\": {},\n", args.threads));
    s.push_str(&format!("  \"seed\": {},\n", args.seed));
    s.push_str(&phase("idle", idle));
    s.push_str(",\n");
    s.push_str(&phase("concurrent", concurrent));
    s.push_str(",\n");
    s.push_str(&format!(
        "  \"commit_mean_s\": {:.9},\n  \"commit_max_s\": {:.9},\n",
        mean_commit,
        commits.iter().fold(0.0f64, |a, &b| a.max(b))
    ));
    s.push_str(&format!("  \"commit_to_read_p99_ratio\": {ratio:.4},\n"));
    s.push_str(&format!(
        "  \"notify\": {{\"commits\": {}, \"p50_s\": {:.9}, \"p99_s\": {:.9}, \"max_s\": {:.9}}},\n",
        notify.reads, notify.p50_s, notify.p99_s, notify.max_s
    ));
    s.push_str(&format!(
        "  \"notify_commit_mean_s\": {notify_commit_mean:.9},\n"
    ));
    s.push_str(&format!(
        "  \"commit_to_notify_p99_ratio\": {notify_ratio:.4},\n"
    ));
    let sweep_rows: Vec<String> = sweep
        .iter()
        .map(|(conns, p)| {
            format!(
                "    {{\"connections\": {conns}, \"p50_s\": {:.9}, \"p99_s\": {:.9}, \
                 \"throughput_rps\": {:.1}}}",
                p.p50_s,
                p.p99_s,
                p.reads as f64 / p.wall_s.max(1e-12)
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"connection_sweep\": [\n{}\n  ],\n",
        sweep_rows.join(",\n")
    ));
    s.push_str(&format!("  \"idle_p99_factor\": {idle_factor:.4},\n"));
    s.push_str(&format!(
        "  \"coalesce\": {{\"storm_clients\": {}, \"storm_commits\": {}, \"storm_batch\": {}, \
         \"storm_vertices\": {}, \"on_commits_per_s\": {on_cps:.2}, \
         \"off_commits_per_s\": {off_cps:.2}, \"throughput_ratio\": {coalesce_ratio:.4}}},\n",
        args.storm_clients, args.storm_commits, args.storm_batch, args.storm_vertices
    ));
    let shard_cells: Vec<String> = shard_rows
        .iter()
        .map(|(shards, cps)| format!("    {{\"shards\": {shards}, \"commits_per_s\": {cps:.2}}}"))
        .collect();
    s.push_str(&format!(
        "  \"shard_scaling\": {{\"fleet\": 4, \"commits_per_client\": {}, \"batch\": {}, \
         \"fsync\": \"always\", \"rows\": [\n{}\n  ], \"scale_ratio\": {shard_scale_ratio:.4}}}\n}}",
        args.shard_commits,
        args.shard_batch,
        shard_cells.join(",\n")
    ));
    s
}
