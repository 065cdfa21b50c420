//! Update-pipeline benchmark — incremental `UpdateSession` vs the seed
//! full-rebuild path, end to end per batch.
//!
//! Both pipelines process the **same** batch sequence in lockstep from
//! the same warm start:
//!
//! * **full** (the seed path): `DynGraph::apply_batch` + a from-scratch
//!   `DynGraph::snapshot()` (both CSRs + transpose rebuilt) + a one-shot
//!   `api::run_dynamic` (fresh `AtomicRanks`/flag allocations, terminal
//!   rank clone);
//! * **incremental**: `UpdateSession::step` — copy-on-write page
//!   rebuilds via `Snapshot::apply_batch`, epoch-reset flag workspace,
//!   in-place warm ranks, no terminal clone.
//!
//! After every batch the two rank vectors are compared: bit-identical
//! at 1 thread (same snapshots, same warm start, same claim order),
//! L∞ < 1e-9 otherwise — the incremental path is equality-checked
//! against the full-rebuild oracle, not just faster.
//!
//! After every batch the session's `top_k(10)`, which reads only the
//! rank blocks its block-max index admits, is also timed against a full
//! scan of the same ranks, and the two lists must be equal.
//!
//! The incremental pipeline runs *first* each step, handing the CPU
//! cache advantage to the baseline — the reported speedup is
//! conservative. Acceptance target (ISSUE 4): ≥ 2× at |Δ| = 100 on a
//! 100k-vertex graph on the 1-core box.
//!
//! Usage: `update_bench [--vertices n] [--degree d] [--batch k]
//!   [--steps s] [--warmup w] [--algo a] [--threads t] [--seed x]
//!   [--layout packed|gapped] [--json path] [--require x]`

use lfpr_core::norm::linf_diff;
use lfpr_core::topk::top_k_ascending;
use lfpr_core::{api, Algorithm, PagerankOptions, StorageLayout, UpdateSession};
use lfpr_graph::generators::{erdos_renyi, grid_road, kmer_chain};
use lfpr_graph::selfloops::add_self_loops;
use lfpr_graph::BatchSpec;
use std::time::Instant;

struct Args {
    vertices: usize,
    degree: usize,
    topology: String,
    batch: usize,
    steps: usize,
    warmup: usize,
    algo: Algorithm,
    threads: usize,
    seed: u64,
    tolerance: f64,
    tauf: Option<f64>,
    layout: StorageLayout,
    json_path: Option<String>,
    require: Option<f64>,
}

fn parse_args() -> Args {
    let mut a = Args {
        vertices: 100_000,
        degree: 10,
        topology: "grid".to_string(),
        batch: 100,
        steps: 20,
        warmup: 2,
        algo: Algorithm::DfLF,
        threads: 1,
        seed: 42,
        tolerance: 1e-7,
        tauf: None,
        layout: StorageLayout::Packed,
        json_path: None,
        require: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let val = argv.get(i + 1).cloned().unwrap_or_default();
        match argv[i].as_str() {
            "--vertices" => a.vertices = val.parse().expect("--vertices n"),
            "--degree" => a.degree = val.parse().expect("--degree d"),
            "--topology" => a.topology = val.clone(),
            "--batch" => a.batch = val.parse().expect("--batch k"),
            "--steps" => a.steps = val.parse().expect("--steps s"),
            "--warmup" => a.warmup = val.parse().expect("--warmup w"),
            "--algo" => a.algo = val.parse().unwrap_or_else(|e| panic!("{e}")),
            "--threads" => a.threads = val.parse().expect("--threads t"),
            "--seed" => a.seed = val.parse().expect("--seed x"),
            "--tolerance" => a.tolerance = val.parse().expect("--tolerance t"),
            "--tauf" => a.tauf = Some(val.parse().expect("--tauf t")),
            "--layout" => a.layout = val.parse().unwrap_or_else(|e| panic!("{e}")),
            "--json" => a.json_path = Some(val.clone()),
            "--require" => a.require = Some(val.parse().expect("--require x")),
            other => panic!("unknown argument: {other}"),
        }
        i += 2;
    }
    a
}

/// The list length timed after every step (a served `topk` read's).
const TOP_K: usize = 10;

struct StepRow {
    batch_len: usize,
    iters: usize,
    processed: u64,
    affected: usize,
    full_s: f64,
    incr_s: f64,
    incr_snapshot_s: f64,
    incr_kernel_s: f64,
    topk_index_s: f64,
    topk_scan_s: f64,
    max_diff: f64,
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn main() {
    let args = parse_args();
    // Dynamic Frontier's sweet spot is sparse, large-diameter graphs
    // (road networks — §5.2.2); on dense expanders the τf-ball covers
    // the graph and every approach degenerates to ND. Default to the
    // road grid; `--topology er` exercises the dense regime.
    let mut g = match args.topology.as_str() {
        "grid" => grid_road(args.vertices, args.seed),
        "kmer" => kmer_chain(args.vertices, args.seed),
        "er" => erdos_renyi(args.vertices, args.vertices * args.degree, args.seed),
        other => panic!("unknown topology {other} (grid|kmer|er)"),
    };
    add_self_loops(&mut g);
    println!(
        "Update bench: {} on {} graph, {} vertices / {} edges, |Δ| = {}, {} steps (+{} warmup), {} thread(s), {} layout",
        args.algo, args.topology, g.num_vertices(), g.num_edges(),
        args.batch, args.steps, args.warmup, args.threads, args.layout
    );
    // Steady-state serving configuration, applied to both pipelines:
    // * τ = 1e-7 — the repo's scale mapping (setup.rs::scaled_tolerance)
    //   holds τ·n constant: the paper's τ = 1e-10 belongs to its
    //   1e6–2e8-vertex graphs; at the 1000×-reduced 1e5-vertex scale the
    //   equivalent regime is 1e-7.
    // * τf = τ — the warm start of batch t+1 is batch t's τ-converged
    //   output, whose residuals sit just under τ; the paper's τf = τ/1000
    //   would flood the frontier from warm-start noise alone (see
    //   df_lf.rs). τf = τ bounds the affected ball by genuine rank
    //   movement (`--tauf` overrides for the §4.5-style sweep).
    let tauf = args.tauf.unwrap_or(args.tolerance);
    let opts = PagerankOptions::default()
        .with_threads(args.threads)
        .with_tolerance(args.tolerance)
        .with_frontier_tolerance(tauf);

    // The session computes the initial StaticLF/StaticBB ranks; the full
    // pipeline starts from the very same warm vector so the two stay
    // comparable (bit-identical at 1 thread).
    let mut g_full = g.clone(); // no cached snapshot: the seed path
    let t0 = Instant::now();
    let mut session = UpdateSession::new_with_layout(g, args.algo, opts.clone(), args.layout);
    println!(
        "initial static ranks in {:?} ({} iterations)",
        t0.elapsed(),
        session.last_stats().unwrap().iterations
    );
    let mut ranks_full = session.ranks().to_vec();
    let mut prev_full = g_full.snapshot();

    let mut rows: Vec<StepRow> = Vec::new();
    println!(
        "{:>5} {:>6} {:>6} {:>9} {:>9} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "step",
        "|Δ|",
        "iters",
        "affected",
        "touched",
        "full_s",
        "incr_s",
        "snapshot_s",
        "kernel_s",
        "speedup"
    );
    for step in 0..args.warmup + args.steps {
        let fraction = args.batch as f64 / g_full.num_edges() as f64;
        let batch = BatchSpec::mixed(fraction, args.seed + 1 + step as u64).generate(&g_full);

        // Incremental first: any cache-warming advantage goes to the
        // full-rebuild baseline measured right after.
        let t = Instant::now();
        let stats = session.step(&batch).expect("generated batch must apply");
        let incr_s = t.elapsed().as_secs_f64();
        assert!(stats.incremental, "session fell back to a full rebuild");

        let t = Instant::now();
        g_full
            .apply_batch(&batch)
            .expect("generated batch must apply");
        let curr = g_full.snapshot(); // full rebuild: out-CSR + transpose
        let res = api::run_dynamic(args.algo, &prev_full, &curr, &batch, &ranks_full, &opts);
        ranks_full = res.ranks;
        prev_full = curr;
        let full_s = t.elapsed().as_secs_f64();

        let max_diff = if args.threads == 1 {
            assert_eq!(
                session.ranks(),
                &ranks_full[..],
                "step {step}: incremental ranks must be bit-identical to the oracle"
            );
            0.0
        } else {
            let d = linf_diff(session.ranks(), &ranks_full);
            assert!(d < 1e-9, "step {step}: L∞ vs oracle = {d:.2e}");
            d
        };

        let t = Instant::now();
        let indexed = session.top_k(TOP_K);
        let topk_index_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let ranks = session.ranks().iter().enumerate();
        let scanned = top_k_ascending(TOP_K, ranks.map(|(v, &r)| (v as u32, r)));
        let topk_scan_s = t.elapsed().as_secs_f64();
        if indexed != scanned {
            eprintln!("step {step}: indexed top-{TOP_K} {indexed:?} != full scan {scanned:?}");
            std::process::exit(1);
        }

        let row = StepRow {
            batch_len: batch.len(),
            iters: stats.iterations,
            processed: stats.vertices_processed,
            affected: stats.initially_affected,
            full_s,
            incr_s,
            incr_snapshot_s: stats.snapshot_time.as_secs_f64(),
            incr_kernel_s: stats.runtime.as_secs_f64(),
            topk_index_s,
            topk_scan_s,
            max_diff,
        };
        let warm = if step < args.warmup { " (warmup)" } else { "" };
        println!(
            "{:>5} {:>6} {:>6} {:>9} {:>9} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>8.2}x{}",
            step,
            row.batch_len,
            row.iters,
            row.affected,
            row.processed,
            row.full_s,
            row.incr_s,
            row.incr_snapshot_s,
            row.incr_kernel_s,
            row.full_s / row.incr_s.max(1e-12),
            warm
        );
        if step >= args.warmup {
            rows.push(row);
        }
    }

    let mean_full = mean(rows.iter().map(|r| r.full_s));
    let mean_incr = mean(rows.iter().map(|r| r.incr_s));
    let speedup = mean_full / mean_incr.max(1e-12);
    let worst_diff = rows.iter().map(|r| r.max_diff).fold(0.0f64, f64::max);
    let mean_index = mean(rows.iter().map(|r| r.topk_index_s));
    let mean_scan = mean(rows.iter().map(|r| r.topk_scan_s));
    println!(
        "mean top-{TOP_K}: block index {mean_index:.6}s vs full scan {mean_scan:.6}s → {:.1}x",
        mean_scan / mean_index.max(1e-12)
    );
    println!(
        "\nmean per-batch latency: full {:.6}s vs incremental {:.6}s → {:.2}x speedup \
         (equality: {})",
        mean_full,
        mean_incr,
        speedup,
        if args.threads == 1 {
            "bit-identical".to_string()
        } else {
            format!("L∞ ≤ {worst_diff:.2e}")
        }
    );

    // The speedup must not come from computing garbage: after the whole
    // run, the maintained ranks must still match a high-precision
    // from-scratch reference on the final graph.
    let reference = lfpr_core::reference::reference_default(&session.graph().snapshot());
    let final_err = linf_diff(session.ranks(), &reference);
    println!("final L∞ error vs reference: {final_err:.2e}");
    if let Some(s) = session.slack_stats() {
        println!(
            "gapped store: {} edges in {} slots ({}‰ occupancy, {} granule rebuilds)",
            s.edges,
            s.slots,
            s.occupancy_permille(),
            s.rebuilds
        );
    }
    assert!(
        final_err < 1e-6,
        "accumulated error {final_err:.2e} out of tolerance regime"
    );

    let json = render_json(&args, &rows, mean_full, mean_incr, speedup);
    if let Some(path) = &args.json_path {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    } else {
        println!("\n{json}");
    }
    if let Some(required) = args.require {
        assert!(
            speedup >= required,
            "speedup {speedup:.2}x below required {required:.2}x"
        );
        println!("speedup target ≥ {required:.2}x met");
    }
}

fn render_json(
    args: &Args,
    rows: &[StepRow],
    mean_full: f64,
    mean_incr: f64,
    speedup: f64,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"update_bench\",\n");
    s.push_str(&format!("  \"algo\": \"{}\",\n", args.algo));
    s.push_str(&format!("  \"layout\": \"{}\",\n", args.layout));
    s.push_str(&format!("  \"vertices\": {},\n", args.vertices));
    s.push_str(&format!("  \"degree\": {},\n", args.degree));
    s.push_str(&format!("  \"batch\": {},\n", args.batch));
    s.push_str(&format!("  \"threads\": {},\n", args.threads));
    s.push_str(&format!("  \"seed\": {},\n", args.seed));
    s.push_str("  \"baseline\": \"full snapshot rebuild + one-shot run_dynamic\",\n");
    s.push_str("  \"steps\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"batch\": {}, \"full_s\": {:.9}, \"incr_s\": {:.9}, \
                 \"incr_snapshot_s\": {:.9}, \"incr_kernel_s\": {:.9}, \
                 \"topk_index_s\": {:.9}, \"topk_scan_s\": {:.9}, \"linf\": {:.3e}}}",
                r.batch_len,
                r.full_s,
                r.incr_s,
                r.incr_snapshot_s,
                r.incr_kernel_s,
                r.topk_index_s,
                r.topk_scan_s,
                r.max_diff
            )
        })
        .collect();
    s.push_str(&body.join(",\n"));
    s.push_str("\n  ],\n");
    s.push_str(&format!("  \"mean_full_s\": {mean_full:.9},\n"));
    s.push_str(&format!("  \"mean_incr_s\": {mean_incr:.9},\n"));
    s.push_str(&format!("  \"speedup\": {speedup:.4}\n}}"));
    s
}
