//! StaticLF — lock-free Static PageRank (Algorithm 4, §3.3.2).
//!
//! Our improved variant of Eedi et al.'s barrier-free PageRank: a
//! top-level parallel block, dynamic chunk scheduling with `nowait`
//! semantics, a **single shared rank vector** updated in place
//! (asynchronous, Gauss–Seidel style), and a per-vertex convergence flag
//! vector `RC` shared between threads. The paper measures this 14%
//! faster than Eedi et al.'s No-Sync version thanks to the dynamic
//! work balancing.
//!
//! Note on initialization: Algorithm 4's text initializes `RC ← {0}` but
//! simultaneously defines `RC[v] = 1` as "not yet converged" and
//! terminates when all flags are 0 — taken literally, the loop would
//! exit before doing any work. We initialize `RC ← {1}` (no vertex has
//! converged yet), which is the only reading under which the pseudocode
//! computes PageRank; the flags are then cleared by line 10 as vertices
//! converge.

use crate::config::PagerankOptions;
use crate::lf_common::{rc_flags_len, run_lf_engine, LfMode};
use crate::rank::{AtomicRanks, Flags};
use crate::result::PagerankResult;
use lfpr_graph::NeighborRuns;

/// Compute PageRank from scratch on `g`, lock-free.
pub fn static_lf<G: NeighborRuns>(g: &G, opts: &PagerankOptions) -> PagerankResult {
    let n = g.num_vertices();
    let ranks = AtomicRanks::uniform(n, 1.0 / n.max(1) as f64);
    let rc = Flags::new(rc_flags_len(n, opts.convergence, opts.chunk_size), 1);
    run_lf_engine(g, &ranks, &rc, LfMode::All, opts, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::{linf_diff, rank_sum};
    use crate::reference::reference_default;
    use crate::result::RunStatus;
    use lfpr_graph::generators::{erdos_renyi, rmat, RmatParams};
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::Snapshot;
    use lfpr_sched::fault::FaultPlan;
    use std::time::Duration;

    fn graph(n: usize, m: usize, seed: u64) -> Snapshot {
        let mut g = erdos_renyi(n, m, seed);
        add_self_loops(&mut g);
        g.snapshot()
    }

    fn opts() -> PagerankOptions {
        PagerankOptions::default()
            .with_threads(4)
            .with_chunk_size(32)
    }

    #[test]
    fn matches_reference_on_random_graph() {
        let g = graph(300, 2000, 1);
        let res = static_lf(&g, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        let err = linf_diff(&res.ranks, &reference_default(&g));
        // Async in-place updates converge to the same fixpoint; the
        // tolerance bound is per-vertex so allow a small multiple.
        assert!(err < 1e-8, "err = {err}");
    }

    #[test]
    fn matches_reference_on_skewed_graph() {
        let mut g = rmat(512, 4000, RmatParams::web(), false, 5);
        add_self_loops(&mut g);
        let s = g.snapshot();
        let res = static_lf(&s, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        assert!(linf_diff(&res.ranks, &reference_default(&s)) < 1e-8);
    }

    #[test]
    fn rank_mass_conserved() {
        // Per-vertex residuals of up to τ can each leak mass, so the sum
        // drifts by O(n·τ) — bound accordingly, not at machine epsilon.
        let g = graph(200, 1500, 2);
        let res = static_lf(&g, &opts());
        assert!((rank_sum(&res.ranks) - 1.0).abs() < 200.0 * 1e-10 * 10.0);
    }

    #[test]
    fn no_barrier_wait_ever() {
        let g = graph(500, 4000, 3);
        let res = static_lf(&g, &opts());
        assert_eq!(res.total_wait, Duration::ZERO);
        assert_eq!(res.max_wait, Duration::ZERO);
    }

    #[test]
    fn converges_under_delays() {
        let g = graph(300, 2000, 4);
        let o = opts().with_faults(FaultPlan::with_delays(1e-3, Duration::from_millis(1), 11));
        let res = static_lf(&g, &o);
        assert_eq!(res.status, RunStatus::Converged);
        assert!(linf_diff(&res.ranks, &reference_default(&g)) < 1e-8);
    }

    #[test]
    fn converges_under_crashes() {
        // Big enough that every thread participates before the run ends,
        // so the crash-stop faults actually fire.
        let g = graph(4000, 32_000, 5);
        let o = PagerankOptions::default()
            .with_threads(4)
            .with_chunk_size(128)
            .with_faults(FaultPlan::with_crashes(3, 100, 13));
        let res = static_lf(&g, &o);
        assert_eq!(res.status, RunStatus::Converged);
        assert_eq!(res.threads_crashed, 3, "all flagged threads must crash");
        assert!(linf_diff(&res.ranks, &reference_default(&g)) < 1e-8);
    }
}
