//! Unified dispatch over the eight algorithm variants.
//!
//! The experiment harnesses sweep over approaches; this module gives them
//! one entry point per setting (static graph / dynamic update) plus
//! metadata (names matching the paper's labels).
//!
//! Both entry points hand the kernels the graph's out-degrees as a dense
//! array ([`WithDegrees`]): one O(n) pass per run, the same order as the
//! rank and flag vectors a one-shot run allocates anyway.

use crate::config::PagerankOptions;
use crate::result::PagerankResult;
use lfpr_graph::{out_degrees, BatchUpdate, NeighborRuns, WithDegrees};

/// The eight algorithm variants of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Barrier-based static recompute (Alg. 3).
    StaticBB,
    /// Lock-free static recompute (Alg. 4).
    StaticLF,
    /// Barrier-based naive-dynamic (Alg. 5).
    NdBB,
    /// Lock-free naive-dynamic (Alg. 6).
    NdLF,
    /// Barrier-based dynamic traversal (Alg. 7).
    DtBB,
    /// Lock-free dynamic traversal (Alg. 8).
    DtLF,
    /// Barrier-based dynamic frontier (Alg. 1).
    DfBB,
    /// Lock-free dynamic frontier (Alg. 2) — the paper's contribution.
    DfLF,
}

impl Algorithm {
    /// All variants, in the paper's presentation order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::StaticBB,
        Algorithm::StaticLF,
        Algorithm::NdBB,
        Algorithm::NdLF,
        Algorithm::DtBB,
        Algorithm::DtLF,
        Algorithm::DfBB,
        Algorithm::DfLF,
    ];

    /// The six approaches compared in Figures 5 and 7 (DT excluded, as
    /// in the paper's headline plots).
    pub const FIGURE_SET: [Algorithm; 6] = [
        Algorithm::StaticBB,
        Algorithm::NdBB,
        Algorithm::DfBB,
        Algorithm::StaticLF,
        Algorithm::NdLF,
        Algorithm::DfLF,
    ];

    /// The paper's label for this variant.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::StaticBB => "StaticBB",
            Algorithm::StaticLF => "StaticLF",
            Algorithm::NdBB => "NDBB",
            Algorithm::NdLF => "NDLF",
            Algorithm::DtBB => "DTBB",
            Algorithm::DtLF => "DTLF",
            Algorithm::DfBB => "DFBB",
            Algorithm::DfLF => "DFLF",
        }
    }

    /// Whether this variant is lock-free (no barriers).
    pub fn is_lock_free(&self) -> bool {
        matches!(
            self,
            Algorithm::StaticLF | Algorithm::NdLF | Algorithm::DtLF | Algorithm::DfLF
        )
    }

    /// Whether this variant uses the previous snapshot's ranks.
    pub fn is_dynamic(&self) -> bool {
        !matches!(self, Algorithm::StaticBB | Algorithm::StaticLF)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "staticbb" => Ok(Algorithm::StaticBB),
            "staticlf" => Ok(Algorithm::StaticLF),
            "ndbb" => Ok(Algorithm::NdBB),
            "ndlf" => Ok(Algorithm::NdLF),
            "dtbb" => Ok(Algorithm::DtBB),
            "dtlf" => Ok(Algorithm::DtLF),
            "dfbb" => Ok(Algorithm::DfBB),
            "dflf" => Ok(Algorithm::DfLF),
            other => Err(format!("unknown algorithm: {other}")),
        }
    }
}

/// Run a **static** computation (from-scratch ranks) with any variant.
/// Dynamic variants degenerate gracefully: with no previous ranks they
/// warm-start from 1/n with an empty batch, which reduces ND to Static
/// and makes DT/DF no-ops — so only the static variants are accepted.
///
/// # Panics
/// Panics if `algo` is a dynamic variant.
pub fn run_static<G: NeighborRuns>(
    algo: Algorithm,
    g: &G,
    opts: &PagerankOptions,
) -> PagerankResult {
    let degrees = out_degrees(g);
    let g = &WithDegrees::new(g, &degrees);
    match algo {
        Algorithm::StaticBB => crate::static_bb::static_bb(g, opts),
        Algorithm::StaticLF => crate::static_lf::static_lf(g, opts),
        other => panic!("{other} is a dynamic variant; use run_dynamic"),
    }
}

/// Run a **dynamic** update with any variant. Static variants ignore the
/// previous state and recompute from scratch on `curr` (that is exactly
/// how the paper uses them as dynamic baselines).
pub fn run_dynamic<P: NeighborRuns, C: NeighborRuns>(
    algo: Algorithm,
    prev: &P,
    curr: &C,
    batch: &BatchUpdate,
    prev_ranks: &[f64],
    opts: &PagerankOptions,
) -> PagerankResult {
    let degrees = out_degrees(curr);
    let curr = &WithDegrees::new(curr, &degrees);
    match algo {
        Algorithm::StaticBB => crate::static_bb::static_bb(curr, opts),
        Algorithm::StaticLF => crate::static_lf::static_lf(curr, opts),
        Algorithm::NdBB => crate::nd_bb::nd_bb(curr, prev_ranks, opts),
        Algorithm::NdLF => crate::nd_lf::nd_lf(curr, prev_ranks, opts),
        Algorithm::DtBB => crate::dt_bb::dt_bb(prev, curr, batch, prev_ranks, opts),
        Algorithm::DtLF => crate::dt_lf::dt_lf(prev, curr, batch, prev_ranks, opts),
        Algorithm::DfBB => crate::df_bb::df_bb(prev, curr, batch, prev_ranks, opts),
        Algorithm::DfLF => crate::df_lf::df_lf(prev, curr, batch, prev_ranks, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::linf_diff;
    use crate::reference::reference_default;
    use lfpr_graph::generators::erdos_renyi;
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::BatchSpec;
    use lfpr_graph::Snapshot;

    #[test]
    fn names_and_parsing_roundtrip() {
        for a in Algorithm::ALL {
            let parsed: Algorithm = a.name().parse().unwrap();
            assert_eq!(parsed, a);
        }
        assert!("frobnicate".parse::<Algorithm>().is_err());
    }

    #[test]
    fn classification() {
        assert!(Algorithm::DfLF.is_lock_free());
        assert!(!Algorithm::DfBB.is_lock_free());
        assert!(Algorithm::NdBB.is_dynamic());
        assert!(!Algorithm::StaticLF.is_dynamic());
        assert_eq!(Algorithm::ALL.len(), 8);
        assert_eq!(Algorithm::FIGURE_SET.len(), 6);
    }

    #[test]
    fn every_variant_agrees_with_reference() {
        let opts = PagerankOptions::default()
            .with_threads(4)
            .with_chunk_size(32);
        let mut g = erdos_renyi(200, 1400, 71);
        add_self_loops(&mut g);
        let prev = g.snapshot();
        let r_prev = run_static(Algorithm::StaticBB, &prev, &opts).ranks;
        let batch = BatchSpec::mixed(0.01, 72).generate(&g);
        g.apply_batch(&batch).unwrap();
        let curr = g.snapshot();
        let reference = reference_default(&curr);
        for algo in Algorithm::ALL {
            let res = run_dynamic(algo, &prev, &curr, &batch, &r_prev, &opts);
            assert!(res.status.is_success(), "{algo} failed");
            let err = linf_diff(&res.ranks, &reference);
            assert!(err < 1e-8, "{algo}: err = {err}");
        }
    }

    #[test]
    #[should_panic(expected = "dynamic variant")]
    fn run_static_rejects_dynamic_variants() {
        let g = Snapshot::from_edges(1, &[(0, 0)]);
        run_static(Algorithm::DfLF, &g, &PagerankOptions::default());
    }
}
