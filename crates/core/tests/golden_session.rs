//! Golden bit-identity oracle for the lock-free dynamic sessions.
//!
//! A seeded 20-batch sequence on a 50k-vertex road grid is replayed
//! through 1-thread `DfLF` and `DtLF` sessions under both storage
//! layouts, with delta tracking on and one personalized named view.
//! After every step the test folds into one FNV-1a hash the bit
//! patterns of the default ranks, `last_deltas()`, the view's ranks
//! and deltas, and `top_k(10)`. The expected hashes were recorded from
//! the dense `VA` scan engine that preceded the sparse bitmap rounds, so
//! they pin that the sparse rounds process the same vertices in the
//! same order and record the same deltas, bit for bit.

use lfpr_core::config::Teleport;
use lfpr_core::session::{StorageLayout, UpdateSession};
use lfpr_core::{Algorithm, PagerankOptions};
use lfpr_graph::generators::grid_road;
use lfpr_graph::selfloops::add_self_loops;
use lfpr_graph::BatchSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn ranks(&mut self, r: &[f64]) {
        self.word(r.len() as u64);
        for x in r {
            self.word(x.to_bits());
        }
    }

    fn deltas(&mut self, d: &[lfpr_core::session::RankDelta]) {
        self.word(d.len() as u64);
        for x in d {
            self.word(x.vertex as u64);
            self.word(x.old.to_bits());
            self.word(x.new.to_bits());
        }
    }
}

fn session_hash(algo: Algorithm, layout: StorageLayout) -> u64 {
    let mut g = grid_road(50_000, 14);
    add_self_loops(&mut g);
    let opts = PagerankOptions::default().with_threads(1);
    let mut s = UpdateSession::new_with_layout(g, algo, opts, layout);
    s.enable_delta_tracking();
    let t = Teleport::personalized([(17, 1.0), (24_001, 2.0), (49_999, 1.0)]).unwrap();
    s.add_view("ego", t).unwrap();
    let mut h = Fnv(FNV_OFFSET);
    for step in 0..20u64 {
        let batch = BatchSpec::mixed(2e-4, 1400 + step).generate(s.graph());
        let stats = s.step(&batch).unwrap();
        assert!(stats.status.is_success(), "{algo} {layout} step {step}");
        h.ranks(s.ranks());
        h.deltas(s.last_deltas());
        h.ranks(s.view_ranks("ego").unwrap());
        h.deltas(s.view_deltas("ego").unwrap());
        for (v, r) in s.top_k(10) {
            h.word(v as u64);
            h.word(r.to_bits());
        }
    }
    h.0
}

/// The hash every combination must reproduce: one per algorithm, shared
/// by both layouts (1-thread runs are bit-identical across layouts).
const DF_LF_GOLDEN: u64 = 7_599_737_256_890_778_590;
const DT_LF_GOLDEN: u64 = 7_202_585_315_372_209_194;

#[test]
fn df_lf_packed_session_matches_golden_hash() {
    assert_eq!(
        session_hash(Algorithm::DfLF, StorageLayout::Packed),
        DF_LF_GOLDEN
    );
}

#[test]
fn df_lf_gapped_session_matches_golden_hash() {
    assert_eq!(
        session_hash(Algorithm::DfLF, StorageLayout::Gapped),
        DF_LF_GOLDEN
    );
}

#[test]
fn dt_lf_packed_session_matches_golden_hash() {
    assert_eq!(
        session_hash(Algorithm::DtLF, StorageLayout::Packed),
        DT_LF_GOLDEN
    );
}

#[test]
fn dt_lf_gapped_session_matches_golden_hash() {
    assert_eq!(
        session_hash(Algorithm::DtLF, StorageLayout::Gapped),
        DT_LF_GOLDEN
    );
}
