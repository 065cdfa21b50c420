//! # lfpr-core — lock-free dynamic PageRank
//!
//! Reproduction of *"Lock-Free Computation of PageRank in Dynamic
//! Graphs"* (Sahu, 2024; arXiv:2407.19562). The crate implements all
//! eight algorithm variants the paper evaluates, plus a high-precision
//! sequential reference used for error measurement:
//!
//! | | barrier-based | lock-free |
//! |---|---|---|
//! | full recompute | [`static_bb`] (Alg. 3) | [`static_lf`] (Alg. 4) |
//! | naive-dynamic | [`nd_bb`] (Alg. 5) | [`nd_lf`] (Alg. 6) |
//! | dynamic traversal | [`dt_bb`] (Alg. 7) | [`dt_lf`] (Alg. 8) |
//! | **dynamic frontier** | [`df_bb`] (Alg. 1) | [`df_lf`] (Alg. 2) |
//!
//! The lock-free variants run on shared atomic rank/flag vectors with
//! wait-free dynamic chunk scheduling (see `lfpr-sched`); they tolerate
//! random thread delays and crash-stop failures (§4.4). The
//! barrier-based variants synchronize at instrumented barriers and are
//! used both as baselines and to reproduce the paper's wait-time and
//! fault experiments (Figures 1, 8, 9).
//!
//! ## Quick start
//!
//! ```
//! use lfpr_graph::{GraphBuilder, BatchSpec, selfloops::add_self_loops};
//! use lfpr_core::{api, Algorithm, PagerankOptions};
//!
//! // Build a small graph (self-loops eliminate dead ends, §5.1.3).
//! let mut g = GraphBuilder::new(4)
//!     .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
//!     .build_dyn()
//!     .unwrap();
//! add_self_loops(&mut g);
//! let prev = g.snapshot();
//!
//! // Rank the initial graph.
//! let opts = PagerankOptions::default().with_threads(2);
//! let r0 = api::run_static(Algorithm::StaticLF, &prev, &opts);
//!
//! // Apply a batch update and incrementally update ranks with DFLF.
//! let batch = BatchSpec::mixed(0.25, 42).generate(&g);
//! g.apply_batch(&batch).unwrap();
//! let curr = g.snapshot();
//! let r1 = api::run_dynamic(Algorithm::DfLF, &prev, &curr, &batch, &r0.ranks, &opts);
//! assert!(r1.status.is_success());
//! ```

pub mod api;
pub(crate) mod bb_common;
pub mod config;
pub mod df_bb;
pub mod df_lf;
pub mod dt_bb;
pub mod dt_lf;
pub mod error;
pub mod frontier;
pub mod kernel;
pub mod lf_common;
pub mod nd_bb;
pub mod nd_lf;
pub mod norm;
pub mod rank;
pub mod reference;
pub mod result;
pub mod session;
pub mod static_bb;
pub mod static_lf;
pub mod topk;
pub mod vertex_dynamics;

pub use api::Algorithm;
pub use config::{ConvergenceMode, PagerankOptions, Teleport, TeleportWeights};
pub use lfpr_sched::{ChunkPolicy, ExecMode, Schedule};
pub use result::{PagerankResult, RunStatus};
pub use session::{RankDelta, RankReader, RankView, StepStats, StorageLayout, UpdateSession};
