//! # lfpr-graph — dynamic directed-graph substrate
//!
//! This crate provides everything the PageRank algorithms in `lfpr-core`
//! need from a graph system, built from scratch:
//!
//! * an immutable **paged CSR snapshot** ([`Snapshot`]) with both out- and
//!   in-adjacency (pull-style PageRank iterates over in-edges and divides
//!   by the source's out-degree), derived copy-on-write per batch so a
//!   commit rebuilds only the pages it touches,
//! * a **mutable dynamic graph** ([`DynGraph`]) supporting batch edge
//!   insertions and deletions, from which read-only snapshots are taken —
//!   the paper (§3.4) assumes interleaved update/compute phases over
//!   read-only snapshots,
//! * **batch-update generation** ([`batch`]) following the paper's protocol
//!   (§5.1.4): an equal mix of uniform-random deletions of existing edges
//!   and insertions of previously absent edges, measured as a fraction of
//!   `|E|`,
//! * **graph generators** ([`generators`]) standing in for the SuiteSparse /
//!   SNAP datasets of Tables 1–2: RMAT web/social graphs, grid road
//!   networks, k-mer chain graphs, Erdős–Rényi graphs, and timestamped
//!   temporal edge streams,
//! * **self-loop dead-end elimination** ([`selfloops`]) as the paper does
//!   (§5.1.3) to avoid the global teleport-rank correction,
//! * **streaming graph ingestion** ([`io`]): mmap + parallel byte-chunk
//!   parsing of SNAP edge lists and MatrixMarket `.mtx` files on the
//!   persistent worker pool, plus real-format fixture writers
//!   ([`io::fixtures`]) so the benches can exercise the full
//!   disk → parse → CSR → kernel path offline.
//!
//! Vertex ids are `u32` (paper §5.1.2) and edge counts `usize`.

pub mod analysis;
pub mod batch;
pub mod builder;
pub mod csr;
pub mod digraph;
pub mod gapped;
pub mod generators;
pub mod io;
pub mod partition;
pub mod reorder;
pub mod runs;
pub mod scc;
pub mod selfloops;
pub mod snapshot;
pub mod types;

pub use batch::{BatchSpec, BatchUpdate};
pub use builder::GraphBuilder;
pub use csr::Csr;
pub use digraph::DynGraph;
pub use gapped::{GappedGraph, PrevRuns, SlackStats};
pub use io::GraphFormat;
pub use partition::{Partition, PartitionStrategy};
pub use reorder::{ReorderStrategy, Reordering};
pub use runs::{out_degrees, NeighborRuns, WithDegrees};
pub use snapshot::Snapshot;
pub use types::{Edge, VertexId};
