//! # lrb-engine — a snapshot-isolated concurrent selection service
//!
//! The paper gives exact-probability roulette selection for a *single
//! owner*; the production setting the ROADMAP aims at is many reader
//! threads sampling **while** writers mutate the weights. This crate
//! supplies that serving layer:
//!
//! * [`SelectionEngine`] — writers enqueue weight overrides and
//!   multiplicative evaporation scales into a **coalescing batch**
//!   (last-write-wins per category, scales folded into one factor — the
//!   `DesirabilityTables` algebra lifted to the serving layer), then
//!   [`publish`](SelectionEngine::publish) freezes the folded weights into
//!   an immutable [`Snapshot`] and atomically swaps it in.
//! * [`Snapshot`] — a versioned, immutable frozen sampler. Readers acquire
//!   it **lock-free**: the current snapshot lives in a hand-rolled
//!   `AtomicPtr` swap cell with generation-checked reclamation
//!   (`hot_swap`, no crates.io dependency), fronted by a thread-local
//!   version-checked cache, so the steady-state path of
//!   [`SelectionEngine::read`] is one relaxed generation probe plus a TLS
//!   hit — no shared RMW, no allocation. Draws fill whole buffers through
//!   [`Snapshot::sample_into`] (served-draws telemetry lands on per-reader
//!   padded shards), or deterministic rayon batches through the shared
//!   `lrb_core::batch::BatchDriver`; every draw is exact
//!   (`F_i = w_i / Σ w_j`) against the snapshot's weights, so concurrent
//!   publication can never tear a reader across two distributions.
//! * [`BackendRegistry`] — the sampler families snapshots can be frozen
//!   under, as [`FrozenBackend`] trait objects: Fenwick tree (`O(log n)`
//!   draws, skew-immune), Vose alias table (`O(1)` draws, priciest build),
//!   stochastic acceptance (`O(1)` expected draws on balanced weights) —
//!   plus anything the caller registers.
//! * [`choose_backend`] / [`heuristic::cheapest_for_publish`] — the
//!   decider: each backend prices a publish window as
//!   `freeze + draws · per_draw` in abstract ops, where *freeze* is a full
//!   build — or, for the incumbent backend, an **incremental patch** of
//!   the previous snapshot with the coalesced batch (Fenwick:
//!   `O(d · log n)` point updates on a pooled copy; stochastic acceptance:
//!   `O(d)` aggregate maintenance; the alias table always rebuilds, with
//!   its Vose worklists classified rayon-parallel). The closed-form
//!   arg-min picks backend and patch-versus-rebuild at every publish
//!   ([`PatchPolicy`] overrides the freeze path for tests), with `draws`
//!   read from an EWMA of the draws each outgoing snapshot served.
//!   Switches land in [`SelectionEngine::switch_history`].
//!
//! ## Quickstart
//!
//! ```
//! use lrb_engine::{EngineConfig, SelectionEngine};
//! use lrb_rng::{MersenneTwister64, SeedableSource};
//!
//! let engine = SelectionEngine::new(vec![1.0, 2.0, 3.0, 4.0], EngineConfig::default())?;
//! let mut rng = MersenneTwister64::seed_from_u64(7);
//!
//! // Reader side: grab a snapshot, fill buffers lock-free.
//! let snapshot = engine.snapshot();
//! let mut picks = vec![0usize; 1_000];
//! snapshot.sample_into(&mut rng, &mut picks)?;
//!
//! // Writer side: batch, evaporate, publish.
//! engine.scale_all(0.5)?;
//! engine.enqueue(0, 10.0)?;
//! engine.publish()?;
//! assert_eq!(engine.snapshot().weight(0), 10.0);
//! assert_eq!(engine.snapshot().weight(3), 2.0);
//! # Ok::<(), lrb_core::SelectionError>(())
//! ```

// `deny`, not `forbid`: the one module implementing the lock-free snapshot
// swap (`hot_swap`) carries an audited `#[allow(unsafe_code)]` with its
// safety argument in the module docs; everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod engine;
pub mod heuristic;
mod hot_swap;
mod queue;
pub mod snapshot;
pub mod telemetry;

pub use backend::{
    AliasBackend, BackendCost, BackendRegistry, BuildScratch, FenwickBackend, FrozenBackend,
    StochasticAcceptanceBackend,
};
pub use engine::{BackendSwitch, EngineConfig, EngineStats, PatchPolicy, SelectionEngine};
pub use heuristic::{choose_backend, BackendChoice, Ewma, WorkloadProfile};
pub use lrb_durable::{Durability, FsyncPolicy, WalOptions};
pub use snapshot::Snapshot;
pub use telemetry::{EngineEvent, EngineTelemetry, JournalEntry, JOURNAL_CAPACITY};
