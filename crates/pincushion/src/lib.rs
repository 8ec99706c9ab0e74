//! # pincushion — the pinned-snapshot registry (§5.4)
//!
//! The pincushion is the lightweight daemon that keeps track of which
//! database snapshots are pinned, when (in wall-clock time) each was pinned,
//! and how many running transactions might be using it. When the TxCache
//! library begins a read-only transaction it asks the pincushion for every
//! pinned snapshot fresh enough for the transaction's staleness limit; the
//! returned set becomes the transaction's initial pin set (§6.2). The
//! pincushion also reaps old, unused snapshots by asking the database to
//! `UNPIN` them.
//!
//! **Pin ownership.** The pincushion is the only long-term holder of
//! database pins: it holds exactly one per timestamp it tracks, and `reap`
//! hands back exactly that one for `UNPIN`. A library instance that pins a
//! snapshot registers it here; when [`Pincushion::register`] reports the
//! timestamp as already tracked, the new pin is a duplicate and the caller
//! releases it at once. Anything else leaks a pin that holds the database's
//! vacuum horizon back for good.
//!
//! In the paper the pincushion is a separate network daemon; here it is an
//! in-process service in the library tier (the root README's "Architecture"
//! and "Workspace map" sections), internally locked so any number of
//! simulated application servers can share one instance.

#![forbid(unsafe_code)]

pub mod registry;

pub use registry::{Pincushion, PincushionConfig, PincushionStats, PinnedSnapshot};
