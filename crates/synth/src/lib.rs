#![warn(missing_docs)]

//! # gepeto-synth
//!
//! A deterministic, seed-driven synthetic mobility workload generator
//! built to exercise the engine at **million-user** scale. Where
//! `gepeto-geolife` reproduces the paper's 178-user GeoLife aggregates
//! (dense 1–5 s logging, heavy trails), this crate answers the scaling
//! question the paper leaves open: what happens when the *user* axis
//! grows by four orders of magnitude?
//!
//! Every user gets a personal geography (home and work anchors plus a
//! few leisure POIs around a Beijing-like city) and a daily movement
//! profile: wake at home, commute to work along a waypoint trail, a
//! Gamma-distributed work dwell, an optional evening POI visit, and the
//! commute home. Dwell times are Erlang samples (sums of exponentials —
//! the integer-shape Gamma), so the dwell distribution has the heavy
//! right tail real mobility data shows without ever leaving the
//! deterministic [`rand`] shim.
//!
//! Two properties make the output usable as an engine stress workload:
//!
//! 1. **Bit-reproducible.** Each user's trail is derived from its own
//!    RNG stream seeded by `(master seed, user id)` alone, so any subset
//!    of users, generated in any order, on any thread count, is
//!    identical bit for bit.
//! 2. **Streaming.** [`TraceStream`] yields traces user by user in time
//!    order while holding at most one user's trail in memory — the serial
//!    reference. [`SynthConfig::to_dfs`] writes the same records through
//!    `Dfs::put_blocks`: 1 024-user blocks generated on every pool thread
//!    and sealed, in block order, into exactly the chunks
//!    `Dfs::put_from_iter` would cut from the stream. Memory stays at one
//!    chunk plus two waves of blocks — one million users never exist as a
//!    single `Vec` anywhere on the write path.

pub mod dwell;
pub mod gen;

pub use gen::{SynthConfig, TraceStream};
