//! `trng-testkit` — hermetic, zero-dependency test infrastructure.
//!
//! Every crate in this workspace builds and tests **offline**: no
//! registry crates, no network, no non-determinism that cannot be
//! pinned by a seed. This crate supplies the infrastructure that
//! external crates used to provide:
//!
//! * [`prng`] — a seedable xoshiro256++ generator plus the small
//!   `rand`-style trait surface ([`prng::Rng`], [`prng::RngCore`],
//!   [`prng::SeedableRng`]) the workspace consumes. Replaces the
//!   `rand` crate.
//! * [`prop`] — a minimal property-testing harness: seeded case
//!   generation, case count configurable via `TRNG_PROP_CASES`,
//!   failing-seed reporting and single-seed replay via
//!   `TRNG_PROP_SEED`. Replaces `proptest` (no shrinking by design —
//!   a failing seed reproduces the exact case).
//! * [`bench`](mod@bench) — what the `harness = false` bench targets
//!   share: a knob reader that panics on an unparsable value, and the
//!   writer of their `BENCH_<name>.json` reports.
//! * [`json`] — a tiny JSON writer used by the bench reports (the
//!   workspace's serialization shim; replaces the optional `serde`
//!   derives, which were removed).
//! * [`alloc_counter`] — a counting global allocator so tests can
//!   assert that hot paths are allocation-free in steady state.
//!
//! # Seeding policy
//!
//! All randomness in tests flows from explicit `u64` seeds through
//! [`prng::StdRng::seed_from_u64`](prng::SeedableRng::seed_from_u64). The property harness derives one
//! seed per case from the property name and case index, so runs are
//! reproducible across machines and parallel test threads.

pub mod alloc_counter;
pub mod bench;
pub mod json;
pub mod prng;
pub mod prop;
