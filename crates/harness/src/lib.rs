//! # xt-harness — zero-dependency deterministic verification substrate
//!
//! Everything in this workspace that needs randomness or property
//! testing goes through this crate, so the whole
//! tree builds and tests **offline with an empty cargo registry**
//! (the hermetic-build policy; `scripts/ci.sh` enforces it).
//!
//! Two pieces:
//!
//! * [`Rng`] — a seedable SplitMix64 generator ([`rng`]). Same seed,
//!   same stream, every platform. This is the only randomness source
//!   allowed in the workspace.
//! * [`prop`] — a miniature property-testing engine: [`gen`] builds
//!   inputs ([`gen::ints`], [`gen::any`], [`gen::vec_of`],
//!   [`gen::choose`], tuples/arrays, [`gen::from_fn`]),
//!   [`prop::check`]/[`prop::check_with`] runs cases and greedily
//!   shrinks the first failure to a minimal counterexample, printing
//!   the seed for replay via `XT_HARNESS_SEED`.
//!
//! Host-speed measurement is not here: `benchmark/` (`xt-hostbench`,
//! CPU time, fixed work, digest-checked) is the one instrument.
//!
//! ## Porting cheat-sheet (proptest → xt-harness)
//!
//! | proptest | xt-harness |
//! |---|---|
//! | `any::<u32>()` | `gen::any::<u32>()` |
//! | `0u8..32` | `gen::ints(0u8..32)` |
//! | `sel(TABLE)` | `gen::choose(TABLE)` |
//! | `prop::collection::vec(g, 1..24)` | `gen::vec_of(g, 1..24)` |
//! | `(g1, g2)` strategy tuple | `(g1, g2)` generator tuple |
//! | `s.prop_map(f)` | `gen::map(s, f)` |
//! | arbitrary closure logic | `gen::from_fn(\|rng\| ...)` |
//! | `proptest! { #[test] fn p(x in g) {..} }` | `#[test] fn p() { prop::check("p", &g, \|x\| {..}) }` |
//! | `prop_assert*!` | plain `assert*!` (the runner catches panics) |
//! | `ProptestConfig::with_cases(n)` | `prop::Config::seeded_cases(seed, n)` |

#![warn(missing_docs)]

pub mod gen;
pub mod prop;
pub mod rng;

pub use gen::Gen;
pub use prop::{check, check_with, Config};
pub use rng::Rng;
