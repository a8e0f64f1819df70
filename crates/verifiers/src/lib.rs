//! # smacs-verifiers — runtime-verification tools for SMACS ACRs (§V)
//!
//! "Defensive logics with arbitrary complexity can be plugged into SMACS."
//! This crate provides the two concrete instantiations the paper evaluates:
//!
//! - [`ecf`] — a dynamic **effectively-callback-free** checker in the
//!   spirit of ECFChecker (Grossman et al.): it analyses execution traces
//!   for re-entered contracts whose storage accesses interleave in a
//!   non-serializable way (the TheDAO pattern), and a
//!   [`smacs_ts::ValidationTool`] that simulates requested calls on the
//!   TS's forked testnet and vetoes issuance on a violation;
//! - [`hydra`] — the **Hydra uniformity** rule: N independent head
//!   implementations of the protected logic run on the TS's forked
//!   testnet, one dry run each, and a token is issued only when every head
//!   produces the identical output.
//!   "In contrast to Hydra, heads in SMACS are run by a TS on its local
//!   testnet … and therefore it is possible to implement more heads …
//!   without introducing additional on-chain cost."

#![forbid(unsafe_code)]

pub mod ecf;
pub mod hydra;

pub use ecf::{check_trace_ecf, EcfTool, EcfVerdict, EcfViolation};
pub use hydra::{HydraTool, HydraVerdict};
