//! Built-in [`SchemeRuntime`](crate::scheme::SchemeRuntime)
//! implementations — one module per protection scheme.
//!
//! Each module is self-contained: identity, row geometry, capability
//! declarations, the §V analytic cost hooks, and both Monte Carlo run paths
//! (scalar and, where declared, bit-sliced) live in one file. Adding a
//! scheme is writing one such file and appending its static to
//! [`crate::scheme::registry`]; no executor, engine, service or CLI code
//! changes. [`parity_detect`] was added exactly that way and is the
//! template to copy. [`detect_recompute`] shows the other route: it runs
//! ParityDetect's parity pipeline and supplies only its per-level mismatch
//! handler.

pub mod detect_recompute;
pub mod ecim;
pub mod parity_detect;
pub mod trim;
pub mod unprotected;
