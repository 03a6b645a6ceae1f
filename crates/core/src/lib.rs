//! # nvpim-core
//!
//! The primary contribution of the `nvpim` reproduction of *"On Error
//! Correction for Nonvolatile Processing-In-Memory"* (ISCA 2024): two
//! single-error-protection (SEP) designs for PiM architectures that compute
//! inside nonvolatile memory arrays, plus the full-system machinery needed
//! to evaluate them.
//!
//! * [`config`] — design points: ECiM / TRiM / unprotected, multi- vs
//!   single-output gates, technology, Hamming code, array organization.
//! * [`checker`] — the external, hardened Checker blocks (Hamming syndrome
//!   decoder for ECiM, majority voter for TRiM) with a gate-count cost model.
//! * [`executor`] — functional execution of compiled schedules on a
//!   simulated array with in-memory metadata maintenance, logic-level checks
//!   and correction write-back; the vehicle for fault-injection experiments.
//! * [`sliced`] — the same semantics on the transposed bit-sliced array,
//!   advancing 64 Monte Carlo trials per word operation with bit-identical
//!   per-trial results.
//! * [`sep`] — the SEP guarantee analysis of Fig. 6 and the check-granularity
//!   design space.
//! * [`system`] — the analytic timing/energy model that regenerates the
//!   paper's evaluation (Fig. 7, Table IV, Table V) from compiled schedules.
//!
//! # Examples
//!
//! Estimating ECiM's and TRiM's overheads on a small dot-product workload:
//!
//! ```
//! use nvpim_compiler::builder::CircuitBuilder;
//! use nvpim_core::config::DesignConfig;
//! use nvpim_core::system::{compare, evaluate, WorkloadShape};
//! use nvpim_sim::technology::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CircuitBuilder::new();
//! let mut acc = b.constant_word(0, 16);
//! for _ in 0..4 {
//!     let x = b.input_word(4);
//!     let w = b.input_word(4);
//!     acc = b.mac(&acc, &x, &w);
//! }
//! b.mark_output_word(&acc);
//! let netlist = b.finish();
//!
//! let shape = WorkloadShape::new("dot4", 256, 1);
//! let tech = Technology::SttMram;
//! let baseline = evaluate(&netlist, &shape, &DesignConfig::unprotected(tech))?;
//! let ecim = evaluate(&netlist, &shape, &DesignConfig::ecim(tech))?;
//! let overhead = compare(&ecim, &baseline);
//! assert!(overhead.time_overhead_pct > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod config;
pub mod executor;
pub mod scheme;
pub mod schemes;
pub mod sep;
pub mod sliced;
pub mod system;

pub use checker::{CheckerCostModel, EcimChecker, TrimChecker};
pub use config::{DesignConfig, GateStyle, ProtectionScheme};
pub use executor::{ExecScratch, ProtectedExecError, ProtectedExecutor, ProtectedRunReport};
pub use scheme::{registry as scheme_registry, CostEnv, SchemeCapabilities, SchemeRuntime};
pub use sep::{figure6_cases, granularity_analysis};
pub use sliced::{SlicedExecScratch, SlicedExecutor, SlicedRunReport};
pub use system::{
    compare, evaluate, evaluate_benchmark, evaluate_schedule, CostBreakdown, ExecutionEstimate,
    OverheadReport, WorkloadShape,
};
