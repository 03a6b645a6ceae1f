//! # nvpim-sim
//!
//! Nonvolatile processing-in-memory array substrate for the `nvpim`
//! reproduction of *"On Error Correction for Nonvolatile
//! Processing-In-Memory"* (ISCA 2024).
//!
//! This crate models the three in-array computing technologies the paper
//! evaluates (ReRAM, STT-MRAM and SOT/SHE-MRAM) at the level the paper's
//! error-correction designs need:
//!
//! * [`technology`] — device parameters (Table III) and resistance↔logic
//!   encodings,
//! * [`gates`] — in-array NOR / multi-output NOR / THR gate semantics and
//!   the 2-step / 3-step XOR constructions of Table I,
//! * [`array`] — a functional array simulator with fault injection (the
//!   scalar oracle the lane engine is checked against),
//! * [`fault`] — the direct-soft-error model of §II-C: gate-output flips
//!   plus stuck-at defects, the one fault space both injectors draw,
//! * [`sliced`] — the transposed, bit-sliced batch backend (one trial per
//!   `u64` lane) with lane-masked fault injection,
//! * [`electrical`] — the Appendix's bias-window / noise-margin analysis for
//!   multi-output gates (Fig. 9),
//! * [`periphery`] — the NVSim-substitute peripheral cost model.
//!
//! Time and energy figures are not metered here: they come from the
//! schedule-level cost model in `nvpim-core` (`system::evaluate_schedule`).
//!
//! # Examples
//!
//! Running the paper's 2-step XOR (Table I) inside a simulated STT-MRAM
//! array:
//!
//! ```
//! use nvpim_sim::array::PimArray;
//! use nvpim_sim::gates::GateKind;
//! use nvpim_sim::technology::Technology;
//!
//! # fn main() -> Result<(), nvpim_sim::array::ArrayError> {
//! let mut array = PimArray::new(Technology::SttMram, 1, 8);
//! array.poke(0, 0, true)?;  // a = 1
//! array.poke(0, 1, false)?; // b = 0
//!
//! // Step 1: s1 = s2 = NOR22(a, b)
//! array.execute_gate_with(GateKind::NOR22, 0, &[0, 1], &[2, 3])?;
//! // Step 2: out = THR(a, b, s1, s2)
//! let out = array.execute_gate_with(GateKind::THR, 0, &[0, 1, 2, 3], &[4])?;
//! assert_eq!(out, true ^ false);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod electrical;
pub mod fault;
pub mod gates;
pub mod periphery;
pub mod sliced;
pub mod technology;

pub use array::{ArrayError, PimArray};
pub use electrical::{ElectricalModel, OutputPlacement};
pub use fault::{ErrorRates, FaultInjector};
pub use gates::GateKind;
pub use periphery::PeripheryModel;
pub use sliced::{SlicedFaultInjector, SlicedPimArray, LANES};
pub use technology::{ResistanceState, Technology, TechnologyParams};
