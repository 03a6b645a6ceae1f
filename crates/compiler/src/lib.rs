//! # nvpim-compiler
//!
//! The application-mapping flow of the `nvpim` reproduction of *"On Error
//! Correction for Nonvolatile Processing-In-Memory"* (ISCA 2024): §II-B's
//! three compilation steps, realized as
//!
//! 1. **Intermediate code generation** — workloads express fixed-point
//!    arithmetic with [`builder::CircuitBuilder`], which identifies the
//!    multi-bit operations and their operands;
//! 2. **Gate-level opcode generation** — the builder lowers everything to
//!    the PiM-native NOR / THR / copy gate library ([`netlist`]);
//! 3. **Binary instruction translation** — [`schedule::map_netlist`] assigns
//!    physical row columns with a greedy scratch allocator (area reclaims,
//!    spills). The resulting [`schedule::RowSchedule`] runs as in-array gate
//!    operations through `nvpim-core`'s executors.
//!
//! # Examples
//!
//! ```
//! use nvpim_compiler::builder::CircuitBuilder;
//! use nvpim_compiler::layout::RowLayout;
//! use nvpim_compiler::schedule::map_netlist;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 4x4-bit multiplier, mapped onto a 256-column row.
//! let mut b = CircuitBuilder::new();
//! let x = b.input_word(4);
//! let y = b.input_word(4);
//! let p = b.mul_unsigned(&x, &y);
//! b.mark_output_word(&p);
//! let netlist = b.finish();
//!
//! let schedule = map_netlist(&netlist, RowLayout::unprotected(256))?;
//! assert!(schedule.gate_op_count() > 0);
//! assert!(schedule.depth() > 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod builder;
pub mod layout;
pub mod netlist;
pub mod schedule;

pub use alloc::{ReclaimEvent, ScratchAllocator};
pub use builder::{CircuitBuilder, Word};
pub use layout::RowLayout;
pub use netlist::{Gate, LogicOp, NetId, Netlist, NetlistStats};
pub use schedule::{map_netlist, LevelProfile, MapError, RowSchedule, ScheduledGate};
