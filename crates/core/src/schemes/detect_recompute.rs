//! DetectRecompute — online parity detection with bounded software
//! recompute of the affected logic level.
//!
//! The scheme runs ParityDetect's detection pipeline itself — the shared
//! `run_parity_scalar` / `run_parity_sliced` — so every protected gate
//! output is folded (two-step in-array XOR) into a single running parity
//! cell, and at every logic-level boundary the external Checker
//! XOR-reduces the level's read-back outputs against it. Only the
//! mismatch handler differs. ParityDetect can only account a would-be
//! retry; DetectRecompute *recovers*: the pipeline hands its handler the
//! level's gate slice, which re-evaluates each protected gate of the level
//! in periphery logic from the currently stored input cells and writes any
//! disagreeing output back through the verified write port. The recompute
//! is bounded — one logic level, the detection granularity — and is
//! data-driven only in *whether* it runs, never in the in-array operation
//! sequence, which stays a pure function of the schedule. That keeps the
//! scheme lane-batched (64 lanes share one gate program; recompute patches
//! only the mismatching lanes with no RNG consumption) and keeps its
//! zero-fault trials analytically settleable.
//!
//! Under permanent stuck-at defects the verified write-back cannot repair a
//! broken cell: a recomputed value landing on a defective output cell stays
//! pinned, and the scheme reports each such residually wrong gate as
//! `uncorrectable` — detected, recomputed, and still lost to the hardware.
//! Like parity detection generally, even-weight error patterns within one
//! level escape the fold and are neither detected nor recomputed.
//!
//! The metadata region (columns `0..5`) and the analytic cost model are
//! ParityDetect's; the scheme delegates both.

use nvpim_compiler::netlist::{LogicOp, Netlist};
use nvpim_compiler::schedule::{RowSchedule, ScheduledGate};
use nvpim_ecc::gf2::lanes::at_least_three_zeros;
use nvpim_sim::array::PimArray;
use nvpim_sim::sliced::SlicedPimArray;

use crate::checker::CheckerCostModel;
use crate::config::DesignConfig;
use crate::executor::{ExecScratch, ProtectedExecError, ProtectedExecutor, ProtectedRunReport};
use crate::scheme::{CostEnv, SchemeRuntime};
use crate::schemes::parity_detect::{
    is_protected, run_parity_scalar, run_parity_sliced, ParityDetectScheme,
};
use crate::sliced::{SlicedExecScratch, SlicedExecutor, SlicedRunReport};
use crate::system::CostBreakdown;

/// DetectRecompute's runtime (registered as `"DetectRecompute"`).
#[derive(Debug)]
pub struct DetectRecomputeScheme;

impl SchemeRuntime for DetectRecomputeScheme {
    fn wire_name(&self) -> &'static str {
        "DetectRecompute"
    }

    fn display_name(&self) -> &'static str {
        "detect-recompute"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["recompute", "DetectRecomputeScheme"]
    }

    fn metadata_columns(&self, config: &DesignConfig) -> usize {
        ParityDetectScheme.metadata_columns(config)
    }

    fn detect_only(&self) -> bool {
        false
    }

    fn recompute(&self) -> bool {
        true
    }

    fn stuck_at_aware(&self) -> bool {
        true
    }

    fn parity_bits(&self, config: &DesignConfig) -> usize {
        ParityDetectScheme.parity_bits(config)
    }

    fn checker_cost(&self, config: &DesignConfig) -> CheckerCostModel {
        ParityDetectScheme.checker_cost(config)
    }

    fn metadata_costs(
        &self,
        schedule: &RowSchedule,
        config: &DesignConfig,
        env: &CostEnv,
        b: &mut CostBreakdown,
    ) -> u64 {
        // ParityDetect's steady-state pipeline. Recompute cost is
        // event-driven (per detection), so it shows up in the Monte Carlo
        // counters, not in this analytic steady-state model.
        ParityDetectScheme.metadata_costs(schedule, config, env, b)
    }

    fn run_scalar(
        &self,
        exec: &ProtectedExecutor,
        netlist: &Netlist,
        schedule: &RowSchedule,
        array: &mut PimArray,
        row: usize,
        inputs: &[bool],
        scratch: &mut ExecScratch,
    ) -> Result<ProtectedRunReport, ProtectedExecError> {
        run_parity_scalar(
            exec,
            netlist,
            schedule,
            array,
            row,
            inputs,
            scratch,
            |array, used_nets, level, report| {
                recompute_level(netlist, used_nets, array, row, level, report)
            },
        )
    }

    fn run_sliced(
        &self,
        exec: &SlicedExecutor,
        netlist: &Netlist,
        schedule: &RowSchedule,
        array: &mut SlicedPimArray,
        row: usize,
        inputs: &[u64],
        scratch: &mut SlicedExecScratch,
    ) -> Result<SlicedRunReport, ProtectedExecError> {
        run_parity_sliced(
            exec,
            netlist,
            schedule,
            array,
            row,
            inputs,
            scratch,
            |array, used_nets, level, mismatch, report| {
                sliced_recompute_level(netlist, used_nets, array, row, level, mismatch, report);
            },
        )
    }
}

/// The mismatch handler: re-evaluate every protected gate of the level
/// from the currently stored input cells and write disagreeing outputs
/// back through the verified write port. Write-backs that a stuck cell
/// pins to the wrong value are counted as uncorrectable (the recompute was
/// right; the hardware cannot hold it).
fn recompute_level(
    netlist: &Netlist,
    used_nets: &[bool],
    array: &mut PimArray,
    row: usize,
    level: &[ScheduledGate],
    report: &mut ProtectedRunReport,
) -> Result<(), ProtectedExecError> {
    // Bounded recompute: the level's gates, in schedule order. Within a
    // level no gate feeds another, so the stored input cells are exactly
    // the pre-level state.
    for sg in level {
        if !is_protected(netlist, used_nets, sg) {
            continue;
        }
        let ideal = match sg.op {
            LogicOp::Nor => {
                let mut any = false;
                for &c in &sg.input_cols {
                    any |= array.peek(row, c)?;
                }
                !any
            }
            LogicOp::Thr => {
                let mut zeros = 0u32;
                for &c in &sg.input_cols {
                    zeros += u32::from(!array.peek(row, c)?);
                }
                zeros >= 3
            }
            LogicOp::Copy => array.peek(row, sg.input_cols[0])?,
            LogicOp::Zero | LogicOp::One => unreachable!("constants are never protected"),
        };
        // The Checker rewrites every output of the level (it cannot know
        // which bit slipped); counters record what the write actually
        // achieved against the stored state.
        for &col in &sg.output_cols {
            let before = array.peek(row, col)?;
            array.write_cell(row, col, ideal)?;
            let after = array.peek(row, col)?;
            if after == ideal && after != before {
                report.corrections_written_back += 1;
            } else if after != ideal {
                report.uncorrectable += 1;
            }
        }
    }
    Ok(())
}

/// Lane-parallel twin of [`recompute_level`]: the recompute patches only
/// the `mismatch` lanes (word surgery under the mask) and consumes no RNG,
/// so lane streams stay bit-identical to scalar trials.
fn sliced_recompute_level(
    netlist: &Netlist,
    used_nets: &[bool],
    array: &mut SlicedPimArray,
    row: usize,
    level: &[ScheduledGate],
    mismatch: u64,
    report: &mut SlicedRunReport,
) {
    for sg in level {
        if !is_protected(netlist, used_nets, sg) {
            continue;
        }
        let ideal = match sg.op {
            LogicOp::Nor => {
                let mut any = 0u64;
                for &c in &sg.input_cols {
                    any |= array.cell(row, c);
                }
                !any
            }
            LogicOp::Thr => at_least_three_zeros(sg.input_cols.iter().map(|&c| array.cell(row, c))),
            LogicOp::Copy => array.cell(row, sg.input_cols[0]),
            LogicOp::Zero | LogicOp::One => unreachable!("constants are never protected"),
        };
        for &col in &sg.output_cols {
            let before = array.cell(row, col);
            // Lane surgery: only the mismatching lanes receive the verified
            // write; stuck cells pin it exactly like the scalar
            // write-verified port. `mismatch` holds valid lanes only.
            array.write_masked_lanes(row, col, ideal, mismatch);
            let after = array.cell(row, col);
            let mut fixed = (before ^ after) & !(after ^ ideal) & mismatch;
            while fixed != 0 {
                let lane = fixed.trailing_zeros() as usize;
                fixed &= fixed - 1;
                report.corrections_written_back[lane] += 1;
            }
            let mut residual = (after ^ ideal) & mismatch;
            while residual != 0 {
                let lane = residual.trailing_zeros() as usize;
                residual &= residual - 1;
                report.uncorrectable[lane] += 1;
            }
        }
    }
}
