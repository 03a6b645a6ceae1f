//! DetectRecompute — online parity detection with bounded software
//! recompute of the affected logic level.
//!
//! The scheme keeps ParityDetect's detection machinery byte for byte: every
//! protected gate output is folded (two-step in-array XOR) into a single
//! running parity cell, and at every logic-level boundary the external
//! Checker XOR-reduces the level's read-back outputs against it. The
//! difference is what happens on a mismatch. ParityDetect can only account
//! a would-be retry; DetectRecompute *recovers*: the Checker already holds
//! the level's gate list, re-evaluates each protected gate of the level in
//! periphery logic from the currently stored input cells, and writes any
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
//! Metadata-region layout (columns `0..5`), identical to ParityDetect:
//!
//! ```text
//! 0  ping running-parity cell
//! 1  pong running-parity cell
//! 2  XOR working cell s1
//! 3  XOR working cell s2
//! 4  redundant-copy cell r (the gate's extra output, folded into parity)
//! ```

use nvpim_compiler::netlist::{LogicOp, Netlist};
use nvpim_compiler::schedule::RowSchedule;
use nvpim_ecc::gf2::lanes::at_least_three_zeros;
use nvpim_sim::array::PimArray;
use nvpim_sim::gates::GateKind;
use nvpim_sim::sliced::SlicedPimArray;

use crate::checker::CheckerCostModel;
use crate::config::{DesignConfig, GateStyle};
use crate::executor::{ExecScratch, ProtectedExecError, ProtectedExecutor, ProtectedRunReport};
use crate::scheme::{CostEnv, SchemeRuntime};
use crate::schemes::parity_detect::ParityDetectChecker;
use crate::sliced::{SlicedExecScratch, SlicedExecutor, SlicedRunReport};
use crate::system::{CostBreakdown, CHECKER_EXPOSED_FRACTION};

/// Column indices within the metadata region.
const PING: usize = 0;
const PONG: usize = 1;
const WORK_S1: usize = 2;
const WORK_S2: usize = 3;
const R_CELL: usize = 4;
/// Columns the scheme reserves per row.
const METADATA_COLUMNS: usize = 5;

/// DetectRecompute's runtime (registered as `"DetectRecompute"`).
#[derive(Debug)]
pub struct DetectRecomputeScheme;

/// Whether a scheduled gate participates in the parity fold (and therefore
/// in a level recompute): constants and dead nets run plain.
fn is_protected(netlist: &Netlist, used_nets: &[bool], sg_index: usize, op: &LogicOp) -> bool {
    !matches!(op, LogicOp::Zero | LogicOp::One) && used_nets[netlist.gates[sg_index].output]
}

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

    fn metadata_columns(&self, _config: &DesignConfig) -> usize {
        METADATA_COLUMNS
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

    fn parity_bits(&self, _config: &DesignConfig) -> usize {
        1
    }

    fn checker_cost(&self, config: &DesignConfig) -> CheckerCostModel {
        CheckerCostModel::for_parity(config.data_bits())
    }

    fn metadata_costs(
        &self,
        schedule: &RowSchedule,
        config: &DesignConfig,
        env: &CostEnv,
        b: &mut CostBreakdown,
    ) -> u64 {
        // Identical steady-state pipeline to ParityDetect: one redundant
        // copy per output, one two-step XOR fold into the single running
        // parity cell, serialized through that cell. Recompute cost is
        // event-driven (per detection), so it shows up in the Monte Carlo
        // counters, not in this analytic steady-state model.
        let parity_parallelism = 1.0;
        let checker_cost = self.checker_cost(config);
        let mut checker_traffic_bits = 0u64;
        let mut meta_ops_total = 0.0f64;
        for level in &schedule.level_profile {
            let outputs = (level.nor_ops + level.thr_ops + level.copy_ops) as f64;
            if outputs == 0.0 {
                continue;
            }
            let (r_ops, xor_steps) = if env.multi_output {
                (0.0f64, 2.0f64)
            } else {
                (1.0, 3.0)
            };
            meta_ops_total += outputs * (r_ops + xor_steps);

            let xor_energy = if env.multi_output {
                2.0 * env.nor_e + env.thr_e
            } else {
                3.0 * env.nor_e + env.thr_e + env.write_e
            };
            let r_gen_energy = if env.multi_output {
                env.nor_e
            } else {
                2.0 * env.nor_e + env.write_e
            };
            b.metadata_energy_fj += outputs * (r_gen_energy + xor_energy);
            b.write_energy_fj += env.write_e;

            let bits = outputs as usize + 1;
            checker_traffic_bits += bits as u64;
            b.checker_time_ns += CHECKER_EXPOSED_FRACTION * env.periphery.read_latency(bits);
            b.checker_comm_energy_fj += env.periphery.read_energy(bits);
            b.checker_logic_energy_fj += checker_cost.energy_per_check_fj;
        }
        b.metadata_time_ns +=
            ((meta_ops_total / parity_parallelism) * env.t_gate - b.compute_time_ns).max(0.0);
        checker_traffic_bits
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
        let config = exec.config();
        assert!(
            config.metadata_columns() >= METADATA_COLUMNS,
            "DetectRecompute metadata region too small"
        );
        scratch.parity_in_pong.clear();
        scratch.parity_in_pong.resize(1, false);
        scratch.chunk_cols.clear();

        let mut checker = ParityDetectChecker::new();
        let mut metadata_gate_ops = 0u64;
        let mut errors_detected = 0u64;
        let mut corrections = 0u64;
        let mut uncorrectable = 0u64;

        array.preset_cells(row, PING..PONG + 1, false)?;
        scratch.parity_in_pong[0] = false;
        let mut current_level = schedule.gates.first().map(|g| g.level).unwrap_or(0);

        for sg in &schedule.gates {
            if sg.level != current_level {
                flush_and_recompute(
                    netlist,
                    schedule,
                    array,
                    row,
                    current_level,
                    &mut checker,
                    scratch,
                    &mut errors_detected,
                    &mut corrections,
                    &mut uncorrectable,
                )?;
                array.preset_cells(row, PING..PONG + 1, false)?;
                scratch.parity_in_pong[0] = false;
                current_level = sg.level;
            }
            exec.materialize_inputs(netlist, sg, array, row, inputs, scratch)?;

            if !is_protected(netlist, &scratch.used_nets, sg.index, &sg.op) {
                exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols)?;
                continue;
            }

            match config.gate_style {
                GateStyle::MultiOutput => {
                    exec.execute_plain_gate(sg, array, row, &[R_CELL], &mut scratch.out_cols)?;
                    metadata_gate_ops += 1;
                }
                GateStyle::SingleOutput => {
                    exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols)?;
                    let kind = match sg.op {
                        LogicOp::Nor => GateKind::NOR2,
                        LogicOp::Thr => GateKind::THR,
                        LogicOp::Copy => GateKind::Copy,
                        LogicOp::Zero | LogicOp::One => unreachable!("constants handled above"),
                    };
                    array.execute_gate_with(kind, row, &sg.input_cols, &[R_CELL])?;
                    metadata_gate_ops += 1;
                }
            }

            let (src, dst) = if scratch.parity_in_pong[0] {
                (PONG, PING)
            } else {
                (PING, PONG)
            };
            array.execute_xor2_step(row, src, R_CELL, WORK_S1, WORK_S2, dst)?;
            scratch.parity_in_pong[0] = !scratch.parity_in_pong[0];
            metadata_gate_ops += 2;

            scratch.chunk_cols.push(sg.output_cols[0]);
        }
        flush_and_recompute(
            netlist,
            schedule,
            array,
            row,
            current_level,
            &mut checker,
            scratch,
            &mut errors_detected,
            &mut corrections,
            &mut uncorrectable,
        )?;

        Ok(ProtectedRunReport {
            outputs: exec.read_outputs(netlist, schedule, array, row, inputs)?,
            checks: checker.checks(),
            errors_detected,
            corrections_written_back: corrections,
            uncorrectable,
            metadata_gate_ops,
        })
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
        let config = exec.config();
        assert!(
            config.metadata_columns() >= METADATA_COLUMNS,
            "DetectRecompute metadata region too small"
        );
        scratch.parity_in_pong.clear();
        scratch.parity_in_pong.resize(1, false);
        scratch.chunk_cols.clear();

        let mut checker = ParityDetectChecker::new();
        let mut report = SlicedRunReport::new();

        array.preset_range(row, PING..PONG + 1, false);
        scratch.parity_in_pong[0] = false;
        let mut current_level = schedule.gates.first().map(|g| g.level).unwrap_or(0);

        for sg in &schedule.gates {
            if sg.level != current_level {
                sliced_flush_and_recompute(
                    netlist,
                    schedule,
                    array,
                    row,
                    current_level,
                    &mut checker,
                    scratch,
                    &mut report,
                );
                array.preset_range(row, PING..PONG + 1, false);
                scratch.parity_in_pong[0] = false;
                current_level = sg.level;
            }
            exec.materialize_inputs(netlist, sg, array, row, inputs, scratch);

            if !is_protected(netlist, &scratch.used_nets, sg.index, &sg.op) {
                exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols);
                continue;
            }

            match config.gate_style {
                GateStyle::MultiOutput => {
                    exec.execute_plain_gate(sg, array, row, &[R_CELL], &mut scratch.out_cols);
                    report.metadata_gate_ops += 1;
                }
                GateStyle::SingleOutput => {
                    exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols);
                    match sg.op {
                        LogicOp::Nor => array.gate_nor(row, &sg.input_cols, &[R_CELL]),
                        LogicOp::Thr => array.gate_thr(row, &sg.input_cols, R_CELL),
                        LogicOp::Copy => array.gate_copy(row, sg.input_cols[0], R_CELL),
                        LogicOp::Zero | LogicOp::One => unreachable!("constants handled above"),
                    }
                    report.metadata_gate_ops += 1;
                }
            }

            let (src, dst) = if scratch.parity_in_pong[0] {
                (PONG, PING)
            } else {
                (PING, PONG)
            };
            array.gate_xor2(row, src, R_CELL, WORK_S1, WORK_S2, dst);
            scratch.parity_in_pong[0] = !scratch.parity_in_pong[0];
            report.metadata_gate_ops += 2;

            scratch.chunk_cols.push(sg.output_cols[0]);
        }
        sliced_flush_and_recompute(
            netlist,
            schedule,
            array,
            row,
            current_level,
            &mut checker,
            scratch,
            &mut report,
        );

        exec.read_outputs(netlist, schedule, array, row, inputs, scratch);
        report.checks = checker.checks();
        Ok(report)
    }
}

/// Level-boundary flush: parity check, then — on a mismatch — re-evaluate
/// every protected gate of the level from the currently stored input cells
/// and write disagreeing outputs back through the verified write port.
/// Write-backs that a stuck cell pins to the wrong value are counted as
/// uncorrectable (the recompute was right; the hardware cannot hold it).
#[allow(clippy::too_many_arguments)]
fn flush_and_recompute(
    netlist: &Netlist,
    schedule: &RowSchedule,
    array: &mut PimArray,
    row: usize,
    level: usize,
    checker: &mut ParityDetectChecker,
    scratch: &mut ExecScratch,
    errors_detected: &mut u64,
    corrections: &mut u64,
    uncorrectable: &mut u64,
) -> Result<(), ProtectedExecError> {
    if scratch.chunk_cols.is_empty() {
        return Ok(());
    }
    let parity_col = if scratch.parity_in_pong[0] {
        PONG
    } else {
        PING
    };
    scratch.cols_b.clear();
    scratch.cols_b.push(parity_col);
    array.read_bits_into(row, &scratch.chunk_cols, &mut scratch.bits_a)?;
    array.read_bits_into(row, &scratch.cols_b, &mut scratch.bits_b)?;
    let data_parity = scratch.bits_a.iter_ones().count() % 2 == 1;
    if checker.check_level(data_parity, scratch.bits_b.get(0)) {
        *errors_detected += 1;
        // Bounded recompute: the schedule's gates of this level, in
        // schedule order. Within a level no gate feeds another, so the
        // stored input cells are exactly the pre-level state.
        for sg in schedule.gates.iter().filter(|g| g.level == level) {
            if !is_protected(netlist, &scratch.used_nets, sg.index, &sg.op) {
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
            // The Checker rewrites every output of the level (it cannot
            // know which bit slipped); counters record what the write
            // actually achieved against the stored state.
            for &col in &sg.output_cols {
                let before = array.peek(row, col)?;
                array.write_verified(row, col, ideal)?;
                let after = array.peek(row, col)?;
                if after == ideal && after != before {
                    *corrections += 1;
                } else if after != ideal {
                    *uncorrectable += 1;
                }
            }
        }
    }
    scratch.chunk_cols.clear();
    Ok(())
}

/// Lane-parallel twin of [`flush_and_recompute`]: the recompute patches
/// only the mismatching lanes (word surgery under the mismatch mask) and
/// consumes no RNG, so lane streams stay bit-identical to scalar trials.
#[allow(clippy::too_many_arguments)]
fn sliced_flush_and_recompute(
    netlist: &Netlist,
    schedule: &RowSchedule,
    array: &mut SlicedPimArray,
    row: usize,
    level: usize,
    checker: &mut ParityDetectChecker,
    scratch: &mut SlicedExecScratch,
    report: &mut SlicedRunReport,
) {
    if scratch.chunk_cols.is_empty() {
        return;
    }
    let SlicedExecScratch {
        chunk_cols,
        parity_in_pong,
        data_words,
        used_nets,
        ..
    } = scratch;
    data_words.clear();
    data_words.extend(chunk_cols.iter().map(|&c| array.cell(row, c)));
    let parity_col = if parity_in_pong[0] { PONG } else { PING };
    let parity_word = array.cell(row, parity_col);
    let valid = array.injector().valid_mask();
    let mismatch = checker.check_level_lanes(data_words, parity_word, valid);
    if mismatch != 0 {
        let mut flagged = mismatch;
        while flagged != 0 {
            let lane = flagged.trailing_zeros() as usize;
            flagged &= flagged - 1;
            report.errors_detected[lane] += 1;
        }
        for sg in schedule.gates.iter().filter(|g| g.level == level) {
            if !is_protected(netlist, used_nets, sg.index, &sg.op) {
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
                LogicOp::Thr => {
                    at_least_three_zeros(sg.input_cols.iter().map(|&c| array.cell(row, c)))
                }
                LogicOp::Copy => array.cell(row, sg.input_cols[0]),
                LogicOp::Zero | LogicOp::One => unreachable!("constants are never protected"),
            };
            for &col in &sg.output_cols {
                let before = array.cell(row, col);
                // Lane surgery: only the mismatching lanes receive the
                // verified write; stuck cells pin it exactly like the
                // scalar write-verified port.
                array.write_masked_lanes(row, col, ideal, mismatch);
                let after = array.cell(row, col);
                let mut fixed = (before ^ after) & !(after ^ ideal) & mismatch & valid;
                while fixed != 0 {
                    let lane = fixed.trailing_zeros() as usize;
                    fixed &= fixed - 1;
                    report.corrections_written_back[lane] += 1;
                }
                let mut residual = (after ^ ideal) & mismatch & valid;
                while residual != 0 {
                    let lane = residual.trailing_zeros() as usize;
                    residual &= residual - 1;
                    report.uncorrectable[lane] += 1;
                }
            }
        }
    }
    chunk_cols.clear();
}
