//! ECiM — error correction in memory (§IV-B/§IV-C): Hamming-code parity
//! maintained *in memory* by two-step in-array XOR folds, decoded by an
//! external Checker at logic-level granularity with correction write-back.
//!
//! Both run paths share one metadata-region layout (columns
//! `0..metadata_columns`):
//!
//! ```text
//! [0, p)           ping parity cells        (p = parity bits)
//! [p, 2p)          pong parity cells
//! [2p, 2p + 2)     XOR working cells (s1, s2)
//! [2p + 2, 3p + 2) independent redundant-copy cells (one r_i per parity
//!                  bit, §IV-E: an error in a given r may affect only a
//!                  single parity bit)
//! ```

use nvpim_compiler::netlist::{LogicOp, Netlist};
use nvpim_compiler::schedule::RowSchedule;
use nvpim_ecc::hamming::HammingCode;
use nvpim_sim::array::PimArray;
use nvpim_sim::gates::GateKind;
use nvpim_sim::sliced::SlicedPimArray;

use crate::checker::{CheckerCostModel, EcimChecker, LevelDecode};
use crate::config::{DesignConfig, GateStyle};
use crate::executor::{ExecScratch, ProtectedExecError, ProtectedExecutor, ProtectedRunReport};
use crate::scheme::{CostEnv, SchemeRuntime};
use crate::sliced::{SlicedExecScratch, SlicedExecutor, SlicedRunReport};
use crate::system::{CostBreakdown, CHECKER_EXPOSED_FRACTION};

/// ECiM's runtime (registered as `"Ecim"`, displayed as `"ECiM"`).
#[derive(Debug)]
pub struct EcimScheme;

impl SchemeRuntime for EcimScheme {
    fn wire_name(&self) -> &'static str {
        "Ecim"
    }

    fn display_name(&self) -> &'static str {
        "ECiM"
    }

    fn metadata_columns(&self, config: &DesignConfig) -> usize {
        // Two cells per parity bit (ping/pong accumulation) plus two
        // working cells per parity block on each side.
        2 * config.parity_bits() + 2 * (2 * config.parity_blocks_per_side)
    }

    fn parity_bits(&self, config: &DesignConfig) -> usize {
        config.parity_bits()
    }

    fn checker_cost(&self, config: &DesignConfig) -> CheckerCostModel {
        CheckerCostModel::for_hamming(&HammingCode::new_standard(config.hamming_r))
    }

    fn metadata_costs(
        &self,
        schedule: &RowSchedule,
        config: &DesignConfig,
        env: &CostEnv,
        b: &mut CostBreakdown,
    ) -> u64 {
        let code = HammingCode::new_standard(config.hamming_r);
        // Average number of parity bits each codeword data position
        // participates in (the expected XOR-update count per gate output).
        let avg_w: f64 = (0..code.k())
            .map(|j| code.parity_updates_for_bit(j) as f64)
            .sum::<f64>()
            / code.k() as f64;
        let parity_parallelism = (2 * config.parity_blocks_per_side).max(1) as f64;
        let checker_cost = self.checker_cost(config);

        let mut checker_traffic_bits = 0u64;
        // Parity-pipeline demand accumulated across the whole schedule (the
        // pipeline of Fig. 5 streams across level boundaries).
        let mut meta_ops_total = 0.0f64;
        for level in &schedule.level_profile {
            let outputs = (level.nor_ops + level.thr_ops + level.copy_ops) as f64;
            if outputs == 0.0 {
                continue;
            }
            // Redundant copy r per output, plus avg_w two-step XOR updates.
            let (r_ops, xor_steps) = if env.multi_output {
                // The extra output is produced by the same gate: no time,
                // one extra output's worth of energy.
                (0.0f64, 2.0f64)
            } else {
                // A separate copy operation, plus the XOR loses its fused
                // second output (3-step XOR).
                (1.0, 3.0)
            };
            meta_ops_total += outputs * (r_ops + avg_w * xor_steps);

            let xor_energy = if env.multi_output {
                2.0 * env.nor_e + env.thr_e
            } else {
                // NOR + CP + THR, each a full single-output operation,
                // plus a destination preset write.
                3.0 * env.nor_e + env.thr_e + env.write_e
            };
            let r_gen_energy = if env.multi_output {
                env.nor_e
            } else {
                // Separate copy gate plus destination preset.
                2.0 * env.nor_e + env.write_e
            };
            b.metadata_energy_fj += outputs * (r_gen_energy + avg_w * xor_energy);
            // Running parity bits are reset at every level boundary.
            b.write_energy_fj += config.parity_bits() as f64 * env.write_e;

            // Checker communication: level outputs + parity bits.
            let bits = outputs as usize + config.parity_bits();
            checker_traffic_bits += bits as u64;
            b.checker_time_ns += CHECKER_EXPOSED_FRACTION * env.periphery.read_latency(bits);
            b.checker_comm_energy_fj += env.periphery.read_energy(bits);
            b.checker_logic_energy_fj += checker_cost.energy_per_check_fj;
        }

        // Parity updates overlap with computation in the left/right
        // parity-block partitions (Fig. 5); only the excess of the
        // pipeline's total demand over the computation time is exposed on
        // the critical path.
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
        let code = exec.code();
        let config = exec.config();
        let parity_bits = code.parity_bits();
        let k = code.k();
        let ping_base = 0usize;
        let pong_base = parity_bits;
        let work_s1 = 2 * parity_bits;
        let work_s2 = 2 * parity_bits + 1;
        let r_base = 2 * parity_bits + 2;
        assert!(
            config.metadata_columns() >= r_base + parity_bits,
            "ECiM metadata region too small for the parity pipeline"
        );
        scratch.parity_in_pong.clear();
        scratch.parity_in_pong.resize(parity_bits, false);
        scratch.chunk_cols.clear();

        let mut checker = EcimChecker::new(code);
        let mut metadata_gate_ops = 0u64;
        let mut corrections_written_back = 0u64;
        let mut errors_detected = 0u64;
        let mut uncorrectable = 0u64;

        for level in schedule.levels() {
            reset_parity(array, row, scratch, ping_base, pong_base)?;
            for sg in level {
                let gate = &netlist.gates[sg.index];
                exec.materialize_inputs(netlist, sg, array, row, inputs, scratch)?;

                let is_constant = matches!(sg.op, LogicOp::Zero | LogicOp::One);
                if is_constant || !scratch.used_nets[gate.output] {
                    exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols)?;
                    continue;
                }

                // Codeword position of this gate output within the current chunk.
                let position = scratch.chunk_cols.len();

                // Parity bits this codeword position participates in.
                let mask = code.parity_update_mask(position.min(k - 1));

                // Execute the gate, producing one *independent* redundant copy
                // r_i per touched parity bit (Fig. 6: each XOR processes its own
                // r input, so a single error in any r corrupts only one parity
                // bit). Multi-output designs drive all copies from the same gate
                // in one step; single-output designs use explicit copy
                // operations.
                match config.gate_style {
                    GateStyle::MultiOutput => {
                        scratch.extra_cols.clear();
                        scratch
                            .extra_cols
                            .extend(mask.iter_ones().map(|bit| r_base + bit));
                        let touched = scratch.extra_cols.len() as u64;
                        exec.execute_plain_gate(
                            sg,
                            array,
                            row,
                            &scratch.extra_cols,
                            &mut scratch.out_cols,
                        )?;
                        metadata_gate_ops += touched;
                    }
                    GateStyle::SingleOutput => {
                        exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols)?;
                        // Each r_i is produced by re-executing the gate into its
                        // own cell (a separate single-output operation), so an
                        // error in the primary output never leaks into the parity
                        // metadata and vice versa.
                        for bit in mask.iter_ones() {
                            let kind = match sg.op {
                                LogicOp::Nor => GateKind::NOR2,
                                LogicOp::Thr => GateKind::THR,
                                LogicOp::Copy => GateKind::Copy,
                                LogicOp::Zero | LogicOp::One => {
                                    unreachable!("constants handled above")
                                }
                            };
                            array.execute_gate_with(kind, row, &sg.input_cols, &[r_base + bit])?;
                            metadata_gate_ops += 1;
                        }
                    }
                }

                // Fold each r_i into its parity bit with the in-memory two-step
                // XOR (NOR22 then THR).
                for bit in mask.iter_ones() {
                    let r_cell = r_base + bit;
                    let src = if scratch.parity_in_pong[bit] {
                        pong_base + bit
                    } else {
                        ping_base + bit
                    };
                    let dst = if scratch.parity_in_pong[bit] {
                        ping_base + bit
                    } else {
                        pong_base + bit
                    };
                    // s1 = s2 = NOR(p, r); p' = THR(p, r, s1, s2) = p XOR r —
                    // the fused two-step XOR primitive (identical fault sites
                    // and cost accounting to the two separate gate calls).
                    array.execute_xor2_step(row, src, r_cell, work_s1, work_s2, dst)?;
                    scratch.parity_in_pong[bit] = !scratch.parity_in_pong[bit];
                    metadata_gate_ops += 2;
                }

                scratch.chunk_cols.push(sg.output_cols[0]);
                if scratch.chunk_cols.len() == k {
                    flush_chunk(
                        array,
                        row,
                        &mut checker,
                        scratch,
                        ping_base,
                        pong_base,
                        &mut errors_detected,
                        &mut corrections_written_back,
                        &mut uncorrectable,
                    )?;
                    reset_parity(array, row, scratch, ping_base, pong_base)?;
                }
            }
            flush_chunk(
                array,
                row,
                &mut checker,
                scratch,
                ping_base,
                pong_base,
                &mut errors_detected,
                &mut corrections_written_back,
                &mut uncorrectable,
            )?;
        }

        Ok(ProtectedRunReport {
            outputs: exec.read_outputs(netlist, schedule, array, row, inputs)?,
            checks: checker.checks(),
            errors_detected,
            corrections_written_back,
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
        let code = exec.code();
        let config = exec.config();
        let parity_bits = code.parity_bits();
        let k = code.k();
        // Metadata region layout — identical to the scalar path's.
        let ping_base = 0usize;
        let pong_base = parity_bits;
        let work_s1 = 2 * parity_bits;
        let work_s2 = 2 * parity_bits + 1;
        let r_base = 2 * parity_bits + 2;
        assert!(
            config.metadata_columns() >= r_base + parity_bits,
            "ECiM metadata region too small for the parity pipeline"
        );
        scratch.parity_in_pong.clear();
        scratch.parity_in_pong.resize(parity_bits, false);
        scratch.chunk_cols.clear();

        let mut checker = EcimChecker::new(code);
        let mut report = SlicedRunReport::new();

        for level in schedule.levels() {
            sliced_reset_parity(array, row, scratch, ping_base, pong_base);
            for sg in level {
                let gate = &netlist.gates[sg.index];
                exec.materialize_inputs(netlist, sg, array, row, inputs, scratch);

                let is_constant = matches!(sg.op, LogicOp::Zero | LogicOp::One);
                if is_constant || !scratch.used_nets[gate.output] {
                    exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols);
                    continue;
                }

                let position = scratch.chunk_cols.len();
                let mask = code.parity_update_mask(position.min(k - 1));

                match config.gate_style {
                    GateStyle::MultiOutput => {
                        scratch.extra_cols.clear();
                        scratch
                            .extra_cols
                            .extend(mask.iter_ones().map(|bit| r_base + bit));
                        let touched = scratch.extra_cols.len() as u64;
                        exec.execute_plain_gate(
                            sg,
                            array,
                            row,
                            &scratch.extra_cols,
                            &mut scratch.out_cols,
                        );
                        report.metadata_gate_ops += touched;
                    }
                    GateStyle::SingleOutput => {
                        exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols);
                        for bit in mask.iter_ones() {
                            let dst = r_base + bit;
                            match sg.op {
                                LogicOp::Nor => array.gate_nor(row, &sg.input_cols, &[dst]),
                                LogicOp::Thr => array.gate_thr(row, &sg.input_cols, dst),
                                LogicOp::Copy => array.gate_copy(row, sg.input_cols[0], dst),
                                LogicOp::Zero | LogicOp::One => {
                                    unreachable!("constants handled above")
                                }
                            }
                            report.metadata_gate_ops += 1;
                        }
                    }
                }

                // Fold each r_i into its parity bit (two-step XOR, fault
                // decisions in the scalar order s1, s2, dst).
                for bit in mask.iter_ones() {
                    let r_cell = r_base + bit;
                    let src = if scratch.parity_in_pong[bit] {
                        pong_base + bit
                    } else {
                        ping_base + bit
                    };
                    let dst = if scratch.parity_in_pong[bit] {
                        ping_base + bit
                    } else {
                        pong_base + bit
                    };
                    array.gate_xor2(row, src, r_cell, work_s1, work_s2, dst);
                    scratch.parity_in_pong[bit] = !scratch.parity_in_pong[bit];
                    report.metadata_gate_ops += 2;
                }

                scratch.chunk_cols.push(sg.output_cols[0]);
                if scratch.chunk_cols.len() == k {
                    sliced_flush_chunk(
                        array,
                        row,
                        &mut checker,
                        scratch,
                        ping_base,
                        pong_base,
                        &mut report,
                    );
                    sliced_reset_parity(array, row, scratch, ping_base, pong_base);
                }
            }
            sliced_flush_chunk(
                array,
                row,
                &mut checker,
                scratch,
                ping_base,
                pong_base,
                &mut report,
            );
        }

        exec.read_outputs(netlist, schedule, array, row, inputs, scratch);
        report.checks = checker.checks();
        Ok(report)
    }
}

// ----------------------------------------------------------------------
// Scalar helpers
// ----------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn flush_chunk(
    array: &mut PimArray,
    row: usize,
    checker: &mut EcimChecker<'_>,
    scratch: &mut ExecScratch,
    ping_base: usize,
    pong_base: usize,
    errors_detected: &mut u64,
    corrections_written_back: &mut u64,
    uncorrectable: &mut u64,
) -> Result<(), ProtectedExecError> {
    if scratch.chunk_cols.is_empty() {
        return Ok(());
    }
    // Conventional memory read of the level outputs and parity bits.
    scratch.cols_b.clear();
    scratch.cols_b.extend(
        scratch
            .parity_in_pong
            .iter()
            .enumerate()
            .map(|(i, &in_pong)| {
                if in_pong {
                    pong_base + i
                } else {
                    ping_base + i
                }
            }),
    );
    array.read_bits_into(row, &scratch.chunk_cols, &mut scratch.bits_a)?;
    array.read_bits_into(row, &scratch.cols_b, &mut scratch.bits_b)?;
    match checker.decode_level(&scratch.bits_a, &scratch.bits_b) {
        LevelDecode::Clean => {}
        LevelDecode::CorrectedData { position } => {
            *errors_detected += 1;
            // A single-error code flips exactly one data bit.
            let col = scratch.chunk_cols[position];
            array.write_cell(row, col, !scratch.bits_a.get(position))?;
            *corrections_written_back += 1;
        }
        LevelDecode::CorrectedMeta => {
            *errors_detected += 1;
        }
        LevelDecode::Uncorrectable => {
            *errors_detected += 1;
            *uncorrectable += 1;
        }
    }
    scratch.chunk_cols.clear();
    Ok(())
}

/// Resets the running parity cells at the start of a level chunk: one
/// row-parallel preset over the contiguous ping+pong region instead of
/// `2 × parity_bits` individual writes.
fn reset_parity(
    array: &mut PimArray,
    row: usize,
    scratch: &mut ExecScratch,
    ping_base: usize,
    pong_base: usize,
) -> Result<(), ProtectedExecError> {
    let parity_bits = scratch.parity_in_pong.len();
    debug_assert_eq!(pong_base, ping_base + parity_bits);
    array.preset_cells(row, ping_base..pong_base + parity_bits, false)?;
    scratch.parity_in_pong.iter_mut().for_each(|p| *p = false);
    Ok(())
}

// ----------------------------------------------------------------------
// Sliced helpers
// ----------------------------------------------------------------------

fn sliced_flush_chunk(
    array: &mut SlicedPimArray,
    row: usize,
    checker: &mut EcimChecker<'_>,
    scratch: &mut SlicedExecScratch,
    ping_base: usize,
    pong_base: usize,
    report: &mut SlicedRunReport,
) {
    if scratch.chunk_cols.is_empty() {
        return;
    }
    let SlicedExecScratch {
        chunk_cols,
        parity_in_pong,
        data_words,
        parity_words,
        syndrome_words,
        ..
    } = scratch;
    data_words.clear();
    data_words.extend(chunk_cols.iter().map(|&c| array.cell(row, c)));
    parity_words.clear();
    parity_words.extend(parity_in_pong.iter().enumerate().map(|(i, &in_pong)| {
        let col = if in_pong {
            pong_base + i
        } else {
            ping_base + i
        };
        array.cell(row, col)
    }));
    let valid = array.injector().valid_mask();
    let SlicedRunReport {
        errors_detected,
        corrections_written_back,
        uncorrectable,
        ..
    } = report;
    checker.decode_level_lanes(
        data_words,
        parity_words,
        valid,
        syndrome_words,
        |lane, outcome| match outcome {
            LevelDecode::Clean => {}
            LevelDecode::CorrectedData { position } => {
                errors_detected[lane] += 1;
                // A single-error code flips exactly one data bit: write
                // back the negation of what this lane's read returned. A
                // stuck cell keeps its pinned value, but the write-back is
                // counted all the same, as on the scalar path.
                let col = chunk_cols[position];
                let flipped = !array.cell(row, col);
                array.write_masked_lanes(row, col, flipped, 1u64 << lane);
                corrections_written_back[lane] += 1;
            }
            LevelDecode::CorrectedMeta => {
                errors_detected[lane] += 1;
            }
            LevelDecode::Uncorrectable => {
                errors_detected[lane] += 1;
                uncorrectable[lane] += 1;
            }
        },
    );
    chunk_cols.clear();
}

fn sliced_reset_parity(
    array: &mut SlicedPimArray,
    row: usize,
    scratch: &mut SlicedExecScratch,
    ping_base: usize,
    pong_base: usize,
) {
    let parity_bits = scratch.parity_in_pong.len();
    debug_assert_eq!(pong_base, ping_base + parity_bits);
    array.preset_range(row, ping_base..pong_base + parity_bits, false);
    scratch.parity_in_pong.iter_mut().for_each(|p| *p = false);
}
