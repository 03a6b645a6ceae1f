//! TRiM — triple redundancy in memory (§IV-D): every value is computed
//! into three cells (one multi-output gate, or three single-output gates in
//! separate partitions); an external Checker majority-votes the copies at
//! every logic-level boundary and writes corrections back.

use nvpim_compiler::netlist::{LogicOp, Netlist};
use nvpim_compiler::schedule::RowSchedule;
use nvpim_sim::array::PimArray;
use nvpim_sim::gates::GateKind;
use nvpim_sim::sliced::SlicedPimArray;

use crate::checker::{CheckerCostModel, TrimChecker};
use crate::config::{DesignConfig, GateStyle};
use crate::executor::{ExecScratch, ProtectedExecError, ProtectedExecutor, ProtectedRunReport};
use crate::scheme::{CostEnv, SchemeRuntime};
use crate::sliced::{SlicedExecScratch, SlicedExecutor, SlicedRunReport};
use crate::system::{CostBreakdown, CHECKER_EXPOSED_FRACTION};

/// TRiM's runtime (registered as `"Trim"`, displayed as `"TRiM"`).
#[derive(Debug)]
pub struct TrimScheme;

impl SchemeRuntime for TrimScheme {
    fn wire_name(&self) -> &'static str {
        "Trim"
    }

    fn display_name(&self) -> &'static str {
        "TRiM"
    }

    fn metadata_columns(&self, _config: &DesignConfig) -> usize {
        // TRiM's copies live with each value, not in a metadata region.
        0
    }

    fn cells_per_value(&self) -> usize {
        3
    }

    fn checker_cost(&self, config: &DesignConfig) -> CheckerCostModel {
        CheckerCostModel::for_majority(config.data_bits())
    }

    fn metadata_costs(
        &self,
        schedule: &RowSchedule,
        config: &DesignConfig,
        env: &CostEnv,
        b: &mut CostBreakdown,
    ) -> u64 {
        let checker_cost = self.checker_cost(config);
        let mut checker_traffic_bits = 0u64;
        for level in &schedule.level_profile {
            let outputs = (level.nor_ops + level.thr_ops + level.copy_ops) as f64;
            if outputs == 0.0 {
                continue;
            }
            let base_nor_energy = (level.nor_ops + level.copy_ops) as f64 * env.nor_e;
            let base_thr_energy = level.thr_ops as f64 * env.thr_e;
            // Two redundant copies of every output.
            if env.multi_output {
                // Same gate drives three outputs: 3x energy, no extra time.
                b.metadata_energy_fj += 2.0 * (base_nor_energy + base_thr_energy);
            } else {
                // Two additional single-output executions per gate in
                // other partitions (concurrent in time), each with its own
                // operand staging write.
                b.metadata_energy_fj +=
                    2.0 * (base_nor_energy + base_thr_energy + outputs * (env.nor_e + env.write_e));
            }
            // Checker communication: three copies of the outputs.
            let bits = 3 * outputs as usize;
            checker_traffic_bits += bits as u64;
            b.checker_time_ns += CHECKER_EXPOSED_FRACTION * env.periphery.read_latency(bits);
            b.checker_comm_energy_fj += env.periphery.read_energy(bits);
            b.checker_logic_energy_fj += checker_cost.energy_per_check_fj;
        }
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
        let mut checker = TrimChecker::new();
        let mut metadata_gate_ops = 0u64;
        let mut corrections_written_back = 0u64;
        let mut errors_detected = 0u64;

        scratch.level_outputs.clear();

        for level in schedule.levels() {
            for sg in level {
                let gate = &netlist.gates[sg.index];
                exec.materialize_inputs(netlist, sg, array, row, inputs, scratch)?;

                let is_constant = matches!(sg.op, LogicOp::Zero | LogicOp::One);
                if is_constant || !scratch.used_nets[gate.output] {
                    exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols)?;
                    continue;
                }

                match config.gate_style {
                    GateStyle::MultiOutput => {
                        // One 3-output gate produces the value and both copies.
                        exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols)?;
                        metadata_gate_ops += 2;
                    }
                    GateStyle::SingleOutput => {
                        // Three independent single-output gates, each reading its
                        // own copy of the operands (separate partitions).
                        for copy in 0..3 {
                            let inputs_for_copy =
                                &sg.input_cols_per_copy[copy.min(sg.input_cols_per_copy.len() - 1)];
                            let kind = match sg.op {
                                LogicOp::Nor => GateKind::NOR2,
                                LogicOp::Thr => GateKind::THR,
                                LogicOp::Copy => GateKind::Copy,
                                LogicOp::Zero | LogicOp::One => {
                                    unreachable!("constants handled above")
                                }
                            };
                            array.execute_gate_with(
                                kind,
                                row,
                                inputs_for_copy,
                                &[sg.output_cols[copy]],
                            )?;
                            if copy > 0 {
                                metadata_gate_ops += 1;
                            }
                        }
                    }
                }
                scratch.level_outputs.push([
                    sg.output_cols[0],
                    sg.output_cols[1],
                    sg.output_cols[2],
                ]);
            }
            flush_level(
                array,
                row,
                &mut checker,
                scratch,
                &mut errors_detected,
                &mut corrections_written_back,
            )?;
        }

        Ok(ProtectedRunReport {
            outputs: exec.read_outputs(netlist, schedule, array, row, inputs)?,
            checks: checker.checks(),
            errors_detected,
            corrections_written_back,
            uncorrectable: 0,
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
        let mut checker = TrimChecker::new();
        let mut report = SlicedRunReport::new();

        scratch.level_outputs.clear();

        for level in schedule.levels() {
            for sg in level {
                let gate = &netlist.gates[sg.index];
                exec.materialize_inputs(netlist, sg, array, row, inputs, scratch);

                let is_constant = matches!(sg.op, LogicOp::Zero | LogicOp::One);
                if is_constant || !scratch.used_nets[gate.output] {
                    exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols);
                    continue;
                }

                match config.gate_style {
                    GateStyle::MultiOutput => {
                        exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols);
                        report.metadata_gate_ops += 2;
                    }
                    GateStyle::SingleOutput => {
                        for copy in 0..3 {
                            let inputs_for_copy =
                                &sg.input_cols_per_copy[copy.min(sg.input_cols_per_copy.len() - 1)];
                            let dst = sg.output_cols[copy];
                            match sg.op {
                                LogicOp::Nor => array.gate_nor(row, inputs_for_copy, &[dst]),
                                LogicOp::Thr => array.gate_thr(row, inputs_for_copy, dst),
                                LogicOp::Copy => array.gate_copy(row, inputs_for_copy[0], dst),
                                LogicOp::Zero | LogicOp::One => {
                                    unreachable!("constants handled above")
                                }
                            }
                            if copy > 0 {
                                report.metadata_gate_ops += 1;
                            }
                        }
                    }
                }
                scratch.level_outputs.push([
                    sg.output_cols[0],
                    sg.output_cols[1],
                    sg.output_cols[2],
                ]);
            }
            sliced_flush_level(array, row, &mut checker, scratch, &mut report);
        }

        exec.read_outputs(netlist, schedule, array, row, inputs, scratch);
        report.checks = checker.checks();
        Ok(report)
    }
}

fn flush_level(
    array: &mut PimArray,
    row: usize,
    checker: &mut TrimChecker,
    scratch: &mut ExecScratch,
    errors_detected: &mut u64,
    corrections_written_back: &mut u64,
) -> Result<(), ProtectedExecError> {
    if scratch.level_outputs.is_empty() {
        return Ok(());
    }
    scratch.cols_a.clear();
    scratch.cols_b.clear();
    scratch.cols_c.clear();
    for cols in &scratch.level_outputs {
        scratch.cols_a.push(cols[0]);
        scratch.cols_b.push(cols[1]);
        scratch.cols_c.push(cols[2]);
    }
    array.read_bits_into(row, &scratch.cols_a, &mut scratch.bits_a)?;
    array.read_bits_into(row, &scratch.cols_b, &mut scratch.bits_b)?;
    array.read_bits_into(row, &scratch.cols_c, &mut scratch.bits_c)?;
    let dissent = checker.vote_level_into(
        &scratch.bits_a,
        &scratch.bits_b,
        &scratch.bits_c,
        &mut scratch.bits_vote,
    );
    if dissent {
        *errors_detected += 1;
        // Write the voted value back into every copy that disagreed —
        // word-parallel diff scans, touching only mismatching bits.
        let voted = &scratch.bits_vote;
        for (copy_idx, bits) in [&scratch.bits_a, &scratch.bits_b, &scratch.bits_c]
            .into_iter()
            .enumerate()
        {
            for i in bits.diff_ones(voted) {
                let col = scratch.level_outputs[i][copy_idx];
                array.write_cell(row, col, voted.get(i))?;
                *corrections_written_back += 1;
            }
        }
    }
    scratch.level_outputs.clear();
    Ok(())
}

fn sliced_flush_level(
    array: &mut SlicedPimArray,
    row: usize,
    checker: &mut TrimChecker,
    scratch: &mut SlicedExecScratch,
    report: &mut SlicedRunReport,
) {
    if scratch.level_outputs.is_empty() {
        return;
    }
    let SlicedExecScratch {
        level_outputs,
        copy_a,
        copy_b,
        copy_c,
        voted,
        ..
    } = scratch;
    copy_a.clear();
    copy_b.clear();
    copy_c.clear();
    for cols in level_outputs.iter() {
        copy_a.push(array.cell(row, cols[0]));
        copy_b.push(array.cell(row, cols[1]));
        copy_c.push(array.cell(row, cols[2]));
    }
    let valid = array.injector().valid_mask();
    let dissent = checker.vote_level_lanes(copy_a, copy_b, copy_c, valid, voted);
    if dissent != 0 {
        let mut lanes = dissent;
        while lanes != 0 {
            let lane = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            report.errors_detected[lane] += 1;
        }
        // Write the voted value back into every copy that disagreed —
        // per (gate, copy) plane, only the mismatching lanes are written,
        // and stuck cells pin them as on the scalar path.
        for (g, cols) in level_outputs.iter().enumerate() {
            let v = voted[g];
            for (copy_idx, plane) in [&*copy_a, &*copy_b, &*copy_c].into_iter().enumerate() {
                let mut diff = (plane[g] ^ v) & valid;
                if diff == 0 {
                    continue;
                }
                array.write_masked_lanes(row, cols[copy_idx], v, diff);
                while diff != 0 {
                    let lane = diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    report.corrections_written_back[lane] += 1;
                }
            }
        }
    }
    level_outputs.clear();
}
