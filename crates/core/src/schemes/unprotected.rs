//! The unprotected iso-area baseline: gates execute exactly as scheduled,
//! no metadata is maintained and no checks run — the demonstration of why
//! protection is needed, and the denominator of every overhead figure.

use nvpim_compiler::netlist::Netlist;
use nvpim_compiler::schedule::RowSchedule;
use nvpim_sim::array::PimArray;
use nvpim_sim::sliced::SlicedPimArray;

use crate::checker::CheckerCostModel;
use crate::config::DesignConfig;
use crate::executor::{ExecScratch, ProtectedExecError, ProtectedExecutor, ProtectedRunReport};
use crate::scheme::{CostEnv, SchemeRuntime};
use crate::sliced::{SlicedExecScratch, SlicedExecutor, SlicedRunReport};
use crate::system::CostBreakdown;

/// The unprotected baseline's runtime (registered as `"Unprotected"`).
#[derive(Debug)]
pub struct UnprotectedScheme;

impl SchemeRuntime for UnprotectedScheme {
    fn wire_name(&self) -> &'static str {
        "Unprotected"
    }

    fn display_name(&self) -> &'static str {
        "unprotected"
    }

    fn metadata_columns(&self, _config: &DesignConfig) -> usize {
        0
    }

    fn checker_cost(&self, _config: &DesignConfig) -> CheckerCostModel {
        // No Checker at all: a zero-width majority voter costs nothing.
        CheckerCostModel::for_majority(0)
    }

    fn metadata_costs(
        &self,
        _schedule: &RowSchedule,
        _config: &DesignConfig,
        _env: &CostEnv,
        _breakdown: &mut CostBreakdown,
    ) -> u64 {
        0
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
        for sg in &schedule.gates {
            exec.materialize_inputs(netlist, sg, array, row, inputs, scratch)?;
            exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols)?;
        }
        Ok(ProtectedRunReport {
            outputs: exec.read_outputs(netlist, schedule, array, row, inputs)?,
            checks: 0,
            errors_detected: 0,
            corrections_written_back: 0,
            uncorrectable: 0,
            metadata_gate_ops: 0,
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
        for sg in &schedule.gates {
            exec.materialize_inputs(netlist, sg, array, row, inputs, scratch);
            exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols);
        }
        exec.read_outputs(netlist, schedule, array, row, inputs, scratch);
        Ok(SlicedRunReport::new())
    }
}
