//! Functional execution of protected PiM computation (the behavioral
//! simulator of §V, extended with the protection protocols of §IV).
//!
//! [`ProtectedExecutor`] validates a compiled [`RowSchedule`] against the
//! design point and then dispatches the run to the configured scheme's
//! [`SchemeRuntime::run_scalar`](crate::scheme::SchemeRuntime::run_scalar)
//! — the per-scheme protocols (ECiM's in-memory parity folds, TRiM's
//! triple redundancy, ParityDetect's running parity, the unprotected
//! baseline) live in [`crate::schemes`], composed from this module's
//! public building blocks ([`ProtectedExecutor::materialize_inputs`],
//! [`ProtectedExecutor::execute_plain_gate`],
//! [`ProtectedExecutor::read_outputs`]) and the shared [`ExecScratch`]
//! buffers.
//!
//! Because the schemes' metadata operations are real in-array gate
//! operations on the same simulated array, injected faults can strike the
//! main computation, the parity pipeline, the redundant copies *or* idle
//! cells — and the executor's reports show whether the final outputs
//! survived, which is how the SEP guarantee is validated end to end.
//!
//! # Hot-path design
//!
//! The Monte Carlo sweep runs this executor millions of times, so the
//! steady state must not allocate: gate operations go through
//! [`PimArray::execute_gate_with`] with column slices (no per-gate
//! allocation), and all per-run working memory lives in a caller-owned
//! [`ExecScratch`] that [`ProtectedExecutor::run_with_scratch`] reuses
//! across trials. [`ProtectedExecutor::run`] is the convenience wrapper
//! that allocates a fresh scratch per call.

use nvpim_compiler::netlist::{LogicOp, Netlist};
use nvpim_compiler::schedule::{RowSchedule, ScheduledGate};
use nvpim_ecc::gf2::BitVec;
use nvpim_ecc::hamming::HammingCode;
use nvpim_sim::array::{ArrayError, PimArray};
use nvpim_sim::gates::GateKind;
use serde::{Deserialize, Serialize};

use crate::config::DesignConfig;

/// Errors raised by protected execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtectedExecError {
    /// The schedule was produced for a different layout than the config's.
    LayoutMismatch,
    /// The schedule contains spills and cannot run on a single row.
    NotDirectlyExecutable,
    /// The input value count does not match the netlist.
    InputArityMismatch {
        /// Inputs expected.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// The array is too small for the configured layout.
    ArrayTooSmall,
    /// An array-level error occurred.
    Array(ArrayError),
}

impl std::fmt::Display for ProtectedExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtectedExecError::LayoutMismatch => {
                write!(f, "schedule layout does not match the design configuration")
            }
            ProtectedExecError::NotDirectlyExecutable => {
                write!(f, "schedule spilled values and cannot run on a single row")
            }
            ProtectedExecError::InputArityMismatch { expected, got } => {
                write!(f, "expected {expected} input values, got {got}")
            }
            ProtectedExecError::ArrayTooSmall => write!(f, "array is smaller than the layout"),
            ProtectedExecError::Array(e) => write!(f, "array error: {e}"),
        }
    }
}

impl std::error::Error for ProtectedExecError {}

impl From<ArrayError> for ProtectedExecError {
    fn from(e: ArrayError) -> Self {
        ProtectedExecError::Array(e)
    }
}

/// Outcome of one protected run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProtectedRunReport {
    /// Primary output values read back from the array.
    pub outputs: Vec<bool>,
    /// Number of Checker invocations (one per logic level / codeword chunk).
    pub checks: u64,
    /// Checks in which an error was detected.
    pub errors_detected: u64,
    /// Data bits corrected and written back to the array.
    pub corrections_written_back: u64,
    /// Checks whose error pattern exceeded the correction capability.
    pub uncorrectable: u64,
    /// In-array gate operations spent on metadata (parity copies, XOR
    /// updates, redundant computation) rather than main computation.
    pub metadata_gate_ops: u64,
}

/// Reusable per-run working memory for [`ProtectedExecutor::run_with_scratch`].
///
/// Every collection is cleared (never shrunk) at the start of a run, so a
/// scratch held by a trial arena reaches a steady state where protected
/// execution performs no heap allocation at all. One scratch serves runs of
/// different netlists, schedules and protection schemes back to back.
/// The buffers are public so [`SchemeRuntime`](crate::scheme::SchemeRuntime)
/// implementations — including out-of-tree ones — can reuse them instead of
/// allocating their own per-run state; the parity/copy buffers are
/// general-purpose despite their historical per-scheme naming.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Net id → primary-input position (dense, `u32::MAX` = not an input),
    /// rebuilt per run. Dense vectors instead of hash maps: the per-gate
    /// lookups in the trial hot path become plain indexed loads.
    pub input_positions: Vec<u32>,
    /// Primary inputs already written into the array this run (by net id).
    pub materialized: Vec<bool>,
    /// Nets consumed by at least one gate or marked as primary outputs.
    pub used_nets: Vec<bool>,
    /// Output-column assembly buffer for one gate operation.
    pub out_cols: Vec<usize>,
    /// Extra (metadata) output columns for one gate operation.
    pub extra_cols: Vec<usize>,
    /// Data column of each codeword position in the current check chunk
    /// (parity-style schemes).
    pub chunk_cols: Vec<usize>,
    /// Which of ping/pong holds each running parity bit.
    pub parity_in_pong: Vec<bool>,
    /// Column list for Checker transfers (data/parity or copy planes).
    pub cols_a: Vec<usize>,
    /// Second Checker-transfer column list.
    pub cols_b: Vec<usize>,
    /// Third Checker-transfer column list.
    pub cols_c: Vec<usize>,
    /// Bit buffer for Checker transfers.
    pub bits_a: BitVec,
    /// Second Checker-transfer bit buffer.
    pub bits_b: BitVec,
    /// Third Checker-transfer bit buffer.
    pub bits_c: BitVec,
    /// Majority-vote result buffer (redundancy-style schemes).
    pub bits_vote: BitVec,
    /// The three copy columns of every gate in the current level
    /// (redundancy-style schemes).
    pub level_outputs: Vec<[usize; 3]>,
}

impl ExecScratch {
    /// Creates an empty scratch (equivalent to `ExecScratch::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, netlist: &Netlist) {
        let nets = netlist.net_count;
        self.input_positions.clear();
        self.input_positions.resize(nets, u32::MAX);
        for (pos, &net) in netlist.inputs.iter().enumerate() {
            self.input_positions[net] = pos as u32;
        }
        self.materialized.clear();
        self.materialized.resize(nets, false);
        self.used_nets.clear();
        self.used_nets.resize(nets, false);
        for gate in &netlist.gates {
            for &input in &gate.inputs {
                self.used_nets[input] = true;
            }
        }
        for &output in &netlist.outputs {
            self.used_nets[output] = true;
        }
    }
}

/// Executes schedules under a [`DesignConfig`]'s protection scheme.
#[derive(Debug, Clone)]
pub struct ProtectedExecutor {
    config: DesignConfig,
    code: HammingCode,
}

impl ProtectedExecutor {
    /// Creates an executor for the given design point.
    pub fn new(config: DesignConfig) -> Self {
        let code = config.hamming_code();
        Self { config, code }
    }

    /// The design configuration.
    pub fn config(&self) -> &DesignConfig {
        &self.config
    }

    /// The Hamming code used for ECiM parity.
    pub fn code(&self) -> &HammingCode {
        &self.code
    }

    /// Runs `schedule` (compiled from `netlist` with `config.row_layout()`)
    /// in row `row` of `array` on the given primary inputs, with a fresh
    /// scratch allocation. Hot loops should prefer
    /// [`Self::run_with_scratch`].
    ///
    /// # Errors
    ///
    /// See [`ProtectedExecError`].
    pub fn run(
        &self,
        netlist: &Netlist,
        schedule: &RowSchedule,
        array: &mut PimArray,
        row: usize,
        inputs: &[bool],
    ) -> Result<ProtectedRunReport, ProtectedExecError> {
        let mut scratch = ExecScratch::default();
        self.run_with_scratch(netlist, schedule, array, row, inputs, &mut scratch)
    }

    /// [`Self::run`] with caller-owned working memory: the steady-state
    /// Monte Carlo path, allocation-free once `scratch` has warmed up.
    ///
    /// # Errors
    ///
    /// See [`ProtectedExecError`].
    pub fn run_with_scratch(
        &self,
        netlist: &Netlist,
        schedule: &RowSchedule,
        array: &mut PimArray,
        row: usize,
        inputs: &[bool],
        scratch: &mut ExecScratch,
    ) -> Result<ProtectedRunReport, ProtectedExecError> {
        if schedule.layout != self.config.row_layout() {
            return Err(ProtectedExecError::LayoutMismatch);
        }
        if !schedule.is_directly_executable() {
            return Err(ProtectedExecError::NotDirectlyExecutable);
        }
        if inputs.len() != netlist.inputs.len() {
            return Err(ProtectedExecError::InputArityMismatch {
                expected: netlist.inputs.len(),
                got: inputs.len(),
            });
        }
        if array.cols() < self.config.array_columns || row >= array.rows() {
            return Err(ProtectedExecError::ArrayTooSmall);
        }
        scratch.prepare(netlist);
        self.config
            .scheme
            .runtime()
            .run_scalar(self, netlist, schedule, array, row, inputs, scratch)
    }

    // ------------------------------------------------------------------
    // Scheme-runtime building blocks: the primitives every
    // `SchemeRuntime::run_scalar` implementation composes.
    // ------------------------------------------------------------------

    /// Writes any not-yet-materialized primary inputs consumed by `sg` into
    /// the array (into every copy this design keeps), tracking
    /// materialization in `scratch`.
    ///
    /// # Errors
    ///
    /// Propagates array-level write failures.
    pub fn materialize_inputs(
        &self,
        netlist: &Netlist,
        sg: &ScheduledGate,
        array: &mut PimArray,
        row: usize,
        inputs: &[bool],
        scratch: &mut ExecScratch,
    ) -> Result<(), ProtectedExecError> {
        let gate_inputs = &netlist.gates[sg.index].inputs;
        for (i, &net) in gate_inputs.iter().enumerate() {
            let pos = scratch.input_positions[net];
            if pos != u32::MAX && !scratch.materialized[net] {
                scratch.materialized[net] = true;
                // Write the value into every copy this design keeps.
                for copy in 0..self.config.cells_per_value() {
                    let col = sg.input_cols_per_copy[copy.min(sg.input_cols_per_copy.len() - 1)][i];
                    array.write_cell(row, col, inputs[pos as usize])?;
                }
            }
        }
        Ok(())
    }

    /// Reads the schedule's primary outputs back (outputs that are also
    /// primary inputs are forwarded from `inputs`).
    ///
    /// # Errors
    ///
    /// Propagates array-level read failures.
    pub fn read_outputs(
        &self,
        netlist: &Netlist,
        schedule: &RowSchedule,
        array: &mut PimArray,
        row: usize,
        inputs: &[bool],
    ) -> Result<Vec<bool>, ProtectedExecError> {
        let mut outputs = Vec::with_capacity(schedule.output_cols.len());
        for (i, col) in schedule.output_cols.iter().enumerate() {
            match col {
                Some(c) => outputs.push(array.peek(row, *c)?),
                None => {
                    let net = netlist.outputs[i];
                    let pos = netlist
                        .inputs
                        .iter()
                        .position(|&n| n == net)
                        .expect("non-resident output must be a primary input");
                    outputs.push(inputs[pos]);
                }
            }
        }
        Ok(outputs)
    }

    /// Executes one scheduled gate into its primary output columns plus
    /// `extra` metadata columns, assembling the output list in `out_buf`
    /// (no per-gate allocation).
    ///
    /// # Errors
    ///
    /// Propagates array-level gate failures.
    pub fn execute_plain_gate(
        &self,
        sg: &ScheduledGate,
        array: &mut PimArray,
        row: usize,
        extra: &[usize],
        out_buf: &mut Vec<usize>,
    ) -> Result<(), ProtectedExecError> {
        let outputs: &[usize] = if extra.is_empty() {
            // Common case: the schedule's own columns, no assembly needed.
            &sg.output_cols
        } else {
            out_buf.clear();
            out_buf.extend_from_slice(&sg.output_cols);
            out_buf.extend_from_slice(extra);
            out_buf
        };
        match sg.op {
            LogicOp::Zero | LogicOp::One => {
                let value = sg.op == LogicOp::One;
                for &col in outputs {
                    array.write_cell(row, col, value)?;
                }
            }
            LogicOp::Nor => {
                let kind = GateKind::Nor {
                    outputs: outputs.len() as u8,
                };
                array.execute_gate_with(kind, row, &sg.input_cols, outputs)?;
            }
            LogicOp::Copy => {
                // A copy drives each destination with a separate single-output
                // operation (there is no multi-output copy primitive).
                for &col in outputs {
                    array.execute_gate_with(GateKind::Copy, row, &sg.input_cols, &[col])?;
                }
            }
            LogicOp::Thr => {
                for &col in outputs {
                    array.execute_gate_with(GateKind::THR, row, &sg.input_cols, &[col])?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GateStyle;
    use nvpim_compiler::builder::CircuitBuilder;
    use nvpim_compiler::schedule::map_netlist;
    use nvpim_sim::fault::{ErrorRates, FaultInjector};
    use nvpim_sim::technology::Technology;

    fn to_bits(value: u64, width: usize) -> Vec<bool> {
        (0..width).map(|i| (value >> i) & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    fn mac_netlist() -> Netlist {
        let mut b = CircuitBuilder::new();
        let acc = b.input_word(8);
        let x = b.input_word(4);
        let y = b.input_word(4);
        let out = b.mac(&acc, &x, &y);
        b.mark_output_word(&out);
        b.finish()
    }

    fn run_clean(config: DesignConfig) -> (ProtectedRunReport, u64) {
        let netlist = mac_netlist();
        let executor = ProtectedExecutor::new(config.clone());
        let schedule = map_netlist(&netlist, config.row_layout()).unwrap();
        let mut array = PimArray::standard(config.technology);
        let mut inputs = to_bits(100, 8);
        inputs.extend(to_bits(9, 4));
        inputs.extend(to_bits(13, 4));
        let report = executor
            .run(&netlist, &schedule, &mut array, 0, &inputs)
            .unwrap();
        let expected = 100 + 9 * 13;
        (report, expected)
    }

    #[test]
    fn unprotected_execution_is_functionally_correct_without_faults() {
        let (report, expected) = run_clean(DesignConfig::unprotected(Technology::SttMram));
        assert_eq!(from_bits(&report.outputs), expected);
        assert_eq!(report.checks, 0);
        assert_eq!(report.metadata_gate_ops, 0);
    }

    #[test]
    fn ecim_execution_is_functionally_correct_without_faults() {
        let (report, expected) = run_clean(DesignConfig::ecim(Technology::SttMram));
        assert_eq!(from_bits(&report.outputs), expected);
        assert!(report.checks > 0);
        assert_eq!(report.errors_detected, 0);
        assert_eq!(report.corrections_written_back, 0);
        assert!(report.metadata_gate_ops > 0);
    }

    #[test]
    fn ecim_single_output_style_also_correct() {
        let (report, expected) =
            run_clean(DesignConfig::ecim(Technology::ReRam).with_single_output_gates());
        assert_eq!(from_bits(&report.outputs), expected);
        assert_eq!(report.errors_detected, 0);
    }

    #[test]
    fn trim_execution_is_functionally_correct_without_faults() {
        for style in [GateStyle::MultiOutput, GateStyle::SingleOutput] {
            let mut config = DesignConfig::trim(Technology::SotSheMram);
            config.gate_style = style;
            let (report, expected) = run_clean(config);
            assert_eq!(from_bits(&report.outputs), expected, "{style}");
            assert!(report.checks > 0);
            assert_eq!(report.errors_detected, 0);
        }
    }

    #[test]
    fn shortened_hamming_design_is_functionally_correct() {
        // The Hamming(71, 64) design point used by the trial-throughput
        // benchmark must execute cleanly end to end.
        let config = DesignConfig::ecim(Technology::SttMram).with_hamming_data_bits(64);
        let executor = ProtectedExecutor::new(config.clone());
        assert_eq!(executor.code().n(), 71);
        assert_eq!(executor.code().k(), 64);
        let (report, expected) = run_clean(config);
        assert_eq!(from_bits(&report.outputs), expected);
        assert!(report.checks > 0);
        assert_eq!(report.errors_detected, 0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        // One warmed-up scratch running back-to-back trials must produce
        // exactly the reports that fresh per-run scratches produce, for
        // every scheme — the arena-reset purity contract.
        let netlist = mac_netlist();
        let mut inputs = to_bits(33, 8);
        inputs.extend(to_bits(14, 4));
        inputs.extend(to_bits(6, 4));
        let rates = ErrorRates {
            gate: 0.002,
            ..ErrorRates::NONE
        };
        for config in [
            DesignConfig::unprotected(Technology::SttMram),
            DesignConfig::ecim(Technology::SttMram),
            DesignConfig::trim(Technology::SttMram),
        ] {
            let executor = ProtectedExecutor::new(config.clone());
            let schedule = map_netlist(&netlist, config.row_layout()).unwrap();
            let mut scratch = ExecScratch::new();
            let mut reused_array = PimArray::standard(config.technology);
            for seed in 0..6u64 {
                reused_array.reset_for_trial(config.technology, rates, seed);
                let reused = executor
                    .run_with_scratch(
                        &netlist,
                        &schedule,
                        &mut reused_array,
                        0,
                        &inputs,
                        &mut scratch,
                    )
                    .unwrap();
                let mut fresh_array = PimArray::standard(config.technology)
                    .with_fault_injector(FaultInjector::new(rates, seed));
                let fresh = executor
                    .run(&netlist, &schedule, &mut fresh_array, 0, &inputs)
                    .unwrap();
                assert_eq!(reused, fresh, "{} seed {seed}", config.label());
                assert_eq!(
                    reused_array.fault_injector().log(),
                    fresh_array.fault_injector().log(),
                    "{} seed {seed}: fault logs must match",
                    config.label()
                );
            }
        }
    }

    #[test]
    fn ecim_corrects_computation_errors_that_corrupt_the_unprotected_run() {
        // A modest gate error rate corrupts unprotected results but ECiM's
        // logic-level checks repair them. We pick a rate low enough that at
        // most one error lands per logic level (the SEP operating regime).
        let netlist = mac_netlist();
        let mut inputs = to_bits(77, 8);
        inputs.extend(to_bits(11, 4));
        inputs.extend(to_bits(7, 4));
        let expected = 77 + 11 * 7;
        // Low enough that (with these fixed seeds) at most one error lands in
        // any logic level — the SEP operating regime.
        let rates = ErrorRates {
            gate: 0.0003,
            ..ErrorRates::NONE
        };

        let mut ecim_failures = 0;
        let mut detections = 0;
        for seed in 0..20u64 {
            let config = DesignConfig::ecim(Technology::SttMram);
            let executor = ProtectedExecutor::new(config.clone());
            let schedule = map_netlist(&netlist, config.row_layout()).unwrap();
            let mut array = PimArray::standard(config.technology)
                .with_fault_injector(FaultInjector::new(rates, seed));
            let report = executor
                .run(&netlist, &schedule, &mut array, 0, &inputs)
                .unwrap();
            detections += report.errors_detected;
            if from_bits(&report.outputs) != expected {
                ecim_failures += 1;
            }
        }
        assert!(detections > 0, "fault injection should trigger detections");
        assert_eq!(
            ecim_failures, 0,
            "ECiM must correct single errors per level"
        );
    }

    #[test]
    fn trim_corrects_computation_errors() {
        let netlist = mac_netlist();
        let mut inputs = to_bits(5, 8);
        inputs.extend(to_bits(15, 4));
        inputs.extend(to_bits(15, 4));
        let expected = 5 + 15 * 15;
        let rates = ErrorRates {
            gate: 0.002,
            ..ErrorRates::NONE
        };
        let mut failures = 0;
        let mut detections = 0;
        for seed in 100..120u64 {
            let config = DesignConfig::trim(Technology::SttMram).with_single_output_gates();
            let executor = ProtectedExecutor::new(config.clone());
            let schedule = map_netlist(&netlist, config.row_layout()).unwrap();
            let mut array = PimArray::standard(config.technology)
                .with_fault_injector(FaultInjector::new(rates, seed));
            let report = executor
                .run(&netlist, &schedule, &mut array, 0, &inputs)
                .unwrap();
            detections += report.errors_detected;
            if from_bits(&report.outputs) != expected {
                failures += 1;
            }
        }
        assert!(detections > 0);
        assert_eq!(failures, 0, "TRiM must correct single errors per level");
    }

    #[test]
    fn unprotected_execution_is_corrupted_by_the_same_error_regime() {
        let netlist = mac_netlist();
        let mut inputs = to_bits(200, 8);
        inputs.extend(to_bits(12, 4));
        inputs.extend(to_bits(3, 4));
        let expected = 200 + 12 * 3;
        let rates = ErrorRates {
            gate: 0.002,
            ..ErrorRates::NONE
        };
        let mut failures = 0;
        for seed in 0..20u64 {
            let config = DesignConfig::unprotected(Technology::SttMram);
            let executor = ProtectedExecutor::new(config.clone());
            let schedule = map_netlist(&netlist, config.row_layout()).unwrap();
            let mut array = PimArray::standard(config.technology)
                .with_fault_injector(FaultInjector::new(rates, seed));
            let report = executor
                .run(&netlist, &schedule, &mut array, 0, &inputs)
                .unwrap();
            if from_bits(&report.outputs) != expected {
                failures += 1;
            }
        }
        assert!(
            failures > 0,
            "the unprotected baseline should be corrupted at least once over 20 seeds"
        );
    }

    #[test]
    fn layout_mismatch_is_rejected() {
        let netlist = mac_netlist();
        let config = DesignConfig::ecim(Technology::SttMram);
        let executor = ProtectedExecutor::new(config);
        // Schedule compiled for the *unprotected* layout.
        let schedule = map_netlist(
            &netlist,
            DesignConfig::unprotected(Technology::SttMram).row_layout(),
        )
        .unwrap();
        let mut array = PimArray::standard(Technology::SttMram);
        let err = executor.run(&netlist, &schedule, &mut array, 0, &[false; 16]);
        assert_eq!(err, Err(ProtectedExecError::LayoutMismatch));
    }

    #[test]
    fn wrong_input_count_is_rejected() {
        let netlist = mac_netlist();
        let config = DesignConfig::unprotected(Technology::ReRam);
        let executor = ProtectedExecutor::new(config.clone());
        let schedule = map_netlist(&netlist, config.row_layout()).unwrap();
        let mut array = PimArray::standard(Technology::ReRam);
        let err = executor.run(&netlist, &schedule, &mut array, 0, &[true; 2]);
        assert!(matches!(
            err,
            Err(ProtectedExecError::InputArityMismatch {
                expected: 16,
                got: 2
            })
        ));
    }
}
