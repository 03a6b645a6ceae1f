//! Lane-batched protected execution: the
//! [`ProtectedExecutor`](crate::executor::ProtectedExecutor) semantics on
//! the transposed, bit-sliced array — 64 Monte Carlo trials per run.
//!
//! [`SlicedExecutor`] validates a compiled [`RowSchedule`] and dispatches
//! to the scheme's
//! [`SchemeRuntime::run_sliced`](crate::scheme::SchemeRuntime::run_sliced)
//! (per-scheme paths live in [`crate::schemes`]; every scheme implements
//! one). The array is a
//! [`SlicedPimArray`] whose cells each hold one `u64` of 64 independent
//! trial lanes. The *operation sequence* of a protected run is a pure
//! function of the schedule (gate order, parity folds, logic-level check
//! boundaries are never data-dependent), so every lane executes the same
//! program and each gate/fold/preset becomes a handful of word operations
//! serving all 64 trials. Only the Checker's decode step diverges per lane
//! — and its lane-parallel syndrome / majority-vote kernels
//! ([`EcimChecker::decode_level_lanes`](crate::checker::EcimChecker::decode_level_lanes),
//! [`TrimChecker::vote_level_lanes`](crate::checker::TrimChecker::vote_level_lanes))
//! fall back to scalar work only for the rare lanes that actually observed
//! an error.
//!
//! **Equivalence contract:** lane *k* of a batch — outputs, detection /
//! correction / uncorrectable counters, and the injected-fault log — is
//! bit-identical to a scalar
//! [`ProtectedExecutor`](crate::executor::ProtectedExecutor) run of trial
//! *k* with the same seeds. The tests in this module assert it per scheme and gate
//! style; `nvpim-sweep`'s backend-equivalence suite asserts it at report
//! granularity.

use nvpim_compiler::netlist::{LogicOp, Netlist};
use nvpim_compiler::schedule::{RowSchedule, ScheduledGate};
use nvpim_ecc::hamming::HammingCode;
use nvpim_sim::sliced::{SlicedPimArray, LANES};

use crate::config::DesignConfig;
use crate::executor::ProtectedExecError;

/// Per-lane counters of one sliced batch run. `checks` and
/// `metadata_gate_ops` are schedule-driven and therefore identical in
/// every lane; the error counters are per lane. Primary outputs stay in
/// [`SlicedExecScratch::output_words`] (transposed, one word per output
/// bit) to keep the report allocation-free.
#[derive(Debug, Clone)]
pub struct SlicedRunReport {
    /// Checker invocations (identical in every lane).
    pub checks: u64,
    /// Metadata gate operations (identical in every lane).
    pub metadata_gate_ops: u64,
    /// Checks that detected an error, per lane.
    pub errors_detected: [u64; LANES],
    /// Data bits corrected and written back, per lane.
    pub corrections_written_back: [u64; LANES],
    /// Checks flagged uncorrectable, per lane.
    pub uncorrectable: [u64; LANES],
}

impl Default for SlicedRunReport {
    fn default() -> Self {
        Self::new()
    }
}

impl SlicedRunReport {
    /// A zeroed report (the starting point of every
    /// [`SchemeRuntime::run_sliced`](crate::scheme::SchemeRuntime::run_sliced)
    /// implementation).
    pub fn new() -> Self {
        Self {
            checks: 0,
            metadata_gate_ops: 0,
            errors_detected: [0; LANES],
            corrections_written_back: [0; LANES],
            uncorrectable: [0; LANES],
        }
    }
}

/// Reusable working memory for [`SlicedExecutor::run_batch`]; the sliced
/// counterpart of [`crate::executor::ExecScratch`], with the Checker
/// transfer buffers transposed into lane words. Cleared (never shrunk) per
/// run — steady-state batches allocate nothing.
/// The buffers are public so
/// [`SchemeRuntime`](crate::scheme::SchemeRuntime) implementations —
/// including out-of-tree ones — can reuse them instead of allocating their
/// own per-batch state; the parity/copy buffers are general-purpose despite
/// their historical per-scheme naming.
#[derive(Debug, Default)]
pub struct SlicedExecScratch {
    /// Net id → primary-input position (dense, `u32::MAX` = not an input).
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
    /// Check flush: lane words of the chunk's data cells.
    pub data_words: Vec<u64>,
    /// Check flush: lane words of the running parity cells.
    pub parity_words: Vec<u64>,
    /// Check flush: lane-parallel syndrome accumulator (one word per parity
    /// bit).
    pub syndrome_words: Vec<u64>,
    /// The three copy columns of every gate in the current level
    /// (redundancy-style schemes).
    pub level_outputs: Vec<[usize; 3]>,
    /// Vote flush: lane words of the first copy plane.
    pub copy_a: Vec<u64>,
    /// Vote flush: lane words of the second copy plane.
    pub copy_b: Vec<u64>,
    /// Vote flush: lane words of the third copy plane.
    pub copy_c: Vec<u64>,
    /// Vote flush: lane-parallel majority vote result.
    pub voted: Vec<u64>,
    /// Primary outputs after the run, transposed: `output_words[i]` holds
    /// output bit `i` across all lanes.
    pub output_words: Vec<u64>,
}

impl SlicedExecScratch {
    /// Creates an empty scratch.
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

/// Executes schedules under a [`DesignConfig`]'s protection scheme, 64
/// trials at a time. Construction mirrors
/// [`ProtectedExecutor`](crate::executor::ProtectedExecutor).
#[derive(Debug, Clone)]
pub struct SlicedExecutor {
    config: DesignConfig,
    code: HammingCode,
}

impl SlicedExecutor {
    /// Creates a sliced executor for the given design point.
    pub fn new(config: DesignConfig) -> Self {
        let code = config.hamming_code();
        Self { config, code }
    }

    /// The design configuration.
    pub fn config(&self) -> &DesignConfig {
        &self.config
    }

    /// The Hamming code used for parity-style schemes.
    pub fn code(&self) -> &HammingCode {
        &self.code
    }

    /// Runs `schedule` in row `row` for every lane of `array`'s current
    /// batch at once. `inputs` is transposed: `inputs[i]` holds primary
    /// input `i` across all lanes. Lanes beyond the batch's valid mask
    /// carry garbage and are never reported.
    ///
    /// # Errors
    ///
    /// Exactly the scalar
    /// [`ProtectedExecutor::run_with_scratch`](crate::executor::ProtectedExecutor::run_with_scratch)
    /// validation errors (a failing batch fails identically for every
    /// lane, before any fault is drawn).
    pub fn run_batch(
        &self,
        netlist: &Netlist,
        schedule: &RowSchedule,
        array: &mut SlicedPimArray,
        row: usize,
        inputs: &[u64],
        scratch: &mut SlicedExecScratch,
    ) -> Result<SlicedRunReport, ProtectedExecError> {
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
            .run_sliced(self, netlist, schedule, array, row, inputs, scratch)
    }

    // ------------------------------------------------------------------
    // Scheme-runtime building blocks: the lane-parallel mirrors of the
    // scalar executor's primitives, composed by
    // `SchemeRuntime::run_sliced` implementations.
    // ------------------------------------------------------------------

    /// Writes any not-yet-materialized primary inputs consumed by `sg` into
    /// every copy this design keeps (the lane-parallel mirror of
    /// [`ProtectedExecutor::materialize_inputs`](crate::executor::ProtectedExecutor::materialize_inputs)).
    pub fn materialize_inputs(
        &self,
        netlist: &Netlist,
        sg: &ScheduledGate,
        array: &mut SlicedPimArray,
        row: usize,
        inputs: &[u64],
        scratch: &mut SlicedExecScratch,
    ) {
        let gate_inputs = &netlist.gates[sg.index].inputs;
        for (i, &net) in gate_inputs.iter().enumerate() {
            let pos = scratch.input_positions[net];
            if pos != u32::MAX && !scratch.materialized[net] {
                scratch.materialized[net] = true;
                for copy in 0..self.config.cells_per_value() {
                    let col = sg.input_cols_per_copy[copy.min(sg.input_cols_per_copy.len() - 1)][i];
                    array.write_lanes(row, col, inputs[pos as usize]);
                }
            }
        }
    }

    /// Reads the schedule's primary outputs into
    /// [`SlicedExecScratch::output_words`] (transposed, one word per output
    /// bit).
    pub fn read_outputs(
        &self,
        netlist: &Netlist,
        schedule: &RowSchedule,
        array: &SlicedPimArray,
        row: usize,
        inputs: &[u64],
        scratch: &mut SlicedExecScratch,
    ) {
        scratch.output_words.clear();
        for (i, col) in schedule.output_cols.iter().enumerate() {
            match col {
                Some(c) => scratch.output_words.push(array.cell(row, *c)),
                None => {
                    let net = netlist.outputs[i];
                    let pos = netlist
                        .inputs
                        .iter()
                        .position(|&n| n == net)
                        .expect("non-resident output must be a primary input");
                    scratch.output_words.push(inputs[pos]);
                }
            }
        }
    }

    /// One scheduled gate into its primary output columns plus `extra`
    /// metadata columns — the lane-parallel mirror of the scalar
    /// `execute_plain_gate` (identical output order, hence identical
    /// per-output fault-decision order).
    pub fn execute_plain_gate(
        &self,
        sg: &ScheduledGate,
        array: &mut SlicedPimArray,
        row: usize,
        extra: &[usize],
        out_buf: &mut Vec<usize>,
    ) {
        let outputs: &[usize] = if extra.is_empty() {
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
                    array.write_const(row, col, value);
                }
            }
            LogicOp::Nor => array.gate_nor(row, &sg.input_cols, outputs),
            LogicOp::Copy => {
                for &col in outputs {
                    array.gate_copy(row, sg.input_cols[0], col);
                }
            }
            LogicOp::Thr => {
                for &col in outputs {
                    array.gate_thr(row, &sg.input_cols, col);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ProtectedExecutor;
    use nvpim_compiler::builder::CircuitBuilder;
    use nvpim_compiler::schedule::map_netlist;
    use nvpim_sim::array::PimArray;
    use nvpim_sim::fault::{ErrorRates, FaultInjector};
    use nvpim_sim::technology::Technology;

    fn mac_netlist() -> Netlist {
        let mut b = CircuitBuilder::new();
        let acc = b.input_word(8);
        let x = b.input_word(4);
        let y = b.input_word(4);
        let out = b.mac(&acc, &x, &y);
        b.mark_output_word(&out);
        b.finish()
    }

    fn lane_inputs(netlist: &Netlist, lanes: usize) -> (Vec<u64>, Vec<Vec<bool>>) {
        let n = netlist.inputs.len();
        let mut words = vec![0u64; n];
        let mut per_lane = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let bits: Vec<bool> = (0..n)
                .map(|i| (lane.wrapping_mul(7) + i.wrapping_mul(13)) % 3 == 0)
                .collect();
            for (i, &b) in bits.iter().enumerate() {
                words[i] |= u64::from(b) << lane;
            }
            per_lane.push(bits);
        }
        (words, per_lane)
    }

    /// Full-batch equivalence: every lane of a sliced run must match a
    /// scalar run of the same trial — outputs, counters and fault logs —
    /// across schemes, gate styles and batch widths (incl. ragged tails).
    #[test]
    fn sliced_batches_match_scalar_runs_lane_for_lane() {
        let netlist = mac_netlist();
        let rates = ErrorRates {
            gate: 2e-3,
            ..ErrorRates::NONE
        };
        let configs = [
            DesignConfig::unprotected(Technology::SttMram),
            DesignConfig::ecim(Technology::SttMram),
            DesignConfig::ecim(Technology::ReRam).with_single_output_gates(),
            DesignConfig::ecim(Technology::SttMram).with_hamming_data_bits(64),
            DesignConfig::trim(Technology::SotSheMram),
            DesignConfig::trim(Technology::SttMram).with_single_output_gates(),
        ];
        for config in configs {
            for lanes in [64usize, 5, 1] {
                let schedule = map_netlist(&netlist, config.row_layout()).unwrap();
                let (input_words, per_lane_inputs) = lane_inputs(&netlist, lanes);
                let seeds: Vec<u64> = (0..lanes).map(|l| 0xFACE ^ (l as u64) << 3).collect();

                let sliced_exec = SlicedExecutor::new(config.clone());
                let mut array = SlicedPimArray::standard_rows(1);
                array.reset_for_batch(rates, &seeds);
                let mut scratch = SlicedExecScratch::new();
                let report = sliced_exec
                    .run_batch(
                        &netlist,
                        &schedule,
                        &mut array,
                        0,
                        &input_words,
                        &mut scratch,
                    )
                    .unwrap();

                let scalar_exec = ProtectedExecutor::new(config.clone());
                let mut total_faults = 0usize;
                for lane in 0..lanes {
                    let mut scalar_array = PimArray::standard(config.technology)
                        .with_fault_injector(FaultInjector::new(rates, seeds[lane]));
                    let scalar = scalar_exec
                        .run(
                            &netlist,
                            &schedule,
                            &mut scalar_array,
                            0,
                            &per_lane_inputs[lane],
                        )
                        .unwrap();
                    let label = format!("{} lanes={lanes} lane={lane}", config.label());
                    let sliced_outputs: Vec<bool> = scratch
                        .output_words
                        .iter()
                        .map(|w| (w >> lane) & 1 == 1)
                        .collect();
                    assert_eq!(sliced_outputs, scalar.outputs, "{label}: outputs");
                    assert_eq!(report.checks, scalar.checks, "{label}: checks");
                    assert_eq!(
                        report.metadata_gate_ops, scalar.metadata_gate_ops,
                        "{label}: metadata ops"
                    );
                    assert_eq!(
                        report.errors_detected[lane], scalar.errors_detected,
                        "{label}: detections"
                    );
                    assert_eq!(
                        report.corrections_written_back[lane], scalar.corrections_written_back,
                        "{label}: corrections"
                    );
                    assert_eq!(
                        report.uncorrectable[lane], scalar.uncorrectable,
                        "{label}: uncorrectable"
                    );
                    assert_eq!(
                        array.injector().lane_log(lane),
                        scalar_array.fault_injector().log(),
                        "{label}: fault log"
                    );
                    total_faults += array.injector().lane_fault_count(lane);
                }
                if lanes == 64 {
                    assert!(
                        total_faults > 0,
                        "{}: a 64-lane batch at gate rate 2e-3 must inject faults",
                        config.label()
                    );
                }
            }
        }
    }

    #[test]
    fn validation_errors_mirror_the_scalar_executor() {
        let netlist = mac_netlist();
        let config = DesignConfig::ecim(Technology::SttMram);
        let exec = SlicedExecutor::new(config);
        // Schedule compiled for the unprotected layout → layout mismatch.
        let schedule = map_netlist(
            &netlist,
            DesignConfig::unprotected(Technology::SttMram).row_layout(),
        )
        .unwrap();
        let mut array = SlicedPimArray::standard_rows(1);
        array.reset_for_batch(ErrorRates::NONE, &[1, 2, 3]);
        let mut scratch = SlicedExecScratch::new();
        let err = exec.run_batch(&netlist, &schedule, &mut array, 0, &[0; 16], &mut scratch);
        assert_eq!(err.unwrap_err(), ProtectedExecError::LayoutMismatch);
    }
}
