//! ParityDetect — detection-only even parity with SECDED-style
//! detect-and-retry accounting.
//!
//! The lightest protection regime in the design space between the
//! unprotected baseline and full in-memory ECC: every protected gate output
//! is folded (via the same two-step in-array XOR primitive ECiM uses) into
//! a **single** running parity cell, and at every logic-level boundary an
//! external parity Checker reads the level's outputs plus the parity cell
//! and flags a mismatch. The scheme cannot locate the flipped bit, so
//! nothing is written back; instead each detection is accounted as one
//! would-be *retry* of the level (the `uncorrectable` counter doubles as
//! the retry count — in a deployed detect-and-retry system the level would
//! be re-executed, which costs time, not correctness). Even parity detects
//! every odd-weight error pattern per level — in the paper's
//! single-error-per-level (SEP) operating regime that is *every* error —
//! so ParityDetect converts silent corruptions into detected ones at a
//! fraction of ECiM's metadata footprint (1 running parity bit vs `n − k`).
//!
//! The pipeline itself — fold, per-level check, lane-parallel twin — lives
//! here as `run_parity_scalar` and `run_parity_sliced`, which take the
//! per-level mismatch handler as an argument. ParityDetect's handler
//! counts a retry; DetectRecompute (`detect_recompute.rs`) passes a
//! recompute handler and runs the very same functions, so the two schemes
//! share their detection machinery by construction rather than by copy.
//!
//! This scheme landed **after** the scheme-as-plugin redesign, through the
//! plugin path only: one file plus one registry line, with zero edits to
//! the executors, the sweep engine, the service protocol or the CLIs. Use
//! it as the template for new schemes.
//!
//! Metadata-region layout (columns `0..5`):
//!
//! ```text
//! 0  ping running-parity cell
//! 1  pong running-parity cell
//! 2  XOR working cell s1
//! 3  XOR working cell s2
//! 4  redundant-copy cell r (the gate's extra output, folded into parity)
//! ```

use nvpim_compiler::netlist::{LogicOp, Netlist};
use nvpim_compiler::schedule::{RowSchedule, ScheduledGate};
use nvpim_sim::array::PimArray;
use nvpim_sim::gates::GateKind;
use nvpim_sim::sliced::SlicedPimArray;

use crate::checker::CheckerCostModel;
use crate::config::{DesignConfig, GateStyle};
use crate::executor::{ExecScratch, ProtectedExecError, ProtectedExecutor, ProtectedRunReport};
use crate::scheme::{CostEnv, SchemeRuntime};
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

/// ParityDetect's runtime (registered as `"ParityDetect"`).
#[derive(Debug)]
pub struct ParityDetectScheme;

/// The external detection-only parity Checker: XOR-reduces a level's data
/// bits against the running parity cell. Counts checks and detections;
/// never corrects — each detection is one would-be retry.
#[derive(Debug, Default)]
pub struct ParityDetectChecker {
    checks: u64,
    detections: u64,
}

impl ParityDetectChecker {
    /// A fresh checker with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of level checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of parity mismatches observed (= would-be retries).
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Checks one level: `data_parity` is the XOR-reduction of the level's
    /// read-back data bits, `stored_parity` the running parity cell.
    /// Returns whether a mismatch (an odd-weight error) was detected.
    pub fn detect_level(&mut self, data_parity: bool, stored_parity: bool) -> bool {
        self.checks += 1;
        let mismatch = data_parity != stored_parity;
        if mismatch {
            self.detections += 1;
        }
        mismatch
    }

    /// Lane-parallel level check for the sliced backend: `data_words`
    /// holds each data cell's lane word, `parity_word` the running parity
    /// cell's. Returns the mask of valid lanes whose parity mismatched —
    /// per lane, exactly the boolean [`Self::detect_level`] returns for
    /// that lane's bits. Counts one check (the Checker block decodes all
    /// lanes in one invocation, mirroring the scalar accounting).
    pub fn detect_level_lanes(&mut self, data_words: &[u64], parity_word: u64, valid: u64) -> u64 {
        self.checks += 1;
        let mut acc = parity_word;
        for &word in data_words {
            acc ^= word;
        }
        let mismatch = acc & valid;
        self.detections += u64::from(mismatch.count_ones());
        mismatch
    }
}

impl SchemeRuntime for ParityDetectScheme {
    fn wire_name(&self) -> &'static str {
        "ParityDetect"
    }

    fn display_name(&self) -> &'static str {
        "parity"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["parity-detect", "ParityDetectScheme"]
    }

    fn metadata_columns(&self, _config: &DesignConfig) -> usize {
        METADATA_COLUMNS
    }

    fn detect_only(&self) -> bool {
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
        // ECiM's pipeline model with w = 1: one redundant copy per output,
        // one two-step XOR fold into the single running parity cell. The
        // folds form a dependence chain through that one cell (the run
        // paths serialize them in schedule order), so unlike ECiM there is
        // no parity-block parallelism to divide by.
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
            // The single running parity cell is reset at every level
            // boundary.
            b.write_energy_fj += env.write_e;

            // Checker communication: level outputs + the parity bit.
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
        run_parity_scalar(
            exec,
            netlist,
            schedule,
            array,
            row,
            inputs,
            scratch,
            |_, _, _, report| {
                // Detection-only: every detection is a would-be retry,
                // surfaced through the uncorrectable counter so failures
                // are never silent.
                report.uncorrectable += 1;
                Ok(())
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
            |_, _, _, mut mismatch, report| {
                while mismatch != 0 {
                    let lane = mismatch.trailing_zeros() as usize;
                    mismatch &= mismatch - 1;
                    report.uncorrectable[lane] += 1;
                }
            },
        )
    }
}

/// Whether a scheduled gate's output is folded into the running parity
/// (and so checked and, under DetectRecompute, recomputed): constants and
/// dead nets run plain.
pub(crate) fn is_protected(netlist: &Netlist, used_nets: &[bool], sg: &ScheduledGate) -> bool {
    !matches!(sg.op, LogicOp::Zero | LogicOp::One) && used_nets[netlist.gates[sg.index].output]
}

/// The running-parity pipeline on the scalar oracle, shared by every
/// scheme that folds its protected outputs into one parity cell. Per
/// logic level: reset the parity cell, run the level's gates (each
/// protected output produces a redundant copy `r` that the two-step XOR
/// folds into the cell), then read the level's outputs and the cell back
/// and check them. A mismatching level counts one detection and is handed
/// to `on_mismatch` with the level's gates — the one step in which the
/// parity schemes differ.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parity_scalar(
    exec: &ProtectedExecutor,
    netlist: &Netlist,
    schedule: &RowSchedule,
    array: &mut PimArray,
    row: usize,
    inputs: &[bool],
    scratch: &mut ExecScratch,
    mut on_mismatch: impl FnMut(
        &mut PimArray,
        &[bool],
        &[ScheduledGate],
        &mut ProtectedRunReport,
    ) -> Result<(), ProtectedExecError>,
) -> Result<ProtectedRunReport, ProtectedExecError> {
    let config = exec.config();
    assert!(
        config.metadata_columns() >= METADATA_COLUMNS,
        "parity pipeline metadata region too small"
    );
    scratch.parity_in_pong.clear();
    scratch.parity_in_pong.resize(1, false);
    scratch.chunk_cols.clear();

    let mut checker = ParityDetectChecker::new();
    let mut report = ProtectedRunReport::default();

    for level in schedule.levels() {
        array.preset_cells(row, PING..PONG + 1, false)?;
        scratch.parity_in_pong[0] = false;
        for sg in level {
            exec.materialize_inputs(netlist, sg, array, row, inputs, scratch)?;

            if !is_protected(netlist, &scratch.used_nets, sg) {
                exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols)?;
                continue;
            }

            // Produce the redundant copy r (the gate's extra output for
            // multi-output designs, a separate re-execution otherwise) …
            match config.gate_style {
                GateStyle::MultiOutput => {
                    exec.execute_plain_gate(sg, array, row, &[R_CELL], &mut scratch.out_cols)?;
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
                }
            }

            // … and fold it into the running parity cell (ping/pong
            // two-step XOR, same primitive and fault sites as ECiM's).
            let (src, dst) = if scratch.parity_in_pong[0] {
                (PONG, PING)
            } else {
                (PING, PONG)
            };
            array.execute_xor2_step(row, src, R_CELL, WORK_S1, WORK_S2, dst)?;
            scratch.parity_in_pong[0] = !scratch.parity_in_pong[0];
            // The copy r plus the two XOR steps.
            report.metadata_gate_ops += 3;

            scratch.chunk_cols.push(sg.output_cols[0]);
        }
        if scratch.chunk_cols.is_empty() {
            continue;
        }
        // Conventional memory read of the level outputs and the parity cell.
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
        if checker.detect_level(data_parity, scratch.bits_b.get(0)) {
            report.errors_detected += 1;
            on_mismatch(array, &scratch.used_nets, level, &mut report)?;
        }
        scratch.chunk_cols.clear();
    }

    report.outputs = exec.read_outputs(netlist, schedule, array, row, inputs)?;
    report.checks = checker.checks();
    Ok(report)
}

/// Lane-parallel twin of [`run_parity_scalar`]: the same operations in the
/// same order on 64 lanes at once. A level check yields the mask of
/// mismatching lanes; each counts one detection, and `on_mismatch`
/// receives the level's gates and that mask.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parity_sliced(
    exec: &SlicedExecutor,
    netlist: &Netlist,
    schedule: &RowSchedule,
    array: &mut SlicedPimArray,
    row: usize,
    inputs: &[u64],
    scratch: &mut SlicedExecScratch,
    mut on_mismatch: impl FnMut(
        &mut SlicedPimArray,
        &[bool],
        &[ScheduledGate],
        u64,
        &mut SlicedRunReport,
    ),
) -> Result<SlicedRunReport, ProtectedExecError> {
    let config = exec.config();
    assert!(
        config.metadata_columns() >= METADATA_COLUMNS,
        "parity pipeline metadata region too small"
    );
    scratch.parity_in_pong.clear();
    scratch.parity_in_pong.resize(1, false);
    scratch.chunk_cols.clear();

    let mut checker = ParityDetectChecker::new();
    let mut report = SlicedRunReport::new();

    for level in schedule.levels() {
        array.preset_range(row, PING..PONG + 1, false);
        scratch.parity_in_pong[0] = false;
        for sg in level {
            exec.materialize_inputs(netlist, sg, array, row, inputs, scratch);

            if !is_protected(netlist, &scratch.used_nets, sg) {
                exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols);
                continue;
            }

            match config.gate_style {
                GateStyle::MultiOutput => {
                    exec.execute_plain_gate(sg, array, row, &[R_CELL], &mut scratch.out_cols);
                }
                GateStyle::SingleOutput => {
                    exec.execute_plain_gate(sg, array, row, &[], &mut scratch.out_cols);
                    match sg.op {
                        LogicOp::Nor => array.gate_nor(row, &sg.input_cols, &[R_CELL]),
                        LogicOp::Thr => array.gate_thr(row, &sg.input_cols, R_CELL),
                        LogicOp::Copy => array.gate_copy(row, sg.input_cols[0], R_CELL),
                        LogicOp::Zero | LogicOp::One => unreachable!("constants handled above"),
                    }
                }
            }

            let (src, dst) = if scratch.parity_in_pong[0] {
                (PONG, PING)
            } else {
                (PING, PONG)
            };
            array.gate_xor2(row, src, R_CELL, WORK_S1, WORK_S2, dst);
            scratch.parity_in_pong[0] = !scratch.parity_in_pong[0];
            // The copy r plus the two XOR steps.
            report.metadata_gate_ops += 3;

            scratch.chunk_cols.push(sg.output_cols[0]);
        }
        if scratch.chunk_cols.is_empty() {
            continue;
        }
        let SlicedExecScratch {
            chunk_cols,
            parity_in_pong,
            data_words,
            used_nets,
            ..
        } = &mut *scratch;
        data_words.clear();
        data_words.extend(chunk_cols.iter().map(|&c| array.cell(row, c)));
        let parity_col = if parity_in_pong[0] { PONG } else { PING };
        let parity_word = array.cell(row, parity_col);
        let valid = array.injector().valid_mask();
        let mismatch = checker.detect_level_lanes(data_words, parity_word, valid);
        if mismatch != 0 {
            let mut flagged = mismatch;
            while flagged != 0 {
                let lane = flagged.trailing_zeros() as usize;
                flagged &= flagged - 1;
                report.errors_detected[lane] += 1;
            }
            on_mismatch(array, used_nets, level, mismatch, &mut report);
        }
        chunk_cols.clear();
    }

    exec.read_outputs(netlist, schedule, array, row, inputs, scratch);
    report.checks = checker.checks();
    Ok(report)
}
