//! Mapping a netlist onto a single PiM row: column allocation, area
//! reclaims, spills, and the per-logic-level operation profile that the
//! timing/energy model of `nvpim-core` consumes (§II-B step 3 and §V).
//!
//! Every row of the fleet executes the same schedule on different data
//! (row-level parallelism), so one [`RowSchedule`] fully describes the
//! computation; the full-system model multiplies by the number of active
//! rows and arrays.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::alloc::{ReclaimEvent, ScratchAllocator};
use crate::layout::RowLayout;
use crate::netlist::{LogicOp, NetId, Netlist};

/// Errors produced while mapping a netlist onto a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The live working set exceeds the row's scratch capacity and no value
    /// can be spilled.
    RowCapacityExceeded {
        /// Gate at which mapping failed.
        at_gate: usize,
        /// The row's value capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::RowCapacityExceeded { at_gate, capacity } => write!(
                f,
                "row scratch capacity of {capacity} values exceeded at gate {at_gate}"
            ),
        }
    }
}

impl std::error::Error for MapError {}

/// One gate operation with its physical column assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledGate {
    /// Index of the gate in the netlist (schedule order).
    pub index: usize,
    /// Logic level of the gate.
    pub level: usize,
    /// Operation.
    pub op: LogicOp,
    /// Columns of the input cells (the primary copy of each operand).
    pub input_cols: Vec<usize>,
    /// Columns of the output cells (`cells_per_value` of them).
    pub output_cols: Vec<usize>,
    /// For designs keeping redundant value copies (TRiM): entry `c` holds the
    /// input columns of copy `c` (entry 0 equals `input_cols`). Always has
    /// `cells_per_value` entries.
    pub input_cols_per_copy: Vec<Vec<usize>>,
}

/// Per-logic-level operation counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LevelProfile {
    /// NOR-family operations (including NOT).
    pub nor_ops: usize,
    /// THR operations.
    pub thr_ops: usize,
    /// Copy operations (fusable into multi-output NORs when the producer is
    /// a NOR and the design uses multi-output gates).
    pub copy_ops: usize,
    /// Copy operations whose producer is a NOR in the *same or an earlier*
    /// level, i.e. copies a multi-output design gets for free.
    pub fusable_copies: usize,
}

impl LevelProfile {
    /// Total gate operations in this level.
    pub fn total_ops(&self) -> usize {
        self.nor_ops + self.thr_ops + self.copy_ops
    }
}

/// The complete mapping of a netlist onto one PiM row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RowSchedule {
    /// The layout the schedule was produced for.
    pub layout: RowLayout,
    /// Scheduled gates in execution order.
    pub gates: Vec<ScheduledGate>,
    /// Per-level operation profile (index = logic level).
    pub level_profile: Vec<LevelProfile>,
    /// Area-reclaim events (Table IV counts their number).
    pub reclaims: Vec<ReclaimEvent>,
    /// Values written to another row because the scratch was full.
    pub spill_stores: usize,
    /// Spilled values read back.
    pub spill_loads: usize,
    /// Primary-input bits written into the row.
    pub input_writes: usize,
    /// Columns of the primary outputs at the end of execution (`None` when
    /// the output ended up spilled).
    pub output_cols: Vec<Option<usize>>,
}

impl RowSchedule {
    /// Number of area reclaim events.
    pub fn reclaim_count(&self) -> usize {
        self.reclaims.len()
    }

    /// Total cells recycled across all reclaim events.
    pub fn reclaimed_cells(&self) -> usize {
        self.reclaims.iter().map(|r| r.cells_freed).sum()
    }

    /// Number of gate operations (excluding constants).
    pub fn gate_op_count(&self) -> usize {
        self.level_profile.iter().map(LevelProfile::total_ops).sum()
    }

    /// Circuit depth in logic levels.
    pub fn depth(&self) -> usize {
        self.level_profile.len()
    }

    /// The gates of each logic level, in execution order: one slice per
    /// level, each level's gates in schedule order. [`map_netlist`]
    /// assigns levels in non-decreasing gate order, so every level is one
    /// contiguous run of [`Self::gates`].
    pub fn levels(&self) -> impl Iterator<Item = &[ScheduledGate]> {
        self.gates.chunk_by(|a, b| a.level == b.level)
    }

    /// Number of primary output bits.
    pub fn output_bits(&self) -> usize {
        self.output_cols.len()
    }

    /// Whether the schedule can be executed directly on an array row for
    /// functional validation (no value was ever spilled to another row).
    pub fn is_directly_executable(&self) -> bool {
        self.spill_stores == 0
    }
}

#[derive(Debug)]
struct ResidentValue {
    cols: Vec<usize>,
    spilled: bool,
    last_use: usize,
}

/// Maps `netlist` onto a row described by `layout`.
///
/// Gates are scheduled in their netlist (creation) order, which preserves the
/// producer/consumer locality the greedy allocator relies on. Check
/// boundaries — the `level` field of every [`ScheduledGate`] — are assigned
/// greedily: consecutive gates share a level as long as none of them consumes
/// a value produced *within the same level*, which is exactly the
/// data-independence property the paper's logic-level-granularity error
/// checks require (§IV-E). Primary inputs are materialized (written into
/// scratch) immediately before
/// their first consumer and released after their last use, exactly like
/// intermediate values; this models operand staging uniformly across the
/// unprotected baseline and the protected designs.
///
/// # Errors
///
/// Returns [`MapError::RowCapacityExceeded`] when the live working set cannot
/// fit even with spilling (i.e. a single gate's operands exceed capacity).
pub fn map_netlist(netlist: &Netlist, layout: RowLayout) -> Result<RowSchedule, MapError> {
    // Assign each gate an execution level (check group): walking the gates
    // in creation order, a gate joins the current group unless one of its
    // operands was produced inside that group, in which case a new group
    // starts. Gates within a group are therefore never data-dependent.
    let mut levels = vec![0usize; netlist.gates.len()];
    {
        let mut current_level = 0usize;
        let mut produced_in_level: std::collections::HashSet<NetId> =
            std::collections::HashSet::new();
        for (idx, gate) in netlist.gates.iter().enumerate() {
            if gate.inputs.iter().any(|n| produced_in_level.contains(n)) {
                current_level += 1;
                produced_in_level.clear();
            }
            levels[idx] = current_level;
            produced_in_level.insert(gate.output);
        }
    }
    let depth = levels.iter().copied().max().unwrap_or(0);
    let order: Vec<usize> = (0..netlist.gates.len()).collect();

    // Use counts per net (each occurrence counts once).
    let mut remaining_uses: HashMap<NetId, usize> = HashMap::new();
    for gate in &netlist.gates {
        for &input in &gate.inputs {
            *remaining_uses.entry(input).or_insert(0) += 1;
        }
    }
    for &output in &netlist.outputs {
        *remaining_uses.entry(output).or_insert(0) += 1;
    }
    let last_uses = netlist.last_uses();

    // Which nets are NOR outputs (for copy fusability).
    let mut nor_outputs: HashMap<NetId, ()> = HashMap::new();

    let scratch_start = layout.metadata_columns;
    let mut allocator =
        ScratchAllocator::over_range(scratch_start..scratch_start + layout.scratch_columns());
    let cells_per_value = layout.cells_per_value.max(1);
    let value_capacity = layout.value_capacity();

    let primary_inputs: HashMap<NetId, ()> = netlist.inputs.iter().map(|&n| (n, ())).collect();

    let mut resident: HashMap<NetId, ResidentValue> = HashMap::new();
    let mut scheduled = Vec::with_capacity(netlist.gates.len());
    let mut level_profile = vec![LevelProfile::default(); depth + 1];
    let mut input_writes = 0usize;
    let mut spill_stores = 0usize;
    let mut spill_loads = 0usize;

    // Allocates `cells_per_value` cells, spilling resident values if needed.
    fn allocate_value(
        allocator: &mut ScratchAllocator,
        resident: &mut HashMap<NetId, ResidentValue>,
        pinned: &[NetId],
        gate_index: usize,
        cells: usize,
        capacity: usize,
        spill_stores: &mut usize,
    ) -> Result<Vec<usize>, MapError> {
        let mut cols = Vec::with_capacity(cells);
        for _ in 0..cells {
            loop {
                if let Some(col) = allocator.allocate(gate_index) {
                    cols.push(col);
                    break;
                }
                // Spill the resident, unpinned value with the most distant
                // last use.
                let victim = resident
                    .iter()
                    .filter(|(net, v)| !v.spilled && !v.cols.is_empty() && !pinned.contains(net))
                    .max_by_key(|(_, v)| v.last_use)
                    .map(|(&net, _)| net);
                let Some(victim) = victim else {
                    return Err(MapError::RowCapacityExceeded {
                        at_gate: gate_index,
                        capacity,
                    });
                };
                let value = resident.get_mut(&victim).expect("victim is resident");
                for &c in &value.cols {
                    allocator.release(c);
                }
                value.cols.clear();
                value.spilled = true;
                *spill_stores += 1;
            }
        }
        Ok(cols)
    }

    for &gate_index in &order {
        let gate = &netlist.gates[gate_index];
        let level = levels[gate_index];
        let is_constant = matches!(gate.op, LogicOp::Zero | LogicOp::One);

        // Materialize primary inputs and reload spilled operands.
        for &input in &gate.inputs {
            let needs_materialization = match resident.get(&input) {
                None => primary_inputs.contains_key(&input),
                Some(v) => v.spilled,
            };
            if needs_materialization {
                let reload = resident.get(&input).map(|v| v.spilled).unwrap_or(false);
                let cols = allocate_value(
                    &mut allocator,
                    &mut resident,
                    &gate.inputs,
                    gate_index,
                    cells_per_value,
                    value_capacity,
                    &mut spill_stores,
                )?;
                resident.insert(
                    input,
                    ResidentValue {
                        cols,
                        spilled: false,
                        last_use: *last_uses.get(&input).unwrap_or(&gate_index),
                    },
                );
                if reload {
                    spill_loads += 1;
                } else {
                    input_writes += 1;
                }
            }
        }

        // Allocate the output value.
        let output_cols = allocate_value(
            &mut allocator,
            &mut resident,
            &gate.inputs,
            gate_index,
            cells_per_value,
            value_capacity,
            &mut spill_stores,
        )?;
        let input_cols: Vec<usize> = gate.inputs.iter().map(|n| resident[n].cols[0]).collect();
        let input_cols_per_copy: Vec<Vec<usize>> = (0..cells_per_value)
            .map(|c| {
                gate.inputs
                    .iter()
                    .map(|n| {
                        let cols = &resident[n].cols;
                        cols[c.min(cols.len() - 1)]
                    })
                    .collect()
            })
            .collect();
        resident.insert(
            gate.output,
            ResidentValue {
                cols: output_cols.clone(),
                spilled: false,
                last_use: *last_uses.get(&gate.output).unwrap_or(&gate_index),
            },
        );

        if !is_constant {
            let profile = &mut level_profile[level];
            match gate.op {
                LogicOp::Nor => {
                    profile.nor_ops += 1;
                    nor_outputs.insert(gate.output, ());
                }
                LogicOp::Thr => profile.thr_ops += 1,
                LogicOp::Copy => {
                    profile.copy_ops += 1;
                    if gate
                        .inputs
                        .first()
                        .is_some_and(|n| nor_outputs.contains_key(n))
                    {
                        profile.fusable_copies += 1;
                    }
                }
                LogicOp::Zero | LogicOp::One => {}
            }
        }

        scheduled.push(ScheduledGate {
            index: gate_index,
            level,
            op: gate.op.clone(),
            input_cols,
            output_cols,
            input_cols_per_copy,
        });

        // Release operands whose last use was this gate.
        for &input in &gate.inputs {
            if let Some(uses) = remaining_uses.get_mut(&input) {
                *uses -= 1;
                if *uses == 0 {
                    if let Some(v) = resident.get_mut(&input) {
                        for &c in &v.cols {
                            allocator.release(c);
                        }
                        v.cols.clear();
                    }
                }
            }
        }
        // A gate output that is never used (and is not a primary output)
        // dies immediately.
        if remaining_uses.get(&gate.output).copied().unwrap_or(0) == 0 {
            if let Some(v) = resident.get_mut(&gate.output) {
                for &c in &v.cols {
                    allocator.release(c);
                }
                v.cols.clear();
            }
        }
    }

    let output_cols = netlist
        .outputs
        .iter()
        .map(|n| {
            resident
                .get(n)
                .filter(|v| !v.spilled && !v.cols.is_empty())
                .map(|v| v.cols[0])
        })
        .collect();

    Ok(RowSchedule {
        layout,
        gates: scheduled,
        level_profile,
        reclaims: allocator.reclaims().to_vec(),
        spill_stores,
        spill_loads,
        input_writes,
        output_cols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    fn adder_netlist(width: usize) -> Netlist {
        let mut b = CircuitBuilder::new();
        let a = b.input_word(width);
        let c = b.input_word(width);
        let (sum, carry) = b.ripple_add(&a, &c, None);
        b.mark_output_word(&sum);
        b.mark_output(carry);
        b.finish()
    }

    #[test]
    fn maps_small_adder_without_spills() {
        let netlist = adder_netlist(8);
        let schedule = map_netlist(&netlist, RowLayout::unprotected(256)).unwrap();
        assert!(schedule.is_directly_executable());
        assert_eq!(schedule.output_bits(), 9);
        assert_eq!(schedule.gates.len(), netlist.gates.len());
        assert!(schedule.gate_op_count() > 50);
        assert!(schedule.depth() >= 8);
        assert_eq!(schedule.input_writes, 16);
        assert!(schedule.output_cols.iter().all(Option::is_some));
    }

    #[test]
    fn smaller_scratch_causes_more_reclaims() {
        let netlist = adder_netlist(16);
        let wide = map_netlist(&netlist, RowLayout::unprotected(256)).unwrap();
        let narrow = map_netlist(
            &netlist,
            RowLayout {
                total_columns: 256,
                metadata_columns: 200,
                cells_per_value: 1,
            },
        )
        .unwrap();
        assert!(narrow.reclaim_count() > wide.reclaim_count());
    }

    #[test]
    fn redundant_copies_increase_reclaims() {
        let netlist = adder_netlist(16);
        let single = map_netlist(&netlist, RowLayout::unprotected(128)).unwrap();
        let triple = map_netlist(
            &netlist,
            RowLayout {
                total_columns: 128,
                metadata_columns: 0,
                cells_per_value: 3,
            },
        )
        .unwrap();
        assert!(
            triple.reclaim_count() > single.reclaim_count(),
            "3 cells/value must reclaim more ({} vs {})",
            triple.reclaim_count(),
            single.reclaim_count()
        );
    }

    #[test]
    fn column_assignments_stay_inside_scratch_region() {
        let netlist = adder_netlist(8);
        let layout = RowLayout {
            total_columns: 256,
            metadata_columns: 40,
            cells_per_value: 1,
        };
        let schedule = map_netlist(&netlist, layout).unwrap();
        for g in &schedule.gates {
            for &c in g.input_cols.iter().chain(&g.output_cols) {
                assert!((40..256).contains(&c), "column {c} outside scratch");
            }
        }
    }

    #[test]
    fn trim_layout_assigns_three_output_cells() {
        let netlist = adder_netlist(4);
        let layout = RowLayout {
            total_columns: 256,
            metadata_columns: 0,
            cells_per_value: 3,
        };
        let schedule = map_netlist(&netlist, layout).unwrap();
        for g in &schedule.gates {
            assert_eq!(g.output_cols.len(), 3);
        }
    }

    #[test]
    fn fusable_copies_detected_for_xor() {
        // XOR = NOR + Copy(NOR) + THR: the copy is fusable.
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let out = b.xor(x, y);
        b.mark_output(out);
        let netlist = b.finish();
        let schedule = map_netlist(&netlist, RowLayout::unprotected(64)).unwrap();
        let total_copies: usize = schedule.level_profile.iter().map(|l| l.copy_ops).sum();
        let fusable: usize = schedule
            .level_profile
            .iter()
            .map(|l| l.fusable_copies)
            .sum();
        assert_eq!(total_copies, 1);
        assert_eq!(fusable, 1);
    }

    #[test]
    fn per_level_profile_sums_to_gate_count() {
        let netlist = adder_netlist(8);
        let schedule = map_netlist(&netlist, RowLayout::unprotected(256)).unwrap();
        let from_profile = schedule.gate_op_count();
        let non_constant = netlist
            .gates
            .iter()
            .filter(|g| !matches!(g.op, LogicOp::Zero | LogicOp::One))
            .count();
        assert_eq!(from_profile, non_constant);
    }

    #[test]
    fn tiny_row_spills_instead_of_failing() {
        let netlist = adder_netlist(8);
        let layout = RowLayout {
            total_columns: 12,
            metadata_columns: 0,
            cells_per_value: 1,
        };
        let schedule = map_netlist(&netlist, layout).unwrap();
        assert!(schedule.spill_stores > 0);
        assert!(!schedule.is_directly_executable());
    }

    #[test]
    fn impossible_capacity_reports_error() {
        let netlist = adder_netlist(8);
        let layout = RowLayout {
            total_columns: 3,
            metadata_columns: 0,
            cells_per_value: 1,
        };
        match map_netlist(&netlist, layout) {
            Err(MapError::RowCapacityExceeded { capacity, .. }) => assert_eq!(capacity, 3),
            other => panic!("expected capacity error, got {other:?}"),
        }
    }
}
