//! Nonvolatile PiM technology models and parameters (Table III of the paper).
//!
//! Three representative in-array computing technologies are modeled:
//! ReRAM (MAGIC-style), STT-MRAM and SOT/SHE-MRAM computational RAM. Memory
//! cells encode logic values in their resistance state; the mapping between
//! resistance level and logic value differs between ReRAM and the MRAM
//! variants (§II-A).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The resistance state of a nonvolatile memory cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ResistanceState {
    /// Low resistance (`R_low` / `R_ON` / `R_P`).
    #[default]
    Low,
    /// High resistance (`R_high` / `R_OFF` / `R_AP`).
    High,
}

impl ResistanceState {
    /// The opposite resistance state.
    pub fn toggled(self) -> Self {
        match self {
            ResistanceState::Low => ResistanceState::High,
            ResistanceState::High => ResistanceState::Low,
        }
    }
}

/// A nonvolatile PiM technology evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technology {
    /// Memristive ReRAM (MAGIC-style stateful logic).
    ReRam,
    /// Spin-transfer-torque MRAM computational RAM.
    SttMram,
    /// Spin-orbit-torque / spin-Hall-effect MRAM computational RAM.
    SotSheMram,
    /// Selector-per-cell (1S1R) ReRAM crossbar — the dense array
    /// organization of the neuromorphic inference literature. Same
    /// resistance-to-logic convention as MAGIC-style ReRAM, but the series
    /// selector raises absolute resistances, slows switching and makes the
    /// technology the canonical host for permanent stuck-at (SA0/SA1)
    /// defects in accuracy-under-fault campaigns.
    ReramCrossbar,
}

impl Technology {
    /// The paper's three technologies, in Table III / Table V order.
    ///
    /// Deliberately excludes [`Technology::ReramCrossbar`]: the stock
    /// `paper_scale` campaign plan iterates this array, and its serialized
    /// bytes (and therefore report digests) must not change when new
    /// technologies land. Use [`Technology::ALL_EXTENDED`] to iterate every
    /// modeled technology.
    pub const ALL: [Technology; 3] = [
        Technology::ReRam,
        Technology::SttMram,
        Technology::SotSheMram,
    ];

    /// Every modeled technology, including post-paper additions.
    pub const ALL_EXTENDED: [Technology; 4] = [
        Technology::ReRam,
        Technology::SttMram,
        Technology::SotSheMram,
        Technology::ReramCrossbar,
    ];

    /// Maps a resistance state to a logic value for this technology.
    ///
    /// STT and SOT/SHE MRAM encode logic 0 in the low-resistance (parallel)
    /// state and logic 1 in the high-resistance state; ReRAM uses the
    /// opposite convention (§II-A).
    pub fn logic_value(self, state: ResistanceState) -> bool {
        match self {
            Technology::ReRam | Technology::ReramCrossbar => state == ResistanceState::Low,
            Technology::SttMram | Technology::SotSheMram => state == ResistanceState::High,
        }
    }

    /// Number of dummy inputs `D` added to NOR gates so that NOR and THR
    /// share a bias-voltage window (Appendix): 4 for STT, 5 for SOT/SHE,
    /// 2 for ReRAM.
    pub fn dummy_inputs(self) -> usize {
        match self {
            Technology::ReRam | Technology::ReramCrossbar => 2,
            Technology::SttMram => 4,
            Technology::SotSheMram => 5,
        }
    }

    /// Default device parameters for this technology (Table III).
    pub fn parameters(self) -> TechnologyParams {
        TechnologyParams::for_technology(self)
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Technology::ReRam => write!(f, "ReRAM"),
            Technology::SttMram => write!(f, "STT-MRAM"),
            Technology::SotSheMram => write!(f, "SOT-MRAM"),
            Technology::ReramCrossbar => write!(f, "ReRAM-Xbar"),
        }
    }
}

/// Accepts both the serialized variant name (`"SttMram"`, what the JSON
/// wire format carries) and the display label (`"STT-MRAM"`), so campaign
/// plans written by hand or round-tripped through JSON both parse.
impl std::str::FromStr for Technology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ReRam" | "ReRAM" => Ok(Technology::ReRam),
            "SttMram" | "STT-MRAM" => Ok(Technology::SttMram),
            "SotSheMram" | "SOT-MRAM" => Ok(Technology::SotSheMram),
            "ReramCrossbar" | "ReRAM-Xbar" | "reram-crossbar" => Ok(Technology::ReramCrossbar),
            other => Err(format!(
                "unknown technology `{other}` (expected ReRam, SttMram, SotSheMram or ReramCrossbar)"
            )),
        }
    }
}

/// Device and energy parameters of a PiM technology (Table III).
///
/// Resistances are in kΩ, currents in µA, voltages in V, times in ns and
/// energies in fJ, matching the paper's units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechnologyParams {
    /// Technology these parameters describe.
    pub technology: Technology,
    /// Low resistance `R_low` / `R_ON` / `R_P` (kΩ).
    pub r_low_kohm: f64,
    /// High resistance `R_high` / `R_OFF` / `R_AP` (kΩ).
    pub r_high_kohm: f64,
    /// SHE-channel resistance (kΩ), only meaningful for SOT/SHE-MRAM.
    pub r_she_kohm: Option<f64>,
    /// Critical switching current `I_C` (µA), MRAM variants only.
    pub critical_current_ua: Option<f64>,
    /// ReRAM `V_OFF` threshold (V), ReRAM only.
    pub v_off: Option<f64>,
    /// ReRAM `V_ON` threshold (V), ReRAM only.
    pub v_on: Option<f64>,
    /// Switching time / gate delay `t_switch` (ns).
    pub t_switch_ns: f64,
    /// Energy of a (2-input, single-output) NOR gate operation (fJ).
    pub nor_energy_fj: f64,
    /// Energy of a 4-input THR gate operation (fJ).
    pub thr_energy_fj: f64,
    /// Energy of a single-cell write (fJ).
    pub write_energy_fj: f64,
}

impl TechnologyParams {
    /// Table III parameters for `technology`.
    pub fn for_technology(technology: Technology) -> Self {
        match technology {
            Technology::SttMram => Self {
                technology,
                r_low_kohm: 3.15,
                r_high_kohm: 7.34,
                r_she_kohm: None,
                critical_current_ua: Some(50.0),
                v_off: None,
                v_on: None,
                t_switch_ns: 1.0,
                nor_energy_fj: 10.5,
                thr_energy_fj: 11.2,
                write_energy_fj: 1.03,
            },
            Technology::SotSheMram => Self {
                technology,
                r_low_kohm: 253.97,
                r_high_kohm: 507.94,
                r_she_kohm: Some(64.0),
                critical_current_ua: Some(3.0),
                v_off: None,
                v_on: None,
                t_switch_ns: 1.0,
                nor_energy_fj: 2.45,
                thr_energy_fj: 1.31,
                write_energy_fj: 0.01,
            },
            Technology::ReRam => Self {
                technology,
                r_low_kohm: 10.0,
                r_high_kohm: 1000.0,
                r_she_kohm: None,
                critical_current_ua: None,
                v_off: Some(0.3),
                v_on: Some(-1.5),
                t_switch_ns: 1.3,
                nor_energy_fj: 19.68,
                thr_energy_fj: 20.99,
                write_energy_fj: 23.8,
            },
            // 1S1R crossbar ReRAM: the series selector adds resistance in
            // both states (the HRS/LRS ratio is preserved), slows switching
            // and raises per-op energies relative to MAGIC-style ReRAM.
            Technology::ReramCrossbar => Self {
                technology,
                r_low_kohm: 25.0,
                r_high_kohm: 2500.0,
                r_she_kohm: None,
                critical_current_ua: None,
                v_off: Some(0.35),
                v_on: Some(-1.7),
                t_switch_ns: 2.1,
                nor_energy_fj: 26.4,
                thr_energy_fj: 28.3,
                write_energy_fj: 31.5,
            },
        }
    }

    /// Resistance (kΩ) of a cell in the given state.
    pub fn resistance(&self, state: ResistanceState) -> f64 {
        match state {
            ResistanceState::Low => self.r_low_kohm,
            ResistanceState::High => self.r_high_kohm,
        }
    }

    /// Energy (fJ) of an `n_outputs`-output NOR gate operation.
    ///
    /// Multiple-output gates have a power consumption that grows linearly
    /// with the number of outputs (§IV-D).
    pub fn nor_energy(&self, n_outputs: usize) -> f64 {
        self.nor_energy_fj * n_outputs.max(1) as f64
    }

    /// Energy (fJ) of writing `bits` cells.
    pub fn write_energy(&self, bits: usize) -> f64 {
        self.write_energy_fj * bits as f64
    }

    /// Gate delay (ns) of one in-array logic step (preset + switch).
    pub fn gate_delay_ns(&self) -> f64 {
        self.t_switch_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logic_encoding_differs_between_reram_and_mram() {
        assert!(Technology::ReRam.logic_value(ResistanceState::Low));
        assert!(!Technology::ReRam.logic_value(ResistanceState::High));
        assert!(!Technology::SttMram.logic_value(ResistanceState::Low));
        assert!(Technology::SttMram.logic_value(ResistanceState::High));
        assert!(Technology::SotSheMram.logic_value(ResistanceState::High));
    }

    #[test]
    fn table3_values_transcribed() {
        let stt = TechnologyParams::for_technology(Technology::SttMram);
        assert_eq!(stt.r_low_kohm, 3.15);
        assert_eq!(stt.r_high_kohm, 7.34);
        assert_eq!(stt.critical_current_ua, Some(50.0));
        assert_eq!(stt.nor_energy_fj, 10.5);
        assert_eq!(stt.write_energy_fj, 1.03);

        let sot = TechnologyParams::for_technology(Technology::SotSheMram);
        assert_eq!(sot.r_she_kohm, Some(64.0));
        assert_eq!(sot.critical_current_ua, Some(3.0));
        assert_eq!(sot.write_energy_fj, 0.01);

        let reram = TechnologyParams::for_technology(Technology::ReRam);
        assert_eq!(reram.v_off, Some(0.3));
        assert_eq!(reram.v_on, Some(-1.5));
        assert_eq!(reram.t_switch_ns, 1.3);
        assert_eq!(reram.write_energy_fj, 23.8);
    }

    #[test]
    fn multi_output_energy_scales_linearly() {
        let p = Technology::SttMram.parameters();
        assert_eq!(p.nor_energy(1), p.nor_energy_fj);
        assert_eq!(p.nor_energy(3), 3.0 * p.nor_energy_fj);
        assert_eq!(p.nor_energy(0), p.nor_energy_fj); // clamps to 1 output
    }

    #[test]
    fn dummy_inputs_match_appendix() {
        assert_eq!(Technology::SttMram.dummy_inputs(), 4);
        assert_eq!(Technology::SotSheMram.dummy_inputs(), 5);
        assert_eq!(Technology::ReRam.dummy_inputs(), 2);
    }

    #[test]
    fn crossbar_matches_reram_logic_convention_but_not_its_devices() {
        let xbar = Technology::ReramCrossbar;
        assert!(xbar.logic_value(ResistanceState::Low));
        assert_eq!(xbar.dummy_inputs(), Technology::ReRam.dummy_inputs());
        let p = xbar.parameters();
        let reram = Technology::ReRam.parameters();
        assert!(p.r_low_kohm > reram.r_low_kohm);
        assert!(p.t_switch_ns > reram.t_switch_ns);
        // HRS/LRS ratio preserved by the series selector.
        assert_eq!(p.r_high_kohm / p.r_low_kohm, 100.0);
        assert_eq!("ReRAM-Xbar".parse::<Technology>().unwrap(), xbar);
        assert_eq!("ReramCrossbar".parse::<Technology>().unwrap(), xbar);
        // The paper-scale axis is frozen; the extended list appends.
        assert_eq!(Technology::ALL.len(), 3);
        assert_eq!(Technology::ALL_EXTENDED.len(), 4);
        assert_eq!(Technology::ALL_EXTENDED[3], xbar);
        assert!(!Technology::ALL.contains(&xbar));
    }

    #[test]
    fn toggled_is_involution() {
        assert_eq!(
            ResistanceState::Low.toggled().toggled(),
            ResistanceState::Low
        );
        assert_eq!(ResistanceState::High.toggled(), ResistanceState::Low);
    }
}
