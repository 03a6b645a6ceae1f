//! Peripheral-circuitry cost model (the NVSim substitute).
//!
//! The paper uses NVSim to estimate the overhead of sense amplifiers, column
//! decoders, predecoders, charge/precharge circuitry and control-line
//! drivers. Those tools are not available offline, so this module provides
//! an analytical model with per-event costs in the same regime as NVSim's
//! 45 nm outputs for a 256×256 nonvolatile subarray. Only *relative*
//! ECiM / TRiM / baseline comparisons depend on these values, and they enter
//! all three designs identically.

use serde::{Deserialize, Serialize};

use crate::technology::Technology;

/// Per-event peripheral costs of a PiM (sub)array interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeripheryModel {
    /// Sense-amplifier energy per read bit (fJ).
    pub sense_energy_per_bit_fj: f64,
    /// Write-driver energy per written bit, excluding the cell switching
    /// energy itself (fJ).
    pub write_driver_energy_per_bit_fj: f64,
    /// Row/column decode + predecode energy per interface transaction (fJ).
    pub decode_energy_per_access_fj: f64,
    /// Latency of one interface read transaction (ns).
    pub read_latency_ns: f64,
    /// Latency of one interface write transaction (ns).
    pub write_latency_ns: f64,
    /// Width of the array interface in bits (cells transferred per
    /// transaction). The paper sizes codewords to match this (Hamming(255,247)
    /// against 256-bit rows).
    pub interface_width_bits: usize,
}

impl PeripheryModel {
    /// Default peripheral model for a 256×256 subarray of the given
    /// technology. MRAM sensing needs larger sense margins (higher energy)
    /// than ReRAM due to the smaller resistance ratio.
    pub fn for_technology(technology: Technology) -> Self {
        let (sense, read_lat, write_lat) = match technology {
            Technology::SttMram => (1.2, 2.0, 2.0),
            Technology::SotSheMram => (1.0, 2.0, 1.5),
            Technology::ReRam => (0.8, 2.5, 3.0),
            // The 1S1R crossbar senses through its selector, adding a small
            // series drop over the 1T1R ReRAM periphery.
            Technology::ReramCrossbar => (0.9, 2.7, 3.2),
        };
        Self {
            sense_energy_per_bit_fj: sense,
            write_driver_energy_per_bit_fj: 0.4,
            decode_energy_per_access_fj: 6.0,
            read_latency_ns: read_lat,
            write_latency_ns: write_lat,
            interface_width_bits: 256,
        }
    }

    /// Energy (fJ) of reading `bits` cells through the interface.
    pub fn read_energy(&self, bits: usize) -> f64 {
        let transactions = bits.div_ceil(self.interface_width_bits).max(1);
        self.sense_energy_per_bit_fj * bits as f64
            + self.decode_energy_per_access_fj * transactions as f64
    }

    /// Energy (fJ) of writing `bits` cells through the interface
    /// (driver + decode; cell switching energy is separate).
    pub fn write_energy(&self, bits: usize) -> f64 {
        let transactions = bits.div_ceil(self.interface_width_bits).max(1);
        self.write_driver_energy_per_bit_fj * bits as f64
            + self.decode_energy_per_access_fj * transactions as f64
    }

    /// Latency (ns) of reading `bits` cells (one transaction per
    /// `interface_width_bits`).
    pub fn read_latency(&self, bits: usize) -> f64 {
        bits.div_ceil(self.interface_width_bits).max(1) as f64 * self.read_latency_ns
    }

    /// Latency (ns) of writing `bits` cells.
    pub fn write_latency(&self, bits: usize) -> f64 {
        bits.div_ceil(self.interface_width_bits).max(1) as f64 * self.write_latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactions_round_up() {
        let p = PeripheryModel::for_technology(Technology::SttMram);
        assert_eq!(p.read_latency(1), p.read_latency_ns);
        assert_eq!(p.read_latency(256), p.read_latency_ns);
        assert_eq!(p.read_latency(257), 2.0 * p.read_latency_ns);
        assert_eq!(p.write_latency(512), 2.0 * p.write_latency_ns);
    }

    #[test]
    fn energy_scales_with_bits() {
        let p = PeripheryModel::for_technology(Technology::ReRam);
        assert!(p.read_energy(256) > p.read_energy(8));
        assert!(p.write_energy(256) > p.write_energy(8));
    }

    #[test]
    fn zero_bit_access_still_costs_a_transaction() {
        let p = PeripheryModel::for_technology(Technology::SotSheMram);
        assert!(p.read_energy(0) > 0.0);
        assert!(p.read_latency(0) > 0.0);
    }

    #[test]
    fn all_technologies_have_models() {
        for t in Technology::ALL {
            let p = PeripheryModel::for_technology(t);
            assert!(p.sense_energy_per_bit_fj > 0.0);
            assert_eq!(p.interface_width_bits, 256);
        }
    }
}
