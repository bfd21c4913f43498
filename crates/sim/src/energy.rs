//! Radio energy model.
//!
//! The paper's abstract claims Hyper-M is "both energy and time efficient"
//! but only ever measures hop counts. Because every overlay hop is one radio
//! transmission *and* one reception on battery-powered devices, hop counts
//! translate linearly into Joules; this module makes that translation
//! explicit so the experiment binaries can report energy alongside hops.
//!
//! The default constants are representative of a Bluetooth 2.0 class-2
//! radio of the paper's era (~2.5 mW-class TX at ~1–2 Mb/s effective
//! throughput, similar RX power, plus per-packet protocol overhead). They
//! are deliberately round numbers — the experiments compare *ratios*
//! between Hyper-M and per-item CAN insertion, which the constants cancel
//! out of.

use crate::stats::OpStats;

/// Per-message radio energy accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy to transmit one byte, in nanojoules.
    pub tx_nj_per_byte: f64,
    /// Energy to receive one byte, in nanojoules.
    pub rx_nj_per_byte: f64,
    /// Fixed per-message overhead (headers, radio wake-up), in nanojoules,
    /// charged once per message to the sender/receiver pair.
    pub per_message_nj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::bluetooth_class2()
    }
}

impl EnergyModel {
    /// Bluetooth 2.0 class-2 flavoured constants.
    pub fn bluetooth_class2() -> Self {
        Self {
            tx_nj_per_byte: 100.0,
            rx_nj_per_byte: 100.0,
            per_message_nj: 50_000.0,
        }
    }

    /// A free radio — useful to isolate hop counts in tests.
    pub fn zero() -> Self {
        Self {
            tx_nj_per_byte: 0.0,
            rx_nj_per_byte: 0.0,
            per_message_nj: 0.0,
        }
    }

    /// Total energy for an operation record, in **joules**.
    ///
    /// Charges each message the per-message overhead and each byte the
    /// TX+RX cost. Uses the average message size implied by the record.
    pub fn op_joules(&self, op: OpStats) -> f64 {
        let byte_nj = (self.tx_nj_per_byte + self.rx_nj_per_byte) * op.bytes as f64;
        let msg_nj = self.per_message_nj * op.messages as f64;
        (byte_nj + msg_nj) * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_energy_in_joules() {
        let m = EnergyModel {
            tx_nj_per_byte: 10.0,
            rx_nj_per_byte: 10.0,
            per_message_nj: 0.0,
        };
        let op = OpStats {
            hops: 3,
            messages: 3,
            bytes: 1_000_000,
            ..OpStats::zero()
        };
        // 20 nJ/byte × 1e6 bytes = 2e7 nJ = 0.02 J.
        assert!((m.op_joules(op) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn zero_model_is_free() {
        let op = OpStats {
            hops: 100,
            messages: 100,
            bytes: 1 << 30,
            ..OpStats::zero()
        };
        assert_eq!(EnergyModel::zero().op_joules(op), 0.0);
    }

    #[test]
    fn fewer_messages_cost_less() {
        let m = EnergyModel::default();
        let clustered = OpStats {
            hops: 10,
            messages: 10,
            bytes: 10 * 100,
            ..OpStats::zero()
        };
        let per_item = OpStats {
            hops: 1000,
            messages: 1000,
            bytes: 1000 * 100,
            ..OpStats::zero()
        };
        assert!(m.op_joules(clustered) < m.op_joules(per_item) / 50.0);
    }
}
