//! Gas accounting: schedule, meter, and labeled cost breakdowns.
//!
//! [`SCHEDULE`] is the one gas schedule: the Yellow-Paper constants of
//! the paper's era (pre-Istanbul, matching Solidity v0.4.24 deployments):
//! 68 gas per non-zero calldata byte, `SLOAD` at 200, `SSTORE` at
//! 20000/5000, and the 3000-gas `ecrecover` precompile. Every figure of
//! Tables II–IV and Figs. 8–9 is measured against it, so it is a constant
//! rather than a setting. Experiments additionally need the paper's
//! *component* splits (Tables II and III report Verify / Misc / Bitmap /
//! Parse separately), so the meter supports named sections: gas charged
//! while a section is open is attributed to its label, and the remainder
//! of a transaction is reported as `misc`.

use std::collections::BTreeMap;
use std::fmt;

/// Yellow-Paper-derived gas cost constants; [`SCHEDULE`] holds the values.
#[derive(Debug)]
pub struct GasSchedule {
    /// Base cost of any transaction (`G_transaction`).
    pub tx_base: u64,
    /// Per zero byte of transaction data (`G_txdatazero`).
    pub tx_data_zero: u64,
    /// Per non-zero byte of transaction data (`G_txdatanonzero`).
    pub tx_data_nonzero: u64,
    /// Surcharge for contract-creating transactions (`G_txcreate`).
    pub tx_create: u64,
    /// Storage read (`G_sload`).
    pub sload: u64,
    /// Storage write: zero → non-zero (`G_sset`).
    pub sset: u64,
    /// Storage write: non-zero → any (`G_sreset`).
    pub sreset: u64,
    /// Refund for clearing a storage slot (`R_sclear`).
    pub sclear_refund: u64,
    /// Base cost of keccak256 (`G_sha3`).
    pub keccak_base: u64,
    /// Per 32-byte word hashed (`G_sha3word`).
    pub keccak_word: u64,
    /// Base cost of a message call (`G_call`).
    pub call_base: u64,
    /// Surcharge for a value-transferring call (`G_callvalue`).
    pub call_value: u64,
    /// Cost of creating a new account via transfer (`G_newaccount`).
    pub new_account: u64,
    /// Base cost of a LOG operation (`G_log`).
    pub log_base: u64,
    /// Per log topic (`G_logtopic`).
    pub log_topic: u64,
    /// Per byte of log data (`G_logdata`).
    pub log_data: u64,
    /// Per byte of deployed contract code (`G_codedeposit`).
    pub code_deposit: u64,
    /// `ecrecover` precompile.
    pub ecrecover: u64,
    /// Per 32-byte word of memory/calldata copying (`G_copy`).
    pub copy_word: u64,
    /// Charge for simple computation, per abstract "step". Contracts written
    /// in Rust call [`super::exec::CallContext::charge_compute`] with step
    /// counts calibrated to the Solidity code they model.
    pub compute_step: u64,
}

/// The gas schedule every transaction is charged against.
pub const SCHEDULE: GasSchedule = GasSchedule {
    tx_base: 21_000,
    tx_data_zero: 4,
    tx_data_nonzero: 68,
    tx_create: 32_000,
    sload: 200,
    sset: 20_000,
    sreset: 5_000,
    sclear_refund: 15_000,
    keccak_base: 30,
    keccak_word: 6,
    call_base: 700,
    call_value: 9_000,
    new_account: 25_000,
    log_base: 375,
    log_topic: 375,
    log_data: 8,
    code_deposit: 200,
    ecrecover: 3_000,
    copy_word: 3,
    compute_step: 1,
};

impl GasSchedule {
    /// Intrinsic cost of a transaction carrying `data` (§6 of the Yellow
    /// Paper): base + per-byte calldata charges (+ creation surcharge).
    pub fn intrinsic_gas(&self, data: &[u8], is_create: bool) -> u64 {
        let zeros = data.iter().filter(|&&b| b == 0).count() as u64;
        let nonzeros = data.len() as u64 - zeros;
        let mut gas = self.tx_base + zeros * self.tx_data_zero + nonzeros * self.tx_data_nonzero;
        if is_create {
            gas += self.tx_create;
        }
        gas
    }

    /// Cost of hashing `len` bytes with keccak256.
    pub fn keccak_cost(&self, len: usize) -> u64 {
        self.keccak_base + self.keccak_word * (len as u64).div_ceil(32)
    }

    /// Cost of copying `len` bytes.
    pub fn copy_cost(&self, len: usize) -> u64 {
        self.copy_word * (len as u64).div_ceil(32)
    }

    /// Cost of a LOG with `topics` topics and `data_len` bytes of data.
    pub fn log_cost(&self, topics: usize, data_len: usize) -> u64 {
        self.log_base + self.log_topic * topics as u64 + self.log_data * data_len as u64
    }
}

/// Gas exhausted mid-execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfGas {
    /// Gas limit that was exceeded.
    pub limit: u64,
    /// Gas that had been consumed when the failing charge was attempted.
    pub used: u64,
    /// Size of the charge that did not fit.
    pub attempted: u64,
}

impl fmt::Display for OutOfGas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of gas: limit {}, used {}, attempted charge {}",
            self.limit, self.used, self.attempted
        )
    }
}

impl std::error::Error for OutOfGas {}

/// Per-label gas attribution for one transaction.
///
/// Tables II and III of the paper report token-processing cost split into
/// `Verify`, `Misc`, `Bitmap`, and `Parse` components; the breakdown makes
/// those splits measurable rather than estimated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GasBreakdown {
    /// Gas attributed to each named section.
    pub sections: BTreeMap<&'static str, u64>,
    /// Total gas used by the transaction.
    pub total: u64,
}

impl GasBreakdown {
    /// Gas attributed to `label` (0 when the section never opened).
    pub fn section(&self, label: &str) -> u64 {
        self.sections.get(label).copied().unwrap_or(0)
    }

    /// Gas not attributed to any named section — the paper's "Misc" row
    /// (base transaction cost, calldata, dispatch, application logic).
    pub fn misc(&self) -> u64 {
        self.total - self.sections.values().sum::<u64>()
    }
}

/// A gas meter for a single transaction: tracks the limit, consumption,
/// refunds, and named section attribution.
#[derive(Clone, Debug)]
pub struct GasMeter {
    limit: u64,
    used: u64,
    refund: u64,
    sections: BTreeMap<&'static str, u64>,
    open: Vec<&'static str>,
}

impl GasMeter {
    /// Create a meter with the given gas limit.
    pub fn new(limit: u64) -> Self {
        GasMeter {
            limit,
            used: 0,
            refund: 0,
            sections: BTreeMap::new(),
            open: Vec::new(),
        }
    }

    /// Gas consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Gas remaining before the limit.
    pub fn remaining(&self) -> u64 {
        self.limit - self.used
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Accumulated refund counter (applied at transaction end, capped at
    /// half the gas used, per the Yellow Paper).
    pub fn refund(&self) -> u64 {
        self.refund
    }

    /// Consume `amount` gas, attributing it to the innermost open section.
    pub fn charge(&mut self, amount: u64) -> Result<(), OutOfGas> {
        if amount > self.remaining() {
            let err = OutOfGas {
                limit: self.limit,
                used: self.used,
                attempted: amount,
            };
            self.used = self.limit;
            return Err(err);
        }
        self.used += amount;
        if let Some(&label) = self.open.last() {
            *self.sections.entry(label).or_insert(0) += amount;
        }
        Ok(())
    }

    /// Add to the refund counter.
    pub fn add_refund(&mut self, amount: u64) {
        self.refund += amount;
    }

    /// Open a named section; nested sections attribute to the innermost
    /// label only (no double counting).
    pub fn begin_section(&mut self, label: &'static str) {
        self.open.push(label);
    }

    /// Close the innermost section.
    pub fn end_section(&mut self) {
        self.open.pop();
    }

    /// Gas effectively used after applying the capped refund.
    pub fn effective_used(&self) -> u64 {
        self.used - self.refund.min(self.used / 2)
    }

    /// Final per-section breakdown.
    pub fn breakdown(&self) -> GasBreakdown {
        GasBreakdown {
            sections: self.sections.clone(),
            total: self.used,
        }
    }
}

/// Convert a gas quantity to USD using the paper's implied conversion:
/// 1 gwei gas price and 247 USD/ETH (back-derived from Table II, where
/// 165957 gas ↦ $0.041).
pub fn gas_to_usd(gas: u64) -> f64 {
    const GAS_PRICE_GWEI: f64 = 1.0;
    const ETH_USD: f64 = 247.0;
    gas as f64 * GAS_PRICE_GWEI * 1e-9 * ETH_USD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_gas_splits_zero_bytes() {
        assert_eq!(SCHEDULE.intrinsic_gas(&[], false), 21_000);
        // one zero byte + one non-zero byte
        assert_eq!(SCHEDULE.intrinsic_gas(&[0, 1], false), 21_000 + 4 + 68);
        assert_eq!(SCHEDULE.intrinsic_gas(&[], true), 21_000 + 32_000);
    }

    #[test]
    fn keccak_cost_rounds_words_up() {
        assert_eq!(SCHEDULE.keccak_cost(0), 30);
        assert_eq!(SCHEDULE.keccak_cost(1), 36);
        assert_eq!(SCHEDULE.keccak_cost(32), 36);
        assert_eq!(SCHEDULE.keccak_cost(33), 42);
    }

    #[test]
    fn meter_charges_and_stops_at_limit() {
        let mut meter = GasMeter::new(100);
        assert!(meter.charge(60).is_ok());
        assert_eq!(meter.remaining(), 40);
        let err = meter.charge(50).unwrap_err();
        assert_eq!(err.attempted, 50);
        // Out-of-gas consumes everything, like the EVM.
        assert_eq!(meter.remaining(), 0);
    }

    #[test]
    fn sections_attribute_charges() {
        let mut meter = GasMeter::new(1000);
        meter.charge(100).unwrap();
        meter.begin_section("verify");
        meter.charge(200).unwrap();
        meter.begin_section("bitmap");
        meter.charge(50).unwrap();
        meter.end_section();
        meter.charge(25).unwrap();
        meter.end_section();
        meter.charge(10).unwrap();
        let breakdown = meter.breakdown();
        assert_eq!(breakdown.section("verify"), 225);
        assert_eq!(breakdown.section("bitmap"), 50);
        assert_eq!(breakdown.total, 385);
        assert_eq!(breakdown.misc(), 110);
    }

    #[test]
    fn refund_is_capped_at_half() {
        let mut meter = GasMeter::new(1000);
        meter.charge(100).unwrap();
        meter.add_refund(500);
        assert_eq!(meter.effective_used(), 50);
        let mut meter2 = GasMeter::new(1000);
        meter2.charge(100).unwrap();
        meter2.add_refund(20);
        assert_eq!(meter2.effective_used(), 80);
    }

    #[test]
    fn usd_conversion_matches_paper_anchor() {
        // Table II: 165957 gas → $0.041.
        let usd = gas_to_usd(165_957);
        assert!((usd - 0.041).abs() < 0.0005, "got {usd}");
    }
}
