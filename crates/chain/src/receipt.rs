//! Transaction receipts: status, gas accounting, logs, return data, trace.

use smacs_primitives::{Address, Bytes, H256};

use crate::gas::GasBreakdown;
use crate::trace::CallTrace;

/// Outcome of a transaction execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecStatus {
    /// Executed to completion; state changes committed.
    Success,
    /// Reverted with a reason; state changes rolled back, gas consumed.
    Reverted(String),
    /// Ran out of gas; state changes rolled back, all gas consumed.
    OutOfGas,
}

impl ExecStatus {
    /// True iff the transaction succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, ExecStatus::Success)
    }
}

/// An emitted event log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Log {
    /// Emitting contract.
    pub address: Address,
    /// Indexed topics.
    pub topics: Vec<H256>,
    /// Unindexed payload.
    pub data: Bytes,
}

/// The receipt of an executed transaction.
#[derive(PartialEq, Debug)]
pub struct Receipt {
    /// Hash of the transaction this receipt belongs to.
    pub tx_hash: H256,
    /// Block the transaction landed in.
    pub block_number: u64,
    /// Execution outcome.
    pub status: ExecStatus,
    /// Gas consumed (after refunds).
    pub gas_used: u64,
    /// Labeled gas attribution (the paper's Verify/Misc/Bitmap/Parse splits).
    pub breakdown: GasBreakdown,
    /// Logs emitted by successful execution (empty on revert).
    pub logs: Vec<Log>,
    /// ABI-encoded return data of the top-level call.
    pub return_data: Bytes,
    /// Full execution trace (input to the §V runtime-verification tools).
    pub trace: CallTrace,
}

impl Receipt {
    /// Revert reason, if the transaction reverted.
    pub fn revert_reason(&self) -> Option<&str> {
        match &self.status {
            ExecStatus::Reverted(reason) => Some(reason),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_predicates() {
        assert!(ExecStatus::Success.is_success());
        assert!(!ExecStatus::Reverted("x".into()).is_success());
        assert!(!ExecStatus::OutOfGas.is_success());
    }

    #[test]
    fn revert_reason_extraction() {
        let receipt = Receipt {
            tx_hash: H256::ZERO,
            block_number: 0,
            status: ExecStatus::Reverted("token expired".into()),
            gas_used: 0,
            breakdown: GasBreakdown::default(),
            logs: vec![],
            return_data: Bytes::new(),
            trace: CallTrace::empty(),
        };
        assert_eq!(receipt.revert_reason(), Some("token expired"));
    }
}
