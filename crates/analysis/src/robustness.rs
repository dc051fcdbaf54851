//! Robustness observability for the democratic tally.
//!
//! The byzantine-voter axis (a fraction of hosts lying, muting, or
//! flooding) degrades the tally gradually rather than failing it
//! outright. [`RobustnessCounters`] make the degradation measurable
//! without changing any verdict: how much evidence the [`VoteLedger`]
//! absorbed versus discarded again (superseded by at-least-once
//! redelivery). A flooder inflates `absorbed`; dedup shows up in
//! `superseded`.
//!
//! [`VoteLedger`]: crate::ledger::VoteLedger

use serde::{Deserialize, Serialize};

/// Cumulative absorb/discard accounting for a [`VoteLedger`]
/// (cross-window; never reset by a window close).
///
/// [`VoteLedger`]: crate::ledger::VoteLedger
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessCounters {
    /// Evidence items absorbed into a window (every `absorb` call).
    pub absorbed: u64,
    /// Absorptions that superseded an existing key — the earlier
    /// evidence is replaced, so redelivery never double-counts.
    pub superseded: u64,
    /// Evidence explicitly retracted. The ledger has no retraction, so
    /// this stays 0; it is kept because [`LedgerSnapshot`] persists it.
    ///
    /// [`LedgerSnapshot`]: crate::ledger::LedgerSnapshot
    pub retracted: u64,
}

impl RobustnessCounters {
    /// Evidence discarded by exclusion: superseded plus retracted.
    pub fn discarded(&self) -> u64 {
        self.superseded + self.retracted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_account_for_discards() {
        let c = RobustnessCounters {
            absorbed: 10,
            superseded: 2,
            retracted: 1,
        };
        assert_eq!(c.discarded(), 3);
    }
}
