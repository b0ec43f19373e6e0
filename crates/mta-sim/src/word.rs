//! The MTA memory word: 64 data bits plus tag bits.
//!
//! "Each memory word is 68 bits: 64 data bits and 4 tag bits. One tag bit
//! (the full-and-empty bit) is used to implement synchronous load/store
//! operations." (§2.2). We model the data and the full/empty bit; the
//! remaining tag bits (trap, forward) are not exercised by the paper's
//! codes and are represented for completeness but unused by the engine.
//!
//! Reached by: every MTA suite cell (through [`crate::memory`]).

/// One 68-bit MTA memory word (64-bit value + tag bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Word {
    /// The 64 data bits.
    pub value: i64,
    /// The full/empty synchronization bit. Ordinary memory is *full*;
    /// `readfe` atomically reads-and-empties, `writeef` writes-and-fills.
    pub full: bool,
    /// Forwarding tag bit (modeled, unused by the paper's kernels).
    pub forward: bool,
    /// Trap tag bit (modeled, unused by the paper's kernels).
    pub trap: bool,
}

impl Word {
    /// A full word holding `value` — the state of ordinary initialized
    /// memory.
    pub fn full(value: i64) -> Self {
        Word {
            value,
            full: true,
            forward: false,
            trap: false,
        }
    }

    /// An empty word (value retained but unreadable by sync loads until
    /// filled).
    pub fn empty() -> Self {
        Word {
            value: 0,
            full: false,
            forward: false,
            trap: false,
        }
    }
}

impl Default for Word {
    /// Memory comes up full-of-zero, like `malloc`'d MTA memory after
    /// initialization.
    fn default() -> Self {
        Word::full(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_zero() {
        let w = Word::default();
        assert!(w.full);
        assert_eq!(w.value, 0);
        assert!(!w.forward && !w.trap);
    }

    #[test]
    fn constructors() {
        assert!(Word::full(7).full);
        assert_eq!(Word::full(7).value, 7);
        assert!(!Word::empty().full);
    }
}
