//! The packed `current` synchronization word.
//!
//! ARC's entire coordination state is one 64-bit word (§3.3):
//!
//! ```text
//! bits 63..32 : index   — slot holding the most up-to-date value
//! bits 31..0  : counter — anonymous standing-reader presence count on it
//! ```
//!
//! Packing both fields into one RMW-addressable word is the core trick: a
//! reader's `fetch_add(current, 1)` *atomically* reads the up-to-date index
//! and registers one anonymous presence unit **on that exact slot** — the
//! unit can never be misattributed, because index and counter travel
//! together. This is why ARC admits `2^32 − 2` readers where RF's
//! bit-per-reader mask admits 58.

/// Number of bits of the counter field.
pub const COUNTER_BITS: u32 = 32;

/// Mask of the counter field.
pub const COUNTER_MASK: u64 = (1u64 << COUNTER_BITS) - 1;

/// Maximum number of concurrent readers the `current` encoding admits:
/// `2^32 − 2` (§1).
///
/// The counter field must be able to hold one presence unit per live reader
/// within a single write generation without overflowing into the index
/// field; one unit of slack is reserved for the churn guard.
///
/// The slab that stores every register indexes slots in 31 bits, so a
/// register that can actually be built has `max_readers + 2 < 2^31` slots;
/// a larger cap is a typed `ConfigError::SlotIndexWidth` build error.
pub const MAX_READERS: u32 = u32::MAX - 1;

/// A decoded `current` word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Current {
    /// Index of the slot holding the most recent value.
    pub index: u32,
    /// Anonymous presence units standing on that slot.
    pub counter: u32,
}

impl Current {
    /// Decode a raw 64-bit `current` word.
    #[inline]
    pub fn unpack(raw: u64) -> Self {
        Self { index: (raw >> COUNTER_BITS) as u32, counter: (raw & COUNTER_MASK) as u32 }
    }

    /// Encode back into the raw representation.
    #[inline]
    pub fn pack(self) -> u64 {
        ((self.index as u64) << COUNTER_BITS) | self.counter as u64
    }

    /// The word the writer publishes: new slot index, zero readers (W2).
    #[inline]
    pub fn fresh(index: u32) -> u64 {
        (index as u64) << COUNTER_BITS
    }
}

/// Extract only the index field (the read operation's R1/R5 step).
#[inline]
pub fn index_of(raw: u64) -> u32 {
    (raw >> COUNTER_BITS) as u32
}

/// Extract only the counter field (the writer's W3 freeze step).
#[inline]
pub fn counter_of(raw: u64) -> u32 {
    (raw & COUNTER_MASK) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let c = Current { index: 7, counter: 12345 };
        assert_eq!(Current::unpack(c.pack()), c);
    }

    #[test]
    fn fresh_word_has_zero_counter() {
        let raw = Current::fresh(42);
        assert_eq!(index_of(raw), 42);
        assert_eq!(counter_of(raw), 0);
    }

    #[test]
    fn extremes_roundtrip() {
        for (i, c) in [(0, 0), (u32::MAX, u32::MAX), (0, u32::MAX), (u32::MAX, 0)] {
            let cur = Current { index: i, counter: c };
            assert_eq!(Current::unpack(cur.pack()), cur);
        }
    }

    #[test]
    fn increment_touches_only_counter() {
        // The reader's fetch_add(1) must never leak into the index field
        // while the counter stays below its capacity.
        let raw = Current { index: 3, counter: MAX_READERS - 1 }.pack();
        let bumped = raw + 1;
        assert_eq!(index_of(bumped), 3);
        assert_eq!(counter_of(bumped), MAX_READERS);
    }

    #[test]
    fn counter_overflow_would_corrupt_index() {
        // Demonstrates why MAX_READERS must stay below u32::MAX: one more
        // increment past a full counter carries into the index.
        let raw = Current { index: 3, counter: u32::MAX }.pack();
        let bumped = raw.wrapping_add(1);
        assert_eq!(index_of(bumped), 4, "carry corrupts the index");
    }

    #[test]
    fn max_readers_leaves_slack() {
        // The paper's 2^32 − 2 cap: one unit of slack below the carry.
        assert_eq!(MAX_READERS, u32::MAX - 1);
    }
}
