//! Word-atomic byte buffers for racy-copy algorithms.
//!
//! Peterson's 1983 construction and the seqlock both *deliberately* read
//! buffers that may be concurrently overwritten, detecting the race after
//! the fact. A plain `memcpy` under such a race is undefined behaviour in
//! Rust/C11, so these buffers are arrays of `AtomicU64` accessed with
//! `Relaxed` per-word operations: each word load/store is a plain `mov` on
//! x86, and word-granular atomicity is exactly the hardware model the
//! classical register literature assumes (single-word atomic registers).
//!
//! Layout: word 0 holds the value length in bytes; words `1..` hold the
//! payload, padded to whole words. A torn read may observe a length and
//! payload from different writes — callers must validate before trusting
//! the copy (Peterson's handshake, the seqlock's version check).

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-capacity buffer of relaxed atomic words.
#[derive(Debug)]
pub struct WordBuf {
    /// word 0 = length in bytes; words 1.. = payload.
    words: Box<[AtomicU64]>,
    capacity: usize,
}

impl WordBuf {
    /// A zeroed buffer able to hold `capacity` payload bytes.
    pub fn new(capacity: usize) -> Self {
        let data_words = capacity.div_ceil(8);
        let words = (0..1 + data_words).map(|_| AtomicU64::new(0)).collect();
        Self { words, capacity }
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Store `src` (length + payload), word by word, `Relaxed`.
    ///
    /// Synchronization/publication is the caller's protocol's job.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() > capacity`.
    pub fn store_bytes(&self, src: &[u8]) {
        self.store_via(src, |w| w);
    }

    /// [`WordBuf::store_bytes`], reaching each word through `at`.
    pub(crate) fn store_via<'a>(&'a self, src: &[u8], at: impl Fn(&'a AtomicU64) -> &'a AtomicU64) {
        assert!(src.len() <= self.capacity, "value exceeds WordBuf capacity");
        at(&self.words[0]).store(src.len() as u64, Ordering::Relaxed);
        let mut chunks = src.chunks_exact(8);
        let mut i = 1;
        for c in chunks.by_ref() {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            at(&self.words[i]).store(u64::from_le_bytes(w), Ordering::Relaxed);
            i += 1;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            at(&self.words[i]).store(u64::from_le_bytes(w), Ordering::Relaxed);
        }
    }

    /// Copy the buffer out into `dst` (resized to the recorded length),
    /// word by word, `Relaxed`. Returns the length.
    ///
    /// The copy may be torn if a writer races; the recorded length is
    /// clamped to the capacity so a torn length can never over-read.
    pub fn load_bytes(&self, dst: &mut Vec<u8>) -> usize {
        self.load_via(dst, |w| w)
    }

    /// [`WordBuf::load_bytes`], reaching each word through `at`.
    pub(crate) fn load_via<'a>(
        &'a self,
        dst: &mut Vec<u8>,
        at: impl Fn(&'a AtomicU64) -> &'a AtomicU64,
    ) -> usize {
        let len = (at(&self.words[0]).load(Ordering::Relaxed) as usize).min(self.capacity);
        let data_words = len.div_ceil(8);
        dst.clear();
        dst.reserve(data_words * 8);
        for i in 1..=data_words {
            dst.extend_from_slice(&at(&self.words[i]).load(Ordering::Relaxed).to_le_bytes());
        }
        dst.truncate(len);
        len
    }

    /// The words: the length, then the payload.
    #[cfg(test)]
    pub(crate) fn words(&self) -> &[AtomicU64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_lengths() {
        let buf = WordBuf::new(64);
        let mut out = Vec::new();
        for len in [0usize, 1, 7, 8, 9, 63, 64] {
            let v: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            buf.store_bytes(&v);
            assert_eq!(buf.load_bytes(&mut out), len);
            assert_eq!(out, v, "len {len}");
        }
    }

    #[test]
    fn shrinking_write_hides_old_bytes() {
        let buf = WordBuf::new(32);
        buf.store_bytes(&[0xAA; 32]);
        buf.store_bytes(&[0xBB; 4]);
        let mut out = Vec::new();
        assert_eq!(buf.load_bytes(&mut out), 4);
        assert_eq!(out, vec![0xBB; 4]);
    }

    #[test]
    #[should_panic(expected = "exceeds WordBuf capacity")]
    fn oversized_store_panics() {
        WordBuf::new(8).store_bytes(&[0; 9]);
    }

    #[test]
    fn torn_length_cannot_over_read() {
        let buf = WordBuf::new(16);
        // Simulate a torn length word pointing past capacity.
        buf.words[0].store(1 << 40, Ordering::Relaxed);
        let mut out = Vec::new();
        assert_eq!(buf.load_bytes(&mut out), 16, "length clamped to capacity");
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(WordBuf::new(100).capacity(), 100);
    }
}
