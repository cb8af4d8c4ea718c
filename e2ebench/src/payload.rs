//! The 4 KB values of `paper_4k` and `watch_4k`: a header
//! `[seq][stamp][body index][check]` and one of a few seeded bodies. The
//! check word ties the header to the body's sum, so a torn read or a
//! recycled slot fails [`Bodies::decode`], which reads every byte.

use crate::harness::{mix, Rng};

/// The paper's smallest value size (4 / 32 / 128 KB).
pub const VALUE: usize = 4096;
const HEADER: usize = 32;
/// Distinct bodies the writer picks from, generated from the seed.
const BODIES: usize = 16;

pub struct Bodies {
    bytes: Vec<Vec<u8>>,
    sums: Vec<u64>,
}

impl Bodies {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let bytes: Vec<Vec<u8>> = (0..BODIES)
            .map(|_| (0..(VALUE - HEADER) / 8).flat_map(|_| rng.next().to_le_bytes()).collect())
            .collect();
        let sums = bytes.iter().map(|b| checksum(b)).collect();
        Bodies { bytes, sums }
    }

    fn header(&self, seq: u64, stamp: u64, body: usize) -> [u8; HEADER] {
        let mut h = [0u8; HEADER];
        let check = mix(seq ^ mix(stamp ^ self.sums[body]));
        for (i, w) in [seq, stamp, body as u64, check].into_iter().enumerate() {
            h[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        h
    }

    /// Fills the value written as version `seq`, whose write started at
    /// `stamp`, with a body `pick` chooses.
    pub fn fill(&self, seq: u64, stamp: u64, pick: &mut Rng) -> impl FnOnce(&mut [u8]) + '_ {
        let body = pick.below(BODIES);
        let header = self.header(seq, stamp, body);
        move |buf: &mut [u8]| {
            buf[..HEADER].copy_from_slice(&header);
            buf[HEADER..].copy_from_slice(&self.bytes[body]);
        }
    }

    /// The initial value, version 0.
    pub fn initial(&self) -> Vec<u8> {
        [&self.header(0, 0, 0)[..], &self.bytes[0]].concat()
    }

    /// `(seq, stamp)` of a well-formed value: header check and body sum.
    pub fn decode(&self, v: &[u8]) -> Option<(u64, u64)> {
        if v.len() != VALUE {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(v[i * 8..i * 8 + 8].try_into().expect("word"));
        let (seq, stamp, body) = (word(0), word(1), word(2) as usize);
        let sum = *self.sums.get(body)?;
        (word(3) == mix(seq ^ mix(stamp ^ sum)) && checksum(&v[HEADER..]) == sum)
            .then_some((seq, stamp))
    }
}

fn checksum(body: &[u8]) -> u64 {
    body.chunks_exact(8).fold(0u64, |h, w| {
        h.rotate_left(7).wrapping_add(u64::from_le_bytes(w.try_into().expect("word")))
    })
}
