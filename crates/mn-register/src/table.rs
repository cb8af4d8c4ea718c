//! Table-family adapters for [`MnGroup`]: the entry points the generic
//! table workloads and benches drive the MN slab through.
//!
//! * [`MnTableFamily`] as a [`MwTableFamily`] — the real thing: K
//!   multi-writer cells, W whole-table writer roles, driven by
//!   `workload_harness::multi::run_mw_table` (W writer threads × K keys,
//!   uniform/Zipf).
//! * [`MnTableFamily`] as a single-writer [`TableFamily`] — the M = 1
//!   degeneration, so the existing single-writer table driver and the
//!   table conformance suite exercise the MN composition (header
//!   stamping, timestamp scan, slab placement) through exactly the same
//!   interface as `GroupTableFamily`.

use register_common::traits::{
    BuildError, MwTableFamily, RegisterSpec, TableFamily, TableReadHandle, TableWriteHandle,
};

use crate::group::{MnGroup, MnGroupReader, MnGroupWriter};

/// Type-level handle for the slab-backed multi-writer table layout.
pub struct MnTableFamily;

impl TableWriteHandle for MnGroupWriter {
    #[inline]
    fn write(&mut self, k: usize, value: &[u8]) {
        let _ = MnGroupWriter::write(self, k, value);
    }
}

impl TableReadHandle for MnGroupReader {
    #[inline]
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, k: usize, f: F) -> R {
        MnGroupReader::read_with(self, k, |v, _ts| f(v))
    }

    /// Sorted visit: ascending cell order is ascending slab order (cell
    /// `c`'s sub-registers start at slab index `c·M`), so bursts stream
    /// the slab sequentially exactly like `GroupReaderSet::read_many`.
    /// Every key is validated **before** any callback runs (same
    /// contract as `GroupReaderSet` — a bad key must not silently
    /// truncate through the `u32` scratch, nor fail after `f` already
    /// observed earlier keys).
    fn read_many<F: FnMut(usize, &[u8])>(&mut self, keys: &[usize], mut f: F) {
        let cells = self.table().cells();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.reserve(keys.len());
        for &k in keys {
            assert!(k < cells, "cell index {k} out of range ({cells})");
            scratch.push(k as u32);
        }
        scratch.sort_unstable();
        for &k32 in &scratch {
            MnGroupReader::read_with(self, k32 as usize, |v, _ts| f(k32 as usize, v));
        }
        self.scratch = scratch;
    }
}

impl MwTableFamily for MnTableFamily {
    type Writer = MnGroupWriter;
    type Reader = MnGroupReader;

    const NAME: &'static str = "mn-slab";

    fn build(
        registers: usize,
        writers: usize,
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Vec<Self::Writer>, Vec<Self::Reader>), BuildError> {
        let table = MnGroup::new(registers, writers, spec.readers, spec.capacity, initial)?;
        let ws = (0..writers)
            .map(|_| table.writer().expect("fresh table has all writer roles"))
            .collect();
        let rs = (0..spec.readers)
            .map(|_| table.reader().expect("within the configured reader cap"))
            .collect();
        Ok((ws, rs))
    }

    fn heap_bytes(writers: &[Self::Writer]) -> Option<usize> {
        writers.first().map(|w| w.table().heap_bytes())
    }
}

impl TableFamily for MnTableFamily {
    type Writer = MnGroupWriter;
    type Reader = MnGroupReader;

    const NAME: &'static str = "mn-slab";

    fn build(
        registers: usize,
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError> {
        let (mut ws, rs) = <Self as MwTableFamily>::build(registers, 1, spec, initial)?;
        Ok((ws.pop().expect("one writer role requested"), rs))
    }

    fn heap_bytes(writer: &Self::Writer) -> Option<usize> {
        Some(writer.table().heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mw_family_roundtrip() {
        let (mut ws, mut rs) =
            <MnTableFamily as MwTableFamily>::build(8, 3, RegisterSpec::new(2, 64), b"seed")
                .unwrap();
        assert_eq!(ws.len(), 3);
        assert_eq!(rs.len(), 2);
        for r in rs.iter_mut() {
            TableReadHandle::read_with(r, 5, |v| assert_eq!(v, b"seed"));
        }
        // Two roles writing the same key: the later write wins in every
        // reader.
        TableWriteHandle::write(&mut ws[0], 5, b"first");
        TableWriteHandle::write(&mut ws[2], 5, b"second");
        for r in rs.iter_mut() {
            TableReadHandle::read_with(r, 5, |v| assert_eq!(v, b"second"));
        }
        assert!(<MnTableFamily as MwTableFamily>::heap_bytes(&ws).unwrap() > 0);
    }

    #[test]
    fn single_writer_family_roundtrip() {
        let (mut w, mut rs) =
            <MnTableFamily as TableFamily>::build(4, RegisterSpec::new(2, 64), b"seed").unwrap();
        TableWriteHandle::write_batch(&mut w, &[(1, b"one".as_slice()), (3, b"three".as_slice())]);
        let mut seen = Vec::new();
        rs[0].read_many(&[3, 1, 3], |k, v| seen.push((k, v.to_vec())));
        assert_eq!(
            seen,
            vec![(1, b"one".to_vec()), (3, b"three".to_vec()), (3, b"three".to_vec())],
            "ascending slab order, duplicates preserved"
        );
        assert!(<MnTableFamily as TableFamily>::heap_bytes(&w).unwrap() > 0);
    }

    #[test]
    fn read_many_rejects_out_of_range_keys_before_any_callback() {
        let (_w, mut rs) =
            <MnTableFamily as TableFamily>::build(4, RegisterSpec::new(1, 16), b"x").unwrap();
        // Oversized keys (including ones that would truncate through the
        // u32 scratch on 64-bit) must panic up front, with no callback
        // having observed any key.
        let mut called = false;
        let huge = if usize::BITS >= 64 { 1usize << 32 } else { usize::MAX };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rs[0].read_many(&[0, huge], |_, _| called = true);
        }));
        assert!(result.is_err(), "out-of-range key must panic");
        assert!(!called, "no callback may run before validation completes");
    }

    #[test]
    fn families_reject_bad_specs() {
        assert!(<MnTableFamily as TableFamily>::build(0, RegisterSpec::new(1, 16), b"").is_err());
        assert!(
            <MnTableFamily as MwTableFamily>::build(2, 0, RegisterSpec::new(1, 16), b"").is_err()
        );
        assert!(
            <MnTableFamily as MwTableFamily>::build(2, 2, RegisterSpec::new(0, 16), b"").is_err()
        );
    }
}
