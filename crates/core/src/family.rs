//! [`RegisterFamily`] adapter so the conformance suite and figure benches
//! can drive ARC through the same interface as the baselines, plus the
//! [`TableFamily`] adapters for multi-register workloads: the slab-backed
//! [`ArcGroup`] and the NUMA-sharded [`ShardedTable`].

use register_common::traits::{
    BuildError, ReadHandle, RefReadHandle, RegisterFamily, RegisterSpec, TableFamily,
    TableReadHandle, TableWriteHandle, VersionedReadHandle, WatchHandle, WriteHandle,
};

use crate::current::MAX_READERS;
use crate::group::{ArcGroup, GroupReaderSet, GroupWriterSet};
use crate::register::{ArcReader, ArcRegister, ArcWriter, ReadGuard};
use crate::sharded::{ShardedReaderSet, ShardedTable, ShardedTableBuilder, ShardedWriterSet};

/// Type-level handle for the ARC algorithm.
pub struct ArcFamily;

impl RegisterFamily for ArcFamily {
    type Writer = ArcWriter;
    type Reader = ArcReader;

    const NAME: &'static str = "arc";

    fn reader_limit() -> Option<usize> {
        Some(MAX_READERS as usize) // 2^32 − 2: effectively unbounded
    }

    fn build(
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError> {
        let readers = u32::try_from(spec.readers).ok().filter(|&r| r <= MAX_READERS).ok_or(
            BuildError::TooManyReaders { requested: spec.readers, limit: MAX_READERS as usize },
        )?;
        let reg = ArcRegister::builder(readers, spec.capacity).initial(initial).build()?;
        let writer = reg.writer().expect("fresh register has no writer");
        let readers = (0..spec.readers)
            .map(|_| reg.reader().expect("within the configured reader cap"))
            .collect();
        Ok((writer, readers))
    }
}

impl WriteHandle for ArcWriter {
    #[inline]
    fn write(&mut self, value: &[u8]) {
        ArcWriter::write(self, value);
    }
}

impl ReadHandle for ArcReader {
    #[inline]
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, f: F) -> R {
        f(&self.read())
    }
}

impl VersionedReadHandle for ArcReader {
    #[inline]
    fn read_versioned_with<R, F: FnOnce(u64, &[u8]) -> R>(&mut self, f: F) -> R {
        let snap = self.read();
        f(snap.version(), &snap)
    }
}

impl RefReadHandle for ArcReader {
    type Guard<'a> = ReadGuard<'a>;

    #[inline]
    fn read_ref(&mut self) -> ReadGuard<'_> {
        ArcReader::read_ref(self)
    }

    fn zero_copy() -> bool {
        true // guards borrow the protocol-pinned slot bytes directly
    }
}

impl WatchHandle for ArcReader {
    #[inline]
    fn wait_for_update(&mut self, last: u64) -> u64 {
        ArcReader::wait_for_update(self, last).version()
    }

    #[inline]
    fn wait_for_update_timeout(&mut self, last: u64, timeout: std::time::Duration) -> Option<u64> {
        ArcReader::wait_for_update_timeout(self, last, timeout).map(|snap| snap.version())
    }
}

// ---------------------------------------------------------------------
// Table families (multi-register workloads)
// ---------------------------------------------------------------------

/// Type-level handle for the slab-backed [`ArcGroup`] table layout.
pub struct GroupTableFamily;

impl TableWriteHandle for GroupWriterSet {
    #[inline]
    fn write(&mut self, k: usize, value: &[u8]) {
        GroupWriterSet::write(self, k, value);
    }

    #[inline]
    fn write_batch(&mut self, ops: &[(usize, &[u8])]) {
        GroupWriterSet::write_batch(self, ops);
    }
}

impl TableReadHandle for GroupReaderSet {
    #[inline]
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, k: usize, f: F) -> R {
        f(&self.read(k))
    }

    #[inline]
    fn read_many<F: FnMut(usize, &[u8])>(&mut self, keys: &[usize], f: F) {
        GroupReaderSet::read_many(self, keys, f);
    }
}

impl TableFamily for GroupTableFamily {
    type Writer = GroupWriterSet;
    type Reader = GroupReaderSet;

    const NAME: &'static str = "arc-group";

    fn build(
        registers: usize,
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError> {
        let readers = u32::try_from(spec.readers).ok().filter(|&r| r <= MAX_READERS).ok_or(
            BuildError::TooManyReaders { requested: spec.readers, limit: MAX_READERS as usize },
        )?;
        let group =
            ArcGroup::builder(registers, readers, spec.capacity).initial(initial).build()?;
        let writer = group.writer_set().expect("fresh group has no writer");
        let readers = (0..spec.readers)
            .map(|_| group.reader_set().expect("within the configured reader cap"))
            .collect();
        Ok((writer, readers))
    }

    fn heap_bytes(writer: &Self::Writer) -> Option<usize> {
        Some(writer.group().heap_bytes())
    }
}

/// Compile-time configuration of a [`ShardedTableFamily`]: the table
/// drivers are monomorphized per family, so placement variants (bench
/// plans, the CI split plan) are expressed as zero-sized plan types
/// rather than runtime parameters.
pub trait ShardPlan {
    /// Algorithm label reported in bench/conformance output.
    const NAME: &'static str;

    /// Apply this plan's shard count / backend / placement to the
    /// builder. The default is the builder untouched: topology-driven
    /// shard count, heap backend, first-touch placement.
    fn configure(builder: ShardedTableBuilder) -> ShardedTableBuilder {
        builder
    }
}

/// The production plan: one shard per NUMA node (one shard total on
/// single-node machines), first-touch placement.
pub struct LocalPlan;

impl ShardPlan for LocalPlan {
    const NAME: &'static str = "arc-sharded";
}

/// A forced two-shard plan so the routing/translation layer is exercised
/// even on single-node CI runners, where [`LocalPlan`] collapses to one
/// shard and the cross-shard paths would otherwise go untested.
pub struct SplitPlan;

impl ShardPlan for SplitPlan {
    const NAME: &'static str = "arc-sharded2";

    fn configure(builder: ShardedTableBuilder) -> ShardedTableBuilder {
        builder.shards(2)
    }
}

/// Table family over [`ShardedTable`], parameterized by a [`ShardPlan`].
pub struct ShardedTableFamily<P: ShardPlan>(std::marker::PhantomData<P>);

impl TableWriteHandle for ShardedWriterSet {
    #[inline]
    fn write(&mut self, k: usize, value: &[u8]) {
        ShardedWriterSet::write(self, k, value);
    }

    #[inline]
    fn write_batch(&mut self, ops: &[(usize, &[u8])]) {
        ShardedWriterSet::write_batch(self, ops);
    }
}

impl TableReadHandle for ShardedReaderSet {
    #[inline]
    fn read_with<R, F: FnOnce(&[u8]) -> R>(&mut self, k: usize, f: F) -> R {
        f(&self.read(k))
    }

    #[inline]
    fn read_many<F: FnMut(usize, &[u8])>(&mut self, keys: &[usize], f: F) {
        ShardedReaderSet::read_many(self, keys, f);
    }
}

impl<P: ShardPlan + 'static> TableFamily for ShardedTableFamily<P> {
    type Writer = ShardedWriterSet;
    type Reader = ShardedReaderSet;

    const NAME: &'static str = P::NAME;

    fn build(
        registers: usize,
        spec: RegisterSpec,
        initial: &[u8],
    ) -> Result<(Self::Writer, Vec<Self::Reader>), BuildError> {
        let readers = u32::try_from(spec.readers).ok().filter(|&r| r <= MAX_READERS).ok_or(
            BuildError::TooManyReaders { requested: spec.readers, limit: MAX_READERS as usize },
        )?;
        let table = P::configure(ShardedTable::builder(registers, readers, spec.capacity))
            .initial(initial)
            .build()?;
        let writer = table.writer_set().expect("fresh table has no writer");
        let readers = (0..spec.readers)
            .map(|_| table.reader_set().expect("within the configured reader cap"))
            .collect();
        Ok((writer, readers))
    }

    fn heap_bytes(writer: &Self::Writer) -> Option<usize> {
        Some(writer.table().heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_builds_and_operates() {
        let (mut w, mut readers) = ArcFamily::build(RegisterSpec::new(3, 128), b"seed").unwrap();
        assert_eq!(readers.len(), 3);
        for r in readers.iter_mut() {
            r.read_with(|v| assert_eq!(v, b"seed"));
        }
        WriteHandle::write(&mut w, b"updated");
        for r in readers.iter_mut() {
            r.read_with(|v| assert_eq!(v, b"updated"));
        }
    }

    #[test]
    fn family_metadata() {
        assert_eq!(ArcFamily::NAME, "arc");
        assert!(ArcFamily::reader_limit().unwrap() > 1_000_000);
        assert!(ArcFamily::wait_free_reads());
    }

    #[test]
    fn family_rejects_bad_spec() {
        assert!(ArcFamily::build(RegisterSpec::new(0, 128), b"").is_err());
        assert!(ArcFamily::build(RegisterSpec::new(1, 0), b"").is_err());
    }

    #[test]
    fn group_table_family_roundtrip() {
        let (mut w, mut readers) =
            GroupTableFamily::build(8, RegisterSpec::new(2, 64), b"seed").unwrap();
        assert_eq!(readers.len(), 2);
        for r in readers.iter_mut() {
            r.read_with(3, |v| assert_eq!(v, b"seed"));
        }
        w.write_batch(&[(1, b"one".as_slice()), (3, b"three".as_slice())]);
        let mut seen = Vec::new();
        readers[0].read_many(&[3, 1], |k, v| seen.push((k, v.to_vec())));
        assert_eq!(seen, vec![(1, b"one".to_vec()), (3, b"three".to_vec())]);
        assert!(GroupTableFamily::heap_bytes(&w).unwrap() > 0);
    }

    #[test]
    fn table_families_reject_bad_specs() {
        assert!(GroupTableFamily::build(0, RegisterSpec::new(1, 16), b"").is_err());
        assert!(GroupTableFamily::build(2, RegisterSpec::new(0, 16), b"").is_err());
        assert!(GroupTableFamily::build(2, RegisterSpec::new(1, 0), b"").is_err());
    }

    #[test]
    fn sharded_table_family_roundtrip() {
        let (mut w, mut readers) =
            ShardedTableFamily::<SplitPlan>::build(16, RegisterSpec::new(2, 64), b"seed").unwrap();
        assert_eq!(readers.len(), 2);
        for r in readers.iter_mut() {
            r.read_with(9, |v| assert_eq!(v, b"seed"));
        }
        w.write_batch(&[(1, b"one".as_slice()), (13, b"thirteen".as_slice())]);
        let mut seen = Vec::new();
        readers[0].read_many(&[13, 1], |k, v| seen.push((k, v.to_vec())));
        seen.sort();
        assert_eq!(seen, vec![(1, b"one".to_vec()), (13, b"thirteen".to_vec())]);
        assert!(ShardedTableFamily::<SplitPlan>::heap_bytes(&w).unwrap() > 0);
        assert_eq!(ShardedTableFamily::<SplitPlan>::NAME, "arc-sharded2");
        assert_eq!(ShardedTableFamily::<LocalPlan>::NAME, "arc-sharded");
    }

    #[test]
    fn sharded_table_family_rejects_bad_specs() {
        assert!(ShardedTableFamily::<LocalPlan>::build(0, RegisterSpec::new(1, 16), b"").is_err());
        assert!(ShardedTableFamily::<LocalPlan>::build(2, RegisterSpec::new(0, 16), b"").is_err());
        assert!(ShardedTableFamily::<LocalPlan>::build(2, RegisterSpec::new(1, 0), b"").is_err());
    }

    #[test]
    fn read_into_default_impl() {
        let (mut w, mut readers) = ArcFamily::build(RegisterSpec::new(1, 64), b"abc").unwrap();
        WriteHandle::write(&mut w, b"hello world");
        let mut out = [0u8; 64];
        // Resolves straight to the trait method: the inherent Vec-based
        // copy is named `read_to_vec`, so nothing shadows `read_into`.
        let n = readers[0].read_into(&mut out);
        assert_eq!(&out[..n], b"hello world");
    }
}
