//! Shared virtual-world structures used across workloads.

use crate::md5::Md5;
use commset_runtime::rng::SplitMix64;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A workload's constant input, generated once on first use and then
/// handed out by reference to every `make_world` call and delta-buffer
/// init of that workload. `T` is the cheap-to-clone form worlds install
/// (`Arc`-backed where the input is read-only). The value lives as long
/// as the workload's closures that hold its clones. Generation waits for
/// the first world because a process may build every workload and never
/// run one: the compiler benchmark builds all eight and would otherwise
/// hold every input at once.
pub(crate) struct SharedInput<T> {
    cell: Arc<OnceLock<T>>,
    generate: fn() -> T,
}

impl<T> Clone for SharedInput<T> {
    fn clone(&self) -> Self {
        SharedInput {
            cell: Arc::clone(&self.cell),
            generate: self.generate,
        }
    }
}

impl<T> SharedInput<T> {
    /// An input that `generate` builds on first use.
    pub(crate) fn new(generate: fn() -> T) -> Self {
        SharedInput {
            cell: Arc::new(OnceLock::new()),
            generate,
        }
    }

    /// The input, generated by the first call.
    pub(crate) fn get(&self) -> &T {
        self.cell.get_or_init(self.generate)
    }
}

/// An in-memory filesystem: the substitute for the paper's real input
/// files (see DESIGN.md, substitutions table).
#[derive(Debug, Default)]
pub struct VirtualFs {
    /// File contents by index.
    pub files: Vec<Vec<u8>>,
    /// Open streams by handle.
    pub streams: HashMap<i64, Stream>,
    next_handle: i64,
}

/// An open stream with an embedded digest context (digest-as-you-read).
#[derive(Debug, Clone)]
pub struct Stream {
    /// Index of the file.
    pub file: usize,
    /// Read position.
    pub pos: usize,
    /// Running MD5 of the bytes read so far.
    pub md5: Md5,
    /// Bytes staged by the last read, not yet hashed: `(offset, len)`.
    pub staged: Option<(usize, usize)>,
}

impl VirtualFs {
    /// Creates a filesystem with `n` pseudo-random files of
    /// `min_kb..=max_kb` kilobytes, deterministic in `seed`.
    pub fn generate(n: usize, min_kb: usize, max_kb: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let files = (0..n)
            .map(|_| {
                let kb = min_kb as u64 + rng.next_below((max_kb - min_kb + 1) as u64);
                let len = kb as usize * 1024;
                (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect()
            })
            .collect();
        VirtualFs {
            files,
            streams: HashMap::new(),
            next_handle: 1,
        }
    }

    /// Opens file `idx`, returning a stream handle.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (program bug, not input condition).
    pub fn open(&mut self, idx: usize) -> i64 {
        assert!(idx < self.files.len(), "open of nonexistent file {idx}");
        let h = self.next_handle;
        self.next_handle += 1;
        self.streams.insert(
            h,
            Stream {
                file: idx,
                pos: 0,
                md5: Md5::new(),
                staged: None,
            },
        );
        h
    }

    /// Reads the next block (up to `block` bytes) into the stream's digest
    /// context; returns the number of bytes consumed (0 at EOF).
    ///
    /// # Panics
    ///
    /// Panics on a bad handle.
    pub fn read_block(&mut self, handle: i64, block: usize) -> usize {
        let take = self.stage_block(handle, block);
        self.hash_staged(handle);
        take
    }

    /// Stages the next block (I/O half of a read); returns the number of
    /// bytes staged (0 at EOF).
    ///
    /// # Panics
    ///
    /// Panics on a bad handle or if a block is already staged.
    pub fn stage_block(&mut self, handle: i64, block: usize) -> usize {
        let s = self
            .streams
            .get_mut(&handle)
            .unwrap_or_else(|| panic!("read on closed handle {handle}"));
        assert!(s.staged.is_none(), "staged block not yet hashed");
        let data = &self.files[s.file];
        let take = block.min(data.len() - s.pos);
        if take > 0 {
            s.staged = Some((s.pos, take));
            s.pos += take;
        }
        take
    }

    /// Hashes the staged block into the stream's digest (compute half);
    /// returns the number of bytes hashed (0 if nothing was staged).
    ///
    /// # Panics
    ///
    /// Panics on a bad handle.
    pub fn hash_staged(&mut self, handle: i64) -> usize {
        let s = self
            .streams
            .get_mut(&handle)
            .unwrap_or_else(|| panic!("hash on closed handle {handle}"));
        match s.staged.take() {
            Some((off, len)) => {
                let data = &self.files[s.file];
                s.md5.update(&data[off..off + len]);
                len
            }
            None => 0,
        }
    }

    /// Finishes the stream's digest (without closing).
    ///
    /// # Panics
    ///
    /// Panics on a bad handle.
    pub fn digest(&self, handle: i64) -> [u8; 16] {
        self.streams
            .get(&handle)
            .unwrap_or_else(|| panic!("digest on closed handle {handle}"))
            .md5
            .finish()
    }

    /// Closes a stream.
    ///
    /// # Panics
    ///
    /// Panics on a bad handle (double close).
    pub fn close(&mut self, handle: i64) {
        let removed = self.streams.remove(&handle);
        assert!(removed.is_some(), "double close of handle {handle}");
    }
}

/// One stripe of a sharded virtual filesystem: the per-instance home the
/// sharded world gives commutative file state.
///
/// All stripes share the (immutable) file contents via `Arc`; each stripe
/// owns the streams whose handles land in it. Handles are allocated
/// *stride-aligned* — stripe `k` with stride `s` hands out
/// `k + s, k + 2s, …` — so `handle mod s == k` and every later per-handle
/// intrinsic routes back to the stripe that opened it without any shared
/// allocation state.
#[derive(Debug)]
pub struct FsShard {
    /// Shared file contents by index.
    pub files: Arc<Vec<Vec<u8>>>,
    /// Open streams homed in this stripe, by handle.
    pub streams: HashMap<i64, Stream>,
    next_local: i64,
    stripe: i64,
    stride: i64,
}

impl FsShard {
    /// Creates stripe `stripe` (of `stride` total) over shared `files`.
    ///
    /// # Panics
    ///
    /// Panics unless `stripe < stride`.
    pub fn new(files: Arc<Vec<Vec<u8>>>, stripe: usize, stride: usize) -> Self {
        assert!(stripe < stride, "stripe {stripe} outside stride {stride}");
        FsShard {
            files,
            streams: HashMap::new(),
            next_local: 0,
            stripe: stripe as i64,
            stride: stride as i64,
        }
    }

    /// Opens file `idx`, returning a stride-aligned stream handle
    /// (`handle mod stride == stripe`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (program bug, not input condition).
    pub fn open(&mut self, idx: usize) -> i64 {
        assert!(idx < self.files.len(), "open of nonexistent file {idx}");
        self.next_local += 1;
        let h = self.stripe + self.stride * self.next_local;
        self.streams.insert(
            h,
            Stream {
                file: idx,
                pos: 0,
                md5: Md5::new(),
                staged: None,
            },
        );
        h
    }

    /// Stages the next block (I/O half of a read); returns the number of
    /// bytes staged (0 at EOF).
    ///
    /// # Panics
    ///
    /// Panics on a bad handle or if a block is already staged.
    pub fn stage_block(&mut self, handle: i64, block: usize) -> usize {
        let s = self
            .streams
            .get_mut(&handle)
            .unwrap_or_else(|| panic!("read on closed handle {handle}"));
        assert!(s.staged.is_none(), "staged block not yet hashed");
        let data = &self.files[s.file];
        let take = block.min(data.len() - s.pos);
        if take > 0 {
            s.staged = Some((s.pos, take));
            s.pos += take;
        }
        take
    }

    /// Hashes the staged block into the stream's digest (compute half);
    /// returns the number of bytes hashed (0 if nothing was staged).
    ///
    /// # Panics
    ///
    /// Panics on a bad handle.
    pub fn hash_staged(&mut self, handle: i64) -> usize {
        let s = self
            .streams
            .get_mut(&handle)
            .unwrap_or_else(|| panic!("hash on closed handle {handle}"));
        match s.staged.take() {
            Some((off, len)) => {
                let data = &self.files[s.file];
                s.md5.update(&data[off..off + len]);
                len
            }
            None => 0,
        }
    }

    /// Finishes the stream's digest (without closing).
    ///
    /// # Panics
    ///
    /// Panics on a bad handle.
    pub fn digest(&self, handle: i64) -> [u8; 16] {
        self.streams
            .get(&handle)
            .unwrap_or_else(|| panic!("digest on closed handle {handle}"))
            .md5
            .finish()
    }

    /// Closes a stream.
    ///
    /// # Panics
    ///
    /// Panics on a bad handle (double close).
    pub fn close(&mut self, handle: i64) {
        let removed = self.streams.remove(&handle);
        assert!(removed.is_some(), "double close of handle {handle}");
    }

    /// Folds another stripe-compatible shard into this one: still-open
    /// streams carry over. Used as the delta merge for `fs#k` slots —
    /// open/close pair within one iteration, so a worker's shard
    /// normally arrives with no live streams.
    pub fn absorb(&mut self, other: FsShard) {
        self.streams.extend(other.streams);
    }
}

/// The output console: an ordered log of printed integers.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Console {
    /// Printed values, in print order.
    pub lines: Vec<i64>,
}

impl Console {
    /// Prints one value.
    pub fn print(&mut self, v: i64) {
        self.lines.push(v);
    }

    /// The lines as a sorted multiset (for order-insensitive comparison).
    pub fn multiset(&self) -> Vec<i64> {
        let mut v = self.lines.clone();
        v.sort_unstable();
        v
    }
}

/// A generic allocator-table stand-in: tracks live handles, detects
/// double-free and leaks (the alloc/dealloc commutativity pattern of
/// 456.hmmer and ECLAT).
///
/// A table can be *stride-aligned* (see [`AllocTable::with_stride`]): one
/// of `stride` independent stripes hands out handles congruent to its
/// residue, so sharded workloads can route per-handle intrinsics back to
/// the stripe that allocated them. The default table is the degenerate
/// single stripe (`residue 0, stride 1`), which hands out `1, 2, 3, …`
/// exactly as before.
#[derive(Debug)]
pub struct AllocTable {
    live: HashMap<i64, i64>,
    next: i64,
    residue: i64,
    stride: i64,
    /// Total allocations performed.
    pub total_allocs: u64,
}

impl Default for AllocTable {
    fn default() -> Self {
        AllocTable::with_stride(0, 1)
    }
}

impl AllocTable {
    /// A stripe handing out handles `residue + stride`, `residue +
    /// 2·stride`, … (`handle mod stride == residue`).
    ///
    /// # Panics
    ///
    /// Panics unless `residue < stride`.
    pub fn with_stride(residue: usize, stride: usize) -> Self {
        assert!(
            residue < stride,
            "residue {residue} outside stride {stride}"
        );
        AllocTable {
            live: HashMap::new(),
            next: 0,
            residue: residue as i64,
            stride: stride as i64,
            total_allocs: 0,
        }
    }

    /// Allocates an object carrying `payload`.
    pub fn alloc(&mut self, payload: i64) -> i64 {
        self.next += 1;
        self.total_allocs += 1;
        let h = self.residue + self.stride * self.next;
        self.live.insert(h, payload);
        h
    }

    /// The payload of a live object.
    ///
    /// # Panics
    ///
    /// Panics on a dead handle.
    pub fn payload(&self, h: i64) -> i64 {
        *self
            .live
            .get(&h)
            .unwrap_or_else(|| panic!("use of freed handle {h}"))
    }

    /// Frees an object.
    ///
    /// # Panics
    ///
    /// Panics on double free.
    pub fn free(&mut self, h: i64) {
        assert!(self.live.remove(&h).is_some(), "double free of {h}");
    }

    /// Number of live objects (0 at a leak-free end).
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Folds another stripe-compatible table into this one: lifetime
    /// counters add, still-live objects carry over. Used as the delta
    /// merge for per-stripe object tables — a worker whose allocations
    /// all pair with frees contributes an empty `live` map and only its
    /// allocation count.
    pub fn absorb(&mut self, other: AllocTable) {
        self.total_allocs += other.total_allocs;
        self.live.extend(other.live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5;

    #[test]
    fn virtual_fs_digest_matches_native() {
        let mut fs = VirtualFs::generate(3, 1, 2, 42);
        let expect = md5::digest(&fs.files[1].clone());
        let h = fs.open(1);
        while fs.read_block(h, 64) > 0 {}
        assert_eq!(fs.digest(h), expect);
        fs.close(h);
        assert!(fs.streams.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = VirtualFs::generate(2, 1, 4, 7);
        let b = VirtualFs::generate(2, 1, 4, 7);
        assert_eq!(a.files, b.files);
        let c = VirtualFs::generate(2, 1, 4, 8);
        assert_ne!(a.files, c.files);
    }

    #[test]
    #[should_panic(expected = "double close")]
    fn double_close_panics() {
        let mut fs = VirtualFs::generate(1, 1, 1, 1);
        let h = fs.open(0);
        fs.close(h);
        fs.close(h);
    }

    #[test]
    fn alloc_table_tracks_liveness() {
        let mut t = AllocTable::default();
        let a = t.alloc(10);
        let b = t.alloc(20);
        assert_eq!(t.payload(a), 10);
        assert_eq!(t.live_count(), 2);
        t.free(a);
        assert_eq!(t.live_count(), 1);
        t.free(b);
        assert_eq!(t.live_count(), 0);
        assert_eq!(t.total_allocs, 2);
    }

    #[test]
    fn default_alloc_table_hands_out_dense_handles() {
        let mut t = AllocTable::default();
        assert_eq!(t.alloc(0), 1);
        assert_eq!(t.alloc(0), 2);
        assert_eq!(t.alloc(0), 3);
    }

    #[test]
    fn strided_alloc_table_stays_in_its_residue_class() {
        let mut t = AllocTable::with_stride(3, 8);
        let hs: Vec<i64> = (0..5).map(|i| t.alloc(i)).collect();
        assert_eq!(hs, vec![11, 19, 27, 35, 43]);
        assert!(hs.iter().all(|h| h % 8 == 3));
        for h in &hs {
            t.free(*h);
        }
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn fs_shard_digests_match_native_and_align_handles() {
        let fs = VirtualFs::generate(3, 1, 2, 42);
        let files = Arc::new(fs.files);
        let expect = md5::digest(&files[1]);
        let mut shard = FsShard::new(Arc::clone(&files), 5, 8);
        let h = shard.open(1);
        assert_eq!(h % 8, 5, "handle routes back to its stripe");
        while shard.stage_block(h, 64) > 0 {
            shard.hash_staged(h);
        }
        assert_eq!(shard.digest(h), expect);
        shard.close(h);
        assert!(shard.streams.is_empty());
        // A second handle from the same stripe stays aligned and distinct.
        let h2 = shard.open(0);
        assert_eq!(h2 % 8, 5);
        assert_ne!(h2, h);
        shard.close(h2);
    }

    #[test]
    fn console_multiset() {
        let mut c = Console::default();
        c.print(3);
        c.print(1);
        c.print(2);
        assert_eq!(c.lines, vec![3, 1, 2]);
        assert_eq!(c.multiset(), vec![1, 2, 3]);
    }
}
