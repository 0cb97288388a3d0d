//! The tagged flat memory.

use crate::{MemError, MemResult};
use cheri_cap::{
    decode_capability, encode_capability, CapFormat, Capability, CompressedCapability,
    CompressionStats, CAP128_SIZE_BYTES, CAP_ALIGN, CAP_SIZE_BYTES,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Retired backing stores, reused by [`TaggedMemory::with_format`] so a
/// hot loop constructing machines (the fig benches build a fresh 16 MiB
/// memory per run) re-zeroes only the chunks the previous run dirtied
/// instead of memsetting the whole store. Only memories of at least
/// [`POOL_MIN_BYTES`] are pooled, bounded by [`POOL_MAX_ENTRIES`] *and*
/// [`POOL_MAX_BYTES`] of total resident capacity (so one giant or many
/// odd-sized memories cannot pin unbounded host memory);
/// [`TaggedMemory::reset`] guarantees a reused store is indistinguishable
/// from a fresh one.
static POOL: Mutex<Vec<TaggedMemory>> = Mutex::new(Vec::new());
const POOL_MIN_BYTES: u64 = 1 << 20;
const POOL_MAX_ENTRIES: usize = 8;
const POOL_MAX_BYTES: u64 = 256 << 20;

/// What [`TaggedMemory::write_cap`] does in [`CapFormat::Cap128`] mode with
/// a capability the low-fat format cannot represent exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum UnrepresentablePolicy {
    /// Store the full 256-bit form in a side table and mark the granule
    /// with an escape pattern — semantics stay identical to
    /// [`CapFormat::Cap256`] at the cost of one side-table entry. This
    /// models an implementation that reserves a small region of full-width
    /// capability storage for the (rare) irregular capabilities.
    #[default]
    SideTable,
    /// Refuse the store of a *tagged* unrepresentable capability with
    /// [`MemError::Unrepresentable`] — the strict-hardware behaviour.
    /// Untagged unrepresentable bit patterns are plain data and still
    /// escape to the side table so their bytes survive.
    Trap,
}

/// Escape pattern marking a Cap128 slot whose real content lives in the
/// side table. The metadata word's top bit is never produced by
/// [`CompressedCapability::compress`] (it uses bits 0..55), so a genuine
/// compressed capability can never collide with the marker.
const CAP128_ESCAPE: [u8; CAP128_SIZE_BYTES] = [
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
];

/// A flat, byte-addressable virtual memory with one out-of-band tag bit per
/// 32-byte granule.
///
/// Invariants maintained:
///
/// * a granule's tag is set **only** by [`TaggedMemory::write_cap`] storing
///   a tagged capability at that granule;
/// * any plain data store overlapping a granule clears its tag;
/// * [`TaggedMemory::memcpy`] preserves a destination granule's tag exactly
///   when the copy is granule-to-granule aligned and the source granule was
///   tagged — the behaviour that lets `memcpy` and unions move capabilities
///   without knowing they are there (paper §4).
///
/// Every plain store goes through [`TaggedMemory::write_bytes`]. Its
/// common case — a scalar that stays inside one 32-byte granule (hence
/// one 64 KiB dirty chunk) while the Cap128 side table is empty — writes
/// the bytes, clears that one tag and sets that one dirty bit; every other
/// store walks the touched granules, side-table entries and chunks. Both
/// branches leave the memory in the same state.
#[derive(Clone, Debug)]
pub struct TaggedMemory {
    bytes: Vec<u8>,
    tags: Vec<bool>,
    /// One bit per [`DIRTY_CHUNK`]-byte chunk that has been written since
    /// construction or the last [`TaggedMemory::reset`]. Lets `reset` re-zero
    /// only the touched chunks instead of the whole backing store, which is
    /// what makes pooling memories across interpreter runs cheap.
    dirty: Vec<u64>,
    format: CapFormat,
    policy: UnrepresentablePolicy,
    /// Full 256-bit escape storage for Cap128 granules whose capability the
    /// low-fat format cannot represent, keyed by granule base address.
    side: HashMap<u64, [u8; CAP_SIZE_BYTES]>,
    comp_stats: CompressionStats,
}

/// Dirty-tracking granularity: 64 KiB chunks (a multiple of [`CAP_ALIGN`]).
const DIRTY_CHUNK: u64 = 64 * 1024;

/// The first `N` bytes of `b` as an array: one fixed-width load.
#[inline]
fn le_bytes<const N: usize>(b: &[u8]) -> [u8; N] {
    b[..N].try_into().expect("slice holds the access width")
}

impl TaggedMemory {
    /// Creates a zeroed memory of `size` bytes (rounded up to a whole number
    /// of 32-byte granules), all tags clear, storing full 256-bit
    /// capabilities.
    pub fn new(size: u64) -> TaggedMemory {
        TaggedMemory::with_format(size, CapFormat::Cap256, UnrepresentablePolicy::SideTable)
    }

    /// Creates a zeroed memory whose capability stores use `format`.
    ///
    /// In [`CapFormat::Cap128`] mode every [`TaggedMemory::write_cap`]
    /// compresses the capability to the low-fat 16-byte form; `policy`
    /// decides what happens to the capabilities that format cannot
    /// represent. `policy` is irrelevant in [`CapFormat::Cap256`] mode.
    pub fn with_format(
        size: u64,
        format: CapFormat,
        policy: UnrepresentablePolicy,
    ) -> TaggedMemory {
        let granules = size.div_ceil(CAP_ALIGN);
        let size = granules * CAP_ALIGN;
        if size >= POOL_MIN_BYTES {
            let reused = {
                let mut pool = POOL.lock().expect("memory pool poisoned");
                pool.iter()
                    .position(|m| m.size() == size)
                    .map(|i| pool.swap_remove(i))
            };
            if let Some(mut m) = reused {
                m.reset();
                m.format = format;
                m.policy = policy;
                return m;
            }
        }
        let chunks = size.div_ceil(DIRTY_CHUNK);
        TaggedMemory {
            bytes: vec![0; size as usize],
            tags: vec![false; granules as usize],
            dirty: vec![0; chunks.div_ceil(64) as usize],
            format,
            policy,
            side: HashMap::new(),
            comp_stats: CompressionStats::default(),
        }
    }

    /// The capability storage format this memory was built with.
    pub fn format(&self) -> CapFormat {
        self.format
    }

    /// Compression statistics accumulated by Cap128 capability stores:
    /// attempts count tagged capabilities offered to the compressor,
    /// successes those that fit the 128-bit format exactly. Always zero in
    /// [`CapFormat::Cap256`] mode.
    pub fn compression_stats(&self) -> CompressionStats {
        self.comp_stats
    }

    /// Live escape-table entries (Cap128 granules storing their full
    /// 256-bit form out of line).
    pub fn side_table_len(&self) -> usize {
        self.side.len()
    }

    /// Bytes of capability storage currently in use: one slot of
    /// [`CapFormat::stored_bytes`] per tagged granule, plus the full-width
    /// side-table entries. This is the number behind the paper's
    /// memory-footprint claim for 128-bit capabilities.
    pub fn cap_footprint_bytes(&self) -> u64 {
        let tagged = self.tags.iter().filter(|&&t| t).count() as u64;
        tagged * self.format.stored_bytes() + self.side.len() as u64 * CAP_SIZE_BYTES as u64
    }

    /// Marks `[addr, addr+len)` dirty. Callers have already bounds-checked.
    fn mark_dirty(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / DIRTY_CHUNK;
        let last = (addr + len - 1) / DIRTY_CHUNK;
        for c in first..=last {
            self.dirty[(c / 64) as usize] |= 1 << (c % 64);
        }
    }

    /// Restores the memory to its freshly-constructed state — all bytes
    /// zero, all tags clear — touching only the chunks dirtied since the
    /// last reset. Cost is proportional to the footprint actually written,
    /// not to the memory's size.
    pub fn reset(&mut self) {
        self.side.clear();
        self.comp_stats = CompressionStats::default();
        for w in 0..self.dirty.len() {
            let mut bits = self.dirty[w];
            self.dirty[w] = 0;
            while bits != 0 {
                let b = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                let start = (w as u64 * 64 + b) * DIRTY_CHUNK;
                let end = (start + DIRTY_CHUNK).min(self.size());
                self.bytes[start as usize..end as usize].fill(0);
                let g0 = (start / CAP_ALIGN) as usize;
                let g1 = (end.div_ceil(CAP_ALIGN) as usize).min(self.tags.len());
                self.tags[g0..g1].fill(false);
            }
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn check(&self, addr: u64, len: u64) -> MemResult<usize> {
        if addr.checked_add(len).is_none_or(|end| end > self.size()) {
            return Err(MemError::OutOfRange { addr, len });
        }
        Ok(addr as usize)
    }

    fn clear_tags_over(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = (addr / CAP_ALIGN) as usize;
        let last = (((addr + len - 1) / CAP_ALIGN) as usize).min(self.tags.len() - 1);
        for t in &mut self.tags[first..=last] {
            *t = false;
        }
    }

    /// Forgets the side-table entries of every granule `[addr, addr+len)`
    /// touches — a plain data write has scribbled over the escape slot, so
    /// the out-of-line full-width copy no longer describes the bytes.
    fn drop_side_over(&mut self, addr: u64, len: u64) {
        if self.side.is_empty() || len == 0 {
            return;
        }
        let first = addr / CAP_ALIGN * CAP_ALIGN;
        let last = (addr + len - 1) / CAP_ALIGN * CAP_ALIGN;
        // Walk whichever is smaller: the written range or the (typically
        // tiny) side table — a heap-sized memset must not do a HashMap
        // probe per granule.
        if ((last - first) / CAP_ALIGN + 1) as usize <= self.side.len() {
            let mut g = first;
            while g <= last {
                self.side.remove(&g);
                g += CAP_ALIGN;
            }
        } else {
            self.side.retain(|&g, _| g < first || g > last);
        }
    }

    /// The general bookkeeping of a plain write over `[addr, addr+len)`:
    /// clears every touched tag, drops every touched side-table entry and
    /// marks every touched chunk dirty. Callers have already
    /// bounds-checked.
    fn overwrite(&mut self, addr: u64, len: u64) {
        self.clear_tags_over(addr, len);
        self.drop_side_over(addr, len);
        self.mark_dirty(addr, len);
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the backing store.
    pub fn read_bytes(&self, addr: u64, len: u64) -> MemResult<&[u8]> {
        let a = self.check(addr, len)?;
        Ok(&self.bytes[a..a + len as usize])
    }

    /// Writes `data` at `addr`, clearing the tags of every granule touched.
    ///
    /// A non-empty write inside one granule while the side table is empty
    /// — every scalar store that does not straddle a granule, outside
    /// Cap128 escapes — clears that granule's tag and sets its chunk's
    /// dirty bit directly; anything else walks the touched range.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the backing store.
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> MemResult<()> {
        let len = data.len() as u64;
        let a = self.check(addr, len)?;
        self.bytes[a..a + data.len()].copy_from_slice(data);
        // `check` bounded `addr + len`, so the sum cannot overflow.
        if len != 0 && addr % CAP_ALIGN + len <= CAP_ALIGN && self.side.is_empty() {
            // A granule never straddles a dirty chunk (CAP_ALIGN divides
            // DIRTY_CHUNK), so one tag and one dirty bit cover the write.
            self.tags[(addr / CAP_ALIGN) as usize] = false;
            let c = addr / DIRTY_CHUNK;
            self.dirty[(c / 64) as usize] |= 1 << (c % 64);
            return Ok(());
        }
        self.overwrite(addr, len);
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn read_u8(&self, addr: u64) -> MemResult<u8> {
        Ok(self.read_bytes(addr, 1)?[0])
    }

    /// Reads a little-endian 16-bit value.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn read_u16(&self, addr: u64) -> MemResult<u16> {
        let b = self.read_bytes(addr, 2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian 32-bit value.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn read_u32(&self, addr: u64) -> MemResult<u32> {
        let b = self.read_bytes(addr, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian 64-bit value.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn read_u64(&self, addr: u64) -> MemResult<u64> {
        let b = self.read_bytes(addr, 8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes one byte (clears the granule's tag).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) -> MemResult<()> {
        self.write_bytes(addr, &[v])
    }

    /// Writes a little-endian 16-bit value (clears overlapping tags).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u16(&mut self, addr: u64, v: u16) -> MemResult<()> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian 32-bit value (clears overlapping tags).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u32(&mut self, addr: u64, v: u32) -> MemResult<()> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian 64-bit value (clears overlapping tags).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> MemResult<()> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Reads a little-endian value of `width` ∈ {1, 2, 4, 8} bytes,
    /// zero-extended.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[inline]
    pub fn read_uint(&self, addr: u64, width: u8) -> MemResult<u64> {
        assert!(
            matches!(width, 1 | 2 | 4 | 8),
            "unsupported access width {width}"
        );
        let a = self.check(addr, u64::from(width))?;
        let b = &self.bytes[a..a + width as usize];
        Ok(match width {
            1 => u64::from(b[0]),
            2 => u64::from(u16::from_le_bytes(le_bytes(b))),
            4 => u64::from(u32::from_le_bytes(le_bytes(b))),
            _ => u64::from_le_bytes(le_bytes(b)),
        })
    }

    /// Writes the low `width` ∈ {1, 2, 4, 8} bytes of `v`, little-endian.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, v: u64, width: u8) -> MemResult<()> {
        match width {
            1 => self.write_u8(addr, v as u8),
            2 => self.write_u16(addr, v as u16),
            4 => self.write_u32(addr, v as u32),
            8 => self.write_u64(addr, v),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// `CLC`: loads the capability stored at `addr` (32-byte aligned),
    /// together with its tag.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfRange`].
    pub fn read_cap(&self, addr: u64) -> MemResult<Capability> {
        if addr % CAP_ALIGN != 0 {
            return Err(MemError::Misaligned { addr });
        }
        let a = self.check(addr, CAP_SIZE_BYTES as u64)?;
        let tag = self.tags[(addr / CAP_ALIGN) as usize];
        match self.format {
            CapFormat::Cap256 => {
                let mut buf = [0u8; CAP_SIZE_BYTES];
                buf.copy_from_slice(&self.bytes[a..a + CAP_SIZE_BYTES]);
                Ok(decode_capability(&buf, tag))
            }
            CapFormat::Cap128 => {
                let mut buf = [0u8; CAP128_SIZE_BYTES];
                buf.copy_from_slice(&self.bytes[a..a + CAP128_SIZE_BYTES]);
                if buf == CAP128_ESCAPE {
                    if let Some(full) = self.side.get(&addr) {
                        return Ok(decode_capability(full, tag));
                    }
                    // Plain data that happens to spell the escape pattern:
                    // fall through and decode it as a (necessarily
                    // untagged) compressed slot.
                }
                Ok(CompressedCapability::from_bytes(&buf).decompress_with_tag(tag))
            }
        }
    }

    /// `CSC`: stores `cap` at `addr` (32-byte aligned), setting the
    /// granule's tag to the capability's tag.
    ///
    /// This is the **only** operation that can set a tag bit.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfRange`].
    pub fn write_cap(&mut self, addr: u64, cap: &Capability) -> MemResult<()> {
        if addr % CAP_ALIGN != 0 {
            return Err(MemError::Misaligned { addr });
        }
        let a = self.check(addr, CAP_SIZE_BYTES as u64)?;
        match self.format {
            CapFormat::Cap256 => {
                self.bytes[a..a + CAP_SIZE_BYTES].copy_from_slice(&encode_capability(cap));
            }
            CapFormat::Cap128 => {
                let z = if cap.tag() {
                    self.comp_stats.try_compress(cap)
                } else {
                    CompressedCapability::compress(cap)
                };
                let slot = match z {
                    Some(z) => {
                        self.side.remove(&addr);
                        z.to_bytes()
                    }
                    None if cap.tag() && self.policy == UnrepresentablePolicy::Trap => {
                        return Err(MemError::Unrepresentable { addr });
                    }
                    None => {
                        self.side.insert(addr, encode_capability(cap));
                        CAP128_ESCAPE
                    }
                };
                self.bytes[a..a + CAP128_SIZE_BYTES].copy_from_slice(&slot);
                // The rest of the reserved granule is architectural zero —
                // the 128-bit store only moves half the bytes.
                self.bytes[a + CAP128_SIZE_BYTES..a + CAP_SIZE_BYTES].fill(0);
            }
        }
        self.tags[(addr / CAP_ALIGN) as usize] = cap.tag();
        self.mark_dirty(addr, CAP_SIZE_BYTES as u64);
        Ok(())
    }

    /// The tag of the granule containing `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn tag_at(&self, addr: u64) -> MemResult<bool> {
        self.check(addr, 1)?;
        Ok(self.tags[(addr / CAP_ALIGN) as usize])
    }

    /// Clears the tag of the granule containing `addr` (e.g. the collector
    /// invalidating a stale capability).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn clear_tag_at(&mut self, addr: u64) -> MemResult<()> {
        self.check(addr, 1)?;
        self.tags[(addr / CAP_ALIGN) as usize] = false;
        Ok(())
    }

    /// Iterates over the addresses of all tagged granules — the precise
    /// root/heap scan the tag-accurate garbage collector performs.
    pub fn tagged_granules(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(i, _)| i as u64 * CAP_ALIGN)
    }

    /// A capability-oblivious copy, as the hardware performs it: bytes are
    /// copied, and a destination granule receives the source granule's tag
    /// exactly when both are whole, mutually aligned granules within the
    /// copy; every other touched destination granule has its tag cleared.
    ///
    /// This is what lets `memcpy` move structures containing pointers
    /// without being aware of them — and what guarantees that a *misaligned*
    /// copy of a capability yields untagged (harmless) bytes.
    ///
    /// Overlapping ranges behave like `memmove`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if either range leaves the backing store.
    pub fn memcpy(&mut self, dst: u64, src: u64, len: u64) -> MemResult<()> {
        let s = self.check(src, len)?;
        let d = self.check(dst, len)?;
        // Record which destination granules should inherit a set tag, and
        // (Cap128) which should inherit a side-table escape entry — the
        // escape slot is only meaningful together with its out-of-line
        // bytes, so the two travel as one.
        let mut inherit = Vec::new();
        let mut side_moves = Vec::new();
        if dst % CAP_ALIGN == src % CAP_ALIGN {
            let mut a = src;
            // First whole granule inside [src, src+len).
            if a % CAP_ALIGN != 0 {
                a = (a / CAP_ALIGN + 1) * CAP_ALIGN;
            }
            while a + CAP_ALIGN <= src + len {
                if self.tags[(a / CAP_ALIGN) as usize] {
                    inherit.push(dst + (a - src));
                }
                if !self.side.is_empty() {
                    if let Some(full) = self.side.get(&a) {
                        side_moves.push((dst + (a - src), *full));
                    }
                }
                a += CAP_ALIGN;
            }
        }
        self.bytes.copy_within(s..s + len as usize, d);
        self.overwrite(dst, len);
        for a in inherit {
            self.tags[(a / CAP_ALIGN) as usize] = true;
        }
        for (a, full) in side_moves {
            self.side.insert(a, full);
        }
        Ok(())
    }

    /// Fills `[addr, addr+len)` with `value`, clearing tags (like `memset`).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn fill(&mut self, addr: u64, len: u64, value: u8) -> MemResult<()> {
        let a = self.check(addr, len)?;
        self.bytes[a..a + len as usize].fill(value);
        self.overwrite(addr, len);
        Ok(())
    }

    /// Captures the warm footprint of this memory — every chunk dirtied
    /// since construction (or the last [`TaggedMemory::reset`]) with its
    /// bytes and tags, plus the Cap128 side table and compression counters
    /// — as a shareable [`MemSnapshot`].
    ///
    /// The snapshot relies on the dirty bitmap being a complete record of
    /// mutation: a clean chunk is all-zero with clear tags. That invariant
    /// holds for every `TaggedMemory` built through the public API —
    /// construction yields a zeroed store (pooled stores are reset) and
    /// every mutating operation marks the chunks it touches.
    pub fn snapshot(&self) -> MemSnapshot {
        let mut warm = Vec::new();
        for (w, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                let start = (w as u64 * 64 + b) * DIRTY_CHUNK;
                let end = (start + DIRTY_CHUNK).min(self.size());
                let g0 = (start / CAP_ALIGN) as usize;
                let g1 = (end.div_ceil(CAP_ALIGN) as usize).min(self.tags.len());
                warm.push(WarmChunk {
                    start,
                    bytes: self.bytes[start as usize..end as usize].to_vec(),
                    tags: self.tags[g0..g1].to_vec(),
                });
            }
        }
        MemSnapshot {
            inner: Arc::new(SnapInner {
                size: self.size(),
                format: self.format,
                policy: self.policy,
                dirty: self.dirty.clone(),
                warm,
                side: self.side.clone(),
                comp_stats: self.comp_stats,
            }),
        }
    }
}

/// One dirty chunk captured by [`TaggedMemory::snapshot`]: its byte image
/// and the tags of the granules it covers. Only the last chunk of a memory
/// may be short.
#[derive(Debug)]
struct WarmChunk {
    start: u64,
    bytes: Vec<u8>,
    tags: Vec<bool>,
}

#[derive(Debug)]
struct SnapInner {
    size: u64,
    format: CapFormat,
    policy: UnrepresentablePolicy,
    dirty: Vec<u64>,
    warm: Vec<WarmChunk>,
    side: HashMap<u64, [u8; CAP_SIZE_BYTES]>,
    comp_stats: CompressionStats,
}

/// An immutable, cheaply shareable image of a [`TaggedMemory`]'s warm
/// footprint, used to fork a warmed-up machine per request instead of
/// re-initializing (and re-executing into) a fresh one.
///
/// Copy-on-write is applied at fork time and at dirty-chunk granularity:
/// [`MemSnapshot::fork`] obtains a zeroed backing store from the memory
/// pool (whose `reset` already re-zeroes only previously-dirty chunks) and
/// copies in *only* the chunks the snapshot recorded as warm. Cost is
/// proportional to the guest's actual footprint, not the memory size, and
/// the forked memory shares no mutable state with the snapshot — so the
/// hot read path (`read_bytes` returning borrowed slices) stays exactly as
/// it is, with no per-access indirection to a base image.
///
/// Cloning a `MemSnapshot` clones an [`Arc`]; snapshots can be shared
/// freely across worker threads.
#[derive(Clone, Debug)]
pub struct MemSnapshot {
    inner: Arc<SnapInner>,
}

impl MemSnapshot {
    /// Materializes a new [`TaggedMemory`] identical (bytes, tags, side
    /// table, compression counters, dirty bitmap) to the memory the
    /// snapshot was taken from.
    pub fn fork(&self) -> TaggedMemory {
        let s = &*self.inner;
        let mut m = TaggedMemory::with_format(s.size, s.format, s.policy);
        for chunk in &s.warm {
            let a = chunk.start as usize;
            m.bytes[a..a + chunk.bytes.len()].copy_from_slice(&chunk.bytes);
            let g0 = (chunk.start / CAP_ALIGN) as usize;
            m.tags[g0..g0 + chunk.tags.len()].copy_from_slice(&chunk.tags);
        }
        m.dirty.copy_from_slice(&s.dirty);
        m.side = s.side.clone();
        m.comp_stats = s.comp_stats;
        m
    }

    /// Total size of the memory the snapshot describes, in bytes.
    pub fn size(&self) -> u64 {
        self.inner.size
    }

    /// Bytes of warm (captured) chunk data — the amount [`MemSnapshot::fork`]
    /// actually copies.
    pub fn warm_bytes(&self) -> u64 {
        self.inner.warm.iter().map(|c| c.bytes.len() as u64).sum()
    }
}

impl Drop for TaggedMemory {
    /// Retires a large backing store into the reuse pool (dirty bits kept,
    /// so the next [`TaggedMemory::with_format`] of the same size pays
    /// only a dirty-chunk re-zero).
    fn drop(&mut self) {
        if self.size() < POOL_MIN_BYTES {
            return;
        }
        let Ok(mut pool) = POOL.lock() else { return };
        let resident: u64 = pool.iter().map(TaggedMemory::size).sum();
        if pool.len() >= POOL_MAX_ENTRIES || resident + self.size() > POOL_MAX_BYTES {
            return;
        }
        let retired = TaggedMemory {
            bytes: std::mem::take(&mut self.bytes),
            tags: std::mem::take(&mut self.tags),
            dirty: std::mem::take(&mut self.dirty),
            format: self.format,
            policy: self.policy,
            side: std::mem::take(&mut self.side),
            comp_stats: self.comp_stats,
        };
        pool.push(retired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::Perms;
    use proptest::prelude::*;

    fn mem() -> TaggedMemory {
        TaggedMemory::new(0x1000)
    }

    fn a_cap() -> Capability {
        Capability::new_mem(0x100, 0x40, Perms::data())
    }

    #[test]
    fn size_rounds_to_granules() {
        assert_eq!(TaggedMemory::new(33).size(), 64);
        assert_eq!(TaggedMemory::new(0).size(), 0);
    }

    #[test]
    fn scalar_round_trips() {
        let mut m = mem();
        m.write_u8(1, 0xAB).unwrap();
        m.write_u16(2, 0xBEEF).unwrap();
        m.write_u32(4, 0xDEADBEEF).unwrap();
        m.write_u64(8, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(m.read_u8(1).unwrap(), 0xAB);
        assert_eq!(m.read_u16(2).unwrap(), 0xBEEF);
        assert_eq!(m.read_u32(4).unwrap(), 0xDEADBEEF);
        assert_eq!(m.read_u64(8).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn widths_dispatch() {
        let mut m = mem();
        for w in [1u8, 2, 4, 8] {
            m.write_uint(64, 0x1122_3344_5566_7788, w).unwrap();
            let v = m.read_uint(64, w).unwrap();
            let mask = if w == 8 {
                u64::MAX
            } else {
                (1u64 << (w * 8)) - 1
            };
            assert_eq!(v, 0x1122_3344_5566_7788 & mask);
        }
    }

    #[test]
    fn out_of_range_is_reported() {
        let m = mem();
        assert!(matches!(
            m.read_u64(0xFFF + 1),
            Err(MemError::OutOfRange { .. })
        ));
        assert!(matches!(
            m.read_u64(u64::MAX - 3),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn cap_round_trip_preserves_tag() {
        let mut m = mem();
        let c = a_cap();
        m.write_cap(0x40, &c).unwrap();
        assert_eq!(m.read_cap(0x40).unwrap(), c);
        assert!(m.tag_at(0x45).unwrap());
    }

    #[test]
    fn cap_access_requires_alignment() {
        let mut m = mem();
        assert!(matches!(m.read_cap(0x41), Err(MemError::Misaligned { .. })));
        assert!(matches!(
            m.write_cap(0x08, &a_cap()),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn plain_store_clears_tag() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_u8(0x50, 0).unwrap(); // anywhere in the granule
        let c = m.read_cap(0x40).unwrap();
        assert!(!c.tag());
        // The data bytes are otherwise intact except the one written.
        assert_eq!(c.base(), a_cap().base());
    }

    #[test]
    fn reset_is_equivalent_to_fresh() {
        // Dirty several distinct chunks through every mutation path, then
        // reset and compare against a freshly constructed memory.
        let size = 8 * 64 * 1024;
        let mut m = TaggedMemory::new(size);
        m.write_u64(8, 0xDEAD_BEEF).unwrap();
        m.write_bytes(64 * 1024 + 3, b"hello").unwrap();
        m.write_cap(2 * 64 * 1024, &a_cap()).unwrap();
        m.fill(5 * 64 * 1024 - 16, 64, 0xAA).unwrap(); // straddles chunks
        m.memcpy(7 * 64 * 1024, 0, 128).unwrap();
        m.reset();
        let fresh = TaggedMemory::new(size);
        assert_eq!(
            m.read_bytes(0, size).unwrap(),
            fresh.read_bytes(0, size).unwrap()
        );
        assert_eq!(m.tagged_granules().count(), 0);
        // The memory is fully reusable afterwards.
        m.write_cap(2 * 64 * 1024, &a_cap()).unwrap();
        assert!(m.read_cap(2 * 64 * 1024).unwrap().tag());
    }

    #[test]
    fn pooled_backing_store_comes_back_fresh() {
        // Large memories are recycled through the drop pool; a reused
        // store must be indistinguishable from a freshly zeroed one.
        let size = 2 * POOL_MIN_BYTES;
        let mut m = TaggedMemory::new(size);
        m.write_bytes(0x100, b"leftovers").unwrap();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.fill(size - 64, 64, 0xEE).unwrap();
        drop(m);
        let m = TaggedMemory::new(size);
        assert_eq!(m.read_bytes(0x100, 16).unwrap(), &[0u8; 16]);
        assert_eq!(m.read_u8(size - 1).unwrap(), 0);
        assert_eq!(m.tagged_granules().count(), 0);
        assert_eq!(m.side_table_len(), 0);
        assert_eq!(m.compression_stats(), CompressionStats::default());
    }

    #[test]
    fn straddling_store_clears_both_tags() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_cap(0x60, &a_cap()).unwrap();
        m.write_u64(0x5C, 0).unwrap(); // straddles granules 2 and 3
        assert!(!m.tag_at(0x40).unwrap());
        assert!(!m.tag_at(0x60).unwrap());
    }

    #[test]
    fn storing_untagged_cap_clears_tag() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_cap(0x40, &a_cap().clear_tag()).unwrap();
        assert!(!m.tag_at(0x40).unwrap());
    }

    #[test]
    fn aligned_memcpy_preserves_tags() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_u64(0x60, 77).unwrap();
        m.memcpy(0x80, 0x40, 64).unwrap();
        assert_eq!(m.read_cap(0x80).unwrap(), a_cap());
        assert_eq!(m.read_u64(0xA0).unwrap(), 77);
        assert!(!m.tag_at(0xA0).unwrap());
    }

    #[test]
    fn misaligned_memcpy_strips_tags_but_copies_bytes() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.memcpy(0x81, 0x40, 32).unwrap();
        assert!(!m.tag_at(0x81).unwrap());
        assert_eq!(
            m.read_bytes(0x81, 32).unwrap(),
            encode_capability(&a_cap()).as_slice()
        );
    }

    #[test]
    fn partial_granule_copy_strips_tag() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        // Same alignment, but only half the granule is copied.
        m.memcpy(0xC0, 0x40, 16).unwrap();
        assert!(!m.tag_at(0xC0).unwrap());
    }

    #[test]
    fn overlapping_memcpy_is_memmove() {
        let mut m = mem();
        for i in 0..64 {
            m.write_u8(0x100 + i, i as u8).unwrap();
        }
        m.memcpy(0x108, 0x100, 56).unwrap();
        for i in 0..56 {
            assert_eq!(m.read_u8(0x108 + i).unwrap(), i as u8);
        }
    }

    #[test]
    fn fill_clears_tags() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.fill(0x40, 64, 0xAA).unwrap();
        assert!(!m.tag_at(0x40).unwrap());
        assert_eq!(m.read_u8(0x7F).unwrap(), 0xAA);
    }

    #[test]
    fn tagged_granules_enumerates_exactly() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_cap(0x200, &a_cap()).unwrap();
        let got: Vec<u64> = m.tagged_granules().collect();
        assert_eq!(got, vec![0x40, 0x200]);
    }

    /// Every observable facet of two memories is identical.
    fn assert_mem_identical(a: &TaggedMemory, b: &TaggedMemory) {
        assert_eq!(a.size(), b.size());
        assert_eq!(a.format(), b.format());
        assert_eq!(
            a.read_bytes(0, a.size()).unwrap(),
            b.read_bytes(0, b.size()).unwrap()
        );
        assert_eq!(
            a.tagged_granules().collect::<Vec<_>>(),
            b.tagged_granules().collect::<Vec<_>>()
        );
        assert_eq!(a.side, b.side);
        assert_eq!(a.compression_stats(), b.compression_stats());
        assert_eq!(a.dirty, b.dirty);
    }

    /// The general write loop — copy, then `overwrite` the range — that
    /// the one-granule branch of `write_bytes` must reproduce.
    fn write_general(m: &mut TaggedMemory, addr: u64, data: &[u8]) {
        let a = m.check(addr, data.len() as u64).unwrap();
        m.bytes[a..a + data.len()].copy_from_slice(data);
        m.overwrite(addr, data.len() as u64);
    }

    #[test]
    fn snapshot_fork_reproduces_the_memory() {
        let size = 8 * DIRTY_CHUNK;
        let mut m = TaggedMemory::new(size);
        m.write_u64(8, 0xDEAD_BEEF).unwrap();
        m.write_bytes(DIRTY_CHUNK + 3, b"warm data").unwrap();
        m.write_cap(2 * DIRTY_CHUNK, &a_cap()).unwrap();
        m.fill(5 * DIRTY_CHUNK - 16, 64, 0xAA).unwrap(); // straddles chunks
        let snap = m.snapshot();
        let fork = snap.fork();
        assert_mem_identical(&m, &fork);
        // The fork copied only the warm footprint, not the whole store.
        assert!(snap.warm_bytes() < size);
        assert_eq!(snap.warm_bytes() % DIRTY_CHUNK, 0);
        // Forks are independent of the source and of each other.
        let mut fork2 = snap.fork();
        fork2.write_u8(0x20, 0x55).unwrap();
        assert_eq!(m.read_u8(0x20).unwrap(), 0);
        assert_eq!(fork.read_u8(0x20).unwrap(), 0);
    }

    #[test]
    fn snapshot_fork_carries_cap128_side_table() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        m.write_cap(0x40, &unrep_cap()).unwrap();
        m.write_cap(0x80, &a_cap()).unwrap();
        let fork = m.snapshot().fork();
        assert_mem_identical(&m, &fork);
        assert_eq!(fork.read_cap(0x40).unwrap(), unrep_cap());
        assert_eq!(fork.read_cap(0x80).unwrap(), a_cap());
    }

    #[test]
    fn forked_memory_resets_and_pools_like_a_fresh_one() {
        let size = 2 * POOL_MIN_BYTES;
        let mut m = TaggedMemory::new(size);
        m.write_bytes(0x100, b"snapshot me").unwrap();
        let snap = m.snapshot();
        let mut fork = snap.fork();
        fork.write_cap(0x40, &a_cap()).unwrap();
        fork.reset();
        let fresh = TaggedMemory::new(size);
        assert_eq!(
            fork.read_bytes(0, size).unwrap(),
            fresh.read_bytes(0, size).unwrap()
        );
        assert_eq!(fork.tagged_granules().count(), 0);
    }

    fn mem128() -> TaggedMemory {
        TaggedMemory::with_format(0x1000, CapFormat::Cap128, UnrepresentablePolicy::SideTable)
    }

    /// A capability the 128-bit format cannot represent: the length demands
    /// E >= 1 but the base is odd.
    fn unrep_cap() -> Capability {
        Capability::new_mem(0x10001, 0x2_0000, Perms::data())
    }

    #[test]
    fn cap128_representable_round_trip() {
        let mut m = mem128();
        let c = a_cap().set_offset(0x13).unwrap();
        m.write_cap(0x40, &c).unwrap();
        assert_eq!(m.read_cap(0x40).unwrap(), c);
        assert!(m.tag_at(0x40).unwrap());
        assert_eq!(m.side_table_len(), 0);
        let stats = m.compression_stats();
        assert_eq!((stats.attempts, stats.successes), (1, 1));
    }

    #[test]
    fn cap128_unrepresentable_escapes_to_side_table() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        let c = unrep_cap();
        m.write_cap(0x40, &c).unwrap();
        assert_eq!(m.side_table_len(), 1);
        assert_eq!(m.read_cap(0x40).unwrap(), c);
        let stats = m.compression_stats();
        assert_eq!((stats.attempts, stats.successes), (1, 0));
        // A representable overwrite retires the escape entry.
        m.write_cap(0x40, &a_cap()).unwrap();
        assert_eq!(m.side_table_len(), 0);
        assert_eq!(m.read_cap(0x40).unwrap(), a_cap());
    }

    #[test]
    fn cap128_trap_policy_refuses_tagged_unrepresentable() {
        let mut m =
            TaggedMemory::with_format(0x10_0000, CapFormat::Cap128, UnrepresentablePolicy::Trap);
        assert_eq!(
            m.write_cap(0x40, &unrep_cap()),
            Err(MemError::Unrepresentable { addr: 0x40 })
        );
        assert!(!m.tag_at(0x40).unwrap());
        // Untagged unrepresentable bytes are plain data: still stored.
        let data = unrep_cap().clear_tag();
        m.write_cap(0x40, &data).unwrap();
        assert_eq!(m.read_cap(0x40).unwrap(), data);
    }

    #[test]
    fn cap128_plain_store_clears_tag_and_side_entry() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        m.write_cap(0x40, &unrep_cap()).unwrap();
        m.write_u8(0x50, 0xAA).unwrap();
        assert!(!m.tag_at(0x40).unwrap());
        assert_eq!(m.side_table_len(), 0);
        // In-format caps behave like Cap256: scribble clears the tag only.
        m.write_cap(0x80, &a_cap()).unwrap();
        m.write_u8(0x90, 0).unwrap();
        assert!(!m.read_cap(0x80).unwrap().tag());
    }

    #[test]
    fn cap128_memcpy_moves_escaped_capabilities() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        let c = unrep_cap();
        m.write_cap(0x40, &c).unwrap();
        m.memcpy(0x100, 0x40, 32).unwrap();
        assert_eq!(m.read_cap(0x100).unwrap(), c);
        assert_eq!(m.side_table_len(), 2);
        // A misaligned copy of the escape slot must not resurrect the
        // capability: no tag, and the stale side entry is gone.
        m.memcpy(0x201, 0x40, 32).unwrap();
        assert!(!m.tag_at(0x201).unwrap());
    }

    #[test]
    fn cap128_footprint_is_half_of_cap256() {
        let mut m256 = mem();
        let mut m128 = mem128();
        for g in 0..4u64 {
            m256.write_cap(0x40 + g * 32, &a_cap()).unwrap();
            m128.write_cap(0x40 + g * 32, &a_cap()).unwrap();
        }
        assert_eq!(m256.cap_footprint_bytes(), 4 * 32);
        assert_eq!(m128.cap_footprint_bytes(), 4 * 16);
    }

    #[test]
    fn cap128_reset_clears_side_table_and_stats() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        m.write_cap(0x40, &unrep_cap()).unwrap();
        m.reset();
        assert_eq!(m.side_table_len(), 0);
        assert_eq!(m.compression_stats(), CompressionStats::default());
        assert_eq!(m.cap_footprint_bytes(), 0);
        assert!(!m.read_cap(0x40).unwrap().tag());
    }

    proptest! {
        /// Capability store→load round-trips byte- and tag-identically in
        /// BOTH formats (SideTable policy), for representable and
        /// unrepresentable shapes alike.
        #[test]
        fn cap_round_trip_identical_in_both_formats(
            base in 0u64..1 << 40,
            len in 0u64..1 << 30,
            off in any::<u64>(),
            tag in any::<bool>(),
            seal in any::<bool>(),
        ) {
            let c = Capability::new_mem(base, len, Perms::data())
                .set_offset(off).unwrap();
            let c = if seal {
                let sealer = Capability::new_mem(7, 1, Perms::all());
                c.seal(&sealer).unwrap()
            } else {
                c
            };
            let c = if tag { c } else { c.clear_tag() };
            for mut m in [TaggedMemory::new(0x1000), mem128()] {
                m.write_cap(0x40, &c).unwrap();
                prop_assert_eq!(m.read_cap(0x40).unwrap(), c);
                prop_assert_eq!(m.tag_at(0x40).unwrap(), c.tag());
            }
        }

        /// No sequence of plain writes can ever set a tag.
        #[test]
        fn plain_writes_never_set_tags(writes in proptest::collection::vec((0u64..0xF00, any::<u64>()), 1..40)) {
            let mut m = mem();
            for (addr, v) in writes {
                m.write_u64(addr, v).unwrap();
            }
            prop_assert_eq!(m.tagged_granules().count(), 0);
        }

        /// memcpy never *creates* tags that weren't in the source.
        #[test]
        fn memcpy_never_mints_tags(dst in 0u64..0x800, src in 0u64..0x800, len in 0u64..0x100) {
            let mut m = mem();
            m.write_cap(0x40, &a_cap()).unwrap();
            m.memcpy(dst, src, len).unwrap();
            for g in m.tagged_granules() {
                // Every tagged granule decodes to the original capability's bytes.
                let c = m.read_cap(g).unwrap();
                prop_assert_eq!(c.base(), a_cap().base());
                prop_assert_eq!(c.length(), a_cap().length());
            }
        }

        /// Scalar stores of every width at any alignment — inside a
        /// granule, straddling granules, straddling 64 KiB dirty chunks —
        /// interleaved with capability stores in both formats (including
        /// an unrepresentable Cap128 capability, so the side table is
        /// sometimes non-empty) leave bytes, tags, side table and dirty
        /// bitmap exactly as the general write loop does.
        #[test]
        fn scalar_stores_match_the_general_loop(
            cap128 in any::<bool>(),
            ops in proptest::collection::vec((0u8..9, 0u64..3, -40i64..40, any::<u64>()), 1..48),
        ) {
            let size = 3 * DIRTY_CHUNK;
            let make = || if cap128 {
                TaggedMemory::with_format(size, CapFormat::Cap128, UnrepresentablePolicy::SideTable)
            } else {
                TaggedMemory::new(size)
            };
            let (mut fast, mut general) = (make(), make());
            for (kind, near, off, v) in ops {
                // Near a chunk boundary, or anywhere.
                let base = if near == 0 { v % size } else { near * DIRTY_CHUNK };
                let addr = base.saturating_add_signed(off).min(size - 8);
                match kind {
                    0..=3 => {
                        let width = 1u8 << kind;
                        fast.write_uint(addr, v, width).unwrap();
                        write_general(&mut general, addr, &v.to_le_bytes()[..width as usize]);
                    }
                    4 => {
                        // A multi-byte slice through write_bytes itself.
                        let data = &v.to_le_bytes()[..(v % 9) as usize];
                        fast.write_bytes(addr, data).unwrap();
                        write_general(&mut general, addr, data);
                    }
                    _ => {
                        let g = addr / CAP_ALIGN * CAP_ALIGN;
                        let c = match kind {
                            5 => a_cap(),
                            6 => a_cap().clear_tag(),
                            _ => unrep_cap(),
                        };
                        fast.write_cap(g, &c).unwrap();
                        general.write_cap(g, &c).unwrap();
                    }
                }
            }
            assert_mem_identical(&fast, &general);
        }

        /// Overlapping copies behave like `memmove`: bytes, tags and (in
        /// Cap128 mode) side-table entries end up exactly where a copy
        /// through a disjoint scratch region would put them, in both copy
        /// directions, with no tag duplication or loss at the overlap seam.
        #[test]
        fn overlapping_memcpy_matches_memmove(
            fwd in any::<bool>(),        // dst > src (backward-overlapping) or dst < src
            shift in 1u64..96,           // overlap distance, crosses granule seams
            len in 64u64..256,
            cap128 in any::<bool>(),
            seed_caps in proptest::collection::vec(0u64..6, 1..4),
        ) {
            let total = 0x1000u64;
            let make = |cap128: bool| if cap128 {
                TaggedMemory::with_format(total, CapFormat::Cap128, UnrepresentablePolicy::SideTable)
            } else {
                TaggedMemory::new(total)
            };
            let region = 0x400u64;
            let (src, dst) = if fwd { (region + shift, region) } else { (region, region + shift) };
            // Seed the source range with data, in-format capabilities and
            // (Cap128) an unrepresentable escape capability.
            let mut seeded = make(cap128);
            for i in 0..(len + shift) {
                seeded.write_u8(region + i, (i * 7 + 3) as u8).unwrap();
            }
            for &g in &seed_caps {
                let addr = region / CAP_ALIGN * CAP_ALIGN + g * CAP_ALIGN;
                seeded.write_cap(addr, &a_cap()).unwrap();
            }
            if cap128 {
                let addr = region / CAP_ALIGN * CAP_ALIGN + 6 * CAP_ALIGN;
                seeded.write_cap(addr, &unrep_cap()).unwrap();
            }
            // Reference: the same copy through a disjoint scratch region.
            let mut reference = seeded.clone();
            let scratch = 0x900u64;
            reference.memcpy(scratch, src, len).unwrap();
            reference.memcpy(dst, scratch, len).unwrap();
            // Overlapping copy under test.
            let mut m = seeded;
            m.memcpy(dst, src, len).unwrap();
            prop_assert_eq!(
                m.read_bytes(dst, len).unwrap(),
                reference.read_bytes(dst, len).unwrap(),
                "bytes diverge from memmove semantics"
            );
            let mut a = dst / CAP_ALIGN * CAP_ALIGN;
            while a < dst + len {
                prop_assert_eq!(
                    m.tag_at(a).unwrap(),
                    reference.tag_at(a).unwrap(),
                    "tag at granule {:#x} diverges", a
                );
                prop_assert_eq!(
                    m.read_cap(a).unwrap(),
                    reference.read_cap(a).unwrap(),
                    "capability at granule {:#x} diverges", a
                );
                a += CAP_ALIGN;
            }
        }
    }
}
