//! The persistent zero-copy organization store (DESIGN.md §5g).
//!
//! What a served navigation step reads — tag labels and populations,
//! tables, each state's tag and attribute sets, the child graph with its
//! cached topological order and per-state child-topic matrices, and the
//! navigation-model parameters — in **one file of aligned fixed-width
//! little-endian sections**, so a process maps it and serves from
//! borrowed `&[u32]`/`&[f32]` slices with near-zero deserialization.
//! At the paper's scale the CSV rebuild takes hours; opening a store is
//! validation + page faults.
//!
//! ## File format (version 2)
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "DLNSTOR\x01" · u32 version · u32 n_sections ·         │
//! │ u64 file_len · section table (n × 32 B: id, pad, offset,     │
//! │ len, FNV-1a checksum) · u64 header checksum                  │
//! ├── zero padding to the next 64-byte boundary ─────────────────┤
//! │ section 1 payload (offset ≡ 0 mod 64)                        │
//! ├── zero padding ──────────────────────────────────────────────┤
//! │ section 2 payload …                                          │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Integrity is checked **once at open**: magic/version/length, the
//! header checksum, every per-section checksum, section alignment and
//! bounds, zero inter-section padding (so *every* byte of the file is
//! covered by some check), and cross-section structural invariants (CSR
//! monotonicity, id ranges, UTF-8 labels). Any violation is a typed
//! [`DlnError::Corrupt`]; after open, accessors are infallible slice
//! views. Publication reuses the shared [`dln_persist`] protocol
//! (`<path>.tmp` + fsync + rename, `.prev` rotation), and the
//! `store.torn` failpoint truncates the encoded buffer pre-write exactly
//! like `checkpoint.torn`.
//!
//! The `store.mmap` failpoint (or `DLN_STORE_MMAP=0`) forces the
//! heap-copy fallback used on hosts without `mmap`; both backings serve
//! the same bytes through the same accessors. A snapshot published from
//! the in-memory structs ([`MappedSnapshot::encode`]) is the same bytes
//! on the heap, adopted through the same open-time checks.

use std::path::Path;

use dln_fault::{DlnError, DlnResult};
use dln_lake::TableId;

use crate::ctx::OrgContext;
use crate::eval::NavConfig;
use crate::graph::{Organization, StateId};
use dln_persist as persist;

/// File magic (8 bytes, includes a format generation byte).
const MAGIC: &[u8; 8] = b"DLNSTOR\x01";
/// Format version, bumped on any layout change.
const VERSION: u32 = 2;
/// Section payload alignment (cache-line sized; element soundness only
/// needs 8, but 64 keeps hot sections line-aligned).
const ALIGN: usize = 64;

// Section ids. The table must contain exactly these, in this order.
const SEC_META: u32 = 1;
const SEC_TAG_LABEL_OFFS: u32 = 2;
const SEC_TAG_LABEL_BYTES: u32 = 3;
const SEC_TAG_ATTR_OFFS: u32 = 4;
const SEC_TAG_ATTR_DATA: u32 = 5;
const SEC_TABLE_GLOBAL: u32 = 6;
const SEC_TABLE_ATTR_OFFS: u32 = 7;
const SEC_TABLE_ATTR_DATA: u32 = 8;
const SEC_STATE_TAG: u32 = 9;
const SEC_STATE_ALIVE: u32 = 10;
const SEC_STATE_TAG_WORDS: u32 = 11;
const SEC_STATE_ATTR_WORDS: u32 = 12;
const SEC_CHILD_OFFS: u32 = 13;
const SEC_CHILD_DATA: u32 = 14;
const SEC_TOPO: u32 = 15;
const SEC_CHILD_MAT: u32 = 16;
/// Number of sections in a version-2 store.
const N_SECTIONS: usize = 16;

/// Fixed u64 slots of the META section.
const META_WORDS: usize = 11;

/// Element width of a section's payload (1 = bytes, 4 = u32/f32, 8 = u64).
fn elem_size(id: u32) -> usize {
    match id {
        SEC_TAG_LABEL_BYTES | SEC_STATE_ALIVE => 1,
        SEC_META | SEC_STATE_TAG_WORDS | SEC_STATE_ATTR_WORDS => 8,
        _ => 4,
    }
}

/// Header size in bytes: fixed fields + section table + header checksum.
fn header_size() -> usize {
    8 + 4 + 4 + 8 + N_SECTIONS * 32 + 8
}

fn align_up(v: usize) -> usize {
    v.div_ceil(ALIGN) * ALIGN
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_u32(v: &mut Vec<u8>, x: u32) {
    v.extend_from_slice(&x.to_le_bytes());
}
fn push_u64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}
fn push_f32s(v: &mut Vec<u8>, xs: &[f32]) {
    for &x in xs {
        v.extend_from_slice(&x.to_le_bytes());
    }
}

/// A u32 CSR: offsets (len `n + 1`) and concatenated data.
fn csr<'a>(lists: impl Iterator<Item = &'a [u32]>) -> (Vec<u8>, Vec<u8>) {
    let mut offs = Vec::new();
    let mut data = Vec::new();
    let mut total = 0u32;
    push_u32(&mut offs, 0);
    for list in lists {
        for &x in list {
            push_u32(&mut data, x);
        }
        total += list.len() as u32;
        push_u32(&mut offs, total);
    }
    (offs, data)
}

/// Serialize a complete serving snapshot to the store wire format
/// (header, section table, checksums, aligned payloads — the exact bytes
/// [`open_store`] maps).
fn encode_store(ctx: &OrgContext, org: &Organization, nav: NavConfig) -> Vec<u8> {
    let dim = ctx.dim();
    let n_tags = ctx.n_tags();
    let n_attrs = ctx.n_attrs();
    let n_tables = ctx.n_tables();
    let n_slots = org.n_slots();
    let tw = n_tags.div_ceil(64);
    let aw = n_attrs.div_ceil(64);
    let topo = org.topo_order();

    let mut sections: Vec<Vec<u8>> = Vec::with_capacity(N_SECTIONS);

    // 1 META
    let mut meta = Vec::with_capacity(META_WORDS * 8);
    for v in [
        dim as u64,
        n_tags as u64,
        n_attrs as u64,
        n_tables as u64,
        n_slots as u64,
        org.root().0 as u64,
        tw as u64,
        aw as u64,
        nav.gamma.to_bits() as u64,
        org.fingerprint(),
        topo.len() as u64,
    ] {
        push_u64(&mut meta, v);
    }
    sections.push(meta);

    // 2–3 tag labels (byte-offset CSR + UTF-8 blob)
    let mut label_offs = Vec::new();
    let mut label_blob = Vec::new();
    push_u32(&mut label_offs, 0);
    for t in 0..n_tags as u32 {
        label_blob.extend_from_slice(ctx.tag(t).label.as_bytes());
        push_u32(&mut label_offs, label_blob.len() as u32);
    }
    sections.push(label_offs);
    sections.push(label_blob);

    // 4–5 tag → attrs CSR
    let (offs, data) = csr((0..n_tags as u32).map(|t| ctx.tag(t).attrs.as_slice()));
    sections.push(offs);
    sections.push(data);

    // 6 table globals
    let mut table_global = Vec::with_capacity(n_tables * 4);
    for table in ctx.tables() {
        push_u32(&mut table_global, table.global.0);
    }
    sections.push(table_global);

    // 7–8 table → attrs CSR
    let (offs, data) = csr(ctx.tables().iter().map(|t| t.attrs.as_slice()));
    sections.push(offs);
    sections.push(data);

    // 9 state tag (u32::MAX = interior state)
    let mut state_tag = Vec::with_capacity(n_slots * 4);
    for s in 0..n_slots {
        push_u32(
            &mut state_tag,
            org.state(StateId(s as u32)).tag.unwrap_or(u32::MAX),
        );
    }
    sections.push(state_tag);

    // 10 alive flags
    let alive: Vec<u8> = (0..n_slots)
        .map(|s| org.state(StateId(s as u32)).alive as u8)
        .collect();
    sections.push(alive);

    // 11–12 fixed-width tag/attr word rows
    let mut tag_words = Vec::with_capacity(n_slots * tw * 8);
    let mut attr_words = Vec::with_capacity(n_slots * aw * 8);
    for s in 0..n_slots {
        let st = org.state(StateId(s as u32));
        debug_assert_eq!(st.tags.words().len(), tw);
        debug_assert_eq!(st.attrs.words().len(), aw);
        for &w in st.tags.words() {
            push_u64(&mut tag_words, w);
        }
        for &w in st.attrs.words() {
            push_u64(&mut attr_words, w);
        }
    }
    sections.push(tag_words);
    sections.push(attr_words);

    // 13–14 child CSR (StateId is repr(transparent) over u32, but encode
    // explicitly to keep the writer layout-independent)
    let child_lists: Vec<Vec<u32>> = (0..n_slots)
        .map(|s| {
            org.state(StateId(s as u32))
                .children
                .iter()
                .map(|c| c.0)
                .collect()
        })
        .collect();
    let (offs, data) = csr(child_lists.iter().map(|l| l.as_slice()));
    sections.push(offs);
    sections.push(data);

    // 15 cached topological order
    let mut topo_bytes = Vec::with_capacity(topo.len() * 4);
    for s in topo {
        push_u32(&mut topo_bytes, s.0);
    }
    sections.push(topo_bytes);

    // 16 child unit-topic matrices: row-major, rows in children order per
    // state, state s's block at child_offs[s] × dim. Saved from the same
    // f32 bits as the states' unit topics, so the Eq 1 ranking over a
    // snapshot is bit-identical to `transition_probs_from` on the structs.
    let total_children: usize = child_lists.iter().map(|l| l.len()).sum();
    let mut child_mat = Vec::with_capacity(total_children * dim * 4);
    for list in &child_lists {
        for &c in list {
            push_f32s(&mut child_mat, &org.state(StateId(c)).unit_topic);
        }
    }
    sections.push(child_mat);

    debug_assert_eq!(sections.len(), N_SECTIONS);

    // Layout: 64-aligned offsets, then the header with checksums.
    let mut offsets = Vec::with_capacity(N_SECTIONS);
    let mut at = align_up(header_size());
    for s in &sections {
        offsets.push(at);
        at += s.len();
        at = align_up(at);
    }
    let file_len = offsets
        .last()
        .zip(sections.last())
        .map(|(o, s)| o + s.len())
        .unwrap_or_else(|| align_up(header_size()));

    let mut out = Vec::with_capacity(file_len);
    out.extend_from_slice(MAGIC);
    push_u32(&mut out, VERSION);
    push_u32(&mut out, N_SECTIONS as u32);
    push_u64(&mut out, file_len as u64);
    for (i, s) in sections.iter().enumerate() {
        push_u32(&mut out, (i + 1) as u32);
        push_u32(&mut out, 0);
        push_u64(&mut out, offsets[i] as u64);
        push_u64(&mut out, s.len() as u64);
        push_u64(&mut out, persist::fnv1a(s));
    }
    let header_checksum = persist::fnv1a(&out);
    push_u64(&mut out, header_checksum);
    for (i, s) in sections.iter().enumerate() {
        out.resize(offsets[i], 0);
        out.extend_from_slice(s);
    }
    debug_assert_eq!(out.len(), file_len);
    out
}

/// Atomically write the snapshot `(ctx, org, nav)` as a store file at
/// `path` (shared [`persist::atomic_write`] protocol: `<path>.tmp` +
/// fsync + rename, previous generation rotated to `<path>.prev`).
///
/// Fault-injection site `store.torn`: when it fires, the encoded buffer
/// is truncated before hitting the filesystem — the resulting file fails
/// validation on open exactly like a real partial write.
pub fn save_store(
    path: &Path,
    ctx: &OrgContext,
    org: &Organization,
    nav: NavConfig,
) -> DlnResult<()> {
    write_store_bytes(path, encode_store(ctx, org, nav))
}

fn write_store_bytes(path: &Path, mut buf: Vec<u8>) -> DlnResult<()> {
    if dln_fault::should_fail("store.torn") {
        let keep = buf.len() * 2 / 3;
        eprintln!(
            "warning: injected torn store write on {} ({keep} of {} bytes)",
            path.display(),
            buf.len()
        );
        buf.truncate(keep);
    }
    persist::atomic_write(path, &buf)
}

// ---------------------------------------------------------------------------
// Mapping
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod mmap_ffi {
    use std::ffi::c_void;
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, length: usize) -> i32;
    }
}

enum Backing {
    /// A read-only private memory map of the file.
    #[cfg(unix)]
    Mmap {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    /// Heap copy, `u64`-backed so the base pointer is 8-byte aligned and
    /// every 64-aligned section offset stays element-aligned.
    Heap { words: Vec<u64>, len: usize },
}

/// The read-only byte backing of an open store: an `mmap` of the file
/// where available, else an aligned heap copy. Dropping it unmaps.
pub struct Mapping {
    backing: Backing,
}

// SAFETY: the mapping is read-only for its whole lifetime (PROT_READ,
// MAP_PRIVATE) and the heap variant is never mutated after construction.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mmap { ptr, len } = self.backing {
            // SAFETY: ptr/len are exactly what mmap returned.
            unsafe {
                mmap_ffi::munmap(ptr, len);
            }
        }
    }
}

impl Mapping {
    /// The mapped (or copied) file bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mmap { ptr, len } => {
                // SAFETY: the map covers len readable bytes for self's
                // lifetime.
                unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) }
            }
            Backing::Heap { words, len } => {
                // SAFETY: words holds at least len initialized bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
        }
    }

    /// True when backed by a real memory map (false = heap fallback).
    pub fn is_mmap(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mmap { .. } => true,
            Backing::Heap { .. } => false,
        }
    }

    fn heap_from_vec(bytes: Vec<u8>) -> Mapping {
        let len = bytes.len();
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the destination is len.div_ceil(8)*8 ≥ len bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), words.as_mut_ptr() as *mut u8, len);
        }
        Mapping {
            backing: Backing::Heap { words, len },
        }
    }

    fn heap_from_file(path: &Path) -> DlnResult<Mapping> {
        let bytes = std::fs::read(path)
            .map_err(|e| DlnError::io(format!("reading {}", path.display()), e))?;
        Ok(Mapping::heap_from_vec(bytes))
    }

    /// Map `path` read-only. The `store.mmap` failpoint and
    /// `DLN_STORE_MMAP=0` force the heap fallback; a real `mmap` failure
    /// also falls back rather than erroring.
    fn from_file(path: &Path) -> DlnResult<Mapping> {
        if dln_fault::should_fail("store.mmap")
            || std::env::var("DLN_STORE_MMAP").is_ok_and(|v| v.trim() == "0")
        {
            return Mapping::heap_from_file(path);
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)
                .map_err(|e| DlnError::io(format!("opening {}", path.display()), e))?;
            let len = file
                .metadata()
                .map_err(|e| DlnError::io(format!("stat {}", path.display()), e))?
                .len() as usize;
            if len == 0 {
                return Err(DlnError::corrupt(
                    path.display().to_string(),
                    "empty store file",
                ));
            }
            // SAFETY: fd is valid for the call; we request a fresh
            // read-only private mapping of len bytes.
            let ptr = unsafe {
                mmap_ffi::mmap(
                    std::ptr::null_mut(),
                    len,
                    mmap_ffi::PROT_READ,
                    mmap_ffi::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                // MAP_FAILED: degrade to the heap copy.
                return Mapping::heap_from_file(path);
            }
            Ok(Mapping {
                backing: Backing::Mmap { ptr, len },
            })
        }
        #[cfg(not(unix))]
        Mapping::heap_from_file(path)
    }
}

// ---------------------------------------------------------------------------
// Open + validation
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct SecRange {
    off: usize,
    len: usize,
}

/// A complete serving snapshot held as store bytes — mapped from a file
/// or encoded on the heap — and read *by reference*: every accessor is a
/// borrowed slice into the bytes, validated once at construction. It is
/// what a served navigation step reads: the children to rank with their
/// topic matrix, the state sets and tag labels for §4.4 labelling, and
/// the tables under a state.
///
/// State sets are exposed as raw `u64` words (see
/// [`crate::BitSet::words`]): for a fixed universe size, word-slice
/// equality is set equality, which is what cross-epoch path replay
/// compares.
pub struct MappedSnapshot {
    map: Mapping,
    sections: [SecRange; N_SECTIONS],
    dim: usize,
    n_tags: usize,
    n_tables: usize,
    n_slots: usize,
    root: StateId,
    tw: usize,
    aw: usize,
    nav: NavConfig,
    fingerprint: u64,
}

fn corrupt(context: &str, msg: impl Into<String>) -> DlnError {
    DlnError::corrupt(context, msg.into())
}

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}
fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

/// Reinterpret an element-aligned byte slice. `pre`/`suf` are empty by
/// the open-time alignment validation; the debug assert guards refactors.
fn cast_slice<T: Copy>(b: &[u8]) -> &[T] {
    // SAFETY: alignment and length divisibility validated at open; T is
    // one of u32/f32/u64 (plain-old-data).
    let (pre, mid, suf) = unsafe { b.align_to::<T>() };
    debug_assert!(pre.is_empty() && suf.is_empty());
    mid
}

/// Validate that `offs` is a monotone CSR offset array ending at
/// `data_len`, with `n + 1` entries.
fn check_csr(context: &str, name: &str, offs: &[u32], n: usize, data_len: usize) -> DlnResult<()> {
    if offs.len() != n + 1 {
        return Err(corrupt(
            context,
            format!("{name}: {} offsets for {} rows", offs.len(), n),
        ));
    }
    if offs.first() != Some(&0) {
        return Err(corrupt(
            context,
            format!("{name}: offsets do not start at 0"),
        ));
    }
    if offs.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt(context, format!("{name}: offsets not monotone")));
    }
    if offs.last().copied().unwrap_or(0) as usize != data_len {
        return Err(corrupt(
            context,
            format!(
                "{name}: offsets end at {} but data holds {}",
                offs.last().copied().unwrap_or(0),
                data_len
            ),
        ));
    }
    Ok(())
}

impl MappedSnapshot {
    /// Validate and adopt a mapping as a snapshot. All structural checks
    /// happen here; accessors afterwards are plain slice views.
    fn from_mapping(map: Mapping, context: &str) -> DlnResult<MappedSnapshot> {
        let b = map.bytes();
        if b.len() < header_size() {
            return Err(corrupt(
                context,
                format!("{} bytes is too short for a store header", b.len()),
            ));
        }
        if &b[..8] != MAGIC {
            return Err(corrupt(context, "bad magic"));
        }
        let version = le_u32(b, 8);
        if version != VERSION {
            return Err(corrupt(
                context,
                format!("unsupported store version {version} (expected {VERSION})"),
            ));
        }
        let n_sections = le_u32(b, 12) as usize;
        if n_sections != N_SECTIONS {
            return Err(corrupt(
                context,
                format!("expected {N_SECTIONS} sections, header claims {n_sections}"),
            ));
        }
        let file_len = le_u64(b, 16) as usize;
        if file_len != b.len() {
            return Err(corrupt(
                context,
                format!("file is {} bytes but header claims {file_len}", b.len()),
            ));
        }
        let table_end = header_size() - 8;
        let stored_hdr = le_u64(b, table_end);
        let computed_hdr = persist::fnv1a(&b[..table_end]);
        if stored_hdr != computed_hdr {
            return Err(corrupt(
                context,
                format!(
                    "header checksum mismatch (stored {stored_hdr:#x}, computed {computed_hdr:#x})"
                ),
            ));
        }
        // Section table: ids 1..=N in order, aligned, in-bounds,
        // non-overlapping, checksummed payloads, zero padding between.
        let mut sections = [SecRange { off: 0, len: 0 }; N_SECTIONS];
        let mut prev_end = header_size();
        for (i, slot) in sections.iter_mut().enumerate() {
            let e = 24 + i * 32;
            let id = le_u32(b, e);
            let pad = le_u32(b, e + 4);
            let off = le_u64(b, e + 8) as usize;
            let len = le_u64(b, e + 16) as usize;
            let checksum = le_u64(b, e + 24);
            if id as usize != i + 1 || pad != 0 {
                return Err(corrupt(
                    context,
                    format!("section table entry {i} malformed"),
                ));
            }
            if !off.is_multiple_of(ALIGN) {
                return Err(corrupt(
                    context,
                    format!("section {id} offset {off} unaligned"),
                ));
            }
            if off < prev_end || off.checked_add(len).is_none_or(|end| end > b.len()) {
                return Err(corrupt(
                    context,
                    format!("section {id} [{off}, {off}+{len}) out of bounds or overlapping"),
                ));
            }
            if !len.is_multiple_of(elem_size(id)) {
                return Err(corrupt(
                    context,
                    format!("section {id} length {len} not a multiple of its element size"),
                ));
            }
            if b[prev_end..off].iter().any(|&x| x != 0) {
                return Err(corrupt(
                    context,
                    format!("nonzero padding before section {id}"),
                ));
            }
            let computed = persist::fnv1a(&b[off..off + len]);
            if computed != checksum {
                return Err(corrupt(
                    context,
                    format!(
                        "section {id} checksum mismatch (stored {checksum:#x}, computed {computed:#x}) — torn or corrupt write"
                    ),
                ));
            }
            *slot = SecRange { off, len };
            prev_end = off + len;
        }
        if prev_end != b.len() {
            return Err(corrupt(
                context,
                format!(
                    "{} trailing bytes after the last section",
                    b.len() - prev_end
                ),
            ));
        }

        let sec = |id: u32| -> &[u8] {
            let r = sections[(id - 1) as usize];
            &b[r.off..r.off + r.len]
        };
        let sec_u32 = |id: u32| -> &[u32] { cast_slice::<u32>(sec(id)) };
        let sec_u64 = |id: u32| -> &[u64] { cast_slice::<u64>(sec(id)) };

        // META + cross-section shape checks.
        let meta = sec_u64(SEC_META);
        if meta.len() != META_WORDS {
            return Err(corrupt(context, format!("META holds {} words", meta.len())));
        }
        let dim = meta[0] as usize;
        let n_tags = meta[1] as usize;
        let n_attrs = meta[2] as usize;
        let n_tables = meta[3] as usize;
        let n_slots = meta[4] as usize;
        let root = meta[5];
        let tw = meta[6] as usize;
        let aw = meta[7] as usize;
        let gamma = f32::from_bits(meta[8] as u32);
        let fingerprint = meta[9];
        let topo_len = meta[10] as usize;
        if tw != n_tags.div_ceil(64) || aw != n_attrs.div_ceil(64) {
            return Err(corrupt(context, "META word widths disagree with set sizes"));
        }
        if n_slots == 0 || root as usize >= n_slots {
            return Err(corrupt(
                context,
                format!("root {root} outside {n_slots} slots"),
            ));
        }
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(corrupt(context, format!("non-positive nav gamma {gamma}")));
        }

        let expect_elems = |id: u32, want: usize, what: &str| -> DlnResult<()> {
            let have = sections[(id - 1) as usize].len / elem_size(id);
            if have != want {
                return Err(corrupt(
                    context,
                    format!("{what}: section {id} holds {have} elements, expected {want}"),
                ));
            }
            Ok(())
        };
        expect_elems(SEC_TAG_LABEL_OFFS, n_tags + 1, "tag labels")?;
        expect_elems(SEC_TAG_ATTR_OFFS, n_tags + 1, "tag attrs")?;
        expect_elems(SEC_TABLE_GLOBAL, n_tables, "table globals")?;
        expect_elems(SEC_TABLE_ATTR_OFFS, n_tables + 1, "table attrs")?;
        expect_elems(SEC_STATE_TAG, n_slots, "state tags")?;
        expect_elems(SEC_STATE_ALIVE, n_slots, "alive flags")?;
        expect_elems(SEC_STATE_TAG_WORDS, n_slots * tw, "state tag words")?;
        expect_elems(SEC_STATE_ATTR_WORDS, n_slots * aw, "state attr words")?;
        expect_elems(SEC_CHILD_OFFS, n_slots + 1, "child offsets")?;
        expect_elems(SEC_TOPO, topo_len, "topo order")?;

        // CSR integrity.
        let label_offs = sec_u32(SEC_TAG_LABEL_OFFS);
        check_csr(
            context,
            "tag labels",
            label_offs,
            n_tags,
            sec(SEC_TAG_LABEL_BYTES).len(),
        )?;
        let blob = sec(SEC_TAG_LABEL_BYTES);
        for t in 0..n_tags {
            let (s, e) = (label_offs[t] as usize, label_offs[t + 1] as usize);
            if std::str::from_utf8(&blob[s..e]).is_err() {
                return Err(corrupt(context, format!("tag {t} label is not UTF-8")));
            }
        }
        check_csr(
            context,
            "tag attrs",
            sec_u32(SEC_TAG_ATTR_OFFS),
            n_tags,
            sec_u32(SEC_TAG_ATTR_DATA).len(),
        )?;
        check_csr(
            context,
            "table attrs",
            sec_u32(SEC_TABLE_ATTR_OFFS),
            n_tables,
            sec_u32(SEC_TABLE_ATTR_DATA).len(),
        )?;
        check_csr(
            context,
            "children",
            sec_u32(SEC_CHILD_OFFS),
            n_slots,
            sec_u32(SEC_CHILD_DATA).len(),
        )?;
        expect_elems(
            SEC_CHILD_MAT,
            sec_u32(SEC_CHILD_DATA).len() * dim,
            "child matrices",
        )?;

        // Id range checks: after these, every accessor index is in
        // bounds by construction.
        let in_range = |what: &str, vals: &[u32], bound: usize| -> DlnResult<()> {
            if vals.iter().any(|&v| v as usize >= bound) {
                return Err(corrupt(
                    context,
                    format!("{what}: id out of range (≥ {bound})"),
                ));
            }
            Ok(())
        };
        in_range("tag attrs", sec_u32(SEC_TAG_ATTR_DATA), n_attrs)?;
        in_range("table attrs", sec_u32(SEC_TABLE_ATTR_DATA), n_attrs)?;
        in_range("children", sec_u32(SEC_CHILD_DATA), n_slots)?;
        in_range("topo", sec_u32(SEC_TOPO), n_slots)?;
        if sec_u32(SEC_STATE_TAG)
            .iter()
            .any(|&t| t != u32::MAX && t as usize >= n_tags)
        {
            return Err(corrupt(context, "state tag out of range"));
        }

        Ok(MappedSnapshot {
            sections,
            dim,
            n_tags,
            n_tables,
            n_slots,
            root: StateId(root as u32),
            tw,
            aw,
            nav: NavConfig { gamma },
            fingerprint,
            map,
        })
    }

    /// Encode `(ctx, org, nav)` in the store format and adopt the bytes
    /// as a heap-backed snapshot through the same open-time checks as a
    /// file: a snapshot published from the in-memory structs holds
    /// exactly the bytes [`save_store`] writes. No file is involved, so
    /// the `store.torn` and `store.mmap` failpoints do not apply.
    pub fn encode(
        ctx: &OrgContext,
        org: &Organization,
        nav: NavConfig,
    ) -> DlnResult<MappedSnapshot> {
        let map = Mapping::heap_from_vec(encode_store(ctx, org, nav));
        MappedSnapshot::from_mapping(map, "encoded snapshot")
    }

    #[inline]
    fn sec(&self, id: u32) -> &[u8] {
        let r = self.sections[(id - 1) as usize];
        &self.map.bytes()[r.off..r.off + r.len]
    }
    #[inline]
    fn sec_u32(&self, id: u32) -> &[u32] {
        cast_slice::<u32>(self.sec(id))
    }
    #[inline]
    fn sec_u64(&self, id: u32) -> &[u64] {
        cast_slice::<u64>(self.sec(id))
    }
    #[inline]
    fn sec_f32(&self, id: u32) -> &[f32] {
        cast_slice::<f32>(self.sec(id))
    }
    /// `&[u32]` → `&[StateId]` (sound: `StateId` is `repr(transparent)`).
    #[inline]
    fn as_states(ids: &[u32]) -> &[StateId] {
        // SAFETY: StateId is repr(transparent) over u32.
        unsafe { std::slice::from_raw_parts(ids.as_ptr() as *const StateId, ids.len()) }
    }
    #[inline]
    fn csr_row<'a>(&self, offs_id: u32, data: &'a [u32], row: usize) -> &'a [u32] {
        let offs = self.sec_u32(offs_id);
        &data[offs[row] as usize..offs[row + 1] as usize]
    }

    /// Navigation-model parameters the snapshot was saved with.
    #[inline]
    pub fn nav(&self) -> NavConfig {
        self.nav
    }

    /// Fingerprint of the organization at save time
    /// ([`Organization::fingerprint`]).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True when served from a real memory map (false = heap fallback).
    pub fn is_mmap(&self) -> bool {
        self.map.is_mmap()
    }

    /// Re-publish this snapshot's exact bytes at `path` (atomic write +
    /// rotation; `store.torn` applies).
    pub fn save_to(&self, path: &Path) -> DlnResult<()> {
        write_store_bytes(path, self.map.bytes().to_vec())
    }

    /// Number of tags in the universe.
    pub fn n_tags(&self) -> usize {
        self.n_tags
    }
    /// Number of tables in the universe.
    pub fn n_tables(&self) -> usize {
        self.n_tables
    }
    /// Number of state slots (alive + tombstoned).
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }
    /// The root state.
    pub fn root(&self) -> StateId {
        self.root
    }
    /// Is the state slot alive?
    pub fn alive(&self, sid: StateId) -> bool {
        self.sec(SEC_STATE_ALIVE)[sid.index()] != 0
    }
    /// The local tag of a tag state, else `None`.
    pub fn state_tag(&self, sid: StateId) -> Option<u32> {
        match self.sec_u32(SEC_STATE_TAG)[sid.index()] {
            u32::MAX => None,
            t => Some(t),
        }
    }
    /// Child states, in canonical (sorted) order.
    pub fn children(&self, sid: StateId) -> &[StateId] {
        Self::as_states(self.csr_row(SEC_CHILD_OFFS, self.sec_u32(SEC_CHILD_DATA), sid.index()))
    }
    /// The state's tag set as raw words.
    pub fn state_tag_words(&self, sid: StateId) -> &[u64] {
        let w = self.sec_u64(SEC_STATE_TAG_WORDS);
        &w[sid.index() * self.tw..(sid.index() + 1) * self.tw]
    }
    /// The state's attribute set as raw words.
    pub fn state_attr_words(&self, sid: StateId) -> &[u64] {
        let w = self.sec_u64(SEC_STATE_ATTR_WORDS);
        &w[sid.index() * self.aw..(sid.index() + 1) * self.aw]
    }
    /// The row-major `n_children × dim` child unit-topic matrix for the
    /// Eq 1 ranking, rows in [`MappedSnapshot::children`] order.
    pub fn child_mat(&self, sid: StateId) -> &[f32] {
        let offs = self.sec_u32(SEC_CHILD_OFFS);
        let mat = self.sec_f32(SEC_CHILD_MAT);
        &mat[offs[sid.index()] as usize * self.dim..offs[sid.index() + 1] as usize * self.dim]
    }
    /// Alive states in topological order (parents before children).
    pub fn topo_order(&self) -> &[StateId] {
        Self::as_states(self.sec_u32(SEC_TOPO))
    }
    /// Display label of tag `t`.
    pub fn tag_label(&self, t: u32) -> &str {
        let offs = self.sec_u32(SEC_TAG_LABEL_OFFS);
        let blob = self.sec(SEC_TAG_LABEL_BYTES);
        // UTF-8 validated at open; the fallback is unreachable.
        std::str::from_utf8(&blob[offs[t as usize] as usize..offs[t as usize + 1] as usize])
            .unwrap_or("")
    }
    /// `data(t)`: local attribute ids of tag `t`.
    pub fn tag_attrs(&self, t: u32) -> &[u32] {
        self.csr_row(
            SEC_TAG_ATTR_OFFS,
            self.sec_u32(SEC_TAG_ATTR_DATA),
            t as usize,
        )
    }
    /// Lake-global id of local table `ti`.
    pub fn table_global(&self, ti: u32) -> TableId {
        TableId(self.sec_u32(SEC_TABLE_GLOBAL)[ti as usize])
    }
    /// Local attribute ids of table `ti`.
    pub fn table_attrs(&self, ti: u32) -> &[u32] {
        self.csr_row(
            SEC_TABLE_ATTR_OFFS,
            self.sec_u32(SEC_TABLE_ATTR_DATA),
            ti as usize,
        )
    }
}

/// Open the store at `path`: map it (or heap-copy under the `store.mmap`
/// failpoint / `DLN_STORE_MMAP=0`) and validate every check described in
/// the module docs. Torn, truncated, or corrupted files fail with a
/// typed [`DlnError::Corrupt`].
pub fn open_store(path: &Path) -> DlnResult<MappedSnapshot> {
    let map = Mapping::from_file(path)?;
    MappedSnapshot::from_mapping(map, &path.display().to_string())
}

/// [`open_store`], falling back to the rotated previous generation
/// (`<path>.prev`) when the newest file is unusable — the same
/// one-generation torn-write story as checkpoints.
pub fn open_store_with_fallback(path: &Path) -> DlnResult<MappedSnapshot> {
    persist::load_with_fallback(path, "organization store", open_store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::clustering_org;
    use dln_synth::TagCloudConfig;

    fn fixture() -> (OrgContext, Organization) {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        (ctx, org)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dln_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_views_agree_everywhere() {
        let (ctx, org) = fixture();
        let nav = NavConfig { gamma: 17.5 };
        let path = tmp("roundtrip.dlnstore");
        save_store(&path, &ctx, &org, nav).unwrap();
        let mapped = open_store(&path).unwrap();
        assert_eq!(mapped.nav().gamma.to_bits(), nav.gamma.to_bits());
        assert_eq!(mapped.fingerprint(), org.fingerprint());
        assert_eq!(mapped.n_tags(), ctx.n_tags());
        assert_eq!(mapped.n_tables(), ctx.n_tables());
        assert_eq!(mapped.n_slots(), org.n_slots());
        assert_eq!(mapped.root(), org.root());
        assert_eq!(mapped.topo_order(), org.topo_order());
        for s in 0..org.n_slots() as u32 {
            let sid = StateId(s);
            let st = org.state(sid);
            assert_eq!(mapped.alive(sid), st.alive);
            assert_eq!(mapped.state_tag(sid), st.tag);
            assert_eq!(mapped.children(sid), st.children.as_slice());
            assert_eq!(mapped.state_tag_words(sid), st.tags.words());
            assert_eq!(mapped.state_attr_words(sid), st.attrs.words());
            assert_eq!(mapped.label_of(sid, 2), org.label(&ctx, sid, 2));
            // The stored child matrix is the row-gather of child topics,
            // exact bits.
            let mat = mapped.child_mat(sid);
            let gather: Vec<f32> = st
                .children
                .iter()
                .flat_map(|&c| org.state(c).unit_topic.clone())
                .collect();
            assert_eq!(mat.len(), gather.len());
            assert!(mat
                .iter()
                .zip(&gather)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        for t in 0..ctx.n_tags() as u32 {
            assert_eq!(mapped.tag_label(t), ctx.tag(t).label);
            assert_eq!(mapped.tag_attrs(t), ctx.tag(t).attrs.as_slice());
        }
        for (ti, table) in ctx.tables().iter().enumerate() {
            assert_eq!(mapped.table_global(ti as u32), table.global);
            assert_eq!(mapped.table_attrs(ti as u32), table.attrs.as_slice());
        }
    }

    #[test]
    fn sealed_version_one_store_is_refused_by_version() {
        // A version-2 file with its version field set to 1 and the header
        // checksum re-sealed, so that only the version can refuse it.
        let (ctx, org) = fixture();
        let mut bytes = encode_store(&ctx, &org, NavConfig::default());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let table_end = header_size() - 8;
        let sealed = persist::fnv1a(&bytes[..table_end]);
        bytes[table_end..table_end + 8].copy_from_slice(&sealed.to_le_bytes());
        let path = tmp("v1.dlnstore");
        std::fs::write(&path, &bytes).unwrap();
        match open_store(&path) {
            Err(DlnError::Corrupt { detail, .. }) => {
                assert!(detail.contains("version 1"), "{detail}")
            }
            Err(e) => panic!("wrong error {e}"),
            Ok(_) => panic!("a version-1 store must be refused"),
        }
    }

    #[test]
    fn heap_fallback_serves_identical_bytes() {
        // An encoded snapshot is heap-backed; the file it equals is mapped.
        let (ctx, org) = fixture();
        let path = tmp("fallback.dlnstore");
        save_store(&path, &ctx, &org, NavConfig::default()).unwrap();
        let mapped = open_store(&path).unwrap();
        let heaped = MappedSnapshot::encode(&ctx, &org, NavConfig::default()).unwrap();
        assert!(!heaped.is_mmap());
        assert_eq!(mapped.map.bytes(), heaped.map.bytes());
        assert_eq!(
            mapped.children(mapped.root()),
            heaped.children(heaped.root())
        );
    }

    #[test]
    fn empty_and_tiny_files_are_typed_corrupt() {
        let path = tmp("tiny.dlnstore");
        for bytes in [&b""[..], b"DLNSTOR\x01", &[0u8; 128]] {
            std::fs::write(&path, bytes).unwrap();
            match open_store(&path) {
                Err(DlnError::Corrupt { .. }) => {}
                Err(e) => panic!("{} bytes: wrong error {e}", bytes.len()),
                Ok(_) => panic!("{} bytes: opened", bytes.len()),
            }
        }
    }
}
