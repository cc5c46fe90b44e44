//! Successor-edge storage for [`Exploration`](crate::Exploration): a plain
//! CSR, a delta/varint-compacted CSR, and an out-of-core spill
//! representation, all behind one row-oriented API.
//!
//! The exploration engine appends one sorted, deduplicated successor row
//! per configuration, in id order. Three representations serve different
//! regimes:
//!
//! * **Plain** — `(offsets, ids)` as two flat `u32` vectors; zero decode
//!   cost, 4 bytes per edge. The default for everything small enough.
//! * **Compact** — rows are strictly ascending, so each row is stored as
//!   its first id followed by the gaps, LEB128-varint encoded. Successor
//!   ids of a BFS level cluster around the level's id range, so gaps are
//!   small and most edges take 1–2 bytes instead of 4. Selected
//!   automatically above [`COMPACT_EDGE_THRESHOLD`] edges, and from the
//!   start under a memory budget.
//! * **Spilled** — the compact byte stream, flushed segment-by-segment to
//!   an anonymous temp file whenever the in-memory buffer exceeds half the
//!   caller's memory budget. Fixpoints re-read the stream sequentially in
//!   large chunks (no mmap); random row access does one positioned read.
//!
//! Row boundaries always coincide with segment boundaries, so every row is
//! one contiguous byte range of the global stream — either entirely in the
//! file or entirely in the in-memory tail.

use std::fs::File;
use std::io::Write;
use std::ops::{Deref, Range};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Edge count above which the forward CSR switches to the compact
/// encoding (8 Mi edges ≈ 32 MiB plain).
pub(crate) const COMPACT_EDGE_THRESHOLD: usize = 8 << 20;

/// Chunk size for streaming re-reads of a spilled edge stream.
const STREAM_CHUNK_BYTES: usize = 4 << 20;

/// One successor row: borrowed straight out of a plain CSR, or decoded on
/// the fly from the compact / spilled representations. Dereferences to
/// `&[u32]`, so call sites treat it as a slice.
#[derive(Debug, Clone)]
pub enum SuccRow<'a> {
    /// A view into the plain CSR.
    Borrowed(&'a [u32]),
    /// A row decoded from the compact or spilled byte stream.
    Owned(Vec<u32>),
}

impl Deref for SuccRow<'_> {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            SuccRow::Borrowed(s) => s,
            SuccRow::Owned(v) => v,
        }
    }
}

impl PartialEq for SuccRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SuccRow<'_> {}

impl PartialEq<[u32]> for SuccRow<'_> {
    fn eq(&self, other: &[u32]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u32>> for SuccRow<'_> {
    fn eq(&self, other: &Vec<u32>) -> bool {
        **self == **other
    }
}

impl<'a, 'b> IntoIterator for &'a SuccRow<'b> {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[inline]
fn write_varint(buf: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Encodes a strictly ascending row as first-id + gaps.
fn encode_row(buf: &mut Vec<u8>, row: &[u32]) {
    let mut prev = 0u32;
    for (k, &id) in row.iter().enumerate() {
        debug_assert!(k == 0 || id > prev, "rows must be strictly ascending");
        let delta = if k == 0 { id } else { id - prev };
        write_varint(buf, delta);
        prev = id;
    }
}

/// Decodes an encoded row (exactly `bytes` long) into `out`.
fn decode_row(bytes: &[u8], out: &mut Vec<u32>) {
    let mut pos = 0usize;
    let mut prev = 0u32;
    let mut first = true;
    while pos < bytes.len() {
        let delta = read_varint(bytes, &mut pos);
        prev = if first { delta } else { prev + delta };
        first = false;
        out.push(prev);
    }
}

/// Positioned read that leaves the file cursor state irrelevant.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], pos: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, pos)
}

#[cfg(windows)]
fn read_at(file: &File, mut buf: &mut [u8], mut pos: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        let n = file.seek_read(buf, pos)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf = &mut buf[n..];
        pos += n as u64;
    }
    Ok(())
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp file holding spilled edge bytes. It is unlinked when dropped,
/// whether a finished [`EdgeStore`] or an [`EdgeBuilder`] abandoned
/// mid-exploration (a `TooLarge` refusal, a failed write) holds it.
#[derive(Debug)]
struct SpillFile {
    file: File,
    path: PathBuf,
}

impl SpillFile {
    fn create() -> std::io::Result<Self> {
        let path = std::env::temp_dir().join(format!(
            "wam-spill-{}-{}.csr",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        Ok(SpillFile { file, path })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

enum Rep {
    Plain {
        off: Vec<u32>,
        ids: Vec<u32>,
    },
    Compact {
        boff: Vec<u64>,
        bytes: Vec<u8>,
    },
    Spilled {
        boff: Vec<u64>,
        file: SpillFile,
        /// Bytes written to the file; the global stream is the file
        /// followed by `tail`.
        file_len: u64,
        tail: Vec<u8>,
    },
}

impl std::fmt::Debug for Rep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rep::Plain { ids, .. } => write!(f, "Plain({} edges)", ids.len()),
            Rep::Compact { bytes, .. } => write!(f, "Compact({} bytes)", bytes.len()),
            Rep::Spilled { file_len, tail, .. } => {
                write!(
                    f,
                    "Spilled({file_len} bytes on disk, {} in tail)",
                    tail.len()
                )
            }
        }
    }
}

/// The finished successor storage of one exploration.
#[derive(Debug)]
pub(crate) struct EdgeStore {
    rep: Rep,
    edges: u64,
}

impl EdgeStore {
    /// Number of rows (configurations).
    #[cfg(test)]
    fn rows(&self) -> usize {
        match &self.rep {
            Rep::Plain { off, .. } => off.len() - 1,
            Rep::Compact { boff, .. } | Rep::Spilled { boff, .. } => boff.len() - 1,
        }
    }

    /// Whether the representation is the uncompressed CSR.
    #[cfg(test)]
    fn is_plain(&self) -> bool {
        matches!(self.rep, Rep::Plain { .. })
    }

    /// Total number of edges.
    pub(crate) fn edge_count(&self) -> u64 {
        self.edges
    }

    /// Bytes of edge data resident on disk (0 unless spilled).
    pub(crate) fn spilled_bytes(&self) -> u64 {
        match &self.rep {
            Rep::Spilled { file_len, .. } => *file_len,
            _ => 0,
        }
    }

    /// Whether any edge data lives on disk.
    pub(crate) fn is_spilled(&self) -> bool {
        matches!(self.rep, Rep::Spilled { .. })
    }

    /// The successor row of configuration `i`.
    pub(crate) fn row(&self, i: usize) -> SuccRow<'_> {
        match &self.rep {
            Rep::Plain { off, ids } => {
                SuccRow::Borrowed(&ids[off[i] as usize..off[i + 1] as usize])
            }
            Rep::Compact { boff, bytes } => {
                let mut out = Vec::new();
                decode_row(&bytes[boff[i] as usize..boff[i + 1] as usize], &mut out);
                SuccRow::Owned(out)
            }
            Rep::Spilled {
                boff,
                file,
                file_len,
                tail,
                ..
            } => {
                let (start, end) = (boff[i], boff[i + 1]);
                let mut out = Vec::new();
                if start >= *file_len {
                    // Rows never straddle the file/tail boundary (flushes
                    // happen between rows), so the whole row is in the tail.
                    let s = (start - file_len) as usize;
                    let e = (end - file_len) as usize;
                    decode_row(&tail[s..e], &mut out);
                } else {
                    let mut buf = vec![0u8; (end - start) as usize];
                    read_at(&file.file, &mut buf, start).expect("spill file read");
                    decode_row(&buf, &mut out);
                }
                SuccRow::Owned(out)
            }
        }
    }

    /// Streams every row in ascending id order: `f(source, successor_ids)`.
    /// Spilled streams are read in [`STREAM_CHUNK_BYTES`] chunks; decode
    /// scratch is reused across rows.
    pub(crate) fn for_each_row(&self, mut f: impl FnMut(u32, &[u32])) {
        match &self.rep {
            Rep::Plain { off, ids } => {
                for i in 0..off.len() - 1 {
                    f(i as u32, &ids[off[i] as usize..off[i + 1] as usize]);
                }
            }
            Rep::Compact { boff, bytes } => {
                let mut scratch = Vec::new();
                for i in 0..boff.len() - 1 {
                    scratch.clear();
                    decode_row(&bytes[boff[i] as usize..boff[i + 1] as usize], &mut scratch);
                    f(i as u32, &scratch);
                }
            }
            Rep::Spilled { .. } => {
                let mut scratch = Vec::new();
                for chunk in self.chunks() {
                    self.with_chunk(&chunk, |first_row, boff, bytes| {
                        let base = boff[0];
                        for k in 0..boff.len() - 1 {
                            scratch.clear();
                            decode_row(
                                &bytes[(boff[k] - base) as usize..(boff[k + 1] - base) as usize],
                                &mut scratch,
                            );
                            f((first_row + k) as u32, &scratch);
                        }
                    });
                }
            }
        }
    }

    /// Row ranges of at most [`STREAM_CHUNK_BYTES`] encoded bytes each
    /// (every range holds at least one row), covering all rows ascending.
    pub(crate) fn chunks(&self) -> Vec<Range<usize>> {
        let boff: &[u64] = match &self.rep {
            Rep::Plain { off, .. } => {
                // Plain stores are chunked by equivalent byte volume.
                let n = off.len() - 1;
                let mut out = Vec::new();
                let mut r = 0usize;
                while r < n {
                    let start = off[r] as usize;
                    let mut end = r + 1;
                    while end < n && (off[end + 1] as usize - start) * 4 <= STREAM_CHUNK_BYTES {
                        end += 1;
                    }
                    out.push(r..end);
                    r = end;
                }
                return out;
            }
            Rep::Compact { boff, .. } | Rep::Spilled { boff, .. } => boff,
        };
        let n = boff.len() - 1;
        let mut out = Vec::new();
        let mut r = 0usize;
        while r < n {
            let start = boff[r];
            let mut end = r + 1;
            while end < n && boff[end + 1] - start <= STREAM_CHUNK_BYTES as u64 {
                end += 1;
            }
            out.push(r..end);
            r = end;
        }
        out
    }

    /// Materialises one chunk's encoded bytes and byte offsets and hands
    /// them to `f(first_row, byte_offsets, bytes)`: `byte_offsets` has one
    /// entry per row plus a sentinel, **global** offsets (subtract
    /// `byte_offsets[0]` to index into `bytes`). For plain stores `bytes`
    /// is empty and `f` should not be used — call sites branch on
    /// [`Self::is_plain`] first.
    fn with_chunk(&self, rows: &Range<usize>, f: impl FnOnce(usize, &[u64], &[u8])) {
        match &self.rep {
            Rep::Plain { .. } => unreachable!("plain stores are sliced directly"),
            Rep::Compact { boff, bytes } => {
                let b = &boff[rows.start..rows.end + 1];
                f(
                    rows.start,
                    b,
                    &bytes[b[0] as usize..b[b.len() - 1] as usize],
                );
            }
            Rep::Spilled {
                boff,
                file,
                file_len,
                tail,
                ..
            } => {
                let b = &boff[rows.start..rows.end + 1];
                let (start, end) = (b[0], b[b.len() - 1]);
                if start >= *file_len {
                    let s = (start - file_len) as usize;
                    let e = (end - file_len) as usize;
                    f(rows.start, b, &tail[s..e]);
                } else if end <= *file_len {
                    let mut buf = vec![0u8; (end - start) as usize];
                    read_at(&file.file, &mut buf, start).expect("spill file read");
                    f(rows.start, b, &buf);
                } else {
                    // Chunk straddles the boundary: splice file + tail.
                    let mut buf = vec![0u8; (end - start) as usize];
                    let split = (file_len - start) as usize;
                    read_at(&file.file, &mut buf[..split], start).expect("spill file read");
                    buf[split..].copy_from_slice(&tail[..(end - file_len) as usize]);
                    f(rows.start, b, &buf);
                }
            }
        }
    }

    /// Processes every row of `rows` (a chunk from [`Self::chunks`]) in
    /// **descending** id order: `f(row, successor_ids)`. One chunk is
    /// decoded into memory at a time, so iterating `chunks()` in reverse
    /// yields a full descending sweep with bounded residency — the
    /// backward-propagation pass of the streaming `Pre*` fixpoint.
    pub(crate) fn for_rows_desc(&self, rows: &Range<usize>, mut f: impl FnMut(usize, &[u32])) {
        if let Rep::Plain { off, ids } = &self.rep {
            for i in rows.clone().rev() {
                f(i, &ids[off[i] as usize..off[i + 1] as usize]);
            }
            return;
        }
        self.with_chunk(rows, |first_row, boff, bytes| {
            let base = boff[0];
            let mut scratch = Vec::new();
            for k in (0..boff.len() - 1).rev() {
                scratch.clear();
                decode_row(
                    &bytes[(boff[k] - base) as usize..(boff[k + 1] - base) as usize],
                    &mut scratch,
                );
                f(first_row + k, &scratch);
            }
        });
    }
}

/// Accumulates successor rows during exploration and finishes into an
/// [`EdgeStore`]. Starts plain, or compact under a memory budget; migrates
/// to the compact encoding once the edge count clears
/// [`COMPACT_EDGE_THRESHOLD`]; flushes compact segments to a temp file
/// under a budget.
pub(crate) struct EdgeBuilder {
    budget: Option<usize>,
    compact: bool,
    off: Vec<u32>,
    ids: Vec<u32>,
    boff: Vec<u64>,
    buf: Vec<u8>,
    spill: Option<SpillFile>,
    file_len: u64,
    edges: u64,
}

impl EdgeBuilder {
    pub(crate) fn new(budget: Option<usize>) -> Self {
        let compact = budget.is_some();
        EdgeBuilder {
            budget,
            compact,
            off: if compact { Vec::new() } else { vec![0] },
            ids: Vec::new(),
            boff: if compact { vec![0] } else { Vec::new() },
            buf: Vec::new(),
            spill: None,
            file_len: 0,
            edges: 0,
        }
    }

    /// Appends the sorted, deduplicated successor row of the next
    /// configuration.
    pub(crate) fn push_row(&mut self, row: &[u32]) -> std::io::Result<()> {
        self.edges += row.len() as u64;
        if !self.compact {
            self.ids.extend_from_slice(row);
            self.off.push(self.ids.len() as u32);
            if self.ids.len() >= COMPACT_EDGE_THRESHOLD {
                self.migrate_to_compact();
            }
            return Ok(());
        }
        encode_row(&mut self.buf, row);
        self.boff.push(self.file_len + self.buf.len() as u64);
        self.maybe_flush()
    }

    /// Re-encodes the accumulated plain rows compactly (the threshold
    /// crossing); the plain vectors are freed.
    fn migrate_to_compact(&mut self) {
        self.boff = Vec::with_capacity(self.off.len());
        self.boff.push(0);
        for w in self.off.windows(2) {
            encode_row(&mut self.buf, &self.ids[w[0] as usize..w[1] as usize]);
            self.boff.push(self.buf.len() as u64);
        }
        self.off = Vec::new();
        self.ids = Vec::new();
        self.compact = true;
    }

    /// Under a budget, flushes the in-memory segment once it exceeds half
    /// the budget — so the resident encoded bytes stay at roughly
    /// `budget / 2` and every flush boundary is a row boundary.
    fn maybe_flush(&mut self) -> std::io::Result<()> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        let chunk = (budget / 2).max(512);
        if self.buf.len() < chunk {
            return Ok(());
        }
        if self.spill.is_none() {
            self.spill = Some(SpillFile::create()?);
        }
        let spill = self.spill.as_mut().expect("spill file just created");
        spill.file.write_all(&self.buf)?;
        self.file_len += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    pub(crate) fn finish(self) -> EdgeStore {
        let rep = if !self.compact {
            Rep::Plain {
                off: self.off,
                ids: self.ids,
            }
        } else if let Some(file) = self.spill {
            Rep::Spilled {
                boff: self.boff,
                file,
                file_len: self.file_len,
                tail: self.buf,
            }
        } else {
            Rep::Compact {
                boff: self.boff,
                bytes: self.buf,
            }
        };
        EdgeStore {
            rep,
            edges: self.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<u32>> {
        (0..200u32)
            .map(|i| (0..i % 7).map(|k| i + k * (1 + i % 13)).collect())
            .collect()
    }

    fn builder(budget: Option<usize>) -> EdgeBuilder {
        let mut b = EdgeBuilder::new(budget);
        for row in rows() {
            b.push_row(&row).unwrap();
        }
        b
    }

    /// The plain store, the resident compact store (the plain rows
    /// migrated, as past the edge threshold) and the spilled store.
    fn stores() -> [EdgeStore; 3] {
        let mut compact = builder(None);
        compact.migrate_to_compact();
        [
            builder(None).finish(),
            compact.finish(),
            builder(Some(64)).finish(),
        ]
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn encodings_agree_on_every_row() {
        let [plain, compact, spilled] = stores();
        assert!(plain.is_plain() && !compact.is_plain() && !spilled.is_plain());
        assert!(!compact.is_spilled());
        assert!(spilled.is_spilled() && spilled.spilled_bytes() > 0);
        assert_eq!(plain.rows(), compact.rows());
        assert_eq!(plain.rows(), spilled.rows());
        assert_eq!(plain.edge_count(), compact.edge_count());
        for i in 0..plain.rows() {
            assert_eq!(plain.row(i), compact.row(i), "row {i}");
            assert_eq!(plain.row(i), spilled.row(i), "row {i}");
        }
    }

    #[test]
    fn streaming_matches_random_access() {
        for store in stores() {
            let mut seen = 0usize;
            store.for_each_row(|i, row| {
                assert_eq!(store.row(i as usize), *row, "row {i}");
                seen += 1;
            });
            assert_eq!(seen, store.rows());
            // Descending sweep covers the same rows in reverse.
            let mut desc: Vec<usize> = Vec::new();
            for chunk in store.chunks().into_iter().rev() {
                store.for_rows_desc(&chunk, |i, row| {
                    assert_eq!(store.row(i), *row);
                    desc.push(i);
                });
            }
            assert_eq!(desc.len(), store.rows());
            assert!(desc.windows(2).all(|w| w[0] > w[1]));
        }
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let store = builder(Some(64)).finish();
        let path = match &store.rep {
            Rep::Spilled { file, .. } => file.path.clone(),
            _ => panic!("expected a spilled store"),
        };
        assert!(path.exists());
        drop(store);
        assert!(!path.exists());
    }

    #[test]
    fn spill_file_is_removed_when_an_unfinished_builder_drops() {
        // An exploration refused after spilling drops its builder without
        // ever finishing it into a store.
        let b = builder(Some(64));
        let path = b.spill.as_ref().expect("a spilling builder").path.clone();
        assert!(path.exists());
        drop(b);
        assert!(!path.exists(), "{} leaked", path.display());
    }
}
