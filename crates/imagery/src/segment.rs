//! Sharded, persistent, append-only segment files — the storage layer
//! behind every [`crate::store::RepresentationStore`].
//!
//! The paper's ONGOING scenario (§III) assumes representations are
//! *persisted at ingest* ("transformed into appropriate representations
//! that are stored on SSD for later queries") and fetched per query; §V
//! prices the resulting storage amplification. This module is that layout
//! made real:
//!
//! * **Item-id sharding.** `id % shards` picks the segment file, so ingest
//!   appends and query fetches on different shards never contend — each
//!   shard has its own writer and index locks.
//! * **Append-only segment files.** Each record is a fixed-width header
//!   (`TREC` magic, item id, representation, payload length, payload
//!   CRC32) followed by the raw-codec payload, framed via the vendored
//!   `bytes` shim. The in-memory index maps `(id, rep)` to a payload
//!   offset and is rebuilt by a header scan on open.
//! * **One read path: positioned reads.** A fetch copies its record's
//!   offset and length out of the index, then preads the payload into a
//!   caller-supplied scratch buffer with no lock held. The §IV cost model
//!   prices a load as one request (seek plus bytes over bandwidth), which
//!   is what a pread is; page-cache residency is not in the model. Shard
//!   files are not memory-mapped: on the serving benchmark a map held
//!   3–9x the server's resident memory to save about 1 µs (one syscall)
//!   per fetch.
//! * **Crash consistency.** Appends go through positioned writes into
//!   preallocated capacity (the zero-filled tail doubles as a scan
//!   terminator); on open the scan verifies each record's CRC and
//!   truncates to the last complete record — a torn tail loses at most
//!   the records past the tear, never yields corrupt payload bytes.
//!
//! Lock order (audited, lint A6; see `SAFETY.md`): per shard, the writer
//! lock (`seg_writer`, rank 70) is acquired before the index lock
//! (`seg_index`, rank 71). Fetches take only `seg_index`, and only long
//! enough to copy an entry; payload bytes are read with no lock held.
//! Both ranks sit above every `tahoma-serve` rank, so a serving thread
//! holding service locks may always enter the store.

use crate::codec::{mode_code, mode_from_code};
use crate::repr::Representation;
use bytes::{Buf, BufMut};
use std::collections::{BTreeMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
// Poison-tolerant: an unrelated panic must not wedge the store; critical
// sections publish fully-formed values.
use tahoma_mathx::lock;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"TSG1";
/// Segment format version (bumped on layout changes).
pub const SEGMENT_VERSION: u32 = 1;
/// Segment file header: magic + version + shard index + reserved word.
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Magic bytes opening every record.
pub const RECORD_MAGIC: [u8; 4] = *b"TREC";
/// Record header: magic(4) + id(8) + size(4) + mode(1) + len(4) + crc(4).
pub const RECORD_HEADER_LEN: usize = 25;

/// Smallest preallocation step for a shard file. Appends extend capacity
/// by doubling (at least this much) so `set_len` cost amortizes.
const MIN_CAPACITY_STEP: u64 = 1 << 20;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, the zlib/PNG variant), slicing-by-16.
//
// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][n]`
// is the CRC state after feeding byte `n` followed by `k` zero bytes. A
// 16-byte block then folds in one step: XOR the running state into its
// first four bytes, look each of the 16 bytes up in the table for the
// number of bytes that follow it, and XOR the 16 words. Same polynomial,
// same result as the byte loop, ~16 independent loads per block instead
// of a 16-long dependency chain.

const CRC_SLICES: usize = 16;

const CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut n = 0usize;
    while n < 256 {
        let mut c = tables[0][n];
        let mut k = 1;
        while k < CRC_SLICES {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[k][n] = c;
            k += 1;
        }
        n += 1;
    }
    tables
};

const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Advance a CRC state over `chunk`. Feeding a payload in any split gives
/// the same state as feeding it whole.
#[inline]
fn crc_update(mut state: u32, chunk: &[u8]) -> u32 {
    let mut blocks = chunk.chunks_exact(CRC_SLICES);
    for block in &mut blocks {
        let head =
            (state ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]])).to_le_bytes();
        let mut acc = 0u32;
        for i in 0..CRC_SLICES {
            let byte = if i < 4 { head[i] } else { block[i] };
            acc ^= CRC_TABLES[CRC_SLICES - 1 - i][usize::from(byte)];
        }
        state = acc;
    }
    for &byte in blocks.remainder() {
        state = CRC_TABLES[0][((state ^ u32::from(byte)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

#[inline]
fn crc_finish(state: u32) -> u32 {
    !state
}

/// CRC32 (IEEE) of a byte slice, e.g. `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(data: &[u8]) -> u32 {
    crc_finish(crc_update(CRC_INIT, data))
}

// ---------------------------------------------------------------------------
// Positioned I/O helpers (pread/pwrite equivalents).

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        let n = file.seek_read(buf, offset)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "short positioned read",
            ));
        }
        buf = &mut buf[n..];
        offset += n as u64;
    }
    Ok(())
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(windows)]
fn write_all_at(file: &File, mut buf: &[u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        let n = file.seek_write(buf, offset)?;
        buf = &buf[n..];
        offset += n as u64;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Framing.

/// A parsed record header.
#[derive(Debug, Clone, Copy)]
struct RecHeader {
    id: u64,
    rep: Representation,
    len: u32,
    crc: u32,
}

/// Frame one record — header with the payload's CRC, then the payload —
/// onto the end of `buf`. This is the whole of a record's bytes: framing
/// needs no shard state, so a frame's records can be built on any thread
/// and appended later in the order that fixes the file
/// ([`SegmentStore::append_record`]).
pub(crate) fn frame_record(buf: &mut Vec<u8>, id: u64, rep: Representation, payload: &[u8]) {
    buf.reserve(RECORD_HEADER_LEN + payload.len());
    buf.put_slice(&RECORD_MAGIC);
    buf.put_u64_le(id);
    buf.put_u32_le(rep.size as u32);
    buf.put_u8(mode_code(rep.mode));
    buf.put_u32_le(payload.len() as u32);
    buf.put_u32_le(crc32(payload));
    buf.put_slice(payload);
}

/// Parse a record header, `None` on bad magic / unknown mode / absurd
/// size — all of which terminate the recovery scan.
fn parse_record_header(bytes: &[u8]) -> Option<RecHeader> {
    if bytes.len() < RECORD_HEADER_LEN || bytes[..4] != RECORD_MAGIC {
        return None;
    }
    let mut b = &bytes[4..];
    let id = b.get_u64_le();
    let size = b.get_u32_le();
    let mode = mode_from_code(b.get_u8()).ok()?;
    let len = b.get_u32_le();
    let crc = b.get_u32_le();
    if size == 0 || size > 1 << 16 {
        return None;
    }
    Some(RecHeader {
        id,
        rep: Representation::new(size as usize, mode),
        len,
        crc,
    })
}

// ---------------------------------------------------------------------------
// Shard state.

#[derive(Debug)]
struct ShardWriter {
    file: File,
    /// End of the valid record region (everything below is durable frame
    /// data; everything above is preallocated zeros).
    committed: u64,
    /// Allocated file length (`set_len`).
    capacity: u64,
}

#[derive(Debug, Default)]
struct ShardIndex {
    /// `(id, rep)` → (payload offset, payload length).
    entries: BTreeMap<(u64, Representation), (u64, u32)>,
    /// Committed bytes including record headers (stats).
    bytes: u64,
}

#[derive(Debug)]
struct Shard {
    /// Dedicated read handle: positioned reads need no lock and never
    /// touch the writer's cursorless append handle.
    reader: File,
    // Append state: file handle, committed/capacity watermarks, frame
    // scratch. Held across the publish into `seg_index` (rank ascends).
    // LOCK-ORDER: 70
    seg_writer: Mutex<ShardWriter>,
    // Entry map. Fetches hold this only long enough to copy an entry.
    // LOCK-ORDER: 71
    seg_index: Mutex<ShardIndex>,
}

/// What the open-time recovery scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete, CRC-valid records indexed.
    pub records: u64,
    /// Bytes discarded past the last complete record (torn tails and
    /// preallocated-but-unwritten capacity).
    pub truncated_bytes: u64,
    /// Shards whose file had to be (re)initialized from scratch.
    pub reinitialized_shards: usize,
}

struct ScanResult {
    committed: u64,
    records: u64,
    entries: BTreeMap<(u64, Representation), (u64, u32)>,
    bytes: u64,
}

/// Item-id-sharded persistent segment store. All operations take `&self`;
/// per-shard mutexes serialize appends while fetches run lock-free after
/// an index snapshot.
#[derive(Debug)]
pub struct SegmentStore {
    shards: Vec<Shard>,
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.seg"))
}

fn encode_file_header(shard: u32) -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut h = [0u8; SEGMENT_HEADER_LEN as usize];
    h[..4].copy_from_slice(&SEGMENT_MAGIC);
    h[4..8].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h[8..12].copy_from_slice(&shard.to_le_bytes());
    h
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl SegmentStore {
    /// Create a fresh store under `dir` (existing shard files are
    /// truncated). `shards` must be at least 1.
    pub fn create(dir: &Path, shards: usize) -> io::Result<SegmentStore> {
        assert!(shards >= 1, "segment store needs at least one shard");
        fs::create_dir_all(dir)?;
        let mut out = Vec::with_capacity(shards);
        for s in 0..shards {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(shard_path(dir, s))?;
            write_all_at(&file, &encode_file_header(s as u32), 0)?;
            let reader = File::open(shard_path(dir, s))?;
            out.push(Shard {
                reader,
                seg_writer: Mutex::new(ShardWriter {
                    file,
                    committed: SEGMENT_HEADER_LEN,
                    capacity: SEGMENT_HEADER_LEN,
                }),
                seg_index: Mutex::new(ShardIndex::default()),
            });
        }
        Ok(SegmentStore { shards: out })
    }

    /// Open an existing store, rebuilding each shard's index by scanning
    /// record headers and verifying payload CRCs. The scan stops at the
    /// first incomplete or corrupt record (a torn tail from a crash, or
    /// the zero-filled preallocation region) and the file is truncated to
    /// the last complete record — later appends resume cleanly.
    pub fn open(dir: &Path, shards: usize) -> io::Result<(SegmentStore, RecoveryReport)> {
        assert!(shards >= 1, "segment store needs at least one shard");
        let mut report = RecoveryReport::default();
        let mut out = Vec::with_capacity(shards);
        for s in 0..shards {
            let path = shard_path(dir, s);
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                // Existing bytes are the recovered data — never truncate
                // here; the scan below trims any torn tail itself.
                .truncate(false)
                .open(&path)?;
            let file_len = file.metadata()?.len();
            let scan = if file_len < SEGMENT_HEADER_LEN {
                // Crash before this shard's header made it to disk (or a
                // brand-new file): reinitialize as empty.
                write_all_at(&file, &encode_file_header(s as u32), 0)?;
                report.reinitialized_shards += 1;
                ScanResult {
                    committed: SEGMENT_HEADER_LEN,
                    records: 0,
                    entries: BTreeMap::new(),
                    bytes: 0,
                }
            } else {
                Self::scan_shard(&file, s as u32)?
            };
            report.records += scan.records;
            report.truncated_bytes += file_len.saturating_sub(scan.committed.min(file_len));
            // Drop the torn tail / preallocated zeros so the file length
            // is again exactly the committed data.
            file.set_len(scan.committed)?;
            let reader = File::open(&path)?;
            out.push(Shard {
                reader,
                seg_writer: Mutex::new(ShardWriter {
                    file,
                    committed: scan.committed,
                    capacity: scan.committed,
                }),
                seg_index: Mutex::new(ShardIndex {
                    entries: scan.entries,
                    bytes: scan.bytes,
                }),
            });
        }
        Ok((SegmentStore { shards: out }, report))
    }

    /// Sequentially scan one shard file: validate the file header, then
    /// walk records verifying CRCs until the first incomplete/corrupt one.
    fn scan_shard(file: &File, shard: u32) -> io::Result<ScanResult> {
        let file_len = file.metadata()?.len();
        let mut rd = BufReader::with_capacity(1 << 16, file);
        // The handle may have been scanned before (verify after open);
        // the scan always starts from byte 0.
        rd.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        rd.read_exact(&mut header)?;
        if header[..4] != SEGMENT_MAGIC {
            return Err(bad_data(format!("shard {shard}: bad segment magic")));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != SEGMENT_VERSION {
            return Err(bad_data(format!(
                "shard {shard}: segment version {version}, expected {SEGMENT_VERSION}"
            )));
        }
        let stored_shard = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if stored_shard != shard {
            return Err(bad_data(format!(
                "shard file mismatch: header says shard {stored_shard}, path says {shard}"
            )));
        }

        let mut entries = BTreeMap::new();
        let mut committed = SEGMENT_HEADER_LEN;
        let mut records = 0u64;
        let mut bytes = 0u64;
        let mut rec_header = [0u8; RECORD_HEADER_LEN];
        let mut chunk = [0u8; 1 << 16];
        loop {
            if committed + RECORD_HEADER_LEN as u64 > file_len {
                break;
            }
            rd.read_exact(&mut rec_header)?;
            let Some(h) = parse_record_header(&rec_header) else {
                break; // zero tail, torn header, or foreign bytes
            };
            let payload_end = committed + RECORD_HEADER_LEN as u64 + u64::from(h.len);
            if payload_end > file_len {
                break; // payload torn past EOF
            }
            // Stream the payload through the CRC without materializing it.
            let mut remaining = h.len as usize;
            let mut state = CRC_INIT;
            while remaining > 0 {
                let take = remaining.min(chunk.len());
                rd.read_exact(&mut chunk[..take])?;
                state = crc_update(state, &chunk[..take]);
                remaining -= take;
            }
            if crc_finish(state) != h.crc {
                break; // torn payload overwritten by zeros, or bit rot
            }
            entries.insert((h.id, h.rep), (committed + RECORD_HEADER_LEN as u64, h.len));
            records += 1;
            bytes += RECORD_HEADER_LEN as u64 + u64::from(h.len);
            committed = payload_end;
        }
        Ok(ScanResult {
            committed,
            records,
            entries,
            bytes,
        })
    }

    /// Shard index for an item id.
    #[inline]
    pub fn shard_of(&self, id: u64) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// Append one record. Only this item's shard is locked, so ingest
    /// fans out across shards. The entry becomes fetchable once the index
    /// publish completes.
    pub fn append(&self, id: u64, rep: Representation, payload: &[u8]) -> io::Result<()> {
        let mut record = Vec::new();
        frame_record(&mut record, id, rep, payload);
        self.append_record(&record)
    }

    /// Append one record already framed by [`frame_record`]: the one write
    /// path. The header names the record's id (hence its shard) and rep.
    pub(crate) fn append_record(&self, record: &[u8]) -> io::Result<()> {
        // FAULT: transient write error, injected before any shard state
        // changes so a retried append starts from a clean slate.
        if let Some(e) = tahoma_faults::transient_io(tahoma_faults::site::SEG_WRITE) {
            return Err(e);
        }
        let h = parse_record_header(record)
            .filter(|h| h.len as usize == record.len() - RECORD_HEADER_LEN)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "append of an unframed record")
            })?;
        let (id, rep) = (h.id, h.rep);
        let shard = &self.shards[self.shard_of(id)];
        let rec_len = record.len() as u64;
        let mut w = lock(&shard.seg_writer);
        let off = w.committed;
        let end = off + rec_len;
        if end > w.capacity {
            // Preallocate in doubling steps: the zero tail terminates the
            // recovery scan, and doubling keeps `set_len` calls rare.
            let cap = end.max(w.capacity * 2).max(MIN_CAPACITY_STEP);
            w.file.set_len(cap)?;
            w.capacity = cap;
        }
        write_all_at(&w.file, record, off)?;
        w.committed = end;
        // Publish under the index lock while still holding the writer
        // lock (ranks 70 → 71, ascending).
        let mut ix = lock(&shard.seg_index);
        ix.entries
            .insert((id, rep), (off + RECORD_HEADER_LEN as u64, h.len));
        ix.bytes += rec_len;
        Ok(())
    }

    /// Run `f` over one record's payload bytes, pread into `scratch`
    /// (resized as needed) with no lock held. `Ok(None)` when the record
    /// was never appended.
    pub fn with_payload<R>(
        &self,
        id: u64,
        rep: Representation,
        scratch: &mut Vec<u8>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> io::Result<Option<R>> {
        let shard = &self.shards[self.shard_of(id)];
        let Some((off, len)) = lock(&shard.seg_index).entries.get(&(id, rep)).copied() else {
            return Ok(None);
        };
        // FAULT: a slow read stalls without erroring, then a transient
        // read error is retryable by the fetch layer.
        tahoma_faults::stall(tahoma_faults::site::SEG_READ_SLOW);
        if let Some(e) = tahoma_faults::transient_io(tahoma_faults::site::SEG_READ) {
            return Err(e);
        }
        // FAULT: a short read surfaces as Interrupted — retryable.
        if tahoma_faults::fire(tahoma_faults::site::SEG_READ_SHORT) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected short read for record ({id}, {rep})"),
            ));
        }
        // FAULT: a CRC mismatch is permanent — the fetch layer quarantines
        // the record and degrades to transcode-from-source.
        if tahoma_faults::fire(tahoma_faults::site::SEG_READ_CORRUPT) {
            return Err(bad_data(format!(
                "injected CRC mismatch for record ({id}, {rep})"
            )));
        }
        scratch.resize(len as usize, 0);
        read_exact_at(&shard.reader, scratch, off)?;
        Ok(Some(f(scratch)))
    }

    /// Stored payload length for a record, if present.
    pub fn payload_len(&self, id: u64, rep: Representation) -> Option<usize> {
        let shard = &self.shards[self.shard_of(id)];
        let ix = lock(&shard.seg_index);
        ix.entries.get(&(id, rep)).map(|&(_, len)| len as usize)
    }

    /// True when the record exists.
    pub fn contains(&self, id: u64, rep: Representation) -> bool {
        self.payload_len(id, rep).is_some()
    }

    /// Total indexed records across shards.
    pub fn records(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock(&s.seg_index).entries.len() as u64)
            .sum()
    }

    /// Committed bytes across shards (record headers + payloads, not
    /// counting file headers or preallocated capacity).
    pub fn committed_bytes(&self) -> u64 {
        self.shards.iter().map(|s| lock(&s.seg_index).bytes).sum()
    }

    /// Distinct item ids across shards.
    pub fn distinct_ids(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let ix = lock(&s.seg_index);
                let ids: HashSet<u64> = ix.entries.keys().map(|&(id, _)| id).collect();
                ids.len() as u64
            })
            .sum()
    }

    /// Every `(id, rep)` key, shard by shard (test/verification surface;
    /// snapshots the index, so O(records) memory).
    pub fn keys(&self) -> Vec<(u64, Representation)> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(lock(&s.seg_index).entries.keys().copied());
        }
        out
    }

    /// Durability + compaction point: truncate each shard to its
    /// committed length (dropping preallocated zeros) and flush file
    /// data. After `sync`, `open` finds exactly the appended records.
    pub fn sync(&self) -> io::Result<()> {
        for s in &self.shards {
            let mut w = lock(&s.seg_writer);
            if w.capacity != w.committed {
                w.file.set_len(w.committed)?;
                w.capacity = w.committed;
            }
            w.file.sync_data()?;
        }
        Ok(())
    }

    /// Re-scan every shard file, CRC-checking all records, and compare
    /// against the live index — the persistence smoke test's deep check.
    /// Returns the number of verified records.
    pub fn verify_all(&self) -> io::Result<u64> {
        let mut verified = 0u64;
        for (s, shard) in self.shards.iter().enumerate() {
            // Stabilize the file length for the sequential scan.
            let w = lock(&shard.seg_writer);
            let scan = Self::scan_shard(&w.file, s as u32)?;
            drop(w);
            let ix = lock(&shard.seg_index);
            if scan.entries != ix.entries {
                return Err(bad_data(format!(
                    "shard {s}: on-disk scan found {} records, index holds {}",
                    scan.entries.len(),
                    ix.entries.len()
                )));
            }
            verified += scan.records;
        }
        Ok(verified)
    }

    /// Re-scan every shard and return the indexed records whose on-disk
    /// bytes are no longer verifiable — the quarantine feed for serve
    /// startup's `--verify-on-open`. Unlike [`SegmentStore::verify_all`],
    /// corruption is *reported*, not an error; only I/O failures reading
    /// the shard files surface as `Err`. The scan stops at the first bad
    /// record per shard, so everything after a corrupt record in the same
    /// shard is reported too (conservative: quarantined records fall back
    /// to transcode-from-source, never to wrong bytes).
    pub fn unverifiable_records(&self) -> io::Result<Vec<(u64, Representation)>> {
        let mut bad = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            // Stabilize the file length for the sequential scan.
            let w = lock(&shard.seg_writer);
            let scan = Self::scan_shard(&w.file, s as u32)?;
            drop(w);
            let ix = lock(&shard.seg_index);
            for (key, val) in &ix.entries {
                if scan.entries.get(key) != Some(val) {
                    bad.push(*key);
                }
            }
        }
        Ok(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::ColorMode;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tahoma-seg-{tag}-{}-{seq}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn rep(size: usize, mode: ColorMode) -> Representation {
        Representation::new(size, mode)
    }

    fn payload(id: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((id as usize * 131 + i * 7) % 251) as u8)
            .collect()
    }

    fn fetch(store: &SegmentStore, id: u64, r: Representation) -> Option<Vec<u8>> {
        let mut scratch = Vec::new();
        store
            .with_payload(id, r, &mut scratch, |b| b.to_vec())
            .expect("io")
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC loop: the reference the sliced one must equal.
    fn crc_update_bytewise(mut state: u32, chunk: &[u8]) -> u32 {
        for &b in chunk {
            state = CRC_TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    #[test]
    fn sliced_crc_matches_bytewise_at_every_length_offset_and_split() {
        let max_len = 4096;
        let data: Vec<u8> = (0..max_len as u64 + 8)
            .map(|i| tahoma_mathx::hash64(i ^ 0xC4C3_2000) as u8)
            .collect();
        // The reference state of every prefix, per start offset, grows one
        // byte per length. Every length is checked at a rotating offset, and
        // at all 8 offsets up to 33 blocks (beyond that the block loop has
        // nothing new to show, and a debug build pays ~4 ns a byte).
        let mut want = [CRC_INIT; 8];
        for len in 0..=max_len {
            for (off, want) in want.iter_mut().enumerate() {
                if len > 0 {
                    *want = crc_update_bytewise(*want, &data[off + len - 1..off + len]);
                }
                if len <= 33 * CRC_SLICES || off == len % 8 {
                    let p = &data[off..off + len];
                    assert_eq!(crc_update(CRC_INIT, p), *want, "len {len} offset {off}");
                }
            }
            // Fed in seeded uneven chunks, as the recovery scan streams.
            let off = (len + 3) % 8;
            let mut state = CRC_INIT;
            let mut rest = &data[off..off + len];
            let mut k = len as u64;
            while !rest.is_empty() {
                k = tahoma_mathx::hash64(k);
                let take = (1 + k as usize % 40).min(rest.len());
                state = crc_update(state, &rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(state, want[off], "len {len} chunked");
        }
    }

    #[test]
    fn append_fetch_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let store = SegmentStore::create(&dir, 4).expect("create");
        let reps = [rep(30, ColorMode::Gray), rep(60, ColorMode::Rgb)];
        for id in 0..64u64 {
            for (k, &r) in reps.iter().enumerate() {
                store
                    .append(id, r, &payload(id * 10 + k as u64, 100 + k * 57))
                    .expect("append");
            }
        }
        assert_eq!(store.records(), 128);
        assert_eq!(store.distinct_ids(), 64);
        for id in 0..64u64 {
            for (k, &r) in reps.iter().enumerate() {
                let got = fetch(&store, id, r).expect("present");
                assert_eq!(got, payload(id * 10 + k as u64, 100 + k * 57));
            }
        }
        assert!(fetch(&store, 999, reps[0]).is_none());
        assert!(fetch(&store, 0, rep(224, ColorMode::Blue)).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_everything_after_sync() {
        let dir = tmp_dir("reopen");
        let r = rep(30, ColorMode::Gray);
        {
            let store = SegmentStore::create(&dir, 3).expect("create");
            for id in 0..40u64 {
                store.append(id, r, &payload(id, 64)).expect("append");
            }
            store.sync().expect("sync");
        }
        let (store, report) = SegmentStore::open(&dir, 3).expect("open");
        assert_eq!(report.records, 40);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.reinitialized_shards, 0);
        for id in 0..40u64 {
            assert_eq!(fetch(&store, id, r).expect("present"), payload(id, 64));
        }
        assert_eq!(store.verify_all().expect("verify"), 40);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_without_sync_drops_only_preallocated_tail() {
        // No sync: files keep their preallocated zero tails, exactly the
        // state after a crash between appends. Recovery must keep every
        // complete record and truncate the zeros.
        let dir = tmp_dir("nosync");
        let r = rep(30, ColorMode::Gray);
        {
            let store = SegmentStore::create(&dir, 2).expect("create");
            for id in 0..10u64 {
                store.append(id, r, &payload(id, 256)).expect("append");
            }
            // `store` dropped without sync.
        }
        let (store, report) = SegmentStore::open(&dir, 2).expect("open");
        assert_eq!(report.records, 10);
        assert!(
            report.truncated_bytes > 0,
            "prealloc tail should be dropped"
        );
        for id in 0..10u64 {
            assert_eq!(fetch(&store, id, r).expect("present"), payload(id, 256));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_record() {
        let dir = tmp_dir("torn");
        let r = rep(30, ColorMode::Gray);
        let n = 12u64;
        {
            let store = SegmentStore::create(&dir, 1).expect("create");
            for id in 0..n {
                store.append(id, r, &payload(id, 200)).expect("append");
            }
            store.sync().expect("sync");
        }
        let path = shard_path(&dir, 0);
        let orig = fs::read(&path).expect("read");
        let full = orig.len() as u64;
        let rec = (RECORD_HEADER_LEN + 200) as u64;
        // Tear cases: mid-payload of the last record, mid-header of the
        // last record, exactly at a record boundary, and a deep tear.
        for (cut, survivors) in [
            (full - 100, n - 1),          // payload torn
            (full - rec + 10, n - 1),     // header torn
            (full - rec, n - 1),          // clean boundary
            (full - 2 * rec - 37, n - 3), // deep tear loses two + partial
        ] {
            fs::write(&path, &orig).expect("restore");
            let f = OpenOptions::new().write(true).open(&path).expect("open");
            f.set_len(cut).expect("tear");
            drop(f);
            let (store, report) = SegmentStore::open(&dir, 1).expect("open");
            assert_eq!(report.records, survivors, "cut at {cut}");
            for id in 0..survivors {
                assert_eq!(fetch(&store, id, r).expect("survivor"), payload(id, 200));
            }
            for id in survivors..n {
                assert!(
                    fetch(&store, id, r).is_none(),
                    "torn record {id} resurrected"
                );
            }
            // Appends after recovery work and re-verify.
            store.append(1000, r, &payload(1000, 200)).expect("append");
            assert_eq!(
                fetch(&store, 1000, r).expect("appended"),
                payload(1000, 200)
            );
            store.sync().expect("sync");
            assert_eq!(store.verify_all().expect("verify"), survivors + 1);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_payload_is_dropped_not_served() {
        let dir = tmp_dir("corrupt");
        let r = rep(30, ColorMode::Gray);
        {
            let store = SegmentStore::create(&dir, 1).expect("create");
            for id in 0..5u64 {
                store.append(id, r, &payload(id, 128)).expect("append");
            }
            store.sync().expect("sync");
        }
        let path = shard_path(&dir, 0);
        let mut bytes = fs::read(&path).expect("read");
        // Flip one payload byte of the final record.
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF;
        fs::write(&path, &bytes).expect("write");
        let (store, report) = SegmentStore::open(&dir, 1).expect("open");
        assert_eq!(report.records, 4, "corrupt record must not be indexed");
        assert!(fetch(&store, 4, r).is_none());
        for id in 0..4u64 {
            assert_eq!(fetch(&store, id, r).expect("intact"), payload(id, 128));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_all_detects_bit_rot_under_live_index() {
        let dir = tmp_dir("bitrot");
        let r = rep(30, ColorMode::Gray);
        let store = SegmentStore::create(&dir, 1).expect("create");
        for id in 0..6u64 {
            store.append(id, r, &payload(id, 64)).expect("append");
        }
        store.sync().expect("sync");
        assert_eq!(store.verify_all().expect("clean"), 6);
        // Corrupt a middle record behind the store's back.
        let path = shard_path(&dir, 0);
        let mut bytes = fs::read(&path).expect("read");
        let mid =
            SEGMENT_HEADER_LEN as usize + 2 * (RECORD_HEADER_LEN + 64) + RECORD_HEADER_LEN + 5;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).expect("write");
        assert!(
            store.verify_all().is_err(),
            "bit rot must fail verification"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn last_write_wins_for_duplicate_keys() {
        let dir = tmp_dir("dup");
        let r = rep(30, ColorMode::Gray);
        let store = SegmentStore::create(&dir, 2).expect("create");
        store.append(7, r, &payload(1, 50)).expect("append");
        store.append(7, r, &payload(2, 80)).expect("append");
        assert_eq!(fetch(&store, 7, r).expect("present"), payload(2, 80));
        assert_eq!(store.records(), 1);
        store.sync().expect("sync");
        drop(store);
        let (store, _) = SegmentStore::open(&dir, 2).expect("open");
        assert_eq!(fetch(&store, 7, r).expect("present"), payload(2, 80));
        assert_eq!(store.records(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_shard_fanout_appends_and_fetches() {
        let dir = tmp_dir("fanout");
        let store = SegmentStore::create(&dir, 4).expect("create");
        let r = rep(30, ColorMode::Gray);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..50u64 {
                        let id = t + i * 4; // each thread owns one shard
                        store.append(id, r, &payload(id, 120)).expect("append");
                        let mut scratch = Vec::new();
                        let got = store
                            .with_payload(id, r, &mut scratch, |b| b.to_vec())
                            .expect("io")
                            .expect("just appended");
                        assert_eq!(got, payload(id, 120));
                    }
                });
            }
        });
        assert_eq!(store.records(), 200);
        fs::remove_dir_all(&dir).ok();
    }
    #[test]
    fn readers_see_every_published_record_while_the_shard_grows_and_syncs() {
        // One shard, so every append and fetch meets the same file while
        // the writer regrows it through several doublings and a midway
        // `sync` shrinks it back to the committed length.
        use std::sync::atomic::AtomicBool;
        let dir = tmp_dir("grow");
        let store = SegmentStore::create(&dir, 1).expect("create");
        let r = rep(30, ColorMode::Gray);
        let len = |id: u64| 3000 + (id % 7) as usize * 300;
        let total = 1600u64;
        let published = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let check = |id: u64, scratch: &mut Vec<u8>| {
            let ok = store
                .with_payload(id, r, scratch, |b| b == payload(id, len(id)).as_slice())
                .expect("io")
                .expect("published record present");
            assert!(ok, "record {id} read back wrong bytes");
        };
        let mut capacities = vec![];
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (published, done, check) = (&published, &done, &check);
                s.spawn(move || {
                    let mut scratch = Vec::new();
                    let (mut next, mut k) = (0u64, t);
                    while !done.load(Ordering::Acquire) || next < total {
                        // The next unread record, else any older one (its
                        // bytes may sit below a since regrown or synced
                        // capacity).
                        let n = published.load(Ordering::Acquire);
                        if next < n {
                            check(next, &mut scratch);
                            next += 1;
                        } else {
                            if n > 0 {
                                k = tahoma_mathx::hash64(k);
                                check(k % n, &mut scratch);
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for id in 0..total {
                store.append(id, r, &payload(id, len(id))).expect("append");
                published.store(id + 1, Ordering::Release);
                if id == total / 2 {
                    store.sync().expect("sync");
                }
                let cap = lock(&store.shards[0].seg_writer).capacity;
                if capacities.last() != Some(&cap) {
                    capacities.push(cap);
                }
            }
            done.store(true, Ordering::Release);
        });
        let grown = capacities.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(grown >= 3, "capacity steps {capacities:?}");
        assert!(capacities[0] >= MIN_CAPACITY_STEP);
        let mut scratch = Vec::new();
        for id in 0..total {
            check(id, &mut scratch);
        }
        store.sync().expect("sync");
        assert_eq!(store.verify_all().expect("verify"), total);
        fs::remove_dir_all(&dir).ok();
    }
}
