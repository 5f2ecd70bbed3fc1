//! WAL segment files: append-only chunks of the durable log.
//!
//! A segment is a file named `wal-<first_seq, zero-padded>.seg` holding
//! consecutive [`WalRecord`]s, each wrapped in a CRC frame:
//!
//! ```text
//! [0xB5][payload len: u32 LE][crc32 of payload: u32 LE][payload]
//! ```
//!
//! The payload is one record: a tag byte (`0` delta, `1` chained delta,
//! `2` prepare, `3` resolve), the `seq` as a `u64` LE, then the variant's
//! fields — the table name and the delta in the [`esm_store::codec`]
//! encoding, or the gtx id plus the prepare's record count / the
//! resolve's verdict byte.
//!
//! The durable log is the concatenation of all segments in name order;
//! rotation starts a fresh file once the current one passes the size
//! threshold, so checkpoint-covered history can be dropped file-by-file
//! (compaction) instead of rewriting one giant log.
//!
//! ## Crash tolerance vs bit rot
//!
//! The frame separates two very different failure modes:
//!
//! * **Torn tail** (a crash): the byte stream simply *stops* — inside a
//!   frame header, mid-payload, even mid-code-point. Everything before
//!   the incomplete frame is intact; [`decode_segment_prefix`] reports
//!   the complete-record prefix with `torn = true` and recovery truncates
//!   the tail. Crashes only ever shorten the stream, so a torn tail is
//!   always the *last* thing in a segment.
//! * **Corruption** (bit rot, a lying disk, a file this codec never
//!   wrote): a frame is *complete* but its payload no longer matches its
//!   CRC32, or a byte other than `0xB5` sits where a frame must start.
//!   That is not a crash artifact; silently truncating would discard
//!   committed records. The decode reports it in `corrupt` and recovery
//!   refuses the directory
//!   ([`crate::plan_recovery`] surfaces
//!   [`EngineError::WalCorrupt`](crate::EngineError::WalCorrupt)).
//!
//! The crash-recovery suite drives truncation at every byte offset of a
//! recorded run (always classified torn, never corrupt) and flips bytes
//! mid-stream (always corrupt, never silently dropped).
//!
//! ## Fault injection
//!
//! [`SegmentFile`] abstracts the byte sink so tests can swap the real
//! [`DiskFile`] for a [`SimFile`]: an in-memory file that only makes
//! bytes durable on `sync`, can tear a sync partway through, and exposes
//! exactly what would survive a crash.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use esm_obs::{Phase, Span, Telemetry};
use esm_store::codec;

use crate::error::EngineError;
use crate::wal::{WalOp, WalRecord};

/// Filename extension of WAL segment files.
pub const SEGMENT_SUFFIX: &str = ".seg";

/// The file name of the segment whose first record is `first_seq`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}{SEGMENT_SUFFIX}")
}

/// Parse a segment file name back to its first sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven, built at compile time).
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of a byte slice — the per-record checksum in the segment
/// framing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// First byte of every segment frame. Recovery reads any other byte at
/// a frame boundary as corruption: a crash only ever shortens a segment,
/// so it cannot leave a foreign byte where a frame must start.
pub const BINARY_FRAME_MAGIC: u8 = 0xB5;

/// Bytes in a frame header: magic, payload len (u32 LE), crc32 (u32 LE).
const BINARY_HEADER_BYTES: usize = 9;

const REC_DELTA: u8 = 0;
const REC_CHAINED: u8 = 1;
const REC_PREPARE: u8 = 2;
const REC_RESOLVE: u8 = 3;

/// Encode one record's payload (tag, seq, fields) — the bytes a frame's
/// CRC covers.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match &record.op {
        WalOp::Delta {
            table,
            delta,
            chained,
        } => {
            out.push(if *chained { REC_CHAINED } else { REC_DELTA });
            codec::put_u64(&mut out, record.seq);
            codec::put_str(&mut out, table);
            codec::put_delta(&mut out, delta);
        }
        WalOp::Prepare { gtx, records } => {
            out.push(REC_PREPARE);
            codec::put_u64(&mut out, record.seq);
            codec::put_str(&mut out, gtx);
            codec::put_u64(&mut out, *records);
        }
        WalOp::Resolve { gtx, committed } => {
            out.push(REC_RESOLVE);
            codec::put_u64(&mut out, record.seq);
            codec::put_str(&mut out, gtx);
            out.push(u8::from(*committed));
        }
    }
    out
}

/// Decode one record payload produced by [`encode_record`].
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, EngineError> {
    let rot = |e: esm_store::StoreError| EngineError::WalCorrupt(e.to_string());
    let mut r = codec::BinReader::new(payload);
    let tag = r.u8().map_err(rot)?;
    let seq = r.u64().map_err(rot)?;
    let record = match tag {
        REC_DELTA | REC_CHAINED => {
            let table = r.str().map_err(rot)?;
            let delta = r.delta().map_err(rot)?;
            if tag == REC_CHAINED {
                WalRecord::chained(seq, table, delta)
            } else {
                WalRecord::delta(seq, table, delta)
            }
        }
        REC_PREPARE => {
            let gtx = r.str().map_err(rot)?;
            WalRecord::prepare(seq, gtx, r.u64().map_err(rot)?)
        }
        REC_RESOLVE => {
            let gtx = r.str().map_err(rot)?;
            WalRecord::resolve(seq, gtx, r.flag().map_err(rot)?)
        }
        tag => return Err(EngineError::WalCorrupt(format!("unknown record tag {tag}"))),
    };
    r.end().map_err(rot)?;
    Ok(record)
}

/// Encode one record with its segment frame — exactly the bytes
/// [`SegmentWriter::append`] writes.
pub fn encode_framed(record: &WalRecord) -> Vec<u8> {
    let payload = encode_record(record);
    let mut out = Vec::with_capacity(BINARY_HEADER_BYTES + payload.len());
    out.push(BINARY_FRAME_MAGIC);
    codec::put_u32(&mut out, payload.len() as u32);
    codec::put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// An append-only byte sink with explicit durability points.
///
/// `append` buffers; only bytes written before a successful `sync` are
/// guaranteed to survive a crash (the OS may persist more, which recovery
/// tolerates as a torn tail).
pub trait SegmentFile: Send {
    /// Append bytes to the logical end of the file.
    fn append(&mut self, bytes: &[u8]) -> Result<(), EngineError>;
    /// Make every appended byte durable.
    fn sync(&mut self) -> Result<(), EngineError>;
}

/// A real segment file on disk.
#[derive(Debug)]
pub struct DiskFile {
    file: std::fs::File,
    /// Live fault-injection knob: extra nanoseconds slept before every
    /// fsync. Shared with whoever configured it
    /// ([`crate::DurabilityConfig::sync_delay_handle`]) so a chaos
    /// harness can raise and drop the delay mid-run.
    sync_delay: Option<Arc<std::sync::atomic::AtomicU64>>,
}

impl DiskFile {
    /// Create (truncating) a segment file at `path`.
    pub fn create(path: &Path) -> Result<DiskFile, EngineError> {
        Ok(DiskFile {
            file: std::fs::File::create(path)?,
            sync_delay: None,
        })
    }

    /// Attach a live sync-delay knob (nanos slept before each fsync).
    pub fn set_sync_delay(&mut self, delay: Option<Arc<std::sync::atomic::AtomicU64>>) {
        self.sync_delay = delay;
    }
}

impl SegmentFile for DiskFile {
    fn append(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        self.file.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), EngineError> {
        if let Some(delay) = &self.sync_delay {
            let ns = delay.load(std::sync::atomic::Ordering::Relaxed);
            if ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(ns));
            }
        }
        self.file.sync_data()?;
        Ok(())
    }
}

/// The observable state of a [`SimFile`]: what is durable, what is only
/// buffered, and how many syncs ran.
#[derive(Debug, Default)]
pub struct SimDisk {
    durable: Vec<u8>,
    buffered: Vec<u8>,
    /// Number of successful syncs.
    pub syncs: u64,
    /// When set, the next sync persists only this many of the buffered
    /// bytes, then fails — a torn write.
    pub tear_next_sync_at: Option<usize>,
    /// When set, every sync stalls this long before persisting — a slow
    /// disk, for telemetry tests that need fsync time to dominate.
    pub sync_delay: Option<std::time::Duration>,
}

impl SimDisk {
    /// The bytes that would survive a crash right now.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.durable.clone()
    }

    /// Bytes appended but not yet durable.
    pub fn buffered_len(&self) -> usize {
        self.buffered.len()
    }
}

/// An in-memory [`SegmentFile`] with fault injection, for the
/// crash-recovery test harness. Cloning shares the underlying disk.
#[derive(Debug, Clone, Default)]
pub struct SimFile {
    disk: Arc<Mutex<SimDisk>>,
}

impl SimFile {
    /// A fresh, empty simulated file.
    pub fn new() -> SimFile {
        SimFile::default()
    }

    /// A handle onto the simulated disk, to inject faults and to inspect
    /// durable state after a "crash".
    pub fn disk(&self) -> Arc<Mutex<SimDisk>> {
        Arc::clone(&self.disk)
    }
}

impl SegmentFile for SimFile {
    fn append(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        self.disk
            .lock()
            .expect("sim disk lock")
            .buffered
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), EngineError> {
        let mut disk = self.disk.lock().expect("sim disk lock");
        if let Some(delay) = disk.sync_delay {
            std::thread::sleep(delay);
        }
        if let Some(keep) = disk.tear_next_sync_at.take() {
            let keep = keep.min(disk.buffered.len());
            let torn: Vec<u8> = disk.buffered.drain(..keep).collect();
            disk.durable.extend_from_slice(&torn);
            disk.buffered.clear();
            return Err(EngineError::Io("simulated torn sync".into()));
        }
        let buffered = std::mem::take(&mut disk.buffered);
        disk.durable.extend_from_slice(&buffered);
        disk.syncs += 1;
        Ok(())
    }
}

/// An appender onto one segment: frames records with their CRC, counts
/// bytes and unsynced records. Group-commit policy (when to sync) lives
/// with the caller, [`crate::DurableWal`]. With a telemetry handle
/// attached, appends time into [`Phase::CommitWalAppend`] and issued
/// syncs into [`Phase::CommitFsync`] — this is the one place the two
/// costs are cleanly separable, which is what lets the histograms tell
/// a slow disk apart from a fat record.
#[derive(Debug)]
pub struct SegmentWriter<F: SegmentFile> {
    file: F,
    first_seq: u64,
    bytes: u64,
    pending: usize,
    telemetry: Option<Arc<Telemetry>>,
}

impl<F: SegmentFile> SegmentWriter<F> {
    /// Start a segment whose first record will be `first_seq`.
    pub fn new(file: F, first_seq: u64) -> SegmentWriter<F> {
        SegmentWriter {
            file,
            first_seq,
            bytes: 0,
            pending: 0,
            telemetry: None,
        }
    }

    /// Attach a telemetry registry: appends and syncs start recording
    /// their latency.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    /// Append one framed record (buffered until the next
    /// [`SegmentWriter::sync`]). Returns the appended size in bytes,
    /// frame included.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, EngineError> {
        let span = Span::start();
        let mut tspan = esm_obs::trace::span("commit_wal_append");
        let framed = encode_framed(record);
        self.file.append(&framed)?;
        self.bytes += framed.len() as u64;
        self.pending += 1;
        if let Some(t) = tspan.as_mut() {
            t.set_bytes(framed.len() as u64);
        }
        if let Some(tel) = &self.telemetry {
            tel.record(Phase::CommitWalAppend, span.elapsed_ns());
        }
        Ok(framed.len() as u64)
    }

    /// Sync appended records to durable storage. Returns whether a sync
    /// was actually issued (no-op when nothing is pending).
    pub fn sync(&mut self) -> Result<bool, EngineError> {
        if self.pending == 0 {
            return Ok(false);
        }
        let span = Span::start();
        let _tspan = esm_obs::trace::span("commit_fsync");
        self.file.sync()?;
        if let Some(tel) = &self.telemetry {
            tel.record(Phase::CommitFsync, span.elapsed_ns());
        }
        self.pending = 0;
        Ok(true)
    }

    /// The first sequence number this segment holds.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Bytes appended so far (durable or not).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended since the last sync.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

/// The result of decoding a (possibly crash-torn, possibly rotten)
/// segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPrefix {
    /// The complete, checksum-valid records, in file order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past each record's frame (so recovery can
    /// truncate a file back to any record boundary).
    pub ends: Vec<usize>,
    /// How many leading bytes those records occupy.
    pub consumed: usize,
    /// Whether bytes past `consumed` remained that look like a crash
    /// artifact (an incomplete trailing frame).
    pub torn: bool,
    /// Set when the bytes past `consumed` are provably *not* a crash
    /// artifact: a complete frame whose payload fails its CRC or does not
    /// parse, or a garbled frame header. Mid-stream bit rot, not a torn
    /// tail — recovery must refuse, not truncate.
    pub corrupt: Option<String>,
}

/// Decode the longest prefix of complete, CRC-valid records from raw
/// segment bytes.
///
/// A record counts only when its frame starts with
/// [`BINARY_FRAME_MAGIC`], its header is complete, all its promised
/// payload bytes are present, the payload matches its CRC32 and parses
/// as exactly one record. An *incomplete* trailing frame is reported as
/// `torn` (what a crash leaves behind); a *complete but invalid* frame,
/// or any other byte where a frame must start, is reported as `corrupt`
/// (what bit rot, or a file this codec never wrote, leaves behind).
pub fn decode_segment_prefix(bytes: &[u8]) -> SegmentPrefix {
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut consumed = 0usize;
    let mut corrupt = None;
    while consumed < bytes.len() {
        let rest = &bytes[consumed..];
        if rest[0] != BINARY_FRAME_MAGIC {
            corrupt = Some(format!(
                "byte {consumed} is {:#04x}, not a frame start ({BINARY_FRAME_MAGIC:#04x})",
                rest[0]
            ));
            break;
        }
        if rest.len() < BINARY_HEADER_BYTES {
            break; // incomplete frame header: torn
        }
        let len = u32::from_le_bytes(rest[1..5].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(rest[5..9].try_into().expect("4"));
        let Some(payload) = rest[BINARY_HEADER_BYTES..].get(..len) else {
            break; // incomplete payload: torn
        };
        let actual = crc32(payload);
        if actual != crc {
            corrupt = Some(format!(
                "crc mismatch at byte {}: frame says {crc:08x}, payload is {actual:08x}",
                consumed + BINARY_HEADER_BYTES
            ));
            break;
        }
        match decode_record(payload) {
            Ok(record) => {
                records.push(record);
                consumed += BINARY_HEADER_BYTES + len;
                ends.push(consumed);
            }
            Err(e) => {
                // CRC-valid but unparseable: the writer never produced
                // this, so the frame header itself lies — rot.
                corrupt = Some(format!("unparseable framed record: {e}"));
                break;
            }
        }
    }
    let torn = corrupt.is_none() && consumed < bytes.len();
    SegmentPrefix {
        records,
        ends,
        consumed,
        torn,
        corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_store::{row, Delta};

    fn rec(seq: u64, n: i64) -> WalRecord {
        WalRecord::delta(
            seq,
            "t",
            Delta {
                inserted: vec![row![n, "payload"]],
                deleted: if n % 2 == 0 {
                    vec![row![n - 1, "old"]]
                } else {
                    vec![]
                },
            },
        )
    }

    #[test]
    fn segment_names_round_trip_and_sort() {
        let names: Vec<String> = [1u64, 42, 100, 7_000_000_000]
            .iter()
            .map(|&s| segment_file_name(s))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names, "zero padding keeps name order == seq order");
        for (i, &s) in [1u64, 42, 100, 7_000_000_000].iter().enumerate() {
            assert_eq!(parse_segment_name(&names[i]), Some(s));
        }
        assert_eq!(parse_segment_name("checkpoint-1.ckpt"), None);
        assert_eq!(parse_segment_name("wal-x.seg"), None);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// One of every record kind, with codec-hostile names and cells.
    fn all_kinds() -> Vec<WalRecord> {
        vec![
            rec(1, 1),
            rec(2, 2),
            WalRecord::chained(3, "tab\tle λ", rec(1, 1).delta_op().unwrap().1.clone()),
            WalRecord::delta(4, "t", Delta::empty()),
            WalRecord::prepare(5, "g\n1", 2),
            WalRecord::resolve(6, "g\n1", true),
            WalRecord::resolve(7, "g2", false),
        ]
    }

    fn framed(records: &[WalRecord]) -> Vec<u8> {
        records.iter().flat_map(encode_framed).collect()
    }

    #[test]
    fn prefix_decode_at_every_byte_is_a_clean_record_prefix() {
        let records = all_kinds();
        let bytes = framed(&records);
        for cut in 0..=bytes.len() {
            let prefix = decode_segment_prefix(&bytes[..cut]);
            // Truncation is a crash artifact: never classified as rot.
            assert_eq!(prefix.corrupt, None, "cut at {cut}");
            // The decoded records are exactly the complete ones.
            assert_eq!(
                prefix.records,
                records[..prefix.records.len()],
                "cut at {cut}"
            );
            assert!(prefix.consumed <= cut);
            assert_eq!(prefix.torn, prefix.consumed < cut);
            // consumed and every end sit on frame boundaries.
            assert_eq!(framed(&prefix.records).len(), prefix.consumed);
            let mut at = 0;
            for (r, &end) in prefix.records.iter().zip(&prefix.ends) {
                at += encode_framed(r).len();
                assert_eq!(end, at, "cut at {cut}");
            }
        }
        // The untruncated stream decodes completely.
        let whole = decode_segment_prefix(&bytes);
        assert_eq!(whole.records, records);
        assert!(!whole.torn);
    }

    #[test]
    fn markers_and_chains_survive_framing() {
        let records = vec![
            WalRecord::chained(1, "t", rec(1, 1).delta_op().unwrap().1.clone()),
            WalRecord::prepare(2, "g1", 1),
            WalRecord::resolve(3, "g1", true),
        ];
        let p = decode_segment_prefix(&framed(&records));
        assert_eq!(p.records, records);
        assert!(!p.torn && p.corrupt.is_none());
    }

    #[test]
    fn binary_frames_round_trip_all_record_kinds() {
        let records = all_kinds();
        for r in &records {
            assert_eq!(&decode_record(&encode_record(r)).unwrap(), r);
        }
        let p = decode_segment_prefix(&framed(&records));
        assert_eq!(p.records, records);
        assert!(!p.torn && p.corrupt.is_none());
    }

    #[test]
    fn binary_prefix_decode_at_every_byte_is_a_clean_record_prefix() {
        let records: Vec<WalRecord> = (1..=5).map(|i| rec(i, i as i64)).collect();
        let bytes = framed(&records);
        for cut in 0..=bytes.len() {
            let prefix = decode_segment_prefix(&bytes[..cut]);
            assert_eq!(prefix.corrupt, None, "cut at {cut}");
            assert_eq!(
                prefix.records,
                records[..prefix.records.len()],
                "cut at {cut}"
            );
            assert!(prefix.consumed <= cut);
            assert_eq!(prefix.torn, prefix.consumed < cut);
            assert_eq!(framed(&prefix.records).len(), prefix.consumed);
        }
    }

    #[test]
    fn binary_bit_rot_is_corruption_not_a_torn_tail() {
        let clean = framed(&(1..=3).map(|i| rec(i, i as i64)).collect::<Vec<_>>());
        // Flip a byte inside the first record's payload.
        let mut rotten = clean.clone();
        rotten[BINARY_HEADER_BYTES + 3] ^= 0x40;
        let p = decode_segment_prefix(&rotten);
        assert!(p.corrupt.is_some(), "flipped payload byte: {p:?}");
        assert!(!p.torn);
        assert!(p.records.is_empty());
        // A CRC-valid payload with an unknown tag is corruption too.
        let mut payload = encode_record(&rec(1, 1));
        payload[0] = 99;
        let mut framed = vec![BINARY_FRAME_MAGIC];
        codec::put_u32(&mut framed, payload.len() as u32);
        codec::put_u32(&mut framed, crc32(&payload));
        framed.extend_from_slice(&payload);
        let p = decode_segment_prefix(&framed);
        assert!(p.corrupt.is_some());
    }

    #[test]
    fn bit_rot_is_corruption_not_a_torn_tail() {
        // Any byte other than the magic at a frame boundary is corrupt,
        // never torn — at the start of a file, between frames, and as
        // the last byte of a file (where a crash could only have left a
        // proper prefix of a frame).
        let clean = framed(&(1..=3).map(|i| rec(i, i as i64)).collect::<Vec<_>>());
        let second = encode_framed(&rec(1, 1)).len();
        for at in [0, second] {
            for byte in [0x00, b'=', b'#', 0xB7, 0xFF] {
                let mut garbled = clean.clone();
                garbled[at] = byte;
                let p = decode_segment_prefix(&garbled);
                assert!(p.corrupt.is_some() && !p.torn, "{byte:#x} at {at}: {p:?}");
                assert_eq!(p.consumed, at, "the prefix before it survives");
            }
            let mut tail = clean[..at].to_vec();
            tail.push(b'=');
            let p = decode_segment_prefix(&tail);
            assert!(p.corrupt.is_some() && !p.torn, "stray tail byte: {p:?}");
        }
        // A record in the pre-binary text framing is a foreign file.
        let text = b"=24 00000000\n#1 t +0 -0\n";
        let p = decode_segment_prefix(text);
        assert!(p.corrupt.is_some() && !p.torn && p.records.is_empty());
    }

    #[test]
    fn prefix_decode_survives_split_utf8() {
        let mut bytes = encode_framed(&WalRecord::delta(
            1,
            "t",
            Delta {
                inserted: vec![row![1, "λambda"]],
                deleted: vec![],
            },
        ));
        let full = decode_segment_prefix(&bytes);
        assert_eq!(full.records.len(), 1);
        // Cut inside the 2-byte λ: the whole record is torn, not an error.
        let lambda_pos = bytes.windows(2).position(|w| w == "λ".as_bytes()).unwrap();
        bytes.truncate(lambda_pos + 1);
        let torn = decode_segment_prefix(&bytes);
        assert!(torn.records.is_empty() && torn.torn && torn.corrupt.is_none());
    }

    #[test]
    fn writer_tracks_bytes_and_pending() {
        let mut w = SegmentWriter::new(SimFile::new(), 1);
        let r = rec(1, 1);
        let n = w.append(&r).unwrap();
        assert_eq!(n, encode_framed(&r).len() as u64);
        assert_eq!(w.bytes(), n);
        assert_eq!(w.pending(), 1);
        assert!(w.sync().unwrap());
        assert_eq!(w.pending(), 0);
        assert!(!w.sync().unwrap(), "sync with nothing pending is a no-op");
    }

    #[test]
    fn simfile_loses_unsynced_bytes_on_crash() {
        let file = SimFile::new();
        let disk = file.disk();
        let mut w = SegmentWriter::new(file, 1);
        for i in 1..=10 {
            w.append(&rec(i, i as i64)).unwrap();
            if i % 4 == 0 {
                w.sync().unwrap(); // group commit every 4 records
            }
        }
        // Crash now: only the 8 synced records survive.
        let durable = disk.lock().unwrap().durable_bytes();
        let p = decode_segment_prefix(&durable);
        assert_eq!(p.records.len(), 8);
        assert!(!p.torn, "synced batches end on record boundaries");
        assert_eq!(disk.lock().unwrap().syncs, 2);
        assert!(disk.lock().unwrap().buffered_len() > 0);
    }

    #[test]
    fn simfile_torn_sync_leaves_decodable_prefix() {
        let file = SimFile::new();
        let disk = file.disk();
        let mut w = SegmentWriter::new(file, 1);
        w.append(&rec(1, 1)).unwrap();
        w.append(&rec(2, 2)).unwrap();
        let first_len = encode_framed(&rec(1, 1)).len();
        disk.lock().unwrap().tear_next_sync_at = Some(first_len + 7);
        assert!(matches!(w.sync(), Err(EngineError::Io(_))));
        let durable = disk.lock().unwrap().durable_bytes();
        let p = decode_segment_prefix(&durable);
        assert_eq!(p.records.len(), 1, "only the first record fully landed");
        assert!(p.torn, "the second record's first 7 bytes are a torn tail");
    }
}
