//! Checkpoints: durable snapshots of the committed database at a known
//! WAL sequence number.
//!
//! A checkpoint file `checkpoint-<seq, zero-padded>.ckpt` holds one
//! sealed binary document — a magic byte, the body, a CRC32 trailer:
//!
//! ```text
//! [0xB6][seq: u64 LE][database: esm_store::codec][crc32 of all before: u32 LE]
//! ```
//!
//! Recovery loads the newest *valid* checkpoint and replays only WAL
//! records with `seq > checkpoint.seq`, instead of replaying from
//! genesis. Validity matters because a crash can interrupt a checkpoint:
//! files are written to a temporary name, fsynced, then renamed into
//! place (atomic on POSIX), and the CRC32 trailer guards against
//! filesystems that lie about rename atomicity and against bit rot — a
//! checkpoint whose trailer does not match is ignored and recovery falls
//! back to the previous one. The shard topology file uses the same seal
//! and the same atomic write.
//!
//! Compaction follows from checkpoints: every segment whose records are
//! all covered by the newest checkpoint can be deleted (see
//! [`crate::DurableWal::checkpoint`]).

use std::path::{Path, PathBuf};

use esm_store::codec::{self, BinReader};
use esm_store::Database;

use crate::error::EngineError;
use crate::segment::crc32;

/// First byte of a checkpoint file.
const CHECKPOINT_MAGIC: u8 = 0xB6;

/// Filename extension of checkpoint files.
pub const CHECKPOINT_SUFFIX: &str = ".ckpt";

/// The file name of the checkpoint covering `seq`.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("checkpoint-{seq:020}{CHECKPOINT_SUFFIX}")
}

/// Parse a checkpoint file name back to the sequence number it covers.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?
        .strip_suffix(CHECKPOINT_SUFFIX)?
        .parse()
        .ok()
}

/// A decoded checkpoint: the database state after applying every WAL
/// record with `seq <= seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The WAL sequence number this snapshot covers.
    pub seq: u64,
    /// The committed database at that point.
    pub db: Database,
}

impl Checkpoint {
    /// Render the checkpoint file content.
    pub fn encode(&self) -> Vec<u8> {
        let mut doc = vec![CHECKPOINT_MAGIC];
        codec::put_u64(&mut doc, self.seq);
        codec::put_database(&mut doc, &self.db);
        seal(doc)
    }

    /// Parse checkpoint file content, validating magic and trailer.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, EngineError> {
        let corrupt = |e: String| EngineError::WalCorrupt(format!("checkpoint: {e}"));
        let mut r = BinReader::new(unseal(CHECKPOINT_MAGIC, bytes).map_err(corrupt)?);
        let seq = r.u64().map_err(|e| corrupt(e.to_string()))?;
        let db = r.database().map_err(|e| corrupt(e.to_string()))?;
        r.end().map_err(|e| corrupt(e.to_string()))?;
        Ok(Checkpoint { seq, db })
    }

    /// Write this checkpoint into `dir` atomically: temp file, fsync,
    /// rename, fsync the directory. Returns the final path.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, EngineError> {
        write_atomic(dir, &checkpoint_file_name(self.seq), &self.encode())
    }
}

/// Seal a binary document (its magic byte, then its body): append the
/// CRC32 of everything so far as a `u32` LE trailer.
pub(crate) fn seal(mut doc: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&doc);
    codec::put_u32(&mut doc, crc);
    doc
}

/// The body of a document [`seal`]ed with `magic`, or why the bytes are
/// not one (wrong magic, torn, or rotten).
pub(crate) fn unseal(magic: u8, bytes: &[u8]) -> Result<&[u8], String> {
    let Some((sealed, trailer)) = bytes.split_last_chunk::<4>() else {
        return Err(format!("{} bytes is too short to be sealed", bytes.len()));
    };
    match sealed.split_first() {
        Some((&first, body)) if first == magic => {
            let (want, got) = (u32::from_le_bytes(*trailer), crc32(sealed));
            if want == got {
                Ok(body)
            } else {
                Err(format!(
                    "crc trailer {want:08x} does not match {got:08x} (torn or rotten)"
                ))
            }
        }
        Some((&first, _)) => Err(format!("starts with {first:#04x}, not {magic:#04x}")),
        None => Err("empty document".into()),
    }
}

/// Write `bytes` into `dir/name` atomically (temp file → fsync → rename →
/// directory fsync) — the discipline checkpoints use, shared with the
/// shard topology file. Returns the final path.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, EngineError> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// fsync a directory so renames/creates/unlinks inside it are durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), EngineError> {
    // Directory fsync is supported on Linux; on platforms where opening a
    // directory fails, fall back to best effort (the rename itself is
    // still atomic).
    if let Ok(d) = std::fs::File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

/// Load the newest valid checkpoint in `dir`, skipping unreadable or
/// torn ones (a crash mid-checkpoint must fall back, not fail recovery).
/// Returns the checkpoint and how many corrupt candidates were skipped.
pub fn latest_valid_checkpoint(dir: &Path) -> Result<(Option<Checkpoint>, u64), EngineError> {
    let mut seqs: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    let mut skipped = 0;
    for seq in seqs.into_iter().rev() {
        let path = dir.join(checkpoint_file_name(seq));
        let parsed = std::fs::read(&path)
            .map_err(EngineError::from)
            .and_then(|bytes| Checkpoint::decode(&bytes));
        match parsed {
            Ok(ckpt) if ckpt.seq == seq => return Ok((Some(ckpt), skipped)),
            _ => skipped += 1,
        }
    }
    Ok((None, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_store::{row, Schema, Table, ValueType};

    fn db() -> Database {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
        let mut db = Database::new();
        db.create_table(
            "t",
            Table::from_rows(schema, vec![row![1, "a"], row![2, "b"]]).unwrap(),
        )
        .unwrap();
        db
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("esm-checkpoint-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_round_trip_and_sort() {
        assert_eq!(parse_checkpoint_name(&checkpoint_file_name(42)), Some(42));
        assert!(checkpoint_file_name(9) < checkpoint_file_name(10));
        assert_eq!(parse_checkpoint_name("wal-1.seg"), None);
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = Checkpoint { seq: 7, db: db() };
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn truncated_checkpoints_are_rejected() {
        let bytes = Checkpoint { seq: 7, db: db() }.encode();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Checkpoint::decode(&bytes[..cut]),
                    Err(EngineError::WalCorrupt(_))
                ),
                "cut at {cut} must not decode"
            );
        }
        // Every flipped bit fails the CRC trailer (or the magic).
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut rotten = bytes.clone();
                rotten[at] ^= 1 << bit;
                assert!(
                    Checkpoint::decode(&rotten).is_err(),
                    "bit {bit} of byte {at} flipped must not decode"
                );
            }
        }
        // A checkpoint in the pre-binary text form is not a checkpoint.
        assert!(Checkpoint::decode(b"!checkpoint seq=7\n!end\n").is_err());
    }

    #[test]
    fn latest_valid_skips_torn_newer_checkpoints() {
        let dir = tmp_dir("skip-torn");
        Checkpoint { seq: 5, db: db() }.write_atomic(&dir).unwrap();
        // Newer checkpoints whose writes were interrupted (every proper
        // prefix) or that rotted (one flipped bit) are skipped, each
        // time falling back to seq 5.
        let newer = Checkpoint { seq: 9, db: db() }.encode();
        let path = dir.join(checkpoint_file_name(9));
        for cut in 0..newer.len() {
            std::fs::write(&path, &newer[..cut]).unwrap();
            let (found, skipped) = latest_valid_checkpoint(&dir).unwrap();
            assert_eq!(found.unwrap().seq, 5, "cut at {cut}");
            assert_eq!(skipped, 1);
        }
        for at in 0..newer.len() {
            let mut rotten = newer.clone();
            rotten[at] ^= 0x10;
            std::fs::write(&path, &rotten).unwrap();
            let (found, skipped) = latest_valid_checkpoint(&dir).unwrap();
            assert_eq!(found.unwrap().seq, 5, "flip at {at}");
            assert_eq!(skipped, 1);
        }
        // The whole file is found again.
        std::fs::write(&path, &newer).unwrap();
        assert_eq!(latest_valid_checkpoint(&dir).unwrap().0.unwrap().seq, 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = tmp_dir("empty");
        let (found, skipped) = latest_valid_checkpoint(&dir).unwrap();
        assert!(found.is_none());
        assert_eq!(skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
