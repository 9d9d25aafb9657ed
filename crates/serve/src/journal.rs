//! The serve request journal: crash recovery for accepted requests.
//!
//! Every admitted lead request is appended as a `pending` line (its hash
//! plus its canonical wire form) *before* execution starts, and marked
//! `done` after its response is delivered. A daemon killed mid-request
//! therefore leaves the request's `pending` line behind; on restart the
//! journal is replayed — each still-pending request is re-executed (the
//! deterministic engine cache makes the result identical) and its
//! response seeded into the result cache, so a client re-sending the
//! request receives a byte-identical answer.
//!
//! The format is line-oriented and append-only between compactions:
//!
//! ```text
//! aix-serve-journal v1
//! pending 1a2b3c4d5e6f7081 {"op":"characterize","kind":"adder",...}
//! done 1a2b3c4d5e6f7081
//! ```
//!
//! The file handling — header check, torn final line, atomic compaction,
//! whole-line appends — is [`aix_core::journal::LineJournal`]'s. Appends
//! never sync; [`RequestJournal::sync`] is the one fsync, made by a worker
//! before a request runs, so a power loss loses no request that started.
//! This module
//! keeps only the grammar: replay skips malformed lines (counting them)
//! instead of failing, and every open compacts the file back to just the
//! surviving `pending` entries.

use aix_core::journal::LineJournal;
use aix_obs::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
use std::path::Path;

/// First line of every journal file; anything else is treated as a
/// different (or corrupt) format and the journal starts fresh.
pub const JOURNAL_HEADER: &str = "aix-serve-journal v1";

/// A stable 16-hex-digit request key (FNV-1a over the fingerprint).
#[must_use]
pub fn request_hash(fingerprint: &str) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, fingerprint.as_bytes()))
}

/// What [`RequestJournal::open`] recovered from disk.
pub struct Recovered {
    /// Still-pending requests: `(hash, canonical wire form)`, in journal
    /// order.
    pub pending: Vec<(String, String)>,
    /// Malformed (torn) lines that were skipped.
    pub torn_lines: usize,
}

/// The append-mode journal handle.
pub struct RequestJournal {
    journal: LineJournal,
}

impl RequestJournal {
    /// Opens (or creates) the journal at `path`, replays its lines,
    /// compacts it to the surviving pending set, and returns that set.
    ///
    /// # Errors
    ///
    /// Returns I/O errors creating, reading, or rewriting the file.
    /// Malformed *content* is never an error — torn lines are skipped and
    /// counted, and a foreign header restarts the journal empty.
    pub fn open(path: &Path) -> std::io::Result<(Self, Recovered)> {
        let replay = LineJournal::read(path, JOURNAL_HEADER)?;
        let mut pending: HashMap<String, String> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut torn_lines = replay.torn;
        for line in &replay.lines {
            match line.split_once(' ') {
                Some(("pending", rest)) => match rest.split_once(' ') {
                    Some((hash, wire)) if hash.len() == 16 && wire.starts_with('{') => {
                        if pending.insert(hash.to_owned(), wire.to_owned()).is_none() {
                            order.push(hash.to_owned());
                        }
                    }
                    _ => torn_lines += 1,
                },
                Some(("done", hash)) if pending.remove(hash.trim()).is_some() => {}
                _ if line.trim().is_empty() => {}
                _ => torn_lines += 1,
            }
        }
        let pending: Vec<(String, String)> = order
            .into_iter()
            .filter_map(|hash| pending.remove(&hash).map(|wire| (hash, wire)))
            .collect();

        let records: Vec<String> = pending
            .iter()
            .map(|(hash, wire)| format!("pending {hash} {wire}"))
            .collect();
        let journal = LineJournal::compact(
            path,
            JOURNAL_HEADER,
            &records,
            aix_faults::env_plan(),
            aix_faults::FaultStage::Serve,
        )?;
        Ok((
            RequestJournal { journal },
            Recovered {
                pending,
                torn_lines,
            },
        ))
    }

    /// Records a request as pending (call *before* it is enqueued). The
    /// line survives a killed daemon at once and a power loss after the
    /// next [`RequestJournal::sync`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the append.
    pub fn record_pending(&self, hash: &str, wire: &str) -> std::io::Result<()> {
        self.journal.append(&[format!("pending {hash} {wire}")])
    }

    /// Makes every line recorded so far durable. This is the journal's
    /// only fsync, and the worker calls it before a request executes:
    /// appends never sync, so admission and shedding, which append under
    /// the coalescer's lock, never wait on the disk.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the sync.
    pub fn sync(&self) -> std::io::Result<()> {
        self.journal.sync()
    }

    /// Records a request as done (call after its response is delivered,
    /// or when a shed request leaves the queue). Like `pending`, the line
    /// becomes durable at the next [`RequestJournal::sync`]; a `done` lost
    /// to a power loss only replays a request, which is harmless.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the append.
    pub fn record_done(&self, hash: &str) -> std::io::Result<()> {
        self.journal.append(&[format!("done {hash}")])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aix-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn pending_then_done_leaves_nothing_to_replay() {
        let dir = temp_dir("clean");
        let path = dir.join("serve.journal");
        {
            let (journal, recovered) = RequestJournal::open(&path).unwrap();
            assert!(recovered.pending.is_empty());
            assert_eq!(recovered.torn_lines, 0);
            let hash = request_hash("fp-a");
            journal.record_pending(&hash, "{\"op\":\"x\"}").unwrap();
            journal.record_done(&hash).unwrap();
        }
        let (_, recovered) = RequestJournal::open(&path).unwrap();
        assert!(recovered.pending.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_is_skipped_and_the_pending_request_survives() {
        let dir = temp_dir("torn");
        let path = dir.join("serve.journal");
        let hash = request_hash("fp-b");
        {
            let (journal, _) = RequestJournal::open(&path).unwrap();
            journal.record_pending(&hash, "{\"op\":\"y\"}").unwrap();
        }
        // Simulate a crash mid-append: a torn, partial final line.
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(b"pending 1234ab").unwrap();
        }
        let (_, recovered) = RequestJournal::open(&path).unwrap();
        assert_eq!(recovered.torn_lines, 1, "the torn tail is counted");
        assert_eq!(
            recovered.pending,
            vec![(hash.clone(), "{\"op\":\"y\"}".to_owned())],
            "the intact pending entry replays"
        );
        // The compaction dropped the garbage: reopening is clean.
        let (_, recovered) = RequestJournal::open(&path).unwrap();
        assert_eq!(recovered.torn_lines, 0);
        assert_eq!(recovered.pending.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_journal_written_by_an_earlier_build_replays_its_pending_request() {
        let dir = temp_dir("v1");
        let path = dir.join("serve.journal");
        let wire = r#"{"op":"characterize","kind":"adder","width":4,"quick":true}"#;
        std::fs::write(
            &path,
            format!(
                "aix-serve-journal v1\n\
                 pending 0123456789abcdef {{\"op\":\"verify\"}}\n\
                 pending 1a2b3c4d5e6f7081 {wire}\n\
                 done 0123456789abcdef\n"
            ),
        )
        .unwrap();
        let (_, recovered) = RequestJournal::open(&path).unwrap();
        assert_eq!(recovered.torn_lines, 0);
        assert_eq!(
            recovered.pending,
            vec![("1a2b3c4d5e6f7081".to_owned(), wire.to_owned())]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn request_hashes_are_stable_and_distinct() {
        assert_eq!(request_hash("a"), request_hash("a"));
        assert_ne!(request_hash("a"), request_hash("b"));
        assert_eq!(request_hash("campaign").len(), 16);
    }
}
