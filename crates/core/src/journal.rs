//! The engine's write-ahead run journal, kept as an append-only
//! [`LineJournal`].
//!
//! A line journal is a header line followed by one record per line. It
//! follows four rules:
//!
//! * **Header.** A file whose first line is not the expected header is
//!   foreign (another format, or corrupt); it is read as empty and
//!   overwritten by the next compaction.
//! * **Torn lines.** A line counts only when `\n` terminates it. A crash
//!   mid-append can leave an unterminated final line, and that line is
//!   never parsed, even when a prefix of it would parse.
//! * **Compaction.** Opening a journal rewrites it to the caller's
//!   surviving records through [`write_atomic`] (temp file, fsync,
//!   rename), so torn tails and settled records never accumulate.
//! * **Appends.** Each record is one `write_all` of the whole line under a
//!   mutex, so concurrent records never interleave. [`LineJournal::sync`]
//!   (`sync_data`, outside the mutex) makes them survive a power loss: the
//!   campaign journal syncs after every record.
//!
//! The campaign journal records a characterization campaign's identity
//! and per-job progress under the journal directory (default
//! `out/journal/`), one file per campaign (`campaign-<fingerprint>.journal`):
//!
//! ```text
//! aix-journal v1
//! campaign <16-hex campaign fingerprint>
//! plan <job count>
//! done <16-hex job fingerprint> <precision> <scenario token> <delay ps>
//! failed <16-hex job fingerprint> <stage> <attempts> <reason …>
//! ```
//!
//! `done` lines mirror the cache's `entry` records (same 6-decimal delay
//! format), so a resumed run rebuilds byte-identical library text from the
//! journal alone — the journal makes resume independent of the cache, and
//! `--resume --no-cache` works. A journal whose campaign fingerprint does
//! not match the planned campaign is ignored wholesale: stale journals can
//! never leak results across configurations, cell libraries or calibrations.

use crate::fsutil::write_atomic;
use crate::library::parse_scenario;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// An open append-only line journal.
#[derive(Debug)]
pub struct LineJournal {
    file: File,
    /// Serializes appends, so concurrent records never interleave.
    append_lock: Mutex<()>,
}

impl LineJournal {
    /// Reads the `\n`-terminated lines after the header of the journal at
    /// `path`, in file order. A missing file, or one with a foreign header,
    /// reads as empty.
    ///
    /// # Errors
    ///
    /// Returns I/O errors reading an existing file. Malformed content is
    /// never an error.
    pub fn read(path: &Path, header: &str) -> io::Result<Vec<String>> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let complete = &text[..text.rfind('\n').map_or(0, |end| end + 1)];
        let mut lines = complete.lines();
        match lines.next() {
            Some(first) if first.trim() != header => Ok(Vec::new()),
            _ => Ok(lines.map(str::to_owned).collect()),
        }
    }

    /// Compacts the journal at `path` to `header` plus `records`, one per
    /// line, atomically under the `AIX_FAULT` plan's `cache` stage, and
    /// opens it for appending.
    ///
    /// # Errors
    ///
    /// Returns I/O errors (or an injected fault) from the rewrite or the
    /// reopen.
    pub fn compact(path: &Path, header: &str, records: &[String]) -> io::Result<Self> {
        let mut text = format!("{header}\n");
        for record in records {
            text.push_str(record);
            text.push('\n');
        }
        write_atomic(path, &text)?;
        Ok(Self {
            file: OpenOptions::new().append(true).open(path)?,
            append_lock: Mutex::new(()),
        })
    }

    /// Appends each of `records` as one line. The lines survive a killed
    /// process at once, and a power loss after [`LineJournal::sync`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the writes.
    pub fn append(&self, records: &[String]) -> io::Result<()> {
        let _guard = self.append_lock.lock().expect("journal lock poisoned");
        for record in records {
            debug_assert!(!record.contains('\n'), "a record is one line");
            (&self.file).write_all(format!("{record}\n").as_bytes())?;
        }
        Ok(())
    }

    /// Makes every line appended so far durable (`sync_data`). Takes no
    /// lock, so a sync never holds up a concurrent append.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the sync.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

const JOURNAL_HEADER: &str = "aix-journal v1";

/// One campaign's write-ahead journal. Best effort, like cache writebacks:
/// an unwritable journal directory degrades to non-resumable runs, never to
/// a failed campaign.
#[derive(Debug)]
pub(crate) struct RunJournal {
    path: PathBuf,
    campaign: u64,
    /// `done` records loaded on resume, carried into the compacted file.
    carried: Vec<String>,
    /// The open file, once [`RunJournal::record_plan`] has compacted it.
    file: Option<LineJournal>,
    /// Completed jobs loaded on resume or recorded this run:
    /// job fingerprint → scenario token → quantized delay.
    done: HashMap<u64, BTreeMap<String, f64>>,
}

impl RunJournal {
    /// Opens the journal for `campaign` under `dir`. With `resume`, prior
    /// `done` records of a matching journal file are loaded (and carried
    /// over into the compacted file); otherwise any existing journal for
    /// this campaign is discarded and the run starts a fresh one. Prior
    /// `failed` records are never carried over — a resumed run retries
    /// quarantined jobs.
    pub fn open(dir: &Path, campaign: u64, resume: bool) -> Self {
        let path = dir.join(format!("campaign-{campaign:016x}.journal"));
        let mut journal = Self {
            path,
            campaign,
            carried: Vec::new(),
            file: None,
            done: HashMap::new(),
        };
        if resume {
            journal.load();
        }
        journal
    }

    /// Loads `done` records from an existing journal whose campaign
    /// fingerprint matches. Malformed lines are skipped — a bad line can
    /// only cost re-execution, never correctness.
    fn load(&mut self) {
        let Ok(lines) = LineJournal::read(&self.path, JOURNAL_HEADER) else {
            return;
        };
        let mut lines = lines.iter();
        let campaign_ok = lines
            .next()
            .and_then(|line| line.trim().strip_prefix("campaign "))
            .and_then(|fp| u64::from_str_radix(fp.trim(), 16).ok())
            .is_some_and(|fp| fp == self.campaign);
        if !campaign_ok {
            return;
        }
        for line in lines {
            let mut fields = line.split_whitespace();
            if fields.next() != Some("done") {
                continue;
            }
            let Some(job) = fields.next().and_then(|f| u64::from_str_radix(f, 16).ok()) else {
                continue;
            };
            let Some(_precision) = fields.next().and_then(|f| f.parse::<usize>().ok()) else {
                continue;
            };
            let Some(token) = fields.next() else { continue };
            if parse_scenario(token).is_none() {
                continue;
            }
            let Some(delay) = fields.next().and_then(|f| f.parse::<f64>().ok()) else {
                continue;
            };
            if !delay.is_finite() || delay < 0.0 {
                continue;
            }
            self.done.entry(job).or_default().insert(token.to_owned(), delay);
            self.carried.push(line.trim().to_owned());
        }
    }

    /// The delays a prior run completed for `job`, when it covers every
    /// token in `required`.
    pub fn completed(&self, job: u64, required: &[String]) -> Option<&BTreeMap<String, f64>> {
        let entries = self.done.get(&job)?;
        (!required.is_empty() && required.iter().all(|t| entries.contains_key(t)))
            .then_some(entries)
    }

    /// Records the planned job count: the write-ahead step, before any job
    /// runs. Compacts the file to the preamble plus the carried `done`
    /// records.
    pub fn record_plan(&mut self, planned: usize) {
        let mut records = vec![
            format!("campaign {:016x}", self.campaign),
            format!("plan {planned}"),
        ];
        records.append(&mut self.carried);
        self.file = LineJournal::compact(&self.path, JOURNAL_HEADER, &records).ok();
    }

    /// Records one job as done with its scenario delays. Idempotent: a job
    /// already recorded (e.g. loaded on resume) is not duplicated.
    pub fn record_done(&mut self, job: u64, precision: usize, entries: &BTreeMap<String, f64>) {
        let known = self.done.entry(job).or_default();
        let mut records = Vec::new();
        for (token, delay) in entries {
            if let Entry::Vacant(slot) = known.entry(token.clone()) {
                slot.insert(*delay);
                records.push(format!("done {job:016x} {precision} {token} {delay:.6}"));
            }
        }
        self.append(&records);
    }

    /// Records one job failure.
    pub fn record_failed(&mut self, job: u64, stage: &str, attempts: usize, reason: &str) {
        let reason = reason.replace(['\n', '\r'], " ");
        self.append(&[format!("failed {job:016x} {stage} {attempts} {reason}")]);
    }

    fn append(&self, records: &[String]) {
        if records.is_empty() {
            return;
        }
        if let Some(file) = &self.file {
            let _ = file.append(records).and_then(|()| file.sync());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aix-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn delays(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(t, d)| ((*t).to_owned(), *d)).collect()
    }

    #[test]
    fn done_records_roundtrip_through_resume() {
        let dir = fresh_dir("roundtrip");
        let mut journal = RunJournal::open(&dir, 0xabcd, false);
        journal.record_plan(3);
        journal.record_done(7, 12, &delays(&[("fresh", 101.5), ("wc:10", 120.25)]));
        journal.record_failed(8, "synth", 2, "panicked: kaput\nwith newline");

        let resumed = RunJournal::open(&dir, 0xabcd, true);
        let tokens = vec!["fresh".to_owned(), "wc:10".to_owned()];
        let entries = resumed.completed(7, &tokens).expect("job 7 is done");
        assert_eq!(entries["fresh"], 101.5);
        assert_eq!(entries["wc:10"], 120.25);
        // Partial coverage does not count as done.
        let more = vec!["fresh".to_owned(), "wc:10".to_owned(), "bal:10".to_owned()];
        assert!(resumed.completed(7, &more).is_none());
        // Failures are not carried over: the failed job is retried.
        assert!(resumed.completed(8, &tokens).is_none());
        let text = std::fs::read_to_string(dir.join("campaign-000000000000abcd.journal")).unwrap();
        assert!(text.contains("failed 0000000000000008 synth 2 panicked: kaput with newline"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unterminated_final_line_is_never_parsed() {
        let dir = fresh_dir("torn-tail");
        let mut journal = RunJournal::open(&dir, 4, false);
        journal.record_plan(2);
        journal.record_done(8, 12, &delays(&[("fresh", 99.25)]));
        // A crash mid-append cuts `done … fresh 101.500000` after `10`: the
        // prefix still parses as a delay, but no `\n` ends the line.
        let path = dir.join("campaign-0000000000000004.journal");
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"done 0000000000000007 12 fresh 10")
            .unwrap();
        drop(file);

        let mut resumed = RunJournal::open(&dir, 4, true);
        assert!(resumed.completed(7, &["fresh".to_owned()]).is_none());
        assert_eq!(
            resumed.completed(8, &["fresh".to_owned()]).unwrap()["fresh"],
            99.25
        );
        // The next compaction drops the torn tail.
        resumed.record_plan(2);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "aix-journal v1\ncampaign 0000000000000004\nplan 2\n\
             done 0000000000000008 12 fresh 99.250000\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_discards_prior_records() {
        let dir = fresh_dir("fresh");
        let mut journal = RunJournal::open(&dir, 1, false);
        journal.record_plan(1);
        journal.record_done(7, 12, &delays(&[("fresh", 10.0)]));
        let fresh = RunJournal::open(&dir, 1, false);
        assert!(fresh.completed(7, &["fresh".to_owned()]).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_campaign_and_torn_lines_are_ignored() {
        let dir = fresh_dir("mismatch");
        let mut journal = RunJournal::open(&dir, 2, false);
        journal.record_plan(1);
        journal.record_done(9, 8, &delays(&[("fresh", 55.0)]));
        // A different campaign fingerprint never sees these records.
        let other = RunJournal::open(&dir, 3, true);
        assert!(other.completed(9, &["fresh".to_owned()]).is_none());

        // Corrupt the file with torn/garbage lines: loading skips them.
        let path = dir.join("campaign-0000000000000002.journal");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("done zzzz 8 fresh 1.0\ndone 0000000000000009 8 notascenario 1.0\ndone 0000000000000009 8 wc:10 -4.0\ngarbage\n");
        std::fs::write(&path, text).unwrap();
        let resumed = RunJournal::open(&dir, 2, true);
        assert!(resumed.completed(9, &["fresh".to_owned()]).is_some());
        assert!(resumed.completed(9, &["wc:10".to_owned()]).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
