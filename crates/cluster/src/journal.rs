//! The router's durable dispatch journal: an append-only, checksummed,
//! torn-write-tolerant write-ahead log of accepted synthesis requests.
//!
//! The cluster's contract is that no accepted request is ever lost —
//! but before this journal, "accepted" lived only in router memory, so
//! a router crash forgot every request it had taken and not yet
//! answered. The journal closes that window: a `synth` frame is
//! appended (and fsync'd) *before* dispatch, its terminal outcome is
//! appended when the response goes out, and on restart every accepted
//! entry without a terminal outcome is replayed through normal
//! dispatch. Replay is at-least-once by design: a crash between writing
//! the response and journaling the completion re-dispatches a request
//! that was in fact answered, which costs a duplicate solve (usually a
//! cache hit) — never a lost one.
//!
//! ## Frame format
//!
//! One entry per line, self-synchronizing and individually checksummed:
//!
//! ```text
//! TJ1 <fnv64-hex> {"seq":12,"kind":"accepted","frame":"{…request…}"}
//! TJ1 <fnv64-hex> {"seq":12,"kind":"completed"}
//! ```
//!
//! The checksum (FNV-1a over the payload bytes: cheap, and plenty to
//! tell a torn frame from a whole one) makes a torn write —
//! a crash, full disk, or the chaos injector's `JournalTorn` fault
//! cutting a frame short — detectable: replay drops any line whose
//! checksum fails and any unterminated tail, losing at most the torn
//! frames themselves. An appender that discovers the file does not end
//! in a newline (a torn predecessor) starts its frame on a fresh line,
//! so one torn write can never corrupt the frames after it.
//!
//! ## Rotation and compaction
//!
//! Completed entries are dead weight; once enough accumulate the
//! journal is compacted — rewritten (temp file + fsync + rename + dir
//! sync, the same atomic pattern the result cache uses) to contain only
//! the still-incomplete entries. The journal therefore stays
//! proportional to the *in-flight* window, not the request history.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use troy_dfg::Fnv1a;
use troy_resilience::{Chaos, SelfHealFault};
use troy_service::{escape, Json};

/// Journal file name inside `--journal-dir`.
pub const JOURNAL_FILE: &str = "dispatch.wal";

/// Completions tolerated before the next append compacts the file.
const COMPACT_AFTER_COMPLETIONS: u64 = 64;

/// An accepted request recovered from the journal at open: it has no
/// recorded terminal outcome and must be re-dispatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The entry's journal sequence number.
    pub seq: u64,
    /// The original request line, verbatim.
    pub frame: String,
}

struct JournalFile {
    file: File,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Accepted entries without a terminal outcome, in seq order.
    pending: BTreeMap<u64, String>,
    /// Completions appended since the last compaction.
    completions: u64,
    /// The last append was torn (chaos): the next one must start a
    /// fresh line first.
    needs_newline: bool,
}

/// The dispatch journal. All methods are crash-safe: an append is
/// fsync'd before it returns, and compaction replaces the file
/// atomically.
pub struct Journal {
    path: PathBuf,
    dir: PathBuf,
    inner: Mutex<JournalFile>,
    chaos: Chaos,
}

impl Journal {
    /// Opens (or creates) the journal in `dir`, replays it, compacts
    /// away completed entries, and returns the still-incomplete ones in
    /// acceptance order — the router's replay work list.
    ///
    /// # Errors
    /// Directory creation or journal I/O failed. A *corrupt* journal is
    /// not an error: damaged frames are skipped, whole ones recovered.
    pub fn open(dir: &Path, chaos: Chaos) -> std::io::Result<(Journal, Vec<JournalEntry>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut pending = BTreeMap::new();
        let mut next_seq = 0;
        if let Ok(mut file) = File::open(&path) {
            let mut text = String::new();
            // Invalid UTF-8 (bit rot inside a frame) must not abort the
            // replay of every *other* frame: read lossily; the damaged
            // frame then fails its checksum and is skipped like any
            // other torn line.
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            text.push_str(&String::from_utf8_lossy(&bytes));
            for line in text.lines() {
                let Some((seq, kind, frame)) = parse_frame(line) else {
                    continue; // torn or damaged: lose this frame only
                };
                next_seq = next_seq.max(seq + 1);
                match kind {
                    FrameKind::Accepted => {
                        if let Some(frame) = frame {
                            pending.insert(seq, frame);
                        }
                    }
                    FrameKind::Completed => {
                        pending.remove(&seq);
                    }
                }
            }
        }
        let replay: Vec<JournalEntry> = pending
            .iter()
            .map(|(&seq, frame)| JournalEntry {
                seq,
                frame: frame.clone(),
            })
            .collect();
        // Compact on open: the rewritten file holds exactly the pending
        // entries, dropping completed ones and any torn tail.
        write_compacted(dir, &path, &pending)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        let journal = Journal {
            path,
            dir: dir.to_path_buf(),
            inner: Mutex::new(JournalFile {
                file,
                next_seq,
                pending,
                completions: 0,
                needs_newline: false,
            }),
            chaos,
        };
        Ok((journal, replay))
    }

    /// The journal file's path (diagnostics and tests).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Journals an accepted request ahead of dispatch and returns its
    /// sequence number. The frame is fsync'd before this returns, so a
    /// router crash after `accepted` can never forget the request.
    pub fn accepted(&self, frame: &str) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let payload = format!(
            "{{\"seq\":{seq},\"kind\":\"accepted\",\"frame\":{}}}",
            escape(frame)
        );
        inner.pending.insert(seq, frame.to_owned());
        self.append(&mut inner, seq, &payload);
        seq
    }

    /// Journals the terminal outcome of entry `seq`. Every accepted
    /// request must reach this exactly once — ok, degraded, typed error
    /// or shed all count; only silence does not.
    pub fn completed(&self, seq: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.pending.remove(&seq).is_none() {
            return; // unknown or already completed: idempotent
        }
        let payload = format!("{{\"seq\":{seq},\"kind\":\"completed\"}}");
        self.append(&mut inner, seq, &payload);
        inner.completions += 1;
        if inner.completions >= COMPACT_AFTER_COMPLETIONS {
            self.compact(&mut inner);
        }
    }

    /// Entries currently awaiting a terminal outcome.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .len()
    }

    /// Appends one framed payload, honoring a scheduled `JournalTorn`
    /// fault by writing only a prefix (simulating a crash mid-write).
    fn append(&self, inner: &mut JournalFile, seq: u64, payload: &str) {
        let frame = format!("TJ1 {:016x} {payload}\n", Fnv1a::hash(payload.as_bytes()));
        let torn = self.chaos.fault_for_journal_append(seq) == Some(SelfHealFault::JournalTorn);
        if inner.needs_newline {
            let _ = inner.file.write_all(b"\n");
            inner.needs_newline = false;
        }
        if torn {
            // A crashing writer leaves a prefix; the checksum will fail
            // at replay and the frame is dropped, nothing else.
            let cut = frame.len() / 2;
            let _ = inner.file.write_all(&frame.as_bytes()[..cut]);
            inner.needs_newline = true;
        } else {
            let _ = inner.file.write_all(frame.as_bytes());
        }
        let _ = inner.file.sync_data();
    }

    /// Rewrites the journal to hold only the pending entries, via the
    /// atomic temp + fsync + rename + dir-sync pattern.
    fn compact(&self, inner: &mut JournalFile) {
        if write_compacted(&self.dir, &self.path, &inner.pending).is_ok() {
            if let Ok(file) = OpenOptions::new().append(true).open(&self.path) {
                inner.file = file;
                inner.completions = 0;
                inner.needs_newline = false;
            }
        }
    }
}

/// Writes a journal containing exactly `pending`, atomically replacing
/// `path`.
fn write_compacted(
    dir: &Path,
    path: &Path,
    pending: &BTreeMap<u64, String>,
) -> std::io::Result<()> {
    let tmp = dir.join(format!("{JOURNAL_FILE}.tmp"));
    {
        let mut out = File::create(&tmp)?;
        for (seq, frame) in pending {
            let payload = format!(
                "{{\"seq\":{seq},\"kind\":\"accepted\",\"frame\":{}}}",
                escape(frame)
            );
            let line = format!("TJ1 {:016x} {payload}\n", Fnv1a::hash(payload.as_bytes()));
            out.write_all(line.as_bytes())?;
        }
        out.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

enum FrameKind {
    Accepted,
    Completed,
}

/// Parses and checksums one journal line. `None` for anything torn,
/// damaged, or from a future format version.
fn parse_frame(line: &str) -> Option<(u64, FrameKind, Option<String>)> {
    let rest = line.strip_prefix("TJ1 ")?;
    let (sum_hex, payload) = rest.split_at_checked(16)?;
    let payload = payload.strip_prefix(' ')?;
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    if Fnv1a::hash(payload.as_bytes()) != sum {
        return None;
    }
    let json = Json::parse(payload)?;
    let seq = json.get("seq").and_then(Json::as_u64)?;
    match json.get("kind").and_then(Json::as_str)? {
        "accepted" => {
            let frame = json.get("frame").and_then(Json::as_str)?.to_owned();
            Some((seq, FrameKind::Accepted, Some(frame)))
        }
        "completed" => Some((seq, FrameKind::Completed, None)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "troy-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frame_checksums_match_their_golden_values() {
        // Recorded before the checksum moved to `Fnv1a`: journals written
        // by earlier routers still replay.
        let dir = tmp_dir("golden");
        let (journal, _) = Journal::open(&dir, Chaos::disabled()).unwrap();
        let seq = journal.accepted(r#"{"id":"g1","cmd":"synth","benchmark":"polynom"}"#);
        journal.completed(seq);
        let text = std::fs::read_to_string(journal.path()).unwrap();
        let accepted = r#"TJ1 9369f5069071949c {"seq":0,"kind":"accepted","frame":"{\"id\":\"g1\",\"cmd\":\"synth\",\"benchmark\":\"polynom\"}"}"#;
        let completed = r#"TJ1 b9f5a1c9e5b52983 {"seq":0,"kind":"completed"}"#;
        assert_eq!(text, format!("{accepted}\n{completed}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accepted_entries_replay_until_completed() {
        let dir = tmp_dir("replay");
        {
            let (journal, replay) = Journal::open(&dir, Chaos::disabled()).unwrap();
            assert!(replay.is_empty(), "fresh journal replays nothing");
            let a = journal.accepted(r#"{"id":"r1","cmd":"synth","benchmark":"polynom"}"#);
            let b = journal.accepted(r#"{"id":"r2","cmd":"synth","benchmark":"chem"}"#);
            journal.completed(a);
            assert_eq!(journal.pending(), 1);
            let _ = b;
        }
        // "Restart": r2 was accepted but never completed — it replays.
        let (journal, replay) = Journal::open(&dir, Chaos::disabled()).unwrap();
        assert_eq!(replay.len(), 1);
        assert!(replay[0].frame.contains("\"id\":\"r2\""));
        journal.completed(replay[0].seq);
        drop(journal);
        let (_, replay) = Journal::open(&dir, Chaos::disabled()).unwrap();
        assert!(replay.is_empty(), "completion sticks across restarts");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completion_is_idempotent_and_sequence_numbers_survive_restart() {
        let dir = tmp_dir("seq");
        let (journal, _) = Journal::open(&dir, Chaos::disabled()).unwrap();
        let a = journal.accepted("{\"id\":\"a\"}");
        journal.completed(a);
        journal.completed(a); // double completion: no panic, no effect
        journal.completed(999); // unknown seq: ignored
        drop(journal);
        let (journal, replay) = Journal::open(&dir, Chaos::disabled()).unwrap();
        assert!(replay.is_empty());
        assert!(
            journal.accepted("{\"id\":\"b\"}") > a,
            "sequence numbers never regress across restarts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_completed_entries_but_keeps_pending_ones() {
        let dir = tmp_dir("compact");
        let (journal, _) = Journal::open(&dir, Chaos::disabled()).unwrap();
        let keeper = journal.accepted("{\"id\":\"keeper\"}");
        // Enough completions to trip compaction mid-stream.
        for i in 0..(COMPACT_AFTER_COMPLETIONS + 8) {
            let seq = journal.accepted(&format!("{{\"id\":\"r{i}\"}}"));
            journal.completed(seq);
        }
        let size = std::fs::metadata(journal.path()).unwrap().len();
        // The compacted file holds ~1 pending entry, not 70+ frames.
        assert!(size < 2048, "compaction bounds the file: {size} bytes");
        assert_eq!(journal.pending(), 1);
        drop(journal);
        let (_, replay) = Journal::open(&dir, Chaos::disabled()).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].seq, keeper);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_recovers_or_cleanly_ignores_a_wal_truncated_at_every_byte() {
        // The torn-write acceptance gate: truncate a real WAL at *every*
        // byte boundary; each prefix must replay every frame whose bytes
        // fully survived, drop the torn tail, and never panic or invent
        // an entry.
        let dir = tmp_dir("torn");
        let (journal, _) = Journal::open(&dir, Chaos::disabled()).unwrap();
        let frames = [
            r#"{"id":"t0","cmd":"synth","benchmark":"polynom"}"#,
            r#"{"id":"t1","cmd":"synth","benchmark":"chem"}"#,
            r#"{"id":"t2","cmd":"synth","dfg":"inline"}"#,
        ];
        let mut seqs = Vec::new();
        for frame in &frames {
            seqs.push(journal.accepted(frame));
        }
        journal.completed(seqs[1]);
        drop(journal);
        let wal = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        // Byte offsets at which each line of the WAL ends.
        let line_ends: Vec<usize> = wal
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(line_ends.len(), 4, "three accepts + one completion");
        let scratch = tmp_dir("torn-scratch");
        for cut in 0..=wal.len() {
            let _ = std::fs::remove_dir_all(&scratch);
            std::fs::create_dir_all(&scratch).unwrap();
            std::fs::write(scratch.join(JOURNAL_FILE), &wal[..cut]).unwrap();
            let (_, replay) = Journal::open(&scratch, Chaos::disabled()).unwrap();
            // Which frames survived the cut? A frame needs everything
            // up to (not necessarily including) its newline: a cut that
            // loses only the `\n` leaves a complete, checksummed
            // payload, and recovery rightly keeps it.
            let whole = line_ends.iter().filter(|&&e| e - 1 <= cut).count();
            let expect: Vec<&str> = match whole {
                0 => vec![],
                1 => vec![frames[0]],
                2 => vec![frames[0], frames[1]],
                3 => vec![frames[0], frames[1], frames[2]],
                // The completion line for t1 survived too.
                _ => vec![frames[0], frames[2]],
            };
            let got: Vec<&str> = replay.iter().map(|e| e.frame.as_str()).collect();
            assert_eq!(got, expect, "cut at byte {cut}/{}", wal.len());
        }
        let _ = std::fs::remove_dir_all(&scratch);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_torn_appends_lose_only_their_own_frame() {
        // Sweep seeds until the injector tears at least one append, and
        // pin the isolation property: frames after a torn one survive.
        let mut torn_seen = false;
        for seed in 0..64u64 {
            let chaos = Chaos::seeded(seed);
            let torn: Vec<u64> = (0..12)
                .filter(|&s| chaos.fault_for_journal_append(s).is_some())
                .collect();
            if torn.is_empty() || torn.len() == 12 {
                continue;
            }
            torn_seen = true;
            let dir = tmp_dir(&format!("chaos-{seed}"));
            let (journal, _) = Journal::open(&dir, chaos).unwrap();
            for i in 0..12u64 {
                journal.accepted(&format!("{{\"id\":\"c{i}\"}}"));
            }
            drop(journal);
            let (_, replay) = Journal::open(&dir, Chaos::disabled()).unwrap();
            let got: Vec<u64> = replay.iter().map(|e| e.seq).collect();
            let expect: Vec<u64> = (0..12).filter(|s| !torn.contains(s)).collect();
            assert_eq!(got, expect, "seed {seed}: exactly the torn frames are lost");
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(torn_seen, "the sweep exercised at least one torn append");
    }
}
