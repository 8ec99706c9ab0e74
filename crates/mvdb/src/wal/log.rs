//! The write-ahead log file and its group-commit fsync machinery.
//!
//! Appends happen under the database's commit sequencer, so byte order in
//! the file equals commit-timestamp order — the log *is* the serialization
//! order made durable. Durability waits happen *outside* the sequencer:
//! a committer appends, releases every database lock, then blocks in
//! [`WalLog::wait_durable`] until its bytes are known to be on disk.
//!
//! Group commit uses the classic leader/follower pattern: the first waiter
//! to arrive becomes the leader, optionally dallies for `max_wait_us` so
//! trailing commits can pile into the same fsync, syncs once, and wakes
//! everyone whose offset the sync covered. Followers never touch the file.
//! (The vendored `parking_lot` stub has no `Condvar`, so the wait state
//! lives in a `std::sync` mutex/condvar pair.)

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use txtypes::{Error, Result};

/// Name of the log file inside a durable database directory.
pub const WAL_FILE: &str = "wal.log";

/// When (and whether) commits wait for an fsync before acknowledging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every commit waits for its own fsync (a leader still batches
    /// concurrent arrivals into one sync, but never dallies).
    Always,
    /// The fsync leader waits up to `max_wait_us` microseconds before
    /// syncing, trading commit latency for fewer, fatter syncs.
    GroupCommit {
        /// Maximum time the leader dallies to absorb trailing commits.
        max_wait_us: u64,
    },
    /// Commits never wait: the OS flushes when it pleases, and a crash
    /// loses every byte past the last incidental sync. Fast and honest
    /// about it.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> FsyncPolicy {
        FsyncPolicy::GroupCommit { max_wait_us: 100 }
    }
}

/// Test-only crash injection stages. Armed via
/// [`crate::Database::set_crash_point`]; the next time execution reaches the
/// armed stage the database "loses power": the WAL is truncated to its
/// durable prefix, further writes are refused, and the in-flight operation
/// returns an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash after the commit is appended to the log buffer but before any
    /// fsync covers it: the commit errors at the client AND is absent after
    /// recovery.
    PreFsync,
    /// Crash after the fsync but before the client is acknowledged: the
    /// commit errors at the client but IS present after recovery — the
    /// classic "unknown outcome" window.
    PostFsyncPreAck,
    /// Crash after the snapshot temp file is written but before the atomic
    /// rename: the half-written snapshot must be ignored by recovery.
    MidSnapshot,
    /// Crash after the snapshot is renamed into place but before the WAL is
    /// compacted: recovery must tolerate a log whose prefix predates the
    /// snapshot.
    PostSnapshotPreTruncate,
}

#[derive(Debug)]
struct WalFile {
    file: File,
    /// Bytes appended (buffered or synced). The next record's LSN.
    written: u64,
}

#[derive(Debug)]
struct SyncState {
    /// Bytes known to be on disk.
    durable: u64,
    /// A leader is currently (possibly) dallying + syncing.
    leader_active: bool,
    /// The simulated power cable has been pulled; all waits fail fast.
    crashed: bool,
    /// Bumped by compaction, which rewrites the file and invalidates byte
    /// offsets. A waiter whose wait began before a compaction is satisfied
    /// by it: compaction only runs after a snapshot covering those records
    /// is durably installed, and the compacted file is fsynced before the
    /// rename — either way the waiter's record is on disk.
    epoch: u64,
}

/// An append-only, checksummed, group-committed log file.
#[derive(Debug)]
pub struct WalLog {
    path: PathBuf,
    policy: FsyncPolicy,
    file: Mutex<WalFile>,
    sync: Mutex<SyncState>,
    wakeup: Condvar,
    armed_crash: Mutex<Option<CrashPoint>>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Serialization(format!("wal io ({what}): {e}"))
}

/// The error every operation returns once a simulated crash has fired.
pub fn crashed_err() -> Error {
    Error::InvalidState("database crashed (simulated power loss)".into())
}

impl WalLog {
    /// Opens (creating if absent) the log file in `dir` for appending.
    /// `durable_len` is the validated byte length recovery established; the
    /// file is truncated there so a torn tail can never be appended after.
    pub fn open(dir: &Path, policy: FsyncPolicy, durable_len: u64) -> Result<WalLog> {
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        file.set_len(durable_len)
            .map_err(|e| io_err("truncate", e))?;
        file.sync_all()
            .map_err(|e| io_err("sync after truncate", e))?;
        Ok(WalLog {
            path,
            policy,
            file: Mutex::new(WalFile {
                file,
                written: durable_len,
            }),
            sync: Mutex::new(SyncState {
                durable: durable_len,
                leader_active: false,
                crashed: false,
                epoch: 0,
            }),
            wakeup: Condvar::new(),
            armed_crash: Mutex::new(None),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        })
    }

    /// The fsync policy this log was opened with.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Number of records appended since open.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Number of fsyncs issued since open.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Bytes currently in the log file (appended, not necessarily synced).
    pub fn written_len(&self) -> u64 {
        self.file.lock().expect("wal file lock").written
    }

    /// Arms a crash point. The next operation reaching that stage pulls the
    /// plug. Test-only by convention (mirrors the existing
    /// `*_for_fault_injection` hooks).
    pub fn arm_crash_point(&self, point: CrashPoint) {
        *self.armed_crash.lock().expect("crash point lock") = Some(point);
    }

    /// Takes the armed crash point if it matches `at`.
    pub fn take_crash_point(&self, at: CrashPoint) -> bool {
        let mut armed = self.armed_crash.lock().expect("crash point lock");
        if *armed == Some(at) {
            *armed = None;
            true
        } else {
            false
        }
    }

    /// True once a simulated crash has fired.
    pub fn is_crashed(&self) -> bool {
        self.sync.lock().expect("sync lock").crashed
    }

    /// Appends an encoded record. MUST be called under the commit sequencer
    /// so file order equals commit order. Returns the log sequence number —
    /// the byte offset one past this record — to pass to
    /// [`WalLog::wait_durable`] after the sequencer is released.
    pub fn append(&self, frame: &[u8]) -> Result<u64> {
        let mut wal = self.file.lock().expect("wal file lock");
        if self.is_crashed() {
            return Err(crashed_err());
        }
        wal.file.write_all(frame).map_err(|e| io_err("append", e))?;
        wal.written += frame.len() as u64;
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(wal.written)
    }

    /// Blocks until every byte up to `lsn` is on disk (per the policy).
    /// MUST be called with no database locks held.
    pub fn wait_durable(&self, lsn: u64) -> Result<()> {
        if matches!(self.policy, FsyncPolicy::Never) {
            return Ok(());
        }
        let entry_epoch = self.sync.lock().expect("sync lock").epoch;
        loop {
            let mut sync = self.sync.lock().expect("sync lock");
            if sync.crashed {
                return Err(crashed_err());
            }
            // A compaction rewrote the file: byte offsets from before it are
            // meaningless, but the record is durable (see `SyncState::epoch`).
            if sync.epoch != entry_epoch || sync.durable >= lsn {
                return Ok(());
            }
            if sync.leader_active {
                // Follower: wait for the leader's sync (or a crash) and
                // re-check.
                let (guard, _) = self
                    .wakeup
                    .wait_timeout(sync, Duration::from_millis(50))
                    .expect("sync wait");
                drop(guard);
                continue;
            }
            sync.leader_active = true;
            let lead_epoch = sync.epoch;
            drop(sync);

            let result = self.lead_sync();

            let mut sync = self.sync.lock().expect("sync lock");
            sync.leader_active = false;
            match result {
                // The covered offset is only meaningful if no compaction
                // swapped the file out while the leader was syncing.
                Ok(durable) if sync.epoch == lead_epoch => {
                    sync.durable = sync.durable.max(durable);
                }
                Ok(_) => {}
                Err(e) => {
                    drop(sync);
                    self.wakeup.notify_all();
                    return Err(e);
                }
            }
            drop(sync);
            self.wakeup.notify_all();
        }
    }

    /// The leader's path: optionally dally so trailing commits join this
    /// sync, check for injected crashes, fsync once, and report the offset
    /// the sync covered.
    fn lead_sync(&self) -> Result<u64> {
        if let FsyncPolicy::GroupCommit { max_wait_us } = self.policy {
            if max_wait_us > 0 {
                std::thread::sleep(Duration::from_micros(max_wait_us));
            }
        }
        if self.take_crash_point(CrashPoint::PreFsync) {
            self.crash();
            return Err(crashed_err());
        }
        let wal = self.file.lock().expect("wal file lock");
        if self.is_crashed() {
            return Err(crashed_err());
        }
        let covered = wal.written;
        wal.file.sync_data().map_err(|e| io_err("fsync", e))?;
        drop(wal);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if self.take_crash_point(CrashPoint::PostFsyncPreAck) {
            // The bytes ARE durable; the crash happens before the client
            // hears about it. Record durability first so simulate_crash
            // keeps these bytes.
            let mut sync = self.sync.lock().expect("sync lock");
            sync.durable = sync.durable.max(covered);
            drop(sync);
            self.crash();
            return Err(crashed_err());
        }
        Ok(covered)
    }

    /// Pulls the plug: truncates the file to its durable prefix (bytes that
    /// were never fsynced vanish, exactly as they would on power loss),
    /// marks the log crashed, and wakes every waiter with an error.
    pub fn crash(&self) {
        let mut sync = self.sync.lock().expect("sync lock");
        if sync.crashed {
            return;
        }
        sync.crashed = true;
        let durable = sync.durable;
        drop(sync);
        if let Ok(wal) = self.file.lock() {
            // Keep exactly the prefix that was covered by an fsync; under
            // `Never` that is typically nothing — honest loss semantics.
            // Best-effort: the simulated machine is dying anyway.
            let _ = wal.file.set_len(durable);
            let _ = wal.file.sync_data();
        }
        self.wakeup.notify_all();
    }

    /// Records that compaction replaced the file: the whole new file is
    /// durable and old byte offsets are void (waiters from before the swap
    /// are released — their records are covered by the snapshot or the
    /// fsynced compacted file).
    fn note_compacted(&self, len: u64) {
        let mut sync = self.sync.lock().expect("sync lock");
        sync.durable = len;
        sync.epoch += 1;
        drop(sync);
        self.wakeup.notify_all();
    }

    /// Atomically replaces the log's contents with `frames` (already-framed
    /// records), used by snapshot compaction: write a temp file, fsync,
    /// rename over the live log, reopen. Called under the commit sequencer
    /// so no append can interleave.
    pub fn compact_to(&self, frames: &[u8]) -> Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("compact create", e))?;
            f.write_all(frames)
                .map_err(|e| io_err("compact write", e))?;
            f.sync_all().map_err(|e| io_err("compact sync", e))?;
        }
        let mut wal = self.file.lock().expect("wal file lock");
        if self.is_crashed() {
            let _ = std::fs::remove_file(&tmp);
            return Err(crashed_err());
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("compact rename", e))?;
        sync_dir(self.path.parent().unwrap_or_else(|| Path::new(".")))?;
        wal.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("compact reopen", e))?;
        wal.written = frames.len() as u64;
        drop(wal);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.note_compacted(frames.len() as u64);
        Ok(())
    }
}

/// Fsyncs a directory so a rename inside it survives power loss.
pub fn sync_dir(dir: &Path) -> Result<()> {
    let f = File::open(dir).map_err(|e| io_err("open dir", e))?;
    f.sync_all().map_err(|e| io_err("sync dir", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::codec::{encode_record, scan_wal, WalRecord};
    use txtypes::Timestamp;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mvdb-wal-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_wait_makes_bytes_durable() {
        let dir = temp_dir("durable");
        let log = WalLog::open(&dir, FsyncPolicy::Always, 0).unwrap();
        let frame = encode_record(&WalRecord::VacuumWatermark(Timestamp(1)));
        let lsn = log.append(&frame).unwrap();
        log.wait_durable(lsn).unwrap();
        assert_eq!(log.fsyncs(), 1);
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(scan_wal(&bytes).unwrap().records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_truncates_unsynced_tail() {
        let dir = temp_dir("crash");
        let log = WalLog::open(&dir, FsyncPolicy::Always, 0).unwrap();
        let frame = encode_record(&WalRecord::VacuumWatermark(Timestamp(1)));
        let lsn = log.append(&frame).unwrap();
        log.wait_durable(lsn).unwrap();
        // Second record appended but never synced.
        log.append(&encode_record(&WalRecord::VacuumWatermark(Timestamp(2))))
            .unwrap();
        log.crash();
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.records, vec![WalRecord::VacuumWatermark(Timestamp(1))]);
        assert!(log.append(&frame).is_err(), "appends refused post-crash");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn never_policy_skips_fsync() {
        let dir = temp_dir("never");
        let log = WalLog::open(&dir, FsyncPolicy::Never, 0).unwrap();
        let frame = encode_record(&WalRecord::VacuumWatermark(Timestamp(1)));
        let lsn = log.append(&frame).unwrap();
        log.wait_durable(lsn).unwrap();
        assert_eq!(log.fsyncs(), 0);
        // A crash wipes the whole log: nothing was ever promised.
        log.crash();
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert!(bytes.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let dir = temp_dir("group");
        let log = std::sync::Arc::new(
            WalLog::open(&dir, FsyncPolicy::GroupCommit { max_wait_us: 2_000 }, 0).unwrap(),
        );
        let frame = encode_record(&WalRecord::VacuumWatermark(Timestamp(1)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let log = log.clone();
            let frame = frame.clone();
            handles.push(std::thread::spawn(move || {
                let lsn = log.append(&frame).unwrap();
                log.wait_durable(lsn).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.appends(), 8);
        assert!(
            log.fsyncs() < 8,
            "expected batching: {} fsyncs for 8 appends",
            log.fsyncs()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
