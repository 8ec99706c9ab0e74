//! Correctness checks run by the same command that measures. Any failing
//! check makes the run report `correct: false` and exit non-zero.

use std::path::Path;
use std::time::Instant;

use mvdb::{Database, SnapshotId};
use pincushion::PincushionConfig;
use txtypes::{SimClock, Staleness, Timestamp};

use crate::driver::{Driver, Mix, Phase, Workload};
use crate::measure::Window;
use crate::spans::Recorder;
use crate::stack::Stack;
use crate::stats::{counter_delta, ratio, SplitMix64};

/// One named check and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// Read-only transactions in the snapshot audit.
pub const AUDIT_READS: u64 = 2_000;
/// Every this-many-th audit step commits a `store_bid` first.
pub const AUDIT_WRITE_EVERY: u64 = 10;
/// Distinct items the audit reads and bids on: few, so reads keep landing on
/// items whose bid count just changed.
const AUDIT_ITEMS: u64 = 32;

/// The paper's single-snapshot guarantee on the real path: inside one
/// read-only transaction `get_item(i).nb_of_bids` must equal
/// `get_bid_history(i).len()`, whichever tier answered each (one may be a
/// cache hit, the other a database read), while `store_bid` commits keep
/// changing both.
pub fn snapshot_audit(
    stack: &Stack,
    driver: &mut Driver,
    seed: u64,
    reads: u64,
    recorder: Option<&Recorder>,
) -> Check {
    let mut rng = SplitMix64::new(seed ^ 0xa0d1);
    let items = AUDIT_ITEMS.min(stack.scale.active_items as u64).max(1);
    let users = stack.scale.users.max(1) as u64;
    let mut violations = 0u64;
    let mut writes = 0u64;
    let mut hits = 0u64;
    let mut first = None;
    for step in 0..reads {
        driver.tick(stack, recorder);
        let item = 1 + rng.next_below(items) as i64;
        if step % AUDIT_WRITE_EVERY == 0 {
            let user = 1 + rng.next_below(users) as i64;
            let outcome = stack.app.begin_rw().and_then(|mut tx| {
                stack
                    .app
                    .store_bid(&mut tx, user, item, 1.0 + step as f64)?;
                tx.commit()
            });
            match outcome {
                Ok(commit) => {
                    driver.last_acked_commit = commit.timestamp;
                    writes += 1;
                }
                Err(e) => {
                    violations += 1;
                    first.get_or_insert_with(|| format!("store_bid({item}) failed: {e}"));
                }
            }
            driver.tick(stack, recorder);
        }
        let read_item = 1 + rng.next_below(items) as i64;
        let outcome = stack
            .app
            .begin_ro(Staleness::seconds(30))
            .and_then(|mut tx| {
                let details = stack.app.get_item(&mut tx, read_item)?;
                let history = stack.app.get_bid_history(&mut tx, read_item)?;
                let commit = tx.commit()?;
                Ok((details, history, commit))
            });
        match outcome {
            Ok((Some(details), history, commit)) => {
                hits += commit.cache_hits;
                if details.nb_of_bids != history.len() as i64 {
                    violations += 1;
                    first.get_or_insert_with(|| {
                        format!(
                            "item {read_item} at ts {:?}: nb_of_bids {} but {} bids in history",
                            commit.timestamp,
                            details.nb_of_bids,
                            history.len()
                        )
                    });
                }
            }
            Ok((None, ..)) => {
                violations += 1;
                first.get_or_insert_with(|| format!("active item {read_item} not found"));
            }
            Err(e) => {
                violations += 1;
                first.get_or_insert_with(|| format!("audit read of item {read_item} failed: {e}"));
            }
        }
    }
    Check::new(
        "snapshot_audit",
        violations == 0,
        format!(
            "{reads} read-only txns, {writes} store_bid commits, {hits} cache hits, {violations} violations{}",
            first.map(|f| format!(" (first: {f})")).unwrap_or_default()
        ),
    )
}

/// No operation may fail, degrade to a miss, or trip the protocol. Degraded
/// operations are counted since connect: warm-up and audit included.
pub fn health(stack: &Stack, phase: &Phase, window: &Window) -> Vec<Check> {
    let failed = phase.samples.iter().filter(|s| !s.ok).count();
    let failed_frac = ratio(failed as f64, phase.samples.len() as f64);
    let degraded = stack.remote.as_ref().map_or(0, |r| r.degraded_ops());
    let protocol_errors = counter_delta(
        &window.before.servers,
        &window.after.servers,
        "server.protocol.errors",
    );
    vec![
        Check::new(
            "failed_frac",
            failed_frac <= 0.001,
            format!(
                "{failed} of {} interactions failed{}",
                phase.samples.len(),
                phase
                    .first_error
                    .as_ref()
                    .map(|e| format!(" (first: {e})"))
                    .unwrap_or_default()
            ),
        ),
        Check::new(
            "degraded_ops",
            degraded == 0,
            format!("{degraded} cache operations degraded to misses since connect"),
        ),
        Check::new(
            "protocol_errors",
            protocol_errors == 0,
            format!("{protocol_errors} server protocol errors"),
        ),
    ]
}

/// The workload must have the shape its `why` promises.
pub fn shape(workload: &Workload, phase: &Phase, window: &Window) -> Vec<Check> {
    let n = phase.samples.len() as f64;
    let rw_share = ratio(
        phase
            .samples
            .iter()
            .filter(|s| !s.interaction.is_read_only())
            .count() as f64,
        n,
    );
    let hits = window.after.client.cache_hits - window.before.client.cache_hits;
    let mut checks = Vec::new();
    if !workload.cached {
        checks.push(Check::new(
            "shape_no_hits",
            hits == 0,
            format!("{hits} cache hits with caching disabled"),
        ));
    }
    match workload.mix {
        Mix::Bidding => checks.push(Check::new(
            "shape_rw_share",
            (0.08..=0.14).contains(&rw_share),
            format!("read/write share {rw_share:.4}, bidding mix expects 0.11"),
        )),
        Mix::BrowseOnly => {
            checks.push(Check::new(
                "shape_hit_rate",
                window.hit_rate() >= 0.85,
                format!(
                    "hit rate {:.4}, a hot cache needs >= 0.85",
                    window.hit_rate()
                ),
            ));
            checks.push(Check::new(
                "shape_no_wal_growth",
                window.wal_bytes() == 0 && rw_share == 0.0,
                format!(
                    "WAL grew {} bytes, read/write share {rw_share:.4}",
                    window.wal_bytes()
                ),
            ));
        }
        Mix::WriteHeavy => checks.push(Check::new(
            "shape_rw_share",
            (rw_share - 0.6).abs() <= 0.02,
            format!("read/write share {rw_share:.4}, expected 0.60 +- 0.02"),
        )),
    }
    checks
}

/// What the live database looked like when it was closed.
#[derive(Debug, Clone, Copy)]
pub struct ClosingState {
    pub digest: u64,
    pub last_acked_commit: Timestamp,
    pub db_config: mvdb::DbConfig,
    /// Database pins that outlived every pin the library knows of: each
    /// holds the vacuum horizon back for good.
    pub leaked_pins: u64,
}

impl ClosingState {
    /// Taken once the run is over. `state_digest` covers dead versions too,
    /// and the live database has vacuumed some that a replay of the WAL
    /// brings back; so every pin is released and the database vacuumed up to
    /// its newest commit here, and [`recovery`] vacuums the recovered one
    /// the same way before comparing.
    pub fn take(stack: &Stack, last_acked_commit: Timestamp) -> ClosingState {
        // The library's pins expire by the simulated clock...
        stack
            .clock
            .advance_micros(PincushionConfig::default().reap_after_micros + 1);
        stack.txcache.maintenance();
        // ...and what the database still holds then, the library has lost
        // track of.
        let mut leaked_pins = 0;
        for ts in stack.db.pinned_snapshots() {
            while stack.db.unpin(SnapshotId(ts)).is_ok() {
                leaked_pins += 1;
            }
        }
        stack.db.vacuum();
        ClosingState {
            digest: stack.db.state_digest(),
            last_acked_commit,
            db_config: stack.db_config,
            leaked_pins,
        }
    }
}

/// Durability: reopening the WAL directory must bring back exactly the state
/// the closed database had (both vacuumed up to the newest commit), up to
/// the last acknowledged commit. Returns the check and the seconds
/// `Database::recover` took.
pub fn recovery(wal_dir: &Path, closing: &ClosingState) -> (Check, f64) {
    let started = Instant::now();
    let recovered = Database::recover(wal_dir, closing.db_config, SimClock::new());
    let recover_s = started.elapsed().as_secs_f64();
    let check = match recovered {
        Ok(db) => {
            let latest = db.recovery_report().map(|r| r.recovered_latest);
            db.vacuum();
            let digest = db.state_digest();
            Check::new(
                "recovery",
                latest == Some(closing.last_acked_commit) && digest == closing.digest,
                format!(
                    "recovered_latest {latest:?} vs last acknowledged commit {:?}; digest {digest:#018x} vs {:#018x}; {recover_s:.3} s",
                    closing.last_acked_commit, closing.digest
                ),
            )
        }
        Err(e) => Check::new("recovery", false, format!("recover failed: {e}")),
    };
    (check, recover_s)
}
