//! The workloads and the closed-loop driver.
//!
//! One driver thread plays the web-server tier: it waits for each reply
//! before sending the next request (a closed loop with one client), because
//! that is what a PHP worker does. Before every request the simulated clock
//! advances by an exponential inter-arrival time (mean 10 ms), the
//! invalidation stream is pumped, and every 128th request runs the
//! library's maintenance — the loop of `harness::run_experiment`, on the
//! real path. Every 4 096th request also vacuums the database, as a
//! deployment's autovacuum would: without it versions pile up and the
//! workloads slow down the longer (or the faster) they run.

use std::time::{Duration, Instant};

use rubis::{ClientSession, Interaction, WorkloadConfig};
use txtypes::Timestamp;

use crate::spans::{Recorder, SpanKind};
use crate::stack::Stack;
use crate::stats::SplitMix64;

/// Emulated user sessions, served round-robin.
pub const SESSIONS: usize = 64;
/// Mean simulated inter-arrival time between requests.
pub const INTERARRIVAL_MICROS: f64 = 10_000.0;
/// Requests between two `maintenance` calls.
pub const MAINTENANCE_EVERY: u64 = 128;
/// Requests between two `Database::vacuum` calls (in the maintenance slot,
/// right after `maintenance` has released the expired pins).
pub const VACUUM_EVERY: u64 = 4_096;

/// Which interactions a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The standard RUBiS bidding mix (≈89 % read-only by the weights of
    /// `ClientSession::next_interaction`).
    Bidding,
    /// The bidding mix's read-only interactions only.
    BrowseOnly,
    /// Three of every five interactions are forced read/write, the other
    /// two read-only.
    WriteHeavy,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    /// `false`: `CacheMode::Disabled`, no cache servers.
    pub cached: bool,
    /// Requests served before the window opens (part of no metric but
    /// `warmup_s`): enough for the hit rate to level off.
    pub warmup: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rubis_bidding",
        mix: Mix::Bidding,
        cached: true,
        warmup: 24_000,
    },
    Workload {
        name: "rubis_browse_hot",
        mix: Mix::BrowseOnly,
        cached: true,
        warmup: 40_000,
    },
    Workload {
        name: "rubis_write_heavy",
        mix: Mix::WriteHeavy,
        cached: true,
        warmup: 10_000,
    },
    Workload {
        name: "rubis_nocache",
        mix: Mix::Bidding,
        cached: false,
        warmup: 10_000,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How long a phase of the loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    Requests(u64),
    Time(Duration),
}

/// One served request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Time inside `ClientSession::run`.
    pub latency_ns: u64,
    pub interaction: Interaction,
    pub ok: bool,
    /// Database queries the transaction issued (`CommitInfo::db_queries`).
    pub db_queries: u32,
    /// Buffer-pool pages those queries touched (`CommitInfo::db_pages`).
    pub db_pages: u32,
}

/// What one phase of the loop did.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Wall time from the first request's clock tick to the last reply,
    /// `pump_invalidations`, `maintenance` and `vacuum` included.
    pub wall_ns: u64,
    /// The first failure's message, for the report.
    pub first_error: Option<String>,
}

/// The request generator and loop state, carried from warm-up into the
/// window so the stream continues rather than restarts.
pub struct Driver {
    mix: Mix,
    sessions: Vec<ClientSession>,
    arrivals: SplitMix64,
    /// Requests issued so far.
    pub issued: u64,
    /// Commit timestamp of the newest acknowledged read/write transaction.
    pub last_acked_commit: Timestamp,
}

impl Driver {
    pub fn new(workload: &Workload, stack: &Stack, seed: u64) -> Driver {
        let sessions = (0..SESSIONS)
            .map(|i| {
                ClientSession::new(
                    seed.wrapping_add(i as u64 + 1),
                    stack.scale,
                    WorkloadConfig::default(),
                )
            })
            .collect();
        Driver {
            mix: workload.mix,
            sessions,
            arrivals: SplitMix64::new(seed ^ 0x5eed),
            issued: 0,
            last_acked_commit: Timestamp::ZERO,
        }
    }

    fn pick(&mut self) -> (usize, Interaction) {
        let slot = (self.issued % SESSIONS as u64) as usize;
        let session = &mut self.sessions[slot];
        let want_read_only = match self.mix {
            Mix::Bidding => return (slot, session.next_interaction()),
            Mix::BrowseOnly => true,
            Mix::WriteHeavy => write_heavy_reads(self.issued),
        };
        loop {
            let interaction = session.next_interaction();
            if interaction.is_read_only() == want_read_only {
                return (slot, interaction);
            }
        }
    }

    /// Advances the simulated clock and delivers pending invalidations, as
    /// the loop does before every request. Also used by the audit.
    pub fn tick(&mut self, stack: &Stack, recorder: Option<&Recorder>) {
        stack
            .clock
            .advance_micros(self.arrivals.next_exp(INTERARRIVAL_MICROS));
        // The pump is a request's first span: it carries the number.
        spanned(recorder, SpanKind::Pump, Some(self.issued as u32), || {
            stack.txcache.pump_invalidations();
        });
    }

    /// Runs the loop for `length`.
    pub fn run(&mut self, stack: &Stack, length: Length, recorder: Option<&Recorder>) -> Phase {
        let mut phase = Phase::default();
        if let Length::Requests(n) = length {
            phase.samples.reserve(n as usize);
        }
        let started = Instant::now();
        let mut served = 0u64;
        loop {
            match length {
                Length::Requests(n) if served >= n => break,
                Length::Time(t) if served > 0 && started.elapsed() >= t => break,
                _ => {}
            }
            self.tick(stack, recorder);
            if self.issued.is_multiple_of(MAINTENANCE_EVERY) {
                spanned(recorder, SpanKind::Maintenance, None, || {
                    stack.txcache.maintenance();
                });
                if self.issued.is_multiple_of(VACUUM_EVERY) {
                    spanned(recorder, SpanKind::Vacuum, None, || {
                        stack.db.vacuum();
                    });
                }
            }
            let (slot, interaction) = self.pick();
            let session = &mut self.sessions[slot];
            let sent = Instant::now();
            let result = spanned(recorder, SpanKind::Interaction, None, || {
                session.run(&stack.app, interaction)
            });
            let replied = Instant::now();
            phase.wall_ns = (replied - started).as_nanos() as u64;
            let mut sample = Sample {
                latency_ns: (replied - sent).as_nanos() as u64,
                interaction,
                ok: false,
                db_queries: 0,
                db_pages: 0,
            };
            match result {
                Ok(report) => {
                    let commit = report.commit;
                    if !commit.read_only {
                        self.last_acked_commit = commit.timestamp;
                    }
                    sample.ok = true;
                    sample.db_queries = commit.db_queries as u32;
                    sample.db_pages = (commit.db_pages.hits + commit.db_pages.misses) as u32;
                }
                Err(e) => {
                    phase
                        .first_error
                        .get_or_insert_with(|| format!("{interaction:?}: {e}"));
                }
            }
            phase.samples.push(sample);
            self.issued += 1;
            served += 1;
        }
        phase
    }
}

/// `rubis_write_heavy`: requests 1 and 3 of every five are read-only, the
/// other three read/write.
fn write_heavy_reads(issued: u64) -> bool {
    issued % 5 % 2 == 1
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn spanned<R>(
    recorder: Option<&Recorder>,
    kind: SpanKind,
    txn: Option<u32>,
    f: impl FnOnce() -> R,
) -> R {
    match recorder {
        Some(r) => r.timed(kind, txn, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(workload(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn write_heavy_forces_three_writes_in_five() {
        let read_only: Vec<bool> = (0..10u64).map(write_heavy_reads).collect();
        assert_eq!(read_only.iter().filter(|r| !**r).count(), 6);
    }
}
