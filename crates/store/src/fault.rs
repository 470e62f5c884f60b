//! Deterministic fault injection for the physical read path and the WAL.
//!
//! A [`FaultInjector`] is installed on a [`Pager`](crate::Pager) and
//! consulted once per physical read *attempt* (initial read or retry),
//! and handed to the object store to be consulted once per WAL fsync.
//! Every decision is a pure function of the injector's seed, the
//! page id, and the operation's cumulative attempt number — never of
//! wall-clock time or thread scheduling — so a failing run is reproducible
//! from its `seed:rate:kind` profile alone, at any thread count.
//!
//! Two ways to drive it:
//!
//! * **Profiles** ([`FaultProfile`], parsed from `seed:rate:kind`): every
//!   attempt faults with probability `rate`, decided by a seeded hash.
//!   Rate-driven *transient* and *bit-flip* read faults are guaranteed to
//!   clear by a page's next attempt-multiple-of-three, so any read
//!   sequence succeeds within three attempts — a fault that never clears
//!   is not transient. Use `permanent` to model faults that stick. The
//!   write kind (`fsync`) fires on WAL fsyncs only.
//! * **Scripts** ([`FaultInjector::script`] plus `fail_nth_read` /
//!   `fail_page` / `fail_nth_fsync` / `kill_at_lsn` rules): exact
//!   schedules for deterministic tests — *these* can exhaust the retry
//!   budget or schedule a crash at an exact WAL position.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an injected fault does to the attempt it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The read fails but a retry may succeed (dropped request, timeout).
    Transient,
    /// The read fails and always will (media error). Never retried.
    Permanent,
    /// The read "succeeds" but one byte of the returned data is flipped;
    /// the page checksum catches it and the read is retried like a
    /// transient fault. Corrupt bytes are never served.
    BitFlip,
    /// The read succeeds but takes extra wall-clock time (slow sector).
    Latency,
    /// The reading thread panics mid-read — exercises the single-flight
    /// lease's panic guard. Only sensible from test scripts.
    Panic,
    /// A WAL fsync fails: no pending log byte becomes durable and the
    /// committing operation must abort (the commit record is withdrawn).
    FsyncFault,
}

impl FaultKind {
    /// Stable lower-case name (profile syntax, trace fields).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Permanent => "permanent",
            FaultKind::BitFlip => "bitflip",
            FaultKind::Latency => "latency",
            FaultKind::Panic => "panic",
            FaultKind::FsyncFault => "fsync",
        }
    }

    /// Parse a profile kind name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "transient" => Ok(FaultKind::Transient),
            "permanent" => Ok(FaultKind::Permanent),
            "bitflip" => Ok(FaultKind::BitFlip),
            "latency" => Ok(FaultKind::Latency),
            "panic" => Ok(FaultKind::Panic),
            "fsync" => Ok(FaultKind::FsyncFault),
            other => Err(format!(
                "unknown fault kind {other:?} (expected \
                 transient|permanent|bitflip|latency|panic|fsync)"
            )),
        }
    }

    /// Whether this kind fires on the write side (WAL fsyncs) rather than
    /// the read side.
    pub fn is_write_side(self) -> bool {
        self == FaultKind::FsyncFault
    }
}

/// A parsed `seed:rate:kind` fault profile (the CLI's `--fault-profile`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed of the per-attempt fault decisions.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given read attempt faults.
    pub rate: f64,
    /// What the injected faults do.
    pub kind: FaultKind,
}

impl FaultProfile {
    /// Parse `seed:rate:kind`, e.g. `42:0.05:transient`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut it = s.split(':');
        let (seed, rate, kind) = match (it.next(), it.next(), it.next(), it.next()) {
            (Some(seed), Some(rate), Some(kind), None) => (seed, rate, kind),
            _ => return Err(format!("fault profile {s:?} is not of the form seed:rate:kind")),
        };
        let seed = seed.parse::<u64>().map_err(|e| format!("bad fault seed {seed:?}: {e}"))?;
        let rate = rate.parse::<f64>().map_err(|e| format!("bad fault rate {rate:?}: {e}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} outside [0, 1]"));
        }
        Ok(Self { seed, rate, kind: FaultKind::parse(kind)? })
    }
}

/// How the pager retries transient faults: up to `max_retries` extra
/// attempts, sleeping `backoff * attempt` between them (linear backoff,
/// zero to disable sleeping in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt before giving up.
    pub max_retries: u32,
    /// Base sleep between attempts (scaled by the attempt number).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3, backoff: Duration::from_micros(100) }
    }
}

/// Counters describing injected faults and how the pager absorbed them.
/// Cumulative since the injector was installed — *not* cleared by
/// [`Pager::reset_stats`](crate::Pager::reset_stats), so a per-query
/// stats reset does not erase the run's fault history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults the injector fired (all kinds).
    pub injected: u64,
    /// Read attempts beyond a read's first (the retry traffic).
    pub retries: u64,
    /// Reads that exhausted the retry budget and surfaced an error.
    pub exhausted: u64,
    /// Checksum verification failures (latent corruption + bit flips).
    pub checksum_failures: u64,
    /// Permanent media errors surfaced.
    pub permanent_failures: u64,
}

/// An explicit scripted fault rule (exact, unlike rate-driven faults).
#[derive(Debug)]
enum FaultRule {
    /// Fire on the `n`-th physical read attempt the pager makes, globally
    /// (1-based).
    NthRead { n: u64, kind: FaultKind },
    /// Fire on reads of one page: the next `remaining` attempts
    /// (`None` = every attempt, forever).
    Page { page: u64, kind: FaultKind, remaining: Option<u32> },
    /// Fire on the `n`-th WAL fsync, globally (1-based).
    NthFsync { n: u64 },
    /// Raise the kill flag once a WAL record with `lsn` or beyond becomes
    /// durable — the crash harness's "stop here" marker.
    KillAtLsn { lsn: u64 },
}

/// SplitMix64: the attempt-decision hash. Full-period, well mixed, and
/// dependency-free.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic fault source consulted on every physical read attempt.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    rate: f64,
    kind: FaultKind,
    /// Extra wall-clock charged by `Latency` faults.
    latency: Duration,
    rules: Mutex<Vec<FaultRule>>,
    /// Cumulative read attempts per page — the deterministic "time" axis
    /// of rate decisions. Interleaving cannot reorder one page's attempts.
    attempts: Mutex<HashMap<u64, u64>>,
    /// Global attempt counter driving `NthRead` rules.
    reads: Mutex<u64>,
    /// Global fsync counter driving `NthFsync` rules.
    fsyncs: Mutex<u64>,
    /// Set by `KillAtLsn` rules: the harness should simulate a crash at
    /// its next poll point.
    kill: AtomicBool,
}

impl FaultInjector {
    /// Rate-driven injector from a profile.
    pub fn from_profile(p: &FaultProfile) -> Self {
        Self::seeded(p.seed, p.rate, p.kind)
    }

    /// Rate-driven injector: each attempt faults with probability `rate`,
    /// decided by `splitmix64(seed, page, attempt)`.
    pub fn seeded(seed: u64, rate: f64, kind: FaultKind) -> Self {
        Self {
            seed,
            rate: rate.clamp(0.0, 1.0),
            kind,
            latency: Duration::from_micros(500),
            rules: Mutex::new(Vec::new()),
            attempts: Mutex::new(HashMap::new()),
            reads: Mutex::new(0),
            fsyncs: Mutex::new(0),
            kill: AtomicBool::new(false),
        }
    }

    /// Script-only injector: faults exactly where rules say, nowhere else.
    pub fn script() -> Self {
        Self::seeded(0, 0.0, FaultKind::Transient)
    }

    /// Add a rule: fault the `n`-th physical read attempt (1-based,
    /// counted globally across all pages).
    pub fn fail_nth_read(self, n: u64, kind: FaultKind) -> Self {
        self.rules.lock().unwrap_or_else(|e| e.into_inner()).push(FaultRule::NthRead { n, kind });
        self
    }

    /// Add a rule: fault reads of `page` — the next `times` attempts, or
    /// every attempt forever when `times` is `None`.
    pub fn fail_page(self, page: u64, kind: FaultKind, times: Option<u32>) -> Self {
        self.rules.lock().unwrap_or_else(|e| e.into_inner()).push(FaultRule::Page {
            page,
            kind,
            remaining: times,
        });
        self
    }

    /// Add a rule: fail the `n`-th WAL fsync (1-based, counted globally).
    pub fn fail_nth_fsync(self, n: u64) -> Self {
        self.rules.lock().unwrap_or_else(|e| e.into_inner()).push(FaultRule::NthFsync { n });
        self
    }

    /// Add a rule: raise the kill flag once a WAL record at `lsn` or
    /// beyond becomes durable (the recovery harness polls
    /// [`kill_requested`](Self::kill_requested) and simulates a crash).
    pub fn kill_at_lsn(self, lsn: u64) -> Self {
        self.rules.lock().unwrap_or_else(|e| e.into_inner()).push(FaultRule::KillAtLsn { lsn });
        self
    }

    /// The delay a `Latency` fault charges.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Decide the fate of one physical read attempt of `page`. Advances
    /// the page's attempt counter; `None` means the attempt succeeds.
    pub fn decide(&self, page: u64) -> Option<FaultKind> {
        let read_no = {
            let mut reads = self.reads.lock().unwrap_or_else(|e| e.into_inner());
            *reads += 1;
            *reads
        };
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap_or_else(|e| e.into_inner());
            let a = attempts.entry(page).or_insert(0);
            *a += 1;
            *a
        };
        // Scripted rules fire first and are exact. Write-side kinds never
        // fire on the read path.
        {
            let mut rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
            for rule in rules.iter_mut() {
                match rule {
                    FaultRule::NthRead { n, kind } if *n == read_no && !kind.is_write_side() => {
                        return Some(*kind);
                    }
                    FaultRule::Page { page: p, kind, remaining }
                        if *p == page && !kind.is_write_side() =>
                    {
                        match remaining {
                            None => return Some(*kind),
                            Some(0) => {}
                            Some(r) => {
                                *r -= 1;
                                return Some(*kind);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        if self.rate <= 0.0 || self.kind.is_write_side() {
            return None;
        }
        // Rate-driven transient faults always clear on a page's
        // attempt-multiples-of-three, bounding any run of consecutive
        // faults at two — so a read under the default retry budget (3)
        // always succeeds eventually. Permanent faults have no such
        // escape: they model errors that stick.
        let recoverable = matches!(self.kind, FaultKind::Transient | FaultKind::BitFlip);
        if recoverable && attempt % 3 == 0 {
            return None;
        }
        let h =
            splitmix64(self.seed ^ splitmix64(page.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        (unit < self.rate).then_some(self.kind)
    }

    /// Deterministically pick the byte a `BitFlip` fault corrupts.
    pub fn flip_offset(&self, page: u64, modulus: usize) -> usize {
        (splitmix64(self.seed ^ page.wrapping_mul(0xD134_2543_DE82_EF95)) % modulus as u64) as usize
    }

    /// Decide the fate of one WAL fsync. Advances the global fsync
    /// counter; `true` means the fsync fails (no pending byte became
    /// durable) and the committing operation must abort.
    pub fn decide_fsync(&self) -> bool {
        let fsync_no = {
            let mut fsyncs = self.fsyncs.lock().unwrap_or_else(|e| e.into_inner());
            *fsyncs += 1;
            *fsyncs
        };
        {
            let rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
            for rule in rules.iter() {
                if let FaultRule::NthFsync { n } = rule {
                    if *n == fsync_no {
                        return true;
                    }
                }
            }
        }
        if self.rate > 0.0 && self.kind == FaultKind::FsyncFault {
            let h = splitmix64(self.seed ^ splitmix64(fsync_no ^ 0x5851_F42D_4C95_7F2D));
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            return unit < self.rate;
        }
        false
    }

    /// Observe that the WAL record at `lsn` just became durable; raises
    /// the kill flag when any `KillAtLsn` rule's target is reached.
    pub fn observe_lsn(&self, lsn: u64) {
        let rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
        for rule in rules.iter() {
            if let FaultRule::KillAtLsn { lsn: target } = rule {
                if lsn >= *target {
                    self.kill.store(true, Ordering::SeqCst);
                }
            }
        }
    }

    /// Whether a scripted crash point has been reached. The crash harness
    /// polls this after each mutation and simulates a kill when set.
    pub fn kill_requested(&self) -> bool {
        self.kill.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parses_and_rejects() {
        let p = FaultProfile::parse("42:0.05:transient").unwrap();
        assert_eq!(p, FaultProfile { seed: 42, rate: 0.05, kind: FaultKind::Transient });
        assert_eq!(FaultProfile::parse("7:1.0:permanent").unwrap().kind, FaultKind::Permanent);
        for bad in [
            "",
            "1:2",
            "x:0.1:transient",
            "1:nope:transient",
            "1:1.5:transient",
            "1:0.1:weird",
            "1:0.1:transient:extra",
        ] {
            assert!(FaultProfile::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let roll = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::seeded(seed, 0.5, FaultKind::Transient);
            (0..64).map(|p| inj.decide(p % 8).is_some()).collect()
        };
        assert_eq!(roll(1), roll(1), "same seed, same schedule");
        assert_ne!(roll(1), roll(2), "different seeds diverge");
    }

    #[test]
    fn transient_rate_faults_always_clear_within_three_attempts() {
        // Even at rate 1.0 a page's read sequence must reach a clean
        // attempt within three tries.
        let inj = FaultInjector::seeded(9, 1.0, FaultKind::Transient);
        for page in 0..32u64 {
            let mut cleared = false;
            for _ in 0..3 {
                if inj.decide(page).is_none() {
                    cleared = true;
                    break;
                }
            }
            assert!(cleared, "page {page} never cleared");
        }
        // Permanent faults at rate 1.0 never clear.
        let inj = FaultInjector::seeded(9, 1.0, FaultKind::Permanent);
        for _ in 0..8 {
            assert_eq!(inj.decide(3), Some(FaultKind::Permanent));
        }
    }

    #[test]
    fn scripted_rules_fire_exactly() {
        let inj = FaultInjector::script().fail_nth_read(2, FaultKind::Permanent).fail_page(
            5,
            FaultKind::Transient,
            Some(2),
        );
        assert_eq!(inj.decide(0), None); // read 1
        assert_eq!(inj.decide(0), Some(FaultKind::Permanent)); // read 2
        assert_eq!(inj.decide(5), Some(FaultKind::Transient)); // page rule 1/2
        assert_eq!(inj.decide(5), Some(FaultKind::Transient)); // page rule 2/2
        assert_eq!(inj.decide(5), None); // exhausted
    }

    #[test]
    fn fsync_is_the_only_write_side_kind() {
        assert_eq!(FaultProfile::parse("3:0.1:fsync").unwrap().kind, FaultKind::FsyncFault);
        for gone in ["3:0.1:write", "3:0.1:torn"] {
            assert!(FaultProfile::parse(gone).is_err(), "{gone:?} names no fault kind");
        }
        assert!(FaultKind::FsyncFault.is_write_side());
        assert!(!FaultKind::Transient.is_write_side());
    }

    #[test]
    fn fsync_kinds_never_fire_on_reads() {
        // An fsync profile at rate 1.0 must leave every read clean...
        let inj = FaultInjector::seeded(4, 1.0, FaultKind::FsyncFault);
        for page in 0..16u64 {
            assert_eq!(inj.decide(page), None);
        }
        // ...while failing every fsync.
        assert!(inj.decide_fsync());
    }

    #[test]
    fn scripted_fsync_rules_fire_exactly() {
        let inj = FaultInjector::script().fail_nth_fsync(3);
        assert!(!inj.decide_fsync()); // fsync 1
        assert!(!inj.decide_fsync()); // fsync 2
        assert!(inj.decide_fsync()); // fsync 3
        assert!(!inj.decide_fsync()); // fsync 4
    }

    #[test]
    fn kill_at_lsn_triggers_once_reached() {
        let inj = FaultInjector::script().kill_at_lsn(5);
        inj.observe_lsn(3);
        assert!(!inj.kill_requested());
        inj.observe_lsn(4);
        assert!(!inj.kill_requested());
        inj.observe_lsn(5);
        assert!(inj.kill_requested());
    }

    #[test]
    fn rate_driven_fsync_faults_are_deterministic() {
        let roll = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::seeded(seed, 0.5, FaultKind::FsyncFault);
            (0..64).map(|_| inj.decide_fsync()).collect()
        };
        assert_eq!(roll(1), roll(1), "same seed, same schedule");
        assert_ne!(roll(1), roll(2), "different seeds diverge");
        assert!(roll(1).iter().any(|&f| f), "rate 0.5 should fire sometimes");
        assert!(roll(1).iter().any(|&f| !f), "rate 0.5 should miss sometimes");
    }
}
