//! Deterministic fault injection for the runtime's recovery paths.
//!
//! A *failpoint* is a named site in production code where a test can inject
//! a fault: a panic in a worker loop, a short write or byte corruption in
//! checkpoint I/O, a queue-full stall in the hand-off path. The facility is
//! zero-dependency and **feature-gated**: without `--features failpoints`
//! the `fail_point!` macro expands to nothing and [`io_fault`] is a
//! `const`-foldable `None`, so release builds carry no registry, no lock,
//! and no branch.
//!
//! With the feature on, tests drive sites through `configure`:
//!
//! ```ignore
//! failpoint::configure("worker::batch", FailAction::Panic, FireSpec::once());
//! // ... run the stream; the first batch handled by a worker panics ...
//! failpoint::clear();
//! ```
//!
//! Determinism: a site fires according to its [`FireSpec`] — skip the first
//! `after` evaluations, then fire `times` times, then stay off. Evaluation
//! counts are per-site and process-global, so tests that share site names
//! must serialise (the fault-injection suite runs each scenario under a
//! test-local guard and calls `clear` between scenarios).
//!
//! Sites are listed in `lint.toml` (`[failpoints] files`): the workspace
//! linter forbids `fail_point!` / `failpoint::` usage outside the
//! allowlisted modules so injection points cannot sprawl silently.

/// A fault a site can inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a recognisable message (worker-loop sites).
    Panic,
    /// Truncate an I/O buffer to `keep` bytes (checkpoint-write sites):
    /// simulates a torn write that a crash published.
    Truncate {
        /// Bytes to keep from the front of the buffer.
        keep: usize,
    },
    /// Flip the byte at `offset` (checkpoint-write sites): simulates media
    /// or transport corruption that framing must catch.
    CorruptByte {
        /// Byte offset to XOR with 0xFF (out of range = no-op).
        offset: usize,
    },
    /// Report the queue as full once so the caller takes its slow/park
    /// path deterministically (queue sites).
    Stall,
    /// Surface an injected I/O error (`ErrorKind::Other`) from the site
    /// (fsync/rename sites): simulates the syscall itself failing, which
    /// must abort the operation with an error instead of publishing.
    Error,
}

/// When a configured site actually fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FireSpec {
    /// Evaluations to skip before the first fire.
    pub after: u32,
    /// Number of evaluations that fire once armed (then the site goes
    /// quiet).
    pub times: u32,
}

impl FireSpec {
    /// Fire on the first evaluation, once.
    pub fn once() -> Self {
        Self { after: 0, times: 1 }
    }

    /// Fire on every evaluation, forever.
    pub fn always() -> Self {
        Self {
            after: 0,
            times: u32::MAX,
        }
    }

    /// Skip `after` evaluations, then fire once.
    pub fn nth(after: u32) -> Self {
        Self { after, times: 1 }
    }
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::{FailAction, FireSpec};
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    struct Site {
        action: FailAction,
        spec: FireSpec,
        /// Evaluations seen so far.
        seen: u32,
        /// Fires delivered so far.
        fired: u32,
    }

    fn sites() -> MutexGuard<'static, HashMap<String, Site>> {
        static SITES: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
        // lint:allow(hot_path_purity): test-only tooling — the registry
        // (and every caller of it) compiles away without `--features
        // failpoints`; production hot paths never reach this lock
        match SITES.get_or_init(|| Mutex::new(HashMap::new())).lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Arm `site` with `action` according to `spec`, replacing any previous
    /// configuration (and resetting its counters).
    pub fn configure(site: &str, action: FailAction, spec: FireSpec) {
        sites().insert(
            site.to_string(),
            Site {
                action,
                spec,
                seen: 0,
                fired: 0,
            },
        );
    }

    /// Disarm every site and reset all counters.
    pub fn clear() {
        sites().clear();
    }

    /// Evaluate `site`: `Some(action)` iff the site is armed and its
    /// [`FireSpec`] says this evaluation fires.
    pub fn hit(site: &str) -> Option<FailAction> {
        let mut map = sites();
        let entry = map.get_mut(site)?;
        let at = entry.seen;
        entry.seen = entry.seen.saturating_add(1);
        if at < entry.spec.after || entry.fired >= entry.spec.times {
            return None;
        }
        entry.fired = entry.fired.saturating_add(1);
        Some(entry.action.clone())
    }
}

#[cfg(feature = "failpoints")]
pub use registry::{clear, configure, hit};

/// Evaluate an I/O failpoint site. Checkpoint I/O calls this to learn
/// whether (and how) to corrupt the bytes it is about to write. Compiled
/// to a constant `None` without the `failpoints` feature.
#[inline]
pub fn io_fault(site: &str) -> Option<FailAction> {
    #[cfg(feature = "failpoints")]
    {
        hit(site)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        None
    }
}

/// Inject a panic (or other control-flow fault) at a named site.
///
/// Expands to nothing without `--features failpoints`. With the feature,
/// evaluates the site and panics with `"failpoint: <site>"` when the
/// configured action is [`FailAction::Panic`]; other actions at a
/// `fail_point!` site are ignored (they belong to I/O sites).
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        #[cfg(feature = "failpoints")]
        {
            if let Some($crate::failpoint::FailAction::Panic) = $crate::failpoint::hit($site) {
                panic!("failpoint: {}", $site);
            }
        }
    };
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    /// Sites used here are unique to this module, so the process-global
    /// registry cannot race the integration suite.
    #[test]
    fn fires_according_to_spec() {
        configure("unit::nth", FailAction::Panic, FireSpec::nth(2));
        assert_eq!(hit("unit::nth"), None, "skip 1");
        assert_eq!(hit("unit::nth"), None, "skip 2");
        assert_eq!(hit("unit::nth"), Some(FailAction::Panic), "fires on 3rd");
        assert_eq!(hit("unit::nth"), None, "single-shot");
    }

    #[test]
    fn unarmed_sites_are_silent() {
        assert_eq!(hit("unit::never-configured"), None);
    }

    #[test]
    fn reconfigure_resets_counters() {
        configure("unit::reset", FailAction::Stall, FireSpec::once());
        assert_eq!(hit("unit::reset"), Some(FailAction::Stall));
        assert_eq!(hit("unit::reset"), None);
        configure("unit::reset", FailAction::Stall, FireSpec::once());
        assert_eq!(hit("unit::reset"), Some(FailAction::Stall), "re-armed");
    }

    #[test]
    fn always_spec_keeps_firing() {
        configure("unit::always", FailAction::Panic, FireSpec::always());
        for _ in 0..10 {
            assert_eq!(hit("unit::always"), Some(FailAction::Panic));
        }
    }

    #[test]
    #[should_panic(expected = "failpoint: unit::macro")]
    fn macro_panics_when_armed() {
        configure("unit::macro", FailAction::Panic, FireSpec::once());
        fail_point!("unit::macro");
    }
}
