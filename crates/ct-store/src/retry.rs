//! Deadline-budgeted retry of transient I/O errors, shared by the
//! local [`crate::Store`] and the HTTP [`crate::RemoteStore`] backend.
//!
//! The budget is *planned sleep*, not wall-clock time: each attempt's
//! backoff (1, 2, 4, ... ms) is charged against the budget before
//! sleeping, so retry counts stay deterministic under scheduler noise
//! — which the fault-campaign tests rely on.

use std::time::Duration;

/// The per-operation backoff budget, in milliseconds of planned
/// sleep, that a store operation may spend absorbing transient I/O
/// errors before surfacing them: 3, which admits exactly two retries
/// of the 1, 2, 4, ... ms backoff schedule.
pub(crate) const BUDGET_MS: u64 = 3;

/// The error classes worth retrying on a local disk: scheduler noise
/// and timeouts. Disk-full, permissions, and corruption are not
/// transient — retrying them only delays the caller's degradation
/// path.
pub(crate) fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

/// The error classes worth retrying over the wire: everything local
/// disks retry, plus the connection-lifecycle failures a restarting
/// or briefly-overloaded server produces.
pub(crate) fn is_remote_transient(e: &std::io::Error) -> bool {
    is_transient(e)
        || matches!(
            e.kind(),
            std::io::ErrorKind::ConnectionRefused
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::NotConnected
                | std::io::ErrorKind::UnexpectedEof
        )
}

/// Runs `op`, retrying errors classified transient by `transient`
/// with exponential backoff while the next planned sleep still fits
/// the deadline budget ([`BUDGET_MS`]). `observe` is called with each
/// backoff's planned milliseconds *before* the sleep, so the caller
/// can count the retry and feed its latency histogram.
/// Non-transient errors and exhausted budgets surface unchanged.
pub(crate) fn retry<T>(
    transient: impl Fn(&std::io::Error) -> bool,
    mut observe: impl FnMut(u64),
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut spent: u64 = 0;
    let mut attempt: u32 = 0;
    loop {
        match op() {
            Err(e) if transient(&e) => {
                let wait = 1u64 << attempt.min(6);
                if spent + wait > BUDGET_MS {
                    return Err(e);
                }
                attempt += 1;
                spent += wait;
                observe(wait);
                std::thread::sleep(Duration::from_millis(wait));
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surfaces_non_transient_immediately() {
        let mut calls = 0;
        let r: std::io::Result<()> = retry(
            is_transient,
            |_| panic!("no retries expected"),
            || {
                calls += 1;
                Err(std::io::Error::other("permanent"))
            },
        );
        assert!(r.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn remote_classifier_extends_local_one() {
        let refused = std::io::Error::from(std::io::ErrorKind::ConnectionRefused);
        assert!(!is_transient(&refused));
        assert!(is_remote_transient(&refused));
        let interrupted = std::io::Error::from(std::io::ErrorKind::Interrupted);
        assert!(is_remote_transient(&interrupted));
    }
}
