//! Observable fault counters for transactors.
//!
//! The DEAR philosophy is that violated assumptions become *observable
//! errors* rather than silent reordering (paper §IV.B). These counters
//! are where the faults surface.

use dear_time::Duration;
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

#[derive(Default)]
struct StatsInner {
    untagged_dropped: Cell<u64>,
    stp_violations: Cell<u64>,
    send_failures: Cell<u64>,
    failovers: Cell<u64>,
    // Coordination-message counters, recorded by the centralized driver
    // (`dear-federation`); they stay zero under decentralized coordination
    // so both drivers report comparable numbers.
    nets_sent: Cell<u64>,
    ltcs_sent: Cell<u64>,
    grants_received: Cell<u64>,
    ptags_received: Cell<u64>,
    bound_breaches: Cell<u64>,
    grant_wait_nanos: Cell<u64>,
    // Batched-coordination counters (hierarchical federations only): how
    // many multi-record control frames this platform sent and received.
    coord_batches_sent: Cell<u64>,
    coord_batches_received: Cell<u64>,
    // Control-plane diet counters: reports the platform *did not* send
    // (same-head NET dedup, DNET sink suppression) and windowed TAGs
    // received (one grant covering a run of future tags).
    nets_suppressed: Cell<u64>,
    windowed_grants: Cell<u64>,
    // Crash-recovery counter: outbound messages swallowed during log
    // replay because an earlier incarnation already put them on the wire.
    replay_suppressed: Cell<u64>,
}

/// Shared fault counters for one transactor binding.
#[derive(Clone, Default)]
pub struct TransactorStats(Rc<StatsInner>);

impl fmt::Debug for TransactorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransactorStats")
            .field("untagged_dropped", &self.untagged_dropped())
            .field("stp_violations", &self.stp_violations())
            .field("send_failures", &self.send_failures())
            .field("failovers", &self.failovers())
            .field("nets_sent", &self.nets_sent())
            .field("ltcs_sent", &self.ltcs_sent())
            .field("grants_received", &self.grants_received())
            .field("ptags_received", &self.ptags_received())
            .field("bound_breaches", &self.bound_breaches())
            .field("grant_wait", &self.grant_wait())
            .field("coord_batches_sent", &self.coord_batches_sent())
            .field("coord_batches_received", &self.coord_batches_received())
            .field("nets_suppressed", &self.nets_suppressed())
            .field("windowed_grants", &self.windowed_grants())
            .field("replay_suppressed", &self.replay_suppressed())
            .finish()
    }
}

impl fmt::Display for TransactorStats {
    /// One-line, greppable counter summary (the transactor-side analogue
    /// of `RuntimeStats`' Display), including the failover/STP counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stp_violations={} failovers={} untagged_dropped={} send_failures={} \
             nets={} ltcs={} grants={} ptags={} bound_breaches={} grant_wait={} batches={}/{} \
             suppressed={} windowed={} replayed={}",
            self.stp_violations(),
            self.failovers(),
            self.untagged_dropped(),
            self.send_failures(),
            self.nets_sent(),
            self.ltcs_sent(),
            self.grants_received(),
            self.ptags_received(),
            self.bound_breaches(),
            self.grant_wait(),
            self.coord_batches_sent(),
            self.coord_batches_received(),
            self.nets_suppressed(),
            self.windowed_grants(),
            self.replay_suppressed(),
        )
    }
}

impl TransactorStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Untagged messages dropped under [`UntaggedPolicy::Fail`].
    ///
    /// [`UntaggedPolicy::Fail`]: crate::UntaggedPolicy::Fail
    #[must_use]
    pub fn untagged_dropped(&self) -> u64 {
        self.0.untagged_dropped.get()
    }

    /// Messages whose release tag was no longer safe to process.
    #[must_use]
    pub fn stp_violations(&self) -> u64 {
        self.0.stp_violations.get()
    }

    /// Outgoing operations that failed: a call whose service was not
    /// discovered, or a server response no pending request matched.
    #[must_use]
    pub fn send_failures(&self) -> u64 {
        self.0.send_failures.get()
    }

    /// Provider re-bindings performed by a
    /// [`FailoverBinding`](crate::FailoverBinding): the subscription (and
    /// method routing) moved from a withdrawn, expired or suspected-dead
    /// provider to the next-priority one.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.0.failovers.get()
    }

    /// Records one provider re-binding.
    pub(crate) fn record_failover(&self) {
        self.0.failovers.set(self.0.failovers.get() + 1);
    }

    /// NET (next-event tag) reports sent to the RTI.
    #[must_use]
    pub fn nets_sent(&self) -> u64 {
        self.0.nets_sent.get()
    }

    /// LTC (logical tag complete) reports sent to the RTI.
    #[must_use]
    pub fn ltcs_sent(&self) -> u64 {
        self.0.ltcs_sent.get()
    }

    /// TAG grants received from the RTI (including provisional ones).
    #[must_use]
    pub fn grants_received(&self) -> u64 {
        self.0.grants_received.get()
    }

    /// PTAG (provisional) grants among the received grants.
    #[must_use]
    pub fn ptags_received(&self) -> u64 {
        self.0.ptags_received.get()
    }

    /// Tags processed beyond the last granted bound (must stay zero; a
    /// breach would mean the coordination layer failed to gate the
    /// runtime).
    #[must_use]
    pub fn bound_breaches(&self) -> u64 {
        self.0.bound_breaches.get()
    }

    /// Total true time spent blocked waiting for a grant to release the
    /// earliest pending tag.
    #[must_use]
    pub fn grant_wait(&self) -> Duration {
        Duration::from_nanos(i64::try_from(self.0.grant_wait_nanos.get()).unwrap_or(i64::MAX))
    }

    /// Records a NET report (centralized drivers only).
    pub fn record_net_sent(&self) {
        self.0.nets_sent.set(self.0.nets_sent.get() + 1);
    }

    /// Records an LTC report (centralized drivers only).
    pub fn record_ltc_sent(&self) {
        self.0.ltcs_sent.set(self.0.ltcs_sent.get() + 1);
    }

    /// Records a received grant; `provisional` marks a PTAG.
    pub fn record_grant_received(&self, provisional: bool) {
        self.0.grants_received.set(self.0.grants_received.get() + 1);
        if provisional {
            self.0.ptags_received.set(self.0.ptags_received.get() + 1);
        }
    }

    /// Records a tag processed beyond the granted bound (never expected).
    pub fn record_bound_breach(&self) {
        self.0.bound_breaches.set(self.0.bound_breaches.get() + 1);
    }

    /// Batched control frames sent (hierarchical federations pack LTC +
    /// NET records per frame; flat federations leave this at zero).
    #[must_use]
    pub fn coord_batches_sent(&self) -> u64 {
        self.0.coord_batches_sent.get()
    }

    /// Batched grant frames received from a zone coordinator.
    #[must_use]
    pub fn coord_batches_received(&self) -> u64 {
        self.0.coord_batches_received.get()
    }

    /// Records one batched control frame sent to the coordinator.
    pub fn record_coord_batch_sent(&self) {
        self.0
            .coord_batches_sent
            .set(self.0.coord_batches_sent.get() + 1);
    }

    /// Records one batched grant frame received from the coordinator.
    pub fn record_coord_batch_received(&self) {
        self.0
            .coord_batches_received
            .set(self.0.coord_batches_received.get() + 1);
    }

    /// Control-plane reports suppressed before hitting the wire: NETs
    /// deduped by an unchanged queue head, plus NET/LTC reports skipped
    /// under a coordinator-pushed DNET sink classification.
    #[must_use]
    pub fn nets_suppressed(&self) -> u64 {
        self.0.nets_suppressed.get()
    }

    /// Windowed TAG grants received: grants whose horizon ran past the
    /// strict bound, covering a run of future tags in one round-trip.
    #[must_use]
    pub fn windowed_grants(&self) -> u64 {
        self.0.windowed_grants.get()
    }

    /// Records one suppressed control-plane report.
    pub fn record_net_suppressed(&self) {
        self.0.nets_suppressed.set(self.0.nets_suppressed.get() + 1);
    }

    /// Records one windowed TAG grant.
    pub fn record_windowed_grant(&self) {
        self.0.windowed_grants.set(self.0.windowed_grants.get() + 1);
    }

    /// Outbound messages suppressed during crash-recovery replay: the
    /// drained-watermark in the durable log proved an earlier incarnation
    /// already sent them, so replay must not duplicate them on the wire.
    #[must_use]
    pub fn replay_suppressed(&self) -> u64 {
        self.0.replay_suppressed.get()
    }

    /// Records one replay-suppressed outbound message.
    pub fn record_replay_suppressed(&self) {
        self.0
            .replay_suppressed
            .set(self.0.replay_suppressed.get() + 1);
    }

    /// Accumulates time spent blocked on a grant.
    pub fn add_grant_wait(&self, wait: Duration) {
        let nanos = u64::try_from(wait.as_nanos().max(0)).unwrap_or(0);
        self.0
            .grant_wait_nanos
            .set(self.0.grant_wait_nanos.get().saturating_add(nanos));
    }

    pub(crate) fn record_untagged_dropped(&self) {
        self.0
            .untagged_dropped
            .set(self.0.untagged_dropped.get() + 1);
    }

    pub(crate) fn record_stp_violation(&self) {
        self.0.stp_violations.set(self.0.stp_violations.get() + 1);
    }

    pub(crate) fn record_send_failure(&self) {
        self.0.send_failures.set(self.0.send_failures.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let stats = TransactorStats::new();
        let other = stats.clone();
        stats.record_untagged_dropped();
        stats.record_stp_violation();
        stats.record_stp_violation();
        stats.record_send_failure();
        stats.record_failover();
        assert_eq!(other.untagged_dropped(), 1);
        assert_eq!(other.stp_violations(), 2);
        assert_eq!(other.send_failures(), 1);
        assert_eq!(other.failovers(), 1);
    }

    #[test]
    fn display_is_one_line_and_greppable() {
        let stats = TransactorStats::new();
        stats.record_stp_violation();
        stats.record_failover();
        stats.record_failover();
        let line = stats.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("stp_violations=1"));
        assert!(line.contains("failovers=2"));
        assert!(line.contains("bound_breaches=0"));
    }

    #[test]
    fn coordination_counters_accumulate() {
        let stats = TransactorStats::new();
        stats.record_net_sent();
        stats.record_net_sent();
        stats.record_ltc_sent();
        stats.record_grant_received(false);
        stats.record_grant_received(true);
        stats.add_grant_wait(Duration::from_micros(30));
        stats.add_grant_wait(Duration::from_micros(12));
        stats.record_coord_batch_sent();
        stats.record_coord_batch_received();
        stats.record_coord_batch_received();
        stats.record_net_suppressed();
        stats.record_net_suppressed();
        stats.record_net_suppressed();
        stats.record_windowed_grant();
        stats.record_replay_suppressed();
        stats.record_replay_suppressed();
        assert_eq!(stats.nets_sent(), 2);
        assert_eq!(stats.ltcs_sent(), 1);
        assert_eq!(stats.grants_received(), 2);
        assert_eq!(stats.ptags_received(), 1);
        assert_eq!(stats.bound_breaches(), 0);
        assert_eq!(stats.grant_wait(), Duration::from_micros(42));
        assert_eq!(stats.coord_batches_sent(), 1);
        assert_eq!(stats.coord_batches_received(), 2);
        assert_eq!(stats.nets_suppressed(), 3);
        assert_eq!(stats.windowed_grants(), 1);
        assert!(stats.to_string().contains("batches=1/2"));
        assert!(stats.to_string().contains("suppressed=3"));
        assert!(stats.to_string().contains("windowed=1"));
        assert_eq!(stats.replay_suppressed(), 2);
        assert!(stats.to_string().contains("replayed=2"));
    }
}
