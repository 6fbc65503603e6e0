//! ULFM-style shrink-and-recover: survive rank failures instead of
//! aborting the run.
//!
//! The default error path (poison → [`crate::runner::try_run`] returns
//! [`crate::runner::RunError`]) kills the whole run on the first rank
//! failure. This module gives survivors a second option, modelled on
//! MPI's User-Level Failure Mitigation proposal:
//!
//! 1. **Detection.** A failure is *registered* in the world's failure
//!    registry either by the dying rank itself (its crash deadline
//!    passed, `Comm::check_crash`-style) or by a sender
//!    whose bounded retransmission budget to a peer ran out
//!    ([`crate::fault::RankError::RetriesExhausted`]).
//! 2. **Interrupt.** While recovery is *armed* (some rank is inside a
//!    recoverable section), every blocked wait — mailbox receives and
//!    the collective rendezvous — polls the registry and unwinds with
//!    a [`RecoveryInterrupt`] panic instead of waiting forever. The
//!    runner does **not** poison the world for interrupts or for
//!    registered root causes while armed, so survivors stay alive.
//! 3. **Consensus.** Survivors call `agree_survivors`, a fault-aware
//!    agreement over the *world* (not over any communicator, whose
//!    cells may be wedged mid-generation). It completes exactly when
//!    every member of the old communicator has either arrived or been
//!    registered dead, and returns the agreed survivor list, the agreed
//!    dead list, and a fresh [`CommState`] over the survivors.
//! 4. **Shrink.** [`crate::comm::Comm::shrink`] wraps the agreement and
//!    renumbers the caller into the survivor communicator (ranks are
//!    compacted in old-global-rank order).
//!
//! # Determinism
//!
//! Recovery preserves the runtime's replay contract. Crash deadlines
//! are pure functions of virtual time, and each rank's virtual clock at
//! its interrupt point is fixed by its deterministic execution prefix
//! (collectives complete all-or-none, so the index of the aborted
//! operation is the same in every replay). The agreement waits until
//! every old member is accounted for — arrived or registered dead —
//! so the agreed dead set and the agreed end time
//! (`max(arrival clocks) + comm_split_ns`) cannot depend on host
//! scheduling. A rank whose own deadline already passed dies *at
//! agreement entry*, exactly as it would have at its next operation.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::sync::Once;

use crate::fault::{RankAbort, RankError};
use crate::state::{CommState, Monitor, World};

/// Panic payload that unwinds a blocked survivor out of a dead
/// communicator and into the recovery driver (which catches it and
/// shrinks). Carries no data: the failure registry on the
/// [`World`] is the single source of truth for who died and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInterrupt;

/// Unwind the calling rank into the recovery layer.
pub(crate) fn interrupt() -> ! {
    std::panic::panic_any(RecoveryInterrupt)
}

/// Guard returned by [`crate::comm::Comm::arm_recovery`]. While at
/// least one guard is alive, registered rank failures interrupt blocked
/// survivors instead of poisoning the run.
///
/// Dropping the guard disarms — *except* during a panic: a crashing
/// rank intentionally leaks its arm so that the world stays armed while
/// its survivors recover, and so the runner classifies the failure as
/// recoverable rather than poisoning.
pub struct RecoveryGuard {
    world: Arc<World>,
}

impl RecoveryGuard {
    pub(crate) fn new(world: Arc<World>) -> Self {
        world.arm_recovery();
        Self { world }
    }
}

impl Drop for RecoveryGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.world.disarm_recovery();
        }
    }
}

/// The result of one survivor agreement: who lived, who died, when the
/// agreement ends in virtual time, and the communicator state the
/// survivors continue on.
pub(crate) struct Agreement {
    /// Surviving old-global ranks, ascending. Position = new rank.
    pub survivors: Vec<usize>,
    /// Old-global ranks agreed dead in *this* epoch, ascending.
    pub dead: Vec<usize>,
    /// Virtual instant at which every survivor leaves the agreement.
    pub end_ns: u64,
    /// Fresh communicator state over the survivors.
    pub state: Arc<CommState>,
}

#[derive(Default)]
pub(crate) struct AgreeInner {
    /// Completed-agreement count; a rank may only join when its own
    /// restart count matches.
    epoch: u64,
    /// Global rank → virtual clock at arrival.
    arrived: BTreeMap<usize, u64>,
    agreed: Option<Arc<Agreement>>,
    departed: usize,
}

/// World-level rendezvous backing [`agree_survivors`]. Lives on the
/// [`World`] (not on a communicator) because the old communicator's
/// collective cell may be wedged mid-generation when survivors need to
/// agree.
pub(crate) type AgreeCell = Monitor<AgreeInner>;

/// Fault-aware survivor consensus for agreement round `epoch` over the
/// members of a (dead) communicator.
///
/// Completes when every member of `members` has either arrived or been
/// registered in the failure registry; the last completer fixes the
/// survivor set, charges one `comm_split_ns` over the survivors'
/// worst link on top of the latest arrival clock, and builds the new
/// [`CommState`]. A caller that is itself registered dead — or whose
/// crash deadline already passed — terminates here with its own root
/// cause instead of surviving into the new epoch.
pub(crate) fn agree_survivors(
    world: &Arc<World>,
    members: &[usize],
    me_global: usize,
    epoch: u64,
) -> Arc<Agreement> {
    let me = &world.locals[me_global];

    // Deterministic self-checks before joining: a rank destined to die
    // before this agreement dies now, exactly as it would have at its
    // next runtime interaction.
    if let Some(deadline) = world.fault.crash_deadline(me_global) {
        if me.now_ns() >= deadline {
            let err = RankError::Crashed {
                rank: me_global,
                at_ns: deadline,
            };
            world.mark_rank_failed(me_global, err.clone());
            std::panic::panic_any(RankAbort(err));
        }
    }
    if let Some(err) = world.rank_failed(me_global) {
        std::panic::panic_any(RankAbort(err));
    }

    let enter_ns = me.now_ns();
    let cell = &world.agree;
    // Both waits unwind on poison only: `members` is empty, so the
    // agreement never interrupts itself.
    let joinable = |st: &mut AgreeInner| (st.epoch == epoch).then_some(());
    let st = cell.state.lock();
    let (mut st, ()) = world.block_until(me_global, &[], cell, st, joinable, |_, _| true);
    st.arrived.insert(me_global, enter_ns);
    world.sched.wake(members);

    let agree = |st: &mut AgreeInner| {
        if st.agreed.is_none() {
            // Re-derive the dead set on every pass: the registry can
            // grow while we wait (e.g. a straggling member's deadline
            // fires at its own agreement entry).
            let (dead, survivors): (Vec<usize>, Vec<usize>) = members
                .iter()
                .partition(|r| world.rank_failed(**r).is_some());
            let complete =
                !survivors.is_empty() && survivors.iter().all(|r| st.arrived.contains_key(r));
            if complete {
                let enter_max_ns = survivors
                    .iter()
                    .map(|r| st.arrived[r])
                    .max()
                    .unwrap_or(enter_ns);
                let cost = world.fault.cost_at(&world.cost, enter_max_ns);
                let worst = world.topology.worst_link(&survivors);
                // Charged like a communicator split: the agreement is a
                // synchronizing small-message collective over the old
                // group's size.
                let end_ns = enter_max_ns + cost.comm_split_ns(worst, members.len());
                let state = CommState::new(world.clone(), survivors.clone());
                st.agreed = Some(Arc::new(Agreement {
                    survivors,
                    dead,
                    end_ns,
                    state,
                }));
                world.sched.wake(members);
            }
        }
        st.agreed.clone()
    };
    let (mut st, agreement) = world.block_until(me_global, &[], cell, st, agree, |_, _| true);

    if agreement.survivors.binary_search(&me_global).is_err() {
        // Suspected dead while agreeing (a peer's retry budget to us
        // ran out): terminate with the registered cause.
        let err = world
            .rank_failed(me_global)
            .unwrap_or(RankError::PeerFailed { rank: me_global });
        drop(st);
        std::panic::panic_any(RankAbort(err));
    }
    st.departed += 1;
    if st.departed == agreement.survivors.len() {
        // Last departer resets the cell for the next epoch.
        st.departed = 0;
        st.arrived.clear();
        st.agreed = None;
        st.epoch += 1;
        // Next-epoch joiners may be any survivor subset; the registry
        // does not say who is waiting, so fan out.
        world.sched.wake_all();
    }
    drop(st);

    me.advance_to_ns(agreement.end_ns);
    me.counters
        .comm_ns
        .fetch_add(agreement.end_ns.saturating_sub(enter_ns), Ordering::Relaxed);
    me.counters.collectives.fetch_add(1, Ordering::Relaxed);
    agreement
}

/// Result of a successful [`crate::comm::Comm::shrink`].
pub struct Shrunk {
    /// The survivor communicator; the caller's rank is its position in
    /// the ascending list of surviving old-global ranks.
    pub comm: crate::comm::Comm,
    /// Old-global ranks of all survivors, ascending.
    pub survivors: Vec<usize>,
    /// Old-global ranks agreed dead in this shrink, ascending.
    pub lost: Vec<usize>,
}

/// Install a process-wide panic hook that silences the runtime's
/// *structured* panics — [`RankAbort`] and [`RecoveryInterrupt`] are
/// control flow (caught by the runner or the recovery driver), not
/// bugs, and must not spam stderr. All other panics go to the previous
/// hook unchanged.
pub(crate) fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let structured =
                info.payload().is::<RankAbort>() || info.payload().is::<RecoveryInterrupt>();
            if !structured {
                previous(info);
            }
        }));
    });
}
