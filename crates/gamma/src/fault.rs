//! Seeded, deterministic fault injection for durability testing.
//!
//! Crash recovery that is only exercised by real crashes is untestable, so
//! this module makes failure a reproducible input: a [`FaultPlan`] threaded
//! through `EngineConfig` names exact fault points — *worker `w` panics
//! after its `n`-th firing of wave `k`*, *worker `w` loses (or delays) its
//! `n`-th incoming delta*, *the wave pauses after `n` firings so a test can
//! snapshot mid-stream* — and the engines trip them at those points and
//! nowhere else. Because the points are counted in worker-local event
//! order, a plan replays identically run after run, which lets the fault
//! matrix assert byte-identical recovered finals against the fault-free
//! reference (the Generalized Kahn Principle again: the stable multiset is
//! a function of the input history, not of which wave attempt computed it).
//!
//! The fault points cost nothing when disabled: every check routes through
//! `WaveFaults::armed`, which is a compile-time `false` unless the
//! `fault-inject` cargo feature is on, so release builds fold the whole
//! mechanism away. With the feature on, faults fire only in the plan's
//! designated wave and — unless [`FaultPlan::persistent`] — only on the
//! wave's *first* attempt, so the bounded replay in `parallel.rs` observes
//! a transient fault it can actually recover from. Persistent plans keep
//! faulting on every replay attempt and exist to test the
//! `RecoveryPolicy::on_exhausted` paths.

use crate::telemetry::{Telemetry, TraceEvent};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// True when the crate was compiled with the `fault-inject` feature, i.e.
/// when [`FaultPlan`]s actually trip. Tests use this to skip gracefully in
/// default builds instead of failing on faults that never fire.
pub const ENABLED: bool = cfg!(feature = "fault-inject");

/// One deterministic fault point. Counters are 1-based and worker-local:
/// "the 2nd firing of worker 0" is the same event in every run with the
/// same seed and worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Worker `worker` panics immediately after completing its
    /// `at_firing`-th successful firing of the wave. Exercises the
    /// `catch_unwind` + wave-replay path of the parallel engine.
    WorkerPanic {
        /// Worker index to kill.
        worker: usize,
        /// 1-based firing count (worker-local) at which the panic trips.
        at_firing: u64,
    },
    /// Worker `worker` detects corruption of its `at_msg`-th incoming
    /// delta and panics in the absorb path — the engine-level model of a
    /// lost or mangled mailbox message. Recovery treats it exactly like a
    /// crashed worker: quarantine the wave and replay from its entry
    /// snapshot (silently dropping the delta instead would desynchronise
    /// the worker's Rete slice from the shared bag, which is precisely the
    /// state this fault exists to prove the engine survives).
    MailboxDrop {
        /// Worker whose mailbox loses a message.
        worker: usize,
        /// 1-based count of received deltas at which the loss occurs.
        at_msg: u64,
    },
    /// Worker `worker` stalls for `spins` scheduler yields before
    /// absorbing its `at_msg`-th incoming delta. No state is harmed; this
    /// stresses the drained-memories termination consensus, which must
    /// keep the wave alive (`sent > processed`) until the delta lands.
    MailboxDelay {
        /// Worker whose absorption stalls.
        worker: usize,
        /// 1-based count of received deltas at which the stall occurs.
        at_msg: u64,
        /// Number of `yield_now` calls to burn before absorbing.
        spins: u32,
    },
    /// Cap the designated wave at `at_firing` firings so it returns
    /// `Status::BudgetExhausted` mid-stream. This is the snapshot-mid-wave
    /// fault point: tests pause a run inside a wave, snapshot, restore
    /// into a fresh process image, grant budget, and continue.
    PauseMidWave {
        /// Firing count after which the wave pauses.
        at_firing: u64,
    },
}

/// A reproducible fault schedule, threaded through `EngineConfig`. The
/// default plan is empty and injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Wave index (0-based, matching `Session::waves_run`) the plan
    /// applies to. Faults in other waves never trip.
    pub wave: u64,
    /// When false (default), faults trip only on the wave's first attempt,
    /// so replay recovers. When true they trip on every replay attempt,
    /// driving the recovery policy to its `on_exhausted` action.
    pub persistent: bool,
    /// The fault points to arm.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan arming a single fault in wave `wave`.
    pub fn single(wave: u64, fault: Fault) -> Self {
        FaultPlan {
            wave,
            persistent: false,
            faults: vec![fault],
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A pseudo-random single-fault plan for wave 0, derived entirely from
    /// `seed`: the fault kind, target worker (`< workers`), and trip count
    /// all come from the seeded stream, so a test matrix over seeds gets
    /// varied but exactly reproducible fault placements.
    pub fn seeded(seed: u64, workers: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfa71_c0de_fa71_c0de);
        let worker = (rng.next_u64() as usize) % workers.max(1);
        let at = 1 + rng.next_u64() % 6;
        let fault = match rng.next_u64() % 3 {
            0 => Fault::WorkerPanic {
                worker,
                at_firing: at,
            },
            1 => Fault::MailboxDrop { worker, at_msg: at },
            _ => Fault::MailboxDelay {
                worker,
                at_msg: at,
                spins: 64,
            },
        };
        FaultPlan::single(0, fault)
    }
}

/// The per-attempt runtime view of a plan: knows which wave is executing
/// and which replay attempt this is, and answers "does anything trip
/// here?" on the hot paths. All checks compile to nothing without the
/// `fault-inject` feature.
#[derive(Clone, Copy)]
pub(crate) struct WaveFaults<'a> {
    plan: &'a FaultPlan,
    wave: u64,
    attempt: u32,
    tel: &'a Telemetry,
}

impl<'a> WaveFaults<'a> {
    /// View `plan` for attempt `attempt` of wave `wave`, reporting trips
    /// through `tel`.
    pub(crate) fn new(plan: &'a FaultPlan, wave: u64, attempt: u32, tel: &'a Telemetry) -> Self {
        WaveFaults {
            plan,
            wave,
            attempt,
            tel,
        }
    }

    /// Emit a [`TraceEvent::FaultTripped`] record. The fault coordinate
    /// doubles as the record's `wseq` (the tripping site is about to
    /// panic or stall, outside any worker's normal event counting), so
    /// trace determinism is not asserted under fault injection.
    fn trip(&self, kind: &str, worker: i64, at: u64) {
        if self.tel.enabled() {
            self.tel.emit(
                worker,
                at,
                self.wave,
                TraceEvent::FaultTripped {
                    kind: kind.to_string(),
                    worker,
                    at,
                },
            );
            // A panic follows most trips; make sure the record lands.
            self.tel.flush();
        }
    }

    /// Whether any fault can trip in this wave attempt. Constant `false`
    /// without the `fault-inject` feature — the branch folds away.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        ENABLED
            && !self.plan.faults.is_empty()
            && self.plan.wave == self.wave
            && (self.attempt == 0 || self.plan.persistent)
    }

    /// Fault point: worker `worker` just completed its `nth` firing.
    #[inline]
    pub(crate) fn on_firing(&self, worker: usize, nth: u64) {
        if !self.armed() {
            return;
        }
        for f in &self.plan.faults {
            if let Fault::WorkerPanic {
                worker: w,
                at_firing,
            } = f
            {
                if *w == worker && *at_firing == nth {
                    self.trip("worker_panic", worker as i64, nth);
                    panic!("injected fault: worker {worker} panic at firing {nth}");
                }
            }
        }
    }

    /// Fault point: worker `worker` is about to absorb its `nth` delta.
    #[inline]
    pub(crate) fn on_delta(&self, worker: usize, nth: u64) {
        if !self.armed() {
            return;
        }
        for f in &self.plan.faults {
            match f {
                Fault::MailboxDrop { worker: w, at_msg } if *w == worker && *at_msg == nth => {
                    self.trip("mailbox_drop", worker as i64, nth);
                    panic!("injected fault: worker {worker} lost delta {nth}");
                }
                Fault::MailboxDelay {
                    worker: w,
                    at_msg,
                    spins,
                } if *w == worker && *at_msg == nth => {
                    self.trip("mailbox_delay", worker as i64, nth);
                    for _ in 0..*spins {
                        std::thread::yield_now();
                    }
                }
                _ => {}
            }
        }
    }

    /// Firing cap for the snapshot-mid-wave fault, if one is armed.
    #[inline]
    pub(crate) fn pause_at(&self) -> Option<u64> {
        if !self.armed() {
            return None;
        }
        let at = self.plan.faults.iter().find_map(|f| match f {
            Fault::PauseMidWave { at_firing } => Some(*at_firing),
            _ => None,
        });
        if let Some(at_firing) = at {
            self.trip("pause_mid_wave", crate::telemetry::MAIN_WORKER, at_firing);
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        let tel = Telemetry::disabled();
        let wf = WaveFaults::new(&plan, 0, 0, &tel);
        assert!(!wf.armed());
        wf.on_firing(0, 1);
        wf.on_delta(0, 1);
        assert_eq!(wf.pause_at(), None);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        for seed in 0..32 {
            let a = FaultPlan::seeded(seed, 4);
            let b = FaultPlan::seeded(seed, 4);
            assert_eq!(a, b);
            match a.faults[0] {
                Fault::WorkerPanic { worker, at_firing } => {
                    assert!(worker < 4 && (1..=6).contains(&at_firing));
                }
                Fault::MailboxDrop { worker, at_msg }
                | Fault::MailboxDelay { worker, at_msg, .. } => {
                    assert!(worker < 4 && (1..=6).contains(&at_msg));
                }
                Fault::PauseMidWave { .. } => panic!("seeded plans target workers"),
            }
        }
    }

    #[test]
    fn faults_only_arm_on_their_wave_and_attempt() {
        let plan = FaultPlan::single(
            2,
            Fault::WorkerPanic {
                worker: 0,
                at_firing: 1,
            },
        );
        let tel = Telemetry::disabled();
        assert!(!WaveFaults::new(&plan, 1, 0, &tel).armed());
        assert_eq!(WaveFaults::new(&plan, 2, 0, &tel).armed(), ENABLED);
        // Replay attempts see a transient fault as already gone.
        assert!(!WaveFaults::new(&plan, 2, 1, &tel).armed());
        let persistent = FaultPlan {
            persistent: true,
            ..plan
        };
        assert_eq!(WaveFaults::new(&persistent, 2, 3, &tel).armed(), ENABLED);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn armed_panic_fault_trips() {
        let plan = FaultPlan::single(
            0,
            Fault::WorkerPanic {
                worker: 1,
                at_firing: 2,
            },
        );
        let ring = std::sync::Arc::new(crate::telemetry::RingSink::new(8));
        let tel = Telemetry::to_sink(ring.clone());
        let wf = WaveFaults::new(&plan, 0, 0, &tel);
        wf.on_firing(1, 1); // wrong count: no trip
        wf.on_firing(0, 2); // wrong worker: no trip
        assert!(ring.records().is_empty());
        // AssertUnwindSafe: the ring sink behind `tel` is a Mutex'd
        // buffer, consistent even if the panic lands mid-record.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wf.on_firing(1, 2)))
            .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected fault"), "{msg}");
        let records = ring.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind(), "fault_tripped");
        assert!(matches!(
            &records[0].event,
            TraceEvent::FaultTripped { kind, worker: 1, at: 2 } if kind == "worker_panic"
        ));
    }
}
