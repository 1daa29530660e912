//! Real-time driver: runs a [`Runtime`] against the wall clock.
//!
//! The executor waits until the physical clock passes the next tag before
//! processing it ("no events are handled before physical time exceeds
//! their tag", §III.A), and accepts physical-action injections from other
//! threads through cheap clonable [`Injector`] handles — the runtime's
//! door for sporadic sensors and network interrupts.

use crate::clock::{PhysicalClock, RealClock};
use crate::handles::{ActionId, PhysicalAction};
use crate::program::Value;
use crate::runtime::{Runtime, RuntimeStats, StepOutcome};
use dear_time::{Duration, Instant};
use std::sync::mpsc;

enum Command {
    Inject(ActionId, Value),
    Stop,
}

/// Injects values into one physical action of a running executor.
///
/// Clonable and sendable across threads.
pub struct Injector<T> {
    tx: mpsc::Sender<Command>,
    action: ActionId,
    _marker: std::marker::PhantomData<fn(T) -> T>,
}

impl<T> Clone for Injector<T> {
    fn clone(&self) -> Self {
        Injector {
            tx: self.tx.clone(),
            action: self.action,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T> std::fmt::Debug for Injector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Injector({})", self.action)
    }
}

impl<T: Send + Sync + 'static> Injector<T> {
    /// Sends a value; it will be tagged with the physical time at which
    /// the executor drains it. Returns `false` if the executor is gone.
    pub fn inject(&self, value: T) -> bool {
        self.tx
            .send(Command::Inject(self.action, Box::new(value)))
            .is_ok()
    }
}

/// A handle to request an executor stop from another thread.
#[derive(Debug, Clone)]
pub struct StopHandle {
    tx: mpsc::Sender<Command>,
}

impl StopHandle {
    /// Requests a graceful stop. Returns `false` if the executor is gone.
    pub fn stop(&self) -> bool {
        self.tx.send(Command::Stop).is_ok()
    }
}

/// Drives a [`Runtime`] in real time.
///
/// # Examples
///
/// ```
/// use dear_core::{ProgramBuilder, RealTimeExecutor, Startup};
/// use dear_time::Duration;
///
/// let mut b = ProgramBuilder::new();
/// let mut r = b.reactor("ticker", 0u32);
/// let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
/// r.reaction("tick").triggered_by(t).body(|n: &mut u32, ctx| {
///     *n += 1;
///     if *n == 3 {
///         ctx.request_shutdown();
///     }
/// });
/// r.finish();
///
/// let mut exec = RealTimeExecutor::new(b.build()?);
/// let stats = exec.run();
/// assert_eq!(stats.executed_reactions, 3);
/// # Ok::<(), dear_core::AssemblyError>(())
/// ```
pub struct RealTimeExecutor {
    runtime: Runtime,
    clock: RealClock,
    tx: Option<mpsc::Sender<Command>>,
    rx: mpsc::Receiver<Command>,
}

impl std::fmt::Debug for RealTimeExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealTimeExecutor")
            .field("runtime", &self.runtime)
            .finish()
    }
}

impl RealTimeExecutor {
    /// Creates an executor for the given program.
    #[must_use]
    pub fn new(program: crate::program::Program) -> Self {
        let (tx, rx) = mpsc::channel();
        RealTimeExecutor {
            runtime: Runtime::new(program),
            clock: RealClock::starting_at(Instant::EPOCH),
            tx: Some(tx),
            rx,
        }
    }

    /// Creates an injector for a physical action, usable from any thread.
    ///
    /// # Panics
    ///
    /// Panics if called after [`run`](Self::run) has returned.
    #[must_use]
    pub fn injector<T: Send + Sync + 'static>(&self, action: &PhysicalAction<T>) -> Injector<T> {
        Injector {
            tx: self.tx.as_ref().expect("executor already ran").clone(),
            action: action.id(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Creates a handle that can stop the executor from another thread.
    ///
    /// # Panics
    ///
    /// Panics if called after [`run`](Self::run) has returned.
    #[must_use]
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            tx: self.tx.as_ref().expect("executor already ran").clone(),
        }
    }

    fn drain(&mut self) -> bool {
        let mut stop = false;
        while let Ok(cmd) = self.rx.try_recv() {
            match cmd {
                Command::Inject(action, value) => {
                    let now = self.clock.now();
                    self.runtime.schedule_physical_raw(action, value, now).ok();
                }
                Command::Stop => stop = true,
            }
        }
        stop
    }

    /// Runs to completion: until the runtime shuts down, or until the
    /// event queue is empty and no injector can ever fire again.
    ///
    /// Waiting honours the reactor rule that no event is processed before
    /// physical time reaches its tag.
    pub fn run(&mut self) -> RuntimeStats {
        // Drop our own sender so that `recv` disconnects once every
        // injector and stop handle is gone.
        drop(self.tx.take());
        self.runtime.start(self.clock.now());
        loop {
            if self.drain() {
                let _ = self
                    .runtime
                    .stop_at(self.clock.now() + Duration::from_nanos(1));
            }
            match self.runtime.next_tag() {
                Some(tag) => {
                    let now = self.clock.now();
                    if now < tag.time {
                        // Wait for the tag's time, but wake early for
                        // injections.
                        let wait = tag.time - now;
                        let wait = std::time::Duration::from_nanos(wait.as_nanos() as u64);
                        match self.rx.recv_timeout(wait) {
                            Ok(cmd) => {
                                self.apply(cmd);
                                continue;
                            }
                            Err(mpsc::RecvTimeoutError::Timeout) => {}
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                // No injector can ever fire; plain sleep.
                                std::thread::sleep(wait);
                            }
                        }
                    }
                    match self.runtime.step(self.clock.now()) {
                        StepOutcome::Stopped => break,
                        StepOutcome::Processed(_) | StepOutcome::Idle => {}
                    }
                }
                None => {
                    if !self.runtime.is_running() {
                        break;
                    }
                    // Idle: block until an injection arrives or all
                    // senders are gone.
                    match self.rx.recv() {
                        Ok(cmd) => self.apply(cmd),
                        Err(mpsc::RecvError) => break,
                    }
                }
            }
        }
        self.runtime.stats()
    }

    fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::Inject(action, value) => {
                let now = self.clock.now();
                self.runtime.schedule_physical_raw(action, value, now).ok();
            }
            Command::Stop => {
                let _ = self
                    .runtime
                    .stop_at(self.clock.now() + Duration::from_nanos(1));
            }
        }
    }
}
