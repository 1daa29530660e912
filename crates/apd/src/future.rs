//! Futures/promises in simulated time.
//!
//! AP method calls return futures ("the implementation of the service
//! method is expected to return a future. As soon as the corresponding
//! promise is fulfilled, the server sends a message back to the client",
//! paper §II.A). [`SimFuture`] is the simulation-side equivalent: a
//! one-shot value container whose continuation runs inside the
//! discrete-event simulation when the paired [`SimPromise`] resolves.

use dear_sim::Simulation;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

type Callback<T> = Box<dyn FnOnce(&mut Simulation, T)>;

enum State<T> {
    Pending(Option<Callback<T>>),
    Resolved(Option<T>),
    Consumed,
}

/// The receiving end of a one-shot value.
pub(crate) struct SimFuture<T>(Rc<RefCell<State<T>>>);

impl<T> fmt::Debug for SimFuture<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match &*self.0.borrow() {
            State::Pending(_) => "pending",
            State::Resolved(_) => "resolved",
            State::Consumed => "consumed",
        };
        write!(f, "SimFuture({state})")
    }
}

/// The resolving end of a one-shot value.
pub(crate) struct SimPromise<T>(Rc<RefCell<State<T>>>);

impl<T> fmt::Debug for SimPromise<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimPromise")
    }
}

/// Creates a connected promise/future pair.
#[must_use]
pub(crate) fn promise<T>() -> (SimPromise<T>, SimFuture<T>) {
    let cell = Rc::new(RefCell::new(State::Pending(None)));
    (SimPromise(cell.clone()), SimFuture(cell))
}

/// Creates an already-resolved future.
#[must_use]
pub(crate) fn ready<T>(value: T) -> SimFuture<T> {
    SimFuture(Rc::new(RefCell::new(State::Resolved(Some(value)))))
}

impl<T: 'static> SimFuture<T> {
    /// Registers the continuation. If the value is already available, the
    /// continuation runs immediately (synchronously).
    ///
    /// # Panics
    ///
    /// Panics if a continuation was already registered or the value was
    /// already consumed — futures are one-shot.
    pub(crate) fn then(self, sim: &mut Simulation, f: impl FnOnce(&mut Simulation, T) + 'static) {
        let mut f: Option<Callback<T>> = Some(Box::new(f));
        let immediate = {
            let mut state = self.0.borrow_mut();
            match &mut *state {
                State::Pending(cb) => {
                    assert!(cb.is_none(), "future continuation already registered");
                    *cb = f.take();
                    None
                }
                State::Resolved(v) => {
                    let v = v.take().expect("resolved value missing");
                    *state = State::Consumed;
                    Some(v)
                }
                State::Consumed => panic!("future already consumed"),
            }
        };
        if let Some(v) = immediate {
            (f.take().expect("callback retained"))(sim, v);
        }
    }

    /// Returns `true` once the promise has resolved (and the value has not
    /// yet been delivered to a continuation).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn is_resolved(&self) -> bool {
        matches!(&*self.0.borrow(), State::Resolved(_))
    }

    /// Takes the value if resolved; `None` while pending.
    ///
    /// # Panics
    ///
    /// Panics if the value was already consumed.
    #[cfg(test)]
    pub(crate) fn try_take(&self) -> Option<T> {
        let mut state = self.0.borrow_mut();
        match &mut *state {
            State::Pending(_) => None,
            State::Resolved(v) => {
                let v = v.take().expect("resolved value missing");
                *state = State::Consumed;
                Some(v)
            }
            State::Consumed => panic!("future already consumed"),
        }
    }
}

impl<T: 'static> SimPromise<T> {
    /// Resolves the promise; a registered continuation runs immediately.
    ///
    /// # Panics
    ///
    /// Panics if the promise was already resolved.
    pub(crate) fn resolve(self, sim: &mut Simulation, value: T) {
        let cb = {
            let mut state = self.0.borrow_mut();
            match &mut *state {
                State::Pending(cb) => {
                    let cb = cb.take();
                    if cb.is_some() {
                        *state = State::Consumed;
                    } else {
                        *state = State::Resolved(Some(value));
                        return;
                    }
                    cb
                }
                _ => panic!("promise already resolved"),
            }
        };
        if let Some(cb) = cb {
            cb(sim, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_time::Duration;

    #[test]
    fn resolve_after_then() {
        let mut sim = Simulation::new(0);
        let (p, f) = promise::<u8>();
        let got = Rc::new(RefCell::new(None));
        let sink = got.clone();
        f.then(&mut sim, move |_s, v| *sink.borrow_mut() = Some(v));
        sim.schedule_in(Duration::from_millis(1), move |sim| p.resolve(sim, 9));
        sim.run_to_completion();
        assert_eq!(*got.borrow(), Some(9));
    }

    #[test]
    fn then_after_resolve_runs_immediately() {
        let mut sim = Simulation::new(0);
        let (p, f) = promise::<u8>();
        p.resolve(&mut sim, 4);
        assert!(f.is_resolved());
        let got = Rc::new(RefCell::new(None));
        let sink = got.clone();
        f.then(&mut sim, move |_s, v| *sink.borrow_mut() = Some(v));
        assert_eq!(*got.borrow(), Some(4));
    }

    #[test]
    fn ready_future_is_resolved() {
        let f = ready(1u8);
        assert!(f.is_resolved());
        assert_eq!(f.try_take(), Some(1));
    }

    #[test]
    fn try_take_pending_returns_none() {
        let (_p, f) = promise::<u8>();
        assert_eq!(f.try_take(), None);
        assert!(!f.is_resolved());
    }

    #[test]
    #[should_panic(expected = "already consumed")]
    fn double_take_panics() {
        let f = ready(1u8);
        assert_eq!(f.try_take(), Some(1));
        let _ = f.try_take();
    }

    #[test]
    #[should_panic(expected = "already resolved")]
    fn double_resolve_panics() {
        let mut sim = Simulation::new(0);
        let (p, f) = promise::<u8>();
        // Keep a second handle to the promise state via the future.
        let p2 = SimPromise(f.0.clone());
        p.resolve(&mut sim, 1);
        p2.resolve(&mut sim, 2);
    }
}
