//! Behavioural tests of the reactor runtime: tag order, actions, timers,
//! deadlines, shutdown, physical actions, and STP violations.

use dear_core::{ProgramBuilder, Runtime, RuntimeError, Shutdown, Startup, StepOutcome, Tag};
use dear_time::{Duration, Instant};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

type Log = Arc<Mutex<Vec<String>>>;

fn log() -> Log {
    Arc::new(Mutex::new(Vec::new()))
}

fn push(log: &Log, s: impl Into<String>) {
    log.lock().unwrap().push(s.into());
}

#[test]
fn startup_then_shutdown_order() {
    let events = log();
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let l = events.clone();
    r.reaction("up").triggered_by(Startup).body(move |_, ctx| {
        push(&l, format!("startup@{}", ctx.tag()));
        ctx.request_shutdown();
    });
    let l = events.clone();
    r.reaction("down")
        .triggered_by(Shutdown)
        .body(move |_, ctx| push(&l, format!("shutdown@{}", ctx.tag())));
    r.finish();

    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    let got = events.lock().unwrap().clone();
    // Shutdown happens one microstep after the request.
    assert_eq!(
        got,
        vec![
            "startup@(0.000000000s, 0)".to_string(),
            "shutdown@(0.000000000s, 1)".to_string()
        ]
    );
    assert!(!rt.is_running());
}

#[test]
fn logical_action_ping_pong_advances_tags() {
    // A reactor schedules an action with 1 ms delay, 5 times.
    let events = log();
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("pinger", 0u32);
    let act = r.logical_action::<u32>("ping", Duration::from_millis(1));
    let l = events.clone();
    let a2 = act;
    r.reaction("kick")
        .triggered_by(Startup)
        .schedules(act)
        .body(move |_, ctx| ctx.schedule(a2, Duration::ZERO, 0));
    let l2 = l;
    r.reaction("pong")
        .triggered_by(act)
        .schedules(act)
        .body(move |count: &mut u32, ctx| {
            let v = *ctx.get_action(&act).unwrap();
            push(&l2, format!("{v}@{}", ctx.logical_time().as_millis_f64()));
            *count += 1;
            if *count < 5 {
                ctx.schedule(act, Duration::ZERO, v + 1);
            } else {
                ctx.request_shutdown();
            }
        });
    r.finish();

    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    let got = events.lock().unwrap().clone();
    assert_eq!(got, vec!["0@1", "1@2", "2@3", "3@4", "4@5"]);
}

#[test]
fn zero_delay_action_bumps_microstep() {
    let tags = Arc::new(Mutex::new(Vec::<Tag>::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", 0u32);
    let act = r.logical_action::<()>("a", Duration::ZERO);
    r.reaction("kick")
        .triggered_by(Startup)
        .schedules(act)
        .body(move |_, ctx| ctx.schedule(act, Duration::ZERO, ()));
    let t = tags.clone();
    r.reaction("observe")
        .triggered_by(act)
        .schedules(act)
        .body(move |count: &mut u32, ctx| {
            t.lock().unwrap().push(ctx.tag());
            *count += 1;
            if *count < 3 {
                ctx.schedule(act, Duration::ZERO, ());
            }
        });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    let got = tags.lock().unwrap().clone();
    assert_eq!(
        got,
        vec![
            Tag::new(Instant::EPOCH, 1),
            Tag::new(Instant::EPOCH, 2),
            Tag::new(Instant::EPOCH, 3),
        ]
    );
}

#[test]
fn out_of_order_schedules_in_one_reaction_arrive_in_tag_order() {
    // One reaction schedules the later event first: each value must
    // still arrive at its own tag, the earlier one first.
    let seen = Arc::new(Mutex::new(Vec::<(Tag, u32)>::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let act = r.logical_action::<u32>("a", Duration::ZERO);
    r.reaction("kick")
        .triggered_by(Startup)
        .schedules(act)
        .body(move |_, ctx| {
            ctx.schedule(act, Duration::from_millis(3), 3);
            ctx.schedule(act, Duration::from_millis(1), 1);
        });
    let s = seen.clone();
    r.reaction("observe").triggered_by(act).body(move |_, ctx| {
        s.lock()
            .unwrap()
            .push((ctx.tag(), *ctx.get_action(&act).unwrap()))
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    assert_eq!(
        *seen.lock().unwrap(),
        vec![
            (Tag::at(Instant::from_millis(1)), 1),
            (Tag::at(Instant::from_millis(3)), 3),
        ]
    );
}

#[test]
fn periodic_timer_fires_on_schedule() {
    let times = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let t = r.timer(
        "t",
        Duration::from_millis(5),
        Some(Duration::from_millis(10)),
    );
    let sink = times.clone();
    r.reaction("tick").triggered_by(t).body(move |_, ctx| {
        sink.lock().unwrap().push(ctx.logical_time());
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.stop_at(Instant::from_millis(40)).unwrap();
    rt.run_fast(u64::MAX);
    assert_eq!(
        *times.lock().unwrap(),
        vec![
            Instant::from_millis(5),
            Instant::from_millis(15),
            Instant::from_millis(25),
            Instant::from_millis(35),
        ]
    );
}

#[test]
fn stop_tag_is_final_later_events_are_dropped() {
    let count = Arc::new(Mutex::new(0u32));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(10)));
    let c = count.clone();
    r.reaction("tick").triggered_by(t).body(move |_, _| {
        *c.lock().unwrap() += 1;
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.stop_at(Instant::from_millis(25)).unwrap();
    rt.run_fast(u64::MAX);
    // Fires at 0, 10, 20 — then stop at 25 discards everything else.
    assert_eq!(*count.lock().unwrap(), 3);
    assert_eq!(rt.step_fast(), StepOutcome::Stopped);
}

#[test]
fn deadline_handler_runs_instead_of_body_on_late_launch() {
    let events = log();
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let t = r.timer("t", Duration::from_millis(10), None);
    let l_ok = events.clone();
    let l_miss = events.clone();
    r.reaction("work")
        .triggered_by(t)
        .with_deadline(Duration::from_millis(5), move |_, ctx| {
            push(&l_miss, format!("miss lag={}", ctx.lag()));
        })
        .body(move |_, ctx| push(&l_ok, format!("ok lag={}", ctx.lag())));
    r.finish();

    // Case 1: physical time only slightly behind -> body runs.
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    // physical 12ms for tag at 10ms: lag 2ms < 5ms deadline
    rt.step(Instant::from_millis(12));
    assert_eq!(*events.lock().unwrap(), vec!["ok lag=2ms"]);
    assert_eq!(rt.stats().deadline_misses, 0);
}

#[test]
fn deadline_miss_is_counted_and_handled() {
    let events = log();
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let t = r.timer("t", Duration::from_millis(10), None);
    let l_ok = events.clone();
    let l_miss = events.clone();
    r.reaction("work")
        .triggered_by(t)
        .with_deadline(Duration::from_millis(5), move |_, ctx| {
            push(&l_miss, format!("miss lag={}", ctx.lag()));
        })
        .body(move |_, ctx| push(&l_ok, format!("ok lag={}", ctx.lag())));
    r.finish();

    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    // physical 20ms for tag at 10ms: lag 10ms > 5ms deadline
    rt.step(Instant::from_millis(20));
    assert_eq!(*events.lock().unwrap(), vec!["miss lag=10ms"]);
    assert_eq!(rt.stats().deadline_misses, 1);
}

#[test]
fn physical_action_tagged_with_clock_reading() {
    let tags = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("sensor", ());
    let act = r.physical_action::<u8>("reading", Duration::ZERO);
    let sink = tags.clone();
    r.reaction("observe").triggered_by(act).body(move |_, ctx| {
        let v = *ctx.get_action(&act).unwrap();
        sink.lock().unwrap().push((ctx.tag(), v));
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    let tag = rt
        .schedule_physical(&act, 42, Instant::from_millis(3))
        .unwrap();
    assert_eq!(tag, Tag::at(Instant::from_millis(3)));
    rt.run_fast(u64::MAX);
    assert_eq!(
        *tags.lock().unwrap(),
        vec![(Tag::at(Instant::from_millis(3)), 42u8)]
    );
}

#[test]
fn physical_action_in_logical_past_is_bumped_forward() {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("sensor", ());
    let act = r.physical_action::<u8>("reading", Duration::ZERO);
    let t = r.timer("t", Duration::from_millis(10), None);
    r.reaction("tick").triggered_by(t).body(|_, _| {});
    r.reaction("observe").triggered_by(act).body(|_, _| {});
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(1); // processes the 10 ms timer tag
                    // Clock reading 5 ms is before the current tag (10 ms): bump.
    let tag = rt
        .schedule_physical(&act, 1, Instant::from_millis(5))
        .unwrap();
    assert_eq!(tag, Tag::new(Instant::from_millis(10), 1));
}

#[test]
fn schedule_physical_at_rejects_past_tags_as_stp_violation() {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("net", ());
    let act = r.physical_action::<u8>("msg", Duration::ZERO);
    let t = r.timer("t", Duration::from_millis(10), None);
    r.reaction("tick").triggered_by(t).body(|_, _| {});
    r.reaction("observe").triggered_by(act).body(|_, _| {});
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(1);
    let err = rt
        .schedule_physical_at(&act, 9, Tag::at(Instant::from_millis(5)))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::StpViolation { .. }));
    assert_eq!(rt.stats().stp_violations, 1);
    // A future tag is accepted.
    rt.schedule_physical_at(&act, 9, Tag::at(Instant::from_millis(15)))
        .unwrap();
    rt.run_fast(u64::MAX);
    assert_eq!(rt.stats().stp_violations, 1);
}

#[test]
fn values_fan_out_to_all_connected_inputs() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut src = b.reactor("src", ());
    let out = src.output::<String>("o");
    src.reaction("emit")
        .triggered_by(Startup)
        .effects(out)
        .body(move |_, ctx| ctx.set(out, "hello".to_string()));
    src.finish();
    let mut inputs = Vec::new();
    for i in 0..3 {
        let mut c = b.reactor(&format!("sink{i}"), ());
        let inp = c.input::<String>("i");
        let s = seen.clone();
        c.reaction("recv").triggered_by(inp).body(move |_, ctx| {
            s.lock()
                .unwrap()
                .push(format!("{i}:{}", ctx.get(inp).unwrap()));
        });
        inputs.push(inp);
        c.finish();
    }
    for inp in inputs {
        b.connect(out, inp).unwrap();
    }
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    let mut got = seen.lock().unwrap().clone();
    got.sort();
    assert_eq!(got, vec!["0:hello", "1:hello", "2:hello"]);
}

#[test]
fn ports_are_cleared_between_tags() {
    let observations = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", 0u32);
    let out = r.output::<u32>("o");
    let inp = r.input::<u32>("i");
    let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
    let obs = observations.clone();
    // Reaction 1: writes only on the first firing.
    r.reaction("maybe_write")
        .triggered_by(t)
        .effects(out)
        .body(move |n: &mut u32, ctx| {
            if *n == 0 {
                ctx.set(out, 7);
            }
            *n += 1;
        });
    // Reaction 2: observes presence of the loop-connected input.
    r.reaction("check")
        .triggered_by(t)
        .uses(inp)
        .body(move |_, ctx| {
            obs.lock().unwrap().push(ctx.get(inp).copied());
        });
    r.finish();
    b.connect(out, inp).unwrap();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.stop_at(Instant::from_micros(2500)).unwrap();
    rt.run_fast(u64::MAX);
    assert_eq!(*observations.lock().unwrap(), vec![Some(7), None, None]);
}

#[test]
fn two_timers_same_tag_fire_together() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let t1 = r.timer("t1", Duration::from_millis(5), None);
    let t2 = r.timer("t2", Duration::from_millis(5), None);
    let s = seen.clone();
    r.reaction("a").triggered_by(t1).body(move |_, ctx| {
        s.lock().unwrap().push(("a", ctx.tag()));
    });
    let s = seen.clone();
    r.reaction("b").triggered_by(t2).body(move |_, ctx| {
        s.lock().unwrap().push(("b", ctx.tag()));
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    let got = seen.lock().unwrap().clone();
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].1, got[1].1, "same tag");
    assert_eq!((got[0].0, got[1].0), ("a", "b"), "priority order");
    // One tag processed for both timers.
    assert_eq!(rt.stats().processed_tags, 1);
}

#[test]
fn reaction_reads_back_its_own_write() {
    let got = Arc::new(Mutex::new(None));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let out = r.output::<u32>("o");
    let g = got.clone();
    r.reaction("w")
        .triggered_by(Startup)
        .effects(out)
        .body(move |_, ctx| {
            ctx.set(out, 5);
            *g.lock().unwrap() = ctx.get(out).copied();
        });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    assert_eq!(*got.lock().unwrap(), Some(5));
}

#[test]
#[should_panic(expected = "without declaring it as an effect")]
fn undeclared_write_panics() {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let out = r.output::<u32>("o");
    r.reaction("w")
        .triggered_by(Startup)
        .body(move |_, ctx| ctx.set(out, 5)); // no .effects(out)
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
}

#[test]
#[should_panic(expected = "without declaring it as a trigger or use")]
fn undeclared_read_panics() {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let out = r.output::<u32>("o");
    let inp = r.input::<u32>("i");
    r.reaction("w")
        .triggered_by(Startup)
        .effects(out)
        .body(move |_, ctx| {
            ctx.set(out, 1);
            let _ = ctx.get(inp); // undeclared read
        });
    r.finish();
    b.connect(out, inp).unwrap();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
}

#[test]
fn stats_track_processed_tags_and_reactions() {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
    r.reaction("tick").triggered_by(t).body(|_, _| {});
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.stop_at(Instant::from_micros(4500)).unwrap();
    rt.run_fast(u64::MAX);
    let stats = rt.stats();
    assert_eq!(stats.executed_reactions, 5); // ticks at 0..4 ms
    assert_eq!(stats.processed_tags, 6); // five ticks + shutdown tag
}

#[test]
fn idle_runtime_reports_idle_then_accepts_more_events() {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let act = r.physical_action::<()>("a", Duration::ZERO);
    r.reaction("o").triggered_by(act).body(|_, _| {});
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    assert_eq!(rt.step_fast(), StepOutcome::Idle);
    rt.schedule_physical(&act, (), Instant::from_millis(1))
        .unwrap();
    assert!(matches!(rt.step_fast(), StepOutcome::Processed(_)));
}

#[test]
fn injection_before_start_is_rejected() {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let act = r.physical_action::<()>("a", Duration::ZERO);
    r.reaction("o").triggered_by(act).body(|_, _| {});
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    let err = rt.schedule_physical(&act, (), Instant::EPOCH).unwrap_err();
    assert_eq!(err, RuntimeError::NotRunning);
}

#[test]
fn trace_fingerprint_identical_across_runs() {
    fn run() -> u64 {
        let mut b = ProgramBuilder::new();
        let mut r = b.reactor("r", 0u32);
        let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
        let act = r.logical_action::<u32>("a", Duration::from_micros(100));
        r.reaction("tick")
            .triggered_by(t)
            .schedules(act)
            .body(move |n: &mut u32, ctx| {
                *n += 1;
                ctx.schedule(act, Duration::ZERO, *n);
            });
        r.reaction("obs").triggered_by(act).body(|_, _| {});
        r.finish();
        let mut rt = Runtime::new(b.build().unwrap());
        rt.enable_tracing();
        rt.start(Instant::EPOCH);
        rt.stop_at(Instant::from_millis(10)).unwrap();
        rt.run_fast(u64::MAX);
        rt.trace_log().fingerprint()
    }
    assert_eq!(run(), run());
}

#[test]
fn tag_bound_gates_step_and_counts_deferrals() {
    let events = log();
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
    let sink = events.clone();
    r.reaction("tick").triggered_by(t).body(move |_, ctx| {
        push(&sink, format!("{}", ctx.logical_time().as_millis_f64()));
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);

    // Exclusive bound at 2ms: only the 0ms and 1ms tags may be processed.
    rt.set_tag_bound(Tag::at(Instant::from_millis(2)));
    assert_eq!(rt.run_fast(u64::MAX), 2);
    assert_eq!(events.lock().unwrap().len(), 2);
    assert_eq!(rt.next_releasable_tag(), None);
    assert_eq!(rt.next_tag(), Some(Tag::at(Instant::from_millis(2))));
    assert_eq!(rt.stats().bound_deferrals, 1, "run_fast deferred once");
    assert!(matches!(rt.step_fast(), StepOutcome::Idle));
    assert_eq!(rt.stats().bound_deferrals, 2);

    // Bounds are monotone: a stale (lower) grant is ignored.
    rt.set_tag_bound(Tag::at(Instant::from_millis(1)));
    assert_eq!(rt.tag_bound(), Some(Tag::at(Instant::from_millis(2))));

    // Raising the bound releases exactly the newly covered tags.
    rt.set_tag_bound(Tag::at(Instant::from_millis(4)));
    assert_eq!(rt.run_fast(u64::MAX), 2);
    assert_eq!(events.lock().unwrap().len(), 4);
    assert_eq!(rt.stats().processed_tags, 4);
}

#[test]
fn succ_bound_grants_exactly_one_tag_inclusive() {
    // A provisional grant for tag g is modelled as the exclusive bound
    // g.delay(ZERO): the runtime may process g itself and nothing later.
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
    r.reaction("tick").triggered_by(t).body(|_, _| {});
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    let g = Tag::at(Instant::EPOCH);
    rt.set_tag_bound(g.delay(Duration::ZERO));
    assert_eq!(rt.run_fast(u64::MAX), 1);
    assert_eq!(rt.current_tag(), Some(g));
    assert_eq!(rt.stats().bound_deferrals, 1, "second tag deferred");
}

#[test]
fn runtime_stats_display_is_complete() {
    let stats = dear_core::RuntimeStats {
        processed_tags: 1,
        executed_reactions: 2,
        deadline_misses: 3,
        stp_violations: 4,
        bound_deferrals: 5,
    };
    assert_eq!(
        stats.to_string(),
        "tags=1 reactions=2 deadline_misses=3 stp_violations=4 bound_deferrals=5"
    );
}

// ---------------------------------------------------------------------------
// Regression tests: hot-path event loss + executor overhaul (PR 3).
// ---------------------------------------------------------------------------

/// Two physical injections landing *between* steps used to both bump to
/// `(last_processed, m+1)` and collide: the second silently overwrote the
/// first in the action's pending map. Every injection must be delivered at
/// its own, strictly increasing tag.
#[test]
fn two_physical_injections_between_steps_get_distinct_tags() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("sensor", ());
    let act = r.physical_action::<u8>("reading", Duration::ZERO);
    let t = r.timer("t", Duration::from_millis(10), None);
    r.reaction("tick").triggered_by(t).body(|_, _| {});
    let sink = seen.clone();
    r.reaction("observe").triggered_by(act).body(move |_, ctx| {
        let v = *ctx.get_action(&act).unwrap();
        sink.lock().unwrap().push((ctx.tag(), v));
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(1); // current tag is now (10 ms, 0)

    // Both readings lie in the logical past; both must be bumped to
    // *distinct* tags, not piled onto the same microstep.
    let early = Instant::from_millis(5);
    let t1 = rt.schedule_physical(&act, 1, early).unwrap();
    let t2 = rt.schedule_physical(&act, 2, early).unwrap();
    assert_eq!(t1, Tag::new(Instant::from_millis(10), 1));
    assert_eq!(t2, Tag::new(Instant::from_millis(10), 2));
    assert!(t2 > t1, "tags must be strictly increasing");

    rt.run_fast(u64::MAX);
    assert_eq!(
        *seen.lock().unwrap(),
        vec![(t1, 1u8), (t2, 2u8)],
        "both injected values must be observed, in injection order"
    );
}

/// The same collision exists *without* any processed tag: two injections
/// with the same clock reading map to the same `(now + min_delay, 0)` tag.
#[test]
fn same_clock_reading_injections_never_collide() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("sensor", ());
    let act = r.physical_action::<u8>("reading", Duration::ZERO);
    let sink = seen.clone();
    r.reaction("observe").triggered_by(act).body(move |_, ctx| {
        let v = *ctx.get_action(&act).unwrap();
        sink.lock().unwrap().push((ctx.tag(), v));
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);

    let now = Instant::from_millis(3);
    let mut tags = Vec::new();
    for v in 0..5u8 {
        tags.push(rt.schedule_physical(&act, v, now).unwrap());
    }
    let mut sorted = tags.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 5, "all five tags distinct: {tags:?}");
    assert_eq!(tags, sorted, "tags assigned in increasing order");

    rt.run_fast(u64::MAX);
    let observed: Vec<u8> = seen.lock().unwrap().iter().map(|&(_, v)| v).collect();
    assert_eq!(observed, vec![0, 1, 2, 3, 4], "no injection may be lost");
}

/// A disabled trace must stay empty — and report disabled — across a full
/// busy run: the lazy `record_with` path must not touch it at all.
#[test]
fn disabled_trace_stays_empty_across_busy_run() {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("busy", 0u64);
    let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
    let out = r.output::<u64>("o");
    let act = r.logical_action::<u64>("a", Duration::from_micros(100));
    r.reaction("emit")
        .triggered_by(t)
        .effects(out)
        .schedules(act)
        .body(move |n: &mut u64, ctx| {
            *n += 1;
            ctx.set(out, *n);
            ctx.schedule(act, Duration::ZERO, *n);
            if *n >= 200 {
                ctx.request_shutdown();
            }
        });
    r.reaction("echo").triggered_by(act).body(|_, _| {});
    r.finish();
    let mut sink = b.reactor("sink", ());
    let inp = sink.input::<u64>("i");
    sink.reaction("recv").triggered_by(inp).body(|_, _| {});
    sink.finish();
    b.connect(out, inp).unwrap();

    let mut rt = Runtime::new(b.build().unwrap());
    // Tracing intentionally NOT enabled.
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    assert!(rt.stats().executed_reactions >= 590);
    assert!(!rt.trace_log().is_enabled());
    assert!(rt.trace_log().is_empty(), "disabled trace must stay empty");
    assert_eq!(
        rt.trace_log().fingerprint(),
        dear_sim::Trace::disabled().fingerprint()
    );
    // And taking it hands back an untouched, still-disabled trace.
    let taken = rt.take_trace();
    assert!(taken.is_empty() && !taken.is_enabled());
}

/// `step_fast` with an empty queue must not fabricate a physical-clock
/// reading (it used to call `step(Instant::EPOCH)`, a reading that may lie
/// before previously observed physical time).
#[test]
fn step_fast_on_empty_queue_reports_state_without_clock_reading() {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", ());
    let act = r.physical_action::<()>("a", Duration::ZERO);
    let t = r.timer("t", Duration::from_millis(50), None);
    r.reaction("tick").triggered_by(t).body(|_, _| {});
    r.reaction("o").triggered_by(act).body(|_, _| {});
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX); // processes the 50 ms timer, queue now empty
    assert_eq!(rt.step_fast(), StepOutcome::Idle);
    assert_eq!(rt.step_fast(), StepOutcome::Idle);
    // The physical clock has been observed at 50 ms; a late injection is
    // still bumped correctly (EPOCH was never fed back as "now").
    let tag = rt
        .schedule_physical(&act, (), Instant::from_millis(1))
        .unwrap();
    assert_eq!(tag, Tag::new(Instant::from_millis(50), 1));
    rt.run_fast(u64::MAX);

    let mut rt2 = {
        let mut b = ProgramBuilder::new();
        let mut r = b.reactor("r", ());
        r.reaction("s").triggered_by(Startup).body(|_, ctx| {
            ctx.request_shutdown();
        });
        r.finish();
        Runtime::new(b.build().unwrap())
    };
    rt2.start(Instant::EPOCH);
    rt2.run_fast(u64::MAX);
    assert_eq!(rt2.step_fast(), StepOutcome::Stopped);
}

/// An untagged physical arrival must NOT be re-tagged behind an unrelated
/// event already pending at a *future* release tag on the same action
/// (e.g. a tagged message inserted via `schedule_physical_at`): the bump
/// skips only occupied microsteps, it never jumps forward in time.
#[test]
fn untagged_injection_is_not_delayed_behind_future_pending_event() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("net", ());
    let act = r.physical_action::<u8>("msg", Duration::ZERO);
    let sink = seen.clone();
    r.reaction("observe").triggered_by(act).body(move |_, ctx| {
        let v = *ctx.get_action(&act).unwrap();
        sink.lock().unwrap().push((ctx.tag(), v));
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);

    // A tagged message with a far-future release tag T = 100 ms.
    let future = Tag::at(Instant::from_millis(100));
    rt.schedule_physical_at(&act, 9, future).unwrap();
    // An untagged message physically arrives now, at 3 ms: it must be
    // tagged (3 ms, 0), not pushed past the pending 100 ms event.
    let tag = rt
        .schedule_physical(&act, 1, Instant::from_millis(3))
        .unwrap();
    assert_eq!(tag, Tag::at(Instant::from_millis(3)));
    assert!(tag < future);

    rt.run_fast(u64::MAX);
    assert_eq!(
        *seen.lock().unwrap(),
        vec![(tag, 1u8), (future, 9u8)],
        "physical arrival order preserved; both events delivered"
    );
}

// ---------------------------------------------------------------------------
// Value lifetimes: what recycling port and action slots must not change.
// ---------------------------------------------------------------------------

/// A value that counts its own drops.
struct Counted {
    id: u64,
    drops: Arc<AtomicU64>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// A port value is dropped when it is overwritten or at the end of its
/// tag, never held until the next write one tag later.
#[test]
fn port_values_drop_when_overwritten_or_at_the_end_of_their_tag() {
    let drops = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut src = b.reactor("src", 0u64);
    let out = src.output::<Counted>("o");
    let t = src.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
    let d = drops.clone();
    src.reaction("emit")
        .triggered_by(t)
        .effects(out)
        .body(move |n: &mut u64, ctx| {
            // Two writes per tag: the first is overwritten.
            for _ in 0..2 {
                *n += 1;
                let drops = d.clone();
                ctx.set(out, Counted { id: *n, drops });
            }
        });
    src.finish();
    let mut sink = b.reactor("sink", ());
    let inp = sink.input::<Counted>("i");
    let (d, s) = (drops.clone(), seen.clone());
    sink.reaction("read").triggered_by(inp).body(move |_, ctx| {
        let v = ctx.get(inp).expect("written this tag");
        s.lock().unwrap().push((v.id, d.load(Ordering::SeqCst)));
    });
    sink.finish();
    b.connect(out, inp).unwrap();

    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    for k in 1..=50u64 {
        assert!(matches!(rt.step_fast(), StepOutcome::Processed(_)));
        assert_eq!(
            drops.load(Ordering::SeqCst),
            2 * k,
            "both values of tag {k} dropped by its end"
        );
    }
    let seen = seen.lock().unwrap();
    for (k, &(id, dropped)) in (1..).zip(seen.iter()) {
        assert_eq!(id, 2 * k, "the sink reads the last write");
        assert_eq!(dropped, 2 * k - 1, "overwritten value gone, live one not");
    }
}

/// A physical action's value is dropped at the end of its own tag; a
/// value pending at a later tag stays alive until that tag ends.
#[test]
fn action_values_drop_at_the_end_of_their_tag() {
    let drops = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("inbox", ());
    let act = r.physical_action::<Counted>("msg", Duration::ZERO);
    let (d, s) = (drops.clone(), seen.clone());
    r.reaction("read").triggered_by(act).body(move |_, ctx| {
        let v = ctx.get_action(&act).expect("present");
        s.lock().unwrap().push((v.id, d.load(Ordering::SeqCst)));
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    let counted = |id| Counted {
        id,
        drops: drops.clone(),
    };
    for round in 0..20u64 {
        let base = Instant::from_millis(10 * round);
        let id = 2 * round;
        rt.schedule_physical_at(&act, counted(id), Tag::at(base + Duration::from_millis(1)))
            .unwrap();
        rt.schedule_physical_at(
            &act,
            counted(id + 1),
            Tag::at(base + Duration::from_millis(2)),
        )
        .unwrap();
        rt.step_fast();
        assert_eq!(drops.load(Ordering::SeqCst), id + 1, "first value gone");
        rt.step_fast();
        assert_eq!(drops.load(Ordering::SeqCst), id + 2, "second value gone");
    }
    let seen = seen.lock().unwrap();
    for (i, &(id, dropped)) in (0..).zip(seen.iter()) {
        assert_eq!((id, dropped), (i, i), "value {i} alive while read");
    }
}

/// Two writes to one port in one reaction, then two reactions of one
/// reactor writing the same output at one tag: the last write wins, the
/// second reaction reads the first one's value before its own write and
/// its own value after, and the downstream sink reads the winner.
#[test]
fn last_write_wins_within_and_across_reactions() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    for w in 0..4u64 {
        let mut r = b.reactor(&format!("writer{w}"), 0u64);
        let out = r.output::<u64>("o");
        let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
        r.reaction("first")
            .triggered_by(t)
            .effects(out)
            .body(move |n: &mut u64, ctx| {
                *n += 1;
                ctx.set(out, 1000 * w + *n);
                ctx.set(out, 1000 * w + 100 + *n);
            });
        let l = log.clone();
        r.reaction("second")
            .triggered_by(t)
            .effects(out)
            .body(move |n: &mut u64, ctx| {
                let before = ctx.get(out).copied();
                if *n % 2 == 0 {
                    ctx.set(out, 1000 * w + 200 + *n);
                }
                let after = ctx.get(out).copied();
                l.lock().unwrap().push((w, before, after));
            });
        r.finish();
        let mut s = b.reactor(&format!("sink{w}"), ());
        let inp = s.input::<u64>("i");
        let l = log.clone();
        s.reaction("read").triggered_by(inp).body(move |_, ctx| {
            let v = ctx.get(inp).copied();
            l.lock().unwrap().push((w, v, None));
        });
        s.finish();
        b.connect(out, inp).unwrap();
    }
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.stop_at(Instant::from_millis(40)).unwrap();
    rt.run_fast(u64::MAX);
    // Timer tags 0..=40 ms (the stop tag is processed). Per tag: every
    // writer's `second` (one level), then every sink.
    let mut expected = Vec::new();
    for n in 1..=41u64 {
        let written = |w: u64| {
            let first = 1000 * w + 100 + n;
            let last = if n % 2 == 0 {
                1000 * w + 200 + n
            } else {
                first
            };
            (first, last)
        };
        for w in 0..4u64 {
            let (first, last) = written(w);
            expected.push((w, Some(first), Some(last)));
        }
        for w in 0..4u64 {
            expected.push((w, Some(written(w).1), None));
        }
    }
    assert_eq!(*log.lock().unwrap(), expected);
}

/// Two physical injections into one action at different tags, both
/// pending at once (and the later one injected first): each value
/// arrives at its own tag, also after earlier values were consumed.
#[test]
fn pending_physical_values_each_arrive_at_their_own_tag() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("inbox", ());
    let act = r.physical_action::<String>("msg", Duration::ZERO);
    let s = seen.clone();
    r.reaction("read").triggered_by(act).body(move |_, ctx| {
        let v = ctx.get_action(&act).cloned().expect("present");
        s.lock().unwrap().push((ctx.tag(), v));
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    let mut expected = Vec::new();
    for round in 0..10u64 {
        let base = Instant::from_millis(10 * round);
        let (early, late) = (
            Tag::at(base + Duration::from_millis(2)),
            Tag::at(base + Duration::from_millis(5)),
        );
        rt.schedule_physical_at(&act, format!("late{round}"), late)
            .unwrap();
        rt.schedule_physical_at(&act, format!("early{round}"), early)
            .unwrap();
        assert!(matches!(rt.step_fast(), StepOutcome::Processed(_)));
        // A third value, injected while `late` is still pending.
        let mid = Tag::at(base + Duration::from_millis(3));
        rt.schedule_physical_at(&act, format!("mid{round}"), mid)
            .unwrap();
        rt.run_fast(u64::MAX);
        expected.extend([
            (early, format!("early{round}")),
            (mid, format!("mid{round}")),
            (late, format!("late{round}")),
        ]);
    }
    assert_eq!(*seen.lock().unwrap(), expected);
}

/// Two exact-tag injections into one action at one tag: the first value
/// is delivered, the second call fails with `OccupiedTag` instead of
/// overwriting it, and the next microstep is still free.
#[test]
fn schedule_physical_at_rejects_an_occupied_tag() {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("server", ());
    let act = r.physical_action::<u8>("request", Duration::ZERO);
    let sink = seen.clone();
    r.reaction("serve").triggered_by(act).body(move |_, ctx| {
        let v = *ctx.get_action(&act).unwrap();
        sink.borrow_mut().push((ctx.tag(), v));
    });
    r.finish();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);

    let tag = Tag::at(Instant::from_millis(5));
    rt.schedule_physical_at(&act, 1, tag).unwrap();
    assert_eq!(
        rt.schedule_physical_at(&act, 2, tag),
        Err(RuntimeError::OccupiedTag { requested: tag })
    );
    let next = tag.delay(Duration::ZERO);
    rt.schedule_physical_at(&act, 3, next).unwrap();
    rt.run_fast(u64::MAX);
    assert_eq!(*seen.borrow(), vec![(tag, 1u8), (next, 3u8)]);
    assert_eq!(rt.stats().stp_violations, 0, "not an STP violation");
}

/// Nothing a program holds needs to be `Send`: an `Rc` reactor state, a
/// port carrying `Rc<str>`, a physical action carrying an `Rc` and a body
/// capturing an `Rc` all run, and the runtime releases each payload at
/// the end of its tag.
#[test]
fn non_send_state_ports_and_actions_run() {
    let total = Rc::new(Cell::new(0u64));
    let names: Rc<RefCell<Vec<Rc<str>>>> = Rc::new(RefCell::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut src = b.reactor("src", total.clone());
    let out = src.output::<Rc<str>>("name");
    let act = src.physical_action::<Rc<Vec<u64>>>("batch", Duration::ZERO);
    src.reaction("forward").triggered_by(act).effects(out).body(
        move |total: &mut Rc<Cell<u64>>, ctx| {
            let batch = ctx.get_action(&act).expect("present");
            total.set(total.get() + batch.iter().sum::<u64>());
            ctx.set(out, Rc::from(format!("batch{}", batch.len())));
        },
    );
    src.finish();
    let mut sink = b.reactor("sink", ());
    let inp = sink.input::<Rc<str>>("name");
    let seen = names.clone();
    sink.reaction("collect")
        .triggered_by(inp)
        .body(move |_, ctx| {
            seen.borrow_mut()
                .push(ctx.get(inp).cloned().expect("present"));
        });
    sink.finish();
    b.connect(out, inp).unwrap();

    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    let shared = Rc::new(vec![1, 2, 3]);
    rt.schedule_physical(&act, shared.clone(), Instant::from_millis(1))
        .unwrap();
    rt.schedule_physical(&act, Rc::new(vec![4]), Instant::from_millis(2))
        .unwrap();
    rt.run_fast(u64::MAX);
    assert_eq!(total.get(), 10);
    let names: Vec<String> = names.borrow().iter().map(|n| n.to_string()).collect();
    assert_eq!(names, ["batch3", "batch1"]);
    assert_eq!(
        Rc::strong_count(&shared),
        1,
        "payload released after its tag"
    );
}

/// A burst of physical injections between the rounds of a 16-wide
/// fan-out: every round's fan-in sees all sixteen branch values, and each
/// injected value is absorbed once, at its own microstep right after the
/// round it followed and before the next one.
#[test]
fn injections_interleave_with_the_rounds_of_a_wide_fan_out() {
    const WIDTH: u64 = 16;
    const ROUNDS: u64 = 6;
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut src = b.reactor("src", 0u64);
    let t = src.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
    let src_out = src.output::<u64>("o");
    let act = src.physical_action::<u64>("inject", Duration::ZERO);
    src.reaction("emit")
        .triggered_by(t)
        .effects(src_out)
        .body(move |n: &mut u64, ctx| {
            *n += 1;
            ctx.set(src_out, *n);
        });
    let l = log.clone();
    src.reaction("absorb")
        .triggered_by(act)
        .body(move |_, ctx| {
            let v = *ctx.get_action(&act).unwrap();
            l.borrow_mut().push((ctx.tag(), v));
        });
    src.finish();
    let mut sink = b.reactor("sink", 0u64);
    let ins: Vec<_> = (0..WIDTH)
        .map(|i| sink.input::<u64>(&format!("i{i}")))
        .collect();
    let mut decl = sink.reaction("sum");
    for &i in &ins {
        decl = decl.triggered_by(i);
    }
    let (l, sink_ins) = (log.clone(), ins.clone());
    decl.body(move |rounds: &mut u64, ctx| {
        let total: u64 = sink_ins.iter().map(|&i| *ctx.get(i).unwrap()).sum();
        l.borrow_mut().push((ctx.tag(), total));
        *rounds += 1;
        if *rounds == ROUNDS {
            ctx.request_shutdown();
        }
    });
    sink.finish();
    for (i, &inp) in (0..WIDTH).zip(&ins) {
        let mut stage = b.reactor(&format!("stage{i}"), ());
        let si = stage.input::<u64>("i");
        let so = stage.output::<u64>("o");
        stage
            .reaction("work")
            .triggered_by(si)
            .effects(so)
            .body(move |_, ctx| {
                let v = *ctx.get(si).unwrap();
                ctx.set(so, v * 31 + i);
            });
        stage.finish();
        b.connect(src_out, si).unwrap();
        b.connect(so, inp).unwrap();
    }

    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    let mut expected = Vec::new();
    let mut injected = 0;
    for round in 1..=ROUNDS {
        let now = Instant::from_millis(round - 1);
        assert!(matches!(rt.step_fast(), StepOutcome::Processed(_)));
        expected.push((Tag::at(now), WIDTH * 31 * round + WIDTH * (WIDTH - 1) / 2));
        if round % 2 == 1 {
            // Both readings equal the processed tag's time: the burst is
            // bumped to the next two microsteps, never merged.
            let a = rt.schedule_physical(&act, 100 * round, now).unwrap();
            let b = rt.schedule_physical(&act, 100 * round + 1, now).unwrap();
            assert_eq!((a, b), (Tag::new(now, 1), Tag::new(now, 2)));
            rt.run_fast(2);
            expected.extend([(a, 100 * round), (b, 100 * round + 1)]);
            injected += 2;
        }
    }
    rt.run_fast(u64::MAX);
    assert_eq!(*log.borrow(), expected);
    assert_eq!(
        rt.stats().executed_reactions,
        ROUNDS * (WIDTH + 2) + injected
    );
}

/// A `#[derive(Reactor)]` state may be an `Rc`: the DSL's state type
/// needs no `Send` either.
#[test]
fn derived_reactor_state_may_hold_an_rc() {
    use dear_core::{Reaction, ReactionCtx, Reactor, Timer};

    #[derive(Reactor)]
    #[reactor(state = Rc<Cell<u64>>)]
    struct Ticker {
        #[timer(period = "Duration::from_millis(1)")]
        tick: Timer,
        #[reaction(triggers(tick))]
        count: Reaction,
    }

    impl Ticker {
        fn count(ticks: &mut Rc<Cell<u64>>, _: &Self, ctx: &mut ReactionCtx<'_>) {
            ticks.set(ticks.get() + 1);
            if ticks.get() == 4 {
                ctx.request_shutdown();
            }
        }
    }

    let ticks = Rc::new(Cell::new(0));
    let mut b = ProgramBuilder::new();
    let _: Ticker = b.declare("ticker", ticks.clone());
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    assert_eq!(ticks.get(), 4);
}
