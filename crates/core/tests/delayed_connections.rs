//! Delayed connections: logical "after" delays and feedback loops.

use dear_core::{AssemblyError, ProgramBuilder, Runtime, Startup, Tag};
use dear_time::{Duration, Instant};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

#[test]
fn delayed_connection_shifts_logical_time() {
    let got = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut src = b.reactor("src", ());
    let out = src.output::<u32>("o");
    src.reaction("emit")
        .triggered_by(Startup)
        .effects(out)
        .body(move |_, ctx| ctx.set(out, 9));
    src.finish();
    let mut sink = b.reactor("sink", ());
    let inp = sink.input::<u32>("i");
    let sinklog = got.clone();
    sink.reaction("recv").triggered_by(inp).body(move |_, ctx| {
        sinklog
            .lock()
            .unwrap()
            .push((ctx.tag(), *ctx.get(inp).unwrap()));
    });
    sink.finish();
    b.connect_delayed(out, inp, Duration::from_millis(7))
        .unwrap();

    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    assert_eq!(
        *got.lock().unwrap(),
        vec![(Tag::at(Instant::from_millis(7)), 9)]
    );
}

#[test]
fn zero_delay_connection_advances_microstep() {
    let got = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut src = b.reactor("src", ());
    let out = src.output::<u32>("o");
    src.reaction("emit")
        .triggered_by(Startup)
        .effects(out)
        .body(move |_, ctx| ctx.set(out, 1));
    src.finish();
    let mut sink = b.reactor("sink", ());
    let inp = sink.input::<u32>("i");
    let sinklog = got.clone();
    sink.reaction("recv").triggered_by(inp).body(move |_, ctx| {
        sinklog.lock().unwrap().push(ctx.tag());
    });
    sink.finish();
    b.connect_delayed(out, inp, Duration::ZERO).unwrap();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    assert_eq!(*got.lock().unwrap(), vec![Tag::new(Instant::EPOCH, 1)]);
}

#[test]
fn feedback_loop_with_delay_is_legal_and_converges() {
    // An integrator feeding back into itself: illegal with a direct
    // connection, legal through a delayed one.
    let history = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut node = b.reactor("integrator", ());
    let fb_in = node.input::<u64>("state_in");
    let fb_out = node.output::<u64>("state_out");
    let log = history.clone();
    node.reaction("seed")
        .triggered_by(Startup)
        .effects(fb_out)
        .body(move |_, ctx| ctx.set(fb_out, 1));
    node.reaction("step")
        .triggered_by(fb_in)
        .effects(fb_out)
        .body(move |_, ctx| {
            let v = *ctx.get(fb_in).unwrap();
            log.lock().unwrap().push((ctx.tag(), v));
            if v < 32 {
                ctx.set(fb_out, v * 2);
            } else {
                ctx.request_shutdown();
            }
        });
    node.finish();
    b.connect_delayed(fb_out, fb_in, Duration::from_millis(1))
        .unwrap();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    let values: Vec<u64> = history.lock().unwrap().iter().map(|&(_, v)| v).collect();
    assert_eq!(values, vec![1, 2, 4, 8, 16, 32]);
    let tags: Vec<Instant> = history
        .lock()
        .unwrap()
        .iter()
        .map(|&(t, _)| t.time)
        .collect();
    assert_eq!(
        tags,
        (1..=6).map(Instant::from_millis).collect::<Vec<_>>(),
        "each loop iteration advances by the connection delay"
    );
}

#[test]
fn direct_feedback_loop_is_still_rejected() {
    let mut b = ProgramBuilder::new();
    let mut node = b.reactor("loopy", ());
    let fb_in = node.input::<u64>("i");
    let fb_out = node.output::<u64>("o");
    node.reaction("step")
        .triggered_by(fb_in)
        .effects(fb_out)
        .body(|_, _| {});
    node.finish();
    b.connect(fb_out, fb_in).unwrap();
    assert!(matches!(b.build(), Err(AssemblyError::DependencyCycle(_))));
}

#[test]
fn delayed_values_preserve_per_tag_ordering() {
    // Two values sent at different tags through the same delayed
    // connection arrive in order, shifted by the same delay.
    let got = Arc::new(Mutex::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut src = b.reactor("src", 0u32);
    let t = src.timer("t", Duration::ZERO, Some(Duration::from_millis(2)));
    let out = src.output::<u32>("o");
    src.reaction("emit")
        .triggered_by(t)
        .effects(out)
        .body(move |n: &mut u32, ctx| {
            *n += 1;
            ctx.set(out, *n);
        });
    src.finish();
    let mut sink = b.reactor("sink", ());
    let inp = sink.input::<u32>("i");
    let log = got.clone();
    sink.reaction("recv").triggered_by(inp).body(move |_, ctx| {
        log.lock()
            .unwrap()
            .push((ctx.logical_time(), *ctx.get(inp).unwrap()));
    });
    sink.finish();
    b.connect_delayed(out, inp, Duration::from_millis(5))
        .unwrap();
    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.stop_at(Instant::from_millis(12)).unwrap();
    rt.run_fast(u64::MAX);
    assert_eq!(
        *got.lock().unwrap(),
        vec![
            (Instant::from_millis(5), 1),
            (Instant::from_millis(7), 2),
            (Instant::from_millis(9), 3),
            (Instant::from_millis(11), 4),
        ]
    );
}

/// A delayed connection carries values that are not `Send`: the logical
/// action inside it holds the `Rc` until its tag, and the receiver gets
/// the sender's allocation.
#[test]
fn delayed_connection_carries_rc_values() {
    let sent = Rc::new(String::from("frame"));
    let got = Rc::new(RefCell::new(Vec::new()));
    let mut b = ProgramBuilder::new();
    let mut src = b.reactor("src", sent.clone());
    let out = src.output::<Rc<String>>("o");
    src.reaction("emit")
        .triggered_by(Startup)
        .effects(out)
        .body(move |v: &mut Rc<String>, ctx| ctx.set(out, v.clone()));
    src.finish();
    let mut sink = b.reactor("sink", ());
    let inp = sink.input::<Rc<String>>("i");
    let (log, expected) = (got.clone(), sent.clone());
    sink.reaction("recv").triggered_by(inp).body(move |_, ctx| {
        let v = ctx.get(inp).unwrap();
        log.borrow_mut().push((ctx.tag(), Rc::ptr_eq(v, &expected)));
    });
    sink.finish();
    b.connect_delayed(out, inp, Duration::from_millis(3))
        .unwrap();

    let mut rt = Runtime::new(b.build().unwrap());
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    assert_eq!(
        *got.borrow(),
        vec![(Tag::at(Instant::from_millis(3)), true)]
    );
}
