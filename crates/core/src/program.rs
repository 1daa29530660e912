//! Program assembly: reactors, reactions, ports, actions, timers, and the
//! acyclic precedence graph (APG).
//!
//! A reactor program is declared through [`ProgramBuilder`] and validated
//! by [`ProgramBuilder::build`], which computes the APG described in
//! §III.A of the paper: port connections and intra-reactor reaction
//! priorities induce a dependency graph over reactions; the graph must be
//! acyclic, and its longest-path *levels* drive scheduling. Reactions on
//! the same level are guaranteed independent, which is what lets the
//! runtime "transparently exploit concurrency in the APG by mapping
//! independent reactions to separate worker threads".
//!
//! All program tables are [`TypedArena`]s keyed by the id newtypes from
//! [`crate::handles`], so a `PortId` can never index the reaction table
//! and a handle minted by a *different* builder is caught as a checked
//! [`AssemblyError`](crate::AssemblyError) instead of silently aliasing an
//! unrelated element.

use crate::context::ReactionCtx;
use crate::error::AssemblyError;
use crate::handles::{
    ActionId, LogicalAction, PhysicalAction, Port, PortId, PortKind, ReactionId, ReactorId, Timer,
    TimerId, TriggerId, TriggerSource,
};
use dear_arena::TypedArena;
use dear_time::Duration;
use std::any::Any;
use std::collections::{HashSet, VecDeque};
use std::marker::PhantomData;
use std::sync::Mutex;

/// A value slot of a port or action: a box holding an `Option<T>`,
/// allocated once and then recycled — emptied in place by the port's or
/// action's [`clear`](PortMeta::clear) instead of being freed. (A
/// logical action's slot, made by `ReactionCtx::schedule`, is freed at
/// the end of its tag.)
pub(crate) type Value = Box<dyn Any + Send + Sync>;
/// A type-erased reaction body.
pub(crate) type BodyFn = Box<dyn FnMut(&mut (dyn Any + Send), &mut ReactionCtx<'_>) + Send>;

/// Empties a slot holding an `Option<T>`, dropping the value and keeping
/// the allocation.
fn clear_slot<T: 'static>(slot: &mut Value) {
    *slot
        .downcast_mut::<Option<T>>()
        .expect("slot value type mismatch") = None;
}

/// Whether an action is logical or physical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ActionKind {
    /// Scheduled by reactions with a logical delay.
    Logical,
    /// Scheduled from outside the runtime, tagged with physical time.
    Physical,
}

pub(crate) struct ReactorMeta {
    pub(crate) name: String,
}

pub(crate) struct PortMeta {
    pub(crate) name: String,
    /// The port whose value slot this port reads (itself for outputs and
    /// unconnected inputs; the source output for connected inputs).
    pub(crate) root: PortId,
    /// Reactions triggered when this (root) port becomes present.
    pub(crate) sinks_trigger: Vec<ReactionId>,
    /// Empties this port's value slot (monomorphised for its type).
    pub(crate) clear: fn(&mut Value),
}

pub(crate) struct ActionMeta {
    pub(crate) name: String,
    pub(crate) kind: ActionKind,
    pub(crate) min_delay: Duration,
    pub(crate) triggered: Vec<ReactionId>,
    /// Empties this action's value slot (monomorphised for its type).
    pub(crate) clear: fn(&mut Value),
}

pub(crate) struct TimerMeta {
    pub(crate) name: String,
    pub(crate) offset: Duration,
    pub(crate) period: Option<Duration>,
    pub(crate) triggered: Vec<ReactionId>,
}

pub(crate) struct ReactionMeta {
    pub(crate) name: String,
    pub(crate) reactor: ReactorId,
    pub(crate) level: u32,
    pub(crate) body: Mutex<BodyFn>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) deadline_handler: Option<Mutex<BodyFn>>,
    /// Ports this reaction may read (triggers + uses + effects), sorted.
    pub(crate) readable: Vec<PortId>,
    /// Ports this reaction may write, sorted.
    pub(crate) effects: Vec<PortId>,
    /// Actions this reaction may schedule, sorted.
    pub(crate) schedules: Vec<ActionId>,
}

/// A fully assembled, validated reactor program.
///
/// Produced by [`ProgramBuilder::build`]; consumed by
/// [`Runtime::new`](crate::Runtime::new).
pub struct Program {
    pub(crate) reactors: TypedArena<ReactorId, ReactorMeta>,
    pub(crate) ports: TypedArena<PortId, PortMeta>,
    pub(crate) actions: TypedArena<ActionId, ActionMeta>,
    pub(crate) timers: TypedArena<TimerId, TimerMeta>,
    pub(crate) reactions: TypedArena<ReactionId, ReactionMeta>,
    pub(crate) startup: Vec<ReactionId>,
    pub(crate) shutdown: Vec<ReactionId>,
    /// Initial reactor states, taken by `Runtime::new`. Wrapped in a
    /// `Mutex` solely so that `&Program` is `Sync` for the level-parallel
    /// executor (`Box<dyn Any + Send>` alone is not).
    pub(crate) states: Mutex<TypedArena<ReactorId, Box<dyn Any + Send>>>,
    pub(crate) num_levels: u32,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("reactors", &self.reactors.len())
            .field("ports", &self.ports.len())
            .field("actions", &self.actions.len())
            .field("timers", &self.timers.len())
            .field("reactions", &self.reactions.len())
            .field("num_levels", &self.num_levels)
            .finish()
    }
}

impl Program {
    /// Number of reactors in the program.
    #[must_use]
    pub fn reactor_count(&self) -> usize {
        self.reactors.len()
    }

    /// Number of reactions in the program.
    #[must_use]
    pub fn reaction_count(&self) -> usize {
        self.reactions.len()
    }

    /// Number of APG levels (the critical-path length of the graph).
    #[must_use]
    pub fn level_count(&self) -> u32 {
        self.num_levels
    }

    /// The qualified name of a reaction, e.g. `"Preprocessing.on_frame"`.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn reaction_name(&self, id: ReactionId) -> &str {
        &self.reactions[id].name
    }

    /// The APG level of a reaction.
    #[must_use]
    pub fn reaction_level(&self, id: ReactionId) -> u32 {
        self.reactions[id].level
    }

    /// Looks up a reaction by qualified name, e.g. `"monitor.check"`.
    ///
    /// The derive DSL (`#[derive(Reactor)]`) does not expose the
    /// [`ReactionId`]s returned by the builder's
    /// [`body`](ReactionDeclaration::body); use this to recover one for
    /// APIs that take an id (e.g. simulated cost models).
    #[must_use]
    pub fn find_reaction(&self, name: &str) -> Option<ReactionId> {
        self.reactions
            .iter_enumerated()
            .find(|(_, r)| r.name == name)
            .map(|(id, _)| id)
    }

    /// The program's **periodic lattice**, if it has one: a duration `g`
    /// such that every locally originated event tag is a whole multiple
    /// of `g` at microstep zero.
    ///
    /// Returns `Some(g)` — the gcd of every timer offset and period —
    /// only when the program's sole event sources are timers: any action
    /// (logical actions schedule arbitrary delays and mint microsteps;
    /// physical actions carry injection tags) makes the claim unsound,
    /// so programs with actions return `None`, as do programs with no
    /// timers or with all-zero offsets and no periods (gcd zero).
    ///
    /// A centrally coordinated federate declares this lattice to its
    /// coordinator so the coordinator can leap a stale next-event tag
    /// whole periods ahead on its own instead of waiting for a report.
    #[must_use]
    pub fn periodic_lattice(&self) -> Option<Duration> {
        if !self.actions.is_empty() || self.timers.is_empty() {
            return None;
        }
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let mut g: u64 = 0;
        for timer in self.timers.iter() {
            g = gcd(
                g,
                u64::try_from(timer.offset.as_nanos().max(0)).unwrap_or(0),
            );
            if let Some(period) = timer.period {
                g = gcd(g, u64::try_from(period.as_nanos().max(0)).unwrap_or(0));
            }
        }
        (g > 0).then(|| Duration::from_nanos(i64::try_from(g).unwrap_or(i64::MAX)))
    }
}

struct ReactionBuild {
    name: String,
    reactor: ReactorId,
    triggers: Vec<TriggerId>,
    uses: Vec<PortId>,
    effects: Vec<PortId>,
    schedules: Vec<ActionId>,
    body: BodyFn,
    deadline: Option<Duration>,
    deadline_handler: Option<BodyFn>,
}

struct PortBuild {
    name: String,
    kind: PortKind,
    source: Option<PortId>,
    clear: fn(&mut Value),
}

/// Builder for a reactor program.
///
/// # Examples
///
/// ```
/// use dear_core::{ProgramBuilder, Runtime, Startup};
///
/// let mut b = ProgramBuilder::new();
/// let mut producer = b.reactor("producer", ());
/// let out = producer.output::<u32>("value");
/// producer
///     .reaction("emit")
///     .triggered_by(Startup)
///     .effects(out)
///     .body(move |_, ctx| ctx.set(out, 17));
/// producer.finish();
///
/// let mut consumer = b.reactor("consumer", Vec::<u32>::new());
/// let inp = consumer.input::<u32>("value");
/// consumer
///     .reaction("collect")
///     .triggered_by(inp)
///     .body(move |seen: &mut Vec<u32>, ctx| {
///         seen.push(*ctx.get(inp).unwrap());
///     });
/// consumer.finish();
///
/// b.connect(out, inp)?;
/// let program = b.build()?;
/// assert_eq!(program.reaction_count(), 2);
/// # Ok::<(), dear_core::AssemblyError>(())
/// ```
///
/// The closure-scoped form avoids juggling the reactor borrow entirely:
///
/// ```
/// use dear_core::{ProgramBuilder, Startup};
///
/// let mut b = ProgramBuilder::new();
/// let out = b.with_reactor("producer", (), |r| {
///     let out = r.output::<u32>("value");
///     r.reaction("emit")
///         .triggered_by(Startup)
///         .effects(out)
///         .body(move |_, ctx| ctx.set(out, 17));
///     out
/// });
/// # let _ = out;
/// # let _ = b.build().unwrap();
/// ```
#[derive(Default)]
pub struct ProgramBuilder {
    reactors: TypedArena<ReactorId, ReactorMeta>,
    states: TypedArena<ReactorId, Box<dyn Any + Send>>,
    ports: TypedArena<PortId, PortBuild>,
    actions: TypedArena<ActionId, ActionMeta>,
    timers: TypedArena<TimerId, TimerMeta>,
    reactions: TypedArena<ReactionId, ReactionBuild>,
}

impl std::fmt::Debug for ProgramBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramBuilder")
            .field("reactors", &self.reactors.len())
            .field("ports", &self.ports.len())
            .field("reactions", &self.reactions.len())
            .finish()
    }
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a reactor with the given name and initial state.
    ///
    /// The returned [`ReactorBuilder`] borrows this builder; declare the
    /// reactor's ports, actions, timers and reactions through it, then
    /// call [`finish`](ReactorBuilder::finish) (or let it go out of scope)
    /// before declaring the next reactor.
    pub fn reactor<S: Send + 'static>(&mut self, name: &str, state: S) -> ReactorBuilder<'_, S> {
        let id = self.reactors.push(ReactorMeta { name: name.into() });
        self.states.push(Box::new(state));
        ReactorBuilder {
            builder: self,
            id,
            _marker: PhantomData,
        }
    }

    /// Declares a reactor and populates it inside a closure.
    ///
    /// Equivalent to [`reactor`](ProgramBuilder::reactor) followed by
    /// [`finish`](ReactorBuilder::finish), but the reactor borrow ends with
    /// the closure, so the builder is immediately usable again — no scoping
    /// gymnastics. Returns whatever the closure returns (typically the
    /// port/action handles needed for wiring).
    pub fn with_reactor<S: Send + 'static, R>(
        &mut self,
        name: &str,
        state: S,
        f: impl FnOnce(&mut ReactorBuilder<'_, S>) -> R,
    ) -> R {
        let mut r = self.reactor(name, state);
        f(&mut r)
    }

    /// Connects an output port to an input port of the same value type.
    ///
    /// Fan-out (one output to many inputs) is allowed; fan-in (an input
    /// with several sources) is rejected.
    ///
    /// # Errors
    ///
    /// Returns an [`AssemblyError`] if either handle was not minted by this
    /// builder, the source is not an output, the target is not an input,
    /// the target already has a source, or the ports are identical.
    pub fn connect<T: 'static>(&mut self, from: Port<T>, to: Port<T>) -> Result<(), AssemblyError> {
        let Some(from_port) = self.ports.get(from.id) else {
            return Err(AssemblyError::UnknownPort { port: from.id });
        };
        if self.ports.get(to.id).is_none() {
            return Err(AssemblyError::UnknownPort { port: to.id });
        }
        if from.id == to.id {
            return Err(AssemblyError::SelfLoop {
                port: from.id,
                name: from_port.name.clone(),
            });
        }
        if from_port.kind != PortKind::Output {
            return Err(AssemblyError::SourceNotOutput {
                port: from.id,
                name: from_port.name.clone(),
            });
        }
        if self.ports[to.id].kind != PortKind::Input {
            return Err(AssemblyError::TargetNotInput {
                port: to.id,
                name: self.ports[to.id].name.clone(),
            });
        }
        if self.ports[to.id].source.is_some() {
            return Err(AssemblyError::MultipleSources {
                port: to.id,
                name: self.ports[to.id].name.clone(),
            });
        }
        self.ports[to.id].source = Some(from.id);
        Ok(())
    }

    /// Connects an output port to an input port through a logical delay.
    ///
    /// Values written to `from` appear on `to` at `tag.delay(delay)` — a
    /// strictly later tag. Because the value travels through a logical
    /// action, a delayed connection contributes **no** dependency edge to
    /// the precedence graph: it is the standard reactor idiom for
    /// breaking feedback loops.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ProgramBuilder::connect`].
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative.
    pub fn connect_delayed<T: Clone + Send + Sync + 'static>(
        &mut self,
        from: Port<T>,
        to: Port<T>,
        delay: Duration,
    ) -> Result<(), AssemblyError> {
        assert!(
            !delay.is_negative(),
            "connection delay must be non-negative"
        );
        let name = format!("__delay_{}_{}", from.id, to.id);
        let mut r = self.reactor(&name, ());
        let din = r.input::<T>("in");
        let dout = r.output::<T>("out");
        let act = r.logical_action::<T>("value", delay);
        // `release` is declared *before* `capture` so the intra-reactor
        // priority edge points release -> capture; the reverse order would
        // close a zero-delay cycle when the connection is used as a
        // feedback path.
        r.reaction("release").triggered_by(act).effects(dout).body(
            move |_, ctx: &mut ReactionCtx<'_>| {
                let v = ctx.get_action(&act).cloned().expect("action present");
                ctx.set(dout, v);
            },
        );
        r.reaction("capture").triggered_by(din).schedules(act).body(
            move |_, ctx: &mut ReactionCtx<'_>| {
                let v = ctx.get(din).cloned().expect("triggering port present");
                ctx.schedule(act, Duration::ZERO, v);
            },
        );
        r.finish();
        self.connect(from, din)?;
        self.connect(dout, to)
    }

    /// Checks that every handle captured by the declared reactions was
    /// minted by this builder, and that no two reactors / same-kind
    /// elements share a (qualified) name.
    fn validate_names_and_handles(&self) -> Result<(), AssemblyError> {
        let mut reactor_names: HashSet<&str> = HashSet::with_capacity(self.reactors.len());
        for r in &self.reactors {
            if !reactor_names.insert(r.name.as_str()) {
                return Err(AssemblyError::DuplicateReactor {
                    name: r.name.clone(),
                });
            }
        }
        let categories: [(&'static str, Box<dyn Iterator<Item = &str> + '_>); 4] = [
            ("port", Box::new(self.ports.iter().map(|p| p.name.as_str()))),
            (
                "action",
                Box::new(self.actions.iter().map(|a| a.name.as_str())),
            ),
            (
                "timer",
                Box::new(self.timers.iter().map(|t| t.name.as_str())),
            ),
            (
                "reaction",
                Box::new(self.reactions.iter().map(|r| r.name.as_str())),
            ),
        ];
        for (kind, names) in categories {
            let mut seen: HashSet<&str> = HashSet::new();
            for name in names {
                if !seen.insert(name) {
                    return Err(AssemblyError::DuplicateElement {
                        kind,
                        name: name.to_string(),
                    });
                }
            }
        }
        for r in &self.reactions {
            let unknown = |handle: String| AssemblyError::UnknownHandle {
                reaction: r.name.clone(),
                handle,
            };
            for t in &r.triggers {
                match t {
                    TriggerId::Port(p) if !self.ports.contains_key(*p) => {
                        return Err(unknown(p.to_string()));
                    }
                    TriggerId::Action(a) if !self.actions.contains_key(*a) => {
                        return Err(unknown(a.to_string()));
                    }
                    TriggerId::Timer(t) if !self.timers.contains_key(*t) => {
                        return Err(unknown(t.to_string()));
                    }
                    _ => {}
                }
            }
            for p in r.uses.iter().chain(&r.effects) {
                if !self.ports.contains_key(*p) {
                    return Err(unknown(p.to_string()));
                }
            }
            for a in &r.schedules {
                if !self.actions.contains_key(*a) {
                    return Err(unknown(a.to_string()));
                }
            }
        }
        Ok(())
    }

    /// Validates the program and computes the APG levels.
    ///
    /// # Errors
    ///
    /// Returns a [`AssemblyError`](crate::AssemblyError) if the reaction graph
    /// has a zero-delay cycle ([`AssemblyError::DependencyCycle`]), two
    /// reactors or same-kind elements share a name, or a reaction captured
    /// a handle from a different builder.
    pub fn build(self) -> Result<Program, AssemblyError> {
        self.validate_names_and_handles()?;
        let n = self.reactions.len();

        // Resolve port roots (one hop: inputs read their source output).
        let roots: TypedArena<PortId, PortId> =
            TypedArena::from_fn(self.ports.len(), |k| self.ports[k].source.unwrap_or(k));

        // Readers of each root port, split into triggered vs. all readers.
        let mut sinks_trigger: TypedArena<PortId, Vec<ReactionId>> =
            TypedArena::from_fn(self.ports.len(), |_| Vec::new());
        let mut sinks_all: TypedArena<PortId, Vec<ReactionId>> =
            TypedArena::from_fn(self.ports.len(), |_| Vec::new());
        for (rid, r) in self.reactions.iter_enumerated() {
            for t in &r.triggers {
                if let TriggerId::Port(p) = t {
                    let root = roots[*p];
                    sinks_trigger[root].push(rid);
                    sinks_all[root].push(rid);
                }
            }
            for p in &r.uses {
                sinks_all[roots[*p]].push(rid);
            }
        }
        for v in sinks_trigger.iter_mut().chain(sinks_all.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }

        // Dependency edges: writer -> reader through ports, plus the
        // intra-reactor priority chain (declaration order).
        let mut succs: TypedArena<ReactionId, Vec<ReactionId>> =
            TypedArena::from_fn(n, |_| Vec::new());
        let mut indegree: TypedArena<ReactionId, usize> = TypedArena::from_fn(n, |_| 0);
        let add_edge = |succs: &mut TypedArena<ReactionId, Vec<ReactionId>>,
                        indegree: &mut TypedArena<ReactionId, usize>,
                        a: ReactionId,
                        b: ReactionId| {
            succs[a].push(b);
            indegree[b] += 1;
        };
        for (rid, r) in self.reactions.iter_enumerated() {
            for p in &r.effects {
                let root = roots[*p];
                debug_assert_eq!(root, *p, "effects are outputs, thus their own root");
                for reader in &sinks_all[root] {
                    // A self-edge (a reaction triggered by a port its own
                    // effect feeds) is a genuine zero-delay cycle and is
                    // reported as such by Kahn's algorithm.
                    add_edge(&mut succs, &mut indegree, rid, *reader);
                }
            }
        }
        // Priority chain per reactor.
        let mut last_of_reactor: TypedArena<ReactorId, Option<ReactionId>> =
            TypedArena::from_fn(self.reactors.len(), |_| None);
        for (rid, r) in self.reactions.iter_enumerated() {
            if let Some(prev) = last_of_reactor[r.reactor] {
                add_edge(&mut succs, &mut indegree, prev, rid);
            }
            last_of_reactor[r.reactor] = Some(rid);
        }

        // Kahn's algorithm computing longest-path levels.
        let mut level: TypedArena<ReactionId, u32> = TypedArena::from_fn(n, |_| 0);
        let mut queue: VecDeque<ReactionId> = indegree
            .iter_enumerated()
            .filter(|(_, &d)| d == 0)
            .map(|(k, _)| k)
            .collect();
        let mut visited = 0usize;
        while let Some(i) = queue.pop_front() {
            visited += 1;
            for &s in &succs[i] {
                level[s] = level[s].max(level[i] + 1);
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if visited != n {
            let cycle: Vec<String> = indegree
                .iter_enumerated()
                .filter(|(_, &d)| d > 0)
                .map(|(k, _)| self.reactions[k].name.clone())
                .collect();
            return Err(AssemblyError::DependencyCycle(cycle));
        }
        let num_levels = level.iter().max().map_or(0, |&m| m + 1);

        // Trigger lists for actions, timers, startup and shutdown.
        let mut actions = self.actions;
        let mut timers = self.timers;
        let mut startup = Vec::new();
        let mut shutdown = Vec::new();
        for (rid, r) in self.reactions.iter_enumerated() {
            for t in &r.triggers {
                match t {
                    TriggerId::Startup => startup.push(rid),
                    TriggerId::Shutdown => shutdown.push(rid),
                    TriggerId::Action(a) => actions[*a].triggered.push(rid),
                    TriggerId::Timer(t) => timers[*t].triggered.push(rid),
                    TriggerId::Port(_) => {}
                }
            }
        }
        for list in actions
            .iter_mut()
            .map(|a| &mut a.triggered)
            .chain(timers.iter_mut().map(|t| &mut t.triggered))
        {
            list.sort_unstable();
            list.dedup();
        }
        startup.sort_unstable();
        shutdown.sort_unstable();

        let ports: TypedArena<PortId, PortMeta> = self.ports.map_enumerated(|id, p| PortMeta {
            name: p.name,
            root: roots[id],
            sinks_trigger: std::mem::take(&mut sinks_trigger[id]),
            clear: p.clear,
        });

        let reactions: TypedArena<ReactionId, ReactionMeta> =
            self.reactions.map_enumerated(|id, r| {
                let mut readable: Vec<PortId> = r
                    .triggers
                    .iter()
                    .filter_map(|t| match t {
                        TriggerId::Port(p) => Some(*p),
                        _ => None,
                    })
                    .chain(r.uses.iter().copied())
                    .chain(r.effects.iter().copied())
                    .collect();
                readable.sort_unstable();
                readable.dedup();
                let mut effects = r.effects;
                effects.sort_unstable();
                effects.dedup();
                let mut schedules = r.schedules;
                schedules.sort_unstable();
                schedules.dedup();
                ReactionMeta {
                    name: r.name,
                    reactor: r.reactor,
                    level: level[id],
                    body: Mutex::new(r.body),
                    deadline: r.deadline,
                    deadline_handler: r.deadline_handler.map(Mutex::new),
                    readable,
                    effects,
                    schedules,
                }
            });

        Ok(Program {
            reactors: self.reactors,
            ports,
            actions,
            timers,
            reactions,
            startup,
            shutdown,
            states: Mutex::new(self.states),
            num_levels,
        })
    }
}

/// Builder scope for one reactor's ports, actions, timers and reactions.
///
/// Created by [`ProgramBuilder::reactor`]; see that method's example.
pub struct ReactorBuilder<'b, S> {
    builder: &'b mut ProgramBuilder,
    id: ReactorId,
    _marker: PhantomData<fn(S) -> S>,
}

impl<S> std::fmt::Debug for ReactorBuilder<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReactorBuilder({})", self.id)
    }
}

impl<'b, S: Send + 'static> ReactorBuilder<'b, S> {
    /// The id of the reactor being built.
    #[must_use]
    pub fn id(&self) -> ReactorId {
        self.id
    }

    /// Ends this reactor's declaration, releasing the borrow on the
    /// [`ProgramBuilder`].
    ///
    /// Purely a readability device: the builder has no pending work, so
    /// letting it fall out of scope is equivalent — but `finish()` says so
    /// explicitly and avoids the `drop(reactor)` idiom that looks like a
    /// destructor side effect.
    pub fn finish(self) {}

    fn add_port<T: Send + Sync + 'static>(&mut self, name: &str, kind: PortKind) -> Port<T> {
        let reactor_name = &self.builder.reactors[self.id].name;
        let qualified = format!("{reactor_name}.{name}");
        let id = self.builder.ports.push(PortBuild {
            name: qualified,
            kind,
            source: None,
            clear: clear_slot::<T>,
        });
        Port {
            id,
            _marker: PhantomData,
        }
    }

    /// Declares an input port carrying values of type `T`.
    pub fn input<T: Send + Sync + 'static>(&mut self, name: &str) -> Port<T> {
        self.add_port(name, PortKind::Input)
    }

    /// Declares an output port carrying values of type `T`.
    pub fn output<T: Send + Sync + 'static>(&mut self, name: &str) -> Port<T> {
        self.add_port(name, PortKind::Output)
    }

    fn add_action<T: Send + Sync + 'static>(
        &mut self,
        name: &str,
        kind: ActionKind,
        min_delay: Duration,
    ) -> ActionId {
        assert!(
            !min_delay.is_negative(),
            "action min_delay must be non-negative"
        );
        let reactor_name = &self.builder.reactors[self.id].name;
        let qualified = format!("{reactor_name}.{name}");
        self.builder.actions.push(ActionMeta {
            name: qualified,
            kind,
            min_delay,
            triggered: Vec::new(),
            clear: clear_slot::<T>,
        })
    }

    /// Declares a logical action with the given minimum logical delay.
    pub fn logical_action<T: Send + Sync + 'static>(
        &mut self,
        name: &str,
        min_delay: Duration,
    ) -> LogicalAction<T> {
        LogicalAction {
            id: self.add_action::<T>(name, ActionKind::Logical, min_delay),
            _marker: PhantomData,
        }
    }

    /// Declares a physical action with the given minimum delay.
    ///
    /// Physical actions are scheduled from outside the runtime via
    /// [`Runtime::schedule_physical`](crate::Runtime::schedule_physical) or
    /// [`Runtime::schedule_physical_at`](crate::Runtime::schedule_physical_at).
    pub fn physical_action<T: Send + Sync + 'static>(
        &mut self,
        name: &str,
        min_delay: Duration,
    ) -> PhysicalAction<T> {
        PhysicalAction {
            id: self.add_action::<T>(name, ActionKind::Physical, min_delay),
            _marker: PhantomData,
        }
    }

    /// Declares a timer firing first at `offset` after startup and then
    /// every `period` (or only once if `period` is `None`).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is negative or `period` is non-positive.
    pub fn timer(&mut self, name: &str, offset: Duration, period: Option<Duration>) -> Timer {
        assert!(!offset.is_negative(), "timer offset must be non-negative");
        if let Some(p) = period {
            assert!(p > Duration::ZERO, "timer period must be positive");
        }
        let reactor_name = &self.builder.reactors[self.id].name;
        let qualified = format!("{reactor_name}.{name}");
        let id = self.builder.timers.push(TimerMeta {
            name: qualified,
            offset,
            period,
            triggered: Vec::new(),
        });
        Timer { id }
    }

    /// Begins the declaration of a reaction.
    ///
    /// Reactions of the same reactor are totally ordered by declaration
    /// order (their *priority*), which the APG honours.
    pub fn reaction(&mut self, name: &str) -> ReactionDeclaration<'_, S> {
        let reactor_name = &self.builder.reactors[self.id].name;
        let name = format!("{reactor_name}.{name}");
        ReactionDeclaration {
            builder: self.builder,
            reactor: self.id,
            name,
            triggers: Vec::new(),
            uses: Vec::new(),
            effects: Vec::new(),
            schedules: Vec::new(),
            deadline: None,
            deadline_handler: None,
            _marker: PhantomData,
        }
    }
}

/// Fluent declaration of a single reaction; finished by [`body`].
///
/// [`body`]: ReactionDeclaration::body
pub struct ReactionDeclaration<'r, S> {
    builder: &'r mut ProgramBuilder,
    reactor: ReactorId,
    name: String,
    triggers: Vec<TriggerId>,
    uses: Vec<PortId>,
    effects: Vec<PortId>,
    schedules: Vec<ActionId>,
    deadline: Option<Duration>,
    deadline_handler: Option<BodyFn>,
    _marker: PhantomData<fn(S) -> S>,
}

impl<S> std::fmt::Debug for ReactionDeclaration<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReactionDeclaration({})", self.name)
    }
}

fn wrap_body<S: Send + 'static>(
    name: String,
    mut f: impl FnMut(&mut S, &mut ReactionCtx<'_>) + Send + 'static,
) -> BodyFn {
    Box::new(move |state, ctx| {
        let state = state
            .downcast_mut::<S>()
            .unwrap_or_else(|| panic!("state type mismatch in reaction `{name}`"));
        f(state, ctx);
    })
}

impl<'r, S: Send + 'static> ReactionDeclaration<'r, S> {
    /// Adds a trigger: the reaction runs whenever the trigger is present.
    #[must_use]
    pub fn triggered_by(mut self, source: impl TriggerSource) -> Self {
        self.triggers.push(source.trigger_id());
        self
    }

    /// Declares a port the reaction reads without being triggered by it.
    #[must_use]
    pub fn uses<T>(mut self, port: Port<T>) -> Self {
        self.uses.push(port.id);
        self
    }

    /// Declares an output port the reaction may write.
    #[must_use]
    pub fn effects<T>(mut self, port: Port<T>) -> Self {
        self.effects.push(port.id);
        self
    }

    /// Declares a logical action the reaction may schedule.
    #[must_use]
    pub fn schedules<T>(mut self, action: LogicalAction<T>) -> Self {
        self.schedules.push(action.id);
        self
    }

    /// Attaches a deadline: if the reaction is *launched* more than
    /// `deadline` after its tag's time point (measured on the physical
    /// clock), `handler` runs instead of the body (§III.A: "a deadline D is
    /// considered violated when an event with tag t triggers a reaction
    /// associated with D after physical time T has exceeded t + D").
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is negative.
    #[must_use]
    pub fn with_deadline(
        mut self,
        deadline: Duration,
        handler: impl FnMut(&mut S, &mut ReactionCtx<'_>) + Send + 'static,
    ) -> Self {
        assert!(!deadline.is_negative(), "deadline must be non-negative");
        self.deadline = Some(deadline);
        self.deadline_handler = Some(wrap_body(format!("{}(deadline)", self.name), handler));
        self
    }

    /// Finishes the declaration with the reaction body and registers it.
    pub fn body(self, f: impl FnMut(&mut S, &mut ReactionCtx<'_>) + Send + 'static) -> ReactionId {
        let body = wrap_body(self.name.clone(), f);
        self.builder.reactions.push(ReactionBuild {
            name: self.name,
            reactor: self.reactor,
            triggers: self.triggers,
            uses: self.uses,
            effects: self.effects,
            schedules: self.schedules,
            body,
            deadline: self.deadline,
            deadline_handler: self.deadline_handler,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handles::Startup;

    #[test]
    fn levels_follow_connections_and_priorities() {
        let mut b = ProgramBuilder::new();
        let mut a = b.reactor("a", ());
        let out = a.output::<u32>("out");
        let r0 = a
            .reaction("produce")
            .triggered_by(Startup)
            .effects(out)
            .body(move |_, ctx| ctx.set(out, 1));
        // Same reactor, later declaration: must be at a higher level.
        let r1 = a.reaction("after").triggered_by(Startup).body(|_, _| {});
        a.finish();

        let mut c = b.reactor("c", ());
        let inp = c.input::<u32>("in");
        let r2 = c.reaction("consume").triggered_by(inp).body(|_, _| {});
        c.finish();
        b.connect(out, inp).unwrap();

        let p = b.build().unwrap();
        assert_eq!(p.reaction_level(r0), 0);
        assert_eq!(p.reaction_level(r1), 1);
        assert_eq!(p.reaction_level(r2), 1);
        assert_eq!(p.level_count(), 2);
        assert_eq!(p.reaction_name(r0), "a.produce");
        assert_eq!(p.find_reaction("a.produce"), Some(r0));
        assert_eq!(p.find_reaction("c.consume"), Some(r2));
        assert_eq!(p.find_reaction("nope"), None);
    }

    #[test]
    fn uses_creates_dependency_without_trigger() {
        let mut b = ProgramBuilder::new();
        let mut a = b.reactor("a", ());
        let out = a.output::<u32>("out");
        a.reaction("produce")
            .triggered_by(Startup)
            .effects(out)
            .body(move |_, ctx| ctx.set(out, 1));
        a.finish();
        let mut c = b.reactor("c", ());
        let inp = c.input::<u32>("in");
        let t = c.timer("t", dear_time::Duration::ZERO, None);
        let r = c.reaction("peek").triggered_by(t).uses(inp).body(|_, _| {});
        c.finish();
        b.connect(out, inp).unwrap();
        let p = b.build().unwrap();
        // The user of the port is levelled after the writer even though it
        // is not triggered by it.
        assert_eq!(p.reaction_level(r), 1);
    }

    #[test]
    fn cycle_is_rejected_with_names() {
        let mut b = ProgramBuilder::new();
        let mut x = b.reactor("x", ());
        let xo = x.output::<u32>("o");
        let xi = x.input::<u32>("i");
        x.reaction("fwd")
            .triggered_by(xi)
            .effects(xo)
            .body(|_, _| {});
        x.finish();
        let mut y = b.reactor("y", ());
        let yo = y.output::<u32>("o");
        let yi = y.input::<u32>("i");
        y.reaction("fwd")
            .triggered_by(yi)
            .effects(yo)
            .body(|_, _| {});
        y.finish();
        b.connect(xo, yi).unwrap();
        b.connect(yo, xi).unwrap();
        match b.build() {
            Err(AssemblyError::DependencyCycle(names)) => {
                assert!(names.contains(&"x.fwd".to_string()));
                assert!(names.contains(&"y.fwd".to_string()));
            }
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn connect_rejects_bad_endpoints() {
        let mut b = ProgramBuilder::new();
        let mut a = b.reactor("a", ());
        let out = a.output::<u32>("out");
        let out2 = a.output::<u32>("out2");
        let inp = a.input::<u32>("in");
        a.finish();
        let mut c = b.reactor("c", ());
        let cin = c.input::<u32>("in");
        c.finish();

        assert!(matches!(
            b.connect(inp, cin),
            Err(AssemblyError::SourceNotOutput { .. })
        ));
        assert!(matches!(
            b.connect(out, out2),
            Err(AssemblyError::TargetNotInput { .. })
        ));
        b.connect(out, cin).unwrap();
        assert!(matches!(
            b.connect(out2, cin),
            Err(AssemblyError::MultipleSources { .. })
        ));
        assert!(matches!(
            b.connect(out, out),
            Err(AssemblyError::SelfLoop { .. })
        ));
    }

    #[test]
    fn connect_rejects_foreign_handles() {
        // Mint handles in one builder, try to use them in another. Padding
        // ports push the foreign ids out of range for `b`, which is what
        // the checked lookup detects (ids that happen to collide are
        // indistinguishable by construction).
        let mut other = ProgramBuilder::new();
        let mut f = other.reactor("foreign", ());
        let _ = f.output::<u32>("pad0");
        let _ = f.output::<u32>("pad1");
        let f_out = f.output::<u32>("out");
        let f_in = f.input::<u32>("in");
        f.finish();

        let mut b = ProgramBuilder::new();
        let mut a = b.reactor("a", ());
        let out = a.output::<u32>("out");
        a.finish();
        assert!(matches!(
            b.connect(out, f_in),
            Err(AssemblyError::UnknownPort { .. })
        ));
        assert!(matches!(
            b.connect(f_out, out),
            Err(AssemblyError::UnknownPort { .. })
        ));
    }

    #[test]
    fn build_rejects_foreign_reaction_handles() {
        let mut other = ProgramBuilder::new();
        let mut f = other.reactor("foreign", ());
        // Push extra ports so the foreign id is out of range for `b`.
        let _ = f.output::<u32>("p0");
        let f_out = f.output::<u32>("p1");
        f.finish();

        let mut b = ProgramBuilder::new();
        let mut a = b.reactor("a", ());
        a.reaction("bad")
            .triggered_by(f_out)
            .body(|_: &mut (), _| {});
        a.finish();
        match b.build() {
            Err(AssemblyError::UnknownHandle { reaction, handle }) => {
                assert_eq!(reaction, "a.bad");
                assert_eq!(handle, "port1");
            }
            other => panic!("expected unknown-handle error, got {other:?}"),
        }
    }

    #[test]
    fn build_rejects_duplicate_names() {
        let mut b = ProgramBuilder::new();
        b.reactor("a", ()).finish();
        b.reactor("a", ()).finish();
        assert!(matches!(
            b.build(),
            Err(AssemblyError::DuplicateReactor { .. })
        ));

        let mut b = ProgramBuilder::new();
        let mut a = b.reactor("a", ());
        let _ = a.output::<u32>("out");
        let _ = a.output::<u32>("out");
        a.finish();
        match b.build() {
            Err(AssemblyError::DuplicateElement { kind, name }) => {
                assert_eq!(kind, "port");
                assert_eq!(name, "a.out");
            }
            other => panic!("expected duplicate-element error, got {other:?}"),
        }
    }

    #[test]
    fn with_reactor_scopes_the_borrow() {
        let mut b = ProgramBuilder::new();
        let out = b.with_reactor("producer", (), |r| {
            let out = r.output::<u32>("value");
            r.reaction("emit")
                .triggered_by(Startup)
                .effects(out)
                .body(move |_, ctx| ctx.set(out, 1));
            out
        });
        let inp = b.with_reactor("consumer", (), |r| {
            let inp = r.input::<u32>("value");
            r.reaction("collect").triggered_by(inp).body(|_, _| {});
            inp
        });
        b.connect(out, inp).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.reactor_count(), 2);
        assert_eq!(p.reaction_count(), 2);
    }

    #[test]
    fn fan_out_is_allowed() {
        let mut b = ProgramBuilder::new();
        let mut a = b.reactor("a", ());
        let out = a.output::<u32>("out");
        a.reaction("produce")
            .triggered_by(Startup)
            .effects(out)
            .body(move |_, ctx| ctx.set(out, 1));
        a.finish();
        let mut ids = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..3 {
            let mut c = b.reactor(&format!("c{i}"), ());
            let inp = c.input::<u32>("in");
            ids.push(c.reaction("consume").triggered_by(inp).body(|_, _| {}));
            inputs.push(inp);
            c.finish();
        }
        for inp in &inputs {
            b.connect(out, *inp).unwrap();
        }
        let p = b.build().unwrap();
        for id in ids {
            assert_eq!(p.reaction_level(id), 1);
        }
    }

    #[test]
    fn diamond_levels() {
        // src -> (left, right) -> join
        let mut b = ProgramBuilder::new();
        let mut s = b.reactor("src", ());
        let so = s.output::<u32>("o");
        s.reaction("emit")
            .triggered_by(Startup)
            .effects(so)
            .body(move |_, ctx| ctx.set(so, 0));
        s.finish();

        let mut mk_stage = |name: &str| {
            let mut r = b.reactor(name, ());
            let i = r.input::<u32>("i");
            let o = r.output::<u32>("o");
            let id = r
                .reaction("fwd")
                .triggered_by(i)
                .effects(o)
                .body(move |_, ctx| {
                    let v = *ctx.get(i).unwrap();
                    ctx.set(o, v + 1)
                });
            r.finish();
            (i, o, id)
        };
        let (li, lo, lid) = mk_stage("left");
        let (ri, ro, rid) = mk_stage("right");

        let mut j = b.reactor("join", ());
        let ja = j.input::<u32>("a");
        let jb = j.input::<u32>("b");
        let jid = j
            .reaction("join")
            .triggered_by(ja)
            .triggered_by(jb)
            .body(|_, _| {});
        j.finish();

        b.connect(so, li).unwrap();
        b.connect(so, ri).unwrap();
        b.connect(lo, ja).unwrap();
        b.connect(ro, jb).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.reaction_level(lid), 1);
        assert_eq!(p.reaction_level(rid), 1);
        assert_eq!(p.reaction_level(jid), 2);
        assert_eq!(p.level_count(), 3);
    }

    #[test]
    #[should_panic(expected = "timer period must be positive")]
    fn zero_period_timer_panics() {
        let mut b = ProgramBuilder::new();
        let mut a = b.reactor("a", ());
        a.timer("t", Duration::ZERO, Some(Duration::ZERO));
    }
}
