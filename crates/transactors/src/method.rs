//! Method transactors: client and server roles.
//!
//! "The client method transactor interacts with a given method of a
//! service interface in the client role. Similarly, the server method
//! transactor interacts with a method in the server role" (paper §III.B).
//!
//! Both are ordinary reactors; their reactions carry the Figure 3 tag
//! algebra:
//!
//! * client request reaction (input deadline `Dc`): forward the payload to
//!   the proxy with wire tag `tc + Dc` (steps 1–6);
//! * server request interrupt: release into the server's reactor network
//!   at `tc + Dc + L + E` (steps 7–11);
//! * server response reaction (input deadline `Ds`): reply through the
//!   skeleton with wire tag `ts + Ds` (steps 12–17);
//! * client response interrupt: release at `ts + Ds + L + E` (18–22).

use crate::config::{tag_to_wire, DearConfig, MethodSpec, UntaggedPolicy};
use crate::driver::PlatformDriver;
use crate::outbox::{OutboundMsg, Outbox, OutboxSender};
use crate::stats::TransactorStats;
use dear_core::{PhysicalAction, Port, ProgramBuilder, ReactionCtx, Tag};
use dear_someip::{Binding, FrameBuf, Responder, ReturnCode};
use dear_time::Duration;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Builds the tag-stamping forward closure shared by a reaction body and
/// its deadline handler (a violated deadline is recorded by the runtime;
/// the message is still forwarded so the pipeline keeps flowing and the
/// fault stays observable rather than turning into silent loss).
fn forward_fn(
    sender: OutboxSender,
    route: u32,
    deadline: Duration,
    port: Port<FrameBuf>,
) -> impl FnMut(&mut (), &mut ReactionCtx<'_>) + Send + 'static {
    move |_, ctx| {
        let payload = ctx.get(port).cloned().unwrap_or_default();
        let out_tag = ctx.tag().delay(deadline);
        sender.push(OutboundMsg {
            route,
            payload,
            tag: tag_to_wire(out_tag),
        });
    }
}

/// Client-side method transactor.
///
/// Wire the client logic's output port to [`request`](Self::request) and
/// its input port from [`response`](Self::response).
#[derive(Debug, Clone, Copy)]
pub struct ClientMethodTransactor {
    /// Input port: request payloads from the client logic.
    pub request: Port<FrameBuf>,
    /// Output port: response payloads to the client logic.
    pub response: Port<FrameBuf>,
    resp_action: PhysicalAction<FrameBuf>,
    route: u32,
}

impl ClientMethodTransactor {
    /// Declares the transactor reactor in a program under assembly.
    #[must_use]
    pub fn declare(
        b: &mut ProgramBuilder,
        outbox: &Outbox,
        name: &str,
        deadline: Duration,
    ) -> Self {
        let route = outbox.allocate_route();
        let mut r = b.reactor(&format!("{name}.client_method_transactor"), ());
        let request = r.input::<FrameBuf>("request");
        let response = r.output::<FrameBuf>("response");
        let resp_action = r.physical_action::<FrameBuf>("response_arrived", Duration::ZERO);
        r.reaction("forward_request")
            .triggered_by(request)
            .with_deadline(
                deadline,
                forward_fn(outbox.sender(), route, deadline, request),
            )
            .body(forward_fn(outbox.sender(), route, deadline, request));
        r.reaction("deliver_response")
            .triggered_by(resp_action)
            .effects(response)
            .body(move |_, ctx| {
                let v = ctx
                    .get_action(&resp_action)
                    .cloned()
                    .expect("action value present");
                ctx.set(response, v);
            });
        r.finish();
        ClientMethodTransactor {
            request,
            response,
            resp_action,
            route,
        }
    }

    /// Binds the transactor to a platform and its middleware binding.
    pub fn bind(
        &self,
        platform: &impl PlatformDriver,
        binding: &Binding,
        spec: MethodSpec,
        cfg: DearConfig,
    ) -> TransactorStats {
        let stats = TransactorStats::new();
        let action = self.resp_action;
        let platform = platform.clone();
        let binding = binding.clone();
        let stats_out = stats.clone();
        platform
            .clone()
            .register_route(self.route, move |sim, msg| {
                // Fig. 3 step 2: deposit tc+Dc in the bypass, then step 3: the
                // plain (tag-agnostic) proxy call.
                binding.set_outgoing_tag(msg.tag);
                let platform = platform.clone();
                let binding_cb = binding.clone();
                let stats = stats_out.clone();
                let result = binding.call(
                    sim,
                    spec.service,
                    spec.instance,
                    spec.method,
                    msg.payload,
                    move |sim, resp| {
                        // Steps 18–22: pick ts+Ds from the bypass and release
                        // the response at ts+Ds+L+E.
                        let wire_tag = binding_cb.take_incoming_tag().or(resp.tag);
                        platform.deliver(sim, &action, resp.payload, wire_tag, &cfg, &stats);
                    },
                );
                if result.is_err() {
                    binding.discard_outgoing_tag();
                    stats_out.record_send_failure();
                }
            });
        stats
    }
}

/// Server-side method transactor.
///
/// Wire the server logic's input port from [`request`](Self::request) and
/// its output port to [`response`](Self::response).
#[derive(Debug, Clone, Copy)]
pub struct ServerMethodTransactor {
    /// Output port: request payloads to the server logic.
    pub request: Port<FrameBuf>,
    /// Input port: response payloads from the server logic.
    pub response: Port<FrameBuf>,
    req_action: PhysicalAction<FrameBuf>,
    route: u32,
}

impl ServerMethodTransactor {
    /// Declares the transactor reactor in a program under assembly.
    #[must_use]
    pub fn declare(
        b: &mut ProgramBuilder,
        outbox: &Outbox,
        name: &str,
        deadline: Duration,
    ) -> Self {
        let route = outbox.allocate_route();
        let mut r = b.reactor(&format!("{name}.server_method_transactor"), ());
        let request = r.output::<FrameBuf>("request");
        let response = r.input::<FrameBuf>("response");
        let req_action = r.physical_action::<FrameBuf>("request_arrived", Duration::ZERO);
        r.reaction("deliver_request")
            .triggered_by(req_action)
            .effects(request)
            .body(move |_, ctx| {
                let v = ctx
                    .get_action(&req_action)
                    .cloned()
                    .expect("action value present");
                ctx.set(request, v);
            });
        r.reaction("forward_response")
            .triggered_by(response)
            .with_deadline(
                deadline,
                forward_fn(outbox.sender(), route, deadline, response),
            )
            .body(forward_fn(outbox.sender(), route, deadline, response));
        r.finish();
        ServerMethodTransactor {
            request,
            response,
            req_action,
            route,
        }
    }

    /// Binds the transactor: registers the served method on the binding
    /// and the response route on the platform.
    ///
    /// Responses are correlated to requests in FIFO order, which matches
    /// the tag order the reactor network processes requests in.
    pub fn bind(
        &self,
        platform: &impl PlatformDriver,
        binding: &Binding,
        spec: MethodSpec,
        cfg: DearConfig,
    ) -> TransactorStats {
        let stats = TransactorStats::new();
        let pending: Rc<RefCell<VecDeque<Responder>>> = Rc::new(RefCell::new(VecDeque::new()));

        let action = self.req_action;
        let platform_in = platform.clone();
        let binding_in = binding.clone();
        let stats_in = stats.clone();
        let pending_in = pending.clone();
        binding.register_method(spec.service, spec.method, move |sim, req, responder| {
            // Steps 7–10: the binding already fed the bypass; retrieve the
            // tag and schedule the release at tc+Dc+L+E.
            let wire_tag = binding_in.take_incoming_tag().or(req.tag);
            match wire_tag {
                Some(w) => {
                    let base = crate::config::wire_to_tag(w);
                    let release = Tag::new(base.time + cfg.stp_offset(), base.microstep);
                    match platform_in.inject_at(sim, &action, req.payload, release) {
                        Ok(()) => pending_in.borrow_mut().push_back(responder),
                        Err(_) => {
                            stats_in.record_stp_violation();
                            responder.reply_error(sim, ReturnCode::NotOk);
                        }
                    }
                }
                None => match cfg.untagged {
                    UntaggedPolicy::Fail => {
                        stats_in.record_untagged_dropped();
                        responder.reply_error(sim, ReturnCode::NotOk);
                    }
                    UntaggedPolicy::PhysicalTime => {
                        match platform_in.inject_now(sim, &action, req.payload) {
                            Ok(_) => pending_in.borrow_mut().push_back(responder),
                            Err(_) => {
                                stats_in.record_stp_violation();
                                responder.reply_error(sim, ReturnCode::NotOk);
                            }
                        }
                    }
                },
            }
        });

        let binding_out = binding.clone();
        platform.register_route(self.route, move |sim, msg| {
            let responder = pending
                .borrow_mut()
                .pop_front()
                .expect("response produced without pending request");
            // Steps 13–16: deposit ts+Ds, then the plain skeleton reply.
            binding_out.set_outgoing_tag(msg.tag);
            responder.reply(sim, msg.payload);
        });
        stats
    }
}
