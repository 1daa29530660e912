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

use crate::config::{tag_to_wire, DearConfig, MethodSpec};
use crate::driver::{declare_deliver, PlatformDriver};
use crate::outbox::{declare_forward, Outbox};
use crate::stats::TransactorStats;
use dear_core::{PhysicalAction, Port, ProgramBuilder, Tag};
use dear_someip::{Binding, FrameBuf, Responder, ReturnCode};
use dear_time::Duration;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

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
        let mut r = b.reactor(&format!("{name}.client_method_transactor"), ());
        let request = r.input::<FrameBuf>("request");
        let response = r.output::<FrameBuf>("response");
        let resp_action = r.physical_action::<FrameBuf>("response_arrived", Duration::ZERO);
        let route = declare_forward(&mut r, "forward_request", outbox, deadline, request);
        declare_deliver(&mut r, "deliver_response", resp_action, response);
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
        let (action, platform_cb, binding) = (self.resp_action, platform.clone(), binding.clone());
        let stats_out = stats.clone();
        platform.register_route(self.route, move |sim, msg| {
            // Steps 2–6: the proxy call carries tc + Dc; steps 18–22
            // release the response at ts + Ds + L + E.
            let (platform, stats) = (platform_cb.clone(), stats_out.clone());
            let (service, instance, method) = (spec.service, spec.instance, spec.method);
            let sent = binding.call_tagged(
                sim,
                service,
                instance,
                method,
                msg.payload,
                msg.tag,
                move |sim, resp| {
                    platform.deliver(sim, &action, resp.payload, resp.tag, &cfg, &stats);
                },
            );
            if sent.is_err() {
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
    deadline: Duration,
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
        let mut r = b.reactor(&format!("{name}.server_method_transactor"), ());
        let request = r.output::<FrameBuf>("request");
        let response = r.input::<FrameBuf>("response");
        let req_action = r.physical_action::<FrameBuf>("request_arrived", Duration::ZERO);
        declare_deliver(&mut r, "deliver_request", req_action, request);
        let route = declare_forward(&mut r, "forward_response", outbox, deadline, response);
        r.finish();
        ServerMethodTransactor {
            request,
            response,
            req_action,
            route,
            deadline,
        }
    }

    /// Binds the transactor: registers the served method on the binding
    /// and the response route on the platform.
    ///
    /// Each request waits under its release tag `ts`, and the server logic
    /// answers at `ts` (Fig. 3 step 12), so a response tagged `w` goes to
    /// the earliest waiting request whose `ts + Ds` is `w`. Matching on
    /// the release tag rather than on `w` alone keeps two requests
    /// released at one instant apart: `ts + Ds` drops the microstep. A
    /// response no request waits for is counted in
    /// [`TransactorStats::send_failures`].
    pub fn bind(
        &self,
        platform: &impl PlatformDriver,
        binding: &Binding,
        spec: MethodSpec,
        cfg: DearConfig,
    ) -> TransactorStats {
        let stats = TransactorStats::new();
        let pending: Rc<RefCell<BTreeMap<Tag, Responder>>> = Rc::default();

        let (action, platform_in, stats_in) = (self.req_action, platform.clone(), stats.clone());
        let pending_in = pending.clone();
        binding.register_method(spec.service, spec.method, move |sim, req, responder| {
            // Steps 7–11: release the request at tc + Dc + L + E.
            match platform_in.deliver(sim, &action, req.payload, req.tag, &cfg, &stats_in) {
                Some(release) => drop(pending_in.borrow_mut().insert(release, responder)),
                None => responder.reply_error(sim, ReturnCode::NotOk),
            }
        });

        let (deadline, stats_out) = (self.deadline, stats.clone());
        platform.register_route(self.route, move |sim, msg| {
            let responder = {
                let mut pending = pending.borrow_mut();
                let release = pending
                    .keys()
                    .find(|ts| tag_to_wire(ts.delay(deadline)) == msg.tag)
                    .copied();
                release.and_then(|ts| pending.remove(&ts))
            };
            match responder {
                // Steps 13–17: the skeleton reply carries ts + Ds.
                Some(responder) => responder.reply_tagged(sim, msg.payload, msg.tag),
                None => stats_out.record_send_failure(),
            }
        });
        stats
    }
}
