//! The benchmark's metric declarations: name, unit, direction, kind and —
//! for end-to-end metrics — the regression bound. `BENCHMARK.json` at the
//! repository root states the same table for the driver; the smoke test
//! holds the two equal.

use crate::report::{Json, Samples};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a metric's value comes about, which decides how two runs compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock of this machine: noisy, one-sidedly (interference only
    /// ever slows a deterministic computation down).
    Host,
    /// A count, or virtual time: the same seed gives the same value bit
    /// for bit, on every run and machine.
    Exact,
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDecl {
    /// Name, unique over both tables.
    pub name: &'static str,
    /// Unit, in `BENCHMARK.json`'s alphabet.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Host time or exact.
    pub kind: Kind,
    /// End-to-end metrics: the relative worsening that counts as a
    /// regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        kind,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        kind,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Kind::{Exact, Host};

/// What a user of the stack sees. Every workload reports every one, and
/// none is ever zero; a unit of work is a frame decided (`brake_*`) or a
/// tag processed (`fleet_*`).
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("work_per_s", "1/s", Higher, Host, 0.15),
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("allocs_per_unit", "allocs/unit", Lower, Exact, 0.01),
    e2e("peak_live_mib", "MiB", Lower, Exact, 0.02),
];

/// Single layers: the workload's own protocol counters and differences
/// to its one-factor neighbour first, then the layer drivers.
pub const PER_LAYER: [MetricDecl; 49] = [
    layer("e2e.ns_per_unit", "ns/unit", Lower, Host),
    layer("e2e.logical_latency_ms", "virtual_ms", Lower, Exact),
    layer("e2e.retained_bytes_per_unit", "bytes/unit", Lower, Exact),
    layer("federation.ctrl_frames_per_tag", "frames/tag", Lower, Exact),
    layer(
        "federation.grant_wait_us_per_tag",
        "virtual_us/tag",
        Lower,
        Exact,
    ),
    layer("federation.nets_per_tag", "frames/tag", Lower, Exact),
    layer("federation.ltcs_per_tag", "frames/tag", Lower, Exact),
    layer("federation.grants_per_tag", "frames/tag", Lower, Exact),
    layer("federation.windowed_share", "share", Higher, Exact),
    layer("federation.batches_per_tag", "frames/tag", Lower, Exact),
    layer("sim.events_per_tag", "events/tag", Lower, Exact),
    layer("neighbour.delta_ns_per_unit", "ns/unit", Lower, Host),
    layer(
        "neighbour.delta_allocs_per_unit",
        "allocs/unit",
        Lower,
        Exact,
    ),
    layer("neighbour.delta_bytes_per_unit", "bytes/unit", Lower, Exact),
    layer("attrib.hops_share", "share", Higher, Host),
    layer("attrib.residue_share", "share", Lower, Host),
    layer("trace.overhead_share", "share", Lower, Host),
    layer("arena.lookup_ns", "ns", Lower, Host),
    layer("sim.event_ns", "ns", Lower, Host),
    layer("sim.event_allocs", "allocs/op", Lower, Exact),
    layer("sim.net_send_ns", "ns", Lower, Host),
    layer("sim.net_send_allocs", "allocs/op", Lower, Exact),
    layer("sim.pool_cycle_ns", "ns", Lower, Host),
    layer("core.step_ns_per_reaction", "ns", Lower, Host),
    layer("core.step_allocs_per_reaction", "allocs/op", Lower, Exact),
    layer("core.inject_ns", "ns", Lower, Host),
    layer("core.build_ns", "ns", Lower, Host),
    layer("someip.wire_ns_per_msg", "ns", Lower, Host),
    layer("someip.wire_allocs_per_msg", "allocs/op", Lower, Exact),
    layer("someip.notify_ns_per_msg", "ns", Lower, Host),
    layer("someip.notify_allocs_per_msg", "allocs/op", Lower, Exact),
    layer("someip.fanout16k_ns_per_msg", "ns", Lower, Host),
    layer("someip.coord_ns_per_record", "ns", Lower, Host),
    layer("someip.batch_ns_per_record", "ns", Lower, Host),
    layer("transactors.hop_ns_per_msg", "ns", Lower, Host),
    layer("transactors.hop_allocs_per_msg", "allocs/op", Lower, Exact),
    layer(
        "transactors.hop_sim_events_per_msg",
        "events/op",
        Lower,
        Exact,
    ),
    layer("federation.solve_ns_n4", "ns", Lower, Host),
    layer("federation.solve_ns_n400", "ns", Lower, Host),
    layer("federation.coordinated_hop_ns_per_msg", "ns", Lower, Host),
    layer(
        "federation.coordinated_hop_allocs_per_msg",
        "allocs/op",
        Lower,
        Exact,
    ),
    layer("durable.append_ns_per_record", "ns", Lower, Host),
    layer(
        "durable.append_allocs_per_record",
        "allocs/op",
        Lower,
        Exact,
    ),
    layer("durable.bytes_per_record", "bytes/op", Lower, Exact),
    layer("durable.replay_ns_per_record", "ns", Lower, Host),
    layer("observe.off_ns_per_call", "ns", Lower, Host),
    layer("observe.count_ns", "ns", Lower, Host),
    layer("observe.span_ns", "ns", Lower, Host),
    layer("apd.logic_ns_per_frame", "ns", Lower, Host),
];

/// The declaration of metric `name`, from either table.
#[must_use]
pub fn decl(name: &str) -> Option<&'static MetricDecl> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// One measured metric: its declaration, value and — for repeated host
/// measurements — the spread the value was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The declaration.
    pub decl: &'static MetricDecl,
    /// The reported value.
    pub value: f64,
    /// Spread over repetitions, if the value came from several.
    pub samples: Option<Samples>,
}

impl Metric {
    /// A metric named `name` (which must be declared) with `value`.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: a bug in the benchmark.
    #[must_use]
    pub fn new(name: &str, value: f64, samples: Option<Samples>) -> Metric {
        let decl = decl(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        Metric {
            decl,
            value,
            samples,
        }
    }

    /// `{"value": …, "unit": …}`: the shape the driver's contract asks for.
    #[must_use]
    pub fn to_contract_json(&self) -> Json {
        Json::object([
            ("value", Json::from(self.value)),
            ("unit", Json::from(self.decl.unit)),
        ])
    }

    /// Everything `compare` needs, so a result file is self-describing.
    #[must_use]
    pub fn to_result_json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::from(self.value)),
            ("unit", Json::from(self.decl.unit)),
            ("better", Json::from(self.decl.better.as_str())),
            (
                "kind",
                Json::from(match self.decl.kind {
                    Kind::Host => "host",
                    Kind::Exact => "exact",
                }),
            ),
        ];
        if let Some(bound) = self.decl.bound {
            fields.push(("bound", Json::from(bound)));
        }
        if let Some(samples) = &self.samples {
            fields.push(("samples", samples.to_json()));
        }
        Json::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract_alphabet() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16, "{}: unit {} too long", d.name, d.unit);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = decl("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
