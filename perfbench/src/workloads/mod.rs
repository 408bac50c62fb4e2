//! The four workloads. Each generates its inputs from the seed, calls the
//! substrates' public functions inside spans, checks the outputs and
//! folds its deterministic results into a digest.

mod dht_churn;
mod gnutella_churn;
mod swarm_faults;
mod underlay_faults;

use crate::spans::Spans;
use std::collections::BTreeMap;
use uap_net::{AsGraph, PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};
use uap_sim::SimRng;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Oracle-biased Gnutella under exponential churn on the engine.
    GnutellaChurn,
    /// Kademlia PNS+PR lookups while a rolling share of hosts is offline.
    DhtChurn,
    /// One flow-backed BitTorrent swarm under a fault plan.
    SwarmFaults,
    /// Fault epochs, flow allocation and latency reads driven on `net`.
    UnderlayFaults,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::GnutellaChurn,
        Workload::DhtChurn,
        Workload::SwarmFaults,
        Workload::UnderlayFaults,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GnutellaChurn => "gnutella_churn",
            Workload::DhtChurn => "dht_churn",
            Workload::SwarmFaults => "swarm_faults",
            Workload::UnderlayFaults => "underlay_faults",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The unit of [`Rep::work`].
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::GnutellaChurn => "overlay messages",
            Workload::DhtChurn => "lookups",
            Workload::SwarmFaults => "leecher-rounds",
            Workload::UnderlayFaults => "fault epochs",
        }
    }

    /// Runs one repetition: set-up, the timed phase, then the checks.
    pub fn run(self, seed: u64, spans: &mut Spans) -> Result<Rep, String> {
        match self {
            Workload::GnutellaChurn => gnutella_churn::run(seed, spans),
            Workload::DhtChurn => dht_churn::run(seed, spans),
            Workload::SwarmFaults => swarm_faults::run(seed, spans),
            Workload::UnderlayFaults => underlay_faults::run(seed, spans),
        }
    }
}

/// What one repetition produced.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Host seconds of the set-up phase.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub run_s: f64,
    /// Deterministic work count of the timed phase.
    pub work: u64,
    /// Hash over the deterministic results.
    pub digest: u64,
    /// Deterministic per-layer counts and ratios, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Host-second stamps of one repetition's phase boundaries.
pub struct Phases {
    t0: f64,
    t1: f64,
}

impl Phases {
    /// Stamps the start of set-up and opens the `bench.setup` span.
    pub fn start(spans: &mut Spans) -> Phases {
        spans.enter("bench.setup");
        let t0 = spans.now();
        Phases { t0, t1: t0 }
    }

    /// Ends set-up and opens the timed phase (`bench.run`).
    pub fn setup_done(&mut self, spans: &mut Spans) {
        self.t1 = spans.now();
        spans.exit();
        spans.enter("bench.run");
    }

    /// Ends the timed phase; returns `(setup_s, run_s)`.
    pub fn run_done(self, spans: &mut Spans) -> (f64, f64) {
        let t2 = spans.now();
        spans.exit();
        (self.t1 - self.t0, t2 - self.t1)
    }
}

/// Fails with `msg` unless `cond` holds.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Independent input streams derived from the one seed.
pub fn stream(seed: u64, salt: u64) -> SimRng {
    SimRng::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Hierarchical topology spec: `tier1` × `tier2` × `tier3` ASes.
pub fn hierarchy(tier1: usize, tier2: usize, tier3: usize) -> TopologySpec {
    TopologySpec::new(TopologyKind::Hierarchical {
        tier1,
        tier2_per_tier1: tier2,
        tier3_per_tier2: tier3,
        tier2_peering_prob: 0.3,
        tier3_peering_prob: 0.3,
    })
}

/// Generates `spec` and builds the underlay over the population `pop`
/// picks for the graph, each call in its own span.
pub fn build_underlay(
    spans: &mut Spans,
    spec: &TopologySpec,
    pop: impl FnOnce(&AsGraph) -> PopulationSpec,
    rng: &mut SimRng,
) -> Underlay {
    let graph = spans.time("net.gen", || spec.build(rng));
    let pop = pop(&graph);
    spans.time("net.underlay_build", || {
        Underlay::build(graph, &pop, UnderlayConfig::default(), rng)
    })
}

/// `n` host-index pairs with distinct endpoints among `hosts` hosts.
pub fn host_pairs(rng: &mut SimRng, hosts: usize, n: usize) -> Vec<(u32, u32)> {
    (0..n)
        .map(|_| {
            let a = rng.index(hosts);
            let b = (a + 1 + rng.index(hosts - 1)) % hosts;
            (a as u32, b as u32)
        })
        .collect()
}

/// One timed batch of `latency_us` reads over `pairs`; returns the sum
/// of the answers (unreachable pairs count 0) for the digest.
pub fn latency_batch(spans: &mut Spans, u: &Underlay, pairs: &[(u32, u32)]) -> u64 {
    use uap_net::HostId;
    spans.time("net.underlay.latency_batch", || {
        pairs
            .iter()
            .map(|&(a, b)| u.latency_us(HostId(a), HostId(b)).unwrap_or(0))
            .fold(0u64, u64::wrapping_add)
    })
}

/// Checks byte conservation of the underlay's traffic ledger.
pub fn check_ledger(u: &Underlay) -> Result<(), String> {
    uap_net::invariants::check_traffic_conservation(&u.graph, &u.traffic)
}

/// Route-cache queries (hits + misses) served so far.
pub fn underlay_queries(u: &Underlay) -> f64 {
    let (hits, misses) = u.route_cache_stats();
    (hits + misses) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(w: Workload, seed: u64) -> u64 {
        w.run(seed, &mut Spans::new(false))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
            .digest
    }

    #[test]
    fn same_seed_gives_the_same_digest() {
        for w in Workload::ALL {
            assert_eq!(digest_of(w, 7), digest_of(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn tracing_does_not_change_the_digest() {
        let w = Workload::UnderlayFaults;
        let traced = w.run(7, &mut Spans::new(true)).expect("traced run").digest;
        assert_eq!(traced, digest_of(w, 7));
    }

    #[test]
    fn seeds_change_the_inputs() {
        let w = Workload::UnderlayFaults;
        assert_ne!(digest_of(w, 7), digest_of(w, 8));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("gnutella"), None);
    }
}
