//! `dht_churn`: Kademlia with PNS+PR over the E9 heavy-tailed 1 024-host
//! underlay. One closed-loop caller issues independent lookups while a
//! rolling window of hosts is offline; RPC timeouts are retransmitted.

use super::{
    build_underlay, check_ledger, ensure, hierarchy, host_pairs, latency_batch, stream,
    underlay_queries, Phases, Rep,
};
use crate::digest::Digest;
use crate::spans::Spans;
use std::collections::BTreeMap;
use uap_kademlia::{DhtConfig, DhtNetwork, Key, ProximityMode};
use uap_net::host::AttachmentDist;
use uap_net::{AsGraph, HostId, PopulationSpec, Tier};

const HOSTS: usize = 1_024;
/// Lookups per repetition (1 000 support a p99).
const LOOKUPS: usize = 8_000;
/// Lookups between two churn steps.
const BATCH: usize = 100;
/// Hosts offline at any time (3 % of the population).
const OFFLINE: usize = 31;
/// Hosts brought back and taken down at each churn step.
const ROTATE: usize = 8;
/// `latency_us` reads in the closing probe batch.
const PROBE_READS: usize = 100_000;

/// One churn step: the hosts to bring back online, then the hosts to
/// take offline.
struct ChurnStep {
    up: Vec<HostId>,
    down: Vec<HostId>,
}

/// The generated inputs.
struct Inputs {
    targets: Vec<Key>,
    /// Lookup origin per lookup; skipped forward to the next online host.
    origins: Vec<usize>,
    /// Hosts offline from the start.
    initial_down: Vec<HostId>,
    /// One step before every batch after the first.
    steps: Vec<ChurnStep>,
    probe: Vec<(u32, u32)>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = stream(seed, 11);
    let targets = (0..LOOKUPS).map(|_| Key::random(&mut rng)).collect();
    let origins = (0..LOOKUPS).map(|_| rng.index(HOSTS)).collect();
    // A rolling window over a seeded host order: each step revives the
    // oldest `ROTATE` offline hosts and takes the next `ROTATE` down.
    let mut order: Vec<HostId> = (0..HOSTS).map(HostId::from_index).collect();
    rng.shuffle(&mut order);
    let initial_down = order[..OFFLINE].to_vec();
    let steps = (1..LOOKUPS / BATCH)
        .map(|s| {
            let at = |i: usize| order[i % HOSTS];
            let first = (s - 1) * ROTATE;
            ChurnStep {
                up: (first..first + ROTATE).map(at).collect(),
                down: (first + OFFLINE..first + OFFLINE + ROTATE)
                    .map(at)
                    .collect(),
            }
        })
        .collect();
    Inputs {
        targets,
        origins,
        initial_down,
        steps,
        probe: host_pairs(&mut rng, HOSTS, PROBE_READS),
    }
}

/// The E9 population: Zipf-like weights over the leaf ASes, so a few big
/// ISPs hold most peers.
fn heavy_tailed(graph: &AsGraph) -> PopulationSpec {
    let weights = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if n.tier == Tier::Tier3 {
                1.0 / (1.0 + (i % 7) as f64).powf(1.2)
            } else {
                0.0
            }
        })
        .collect();
    PopulationSpec {
        n: HOSTS,
        attachment: AttachmentDist::Weighted(weights),
    }
}

/// The online host whose key is XOR-closest to `target` (linear scan).
fn true_closest(net: &DhtNetwork, target: &Key) -> Option<Key> {
    (0..net.len())
        .map(HostId::from_index)
        .filter(|&h| net.is_online(h))
        .map(|h| net.key_of(h))
        .min_by(|a, b| target.cmp_distance(a, b))
}

pub fn run(seed: u64, spans: &mut Spans) -> Result<Rep, String> {
    let inp = inputs(seed);
    let cfg = DhtConfig {
        proximity: ProximityMode::PnsPr,
        rpc_retries: 2,
        ..Default::default()
    };

    let mut phases = Phases::start(spans);
    let mut rng = stream(seed, 12);
    let underlay = build_underlay(spans, &hierarchy(3, 3, 4), heavy_tailed, &mut rng);
    let mut net = spans.time("kademlia.build", || {
        DhtNetwork::build(underlay, cfg, &mut rng)
    });
    phases.setup_done(spans);

    spans.time("kademlia.set_online", || {
        for &h in &inp.initial_down {
            net.set_online(h, false);
        }
    });
    let (mut rpcs, mut inter, mut retransmits, mut exact) = (0u64, 0u64, 0u64, 0u64);
    let mut digest = Digest::default();
    for (i, (target, &origin)) in inp.targets.iter().zip(&inp.origins).enumerate() {
        if i > 0 && i % BATCH == 0 {
            let step = &inp.steps[i / BATCH - 1];
            spans.time("kademlia.set_online", || {
                for &h in &step.up {
                    net.set_online(h, true);
                }
                for &h in &step.down {
                    net.set_online(h, false);
                }
            });
        }
        let from = (0..HOSTS)
            .map(|k| HostId::from_index((origin + k) % HOSTS))
            .find(|&h| net.is_online(h))
            .ok_or("every host is offline")?;
        let out = spans.time("kademlia.lookup", || net.lookup(from, target, &mut rng));
        rpcs += out.rpcs;
        inter += out.inter_as_rpcs;
        retransmits += out.retransmits;
        let found = out.closest.first().map(|c| c.key);
        if found.is_some() && found == true_closest(&net, target) {
            exact += 1;
        }
        digest = digest
            .u64(out.rpcs)
            .u64(out.retransmits)
            .u64(out.latency_us)
            .u64(u64::from(out.rounds))
            .u64(found.map_or(0, |k| {
                u64::from_le_bytes(k.0[..8].try_into().unwrap_or([0; 8]))
            }));
    }
    let latency_sum = latency_batch(spans, &net.underlay, &inp.probe);
    let (setup_s, run_s) = phases.run_done(spans);

    check_ledger(&net.underlay)?;
    let lookups = LOOKUPS as u64;
    ensure(rpcs >= lookups, || {
        format!("{rpcs} RPCs for {lookups} lookups")
    })?;
    ensure(2 * retransmits < rpcs, || {
        format!("retransmits {retransmits} are not a minority of {rpcs} RPCs")
    })?;
    ensure(retransmits > 0, || "churn caused no retransmits".into())?;
    ensure(10 * exact >= 8 * lookups, || {
        format!("only {exact} of {lookups} lookups found the closest online node")
    })?;

    Ok(Rep {
        setup_s,
        run_s,
        work: lookups,
        digest: digest.u64(exact).u64(inter).u64(latency_sum).finish(),
        counts: BTreeMap::from([
            ("kademlia.lookups", lookups as f64),
            ("kademlia.rpcs_per_lookup", rpcs as f64 / lookups as f64),
            ("kademlia.retransmits", retransmits as f64),
            ("kademlia.exactness", exact as f64 / lookups as f64),
            ("kademlia.inter_as_share", inter as f64 / rpcs.max(1) as f64),
            ("net.underlay.queries", underlay_queries(&net.underlay)),
            ("net.underlay.latency_samples", PROBE_READS as f64),
        ]),
    })
}
