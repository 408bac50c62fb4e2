//! `underlay_faults`: the benchmark drives `net` directly on the 220-AS
//! graph. Every fault epoch applies a fault state (incremental routing
//! repair), runs one max-min flow-allocation cycle and charges its bytes
//! to the ledger, then reads a batch of latencies. Most epochs fail or
//! heal a few peripheral peering links; one transit outage forces the
//! full-rebuild fallback.

use super::{
    build_underlay, check_ledger, ensure, hierarchy, host_pairs, latency_batch, stream,
    underlay_queries, Phases, Rep,
};
use crate::digest::Digest;
use crate::spans::Spans;
use std::collections::BTreeMap;
use uap_net::{FaultState, FlowAllocator, HostId, LinkKind, PopulationSpec, Tier, Underlay};
use uap_sim::{SimRng, SimTime};

const HOSTS: usize = 1_200;
/// Fault epochs per repetition (100 support a p90).
const EPOCHS: usize = 120;
/// The epoch that takes a share of all transit links down.
const OUTAGE_EPOCH: usize = EPOCHS / 2;
/// Flows in every allocation cycle.
const FLOWS: usize = 2_048;
/// `latency_us` reads per epoch.
const READS: usize = 4_096;

/// The seeded per-epoch link masks (`None` = every link up) and latency
/// factors.
fn fault_states(rng: &mut SimRng, u: &Underlay) -> Vec<FaultState> {
    let links = &u.graph.links;
    let tier = |i: uap_net::AsId| u.graph.nodes[i.idx()].tier;
    let peripheral: Vec<usize> = (0..links.len())
        .filter(|&i| {
            let l = &links[i];
            l.kind == LinkKind::Peering && tier(l.a) != Tier::Tier1 && tier(l.b) != Tier::Tier1
        })
        .collect();
    (0..EPOCHS)
        .map(|e| {
            let mut state = FaultState::clear();
            if e == OUTAGE_EPOCH {
                state.mask = Some(
                    links
                        .iter()
                        .map(|l| l.kind == LinkKind::Transit && rng.chance(0.25))
                        .collect(),
                );
            } else if e % 2 == 0 && !peripheral.is_empty() {
                let mut mask = vec![false; links.len()];
                for _ in 0..1 + rng.index(2) {
                    mask[*rng.pick(&peripheral)] = true;
                }
                state.mask = Some(mask);
            }
            if e % 16 >= 8 {
                state.latency_factor = 1.5;
            }
            state
        })
        .collect()
}

pub fn run(seed: u64, spans: &mut Spans) -> Result<Rep, String> {
    let mut inputs = stream(seed, 31);
    let flows = host_pairs(&mut inputs, HOSTS, FLOWS);
    let reads = host_pairs(&mut inputs, HOSTS, READS);

    let mut phases = Phases::start(spans);
    let mut rng = stream(seed, 32);
    let mut u = build_underlay(
        spans,
        &hierarchy(4, 6, 8),
        |_| PopulationSpec::leaf(HOSTS),
        &mut rng,
    );
    let states = fault_states(&mut inputs, &u);
    let mut alloc = FlowAllocator::new(&u);
    phases.setup_done(spans);

    let mut digest = Digest::default();
    let (mut changed_links, mut admitted) = (0u64, 0u64);
    for (e, state) in states.iter().enumerate() {
        spans.enter("bench.epoch");
        let stats = spans.time("net.routing.apply_fault_state", || {
            u.apply_fault_state(state)
        });
        changed_links += stats.changed_links as u64;
        let n = spans.time("net.flow.cycle", || {
            alloc.begin();
            let mut n = 0u64;
            for (id, &(a, b)) in flows.iter().enumerate() {
                n += u64::from(alloc.add_flow(id as u64, HostId(a), HostId(b), &u));
            }
            alloc.allocate();
            n
        });
        admitted += n;
        let now = SimTime::from_secs(e as u64);
        let moved = spans.time("net.underlay.account_transfer", || {
            let mut moved = 0u64;
            for (id, &(a, b)) in flows.iter().enumerate() {
                let bytes = alloc.bytes_of(id as u64, 1.0);
                if bytes > 0 {
                    u.account_transfer(now, HostId(a), HostId(b), bytes);
                    moved += bytes;
                }
            }
            moved
        });
        let latency_sum = latency_batch(spans, &u, &reads);
        spans.exit();
        digest = digest
            .u64(stats.changed_links as u64)
            .u64(stats.dirty_sources as u64)
            .u64(u64::from(stats.full_rebuild))
            .u64(n)
            .u64(moved)
            .u64(latency_sum);
    }
    let (setup_s, run_s) = phases.run_done(spans);

    check_ledger(&u)?;
    let (recomputed, total, fallbacks) = u.repair_totals();
    ensure(fallbacks >= 1, || {
        "the transit outage did not force a full rebuild".into()
    })?;
    ensure(2 * fallbacks < EPOCHS as u64, || {
        format!("{fallbacks} of {EPOCHS} epochs fell back to a full rebuild")
    })?;
    ensure(recomputed < total, || {
        "incremental repair recomputed every source".into()
    })?;
    let attempted = (EPOCHS * FLOWS) as u64;
    ensure(admitted > attempted / 2, || {
        format!("only {admitted} of {attempted} flows admitted")
    })?;
    let (_, peering, transit) = u.traffic.totals();
    ensure(peering + transit > 0, || "no inter-AS bytes charged".into())?;

    Ok(Rep {
        setup_s,
        run_s,
        work: EPOCHS as u64,
        digest: digest.u64(recomputed).u64(total).u64(fallbacks).finish(),
        counts: BTreeMap::from([
            ("net.routing.changed_links", changed_links as f64),
            ("net.routing.sources_recomputed", recomputed as f64),
            ("net.routing.sources_total", total as f64),
            ("net.routing.full_fallbacks", fallbacks as f64),
            ("net.flow.cycles", EPOCHS as f64),
            (
                "net.flow.admitted_share",
                admitted as f64 / attempted as f64,
            ),
            ("net.underlay.queries", underlay_queries(&u)),
            ("net.underlay.latency_samples", (EPOCHS * READS) as f64),
        ]),
    })
}
