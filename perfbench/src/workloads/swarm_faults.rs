//! `swarm_faults`: one flow-backed BitTorrent swarm under a BNS tracker —
//! about 1 000 leechers and 512 pieces over 4 × 6 × 8 = 220 ASes — run
//! under a fault plan whose transit outage, host-crash window and
//! latency-inflation window all overlap the download.

use super::{
    build_underlay, check_ledger, ensure, hierarchy, stream, underlay_queries, Phases, Rep,
};
use crate::digest::Digest;
use crate::spans::Spans;
use std::collections::BTreeMap;
use uap_bittorrent::{run_swarm_with, SwarmConfig, TrackerPolicy};
use uap_net::{FaultKind, FaultPlan, HostId, PopulationSpec};
use uap_sim::{SimTime, Tracer};

const HOSTS: usize = 1_100;
const LEECHERS: usize = 1_000;
const SEEDS: usize = 32;
const PIECES: usize = 512;
/// Leechers crashed during the crash window.
const CRASHED: usize = 50;
/// Round cap: about twice the slowest full completion seen over 36 seeds.
/// A swarm still running at the cap has a starved leecher that no uploader
/// lists as a neighbor, so nobody ever unchokes it. That is a known defect
/// of the swarm model; `bittorrent.completed_share` reports it.
const MAX_ROUNDS: u32 = 400;

/// The seeded fault plan: transit links down with probability 0.1 over
/// [60 s, 240 s), `CRASHED` random leechers down over [100 s, 300 s), and
/// path latencies ×1.5 over [30 s, 200 s).
fn fault_plan(seed: u64) -> FaultPlan {
    let mut rng = stream(seed, 21);
    let mut leechers: Vec<u32> = (SEEDS as u32..(SEEDS + LEECHERS) as u32).collect();
    rng.shuffle(&mut leechers);
    let mut crashed: Vec<HostId> = leechers[..CRASHED].iter().map(|&h| HostId(h)).collect();
    crashed.sort_unstable();
    FaultPlan::new()
        .epoch(
            SimTime::from_secs(60),
            SimTime::from_secs(240),
            FaultKind::TransitDown {
                p: 0.1,
                salt: rng.u64(),
            },
        )
        .epoch(
            SimTime::from_secs(100),
            SimTime::from_secs(300),
            FaultKind::HostCrash { hosts: crashed },
        )
        .epoch(
            SimTime::from_secs(30),
            SimTime::from_secs(200),
            FaultKind::LatencyInflation { factor: 1.5 },
        )
}

pub fn run(seed: u64, spans: &mut Spans) -> Result<Rep, String> {
    let mut phases = Phases::start(spans);
    let mut rng = stream(seed, 22);
    let underlay = build_underlay(
        spans,
        &hierarchy(4, 6, 8),
        |_| PopulationSpec::leaf(HOSTS),
        &mut rng,
    );
    let cfg = SwarmConfig {
        n_leechers: LEECHERS,
        n_seeds: SEEDS,
        n_pieces: PIECES,
        tracker: TrackerPolicy::Bns {
            internal: 16,
            external: 4,
        },
        faults: Some(fault_plan(seed)),
        max_rounds: MAX_ROUNDS,
        ..Default::default()
    };
    phases.setup_done(spans);
    let (r, underlay) = spans.time("bittorrent.run_swarm", || {
        run_swarm_with(underlay, cfg, seed, &mut Tracer::disabled())
    });
    let (setup_s, run_s) = phases.run_done(spans);

    check_ledger(&underlay)?;
    let progress = &r.completed_by_round;
    ensure(progress.len() == r.rounds as usize, || {
        format!("{} rounds but {} progress points", r.rounds, progress.len())
    })?;
    ensure(progress.windows(2).all(|w| w[0] <= w[1]), || {
        "progress went backwards".into()
    })?;
    ensure(progress.last() == Some(&r.completed), || {
        "progress does not end at the completed count".into()
    })?;
    ensure(r.completed == LEECHERS || r.rounds == MAX_ROUNDS, || {
        format!("stopped at round {} with leechers left", r.rounds)
    })?;
    ensure(100 * r.completed >= 99 * LEECHERS, || {
        format!("only {} of {LEECHERS} leechers finished", r.completed)
    })?;
    ensure(r.reannounces > 0, || {
        "the crash window caused no re-announces".into()
    })?;
    ensure(r.payload_bytes > 0, || "no payload moved".into())?;
    let (recomputed, total, fallbacks) = underlay.repair_totals();
    ensure(total > 0, || {
        "the fault plan triggered no routing repair".into()
    })?;

    // Leecher-rounds: every round, each leecher still downloading.
    let leecher_rounds: u64 = r
        .completed_by_round
        .iter()
        .map(|&done| (r.leechers - done) as u64)
        .sum();
    let mut digest = Digest::default()
        .u64(u64::from(r.rounds))
        .u64(r.completed as u64)
        .u64(r.payload_bytes)
        .u64(r.announces)
        .u64(r.reannounces)
        .f64(r.intra_as_fraction)
        .f64(r.mean_completion_secs())
        .u64(recomputed)
        .u64(total)
        .u64(fallbacks);
    for &done in &r.completed_by_round {
        digest = digest.u64(done as u64);
    }
    Ok(Rep {
        setup_s,
        run_s,
        work: leecher_rounds,
        digest: digest.finish(),
        counts: BTreeMap::from([
            ("bittorrent.rounds", f64::from(r.rounds)),
            (
                "bittorrent.completed_share",
                r.completed as f64 / r.leechers as f64,
            ),
            ("bittorrent.announces", r.announces as f64),
            ("bittorrent.reannounces", r.reannounces as f64),
            ("bittorrent.intra_as_share", r.intra_as_fraction),
            ("net.routing.sources_recomputed", recomputed as f64),
            ("net.routing.sources_total", total as f64),
            ("net.routing.full_fallbacks", fallbacks as f64),
            ("net.underlay.queries", underlay_queries(&underlay)),
        ]),
    })
}
