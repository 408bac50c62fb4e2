//! `gnutella_churn`: the E4 paper-scale underlay (1 000 hosts over
//! 3 × 3 × 4 = 48 ASes), oracle-biased neighbor selection with a
//! 1 000-entry hostcache, and exponential churn (mean session 1 200 s),
//! run on the engine in fixed simulated-time `run_until` slices.

use super::{
    build_underlay, check_ledger, ensure, hierarchy, host_pairs, latency_batch, stream,
    underlay_queries, Phases, Rep,
};
use crate::digest::Digest;
use crate::metrics::PER_LAYER;
use crate::spans::Spans;
use std::collections::BTreeMap;
use uap_gnutella::{GnutellaConfig, GnutellaSim, NeighborSelection};
use uap_net::PopulationSpec;
use uap_sim::{ChurnConfig, ProfileConfig, SimTime, Simulator};

const HOSTS: usize = 1_000;
/// Simulated length of one `run_until` slice.
const SLICE: SimTime = SimTime::from_secs(60);
/// Slices per repetition: three simulated hours (100 slices support a
/// p90).
const SLICES: u64 = 180;
/// `latency_us` reads in the closing probe batch.
const PROBE_READS: usize = 100_000;

pub fn run(seed: u64, spans: &mut Spans) -> Result<Rep, String> {
    let pairs = host_pairs(&mut stream(seed, 1), HOSTS, PROBE_READS);
    let horizon = SimTime::from_micros(SLICE.as_micros() * SLICES);
    let cfg = GnutellaConfig {
        selection: NeighborSelection::OracleBiased { list_size: 1_000 },
        hostcache_size: 1_000,
        churn: ChurnConfig::exponential(1_200.0),
        duration: horizon,
        ..Default::default()
    };

    let mut phases = Phases::start(spans);
    let mut rng = stream(seed, 2);
    let underlay = build_underlay(
        spans,
        &hierarchy(3, 3, 4),
        |_| PopulationSpec::leaf(HOSTS),
        &mut rng,
    );
    let mut sim = Simulator::new(seed);
    if spans.enabled() {
        // Per-kind event counts for the traced run; deterministic, and
        // outside everything the digest covers.
        sim.enable_profiling(ProfileConfig {
            queue_depth_every: 0,
            events_per_sim_sec: false,
            wall_timer: false,
        });
    }
    let mut world = spans.time("gnutella.new", || GnutellaSim::new(underlay, cfg, &mut sim));
    phases.setup_done(spans);

    let mut events = 0;
    for k in 1..=SLICES {
        let deadline = SimTime::from_micros(SLICE.as_micros() * k);
        let stats = spans.time("sim.run_until", || sim.run_until(&mut world, deadline));
        events = stats.events_processed;
    }
    let latency_sum = latency_batch(spans, &world.underlay, &pairs);
    let (setup_s, run_s) = phases.run_done(spans);

    let r = world.report(sim.metrics(), events);
    check_ledger(&world.underlay)?;
    let msgs = r.total_msgs();
    ensure(events > 0 && msgs > 0, || "no events or messages".into())?;
    ensure(r.joins >= HOSTS as u64 / 2, || {
        format!("only {} joins", r.joins)
    })?;
    ensure(r.queries_issued > 0 && r.queries_successful > 0, || {
        format!(
            "{} of {} queries found a provider",
            r.queries_successful, r.queries_issued
        )
    })?;
    ensure(r.downloads_intra_as <= r.downloads, || {
        "more intra-AS downloads than downloads".into()
    })?;
    ensure(r.oracle_queries > 0, || {
        "oracle-biased selection made no oracle queries".into()
    })?;

    let digest = Digest::default()
        .u64(events)
        .u64(r.ping_msgs)
        .u64(r.pong_msgs)
        .u64(r.query_msgs)
        .u64(r.queryhit_msgs)
        .u64(r.queries_issued)
        .u64(r.queries_successful)
        .u64(r.downloads)
        .u64(r.downloads_intra_as)
        .u64(r.joins)
        .u64(r.oracle_queries)
        .u64(r.edges.len() as u64)
        .f64(r.mean_query_delay_ms)
        .f64(r.mean_download_secs)
        .f64(r.download_locality)
        .u64(latency_sum)
        .finish();

    let mut counts = BTreeMap::from([
        ("sim.events", events as f64),
        ("gnutella.msgs", msgs as f64),
        ("gnutella.queries", r.queries_issued as f64),
        ("gnutella.query_success", r.success_ratio()),
        ("gnutella.downloads", r.downloads as f64),
        ("gnutella.download_intra_as", r.downloads_intra_as as f64),
        ("gnutella.joins", r.joins as f64),
        ("info.oracle_queries", r.oracle_queries as f64),
        ("net.underlay.queries", underlay_queries(&world.underlay)),
        ("net.underlay.latency_samples", PROBE_READS as f64),
    ]);
    if spans.enabled() {
        // `sim.events.<kind>` for each `World::kind_of` name of `GnutellaSim`.
        for m in PER_LAYER {
            if let Some(kind) = m.name.strip_prefix("sim.events.") {
                let n = sim.metrics().counter(&format!("engine.events.{kind}"));
                counts.insert(m.name, n as f64);
            }
        }
    }
    Ok(Rep {
        setup_s,
        run_s,
        work: msgs,
        digest,
        counts,
    })
}
