//! The metric catalogue and the arithmetic that turns repetitions and
//! spans into metric values. `BENCHMARK.json` lists exactly these names.

use crate::spans::{layer_self_times, Spans};
use crate::stats::{median, quantile, supports};
use crate::workloads::Rep;
use std::collections::BTreeMap;

/// One metric: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
/// `failed_share` is printed too, but the result line carries it as its
/// `attempted` / `failed` fields, since it is 0 whenever the code is right.
pub const END_TO_END: [Metric; 5] = [
    m("run_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("work_per_s", "1/s", "higher"),
    m("cpu_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: [Metric; 61] = [
    m("net.gen_s", "s", "lower"),
    m("net.underlay_build_s", "s", "lower"),
    m("net.underlay.latency_ns", "ns", "lower"),
    m("net.underlay.latency_samples", "count", "higher"),
    m("net.underlay.queries", "count", "lower"),
    m("net.routing.repair_p50_us", "us", "lower"),
    m("net.routing.repair_p90_us", "us", "lower"),
    m("net.routing.repair_samples", "count", "higher"),
    m("net.routing.changed_links", "count", "lower"),
    m("net.routing.sources_recomputed", "count", "lower"),
    m("net.routing.sources_total", "count", "lower"),
    m("net.routing.full_fallbacks", "count", "lower"),
    m("net.flow.allocate_p50_ms", "ms", "lower"),
    m("net.flow.allocate_p90_ms", "ms", "lower"),
    m("net.flow.allocate_samples", "count", "higher"),
    m("net.flow.cycles", "count", "higher"),
    m("net.flow.admitted_share", "ratio", "higher"),
    m("sim.events", "count", "lower"),
    m("sim.ns_per_event", "ns", "lower"),
    m("sim.slice_p50_ms", "ms", "lower"),
    m("sim.slice_p90_ms", "ms", "lower"),
    m("sim.slice_samples", "count", "higher"),
    m("sim.events.churn", "count", "lower"),
    m("sim.events.ping_cycle", "count", "lower"),
    m("sim.events.query_cycle", "count", "lower"),
    m("sim.events.repair", "count", "lower"),
    m("sim.events.fault", "count", "lower"),
    m("gnutella.bootstrap_s", "s", "lower"),
    m("gnutella.msgs", "count", "lower"),
    m("gnutella.ns_per_msg", "ns", "lower"),
    m("gnutella.queries", "count", "higher"),
    m("gnutella.query_success", "ratio", "higher"),
    m("gnutella.downloads", "count", "higher"),
    m("gnutella.download_intra_as", "count", "higher"),
    m("gnutella.joins", "count", "higher"),
    m("info.oracle_queries", "count", "lower"),
    m("kademlia.join_s", "s", "lower"),
    m("kademlia.lookup_p50_us", "us", "lower"),
    m("kademlia.lookup_p99_us", "us", "lower"),
    m("kademlia.lookup_samples", "count", "higher"),
    m("kademlia.lookups", "count", "higher"),
    m("kademlia.rpcs_per_lookup", "rpc/lookup", "lower"),
    m("kademlia.retransmits", "count", "lower"),
    m("kademlia.exactness", "ratio", "higher"),
    m("kademlia.inter_as_share", "ratio", "lower"),
    m("kademlia.churn_us", "us", "lower"),
    m("bittorrent.swarm_s", "s", "lower"),
    m("bittorrent.rounds", "count", "lower"),
    m("bittorrent.ms_per_round", "ms", "lower"),
    m("bittorrent.completed_share", "ratio", "higher"),
    m("bittorrent.announces", "count", "lower"),
    m("bittorrent.reannounces", "count", "lower"),
    m("bittorrent.intra_as_share", "ratio", "higher"),
    m("bench.self_s", "s", "lower"),
    m("net.self_s", "s", "lower"),
    m("sim.self_s", "s", "lower"),
    m("gnutella.self_s", "s", "lower"),
    m("kademlia.self_s", "s", "lower"),
    m("bittorrent.self_s", "s", "lower"),
    m("trace.overhead_s", "s", "lower"),
    m("trace.spans", "count", "lower"),
];

/// End-to-end values from untraced repetitions: medians of run time,
/// set-up time and work rate, CPU seconds per repetition (a mean, so the
/// 10 ms tick of the kernel's CPU clock averages out), and the process's
/// peak RSS.
pub fn end_to_end(reps: &[(Rep, f64)], peak_rss_mib: f64) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&(Rep, f64)) -> f64| {
        median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    BTreeMap::from([
        ("run_s", med(&|(r, _)| r.run_s)),
        ("setup_s", med(&|(r, _)| r.setup_s)),
        ("work_per_s", med(&|(r, _)| r.work as f64 / r.run_s)),
        (
            "cpu_s",
            reps.iter().map(|(_, cpu)| cpu).sum::<f64>() / reps.len().max(1) as f64,
        ),
        ("peak_rss_mib", peak_rss_mib),
    ])
}

/// Per-layer values from the traced repetitions `reps`, whose spans are
/// all in `spans`. `untraced_run_s` is the median untraced run time the
/// tracing overhead is measured against. Fails when a named tail
/// percentile has too few samples beyond it.
pub fn per_layer(
    spans: &Spans,
    reps: &[Rep],
    untraced_run_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let k = reps.len() as f64;
    let count = |name: &str| {
        reps.first()
            .and_then(|r| r.counts.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    let med = |span: &str| median(&spans.durations(span)).unwrap_or(0.0);
    // Total span time per unit of a per-repetition count, times `scale`.
    let per = |span: &str, per_count: f64, scale: f64| {
        if per_count > 0.0 {
            spans.total(span) / (k * per_count) * scale
        } else {
            0.0
        }
    };
    let pct = |span: &str, q: f64, scale: f64| -> Result<f64, String> {
        let d = spans.durations(span);
        if d.is_empty() {
            return Ok(0.0);
        }
        if !supports(d.len(), q) {
            return Err(format!(
                "{} samples of {span} cannot support p{}",
                d.len(),
                q * 100.0
            ));
        }
        Ok(quantile(&d, q).unwrap_or(0.0) * scale)
    };
    let samples = |span: &str| spans.durations(span).len() as f64;
    let traced_run_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>()).unwrap_or(0.0);

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for metric in PER_LAYER {
        out.insert(metric.name, count(metric.name));
    }
    let repair = "net.routing.apply_fault_state";
    let flow = "net.flow.cycle";
    let slice = "sim.run_until";
    let lookup = "kademlia.lookup";
    out.extend([
        ("net.gen_s", med("net.gen")),
        ("net.underlay_build_s", med("net.underlay_build")),
        (
            "net.underlay.latency_ns",
            per(
                "net.underlay.latency_batch",
                count("net.underlay.latency_samples"),
                1e9,
            ),
        ),
        ("net.routing.repair_p50_us", pct(repair, 0.5, 1e6)?),
        ("net.routing.repair_p90_us", pct(repair, 0.9, 1e6)?),
        ("net.routing.repair_samples", samples(repair)),
        ("net.flow.allocate_p50_ms", pct(flow, 0.5, 1e3)?),
        ("net.flow.allocate_p90_ms", pct(flow, 0.9, 1e3)?),
        ("net.flow.allocate_samples", samples(flow)),
        ("sim.ns_per_event", per(slice, count("sim.events"), 1e9)),
        ("sim.slice_p50_ms", pct(slice, 0.5, 1e3)?),
        ("sim.slice_p90_ms", pct(slice, 0.9, 1e3)?),
        ("sim.slice_samples", samples(slice)),
        ("gnutella.bootstrap_s", med("gnutella.new")),
        (
            "gnutella.ns_per_msg",
            per(slice, count("gnutella.msgs"), 1e9),
        ),
        ("kademlia.join_s", med("kademlia.build")),
        ("kademlia.lookup_p50_us", pct(lookup, 0.5, 1e6)?),
        ("kademlia.lookup_p99_us", pct(lookup, 0.99, 1e6)?),
        ("kademlia.lookup_samples", samples(lookup)),
        ("kademlia.churn_us", med("kademlia.set_online") * 1e6),
        ("bittorrent.swarm_s", med("bittorrent.run_swarm")),
        (
            "bittorrent.ms_per_round",
            per("bittorrent.run_swarm", count("bittorrent.rounds"), 1e3),
        ),
        ("trace.overhead_s", traced_run_s - untraced_run_s),
        ("trace.spans", spans.spans().len() as f64 / k),
    ]);
    let self_times = layer_self_times(spans.spans());
    for m in PER_LAYER {
        if let Some(layer) = m.name.strip_suffix(".self_s") {
            out.insert(m.name, self_times.get(layer).copied().unwrap_or(0.0) / k);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists every metric here
    /// with the same unit and direction, and nothing else.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let line = json
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{}\"", metric.name)))
                .unwrap_or_else(|| panic!("{} missing from BENCHMARK.json", metric.name));
            assert!(
                line.contains(&format!("\"unit\": \"{}\"", metric.unit)),
                "{line}"
            );
            assert!(
                line.contains(&format!("\"better\": \"{}\"", metric.better)),
                "{line}"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
