//! Command-line parsing: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use crate::workloads::Workload;

/// The checked command line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input is derived from.
    pub seed: u64,
    /// Host seconds to keep repeating the workload for.
    pub seconds: u32,
    /// Whether to add traced repetitions and report per-layer metrics.
    pub trace: bool,
}

/// Usage line printed on a parse error.
pub const USAGE: &str =
    "usage: perfbench --workload <name> --seed <u64> --seconds <1..=3600> --trace <0|1>";

/// Parses the arguments after the program name. Every flag is required
/// and takes exactly one value.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line_in_any_order() {
        let a = parse(&argv(
            "--trace 1 --seed 42 --workload dht_churn --seconds 10",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::DhtChurn,
                seed: 42,
                seconds: 10,
                trace: true,
            }
        );
    }

    #[test]
    fn seed_takes_the_whole_u64_range() {
        let a = parse(&argv(
            "--workload swarm_faults --seed 18446744073709551615 --seconds 1 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.seed, u64::MAX);
        assert!(!a.trace);
    }

    #[test]
    fn rejects_bad_seeds() {
        for bad in ["-1", "abc", "1.5", "18446744073709551616", ""] {
            let line = format!("--workload dht_churn --seed {bad} --seconds 1 --trace 0");
            let mut v = argv(&line);
            if bad.is_empty() {
                v.insert(3, String::new());
            }
            assert!(parse(&v).is_err(), "seed {bad:?} accepted");
        }
    }

    #[test]
    fn rejects_missing_and_unknown_flags() {
        assert!(parse(&argv("--workload dht_churn --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv(
            "--workload dht_churn --seed 1 --seconds 1 --trace 0 --x 1"
        ))
        .is_err());
        assert!(parse(&argv("--workload dht_churn --seed")).is_err());
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv("--workload dht_churn --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&argv("--workload dht_churn --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
