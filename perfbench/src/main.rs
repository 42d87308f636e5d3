//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <update-hot|scan-sharded|wire-d1> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run is a series of rounds; each round builds and
//! prefills a fresh structure, drives the workload's seeded op streams
//! through it in a closed loop, and audits the result.  The run prints a
//! header of host facts and per-round values, then one JSON line with the
//! end-to-end metrics.  With `--trace 1` it prints the per-layer metrics
//! of the layer ladder instead (see `ladder`).  Any failed audit ends the
//! run with a non-zero exit and no result line.

mod e2e;
mod hist;
mod host;
mod ladder;
mod spec;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: harness::alloc_count::CountingAllocator = harness::alloc_count::CountingAllocator;

/// Command-line arguments.
struct Args {
    workload: spec::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = spec::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// The result line.
fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// End-to-end metrics of an untraced run, plus its header lines.
fn end_to_end(
    a: &Args,
    streams: &[Vec<workload::Op>],
) -> Result<(Vec<Metric>, u64, u64, Vec<String>), String> {
    let w = &a.workload;
    let plan = e2e::Plan::for_seconds(a.seconds);
    let mut run = e2e::run(w, &|| w.build(), a.seed, streams, plan)?;
    let samples = run.hist.count();
    let p50 = run.hist.quantile(0.50) as f64;
    let metrics = vec![
        ("throughput_mops", "Mop/s", run.throughput()),
        ("p50_ns", "ns", p50),
        ("p99_ns", "ns", run.p99_median()),
        ("setup_s", "s", run.setup_median()),
        ("rss_mb", "MB", host::peak_rss_mb()),
    ];
    let fmt = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let beyond_p99 = |n: u64| n - (n as f64 * 0.99).ceil() as u64;
    let fewest = run.round_samples.iter().copied().min().unwrap_or(0);
    let header = vec![
        format!(
            "rounds: {} x {:?} measured, {:?} warmup",
            plan.rounds, plan.phase.measure, plan.phase.warmup
        ),
        format!("round throughput_mops: {}", fmt(&run.mops)),
        format!("round setup_s: {}", fmt(&run.setup_s)),
        format!("round p99_ns: {}", fmt(&run.p99)),
        format!(
            "latency samples: {samples} ({} beyond p99); fewest in a round: {fewest} ({} beyond p99)",
            beyond_p99(samples),
            beyond_p99(fewest)
        ),
        format!(
            "latency mean_ns: {:.1}; p99_ns of all rounds pooled: {}",
            run.hist.mean(),
            run.hist.quantile(0.99)
        ),
    ];
    Ok((metrics, run.attempted, run.failed, header))
}

/// Per-layer metrics of a traced run; writes the span log.
fn per_layer(
    a: &Args,
    streams: &[Vec<workload::Op>],
) -> Result<(Vec<Metric>, u64, u64, Vec<String>), String> {
    let mut t = ladder::run(&a.workload, a.seed, streams, a.seconds)?;
    // Beside the executable, so the log stays inside the build directory.
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("perfbench-spans");
    let path = dir.join(format!("{}-seed{}.csv", a.workload.name, a.seed));
    ladder::write_spans(&path, &t.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    t.header.push(format!(
        "span log: {} ({} spans)",
        path.display(),
        t.spans.len()
    ));
    Ok((t.metrics, t.attempted, t.failed, t.header))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal0 = host::steal_jiffies();
    let streams = args.workload.streams(args.seed);
    let outcome = if args.trace {
        per_layer(&args, &streams)
    } else {
        end_to_end(&args, &streams)
    };
    let (metrics, attempted, failed, lines) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, _, v)) = metrics.iter().find(|m| !m.2.is_finite()) {
        eprintln!("perfbench: {name} is not finite ({v})");
        return ExitCode::FAILURE;
    }
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    for line in host::facts().into_iter().chain(lines) {
        println!("# {line}");
    }
    println!(
        "# steal jiffies over the run: {}",
        host::steal_jiffies().saturating_sub(steal0)
    );
    println!("{}", result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let list = &text[text.find(&format!("\"{key}\"")).expect("key present")..];
        let list = &list[..list.find(']').expect("a list")];
        let field = |obj: &str, f: &str| {
            let rest = &obj[obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2..];
            let rest = &rest[rest.find('"').expect("string value") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        };
        list.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    /// Every declared metric appears exactly once, with its unit and a
    /// finite value, and nothing else is printed.
    fn check(printed: &[Metric], attempted: u64, failed: u64, key: &str) {
        let want = declared(key);
        assert_eq!(printed.len(), want.len(), "{key}: {printed:?}");
        let line = result_json(attempted, failed, printed);
        for (name, unit) in &want {
            let hits: Vec<&Metric> = printed.iter().filter(|m| m.0 == name).collect();
            assert_eq!(hits.len(), 1, "{name} printed {} times", hits.len());
            assert_eq!(hits[0].1, unit, "{name}");
            assert!(hits[0].2.is_finite(), "{name} = {}", hits[0].2);
            assert_eq!(
                line.matches(&format!("\"{name}\":")).count(),
                1,
                "{name} in {line}"
            );
        }
        assert!(attempted >= 1 && failed == 0);
    }

    #[test]
    fn smoke_each_workload_prints_every_metric_once() {
        for workload in spec::WORKLOADS {
            let streams = workload.streams(3);
            let args = |trace| Args {
                workload,
                seed: 3,
                seconds: 0.2,
                trace,
            };
            let (m, attempted, failed, _) = end_to_end(&args(false), &streams).expect("e2e run");
            check(&m, attempted, failed, "end_to_end");
            let (m, attempted, failed, _) = per_layer(&args(true), &streams).expect("traced run");
            check(&m, attempted, failed, "per_layer");
        }
    }
}
