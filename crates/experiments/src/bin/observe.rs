//! Live observatory over the tiered-memory simulator: streams ASCII
//! dashboard frames (registry counters/gauges/histograms plus the SLO
//! burn-rate advisories) from the contended `ls-antagonist` colocation
//! cell, then prints the end-of-run exposition and writes
//! `observe_out/metrics.prom` and `observe_out/observe.ndjson`.
//!
//! Flags:
//!
//! - `--qos` — run the cell with the QoS arbiter (the latency-sensitive
//!   tenant holds its target; without it the burn-rate monitor fires);
//! - `--every <n>` — dashboard frame cadence in ticks (default 50).
//!
//! The observability gates run as `grid observe --smoke`.

use experiments::observe;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let qos = args.iter().any(|a| a == "--qos");
    let every = args
        .iter()
        .position(|a| a == "--every")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(50);

    let mut print_frame = |frame: &str| print!("{frame}");
    let obs = observe::run_colocation_observed(qos, Some((&mut print_frame, every)));
    println!(
        "run complete: {} burn-rate alerts, {} recorded events",
        obs.alerts_fired(),
        obs.events.len()
    );
    std::fs::create_dir_all("observe_out").expect("create observe_out");
    std::fs::write("observe_out/metrics.prom", obs.exposition()).expect("write exposition");
    std::fs::write("observe_out/observe.ndjson", obs.ndjson()).expect("write ndjson");
    println!("artifacts written to observe_out/{{metrics.prom,observe.ndjson}}");
    print!("{}", obs.exposition());
}
