//! The repository benchmark: closed-loop network workloads timed end to
//! end, with a traced run that breaks the time down by layer.
//!
//! ```text
//! perfbench --workload <name|all|a,b,...> --seed <n> --seconds <s> --trace <0|1>
//!           [--inject-delay-ns <ns>]
//! ```
//!
//! One workload runs in this process and ends with two stdout lines: a
//! record (provenance, sample counts, fingerprints, any problems) and
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are [`END_TO_END`]; with `--trace 1`
//! they are [`PER_LAYER`]. Several workloads run one child process each,
//! so peak memory and set-up time belong to one workload. The exit code
//! is nonzero when any output was wrong.
//!
//! `--inject-delay-ns` busy-waits that long before every message send of
//! the untraced net rounds: the deliberate slowdown `sensitivity.py`
//! checks the benchmark flags.

mod attrib;
mod layers;
mod micro;
mod net;
mod stats;
mod sweep;

use stats::{json_string, Metrics};
use std::process::{Command, ExitCode, Stdio};

/// Every workload, with the reason it was chosen (also in
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "inproc-abd",
        "ABD over the in-process hub at ~10 msgs/op: loads client loop, hub hop, wire codec and \
         serve dispatch; bypasses erasure, framing/TCP and the store, so it is their control",
    ),
    (
        "tcp-coded-cas",
        "coded CAS on TCP loopback: RS encode per write, decode per read, framing, reader-thread \
         handoffs and syscalls; storage per key must stay exactly N/(N-f)",
    ),
    (
        "inproc-store-read",
        "batch-16, 10%-write ABD on pooled lock-free-store servers: the only workload where \
         RegStore loads and the serve_shared handoff do most of the work",
    ),
];

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 3] = [
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run. A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("wall.ops_per_s", "1/s"),
    ("wall.latency_p50_us", "us"),
    ("wall.latency_p90_us", "us"),
    ("client.self_us_per_op", "us"),
    ("client.recv_wait_us_per_op", "us"),
    ("client.empty_polls_per_op", "count"),
    ("client.retransmits_per_op", "count"),
    ("client.latency_p99_us", "us"),
    ("client.read_aborts_per_op", "count"),
    ("client.unattributed_frac", "frac"),
    ("transport.send_ns_p50", "ns"),
    ("transport.send_ns_p99", "ns"),
    ("transport.hop_us_p50", "us"),
    ("transport.hop_us_p99", "us"),
    ("transport.msgs_per_op", "count"),
    ("transport.bytes_per_op", "B"),
    ("transport.self_us_per_op", "us"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.bytes_per_msg", "B"),
    ("frame.encode_ns_per_msg", "ns"),
    ("frame.read_ns_per_msg", "ns"),
    ("serve.dispatch_ns_per_msg", "ns"),
    ("serve.idle_frac", "frac"),
    ("serve.msgs_in_per_op", "count"),
    ("serve.self_us_per_op", "us"),
    ("backend.calls_per_op", "count"),
    ("backend.read_ns_p50", "ns"),
    ("backend.write_ns_p50", "ns"),
    ("store.live_versions", "count"),
    ("store.storage_per_key", "values"),
    ("erasure.encode_ns_per_value", "ns"),
    ("erasure.decode_ns_per_value", "ns"),
    ("erasure.decodes_per_op", "count"),
    ("erasure.plan_hit_rate", "frac"),
    ("sim.ns_per_step", "ns"),
    ("sim.steps_per_seed", "count"),
    ("sim.seeds_per_s", "1/s"),
    ("spec.check_us_per_history", "us"),
    ("spec.verify_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// The options of one run.
pub struct RunOpts {
    pub seed: u64,
    /// Load time to measure, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Injected per-message delay (0 = none).
    pub delay_ns: u64,
}

/// Whether another round runs after `round` rounds whose timed phases
/// took `load_s` seconds. Round 0 is an unmeasured warm-up; a traced
/// run alternates bare (odd) and traced (even) rounds and ends on a
/// complete pair.
pub fn more_rounds(round: u64, load_s: f64, opts: &RunOpts) -> bool {
    round < 2 || load_s < opts.seconds || (opts.trace && round.is_multiple_of(2))
}

/// Whether round `round` runs traced.
pub fn is_traced(round: u64, opts: &RunOpts) -> bool {
    opts.trace && round > 0 && round.is_multiple_of(2)
}

/// Checks that round `round` generated the same inputs as the first:
/// the seed alone must determine them.
pub fn same_inputs(
    first: &mut Option<u64>,
    fingerprint: u64,
    round: u64,
    problems: &mut Vec<String>,
) {
    match *first {
        None => *first = Some(fingerprint),
        Some(seen) if seen != fingerprint => problems.push(format!(
            "round {round}: input fingerprint {fingerprint:016x} != {seen:016x}"
        )),
        Some(_) => {}
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness failure found.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Extra record fields, as `(key, JSON value)`.
    pub detail: Vec<(&'static str, String)>,
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
/// Workloads read it after their first round: the process's baseline
/// plus one round's cluster under load. Later rounds would only add
/// allocator and thread-stack reuse effects that depend on how many
/// rounds the machine's speed allowed.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has run, over all its threads (finished ones
/// included), in seconds. Time the hypervisor stole from the machine is
/// not in it, which is what makes it steadier than wall time on a
/// shared virtual machine.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn provenance() -> String {
    let commit = if std::path::Path::new(".git").exists() {
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(Stdio::null())
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    } else {
        None
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {}}}",
        json_string(commit.as_deref().unwrap_or("unknown")),
        json_string(cpu.as_deref().unwrap_or("unknown")),
        json_string(env!("PERFBENCH_RUSTC_VERSION")),
    )
}

struct Args {
    workloads: Vec<&'static str>,
    opts: RunOpts,
    raw: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        delay_ns: 0,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--inject-delay-ns" => opts.delay_ns = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        workload
            .split(',')
            .map(|name| {
                WORKLOADS
                    .iter()
                    .find(|w| w.0 == name)
                    .map(|w| w.0)
                    .ok_or_else(|| format!("unknown workload {name}"))
            })
            .collect::<Result<_, _>>()?
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workloads,
        opts,
        raw,
    })
}

/// Runs each workload in a child process of its own, passing its output
/// through. Fails if any child fails.
fn run_children(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in &args.workloads {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                (*name).to_string()
            } else {
                value
            });
        }
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: workload {name} failed ({status})");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workloads.len() > 1 {
        return run_children(&args);
    }
    let name = args.workloads[0];
    let opts = &args.opts;
    let outcome = match name {
        "inproc-abd" => net::run(&net::INPROC_ABD, opts),
        "tcp-coded-cas" => net::run(&net::TCP_CODED_CAS, opts),
        "inproc-store-read" => net::run(&net::INPROC_STORE_READ, opts),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    let schema: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let correct = outcome.problems.is_empty();

    for &(metric, unit) in schema {
        if let Some(v) = outcome.metrics.get(metric) {
            eprintln!("{name}: {metric} = {v} {unit}");
        }
    }
    for p in outcome.problems.iter().take(20) {
        eprintln!("{name}: PROBLEM: {p}");
    }

    let why = WORKLOADS.iter().find(|w| w.0 == name).map_or("", |w| w.1);
    let mut record = format!(
        "{{\"record\": {{\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"inject_delay_ns\": {}, \"provenance\": {}",
        json_string(name),
        json_string(why),
        opts.seed,
        stats::json_number(opts.seconds),
        u8::from(opts.trace),
        opts.delay_ns,
        provenance(),
    );
    for (key, value) in &outcome.detail {
        record.push_str(&format!(", {}: {value}", json_string(key)));
    }
    let problems: Vec<String> = outcome
        .problems
        .iter()
        .take(20)
        .map(|p| json_string(p))
        .collect();
    record.push_str(&format!(", \"problems\": [{}]}}}}", problems.join(", ")));
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json(schema)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_util::json::Json;

    /// `BENCHMARK.json` must describe exactly what this program prints.
    #[test]
    fn benchmark_json_matches_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("why"))
            })
            .collect();
        assert_eq!(workloads, own(&WORKLOADS));
    }
}
