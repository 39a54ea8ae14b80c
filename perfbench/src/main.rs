//! The PABST simulator's benchmark: one workload per invocation.
//!
//! ```text
//! pabst-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! pabst-perfbench --print-digest --workload <name> --seed <n>
//! ```
//!
//! With `--trace 0` it repeats the workload's episode until the measured
//! windows add up to `--seconds`, and prints the end-to-end metrics. With
//! `--trace 1` it spends half the time untraced and half traced, runs the
//! per-layer replays, and prints the per-layer metrics. Either way every
//! episode is checked against the expected digest for the seed, and a
//! skip-off prefix run must reproduce the skip-on state. The last line of
//! standard output is the JSON result. See `perfbench/README.md`.

mod episode;
mod host;
mod layers;
mod replay;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Duration;

use episode::{Episode, Plan};
use workloads::Spec;

const USAGE: &str = "usage: pabst-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--spans <path>]\n       pabst-perfbench --print-digest --workload <name> --seed <n>";

/// Expected episode digests: `<workload> <seed|*> <hex>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
    print_digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace, mut spans, mut print_digest) =
        (None, None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--print-digest" {
            print_digest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(workloads::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(format!("--seconds must be 1..=600, got {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let spec = spec.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if print_digest {
        return Ok(Args { spec, seed, seconds: 0, trace: false, spans, print_digest });
    }
    Ok(Args {
        spec,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
        print_digest,
    })
}

/// The committed digest for `(workload, seed)`: an exact seed entry, else
/// the workload's `*` entry (streamers, whose behaviour no seed changes).
fn committed_digest(name: &str, seed: u64) -> Option<u64> {
    let mut any = None;
    for line in DIGESTS.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [w, s, d] = f[..] else { continue };
        if w != name {
            continue;
        }
        let Ok(d) = u64::from_str_radix(d, 16) else { continue };
        if s == "*" {
            any = Some(d);
        } else if s.parse() == Ok(seed) {
            return Some(d);
        }
    }
    any
}

/// Operations attempted and failed. Each episode is one operation, and so
/// is each skip-off oracle run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

fn run_guarded(spec: &Spec, seed: u64, plan: Plan) -> Option<Episode> {
    catch_unwind(AssertUnwindSafe(|| episode::run(spec, seed, plan))).ok()
}

/// Repeats the workload's episode until the measured windows reach
/// `budget`, checking each against `expected`. Episodes take the CPUs in
/// turn. The first episode also fingerprints the oracle prefix when
/// `prefix` is set.
fn repeat(
    spec: &Spec,
    seed: u64,
    budget: Duration,
    traced: bool,
    prefix: bool,
    expected: u64,
    tally: &mut Tally,
) -> Vec<Episode> {
    let cpus = host::cpus();
    let mut eps: Vec<Episode> = Vec::new();
    let mut measured = Duration::ZERO;
    while measured < budget {
        let plan = Plan {
            skip: true,
            measure_epochs: spec.measure_epochs,
            prefix_at: (prefix && eps.is_empty()).then_some(spec.oracle_epochs),
            traced,
            cpu: (!cpus.is_empty()).then(|| cpus[eps.len() % cpus.len()]),
        };
        tally.attempted += 1;
        let Some(ep) = run_guarded(spec, seed, plan) else {
            tally.failed += 1;
            println!("episode {} panicked", eps.len());
            break;
        };
        if ep.digest != expected || ep.violations > 0 {
            tally.failed += 1;
            println!(
                "episode {}: digest {:016x} (expected {expected:016x}), {} invariant violations",
                eps.len(),
                ep.digest,
                ep.violations
            );
        }
        measured += ep.measured;
        eps.push(ep);
    }
    eps
}

/// The skip-off oracle: the episode's first `oracle_epochs` measured
/// epochs under `SystemBuilder::skip(false)` must leave the fingerprint
/// the skip-on episode had at the same point.
fn oracle(spec: &Spec, seed: u64, reference: Option<u64>, tally: &mut Tally) {
    tally.attempted += 1;
    let plan = Plan {
        skip: false,
        measure_epochs: spec.oracle_epochs,
        prefix_at: None,
        traced: false,
        cpu: None,
    };
    let ep = run_guarded(spec, seed, plan);
    match (ep, reference) {
        (Some(ep), Some(r)) if ep.digest == r && ep.violations == 0 => println!(
            "oracle: skip-off run of {} + {} epochs reproduces the skip-on digest {r:016x}",
            spec.warm_epochs, spec.oracle_epochs
        ),
        (ep, r) => {
            tally.failed += 1;
            println!(
                "oracle: skip-off digest {:?} differs from skip-on {:?}",
                ep.map(|e| format!("{:016x}", e.digest)),
                r.map(|d| format!("{d:016x}"))
            );
        }
    }
}

/// The host's CPU brand string, from `cpuid`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports whether the brand-string leaves exist.
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002..=0x8000_0004u32 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes).trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Median of a non-empty slice.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Least of a non-empty iterator of times, in seconds.
fn least(times: impl Iterator<Item = Duration>) -> f64 {
    times.map(|d| d.as_secs_f64()).fold(f64::INFINITY, f64::min)
}

fn end_to_end(spec: &Spec, eps: &[Episode]) -> Vec<Metric> {
    let secs: f64 = eps.iter().map(|e| e.measured.as_secs_f64()).sum();
    let cpu_secs: f64 = eps.iter().map(|e| e.measured_cpu.as_secs_f64()).sum();
    let mut cpus: Vec<Option<usize>> = eps.iter().map(|e| e.cpu).collect();
    cpus.sort_unstable();
    cpus.dedup();
    for cpu in cpus {
        let mut windows: Vec<f64> =
            eps.iter().filter(|e| e.cpu == cpu).map(|e| e.measured_cpu.as_secs_f64()).collect();
        println!(
            "cpu {}: {} episodes, median window {:.4} s thread CPU",
            cpu.map_or("unpinned".to_string(), |c| c.to_string()),
            windows.len(),
            median(&mut windows)
        );
    }
    // Host times are thread CPU times. Every episode simulates the same
    // slices, and a shared host only ever slows a slice down, so each
    // slice's time is its least over the run's repeats: the window as the
    // host runs it when no neighbour gets in the way.
    let best: Vec<f64> = (0..eps[0].slice_times.len())
        .map(|i| least(eps.iter().map(|e| e.slice_times[i])))
        .collect();
    let window: f64 = best.iter().sum();
    let mut epoch_ms: Vec<f64> =
        best.chunks(spec.slices_per_epoch as usize).map(|s| s.iter().sum::<f64>() * 1e3).collect();
    let p50 = median(&mut epoch_ms);
    // Nearest-rank p95, reported only with at least ten epochs beyond it.
    let n = epoch_ms.len();
    let rank = (n * 95).div_ceil(100).max(1);
    if n - rank >= 10 {
        println!(
            "epoch_ms_p95 {:.4} ms over {n} epochs ({} beyond it)",
            epoch_ms[rank - 1],
            n - rank
        );
    } else {
        println!("epoch_ms_p95 not reported: {n} epochs timed, {} beyond p95 (needs 10)", n - rank);
    }
    println!(
        "timed {} episodes, each after its own set-up, in {secs:.3} s wall, {cpu_secs:.3} s \
         thread CPU; one window: {} simulated cycles, {n} epochs, {} slices, {} DRAM requests, \
         {window:.4} s thread CPU at each slice's least",
        eps.len(),
        eps[0].counters.cycles,
        best.len(),
        eps[0].dram_reqs
    );
    vec![
        Metric {
            name: "sim_cycles_per_s",
            value: eps[0].counters.cycles as f64 / window,
            unit: "1/s",
        },
        Metric { name: "epoch_ms_p50", value: p50, unit: "ms" },
        Metric { name: "mem_reqs_per_s", value: eps[0].dram_reqs as f64 / window, unit: "1/s" },
        Metric { name: "setup_s", value: least(eps.iter().map(|e| e.setup)), unit: "s" },
        Metric { name: "alloc_err_pct", value: eps[0].alloc_err_pct, unit: "%" },
        Metric { name: "bus_util", value: eps[0].bus_util, unit: "frac" },
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pabst-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    let full = Plan {
        skip: true,
        measure_epochs: spec.measure_epochs,
        prefix_at: None,
        traced: false,
        cpu: None,
    };
    if args.print_digest {
        let Some(ep) = run_guarded(&spec, args.seed, full) else { return ExitCode::FAILURE };
        println!("{} {} {:016x}", spec.name, args.seed, ep.digest);
        return ExitCode::SUCCESS;
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc {} cpu \"{}\"",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model()
    );
    let mut tally = Tally::default();
    let expected = match committed_digest(spec.name, args.seed) {
        Some(d) => d,
        None => {
            // No committed digest for this seed: the full episode under
            // skip(false) is the reference.
            tally.attempted += 1;
            let plan = Plan { skip: false, ..full };
            let Some(ep) = run_guarded(&spec, args.seed, plan) else {
                eprintln!("pabst-perfbench: the skip-off reference episode panicked");
                return ExitCode::FAILURE;
            };
            println!(
                "no committed digest for seed {}; skip-off reference {:016x}",
                args.seed, ep.digest
            );
            ep.digest
        }
    };

    let budget = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let untraced = repeat(&spec, args.seed, untraced_budget, false, true, expected, &mut tally);
    if untraced.is_empty() {
        eprintln!("pabst-perfbench: no episode completed");
        return ExitCode::FAILURE;
    }
    oracle(&spec, args.seed, untraced[0].prefix_digest, &mut tally);

    let metrics = if args.trace {
        let traced = repeat(&spec, args.seed, budget / 2, true, false, expected, &mut tally);
        if traced.is_empty() {
            eprintln!("pabst-perfbench: no traced episode completed");
            return ExitCode::FAILURE;
        }
        if let Some(path) = &args.spans {
            if let Err(e) = layers::write_spans(path, &traced) {
                eprintln!("pabst-perfbench: cannot write spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("spans written to {path}");
        }
        layers::per_layer(&spec, args.seed, &untraced, &traced)
    } else {
        end_to_end(&spec, &untraced)
    };
    println!("{}", result_json(&tally, &metrics));
    ExitCode::SUCCESS
}
