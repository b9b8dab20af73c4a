//! Live end-to-end benchmark of the vine-rs runtime.
//!
//! ```text
//! cargo run --release --manifest-path livebench/Cargo.toml -- \
//!     --workload lnni-invoke --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process boots the manager (`Runtime` over the epoll `TcpTransport`)
//! and two TCP workers as threads dialling it over loopback, then drives a
//! seeded workload through `submit`/`run_next`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the workload twice (plain, then
//! traced) and reports per-layer metrics and the tracing overhead. Every
//! figure is wall-clock on the machine it ran on; nothing here is modeled.
//! See `livebench/README.md` for the workloads and what each metric is
//! meant to show.

mod apps;
mod drive;
mod gen;
mod layers;
mod probe;
mod replay;
mod stats;

use apps::{Library, Oracle, Workload};
use drive::{run_phase, verify, Cluster, Load};
use stats::{percentile, Metric};
use std::time::{Duration, Instant};

/// Fresh clusters per measurement. Each round boots its own cluster and
/// runs an equal share of the window; the end-to-end metrics are medians
/// over every round's sub-windows, so neither one cluster's placement nor
/// one stall of the machine decides them. Short rounds also keep each
/// cluster far below the ~32k stateless tasks after which a worker can no
/// longer spawn task threads (see the README's known issues).
const ROUNDS: usize = 20;
/// Boots timed on top of the rounds' own; `setup_s` is the median of all.
const EXTRA_SETUPS: usize = 5;
/// Warm-up of each round's cluster before its window.
const WARMUP: Duration = Duration::from_millis(100);
/// Distinguishes the warm-up stream from the timed one.
const WARMUP_SEED: u64 = 0x5741_524d;
/// Where each run's config and result are recorded.
const RUNS_DIR: &str = "livebench/runs";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: livebench --workload <lnni-invoke|lnni-task|tenant-churn> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: Workload::Invoke,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value for {}", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

/// One measurement: timed set-ups, then rounds of warm-up and window.
struct Measured {
    setup_s: Vec<f64>,
    phase: drive::Phase,
    /// Window units that failed or returned a wrong value.
    wrong: u64,
    /// Warm-up units that failed, returned a wrong value, or were lost.
    warmup_bad: u64,
    results: std::collections::BTreeMap<drive::Key, Vec<u8>>,
    peak_rss_mb: f64,
    /// Traced only: the per-layer metrics, hop-sum p50 and roundtrip p50.
    layers: Option<(Vec<Metric>, f64, f64)>,
    probe: Option<probe::ProbeLog>,
}

fn measure(
    args: &Args,
    libs: &[Library],
    oracle: &Oracle,
    window: Duration,
    traced: bool,
) -> Result<Measured, String> {
    let w = args.workload;
    let tracing = traced.then(drive::Tracing::new);
    let mut next_id = 0;
    let mut setup_s = Vec::with_capacity(EXTRA_SETUPS + ROUNDS);
    let boot = |next_id: u64, setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let c = Cluster::boot(w, libs, oracle, tracing.as_ref(), next_id)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok::<Cluster, String>(c)
    };
    for _ in 0..EXTRA_SETUPS {
        let c = boot(next_id, &mut setup_s)?;
        next_id = c.next_id;
        c.shutdown();
    }

    let mut warmup_bad = 0;
    let mut warm_up = |cluster: &mut Cluster, length: Duration| {
        let mut load = Load::new(w, args.seed ^ WARMUP_SEED, length.as_secs_f64());
        let mut warm = drive::Phase::default();
        run_phase(cluster, w, libs, &mut load, 0, length, length, &mut warm);
        warmup_bad += verify(&warm, oracle).0 + warm.lost;
        if let Some(e) = &warm.error {
            eprintln!("warm-up ended early: {e}");
        }
    };

    let round_len = window / ROUNDS as u32;
    let sub = w.sub_window().min(round_len);
    let mut phase = drive::Phase::default();
    let mut counters = layers::Counters::default();
    for round in 0..ROUNDS {
        let mut cluster = boot(next_id, &mut setup_s)?;
        warm_up(&mut cluster, WARMUP);
        let round_seed = args.seed.wrapping_add(round as u64);
        let mut load = Load::new(w, round_seed, round_len.as_secs_f64());
        let before = cluster.rt.transport_stats();
        if let Some(t) = &tracing {
            t.record(true);
        }
        run_phase(
            &mut cluster,
            w,
            libs,
            &mut load,
            round,
            round_len,
            sub,
            &mut phase,
        );
        if let Some(t) = &tracing {
            t.record(false);
        }
        counters.add_traffic(&before, &cluster.rt.transport_stats());
        let images = cluster.rt.compiled_image_stats();
        counters.image_hits += images.hits;
        counters.image_misses += images.misses;
        counters.clusters += 1;
        next_id = cluster.next_id;
        cluster.shutdown();
        if let Some(e) = &phase.error {
            eprintln!("timed window ended early: {e}");
            break;
        }
    }
    let (wrong, results) = verify(&phase, oracle);
    let layers = tracing
        .as_ref()
        .map(|t| layers::collect(&phase, t, &counters));
    let probe = tracing.map(|t| std::mem::take(&mut *probe::lock(&t.log)));
    Ok(Measured {
        setup_s,
        phase,
        wrong,
        warmup_bad,
        results,
        peak_rss_mb: stats::process_usage().1,
        layers,
        probe,
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

impl Measured {
    fn failed(&self) -> u64 {
        self.wrong + self.phase.lost
    }

    /// The end-to-end metrics: every one a user of the runtime sees. The
    /// rates, percentiles and CPU are medians over the sub-windows.
    fn end_to_end(&self) -> Vec<Metric> {
        let subs = &self.phase.subs;
        let per_sub = |f: &dyn Fn(&drive::Sub) -> f64| -> f64 {
            median(&subs.iter().map(f).collect::<Vec<_>>())
        };
        let units: usize = subs.iter().map(|s| s.latencies.len()).sum();
        let pooled: Vec<f64> = self.phase.in_window().map(|d| d.latency_us).collect();
        let over = |what: &str, q: f64| {
            let p = percentile(&pooled, q);
            format!(
                "median of {} sub-windows' {what}; pooled p{:.1} {:.1} of n={}",
                subs.len(),
                p.pct,
                p.value,
                p.n
            )
        };
        let sub_pct = |q: f64| move |s: &drive::Sub| percentile(&s.latencies, q).value;
        // the smallest sub-window bounds the percentile every one supports
        let smallest = subs.iter().min_by_key(|s| s.latencies.len());
        let p99_label = smallest.map_or(0.0, |s| percentile(&s.latencies, 0.99).pct);
        let smallest = smallest.map_or(0, |s| s.latencies.len());
        vec![
            Metric::new(
                "throughput_ups",
                per_sub(&|s| s.latencies.len() as f64 / s.len_s),
                "units/s",
            )
            .note(format!(
                "median of {} sub-windows; {units} units in {:.3} s",
                subs.len(),
                self.phase.window.as_secs_f64()
            )),
            Metric::new("latency_p50_us", per_sub(&sub_pct(0.5)), "us").note(over("p50", 0.5)),
            Metric::new("latency_p99_us", per_sub(&sub_pct(0.99)), "us").note(format!(
                "{} (sub-window p{p99_label:.1} at n={smallest} or more)",
                over("p99", 0.99)
            )),
            Metric::new("setup_s", median(&self.setup_s), "s")
                .note(format!("median of n={} boots", self.setup_s.len())),
            Metric::new(
                "cpu_us_per_unit",
                per_sub(&|s| s.cpu_us / s.latencies.len().max(1) as f64),
                "us",
            )
            .note(format!(
                "median of {} sub-windows' process CPU per unit",
                subs.len()
            )),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }

    fn failed_ratio(&self) -> Metric {
        Metric::new(
            "failed_ratio",
            self.failed() as f64 / self.phase.attempted.max(1) as f64,
            "ratio",
        )
        .note(format!(
            "{} of {} attempted",
            self.failed(),
            self.phase.attempted
        ))
    }

    /// Digest of the results whose keys `other` also holds.
    fn digest(&self, other: &Measured) -> u64 {
        apps::result_digest(&self.results, &other.results)
    }
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn config_json(args: &Args) -> String {
    let w = args.workload;
    let load = if w.open_loop() {
        format!(
            "\"loop\": \"open\", \"rate_ups\": {}, \"tenants\": {}, \"zipf_s\": {}, \"param_bytes\": {}",
            apps::CHURN_RATE,
            apps::TENANTS,
            apps::ZIPF_S,
            apps::PARAM_BYTES
        )
    } else {
        format!("\"loop\": \"closed\", \"clients\": {}", w.clients())
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {load}, \
         \"lnni\": {{\"layers\": {}, \"dim\": {}, \"inferences\": {}}}, \"workers\": {}, \
         \"worker_cores\": 8, \"rounds\": {ROUNDS}, \"boots\": {}, \"warmup_s\": {}, \
         \"sub_window_s\": {}, \"nproc\": {}, \
         \"build_profile\": \"{}\", \"commit\": \"{}\", \
         \"clock\": \"wall-clock (std::time::Instant); no modeled figures\"}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        apps::LAYERS,
        apps::DIM,
        apps::INFERENCES,
        drive::WORKERS,
        ROUNDS + EXTRA_SETUPS,
        WARMUP.as_secs_f64(),
        w.sub_window().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit(),
    )
}

/// `trace.overhead.<metric>`: traced minus plain, in the metric's unit.
fn overhead(plain: &[Metric], traced: &[Metric]) -> Vec<Metric> {
    plain
        .iter()
        .zip(traced)
        .map(|(p, t)| {
            Metric::new(
                format!("trace.overhead.{}", p.name),
                t.value - p.value,
                p.unit,
            )
            .note(format!("traced {:.3} - plain {:.3}", t.value, p.value))
        })
        .collect()
}

/// What one invocation of the benchmark reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Report lines printed before the metrics.
    notes: Vec<String>,
}

fn run(args: &Args) -> Result<Report, String> {
    let libs = args.workload.libraries(args.seed);
    let oracle = Oracle::new(&libs).map_err(|e| format!("computing expected results: {e}"))?;
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut notes = Vec::new();
    if !args.trace {
        let m = measure(args, &libs, &oracle, seconds, false)?;
        let correct = m.failed() == 0 && m.warmup_bad == 0 && m.phase.error.is_none();
        notes.push(m.failed_ratio().describe());
        notes.push(format!(
            "result digest {:016x} over n={} units",
            m.digest(&m),
            m.results.len()
        ));
        return Ok(Report {
            correct,
            attempted: m.phase.attempted,
            failed: m.failed(),
            metrics: m.end_to_end(),
            notes,
        });
    }

    // plain then traced, each for half the run
    let half = seconds / 2;
    let plain = measure(args, &libs, &oracle, half, false)?;
    let traced = measure(args, &libs, &oracle, half, true)?;
    let common = plain
        .results
        .keys()
        .filter(|k| traced.results.contains_key(k))
        .count();
    let digests_match = plain.digest(&traced) == traced.digest(&plain);
    notes.push(format!(
        "result digest over the {common} units both runs completed: plain {:016x}, traced {:016x} ({})",
        plain.digest(&traced),
        traced.digest(&plain),
        if digests_match { "match" } else { "MISMATCH" }
    ));
    let e2e_plain = plain.end_to_end();
    let e2e_traced = traced.end_to_end();
    let (mut metrics, hop_sum, roundtrip_p50) = traced
        .layers
        .clone()
        .ok_or("traced run produced no layer data")?;
    let log = traced
        .probe
        .as_ref()
        .ok_or("traced run kept no probe log")?;
    let registry = vine_apps::modules::full_registry();
    let (lib_metrics, exec_p50) = replay::library_host(log, &registry);
    metrics.push(
        Metric::new(
            "worker_host.relay_us.p50",
            if roundtrip_p50 > 0.0 {
                roundtrip_p50 - exec_p50
            } else {
                0.0
            },
            "us",
        )
        .note("roundtrip p50 - library exec p50"),
    );
    metrics.extend(lib_metrics);
    metrics.extend(replay::proto(log));
    metrics.extend(replay::lang(log, &registry));
    metrics.push(
        Metric::new("trace.hop_sum_us.p50", hop_sum, "us")
            .note("sum of hop p50s: dispatch wait, send, wire out, worker, wire back, tail"),
    );
    let mut over = overhead(&e2e_plain, &e2e_traced);
    over.extend(overhead(&[plain.failed_ratio()], &[traced.failed_ratio()]));
    let lat_over = over[1].value;
    metrics.extend(over);

    let (plain_p50, traced_p50) = (e2e_plain[1].value, e2e_traced[1].value);
    notes.push(format!(
        "accounting: hop-sum p50 {hop_sum:.1} us vs latency p50 traced {traced_p50:.1} us \
         (gap {:.1} us) and plain {plain_p50:.1} us (gap {:.1} us); tracing overhead on p50 \
         {lat_over:.1} us",
        hop_sum - traced_p50,
        hop_sum - plain_p50
    ));
    for m in e2e_plain.iter().chain([&plain.failed_ratio()]) {
        notes.push(format!("plain  {}", m.describe()));
    }
    for m in e2e_traced.iter().chain([&traced.failed_ratio()]) {
        notes.push(format!("traced {}", m.describe()));
    }
    let correct = digests_match
        && plain.failed() + traced.failed() == 0
        && plain.warmup_bad + traced.warmup_bad == 0
        && plain.phase.error.is_none()
        && traced.phase.error.is_none();
    Ok(Report {
        correct,
        attempted: plain.phase.attempted + traced.phase.attempted,
        failed: plain.failed() + traced.failed(),
        metrics,
        notes,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("livebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let config = config_json(&args);
    println!("# config: {config}");
    let Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    } = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("livebench: {e}");
            std::process::exit(1);
        }
    };
    for line in &notes {
        println!("# {line}");
    }
    for m in &metrics {
        println!("# {}", m.describe());
    }
    let result = stats::result_json(correct, attempted, failed, &metrics);
    let record = format!("{{\"config\": {config}, \"result\": {result}}}\n");
    let path = format!(
        "{RUNS_DIR}/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(RUNS_DIR).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("livebench: recording {path}: {e}");
    }
    println!("{result}");
}
