//! End-to-end and per-layer benchmark of the SESR serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload upscale-720p --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is a separate run that records
//! the benchmark's spans around each call into a layer and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. See README.md
//! for the workloads, every metric and what it is predicted to move.

mod common;
mod layers;
mod mix;
mod stats;
mod trace;
mod upscale;
mod video;

use common::Report;
use sesr_serve::Snapshot;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;

/// Cold set-ups measured in child processes before an untraced run, and
/// as many again after it; the parent's own set-up is one more sample.
/// The host's speed changes every few seconds, and samples from both ends
/// of the run keep the median from resting on one such phase (five
/// samples from the start alone gave set medians 0.38 and 0.50 s on
/// `upscale-720p`).
const SETUP_CHILDREN: usize = 4;

/// Parsed command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    while let Some(a) = args.next() {
        let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val("--workload")?),
            "--seed" => {
                seed = Some(
                    val("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = val("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Ctx {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

const WORKLOADS: [&str; 3] = ["upscale-720p", "tenant-mix", "video-stream"];

/// A workload's state right after its first successful response.
enum Ready {
    Upscale(upscale::Upscale),
    Mix(mix::Mix),
    Video(video::Video),
}

fn setup(ctx: &Ctx) -> Ready {
    match ctx.workload.as_str() {
        "upscale-720p" => Ready::Upscale(upscale::setup(ctx.seed, false)),
        "tenant-mix" => Ready::Mix(mix::setup(ctx.seed)),
        "video-stream" => Ready::Video(video::setup(ctx.seed)),
        other => unreachable!("validated workload {other}"),
    }
}

/// Cold set-ups of fresh processes: each child reports the time from its
/// own process start to its first successful response, and its peak
/// resident memory at that point.
fn child_setups(ctx: &Ctx) -> Result<Vec<(f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    &ctx.workload,
                    "--seed",
                    &ctx.seed.to_string(),
                    "--setup-probe",
                ])
                .output()
                .map_err(|e| format!("spawn setup probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let field = |name: &str| {
                text.lines()
                    .find_map(|l| l.strip_prefix(name))
                    .and_then(|v| v.trim().parse::<f64>().ok())
            };
            field("setup_s ")
                .zip(field("setup_rss_mb "))
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "setup probe failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    )
                })
        })
        .collect()
}

fn main() -> ExitCode {
    let started = Instant::now();
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Thread budget: the program's serving workers are the only busy
    // threads, so intra-op parallelism is pinned to one thread.
    sesr_tensor::parallel::set_num_threads(1);
    if ctx.setup_probe {
        let ready = setup(&ctx);
        println!("setup_s {}", started.elapsed().as_secs_f64());
        println!("setup_rss_mb {}", common::peak_rss_mb());
        drop(ready);
        cleanup();
        return ExitCode::SUCCESS;
    }
    let mut report = Report::default();
    let mut setups = Vec::new();
    if !ctx.trace {
        match child_setups(&ctx) {
            Ok(s) => setups = s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let t = Instant::now();
    let ready = setup(&ctx);
    let setup_s = t.elapsed().as_secs_f64();
    let setup_rss = common::peak_rss_mb();
    setups.push((setup_s, setup_rss));
    let (total0, steal0) = common::cpu_ticks();
    match ready {
        Ready::Upscale(u) => upscale::run(&ctx, u, &mut report),
        Ready::Mix(m) => mix::run(&ctx, m, &mut report),
        Ready::Video(v) => video::run(&ctx, v, &mut report),
    }
    let (total1, steal1) = common::cpu_ticks();
    report.info(format!(
        "host: {{\"steal_pct\": {:.2}}}",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    ));
    if !ctx.trace {
        match child_setups(&ctx) {
            Ok(s) => setups.extend(s),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
        let times: Vec<f64> = setups.iter().map(|s| s.0).collect();
        let rss: Vec<f64> = setups.iter().map(|s| s.1).collect();
        report.metric("setup_s", stats::median(&times).unwrap_or(0.0), "s");
        report.metric("setup_rss_mb", stats::median(&rss).unwrap_or(0.0), "MB");
        // Resident memory after the run is printed, not gated: on
        // `upscale-720p` it settles on one of a few plateaus (157, 212 or
        // 265 MB) depending on which allocator arenas the engine's
        // per-request tile threads land in.
        report.info(format!(
            "setup: {{\"samples_s\": {times:?}, \"samples_rss_mb\": {rss:?}, \"end_rss_mb\": {:.3}}}",
            common::rss_mb()
        ));
    }
    report.info(common::fingerprint(&ctx.workload, ctx.seed));
    cleanup();
    report.print();
    ExitCode::SUCCESS
}

/// Removes this process's per-process artifacts.
fn cleanup() {
    common::remove_artifacts(&[3, 5]);
}

// ---------------------------------------------------------------------------
// Per-layer reporting shared by the workloads. Every traced run reports
// every per-layer metric; a layer the workload does not call reads 0
// (see README.md).
// ---------------------------------------------------------------------------

/// `trace.overhead_pct`: traced minus untraced median latency of the live
/// loop, as a share of the untraced median.
pub fn report_overhead(report: &mut Report, plain_ms: &[f64], traced_ms: &[f64]) {
    let a = stats::median(plain_ms).unwrap_or(0.0);
    let b = stats::median(traced_ms).unwrap_or(0.0);
    let pct = if a > 0.0 { 100.0 * (b - a) / a } else { 0.0 };
    report.metric("trace.overhead_pct", pct, "%");
    report.info(format!(
        "trace_overhead: {{\"untraced_p50_ms\": {a:.4}, \"traced_p50_ms\": {b:.4}, \"untraced_n\": {}, \"traced_n\": {}}}",
        plain_ms.len(),
        traced_ms.len()
    ));
}

/// `entry.submit.{p50,tail}_us` from the `entry.submit` spans (the call
/// into the workload's front door).
pub fn report_entry_spans(report: &mut Report, tr: &Recorder) {
    let spans = tr.spans();
    let us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "entry.submit")
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    report.metric(
        "entry.submit.p50_us",
        stats::median(&us).unwrap_or(0.0),
        "us",
    );
    report.metric("entry.submit.tail_us", tail_or_max(&us), "us");
}

/// The tail by the ≥10-beyond rule, or the maximum of a sample too thin
/// for it.
pub fn tail_or_max(v: &[f64]) -> f64 {
    stats::tail(v).map_or_else(|| v.iter().copied().fold(0.0, f64::max), |t| t.1)
}

/// A latency tail at the workload's fixed percentile `p`, for the
/// workload line; a sample too thin for it falls back to the ≥10-beyond
/// rule, said in an info line.
pub fn fixed_tail(report: &mut Report, v: &[f64], p: f64) -> f64 {
    stats::tail_at(v, p).unwrap_or_else(|| {
        report.info(format!(
            "warning: {} samples are too few for p{p}; tail falls back",
            v.len()
        ));
        tail_or_max(v)
    })
}

/// The gated latencies of a workload: `latency_mean_ms`, and
/// `latency_tail_mean_ms`, the mean of the slowest `100 - p` % at the
/// workload's fixed percentile `p`. A sample too thin for `p` falls back
/// to the ≥10-beyond rule, said in an info line. Means, not order
/// statistics: the shared host alternates between a fast and a slow speed
/// every few seconds, and a median or percentile jumps between the two
/// modes as their mix changes from run to run, where a mean moves with
/// the mix.
pub fn report_latency(report: &mut Report, v: &[f64], p: f64) {
    report.metric("latency_mean_ms", stats::mean(v), "ms");
    let tail = stats::tail_mean_at(v, p).unwrap_or_else(|| {
        report.info(format!(
            "warning: {} samples are too few for p{p}; tail falls back",
            v.len()
        ));
        stats::tail(v)
            .and_then(|(q, _)| stats::tail_mean_at(v, q))
            .unwrap_or_else(|| v.iter().copied().fold(0.0, f64::max))
    });
    report.metric("latency_tail_mean_ms", tail, "ms");
}

/// Time for the kernel peak probe of a traced run.
pub fn probe_budget(ctx: &Ctx) -> Duration {
    ctx.seconds.mul_f64(0.05).max(Duration::from_millis(60))
}

/// `plan_cache.*`: hit ratio over its base of lookups, a cold compile,
/// and the lookups a shared store served.
pub fn report_plan_cache(
    report: &mut Report,
    hits: u64,
    misses: u64,
    compile_ms: f64,
    warm_hits: u64,
) {
    let lookups = hits + misses;
    let ratio = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };
    report.metric("plan_cache.hit_ratio", ratio, "ratio");
    report.metric("plan_cache.lookups", lookups as f64, "count");
    report.metric("plan_cache.compile.ms", compile_ms, "ms");
    report.metric("plan_cache.warm_hits", warm_hits as f64, "count");
}

/// Engine telemetry. Stage tails are p99 with at least 1000 samples and
/// p95 otherwise (the telemetry exports only those two).
pub fn report_engine(report: &mut Report, snap: &Snapshot) {
    let stage = |name: &str| {
        snap.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    };
    let tail = |s: sesr_serve::StageSummary| if s.count >= 1000 { s.p99_ms } else { s.p95_ms };
    let (qw, cp, ra) = (stage("queue_wait"), stage("compute"), stage("reassembly"));
    let c = snap.counters;
    report.metric("engine.queue_wait.p50_ms", qw.p50_ms, "ms");
    report.metric("engine.queue_wait.tail_ms", tail(qw), "ms");
    report.metric("engine.compute.p50_ms", cp.p50_ms, "ms");
    report.metric("engine.compute.tail_ms", tail(cp), "ms");
    report.metric("engine.reassembly.p50_ms", ra.p50_ms, "ms");
    let batch = if c.batches > 0 {
        c.batched_requests as f64 / c.batches as f64
    } else {
        0.0
    };
    report.metric("engine.batch_size.mean", batch, "requests");
    let tiles = if c.tiled_requests > 0 {
        c.tiles_run as f64 / c.tiled_requests as f64
    } else {
        0.0
    };
    report.metric("engine.tiles_per_request", tiles, "tiles");
    report.metric(
        "engine.peak_arena_bytes",
        c.peak_arena_bytes as f64,
        "bytes",
    );
}

/// Engine metrics of a workload whose engines sit behind the router.
pub fn report_engine_absent(report: &mut Report) {
    for (n, u) in [
        ("engine.queue_wait.p50_ms", "ms"),
        ("engine.queue_wait.tail_ms", "ms"),
        ("engine.compute.p50_ms", "ms"),
        ("engine.compute.tail_ms", "ms"),
        ("engine.reassembly.p50_ms", "ms"),
        ("engine.batch_size.mean", "requests"),
        ("engine.tiles_per_request", "tiles"),
        ("engine.peak_arena_bytes", "bytes"),
    ] {
        report.metric(n, 0.0, u);
    }
}

/// Router shares (with their base) of a workload that bypasses the router.
pub fn report_router_absent(report: &mut Report) {
    report.metric("router.submits", 0.0, "count");
    for n in ["shed", "degraded", "rejected", "deadline_fail"] {
        report.metric(&format!("router.{n}_share"), 0.0, "ratio");
    }
}

pub fn report_video_absent(report: &mut Report) {
    report.metric("video.reuse_share", 0.0, "ratio");
    report.metric("video.process_frame.ms", 0.0, "ms");
    report.metric("video.tiles_recomputed_per_frame", 0.0, "tiles");
}

pub fn report_queue_depth(report: &mut Report, samples: &[usize]) {
    let mean = if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<usize>() as f64 / samples.len() as f64
    };
    report.metric("queue_depth.mean", mean, "requests");
    report.metric(
        "queue_depth.max",
        samples.iter().copied().max().unwrap_or(0) as f64,
        "requests",
    );
}

/// Mean duration of the replay's `replay.request` root spans, ms.
pub fn replay_request_ms(tr: &Recorder) -> f64 {
    let d: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "replay.request")
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    stats::mean(&d)
}

/// `trace.unaccounted_pct`: the share of the live mean request latency
/// that the replayed blocking path (the layer calls one request makes,
/// run back to back on one thread) does not explain — queueing, hand-off
/// and scheduling that no layer span covers. `trace.spans` counts the
/// spans recorded.
pub fn report_unaccounted(report: &mut Report, live_ms: f64, replay_ms: f64) {
    let pct = if live_ms > 0.0 {
        100.0 * (1.0 - replay_ms / live_ms)
    } else {
        0.0
    };
    report.metric("trace.unaccounted_pct", pct, "%");
}

/// Self time per span name, written as an info line, and the spans file.
pub fn write_spans(tr: &Recorder, ctx: &Ctx) {
    let spans = tr.spans();
    let totals = trace::totals_by_name(&spans);
    let parts: Vec<String> = totals
        .iter()
        .map(|(n, (calls, total, selft))| {
            format!(
                "\"{n}\": {{\"calls\": {calls}, \"total_ms\": {:.3}, \"self_ms\": {:.3}}}",
                *total as f64 / 1e6,
                *selft as f64 / 1e6
            )
        })
        .collect();
    println!("self_time: {{{}}}", parts.join(", "));
    let path = common::out_dir().join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
}

/// `trace.spans`: spans recorded in the traced run.
pub fn report_span_count(report: &mut Report, tr: &Recorder) {
    report.metric("trace.spans", tr.spans().len() as f64, "count");
}
