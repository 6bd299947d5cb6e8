//! `upscale-720p`: closed loop, `nproc` clients, each sending a 360x640
//! LR frame to an `Engine` and waiting for its 720x1280 output (the
//! paper's ×2-to-720p convention). Frames exceed the engine's tile
//! threshold, so the tiled path runs. One shape, so the plan cache always
//! hits and queue wait is near zero; the router is not involved. The
//! f32 engine runs first and carries the gated metrics; the same frames
//! then run through an int8 engine, whose throughput and ΔPSNR are
//! reported and checked but not gated.

use crate::common::{self, ms_since, Report};
use crate::layers::{self, Replay};
use crate::stats;
use crate::trace::Recorder;
use crate::Ctx;
use sesr_data::synth::{generate, Family};
use sesr_data::{psnr, SrPair};
use sesr_serve::{Engine, EngineConfig, ModelKey, PrecisionPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// LR frame size: ×2 gives 720p.
const LR_H: usize = 360;
const LR_W: usize = 640;
/// Distinct frames per run (each checked against its own reference).
const FRAMES: usize = 4;
/// Engine tile side for the tiled path.
const TILE: usize = 128;
/// Share of the window the f32 engine runs before the int8 engine.
const INT8_AT: f64 = 0.8;

pub struct Upscale {
    engine: Engine,
    key: ModelKey,
    int8: bool,
    frames: Vec<SrPair>,
}

fn frame(seed: u64, i: usize) -> SrPair {
    let fam = [
        Family::Mixed,
        Family::Natural,
        Family::Urban,
        Family::Detail,
    ][i % 4];
    let hr = generate(
        fam,
        LR_H * 2,
        LR_W * 2,
        seed.wrapping_mul(0x9E37).wrapping_add(i as u64),
    );
    SrPair::from_hr(hr, common::SCALE)
}

/// Everything up to and including the first successful response.
pub fn setup(seed: u64, int8: bool) -> Upscale {
    let (registry, keys) = common::registry_with(&[5]);
    let key = keys[0].clone();
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let engine = Engine::new(
        EngineConfig {
            workers,
            queue_capacity: 2 * workers,
            // One request per group: two frames queued together would run
            // as one whole-image batch instead of the tiled path, and the
            // latencies split into two classes whose mix moved between
            // runs (median spread 0.25 over five seeds).
            max_batch: 1,
            tile_threshold_px: 256 * 256,
            tile: TILE,
            precision: if int8 {
                layers::int8_policy()
            } else {
                PrecisionPolicy::F32
            },
            ..EngineConfig::default()
        },
        registry,
    );
    let first = frame(seed, 0);
    engine
        .submit(&key, first.lr.clone(), None)
        .expect("first request admitted")
        .wait()
        .expect("first request served");
    Upscale {
        engine,
        key,
        int8,
        frames: vec![first],
    }
}

/// Per-frame expected results.
struct Expected {
    /// f32: the reference output bits. int8: the f32 reference output,
    /// used for the ΔPSNR check.
    reference: sesr_tensor::Tensor,
    ref_psnr: f64,
    /// int8: hash of the first int8 output seen (later ones must match).
    int8_hash: Mutex<Option<u64>>,
    int8_psnr: Mutex<Option<f64>>,
}

struct Loop {
    latencies_ms: Vec<f64>,
    completed: u64,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    problems: Vec<String>,
    /// Engine queue depth sampled before each submit.
    depth: Vec<usize>,
}

/// One client's latencies, attempts, failures, problems and the time of
/// its last completion.
type ClientResult = (Vec<f64>, u64, u64, Vec<String>, Instant);

/// Closed loop: `nproc` clients, each submit → wait → check, for `dur`.
fn closed_loop(u: &Upscale, exp: &[Expected], dur: Duration, tr: &Recorder) -> Loop {
    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    let next = AtomicU64::new(0);
    let depth = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let end = t0 + dur;
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut lat = Vec::new();
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    let mut problems = Vec::new();
                    let mut last = Instant::now();
                    while Instant::now() < end {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let k = id as usize % exp.len();
                        let input = u.frames[k].lr.clone();
                        attempted += 1;
                        depth
                            .lock()
                            .expect("depth lock")
                            .push(u.engine.queue_depth());
                        let root = tr.open("request", None, id);
                        let t = Instant::now();
                        let ticket = tr.span("entry.submit", root, id, |_| {
                            u.engine.submit(&u.key, input, None)
                        });
                        let out = match ticket {
                            Ok(tk) => tr.span("entry.wait", root, id, |_| tk.wait()),
                            Err(e) => {
                                failed += 1;
                                problems.push(format!("request {id}: refused: {e}"));
                                tr.close(root);
                                continue;
                            }
                        };
                        let ms = ms_since(t);
                        last = Instant::now();
                        tr.close(root);
                        match out {
                            Ok(out) if check(u.int8, &exp[k], &u.frames[k], &out) => lat.push(ms),
                            Ok(_) => {
                                failed += 1;
                                problems.push(format!("request {id} (frame {k}): output mismatch"));
                            }
                            Err(e) => {
                                failed += 1;
                                problems.push(format!("request {id}: failed: {e}"));
                            }
                        }
                    }
                    (lat, attempted, failed, problems, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut l = Loop {
        latencies_ms: Vec::new(),
        completed: 0,
        attempted: 0,
        failed: 0,
        elapsed_s: 0.0,
        problems: Vec::new(),
        depth: depth.into_inner().expect("depth lock"),
    };
    let mut last = t0;
    for (lat, a, f, p, t) in results {
        l.completed += lat.len() as u64;
        l.latencies_ms.extend(lat);
        l.attempted += a;
        l.failed += f;
        l.problems.extend(p);
        last = last.max(t);
    }
    l.elapsed_s = (last - t0).as_secs_f64();
    l
}

/// f32: bit-identical to the reference. int8: within the ΔPSNR budget of
/// the f32 reference, and bit-identical to every earlier int8 output of
/// the same frame.
fn check(int8: bool, e: &Expected, pair: &SrPair, out: &sesr_tensor::Tensor) -> bool {
    if !int8 {
        return common::same_bits(out, &e.reference);
    }
    let h = common::tensor_hash(out);
    let mut seen = e.int8_hash.lock().expect("hash lock");
    match *seen {
        Some(prev) => prev == h,
        None => {
            let p = psnr(out, &pair.hr, 1.0);
            *seen = Some(h);
            *e.int8_psnr.lock().expect("psnr lock") = Some(p);
            e.ref_psnr - p <= layers::PSNR_BUDGET_DB
        }
    }
}

pub fn run(ctx: &Ctx, mut u: Upscale, report: &mut Report) {
    let model = u
        .engine
        .registry()
        .get(&u.key)
        .expect("served model resident");
    u.frames.extend((1..FRAMES).map(|i| frame(ctx.seed, i)));
    // References are computed outside the measured window, on every core.
    let exp: Vec<Expected> = {
        let _threads = ThreadsFor::all();
        u.frames
            .iter()
            .map(|p| {
                let reference = model.run_reference(&p.lr);
                let ref_psnr = psnr(&reference, &p.hr, 1.0);
                Expected {
                    reference,
                    ref_psnr,
                    int8_hash: Mutex::new(None),
                    int8_psnr: Mutex::new(None),
                }
            })
            .collect()
    };
    let quiet = Recorder::new(false);
    if !ctx.trace {
        // The f32 engine carries the gated metrics; the same frames then
        // run through an int8 engine for the last fifth of the window.
        let l = closed_loop(&u, &exp, ctx.seconds.mul_f64(INT8_AT), &quiet);
        let goodput = l.completed as f64 / l.elapsed_s.max(1e-9);
        report.metric("goodput_per_s", goodput, "1/s");
        // Fixed tail: the slowest 10 % of the ~200 frames the f32 part
        // completes.
        crate::report_latency(report, &l.latencies_ms, 90.0);
        let f32_line = phase_line("f32", &l, goodput);
        let frames = std::mem::take(&mut u.frames);
        finish(report, &u, l);

        let t = Instant::now();
        let mut q = setup(ctx.seed, true);
        let q_setup_s = t.elapsed().as_secs_f64();
        q.frames = frames;
        let lq = closed_loop(&q, &exp, ctx.seconds.mul_f64(1.0 - INT8_AT), &quiet);
        let q_goodput = lq.completed as f64 / lq.elapsed_s.max(1e-9);
        report.info(format!(
            "workload: {{{f32_line}, {}, \"upscale.int8.dpsnr_db\": {:.6}, \"int8_setup_s\": {q_setup_s:.4}}}",
            phase_line("int8", &lq, q_goodput),
            dpsnr(&exp)
        ));
        finish(report, &q, lq);
        return;
    }

    // Traced run: untraced and traced halves of the live loop, then the
    // replay of the same frames through the layers.
    let part = ctx.seconds.mul_f64(0.35);
    let plain = closed_loop(&u, &exp, part, &quiet);
    let tr = Recorder::new(true);
    let traced = closed_loop(&u, &exp, part, &tr);
    let live_mean = stats::mean(&traced.latencies_ms);
    crate::report_overhead(report, &plain.latencies_ms, &traced.latencies_ms);
    crate::report_entry_spans(report, &tr);

    let mut replay = Replay::new(&u.key, &model);
    let overlap = model.receptive_field_radius();
    let replay_end = Instant::now() + ctx.seconds.mul_f64(0.15);
    let mut requests = 0u64;
    while requests == 0 || Instant::now() < replay_end {
        let lr = &u.frames[requests as usize % u.frames.len()].lr;
        let root = tr.open("replay.request", None, 1 << 32 | requests);
        let plan = tr.span("core.tile_plan", root, requests, |_| {
            model
                .plan_tiles(LR_H, LR_W, TILE, overlap)
                .expect("tile plan")
        });
        // The f32 plan is on the blocking path (inside the request span);
        // the int8 plan is replayed beside it.
        let mut patches = Vec::with_capacity(plan.tiles().len());
        for spec in plan.tiles() {
            let patch = tr.span("tensor.crop", root, requests, |_| {
                lr.crop_hw(spec.ey0, spec.ey1, spec.ex0, spec.ex1)
            });
            let (h, w) = (spec.patch_h(), spec.patch_w());
            replay.run_f32(&tr, root, requests, patch.data(), h, w);
            patches.push((patch, h, w));
        }
        tr.close(root);
        for (patch, h, w) in &patches {
            replay.run_int8(&tr, None, requests, patch.data(), *h, *w);
        }
        requests += 1;
    }
    let n = requests as f64;
    let shapes: Vec<(usize, usize)> = model
        .plan_tiles(LR_H, LR_W, TILE, overlap)
        .expect("tile plan")
        .tiles()
        .iter()
        .map(|t| (t.patch_h(), t.patch_w()))
        .collect();
    let dpsnr_db = replay.graded_dpsnr_db();
    let compile_ms = replay.report(
        report,
        n,
        &shapes,
        layers::halo_ratio(LR_H, LR_W, TILE, overlap),
        dpsnr_db,
        crate::probe_budget(ctx),
    );
    let snap = u.engine.telemetry().snapshot();
    crate::report_plan_cache(
        report,
        snap.counters.plan_cache_hits,
        snap.counters.plan_cache_misses,
        compile_ms,
        0,
    );
    crate::report_engine(report, &snap);
    crate::report_router_absent(report);
    crate::report_video_absent(report);
    let mut depth = plain.depth.clone();
    depth.extend(&traced.depth);
    crate::report_queue_depth(report, &depth);
    let replay_ms = crate::replay_request_ms(&tr);
    crate::report_unaccounted(report, live_mean, replay_ms);
    crate::report_span_count(report, &tr);
    report.info(format!(
        "trace: {{\"replayed_requests\": {requests}, \"replay_request_ms\": {replay_ms:.3}, \
         \"core_ms_per_request\": {:.3}, \"live_mean_ms\": {live_mean:.3}, \"int8_core_split\": \
         \"needs spans inside QuantPlan (not in this benchmark)\"}}",
        replay.core_ms() / n
    ));
    crate::write_spans(&tr, ctx);
    let mut all = plain;
    all.attempted += traced.attempted;
    all.failed += traced.failed;
    all.problems.extend(traced.problems);
    finish(report, &u, all);
}

/// Summary of one precision's part of the run for the `workload:` line.
fn phase_line(prec: &str, l: &Loop, goodput: f64) -> String {
    format!(
        "\"upscale.{prec}.mpix_s\": {:.4}, \"{prec}.p50_ms\": {:.3}, \"{prec}.tail_ms\": {:.3}, \
         \"{prec}.samples\": {}, \"{prec}.attempted\": {}, \"{prec}.failed\": {}",
        goodput * (LR_H * LR_W * 4) as f64 / 1e6,
        stats::median(&l.latencies_ms).unwrap_or(0.0),
        crate::tail_or_max(&l.latencies_ms),
        l.latencies_ms.len(),
        l.attempted,
        l.failed
    )
}

/// Mean over frames of PSNR(f32 vs HR) − PSNR(int8 vs HR).
fn dpsnr(exp: &[Expected]) -> f64 {
    let d: Vec<f64> = exp
        .iter()
        .filter_map(|e| {
            e.int8_psnr
                .lock()
                .expect("psnr lock")
                .map(|p| e.ref_psnr - p)
        })
        .collect();
    stats::mean(&d)
}

fn finish(report: &mut Report, u: &Upscale, l: Loop) {
    report.attempted += l.attempted;
    report.failed += l.failed;
    for p in l.problems.into_iter().take(5) {
        report.problem(p);
    }
    let c = u.engine.telemetry().snapshot().counters;
    if u.int8 && (c.int8_plans_active == 0 || c.precision_fallbacks > 0) {
        report.problem(format!(
            "int8 policy did not serve int8 (int8_plans_active {}, fallbacks {})",
            c.int8_plans_active, c.precision_fallbacks
        ));
    }
    if c.tiled_requests == 0 {
        report.problem("frames did not take the tiled path".to_string());
    }
    u.engine.shutdown(Duration::from_secs(10));
    common::remove_artifacts(&[5]);
}

/// Raises the intra-op thread count to every core for its lifetime
/// (reference computations outside the measured window), restoring one
/// thread on drop.
pub struct ThreadsFor;

impl ThreadsFor {
    pub fn all() -> Self {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        sesr_tensor::parallel::set_num_threads(n);
        ThreadsFor
    }
}

impl Drop for ThreadsFor {
    fn drop(&mut self) {
        sesr_tensor::parallel::set_num_threads(1);
    }
}
