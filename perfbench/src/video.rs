//! `video-stream`: closed loop, one client feeding one session through
//! `Engine::feed_video_frame` and waiting for each frame. 180x320 LR
//! frames, tile 32, `anytime` off and no deadline, so the tile counts of
//! a scripted sequence repeat exactly. The script cycles cut → static →
//! pan over a few scenes, which keeps the tile-reuse share between the
//! all-static and all-moving extremes.

use crate::common::{self, ms_since, Report};
use crate::layers::{self, Replay};
use crate::stats;
use crate::trace::Recorder;
use crate::upscale::ThreadsFor;
use crate::Ctx;
use sesr_core::{CollapsedKernels, InferPlan};
use sesr_data::synth::{generate, Family};
use sesr_serve::{Engine, EngineConfig, ModelKey, PlanCache, VideoSession, VideoSessionSpec};
use sesr_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

const H: usize = 180;
const W: usize = 320;
const TILE: usize = 32;
/// Frames per script cycle: 1 cut, `STATIC` repeats, then pan frames.
const CYCLE: usize = 12;
const STATIC: usize = 3;
const SCENES: usize = 3;
const SPRITE: usize = 48;
/// Sprite column per script position after the cut: the cut and static
/// frames show it at 32 px, then each pan frame moves it one tile (32 px)
/// right and back, never touching the frame edge. Every pan frame thus
/// dirties the same 5 x 4 tiles, so the frame median sits inside one
/// latency class (a 6 px step made the dirty count alternate and the
/// median jump between the two values from run to run).
const SPRITE_X: [usize; CYCLE - STATIC] = [32, 64, 96, 128, 160, 128, 96, 64, 32];

pub struct Video {
    engine: Engine,
    key: ModelKey,
    session: u64,
    seed: u64,
    /// Content of each distinct frame, indexed by [`content_id`].
    contents: Vec<Tensor>,
    next_seq: u64,
}

/// The distinct frame shown at script position `seq`.
fn content_id(seq: u64) -> usize {
    let cycle = (seq as usize / CYCLE) % SCENES;
    let pos = seq as usize % CYCLE;
    let pan = pos.saturating_sub(STATIC);
    cycle * (CYCLE - STATIC) + pan
}

fn contents(seed: u64) -> Vec<Tensor> {
    let fams = [Family::Natural, Family::Urban, Family::Mixed];
    let sprite = generate(Family::LineArt, SPRITE, SPRITE, seed ^ 0x5917E);
    (0..SCENES)
        .flat_map(|s| {
            let scene = generate(fams[s], H, W, seed.wrapping_mul(31).wrapping_add(s as u64));
            let sprite = &sprite;
            SPRITE_X.iter().map(move |&x| {
                let mut f = scene.clone();
                f.blit_hw(sprite, (H - SPRITE) / 2, x);
                f
            })
        })
        .collect()
}

fn spec(key: &ModelKey) -> VideoSessionSpec {
    let mut spec = VideoSessionSpec::new(H, W, vec![key.clone()]);
    spec.tile = TILE;
    spec.anytime = false;
    spec.reuse = true;
    spec
}

pub fn setup(seed: u64) -> Video {
    let (registry, keys) = common::registry_with(&[5]);
    let key = keys[0].clone();
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            ..EngineConfig::default()
        },
        registry,
    );
    let session = engine.open_video_session(spec(&key)).expect("open session");
    let contents = contents(seed);
    engine
        .feed_video_frame(session, 0, contents[content_id(0)].clone(), None)
        .expect("first frame admitted")
        .wait()
        .expect("first frame settled");
    Video {
        engine,
        key,
        session,
        seed,
        contents,
        next_seq: 1,
    }
}

struct Loop {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    problems: Vec<String>,
    depth: Vec<usize>,
}

fn closed_loop(v: &mut Video, refs: &[Tensor], dur: Duration, tr: &Recorder) -> Loop {
    let mut l = Loop {
        latencies_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        elapsed_s: 0.0,
        problems: Vec::new(),
        depth: Vec::new(),
    };
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let seq = v.next_seq;
        v.next_seq += 1;
        let c = content_id(seq);
        let frame = v.contents[c].clone();
        l.attempted += 1;
        l.depth.push(v.engine.queue_depth());
        let root = tr.open("request", None, seq);
        let t = Instant::now();
        let ticket = tr.span("entry.submit", root, seq, |_| {
            v.engine.feed_video_frame(v.session, seq, frame, None)
        });
        let out = match ticket {
            Ok(tk) => tr.span("entry.wait", root, seq, |_| tk.wait()),
            Err(e) => {
                tr.close(root);
                l.failed += 1;
                l.problems.push(format!("frame {seq}: refused: {e}"));
                continue;
            }
        };
        let ms = ms_since(t);
        tr.close(root);
        match out {
            Ok(out) if common::same_bits(&out, &refs[c]) => l.latencies_ms.push(ms),
            Ok(_) => {
                l.failed += 1;
                l.problems.push(format!(
                    "frame {seq}: composite differs from the whole-frame run"
                ));
            }
            Err(e) => {
                l.failed += 1;
                l.problems.push(format!("frame {seq}: failed: {e}"));
            }
        }
    }
    l.elapsed_s = t0.elapsed().as_secs_f64();
    l
}

pub fn run(ctx: &Ctx, mut v: Video, report: &mut Report) {
    let model = v
        .engine
        .registry()
        .get(&v.key)
        .expect("served model resident");
    let kernels = Arc::new(CollapsedKernels::new(&model));
    // Whole-frame top-rung runs of every distinct frame, outside the
    // measured window. Band count never changes output bits.
    let refs: Vec<Tensor> = {
        let _threads = ThreadsFor::all();
        let mut plan = InferPlan::new(kernels.clone(), H, W);
        v.contents.iter().map(|f| plan.run(f)).collect()
    };
    let quiet = Recorder::new(false);
    if !ctx.trace {
        let l = closed_loop(&mut v, &refs, ctx.seconds, &quiet);
        // Fixed tail percentile: ~500 frames in a 35 s window, so the
        // slowest 5 % are cut frames (one in twelve).
        let tail_p = 95.0;
        let tail = crate::fixed_tail(report, &l.latencies_ms, tail_p);
        let fps = l.latencies_ms.len() as f64 / l.elapsed_s.max(1e-9);
        report.metric("goodput_per_s", fps, "1/s");
        crate::report_latency(report, &l.latencies_ms, tail_p);
        let st = v
            .engine
            .video_session_stats(v.session)
            .expect("session open");
        report.info(format!(
            "workload: {{\"video.fps\": {fps:.4}, \"video.frame.tail_ms\": {tail:.4}, \"tail_percentile\": {tail_p}, \
             \"samples\": {}, \"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \"tiles_skipped\": {}, \
             \"tiles_recomputed\": {}}}",
            l.latencies_ms.len(),
            l.attempted,
            l.latencies_ms.len(),
            l.failed,
            st.tiles_skipped,
            st.tiles_recomputed
        ));
        finish(report, &v, l);
        return;
    }

    let part = ctx.seconds.mul_f64(0.35);
    let plain = closed_loop(&mut v, &refs, part, &quiet);
    let tr = Recorder::new(true);
    let traced = closed_loop(&mut v, &refs, part, &tr);
    let live_mean = stats::mean(&traced.latencies_ms);
    crate::report_overhead(report, &plain.latencies_ms, &traced.latencies_ms);
    crate::report_entry_spans(report, &tr);
    let st = v
        .engine
        .video_session_stats(v.session)
        .expect("session open");
    let seen = (st.tiles_skipped + st.tiles_recomputed).max(1);
    let recompute_share = st.tiles_recomputed as f64 / seen as f64;
    report.metric(
        "video.reuse_share",
        st.tiles_skipped as f64 / seen as f64,
        "ratio",
    );
    report.metric(
        "video.tiles_recomputed_per_frame",
        st.tiles_recomputed as f64 / st.frames_completed.max(1) as f64,
        "tiles",
    );

    // Replay 1: the same script through a fresh VideoSession, one span
    // per process_frame call.
    let mut session =
        VideoSession::new(spec(&v.key), std::slice::from_ref(&model)).expect("session");
    let mut cache = PlanCache::new();
    let models = [model.clone()];
    let replay_end = Instant::now() + ctx.seconds.mul_f64(0.1);
    let mut seq = 0u64;
    let mut frame_ms = Vec::new();
    while seq < CYCLE as u64 || Instant::now() < replay_end {
        let frame = &v.contents[content_id(seq)];
        let root = tr.open("replay.request", None, 1 << 32 | seq);
        let t = Instant::now();
        tr.span("video.process_frame", root, seq, |_| {
            session
                .process_frame(seq, frame, None, &models, &mut cache)
                .expect("replayed frame settles")
        });
        frame_ms.push(ms_since(t));
        tr.close(root);
        seq += 1;
    }
    report.metric("video.process_frame.ms", stats::mean(&frame_ms), "ms");

    // Replay 2: every grid tile of a frame through the layer plans; the
    // per-frame layer time is the full-grid time times the measured
    // recompute share.
    let mut replay = Replay::new(&v.key, &model);
    let grid = session.plan().clone();
    let shapes: Vec<(usize, usize)> = grid
        .tiles()
        .iter()
        .map(|t| (t.patch_h(), t.patch_w()))
        .collect();
    let grid_end = Instant::now() + ctx.seconds.mul_f64(0.08);
    let mut passes = 0u64;
    while passes == 0 || Instant::now() < grid_end {
        let frame = &v.contents[passes as usize % v.contents.len()];
        for t in grid.tiles() {
            let patch = frame.crop_hw(t.ey0, t.ey1, t.ex0, t.ex1);
            replay.run_f32(&tr, None, passes, patch.data(), t.patch_h(), t.patch_w());
            replay.run_int8(&tr, None, passes, patch.data(), t.patch_h(), t.patch_w());
        }
        passes += 1;
    }
    let frames_equiv = passes as f64 / recompute_share.max(1e-9);
    let compile_ms = replay.report(
        report,
        frames_equiv,
        &shapes,
        layers::halo_ratio(H, W, TILE, session.halo()),
        replay.graded_dpsnr_db(),
        crate::probe_budget(ctx),
    );
    // The video path counts no plan-cache lookups in engine telemetry.
    let snap = v.engine.telemetry().snapshot();
    crate::report_plan_cache(
        report,
        snap.counters.plan_cache_hits,
        snap.counters.plan_cache_misses,
        compile_ms,
        0,
    );
    crate::report_engine(report, &snap);
    crate::report_router_absent(report);
    let mut depth = plain.depth.clone();
    depth.extend(&traced.depth);
    crate::report_queue_depth(report, &depth);
    let replay_ms = crate::replay_request_ms(&tr);
    crate::report_unaccounted(report, live_mean, replay_ms);
    crate::report_span_count(report, &tr);
    report.info(format!(
        "trace: {{\"replayed_frames\": {seq}, \"replay_frame_ms\": {replay_ms:.3}, \"grid_passes\": {passes}, \
         \"recompute_share\": {recompute_share:.4}, \"live_mean_ms\": {live_mean:.3}, \"seed\": {}}}",
        v.seed
    ));
    crate::write_spans(&tr, ctx);
    let mut all = plain;
    all.attempted += traced.attempted;
    all.failed += traced.failed;
    all.problems.extend(traced.problems);
    finish(report, &v, all);
}

fn finish(report: &mut Report, v: &Video, l: Loop) {
    report.attempted += l.attempted;
    report.failed += l.failed;
    for p in l.problems.into_iter().take(5) {
        report.problem(p);
    }
    match v.engine.close_video_session(v.session) {
        Ok(st) if st.tiles_skipped == 0 || st.tiles_recomputed == 0 => report.problem(format!(
            "reuse share at an extreme (skipped {}, recomputed {})",
            st.tiles_skipped, st.tiles_recomputed
        )),
        Ok(_) => {}
        Err(e) => report.problem(format!("close session: {e}")),
    }
    v.engine.shutdown(Duration::from_secs(10));
    common::remove_artifacts(&[5]);
}
