//! Per-layer measurements taken from outside the program: a kernel peak
//! probe, and replays of a workload's own inputs through the public
//! layer functions (`InferPlan`, `QuantPlan`, `PlanCache`, `TilePlan`,
//! `ModelRegistry`) under the benchmark's spans.

use crate::common::{self, Report};
use crate::trace::{Recorder, SpanId};
use sesr_core::macs::macs_for_params;
use sesr_core::{CollapsedKernels, CollapsedSesr, InferPlan, TilePlan};
use sesr_quant::QuantPlan;
use sesr_serve::{ModelKey, ModelRegistry, PlanCache, PrecisionDecision, PrecisionPolicy};
use sesr_tensor::simd::{kernel_variant, microkernel};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// ΔPSNR budget of the int8 serving policy, dB.
pub const PSNR_BUDGET_DB: f64 = 1.0;

/// The int8 serving policy every int8 path of the benchmark uses.
pub fn int8_policy() -> PrecisionPolicy {
    PrecisionPolicy::Int8 {
        psnr_budget: PSNR_BUDGET_DB,
    }
}

/// Measured kernel peaks, GMAC/s, at the serving variant.
struct Peaks {
    f32_gmac_s: f64,
    int8_gmac_s: f64,
}

/// Best of three windows of back-to-back microkernel calls: the f32 GEMM
/// register tile and the int8 paired-lane multiply-accumulate.
fn tensor_peaks(budget: Duration) -> Peaks {
    let mk = microkernel(kernel_variant());
    let window = budget / 6;
    let best = |mut call: Box<dyn FnMut() -> u64 + '_>| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let mut macs = 0u64;
                while t.elapsed() < window {
                    for _ in 0..64 {
                        macs += call();
                    }
                }
                macs as f64 / t.elapsed().as_secs_f64() / 1e9
            })
            .fold(0.0f64, f64::max)
    };
    const KC: usize = 256;
    let a = vec![0.5f32; KC * 8];
    let b = vec![0.25f32; KC * 8];
    let mut acc = [[0.0f32; 8]; 8];
    let f32_gmac_s = best(Box::new(|| {
        mk.gemm_8x8(black_box(&a), black_box(&b), KC, &mut acc);
        black_box(&acc);
        (64 * KC) as u64
    }));
    const LANES: usize = 1024;
    const TAPS: usize = 9;
    let ws = vec![0x0003_0005i32; TAPS];
    let rows: Vec<Vec<i32>> = (0..TAPS)
        .map(|t| vec![0x0007_0002 + t as i32; LANES])
        .collect();
    let segs: Vec<&[i32]> = rows.iter().map(Vec::as_slice).collect();
    let mut qacc = vec![0i32; LANES];
    // Each i32 lane carries two i16 products per tap.
    let int8_gmac_s = best(Box::new(|| {
        mk.qmadd_taps(&mut qacc, black_box(&ws), black_box(&segs));
        black_box(&qacc);
        (2 * LANES * TAPS) as u64
    }));
    Peaks {
        f32_gmac_s,
        int8_gmac_s,
    }
}

/// The three conv groups of a collapsed SESR network.
#[derive(Clone, Copy)]
enum Group {
    First,
    Conv3x3,
    Head,
}

const GROUPS: [(Group, &str); 3] = [
    (Group::First, "first5x5"),
    (Group::Conv3x3, "conv3x3"),
    (Group::Head, "head5x5"),
];

/// Accumulated per-group time, MACs and computed bytes over replayed
/// requests.
#[derive(Default)]
pub struct CoreTimes {
    ns: [u64; 3],
    macs: [u64; 3],
    bytes: [u64; 3],
}

impl CoreTimes {
    /// Runs one planned image with per-step timing and accumulates the
    /// steps into their groups. MACs come from `sesr_core::macs`; bytes
    /// are computed from tensor sizes (input plane, output plane and
    /// weights, as f32), not measured.
    pub fn run(
        &mut self,
        plan: &mut InferPlan,
        input: &[f32],
        out: &mut [f32],
        nanos: &mut Vec<u64>,
    ) {
        nanos.clear();
        nanos.resize(plan.num_steps(), 0);
        plan.run_image_into_timed(input, out, nanos);
        let (h, w) = plan.shape();
        let layers = plan.kernels().layers();
        let last = layers.len() - 1;
        for (i, (l, &ns)) in layers.iter().zip(nanos.iter()).enumerate() {
            let g = match i {
                0 => 0,
                i if i == last => 2,
                _ => 1,
            };
            let params = l.kh * l.kw * l.cin * l.cout;
            self.ns[g] += ns;
            self.macs[g] += macs_for_params(params, h, w);
            self.bytes[g] += 4 * ((l.cin + l.cout) * h * w + params) as u64;
        }
    }

    /// Reports `core.<group>.{ms,gmac_s,pct_peak,computed_mb}` per
    /// request, against the measured f32 peak.
    pub fn report(&self, report: &mut Report, requests: f64, peak_gmac_s: f64) {
        for (g, name) in GROUPS {
            let i = g as usize;
            let secs = self.ns[i] as f64 / 1e9;
            let gmac_s = if secs > 0.0 {
                self.macs[i] as f64 / secs / 1e9
            } else {
                0.0
            };
            report.metric(&format!("core.{name}.ms"), secs * 1e3 / requests, "ms");
            report.metric(&format!("core.{name}.gmac_s"), gmac_s, "GMAC/s");
            report.metric(
                &format!("core.{name}.pct_peak"),
                100.0 * gmac_s / peak_gmac_s,
                "%",
            );
            report.metric(
                &format!("core.{name}.computed_mb"),
                self.bytes[i] as f64 / 1e6 / requests,
                "MB",
            );
        }
    }

    /// Total replayed core time, ms.
    pub fn total_ms(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e6
    }
}

/// Median of `n` cold `ModelRegistry::get` calls after `register_path`.
fn registry_load_ms(key: &ModelKey, n: usize) -> f64 {
    let path = common::artifact_path(key);
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let reg = ModelRegistry::new(1);
            reg.register_path(key.clone(), path.clone());
            let t = Instant::now();
            let model = reg.get(key).expect("registered artifact loads");
            black_box(model);
            common::ms_since(t)
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// Median of `n` cold `PlanCache::plan_for` compiles (f32) of an `h x w`
/// plan: kernel flattening, Winograd pre-transform, arena and blocking.
fn plan_compile_ms(
    key: &ModelKey,
    model: &Arc<CollapsedSesr>,
    h: usize,
    w: usize,
    n: usize,
) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let mut cache = PlanCache::new();
            let t = Instant::now();
            let (plan, hit) = cache.plan_for(key, model, h, w, &PrecisionDecision::F32);
            assert!(!hit, "a fresh cache cannot hit");
            black_box(plan.arena_bytes());
            common::ms_since(t)
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// Median of `n` cold `InferPlan::new` builds over the given shapes
/// (mean per shape).
fn plan_build_ms(kernels: &Arc<CollapsedKernels>, shapes: &[(usize, usize)], n: usize) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            for &(h, w) in shapes {
                black_box(InferPlan::with_bands(kernels.clone(), h, w, 1).arena_bytes());
            }
            common::ms_since(t) / shapes.len().max(1) as f64
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// Median of `n` cold int8 gradings (`PlanCache::decision_for`), and the
/// decision of the last one.
fn grade_ms(key: &ModelKey, model: &Arc<CollapsedSesr>, n: usize) -> (f64, Arc<PrecisionDecision>) {
    let mut decision = None;
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let mut cache = PlanCache::new();
            let t = Instant::now();
            let (d, _) = cache.decision_for(key, model, PSNR_BUDGET_DB);
            let ms = common::ms_since(t);
            decision = Some(d);
            ms
        })
        .collect();
    (
        crate::stats::median(&samples).unwrap_or(0.0),
        decision.expect("n >= 1"),
    )
}

/// LR pixels computed (halo-expanded patches) per LR pixel emitted, for
/// an `h x w` image tiled at `tile` with `overlap` halo.
pub fn halo_ratio(h: usize, w: usize, tile: usize, overlap: usize) -> f64 {
    let plan = TilePlan::new(h, w, tile, overlap).expect("valid tile geometry");
    let computed: usize = plan.tiles().iter().map(|t| t.patch_h() * t.patch_w()).sum();
    computed as f64 / (h * w) as f64
}

/// One patch-shaped plan pair used by a replay: the f32 plan timed per
/// step, and the int8 plan over the same shape.
struct PlanPair {
    f32: InferPlan,
    int8: QuantPlan,
}

/// Replay state shared by the workloads: the served model's kernels and
/// int8 grading, per-shape plans, and the core and quant accumulators.
pub struct Replay {
    key: ModelKey,
    model: Arc<CollapsedSesr>,
    kernels: Arc<CollapsedKernels>,
    qdecision: Arc<PrecisionDecision>,
    grade_ms: f64,
    plans: Vec<((usize, usize), PlanPair)>,
    core: CoreTimes,
    quant_ns: u64,
    quant_arena_bytes: usize,
    nanos: Vec<u64>,
    out: Vec<f32>,
}

impl Replay {
    /// Flattens the served model and grades it for int8 (timed, three
    /// cold gradings).
    pub fn new(key: &ModelKey, model: &Arc<CollapsedSesr>) -> Self {
        let (grade_ms, qdecision) = grade_ms(key, model, 3);
        Self {
            key: key.clone(),
            model: model.clone(),
            kernels: Arc::new(CollapsedKernels::new(model)),
            qdecision,
            grade_ms,
            plans: Vec::new(),
            core: CoreTimes::default(),
            quant_ns: 0,
            quant_arena_bytes: 0,
            nanos: Vec::new(),
            out: Vec::new(),
        }
    }

    fn pair(&mut self, h: usize, w: usize) -> usize {
        if let Some(i) = self.plans.iter().position(|(s, _)| *s == (h, w)) {
            return i;
        }
        let qk = self
            .qdecision
            .qkernels
            .clone()
            .expect("the replay's int8 decision carries packed kernels");
        let pair = PlanPair {
            f32: InferPlan::with_bands(self.kernels.clone(), h, w, 1),
            int8: QuantPlan::with_bands(qk, h, w, 1),
        };
        self.plans.push(((h, w), pair));
        self.plans.len() - 1
    }

    /// Runs one LR plane of `h x w` through the f32 plan, timed per step,
    /// under a `core.run_image` span.
    pub fn run_f32(
        &mut self,
        tr: &Recorder,
        parent: Option<SpanId>,
        req: u64,
        input: &[f32],
        h: usize,
        w: usize,
    ) {
        let i = self.pair(h, w);
        let s = self.kernels.scale();
        self.out.resize(h * s * w * s, 0.0);
        let (core, nanos, out) = (&mut self.core, &mut self.nanos, &mut self.out);
        let plan = &mut self.plans[i].1.f32;
        tr.span("core.run_image", parent, req, |_| {
            core.run(plan, input, out, nanos)
        });
    }

    /// Runs the same plane through the int8 plan under a
    /// `quant.run_image` span.
    pub fn run_int8(
        &mut self,
        tr: &Recorder,
        parent: Option<SpanId>,
        req: u64,
        input: &[f32],
        h: usize,
        w: usize,
    ) {
        let i = self.pair(h, w);
        let s = self.kernels.scale();
        self.out.resize(h * s * w * s, 0.0);
        let plan = &mut self.plans[i].1.int8;
        let out = &mut self.out;
        let t = Instant::now();
        tr.span("quant.run_image", parent, req, |_| {
            plan.run_image_into(input, out)
        });
        self.quant_ns += t.elapsed().as_nanos() as u64;
        self.quant_arena_bytes = self.quant_arena_bytes.max(plan.arena_bytes());
    }

    /// ΔPSNR of int8 on the program's own calibration scene, dB.
    pub fn graded_dpsnr_db(&self) -> f64 {
        self.qdecision.delta_db
    }

    /// Reports the rows every workload shares, per replayed request: the
    /// kernel peaks, the core layer rows against the f32 peak, plan build
    /// time over `shapes`, the halo ratio, the quant rows, the registry
    /// load and a cold plan compile of `shapes[0]`. Returns the plan
    /// compile time for the plan-cache row.
    pub fn report(
        &self,
        report: &mut Report,
        requests: f64,
        shapes: &[(usize, usize)],
        halo_ratio: f64,
        dpsnr_db: f64,
        probe: Duration,
    ) -> f64 {
        let peaks = tensor_peaks(probe);
        report.metric("tensor.f32.peak_gmac_s", peaks.f32_gmac_s, "GMAC/s");
        report.metric("tensor.int8.peak_gmac_s", peaks.int8_gmac_s, "GMAC/s");
        self.core.report(report, requests, peaks.f32_gmac_s);
        report.metric(
            "core.plan_build.ms",
            plan_build_ms(&self.kernels, shapes, 3),
            "ms",
        );
        report.metric("core.tile.halo_ratio", halo_ratio, "ratio");
        report.metric("quant.plan.ms", self.quant_ns as f64 / 1e6 / requests, "ms");
        report.metric("quant.grade.ms", self.grade_ms, "ms");
        report.metric("quant.arena_bytes", self.quant_arena_bytes as f64, "bytes");
        report.metric("quant.dpsnr_db", dpsnr_db, "dB");
        report.metric("registry.load.ms", registry_load_ms(&self.key, 5), "ms");
        let (h, w) = shapes[0];
        plan_compile_ms(&self.key, &self.model, h, w, 3)
    }

    /// Total replayed f32 core time, ms.
    pub fn core_ms(&self) -> f64 {
        self.core.total_ms()
    }
}
