//! Pieces every workload shares: the served models and their artifacts,
//! the run report, the host fingerprint, and memory readings.

use sesr_core::{encode_model, CollapsedSesr, Sesr, SesrConfig};
use sesr_serve::{ModelKey, ModelRegistry};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Upscale factor of every served model.
pub const SCALE: usize = 2;
/// Expanded (training-time) width the served models are built from.
const EXPANDED: usize = 16;
/// Model weights are fixed: the workload seed varies the inputs only.
const MODEL_SEED: u64 = 0x5E5A;

/// Where the benchmark writes its artifacts (model files, spans, tuner
/// choices), relative to the checkout root it runs from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

/// Builds and collapses SESR-M`m` at the fixed weights.
pub fn build_model(m: usize) -> CollapsedSesr {
    let cfg = SesrConfig::m(m)
        .with_scale(SCALE)
        .with_expanded(EXPANDED)
        .with_seed(MODEL_SEED + m as u64);
    Sesr::new(cfg).collapse()
}

/// Builds each `m*` model, encodes it to a `.sesr` artifact under a
/// per-process file name, and registers the artifact for lazy loading —
/// the path a deployment takes. Returns the registry and the keys.
pub fn registry_with(archs: &[usize]) -> (Arc<ModelRegistry>, Vec<ModelKey>) {
    let registry = Arc::new(ModelRegistry::new(8));
    let keys = archs
        .iter()
        .map(|&m| {
            let key = model_key(m);
            let path = artifact_path(&key);
            std::fs::write(&path, encode_model(&build_model(m))).expect("write model artifact");
            registry.register_path(key.clone(), path);
            key
        })
        .collect();
    (registry, keys)
}

/// The registry key of SESR-M`m`.
pub fn model_key(m: usize) -> ModelKey {
    ModelKey::new(&format!("m{m}"), SCALE)
}

/// This process's artifact file for `key`.
pub fn artifact_path(key: &ModelKey) -> PathBuf {
    out_dir().join(format!("{key}-{}.sesr", std::process::id()))
}

/// Removes this process's model artifacts.
pub fn remove_artifacts(archs: &[usize]) {
    for &m in archs {
        let _ = std::fs::remove_file(artifact_path(&model_key(m)));
    }
}

/// One benchmark run's result: what the final JSON line carries, plus
/// informational lines printed before it.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Invariant violations found by the checks (besides failed requests).
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub info: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    pub fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    /// Prints the informational lines, then the result object as the
    /// last line of standard output.
    pub fn print(&self) {
        for l in &self.info {
            println!("{l}");
        }
        for p in &self.problems {
            println!("problem: {p}");
        }
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        );
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident memory of this process now, in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(total, steal)` CPU ticks of the host so far (`/proc/stat`), to
/// report how much of the run the hypervisor took away.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Bit-exact comparison of two tensors.
pub fn same_bits(a: &sesr_tensor::Tensor, b: &sesr_tensor::Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a over bytes.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of a tensor's shape and bits.
pub fn tensor_hash(t: &sesr_tensor::Tensor) -> u64 {
    let mut h = FNV_OFFSET;
    for d in t.shape() {
        h = fnv1a(h, &d.to_le_bytes());
    }
    for v in t.data() {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// The run's fingerprint: host, kernel selection, tuner choices, source
/// identity and seed — everything a bimodal number may trace back to.
pub fn fingerprint(workload: &str, seed: u64) -> String {
    use sesr_tensor::simd::{detected_variants, kernel_variant};
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let variants: Vec<&str> = detected_variants().iter().map(|v| v.name()).collect();
    let tuner = out_dir().join(format!("tuner-{}.txt", std::process::id()));
    let choices = match sesr_tensor::autotune::save_choices(&tuner) {
        Ok(_) => std::fs::read_to_string(&tuner)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.strip_prefix("gemm "))
            .map(|l| l.replace(' ', "x"))
            .collect::<Vec<_>>()
            .join(","),
        Err(e) => format!("unavailable ({e})"),
    };
    let _ = std::fs::remove_file(&tuner);
    format!(
        "fingerprint: {{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \"cpu\": \"{cpu}\", \
         \"detected_variants\": \"{}\", \"kernel_variant\": \"{}\", \"gemm_choices\": \"{choices}\", \
         \"commit\": \"{}\", \"source_fnv\": \"{:016x}\"}}",
        variants.join(","),
        kernel_variant().name(),
        git_commit().unwrap_or_else(|| "none (not a git checkout)".to_string()),
        source_hash(),
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| Some(format!("{r} (packed)"))),
        None => Some(head.to_string()),
    }
}

/// FNV-1a over the program's sources (every file under `crates/` in
/// path order, plus the lock file and build config), so a checkout that
/// is not a git repository still identifies the code it measured.
fn source_hash() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![
        PathBuf::from("Cargo.lock"),
        PathBuf::from(".cargo/config.toml"),
    ];
    walk(Path::new("crates"), &mut files);
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, p| {
        let h = fnv1a(h, p.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(p).unwrap_or_default())
    })
}
