//! `tenant-mix`: open loop from one generator with Poisson arrivals at
//! three fixed rates (`low`, `mid`, `high`) into a `Router` of 2 shards ×
//! 1 worker under the F32 policy. Three interactive tenants request m5
//! under a 40 ms deadline (degraded to m3 under overload); their frames
//! come in more LR shapes than a worker's plan cache holds. One batch
//! tenant sends 96x160 frames at a low rate to the shard of one
//! interactive tenant, each costing about a third of an interactive
//! deadline of compute — the head-of-line pressure the router's two-band
//! queue exists for, small enough that the 99 % limit stays attainable.
//!
//! `RouterTicket` only offers a blocking `wait`, so completions are
//! observed by a pool of waiter threads that grows whenever none is
//! idle: no completion is observed late because its waiter is still
//! blocked on an earlier, slower ticket. The time a ticket spent in the
//! hand-off before a waiter picked it up is reported.

use crate::common::{self, ms_since, Report};
use crate::layers::Replay;
use crate::stats::{self, PhaseOutcome};
use crate::trace::{Recorder, SpanId};
use crate::upscale::ThreadsFor;
use crate::Ctx;
use sesr_data::synth::{generate, Family};
use sesr_serve::{
    EngineConfig, ModelKey, PlanCache, PrecisionDecision, Priority, Router, RouterConfig,
    RouterServeError, RouterSubmitError,
};
use sesr_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Interactive latency limit, from each request's due time.
const DEADLINE: Duration = Duration::from_millis(40);
/// Batch-tenant deadline: generous, batch work queues rather than expires.
const BULK_DEADLINE: Duration = Duration::from_secs(3);
/// Interactive LR shapes: twelve, more than a worker's plan cache (8),
/// from 48 to 128 px. Smaller frames make the median a measure of thread
/// wake-up latency, which swings with the host's CPU steal far more than
/// compute does.
const SHAPES: [(usize, usize); 12] = [
    (48, 48),
    (48, 64),
    (64, 64),
    (64, 80),
    (72, 72),
    (80, 64),
    (80, 80),
    (88, 96),
    (96, 96),
    (104, 88),
    (112, 112),
    (128, 128),
];
/// Batch frame: about a third of an interactive deadline of compute on
/// one worker, so an interactive request stuck behind a running batch
/// frame can still meet its limit and the 99% share stays attainable.
const BULK_HW: (usize, usize) = (96, 160);
/// Interactive tenants. The names are chosen so the router's consistent
/// hash places two tenants on one shard and one next to the batch tenant
/// on the other (the placement is printed with every run).
const TENANTS: [&str; 3] = ["alpha", "beta", "delta"];
/// Each interactive tenant's share of a phase's rate: the lone tenant on
/// the batch tenant's shard sends as much as the other two together, so
/// both shards carry the same interactive load.
const TENANT_SHARE: [f64; 3] = [0.25, 0.25, 0.5];
const BULK_TENANT: &str = "bulk";
/// Each phase: name, total interactive arrival rate (requests/s), and
/// share of the run. `high` offers about 2.5 times what the two workers
/// serve, so their queues never drain and a served request has waited
/// close to the deadline: it carries the gated latencies and runs as long
/// as `mid`, which carries the gated goodput.
const RATES: [(&str, f64, f64); 3] = [("low", 10.0, 0.2), ("mid", 30.0, 0.4), ("high", 480.0, 0.4)];
/// Batch-tenant arrival rate, requests/s.
const BULK_HZ: f64 = 2.0;
/// Share of interactive requests sent that must finish within the limit.
const SLO_SHARE: f64 = 0.99;
/// Backlog sampling period.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);
/// Upper bound on waiter threads (each is parked on one ticket).
const MAX_WAITERS: usize = 256;

struct Input {
    lr: Tensor,
    ref_m5: Tensor,
    ref_m3: Tensor,
}

pub struct Mix {
    router: Router,
    m5: ModelKey,
    m3: ModelKey,
    seed: u64,
    first: Tensor,
}

fn lr_input(seed: u64, i: usize, (h, w): (usize, usize)) -> Tensor {
    let fam = [
        Family::Natural,
        Family::Urban,
        Family::Detail,
        Family::Mixed,
    ][i % 4];
    generate(
        fam,
        h,
        w,
        seed.wrapping_mul(0x2545_F491).wrapping_add(i as u64),
    )
}

pub fn setup(seed: u64) -> Mix {
    let (registry, keys) = common::registry_with(&[5, 3]);
    let router = Router::new(
        RouterConfig {
            shards: 2,
            engine: EngineConfig {
                workers: 1,
                queue_capacity: 4,
                // Batch frames stay whole: one occupies its worker in one piece.
                tile_threshold_px: usize::MAX,
                ..EngineConfig::default()
            },
            shard_queue_capacity: 16,
            degrade_chain: vec!["m5".to_string(), "m3".to_string()],
            ..RouterConfig::default()
        },
        registry,
    );
    let first = lr_input(seed, 0, SHAPES[0]);
    router
        .submit(
            TENANTS[0],
            Priority::Interactive,
            &keys[0],
            first.clone(),
            None,
        )
        .expect("first request admitted")
        .wait()
        .expect("first request served");
    Mix {
        router,
        m5: keys[0].clone(),
        m3: keys[1].clone(),
        seed,
        first,
    }
}

/// SplitMix64: the benchmark's own seeded stream for arrivals and input
/// choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Arrival {
    /// Offset of the due time from the phase start.
    due: Duration,
    /// Tenant index; `TENANTS.len()` is the batch tenant.
    tenant: usize,
    input: usize,
}

/// Poisson arrivals per tenant, conditioned on their count: a Poisson
/// process with `rate × horizon` arrivals places them as sorted uniform
/// draws. Fixing the count keeps the offered load, and so the goodput
/// base, the same on every seed; the seed moves the arrival times.
fn schedule(
    rng: &mut Rng,
    rate: f64,
    dur: Duration,
    n_inputs: usize,
    n_bulk: usize,
) -> Vec<Arrival> {
    let mut all = Vec::new();
    let horizon = dur.as_secs_f64();
    // (tenant, rate, first input, inputs to draw from); the batch tenant
    // is index `TENANTS.len()` and draws from the inputs after the
    // interactive ones.
    let streams = TENANT_SHARE
        .iter()
        .enumerate()
        .map(|(t, share)| (t, rate * share, 0, n_inputs))
        .chain([(TENANTS.len(), BULK_HZ, n_inputs, n_bulk)]);
    for (tenant, hz, base, n) in streams {
        let count = (hz * horizon).round().max(1.0) as usize;
        for input in inputs_in_shuffled_order(rng, count, n) {
            all.push(Arrival {
                due: Duration::from_secs_f64(rng.unit() * horizon),
                tenant,
                input: base + input,
            });
        }
    }
    all.sort_by_key(|a| a.due);
    all
}

/// `count` draws from inputs `0..n`, each input as often as every other
/// (the first `count % n` once more), in an order the seed shuffles.
/// Like the arrival count, the work offered per shape is then the same on
/// every seed; only the order and timing move.
fn inputs_in_shuffled_order(rng: &mut Rng, count: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..count).map(|i| i % n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    order
}

/// How one request ended.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    /// Served with the requested model's exact output.
    Served,
    /// Served with the degraded (m3) model's exact output.
    Degraded,
    /// Refused at admission or expired: the system's overload policy.
    Refused,
    /// Wrong output or an unexpected error.
    Failed,
}

struct Done {
    tenant: usize,
    /// Latency from the due time, ms.
    ms: f64,
    outcome: Outcome,
    /// Hand-off time from the generator to a free waiter, ms.
    pickup_ms: f64,
    input: usize,
    /// When the outcome was observed, seconds after the phase start.
    at_s: f64,
}

struct Job {
    ticket: sesr_serve::RouterTicket,
    due: Instant,
    sent: Instant,
    tenant: usize,
    input: usize,
    root: Option<SpanId>,
    id: u64,
    start: Instant,
}

/// One phase's results.
struct Phase {
    name: &'static str,
    rate: f64,
    seconds: f64,
    sent: Vec<u64>,
    done: Vec<Done>,
    problems: Vec<String>,
    lateness_ms: Vec<f64>,
    depth: Vec<usize>,
    /// Sent requests in order: (tenant, input) — the replay's input.
    sequence: Vec<(usize, usize)>,
}

impl Phase {
    fn interactive(&self) -> impl Iterator<Item = &Done> {
        self.done.iter().filter(|d| d.tenant < TENANTS.len())
    }

    fn latencies(&self, interactive: bool) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| (d.tenant < TENANTS.len()) == interactive)
            .filter(|d| matches!(d.outcome, Outcome::Served | Outcome::Degraded))
            .map(|d| d.ms)
            .collect()
    }

    fn outcome(&self) -> PhaseOutcome {
        let sent: u64 = self.sent[..TENANTS.len()].iter().sum();
        let on_time = self
            .interactive()
            .filter(|d| matches!(d.outcome, Outcome::Served | Outcome::Degraded))
            .filter(|d| d.ms <= DEADLINE.as_secs_f64() * 1e3)
            .count() as u64;
        PhaseOutcome {
            rate: self.rate,
            sent,
            on_time,
            backlog_grew: stats::backlog_grew(&self.depth),
            seconds: self.seconds,
        }
    }

    fn count(&self, o: Outcome) -> usize {
        self.done.iter().filter(|d| d.outcome == o).count()
    }
}

fn check(inputs: &[Input], input: usize, out: &Tensor) -> Outcome {
    if common::same_bits(out, &inputs[input].ref_m5) {
        Outcome::Served
    } else if common::same_bits(out, &inputs[input].ref_m3) {
        Outcome::Degraded
    } else {
        Outcome::Failed
    }
}

/// Runs one open-loop phase at `rate` for `dur`, then waits until every
/// admitted request has settled.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    mix: &Mix,
    inputs: &[Input],
    n_inter: usize,
    name: &'static str,
    rate: f64,
    dur: Duration,
    rng: &mut Rng,
    tr: &Recorder,
) -> Phase {
    let plan = schedule(rng, rate, dur, n_inter, inputs.len() - n_inter);
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let idle = AtomicUsize::new(0);
    let mut phase = Phase {
        name,
        rate,
        seconds: dur.as_secs_f64(),
        sent: vec![0; TENANTS.len() + 1],
        done: Vec::new(),
        problems: Vec::new(),
        lateness_ms: Vec::with_capacity(plan.len()),
        depth: Vec::new(),
        sequence: Vec::with_capacity(plan.len()),
    };
    let mut refused: Vec<Done> = Vec::new();
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Mutex::new(rx);
    std::thread::scope(|s| {
        let mut waiters = Vec::new();
        let mut admitted = 0usize;
        let start = Instant::now();
        let mut last_sample = start;
        for (i, a) in plan.iter().enumerate() {
            let due = start + a.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            phase.lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
            if last_sample.elapsed() >= SAMPLE_EVERY {
                last_sample = Instant::now();
                phase.depth.push(
                    mix.router
                        .shard_statuses()
                        .iter()
                        .map(|st| st.queued + st.engine_depth)
                        .sum(),
                );
            }
            let bulk = a.tenant == TENANTS.len();
            let (tenant, class, deadline) = if bulk {
                (BULK_TENANT, Priority::Batch, BULK_DEADLINE)
            } else {
                (TENANTS[a.tenant], Priority::Interactive, DEADLINE)
            };
            phase.sent[a.tenant] += 1;
            phase.sequence.push((a.tenant, a.input));
            let id = i as u64;
            let root = tr.open("request", None, id);
            let res = tr.span("entry.submit", root, id, |_| {
                mix.router.submit(
                    tenant,
                    class,
                    &mix.m5,
                    inputs[a.input].lr.clone(),
                    Some(deadline),
                )
            });
            match res {
                Ok(ticket) => {
                    admitted += 1;
                    if idle.load(Ordering::SeqCst) == 0 && waiters.len() < MAX_WAITERS {
                        let (rx, done, idle) = (&rx, &done, &idle);
                        waiters.push(s.spawn(move || waiter(rx, idle, done, inputs, tr)));
                    }
                    tx.send(Job {
                        ticket,
                        due,
                        sent: Instant::now(),
                        tenant: a.tenant,
                        input: a.input,
                        root,
                        id,
                        start,
                    })
                    .expect("a waiter holds the receiver");
                }
                Err(e) => {
                    tr.close(root);
                    let outcome = match e {
                        RouterSubmitError::ShedBatch
                        | RouterSubmitError::Overloaded
                        | RouterSubmitError::Throttled { .. } => Outcome::Refused,
                        other => {
                            phase
                                .problems
                                .push(format!("request {id}: unexpected refusal: {other}"));
                            Outcome::Failed
                        }
                    };
                    refused.push(Done {
                        tenant: a.tenant,
                        ms: f64::INFINITY,
                        outcome,
                        pickup_ms: 0.0,
                        input: a.input,
                        at_s: start.elapsed().as_secs_f64(),
                    });
                }
            }
        }
        // Drain: every admitted request settles before the next phase.
        while done.lock().expect("done lock").len() < admitted {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(tx);
        for w in waiters {
            w.join().expect("waiter thread");
        }
    });
    phase.done = done.into_inner().expect("done lock");
    phase.done.extend(refused);
    // Goodput base: from the phase start to the last interactive outcome.
    phase.seconds = phase
        .interactive()
        .map(|d| d.at_s)
        .fold(phase.seconds, f64::max);
    phase
}

fn waiter(
    rx: &Mutex<mpsc::Receiver<Job>>,
    idle: &AtomicUsize,
    done: &Mutex<Vec<Done>>,
    inputs: &[Input],
    tr: &Recorder,
) {
    loop {
        idle.fetch_add(1, Ordering::SeqCst);
        let job = rx.lock().expect("receiver lock").recv();
        idle.fetch_sub(1, Ordering::SeqCst);
        let Ok(job) = job else { return };
        let pickup_ms = ms_since(job.sent);
        let res = tr.span("entry.wait", job.root, job.id, |_| job.ticket.wait());
        let ms = job.due.elapsed().as_secs_f64() * 1e3;
        tr.close(job.root);
        let outcome = match res {
            Ok(out) => check(inputs, job.input, &out),
            Err(RouterServeError::DeadlineExpired) => Outcome::Refused,
            Err(_) => Outcome::Failed,
        };
        done.lock().expect("done lock").push(Done {
            tenant: job.tenant,
            ms,
            outcome,
            pickup_ms,
            input: job.input,
            at_s: job.start.elapsed().as_secs_f64(),
        });
    }
}

fn inputs_for(mix: &Mix) -> (Vec<Input>, usize) {
    let m5 = mix.router.registry().get(&mix.m5).expect("m5 resident");
    let m3 = mix.router.registry().get(&mix.m3).expect("m3 resident");
    let mut lrs: Vec<Tensor> = vec![mix.first.clone()];
    lrs.extend((1..2 * SHAPES.len()).map(|i| lr_input(mix.seed, i, SHAPES[i % SHAPES.len()])));
    let n_inter = lrs.len();
    lrs.extend((0..2).map(|i| lr_input(mix.seed ^ 0xB01C, 100 + i, BULK_HW)));
    let _threads = ThreadsFor::all();
    let inputs = lrs
        .into_iter()
        .map(|lr| Input {
            ref_m5: m5.run_reference(&lr),
            ref_m3: m3.run_reference(&lr),
            lr,
        })
        .collect();
    (inputs, n_inter)
}

fn phase_line(p: &Phase) -> String {
    let inter = p.latencies(true);
    let bulk = p.latencies(false);
    let o = p.outcome();
    let pickup: Vec<f64> = p.done.iter().map(|d| d.pickup_ms).collect();
    let tail = stats::tail(&inter);
    format!(
        "phase: {{\"name\": \"{}\", \"rate\": {}, \"sent\": {}, \"bulk_sent\": {}, \"succeeded\": {}, \"degraded\": {}, \
         \"refused_or_expired\": {}, \"failed\": {}, \"on_time_share\": {:.4}, \"backlog_grew\": {}, \
         \"p50_ms\": {:.3}, \"tail_ms\": {:.3}, \"tail_percentile\": {}, \"samples\": {}, \"bulk_p50_ms\": {:.3}, \
         \"generator_late_p50_ms\": {:.3}, \"generator_late_max_ms\": {:.3}, \"pickup_max_ms\": {:.3}, \
         \"backlog_mean\": {:.2}}}",
        p.name,
        p.rate,
        o.sent,
        p.sent[TENANTS.len()],
        p.count(Outcome::Served) + p.count(Outcome::Degraded),
        p.count(Outcome::Degraded),
        p.count(Outcome::Refused),
        p.count(Outcome::Failed),
        o.on_time_share(),
        o.backlog_grew,
        stats::median(&inter).unwrap_or(0.0),
        tail.map_or(0.0, |t| t.1),
        tail.map_or(0.0, |t| t.0),
        inter.len(),
        stats::median(&bulk).unwrap_or(0.0),
        stats::median(&p.lateness_ms).unwrap_or(0.0),
        p.lateness_ms.iter().copied().fold(0.0, f64::max),
        pickup.iter().copied().fold(0.0, f64::max),
        stats::mean(&p.depth.iter().map(|&d| d as f64).collect::<Vec<_>>()),
    )
}

fn account(report: &mut Report, phases: &[Phase]) {
    for p in phases {
        report.attempted += p.done.len() as u64;
        report.failed += p.count(Outcome::Failed) as u64;
        for pr in p.problems.iter().take(3) {
            report.problem(pr.clone());
        }
        report.info(phase_line(p));
    }
}

pub fn run(ctx: &Ctx, mix: Mix, report: &mut Report) {
    let (inputs, n_inter) = inputs_for(&mix);
    let mut rng = Rng(ctx.seed ^ 0x00A1_1CE5);
    let quiet = Recorder::new(false);
    if !ctx.trace {
        let phases: Vec<Phase> = RATES
            .iter()
            .map(|&(name, rate, share)| {
                run_phase(
                    &mix,
                    &inputs,
                    n_inter,
                    name,
                    rate,
                    ctx.seconds.mul_f64(share),
                    &mut rng,
                    &quiet,
                )
            })
            .collect();
        let outcomes: Vec<PhaseOutcome> = phases.iter().map(Phase::outcome).collect();
        let good = stats::goodput(&outcomes, SLO_SHARE);
        let mid = &phases[1];
        let mid_lat = mid.latencies(true);
        // Gated goodput: interactive requests answered correctly within
        // the limit per second at `mid`, misses counted against it. The
        // highest-passing-rate goodput is a step between fixed rates, so
        // one slow host phase flips it; it is reported below, not gated.
        report.metric(
            "goodput_per_s",
            outcomes[1].on_time as f64 / outcomes[1].seconds,
            "1/s",
        );
        // The gated latencies are `high`'s (mean, and mean of the slowest
        // 5 %, of ~3000 served requests): deep past the knee the router
        // queues never drain, so a served request waited close to the
        // deadline before dispatch; its latency is about the deadline plus
        // the engine queue and one service time, and moves far less with
        // the shared host's speed than `mid`'s (median and tail swung ±25 %
        // between runs) or a rate just past the knee (median spread 0.26
        // between runs). `mid`'s are reported.
        let high_lat = phases[2].latencies(true);
        crate::report_latency(report, &high_lat, 95.0);
        let tail_high = crate::fixed_tail(report, &high_lat, 95.0);
        let tail = crate::fixed_tail(report, &mid_lat, 95.0);
        let tail_of = |p: &Phase| stats::tail(&p.latencies(true)).map_or(0.0, |t| t.1);
        report.info(format!(
            "workload: {{\"mix.low.tail_ms\": {:.4}, \"mix.mid.p50_ms\": {:.4}, \"mix.mid.tail_ms\": {:.4}, \
             \"mix.high.p50_ms\": {:.4}, \"mix.high.tail_ms\": {:.4}, \"mix.goodput_rps\": {:.4}, \"mix.goodput_rate\": {}, \
             \"mix.bulk.p50_ms\": {:.4}, \"routes\": \"{}\", \"observation\": \"a completion is seen when a waiter thread wakes \
             from RouterTicket::wait; the condvar wake-up is the unavoidable lag\"}}",
            tail_of(&phases[0]),
            stats::median(&mid_lat).unwrap_or(0.0),
            tail,
            stats::median(&high_lat).unwrap_or(0.0),
            tail_high,
            good.map_or(0.0, |g| g.1),
            good.map_or(0.0, |g| g.0),
            stats::median(&mid.latencies(false)).unwrap_or(0.0),
            TENANTS
                .iter()
                .chain([&BULK_TENANT])
                .map(|t| format!("{t}->{}", mix.router.route_of(t, &mix.m5).unwrap_or(usize::MAX)))
                .collect::<Vec<_>>()
                .join(","),
        ));
        account(report, &phases);
        finish(report, &mix);
        return;
    }

    let part = ctx.seconds.mul_f64(0.35);
    let (name, rate, _) = RATES[1];
    let plain = run_phase(&mix, &inputs, n_inter, name, rate, part, &mut rng, &quiet);
    let tr = Recorder::new(true);
    let traced = run_phase(&mix, &inputs, n_inter, name, rate, part, &mut rng, &tr);
    let (pl, tl) = (plain.latencies(true), traced.latencies(true));
    crate::report_overhead(report, &pl, &tl);
    crate::report_entry_spans(report, &tr);
    let snap = mix.router.telemetry();
    let c = snap.counters;
    let submits = c.admitted()
        + c.shed_batch
        + c.rejected_interactive
        + c.throttled
        + c.rejected_no_shard
        + c.rejected_invalid
        + c.rejected_unknown_model
        + c.rejected_draining;
    let share = |n: u64| n as f64 / submits.max(1) as f64;
    report.metric("router.submits", submits as f64, "count");
    report.metric("router.shed_share", share(c.shed_batch), "ratio");
    report.metric("router.degraded_share", share(c.degraded), "ratio");
    report.metric(
        "router.rejected_share",
        share(c.rejected_interactive),
        "ratio",
    );
    report.metric(
        "router.deadline_fail_share",
        share(c.failed_deadline),
        "ratio",
    );
    let mut depth = plain.depth.clone();
    depth.extend(&traced.depth);
    crate::report_queue_depth(report, &depth);

    // Replay: the traced phase's request sequence, in order, through one
    // worker-local PlanCache per shard (as the router placed it) and the
    // layer plans.
    let m5 = mix.router.registry().get(&mix.m5).expect("m5 resident");
    let m3 = mix.router.registry().get(&mix.m3).expect("m3 resident");
    let degraded: Vec<bool> = {
        let mut d = vec![false; inputs.len()];
        for x in traced
            .done
            .iter()
            .filter(|x| x.outcome == Outcome::Degraded)
        {
            d[x.input] = true;
        }
        d
    };
    let mut replay = Replay::new(&mix.m5, &m5);
    let mut caches = [PlanCache::new(), PlanCache::new()];
    let (mut hits, mut misses) = (0u64, 0u64);
    let replay_end = Instant::now() + ctx.seconds.mul_f64(0.15);
    let mut n = 0u64;
    'outer: loop {
        for &(tenant, input) in &traced.sequence {
            if n > 0 && Instant::now() >= replay_end {
                break 'outer;
            }
            let name = if tenant < TENANTS.len() {
                TENANTS[tenant]
            } else {
                BULK_TENANT
            };
            let shard = mix.router.route_of(name, &mix.m5).unwrap_or(0) % 2;
            let (key, model) = if degraded[input] {
                (&mix.m3, &m3)
            } else {
                (&mix.m5, &m5)
            };
            let lr = &inputs[input].lr;
            let (h, w) = (lr.shape()[1], lr.shape()[2]);
            let root = tr.open("replay.request", None, 1 << 32 | n);
            let hit = tr.span("plan_cache.plan_for", root, n, |_| {
                caches[shard]
                    .plan_for(key, model, h, w, &PrecisionDecision::F32)
                    .1
            });
            if hit {
                hits += 1;
            } else {
                misses += 1;
            }
            // Layer timing replays m5 for every request (degraded ones ran
            // m3, which the plan-cache lookup above keys correctly).
            replay.run_f32(&tr, root, n, lr.data(), h, w);
            tr.close(root);
            // Off the blocking path: the workload serves f32.
            replay.run_int8(&tr, None, n, lr.data(), h, w);
            n += 1;
        }
    }
    let mut shapes = SHAPES.to_vec();
    shapes.push(BULK_HW);
    // Whole-image path: every LR pixel computed is emitted (halo ratio 1).
    let compile_ms = replay.report(
        report,
        n as f64,
        &shapes,
        1.0,
        replay.graded_dpsnr_db(),
        crate::probe_budget(ctx),
    );
    crate::report_plan_cache(report, hits, misses, compile_ms, c.replication_warm_hits);
    crate::report_engine_absent(report);
    crate::report_video_absent(report);
    let live_mean = stats::mean(&tl);
    let replay_ms = crate::replay_request_ms(&tr);
    crate::report_unaccounted(report, live_mean, replay_ms);
    crate::report_span_count(report, &tr);
    report.info(format!(
        "trace: {{\"replayed_requests\": {n}, \"replay_request_ms\": {replay_ms:.4}, \"live_mean_ms\": {live_mean:.3}}}"
    ));
    crate::write_spans(&tr, ctx);
    account(report, &[plain, traced]);
    finish(report, &mix);
}

fn finish(report: &mut Report, mix: &Mix) {
    let problems = mix.router.telemetry().reconcile();
    for p in problems.into_iter().take(3) {
        report.problem(format!("router ledger: {p}"));
    }
    mix.router.shutdown(Duration::from_secs(10));
    common::remove_artifacts(&[3, 5]);
}
