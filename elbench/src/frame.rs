//! `frame`: a closed loop of solo `ElPipeline::run_with_audit_clock`
//! calls on one worker thread — the onboard path the paper certifies.

use std::cell::Cell;
use std::time::Instant;

use el_core::decision::AbortReason;
use el_core::monitorlink::crop_for_monitor;
use el_core::{
    propose_zones, replay_decisions, run_audit_with_clock, AuditConfig, ElOutcome, ElPipeline,
    FinalDecision, PipelineConfig,
};
use el_metrics::Fingerprint;
use el_monitor::Monitor;
use el_nn::Workspace;
use el_scene::{Conditions, Image, Scene, SceneParams};
use el_seg::{segment_ws, MsdNet};

use crate::common::{self, Report};

/// Frames per input set (four per lighting condition).
pub const FRAMES: usize = 16;

/// The four lighting conditions the `frame` workload cycles through.
fn condition(k: usize) -> Conditions {
    match k % 4 {
        0 => Conditions::nominal(),
        1 => Conditions::overcast(),
        2 => Conditions::sunset(),
        _ => Conditions::night(),
    }
}

/// One pre-rendered solo frame and the pipeline seed it runs under.
struct SoloFrame {
    image: Image,
    seed: u64,
}

/// Renders the `frame` workload's inputs for one input set: `n` frames of
/// `SceneParams::default_urban`, cycling nominal, overcast, sunset, night.
fn solo_frames(set: u64, n: usize) -> Vec<SoloFrame> {
    let params = SceneParams::default_urban();
    (0..n)
        .map(|k| {
            let scene = Scene::generate(&params, common::derive(set, k as u64, 0x5CE7_E000));
            SoloFrame {
                image: scene.render(&condition(k), common::derive(set, k as u64, 0x8E7D_E800)),
                seed: common::derive(set, k as u64, 0x91BE_5EED),
            }
        })
        .collect()
}

/// `PipelineConfig::benchmark()` with the paper-scale audit geometry and
/// an unbounded budget, so every frame does a fixed amount of work.
pub fn config() -> PipelineConfig {
    PipelineConfig::benchmark().with_audit(AuditConfig {
        budget_s: f64::INFINITY,
        ..AuditConfig::paper_scale()
    })
}

/// Fingerprint of one outcome: decision, trials and the full audit report.
fn outcome_fp(out: &ElOutcome) -> String {
    let mut fp = Fingerprint::new();
    common::decision_fp(&mut fp, &out.decision, &out.trials);
    match &out.audit {
        Some(report) => common::audit_fp(&mut fp, report),
        None => fp.tag(0xFF),
    }
    fp.hex()
}

/// Set-up: weights, the input set's frames and the pipeline.
fn setup(set: u64) -> (ElPipeline, Vec<SoloFrame>) {
    let net = common::load_model();
    let frames = solo_frames(set, FRAMES);
    let pipeline = ElPipeline::try_new(net, config()).expect("benchmark config is valid");
    (pipeline, frames)
}

/// The reference outputs of one input set (one fingerprint per frame).
pub fn reference(set: u64) -> Vec<String> {
    let (mut pipeline, frames) = setup(set);
    let outcomes: Vec<ElOutcome> = frames
        .iter()
        .map(|f| pipeline.run(&f.image, f.seed))
        .collect();
    let mix = outcome_mix(outcomes.iter().map(|o| &o.decision));
    eprintln!("[elbench] frame set {set}: land / all-rejected / no-candidate = {mix:?}");
    outcomes.iter().map(outcome_fp).collect()
}

/// One timed run: `(decision_ms, frame_ms, outcome)`. The decision is
/// available at the audit clock's first poll — the decision path never
/// reads that clock.
fn timed_run(pipeline: &mut ElPipeline, f: &SoloFrame) -> (f64, f64, ElOutcome) {
    let first_poll: Cell<Option<Instant>> = Cell::new(None);
    let t0 = Instant::now();
    let out = pipeline.run_with_audit_clock(&f.image, f.seed, || {
        let now = Instant::now();
        if first_poll.get().is_none() {
            first_poll.set(Some(now));
        }
        (now - t0).as_secs_f64()
    });
    let end = Instant::now();
    let decided = first_poll.get().unwrap_or(end);
    let ms = |t: Instant| (t - t0).as_secs_f64() * 1e3;
    (ms(decided), ms(end), out)
}

/// Per-call times of one traced replay, milliseconds.
#[derive(Default, Clone, Copy)]
struct Parts {
    segment: f64,
    propose: f64,
    crop: f64,
    verify: f64,
    decide: f64,
    audit: f64,
}

impl Parts {
    fn sum(&self) -> f64 {
        self.segment + self.propose + self.crop + self.verify + self.decide + self.audit
    }
}

/// What a traced replay produced besides its timings.
struct Replayed {
    outcome: ElOutcome,
    candidates: usize,
    crops: usize,
}

/// Replays one frame through the public calls in pipeline order, timing
/// each call.
fn traced_replay(
    net: &MsdNet,
    monitor: &Monitor,
    ws: &mut Workspace,
    config: &PipelineConfig,
    f: &SoloFrame,
) -> (Parts, Replayed) {
    let mut parts = Parts::default();
    let mut lap = Instant::now();
    let mut split = |slot: &mut f64| {
        let now = Instant::now();
        *slot = (now - lap).as_secs_f64() * 1e3;
        lap = now;
    };
    let core = segment_ws(net, &f.image, ws);
    split(&mut parts.segment);
    let candidates = propose_zones(&core.labels, &config.zone);
    split(&mut parts.propose);
    let crops: Vec<Image> = candidates
        .iter()
        .take(config.decision.max_trials)
        .map(|c| crop_for_monitor(c, config.monitor_margin_px, &f.image))
        .collect();
    split(&mut parts.crop);
    let reports = monitor.verify_batch(net, &crops, f.seed);
    split(&mut parts.verify);
    let priority: Vec<el_geom::Rect> = candidates.iter().map(|c| c.rect).collect();
    let n_candidates = candidates.len();
    let (decision, trials) =
        replay_decisions(config.decision, config.monitored, candidates, &reports);
    split(&mut parts.decide);
    let audit = run_audit_with_clock(
        net,
        &f.image,
        &config.audit,
        &config.monitor.rule,
        f.seed,
        &priority,
        || 0.0,
    );
    split(&mut parts.audit);
    let replayed = Replayed {
        candidates: n_candidates,
        crops: crops.len(),
        outcome: ElOutcome {
            decision,
            trials,
            predicted: core.labels,
            audit: Some(audit),
        },
    };
    (parts, replayed)
}

/// Land / all-rejected / no-candidate tallies over one input set.
fn outcome_mix<'a>(
    decisions: impl IntoIterator<Item = &'a FinalDecision>,
) -> (usize, usize, usize) {
    let mut mix = (0, 0, 0);
    for decision in decisions {
        match decision {
            FinalDecision::Land(_) => mix.0 += 1,
            FinalDecision::Abort(AbortReason::NoCandidates) => mix.2 += 1,
            FinalDecision::Abort(_) => mix.1 += 1,
        }
    }
    mix
}

/// The untraced loop's record.
#[derive(Default)]
struct Untraced {
    decision_ms: Vec<f64>,
    frame_ms: Vec<f64>,
    run_ms_by_frame: Vec<Vec<f64>>,
    /// Each frame's first outcome: fingerprint, decision and trial count.
    first: Vec<Option<(String, FinalDecision, usize)>>,
}

impl Untraced {
    fn new() -> Self {
        Untraced {
            run_ms_by_frame: vec![Vec::new(); FRAMES],
            first: vec![None; FRAMES],
            ..Untraced::default()
        }
    }

    /// Runs frame `k` once, timed, and checks it repeats its first outcome.
    fn run(&mut self, pipeline: &mut ElPipeline, f: &SoloFrame, k: usize, report: &mut Report) {
        let (decision, total, out) = timed_run(pipeline, f);
        self.decision_ms.push(decision);
        self.frame_ms.push(total);
        self.run_ms_by_frame[k].push(total);
        let fp = outcome_fp(&out);
        match &self.first[k] {
            None => self.first[k] = Some((fp, out.decision, out.trials.len())),
            Some((want, _, _)) => report.check(*want == fp, || {
                format!("frame {k}: outcome changed between iterations ({want} then {fp})")
            }),
        }
    }

    /// The first outcome's fingerprint of every frame.
    fn fps(&self) -> Vec<String> {
        self.first
            .iter()
            .map(|e| e.as_ref().expect("every frame ran").0.clone())
            .collect()
    }
}

/// The traced replay's state and record.
struct Tracer {
    net: MsdNet,
    config: PipelineConfig,
    monitor: Monitor,
    ws: Workspace,
    parts_by_frame: Vec<Vec<Parts>>,
    wall_by_frame: Vec<Vec<f64>>,
    counts: Option<CycleCounts>,
}

impl Tracer {
    fn new() -> Self {
        let config = config();
        Tracer {
            net: common::load_model(),
            monitor: Monitor::new(config.monitor),
            config,
            ws: Workspace::new(),
            parts_by_frame: vec![Vec::new(); FRAMES],
            wall_by_frame: vec![Vec::new(); FRAMES],
            counts: None,
        }
    }

    /// Replays every frame once with the metrics registry on, checking
    /// each outcome against `ElPipeline::run`'s fingerprint in `fps`.
    fn cycle(&mut self, frames: &[SoloFrame], fps: &[String], report: &mut Report) {
        let registry = el_metrics::registry();
        registry.reset();
        el_metrics::set_enabled(true);
        let mut c = CycleCounts::default();
        for (k, f) in frames.iter().enumerate() {
            let start = Instant::now();
            let (parts, replayed) =
                traced_replay(&self.net, &self.monitor, &mut self.ws, &self.config, f);
            self.wall_by_frame[k].push(start.elapsed().as_secs_f64() * 1e3);
            self.parts_by_frame[k].push(parts);
            let (got, want) = (outcome_fp(&replayed.outcome), &fps[k]);
            report.check(got == *want, || {
                format!("frame {k}: traced replay {got} differs from ElPipeline::run {want}")
            });
            let out = &replayed.outcome;
            c.candidates += replayed.candidates;
            c.crops += replayed.crops;
            c.trials += out.trials.len();
            c.regions += out.audit.as_ref().map_or(0, |a| a.regions.len());
        }
        el_metrics::set_enabled(false);
        let snap = registry.snapshot();
        c.gemm_calls = snap.monitor.gemm.count;
        c.gemm_ms = snap.monitor.gemm.sum_ns as f64 / 1e6;
        c.fold_ms = snap.monitor.sample_fold.sum_ns as f64 / 1e6;
        c.mc_samples = snap.monitor.samples_run;
        c.tiles = snap.audit.verified;
        if let Some(prev) = &self.counts {
            report.check(prev.exact() == c.exact(), || {
                "work counters changed between cycles".into()
            });
        }
        self.counts = Some(c);
    }
}

pub fn run(set: u64, seconds: f64, trace: bool, reference: Option<Vec<String>>) -> Report {
    let mut report = Report::default();
    let ((mut pipeline, frames), setup_s) = common::timed_setup(3, || setup(set));
    // Warm the pipeline's workspace before timing.
    pipeline.run(&frames[0].image, frames[0].seed);

    // Untraced runs go frame by frame. A traced run alternates whole
    // cycles over the input set, untraced then traced, so that drift in
    // the host's speed reaches both sides of the overhead comparison.
    let mut untraced = Untraced::new();
    let mut tracer = trace.then(Tracer::new);
    let min_runs = if trace { 2 * FRAMES } else { FRAMES };
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < min_runs || t0.elapsed().as_secs_f64() < seconds {
        match &mut tracer {
            Some(t) if (i / FRAMES) % 2 == 1 => {
                t.cycle(&frames, &untraced.fps(), &mut report);
                i += FRAMES;
            }
            _ => {
                let k = i % FRAMES;
                untraced.run(&mut pipeline, &frames[k], k, &mut report);
                i += 1;
            }
        }
    }
    report.attempted = untraced.frame_ms.len() as u64;
    let fps = untraced.fps();
    match &reference {
        Some(want) => report.check(*want == fps, || {
            format!("outcomes differ from the stored reference: got {fps:?}, want {want:?}")
        }),
        None => report
            .errors
            .push(format!("no stored reference for input set {set}")),
    }

    // Health: the condition mix must keep exercising all three paths.
    let firsts: Vec<&(String, FinalDecision, usize)> = untraced
        .first
        .iter()
        .map(|e| e.as_ref().expect("every frame ran"))
        .collect();
    let (land, rejected, none) = outcome_mix(firsts.iter().map(|(_, d, _)| d));
    let retried = firsts.iter().filter(|(_, _, trials)| *trials > 1).count();
    report.note(
        "frame_mix",
        format!("land {land}, all-rejected {rejected}, no-candidate {none}, retried {retried} of {FRAMES}"),
    );
    report.check((6..=13).contains(&land), || {
        format!("health: {land}/{FRAMES} frames land, want 6..=13")
    });
    report.check((4..=10).contains(&none), || {
        format!("health: {none}/{FRAMES} frames propose nothing, want 4..=10")
    });

    let frame_ms = &untraced.frame_ms;
    let Some(t) = tracer else {
        report.latency("decision_ms", &untraced.decision_ms);
        report.metric(
            "throughput_per_s",
            frame_ms.len() as f64 / (frame_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        report.metric("served_share", 1.0, "share");
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
        report.note("frame_ms", format!("p50 {:.3}", common::median(frame_ms)));
        return report;
    };

    let c = t.counts.expect("at least one traced cycle");
    let per_frame = |v: f64| v / FRAMES as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let part_mean = |get: fn(&Parts) -> f64| {
        per_frame(
            (0..FRAMES)
                .map(|k| mean(&t.parts_by_frame[k].iter().map(get).collect::<Vec<_>>()))
                .sum(),
        )
    };
    let run_sum: f64 = (0..FRAMES)
        .map(|k| mean(&untraced.run_ms_by_frame[k]))
        .sum();
    let parts_sum: f64 = (0..FRAMES)
        .map(|k| {
            mean(
                &t.parts_by_frame[k]
                    .iter()
                    .map(Parts::sum)
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    let traced_sum: f64 = (0..FRAMES).map(|k| mean(&t.wall_by_frame[k])).sum();

    report.metric("seg.segment_ms", part_mean(|p| p.segment), "ms");
    report.metric("core.propose_ms", part_mean(|p| p.propose), "ms");
    report.metric("core.candidates", per_frame(c.candidates as f64), "count");
    report.metric("monitor.crop_ms", part_mean(|p| p.crop), "ms");
    report.metric("monitor.verify_ms", part_mean(|p| p.verify), "ms");
    report.metric("monitor.crops", per_frame(c.crops as f64), "count");
    report.metric(
        "monitor.useful_crop_share",
        c.trials as f64 / c.crops.max(1) as f64,
        "share",
    );
    report.metric("core.decide_us", part_mean(|p| p.decide) * 1e3, "us");
    report.metric("audit.sweep_ms", part_mean(|p| p.audit), "ms");
    report.metric("audit.tiles", per_frame(c.tiles as f64), "count");
    report.metric(
        "audit.ms_per_tile",
        part_mean(|p| p.audit) * FRAMES as f64 / c.tiles.max(1) as f64,
        "ms",
    );
    report.metric("audit.regions", per_frame(c.regions as f64), "count");
    report.metric(
        "monitor.mc_samples",
        per_frame(c.mc_samples as f64),
        "count",
    );
    report.metric(
        "kernels.gemm_calls",
        per_frame(c.gemm_calls as f64),
        "count",
    );
    report.metric("kernels.gemm_ms", per_frame(c.gemm_ms), "ms");
    report.metric("monitor.sample_fold_ms", per_frame(c.fold_ms), "ms");
    report.metric("trace.closure_share", parts_sum / run_sum, "share");
    report.metric("trace.overhead_share", traced_sum / run_sum - 1.0, "share");
    let (p, run_tail) = common::tail(frame_ms);
    report.metric("frame.run_ms_p50", common::median(frame_ms), "ms");
    report.metric("frame.run_ms_tail", run_tail, "ms");
    report.note(
        "frame.run_ms_tail",
        format!("p{p} of {} samples", frame_ms.len()),
    );
    let traced = t.wall_by_frame.iter().map(Vec::len).sum::<usize>();
    report.metric("trace.samples", traced as f64, "count");
    let render = Instant::now();
    std::hint::black_box(solo_frames(set, FRAMES));
    report.metric(
        "scene.render_ms",
        per_frame(render.elapsed().as_secs_f64() * 1e3),
        "ms",
    );
    report
}

/// Work counted over one traced pass of the input set.
#[derive(Default)]
struct CycleCounts {
    candidates: usize,
    crops: usize,
    trials: usize,
    regions: usize,
    tiles: u64,
    mc_samples: u64,
    gemm_calls: u64,
    gemm_ms: f64,
    fold_ms: f64,
}

impl CycleCounts {
    /// The counters that must repeat exactly.
    fn exact(&self) -> [u64; 7] {
        [
            self.candidates as u64,
            self.crops as u64,
            self.trials as u64,
            self.regions as u64,
            self.tiles,
            self.mc_samples,
            self.gemm_calls,
        ]
    }
}
