//! `fleet` and `camera`: the resident `ElService` driven by eight streams
//! surveying one shared scene.
//!
//! `fleet` is a closed loop (each round submits one frame per stream, then
//! ticks once) with the fleet risk map screening candidates. `camera` is
//! an open loop: every stream's camera emits frames on a fixed schedule
//! from its own thread, and the service admits them under the production
//! measured-cost admission control.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use el_core::{propose_zones, screen_candidates, ElPipeline, PipelineConfig, RiskConfig};
use el_geom::{Point, Rect};
use el_metrics::Fingerprint;
use el_nn::Workspace;
use el_riskmap::RiskMapConfig;
use el_scene::{Conditions, Scene, SceneParams};
use el_seg::{segment_ws, MsdNet};
use el_serve::{
    AdmissionConfig, AuditPrecision, ElService, FrameOutcome, FrameRequest, RiskSettings,
    ServeConfig, SessionId, StreamFrames, TickClock,
};
use el_uavsim::{fleet_scene_seed, stream_seeds};

use crate::common::{self, Report};
use crate::frame;

/// Concurrent streams.
const STREAMS: usize = 8;

/// Side of every stream's camera frame, pixels (`SceneParams::default_urban`).
const FRAME_PX: i64 = 256;

/// Rounds per `fleet` epoch. Every epoch starts a fresh service with a
/// cold risk map, so each epoch's fingerprints repeat exactly.
const ROUNDS: usize = 4;

/// Total camera rate of the `camera` workload, frames per second. The
/// staggered cameras rarely let a tick batch more than one frame, and a
/// one-frame tick takes about 190 ms on the 2-core reference host, so
/// this loads the service to about half — two thirds when the shared
/// host runs a third slower, which it often does. Nearer saturation the
/// queue, and with it every latency, swings with the host's speed from
/// run to run. Fixed, so that a faster program faces the same load.
const CAMERA_RATE_FPS: f64 = 2.5;

/// Risk-map screening thresholds for `fleet`. Within an epoch the map
/// warms from cold; at these thresholds about a quarter of the candidates
/// are vetoed and a quarter deprioritised, and every tick keeps some.
const RISK: RiskConfig = RiskConfig {
    deprioritize_heat: 0.04,
    veto_heat: 0.08,
};

/// The shared map: 8 px cells over the whole ground scene.
fn risk_settings() -> RiskSettings {
    RiskSettings {
        map: RiskMapConfig {
            width_cells: GROUND_PX / 8,
            height_cells: GROUND_PX / 8,
            cell_px: 8,
            half_life_ticks: 8.0,
            sweep_interval_ticks: 16,
            min_heat: 1e-9,
        },
        policy: RISK,
    }
}

fn serve_config(camera: bool) -> ServeConfig {
    ServeConfig {
        pipeline: frame::config(),
        admission: if camera {
            AdmissionConfig::measured(STREAMS as f64 / CAMERA_RATE_FPS)
        } else {
            AdmissionConfig::unlimited()
        },
        drift: None,
        audit_clock: TickClock::Zero,
        max_inbox: 4,
        riskmap: if camera { None } else { Some(risk_settings()) },
        precision: AuditPrecision::exact(),
    }
}

/// Side of the shared ground scene, pixels; each stream surveys a
/// 256x256 window of it.
const GROUND_PX: usize = 512;

/// Where each stream's camera window sits on the shared ground: a ring of
/// overlapping windows, so candidates near the centre collect heat from
/// more streams than those near the edge.
const ORIGINS: [(i64, i64); STREAMS] = [
    (0, 0),
    (128, 0),
    (256, 0),
    (256, 128),
    (256, 256),
    (128, 256),
    (0, 256),
    (0, 128),
];

/// Set-up: shared weights and every stream's pre-rendered frames.
fn setup(set: u64) -> (Arc<MsdNet>, Vec<StreamFrames>) {
    (Arc::new(common::load_model()), render_streams(set))
}

/// Every stream's frames: round `r` renders the shared scene once and
/// crops each stream's window.
fn render_streams(set: u64) -> Vec<StreamFrames> {
    let base = common::derive(set, 0, 0xF1EE_7000);
    let params = SceneParams {
        width: GROUND_PX,
        height: GROUND_PX,
        ..SceneParams::default_urban()
    };
    let scene = Scene::generate(&params, fleet_scene_seed(base));
    let mut streams: Vec<StreamFrames> = (0..STREAMS)
        .map(|s| StreamFrames {
            frame_chain: stream_seeds(base, s).0,
            frames: Vec::with_capacity(ROUNDS),
        })
        .collect();
    for round in 0..ROUNDS {
        let ground = scene.render(
            &Conditions::nominal(),
            common::derive(base, round as u64, 0x6E0D),
        );
        for (stream, &(x, y)) in streams.iter_mut().zip(&ORIGINS) {
            let window = Rect::new(x, y, FRAME_PX, FRAME_PX);
            stream.frames.push(FrameRequest {
                image: ground
                    .crop(window)
                    .expect("window lies on the ground scene"),
                wind_mps: 0.0,
            });
        }
    }
    streams
}

/// Opens one session per stream at its mount point.
fn open_sessions(service: &mut ElService, streams: &[StreamFrames]) -> Vec<SessionId> {
    streams
        .iter()
        .zip(&ORIGINS)
        .map(|(s, &(x, y))| service.open_session_at(s.frame_chain, Point::new(x, y)))
        .collect()
}

/// What one `fleet` epoch observed.
#[derive(Default)]
struct Epoch {
    /// Per-stream `decision_fp`, `audit_fp`, then the map fingerprint.
    fps: Vec<String>,
    decision_ms: Vec<f64>,
    tick_ms: Vec<f64>,
    loop_s: f64,
    frames: usize,
    trials: usize,
    crops: Vec<usize>,
    vetoes: usize,
    deprioritized: usize,
    regions: u64,
    /// Shadow replay of segmentation, proposal and screening (traced).
    shadow: Shadow,
}

#[derive(Default, Clone, Copy)]
struct Shadow {
    segment_ms: f64,
    propose_ms: f64,
    screen_us: f64,
    frames: usize,
    proposed: usize,
    vetoed: usize,
    deprioritized: usize,
}

/// Times segmentation, proposal and risk screening of one round's frames
/// against the service's current map — the state the coming tick screens
/// against.
fn shadow_round(
    service: &ElService,
    ids: &[SessionId],
    requests: &[FrameRequest],
    ws: &mut Workspace,
    acc: &mut Shadow,
) {
    let net = service.net();
    let zone = &service.config().pipeline.zone;
    let map = service.riskmap().expect("fleet runs a risk map");
    for (id, r) in ids.iter().zip(requests) {
        let origin = service
            .session(*id)
            .expect("session is open")
            .geo_origin_px();
        let t0 = Instant::now();
        let core = segment_ws(net, &r.image, ws);
        let t1 = Instant::now();
        let proposed = propose_zones(&core.labels, zone);
        let t2 = Instant::now();
        acc.proposed += proposed.len();
        let screen = screen_candidates(proposed, &RISK, |rect| {
            map.max_heat_px(rect.translate(origin))
        });
        let t3 = Instant::now();
        acc.segment_ms += (t1 - t0).as_secs_f64() * 1e3;
        acc.propose_ms += (t2 - t1).as_secs_f64() * 1e3;
        acc.screen_us += (t3 - t2).as_secs_f64() * 1e6;
        acc.frames += 1;
        acc.vetoed += screen.vetoed;
        acc.deprioritized += screen.deprioritized;
    }
}

fn run_epoch(net: &Arc<MsdNet>, streams: &[StreamFrames], shadow: bool) -> Epoch {
    let mut service =
        ElService::try_new(Arc::clone(net), serve_config(false)).expect("fleet config is valid");
    let ids = open_sessions(&mut service, streams);
    let mut ep = Epoch::default();
    let mut ws = Workspace::new();
    let mut seen = [0usize; STREAMS];
    let start = Instant::now();
    let mut shadow_s = 0.0;
    for round in 0..ROUNDS {
        let requests: Vec<FrameRequest> = streams.iter().map(|s| s.frames[round].clone()).collect();
        if shadow {
            let t = Instant::now();
            shadow_round(&service, &ids, &requests, &mut ws, &mut ep.shadow);
            shadow_s += t.elapsed().as_secs_f64();
        }
        let submitted = Instant::now();
        for (id, request) in ids.iter().zip(requests) {
            let queued = service.submit(*id, request).expect("session is open");
            assert!(queued, "closed-loop submission never overflows an inbox");
        }
        let tick_start = Instant::now();
        let tick = service.tick();
        let done = Instant::now();
        ep.tick_ms.push((done - tick_start).as_secs_f64() * 1e3);
        ep.crops.push(tick.crops);
        ep.vetoes += tick.vetoes;
        ep.deprioritized += tick.deprioritized;
        for (s, id) in ids.iter().enumerate() {
            let log = service.session(*id).expect("session is open").log();
            for record in &log[seen[s]..] {
                if let FrameOutcome::Decided { trials, .. } = &record.outcome {
                    ep.trials += trials.len();
                    ep.decision_ms.push((done - submitted).as_secs_f64() * 1e3);
                    ep.frames += 1;
                }
            }
            seen[s] = log.len();
        }
    }
    ep.loop_s = start.elapsed().as_secs_f64() - shadow_s;
    for id in &ids {
        let session = service.session(*id).expect("session is open");
        ep.fps.push(session.decision_fp());
        ep.fps.push(session.audit_fp());
    }
    let map = service.riskmap().expect("fleet runs a risk map");
    ep.regions = map.ingested();
    ep.fps.push(map.fingerprint().hex());
    ep
}

/// The reference outputs of one input set: one epoch's fingerprints.
pub fn reference(set: u64) -> Vec<String> {
    let (net, streams) = setup(set);
    run_epoch(&net, &streams, false).fps
}

pub fn run_fleet(set: u64, seconds: f64, trace: bool, reference: Option<Vec<String>>) -> Report {
    let mut report = Report::default();
    let ((net, streams), setup_s) = common::timed_setup(3, || setup(set));
    let registry = el_metrics::registry();
    let check_epoch = |report: &mut Report, ep: &Epoch| {
        match &reference {
            Some(want) => report.check(*want == ep.fps, || {
                format!(
                    "fleet fingerprints {:?} differ from the stored reference {want:?}",
                    ep.fps
                )
            }),
            None => report
                .errors
                .push(format!("no stored reference for input set {set}")),
        }
        report.check(ep.crops.iter().all(|&c| c > 0), || {
            format!("health: a tick verified no crop ({:?})", ep.crops)
        });
        report.check(ep.vetoes > 0, || {
            "health: the risk map vetoed nothing".into()
        });
        report.check(ep.regions > 0, || {
            "health: the risk map ingested no region".into()
        });
    };

    // A traced run alternates untraced and traced epochs, so that drift in
    // the host's speed reaches both sides of the overhead comparison.
    let (mut untraced, mut traced): (Vec<Epoch>, Vec<Epoch>) = (Vec::new(), Vec::new());
    // The peak after one epoch: every epoch builds a fresh service, and
    // the allocator's retained memory keeps growing across them, so a
    // later reading depends on the run length.
    let mut peak_rss_mb = None;
    registry.reset();
    let min_epochs = if trace { 2 } else { 1 };
    let t0 = Instant::now();
    let mut n = 0;
    while n < min_epochs || t0.elapsed().as_secs_f64() < seconds {
        let shadowed = trace && n % 2 == 1;
        el_metrics::set_enabled(shadowed);
        let ep = run_epoch(&net, &streams, shadowed);
        el_metrics::set_enabled(false);
        check_epoch(&mut report, &ep);
        peak_rss_mb.get_or_insert_with(common::peak_rss_mb);
        if shadowed {
            let (sh, service) = (
                (ep.shadow.vetoed, ep.shadow.deprioritized),
                (ep.vetoes, ep.deprioritized),
            );
            report.check(sh == service, || {
                format!("shadow screening (vetoed, deprioritised) {sh:?} differs from the service's {service:?}")
            });
            traced.push(ep);
        } else {
            untraced.push(ep);
        }
        n += 1;
    }
    let frames: usize = untraced.iter().map(|e| e.frames).sum();
    report.attempted = (untraced.len() * ROUNDS * STREAMS) as u64;
    report.failed = report.attempted - frames as u64;
    let tick_ms: Vec<f64> = untraced.iter().flat_map(|e| e.tick_ms.clone()).collect();
    if !trace {
        let decision_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|e| e.decision_ms.clone())
            .collect();
        let loop_s: f64 = untraced.iter().map(|e| e.loop_s).sum();
        report.latency("decision_ms", &decision_ms);
        report.metric("throughput_per_s", frames as f64 / loop_s, "1/s");
        report.metric(
            "served_share",
            frames as f64 / report.attempted as f64,
            "share",
        );
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb.expect("one epoch ran"), "MB");
        return report;
    }

    let frames = traced.iter().map(|e| e.frames).sum::<usize>() as f64;
    registry_layers(&mut report, &registry.snapshot(), frames);
    // Counts from the first traced epoch: every epoch repeats them exactly.
    let ep = &traced[0];
    let sh = ep.shadow;
    let per_frame = |v: f64| v / sh.frames as f64;
    let crops = ep.crops.iter().sum::<usize>() as f64;
    report.metric("seg.segment_ms", per_frame(sh.segment_ms), "ms");
    report.metric("core.propose_ms", per_frame(sh.propose_ms), "ms");
    report.metric("core.screen_us", per_frame(sh.screen_us), "us");
    report.metric("core.candidates", per_frame(sh.proposed as f64), "count");
    report.metric("monitor.crops", per_frame(crops), "count");
    report.metric(
        "monitor.useful_crop_share",
        ep.trials as f64 / crops,
        "share",
    );
    report.metric("audit.regions", per_frame(ep.regions as f64), "count");
    report.metric(
        "riskmap.regions",
        ep.regions as f64 / ROUNDS as f64,
        "count",
    );
    let proposed = sh.proposed.max(1) as f64;
    report.metric("riskmap.veto_share", sh.vetoed as f64 / proposed, "share");
    report.metric(
        "riskmap.deprioritized_share",
        sh.deprioritized as f64 / proposed,
        "share",
    );
    let t = Instant::now();
    std::hint::black_box(render_streams(set));
    report.metric(
        "scene.render_ms",
        per_frame(t.elapsed().as_secs_f64() * 1e3),
        "ms",
    );
    let traced_tick_ms: Vec<f64> = traced.iter().flat_map(|e| e.tick_ms.clone()).collect();
    let untraced_p50 = common::median(&tick_ms);
    report.metric(
        "trace.overhead_share",
        common::median(&traced_tick_ms) / untraced_p50 - 1.0,
        "share",
    );
    report.metric("trace.samples", traced_tick_ms.len() as f64, "count");
    report
}

/// The layers the service's own metrics registry times: per call for
/// times, per decided frame for counts.
fn registry_layers(report: &mut Report, snap: &el_metrics::MetricsSnapshot, frames: f64) {
    let per_call = |h: &el_metrics::HistogramSnapshot, scale: f64| {
        h.sum_ns as f64 / scale / h.count.max(1) as f64
    };
    let m = &snap.monitor;
    report.metric("monitor.verify_ms", per_call(&m.verify_batch, 1e6), "ms");
    report.metric("monitor.mc_samples", m.samples_run as f64 / frames, "count");
    report.metric(
        "monitor.sample_fold_ms",
        m.sample_fold.sum_ns as f64 / 1e6 / frames,
        "ms",
    );
    report.metric("kernels.gemm_ms", m.gemm.sum_ns as f64 / 1e6 / frames, "ms");
    report.metric("kernels.gemm_calls", m.gemm.count as f64 / frames, "count");
    report.metric("audit.tiles", snap.audit.verified as f64 / frames, "count");
    report.metric(
        "audit.ms_per_tile",
        per_call(&snap.audit.tile_cost, 1e6),
        "ms",
    );
    report.metric("serve.tick_ms", per_call(&snap.serve.tick, 1e6), "ms");
    report.metric(
        "serve.batch_crops",
        per_call(&snap.serve.batch_crops, 1.0),
        "count",
    );
    report.metric(
        "serve.inbox_depth",
        per_call(&snap.serve.queue_depth, 1.0),
        "count",
    );
    if snap.riskmap.ingest.count > 0 {
        report.metric(
            "riskmap.ingest_us",
            per_call(&snap.riskmap.ingest, 1e3),
            "us",
        );
    }
}

/// One frame the camera emitted.
struct Arrival {
    stream: usize,
    due: Instant,
    sent: Instant,
}

/// The service side of the camera loop: what was submitted and when it
/// was due.
struct Submissions {
    due_at: Vec<Vec<Instant>>,
    offered: usize,
    refused_inbox: usize,
    late_ms_max: f64,
}

impl Default for Submissions {
    fn default() -> Self {
        Submissions {
            due_at: vec![Vec::new(); STREAMS],
            offered: 0,
            refused_inbox: 0,
            late_ms_max: 0.0,
        }
    }
}

impl Submissions {
    fn submit(
        &mut self,
        a: Arrival,
        service: &mut ElService,
        ids: &[SessionId],
        streams: &[StreamFrames],
    ) {
        self.late_ms_max = self.late_ms_max.max((a.sent - a.due).as_secs_f64() * 1e3);
        let frame = self.due_at[a.stream].len();
        self.due_at[a.stream].push(a.due);
        self.offered += 1;
        let request = streams[a.stream].frames[frame % ROUNDS].clone();
        if !service
            .submit(ids[a.stream], request)
            .expect("session is open")
        {
            self.refused_inbox += 1;
        }
    }
}

/// A decided camera frame, kept for the solo-pipeline check.
struct Decided {
    stream: usize,
    frame: usize,
    seed: u64,
    fp: String,
}

pub fn run_camera(set: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let ((net, streams), setup_s) = common::timed_setup(3, || setup(set));
    let mut service =
        ElService::try_new(Arc::clone(&net), serve_config(true)).expect("camera config is valid");
    let ids = open_sessions(&mut service, &streams);
    let registry = el_metrics::registry();
    if trace {
        registry.reset();
        el_metrics::set_enabled(true);
    }

    let period = Duration::from_secs_f64(1.0 / CAMERA_RATE_FPS);
    let (tx, rx) = mpsc::channel::<Arrival>();
    let start = Instant::now() + Duration::from_millis(20);
    let stop_offering = start + Duration::from_secs_f64(seconds);
    let mut gen = Submissions::default();
    let mut seen = [0usize; STREAMS];
    let (mut decision_ms, mut wait_ms) = (Vec::new(), Vec::new());
    let mut decided: Vec<Decided> = Vec::new();
    let mut last_done = start;

    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut j = 0u32;
            loop {
                let due = start + period * j;
                if due >= stop_offering {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let arrival = Arrival {
                    stream: j as usize % STREAMS,
                    due,
                    sent: Instant::now(),
                };
                if tx.send(arrival).is_err() {
                    break;
                }
                j += 1;
            }
        });

        let mut open = true;
        loop {
            loop {
                match rx.try_recv() {
                    Ok(a) => gen.submit(a, &mut service, &ids, &streams),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            if service.pending() == 0 {
                if !open {
                    break;
                }
                match rx.recv() {
                    Ok(a) => gen.submit(a, &mut service, &ids, &streams),
                    Err(_) => open = false,
                }
                continue;
            }
            let tick_start = Instant::now();
            service.tick();
            let done = Instant::now();
            last_done = done;
            for (s, id) in ids.iter().enumerate() {
                let log = service.session(*id).expect("session is open").log();
                for record in &log[seen[s]..] {
                    let due = gen.due_at[s][record.frame];
                    if let FrameOutcome::Decided { decision, trials } = &record.outcome {
                        decision_ms.push((done - due).as_secs_f64() * 1e3);
                        wait_ms.push(tick_start.saturating_duration_since(due).as_secs_f64() * 1e3);
                        let mut fp = Fingerprint::new();
                        common::decision_fp(&mut fp, decision, trials);
                        decided.push(Decided {
                            stream: s,
                            frame: record.frame,
                            seed: record.seed,
                            fp: fp.hex(),
                        });
                    }
                }
                seen[s] = log.len();
            }
        }
    });
    el_metrics::set_enabled(false);
    // Every refusal is logged; those not caused by a full inbox were
    // admission's.
    let refused: usize = ids
        .iter()
        .map(|id| {
            let log = service.session(*id).expect("session is open").log();
            log.iter()
                .filter(|r| r.outcome == FrameOutcome::Refused)
                .count()
        })
        .sum();
    let Submissions {
        offered,
        refused_inbox,
        late_ms_max,
        ..
    } = gen;
    let refused_admission = refused - refused_inbox;

    // Correctness: every decision equals the solo pipeline's for the same
    // frame and seed (the audit never changes a decision, so the solo run
    // skips it).
    let mut solo = ElPipeline::try_new((*net).clone(), PipelineConfig::benchmark())
        .expect("benchmark config is valid");
    for d in &decided {
        let out = solo.run(&streams[d.stream].frames[d.frame % ROUNDS].image, d.seed);
        let mut fp = Fingerprint::new();
        common::decision_fp(&mut fp, &out.decision, &out.trials);
        report.check(fp.hex() == d.fp, || {
            format!(
                "stream {} frame {}: service decision {} differs from solo {}",
                d.stream,
                d.frame,
                d.fp,
                fp.hex()
            )
        });
    }
    let period_ms = STREAMS as f64 / CAMERA_RATE_FPS * 1e3;
    report.check(late_ms_max < period_ms, || {
        format!(
            "health: the camera ran {late_ms_max:.1} ms late, beyond one period ({period_ms} ms)"
        )
    });
    report.check(!decided.is_empty(), || "no frame was decided".into());

    report.attempted = offered as u64;
    report.failed = refused as u64;
    report.note("camera", format!(
        "{offered} offered at {CAMERA_RATE_FPS} frames/s, {} decided, {refused_admission} refused by admission, {refused_inbox} by a full inbox",
        decided.len()
    ));
    if trace {
        registry_layers(&mut report, &registry.snapshot(), decided.len() as f64);
        report.metric("serve.queue_wait_ms", common::median(&wait_ms), "ms");
        report.metric("serve.refused_admission", refused_admission as f64, "count");
        report.metric("serve.refused_inbox", refused_inbox as f64, "count");
        report.metric("loadgen.late_ms_max", late_ms_max, "ms");
        report.metric("trace.samples", decision_ms.len() as f64, "count");
    } else {
        let wall_s = (last_done - start).as_secs_f64();
        report.latency("decision_ms", &decision_ms);
        report.metric("throughput_per_s", decided.len() as f64 / wall_s, "1/s");
        report.metric(
            "served_share",
            decided.len() as f64 / offered.max(1) as f64,
            "share",
        );
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    }
    report
}
