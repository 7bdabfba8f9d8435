//! One end-to-end benchmark for the emergency-landing loop.
//!
//! ```text
//! elbench --workload <frame|fleet|camera|campaign> --seed <n> --seconds <s> --trace <0|1>
//! elbench --write-model        # retrain the committed weights (model.json)
//! elbench --write-reference [workload...]   # recompute reference.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end metrics; with `--trace 1` the per-layer
//! metrics of a separate traced run. Any correctness-gate or health-guard
//! failure exits with code 1.

mod campaign;
mod common;
mod fleet;
mod frame;

use std::collections::BTreeMap;
use std::process::ExitCode;

use el_scene::{Dataset, DatasetConfig};
use el_seg::{MsdNet, MsdNetConfig, TrainConfig, Trainer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

use common::{Report, INPUT_SETS};

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [&str; 5] = [
    "decision_ms_tail",
    "throughput_per_s",
    "served_share",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by every traced run; a layer the workload
/// never calls reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("seg.segment_ms", "ms"),
    ("core.propose_ms", "ms"),
    ("core.candidates", "count"),
    ("core.screen_us", "us"),
    ("core.decide_us", "us"),
    ("monitor.crop_ms", "ms"),
    ("monitor.verify_ms", "ms"),
    ("monitor.crops", "count"),
    ("monitor.mc_samples", "count"),
    ("monitor.useful_crop_share", "share"),
    ("monitor.sample_fold_ms", "ms"),
    ("audit.sweep_ms", "ms"),
    ("audit.tiles", "count"),
    ("audit.ms_per_tile", "ms"),
    ("audit.regions", "count"),
    ("kernels.gemm_ms", "ms"),
    ("kernels.gemm_calls", "count"),
    ("riskmap.ingest_us", "us"),
    ("riskmap.regions", "count"),
    ("riskmap.veto_share", "share"),
    ("riskmap.deprioritized_share", "share"),
    ("serve.tick_ms", "ms"),
    ("serve.batch_crops", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.inbox_depth", "count"),
    ("serve.refused_admission", "count"),
    ("serve.refused_inbox", "count"),
    ("scene.render_ms", "ms"),
    ("uavsim.mission_us", "us"),
    ("uavsim.missions", "count"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.closure_share", "share"),
    ("frame.run_ms_p50", "ms"),
    ("frame.run_ms_tail", "ms"),
    ("trace.samples", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Trains the benchmark model exactly as `el_bench::trained_model` does
/// and writes its weights to `model.json`.
fn write_model() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = MsdNet::new(&MsdNetConfig::default_uavid(), &mut rng);
    let dataset = Dataset::generate(&DatasetConfig::benchmark(1));
    Trainer::new(TrainConfig::benchmark()).train(&mut net, &dataset);
    std::fs::write(common::MODEL_PATH, net.to_json()).expect("write model.json");
}

/// The stored reference: workload -> input set -> fingerprints.
type Reference = BTreeMap<String, BTreeMap<u64, Vec<String>>>;

fn read_reference() -> Result<Reference, String> {
    let text = std::fs::read_to_string(common::REFERENCE_PATH)
        .map_err(|e| format!("cannot read {}: {e}", common::REFERENCE_PATH))?;
    let value = serde_json::parse_value(&text).map_err(|e| format!("malformed reference: {e}"))?;
    let mut out = Reference::new();
    let Value::Map(workloads) = value else {
        return Err("reference is not an object".into());
    };
    for (workload, sets) in workloads {
        let Value::Map(sets) = sets else {
            return Err(format!("reference.{workload} is not an object"));
        };
        let entry = out.entry(workload.clone()).or_default();
        for (set, fps) in sets {
            let set: u64 = set
                .parse()
                .map_err(|_| format!("reference.{workload}: bad set {set}"))?;
            let Value::Seq(fps) = fps else {
                return Err(format!("reference.{workload}.{set} is not a list"));
            };
            let fps = fps
                .into_iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(s),
                    _ => Err(format!("reference.{workload}.{set}: not a string")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            entry.insert(set, fps);
        }
    }
    Ok(out)
}

/// Recomputes the stored fingerprints of every input set, for every
/// workload or only those named in `only`; the others keep their stored
/// entries.
fn write_reference(only: &[String]) -> Result<(), String> {
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let mut stored = read_reference().unwrap_or_default();
    type Compute = fn(u64) -> Vec<String>;
    let workloads: [(&str, Compute); 2] =
        [("frame", frame::reference), ("fleet", fleet::reference)];
    stored.retain(|name, _| workloads.iter().any(|(w, _)| w == name));
    for (name, compute) in workloads {
        if !only.is_empty() && !only.iter().any(|o| o == name) {
            continue;
        }
        let sets = stored.entry(name.to_string()).or_default();
        for set in 0..INPUT_SETS {
            let fps = compute(set);
            eprintln!("[elbench] reference {name} set {set}: {fps:?}");
            sets.insert(set, fps);
        }
    }
    let workloads: Vec<String> = stored
        .iter()
        .map(|(name, sets)| {
            let sets: Vec<String> = sets
                .iter()
                .map(|(set, fps)| {
                    let fps: Vec<String> = fps.iter().map(|f| format!("\"{f}\"")).collect();
                    format!("    \"{set}\": [{}]", fps.join(", "))
                })
                .collect();
            format!("  \"{name}\": {{\n{}\n  }}", sets.join(",\n"))
        })
        .collect();
    let text = format!("{{\n{}\n}}\n", workloads.join(",\n"));
    std::fs::write(common::REFERENCE_PATH, text)
        .map_err(|e| format!("cannot write {}: {e}", common::REFERENCE_PATH))
}

/// Worker threads each workload runs with.
fn threads_for(workload: &str) -> usize {
    if workload == "frame" {
        1
    } else {
        2
    }
}

/// Host description printed with every result.
fn host_notes(report: &mut Report, workload: &str) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernels = match el_kernels::KernelPolicy::exact().resolve() {
        Ok(k) => format!("{:?} / {}", k.tier(), k.contract()),
        Err(e) => format!("unresolved ({e})"),
    };
    // Only a git checkout of this repository knows its commit; a plain
    // copy must not report the commit of whatever repository encloses it.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = std::path::Path::new(root)
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["-C", root, "rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    report.note("host.cpu", cpu);
    report.note("host.nproc", nproc);
    report.note("host.kernels", kernels);
    report.note("host.worker_threads", threads_for(workload));
    report.note("host.commit", commit);
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-model") {
        write_model();
        return ExitCode::SUCCESS;
    }
    if argv.first().is_some_and(|a| a == "--write-reference") {
        return match write_reference(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("elbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("elbench: {e}");
            return ExitCode::from(2);
        }
    };
    let reference = match read_reference() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("elbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The vendored rayon reads this on every parallel call.
    std::env::set_var("RAYON_NUM_THREADS", threads_for(&args.workload).to_string());
    let set = args.seed % INPUT_SETS;
    let stored = |w: &str| reference.get(w).and_then(|m| m.get(&set)).cloned();
    let mut report = match args.workload.as_str() {
        "frame" => frame::run(set, args.seconds, args.trace, stored("frame")),
        "fleet" => fleet::run_fleet(set, args.seconds, args.trace, stored("fleet")),
        "camera" => fleet::run_camera(set, args.seconds, args.trace),
        "campaign" => campaign::run(set, args.seconds, args.trace),
        other => {
            eprintln!("elbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    host_notes(&mut report, &args.workload);
    report.note("input_set", set);

    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|n| (*n, "")).collect()
    };
    let mut fields = Vec::new();
    for (name, default_unit) in names {
        let found = report.metrics.iter().find(|(n, _, _)| n == name);
        let (value, unit) = match found {
            Some((_, v, u)) => (*v, *u),
            None if args.trace => (0.0, default_unit),
            None => {
                report
                    .errors
                    .push(format!("end-to-end metric {name} was not measured"));
                continue;
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for (key, value) in &report.notes {
        println!("# {key}: {value}");
    }
    for e in &report.errors {
        eprintln!("elbench: FAILED: {e}");
    }
    let correct = report.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
