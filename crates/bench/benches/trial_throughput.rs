//! Monte Carlo trial throughput on the paper-regime point: gate error rate
//! 1e-4, ECiM with a shortened Hamming(71, 64) code, 256×256 STT-MRAM
//! array, MAC(8×4) workload.
//!
//! Two series are measured:
//!
//! * `sliced` — the engine's execution path: 64 trials per `u64` lane on
//!   the transposed bit-sliced array, lane-masked skip-sampled faults.
//! * `scalar` — the scalar reference oracle: bit-packed array reset in
//!   place, per-thread [`TrialArena`] buffers, skip-sampled fault
//!   injection, allocation-free executor scratch.
//!
//! A third series measures the rare-event stratified estimator at a gate
//! rate of 1e-5 on the same point:
//!
//! * `estimator` — conditioned trials (every trial guaranteed ≥ 1 fault in
//!   the decision window) whose *effective* throughput is the raw
//!   conditioned rate divided by `P1 = P(≥1 fault)`, compared against
//!   `exact_rare` — the historical full-simulation path (analytic
//!   zero-fault fast path disabled) at the same rate.
//!
//! A fourth series, `accuracy`, prices the inference-accuracy campaign
//! kind end to end (prepare + trials): DetectRecompute on the ReRAM
//! crossbar with stuck-at defects, where each trial is a full reduced-MLP
//! inference (eight neuron rows) instead of one kernel run.
//!
//! Besides the criterion-style console lines, the bench rewrites
//! `BENCH_trials.json` at the repo root (override with `NVPIM_BENCH_OUT`)
//! with absolute trials/sec for all series, so the perf trajectory
//! is tracked *in-repo* — the committed file is the previous baseline and
//! CI uploads the fresh one as an artifact. Set `NVPIM_BENCH_QUICK=1` to
//! cut sample counts for smoke runs (the file's `mode` field reads `quick`
//! or `full`, so runs of different sizes are never compared blind), and `NVPIM_BENCH_GUARD=1` to turn
//! the run into a perf gate: the process exits non-zero when the sliced
//! path drops below `NVPIM_BENCH_MIN_RATIO`× the scalar oracle
//! (default 2.0 — conservative against CI noise; the measured ratio is
//! far higher), below the absolute `NVPIM_BENCH_FLOOR_TPS` floor
//! (default 50000 trials/s), or when the estimator's effective gain over
//! the full-simulation reference drops below
//! `NVPIM_BENCH_MIN_ESTIMATOR_GAIN` (default 5.0). Guard mode also runs a
//! statistical estimator-vs-exact cross-check: the reweighted conditioned
//! failure rate must agree with a plain Monte Carlo estimate within 5σ.

use std::time::Instant;

use criterion::{black_box, Criterion};
use nvpim_sim::technology::Technology;
use nvpim_sweep::{
    run_campaign, CampaignKind, EstimatorMode, Phase, ProtectionConfig, SweepPlan, SweepWorkload,
    Telemetry, TrialArena, TrialHarness,
};
use nvpim_workloads::Benchmark;

const GATE_ERROR_RATE: f64 = 1e-4;
/// The rare-event regime the stratified estimator is priced at.
const RARE_GATE_ERROR_RATE: f64 = 1e-5;
const CAMPAIGN_SEED: u64 = 0x7147_0000;
const LANES: u64 = 64;

fn quick_mode() -> bool {
    std::env::var("NVPIM_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The paper-regime point: ECiM/m-o on STT-MRAM with Hamming(71, 64).
fn paper_regime_harness() -> TrialHarness {
    harness_at(ProtectionConfig::ECIM, GATE_ERROR_RATE)
}

fn harness_at(protection: ProtectionConfig, gate_error_rate: f64) -> TrialHarness {
    let config = protection
        .design_config(Technology::SttMram)
        .with_hamming_data_bits(64);
    TrialHarness::new(
        SweepWorkload::Mac {
            acc_bits: 8,
            mul_bits: 4,
        },
        protection,
        config,
        gate_error_rate,
    )
    .expect("bench point compiles")
}

/// Wall-clock trials/sec of `f` called `calls` times, each call covering
/// `trials_per_call` trials.
fn measure(calls: u64, trials_per_call: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for c in 0..calls {
        f(c);
    }
    (calls * trials_per_call) as f64 / start.elapsed().as_secs_f64()
}

fn bench_trial_throughput(c: &mut Criterion) {
    let harness = paper_regime_harness();
    let mut group = c.benchmark_group("trial_throughput");

    group.bench_function("sliced_64_lane_batch", |b| {
        let mut arena = TrialArena::new();
        let mut batch = 0u64;
        b.iter(|| {
            batch += 1;
            black_box(harness.run_trial_batch(CAMPAIGN_SEED, batch * LANES, 64, &mut arena))
        });
    });

    group.bench_function("scalar_packed_arena_skip", |b| {
        let mut arena = TrialArena::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(harness.run_trial(CAMPAIGN_SEED, t, &mut arena))
        });
    });

    group.finish();
}

struct Series {
    trials: u64,
    trials_per_sec: f64,
}

/// Renders the telemetry snapshot's per-phase breakdown as a JSON object
/// (`{"<phase>": {"spans": N, "total_ns": N}, ...}`, all ten phases in
/// taxonomy order).
fn phases_json(snap: &nvpim_sweep::TelemetrySnapshot) -> String {
    let mut out = String::from("{\n");
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{ \"spans\": {}, \"total_ns\": {} }}{}\n",
            phase.name(),
            snap.phase_count(phase),
            snap.phase_nanos(phase),
            if i + 1 == Phase::ALL.len() { "" } else { "," }
        ));
    }
    out.push_str("  }");
    out
}

/// Measures every series with enough trials for stable ratios, writes
/// `BENCH_trials.json`, and (in guard mode) enforces the perf floor.
fn emit_json_and_guard() {
    let harness = paper_regime_harness();
    let (sliced_batches, scalar_trials) = if quick_mode() {
        (60u64, 1_000u64)
    } else {
        (600u64, 8_000u64)
    };

    // The measured arena carries a telemetry sink, so the emitted JSON can
    // break the run down by pipeline phase. Spans cost two monotonic clock
    // reads against multi-microsecond trials; the guard thresholds below
    // hold with instrumentation on, which is itself the overhead gate.
    let telemetry = Telemetry::new();
    let mut arena = TrialArena::with_telemetry(&telemetry);
    for t in 0..64 {
        harness.run_trial(CAMPAIGN_SEED, t, &mut arena);
    }
    harness.run_trial_batch(CAMPAIGN_SEED, 0, 64, &mut arena);

    let sliced = Series {
        trials: sliced_batches * LANES,
        trials_per_sec: measure(sliced_batches, LANES, |b| {
            black_box(harness.run_trial_batch(CAMPAIGN_SEED, b * LANES, 64, &mut arena));
        }),
    };
    let scalar = Series {
        trials: scalar_trials,
        trials_per_sec: measure(scalar_trials, 1, |t| {
            black_box(harness.run_trial(CAMPAIGN_SEED, t, &mut arena));
        }),
    };

    // Rare-event estimator series: at a gate rate of 1e-5, conditioned
    // trials (each guaranteed ≥ 1 fault) each stand for 1/P1 plain trials;
    // the fair baseline is the historical full-simulation path with the
    // analytic zero-fault fast path disabled.
    let exact_rare =
        harness_at(ProtectionConfig::ECIM, RARE_GATE_ERROR_RATE).without_analytic_fast_path();
    let conditioned =
        harness_at(ProtectionConfig::ECIM, RARE_GATE_ERROR_RATE).with_stratified_estimator();
    let p1 = conditioned.fault_probability();
    let (exact_rare_trials, conditioned_trials) = if quick_mode() {
        (400u64, 400u64)
    } else {
        (4_000u64, 4_000u64)
    };
    exact_rare.run_trial(CAMPAIGN_SEED, 0, &mut arena);
    conditioned.run_trial(CAMPAIGN_SEED, 0, &mut arena);
    let exact_rare_tps = measure(exact_rare_trials, 1, |t| {
        black_box(exact_rare.run_trial(CAMPAIGN_SEED, t, &mut arena));
    });
    let conditioned_tps = measure(conditioned_trials, 1, |t| {
        black_box(conditioned.run_trial(CAMPAIGN_SEED, t, &mut arena));
    });
    let effective_tps = conditioned_tps / p1;
    let estimator_gain = effective_tps / exact_rare_tps;

    // Accuracy-campaign series: the inference-accuracy kind on the ReRAM
    // crossbar with stuck-at defects, priced as a whole campaign (model
    // generation, netlist compilation, baseline capture, trials) since
    // that is the unit users run. Each trial is a full reduced-MLP
    // inference: eight neuron-row kernel runs plus periphery classify.
    let accuracy_seeds: u64 = if quick_mode() { 64 } else { 256 };
    let accuracy_plan = SweepPlan {
        workloads: vec![SweepWorkload::Benchmark(Benchmark::Mnist {
            weight_bits: 1,
        })],
        technologies: vec![Technology::ReramCrossbar],
        protections: vec![ProtectionConfig::DETECT_RECOMPUTE],
        gate_error_rates: vec![1e-3],
        seeds_per_point: accuracy_seeds,
        campaign_seed: CAMPAIGN_SEED,
        estimator: EstimatorMode::Exact,
        kind: CampaignKind::Accuracy,
        stuck_at_rate: 1e-4,
    };
    let accuracy_start = Instant::now();
    let accuracy_report = run_campaign(&accuracy_plan).expect("accuracy campaign runs");
    let accuracy_tps = accuracy_seeds as f64 / accuracy_start.elapsed().as_secs_f64();
    let measured_accuracy = accuracy_report.points[0]
        .accuracy
        .as_ref()
        .expect("accuracy summary present")
        .accuracy;

    arena.flush_telemetry();
    let phase_breakdown = phases_json(&telemetry.snapshot());

    let out_path = std::env::var("NVPIM_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_trials.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"trial_throughput\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"point\": {{\n",
            "    \"workload\": \"mac8x4\",\n",
            "    \"protection\": \"ECiM/m-o\",\n",
            "    \"technology\": \"{tech}\",\n",
            "    \"code\": \"Hamming({n},{k})\",\n",
            "    \"gate_error_rate\": {rate},\n",
            "    \"array\": \"256x256\"\n",
            "  }},\n",
            "  \"series\": {{\n",
            "    \"sliced\": {{ \"trials\": {st}, \"trials_per_sec\": {stps:.1} }},\n",
            "    \"scalar\": {{ \"trials\": {ct}, \"trials_per_sec\": {ctps:.1} }},\n",
            "    \"exact_rare\": {{ \"gate_error_rate\": {rrate}, \"trials\": {ert}, ",
            "\"trials_per_sec\": {ertps:.1} }},\n",
            "    \"estimator\": {{ \"gate_error_rate\": {rrate}, \"trials\": {et}, ",
            "\"trials_per_sec\": {etps:.1}, \"fault_probability\": {p1:.6e}, ",
            "\"effective_trials_per_sec\": {efftps:.1} }},\n",
            "    \"accuracy\": {{ \"workload\": \"mnist/wb1\", \"protection\": ",
            "\"detect-recompute/m-o\", \"technology\": \"ReRAM-crossbar\", ",
            "\"gate_error_rate\": 1e-3, \"stuck_at_rate\": 1e-4, \"trials\": {at}, ",
            "\"trials_per_sec\": {atps:.1}, \"top1_accuracy\": {aacc:.4} }}\n",
            "  }},\n",
            "  \"sliced_trials_per_sec\": {stps:.1},\n",
            "  \"scalar_trials_per_sec\": {ctps:.1},\n",
            "  \"speedup_sliced_vs_scalar\": {svc:.2},\n",
            "  \"estimator_effective_gain\": {egain:.2},\n",
            "  \"accuracy_trials_per_sec\": {atps:.1},\n",
            "  \"phases\": {phases},\n",
            "  \"note\": \"sliced = 64-trials-per-u64-lane transposed backend (the engine's ",
            "one execution path); scalar = the per-trial packed-arena reference oracle. ",
            "Both produce identical per-trial outcomes; see docs/performance.md for the ",
            "measured history. ",
            "estimator = stratified rare-event mode at gate rate 1e-5: conditioned ",
            "trials reweighted by P1, effective rate = trials_per_sec / P1, measured ",
            "against exact_rare, the full-simulation path at the same rate with the ",
            "analytic zero-fault fast path disabled. accuracy = the inference-accuracy ",
            "campaign kind, whole-campaign rate (each trial is one reduced-MLP ",
            "inference on the defect-bearing ReRAM crossbar)\"\n",
            "}}\n"
        ),
        mode = if quick_mode() { "quick" } else { "full" },
        tech = harness.config().technology,
        n = harness.executor().code().n(),
        k = harness.executor().code().k(),
        rate = GATE_ERROR_RATE,
        st = sliced.trials,
        ct = scalar.trials,
        stps = sliced.trials_per_sec,
        ctps = scalar.trials_per_sec,
        svc = sliced.trials_per_sec / scalar.trials_per_sec,
        rrate = RARE_GATE_ERROR_RATE,
        ert = exact_rare_trials,
        ertps = exact_rare_tps,
        et = conditioned_trials,
        etps = conditioned_tps,
        p1 = p1,
        efftps = effective_tps,
        egain = estimator_gain,
        at = accuracy_seeds,
        atps = accuracy_tps,
        aacc = measured_accuracy,
        phases = phase_breakdown,
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}\n{json}"),
        Err(err) => eprintln!("could not write {out_path}: {err}"),
    }

    // Perf guard (CI): the sliced path must stay comfortably ahead of the
    // scalar oracle and above an absolute floor. Both thresholds are deliberately
    // conservative — the measured ratio is tens of ×, so tripping this
    // gate means a real regression, not noise.
    if std::env::var("NVPIM_BENCH_GUARD")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        let min_ratio = env_f64("NVPIM_BENCH_MIN_RATIO", 2.0);
        let floor_tps = env_f64("NVPIM_BENCH_FLOOR_TPS", 50_000.0);
        let ratio = sliced.trials_per_sec / scalar.trials_per_sec;
        let mut failed = false;
        if ratio < min_ratio {
            eprintln!(
                "PERF GUARD FAILED: sliced/scalar ratio {ratio:.2} < required {min_ratio:.2}"
            );
            failed = true;
        }
        if sliced.trials_per_sec < floor_tps {
            eprintln!(
                "PERF GUARD FAILED: sliced throughput {:.0} trials/s < floor {floor_tps:.0}",
                sliced.trials_per_sec
            );
            failed = true;
        }
        let min_gain = env_f64("NVPIM_BENCH_MIN_ESTIMATOR_GAIN", 5.0);
        if estimator_gain < min_gain {
            eprintln!(
                "PERF GUARD FAILED: estimator effective gain {estimator_gain:.2} < required \
                 {min_gain:.2} (conditioned {conditioned_tps:.0} trials/s / P1 {p1:.3e} vs \
                 full-sim {exact_rare_tps:.0} trials/s)"
            );
            failed = true;
        }
        // The accuracy campaign runs whole inferences per trial, so its
        // floor is orders of magnitude below the kernel-trial floors. It
        // sits at half the median of ten quick runs (327 trials/s on a
        // 2-vCPU VM): a per-trial recompile, a precompute loss or a
        // recompute that rescans the schedule again trips it.
        let accuracy_floor = env_f64("NVPIM_BENCH_MIN_ACCURACY_TPS", 160.0);
        if accuracy_tps < accuracy_floor {
            eprintln!(
                "PERF GUARD FAILED: accuracy-campaign throughput {accuracy_tps:.1} trials/s \
                 < floor {accuracy_floor:.1}"
            );
            failed = true;
        }
        if !(0.0..=1.0).contains(&measured_accuracy) {
            eprintln!("PERF GUARD FAILED: measured accuracy {measured_accuracy} outside [0, 1]");
            failed = true;
        }
        if let Err(msg) = estimator_cross_check() {
            eprintln!("PERF GUARD FAILED: {msg}");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "perf guard OK: sliced {:.0} trials/s = {ratio:.1}x scalar (floor {floor_tps:.0}, \
             min ratio {min_ratio:.1}); estimator effective gain {estimator_gain:.1}x \
             (min {min_gain:.1}); accuracy campaign {accuracy_tps:.0} trials/s \
             (floor {accuracy_floor:.0}); estimator-vs-exact cross-check within 5 sigma",
            sliced.trials_per_sec
        );
    }
}

/// Statistical estimator-vs-exact cross-check (guard mode only): on the
/// unprotected scheme at gate rate 1e-4 — where output failures are common
/// enough for a plain Monte Carlo estimate to be meaningful — the
/// reweighted conditioned failure rate must agree with the exact-mode
/// failure rate within 5σ of the combined sampling noise.
fn estimator_cross_check() -> Result<(), String> {
    const CROSS_RATE: f64 = 1e-4;
    let (exact_n, conditioned_n) = if quick_mode() {
        (2_000u64, 500u64)
    } else {
        (8_000u64, 2_000u64)
    };
    let exact = harness_at(ProtectionConfig::UNPROTECTED, CROSS_RATE);
    let conditioned =
        harness_at(ProtectionConfig::UNPROTECTED, CROSS_RATE).with_stratified_estimator();
    let p1 = conditioned.fault_probability();
    let mut arena = TrialArena::new();
    let mut exact_failures = 0u64;
    for t in 0..exact_n {
        if exact.run_trial(CAMPAIGN_SEED, t, &mut arena).failed() {
            exact_failures += 1;
        }
    }
    let mut conditioned_failures = 0u64;
    for t in 0..conditioned_n {
        // Independent seed stream from the exact side.
        if conditioned
            .run_trial(CAMPAIGN_SEED ^ 1, t, &mut arena)
            .failed()
        {
            conditioned_failures += 1;
        }
    }
    let exact_rate = exact_failures as f64 / exact_n as f64;
    let q = conditioned_failures as f64 / conditioned_n as f64;
    let stratified_rate = p1 * q;
    let variance = exact_rate * (1.0 - exact_rate) / exact_n as f64
        + p1 * p1 * q * (1.0 - q) / conditioned_n as f64;
    let tolerance = 5.0 * variance.sqrt() + 1e-9;
    let diff = (stratified_rate - exact_rate).abs();
    if diff > tolerance {
        return Err(format!(
            "estimator cross-check: stratified rate {stratified_rate:.4e} (P1 {p1:.3e} x q \
             {q:.4}) vs exact rate {exact_rate:.4e} differ by {diff:.3e} > 5 sigma {tolerance:.3e}"
        ));
    }
    Ok(())
}

fn main() {
    let mut criterion = Criterion::default();
    bench_trial_throughput(&mut criterion);
    emit_json_and_guard();
}
