//! The testability layer, measured inside `serve_journal`.
//!
//! The serve job mix holds three testability jobs: the default tier
//! plan (exact enumeration on a small adder), `"mode":"cutting"` and
//! `"mode":"bdd"`. A traced run replays each of them in-process through
//! `DetectionEngine::estimates_from` with a sink that stamps every
//! fault, and re-queries the BDD job's engine at [`REQUERIES`] more
//! vectors (the optimizer's read-only use of the same store). The checks
//! hold the service's answers against the tier the job asked for, Monte
//! Carlo, the certified bounds, and a re-queried engine.

use crate::trace::{Busy, Trace};
use crate::{ns_to_ms, proc_status_mib, splitmix, unit_range, Report};
use dynmos_netlist::Network;
use dynmos_protest::{
    mc_detection_probabilities, DetectionEngine, DetectionEstimate, EstimateMethod, FaultEntry,
    Json, RunBudget, TestabilityConfig, TierMode,
};

/// Re-queries of a BDD-tier engine after its first query.
const REQUERIES: usize = 16;
/// Monte Carlo samples, and faults per checked job, for the check.
const MC_SAMPLES: u64 = 1 << 15;
const MC_FAULTS: usize = 8;

/// The engine configuration a testability request asks for, built as
/// the service builds it (the harness runs without a tier override in
/// its environment).
fn config(request: &Json) -> Result<TestabilityConfig, String> {
    let seed = request.get("seed").and_then(Json::as_u64).unwrap_or(0);
    let mut config = TestabilityConfig::default().with_seed(seed);
    if let Some(mode) = request.get("mode").and_then(Json::as_str) {
        config = config.with_mode(TierMode::parse(mode)?);
    }
    Ok(config)
}

/// The tier every estimate of a request must come from: the one its
/// `mode` names, or for the default plan exact enumeration when the
/// input space fits the row cap and the BDD tier otherwise.
fn expected_tier(request: &Json, inputs: usize) -> EstimateMethod {
    match request.get("mode").and_then(Json::as_str) {
        Some("cutting") => EstimateMethod::Cutting,
        Some("bdd") => EstimateMethod::Bdd,
        _ if inputs < 64 && 1u64 << inputs <= RunBudget::unlimited().effective_exact_rows() => {
            EstimateMethod::Exact
        }
        _ => EstimateMethod::Bdd,
    }
}

/// The re-query vectors of a BDD job with request seed `seed`.
fn requery_vectors(seed: u64, inputs: usize) -> Vec<Vec<f64>> {
    (1..=REQUERIES as u64)
        .map(|j| {
            (0..inputs as u64)
                .map(|i| unit_range(splitmix(seed ^ (j << 32) ^ i), 0.05, 0.95))
                .collect()
        })
        .collect()
}

/// Layer totals of the traced testability jobs.
#[derive(Default)]
pub struct Layers {
    jobs: u64,
    first_call_ms: f64,
    first_emit_ms: f64,
    requery_ms: f64,
    requeries: u64,
    tiers: [u64; 3],
    rss_growth_mb: Vec<f64>,
}

/// Replays one testability job under spans below `parent`: the first
/// call (with its good-machine build up to the first emitted estimate,
/// and the sink-to-sink interval of every fault by tier) at `probs`,
/// then, for a BDD job, the re-queries of the same engine.
#[allow(clippy::too_many_arguments)]
pub fn traced_job(
    trace: &mut Trace,
    op: u64,
    parent: usize,
    net: &Network,
    faults: &[FaultEntry],
    request: &Json,
    probs: &[f64],
    l: &mut Layers,
) -> Result<(), String> {
    let config = config(request)?;
    let requery = if expected_tier(request, probs.len()) == EstimateMethod::Bdd {
        let seed = request.get("seed").and_then(Json::as_u64).unwrap_or(0);
        requery_vectors(seed, probs.len())
    } else {
        Vec::new()
    };
    let unlimited = RunBudget::unlimited();
    let rss_before = proc_status_mib("self", "VmRSS:").unwrap_or(0.0);
    let root = trace.open(op, Some(parent), "testability.op");
    let call = trace.open(op, Some(root), "testability.first_call");
    let call_start = trace.now();
    let mut engine = DetectionEngine::new(net, faults, config);
    let mut emits: Vec<(u64, EstimateMethod)> = Vec::with_capacity(faults.len());
    {
        let now = || trace.now();
        engine.estimates_from(0, probs, &unlimited, &mut |_, est| {
            emits.push((now(), est.method));
        });
    }
    trace.close(call);
    let call_end = trace.now();
    l.jobs += 1;
    l.first_call_ms += ns_to_ms(call_end - call_start);
    if let Some(&(first_emit, _)) = emits.first() {
        trace.record(
            op,
            Some(call),
            "testability.first_emit",
            call_start,
            first_emit,
        );
        l.first_emit_ms += ns_to_ms(first_emit - call_start);
    }
    let mut by_tier = [Busy::default(); 3];
    for pair in emits.windows(2) {
        by_tier[tier_index(pair[1].1)].add(pair[0].0, pair[1].0);
    }
    for &(_, method) in &emits {
        l.tiers[tier_index(method)] += 1;
    }
    for (busy, name) in by_tier.iter().zip([
        "testability.bdd_fault",
        "testability.cutting_fault",
        "testability.exact_fault",
    ]) {
        trace.record_busy(op, call, name, busy);
    }
    for v in &requery {
        let t0 = trace.now();
        engine.estimates(v, &unlimited).map_err(|e| e.to_string())?;
        let t1 = trace.now();
        trace.record(op, Some(root), "testability.requery", t0, t1);
        l.requery_ms += ns_to_ms(t1 - t0);
        l.requeries += 1;
    }
    trace.close(root);
    let rss_after = proc_status_mib("self", "VmRSS:").unwrap_or(0.0);
    l.rss_growth_mb.push(rss_after - rss_before);
    Ok(())
}

/// Tier slot: the BDD tier, the cutting tier, and exact enumeration
/// (Monte Carlo is not a tier of the engine; it would count as exact
/// here and never occurs).
fn tier_index(m: EstimateMethod) -> usize {
    match m {
        EstimateMethod::Bdd => 0,
        EstimateMethod::Cutting => 1,
        EstimateMethod::Exact | EstimateMethod::MonteCarlo => 2,
    }
}

/// Sets the `testability.*` layer metrics.
pub fn layer_report(report: &mut Report, trace: &Trace, l: &Layers) {
    let own = trace.self_times();
    let ms = |name: &str| ns_to_ms(own.get(name).copied().unwrap_or(0));
    let jobs = format!("over {} traced testability jobs", l.jobs);
    let [bdd, cutting, exact] = l.tiers;
    let estimates = bdd + cutting + exact;
    let census = format!("tier census of {estimates} estimates, {jobs}");
    report.set("testability.first_call_ms", l.first_call_ms, &jobs);
    report.set(
        "testability.first_emit_ms",
        l.first_emit_ms,
        format!("call to first sink, {jobs}"),
    );
    report.count("testability.bdd_faults", bdd, &census);
    report.count("testability.cutting_faults", cutting, &census);
    report.count("testability.exact_faults", exact, &census);
    report.set(
        "testability.bdd_fault_ms",
        ms("testability.bdd_fault"),
        format!("sink-to-sink, {jobs}"),
    );
    report.set(
        "testability.cutting_fault_ms",
        ms("testability.cutting_fault"),
        format!("sink-to-sink, {jobs}"),
    );
    report.set(
        "testability.exact_share",
        exact as f64 / estimates.max(1) as f64,
        format!("{exact} exact / {estimates} estimates"),
    );
    report.count(
        "testability.requeries",
        l.requeries,
        format!("of the BDD jobs' engines, {jobs}"),
    );
    report.set("testability.requery_ms", l.requery_ms, &jobs);
    report.set(
        "testability.rss_growth_mb",
        crate::stats::median(&l.rss_growth_mb),
        format!("median VmRSS growth over a job, {jobs}"),
    );
}

/// Checks the payload of a testability job the service answered: one
/// estimate per fault, all from the tier the job asked for, a cutting
/// value inside its certified bounds, a sample of exact and BDD values
/// against Monte Carlo within five standard errors and, for a BDD job,
/// every value bit-equal to an engine that answered another vector
/// first (a re-query must equal a fresh engine).
pub fn check(
    net: &Network,
    faults: &[FaultEntry],
    request: &Json,
    payload: &Json,
) -> Result<(), String> {
    let inputs = net.primary_inputs().len();
    let probs = vec![0.5; inputs];
    let expected = expected_tier(request, inputs);
    let estimates = payload
        .get("estimates")
        .and_then(Json::as_arr)
        .ok_or("the payload has no estimates")?;
    if estimates.len() != faults.len() {
        return Err(format!(
            "{} estimates for {} faults",
            estimates.len(),
            faults.len()
        ));
    }
    let mut values = Vec::with_capacity(estimates.len());
    for (fi, e) in estimates.iter().enumerate() {
        let value = e.get("value").and_then(Json::as_f64);
        let method = e.get("method").and_then(Json::as_str);
        let (Some(value), Some(method)) = (value, method) else {
            return Err(format!("estimate {fi} has no value or method"));
        };
        if method != expected.token() {
            return Err(format!(
                "fault {fi}: estimated by {method}, not the {} tier",
                expected.token()
            ));
        }
        let bound = |k: &str| e.get(k).and_then(Json::as_f64);
        if let (Some(low), Some(high)) = (bound("low"), bound("high")) {
            if !(low <= value && value <= high) {
                return Err(format!(
                    "fault {fi}: {value} outside its bounds [{low}, {high}]"
                ));
            }
        }
        values.push(value);
    }
    if expected == EstimateMethod::Cutting {
        return Ok(());
    }

    let n = faults.len().min(MC_FAULTS);
    let picked: Vec<usize> = (0..n).map(|k| k * faults.len() / n).collect();
    let subset: Vec<FaultEntry> = picked.iter().map(|&i| faults[i].clone()).collect();
    let seed = request.get("seed").and_then(Json::as_u64).unwrap_or(0);
    let mc = mc_detection_probabilities(net, &subset, &probs, seed, MC_SAMPLES);
    for (&fi, m) in picked.iter().zip(&mc) {
        let p = values[fi];
        let sigma = (p * (1.0 - p) / MC_SAMPLES as f64).sqrt();
        if (p - m.value).abs() > 5.0 * sigma + 1.0 / MC_SAMPLES as f64 {
            return Err(format!(
                "fault {fi}: {p} vs Monte Carlo {} over {MC_SAMPLES} samples",
                m.value
            ));
        }
    }

    if expected == EstimateMethod::Bdd {
        let unlimited = RunBudget::unlimited();
        let mut engine = DetectionEngine::new(net, faults, config(request)?);
        engine
            .estimates(&requery_vectors(seed, inputs)[0], &unlimited)
            .map_err(|e| e.to_string())?;
        let requeried: Vec<DetectionEstimate> = engine
            .estimates(&probs, &unlimited)
            .map_err(|e| e.to_string())?;
        if let Some(fi) =
            (0..faults.len()).find(|&i| requeried[i].value.to_bits() != values[i].to_bits())
        {
            return Err(format!(
                "fault {fi}: a re-query gives {}, the service {}",
                requeried[fi].value, values[fi]
            ));
        }
    }
    Ok(())
}
