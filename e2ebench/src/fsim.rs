//! The fault-simulation workload `fsim_few`: a top-off run of the one
//! fault a uniform run left on `array_multiplier(12)`, over a long
//! weighted stream.

use crate::trace::{Busy, Trace};
use crate::{
    checked_op, ms_since, ns_to_ms, op_seed, proc_status_mib, run_for, splitmix, unit_range,
};
use crate::{Config, Report, Setup};
use dynmos_netlist::generate::array_multiplier;
use dynmos_netlist::{Network, NetworkFault, PackedEvaluator};
use dynmos_protest::{
    network_fault_list, plan_shards, run_sharded, shard_ranges, FaultEntry, FaultSimulator,
    FsimOutcome, Parallelism, PatternSource, ShardPlan,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Set-up samples before the first op, each the mean of `SETUP_BATCH`
/// back-to-back set-ups. One more sample is taken after every
/// `SETUP_EVERY`-th op, so the samples, like the op latencies, span the
/// whole run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const SETUP_BATCH: usize = 2;
const SETUP_EVERY: u64 = 4;
/// Ops whose layer work a traced run replays and totals.
const TRACED_OPS: u64 = 6;
/// Op 0 and every this-many-th op, at most `MAX_CHECKS` ops, are checked
/// against a serial run.
const CHECK_EVERY: u64 = 8;
const MAX_CHECKS: u64 = 6;

/// Patterns per op.
const PATTERNS: u64 = 1 << 20;
/// The seed of the uniform run whose escapes `fsim_few` simulates. It is
/// the same for every run seed, so every run simulates the same faults
/// and does the same work per op.
const ESCAPE_RUN_SEED: u64 = 1;

/// The workload after set-up: the network and the faults it simulates.
struct Workload {
    net: Network,
    faults: Vec<FaultEntry>,
}

/// The per-input weights of the op with seed `seed`: non-dyadic, drawn
/// from `[0.25, 0.75]`.
fn weights(seed: u64, inputs: usize) -> Vec<f64> {
    (0..inputs as u64)
        .map(|i| unit_range(splitmix(seed ^ i), 0.25, 0.75))
        .collect()
}

/// One set-up: the network, its fault list, and the escapes of a serial
/// 2^16-pattern uniform run, with the time the network and the fault
/// list took.
fn setup() -> (Workload, f64, f64) {
    let t = Instant::now();
    let net = array_multiplier(12);
    let network_ms = ms_since(t);
    let all = network_fault_list(&net);
    let fault_list_ms = ms_since(t) - network_ms;
    let mut src = PatternSource::uniform(ESCAPE_RUN_SEED, net.primary_inputs().len());
    let uniform = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
        &all,
        &mut src,
        1 << 16,
    );
    let faults = uniform.escapes().iter().map(|&i| all[i].clone()).collect();
    (Workload { net, faults }, network_ms, fault_list_ms)
}

/// `fsim_few`: the escapes of the uniform run, simulated over 2^20
/// patterns with per-op weights.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut setups = Setup::default();
    let w = setups.sample(SETUP_BATCH, setup);
    for _ in 1..SETUP_REPEATS {
        setups.sample(SETUP_BATCH, setup);
    }
    if w.faults.is_empty() {
        return Err("the set-up left no faults to simulate".into());
    }
    Ok(measure(cfg, &w, setups))
}

/// Layer counts and times of the traced ops.
#[derive(Default)]
struct Layers {
    batches: u64,
    evals: u64,
    serial_evals: u64,
    fault_diffs: u64,
    cone_gates: u64,
    detections: u64,
    fault_axis: u64,
    pattern_axis: u64,
    workers: u64,
    imbalance_ns: u64,
    kernel_ms: f64,
}

fn measure(cfg: &Config, w: &Workload, mut setups: Setup) -> Report {
    let mut report = Report::default();
    let sim = FaultSimulator::new(&w.net);
    let threads = sim.parallelism().resolve();
    let inputs = w.net.primary_inputs().len();
    let source = |seed: u64| PatternSource::new(seed, weights(seed, inputs));
    // One untimed op first, so lazy set-up and cold caches are not
    // billed to op 0.
    sim.run_random(
        &w.faults,
        &mut source(op_seed(cfg.seed, u64::MAX)),
        PATTERNS,
    );

    let mut trace = Trace::new();
    let mut layers = Layers::default();
    let (mut traced_ms, mut lat_ms) = (Vec::new(), Vec::new());
    let mut work = 0u64;
    let mut to_check = Vec::new();
    // Why ops failed, by op: an op fails once, whatever failed in it.
    let mut failures = BTreeMap::new();
    report.attempted = run_for(cfg.seconds, cfg.min_ops(TRACED_OPS), |i| {
        let seed = op_seed(cfg.seed, i);
        let mut src = source(seed);
        let traced = cfg.traced_op(i, TRACED_OPS, 1);
        let root = traced.then(|| trace.open(i, None, "fsim.op"));
        let start = trace.now();
        let t = Instant::now();
        let outcome = sim.run_random(&w.faults, &mut src, PATTERNS);
        let ms = ms_since(t);
        // The escape stays live for the whole stream, so an op that
        // stops early did less work than the ones it is compared with.
        let mut failure = (outcome.patterns_applied != PATTERNS).then(|| {
            format!(
                "op {i}: applied {} patterns, not {}",
                outcome.patterns_applied, PATTERNS
            )
        });
        if let Some(root) = root {
            layers.kernel_ms += ms;
            trace.record(i, Some(root), "fsim.kernel", start, trace.now());
            let replay_span = trace.open(i, Some(root), "fsim.replay");
            let src = source(seed);
            let replayed = replay(
                &mut trace,
                i,
                replay_span,
                w,
                &src,
                threads,
                &outcome,
                &mut layers,
            );
            if let Err(e) = replayed {
                failure.get_or_insert(format!("op {i}: {e}"));
            }
            trace.close(replay_span);
            trace.close(root);
            traced_ms.push(ms_since(t));
        } else if !cfg.trace || cfg.compared_op(i, TRACED_OPS, 1) {
            work += outcome.patterns_applied;
            lat_ms.push(ms);
        }
        if let Some(why) = failure {
            failures.insert(i, why);
        }
        if checked_op(i, CHECK_EVERY, MAX_CHECKS) {
            to_check.push((i, seed, outcome));
        }
        if i % SETUP_EVERY == SETUP_EVERY - 1 {
            setups.sample(SETUP_BATCH, setup);
        }
        true
    });
    let rss = proc_status_mib("self", "VmHWM:").unwrap_or(0.0);

    for (i, seed, mut outcome) in to_check {
        if cfg.corrupt && i == 0 {
            outcome.detected_at[0] = match outcome.detected_at[0] {
                Some(_) => None,
                None => Some(1),
            };
        }
        if let Err(e) = check(w, &source(seed), &outcome) {
            failures.entry(i).or_insert(format!("op {i}: {e}"));
        }
    }
    for why in failures.into_values() {
        report.fail(why);
    }

    setups.report(&mut report);
    if cfg.trace {
        report.overhead(&traced_ms, &lat_ms, "the kernel call and its serial replay");
        layer_report(&mut report, &trace, &layers);
        if let Err(e) = trace.write_jsonl(&cfg.trace_path()) {
            eprintln!("e2ebench: cannot write the trace: {e}");
        }
    } else {
        report.end_to_end(&lat_ms, work as f64, "patterns", &setups.total_s, rss);
    }
    report
}

fn layer_report(report: &mut Report, trace: &Trace, l: &Layers) {
    let own = trace.self_times();
    let ms = |name: &str| ns_to_ms(own.get(name).copied().unwrap_or(0));
    let ops = format!("over {TRACED_OPS} traced ops");
    report.count("trace.ops", TRACED_OPS, "ops traced and replayed");
    report.count("random.batches", l.batches, &ops);
    report.set("random.fill_ms", ms("random.fill"), &ops);
    report.count("compile.evals", l.evals, &ops);
    report.set("compile.eval_ms", ms("compile.eval"), &ops);
    report.count("compile.fault_diffs", l.fault_diffs, &ops);
    report.count(
        "compile.cone_gates",
        l.cone_gates,
        format!("cone sizes summed {ops}"),
    );
    report.set("compile.fault_diff_ms", ms("compile.fault_diff"), &ops);
    report.set("compile.prepare_ms", ms("compile.prepare"), &ops);
    report.count("fsim.detections", l.detections, &ops);
    report.set(
        "fsim.detect_yield",
        l.detections as f64 / l.fault_diffs.max(1) as f64,
        format!(
            "{} detections / {} fault_diffs",
            l.detections, l.fault_diffs
        ),
    );
    report.set("fsim.kernel_ms", l.kernel_ms, format!("timed calls {ops}"));
    report.set(
        "fsim.replay_ms",
        trace
            .durations()
            .get("fsim.replay")
            .copied()
            .map_or(0.0, ns_to_ms),
        format!("serial replay of every shard, plan and prepare, {ops}"),
    );
    report.count(
        "parallel.fault_axis",
        l.fault_axis,
        format!("ops planned on the fault axis, {ops}"),
    );
    report.count(
        "parallel.pattern_axis",
        l.pattern_axis,
        format!("ops planned on the pattern axis, {ops}"),
    );
    report.count(
        "parallel.workers",
        l.workers,
        format!("shards summed {ops}"),
    );
    report.set(
        "parallel.spawn_ms",
        ms("parallel.spawn"),
        format!("no-op run_sharded {ops}"),
    );
    report.set(
        "parallel.imbalance_ms",
        ns_to_ms(l.imbalance_ns),
        format!("slowest minus fastest shard, summed {ops}"),
    );
    report.set(
        "parallel.good_eval_dup",
        l.evals as f64 - l.serial_evals as f64,
        format!("{} shard evals - {} serial evals", l.evals, l.serial_evals),
    );
}

/// Replays one op serially, shard by shard as the planner cut it, under
/// spans: pattern generation, good-machine evaluation and faulty-cone
/// replay per batch. The merged first detections must equal the op's.
#[allow(clippy::too_many_arguments)]
fn replay(
    trace: &mut Trace,
    op: u64,
    root: usize,
    w: &Workload,
    src: &PatternSource,
    threads: usize,
    outcome: &FsimOutcome,
    l: &mut Layers,
) -> Result<(), String> {
    let (net, faults) = (&w.net, &w.faults);
    let total = PATTERNS.div_ceil(64);
    let plan = plan_shards(faults.len(), total, threads);
    let shards: Vec<(Vec<usize>, Range<u64>)> = match plan {
        ShardPlan::Faults(n) => {
            l.fault_axis += 1;
            shard_ranges(faults.len(), n)
                .into_iter()
                .map(|r| (r.collect(), 0..total))
                .collect()
        }
        ShardPlan::Patterns(n) => {
            l.pattern_axis += 1;
            shard_ranges(total as usize, n)
                .into_iter()
                .map(|r| ((0..faults.len()).collect(), r.start as u64..r.end as u64))
                .collect()
        }
    };
    l.workers += shards.len() as u64;
    l.serial_evals += outcome.patterns_applied.div_ceil(64);

    let t0 = trace.now();
    run_sharded(shards.len(), shards.len(), |_| ());
    trace.record(op, Some(root), "parallel.spawn", t0, trace.now());

    let t0 = trace.now();
    let prepared: Vec<_> = faults.iter().map(|f| net.prepare_fault(&f.fault)).collect();
    trace.record(op, Some(root), "compile.prepare", t0, trace.now());

    let mut ev = PackedEvaluator::new(net);
    let mut batch = vec![0u64; src.input_count()];
    let mut merged: Vec<Option<u64>> = vec![None; faults.len()];
    let mut shard_ns = Vec::new();
    for (mut live, span) in shards {
        let shard = trace.open(op, Some(root), "fsim.shard");
        let shard_start = trace.now();
        let (mut fill, mut eval, mut diff) = (Busy::default(), Busy::default(), Busy::default());
        let stream = src.span(span.clone());
        for k in 0..stream.len() {
            if live.is_empty() {
                break;
            }
            let t0 = trace.now();
            stream.fill_batch(k, &mut batch);
            let t1 = trace.now();
            ev.eval(&batch);
            let t2 = trace.now();
            fill.add(t0, t1);
            eval.add(t1, t2);
            l.batches += 1;
            l.evals += 1;
            let applied = (span.start + k) * 64;
            let lanes = (PATTERNS - applied).min(64);
            let mask = if lanes == 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            live.retain(|&fi| {
                l.fault_diffs += 1;
                l.cone_gates += prepared[fi].cone_size() as u64;
                let differ = ev.fault_diff64(&prepared[fi]) & mask;
                if differ == 0 {
                    return true;
                }
                l.detections += 1;
                let at = applied + u64::from(differ.trailing_zeros()) + 1;
                merged[fi] = Some(merged[fi].map_or(at, |m| m.min(at)));
                false
            });
            diff.add(t2, trace.now());
        }
        trace.record_busy(op, shard, "random.fill", &fill);
        trace.record_busy(op, shard, "compile.eval", &eval);
        trace.record_busy(op, shard, "compile.fault_diff", &diff);
        shard_ns.push(trace.now() - shard_start);
        trace.close(shard);
    }
    let slowest = shard_ns.iter().max().copied().unwrap_or(0);
    let fastest = shard_ns.iter().min().copied().unwrap_or(0);
    l.imbalance_ns += slowest - fastest;
    if merged != outcome.detected_at {
        let first = (0..merged.len())
            .find(|&i| merged[i] != outcome.detected_at[i])
            .expect("vectors differ");
        return Err(format!(
            "replay detects fault {first} at {:?}, the kernel at {:?}",
            merged[first], outcome.detected_at[first]
        ));
    }
    Ok(())
}

/// Checks one op: bit-identical to a serial run, and a sample of first
/// detections (and of escapes) re-confirmed on the interpreter
/// reference.
fn check(w: &Workload, src: &PatternSource, outcome: &FsimOutcome) -> Result<(), String> {
    let mut serial_src = src.clone();
    let serial = FaultSimulator::with_parallelism(&w.net, Parallelism::Serial).run_random(
        &w.faults,
        &mut serial_src,
        PATTERNS,
    );
    if serial.detected_at != outcome.detected_at
        || serial.patterns_applied != outcome.patterns_applied
    {
        return Err("detected_at differs from a serial run".into());
    }
    let detected: Vec<(usize, u64)> = outcome
        .detected_at
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|d| (i, d)))
        .collect();
    for k in 0..detected.len().min(4) {
        let (fi, at) = detected[k * detected.len() / detected.len().min(4)];
        let lane = (at - 1) % 64;
        let differ = reference_diff(&w.net, &src.batch_at((at - 1) / 64), &w.faults[fi].fault);
        if differ >> lane & 1 == 0 || differ & ((1u64 << lane) - 1) != 0 {
            return Err(format!(
                "reference does not first detect fault {fi} at {at}"
            ));
        }
    }
    let escapes = outcome.escapes();
    let last = outcome.patterns_applied.div_ceil(64).saturating_sub(1);
    for &fi in escapes.iter().take(2) {
        for b in [0, last] {
            if reference_diff(&w.net, &src.batch_at(b), &w.faults[fi].fault) != 0 {
                return Err(format!("reference detects escaped fault {fi} in batch {b}"));
            }
        }
    }
    Ok(())
}

/// Output difference of `fault` on one batch, per lane, from the
/// interpreter reference evaluator.
fn reference_diff(net: &Network, words: &[u64], fault: &NetworkFault) -> u64 {
    let good = net.eval_packed_all_reference(words, None);
    let bad = net.eval_packed_all_reference(words, Some(fault));
    net.primary_outputs()
        .iter()
        .fold(0, |acc, po| acc | (good[po.index()] ^ bad[po.index()]))
}
