//! Monte Carlo estimation for circuits beyond exact enumeration.
//!
//! The exact routines in [`crate::detect`] and [`crate::estimate`]
//! enumerate the primary-input space and stop being feasible around 24
//! inputs. Production-sized circuits (the paper's "large scaled
//! integrated circuit") need sampling: these estimators draw weighted
//! random patterns with the pattern-parallel evaluator and report the
//! observed frequency together with a normal-approximation confidence
//! half-width, so PROTEST's test-length stage can keep working at scale.
//!
//! Both estimators are thread-sharded over the counter-based pattern
//! stream along the axis the two-axis planner
//! ([`crate::parallel::plan_shards`]) picks: detection estimation shards
//! the *fault list* when it can feed every worker (each worker owns an
//! evaluator and replays the whole stream for its shard) and falls back
//! to the *sample-pass axis* in the few-fault regime; signal estimation
//! has one target, so the planner always hands it the pass axis. Hit
//! counts over disjoint pass ranges add exactly (integer sums), so
//! either way the estimates are bit-identical to the serial path at any
//! thread count.

use crate::budget::{drive, Checkpoint, Run, RunBudget, StopReason};
use crate::list::FaultEntry;
use crate::parallel::{plan_shards, try_run_sharded, Parallelism, ShardPlan};
use crate::random::PatternSource;
use crate::service::json::Json;
use dynmos_netlist::{NetId, Network, NetworkFault, PackedEvaluator};
use std::ops::Range;

/// Lane words per evaluator pass: 4 × 64 = 256 patterns per tape walk.
const WIDTH: usize = 4;

/// Evaluator passes per budgeted chunk (16 passes = 4096 samples): the
/// granularity of budget checks and checkpoints. Hit counts are exact
/// integer sums, so chunking is invisible to the final estimates.
const CHUNK_PASSES: usize = 16;

/// A Monte Carlo estimate: frequency plus a 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Observed frequency.
    pub value: f64,
    /// 95% normal-approximation half-width (`1.96 * sqrt(p(1-p)/n)`).
    pub half_width: f64,
    /// Samples drawn.
    pub samples: u64,
}

impl Estimate {
    /// `true` if `truth` lies within the confidence interval (with a
    /// small absolute floor for degenerate frequencies).
    pub fn covers(&self, truth: f64) -> bool {
        (self.value - truth).abs() <= self.half_width.max(1e-3)
    }

    /// The standard error of the estimate (`sqrt(p(1-p)/n)`; the
    /// half-width is 1.96 standard errors).
    pub fn std_error(&self) -> f64 {
        self.half_width / 1.96
    }
}

/// Resumable state of an interrupted Monte Carlo estimation: the exact
/// integer hit counts over the sample passes drawn so far. Resuming
/// and completing produces estimates bit-identical to an uninterrupted
/// run — integer hit counts over disjoint pass ranges add exactly.
#[derive(Debug, Clone)]
pub struct McCheckpoint {
    /// Wide evaluator passes fully drawn so far.
    passes_done: usize,
    /// The run's total sample budget.
    samples: u64,
    /// Per-target hit counts so far (one entry per fault; length 1 for
    /// signal estimation).
    hits: Vec<u64>,
}

impl Checkpoint for McCheckpoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str("mc")),
            ("passes_done".into(), Json::num(self.passes_done as u64)),
            ("samples".into(), Json::num(self.samples)),
            (
                "hits".into(),
                Json::Arr(self.hits.iter().map(|&h| Json::num(h)).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("kind").and_then(Json::as_str) != Some("mc") {
            return Err("not a Monte Carlo checkpoint".into());
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("mc checkpoint: bad or missing {k:?}"))
        };
        let hits = v
            .get("hits")
            .and_then(Json::as_arr)
            .ok_or("mc checkpoint: bad or missing \"hits\"")?
            .iter()
            .map(|h| {
                h.as_u64()
                    .ok_or_else(|| format!("mc checkpoint: bad hit count {h}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            passes_done: field("passes_done")? as usize,
            samples: field("samples")?,
            hits,
        })
    }
}

fn estimate_from_counts(hits: u64, samples: u64) -> Estimate {
    let p = hits as f64 / samples as f64;
    Estimate {
        value: p,
        half_width: 1.96 * (p * (1.0 - p) / samples as f64).sqrt(),
        samples,
    }
}

/// Lane mask for the samples still owed after `drawn` of `samples`.
fn tail_mask(drawn: u64, samples: u64) -> u64 {
    match (samples - drawn).min(64) {
        64 => u64::MAX,
        0 => 0,
        l => (1u64 << l) - 1,
    }
}

/// Monte Carlo signal probability of one net under weighted inputs, with
/// the default thread policy ([`Parallelism::Auto`]).
///
/// # Panics
///
/// Panics if `samples == 0` or the probability arity mismatches.
///
/// # Example
///
/// ```
/// use dynmos_netlist::generate::and_or_tree;
/// use dynmos_protest::montecarlo::mc_signal_probability;
///
/// let net = and_or_tree(4); // 16 inputs
/// let po = net.primary_outputs()[0];
/// let est = mc_signal_probability(&net, po, &vec![0.5; 16], 7, 50_000);
/// assert!(est.half_width < 0.01);
/// ```
pub fn mc_signal_probability(
    net: &Network,
    target: NetId,
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
) -> Estimate {
    mc_signal_probability_par(net, target, pi_probs, seed, samples, Parallelism::default())
}

/// [`mc_signal_probability`] with an explicit thread policy. A single
/// target net means the planner always shards the pass axis; the
/// estimate is identical at any thread count. When `DYNMOS_BUDGET_MS`
/// is set, the estimation runs as an interrupt/resume loop with that
/// per-leg deadline (see [`drive`]) — producing the identical estimate.
pub fn mc_signal_probability_par(
    net: &Network,
    target: NetId,
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
    parallelism: Parallelism,
) -> Estimate {
    drive(|budget, resume| {
        mc_signal_probability_budgeted(
            net,
            target,
            pi_probs,
            seed,
            samples,
            parallelism,
            budget,
            resume,
        )
    })
}

/// [`mc_signal_probability_par`] under a [`RunBudget`], optionally
/// resuming an interrupted run: stops at the first chunk boundary past
/// the deadline, cancellation, or per-call sample cap, returning the
/// partial estimate plus a checkpoint to resume from. A run completed
/// across any number of interruptions yields the identical estimate.
/// The network, target, probabilities, seed and sample budget must
/// match the checkpointed run.
///
/// # Panics
///
/// Panics if `samples == 0`, the probability arity mismatches, or
/// `resume` comes from a different run.
#[allow(clippy::too_many_arguments)]
pub fn mc_signal_probability_budgeted(
    net: &Network,
    target: NetId,
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
    resume: Option<McCheckpoint>,
) -> Run<Estimate, McCheckpoint> {
    let src = PatternSource::new(seed, pi_probs.to_vec());
    mc_walk(1, samples, parallelism, run_budget, resume, |_, passes| {
        vec![mc_signal_span(net, target, &src, passes, samples)]
    })
    .map(|mut estimates| estimates.remove(0))
}

/// Per-pass hit counts for one net over the passes `pass_range`,
/// tail-masked against `samples` — the pure kernel every signal worker
/// runs over its disjoint range.
fn mc_signal_span(
    net: &Network,
    target: NetId,
    src: &PatternSource,
    pass_range: Range<usize>,
    samples: u64,
) -> u64 {
    let mut ev = PackedEvaluator::with_width(net, WIDTH);
    let mut batch = vec![0u64; src.input_count() * WIDTH];
    let mut hits = 0u64;
    for pass in pass_range {
        let first_batch = pass as u64 * WIDTH as u64;
        src.fill_batch_wide_at(first_batch, WIDTH, &mut batch);
        let values = ev.eval(&batch);
        for w in 0..WIDTH {
            let drawn = (first_batch + w as u64) * 64;
            if drawn >= samples {
                break;
            }
            let mask = tail_mask(drawn, samples);
            hits += (values[target.index() * WIDTH + w] & mask).count_ones() as u64;
        }
    }
    hits
}

/// Monte Carlo detection probability of one fault.
///
/// # Panics
///
/// Panics if `samples == 0` or the probability arity mismatches.
pub fn mc_detection_probability(
    net: &Network,
    fault: &NetworkFault,
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
) -> Estimate {
    let faults = [FaultEntry {
        label: String::new(),
        fault: fault.clone(),
        at_speed_only: false,
    }];
    mc_detection_probabilities(net, &faults, pi_probs, seed, samples).remove(0)
}

/// Monte Carlo detection probabilities for a whole list (one estimate per
/// entry), sharing one pattern stream across faults so estimates are
/// comparable — and sharing each batch's good-machine evaluation, so the
/// marginal cost per fault is its fanout cone, not the network. Uses the
/// default thread policy ([`Parallelism::Auto`]).
pub fn mc_detection_probabilities(
    net: &Network,
    faults: &[FaultEntry],
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
) -> Vec<Estimate> {
    mc_detection_probabilities_par(net, faults, pi_probs, seed, samples, Parallelism::default())
}

/// [`mc_detection_probabilities`] with an explicit thread policy. Work
/// is sharded along the planner's axis — fault slices replaying the same
/// counter-based stream, or disjoint pass ranges covering every fault in
/// the few-fault regime (hit counts add exactly); estimates are
/// identical at any thread count either way. When `DYNMOS_BUDGET_MS`
/// is set, the estimation runs as an interrupt/resume loop with that
/// per-leg deadline (see [`drive`]) — producing the identical estimates.
pub fn mc_detection_probabilities_par(
    net: &Network,
    faults: &[FaultEntry],
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
    parallelism: Parallelism,
) -> Vec<Estimate> {
    drive(|budget, resume| {
        mc_detection_probabilities_budgeted(
            net,
            faults,
            pi_probs,
            seed,
            samples,
            parallelism,
            budget,
            resume,
        )
    })
}

/// [`mc_detection_probabilities_par`] under a [`RunBudget`], optionally
/// resuming an interrupted run: stops at the first chunk boundary past
/// the deadline, cancellation, or per-call sample cap, returning
/// partial estimates plus a checkpoint to resume from. A run completed
/// across any number of interruptions yields estimates bit-identical to
/// an uninterrupted run at any thread count. The network, fault list,
/// probabilities, seed and sample budget must match the checkpointed
/// run.
///
/// # Panics
///
/// Panics if `samples == 0`, the probability arity mismatches, or
/// `resume` comes from a different run.
#[allow(clippy::too_many_arguments)]
pub fn mc_detection_probabilities_budgeted(
    net: &Network,
    faults: &[FaultEntry],
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
    resume: Option<McCheckpoint>,
) -> Run<Vec<Estimate>, McCheckpoint> {
    let src = PatternSource::new(seed, pi_probs.to_vec());
    let prepared: Vec<_> = faults.iter().map(|e| net.prepare_fault(&e.fault)).collect();
    mc_walk(
        faults.len(),
        samples,
        parallelism,
        run_budget,
        resume,
        |targets, passes| mc_detection_span(net, &prepared[targets], &src, passes, samples),
    )
}

/// The chunked estimation walk both estimators share: `span(targets,
/// passes)` returns the hit counts of the target slice over a pass
/// range. Each chunk shards along the planner's axis — target slices
/// over the whole chunk, or disjoint pass ranges over every target —
/// and per-target hit counts over disjoint pass ranges add exactly, so
/// neither chunking nor sharding is visible in the estimates. Budget
/// checks happen only between chunks, after at least one has run.
fn mc_walk(
    targets: usize,
    samples: u64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
    resume: Option<McCheckpoint>,
    span: impl Fn(Range<usize>, Range<usize>) -> Vec<u64> + Sync,
) -> Run<Vec<Estimate>, McCheckpoint> {
    assert!(samples > 0, "need at least one sample");
    if targets == 0 {
        return Run::completed(Vec::new());
    }
    let McCheckpoint {
        mut passes_done,
        samples,
        mut hits,
    } = match resume {
        Some(cp) => {
            assert_eq!(
                (cp.hits.len(), cp.samples),
                (targets, samples),
                "checkpoint from a different run"
            );
            cp
        }
        None => McCheckpoint {
            passes_done: 0,
            samples,
            hits: vec![0; targets],
        },
    };
    // One evaluator pass covers WIDTH * 64 samples.
    let total_passes = samples.div_ceil((WIDTH as u64) * 64) as usize;
    let threads = parallelism.resolve();
    let chunk = if run_budget.is_unlimited() {
        total_passes.max(1)
    } else {
        CHUNK_PASSES
    };
    let call_start = passes_done;
    let cap_passes = run_budget
        .max_patterns
        .map(|p| (p.div_ceil((WIDTH as u64) * 64) as usize).max(1));
    let mut stop: Option<StopReason> = None;
    let mut worker_error = None;
    while passes_done < total_passes {
        let mut end = (passes_done + chunk).min(total_passes);
        if let Some(cap) = cap_passes {
            end = end.min(call_start + cap);
        }
        let range = passes_done..end;
        // A twice-failed shard stops the walk before `passes_done`
        // advances: the failed chunk is discarded whole and the
        // checkpoint stays at the last merged boundary.
        let sharded = match plan_shards(targets, range.len() as u64, threads) {
            ShardPlan::Faults(workers) => {
                try_run_sharded(targets, workers, |t| span(t, range.clone()))
                    .map(|results| results.into_iter().flatten().collect::<Vec<u64>>())
            }
            ShardPlan::Patterns(workers) => try_run_sharded(range.len(), workers, |p| {
                span(0..targets, range.start + p.start..range.start + p.end)
            })
            .map(|spans| {
                // Disjoint pass ranges: per-target hit counts add exactly.
                let mut acc = vec![0u64; targets];
                for span in spans {
                    for (a, s) in acc.iter_mut().zip(span) {
                        *a += s;
                    }
                }
                acc
            }),
        };
        match sharded {
            Ok(chunk_hits) => {
                for (h, c) in hits.iter_mut().zip(chunk_hits) {
                    *h += c;
                }
            }
            Err(e) => {
                worker_error = Some(e);
                stop = Some(StopReason::WorkerFailed);
                break;
            }
        }
        passes_done = range.end;
        if passes_done >= total_passes {
            break;
        }
        if cap_passes.is_some_and(|cap| passes_done - call_start >= cap) {
            stop = Some(StopReason::PatternCap);
            break;
        }
        if let Some(reason) = run_budget.stop_requested() {
            stop = Some(reason);
            break;
        }
    }
    let drawn = ((passes_done as u64) * (WIDTH as u64) * 64)
        .min(samples)
        .max(1);
    let estimates = hits
        .iter()
        .map(|&h| estimate_from_counts(h, drawn))
        .collect();
    match stop {
        Some(reason) => {
            let checkpoint = McCheckpoint {
                passes_done,
                samples,
                hits,
            };
            Run {
                worker_error,
                ..Run::interrupted(estimates, reason, checkpoint)
            }
        }
        None => Run::completed(estimates),
    }
}

/// The kernel both axes share: per-fault hit counts for `prepared` over
/// the wide evaluator passes `pass_range` of the stream (pass `p` covers
/// samples `p * WIDTH * 64 ..`, tail-masked against `samples`). The
/// fault axis calls it with the full pass range and a fault slice; the
/// pattern axis with a pass slice and the full fault list.
fn mc_detection_span(
    net: &Network,
    prepared: &[dynmos_netlist::PreparedFault<'_>],
    src: &PatternSource,
    pass_range: Range<usize>,
    samples: u64,
) -> Vec<u64> {
    let mut ev = PackedEvaluator::with_width(net, WIDTH);
    let mut batch = vec![0u64; src.input_count() * WIDTH];
    let mut hits = vec![0u64; prepared.len()];
    let mut diff = vec![0u64; WIDTH];
    let mut masks = [0u64; WIDTH];
    for pass in pass_range {
        let first_batch = pass as u64 * WIDTH as u64;
        if first_batch * 64 >= samples {
            break;
        }
        src.fill_batch_wide_at(first_batch, WIDTH, &mut batch);
        ev.eval(&batch);
        for (w, mask) in masks.iter_mut().enumerate() {
            let drawn = (first_batch + w as u64) * 64;
            *mask = if drawn >= samples {
                0
            } else {
                tail_mask(drawn, samples)
            };
        }
        for (fi, p) in prepared.iter().enumerate() {
            ev.fault_diff(p, &mut diff);
            for (d, m) in diff.iter().zip(&masks) {
                hits[fi] += (d & m).count_ones() as u64;
            }
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::exact_detection_probability;
    use crate::estimate::exact_signal_probability;
    use crate::list::network_fault_list;
    use dynmos_netlist::generate::{and_or_tree, c17_dynamic_nmos, random_domino_network};

    /// Tests compare at 3 half-widths (~99.7%) so seed luck does not
    /// flake CI; `covers` itself documents the 95% interval.
    fn close(est: &Estimate, truth: f64) -> bool {
        (est.value - truth).abs() <= (3.0 / 1.96) * est.half_width.max(1e-3)
    }

    #[test]
    fn mc_signal_probability_matches_exact_small() {
        let net = c17_dynamic_nmos();
        let probs = vec![0.5; 5];
        for &po in net.primary_outputs() {
            let exact = exact_signal_probability(&net, po, &probs);
            let est = mc_signal_probability(&net, po, &probs, 11, 100_000);
            assert!(close(&est, exact), "exact {exact} vs {est:?}");
        }
    }

    #[test]
    fn mc_detection_matches_exact_small() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = vec![0.5; 5];
        for e in faults.iter().take(8) {
            let exact = exact_detection_probability(&net, &e.fault, &probs);
            let est = mc_detection_probability(&net, &e.fault, &probs, 23, 100_000);
            assert!(close(&est, exact), "{}: exact {exact} vs {est:?}", e.label);
        }
    }

    #[test]
    fn mc_works_beyond_exact_limit() {
        // 32 primary inputs: exact enumeration is impossible; MC is fine.
        let net = and_or_tree(5);
        assert!(net.primary_inputs().len() > 24);
        let probs = vec![0.5; 32];
        let po = net.primary_outputs()[0];
        let est = mc_signal_probability(&net, po, &probs, 3, 200_000);
        // Analytic value for the alternating tree of depth 5:
        // AND: p^2, OR: 1-(1-p)^2 alternating from leaves.
        let mut p = 0.5f64;
        for level in 1..=5 {
            p = if level % 2 == 1 {
                p * p
            } else {
                1.0 - (1.0 - p) * (1.0 - p)
            };
        }
        assert!(close(&est, p), "analytic {p} vs {est:?}");
    }

    #[test]
    fn half_width_shrinks_with_samples() {
        let net = c17_dynamic_nmos();
        let po = net.primary_outputs()[0];
        let probs = vec![0.5; 5];
        let small = mc_signal_probability(&net, po, &probs, 1, 1_000);
        let large = mc_signal_probability(&net, po, &probs, 1, 100_000);
        assert!(large.half_width < small.half_width);
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let net = random_domino_network(5, 4, 6);
        let n = net.primary_inputs().len();
        let po = net.primary_outputs()[0];
        if n <= 12 {
            let probs = vec![0.875; n];
            let exact = exact_signal_probability(&net, po, &probs);
            let est = mc_signal_probability(&net, po, &probs, 9, 150_000);
            assert!(close(&est, exact), "exact {exact} vs {est:?}");
        }
    }

    #[test]
    fn estimates_count_samples_exactly() {
        let net = c17_dynamic_nmos();
        let po = net.primary_outputs()[0];
        // Non-multiple of 64 exercises the tail mask.
        let est = mc_signal_probability(&net, po, &[0.5; 5], 1, 1_000);
        assert_eq!(est.samples, 1_000);
        assert!(est.value >= 0.0 && est.value <= 1.0);
    }

    #[test]
    fn thread_count_does_not_change_estimates() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = vec![0.25, 0.5, 0.9375, 0.5, 0.75];
        let serial =
            mc_detection_probabilities_par(&net, &faults, &probs, 7, 10_123, Parallelism::Serial);
        let po = net.primary_outputs()[0];
        let sig_serial =
            mc_signal_probability_par(&net, po, &probs, 7, 10_123, Parallelism::Serial);
        for threads in [2usize, 4, 8] {
            let par = Parallelism::Fixed(threads);
            let est = mc_detection_probabilities_par(&net, &faults, &probs, 7, 10_123, par);
            assert_eq!(est, serial, "threads={threads}");
            let sig = mc_signal_probability_par(&net, po, &probs, 7, 10_123, par);
            assert_eq!(sig, sig_serial, "threads={threads}");
        }
    }

    #[test]
    fn few_fault_pattern_axis_estimates_match_serial() {
        // 2 faults < threads: the planner shards the pass axis; exact
        // integer hit sums keep the estimates bit-identical.
        let net = c17_dynamic_nmos();
        let faults: Vec<FaultEntry> = network_fault_list(&net).into_iter().take(2).collect();
        let probs = vec![0.25, 0.5, 0.9375, 0.5, 0.75];
        let serial =
            mc_detection_probabilities_par(&net, &faults, &probs, 7, 50_123, Parallelism::Serial);
        for threads in [4usize, 8, 16] {
            let est = mc_detection_probabilities_par(
                &net,
                &faults,
                &probs,
                7,
                50_123,
                Parallelism::Fixed(threads),
            );
            assert_eq!(est, serial, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let net = c17_dynamic_nmos();
        let po = net.primary_outputs()[0];
        mc_signal_probability(&net, po, &[0.5; 5], 1, 0);
    }
}
