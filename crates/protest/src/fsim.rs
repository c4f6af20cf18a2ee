//! Static fault simulation, 64-way pattern-parallel and fault-sharded
//! across threads.
//!
//! "Since we are only dealing with combinational networks, a static fault
//! simulation is sufficient, if the user wants to validate the predictions
//! of PROTEST." — and the paper's dynamic fault model is exactly what
//! makes this legal: every fault stays combinational, so the classic
//! inject-and-compare simulation works (unlike for static CMOS stuck-opens,
//! where "the fault injection algorithms … don't work any more").
//!
//! The simulator is serial-fault, parallel-pattern: each 64-pattern batch
//! is evaluated once for the fault-free machine on the network's compiled
//! instruction tape, and each live fault is then replayed *event-driven*
//! — only the gates of its fanout cone that a difference from the good
//! machine actually reaches, comparing only the primary outputs the
//! cone reaches ([`dynmos_netlist::PackedEvaluator`]). A batch in which the
//! fault is not activated costs one gate (or nothing, for a stuck-at
//! fault its site already satisfies). Fault dropping removes detected
//! faults from the live list.
//!
//! On top of that, [`FaultSimulator::run_random`] shards work over
//! threads along whichever axis the two-axis planner
//! ([`crate::parallel::plan_shards`]) picks: the **fault axis** (each
//! worker owns an evaluator and replays the whole counter-based stream
//! for its fault slice) when the list can feed every worker, or the
//! **pattern axis** (each worker simulates every fault over a contiguous
//! batch range of the stream, [`crate::random::StreamSpan`]) in the
//! few-fault regime. Pattern shards merge by the minimum detection index
//! per fault — a fault's first detection over the whole stream is the
//! earliest of its per-range first detections — so either axis is
//! **bit-identical to the serial run at any thread count** (see the
//! determinism contract in [`crate::parallel`]).

use crate::budget::{drive, Checkpoint, Run, RunBudget, StopReason};
use crate::list::FaultEntry;
use crate::parallel::{plan_shards, try_run_sharded, Parallelism, ShardError, ShardPlan};
use crate::random::PatternSource;
use crate::service::json::Json;
use dynmos_netlist::{Network, PackedEvaluator};

/// Stream batches per budgeted chunk (256 batches = 16384 patterns):
/// the granularity at which budgets are checked and checkpoints land.
/// A property of the workload, never of the thread count — chunking is
/// invisible to the merged result (see [`crate::parallel`]).
const CHUNK_BATCHES: u64 = 256;

/// Result of a fault-simulation run.
#[derive(Debug, Clone)]
pub struct FsimOutcome {
    /// For each fault (by list index): the 1-based pattern number at which
    /// it was first detected, or `None` if it escaped.
    pub detected_at: Vec<Option<u64>>,
    /// Total patterns applied.
    pub patterns_applied: u64,
    /// Coverage curve: `(patterns, detected count)` sampled after each
    /// 64-pattern batch.
    pub coverage_curve: Vec<(u64, usize)>,
}

impl FsimOutcome {
    /// Fraction of faults detected. An empty fault list is vacuously
    /// fully covered (`1.0`): every fault in it — all zero of them — was
    /// detected, and "0% coverage" would read as a failed run.
    pub fn coverage(&self) -> f64 {
        if self.detected_at.is_empty() {
            return 1.0;
        }
        let detected = self.detected_at.iter().filter(|d| d.is_some()).count();
        detected as f64 / self.detected_at.len() as f64
    }

    /// Indices of undetected faults.
    pub fn escapes(&self) -> Vec<usize> {
        self.detected_at
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.is_none().then_some(i))
            .collect()
    }
}

/// Reconstructs the per-batch coverage curve from detection indices: the
/// count at pattern budget `t` is exactly the number of faults with
/// `detected_at <= t`, which is what the serial loop accumulates batch by
/// batch.
fn curve_from(detected_at: &[Option<u64>], patterns_applied: u64) -> Vec<(u64, usize)> {
    let mut sorted: Vec<u64> = detected_at.iter().flatten().copied().collect();
    sorted.sort_unstable();
    let mut curve = Vec::with_capacity(patterns_applied.div_ceil(64) as usize);
    let mut applied = 0u64;
    while applied < patterns_applied {
        applied += (patterns_applied - applied).min(64);
        let detected = sorted.partition_point(|&d| d <= applied);
        curve.push((applied, detected));
    }
    curve
}

/// Merges per-pattern-shard detection indices: a fault's first detection
/// over the whole stream is the **minimum** of its first detections over
/// any disjoint cover of the stream (absent in a range ⇒ `None` there).
/// The merge is order-independent, so the result cannot depend on how
/// the pattern axis was cut.
fn merge_min_detection(
    faults: usize,
    spans: impl IntoIterator<Item = Vec<Option<u64>>>,
) -> Vec<Option<u64>> {
    let mut merged: Vec<Option<u64>> = vec![None; faults];
    for span in spans {
        debug_assert_eq!(span.len(), faults);
        for (m, d) in merged.iter_mut().zip(span) {
            *m = match (*m, d) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
    }
    merged
}

/// Resumable state of an interrupted [`FaultSimulator::run_random`]:
/// the stream position the run started at, how many batches are fully
/// simulated, and the per-fault detection state so far. Feeding it back
/// as `resume` to [`FaultSimulator::run_random_budgeted`] continues the
/// identical walk — the completed result is bit-identical to an
/// uninterrupted serial run.
#[derive(Debug, Clone)]
pub struct FsimCheckpoint {
    /// Stream position at the original run's start (batch addressing is
    /// absolute, so resuming does not depend on the source's cursor).
    start: u64,
    /// Batches fully simulated so far.
    batches_done: u64,
    /// The original run's pattern budget.
    max_patterns: u64,
    /// Detection state so far (1-based absolute pattern indices).
    detected_at: Vec<Option<u64>>,
}

impl Checkpoint for FsimCheckpoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str("fsim")),
            ("start".into(), Json::num(self.start)),
            ("batches_done".into(), Json::num(self.batches_done)),
            ("max_patterns".into(), Json::num(self.max_patterns)),
            (
                "detected_at".into(),
                Json::Arr(
                    self.detected_at
                        .iter()
                        .map(|d| d.map_or(Json::Null, Json::num))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("kind").and_then(Json::as_str) != Some("fsim") {
            return Err("not an fsim checkpoint".into());
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fsim checkpoint: bad or missing {k:?}"))
        };
        let detected_at = v
            .get("detected_at")
            .and_then(Json::as_arr)
            .ok_or("fsim checkpoint: bad or missing \"detected_at\"")?
            .iter()
            .map(|d| match d {
                Json::Null => Ok(None),
                other => other
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("fsim checkpoint: bad detection index {other}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            start: field("start")?,
            batches_done: field("batches_done")?,
            max_patterns: field("max_patterns")?,
            detected_at,
        })
    }
}

impl FsimCheckpoint {
    /// Patterns fully simulated so far.
    pub fn patterns_done(&self) -> u64 {
        (self.batches_done * 64).min(self.max_patterns)
    }

    /// Faults detected so far.
    pub fn detected_count(&self) -> usize {
        self.detected_at.iter().filter(|d| d.is_some()).count()
    }
}

/// Serial-fault, pattern-parallel fault simulator with fault dropping and
/// optional two-axis (fault- or pattern-sharded) multithreading.
#[derive(Debug, Clone)]
pub struct FaultSimulator<'n> {
    net: &'n Network,
    parallelism: Parallelism,
}

impl<'n> FaultSimulator<'n> {
    /// Creates a simulator for `net` with the default parallelism
    /// ([`Parallelism::Auto`]: all available cores — safe, because the
    /// parallel path is bit-identical to the serial one).
    pub fn new(net: &'n Network) -> Self {
        Self::with_parallelism(net, Parallelism::default())
    }

    /// Creates a simulator with an explicit thread policy.
    pub fn with_parallelism(net: &'n Network, parallelism: Parallelism) -> Self {
        Self { net, parallelism }
    }

    /// The configured thread policy.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Runs random patterns from `source` until all faults are detected or
    /// `max_patterns` have been applied. The final batch is lane-masked,
    /// so `patterns_applied` and detection indices never exceed
    /// `max_patterns` even when it is not a multiple of 64.
    ///
    /// Work is sharded over worker threads along the axis
    /// [`plan_shards`] picks: fault slices replaying the whole stream, or
    /// — when the fault list cannot feed every worker — contiguous batch
    /// ranges of the stream covering the whole list, merged by the
    /// minimum detection index per fault. The result (and the source's
    /// final cursor) is bit-identical at any thread count on either axis.
    ///
    /// When `DYNMOS_BUDGET_MS` is set, the run is executed as an
    /// interrupt/resume loop with that per-leg deadline (see
    /// [`drive`]) — exercising every checkpoint path while returning
    /// the identical result.
    ///
    /// # Panics
    ///
    /// Panics if the source arity does not match the network.
    pub fn run_random(
        &self,
        faults: &[FaultEntry],
        source: &mut PatternSource,
        max_patterns: u64,
    ) -> FsimOutcome {
        drive(|budget, resume| {
            self.run_random_budgeted(faults, source, max_patterns, budget, resume)
        })
    }

    /// [`Self::run_random`] under a [`RunBudget`], optionally resuming
    /// an interrupted run from its checkpoint: stops at the first chunk
    /// boundary past the deadline, cancellation, or per-call pattern
    /// cap, returning the partial outcome plus a checkpoint to resume
    /// from. At least one chunk of work is done per call (forward
    /// progress), and a run completed across any number of
    /// interruptions is bit-identical to an uninterrupted serial run —
    /// detection indices, `patterns_applied`, coverage curve, and the
    /// source's final cursor.
    ///
    /// A resumed run must use the fault list and pattern budget the
    /// checkpoint was taken with; batch addressing is absolute, so the
    /// source need only be the same stream (same seed and weights) —
    /// its cursor is ignored and rewritten.
    ///
    /// # Panics
    ///
    /// Panics on source arity mismatch, or if `resume` comes from a run
    /// over a different fault count or pattern budget.
    pub fn run_random_budgeted(
        &self,
        faults: &[FaultEntry],
        source: &mut PatternSource,
        max_patterns: u64,
        run_budget: &RunBudget,
        resume: Option<FsimCheckpoint>,
    ) -> Run<FsimOutcome, FsimCheckpoint> {
        assert_eq!(
            source.input_count(),
            self.net.primary_inputs().len(),
            "pattern source arity mismatch"
        );
        let FsimCheckpoint {
            start,
            mut batches_done,
            max_patterns,
            mut detected_at,
        } = match resume {
            Some(cp) => {
                assert_eq!(
                    (cp.detected_at.len(), cp.max_patterns),
                    (faults.len(), max_patterns),
                    "checkpoint from a different run"
                );
                cp
            }
            None => FsimCheckpoint {
                start: source.position(),
                batches_done: 0,
                max_patterns,
                detected_at: vec![None; faults.len()],
            },
        };
        // Each chunk simulates only the still-live faults over a fixed
        // batch range and merges by the usual order-independent rules,
        // so chunk boundaries are invisible to the final state; budget
        // checks happen only between chunks, after at least one has run.
        let total_batches = max_patterns.div_ceil(64);
        let threads = self.parallelism.resolve();
        // Unlimited budgets take the historical single-pass path: one
        // chunk spanning the whole remaining stream.
        let chunk = if run_budget.is_unlimited() {
            total_batches.max(1)
        } else {
            CHUNK_BATCHES
        };
        let call_start = batches_done;
        let cap_batches = run_budget.max_patterns.map(|p| p.div_ceil(64).max(1));
        let src: &PatternSource = source;
        let mut stop: Option<StopReason> = None;
        let mut worker_error: Option<ShardError> = None;
        while batches_done < total_batches {
            let live: Vec<usize> = detected_at
                .iter()
                .enumerate()
                .filter_map(|(i, d)| d.is_none().then_some(i))
                .collect();
            if live.is_empty() {
                break;
            }
            let mut span_end = (batches_done + chunk).min(total_batches);
            if let Some(cap) = cap_batches {
                span_end = span_end.min(call_start + cap);
            }
            let span = batches_done..span_end;
            // A shard failing both its threaded attempt and serial
            // retry stops the run *before* `batches_done` advances: the
            // failed chunk's partial results are discarded whole, the
            // checkpoint stays at the last merged boundary, and a
            // resume (or supervisor retry) replays the failed chunk.
            let sharded = match plan_shards(live.len(), span.end - span.start, threads) {
                ShardPlan::Faults(workers) => try_run_sharded(live.len(), workers, |range| {
                    self.random_span(faults, &live[range], src, start, span.clone(), max_patterns)
                })
                .map(|results| results.into_iter().flatten().collect()),
                ShardPlan::Patterns(workers) => {
                    try_run_sharded((span.end - span.start) as usize, workers, |range| {
                        let batches =
                            span.start + range.start as u64..span.start + range.end as u64;
                        self.random_span(faults, &live, src, start, batches, max_patterns)
                    })
                    .map(|spans| merge_min_detection(live.len(), spans))
                }
            };
            match sharded {
                Ok(merged) => {
                    for (&fi, d) in live.iter().zip(merged) {
                        if d.is_some() {
                            detected_at[fi] = d;
                        }
                    }
                }
                Err(e) => {
                    worker_error = Some(e);
                    stop = Some(StopReason::WorkerFailed);
                    break;
                }
            }
            batches_done = span.end;
            // Budget checks only between chunks, and only while work
            // remains — a run that just finished is Completed even if
            // the deadline passed during its last chunk.
            let remains = batches_done < total_batches && detected_at.iter().any(Option::is_none);
            if !remains {
                break;
            }
            if cap_batches.is_some_and(|cap| batches_done - call_start >= cap) {
                stop = Some(StopReason::PatternCap);
                break;
            }
            if let Some(reason) = run_budget.stop_requested() {
                stop = Some(reason);
                break;
            }
        }
        if let Some(reason) = stop {
            let patterns_applied = (batches_done * 64).min(max_patterns);
            source.set_position(start + batches_done);
            let outcome = FsimOutcome {
                coverage_curve: curve_from(&detected_at, patterns_applied),
                detected_at: detected_at.clone(),
                patterns_applied,
            };
            let checkpoint = FsimCheckpoint {
                start,
                batches_done,
                max_patterns,
                detected_at,
            };
            return Run {
                worker_error,
                ..Run::interrupted(outcome, reason, checkpoint)
            };
        }
        // Reconstruct the serial stopping point from the merged indices:
        // the serial loop consumes batches until its live list empties
        // (the batch holding the last first-detection) or the budget runs
        // out — identical on both axes and at any chunking, because the
        // merged indices are.
        let batches = if detected_at.iter().all(Option::is_some) {
            detected_at
                .iter()
                .flatten()
                .max()
                .map_or(0, |d| d.div_ceil(64))
        } else {
            total_batches
        };
        let patterns_applied = (batches * 64).min(max_patterns);
        source.set_position(start + batches);
        Run::completed(FsimOutcome {
            coverage_curve: curve_from(&detected_at, patterns_applied),
            detected_at,
            patterns_applied,
        })
    }

    /// The kernel both axes share: simulates the fault-list `subset`
    /// (indices into `faults`) over the stream batches `span` (relative
    /// to the stream offset `start`), recording absolute 1-based
    /// first-detection indices in subset order and dropping each fault
    /// at its first detection within the span. The fault axis calls it
    /// with the full span and a subset slice; the pattern axis with a
    /// span slice and the full subset.
    fn random_span(
        &self,
        faults: &[FaultEntry],
        subset: &[usize],
        source: &PatternSource,
        start: u64,
        span: std::ops::Range<u64>,
        max_patterns: u64,
    ) -> Vec<Option<u64>> {
        let mut ev = PackedEvaluator::new(self.net);
        let prepared: Vec<_> = subset
            .iter()
            .map(|&fi| self.net.prepare_fault(&faults[fi].fault))
            .collect();
        let stream = source.span(start + span.start..start + span.end);
        let mut detected_at: Vec<Option<u64>> = vec![None; subset.len()];
        let mut live: Vec<usize> = (0..subset.len()).collect();
        let mut batch = vec![0u64; source.input_count()];
        for k in 0..stream.len() {
            if live.is_empty() {
                break;
            }
            stream.fill_batch(k, &mut batch);
            ev.eval(&batch);
            let applied = (span.start + k) * 64;
            let lanes = (max_patterns - applied).min(64);
            let lanes_mask = if lanes == 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            live.retain(|&fi| {
                let differ = ev.fault_diff64(&prepared[fi]) & lanes_mask;
                if differ != 0 {
                    let first_lane = differ.trailing_zeros() as u64;
                    detected_at[fi] = Some(applied + first_lane + 1);
                    false // drop
                } else {
                    true
                }
            });
        }
        detected_at
    }

    /// Applies an explicit deterministic pattern set (each pattern a PI
    /// assignment); useful for validating ATPG test sets.
    pub fn run_patterns(&self, faults: &[FaultEntry], patterns: &[Vec<bool>]) -> FsimOutcome {
        let n = self.net.primary_inputs().len();
        let mut ev = PackedEvaluator::new(self.net);
        let prepared: Vec<_> = faults
            .iter()
            .map(|e| self.net.prepare_fault(&e.fault))
            .collect();
        let mut detected_at: Vec<Option<u64>> = vec![None; faults.len()];
        let mut live: Vec<usize> = (0..faults.len()).collect();
        let mut detected = 0usize;
        let mut applied = 0u64;
        let mut curve = Vec::new();
        let mut batch = vec![0u64; n];
        for chunk in patterns.chunks(64) {
            batch.fill(0);
            for (lane, pat) in chunk.iter().enumerate() {
                assert_eq!(pat.len(), n, "pattern arity mismatch");
                for (i, &b) in pat.iter().enumerate() {
                    if b {
                        batch[i] |= 1 << lane;
                    }
                }
            }
            let lanes_mask = if chunk.len() == 64 {
                u64::MAX
            } else {
                (1u64 << chunk.len()) - 1
            };
            ev.eval(&batch);
            live.retain(|&fi| {
                let differ = ev.fault_diff64(&prepared[fi]) & lanes_mask;
                if differ != 0 {
                    let first_lane = differ.trailing_zeros() as u64;
                    detected_at[fi] = Some(applied + first_lane + 1);
                    detected += 1;
                    false
                } else {
                    true
                }
            });
            applied += chunk.len() as u64;
            curve.push((applied, detected));
        }
        FsimOutcome {
            detected_at,
            patterns_applied: applied,
            coverage_curve: curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::RunStatus;
    use crate::list::network_fault_list;
    use dynmos_netlist::generate::{
        and_or_tree, array_multiplier, c17_dynamic_nmos, domino_wide_and, fig9_cell,
        single_cell_network,
    };

    /// Index of the constant-0 gate-function class (the s0-z fault).
    fn s0z_index(list: &[FaultEntry]) -> usize {
        list.iter()
            .position(|e| {
                matches!(&e.fault,
                    dynmos_netlist::NetworkFault::GateFunction(_, f)
                        if *f == dynmos_logic::Bexpr::FALSE)
            })
            .expect("s0-z class exists")
    }

    #[test]
    fn random_simulation_reaches_full_coverage_on_fig9() {
        let net = single_cell_network(fig9_cell());
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(11, 5);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 10_000);
        assert_eq!(out.coverage(), 1.0, "escapes: {:?}", out.escapes());
    }

    #[test]
    fn coverage_curve_is_monotone() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(3, 5);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 1024);
        for w in out.coverage_curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn hard_fault_detected_late_under_uniform() {
        let n = 10;
        let net = single_cell_network(domino_wide_and(n));
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(19, n);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 200_000);
        let hard = s0z_index(&faults);
        let t = out.detected_at[hard].expect("should eventually hit all-ones");
        // Expected detection time ~2^10 = 1024; allow wide slack but
        // require it to be non-trivial.
        assert!(t > 64, "detected suspiciously early: {t}");
    }

    #[test]
    fn weighted_patterns_detect_hard_fault_much_faster() {
        let n = 10;
        let net = single_cell_network(domino_wide_and(n));
        let faults = network_fault_list(&net);
        let hard = s0z_index(&faults);
        let mut uni = PatternSource::uniform(19, n);
        let mut opt = PatternSource::new(19, vec![0.9375; n]);
        let sim = FaultSimulator::new(&net);
        let t_uni = sim.run_random(&faults, &mut uni, 500_000).detected_at[hard].unwrap();
        let t_opt = sim.run_random(&faults, &mut opt, 500_000).detected_at[hard].unwrap();
        assert!(
            t_uni > 10 * t_opt,
            "weighted {t_opt} should be >10x faster than uniform {t_uni}"
        );
    }

    #[test]
    fn deterministic_pattern_set_detection() {
        let net = single_cell_network(fig9_cell());
        let faults = network_fault_list(&net);
        // Exhaustive 32-pattern set must catch everything.
        let patterns: Vec<Vec<bool>> = (0..32u64)
            .map(|w| (0..5).map(|i| (w >> i) & 1 == 1).collect())
            .collect();
        let out = FaultSimulator::new(&net).run_patterns(&faults, &patterns);
        assert_eq!(out.coverage(), 1.0);
        assert_eq!(out.patterns_applied, 32);
    }

    #[test]
    fn partial_pattern_set_leaves_escapes() {
        let net = single_cell_network(domino_wide_and(8));
        let faults = network_fault_list(&net);
        // All-zeros only: detects s1-z-ish faults, misses s0-z.
        let out = FaultSimulator::new(&net).run_patterns(&faults, &[vec![false; 8]]);
        assert!(out.coverage() < 1.0);
        assert!(!out.escapes().is_empty());
    }

    #[test]
    fn run_random_respects_non_multiple_of_64_budget() {
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(19, 10);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 100);
        assert!(out.patterns_applied <= 100, "{}", out.patterns_applied);
        for d in out.detected_at.iter().flatten() {
            assert!(*d <= 100, "detection index {d} exceeds budget");
        }
        assert!(out.coverage_curve.iter().all(|&(p, _)| p <= 100));
    }

    #[test]
    fn coverage_curve_counts_match_detected_at() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(7, 5);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 512);
        let (_, final_count) = *out.coverage_curve.last().unwrap();
        assert_eq!(
            final_count,
            out.detected_at.iter().filter(|d| d.is_some()).count()
        );
    }

    #[test]
    fn detection_times_are_one_based_and_bounded() {
        let net = and_or_tree(2);
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(5, 4);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 2048);
        for d in out.detected_at.iter().flatten() {
            assert!(*d >= 1 && *d <= out.patterns_applied);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let mut serial_src = PatternSource::uniform(23, 5);
        let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
            &faults,
            &mut serial_src,
            4096,
        );
        for threads in [2usize, 3, 8] {
            let mut src = PatternSource::uniform(23, 5);
            let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(threads));
            let out = sim.run_random(&faults, &mut src, 4096);
            assert_eq!(out.detected_at, serial.detected_at, "threads={threads}");
            assert_eq!(out.patterns_applied, serial.patterns_applied);
            assert_eq!(out.coverage_curve, serial.coverage_curve);
            assert_eq!(src.position(), serial_src.position());
        }
    }

    #[test]
    fn empty_fault_list_is_vacuously_covered() {
        // Convention: zero faults to find means nothing escaped — full
        // coverage, not the alarming 0.0 this used to report.
        let net = c17_dynamic_nmos();
        let mut src = PatternSource::uniform(1, 5);
        let out = FaultSimulator::new(&net).run_random(&[], &mut src, 128);
        assert_eq!(out.coverage(), 1.0);
        assert_eq!(out.patterns_applied, 0);
        assert!(out.escapes().is_empty());
        let from_patterns = FaultSimulator::new(&net).run_patterns(&[], &[vec![false; 5]]);
        assert_eq!(from_patterns.coverage(), 1.0);
    }

    #[test]
    fn few_fault_pattern_axis_matches_serial() {
        // 2 live faults < threads forces the pattern-axis plan; the
        // min-detection-index merge must reproduce the serial run.
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        let hard = s0z_index(&faults);
        let few = vec![faults[0].clone(), faults[hard].clone()];
        let mut serial_src = PatternSource::uniform(19, 10);
        let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
            &few,
            &mut serial_src,
            100_000,
        );
        for threads in [4usize, 8, 16] {
            let mut src = PatternSource::uniform(19, 10);
            let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(threads));
            let out = sim.run_random(&few, &mut src, 100_000);
            assert_eq!(out.detected_at, serial.detected_at, "threads={threads}");
            assert_eq!(out.patterns_applied, serial.patterns_applied);
            assert_eq!(out.coverage_curve, serial.coverage_curve);
            assert_eq!(src.position(), serial_src.position());
        }
    }

    #[test]
    fn pattern_cap_interrupts_and_resume_matches_uninterrupted() {
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        let sim = FaultSimulator::with_parallelism(&net, Parallelism::Serial);
        let mut full_src = PatternSource::uniform(19, 10);
        let full = sim.run_random(&faults, &mut full_src, 100_000);
        // 256 patterns per call: far below the hard fault's detection
        // time, so the cap interrupts repeatedly before completion.
        let cap = RunBudget::unlimited().with_max_patterns(256);
        let mut src = PatternSource::uniform(19, 10);
        let mut run = sim.run_random_budgeted(&faults, &mut src, 100_000, &cap, None);
        let mut legs = 0usize;
        while let Some(cp) = run.checkpoint.take() {
            assert_eq!(run.status, RunStatus::Interrupted(StopReason::PatternCap));
            assert_eq!(run.output.patterns_applied, cp.patterns_done());
            legs += 1;
            assert!(legs < 10_000, "resume loop failed to make progress");
            run = sim.run_random_budgeted(&faults, &mut src, 100_000, &cap, Some(cp));
        }
        assert!(legs > 0, "cap never interrupted");
        assert_eq!(run.status, RunStatus::Completed);
        assert_eq!(run.output.detected_at, full.detected_at);
        assert_eq!(run.output.patterns_applied, full.patterns_applied);
        assert_eq!(run.output.coverage_curve, full.coverage_curve);
        assert_eq!(src.position(), full_src.position());
    }

    #[test]
    fn cancel_interrupts_after_one_chunk_of_forward_progress() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        // Heavily biased-low inputs: the all-ones fault never fires, so
        // the run cannot complete early and the cancel must be honored.
        let mut src = PatternSource::new(19, vec![0.0625; 10]);
        let pre_cancelled = Arc::new(AtomicBool::new(true));
        let b = RunBudget::unlimited().with_cancel(pre_cancelled);
        let sim = FaultSimulator::with_parallelism(&net, Parallelism::Serial);
        let run = sim.run_random_budgeted(&faults, &mut src, 1_000_000, &b, None);
        assert_eq!(run.status, RunStatus::Interrupted(StopReason::Cancelled));
        // Forward progress: exactly one chunk ran before the (already
        // raised) flag was checked.
        assert_eq!(run.output.patterns_applied, CHUNK_BATCHES * 64);
        let cp = run
            .checkpoint
            .expect("interrupted run carries a checkpoint");
        assert_eq!(cp.patterns_done(), CHUNK_BATCHES * 64);
        assert_eq!(src.position(), CHUNK_BATCHES);
    }

    #[test]
    fn interrupted_outcome_is_a_valid_partial_result() {
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        let sim = FaultSimulator::with_parallelism(&net, Parallelism::Serial);
        let mut src = PatternSource::uniform(19, 10);
        let cap = RunBudget::unlimited().with_max_patterns(256);
        let run = sim.run_random_budgeted(&faults, &mut src, 100_000, &cap, None);
        // The partial outcome must agree with an unbudgeted run whose
        // whole budget is the patterns applied so far.
        let mut trunc_src = PatternSource::uniform(19, 10);
        let trunc = sim.run_random(&faults, &mut trunc_src, run.output.patterns_applied);
        assert_eq!(run.output.detected_at, trunc.detected_at);
        assert_eq!(run.output.coverage_curve, trunc.coverage_curve);
    }

    #[test]
    fn top_off_escape_replays_a_small_share_of_its_cone() {
        // The escape of a serial 2^16-pattern uniform run (seed 1) on
        // array_multiplier(12), the fault a few-fault top-off run
        // simulates, replayed over 256 batches with non-dyadic weights.
        let net = array_multiplier(12);
        let all = network_fault_list(&net);
        let inputs = net.primary_inputs().len();
        let uniform = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
            &all,
            &mut PatternSource::uniform(1, inputs),
            1 << 16,
        );
        let [escape] = uniform.escapes()[..] else {
            panic!("expected one escape, got {:?}", uniform.escapes());
        };
        let prepared = net.prepare_fault(&all[escape].fault);
        assert_eq!(prepared.cone_size(), 599, "{}", all[escape].label);
        let weights = (0..inputs as u64)
            .map(|i| 0.25 + 0.5 * (crate::chaos::mix64(7 ^ i) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        let src = PatternSource::new(7, weights);
        let mut ev = PackedEvaluator::new(&net);
        let mut batch = vec![0u64; inputs];
        const BATCHES: u64 = 256;
        for k in 0..BATCHES {
            src.fill_batch_at(k, &mut batch);
            ev.eval(&batch);
            ev.fault_diff64(&prepared);
        }
        let mean = ev.gates_replayed() as f64 / BATCHES as f64;
        assert!(
            mean < 0.05 * prepared.cone_size() as f64,
            "{mean} gates replayed per batch of a {}-gate cone",
            prepared.cone_size()
        );
    }

    #[test]
    fn run_random_advances_source_cursor() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(2, 5);
        let sim = FaultSimulator::new(&net);
        let first = sim.run_random(&faults, &mut src, 256);
        // The cursor moved past the consumed batches, so a second run
        // sees fresh patterns.
        assert_eq!(src.position(), first.patterns_applied.div_ceil(64));
    }
}
