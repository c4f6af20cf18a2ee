//! The [`JobKernel`] abstraction and the built-in job kinds.
//!
//! A job runs in supervisor-scheduled **legs**: each
//! [`JobKernel::run_leg`] call advances the job under one
//! [`RunBudget`] and returns whether the job completed or stopped at a
//! checkpointable boundary. Jobs commit state **only on return** — a
//! leg that dies mid-flight (injected kill, worker panic) leaves the job
//! exactly at its previous checkpoint, which is what makes supervisor
//! retries bit-identical to an uninterrupted run.
//!
//! Every built-in kind is a [`Kernel`]: request parsing, one call of a
//! budgeted entry point of the shape `run(budget, resume) ->
//! Run<Output, Checkpoint>`, and the output JSON. The one generic
//! adapter [`KernelJob`] turns a kernel into a [`JobKernel`]: it carries
//! the checkpoint between legs, and the checkpoint's [`Checkpoint`]
//! codec is the journaled snapshot. A null snapshot means "no
//! checkpoint yet", so the job starts from scratch.

use crate::budget::{Checkpoint, NoCheckpoint, Run, RunBudget, RunStatus};
use crate::detect::{detection_probability_estimates, DetectionEstimate};
use crate::fsim::{FaultSimulator, FsimCheckpoint, FsimOutcome};
use crate::length::{test_length_budgeted, LengthError};
use crate::list::FaultEntry;
use crate::montecarlo::{
    mc_detection_probabilities_budgeted, mc_signal_probability_budgeted, Estimate, McCheckpoint,
};
use crate::optimize::{optimize_input_probabilities_budgeted, OptimizeReport, OPT_MC_SEED};
use crate::parallel::Parallelism;
use crate::random::PatternSource;
use crate::service::json::Json;
use crate::testability::{
    estimate_json, tier_census, TestabilityCheckpoint, TestabilityConfig, TierMode,
};
use dynmos_netlist::Network;
use std::sync::Arc;

/// Default seed for kernels whose request omits one (shared with the
/// `faultlib` CLI).
pub const DEFAULT_SEED: u64 = 0x00DA_C086;

/// Default pattern/sample budget for fsim and Monte Carlo jobs.
const DEFAULT_WORK: u64 = 10_000;

/// Default confidence for length/optimize jobs.
const DEFAULT_CONFIDENCE: f64 = 0.999;

/// Largest `tighten_samples` a request may ask for (256 ×
/// [`crate::DEFAULT_TIGHTEN_SAMPLES`]). Cutting-tier tightening runs
/// outside the job budget, so an unbounded count could overrun any
/// deadline.
const MAX_TIGHTEN_SAMPLES: u64 = 1 << 20;

/// Everything a kernel factory gets to build a job from a request.
pub struct JobContext<'a> {
    /// The compiled network (shared with the cache).
    pub net: Arc<Network>,
    /// The fault list derived from the request.
    pub faults: Vec<FaultEntry>,
    /// The engine's thread policy.
    pub parallelism: Parallelism,
    /// The raw request object — kernels read their parameters from it
    /// (see [`param_u64`] and friends).
    pub params: &'a Json,
}

/// What every job runs on: the [`JobContext`] minus the request.
pub struct JobTarget {
    /// The compiled network.
    pub net: Arc<Network>,
    /// The job's fault list.
    pub faults: Vec<FaultEntry>,
    /// The engine's thread policy.
    pub parallelism: Parallelism,
}

/// One supervised job: a budgeted PROTEST kernel plus enough state to
/// resume across legs.
pub trait JobKernel: Send {
    /// Advances the job under `budget`. Must commit state only on
    /// return, and must make forward progress on every call with a
    /// non-degenerate budget (the underlying kernels guarantee one
    /// chunk per call).
    fn run_leg(&mut self, budget: &RunBudget) -> RunStatus;

    /// The job's result so far — a deterministic JSON value (partial
    /// results are valid for interrupted jobs; completed jobs report
    /// results bit-identical to an uninterrupted run).
    fn output(&self) -> Json;

    /// The last worker failure this job observed, if any.
    fn last_error(&self) -> Option<String>;

    /// The job's serializable resume state — everything committed at
    /// the last returned leg, as JSON the write-ahead journal can
    /// persist. Snapshots carry *resume* state only, never terminal
    /// output; a completed job is journaled via its terminal record
    /// instead.
    fn snapshot(&self) -> Json;

    /// Restores a job freshly built from its original request to a
    /// prior [`JobKernel::snapshot`]. Resuming from the restored state
    /// completes bit-identical to the uninterrupted run (the service
    /// determinism contract, now across process boundaries).
    ///
    /// # Errors
    ///
    /// Returns a message naming the kind when the snapshot does not
    /// decode — the journal is then treated as corrupt.
    fn restore(&mut self, snapshot: &Json) -> Result<(), String>;
}

/// One job kind: the request's parameters, a call of the kind's
/// budgeted entry point (the resumable shape every kernel in this crate
/// shares), and the kind's output JSON.
pub trait Kernel: Send + 'static {
    /// What a (possibly partial) run produces.
    type Output: Send;
    /// The resumable state between legs — also the job snapshot.
    type Checkpoint: Checkpoint;

    /// Runs one leg on `target` under `budget`, from `resume` when a
    /// previous leg was interrupted.
    fn run(
        &self,
        target: &JobTarget,
        budget: &RunBudget,
        resume: Option<Self::Checkpoint>,
    ) -> Run<Self::Output, Self::Checkpoint>;

    /// The job's result JSON: `output` is the last leg's, `None` before
    /// any leg returned.
    fn output_json(&self, kind: &str, output: Option<&Self::Output>, complete: bool) -> Json;
}

/// The generic adapter from a [`Kernel`] to a supervised [`JobKernel`]:
/// the leg state machine, snapshot/restore via the checkpoint codec, and
/// the last worker error.
pub struct KernelJob<K: Kernel> {
    kind: &'static str,
    target: JobTarget,
    kernel: K,
    checkpoint: Option<K::Checkpoint>,
    output: Option<K::Output>,
    complete: bool,
    error: Option<String>,
}

impl<K: Kernel> KernelJob<K> {
    /// Builds a job of kind `kind` from a request: `parse` reads the
    /// kernel's parameters, the rest of `ctx` becomes the job's target.
    ///
    /// # Errors
    ///
    /// Returns `parse`'s message for an invalid request.
    pub fn build(
        kind: &'static str,
        ctx: JobContext<'_>,
        parse: impl FnOnce(&JobContext<'_>) -> Result<K, String>,
    ) -> Result<Box<dyn JobKernel>, String> {
        let kernel = parse(&ctx)?;
        Ok(Box::new(Self {
            kind,
            target: JobTarget {
                net: ctx.net,
                faults: ctx.faults,
                parallelism: ctx.parallelism,
            },
            kernel,
            checkpoint: None,
            output: None,
            complete: false,
            error: None,
        }))
    }
}

impl<K: Kernel> JobKernel for KernelJob<K> {
    fn run_leg(&mut self, budget: &RunBudget) -> RunStatus {
        // The checkpoint is cloned, not taken: a leg that panics leaves
        // the job at its last committed state.
        let run = self
            .kernel
            .run(&self.target, budget, self.checkpoint.clone());
        self.error = run.worker_error.map(|e| e.to_string());
        self.checkpoint = run.checkpoint;
        self.complete = run.status.is_complete();
        self.output = Some(run.output);
        run.status
    }

    fn output(&self) -> Json {
        self.kernel
            .output_json(self.kind, self.output.as_ref(), self.complete)
    }

    fn last_error(&self) -> Option<String> {
        self.error.clone()
    }

    fn snapshot(&self) -> Json {
        self.checkpoint
            .as_ref()
            .map_or(Json::Null, Checkpoint::to_json)
    }

    fn restore(&mut self, snapshot: &Json) -> Result<(), String> {
        self.checkpoint = match snapshot {
            Json::Null => None,
            other => Some(
                K::Checkpoint::from_json(other)
                    .map_err(|e| format!("{} snapshot: {e}", self.kind))?,
            ),
        };
        Ok(())
    }
}

/// Reads an unsigned-integer parameter with a default.
pub fn param_u64(params: &Json, key: &str, default: u64) -> u64 {
    params.get(key).and_then(Json::as_u64).unwrap_or(default)
}

/// Reads the per-input probability vector: the request's `probs` array
/// when present (validated for arity and range), else 0.5 for every
/// input.
///
/// # Errors
///
/// Returns a message on arity mismatch, non-numbers, or values outside
/// `[0, 1]`.
pub fn param_probs(ctx: &JobContext<'_>) -> Result<Vec<f64>, String> {
    let n = ctx.net.primary_inputs().len();
    match ctx.params.get("probs") {
        None => Ok(vec![0.5; n]),
        Some(Json::Arr(items)) => {
            if items.len() != n {
                return Err(format!(
                    "probs has {} entries, network has {n} inputs",
                    items.len()
                ));
            }
            items
                .iter()
                .map(|v| match v.as_f64() {
                    Some(p) if (0.0..=1.0).contains(&p) => Ok(p),
                    _ => Err(format!("probs entry {v} is not a probability")),
                })
                .collect()
        }
        Some(other) => Err(format!("probs must be an array, got {other}")),
    }
}

/// Reads the `confidence` of a length/optimize request, refusing what
/// the test-length search would reject: a confidence outside `(0, 1)`
/// or an empty fault list.
fn param_confidence(ctx: &JobContext<'_>) -> Result<f64, String> {
    let confidence = ctx
        .params
        .get("confidence")
        .and_then(Json::as_f64)
        .unwrap_or(DEFAULT_CONFIDENCE);
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(LengthError::BadConfidence(confidence).to_string());
    }
    if ctx.faults.is_empty() {
        return Err(LengthError::EmptyFaultList.to_string());
    }
    Ok(confidence)
}

/// Weighted-random fault simulation ([`FaultSimulator`]).
pub struct FsimJob {
    seed: u64,
    probs: Vec<f64>,
    max_patterns: u64,
}

impl FsimJob {
    /// Reads the request (`patterns`, `seed`, `probs`).
    ///
    /// # Errors
    ///
    /// Returns a message for invalid `probs`.
    pub fn from_request(ctx: &JobContext<'_>) -> Result<Self, String> {
        Ok(Self {
            probs: param_probs(ctx)?,
            seed: param_u64(ctx.params, "seed", DEFAULT_SEED),
            max_patterns: param_u64(ctx.params, "patterns", DEFAULT_WORK),
        })
    }
}

impl Kernel for FsimJob {
    type Output = FsimOutcome;
    type Checkpoint = FsimCheckpoint;

    fn run(
        &self,
        t: &JobTarget,
        budget: &RunBudget,
        resume: Option<FsimCheckpoint>,
    ) -> Run<FsimOutcome, FsimCheckpoint> {
        // The source is rebuilt per leg: batch addressing in the
        // checkpoint is absolute, so only the stream (seed + weights)
        // matters, not a cursor surviving between legs.
        let mut src = PatternSource::new(self.seed, self.probs.clone());
        FaultSimulator::with_parallelism(&t.net, t.parallelism).run_random_budgeted(
            &t.faults,
            &mut src,
            self.max_patterns,
            budget,
            resume,
        )
    }

    fn output_json(&self, kind: &str, output: Option<&FsimOutcome>, complete: bool) -> Json {
        let Some(out) = output else {
            return Json::Obj(vec![("kind".into(), Json::str(kind))]);
        };
        Json::Obj(vec![
            ("kind".into(), Json::str(kind)),
            ("patterns".into(), Json::num(out.patterns_applied)),
            ("coverage".into(), Json::Num(out.coverage())),
            (
                "detected_at".into(),
                Json::Arr(
                    out.detected_at
                        .iter()
                        .map(|d| d.map_or(Json::Null, Json::num))
                        .collect(),
                ),
            ),
            ("complete".into(), Json::Bool(complete)),
        ])
    }
}

/// The JSON fields of a Monte Carlo [`Estimate`].
fn mc_estimate_fields(e: &Estimate) -> Vec<(String, Json)> {
    vec![
        ("value".into(), Json::Num(e.value)),
        ("half_width".into(), Json::Num(e.half_width)),
        ("samples".into(), Json::num(e.samples)),
    ]
}

/// Monte Carlo detection-probability estimation.
pub struct McDetectJob {
    seed: u64,
    probs: Vec<f64>,
    samples: u64,
}

impl McDetectJob {
    /// Reads the request (`samples`, `seed`, `probs`).
    ///
    /// # Errors
    ///
    /// Returns a message for invalid `probs`.
    pub fn from_request(ctx: &JobContext<'_>) -> Result<Self, String> {
        Ok(Self {
            probs: param_probs(ctx)?,
            seed: param_u64(ctx.params, "seed", DEFAULT_SEED),
            samples: param_u64(ctx.params, "samples", DEFAULT_WORK).max(1),
        })
    }
}

impl Kernel for McDetectJob {
    type Output = Vec<Estimate>;
    type Checkpoint = McCheckpoint;

    fn run(
        &self,
        t: &JobTarget,
        budget: &RunBudget,
        resume: Option<McCheckpoint>,
    ) -> Run<Vec<Estimate>, McCheckpoint> {
        mc_detection_probabilities_budgeted(
            &t.net,
            &t.faults,
            &self.probs,
            self.seed,
            self.samples,
            t.parallelism,
            budget,
            resume,
        )
    }

    fn output_json(&self, kind: &str, output: Option<&Vec<Estimate>>, complete: bool) -> Json {
        let estimates = output.map_or(&[][..], Vec::as_slice);
        Json::Obj(vec![
            ("kind".into(), Json::str(kind)),
            (
                "estimates".into(),
                Json::Arr(
                    estimates
                        .iter()
                        .map(|e| Json::Obj(mc_estimate_fields(e)))
                        .collect(),
                ),
            ),
            ("complete".into(), Json::Bool(complete)),
        ])
    }
}

/// Monte Carlo signal-probability estimation for one primary output.
pub struct McSignalJob {
    estimator: McDetectJob,
    output: usize,
}

impl McSignalJob {
    /// Reads the request (`output` index, `samples`, `seed`, `probs`).
    ///
    /// # Errors
    ///
    /// Returns a message for invalid `probs` or an out-of-range
    /// `output`.
    pub fn from_request(ctx: &JobContext<'_>) -> Result<Self, String> {
        let outputs = ctx.net.primary_outputs().len();
        let output = param_u64(ctx.params, "output", 0) as usize;
        if output >= outputs {
            return Err(format!(
                "output index {output} out of range (network has {outputs} outputs)"
            ));
        }
        Ok(Self {
            estimator: McDetectJob::from_request(ctx)?,
            output,
        })
    }
}

impl Kernel for McSignalJob {
    type Output = Estimate;
    type Checkpoint = McCheckpoint;

    fn run(
        &self,
        t: &JobTarget,
        budget: &RunBudget,
        resume: Option<McCheckpoint>,
    ) -> Run<Estimate, McCheckpoint> {
        let e = &self.estimator;
        mc_signal_probability_budgeted(
            &t.net,
            t.net.primary_outputs()[self.output],
            &e.probs,
            e.seed,
            e.samples,
            t.parallelism,
            budget,
            resume,
        )
    }

    fn output_json(&self, kind: &str, output: Option<&Estimate>, complete: bool) -> Json {
        let mut members = vec![
            ("kind".into(), Json::str(kind)),
            ("output".into(), Json::num(self.output as u64)),
        ];
        members.extend(output.into_iter().flat_map(mc_estimate_fields));
        members.push(("complete".into(), Json::Bool(complete)));
        Json::Obj(members)
    }
}

/// Streaming tiered testability ([`detection_probability_estimates`]),
/// committed one fault at a time: the checkpoint carries every committed
/// estimate, so a resumed job continues at the last fault boundary. The
/// `detect` kind is an alias of this kernel.
pub struct TestabilityJob {
    probs: Vec<f64>,
    config: TestabilityConfig,
    max_exact_rows: Option<u64>,
}

impl TestabilityJob {
    /// Reads the request (`probs`, `seed`, `mode`, `node_budget`,
    /// `tighten_samples`, `max_exact_rows`). An absent `mode` follows
    /// the process-wide `DYNMOS_TESTABILITY` policy.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid `probs`, an unknown `mode`, or a
    /// `tighten_samples` above 2^20.
    pub fn from_request(ctx: &JobContext<'_>) -> Result<Self, String> {
        let mut config =
            TestabilityConfig::from_env().with_seed(param_u64(ctx.params, "seed", DEFAULT_SEED));
        if let Some(token) = ctx.params.get("mode").and_then(Json::as_str) {
            config = config.with_mode(TierMode::parse(token)?);
        }
        if let Some(nodes) = ctx.params.get("node_budget").and_then(Json::as_u64) {
            config = config.with_node_budget(nodes as usize);
        }
        if let Some(samples) = ctx.params.get("tighten_samples").and_then(Json::as_u64) {
            if samples > MAX_TIGHTEN_SAMPLES {
                return Err(format!(
                    "tighten_samples {samples} exceeds the limit of {MAX_TIGHTEN_SAMPLES}"
                ));
            }
            config = config.with_mc_tighten_samples(samples);
        }
        Ok(Self {
            probs: param_probs(ctx)?,
            config,
            max_exact_rows: ctx.params.get("max_exact_rows").and_then(Json::as_u64),
        })
    }
}

impl Kernel for TestabilityJob {
    type Output = Vec<DetectionEstimate>;
    type Checkpoint = TestabilityCheckpoint;

    fn run(
        &self,
        t: &JobTarget,
        budget: &RunBudget,
        resume: Option<TestabilityCheckpoint>,
    ) -> Run<Vec<DetectionEstimate>, TestabilityCheckpoint> {
        let mut budget = budget.clone();
        budget.max_exact_rows = self.max_exact_rows.or(budget.max_exact_rows);
        detection_probability_estimates(
            &t.net,
            &t.faults,
            &self.probs,
            &self.config,
            t.parallelism,
            &budget,
            resume,
        )
    }

    fn output_json(
        &self,
        kind: &str,
        output: Option<&Vec<DetectionEstimate>>,
        complete: bool,
    ) -> Json {
        let estimates = output.map_or(&[][..], Vec::as_slice);
        Json::Obj(vec![
            ("kind".into(), Json::str(kind)),
            (
                "estimates".into(),
                Json::Arr(estimates.iter().map(estimate_json).collect()),
            ),
            (
                "tiers".into(),
                Json::str(tier_census(estimates.iter().map(|e| &e.method))),
            ),
            ("complete".into(), Json::Bool(complete)),
        ])
    }
}

/// Two-phase test length: detection probabilities (phase 1, the
/// streaming testability kernel), then the joint-confidence length
/// search (phase 2, no checkpoint — an interrupted search restarts).
/// The checkpoint is phase 1's: once it holds every fault, later legs
/// skip straight to the search.
pub struct TestLengthJob {
    estimates: TestabilityJob,
    confidence: f64,
}

impl TestLengthJob {
    /// Reads the request (`confidence`, `seed`, `probs`).
    ///
    /// # Errors
    ///
    /// Returns a message for invalid `probs`, a `confidence` outside
    /// `(0, 1)`, or an empty fault list.
    pub fn from_request(ctx: &JobContext<'_>) -> Result<Self, String> {
        let estimates = TestabilityJob {
            probs: param_probs(ctx)?,
            config: TestabilityConfig::from_env().with_seed(param_u64(
                ctx.params,
                "seed",
                DEFAULT_SEED,
            )),
            max_exact_rows: None,
        };
        Ok(Self {
            estimates,
            confidence: param_confidence(ctx)?,
        })
    }
}

impl Kernel for TestLengthJob {
    type Output = Option<u64>;
    type Checkpoint = TestabilityCheckpoint;

    fn run(
        &self,
        t: &JobTarget,
        budget: &RunBudget,
        resume: Option<TestabilityCheckpoint>,
    ) -> Run<Option<u64>, TestabilityCheckpoint> {
        let phase1 = match resume {
            Some(cp) if cp.estimates.len() == t.faults.len() => cp,
            resume => {
                let run = self.estimates.run(t, budget, resume);
                if !run.status.is_complete() {
                    return run.map(|_| None);
                }
                let cp = TestabilityCheckpoint {
                    estimates: run.output,
                };
                // Phase boundary: honor the budget before starting the
                // search so a timed-out leg checkpoints here.
                if let Some(reason) = budget.stop_requested() {
                    return Run::interrupted(None, reason, cp);
                }
                cp
            }
        };
        let values: Vec<f64> = phase1.estimates.iter().map(|e| e.value).collect();
        match test_length_budgeted(&values, self.confidence, t.parallelism, budget) {
            Ok(n) => Run::completed(Some(n)),
            Err(LengthError::Interrupted(reason)) => Run::interrupted(None, reason, phase1),
            // Confidence and fault count were validated at submit.
            Err(e) => panic!("{e}"),
        }
    }

    fn output_json(&self, kind: &str, output: Option<&Option<u64>>, complete: bool) -> Json {
        let mut members = vec![
            ("kind".into(), Json::str(kind)),
            ("confidence".into(), Json::Num(self.confidence)),
        ];
        match output.copied().flatten() {
            // u64::MAX is the kernels' "some fault is never detected"
            // sentinel; JSON readers get an explicit flag instead.
            Some(u64::MAX) => {
                members.push(("length".into(), Json::Null));
                members.push(("unbounded".into(), Json::Bool(true)));
            }
            Some(n) => members.push(("length".into(), Json::num(n))),
            None => members.push(("length".into(), Json::Null)),
        }
        members.push(("complete".into(), Json::Bool(complete)));
        Json::Obj(members)
    }
}

/// Input-probability optimization
/// ([`optimize_input_probabilities_budgeted`]). The descent has no
/// checkpoint: an interrupted leg (or a crash-recovered job) restarts
/// it, and the job reports the last leg's report.
pub struct OptimizeJob {
    confidence: f64,
    max_sweeps: usize,
}

impl OptimizeJob {
    /// Reads the request (`confidence`, `max_sweeps`).
    ///
    /// # Errors
    ///
    /// Returns a message for a `confidence` outside `(0, 1)` or an
    /// empty fault list.
    pub fn from_request(ctx: &JobContext<'_>) -> Result<Self, String> {
        Ok(Self {
            confidence: param_confidence(ctx)?,
            max_sweeps: param_u64(ctx.params, "max_sweeps", 2) as usize,
        })
    }
}

impl Kernel for OptimizeJob {
    type Output = OptimizeReport;
    type Checkpoint = NoCheckpoint;

    fn run(
        &self,
        t: &JobTarget,
        budget: &RunBudget,
        _: Option<NoCheckpoint>,
    ) -> Run<OptimizeReport, NoCheckpoint> {
        optimize_input_probabilities_budgeted(
            &t.net,
            &t.faults,
            self.confidence,
            self.max_sweeps,
            &TestabilityConfig::from_env().with_seed(OPT_MC_SEED),
            t.parallelism,
            budget,
        )
    }

    fn output_json(&self, kind: &str, output: Option<&OptimizeReport>, complete: bool) -> Json {
        let mut members = vec![("kind".into(), Json::str(kind))];
        if let Some(r) = output {
            members.push((
                "probabilities".into(),
                Json::Arr(r.probabilities.iter().map(|&p| Json::Num(p)).collect()),
            ));
            members.push(("uniform_length".into(), Json::num(r.uniform_length)));
            members.push(("optimized_length".into(), Json::num(r.optimized_length)));
            members.push(("sweeps".into(), Json::num(r.sweeps as u64)));
            members.push(("tiers".into(), Json::str(tier_census(&r.methods))));
        }
        members.push(("complete".into(), Json::Bool(complete)));
        Json::Obj(members)
    }
}

/// Builds a built-in job for `kind`, or `None` when the kind is not
/// built in (the engine then consults its registered factories).
///
/// Built-in kinds: `fsim`, `mc-detect`, `mc-signal`, `detect` (an alias
/// of `testability`), `length`, `optimize`, `testability`.
pub fn build_builtin(
    kind: &str,
    ctx: JobContext<'_>,
) -> Option<Result<Box<dyn JobKernel>, String>> {
    Some(match kind {
        "fsim" => KernelJob::build("fsim", ctx, FsimJob::from_request),
        "mc-detect" => KernelJob::build("mc-detect", ctx, McDetectJob::from_request),
        "mc-signal" => KernelJob::build("mc-signal", ctx, McSignalJob::from_request),
        "detect" => KernelJob::build("detect", ctx, TestabilityJob::from_request),
        "length" => KernelJob::build("length", ctx, TestLengthJob::from_request),
        "optimize" => KernelJob::build("optimize", ctx, OptimizeJob::from_request),
        "testability" => KernelJob::build("testability", ctx, TestabilityJob::from_request),
        _ => return None,
    })
}
