//! Tiered detection-probability engine — testability analysis past the
//! enumeration wall.
//!
//! The exact enumerator walks all `2^n` input rows and therefore caps
//! every optimal-weights experiment at toy input counts. This module
//! lowers the detectability function onto [`dynmos_logic::bdd`] instead
//! and arranges three tiers behind one interface:
//!
//! 1. **Exact enumeration** ([`ExactDetector`]) when the row space fits
//!    [`RunBudget::effective_exact_rows`] — bit-identical to the historic
//!    path, still the small-circuit oracle.
//! 2. **BDD**: the good machine is built once over a fanin-driven
//!    variable order (DFS from the primary outputs through the drivers,
//!    which interleaves related inputs — linear-sized BDDs for
//!    ripple/chain structures); per fault only the fanout cone is rebuilt
//!    with the fault injected, XORed at the observable outputs, and the
//!    detection probability is one linear bottom-up pass
//!    ([`Bdd::probability`]). A hard node budget turns pathological
//!    growth into a graceful [`BddOverflow`](dynmos_logic::BddOverflow)
//!    instead of unbounded memory use.
//! 3. **Cutting**: for over-budget cones, a cutting-style interval
//!    propagation in the spirit of the cutting algorithm — reconvergent
//!    fanout is "cut" by falling back to Fréchet bounds whenever two
//!    operand supports overlap, while provably independent operands
//!    (disjoint primary-input support) keep the exact product rules. The
//!    result is a certified `[low, high]` enclosure of the true
//!    detection probability for *any* reconvergence pattern, optionally
//!    tightened by the budgeted Monte Carlo estimators (the reported
//!    value is the sample mean clamped into the certified interval).
//!
//! Tier selection per (circuit, fault) is automatic and every estimate
//! carries its provenance in [`DetectionEstimate::method`]. The
//! `DYNMOS_TESTABILITY` environment variable (`auto`, `exact`, `bdd`,
//! `cutting`) forces a tier for the whole process — CI runs one leg with
//! `DYNMOS_TESTABILITY=bdd` to drive the symbolic tier over the entire
//! suite. A forced `bdd` still degrades per fault to `cutting` on node
//! overflow, and a forced `exact` falls back to the symbolic tiers when
//! the row space does not fit the budget (refusing outright would make
//! the knob unusable on exactly the circuits this engine exists for).

use crate::budget::{Checkpoint, RunBudget, RunStatus, StopReason};
use crate::detect::{row_space, DetectionEstimate, EstimateMethod, ExactDetector};
use crate::list::FaultEntry;
use crate::parallel::Parallelism;
use crate::service::json::Json;
use dynmos_logic::{Bdd, BddRef, Bexpr, VarId};
use dynmos_netlist::{Network, NetworkFault};
use std::collections::HashMap;

/// Default node budget for the per-circuit BDD manager.
pub const DEFAULT_NODE_BUDGET: usize = 1 << 20;

/// Default Monte Carlo sample count used to tighten cutting bounds
/// (`0` disables tightening; the midpoint of the interval is reported).
pub const DEFAULT_TIGHTEN_SAMPLES: u64 = 1 << 12;

/// Which engine tier(s) a [`DetectionEngine`] may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierMode {
    /// Pick per circuit and fault: exact when the row space fits the
    /// budget, else BDD, degrading per fault to cutting on overflow.
    #[default]
    Auto,
    /// Prefer exact enumeration. Falls back to the symbolic tiers when
    /// the row space exceeds the budget (exact is impossible there).
    Exact,
    /// Skip exact enumeration: BDD with per-fault cutting fallback.
    Bdd,
    /// Certified bounds only: no BDD construction at all.
    Cutting,
}

impl TierMode {
    /// Parses the `DYNMOS_TESTABILITY` value.
    pub fn parse(s: &str) -> Result<TierMode, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(TierMode::Auto),
            "exact" => Ok(TierMode::Exact),
            "bdd" => Ok(TierMode::Bdd),
            "cutting" => Ok(TierMode::Cutting),
            other => Err(format!(
                "unknown tier {other:?} (expected auto, exact, bdd or cutting)"
            )),
        }
    }

    /// The machine-readable token (`auto`, `exact`, `bdd`, `cutting`).
    pub fn token(self) -> &'static str {
        match self {
            TierMode::Auto => "auto",
            TierMode::Exact => "exact",
            TierMode::Bdd => "bdd",
            TierMode::Cutting => "cutting",
        }
    }
}

/// Pure parse of a `DYNMOS_TESTABILITY` override: `None` when unset or
/// empty, the mode when valid.
///
/// # Panics
///
/// Panics on garbage — a mistyped tier must fail loudly, not silently
/// run a different engine (same contract as `DYNMOS_BUDGET_MS` and
/// `DYNMOS_THREADS`).
pub fn parse_testability_override(raw: Option<&str>) -> Option<TierMode> {
    let raw = raw?.trim();
    if raw.is_empty() {
        return None;
    }
    match TierMode::parse(raw) {
        Ok(mode) => Some(mode),
        Err(e) => panic!("invalid DYNMOS_TESTABILITY: {e}"),
    }
}

/// Reads the `DYNMOS_TESTABILITY` tier override from the environment.
///
/// # Panics
///
/// Panics if the variable is set to an unknown tier.
pub fn env_testability() -> Option<TierMode> {
    parse_testability_override(crate::env_contract::raw("DYNMOS_TESTABILITY").as_deref())
}

/// Configuration of a [`DetectionEngine`].
#[derive(Debug, Clone)]
pub struct TestabilityConfig {
    /// Tier selection policy.
    pub mode: TierMode,
    /// Hard cap on the BDD manager's node store.
    pub node_budget: usize,
    /// Monte Carlo samples for tightening cutting bounds (0 = off).
    pub mc_tighten_samples: u64,
    /// Base seed for the tightening sampler; each fault derives its own
    /// stream from `seed` and its fault index, so resuming a run at any
    /// fault boundary reproduces identical values.
    pub seed: u64,
}

impl TestabilityConfig {
    /// A configuration with the given tier policy and default budgets.
    pub fn new(mode: TierMode) -> Self {
        Self {
            mode,
            node_budget: DEFAULT_NODE_BUDGET,
            mc_tighten_samples: DEFAULT_TIGHTEN_SAMPLES,
            seed: 0,
        }
    }

    /// The process-wide configuration: tier from `DYNMOS_TESTABILITY`
    /// (default [`TierMode::Auto`]), default budgets.
    pub fn from_env() -> Self {
        Self::new(env_testability().unwrap_or_default())
    }

    /// Replaces the tier policy.
    pub fn with_mode(mut self, mode: TierMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the BDD node budget.
    pub fn with_node_budget(mut self, nodes: usize) -> Self {
        self.node_budget = nodes;
        self
    }

    /// Replaces the bound-tightening sample count (0 disables).
    pub fn with_mc_tighten_samples(mut self, samples: u64) -> Self {
        self.mc_tighten_samples = samples;
        self
    }

    /// Replaces the tightening seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for TestabilityConfig {
    fn default() -> Self {
        Self::new(TierMode::Auto)
    }
}

/// Formats per-fault methods as the machine-readable tier census used in
/// the CLI's `status=` stderr lines: `exact:N,bdd:N,cutting:N,mc:N`.
pub fn tier_census<'a>(methods: impl IntoIterator<Item = &'a EstimateMethod>) -> String {
    let (mut exact, mut bdd, mut cutting, mut mc) = (0usize, 0usize, 0usize, 0usize);
    for m in methods {
        match m {
            EstimateMethod::Exact => exact += 1,
            EstimateMethod::Bdd => bdd += 1,
            EstimateMethod::Cutting => cutting += 1,
            EstimateMethod::MonteCarlo => mc += 1,
        }
    }
    format!("exact:{exact},bdd:{bdd},cutting:{cutting},mc:{mc}")
}

/// Resumable state of an interrupted whole-list estimation
/// ([`crate::detection_probability_estimates`]): the committed
/// estimates of faults `0..estimates.len()`, in list order. Per-fault
/// values are batch-independent (see
/// [`DetectionEngine::estimates_from`]), so a run resumed here — even in
/// a fresh process — completes bit-identical to an uninterrupted one.
#[derive(Debug, Clone)]
pub struct TestabilityCheckpoint {
    /// The committed estimates.
    pub estimates: Vec<DetectionEstimate>,
}

impl Checkpoint for TestabilityCheckpoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("next".into(), Json::num(self.estimates.len() as u64)),
            (
                "estimates".into(),
                Json::Arr(self.estimates.iter().map(estimate_json).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let next = v
            .get("next")
            .and_then(Json::as_u64)
            .ok_or("testability checkpoint: bad or missing \"next\"")?;
        let items = v
            .get("estimates")
            .and_then(Json::as_arr)
            .ok_or("testability checkpoint: bad or missing \"estimates\"")?;
        if next != items.len() as u64 {
            return Err(format!(
                "testability checkpoint: next={next} disagrees with {} estimates",
                items.len()
            ));
        }
        let estimates = items
            .iter()
            .map(estimate_from_json)
            .collect::<Result<_, _>>()?;
        Ok(Self { estimates })
    }
}

/// The JSON form of a [`DetectionEstimate`] — shared by checkpoints and
/// service payloads: value, standard error, engine-tier token, and — for
/// the cutting tier — certified bounds.
pub(crate) fn estimate_json(e: &DetectionEstimate) -> Json {
    let mut fields = vec![
        ("value".into(), Json::Num(e.value)),
        ("std_error".into(), Json::Num(e.std_error)),
        ("method".into(), Json::str(e.method.token())),
    ];
    if let Some((lo, hi)) = e.bounds {
        fields.push(("low".into(), Json::Num(lo)));
        fields.push(("high".into(), Json::Num(hi)));
    }
    Json::Obj(fields)
}

/// Inverse of [`estimate_json`]. The JSON writer prints floats in
/// Rust's shortest round-trip form, so restored values are
/// bit-identical to the committed ones.
fn estimate_from_json(item: &Json) -> Result<DetectionEstimate, String> {
    let value = item
        .get("value")
        .and_then(Json::as_f64)
        .ok_or("estimate: bad or missing \"value\"")?;
    let std_error = item
        .get("std_error")
        .and_then(Json::as_f64)
        .ok_or("estimate: bad or missing \"std_error\"")?;
    let token = item
        .get("method")
        .and_then(Json::as_str)
        .ok_or("estimate: bad or missing \"method\"")?;
    let method = EstimateMethod::from_token(token)?;
    let bounds = match (
        item.get("low").and_then(Json::as_f64),
        item.get("high").and_then(Json::as_f64),
    ) {
        (Some(lo), Some(hi)) => Some((lo, hi)),
        (None, None) => None,
        _ => return Err("estimate: bounds need both \"low\" and \"high\"".into()),
    };
    Ok(DetectionEstimate {
        value,
        std_error,
        method,
        bounds,
    })
}

/// How many faults the exact tier enumerates between budget checks.
const EXACT_BLOCK: usize = 64;

/// Per-fault tier resolution inside the symbolic state.
#[derive(Debug, Clone, Copy)]
enum FaultTier {
    Unresolved,
    Bdd(BddRef),
    Cutting,
}

/// The shared symbolic state: one budgeted BDD manager, the good machine
/// built once, per-fault difference roots resolved lazily.
struct SymbolicState {
    bdd: Bdd,
    /// `var_of_pi[i]` = BDD variable of the i-th primary input under the
    /// fanin-driven order.
    var_of_pi: Vec<u32>,
    /// Per-net good-machine function; only valid when `good_ok`.
    good: Vec<BddRef>,
    /// `false` when the good machine itself overflowed the node budget
    /// (or the mode is cutting-only): every fault takes the cutting tier.
    good_ok: bool,
    tiers: Vec<FaultTier>,
    /// Per-net primary-input support bitsets (lazily built for cutting).
    supports: Option<Vec<Vec<u64>>>,
}

enum Resolved {
    Exact,
    Symbolic(Box<SymbolicState>),
}

/// The tiered detection-probability engine.
///
/// Build one per (network, fault list); it owns the tier plan, the
/// shared BDD manager and the per-fault difference functions, so
/// repeated probability queries (the inner loop of weight optimization)
/// cost one linear BDD pass per query instead of a rebuild.
pub struct DetectionEngine<'n> {
    net: &'n Network,
    faults: Vec<FaultEntry>,
    config: TestabilityConfig,
    parallelism: Parallelism,
    resolved: Option<Resolved>,
}

impl<'n> DetectionEngine<'n> {
    /// Creates an engine over `faults` with the given configuration.
    pub fn new(net: &'n Network, faults: &[FaultEntry], config: TestabilityConfig) -> Self {
        Self {
            net,
            faults: faults.to_vec(),
            config,
            parallelism: Parallelism::default(),
            resolved: None,
        }
    }

    /// Sets the worker policy for the exact tier.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Number of faults this engine serves.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Computes estimates for the whole fault list under `budget`.
    ///
    /// # Panics
    ///
    /// Panics if `pi_probs` has the wrong arity or invalid values.
    pub fn estimates(
        &mut self,
        pi_probs: &[f64],
        budget: &RunBudget,
    ) -> Result<Vec<DetectionEstimate>, StopReason> {
        let mut out = Vec::with_capacity(self.faults.len());
        let status = self.estimates_from(0, pi_probs, budget, &mut |_, est| out.push(est));
        match status {
            RunStatus::Completed => Ok(out),
            RunStatus::Interrupted(reason) => Err(reason),
        }
    }

    /// Streams estimates for faults `start..` in index order, calling
    /// `sink(index, estimate)` for each finished fault. Budget checks run
    /// at per-fault granularity; estimates already emitted when the run
    /// is interrupted are final and **batch-independent**: resuming at
    /// any fault boundary (even in a fresh process) reproduces
    /// bit-identical values, which is what the `testability` service
    /// kernel's durability contract relies on.
    ///
    /// At least one fault makes progress per call even on an expired
    /// budget (the forward-progress contract of [`RunBudget`]).
    pub fn estimates_from(
        &mut self,
        start: usize,
        pi_probs: &[f64],
        budget: &RunBudget,
        sink: &mut dyn FnMut(usize, DetectionEstimate),
    ) -> RunStatus {
        let n = self.net.primary_inputs().len();
        assert_eq!(pi_probs.len(), n, "need one probability per primary input");
        if start >= self.faults.len() {
            return RunStatus::Completed;
        }
        self.ensure_resolved(budget);
        match self.resolved.as_ref().expect("resolved above") {
            Resolved::Exact => self.run_exact(start, pi_probs, budget, sink),
            Resolved::Symbolic(_) => self.run_symbolic(start, pi_probs, budget, sink),
        }
    }

    /// Decides the exact-vs-symbolic split once and freezes it, so tier
    /// tags stay stable across repeated queries on one engine.
    fn ensure_resolved(&mut self, budget: &RunBudget) {
        if self.resolved.is_some() {
            return;
        }
        let n = self.net.primary_inputs().len();
        let rows_fit = row_space(n).is_some_and(|rows| rows <= budget.effective_exact_rows());
        let use_exact = match self.config.mode {
            TierMode::Auto | TierMode::Exact => rows_fit,
            TierMode::Bdd | TierMode::Cutting => false,
        };
        if use_exact {
            self.resolved = Some(Resolved::Exact);
            return;
        }
        self.resolved = Some(Resolved::Symbolic(Box::new(self.build_symbolic())));
    }

    /// Builds the shared symbolic state: fanin-driven variable order and
    /// the good machine under the node budget.
    fn build_symbolic(&self) -> SymbolicState {
        let net = self.net;
        let order = fanin_dfs_order(net);
        let n = net.primary_inputs().len();
        let mut var_of_pi = vec![0u32; n];
        for (var, &pi) in order.iter().enumerate() {
            var_of_pi[pi] = var as u32;
        }
        let mut bdd = Bdd::with_node_limit(self.config.node_budget);
        let mut good = vec![BddRef::FALSE; net.net_count()];
        let mut good_ok = self.config.mode != TierMode::Cutting;
        if good_ok {
            for (i, &pi) in net.primary_inputs().iter().enumerate() {
                match bdd.try_var(VarId(var_of_pi[i])) {
                    Ok(r) => good[pi.index()] = r,
                    Err(_) => {
                        good_ok = false;
                        break;
                    }
                }
            }
        }
        if good_ok {
            'gates: for &g in net.topo_order() {
                let inst = &net.gates()[g.index()];
                let function = net.cell_of(g).logic_function();
                let inputs = inst.inputs.clone();
                match bdd.try_eval_expr_over(&function, &|v| good[inputs[v.index()].index()]) {
                    Ok(r) => good[inst.output.index()] = r,
                    Err(_) => {
                        // The circuit itself is over budget: every fault
                        // goes to the cutting tier.
                        good_ok = false;
                        break 'gates;
                    }
                }
            }
        }
        SymbolicState {
            bdd,
            var_of_pi,
            good,
            good_ok,
            tiers: vec![FaultTier::Unresolved; self.faults.len()],
            supports: None,
        }
    }

    /// Exact tier: per-block enumeration so interrupts land on fault
    /// boundaries. The first block of every call is a single fault run
    /// without a deadline — the forward-progress guarantee.
    fn run_exact(
        &self,
        start: usize,
        pi_probs: &[f64],
        budget: &RunBudget,
        sink: &mut dyn FnMut(usize, DetectionEstimate),
    ) -> RunStatus {
        let total = self.faults.len();
        let mut i = start;
        let mut first = true;
        while i < total {
            if !first {
                if let Some(reason) = budget.stop_requested() {
                    return RunStatus::Interrupted(reason);
                }
            }
            let block = if first { 1 } else { EXACT_BLOCK.min(total - i) };
            let nf: Vec<NetworkFault> = self.faults[i..i + block]
                .iter()
                .map(|e| e.fault.clone())
                .collect();
            let mut det = ExactDetector::for_faults(self.net, &nf);
            det.set_parallelism(self.parallelism);
            let progress_budget;
            let leg_budget = if first {
                progress_budget =
                    RunBudget::unlimited().with_max_exact_rows(budget.effective_exact_rows());
                &progress_budget
            } else {
                budget
            };
            match det.try_probabilities(pi_probs, leg_budget) {
                Ok(values) => {
                    for (k, value) in values.into_iter().enumerate() {
                        sink(
                            i + k,
                            DetectionEstimate {
                                value,
                                std_error: 0.0,
                                method: EstimateMethod::Exact,
                                bounds: None,
                            },
                        );
                    }
                }
                Err(reason) => return RunStatus::Interrupted(reason),
            }
            i += block;
            first = false;
        }
        RunStatus::Completed
    }

    /// BDD/cutting tiers: strictly per-fault streaming.
    fn run_symbolic(
        &mut self,
        start: usize,
        pi_probs: &[f64],
        budget: &RunBudget,
        sink: &mut dyn FnMut(usize, DetectionEstimate),
    ) -> RunStatus {
        let total = self.faults.len();
        // Probabilities permuted from PI order into BDD variable order.
        let ordered: Vec<f64> = {
            let state = self.symbolic();
            let mut v = vec![0.0; pi_probs.len()];
            for (i, &p) in pi_probs.iter().enumerate() {
                v[state.var_of_pi[i] as usize] = p;
            }
            v
        };
        // Good-machine intervals for the cutting tier, computed at most
        // once per call (they depend on pi_probs).
        let mut good_iv: Option<Vec<(f64, f64)>> = None;
        let mut prob_memo: HashMap<BddRef, f64> = HashMap::new();
        let mut emitted = false;
        for i in start..total {
            if emitted {
                if let Some(reason) = budget.stop_requested() {
                    return RunStatus::Interrupted(reason);
                }
            }
            self.resolve_fault(i);
            let est = match self.symbolic().tiers[i] {
                FaultTier::Unresolved => unreachable!("resolved above"),
                FaultTier::Bdd(root) => {
                    let state = self.symbolic();
                    let value = state.bdd.probability_memo(root, &ordered, &mut prob_memo);
                    DetectionEstimate {
                        value,
                        std_error: 0.0,
                        method: EstimateMethod::Bdd,
                        bounds: None,
                    }
                }
                FaultTier::Cutting => {
                    self.ensure_supports();
                    let state = self.symbolic();
                    let iv = good_iv.get_or_insert_with(|| {
                        good_intervals(
                            self.net,
                            pi_probs,
                            state.supports.as_ref().expect("built above"),
                        )
                    });
                    let (lo, hi) = fault_bounds(
                        self.net,
                        &self.faults[i].fault,
                        iv,
                        state.supports.as_ref().expect("built above"),
                    );
                    self.tightened_estimate(i, pi_probs, lo, hi)
                }
            };
            sink(i, est);
            emitted = true;
        }
        RunStatus::Completed
    }

    fn symbolic(&self) -> &SymbolicState {
        match self.resolved.as_ref() {
            Some(Resolved::Symbolic(s)) => s,
            _ => unreachable!("symbolic state required"),
        }
    }

    fn symbolic_mut(&mut self) -> &mut SymbolicState {
        match self.resolved.as_mut() {
            Some(Resolved::Symbolic(s)) => s,
            _ => unreachable!("symbolic state required"),
        }
    }

    fn ensure_supports(&mut self) {
        let net = self.net;
        let state = self.symbolic_mut();
        if state.supports.is_none() {
            state.supports = Some(pi_supports(net));
        }
    }

    /// Resolves fault `i`'s tier: build its difference BDD, rolling the
    /// node store back and demoting to cutting on overflow.
    fn resolve_fault(&mut self, i: usize) {
        let net = self.net;
        let fault = self.faults[i].fault.clone();
        let forced_cut = self.config.mode == TierMode::Cutting || !self.symbolic().good_ok;
        let state = self.symbolic_mut();
        if !matches!(state.tiers[i], FaultTier::Unresolved) {
            return;
        }
        if forced_cut {
            state.tiers[i] = FaultTier::Cutting;
            return;
        }
        let mark = state.bdd.mark();
        match build_diff(net, &mut state.bdd, &state.good, &fault) {
            Ok(root) => state.tiers[i] = FaultTier::Bdd(root),
            Err(_) => {
                state.bdd.truncate(mark);
                state.tiers[i] = FaultTier::Cutting;
            }
        }
    }

    /// Builds the cutting-tier estimate for fault `i`: certified bounds,
    /// optionally tightened by a per-fault Monte Carlo run whose seed is
    /// derived from the fault index (batch-independent, so resumed runs
    /// reproduce the same value). The tightening run is deliberately not
    /// placed under the caller's budget: its sample count is small (the
    /// job service refuses requests above 2^20), and an always-complete
    /// run keeps committed values independent of leg timing.
    fn tightened_estimate(
        &self,
        i: usize,
        pi_probs: &[f64],
        lo: f64,
        hi: f64,
    ) -> DetectionEstimate {
        let samples = self.config.mc_tighten_samples;
        if samples == 0 || hi - lo < 1e-12 {
            return DetectionEstimate {
                value: 0.5 * (lo + hi),
                std_error: 0.5 * (hi - lo),
                method: EstimateMethod::Cutting,
                bounds: Some((lo, hi)),
            };
        }
        let seed = per_fault_seed(self.config.seed, i);
        // Serial and unlimited: one inline chunk that cannot be
        // interrupted.
        let e = crate::montecarlo::mc_detection_probabilities_budgeted(
            self.net,
            std::slice::from_ref(&self.faults[i]),
            pi_probs,
            seed,
            samples,
            Parallelism::Serial,
            &RunBudget::unlimited(),
            None,
        )
        .output[0];
        DetectionEstimate {
            value: e.value.clamp(lo, hi),
            std_error: e.std_error().min(0.5 * (hi - lo)),
            method: EstimateMethod::Cutting,
            bounds: Some((lo, hi)),
        }
    }
}

/// Mixes the engine seed with a fault index into an independent stream.
fn per_fault_seed(seed: u64, fault_index: usize) -> u64 {
    seed ^ (fault_index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03)
}

/// Fanin-driven variable order: DFS from each primary output through the
/// gate drivers, appending primary inputs at first visit. Inputs feeding
/// the same output cone land next to each other — the interleaving that
/// keeps ripple/chain BDDs linear. Returns PI *indices* in variable
/// order; unreachable inputs are appended at the end.
fn fanin_dfs_order(net: &Network) -> Vec<usize> {
    let n = net.primary_inputs().len();
    let mut pi_index_of_net: HashMap<usize, usize> = HashMap::with_capacity(n);
    for (i, &pi) in net.primary_inputs().iter().enumerate() {
        pi_index_of_net.insert(pi.index(), i);
    }
    let mut order = Vec::with_capacity(n);
    let mut seen_pi = vec![false; n];
    let mut seen_gate = vec![false; net.gates().len()];
    // Iterative DFS over nets (explicit stack: netlists can be deep).
    let mut stack: Vec<usize> = Vec::new();
    for &po in net.primary_outputs() {
        stack.push(po.index());
        while let Some(net_idx) = stack.pop() {
            if let Some(&i) = pi_index_of_net.get(&net_idx) {
                if !seen_pi[i] {
                    seen_pi[i] = true;
                    order.push(i);
                }
                continue;
            }
            let Some(g) = net.driver(dynmos_netlist::NetId(net_idx as u32)) else {
                continue;
            };
            if seen_gate[g.index()] {
                continue;
            }
            seen_gate[g.index()] = true;
            // Push in reverse so the first declared input is visited
            // first (deterministic order).
            for &input in net.gates()[g.index()].inputs.iter().rev() {
                stack.push(input.index());
            }
        }
    }
    for (i, &seen) in seen_pi.iter().enumerate().take(n) {
        if !seen {
            order.push(i);
        }
    }
    order
}

/// Rebuilds only the fault's fanout cone with the fault injected and
/// returns the Boolean difference (OR of XORs at the observable
/// outputs). `FALSE` proves the fault undetectable.
fn build_diff(
    net: &Network,
    bdd: &mut Bdd,
    good: &[BddRef],
    fault: &NetworkFault,
) -> Result<BddRef, dynmos_logic::BddOverflow> {
    let prepared = net.prepare_fault(fault);
    let mut faulty: HashMap<usize, BddRef> = HashMap::new();
    if let NetworkFault::NetStuck(netid, v) = fault {
        faulty.insert(netid.index(), if *v { BddRef::TRUE } else { BddRef::FALSE });
    }
    for &pos in prepared.cone_positions() {
        let g = net.topo_order()[pos as usize];
        let inst = &net.gates()[g.index()];
        let function = match fault {
            NetworkFault::GateFunction(fg, f) if *fg == g => f.clone(),
            _ => net.cell_of(g).logic_function(),
        };
        let inputs = inst.inputs.clone();
        let out = bdd.try_eval_expr_over(&function, &|v| {
            let nid = inputs[v.index()].index();
            faulty.get(&nid).copied().unwrap_or(good[nid])
        })?;
        let out_idx = inst.output.index();
        // A stuck net stays stuck regardless of what its readers see
        // upstream; never overwrite the forced constant.
        let stuck_here = matches!(fault, NetworkFault::NetStuck(nid, _) if nid.index() == out_idx);
        if !stuck_here {
            faulty.insert(out_idx, out);
        }
    }
    let mut diff = BddRef::FALSE;
    for &po_idx in prepared.observable_outputs() {
        let po = net.primary_outputs()[po_idx as usize].index();
        let bad = faulty.get(&po).copied().unwrap_or(good[po]);
        let x = bdd.try_xor(good[po], bad)?;
        diff = bdd.try_or(diff, x)?;
    }
    Ok(diff)
}

// ---------------------------------------------------------------------
// Cutting tier: certified interval propagation.
// ---------------------------------------------------------------------

fn union_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// Per-net primary-input support bitsets (one `u64` word per 64 PIs).
fn pi_supports(net: &Network) -> Vec<Vec<u64>> {
    let n = net.primary_inputs().len();
    let words = n.div_ceil(64).max(1);
    let mut supp = vec![vec![0u64; words]; net.net_count()];
    for (i, &pi) in net.primary_inputs().iter().enumerate() {
        supp[pi.index()][i / 64] |= 1u64 << (i % 64);
    }
    for &g in net.topo_order() {
        let inst = &net.gates()[g.index()];
        let function = net.cell_of(g).logic_function();
        let mut s = vec![0u64; words];
        for v in function.support() {
            union_into(&mut s, &supp[inst.inputs[v.index()].index()]);
        }
        supp[inst.output.index()] = s;
    }
    supp
}

/// A probability interval with the support of the underlying event.
#[derive(Clone)]
struct IvS {
    lo: f64,
    hi: f64,
    supp: Vec<u64>,
}

impl IvS {
    fn constant(b: bool, words: usize) -> IvS {
        let p = if b { 1.0 } else { 0.0 };
        IvS {
            lo: p,
            hi: p,
            supp: vec![0u64; words],
        }
    }

    fn clamp(mut self) -> IvS {
        self.lo = self.lo.clamp(0.0, 1.0);
        self.hi = self.hi.clamp(self.lo, 1.0);
        self
    }
}

/// AND of two events: exact product rule when the supports are provably
/// independent (disjoint), Fréchet bounds otherwise.
fn and_iv(a: &IvS, b: &IvS) -> IvS {
    let mut supp = a.supp.clone();
    union_into(&mut supp, &b.supp);
    let (lo, hi) = if disjoint(&a.supp, &b.supp) {
        (a.lo * b.lo, a.hi * b.hi)
    } else {
        ((a.lo + b.lo - 1.0).max(0.0), a.hi.min(b.hi))
    };
    IvS { lo, hi, supp }.clamp()
}

/// OR of two events: independence rule on disjoint supports, Fréchet
/// bounds otherwise.
fn or_iv(a: &IvS, b: &IvS) -> IvS {
    let mut supp = a.supp.clone();
    union_into(&mut supp, &b.supp);
    let (lo, hi) = if disjoint(&a.supp, &b.supp) {
        (a.lo + b.lo - a.lo * b.lo, a.hi + b.hi - a.hi * b.hi)
    } else {
        (a.lo.max(b.lo), (a.hi + b.hi).min(1.0))
    };
    IvS { lo, hi, supp }.clamp()
}

fn not_iv(a: &IvS) -> IvS {
    IvS {
        lo: 1.0 - a.hi,
        hi: 1.0 - a.lo,
        supp: a.supp.clone(),
    }
    .clamp()
}

/// XOR of two events. Disjoint supports: `pa + pb - 2 pa pb` is bilinear,
/// so the extremes sit at the interval corners. Overlapping supports:
/// `P(a xor b) >= |P(a)-P(b)|` and `P(a xor b) <= min(P(a)+P(b),
/// 2-P(a)-P(b))` hold for any joint distribution.
fn xor_iv(a: &IvS, b: &IvS) -> IvS {
    let mut supp = a.supp.clone();
    union_into(&mut supp, &b.supp);
    let (lo, hi) = if disjoint(&a.supp, &b.supp) {
        let f = |pa: f64, pb: f64| pa + pb - 2.0 * pa * pb;
        let corners = [f(a.lo, b.lo), f(a.lo, b.hi), f(a.hi, b.lo), f(a.hi, b.hi)];
        (
            corners.iter().cloned().fold(f64::INFINITY, f64::min),
            corners.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
    } else {
        (
            (a.lo - b.hi).max(b.lo - a.hi).max(0.0),
            (a.hi + b.hi).min(2.0 - a.lo - b.lo).min(1.0),
        )
    };
    IvS { lo, hi, supp }.clamp()
}

/// Evaluates a gate function over operand intervals.
fn expr_interval(expr: &Bexpr, words: usize, leaf: &impl Fn(VarId) -> IvS) -> IvS {
    match expr {
        Bexpr::Const(b) => IvS::constant(*b, words),
        Bexpr::Var(v) => leaf(*v),
        Bexpr::Not(e) => not_iv(&expr_interval(e, words, leaf)),
        Bexpr::And(ts) => {
            let mut acc = IvS::constant(true, words);
            for t in ts {
                let b = expr_interval(t, words, leaf);
                acc = and_iv(&acc, &b);
            }
            acc
        }
        Bexpr::Or(ts) => {
            let mut acc = IvS::constant(false, words);
            for t in ts {
                let b = expr_interval(t, words, leaf);
                acc = or_iv(&acc, &b);
            }
            acc
        }
    }
}

/// Good-machine probability intervals per net: point intervals at the
/// primary inputs, widening only where reconvergence forces a cut.
fn good_intervals(net: &Network, pi_probs: &[f64], supports: &[Vec<u64>]) -> Vec<(f64, f64)> {
    let words = supports.first().map_or(1, Vec::len);
    let mut iv = vec![(0.0, 0.0); net.net_count()];
    for (i, &pi) in net.primary_inputs().iter().enumerate() {
        iv[pi.index()] = (pi_probs[i], pi_probs[i]);
    }
    for &g in net.topo_order() {
        let inst = &net.gates()[g.index()];
        let function = net.cell_of(g).logic_function();
        let inputs = &inst.inputs;
        let out = expr_interval(&function, words, &|v| {
            let nid = inputs[v.index()].index();
            IvS {
                lo: iv[nid].0,
                hi: iv[nid].1,
                supp: supports[nid].clone(),
            }
        });
        iv[inst.output.index()] = (out.lo, out.hi);
    }
    iv
}

/// Certified `[low, high]` detection-probability bounds for one fault:
/// interval-propagates the faulty cone over the good-machine intervals
/// and bounds the OR of per-output XOR events with Fréchet rules.
fn fault_bounds(
    net: &Network,
    fault: &NetworkFault,
    good_iv: &[(f64, f64)],
    supports: &[Vec<u64>],
) -> (f64, f64) {
    let words = supports.first().map_or(1, Vec::len);
    let prepared = net.prepare_fault(fault);
    let mut f_iv: HashMap<usize, (f64, f64)> = HashMap::new();
    let mut f_supp: HashMap<usize, Vec<u64>> = HashMap::new();
    if let NetworkFault::NetStuck(netid, v) = fault {
        let p = if *v { 1.0 } else { 0.0 };
        f_iv.insert(netid.index(), (p, p));
        f_supp.insert(netid.index(), vec![0u64; words]);
    }
    for &pos in prepared.cone_positions() {
        let g = net.topo_order()[pos as usize];
        let inst = &net.gates()[g.index()];
        let function = match fault {
            NetworkFault::GateFunction(fg, f) if *fg == g => f.clone(),
            _ => net.cell_of(g).logic_function(),
        };
        let inputs = &inst.inputs;
        let out = expr_interval(&function, words, &|v| {
            let nid = inputs[v.index()].index();
            let (lo, hi) = f_iv.get(&nid).copied().unwrap_or(good_iv[nid]);
            let supp = f_supp
                .get(&nid)
                .cloned()
                .unwrap_or_else(|| supports[nid].clone());
            IvS { lo, hi, supp }
        });
        let out_idx = inst.output.index();
        let stuck_here = matches!(fault, NetworkFault::NetStuck(nid, _) if nid.index() == out_idx);
        if !stuck_here {
            f_iv.insert(out_idx, (out.lo, out.hi));
            f_supp.insert(out_idx, out.supp);
        }
    }
    // Detection = OR over observable outputs of XOR(good, faulty).
    let mut det = IvS::constant(false, words);
    for &po_idx in prepared.observable_outputs() {
        let po = net.primary_outputs()[po_idx as usize].index();
        let good = IvS {
            lo: good_iv[po].0,
            hi: good_iv[po].1,
            supp: supports[po].clone(),
        };
        let (blo, bhi) = f_iv.get(&po).copied().unwrap_or(good_iv[po]);
        if !f_iv.contains_key(&po) {
            // The faulty machine equals the good machine here; the XOR
            // is identically false.
            continue;
        }
        let bad = IvS {
            lo: blo,
            hi: bhi,
            supp: f_supp
                .get(&po)
                .cloned()
                .unwrap_or_else(|| supports[po].clone()),
        };
        let x = xor_iv(&good, &bad);
        det = or_iv(&det, &x);
    }
    (det.lo, det.hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detection_probabilities;
    use crate::list::network_fault_list;
    use dynmos_netlist::generate::{c17_dynamic_nmos, carry_chain, random_domino_network};

    fn probs_for(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.25 + 0.4 * (i as f64 % 2.0)).collect()
    }

    #[test]
    fn bdd_tier_matches_enumeration_on_c17() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = probs_for(net.primary_inputs().len());
        let exact = detection_probabilities(&net, &faults, &probs);
        let mut engine = DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Bdd));
        let got = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        for ((e, g), entry) in exact.iter().zip(&got).zip(&faults) {
            assert_eq!(g.method, EstimateMethod::Bdd, "{}", entry.label);
            assert!(
                (e - g.value).abs() < 1e-12,
                "{}: {e} vs {}",
                entry.label,
                g.value
            );
        }
    }

    #[test]
    fn cutting_bounds_contain_exact_on_random_networks() {
        for seed in 0..30 {
            let net = random_domino_network(seed, 4, 6);
            if net.primary_inputs().len() > 16 {
                continue;
            }
            let faults = network_fault_list(&net);
            let probs = probs_for(net.primary_inputs().len());
            let exact = detection_probabilities(&net, &faults, &probs);
            let mut engine = DetectionEngine::new(
                &net,
                &faults,
                TestabilityConfig::new(TierMode::Cutting).with_mc_tighten_samples(0),
            );
            let got = engine
                .estimates(&probs, &RunBudget::unlimited())
                .expect("unlimited");
            for ((e, g), entry) in exact.iter().zip(&got).zip(&faults) {
                assert_eq!(g.method, EstimateMethod::Cutting);
                let (lo, hi) = g.bounds.expect("cutting reports bounds");
                assert!(
                    lo - 1e-12 <= *e && *e <= hi + 1e-12,
                    "seed {seed} {}: exact {e} outside [{lo}, {hi}]",
                    entry.label
                );
            }
        }
    }

    #[test]
    fn auto_tier_uses_exact_within_cap() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = probs_for(net.primary_inputs().len());
        let mut engine =
            DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Auto));
        let got = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        assert!(got.iter().all(|e| e.method == EstimateMethod::Exact));
        let exact = detection_probabilities(&net, &faults, &probs);
        for (e, g) in exact.iter().zip(&got) {
            assert_eq!(*e, g.value, "exact tier must be bit-identical");
        }
    }

    #[test]
    fn auto_tier_goes_symbolic_over_cap() {
        // carry_chain(30): 61 inputs, far beyond any enumeration cap.
        let net = carry_chain(30);
        let faults = network_fault_list(&net);
        let probs = vec![0.5; net.primary_inputs().len()];
        let mut engine =
            DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Auto));
        let got = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        assert!(got
            .iter()
            .all(|e| matches!(e.method, EstimateMethod::Bdd | EstimateMethod::Cutting)));
        assert!(
            got.iter().any(|e| e.method == EstimateMethod::Bdd),
            "chain BDDs fit comfortably in the default budget"
        );
        for e in &got {
            assert!((0.0..=1.0).contains(&e.value));
        }
    }

    #[test]
    fn tiny_node_budget_degrades_to_cutting_with_sound_bounds() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = probs_for(net.primary_inputs().len());
        let exact = detection_probabilities(&net, &faults, &probs);
        // A 4-node budget cannot even hold the good machine.
        let mut engine = DetectionEngine::new(
            &net,
            &faults,
            TestabilityConfig::new(TierMode::Bdd)
                .with_node_budget(4)
                .with_mc_tighten_samples(256),
        );
        let got = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        for ((e, g), entry) in exact.iter().zip(&got).zip(&faults) {
            assert_eq!(g.method, EstimateMethod::Cutting, "{}", entry.label);
            let (lo, hi) = g.bounds.expect("bounds");
            assert!(lo - 1e-12 <= *e && *e <= hi + 1e-12, "{}", entry.label);
            assert!(lo <= g.value && g.value <= hi, "{}", entry.label);
        }
    }

    #[test]
    fn streaming_resume_is_bit_identical() {
        let net = carry_chain(12);
        let faults = network_fault_list(&net);
        let probs = vec![0.4; net.primary_inputs().len()];
        let config = TestabilityConfig::new(TierMode::Bdd).with_node_budget(200);
        let mut whole = DetectionEngine::new(&net, &faults, config.clone());
        let all = whole
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        // Restart at every third boundary with a fresh engine; values
        // must match bit for bit.
        let mut resumed: Vec<DetectionEstimate> = Vec::new();
        let mut next = 0usize;
        while next < faults.len() {
            let stop_at = (next + 3).min(faults.len());
            let mut engine = DetectionEngine::new(&net, &faults, config.clone());
            let mut batch = Vec::new();
            let status =
                engine.estimates_from(next, &probs, &RunBudget::unlimited(), &mut |i, est| {
                    if i < stop_at {
                        batch.push((i, est));
                    }
                });
            assert!(status.is_complete());
            for (i, est) in batch {
                if i < stop_at {
                    resumed.push(est);
                    next = i + 1;
                }
            }
        }
        assert_eq!(all.len(), resumed.len());
        for (a, b) in all.iter().zip(&resumed) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.method, b.method);
        }
    }

    #[test]
    fn env_override_parses_and_rejects_garbage() {
        assert_eq!(parse_testability_override(None), None);
        assert_eq!(parse_testability_override(Some("")), None);
        assert_eq!(
            parse_testability_override(Some(" bdd ")),
            Some(TierMode::Bdd)
        );
        assert_eq!(
            parse_testability_override(Some("CUTTING")),
            Some(TierMode::Cutting)
        );
        assert!(std::panic::catch_unwind(|| parse_testability_override(Some("fast"))).is_err());
    }

    #[test]
    fn tier_census_formats_counts() {
        let methods = [
            EstimateMethod::Exact,
            EstimateMethod::Bdd,
            EstimateMethod::Bdd,
            EstimateMethod::Cutting,
        ];
        assert_eq!(tier_census(methods.iter()), "exact:1,bdd:2,cutting:1,mc:0");
    }
}
