//! Integration tests of the tiered testability engine: differential
//! properties against the exact detector, the paper-scale optimizer
//! acceptance run on `ripple_adder(80)`, and the `testability` service
//! kernel's snapshot/restore durability contract.

use dynmos_netlist::generate::{carry_chain, random_domino_network, ripple_adder};
use dynmos_protest::service::build_builtin;
use dynmos_protest::{
    network_fault_list, optimize_input_probabilities_budgeted, stuck_fault_list, DetectionEngine,
    EstimateMethod, ExactDetector, JobContext, Json, Parallelism, RunBudget, RunStatus,
    TestabilityConfig, TierMode,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Mildly skewed but valid per-input probabilities.
fn skewed_probs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.2 + 0.03 * (i % 16) as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The BDD tier is exact: on random networks (well under 16
    /// inputs) its detection probabilities match the enumeration-based
    /// [`ExactDetector`] within 1e-12.
    #[test]
    fn bdd_tier_matches_exact_detector(seed in 0u64..10_000) {
        let net = random_domino_network(seed, 6, 9);
        let n = net.primary_inputs().len();
        prop_assume!((1..=16).contains(&n));
        let faults = network_fault_list(&net);
        let probs = skewed_probs(n);
        let exact = ExactDetector::new(&net, &faults).probabilities(&probs);
        let mut engine =
            DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Bdd));
        let est = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited budget cannot interrupt");
        for ((e, &x), f) in est.iter().zip(&exact).zip(&faults) {
            prop_assert_eq!(e.method, EstimateMethod::Bdd, "{}", f.label);
            prop_assert!(
                (e.value - x).abs() <= 1e-12,
                "{}: bdd {} vs exact {}",
                f.label, e.value, x
            );
        }
    }

    /// The cutting tier is sound: its certified interval always
    /// contains the exact detection probability, and the reported
    /// value stays inside the interval.
    #[test]
    fn cutting_bounds_contain_exact_value(seed in 0u64..10_000) {
        let net = random_domino_network(seed, 6, 9);
        let n = net.primary_inputs().len();
        prop_assume!((1..=16).contains(&n));
        let faults = network_fault_list(&net);
        let probs = skewed_probs(n);
        let exact = ExactDetector::new(&net, &faults).probabilities(&probs);
        // No tightening: the raw interval propagation must already be
        // sound on its own.
        let config = TestabilityConfig::new(TierMode::Cutting).with_mc_tighten_samples(0);
        let mut engine = DetectionEngine::new(&net, &faults, config);
        let est = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited budget cannot interrupt");
        for ((e, &x), f) in est.iter().zip(&exact).zip(&faults) {
            prop_assert_eq!(e.method, EstimateMethod::Cutting, "{}", f.label);
            let (lo, hi) = e.bounds.expect("cutting reports bounds");
            prop_assert!(
                lo - 1e-12 <= x && x <= hi + 1e-12,
                "{}: exact {} outside [{lo}, {hi}]",
                f.label, x
            );
            prop_assert!(lo - 1e-12 <= e.value && e.value <= hi + 1e-12, "{}", f.label);
        }
    }
}

/// The paper-scale acceptance run: weight optimization on
/// `ripple_adder(80)` — 161 inputs, far beyond any exact enumeration —
/// completes under a finite `RunBudget` on the symbolic tiers, with a
/// per-fault method tag recorded for every fault.
#[test]
fn optimizer_completes_on_ripple_adder_80_with_method_tags() {
    let net = ripple_adder(80);
    assert_eq!(net.primary_inputs().len(), 161);
    let faults = stuck_fault_list(&net);
    let budget = RunBudget::deadline_in(Duration::from_secs(600));
    let run = optimize_input_probabilities_budgeted(
        &net,
        &faults,
        0.999,
        0,
        &TestabilityConfig::new(TierMode::Auto),
        // the uniform + grid scan alone is the acceptance bar here
        Parallelism::default(),
        &budget,
    );
    assert!(run.status.is_complete(), "status {:?}", run.status);
    assert_eq!(run.output.methods.len(), faults.len());
    assert!(
        run.output
            .methods
            .iter()
            .all(|&m| m == EstimateMethod::Bdd || m == EstimateMethod::Cutting),
        "161 inputs must resolve to the symbolic tiers"
    );
    assert!(
        run.output.methods.contains(&EstimateMethod::Bdd),
        "the adder's cones fit the default node budget"
    );
    assert!(run.output.optimized_length <= run.output.uniform_length);
    assert_eq!(run.output.probabilities.len(), 161);
}

/// The `testability` kernel's durability contract: a run sliced into
/// expired-budget legs, with the kernel torn down and rebuilt from a
/// JSON-serialized snapshot between every leg, produces output
/// byte-identical to a single uninterrupted run.
#[test]
fn testability_kernel_resumes_bit_identical_from_snapshots() {
    let net = Arc::new(carry_chain(20)); // 41 inputs: symbolic tiers
    let faults = stuck_fault_list(&net);
    // A small node budget plus tightening samples exercises all of
    // bdd, cutting, and the per-fault-seeded sampler across resumes.
    let params =
        Json::parse(r#"{"seed":7,"mode":"auto","node_budget":600,"tighten_samples":128}"#).unwrap();
    let make = || {
        build_builtin(
            "testability",
            JobContext {
                net: net.clone(),
                faults: faults.clone(),
                parallelism: Parallelism::Serial,
                params: &params,
            },
        )
        .expect("testability is built in")
        .expect("request is valid")
    };

    let mut reference = make();
    assert!(matches!(
        reference.run_leg(&RunBudget::unlimited()),
        RunStatus::Completed
    ));
    let expected = reference.output().to_string();

    // Every leg runs on an already-expired deadline: forward progress
    // guarantees exactly the minimum per-leg commit, maximizing the
    // number of snapshot boundaries crossed.
    let expired = RunBudget::deadline_in(Duration::ZERO);
    let mut snapshot = Json::Null;
    let mut legs = 0;
    let final_output = loop {
        let mut kernel = make();
        kernel.restore(&snapshot).expect("snapshot round-trips");
        let status = kernel.run_leg(&expired);
        // Through the wire format, as the write-ahead journal would.
        snapshot = Json::parse(&kernel.snapshot().to_string()).unwrap();
        legs += 1;
        assert!(legs <= 10 * faults.len(), "no forward progress");
        if matches!(status, RunStatus::Completed) {
            break kernel.output().to_string();
        }
    };
    assert!(legs > 2, "budget never interrupted the run — vacuous test");
    assert_eq!(
        final_output, expected,
        "resumed run diverged after {legs} legs"
    );
}

/// A corrupt snapshot is refused with a message, not trusted.
#[test]
fn testability_kernel_rejects_corrupt_snapshots() {
    let net = Arc::new(carry_chain(4));
    let faults = stuck_fault_list(&net);
    let params = Json::parse(r#"{"seed":1}"#).unwrap();
    let mut kernel = build_builtin(
        "testability",
        JobContext {
            net: net.clone(),
            faults: faults.clone(),
            parallelism: Parallelism::Serial,
            params: &params,
        },
    )
    .unwrap()
    .unwrap();
    for bad in [
        r#"{"next":1,"estimates":[]}"#,
        r#"{"next":0}"#,
        r#"{"next":1,"estimates":[{"value":0.5}]}"#,
        r#"{"next":1,"estimates":[{"value":0.5,"std_error":0,"method":"warp"}]}"#,
        r#"{"next":1,"estimates":[{"value":0.5,"std_error":0,"method":"cutting","low":0.1}]}"#,
    ] {
        let snap = Json::parse(bad).unwrap();
        assert!(kernel.restore(&snap).is_err(), "snapshot accepted: {bad}");
    }
}
