//! Signal probability estimation.
//!
//! PROTEST's first stage (Fig. 8): "For those given input signal
//! probabilities PROTEST estimates the signal probability at each internal
//! node."
//!
//! Two methods are provided:
//!
//! * [`signal_probabilities`] — the fast topological estimator: one forward
//!   pass, treating each gate's inputs as independent. Exact on fanout-free
//!   trees; biased under reconvergent fanout (the classic limitation of
//!   the independence assumption).
//! * [`exact_signal_probability`] — ground truth by exhaustive weighted
//!   enumeration of the input space (feasible for the cell- and
//!   block-sized circuits of the paper).

use dynmos_logic::signal_probability_expr;
use dynmos_netlist::{NetId, Network, PackedEvaluator};

/// One forward-pass topological estimate of every net's signal
/// probability (indexed by [`NetId`]).
///
/// Inputs are assumed independent at every gate boundary, so estimates are
/// exact for tree circuits and approximate under reconvergent fanout.
///
/// # Panics
///
/// Panics if `pi_probs.len()` differs from the number of primary inputs or
/// any probability is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use dynmos_netlist::generate::and_or_tree;
/// use dynmos_protest::signal_probabilities;
///
/// let net = and_or_tree(2); // (x0&x1) | (x2&x3)
/// let probs = signal_probabilities(&net, &[0.5; 4]);
/// let po = net.primary_outputs()[0];
/// // P = 1 - (1-0.25)^2 = 0.4375, exact on a tree.
/// assert!((probs[po.index()] - 0.4375).abs() < 1e-12);
/// ```
pub fn signal_probabilities(net: &Network, pi_probs: &[f64]) -> Vec<f64> {
    assert_eq!(
        pi_probs.len(),
        net.primary_inputs().len(),
        "need one probability per primary input"
    );
    for &p in pi_probs {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
    }
    let mut probs = vec![0.0f64; net.net_count()];
    for (pi, &p) in net.primary_inputs().iter().zip(pi_probs) {
        probs[pi.index()] = p;
    }
    for &g in net.topo_order() {
        let inst = &net.gates()[g.index()];
        let cell = net.cell_of(g);
        let input_probs: Vec<f64> = inst.inputs.iter().map(|n| probs[n.index()]).collect();
        let p = signal_probability_expr(&cell.logic_function(), &input_probs);
        probs[inst.output.index()] = p;
    }
    probs
}

/// Exact signal probability of one net by weighted exhaustive enumeration
/// of the primary-input space.
///
/// # Panics
///
/// Panics if the network has more than 24 primary inputs (enumeration
/// would be infeasible), if `pi_probs` has the wrong arity, or any
/// probability is outside `[0, 1]`.
pub fn exact_signal_probability(net: &Network, target: NetId, pi_probs: &[f64]) -> f64 {
    let n = net.primary_inputs().len();
    assert!(n <= 24, "exact enumeration over {n} inputs is infeasible");
    assert_eq!(pi_probs.len(), n, "need one probability per primary input");
    for &p in pi_probs {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
    }
    let mut total = 0.0;
    // Evaluate 64 assignments per packed pass on one reusable evaluator.
    let mut ev = PackedEvaluator::new(net);
    let mut pi_words = vec![0u64; n];
    let rows = 1u64 << n;
    let mut row = 0u64;
    while row < rows {
        let lanes = (rows - row).min(64);
        pi_words.fill(0);
        for lane in 0..lanes {
            let assignment = row + lane;
            for (i, w) in pi_words.iter_mut().enumerate() {
                if (assignment >> i) & 1 == 1 {
                    *w |= 1 << lane;
                }
            }
        }
        let values = ev.eval(&pi_words);
        let word = values[target.index()];
        for lane in 0..lanes {
            if (word >> lane) & 1 == 1 {
                let assignment = row + lane;
                let mut weight = 1.0;
                for (i, &p) in pi_probs.iter().enumerate() {
                    weight *= if (assignment >> i) & 1 == 1 {
                        p
                    } else {
                        1.0 - p
                    };
                }
                total += weight;
            }
        }
        row += lanes;
    }
    // Summing 2^n weights accumulates ulp-scale error; clamp to [0,1] so
    // downstream validation (test_length) never sees 1.0 + epsilon.
    total.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmos_netlist::generate::{and_or_tree, c17_dynamic_nmos, carry_chain};

    #[test]
    fn estimator_is_exact_on_trees() {
        let net = and_or_tree(3);
        let pi_probs: Vec<f64> = (0..8).map(|i| 0.2 + 0.08 * i as f64).collect();
        let est = signal_probabilities(&net, &pi_probs);
        for &po in net.primary_outputs() {
            let exact = exact_signal_probability(&net, po, &pi_probs);
            assert!(
                (est[po.index()] - exact).abs() < 1e-12,
                "tree estimate must be exact: {} vs {exact}",
                est[po.index()]
            );
        }
    }

    #[test]
    fn estimator_biased_under_reconvergence_but_bounded() {
        // c17 has reconvergent fanout (n2 feeds n3 and n4).
        let net = c17_dynamic_nmos();
        let pi = vec![0.5; 5];
        let est = signal_probabilities(&net, &pi);
        for &po in net.primary_outputs() {
            let exact = exact_signal_probability(&net, po, &pi);
            let err = (est[po.index()] - exact).abs();
            assert!(err < 0.25, "estimator wildly off: {err}");
            assert!((0.0..=1.0).contains(&est[po.index()]));
        }
    }

    #[test]
    fn exact_matches_density_at_uniform() {
        let net = carry_chain(3);
        let n = net.primary_inputs().len();
        let pi = vec![0.5; n];
        for &po in net.primary_outputs() {
            let exact = exact_signal_probability(&net, po, &pi);
            // At p=0.5 every assignment has weight 2^-n; the exact value
            // equals ones/2^n which for the majority recurrence is in
            // (0,1).
            assert!(exact > 0.0 && exact < 1.0);
        }
    }

    #[test]
    fn degenerate_input_probabilities() {
        let net = and_or_tree(2);
        let probs = signal_probabilities(&net, &[1.0, 1.0, 0.0, 0.0]);
        let po = net.primary_outputs()[0];
        assert_eq!(probs[po.index()], 1.0); // (1&1)|(0&0) = 1 deterministically
        let exact = exact_signal_probability(&net, po, &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(exact, 1.0);
    }

    #[test]
    fn pi_net_probability_is_its_input_probability() {
        let net = and_or_tree(2);
        let probs = signal_probabilities(&net, &[0.3, 0.5, 0.7, 0.9]);
        for (k, &pi) in net.primary_inputs().iter().enumerate() {
            assert_eq!(probs[pi.index()], [0.3, 0.5, 0.7, 0.9][k]);
        }
    }

    #[test]
    #[should_panic(expected = "one probability per primary input")]
    fn wrong_arity_panics() {
        let net = and_or_tree(2);
        signal_probabilities(&net, &[0.5; 3]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_probability_panics() {
        let net = and_or_tree(2);
        signal_probabilities(&net, &[0.5, 0.5, 0.5, 1.5]);
    }

    #[test]
    fn packed_exact_crosses_word_boundaries() {
        // 7 inputs = 128 rows = 2 packed words.
        let net = carry_chain(3);
        let n = net.primary_inputs().len();
        assert_eq!(n, 7);
        let pi = vec![0.5; n];
        let po = net.primary_outputs()[2]; // c3: the full 7-input cone
        let exact = exact_signal_probability(&net, po, &pi);
        // Reference by scalar enumeration.
        let mut count = 0u64;
        for w in 0..(1u64 << n) {
            let bits: Vec<bool> = (0..n).map(|i| (w >> i) & 1 == 1).collect();
            if net.eval(&bits)[2] {
                count += 1;
            }
        }
        assert!((exact - count as f64 / 128.0).abs() < 1e-12);
    }
}
