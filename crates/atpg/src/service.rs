//! PODEM as a supervised job: adapts [`generate_test_set_budgeted`] to
//! the `dynmos_protest::service` [`Kernel`] contract, so the job engine
//! supervises deterministic ATPG with the same
//! retry/timeout/checkpoint machinery as the probabilistic kernels.
//!
//! The engine commits the [`AtpgCheckpoint`] only on leg return, and
//! the fault walk is deterministic, so a run killed and resumed any
//! number of times produces the same test set as an uninterrupted one.

use crate::podem::{generate_test_set_budgeted, AtpgCheckpoint, TestSetReport};
use dynmos_protest::budget::{Run, RunBudget};
use dynmos_protest::service::jobs::{param_u64, JobTarget};
use dynmos_protest::service::{JobContext, JobEngine, Json, Kernel, KernelJob};

/// Default PODEM backtrack budget when the request omits
/// `max_backtracks`.
const DEFAULT_BACKTRACKS: u64 = 50;

/// A supervised PODEM whole-list run.
pub struct AtpgJob {
    max_backtracks: u64,
}

impl AtpgJob {
    /// Reads the request (`max_backtracks`).
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` keeps the factory signature
    /// uniform.
    pub fn from_request(ctx: &JobContext<'_>) -> Result<Self, String> {
        Ok(Self {
            max_backtracks: param_u64(ctx.params, "max_backtracks", DEFAULT_BACKTRACKS),
        })
    }
}

impl Kernel for AtpgJob {
    type Output = TestSetReport;
    type Checkpoint = AtpgCheckpoint;

    fn run(
        &self,
        t: &JobTarget,
        budget: &RunBudget,
        resume: Option<AtpgCheckpoint>,
    ) -> Run<TestSetReport, AtpgCheckpoint> {
        generate_test_set_budgeted(
            &t.net,
            &t.faults,
            self.max_backtracks,
            t.parallelism,
            budget,
            resume,
        )
    }

    fn output_json(&self, kind: &str, output: Option<&TestSetReport>, complete: bool) -> Json {
        let mut members = vec![("kind".into(), Json::str(kind))];
        if let Some(r) = output {
            let labels =
                |ls: &[String]| Json::Arr(ls.iter().map(|s| Json::str(s.clone())).collect());
            members.push((
                "tests".into(),
                Json::Arr(
                    r.tests
                        .iter()
                        .map(|t| {
                            Json::str(
                                t.iter()
                                    .map(|&b| if b { '1' } else { '0' })
                                    .collect::<String>(),
                            )
                        })
                        .collect(),
                ),
            ));
            members.push(("test_count".into(), Json::num(r.tests.len() as u64)));
            members.push(("redundant".into(), labels(&r.redundant)));
            members.push(("aborted".into(), labels(&r.aborted)));
        }
        members.push(("complete".into(), Json::Bool(complete)));
        Json::Obj(members)
    }
}

/// Registers the `atpg` job kind on an engine. The engine crate cannot
/// depend on this one (the dependency points the other way), so the
/// registration is explicit.
pub fn register_atpg(engine: &mut JobEngine) {
    engine.register_kind("atpg", |ctx| {
        KernelJob::build("atpg", ctx, AtpgJob::from_request)
    });
}
