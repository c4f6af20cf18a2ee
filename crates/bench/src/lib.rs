#![forbid(unsafe_code)]
//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The paper is a 1986 method paper; its evaluation consists of worked
//! figures, one fault-class table, and quantified claims. Each `eN`
//! module regenerates one of them and returns both structured data (for
//! tests and benches) and a printable report. The `experiments` binary
//! prints all of them.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`e1`]  | Fig. 1 — stuck-open static CMOS NOR becomes sequential |
//! | [`e2`]  | Fig. 2 — performance degradation by a stuck-closed transistor |
//! | [`e3`]  | Figs. 3–5 — domino gates/networks, no races or spikes |
//! | [`e4`]  | Figs. 6–7 — dynamic nMOS gate and two-phase network |
//! | [`e5`]  | Section 3 — fault classes, machine-checked at switch level |
//! | [`e6`]  | Section 5 table — the Fig. 9 fault library |
//! | [`e7`]  | Fig. 8 — the PROTEST pipeline and the orders-of-magnitude claim |
//! | [`e8`]  | Section 4 — random tests satisfy A1/A2 "per se" |
//! | [`e9`]  | Section 4 — deterministic set applied twice, full coverage |
//! | [`e10`] | Section 5 — library creation cost vs. gate size |
//! | [`e11`] | Section 3/4 — CMOS-3 case b: at-speed-only detection |
//! | [`e12`] | Section 4/5 — coverage curves; leakage detection unreliability |

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

/// Runs every experiment and concatenates the reports.
pub fn run_all() -> String {
    let mut out = String::new();
    for (name, report) in [
        ("E1 (Fig. 1)", e1::run()),
        ("E2 (Fig. 2)", e2::run()),
        ("E3 (Figs. 3-5)", e3::run()),
        ("E4 (Figs. 6-7)", e4::run()),
        ("E5 (Section 3 theorems)", e5::run()),
        ("E6 (Section 5 table)", e6::run()),
        ("E7 (PROTEST, Fig. 8)", e7::run()),
        ("E8 (A1/A2 per se)", e8::run()),
        ("E9 (PODEM apply-twice)", e9::run()),
        ("E10 (library generation cost)", e10::run()),
        ("E11 (at-speed detection)", e11::run()),
        ("E12 (coverage & leakage)", e12::run()),
    ] {
        out.push_str(&format!("\n================ {name} ================\n"));
        out.push_str(&report);
    }
    out
}
