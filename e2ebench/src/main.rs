//! End-to-end and per-layer benchmark of the fault-modeling workspace.
//!
//! ```sh
//! bash e2ebench/run.sh --workload fsim_few --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run measures one workload (see `e2ebench/README.md` for why each
//! exists) for `--seconds`, checks the program's outputs outside the
//! timed region, and prints as its last stdout line one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run replays each op's layer work under spans and reports the
//! per-layer metrics instead. The process exits non-zero when any op
//! failed its check or a deterministic count drifted from an earlier
//! run with the same seed and source tree.

mod fsim;
mod serve;
mod stats;
mod testability;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The seed claims are developed on.
const DEFAULT_SEED: u64 = 1;
/// The held-out seed claims are re-checked on.
const HELD_OUT_SEED: u64 = 7301;

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

const WORKLOADS: &[&str] = &["fsim_few", "serve_journal"];

/// What one run was asked to do.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub faultlib: PathBuf,
    pub state_dir: PathBuf,
    /// Corrupts the first op's output before its check, to show that
    /// the checks catch a wrong answer.
    pub corrupt: bool,
}

impl Config {
    /// Whether op `i` is traced. A traced run starts with an alternating
    /// phase, `block` traced ops then `block` untraced ones, until
    /// `first` ops were traced; it then runs untraced ops until its time
    /// is up. The layer totals and counts cover a fixed set of ops, and
    /// the two halves of the alternating phase, interleaved in time,
    /// give the tracing overhead.
    pub fn traced_op(&self, i: u64, first: u64, block: u64) -> bool {
        self.trace && i < 2 * first && (i / block).is_multiple_of(2)
    }

    /// Whether op `i` is an untraced op of the alternating phase, which
    /// the traced ops are compared with.
    pub fn compared_op(&self, i: u64, first: u64, block: u64) -> bool {
        self.trace && i < 2 * first && !(i / block).is_multiple_of(2)
    }

    /// The fewest ops a run makes: a traced run needs its alternating
    /// phase, an untraced one enough ops for its tail percentile.
    pub fn min_ops(&self, first: u64) -> u64 {
        if self.trace {
            2 * first
        } else {
            TAIL_BEYOND as u64 + 1
        }
    }

    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.state_dir
            .join(format!("trace-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// A per-op seed: the op sequence is a pure function of the run seed.
pub fn op_seed(seed: u64, op: u64) -> u64 {
    splitmix(seed ^ splitmix(op.wrapping_add(0x5EED)))
}

/// SplitMix64 finalizer.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)` from a hash value.
pub fn unit_range(h: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((h >> 11) as f64 / (1u64 << 53) as f64)
}

/// Runs `op(0)`, `op(1)`, … until `seconds` have passed and at least
/// `min_ops` ran, or an op returns `false`; returns the op count. Closed
/// loop: the next op starts when the previous one returned.
pub fn run_for(seconds: f64, min_ops: u64, mut op: impl FnMut(u64) -> bool) -> u64 {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        let go_on = op(i);
        i += 1;
        if !go_on {
            break;
        }
    }
    i
}

/// Whether op `i` is checked: op 0 and every `every`-th op after it, at
/// most `max` ops, so checking costs the same whatever the run length.
pub fn checked_op(i: u64, every: u64, max: u64) -> bool {
    i.is_multiple_of(every) && i / every < max
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds to milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A `VmHWM:`/`VmRSS:` style field of a `/proc/<pid>/status` file, in
/// MiB.
pub fn proc_status_mib(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Set-up timings of a workload, one entry per set-up.
#[derive(Default)]
pub struct Setup {
    pub total_s: Vec<f64>,
    network_ms: Vec<f64>,
    fault_list_ms: Vec<f64>,
}

impl Setup {
    /// Times `batch` back-to-back set-ups as one sample, their mean, so
    /// a short set-up is timed over several of them. `build`
    /// makes one set-up's product and says how long its network and its
    /// fault list took; the last product is returned.
    pub fn sample<T>(&mut self, batch: usize, mut build: impl FnMut() -> (T, f64, f64)) -> T {
        let start = Instant::now();
        let (mut network_ms, mut fault_list_ms) = (0.0, 0.0);
        let mut last = None;
        for _ in 0..batch.max(1) {
            // Dropped first, so no two set-ups' products are alive at
            // once and `peak_rss_mb` does not see the batching.
            drop(last.take());
            let (product, n, f) = build();
            network_ms += n;
            fault_list_ms += f;
            last = Some(product);
        }
        let k = batch.max(1) as f64;
        self.total_s.push(start.elapsed().as_secs_f64() / k);
        self.network_ms.push(network_ms / k);
        self.fault_list_ms.push(fault_list_ms / k);
        last.expect("at least one set-up ran")
    }

    /// Sets `generate.network_ms` and `core.fault_list_ms`.
    pub fn report(&self, report: &mut Report) {
        let base = format!("median of {} set-ups", self.total_s.len());
        report.set(
            "generate.network_ms",
            stats::median(&self.network_ms),
            &base,
        );
        report.set(
            "core.fault_list_ms",
            stats::median(&self.fault_list_ms),
            base,
        );
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed, or why the run is not correct (first few kept).
    pub problems: Vec<String>,
    /// A problem that is not one op's, such as a drifted count.
    pub broken: bool,
    metrics: BTreeMap<&'static str, (f64, String)>,
    /// Counts that must repeat exactly across runs with one seed.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Report {
    /// Counts one failed op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    /// Sets a metric with the base it was taken over.
    pub fn set(&mut self, name: &'static str, value: f64, base: impl Into<String>) {
        self.metrics.insert(name, (value, base.into()));
    }

    /// Sets a deterministic count: a metric that is also checked to
    /// repeat exactly across runs with the same seed.
    pub fn count(&mut self, name: &'static str, value: u64, base: impl Into<String>) {
        self.counts.insert(name, value);
        self.set(name, value as f64, base);
    }

    /// Sets the end-to-end metrics from op latencies and work.
    pub fn end_to_end(&mut self, lat_ms: &[f64], work: f64, unit: &str, setup_s: &[f64], rss: f64) {
        let busy_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
        let n = lat_ms.len();
        self.set(
            "work_per_s",
            work / busy_s,
            format!("{work} {unit} over {busy_s:.3} s of {n} timed ops"),
        );
        let q = if n >= 2 {
            stats::quartiles(lat_ms)
        } else {
            [f64::NAN; 3]
        };
        self.set(
            "latency_p50_ms",
            stats::median(lat_ms),
            format!("median of {n} ops, quartiles {:.3} .. {:.3}", q[0], q[2]),
        );
        match stats::tail(lat_ms, TAIL_BEYOND) {
            Some(t) => self.set(
                "latency_tail_ms",
                t.value,
                format!(
                    "p{:.1} of {} ops, {TAIL_BEYOND} beyond",
                    t.percentile, t.samples
                ),
            ),
            None => {
                self.broken = true;
                self.problems.push(format!(
                    "only {n} ops: no percentile has {TAIL_BEYOND} samples beyond it"
                ));
            }
        }
        self.set(
            "setup_s",
            stats::median(setup_s),
            format!("median of {} set-ups", setup_s.len()),
        );
        self.set("peak_rss_mb", rss, "VmHWM of the working process");
    }

    /// Sets `trace.overhead_frac` from the alternating phase of a
    /// traced run: a traced op's latency is the op with its spans and
    /// its replay, `includes` says what that replay is.
    pub fn overhead(&mut self, traced_ms: &[f64], untraced_ms: &[f64], includes: &str) {
        let (t, u) = (stats::median(traced_ms), stats::median(untraced_ms));
        self.set(
            "trace.overhead_frac",
            t / u - 1.0,
            format!(
                "p50 of {} traced ops ({includes}) / p50 of {} untraced ops between them - 1",
                traced_ms.len(),
                untraced_ms.len()
            ),
        );
    }
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        faultlib: PathBuf::new(),
        state_dir: PathBuf::from(".bench_build/e2ebench"),
        corrupt: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--corrupt" {
            cfg.corrupt = true;
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--faultlib" => cfg.faultlib = PathBuf::from(value),
            "--state-dir" => cfg.state_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if cfg.workload != "all" && !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or \"all\", got {:?}",
            cfg.workload
        ));
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

/// FNV-1a over the workspace's sources (`*.rs` and `*.toml` under
/// `src`, `crates` and `e2ebench`, plus the root manifest and lock
/// file), so a run from a checkout without git history still names the
/// code it measured.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "e2ebench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The metrics `BENCHMARK.json` (read from the working directory, the
/// repository root) lists under `key`, `end_to_end` or `per_layer`, as
/// name and unit. That file is the one place the metric list is kept;
/// a listed metric a workload does not set reads 0 in a traced run and
/// breaks an untraced one.
fn listed_metrics(key: &str) -> Result<Vec<(String, String)>, String> {
    use dynmos_protest::Json;
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = json
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("a {key} entry has no {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none".into())
}

/// The provenance line printed before the result.
fn stamp(cfg: &Config, report: &Report, fingerprint: u64) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    // Only a repository rooted at the working directory names this code.
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let sha = command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    let rustc = command_line(Command::new("rustc").arg("--version"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = dynmos_protest::Parallelism::Auto.resolve();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let role = match cfg.seed {
        DEFAULT_SEED => "default",
        HELD_OUT_SEED => "held-out",
        _ => "other",
    };
    format!(
        r#"{{"git_sha":"{sha}","source_fnv":"{fingerprint:016x}","rustc":"{rustc}","nproc":{nproc},"threads":{threads},"profile":"{profile}","workload":"{}","seed":{},"seed_role":"{role}","seconds":{},"trace":{},"attempted":{},"failed":{}}}"#,
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace, report.attempted, report.failed
    )
}

/// Compares the run's deterministic counts with the first run recorded
/// for the same workload, seed, source tree and thread count, or
/// records them if this is the first.
fn check_counts(cfg: &Config, report: &mut Report, fingerprint: u64) -> String {
    let threads = dynmos_protest::Parallelism::Auto.resolve();
    let dir = cfg.state_dir.join("counts");
    let path = dir.join(format!(
        "{}-seed{}-src{fingerprint:016x}-t{threads}.txt",
        cfg.workload, cfg.seed
    ));
    let text: String = report
        .counts
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == text => format!("match {}", path.display()),
        Ok(previous) => {
            let before: BTreeMap<&str, &str> =
                previous.lines().filter_map(|l| l.split_once(' ')).collect();
            for (k, v) in &report.counts {
                let was = before.get(k).copied().unwrap_or("absent");
                if was != v.to_string() {
                    report
                        .problems
                        .push(format!("count {k} drifted: {was} before, {v} now"));
                }
            }
            report.broken = true;
            format!("DRIFT against {}", path.display())
        }
        Err(_) => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text));
            match written {
                Ok(()) => format!("recorded {}", path.display()),
                Err(e) => format!("not recorded ({e})"),
            }
        }
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg.workload == "all" {
        return run_all();
    }
    let wanted = match listed_metrics(if cfg.trace { "per_layer" } else { "end_to_end" }) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::fs::create_dir_all(&cfg.state_dir).is_err() {
        eprintln!("e2ebench: cannot create {}", cfg.state_dir.display());
        return ExitCode::from(2);
    }
    let outcome = match cfg.workload.as_str() {
        "fsim_few" => fsim::run(&cfg),
        "serve_journal" => serve::run(&cfg),
        _ => unreachable!("validated in parse_args"),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {} cannot run: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    let fingerprint = source_fingerprint();
    if cfg.trace {
        println!("counts: {}", check_counts(&cfg, &mut report, fingerprint));
    }
    println!("stamp {}", stamp(&cfg, &report, fingerprint));
    let mut json = Vec::new();
    for (name, unit) in &wanted {
        let (value, base) = match report.metrics.get(name.as_str()) {
            Some(m) => m.clone(),
            None if cfg.trace => (0.0, "layer not used by this workload".into()),
            None => {
                report.broken = true;
                report.problems.push(format!("{name} was not measured"));
                (0.0, "not measured".into())
            }
        };
        println!("{name:<32} {value:>16.6} {unit:<6} [{base}]");
        json.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    let correct = report.failed == 0 && !report.broken && report.attempted > 0;
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.attempted,
        report.failed,
        json.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in its own process, one after the
/// other, with the same arguments. Each child's output is echoed with
/// the workload's name in front; the last line merges their results,
/// metrics named `<workload>/<metric>`. Fails if any child failed.
fn run_all() -> ExitCode {
    use dynmos_protest::Json;
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2ebench: cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut child_args = args.clone();
        if let Some(at) = child_args.iter().position(|a| a == "--workload") {
            child_args[at + 1] = (*w).to_owned();
        }
        let out = match Command::new(&exe).args(&child_args).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("e2ebench: cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        for line in text.lines() {
            println!("[{w}] {line}");
        }
        let last = text.lines().last().and_then(|l| Json::parse(l).ok());
        correct &= out.status.success();
        let Some(Json::Obj(result)) = last else {
            correct = false;
            continue;
        };
        for (key, value) in result {
            match (key.as_str(), value) {
                ("attempted", v) => attempted += v.as_u64().unwrap_or(0),
                ("failed", v) => failed += v.as_u64().unwrap_or(0),
                ("metrics", Json::Obj(ms)) => {
                    metrics.extend(ms.into_iter().map(|(k, v)| format!(r#""{w}/{k}":{v}"#)));
                }
                _ => {}
            }
        }
    }
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_seeds_are_distinct_and_repeatable() {
        let seeds: Vec<u64> = (0..1000).map(|i| op_seed(DEFAULT_SEED, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(op_seed(DEFAULT_SEED, 7), seeds[7]);
        assert_ne!(op_seed(HELD_OUT_SEED, 7), seeds[7]);
    }
}
