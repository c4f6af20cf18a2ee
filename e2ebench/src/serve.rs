//! `serve_journal`: one client drives `faultlib serve --journal <dir>`
//! over pipes, closed loop — submit one job and `run` it, then read its
//! record — through a fixed mix of every job kind on a small pool of
//! netlists (fewer than the service cache holds) plus an occasional
//! fresh one.

use crate::testability;
use crate::trace::Trace;
use crate::{
    checked_op, ms_since, ns_to_ms, op_seed, proc_status_mib, run_for, stats, Config, Report,
};
use dynmos_atpg::register_atpg;
use dynmos_netlist::generate::ripple_adder_bench_text;
use dynmos_netlist::Network;
use dynmos_protest::service::Journal;
use dynmos_protest::{
    network_fault_list, plan_shards, run_sharded, stuck_fault_list, EngineConfig, FaultEntry,
    JobEngine, Json, NetlistFormat, NetworkCache, ShardPlan,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A set-up (spawn to first answer) takes about a millisecond and a
/// half, so one set-up sample is the mean of `SETUP_BATCH` sessions
/// started one after the other. `SETUP_REPEATS` samples are taken before
/// the first op and one more at every session boundary of the run;
/// `setup_s` is their median.
const SETUP_BATCH: usize = 8;
const SETUP_REPEATS: usize = 9;
/// Ops a traced run replays in-process and totals: fourteen rounds of
/// the job mix, traced a round at a time, every other round.
const TRACED_OPS: u64 = 14 * MIX.len() as u64;
/// Op 0 and every this-many-th op, at most `MAX_CHECKS` ops, are re-run
/// in-process and compared.
const CHECK_EVERY: u64 = 16;
const MAX_CHECKS: u64 = 64;
/// Every this-many-th op uses a fresh netlist, a cache miss.
const FRESH_EVERY: u64 = 45;
/// Jobs per `faultlib serve` session: sixteen rounds of the job mix.
/// The service keeps every record of a session, so its memory grows
/// with the jobs served; fixed-length sessions keep `peak_rss_mb` a
/// property of the code, not of how many jobs the clock let through.
const SESSION_JOBS: u64 = 16 * MIX.len() as u64;

/// The job mix, cycled in order: kind, extra request fields, the pool
/// netlists it draws from, and the metric its kernel time is reported
/// under. Every entry is sized to about 12-20 ms a job: large enough
/// that a few milliseconds of fsync or scheduling jitter is a small part
/// of a job, and close enough to each other that no kind stands apart
/// (with kinds of very different cost the median falls into a gap
/// between them and jumps from run to run).
const MIX: &[(&str, &str, &[usize], &str)] = &[
    ("fsim", r#""patterns":262144"#, &[0, 1, 2], "kernel.fsim_ms"),
    (
        "mc-detect",
        r#""samples":163840"#,
        &[5],
        "kernel.mc-detect_ms",
    ),
    ("testability", "", &[6], "kernel.testability_ms"),
    (
        "testability",
        r#""mode":"cutting""#,
        &[7],
        "kernel.testability-cutting_ms",
    ),
    ("length", "", &[6], "kernel.length_ms"),
    ("optimize", r#""max_sweeps":1"#, &[3], "kernel.optimize_ms"),
    ("atpg", "", &[12], "kernel.atpg_ms"),
    (
        "mc-detect",
        r#""samples":2621440"#,
        &[8, 9, 10, 11],
        "kernel.mc-detect_ms",
    ),
    (
        "testability",
        r#""mode":"bdd""#,
        &[13],
        "kernel.testability-bdd_ms",
    ),
];

/// Cells in the paper's syntax, for the `cell` netlist format.
const CELLS: &[&str] = &[
    "TECHNOLOGY domino-CMOS; INPUT a,b,c,d,e; OUTPUT z; z := a*b + c*(d + e);",
    "TECHNOLOGY domino-CMOS; INPUT a,b,c,d,e,f; OUTPUT z; z := (a + b)*(c + d)*(e + f);",
    "TECHNOLOGY dynamic-nMOS; INPUT a,b,c,d,e; OUTPUT z; z := a*b*c + d*e;",
    "TECHNOLOGY domino-CMOS; INPUT a,b,c,d,e,f; OUTPUT z; z := a*(b + c*d) + e*f;",
];

/// One netlist of the pool.
struct Netlist {
    format: &'static str,
    text: String,
}

/// A ripple adder with an extra output that ANDs all `a` inputs: that
/// output's faults need `2^bits` random patterns on average, so an fsim
/// job runs most of its pattern budget instead of stopping early.
fn adder_with_and_tree(bits: usize) -> String {
    let mut text = ripple_adder_bench_text(bits);
    text.push_str("OUTPUT(all)\n");
    let mut level: Vec<String> = (0..bits).map(|i| format!("a{i}")).collect();
    let mut k = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if let [x, y] = pair {
                text.push_str(&format!("t{k} = AND({x}, {y})\n"));
                next.push(format!("t{k}"));
                k += 1;
            } else {
                next.push(pair[0].clone());
            }
        }
        level = next;
    }
    text.push_str(&format!("all = BUFF({})\n", level[0]));
    text
}

/// The pool netlists, indexed by [`MIX`]: ripple adders with a wide
/// AND output (0-2, 12), ripple adders (3-7, 13) and cells (8-11).
fn pool() -> Vec<Netlist> {
    let bench = |text| Netlist {
        format: "bench",
        text,
    };
    let mut pool: Vec<Netlist> = [24, 25, 26]
        .into_iter()
        .map(|b| bench(adder_with_and_tree(b)))
        .collect();
    for bits in [3, 5, 6, 7, 14] {
        pool.push(bench(ripple_adder_bench_text(bits)));
    }
    for cell in CELLS {
        pool.push(Netlist {
            format: "cell",
            text: (*cell).to_owned(),
        });
    }
    pool.push(bench(adder_with_and_tree(19)));
    pool.push(bench(ripple_adder_bench_text(10)));
    pool
}

/// One op of the session, as the client sends it.
struct Op {
    mix: usize,
    netlist: usize,
    fresh: bool,
    request: Json,
    line: String,
}

fn make_op(seed: u64, i: u64, pool: &[Netlist]) -> Op {
    let h = op_seed(seed, i);
    let mix = (i % MIX.len() as u64) as usize;
    let (kind, extra, members, _) = MIX[mix];
    let netlist = members[(h % members.len() as u64) as usize];
    let fresh = i % FRESH_EVERY == FRESH_EVERY - 1 && pool[netlist].format == "bench";
    let mut text = pool[netlist].text.clone();
    if fresh {
        text = format!("# fresh netlist {seed}/{i}\n{text}");
    }
    let head = Json::Obj(vec![
        ("op".into(), Json::str("submit")),
        ("kind".into(), Json::str(kind)),
        ("format".into(), Json::str(pool[netlist].format)),
        ("netlist".into(), Json::str(text)),
        ("seed".into(), Json::num(h >> 12)),
    ])
    .to_string();
    let line = if extra.is_empty() {
        head
    } else {
        format!("{},{extra}}}", &head[..head.len() - 1])
    };
    let request = Json::parse(&line).expect("the harness writes valid JSON");
    Op {
        mix,
        netlist,
        fresh,
        request,
        line,
    }
}

/// A `faultlib serve` child and its pipes.
struct Client {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Client {
    fn spawn(faultlib: &Path, journal: &Path) -> Result<Client, String> {
        let mut child = Command::new(faultlib)
            .arg("serve")
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", faultlib.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Client {
            child,
            stdin,
            stdout,
        })
    }

    fn send(&mut self, lines: &str) -> Result<(), String> {
        self.stdin
            .write_all(lines.as_bytes())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("cannot write to faultlib: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("faultlib closed its output".into()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("cannot read from faultlib: {e}")),
        }
    }

    /// Sends `quit` and waits for the child to exit cleanly.
    fn quit(mut self) -> Result<(), String> {
        self.send("{\"op\":\"quit\"}\n")?;
        self.line()?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("faultlib exited with {status}"))
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // A session abandoned on an error must not leave its child
        // behind; after a clean `quit` the child is already reaped.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `faultlib serve` process with its own fresh journal: a user's
/// session of [`SESSION_JOBS`] jobs.
struct Session {
    client: Client,
    admitted: u64,
}

/// What a finished session left to check and report.
struct SessionEnd {
    rss: f64,
    admitted: u64,
    records: u64,
}

impl Session {
    /// Starts a session in a fresh journal directory `name` and returns
    /// it with its set-up time: spawn to the answer of a first `stats`.
    fn start(cfg: &Config, name: &str) -> Result<(Session, f64), String> {
        let dir = fresh_dir(cfg, name)?;
        let t = Instant::now();
        let mut client = Client::spawn(&cfg.faultlib, &dir)?;
        client.send("{\"op\":\"stats\"}\n")?;
        client.line()?;
        let setup_s = t.elapsed().as_secs_f64();
        let session = Session {
            client,
            admitted: 0,
        };
        Ok((session, setup_s))
    }

    /// Reads the child's peak memory, asks for every result record, and
    /// quits.
    fn end(mut self) -> Result<SessionEnd, String> {
        let pid = self.client.child.id().to_string();
        let rss = proc_status_mib(&pid, "VmHWM:").unwrap_or(0.0);
        self.client.send("{\"op\":\"results\"}\n")?;
        // Counted by record prefix: the line holds every payload of the
        // session, slow to parse in full.
        let records = self.client.line()?.matches("{\"ok\":true,\"id\":").count() as u64;
        self.client.quit()?;
        Ok(SessionEnd {
            rss,
            admitted: self.admitted,
            records,
        })
    }
}

/// One set-up sample: the mean set-up time of [`SETUP_BATCH`] sessions,
/// each started in a fresh journal directory and ended before the next
/// starts.
fn setup_sample(cfg: &Config, name: &str) -> Result<f64, String> {
    let mut total = 0.0;
    for b in 0..SETUP_BATCH {
        let (session, t) = Session::start(cfg, &format!("{name}-{b}"))?;
        total += t;
        session.end()?;
    }
    Ok(total / SETUP_BATCH as f64)
}

/// The fault list the service builds for a netlist of `format`.
fn fault_list(format: NetlistFormat, net: &Network) -> Vec<FaultEntry> {
    match format {
        NetlistFormat::Bench => stuck_fault_list(net),
        NetlistFormat::Cell => network_fault_list(net),
    }
}

/// Runs the testability layer's checks on the answer to a testability
/// job.
fn check_testability(
    cache: &mut NetworkCache,
    op: &Op,
    pool: &[Netlist],
    record: &str,
) -> Result<(), String> {
    let format = NetlistFormat::parse(pool[op.netlist].format)?;
    let source = op
        .request
        .get("netlist")
        .and_then(Json::as_str)
        .unwrap_or("");
    let net = cache.get_or_compile(format, source, None)?;
    let result = payload(record).ok_or("the record has no result")?;
    let result = Json::parse(result).map_err(|e| e.to_string())?;
    testability::check(&net, &fault_list(format, &net), &op.request, &result)
}

/// The directory holding this run's journals. They are deleted only
/// when the run ends: deleting files mid-run adds filesystem work (block
/// discards) to the journal fsyncs being timed.
fn run_dir(cfg: &Config) -> PathBuf {
    cfg.state_dir.join(format!("serve-{}", std::process::id()))
}

/// A fresh, empty directory under the run's directory.
fn fresh_dir(cfg: &Config, name: &str) -> Result<PathBuf, String> {
    let dir = run_dir(cfg).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The raw `result` payload of a record line.
fn payload(record: &str) -> Option<&str> {
    let at = record.find(",\"result\":")?;
    record.get(at + ",\"result\":".len()..record.len().checked_sub(1)?)
}

/// The answer to one op, as the client read it.
struct Answer {
    ms: f64,
    verdict: String,
    record: String,
}

/// Sends one op and reads its verdict, its record and the run summary.
fn call(client: &mut Client, op: &Op) -> Result<Answer, String> {
    let t = Instant::now();
    client.send(&format!("{}\n{{\"op\":\"run\"}}\n", op.line))?;
    let verdict = client.line()?;
    let record = client.line()?;
    let ms = ms_since(t);
    if record.contains("\"op\":\"run\"") {
        return Ok(Answer {
            ms,
            verdict,
            record: String::new(),
        });
    }
    let summary = client.line()?;
    if !summary.contains("\"op\":\"run\"") {
        return Err(format!("expected the run summary, got {summary}"));
    }
    Ok(Answer {
        ms,
        verdict,
        record,
    })
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let t = Instant::now();
    let pool = pool();
    let generate_ms = ms_since(t);

    let mut setup_s = Vec::new();
    for k in 0..SETUP_REPEATS {
        setup_s.push(setup_sample(cfg, &format!("setup{k}"))?);
    }

    let mut report = Report::default();
    let mut replay = if cfg.trace {
        Some(Replay::new(cfg, pool.len())?)
    } else {
        None
    };
    let (mut traced_ms, mut lat_ms) = (Vec::new(), Vec::new());
    // Client round trips of the traced ops, without their replay.
    let mut subprocess_ms = Vec::new();
    let mut checked: Vec<(u64, Op, String)> = Vec::new();
    // Why ops failed, by op: an op fails once, whatever failed in it.
    let mut failures = BTreeMap::new();
    let mut sessions = Vec::new();
    let mut session: Option<Session> = None;
    let mut fatal = None;
    let attempted = run_for(cfg.seconds, cfg.min_ops(TRACED_OPS), |i| {
        if i % SESSION_JOBS == 0 {
            let k = i / SESSION_JOBS;
            let started = match session.take() {
                Some(done) => done.end().map(|end| sessions.push(end)),
                None => Ok(()),
            }
            .and_then(|()| setup_sample(cfg, &format!("setup-in-run{k}")))
            .and_then(|t| {
                setup_s.push(t);
                Session::start(cfg, &format!("session{k}"))
            });
            match started {
                Ok((s, _)) => session = Some(s),
                Err(e) => {
                    fatal = Some(e);
                    return false;
                }
            }
        }
        let s = session.as_mut().expect("a session was started above");
        let op = make_op(cfg.seed, i, &pool);
        let answer = match call(&mut s.client, &op) {
            Ok(a) => a,
            Err(e) => {
                fatal = Some(e);
                return false;
            }
        };
        if answer.verdict.starts_with("{\"ok\":true") {
            s.admitted += 1;
        }
        if answer.record.is_empty() {
            failures.insert(i, format!("op {i}: not admitted: {}", answer.verdict));
        } else if !answer.record.contains("\"status\":\"completed\"") {
            failures.insert(i, format!("op {i}: {}", answer.record));
        } else if let Some(r) = replay
            .as_mut()
            .filter(|_| cfg.traced_op(i, TRACED_OPS, MIX.len() as u64))
        {
            let t = Instant::now();
            if let Err(e) = r.op(i, &op, &pool) {
                failures.insert(i, format!("op {i}: in-process replay: {e}"));
            }
            subprocess_ms.push(answer.ms);
            traced_ms.push(answer.ms + ms_since(t));
        }
        if !cfg.trace || cfg.compared_op(i, TRACED_OPS, MIX.len() as u64) {
            lat_ms.push(answer.ms);
        }
        if checked_op(i, CHECK_EVERY, MAX_CHECKS) {
            checked.push((i, op, answer.record));
        }
        true
    });
    if let Some(e) = fatal {
        return Err(e);
    }
    report.attempted = attempted;
    // The last session is cut by the clock; its peak is only used when
    // no session ran to full length.
    let last = session.expect("at least one op ran").end()?;
    let full: Vec<f64> = sessions.iter().map(|e| e.rss).collect();
    let rss = if full.is_empty() {
        last.rss
    } else {
        stats::median(&full)
    };
    sessions.push(last);

    for (k, e) in sessions.iter().enumerate() {
        if e.records != e.admitted {
            report.broken = true;
            report.problems.push(format!(
                "session {k}: results holds {} records for {} admitted jobs",
                e.records, e.admitted
            ));
        }
    }
    let mut reference = JobEngine::new(EngineConfig::default());
    register_atpg(&mut reference);
    let mut cache = NetworkCache::new(EngineConfig::default().validate_every);
    for (i, op, mut record) in checked {
        if cfg.corrupt && i == 0 {
            record = record.replacen("\"result\":{", "\"result\":{\"corrupted\":true,", 1);
        }
        reference.submit_json(&op.request);
        let expect = reference.run_next().map(|r| r.result.to_string());
        let verdict = if payload(&record) != expect.as_deref() {
            Err("payload differs from an in-process run".to_owned())
        } else if MIX[op.mix].0 == "testability" {
            check_testability(&mut cache, &op, &pool, &record)
        } else {
            Ok(())
        };
        if let Err(e) = verdict {
            failures.entry(i).or_insert(format!("op {i}: {e}"));
        }
    }
    for why in failures.into_values() {
        report.fail(why);
    }

    report.set(
        "generate.network_ms",
        generate_ms,
        format!("{} pool netlists", pool.len()),
    );
    if let Some(r) = replay {
        report.overhead(
            &traced_ms,
            &lat_ms,
            "the client round trip and its in-process replay",
        );
        r.report(&mut report, &subprocess_ms);
        if let Err(e) = r.trace.write_jsonl(&cfg.trace_path()) {
            eprintln!("e2ebench: cannot write the trace: {e}");
        }
    } else {
        report.end_to_end(&lat_ms, lat_ms.len() as f64, "jobs", &setup_s, rss);
        report.set(
            "peak_rss_mb",
            rss,
            format!(
                "median VmHWM of {} sessions of {SESSION_JOBS} jobs",
                full.len().max(1)
            ),
        );
    }
    let _ = std::fs::remove_dir_all(run_dir(cfg));
    Ok(report)
}

/// The in-process replay of a traced session: the same ops through
/// `JobEngine` with its own journal, plus the cache, the journal and
/// the shard planner driven directly, each under its own span.
struct Replay {
    trace: Trace,
    engine: JobEngine,
    cache: NetworkCache,
    journal: Journal,
    threads: usize,
    /// Fault count per pool netlist, for the shard plan.
    fault_counts: Vec<Option<usize>>,
    fault_list_ms: f64,
    inproc_ms: Vec<f64>,
    /// `engine.run` time per kernel metric.
    kernel_ms: BTreeMap<&'static str, f64>,
    json_bytes: u64,
    legs: u64,
    retries: u64,
    journal_records: u64,
    axes: [u64; 2],
    workers: u64,
    testability: testability::Layers,
}

impl Replay {
    fn new(cfg: &Config, pool_len: usize) -> Result<Replay, String> {
        let engine_dir = fresh_dir(cfg, "replay-engine")?;
        let journal_dir = fresh_dir(cfg, "replay-journal")?;
        let mut engine = JobEngine::new(EngineConfig::default());
        register_atpg(&mut engine);
        engine
            .attach_journal(&engine_dir)
            .map_err(|e| format!("cannot attach the replay journal: {e}"))?;
        let (journal, _) =
            Journal::open(&journal_dir, None).map_err(|e| format!("cannot open a journal: {e}"))?;
        Ok(Replay {
            trace: Trace::new(),
            engine,
            cache: NetworkCache::new(EngineConfig::default().validate_every),
            journal,
            threads: EngineConfig::default().parallelism.resolve(),
            fault_counts: vec![None; pool_len],
            fault_list_ms: 0.0,
            inproc_ms: Vec::new(),
            kernel_ms: BTreeMap::new(),
            json_bytes: 0,
            legs: 0,
            retries: 0,
            journal_records: 0,
            axes: [0; 2],
            workers: 0,
            testability: testability::Layers::default(),
        })
    }

    fn op(&mut self, i: u64, op: &Op, pool: &[Netlist]) -> Result<(), String> {
        let tr = &mut self.trace;
        let root = tr.open(i, None, "serve.op");
        let t0 = tr.now();
        let request = Json::parse(&op.line).map_err(|e| e.to_string())?;
        let t1 = tr.now();
        tr.record(i, Some(root), "json.parse", t0, t1);
        self.engine.submit_json(&request);
        let t2 = tr.now();
        tr.record(i, Some(root), "engine.submit", t1, t2);
        let record = self.engine.run_next().ok_or("the engine queue is empty")?;
        let t3 = tr.now();
        tr.record(i, Some(root), "engine.run", t2, t3);
        *self.kernel_ms.entry(MIX[op.mix].3).or_insert(0.0) += ns_to_ms(t3 - t2);
        let record_json = record.to_json();
        let text = record_json.to_string();
        let t4 = tr.now();
        tr.record(i, Some(root), "json.encode", t3, t4);
        self.inproc_ms.push(ns_to_ms(t4 - t0));
        self.json_bytes += (op.line.len() + text.len()) as u64;
        self.legs += u64::from(record.legs);
        self.retries += u64::from(record.retries);

        let t0 = tr.now();
        self.journal
            .record_admit(i + 1, &request)
            .and_then(|()| self.journal.record_done(i + 1, &record_json))
            .map_err(|e| format!("journal append failed: {e}"))?;
        let t1 = tr.now();
        tr.record(i, Some(root), "journal.append", t0, t1);
        self.journal_records += 2;

        let source = request.get("netlist").and_then(Json::as_str).unwrap_or("");
        let format = NetlistFormat::parse(pool[op.netlist].format)?;
        let net = self.cache.get_or_compile(format, source, None)?;
        let t2 = tr.now();
        tr.record(i, Some(root), "cache.get_or_compile", t1, t2);

        let kind = MIX[op.mix].0;
        if kind == "testability" {
            let faults = fault_list(format, &net);
            let probs = vec![0.5; net.primary_inputs().len()];
            testability::traced_job(
                tr,
                i,
                root,
                &net,
                &faults,
                &request,
                &probs,
                &mut self.testability,
            )?;
        }
        if kind == "fsim" || kind == "mc-detect" {
            let faults = match self.fault_counts[op.netlist] {
                Some(n) if !op.fresh => n,
                _ => {
                    let t = Instant::now();
                    let n = fault_list(format, &net).len();
                    self.fault_list_ms += ms_since(t);
                    self.fault_counts[op.netlist] = Some(n);
                    n
                }
            };
            // Pattern units as the kernels count them: 64-pattern
            // batches for fsim, 256-sample passes for Monte Carlo.
            let (key, unit) = if kind == "fsim" {
                ("patterns", 64)
            } else {
                ("samples", 256)
            };
            let work = request.get(key).and_then(Json::as_u64).unwrap_or(0);
            let units = work.div_ceil(unit);
            let plan = plan_shards(faults, units, self.threads);
            self.axes[usize::from(matches!(plan, ShardPlan::Patterns(_)))] += 1;
            self.workers += plan.workers() as u64;
            let t0 = tr.now();
            run_sharded(plan.workers(), plan.workers(), |_| ());
            tr.record(i, Some(root), "parallel.spawn", t0, tr.now());
        }
        tr.close(root);
        Ok(())
    }

    fn report(&self, report: &mut Report, subprocess_ms: &[f64]) {
        testability::layer_report(report, &self.trace, &self.testability);
        let own = self.trace.self_times();
        let ms = |name: &str| ns_to_ms(own.get(name).copied().unwrap_or(0));
        let ops = format!("over {TRACED_OPS} traced ops");
        report.count("trace.ops", TRACED_OPS, "ops sent and replayed in-process");
        report.set("json.parse_ms", ms("json.parse"), &ops);
        report.set("json.encode_ms", ms("json.encode"), &ops);
        report.count(
            "json.bytes",
            self.json_bytes,
            format!("request + record text, {ops}"),
        );
        let c = self.cache.stats();
        report.count(
            "cache.hits",
            c.hits,
            format!("{} lookups, {ops}", c.hits + c.misses),
        );
        report.count(
            "cache.misses",
            c.misses,
            format!("{} lookups, {ops}", c.hits + c.misses),
        );
        report.count(
            "cache.validations",
            c.validations,
            format!("of {} hits", c.hits),
        );
        report.set("cache.compile_ms", ms("cache.get_or_compile"), &ops);
        report.count(
            "journal.records",
            self.journal_records,
            format!("admit + done, {ops}"),
        );
        let bytes = std::fs::metadata(self.journal.path()).map_or(0, |m| m.len());
        report.count("journal.bytes", bytes, format!("journal file after {ops}"));
        report.set(
            "journal.append_ms",
            ms("journal.append"),
            format!("incl. fsync, {ops}"),
        );
        report.set("engine.submit_ms", ms("engine.submit"), &ops);
        report.set("engine.run_ms", ms("engine.run"), &ops);
        report.count("engine.legs", self.legs, &ops);
        report.count("engine.retries", self.retries, &ops);
        let shed = self
            .engine
            .stats_json()
            .get("shed")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        report.count("engine.shed", shed, &ops);
        for (&metric, &ms) in &self.kernel_ms {
            report.set(metric, ms, format!("engine.run of this kind, {ops}"));
        }
        report.set(
            "ipc.overhead_ms",
            stats::median(subprocess_ms) - stats::median(&self.inproc_ms),
            format!("p50 subprocess - p50 in-process, {ops}"),
        );
        report.count(
            "parallel.fault_axis",
            self.axes[0],
            "fsim and mc-detect jobs planned",
        );
        report.count(
            "parallel.pattern_axis",
            self.axes[1],
            "fsim and mc-detect jobs planned",
        );
        report.count(
            "parallel.workers",
            self.workers,
            "shards summed over planned jobs",
        );
        report.set(
            "parallel.spawn_ms",
            ms("parallel.spawn"),
            "no-op run_sharded per planned job",
        );
        report.set(
            "core.fault_list_ms",
            self.fault_list_ms,
            "fault lists of the planned netlists",
        );
    }
}
