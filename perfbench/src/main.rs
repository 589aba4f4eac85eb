//! Time-to-verdict benchmark for SF-Order in its default configuration.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sw|pipeline|replay --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, split over child
//! processes of this program (`--part`); `--trace 1` is the separate
//! traced run that measures the per-layer metrics in one process. Every
//! execution's output is checked: the `sw` table against its serial
//! reference, and every racy-address set against the exact oracle
//! reference built in set-up. The last line of standard output is one
//! JSON object; the lines before it are the same figures for people.
//! `README.md` beside this file lists the workloads and metrics.

mod pipeline;
mod probe;
mod timed;

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sfrd_core::{
    BatchStats, Batched, EngineConfig, GenWorkload, Mode, NullHooks, RaceReport, ReachOnly,
    Runtime, SfDetector, TaskHooks, Workload,
};
use sfrd_runtime::{run_sequential, PoolStats};
use sfrd_trace::{replay_journal, JournalHooks, JournalReader, JournalWriter, ReplayStats};
use sfrd_workloads::{SwParams, SwWorkload};

use timed::{SpanTotals, Timed};

/// Pool size of the live detected and base executions.
const WORKERS: usize = 2;
/// Child processes an end-to-end run is split into, run one after
/// another. Memory-bound timings on a shared host shift from process to
/// process and over minutes; pooling the samples of several processes
/// spread over the whole run steadies the medians. Each process sets up
/// once, so `setup_s` is the median of this many set-ups.
const PARTS: usize = 5;
/// Base executions per round: they are short, so more of them steady the
/// median at little cost.
const BASE_REPS: usize = 3;
/// A detected execution that takes longer than this is a hang.
const DEADLINE: Duration = Duration::from_secs(60);
/// `RaceCollector` keeps at most this many distinct `(addr, kind)` races;
/// with three kinds per address the verdict comparison is exact only
/// while `3 × |reference|` stays below it.
const RACE_SAMPLE_BOUND: usize = 65_536;
const SW_PARAMS: SwParams = SwParams { n: 256, base: 32 };
const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sw,
    Pipeline,
    Replay,
}

impl Kind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "sw" => Some(Self::Sw),
            "pipeline" => Some(Self::Pipeline),
            "replay" => Some(Self::Replay),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Sw => "sw",
            Self::Pipeline => "pipeline",
            Self::Replay => "replay",
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process of an end-to-end run: which part it is.
    part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut part = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--part" => part = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload sw|pipeline|replay is required")?,
        seed,
        seconds,
        trace,
        part,
    })
}

// ------------------------------------------------------------------ inputs

/// What set-up produces: the program, its verdict reference and, for
/// `replay`, the recorded journal.
struct Input {
    kind: Kind,
    seed: u64,
    /// `sw`: the serial reference table.
    sw_expected: Vec<i64>,
    /// `pipeline`/`replay`: the composed chain.
    program: Option<GenWorkload>,
    /// Exact racy-address set (empty for the race-free `sw`).
    reference: BTreeSet<u64>,
    /// A journal of the program and the seconds its recording took.
    journal: Option<(Vec<u8>, f64)>,
}

fn setup(kind: Kind, seed: u64) -> Result<Input, String> {
    let mut input = Input {
        kind,
        seed,
        sw_expected: Vec::new(),
        program: None,
        reference: BTreeSet::new(),
        journal: None,
    };
    if kind == Kind::Sw {
        input.sw_expected = SwWorkload::new(SW_PARAMS, seed).expected();
        return Ok(input);
    }
    let blocks = pipeline::blocks(seed, pipeline::BLOCKS);
    input.reference = pipeline::reference(&blocks);
    if 3 * input.reference.len() >= RACE_SAMPLE_BOUND {
        return Err(format!(
            "{} racy addresses: the detector's race sample cannot hold them all",
            input.reference.len()
        ));
    }
    let program = GenWorkload(pipeline::compose(&blocks));
    if kind == Kind::Replay {
        input.journal = Some(record(&program, seed));
    }
    input.program = Some(program);
    Ok(input)
}

/// Record `w` on the sequential runtime into an in-memory journal.
fn record<W: Workload>(w: &W, seed: u64) -> (Vec<u8>, f64) {
    let t0 = Instant::now();
    let writer = JournalWriter::new(Vec::new(), &format!("perfbench seed={seed}"))
        .expect("writing to memory cannot fail");
    let hooks = Batched::new(JournalHooks::new(writer));
    run_sequential(&hooks, |ctx| w.run(ctx));
    let bytes = hooks
        .into_inner()
        .finish_owned()
        .expect("writing to memory cannot fail");
    (bytes, t0.elapsed().as_secs_f64())
}

fn sw_table_ok(w: &SwWorkload, expected: &[i64]) -> bool {
    let n = w.params().n;
    (0..=n).all(|i| (0..=n).all(|j| w.table.load(i, j) == expected[i * (n + 1) + j]))
}

// -------------------------------------------------------------- executions

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exec {
    /// SF-Order in its default configuration; `workers` is ignored by
    /// `replay`, which is single-threaded.
    Detect { workers: usize, traced: bool },
    /// The same program with no detector.
    Base,
}

impl Exec {
    fn label(self) -> String {
        match self {
            Exec::Detect { workers, traced } => {
                format!("detect w{workers}{}", if traced { " traced" } else { "" })
            }
            Exec::Base => format!("base w{WORKERS}"),
        }
    }
}

/// One timed execution and everything read around it.
#[derive(Default)]
struct Run {
    wall: f64,
    /// Output check: the `sw` table, and the replay's completion.
    output_ok: bool,
    report: Option<RaceReport>,
    batch: Option<BatchStats>,
    pool: Option<PoolStats>,
    /// Worker on-CPU and run-queue-wait seconds during the run.
    sched: (f64, f64),
    spans: Option<SpanTotals>,
    replay: Option<ReplayStats>,
}

/// Run `w` as the root task of a fresh pool. The pool is built before and
/// torn down after the timed region.
fn live<H: TaskHooks, W: Workload>(w: &W, hooks: Arc<H>, workers: usize) -> Run {
    let rt: Runtime<H> = Runtime::new(workers);
    let before = probe::task_times();
    let t0 = Instant::now();
    rt.run(hooks, |ctx| w.run(ctx));
    let wall = t0.elapsed().as_secs_f64();
    Run {
        wall,
        output_ok: true,
        pool: Some(rt.stats()),
        sched: probe::worker_delta(&before),
        ..Run::default()
    }
}

fn detect_live<W: Workload>(w: &W, workers: usize, traced: bool) -> Run {
    let cfg = EngineConfig::new(Mode::Full);
    if traced {
        let det = Arc::new(Batched::new(Timed::new(SfDetector::from_config(&cfg))));
        let run = live(w, Arc::clone(&det), workers);
        Run {
            report: Some(det.inner().inner().report()),
            batch: Some(det.stats()),
            spans: Some(det.inner().totals()),
            ..run
        }
    } else {
        let det = Arc::new(Batched::new(SfDetector::from_config(&cfg)));
        let run = live(w, Arc::clone(&det), workers);
        Run {
            report: Some(det.inner().report()),
            batch: Some(det.stats()),
            ..run
        }
    }
}

/// Decode `journal` and replay it into `sink`, timed from the first byte.
fn replay_into<H: TaskHooks>(journal: &[u8], sink: &H) -> (f64, ReplayStats) {
    let t0 = Instant::now();
    let stats = JournalReader::new(journal)
        .and_then(|mut rd| replay_journal(&mut rd, sink))
        .expect("a journal recorded in set-up replays");
    (t0.elapsed().as_secs_f64(), stats)
}

fn detect_replay(journal: &[u8], traced: bool) -> Run {
    let det = SfDetector::from_config(&EngineConfig::new(Mode::Full));
    let (wall, stats, spans, report) = if traced {
        let det = Timed::new(det);
        let (wall, stats) = replay_into(journal, &det);
        (wall, stats, Some(det.totals()), det.inner().report())
    } else {
        let (wall, stats) = replay_into(journal, &det);
        (wall, stats, None, det.report())
    };
    Run {
        wall,
        output_ok: stats.events > 0,
        report: Some(report),
        spans,
        replay: Some(stats),
        ..Run::default()
    }
}

impl Input {
    fn execute(&self, exec: Exec) -> Run {
        match (self.kind, exec) {
            (Kind::Sw, _) => {
                let w = SwWorkload::new(SW_PARAMS, self.seed);
                let run = match exec {
                    Exec::Detect { workers, traced } => detect_live(&w, workers, traced),
                    Exec::Base => live(&w, Arc::new(NullHooks), WORKERS),
                };
                Run {
                    output_ok: sw_table_ok(&w, &self.sw_expected),
                    ..run
                }
            }
            (Kind::Pipeline, Exec::Detect { workers, traced }) => {
                detect_live(self.gen(), workers, traced)
            }
            (Kind::Pipeline, Exec::Base) => live(self.gen(), Arc::new(NullHooks), WORKERS),
            (Kind::Replay, Exec::Detect { traced, .. }) => detect_replay(self.journal(), traced),
            (Kind::Replay, Exec::Base) => {
                let (wall, stats) = replay_into(self.journal(), &NullHooks);
                Run {
                    wall,
                    output_ok: stats.events > 0,
                    replay: Some(stats),
                    ..Run::default()
                }
            }
        }
    }

    fn gen(&self) -> &GenWorkload {
        self.program.as_ref().expect("pipeline input has a program")
    }

    fn journal(&self) -> &[u8] {
        &self.journal.as_ref().expect("replay input has a journal").0
    }

    /// `(missed, extra)` racy addresses of a detected run.
    fn verdict(&self, report: &RaceReport) -> (usize, usize) {
        (
            self.reference.difference(&report.racy_addrs).count(),
            report.racy_addrs.difference(&self.reference).count(),
        )
    }
}

// ---------------------------------------------------------------- ladder

/// The journal-replay ladder: decode-only, reach-only and full replays of
/// one journal, single-threaded.
struct Ladder {
    decode_s: f64,
    reach_s: f64,
    full_s: f64,
    events: u64,
    full_report: RaceReport,
}

fn ladder(journal: &[u8]) -> Ladder {
    let (decode_s, stats) = replay_into(journal, &NullHooks);
    let reach = ReachOnly(SfDetector::from_config(&EngineConfig::new(Mode::Reach)));
    let (reach_s, _) = replay_into(journal, &reach);
    let full = SfDetector::from_config(&EngineConfig::new(Mode::Full));
    let (full_s, _) = replay_into(journal, &full);
    Ladder {
        decode_s,
        reach_s,
        full_s,
        events: stats.events,
        full_report: full.report(),
    }
}

// ----------------------------------------------------------------- tally

/// End-to-end metrics and their units, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("detect_s", "s"),
    ("detect_w1_s", "s"),
    ("base_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run and their units, in output order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("sched.tasks_run", "count"),
    ("sched.steals", "count"),
    ("sched.steal_retries", "count"),
    ("sched.parks", "count"),
    ("sched.wakeups", "count"),
    ("sched.busy_s", "s"),
    ("sched.runq_wait_s", "s"),
    ("sched.utilization", "ratio"),
    ("batch.flushes", "count"),
    ("batch.recorded", "count"),
    ("batch.filtered", "count"),
    ("batch.filter_rate", "ratio"),
    ("batch.verdict_hits", "count"),
    ("om.fast_inserts", "count"),
    ("om.group_locks", "count"),
    ("om.global_escalations", "count"),
    ("om.query_retries", "count"),
    ("reach.queries", "count"),
    ("reach.bytes", "bytes"),
    ("reach.set_bytes", "bytes"),
    ("reach.set_allocs", "count"),
    ("reach.set_chunks_shared", "count"),
    ("reach.set_chunks_copied", "count"),
    ("reach.set_lineage_hits", "count"),
    ("reach.merges", "count"),
    ("shadow.history_bytes", "bytes"),
    ("shadow.lock_ops", "count"),
    ("shadow.fast_hits", "count"),
    ("shadow.cas_retries", "count"),
    ("shadow.page_allocs", "count"),
    ("shadow.prefetch_issued", "count"),
    ("core.races_total", "count"),
    ("core.races_distinct", "count"),
    ("core.seqlock_hits", "count"),
    ("verdict.missed_addrs", "count"),
    ("verdict.extra_addrs", "count"),
    ("trace.journal_bytes", "bytes"),
    ("trace.events", "count"),
    ("trace.record_s", "s"),
    ("trace.decode_s", "s"),
    ("hooks.boundary_calls", "count"),
    ("hooks.boundary_s", "s"),
    ("hooks.access_calls", "count"),
    ("hooks.access_s", "s"),
    ("hooks.outside_s", "s"),
    ("hooks.overhead_s", "s"),
    ("ladder.decode_s", "s"),
    ("ladder.reach_s", "s"),
    ("ladder.access_s", "s"),
    ("prog.reads", "count"),
    ("prog.writes", "count"),
    ("prog.futures", "count"),
    ("prog.spawns", "count"),
];

/// Everything measured so far; shared with the watchdog so a hang can
/// still print the partial result.
#[derive(Default)]
struct Tally {
    trace: bool,
    /// A child process: it hands its raw samples to the parent.
    part: bool,
    /// The watchdog ended the process.
    hung: bool,
    attempted: u64,
    failed: u64,
    /// End-to-end samples by metric.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Traced run: one per-layer map per round.
    layers: Vec<BTreeMap<&'static str, f64>>,
}

/// First quartile, median and third quartile, interpolated between
/// order statistics.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Tally {
    fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    fn med(&self, metric: &str) -> Option<f64> {
        self.samples.get(metric).map(|v| median(v))
    }

    /// `(name, value, unit)` of every metric this run reports.
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.trace {
            return LAYER_METRICS
                .iter()
                .filter_map(|&(name, unit)| {
                    let v: Vec<f64> = self
                        .layers
                        .iter()
                        .filter_map(|m| m.get(name))
                        .copied()
                        .collect();
                    (!v.is_empty()).then(|| (name, median(&v), unit))
                })
                .collect();
        }
        END_TO_END
            .iter()
            .filter_map(|&(name, unit)| Some((name, self.med(name)?, unit)))
            .collect()
    }

    /// What the process prints at exit: the raw samples for the parent
    /// in a child process, the result otherwise.
    fn output(&self, kind: Kind, seed: u64) -> String {
        if self.part {
            self.dump()
        } else {
            self.render(kind, seed)
        }
    }

    /// A child's samples and counts, one per line, for [`Tally::absorb`].
    fn dump(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.samples {
            for x in v {
                out += &format!("sample {name} {x}\n");
            }
        }
        out += &format!("attempts {} {}\n", self.attempted, self.failed);
        if self.hung {
            out += "hung\n";
        }
        out
    }

    /// Add a child's [`Tally::dump`] to this tally.
    fn absorb(&mut self, dump: &str) -> Result<(), String> {
        let bad = |line: &str| format!("unreadable line from a part: {line:?}");
        for line in dump.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f[..] {
                ["sample", name, x] => {
                    let &(name, _) = END_TO_END
                        .iter()
                        .find(|m| m.0 == name)
                        .ok_or_else(|| bad(line))?;
                    self.sample(name, x.parse().map_err(|_| bad(line))?);
                }
                ["attempts", a, f] => {
                    self.attempted += a.parse::<u64>().map_err(|_| bad(line))?;
                    self.failed += f.parse::<u64>().map_err(|_| bad(line))?;
                }
                ["hung"] => self.hung = true,
                _ => return Err(bad(line)),
            }
        }
        Ok(())
    }

    /// The human-readable lines and the final JSON line.
    fn render(&self, kind: Kind, seed: u64) -> String {
        let mut out = format!(
            "perfbench workload={} seed={seed} trace={} workers={WORKERS} cpus={}\n",
            kind.name(),
            u8::from(self.trace),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        let metrics = self.metrics();
        if self.trace {
            for (name, v, unit) in &metrics {
                out += &format!("{name:<24} {v} {unit}\n");
            }
        } else {
            for &(name, unit) in END_TO_END {
                if let Some(v) = self.samples.get(name) {
                    let (q1, q2, q3) = quartiles(v);
                    out += &format!(
                        "{name:<12} {q2} {unit} (q1 {q1:.6}, q3 {q3:.6}, n {})\n",
                        v.len()
                    );
                }
            }
            let (d, d1, b) = (
                self.med("detect_s"),
                self.med("detect_w1_s"),
                self.med("base_s"),
            );
            if let (Some(d), Some(d1), Some(b)) = (d, d1, b) {
                out += &format!(
                    "overhead_x   {:.3} (detect_s/base_s, not gated)\n\
                     speedup_w2   {:.3} (detect_w1_s/detect_s, not gated)\n",
                    ratio(d, b),
                    ratio(d1, d)
                );
            }
        }
        out += &format!(
            "fail_rate    {} ({} failed of {} attempted)\n",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        out += &format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
        out
    }
}

// -------------------------------------------------------------- watchdog

/// Gives each execution a deadline. On expiry it dumps the pool's worker
/// threads, counts the execution as failed, prints the partial result and
/// ends the process instead of hanging.
struct Watchdog {
    /// `(deadline, what is running)`, `None` while idle; and the flag
    /// that asks the thread to stop.
    state: Mutex<(Option<(Instant, String)>, bool)>,
    cv: Condvar,
}

impl Watchdog {
    fn spawn(
        tally: Arc<Mutex<Tally>>,
        kind: Kind,
        seed: u64,
    ) -> (Arc<Self>, std::thread::JoinHandle<()>) {
        let dog = Arc::new(Self {
            state: Mutex::new((None, false)),
            cv: Condvar::new(),
        });
        let d = Arc::clone(&dog);
        let handle = std::thread::Builder::new()
            .name("perfbench-watchdog".into())
            .spawn(move || d.watch(&tally, kind, seed))
            .expect("spawn the watchdog thread");
        (dog, handle)
    }

    fn watch(&self, tally: &Mutex<Tally>, kind: Kind, seed: u64) {
        let mut st = self.state.lock().expect("watchdog state");
        loop {
            if st.1 {
                return;
            }
            let Some((deadline, what)) = &st.0 else {
                st = self.cv.wait(st).expect("watchdog state");
                continue;
            };
            let now = Instant::now();
            if now < *deadline {
                let left = *deadline - now;
                st = self.cv.wait_timeout(st, left).expect("watchdog state").0;
                continue;
            }
            eprintln!(
                "perfbench: watchdog: {what} (workload={} seed={seed}) passed its {}s \
                 deadline; worker threads:\n{}",
                kind.name(),
                DEADLINE.as_secs(),
                probe::worker_dump()
            );
            // Every update leaves the counts valid, so a poisoned lock
            // still holds a usable tally.
            let mut t = tally.lock().unwrap_or_else(|e| e.into_inner());
            t.attempted += 1;
            t.failed += 1;
            t.hung = true;
            print!("{}", t.output(kind, seed));
            let _ = std::io::stdout().flush();
            std::process::exit(0);
        }
    }

    fn arm(&self, what: String) {
        self.state.lock().expect("watchdog state").0 = Some((Instant::now() + DEADLINE, what));
        self.cv.notify_one();
    }

    fn disarm(&self) {
        self.state.lock().expect("watchdog state").0 = None;
    }

    fn stop(&self) {
        self.state.lock().expect("watchdog state").1 = true;
        self.cv.notify_one();
    }
}

// ------------------------------------------------------------------ main

struct Bench {
    input: Input,
    tally: Arc<Mutex<Tally>>,
    dog: Arc<Watchdog>,
    rep: usize,
}

impl Bench {
    /// Execute `f` once under the watchdog and count the attempt. It
    /// fails when it panics or reports a wrong output; `None` after a
    /// panic.
    fn attempt<T>(&self, what: String, f: impl FnOnce() -> (T, bool)) -> Option<T> {
        self.dog.arm(format!("{what} rep={}", self.rep));
        let out = catch_unwind(AssertUnwindSafe(f));
        self.dog.disarm();
        let mut t = self.tally.lock().expect("tally");
        t.attempted += 1;
        match out {
            Ok((v, ok)) => {
                if !ok {
                    t.failed += 1;
                    eprintln!(
                        "perfbench: {what} rep={}: wrong output or verdict",
                        self.rep
                    );
                }
                Some(v)
            }
            Err(_) => {
                t.failed += 1;
                eprintln!("perfbench: {what} rep={}: panicked", self.rep);
                None
            }
        }
    }

    fn execute(&self, exec: Exec) -> Option<Run> {
        self.attempt(exec.label(), || {
            let run = self.input.execute(exec);
            let verdict_ok = run.report.as_ref().is_none_or(|r| {
                let (missed, extra) = self.input.verdict(r);
                if missed + extra > 0 {
                    eprintln!("perfbench: verdict: {missed} racy addresses missed, {extra} extra");
                }
                missed + extra == 0
            });
            let ok = run.output_ok && verdict_ok;
            (run, ok)
        })
    }

    fn sample(&self, metric: &'static str, value: f64) {
        self.tally.lock().expect("tally").sample(metric, value);
    }

    /// One round of the end-to-end measurement.
    fn round(&self) {
        let detect = Exec::Detect {
            workers: WORKERS,
            traced: false,
        };
        probe::reset_peak_rss();
        if let Some(r) = self.execute(detect) {
            self.sample("detect_s", r.wall);
            // Later executions start from whatever heap the allocator kept
            // from earlier ones; only a fresh process's first gives a
            // steady peak.
            if self.rep == 0 {
                self.sample("peak_rss_mib", probe::peak_rss_mib());
            }
            // `replay` is single-threaded: its one-worker time is its time.
            if self.input.kind == Kind::Replay {
                self.sample("detect_w1_s", r.wall);
            }
        }
        if self.input.kind != Kind::Replay {
            let w1 = Exec::Detect {
                workers: 1,
                traced: false,
            };
            if let Some(r) = self.execute(w1) {
                self.sample("detect_w1_s", r.wall);
            }
        }
        for _ in 0..BASE_REPS {
            if let Some(r) = self.execute(Exec::Base) {
                self.sample("base_s", r.wall);
            }
        }
    }

    /// One round of the traced run: an untraced and a traced detected
    /// execution, the replay ladder of the workload's journal, and a
    /// decode of that journal.
    fn traced_round(&self) {
        let (journal, record_s) = self.input.journal.as_ref().expect("recorded in set-up");
        let (journal, record_s) = (&journal[..], *record_s);
        let untraced = self.execute(Exec::Detect {
            workers: WORKERS,
            traced: false,
        });
        let traced = self.execute(Exec::Detect {
            workers: WORKERS,
            traced: true,
        });
        let ladder = self.attempt("replay ladder".into(), || {
            let l = ladder(journal);
            let (missed, extra) = self.input.verdict(&l.full_report);
            (l, missed + extra == 0)
        });
        let decode = self.attempt("journal decode".into(), || {
            let t0 = Instant::now();
            let events = JournalReader::new(journal).and_then(|mut rd| rd.read_all());
            let ok = events.as_ref().is_ok_and(|e| !e.is_empty());
            (t0.elapsed().as_secs_f64(), ok)
        });
        let (Some(u), Some(t), Some(l), Some(decode_s)) = (untraced, traced, ladder, decode) else {
            return;
        };
        let mut m = layer_map(&t);
        let (missed, extra) = self.input.verdict(t.report.as_ref().expect("detected"));
        let spans = t.spans.unwrap_or_default();
        let workers = if self.input.kind == Kind::Replay {
            1
        } else {
            WORKERS
        };
        m.extend([
            ("verdict.missed_addrs", missed as f64),
            ("verdict.extra_addrs", extra as f64),
            (
                "hooks.outside_s",
                workers as f64 * t.wall - spans.boundary_s - spans.access_s,
            ),
            ("hooks.overhead_s", t.wall - u.wall),
            ("trace.journal_bytes", journal.len() as f64),
            ("trace.events", l.events as f64),
            ("trace.record_s", record_s),
            ("trace.decode_s", decode_s),
            ("ladder.decode_s", l.decode_s),
            ("ladder.reach_s", l.reach_s - l.decode_s),
            ("ladder.access_s", l.full_s - l.reach_s),
        ]);
        self.tally.lock().expect("tally").layers.push(m);
    }
}

/// Per-layer counters of one traced detected execution.
fn layer_map(t: &Run) -> BTreeMap<&'static str, f64> {
    let r = t.report.as_ref().expect("a detected run has a report");
    let x = &r.metrics;
    let pool = t.pool.unwrap_or_default();
    let spans = t.spans.unwrap_or_default();
    // `replay` has no `Batched` wrapper: its batches are the recorded
    // ones, counted by the replayer, and the verdict cache it keeps per
    // strand is not exposed.
    let batch = match (t.batch, t.replay) {
        (Some(b), _) => b,
        (None, Some(s)) => BatchStats {
            flushes: s.flushes,
            recorded: s.accesses,
            filtered: s.filtered,
            verdict_hits: 0,
        },
        (None, None) => BatchStats::default(),
    };
    let n = |v: u64| v as f64;
    BTreeMap::from([
        ("sched.tasks_run", n(pool.tasks_run)),
        ("sched.steals", n(pool.steals)),
        ("sched.steal_retries", n(pool.steal_retries)),
        ("sched.parks", n(pool.parks)),
        ("sched.wakeups", n(pool.wakeups)),
        ("sched.busy_s", t.sched.0),
        ("sched.runq_wait_s", t.sched.1),
        (
            "sched.utilization",
            ratio(t.sched.0, WORKERS as f64 * t.wall),
        ),
        ("batch.flushes", n(batch.flushes)),
        ("batch.recorded", n(batch.recorded)),
        ("batch.filtered", n(batch.filtered)),
        ("batch.filter_rate", batch.filter_hit_rate()),
        ("batch.verdict_hits", n(batch.verdict_hits)),
        ("om.fast_inserts", n(x.om_fast_inserts)),
        ("om.group_locks", n(x.om_group_locks)),
        ("om.global_escalations", n(x.om_global_escalations)),
        ("om.query_retries", n(x.om_query_retries)),
        ("reach.queries", n(r.counts.queries)),
        ("reach.bytes", r.reach_bytes as f64),
        ("reach.set_bytes", n(x.set_bytes)),
        ("reach.set_allocs", n(x.set_allocs)),
        ("reach.set_chunks_shared", n(x.set_chunks_shared)),
        ("reach.set_chunks_copied", n(x.set_chunks_copied)),
        ("reach.set_lineage_hits", n(x.set_lineage_hits)),
        ("reach.merges", n(x.bitmap_merges)),
        ("shadow.history_bytes", r.history_bytes as f64),
        ("shadow.lock_ops", n(x.lock_ops)),
        ("shadow.fast_hits", n(x.shadow_fast_hits)),
        ("shadow.cas_retries", n(x.shadow_cas_retries)),
        ("shadow.page_allocs", n(x.page_allocs)),
        ("shadow.prefetch_issued", n(x.prefetch_issued)),
        ("core.races_total", n(r.total_races)),
        ("core.races_distinct", r.races.len() as f64),
        ("core.seqlock_hits", n(x.seqlock_hits)),
        ("hooks.boundary_calls", n(spans.boundary_calls)),
        ("hooks.boundary_s", spans.boundary_s),
        ("hooks.access_calls", n(spans.access_calls)),
        ("hooks.access_s", spans.access_s),
        ("prog.reads", n(r.counts.reads)),
        ("prog.writes", n(r.counts.writes)),
        ("prog.futures", n(r.counts.futures)),
        ("prog.spawns", n(r.counts.spawns)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload sw|pipeline|replay \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if !args.trace && args.part.is_none() {
        return run_in_parts(&args);
    }
    let tally = Arc::new(Mutex::new(Tally {
        trace: args.trace,
        part: args.part.is_some(),
        ..Tally::default()
    }));

    let t0 = Instant::now();
    let mut input = match setup(args.kind, args.seed) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("perfbench: set-up: {e}");
            return ExitCode::FAILURE;
        }
    };
    let setup_s = t0.elapsed().as_secs_f64();
    tally.lock().expect("tally").sample("setup_s", setup_s);
    if args.trace && input.journal.is_none() {
        input.journal = Some(match args.kind {
            Kind::Sw => {
                let w = SwWorkload::new(SW_PARAMS, args.seed);
                let journal = record(&w, args.seed);
                if !sw_table_ok(&w, &input.sw_expected) {
                    eprintln!("perfbench: the recorded sw execution computed a wrong table");
                    return ExitCode::FAILURE;
                }
                journal
            }
            _ => record(input.gen(), args.seed),
        });
    }
    let (dog, dog_thread) = Watchdog::spawn(Arc::clone(&tally), args.kind, args.seed);
    let mut bench = Bench {
        input,
        tally: Arc::clone(&tally),
        dog: Arc::clone(&dog),
        rep: 0,
    };
    // Rounds until the next one would end more than half a round late.
    let start = Instant::now();
    let mut round_s = 0.0;
    while bench.rep == 0 || start.elapsed().as_secs_f64() + round_s / 2.0 < args.seconds {
        let r0 = Instant::now();
        if args.trace {
            bench.traced_round();
        } else {
            bench.round();
        }
        round_s = r0.elapsed().as_secs_f64();
        bench.rep += 1;
    }
    dog.stop();
    dog_thread.join().expect("watchdog thread");

    let t = tally.lock().expect("tally");
    print!("{}", t.output(args.kind, args.seed));
    ExitCode::SUCCESS
}

/// The end-to-end run: [`PARTS`] child processes of this program, one
/// after another, each measuring its share of `--seconds` on the same
/// input; their samples are pooled. A part that hits the watchdog ends
/// the run with the partial result.
fn run_in_parts(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find this program to start its parts: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = Tally::default();
    for part in 0..PARTS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PARTS as f64).to_string()])
            .args(["--trace", "0", "--part", &part.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let dump = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("perfbench: part {part} ended with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot start part {part}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = tally.absorb(&dump) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        if tally.hung {
            eprintln!("perfbench: part {part} hit the watchdog; the result is partial");
            break;
        }
    }
    print!("{}", tally.render(args.kind, args.seed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfrd_dag::generator::GenProgram;

    fn pipeline_input(blocks: &[GenProgram]) -> Input {
        Input {
            kind: Kind::Pipeline,
            seed: 0,
            sw_expected: Vec::new(),
            program: Some(GenWorkload(pipeline::compose(blocks))),
            reference: pipeline::reference(blocks),
            journal: None,
        }
    }

    /// Execute each of `execs` once through the benchmark's checks;
    /// returns `(attempted, failed)`.
    fn attempts(input: Input, execs: &[Exec]) -> (u64, u64) {
        let tally = Arc::new(Mutex::new(Tally::default()));
        let (dog, thread) = Watchdog::spawn(Arc::clone(&tally), input.kind, input.seed);
        let bench = Bench {
            input,
            tally: Arc::clone(&tally),
            dog: Arc::clone(&dog),
            rep: 0,
        };
        for &e in execs {
            bench.execute(e);
        }
        dog.stop();
        thread.join().expect("watchdog thread");
        let t = tally.lock().expect("tally");
        (t.attempted, t.failed)
    }

    const DETECT: [Exec; 3] = [
        Exec::Detect {
            workers: 2,
            traced: false,
        },
        Exec::Detect {
            workers: 2,
            traced: true,
        },
        Exec::Detect {
            workers: 1,
            traced: false,
        },
    ];

    #[test]
    fn exact_verdicts_pass_traced_or_not() {
        let input = pipeline_input(&pipeline::blocks(5, 60));
        assert!(!input.reference.is_empty());
        assert_eq!(attempts(input, &DETECT), (3, 0));
    }

    #[test]
    fn verdict_mismatches_count_as_failures() {
        let mut missing = pipeline_input(&pipeline::blocks(5, 60));
        missing.reference.insert(8);
        assert_eq!(attempts(missing, &DETECT), (3, 3));
        let mut extra = pipeline_input(&pipeline::blocks(5, 60));
        let first = *extra.reference.first().expect("the chain races");
        extra.reference.remove(&first);
        assert_eq!(attempts(extra, &DETECT[..1]), (1, 1));
    }

    #[test]
    fn replay_verdicts_match_the_live_reference() {
        let blocks = pipeline::blocks(9, 60);
        let mut input = pipeline_input(&blocks);
        input.journal = Some(record(input.gen(), 9));
        input.kind = Kind::Replay;
        let l = ladder(input.journal());
        assert_eq!(input.verdict(&l.full_report), (0, 0));
        assert_eq!(attempts(input, &DETECT[..2]), (2, 0));
    }

    /// Fails while `AccessBatch::record` carries an evicted filter slot's
    /// `wrote` bit over to the new key: the later write of `x` is then
    /// combined away and the race on `x` is missed.
    #[test]
    #[ignore = "known defect in the batch pipeline's dedup filter"]
    fn minimal_repro_through_the_verdict_path() {
        let input = pipeline_input(&[pipeline::minimal_repro()]);
        let run = input.execute(DETECT[0]);
        let (missed, extra) = input.verdict(run.report.as_ref().expect("detected"));
        assert_eq!((missed, extra), (0, 0), "racy addresses missed and extra");
    }

    #[test]
    fn result_line_is_last_and_names_every_metric() {
        let mut t = Tally {
            attempted: 2,
            ..Tally::default()
        };
        for m in [
            "detect_s",
            "detect_w1_s",
            "base_s",
            "peak_rss_mib",
            "setup_s",
        ] {
            t.sample(m, 0.25);
        }
        let out = t.render(Kind::Sw, 1);
        let last = out.lines().last().expect("output");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0,"));
        for m in [
            "detect_s",
            "detect_w1_s",
            "base_s",
            "peak_rss_mib",
            "setup_s",
        ] {
            assert!(last.contains(&format!("\"{m}\": {{\"value\": ")), "{m}");
        }
    }

    #[test]
    fn parts_pool_their_samples_and_counts() {
        let part = |x: f64, failed: u64, hung: bool| Tally {
            part: true,
            hung,
            attempted: 3,
            failed,
            samples: BTreeMap::from([("detect_s", vec![x, x / 3.0]), ("setup_s", vec![0.1])]),
            ..Tally::default()
        };
        let mut all = Tally::default();
        all.absorb(&part(0.7, 0, false).output(Kind::Sw, 1)).unwrap();
        assert!(!all.hung);
        all.absorb(&part(0.5, 1, true).output(Kind::Sw, 1)).unwrap();
        assert!(all.hung);
        assert_eq!((all.attempted, all.failed), (6, 1));
        assert_eq!(all.samples["detect_s"], [0.7, 0.7 / 3.0, 0.5, 0.5 / 3.0]);
        assert_eq!(all.samples["setup_s"], [0.1, 0.1]);
        assert!(all.absorb("sample nonsense_s 1.0").is_err());
        assert!(all.absorb("{\"correct\": true}").is_err());
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (1.25, 1.5, 1.75));
    }
}
