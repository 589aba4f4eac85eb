//! End-to-end ground truth under *parallel* execution.
//!
//! The strongest system-level test: run random structured-future programs
//! on the real work-stealing runtime with a detector attached AND the dag
//! recorder attached (via `PairHooks`), then check the detector's racy
//! address set against the brute-force oracle computed on the dag that
//! actually executed. Repeats each program across schedules.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::prelude::*;

use sfrd::core::{
    Batched, EngineConfig, FoDetector, GenWorkload, MbDetector, Mode, RecordingHooks, SfDetector,
    TaskHooks, Workload,
};
use sfrd::dag::generator::{GenParams, GenProgram};
use sfrd::runtime::hooks::PairHooks;
use sfrd::runtime::{run_sequential, Runtime};
use sfrd::shadow::ReaderPolicy;

fn oracle_racy_addrs(rec: &sfrd::dag::RecordedProgram) -> BTreeSet<u64> {
    rec.races().iter().map(|r| r.addr).collect()
}

fn gen_params() -> GenParams {
    GenParams {
        max_tasks: 24,
        max_body_len: 6,
        addr_space: 4,
        ..Default::default()
    }
}

/// SF-Order under the parallel runtime, both reader policies.
#[test]
fn sf_order_parallel_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0xE0);
    for round in 0..12 {
        let prog = GenProgram::random(&mut rng, &gen_params());
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            for workers in [1, 3] {
                let hooks = Arc::new(PairHooks(
                    RecordingHooks::new(),
                    SfDetector::new(Mode::Full, policy),
                ));
                let rt: Runtime<PairHooks<RecordingHooks, SfDetector>> = Runtime::new(workers);
                let w = GenWorkload(prog.clone());
                rt.run(Arc::clone(&hooks), |ctx| w.run(ctx));
                drop(rt);
                let PairHooks(rec, det) = Arc::try_unwrap(hooks).ok().expect("sole owner");
                let recorded = Arc::new(rec);
                let recorded = RecordingHooks::finish(recorded);
                recorded.validate().unwrap();
                let want = oracle_racy_addrs(&recorded);
                let got = det.report().racy_addrs;
                assert_eq!(
                    got, want,
                    "sf-order {policy:?} workers={workers} round={round}\nprogram: {prog:?}"
                );
            }
        }
    }
}

/// Run `prog` on `workers` workers under `det` with the dag recorder
/// attached; returns the oracle's racy addresses and the detector.
fn run_recorded<H: TaskHooks>(prog: &GenProgram, det: H, workers: usize) -> (BTreeSet<u64>, H) {
    let hooks = Arc::new(PairHooks(RecordingHooks::new(), det));
    let rt: Runtime<PairHooks<RecordingHooks, H>> = Runtime::new(workers);
    let w = GenWorkload(prog.clone());
    rt.run(Arc::clone(&hooks), |ctx| w.run(ctx));
    drop(rt);
    let PairHooks(rec, det) = Arc::try_unwrap(hooks).ok().expect("sole owner");
    let recorded = RecordingHooks::finish(Arc::new(rec));
    recorded.validate().unwrap();
    (oracle_racy_addrs(&recorded), det)
}

/// SF-Order in its default configuration (bounded per-future reader
/// history, paged shadow with the read fast path), per access and through
/// the batch pipeline, at 1, 2 and 4×`nproc` workers (oversubscribed).
#[test]
fn sf_order_default_config_matches_oracle() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = EngineConfig::default();
    let mut rng = StdRng::seed_from_u64(0xDF);
    for round in 0..12 {
        let prog = GenProgram::random(&mut rng, &gen_params());
        for workers in [1, 2, 4 * nproc] {
            let (want, det) = run_recorded(&prog, SfDetector::from_config(&cfg), workers);
            assert_eq!(
                det.report().racy_addrs,
                want,
                "per access, workers={workers} round={round}\nprogram: {prog:?}"
            );
            let (want, det) =
                run_recorded(&prog, Batched::new(SfDetector::from_config(&cfg)), workers);
            assert_eq!(
                det.inner().report().racy_addrs,
                want,
                "batched, workers={workers} round={round}\nprogram: {prog:?}"
            );
        }
    }
}

/// F-Order under the parallel runtime.
#[test]
fn f_order_parallel_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0xF0);
    for round in 0..12 {
        let prog = GenProgram::random(&mut rng, &gen_params());
        for workers in [1, 3] {
            let hooks = Arc::new(PairHooks(
                RecordingHooks::new(),
                FoDetector::new(Mode::Full),
            ));
            let rt: Runtime<PairHooks<RecordingHooks, FoDetector>> = Runtime::new(workers);
            let w = GenWorkload(prog.clone());
            rt.run(Arc::clone(&hooks), |ctx| w.run(ctx));
            drop(rt);
            let PairHooks(rec, det) = Arc::try_unwrap(hooks).ok().expect("sole owner");
            let recorded = RecordingHooks::finish(Arc::new(rec));
            let want = oracle_racy_addrs(&recorded);
            let got = det.report().racy_addrs;
            assert_eq!(
                got, want,
                "f-order workers={workers} round={round}\nprogram: {prog:?}"
            );
        }
    }
}

/// MultiBags under the sequential runtime.
#[test]
fn multibags_sequential_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0xB0);
    for round in 0..20 {
        let prog = GenProgram::random(&mut rng, &gen_params());
        let pair = PairHooks(RecordingHooks::new(), MbDetector::new(Mode::Full));
        let w = GenWorkload(prog.clone());
        run_sequential(&pair, |ctx| w.run(ctx));
        let PairHooks(rec, det) = pair;
        let recorded = RecordingHooks::finish(Arc::new(rec));
        let want = oracle_racy_addrs(&recorded);
        let got = det.report().racy_addrs;
        assert_eq!(got, want, "multibags round={round}\nprogram: {prog:?}");
    }
}

/// All three detectors agree on the racy address set for the same program.
#[test]
fn detectors_agree_across_engines() {
    let mut rng = StdRng::seed_from_u64(0xAA);
    for _ in 0..15 {
        let prog = GenProgram::random(&mut rng, &gen_params());

        let sf = Arc::new(SfDetector::new(Mode::Full, ReaderPolicy::All));
        let rt: Runtime<SfDetector> = Runtime::new(2);
        let w = GenWorkload(prog.clone());
        rt.run(Arc::clone(&sf), |ctx| w.run(ctx));
        drop(rt);

        let fo = Arc::new(FoDetector::new(Mode::Full));
        let rt: Runtime<FoDetector> = Runtime::new(2);
        let w2 = GenWorkload(prog.clone());
        rt.run(Arc::clone(&fo), |ctx| w2.run(ctx));
        drop(rt);

        let mb = MbDetector::new(Mode::Full);
        let w3 = GenWorkload(prog.clone());
        run_sequential(&mb, |ctx| w3.run(ctx));

        let a = sf.report().racy_addrs;
        let b = fo.report().racy_addrs;
        let c = mb.report().racy_addrs;
        assert_eq!(a, b, "sf vs fo\n{prog:?}");
        assert_eq!(a, c, "sf vs mb\n{prog:?}");
    }
}
