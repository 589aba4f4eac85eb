//! End-to-end checks of SF-Order's default configuration: the bounded
//! per-future reader history, the zero-store read fast path it enables,
//! and the batch pipeline's write-combining filter.

use std::collections::BTreeSet;

use sfrd::core::{drive, DetectorKind, DriveConfig, GenWorkload, Mode};
use sfrd::dag::generator::{Body, GenProgram, Op};
use sfrd::workloads::sw::{SwParams, SwWorkload};

fn sf_order(workers: usize, batched: bool) -> DriveConfig {
    DriveConfig::with(DetectorKind::SfOrder, Mode::Full, workers)
        .to_builder()
        .batched(batched)
        .build()
}

/// The read fast path must keep firing under the default configuration:
/// on the read-dominated Smith-Waterman kernel at least half of the reads
/// that reach the shadow memory through the batch pipeline must complete
/// without a store. Batching must not change the Fig. 3 access counts,
/// and can only skip reachability queries, never add them.
#[test]
fn fast_path_fires_on_sw_under_the_default_config() {
    let w = SwWorkload::new(SwParams::small(), 7);
    for workers in [1, 2] {
        let batched = drive(&w, sf_order(workers, true)).report.unwrap();
        let plain = drive(&w, sf_order(workers, false)).report.unwrap();
        assert_eq!(batched.total_races, 0);
        assert_eq!(plain.total_races, 0);
        assert_eq!(
            (batched.counts.reads, batched.counts.writes),
            (plain.counts.reads, plain.counts.writes),
            "{workers} workers: batching changed the access counts"
        );
        assert!(batched.counts.queries <= plain.counts.queries);
        // `batched_accesses` counts every admitted read and write, so this
        // is at least as strict as "half of the batched reads".
        let m = &batched.metrics;
        assert!(
            2 * m.shadow_fast_hits >= m.batched_accesses,
            "{workers} workers: {} fast hits for {} batched accesses",
            m.shadow_fast_hits,
            m.batched_accesses
        );
    }
}

/// `create F{read x}; spawn S{write y; read x; write x}` with x = 214 and
/// y = 10, which share a way of the batch pipeline's write-combining
/// filter. S's write of x races with F's read. The filter must not let
/// y's wrote bit survive the eviction and swallow S's first write of x.
#[test]
fn write_after_filter_eviction_is_checked() {
    let (x, y) = (214, 10);
    let work = |addr, write| Op::Work { addr, write };
    let w = GenWorkload(GenProgram {
        root: Body(vec![
            Op::Create(Body(vec![work(x, false)])),
            Op::Spawn(Body(vec![work(y, true), work(x, false), work(x, true)])),
        ]),
    });
    for workers in [1, 2] {
        for batched in [false, true] {
            let rep = drive(&w, sf_order(workers, batched)).report.unwrap();
            assert_eq!(
                rep.racy_addrs,
                BTreeSet::from([x]),
                "{workers} workers, batched: {batched}"
            );
        }
    }
}
