//! The `pipeline` program: a seeded chain of random structured-future
//! blocks, and its exact verdict reference.
//!
//! Block `i` is a program from the `sfrd-dag` generator whose addresses
//! are moved into a range of its own. The chain creates block `i` and
//! then gets block `i - 1`, so two blocks are in flight at a time and the
//! root's get-chain is as long as the chain. Blocks share no address and
//! every path into a block enters through its create edge, so a pair of
//! accesses in one block races in the composed program exactly when it
//! races in the block alone: the union of the per-block oracles is the
//! composed program's racy-address set (checked by the tests below).

use std::collections::BTreeSet;

use rand::prelude::*;
use sfrd_dag::generator::{self, Body, GenParams, GenProgram, Op};
use sfrd_dag::{racy_addrs, Recorder};

/// Blocks in the chain.
pub const BLOCKS: usize = 2_500;
/// Distinct addresses per block.
const ADDRS_PER_BLOCK: u64 = 8;
/// First address of block 0; every address is word-aligned.
const BASE_ADDR: u64 = 0x1_0000;

/// Generator settings of one block.
fn block_params() -> GenParams {
    GenParams {
        max_depth: 5,
        max_body_len: 10,
        max_tasks: 60,
        addr_space: ADDRS_PER_BLOCK,
        write_prob: 0.4,
        ..GenParams::default()
    }
}

/// `blocks` random blocks drawn from one seeded generator, each moved into
/// its own range of word-aligned addresses.
pub fn blocks(seed: u64, blocks: usize) -> Vec<GenProgram> {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = block_params();
    (0..blocks as u64)
        .map(|i| {
            let mut p = GenProgram::random(&mut rng, &params);
            relocate(&mut p.root, BASE_ADDR + i * ADDRS_PER_BLOCK * 8);
            p
        })
        .collect()
}

fn relocate(body: &mut Body, base: u64) {
    for op in &mut body.0 {
        match op {
            Op::Work { addr, .. } => *addr = base + *addr * 8,
            Op::Spawn(b) | Op::Create(b) => relocate(b, base),
            Op::Sync | Op::Get(_) => {}
        }
    }
}

/// The chain `create b0; create b1; get b0; create b2; get b1; ...; get
/// b_last` as one program.
pub fn compose(blocks: &[GenProgram]) -> GenProgram {
    let mut ops = Vec::with_capacity(2 * blocks.len());
    for (i, b) in blocks.iter().enumerate() {
        ops.push(Op::Create(b.root.clone()));
        if i > 0 {
            ops.push(Op::Get(i - 1));
        }
    }
    if !blocks.is_empty() {
        ops.push(Op::Get(blocks.len() - 1));
    }
    GenProgram { root: Body(ops) }
}

/// Racy addresses of one program by the exact offline oracle.
fn oracle(program: &GenProgram) -> BTreeSet<u64> {
    let (rec, mut root) = Recorder::new();
    generator::replay(program, &mut &rec, &mut root);
    let recorded = rec.finish();
    racy_addrs(&recorded.dag, &recorded.log)
}

/// The verdict reference: the union of the per-block oracles.
pub fn reference(blocks: &[GenProgram]) -> BTreeSet<u64> {
    blocks.iter().flat_map(oracle).collect()
}

/// `create F{read x}; spawn S{write y; read x; write x}`, with `x` and
/// `y` in the same way of the batch pipeline's dedup filter.
#[cfg(test)]
pub fn minimal_repro() -> GenProgram {
    let (x, y) = (214, 10);
    let work = |addr, write| Op::Work { addr, write };
    GenProgram {
        root: Body(vec![
            Op::Create(Body(vec![work(x, false)])),
            Op::Spawn(Body(vec![work(y, true), work(x, false), work(x, true)])),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use sfrd_core::{EngineConfig, GenWorkload, Mode, Runtime, SfDetector, Workload};

    #[test]
    fn union_of_blocks_equals_whole_program_oracle() {
        for seed in [1, 7, 11] {
            let bs = blocks(seed, 40);
            let whole = oracle(&compose(&bs));
            assert!(!whole.is_empty(), "seed {seed}: the chain should race");
            assert_eq!(reference(&bs), whole, "seed {seed}");
        }
    }

    #[test]
    fn blocks_use_disjoint_address_ranges() {
        let bs = blocks(3, 20);
        for (i, b) in bs.iter().enumerate() {
            let lo = BASE_ADDR + i as u64 * ADDRS_PER_BLOCK * 8;
            let mut addrs = BTreeSet::new();
            fn walk(body: &Body, out: &mut BTreeSet<u64>) {
                for op in &body.0 {
                    match op {
                        Op::Work { addr, .. } => {
                            out.insert(*addr);
                        }
                        Op::Spawn(b) | Op::Create(b) => walk(b, out),
                        _ => {}
                    }
                }
            }
            walk(&b.root, &mut addrs);
            assert!(addrs
                .iter()
                .all(|&a| a >= lo && a < lo + ADDRS_PER_BLOCK * 8 && a % 8 == 0));
        }
    }

    #[test]
    fn minimal_repro_reference_and_unbatched_verdict() {
        let p = minimal_repro();
        assert_eq!(reference(std::slice::from_ref(&p)), BTreeSet::from([214]));
        let w = GenWorkload(compose(std::slice::from_ref(&p)));
        let det = Arc::new(SfDetector::from_config(&EngineConfig::new(Mode::Full)));
        Runtime::new(2).run(Arc::clone(&det), |ctx| w.run(ctx));
        assert_eq!(det.report().racy_addrs, BTreeSet::from([214]));
    }
}
