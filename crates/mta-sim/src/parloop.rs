//! Canned lowerings for the parallel-loop shapes the paper's MTA codes use.
//!
//! The paper's list-ranking code distributes outer-loop iterations to
//! streams **dynamically**: "each stream gets one walk at a time; when it
//! finishes its current walk, it increments the loop counter and executes
//! the next walk. A machine instruction, `int_fetch_add`, is used to
//! increment the shared loop counter" (§3). [`dynamic_loop`] emits exactly
//! that claim loop; [`dynamic_loop_grained`] claims fixed-size chunks
//! (what `#pragma mta assert parallel` over a flat loop compiles to); and
//! [`block_loop`] is the static alternative used to demonstrate the load-
//! imbalance ablation.
//!
//! All helpers emit straight-line code into a [`ProgramBuilder`]; control
//! falls through after the loop so callers can sequence further work or
//! `halt`.
//!
//! Reached by: every MTA suite cell's kernel loops.

use crate::isa::{ProgramBuilder, Reg, STREAM_ID};

/// Registers a loop helper may clobber, besides the caller-visible index.
#[derive(Debug, Clone, Copy)]
pub struct LoopRegs {
    /// Loop index register, set for each iteration before `body` runs.
    pub idx: Reg,
    /// Scratch register (holds constants / chunk end).
    pub s1: Reg,
    /// Second scratch register.
    pub s2: Reg,
    /// Third scratch register.
    pub s3: Reg,
}

impl LoopRegs {
    /// A conventional allocation using r2–r5, leaving r6+ for the body.
    pub fn standard() -> Self {
        LoopRegs {
            idx: Reg(2),
            s1: Reg(3),
            s2: Reg(4),
            s3: Reg(5),
        }
    }

    fn assert_distinct(&self) {
        let rs = [self.idx.0, self.s1.0, self.s2.0, self.s3.0];
        for i in 0..4 {
            assert_ne!(rs[i], 0, "loop registers must not be r0");
            for j in (i + 1)..4 {
                assert_ne!(rs[i], rs[j], "loop registers must be distinct");
            }
        }
    }
}

/// Emit a one-index-at-a-time dynamic loop over `0..n`, scheduled by
/// `int_fetch_add` on the shared counter at `counter_addr` (which must
/// start at 0). `body` is emitted once; at run time each claimed index is
/// in `regs.idx` when it executes.
pub fn dynamic_loop(
    b: &mut ProgramBuilder,
    counter_addr: usize,
    n: i64,
    regs: LoopRegs,
    body: impl FnOnce(&mut ProgramBuilder),
) {
    regs.assert_distinct();
    let (idx, one, lim) = (regs.idx, regs.s1, regs.s2);
    b.li(one, 1).li(lim, n);
    let top = b.here();
    b.fetch_add_imm(idx, counter_addr as i64, one);
    let done = b.bge_fwd(idx, lim);
    body(b);
    b.jmp(top);
    b.bind(done);
}

/// Emit a chunk-claiming dynamic loop over `0..n` with chunks of `grain`
/// indices: one `int_fetch_add` claims `grain` consecutive iterations,
/// amortizing the claim latency (the shape a flat data-parallel loop
/// compiles to). `body` sees each index in `regs.idx`.
pub fn dynamic_loop_grained(
    b: &mut ProgramBuilder,
    counter_addr: usize,
    n: i64,
    grain: i64,
    regs: LoopRegs,
    body: impl FnOnce(&mut ProgramBuilder),
) {
    assert!(grain >= 1, "grain must be positive");
    regs.assert_distinct();
    let (idx, g, lim, end) = (regs.idx, regs.s1, regs.s2, regs.s3);
    b.li(g, grain).li(lim, n);
    let top = b.here();
    b.fetch_add_imm(idx, counter_addr as i64, g);
    let done = b.bge_fwd(idx, lim);
    // end = min(idx + grain, n)
    b.add(end, idx, g);
    let no_clamp = b.blt_fwd(end, lim);
    b.mov(end, lim);
    b.bind(no_clamp);
    let inner = b.here();
    body(b);
    b.addi(idx, idx, 1);
    b.blt(idx, end, inner);
    b.jmp(top);
    b.bind(done);
}

/// [`dynamic_loop_grained`] with the loop limit read from the memory word
/// at `limit_addr` when the program starts instead of baked in as an
/// immediate. Worklist kernels (speculative coloring rounds, BFS frontier
/// levels) need this: the same compiled program runs every round, with
/// the host poking the current worklist size between regions.
pub fn dynamic_loop_grained_mem(
    b: &mut ProgramBuilder,
    counter_addr: usize,
    limit_addr: usize,
    grain: i64,
    regs: LoopRegs,
    body: impl FnOnce(&mut ProgramBuilder),
) {
    assert!(grain >= 1, "grain must be positive");
    regs.assert_distinct();
    let (idx, g, lim, end) = (regs.idx, regs.s1, regs.s2, regs.s3);
    b.li(g, grain).load_abs(lim, limit_addr);
    let top = b.here();
    b.fetch_add_imm(idx, counter_addr as i64, g);
    let done = b.bge_fwd(idx, lim);
    // end = min(idx + grain, limit)
    b.add(end, idx, g);
    let no_clamp = b.blt_fwd(end, lim);
    b.mov(end, lim);
    b.bind(no_clamp);
    let inner = b.here();
    body(b);
    b.addi(idx, idx, 1);
    b.blt(idx, end, inner);
    b.jmp(top);
    b.bind(done);
}

/// Emit a statically block-scheduled loop: stream `id` covers
/// `[id * chunk, min((id+1) * chunk, n))`. With skewed per-iteration work
/// this load-imbalances — the ablation contrast to [`dynamic_loop`].
pub fn block_loop(
    b: &mut ProgramBuilder,
    n: i64,
    chunk: i64,
    regs: LoopRegs,
    body: impl FnOnce(&mut ProgramBuilder),
) {
    assert!(chunk >= 1, "chunk must be positive");
    regs.assert_distinct();
    let (idx, c, lim, end) = (regs.idx, regs.s1, regs.s2, regs.s3);
    b.li(c, chunk).li(lim, n);
    b.mul(idx, STREAM_ID, c);
    b.add(end, idx, c);
    let no_clamp = b.blt_fwd(end, lim);
    b.mov(end, lim);
    b.bind(no_clamp);
    let skip = b.bge_fwd(idx, end);
    let top = b.here();
    body(b);
    b.addi(idx, idx, 1);
    b.blt(idx, end, top);
    b.bind(skip);
}

/// Host-side helper: the chunk size that spreads `n` iterations over
/// `streams` streams in one block each.
pub fn block_chunk(n: usize, streams: usize) -> i64 {
    n.div_ceil(streams.max(1)).max(1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MtaMachine;
    use archgraph_core::MtaParams;

    fn tiny(p: usize) -> MtaMachine {
        MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), p, 1 << 16)
    }

    /// Each loop body marks mem[base + idx] += 1; afterwards every cell
    /// must be exactly 1 (each index executed exactly once).
    fn check_exactly_once(kind: &str, run: impl FnOnce(&mut MtaMachine, usize, i64)) {
        let n = 137usize;
        let mut m = tiny(2);
        let base = m.memory_mut().alloc(n);
        run(&mut m, base, n as i64);
        for i in 0..n {
            assert_eq!(m.memory().peek(base + i), 1, "{kind}: index {i}");
        }
    }

    #[test]
    fn dynamic_loop_covers_exactly_once() {
        check_exactly_once("dynamic", |m, base, n| {
            let counter = m.memory_mut().alloc(1);
            let mut b = ProgramBuilder::new();
            let regs = LoopRegs::standard();
            dynamic_loop(&mut b, counter, n, regs, |b| {
                // mem[base + idx] += 1 via fetch_add
                b.fetch_add(Reg(6), regs.idx, base as i64, regs.s1);
            });
            b.halt();
            let prog = b.build();
            m.run(&prog, 8, |_, _| {});
        });
    }

    #[test]
    fn grained_loop_covers_exactly_once() {
        for grain in [1i64, 3, 10, 1000] {
            check_exactly_once("grained", |m, base, n| {
                let counter = m.memory_mut().alloc(1);
                let mut b = ProgramBuilder::new();
                let regs = LoopRegs::standard();
                b.li(Reg(7), 1);
                dynamic_loop_grained(&mut b, counter, n, grain, regs, |b| {
                    b.fetch_add(Reg(6), regs.idx, base as i64, Reg(7));
                });
                b.halt();
                let prog = b.build();
                m.run(&prog, 8, |_, _| {});
            });
        }
    }

    #[test]
    fn grained_mem_loop_covers_exactly_once_per_poked_limit() {
        // The same program, run twice with different limits poked into the
        // limit word — the worklist-round usage pattern.
        let n = 91usize;
        let mut m = tiny(2);
        let base = m.memory_mut().alloc(n);
        let counter = m.memory_mut().alloc(1);
        let limit = m.memory_mut().alloc(1);
        let mut b = ProgramBuilder::new();
        let regs = LoopRegs::standard();
        b.li(Reg(7), 1);
        dynamic_loop_grained_mem(&mut b, counter, limit, 5, regs, |b| {
            b.fetch_add(Reg(6), regs.idx, base as i64, Reg(7));
        });
        b.halt();
        let prog = b.build();
        for lim in [n as i64, 17] {
            m.memory_mut().poke(counter, 0);
            m.memory_mut().poke(limit, lim);
            m.run(&prog, 8, |_, _| {});
        }
        for i in 0..n {
            let expect = if i < 17 { 2 } else { 1 };
            assert_eq!(m.memory().peek(base + i), expect, "index {i}");
        }
    }

    #[test]
    fn grained_mem_matches_immediate_limit_cycles() {
        // With the same limit, the memory-limit form does one extra
        // load_abs per stream but claims identically; coverage and claim
        // order must match the immediate form.
        let n = 64usize;
        let run = |mem_limit: bool| {
            let mut m = tiny(1);
            let base = m.memory_mut().alloc(n);
            let counter = m.memory_mut().alloc(1);
            let limit = m.memory_mut().alloc(1);
            m.memory_mut().poke(limit, n as i64);
            let mut b = ProgramBuilder::new();
            let regs = LoopRegs::standard();
            b.li(Reg(7), 1);
            if mem_limit {
                dynamic_loop_grained_mem(&mut b, counter, limit, 4, regs, |b| {
                    b.fetch_add(Reg(6), regs.idx, base as i64, Reg(7));
                });
            } else {
                dynamic_loop_grained(&mut b, counter, n as i64, 4, regs, |b| {
                    b.fetch_add(Reg(6), regs.idx, base as i64, Reg(7));
                });
            }
            b.halt();
            let prog = b.build();
            m.run(&prog, 8, |_, _| {});
            (0..n)
                .map(|i| m.memory().peek(base + i))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
        assert!(run(true).iter().all(|&v| v == 1));
    }

    #[test]
    fn block_loop_covers_exactly_once() {
        check_exactly_once("block", |m, base, n| {
            let streams = 16usize; // 2 procs x 8
            let chunk = block_chunk(n as usize, streams);
            let mut b = ProgramBuilder::new();
            let regs = LoopRegs::standard();
            b.li(Reg(7), 1);
            block_loop(&mut b, n, chunk, regs, |b| {
                b.fetch_add(Reg(6), regs.idx, base as i64, Reg(7));
            });
            b.halt();
            let prog = b.build();
            m.run(&prog, 8, |_, _| {});
        });
    }

    #[test]
    fn block_chunk_math() {
        assert_eq!(block_chunk(100, 10), 10);
        assert_eq!(block_chunk(101, 10), 11);
        assert_eq!(block_chunk(5, 10), 1);
        assert_eq!(block_chunk(0, 10), 1);
        assert_eq!(block_chunk(7, 0), 7);
    }

    #[test]
    fn grained_loop_is_faster_than_unit_claims() {
        // Claim latency amortization: with a tiny body, grain 16 beats
        // grain 1 because each claim's round trip covers 16 iterations.
        let run = |grain: i64| {
            let n = 512usize;
            let mut m = tiny(1);
            let base = m.memory_mut().alloc(n);
            let counter = m.memory_mut().alloc(1);
            let mut b = ProgramBuilder::new();
            let regs = LoopRegs::standard();
            b.li(Reg(7), 1);
            dynamic_loop_grained(&mut b, counter, n as i64, grain, regs, |b| {
                b.fetch_add(Reg(6), regs.idx, base as i64, Reg(7));
            });
            b.halt();
            let prog = b.build();
            m.run(&prog, 4, |_, _| {}).cycles
        };
        let c1 = run(1);
        let c16 = run(16);
        assert!(c16 < c1, "grain 16 ({c16}) should beat grain 1 ({c1})");
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rejects_aliased_registers() {
        let mut b = ProgramBuilder::new();
        let regs = LoopRegs {
            idx: Reg(2),
            s1: Reg(2),
            s2: Reg(3),
            s3: Reg(4),
        };
        dynamic_loop(&mut b, 0, 10, regs, |_| {});
    }

    #[test]
    fn dynamic_beats_block_on_skewed_work() {
        // Skewed workload in a latency-dominated regime: iterations in the
        // first half perform a long *dependent-load chain* (serialized at
        // full memory latency), the rest a single load. Block scheduling
        // hands the whole heavy half to the low-numbered streams; dynamic
        // scheduling spreads it over all of them (§3's load-balance
        // argument for int_fetch_add loop scheduling).
        let n = 256usize;
        let streams = 8usize;
        let params = MtaParams {
            mem_latency: 100,
            ..MtaParams::tiny_for_tests()
        };
        let build = |dynamic: bool, counter: usize, data: usize| {
            let mut b = ProgramBuilder::new();
            let regs = LoopRegs::standard();
            let body = |b: &mut ProgramBuilder| {
                let chain = Reg(8);
                let k = Reg(9);
                let half = Reg(10);
                let len = Reg(12);
                b.li(half, (n / 2) as i64);
                b.li(len, 1);
                let light = b.bge_fwd(regs.idx, half);
                b.li(len, 8);
                b.bind(light);
                // `len` dependent loads: data holds zeros, so each load
                // lands on data[0] but depends on the previous result.
                b.li(k, 0);
                b.mov(chain, Reg(0));
                let top = b.here();
                b.load(chain, chain, data as i64);
                b.addi(k, k, 1);
                b.blt(k, len, top);
            };
            if dynamic {
                dynamic_loop(&mut b, counter, n as i64, regs, body);
            } else {
                block_loop(&mut b, n as i64, block_chunk(n, streams), regs, body);
            }
            b.halt();
            b.build()
        };
        let run = |dynamic: bool| {
            let mut m = MtaMachine::with_memory_words(params.clone(), 1, 1 << 16);
            let data = m.memory_mut().alloc(n + 64);
            let counter = m.memory_mut().alloc(1);
            let prog = build(dynamic, counter, data);
            m.run(&prog, streams, |_, _| {}).cycles
        };
        let dyn_cycles = run(true);
        let blk_cycles = run(false);
        assert!(
            blk_cycles as f64 > 1.3 * dyn_cycles as f64,
            "block {blk_cycles} should clearly exceed dynamic {dyn_cycles}"
        );
    }
}
