//! Synchronization primitives built from full/empty bits and
//! `int_fetch_add` — the "near zero-cost synchronization mechanism"
//! (§2.2) that makes fine-grain parallelism viable on the MTA.
//!
//! Each primitive is an *emitter*: it appends the operation sequence to a
//! [`ProgramBuilder`], exactly as the MTA compiler would inline its
//! intrinsics. Provided:
//!
//! * [`emit_lock`] / [`emit_unlock`] — a mutex from `readfe`/`writeef` on
//!   a lock word (full = free).
//! * [`emit_critical_add`] — read-modify-write of an arbitrary shared
//!   word under its own full/empty bit (the idiom for updates that
//!   `int_fetch_add` cannot express).
//! * [`emit_barrier`] — a sense-reversing centralized barrier:
//!   `int_fetch_add` on an arrival counter plus a spin on a generation
//!   word. This is the "hotspot" §2.2 warns about; the simulator lets
//!   you measure exactly how much it costs.
//! * [`emit_reduce_add`] — per-stream partial values combined by
//!   `int_fetch_add` into a global cell.

use crate::isa::{ProgramBuilder, Reg};

/// Acquire the mutex at `lock_addr`: `readfe` empties the word, blocking
/// (retrying) while another holder keeps it empty. The word must start
/// *full* (any value).
pub fn emit_lock(b: &mut ProgramBuilder, lock_addr: usize, scratch: Reg) {
    b.readfe(scratch, Reg(0), lock_addr as i64);
}

/// Release the mutex: `writeef` refills the word, unblocking one waiter.
pub fn emit_unlock(b: &mut ProgramBuilder, lock_addr: usize, scratch: Reg) {
    b.writeef(scratch, Reg(0), lock_addr as i64);
}

/// Atomically add `delta_reg` to the shared word at `addr` using its
/// full/empty bit: `readfe` takes exclusive ownership, `writeef` returns
/// it. `tmp` is clobbered with the updated value.
pub fn emit_critical_add(b: &mut ProgramBuilder, addr: usize, delta_reg: Reg, tmp: Reg) {
    b.readfe(tmp, Reg(0), addr as i64);
    b.add(tmp, tmp, delta_reg);
    b.writeef(tmp, Reg(0), addr as i64);
}

/// A centralized sense-reversing barrier for `total_streams` streams.
///
/// Layout: `counter_addr` (arrival count, starts 0) and `gen_addr`
/// (generation number, starts 0). The last arrival resets the counter
/// and bumps the generation; everyone else spins on the generation word
/// with ordinary loads. Registers `r_old_gen`, `r_tmp`, `r_one` and
/// `r_total` are clobbered (`r_total` holds the stream count after
/// emission).
#[allow(clippy::too_many_arguments)]
pub fn emit_barrier(
    b: &mut ProgramBuilder,
    counter_addr: usize,
    gen_addr: usize,
    total_streams: i64,
    r_old_gen: Reg,
    r_tmp: Reg,
    r_one: Reg,
    r_total: Reg,
) {
    b.li(r_one, 1);
    b.li(r_total, total_streams);
    b.load_abs(r_old_gen, gen_addr);
    b.fetch_add_imm(r_tmp, counter_addr as i64, r_one);
    b.addi(r_tmp, r_tmp, 1);
    let not_last = b.blt_fwd(r_tmp, r_total);
    // Last arrival: reset the counter, bump the generation.
    b.li(r_tmp, 0);
    b.store_abs(r_tmp, counter_addr);
    b.addi(r_tmp, r_old_gen, 1);
    b.store_abs(r_tmp, gen_addr);
    let done = b.jmp_fwd();
    // Spin until the generation changes.
    b.bind(not_last);
    let spin = b.here();
    b.load_abs(r_tmp, gen_addr);
    b.beq(r_tmp, r_old_gen, spin);
    b.bind(done);
}

/// Reduce per-stream values into `acc_addr` by `int_fetch_add`; the old
/// total lands in `r_scratch`.
pub fn emit_reduce_add(b: &mut ProgramBuilder, acc_addr: usize, value: Reg, r_scratch: Reg) {
    b.fetch_add_imm(r_scratch, acc_addr as i64, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MtaMachine;
    use archgraph_core::MtaParams;

    fn tiny(p: usize) -> MtaMachine {
        MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), p, 1 << 14)
    }

    #[test]
    fn lock_serializes_read_modify_write() {
        // 8 streams each add 1 to a shared cell 25 times under the lock;
        // the plain load/add/store would lose updates, the lock must not.
        let mut m = tiny(2);
        let lock = m.memory_mut().alloc(1); // full = free
        let cell = m.memory_mut().alloc(1);
        let mut b = ProgramBuilder::new();
        let (i, lim, tmp, one) = (Reg(2), Reg(3), Reg(4), Reg(5));
        b.li(i, 0).li(lim, 25).li(one, 1);
        let top = b.here();
        emit_lock(&mut b, lock, Reg(6));
        // Plain (non-atomic) RMW inside the critical section.
        b.load_abs(tmp, cell);
        b.add(tmp, tmp, one);
        b.store_abs(tmp, cell);
        emit_unlock(&mut b, lock, Reg(6));
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        let prog = b.build();
        let rep = m.run(&prog, 8, |_, _| {});
        assert_eq!(m.memory().peek(cell), 16 * 25);
        assert!(rep.sync_retries > 0, "contention must actually occur");
    }

    #[test]
    fn critical_add_is_atomic() {
        let mut m = tiny(2);
        let cell = m.memory_mut().alloc(1);
        let mut b = ProgramBuilder::new();
        let (i, lim, delta) = (Reg(2), Reg(3), Reg(4));
        b.li(i, 0).li(lim, 40).li(delta, 3);
        let top = b.here();
        emit_critical_add(&mut b, cell, delta, Reg(6));
        b.addi(i, i, 1);
        b.blt(i, lim, top);
        b.halt();
        let prog = b.build();
        m.run(&prog, 8, |_, _| {});
        assert_eq!(m.memory().peek(cell), 16 * 40 * 3);
    }

    #[test]
    fn barrier_separates_phases() {
        // Phase 1: every stream stores its id into slot[id].
        // Barrier.
        // Phase 2: every stream reads its *neighbor's* slot; without the
        // barrier some neighbor slots could still be unwritten (0).
        let streams = 8usize;
        let mut m = tiny(1);
        let counter = m.memory_mut().alloc(1);
        let genw = m.memory_mut().alloc(1);
        let slots = m.memory_mut().alloc(streams);
        let out = m.memory_mut().alloc(streams);
        let mut b = ProgramBuilder::new();
        let (v, addr) = (Reg(2), Reg(3));
        // slot[id] = id + 100
        b.addi(v, Reg(1), 100);
        b.add(addr, Reg(1), Reg(0));
        b.store(v, addr, slots as i64);
        emit_barrier(
            &mut b,
            counter,
            genw,
            streams as i64,
            Reg(6),
            Reg(7),
            Reg(8),
            Reg(9),
        );
        // out[id] = slot[(id+1) % streams]
        b.addi(addr, Reg(1), 1);
        let wrap = b.blt_fwd(addr, Reg(9)); // r9 still holds `streams`
        b.li(addr, 0);
        b.bind(wrap);
        b.load(v, addr, slots as i64);
        b.add(addr, Reg(1), Reg(0));
        b.store(v, addr, out as i64);
        b.halt();
        let prog = b.build();
        m.run(&prog, streams, |_, _| {});
        for id in 0..streams {
            let neighbor = (id + 1) % streams;
            assert_eq!(
                m.memory().peek(out + id),
                100 + neighbor as i64,
                "stream {id} must see its neighbor's phase-1 write"
            );
        }
    }

    #[test]
    fn barrier_reusable_across_generations() {
        // Two barriers in a row: the sense-reversing generation must make
        // the second one work without resetting memory.
        let streams = 4usize;
        let mut m = tiny(1);
        let counter = m.memory_mut().alloc(1);
        let genw = m.memory_mut().alloc(1);
        let probe = m.memory_mut().alloc(1);
        let mut b = ProgramBuilder::new();
        let one = Reg(5);
        b.li(one, 1);
        for _ in 0..2 {
            emit_barrier(
                &mut b,
                counter,
                genw,
                streams as i64,
                Reg(6),
                Reg(7),
                Reg(8),
                Reg(9),
            );
            b.fetch_add_imm(Reg(10), probe as i64, one);
        }
        b.halt();
        let prog = b.build();
        m.run(&prog, streams, |_, _| {});
        assert_eq!(m.memory().peek(probe), 2 * streams as i64);
        assert_eq!(m.memory().peek(genw), 2, "two generations elapsed");
        assert_eq!(m.memory().peek(counter), 0, "counter reset each time");
    }

    #[test]
    fn reduction_totals_partial_sums() {
        let streams = 8usize;
        let mut m = tiny(2);
        let acc = m.memory_mut().alloc(1);
        let mut b = ProgramBuilder::new();
        // value = stream id squared (id * id)
        b.mul(Reg(2), Reg(1), Reg(1));
        emit_reduce_add(&mut b, acc, Reg(2), Reg(3));
        b.halt();
        let prog = b.build();
        m.run(&prog, streams, |_, _| {});
        let expect: i64 = (0..16).map(|i| i * i).sum();
        assert_eq!(m.memory().peek(acc), expect);
    }

    #[test]
    fn lock_cost_scales_with_contention() {
        // Same critical-section total work, 1 vs 8 contending streams:
        // the serialized version on 8 streams must not be faster than
        // 8x the single-stream run (Amdahl floor) and retries appear.
        let run = |streams: usize, iters: i64| {
            let mut m = tiny(1);
            let lock = m.memory_mut().alloc(1);
            let cell = m.memory_mut().alloc(1);
            let mut b = ProgramBuilder::new();
            let (i, lim, one, tmp) = (Reg(2), Reg(3), Reg(4), Reg(5));
            b.li(i, 0).li(lim, iters).li(one, 1);
            let top = b.here();
            emit_lock(&mut b, lock, Reg(6));
            b.load_abs(tmp, cell);
            b.add(tmp, tmp, one);
            b.store_abs(tmp, cell);
            emit_unlock(&mut b, lock, Reg(6));
            b.addi(i, i, 1);
            b.blt(i, lim, top);
            b.halt();
            let prog = b.build();
            m.run(&prog, streams, |_, _| {})
        };
        let solo = run(1, 64);
        let contended = run(8, 8); // same total critical sections
        assert_eq!(solo.mem.sync_ops, contended.mem.sync_ops);
        assert!(contended.sync_retries > solo.sync_retries);
    }
}
