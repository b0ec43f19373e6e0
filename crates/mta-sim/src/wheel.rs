//! The scheduler's calendar queue ("time wheel") behind the issue loop in
//! `machine.rs`.
//!
//! The ordering contract: events pop in ascending `(time, stream_id)`
//! order, exactly like the `BinaryHeap<Reverse<(time, stream)>>` the wheel
//! replaced (and which the property tests below keep as the reference
//! model).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Buckets in the scheduler's calendar queue, covering this many thirds of
/// a cycle ahead of the current time (4096 thirds ≈ 1365 cycles, well past
/// the memory latency and sync-retry horizons). Events beyond the window —
/// e.g. streams parked behind a deep hotspot backlog — wait in an overflow
/// heap and migrate into the wheel as time advances.
pub(crate) const WHEEL_SIZE: usize = 1 << 12;

/// Empty-bucket / end-of-list marker in [`TimeWheel`]'s intrusive lists.
const NO_STREAM: u32 = u32::MAX;

/// The scheduler's ready queue: a calendar queue ("time wheel") ordered
/// exactly like the `BinaryHeap<Reverse<(time, stream)>>` it replaces.
///
/// Every live stream has at most one pending event, so each wheel bucket
/// is an intrusive singly-linked list threaded through a per-stream `next`
/// array — push is O(1) with zero allocation, and draining a bucket sorts
/// the (few) stream ids so same-time events still pop in id order. A
/// binary heap pays a cache-missing, branch-mispredicting sift per event;
/// the wheel pays an array write, which is what makes the interpreter's
/// issue loop fast at hundreds of streams.
pub(crate) struct TimeWheel {
    /// Bucket heads, indexed by `time & (WHEEL_SIZE - 1)`.
    head: Box<[u32]>,
    /// Occupancy bitmap over buckets (one bit per bucket), so finding the
    /// next nonempty bucket is a couple of `trailing_zeros` words rather
    /// than a linear walk over empty slots.
    occ: Box<[u64]>,
    /// Intrusive next-pointers, indexed by stream id.
    next: Box<[u32]>,
    /// Events at or beyond `base + WHEEL_SIZE`.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// All wheel events lie in `[base, base + WHEEL_SIZE)`.
    base: u64,
    /// Events currently threaded in the wheel (not overflow, not bucket).
    wheel_count: usize,
    /// The drained current bucket, ascending ids, read via `cursor`.
    bucket: Vec<u32>,
    cursor: usize,
    bucket_time: u64,
}

impl TimeWheel {
    pub(crate) fn new(total_streams: usize) -> Self {
        TimeWheel {
            head: vec![NO_STREAM; WHEEL_SIZE].into_boxed_slice(),
            occ: vec![0u64; WHEEL_SIZE / 64].into_boxed_slice(),
            next: vec![NO_STREAM; total_streams].into_boxed_slice(),
            overflow: BinaryHeap::new(),
            base: 0,
            wheel_count: 0,
            bucket: Vec::new(),
            cursor: 0,
            bucket_time: 0,
        }
    }

    /// Schedule stream `id` at time `t` (thirds). `t` must be strictly
    /// after the most recently popped event time (equivalently: at or
    /// after `base`) — pushes always target the future. The engines hold
    /// this by construction: a requeue pushes at `e > t`, and every wake
    /// time is at least `issue_at + 1`.
    #[inline]
    pub(crate) fn push(&mut self, t: u64, id: u32) {
        if t < self.base + WHEEL_SIZE as u64 {
            let b = t as usize & (WHEEL_SIZE - 1);
            self.next[id as usize] = self.head[b];
            self.head[b] = id;
            self.occ[b >> 6] |= 1 << (b & 63);
            self.wheel_count += 1;
        } else {
            self.overflow.push(Reverse((t, id)));
        }
    }

    /// Time of the first occupied bucket at or after `from`. Requires
    /// `wheel_count > 0`; distances are computed modulo the wheel size.
    #[inline]
    fn next_occupied(&self, from: u64) -> u64 {
        let mask = WHEEL_SIZE - 1;
        let nwords = WHEEL_SIZE / 64;
        let start = from as usize & mask;
        let first_word = start >> 6;
        let head_bits = self.occ[first_word] & (!0u64 << (start & 63));
        if head_bits != 0 {
            let b = (first_word << 6) | head_bits.trailing_zeros() as usize;
            return from + (b.wrapping_sub(start) & mask) as u64;
        }
        for k in 1..=nwords {
            let wi = (first_word + k) & (nwords - 1);
            let bits = self.occ[wi];
            if bits != 0 {
                let b = (wi << 6) | bits.trailing_zeros() as usize;
                return from + (b.wrapping_sub(start) & mask) as u64;
            }
        }
        unreachable!("next_occupied called on an empty wheel")
    }

    /// Move overflow events that now fit the window into the wheel.
    fn admit_overflow(&mut self) {
        while let Some(&Reverse((t, id))) = self.overflow.peek() {
            if t >= self.base + WHEEL_SIZE as u64 {
                break;
            }
            self.overflow.pop();
            let b = t as usize & (WHEEL_SIZE - 1);
            self.next[id as usize] = self.head[b];
            self.head[b] = id;
            self.occ[b >> 6] |= 1 << (b & 63);
            self.wheel_count += 1;
        }
    }

    /// Next event in ascending `(time, id)` order.
    pub(crate) fn pop(&mut self) -> Option<(u64, u32)> {
        if self.cursor < self.bucket.len() {
            let id = self.bucket[self.cursor];
            self.cursor += 1;
            return Some((self.bucket_time, id));
        }
        loop {
            if self.wheel_count == 0 {
                // Jump straight to the earliest parked event.
                let &Reverse((t, _)) = self.overflow.peek()?;
                self.base = t;
                self.admit_overflow();
                continue;
            }
            // The nearest event is in the window; jump to its bucket.
            let t = self.next_occupied(self.base);
            let b = t as usize & (WHEEL_SIZE - 1);
            self.bucket.clear();
            let mut id = self.head[b];
            self.head[b] = NO_STREAM;
            self.occ[b >> 6] &= !(1 << (b & 63));
            while id != NO_STREAM {
                self.bucket.push(id);
                id = self.next[id as usize];
            }
            self.wheel_count -= self.bucket.len();
            self.bucket.sort_unstable();
            self.bucket_time = t;
            self.cursor = 1;
            self.base = t + 1;
            self.admit_overflow();
            return Some((t, self.bucket[0]));
        }
    }
}

#[cfg(test)]
mod tests {
    //! Ordering oracle: drive a wheel and a `BinaryHeap<Reverse<(t, id)>>`
    //! reference model through the same push/pop script and require
    //! identical pop sequences — including far-future pushes that park in
    //! the overflow heap and drain as `base` wraps past `WHEEL_SIZE`.
    //!
    //! The wheel's contract is narrower than a general priority queue:
    //! every stream id has at most one pending event, and pushes never
    //! precede the most recently popped time. The generators respect both.

    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// Reference model: a heap plus the pop-order bookkeeping the real
    /// engines rely on (monotone pop times, id tie-break).
    struct HeapModel {
        heap: BinaryHeap<Reverse<(u64, u32)>>,
    }

    impl HeapModel {
        fn new() -> Self {
            HeapModel {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, t: u64, id: u32) {
            self.heap.push(Reverse((t, id)));
        }
        fn pop(&mut self) -> Option<(u64, u32)> {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    /// One scripted action: push a parked stream at `floor + delta`, where
    /// `floor` is the earliest legal push time (one past the last popped
    /// event; the deltas deliberately straddle `WHEEL_SIZE` so overflow
    /// admission is exercised), or pop and compare.
    #[derive(Debug, Clone, Copy)]
    enum Action {
        /// Push the next parked stream at `floor + delta`.
        Push { delta: u32 },
        /// Pop one event from both and compare.
        Pop,
    }

    fn action() -> impl Strategy<Value = Action> {
        prop_oneof![
            // Near pushes (within the wheel window)...
            (0u32..64).prop_map(|delta| Action::Push { delta }),
            // ...far-future pushes, up to several wheel revolutions out.
            (0u32..3 * WHEEL_SIZE as u32).prop_map(|delta| Action::Push { delta }),
            // Pops twice, so the script pops as often as it pushes.
            Just(Action::Pop),
            Just(Action::Pop),
        ]
    }

    /// Run a script against both queues. `streams` ids cycle through a
    /// free pool so each id has at most one pending event (the wheel's
    /// intrusive-list invariant).
    fn run_script(actions: &[Action], streams: usize) {
        let mut wheel = TimeWheel::new(streams);
        let mut model = HeapModel::new();
        let mut free: Vec<u32> = (0..streams as u32).rev().collect();
        // Earliest legal push time: pushes must land strictly after the
        // most recently popped event. `delta == 0` probes the boundary.
        let mut floor = 0u64;
        for (step, &a) in actions.iter().enumerate() {
            match a {
                Action::Push { delta } => {
                    if let Some(id) = free.pop() {
                        wheel.push(floor + u64::from(delta), id);
                        model.push(floor + u64::from(delta), id);
                    }
                }
                Action::Pop => {
                    let got = wheel.pop();
                    let want = model.pop();
                    assert_eq!(got, want, "pop diverged at step {step}");
                    if let Some((t, id)) = got {
                        floor = t + 1;
                        free.push(id);
                    }
                }
            }
        }
        // Drain both to the end: every remaining event must agree too
        // (this is where overflow events parked multiple wheel
        // revolutions out finally migrate in).
        loop {
            let got = wheel.pop();
            let want = model.pop();
            assert_eq!(got, want, "drain diverged");
            match got {
                Some((_, id)) => free.push(id),
                None => break,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wheel_matches_heap_model(
            actions in proptest::collection::vec(action(), 1..120),
            streams in 1usize..24,
        ) {
            run_script(&actions, streams);
        }
    }

    #[test]
    fn overflow_drains_as_base_wraps() {
        // Pin the exact scenario the proptest explores statistically: near
        // events interleaved with events parked several wheel sizes out;
        // popping must advance `base` past WHEEL_SIZE and admit them in
        // order.
        let n = 8;
        let mut wheel = TimeWheel::new(n);
        let mut model = HeapModel::new();
        let far = WHEEL_SIZE as u64;
        let times = [0, 3, far - 1, far, far + 1, 2 * far + 5, 3 * far, 7];
        for (id, &t) in times.iter().enumerate() {
            wheel.push(t, id as u32);
            model.push(t, id as u32);
        }
        loop {
            let got = wheel.pop();
            assert_eq!(got, model.pop());
            if got.is_none() {
                break;
            }
        }
    }
}
