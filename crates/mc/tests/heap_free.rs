//! The builtin model's expand allocates nothing: unpacking a state,
//! checking it, walking its successors, and packing and canonicalising
//! each one stay on the stack. A counting global allocator over
//! `System` counts the allocations of the calling thread only, so the
//! test harness's other threads do not disturb the count.

use ccsql_mc::{canon, pack, unpack, Compact, Model};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::hint::black_box;

/// Reachable states expanded under the counter.
const SAMPLE: usize = 4_000;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // The slot has no destructor, so it is live for the whole thread;
    // `try_with` only guards the thread's teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `System`, counting every allocation the calling thread makes.
struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged;
// counting only touches a const-initialised thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The first `n` states of a breadth-first search from the initial
/// state, packed.
fn reachable(model: &Model, n: usize) -> Vec<Compact> {
    let init = pack(&model.initial());
    let mut seen = HashSet::from([init]);
    let mut queue = VecDeque::from([init]);
    let mut out = Vec::with_capacity(n);
    while let Some(c) = queue.pop_front() {
        out.push(c);
        if out.len() == n {
            break;
        }
        for t in model.successors(&unpack(c)) {
            let w = pack(&t);
            if seen.insert(w) {
                queue.push_back(w);
            }
        }
    }
    out
}

#[test]
fn expanding_a_state_allocates_nothing() {
    let model = Model {
        nodes: 4,
        quota: 2,
        resp_depth: 2,
    };
    let sample = reachable(&model, SAMPLE);
    assert_eq!(sample.len(), SAMPLE, "the space holds the whole sample");

    // The counter sees this thread's allocations.
    let before = allocations();
    black_box(Vec::<u8>::with_capacity(16));
    assert!(
        allocations() > before,
        "the counting allocator is not installed"
    );

    let before = allocations();
    let mut successors = 0u64;
    for &c in &sample {
        let s = unpack(c);
        black_box(model.check(&s));
        model.for_each_successor(&s, |t| {
            successors += 1;
            black_box(canon(pack(&t)));
        });
    }
    let made = allocations() - before;
    assert_eq!(
        made, 0,
        "expanding {SAMPLE} states ({successors} successors) allocated {made} times"
    );
    assert!(successors > SAMPLE as u64, "{successors} successors");
}
