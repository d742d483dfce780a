//! Compiling a column constraint holds one expression tree: it binds the
//! constraint, folds the bound tree in place and lowers it. A counting
//! global allocator over `System` counts the allocations of the calling
//! thread only, so the test harness's other threads do not disturb the
//! count. Over every column constraint of the eight ASURA controllers,
//! `compile_constraint` must make fewer than 1.5 times the allocations
//! of `Expr::bind` alone: a fold that copied the tree, or a second copy
//! before binding, would make about twice as many.

use ccsql_protocol::ProtocolSpec;
use ccsql_relalg::compile::compile_constraint;
use ccsql_relalg::Schema;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

/// The allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

#[test]
fn compiling_a_constraint_allocates_about_one_bound_tree() {
    let protocol = ProtocolSpec::asura();
    let ctx = ProtocolSpec::eval_context();
    let tables: Vec<_> = protocol
        .controllers
        .iter()
        .map(|c| (&c.spec, Schema::from_syms(&c.spec.column_names()).unwrap()))
        .collect();
    let (mut bind, mut compile, mut constraints) = (0, 0, 0);
    // The first pass interns every literal, so the counted one measures
    // the trees and programs alone.
    for counted in [false, true] {
        for (spec, schema) in &tables {
            for c in &spec.columns {
                let b = allocations_of(|| drop(black_box(c.constraint.bind(schema).unwrap())));
                let p = allocations_of(|| {
                    drop(black_box(
                        compile_constraint(&c.constraint, schema, &ctx).unwrap(),
                    ))
                });
                if counted {
                    (bind, compile, constraints) = (bind + b, compile + p, constraints + 1);
                }
            }
        }
    }
    assert!(constraints > 80, "only {constraints} constraints");
    assert!(bind > 10_000, "binding made only {bind} allocations");
    assert!(
        compile * 2 < bind * 3,
        "compile_constraint made {compile} allocations over {constraints} constraints, \
         against {bind} for binding alone ({:.2}x; at most 1.5x)",
        compile as f64 / bind as f64
    );
}
