//! Heap traffic of `parse_module` on `SPEC`-dense decks, counted by a
//! global allocator: wall-clock cannot be bounded on a shared host, but
//! allocation counts depend only on the deck and the code.
//!
//! A property body costs two allocations, its source spelling and its
//! signal list, and no reallocation: its spaced text is built only when
//! something asks for it. The token buffer, the largest block a parse
//! allocates, is sized so that it never regrows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use covest_circuits::{counter, pipeline, with_specs};
use covest_smv::parse_module;

/// What the counting thread allocated while it counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Traffic {
    allocs: usize,
    reallocs: usize,
    /// The largest block allocated, in bytes.
    largest_alloc: usize,
    /// The largest block reallocated, in bytes before the move.
    largest_realloc: usize,
}

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static TRAFFIC: Cell<Traffic> = const {
        Cell::new(Traffic { allocs: 0, reallocs: 0, largest_alloc: 0, largest_realloc: 0 })
    };
}

/// Applies `f` to the running totals when this thread is counting.
fn record(f: impl FnOnce(&mut Traffic)) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = TRAFFIC.try_with(|t| {
            let mut now = t.get();
            f(&mut now);
            t.set(now);
        });
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(|t| {
            t.allocs += 1;
            t.largest_alloc = t.largest_alloc.max(layout.size());
        });
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(|t| {
            t.allocs += 1;
            t.largest_alloc = t.largest_alloc.max(layout.size());
        });
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(|t| {
            t.reallocs += 1;
            t.largest_realloc = t.largest_realloc.max(layout.size());
        });
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The traffic of parsing `src`, its number of property bodies and the
/// number of signal names they share.
fn traffic(src: &str) -> (Traffic, usize, usize) {
    TRAFFIC.with(|t| t.set(Traffic::default()));
    COUNTING.with(|c| c.set(true));
    let module = parse_module(src);
    COUNTING.with(|c| c.set(false));
    let module = module.expect("the deck parses");
    let decls = || module.specs.iter().chain(&module.fairness);
    let mut names: Vec<*const u8> = decls()
        .flat_map(|s| s.signals().unwrap_or_default())
        .map(|n| n.as_ptr())
        .collect();
    names.sort_unstable();
    names.dedup();
    (TRAFFIC.with(Cell::get), decls().count(), names.len())
}

/// `src` without its `SPEC` and `FAIRNESS` lines.
fn without_properties(src: &str) -> String {
    src.lines()
        .filter(|l| !l.starts_with("SPEC ") && !l.starts_with("FAIRNESS "))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn a_property_costs_its_spelling_and_its_signal_list() {
    let counter = with_specs(
        counter::deck_sized(200),
        &counter::increment_properties_sized(200),
    );
    let mut suite = pipeline::out_suite_initial(40);
    suite.extend(pipeline::out_suite_hold());
    let pipeline = with_specs(pipeline::deck_sized(40), &suite);
    for (name, src, want_bodies) in [
        ("counter_m200", counter, 200),
        ("pipeline_d40", pipeline, 11),
    ] {
        let (all, bodies, names) = traffic(&src);
        let (rest, none, _) = traffic(&without_properties(&src));
        assert_eq!((bodies, none), (want_bodies, 0), "{name}");
        assert!(
            all.largest_realloc < all.largest_alloc,
            "{name}: the token buffer regrew: {all:?}"
        );
        // Per body its spelling and its signal list; per name one shared
        // allocation; per deck at most the name set, the SPEC and
        // FAIRNESS lists and the property grammar's two buffers.
        let allocs = all.allocs - rest.allocs;
        assert!(
            allocs >= 2 * bodies + names && allocs <= 2 * bodies + names + 5,
            "{name}: {allocs} allocations for {bodies} bodies over {names} names"
        );
        // Only those lists grow, by doubling: no body reallocates.
        let reallocs = all.reallocs - rest.reallocs;
        assert!(
            reallocs <= bodies.ilog2() as usize + 4,
            "{name}: {reallocs} reallocations for {bodies} bodies"
        );
    }
}
