//! Regenerates every table and figure of the paper's evaluation section
//! in one run; see EXPERIMENTS.md for the recorded outputs.
//!
//! With `--perf`, every simulation is instrumented and an aggregated
//! per-phase profile (plus the process-wide allocation count, measured by
//! the counting global allocator below) is printed at exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtds_experiments::cli::RunOptions;

/// Wraps the system allocator with an allocation counter so `--perf` can
/// report how many heap allocations the epoch hot path performs. The
/// library crates are `#![forbid(unsafe_code)]`; a global allocator needs
/// `unsafe impl`, so it lives here in the binary.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() {
    let opts = RunOptions::from_env();
    opts.init_perfmon(Some(allocation_count));
    use rtds_experiments::figures::eval::{self, paper_sweep, PaperPattern};
    use rtds_experiments::figures::{patterns, profile, tables};
    let o = &opts.options;
    let mut figs = vec![
        tables::table1(o),
        tables::table2(o),
        tables::table3(o),
        profile::fig2(o),
        profile::fig3(o),
        profile::fig4(o),
        patterns::fig8(o),
    ];
    // Each sweep runs once and feeds every figure built from it.
    let triangular = paper_sweep(PaperPattern::Triangular, o, false);
    figs.extend([eval::fig9(&triangular), eval::fig10(&triangular)]);
    let increasing = paper_sweep(PaperPattern::Increasing, o, false);
    figs.push(eval::fig11(&increasing));
    let decreasing = paper_sweep(PaperPattern::Decreasing, o, false);
    figs.push(eval::fig12(&decreasing));
    // Fig. 13 reuses the ramp sweeps unless `--extended` widens its axis.
    let (increasing, decreasing) = if opts.extended {
        (
            paper_sweep(PaperPattern::Increasing, o, true),
            paper_sweep(PaperPattern::Decreasing, o, true),
        )
    } else {
        (increasing, decreasing)
    };
    figs.extend([eval::fig13a(&increasing), eval::fig13b(&decreasing)]);
    let report = opts.emit_figures(figs);
    std::fs::create_dir_all(&o.out_dir).expect("create output dir");
    let report_path = o.out_dir.join("REPORT.txt");
    std::fs::write(&report_path, report).expect("write report");
    opts.finish();
    eprintln!("artifacts in {} (full text: {})", o.out_dir.display(), report_path.display());
}
