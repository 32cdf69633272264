//! Regenerates the paper's Fig. 13 (combined metric on both ramps).
//! Pass `--extended` to sweep past the paper's 35-unit axis and observe
//! the ranking fluctuation §5.2 describes.

use rtds_experiments::cli::RunOptions;
use rtds_experiments::figures::eval::{fig13a, fig13b, paper_sweep, PaperPattern};

fn main() {
    let opts = RunOptions::from_env();
    opts.init_perfmon(None);
    let (o, extended) = (&opts.options, opts.extended);
    let increasing = fig13a(&paper_sweep(PaperPattern::Increasing, o, extended));
    let decreasing = fig13b(&paper_sweep(PaperPattern::Decreasing, o, extended));
    opts.emit_figures([increasing, decreasing]);
    opts.finish();
}
