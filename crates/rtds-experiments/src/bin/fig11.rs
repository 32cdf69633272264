//! Regenerates the paper's Fig11 (evaluation sweep).
fn main() {
    rtds_experiments::cli::run_figure_main(|cli| {
        use rtds_experiments::figures::eval::{fig11, paper_sweep, PaperPattern};
        fig11(&paper_sweep(PaperPattern::Increasing, &cli.options, false))
    });
}
