//! Regenerates the paper's Fig12 (evaluation sweep).
fn main() {
    rtds_experiments::cli::run_figure_main(|cli| {
        use rtds_experiments::figures::eval::{fig12, paper_sweep, PaperPattern};
        fig12(&paper_sweep(PaperPattern::Decreasing, &cli.options, false))
    });
}
