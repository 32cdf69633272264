//! Regenerates the paper's Fig10 (evaluation sweep).
fn main() {
    rtds_experiments::cli::run_figure_main(|cli| {
        use rtds_experiments::figures::eval::{fig10, paper_sweep, PaperPattern};
        fig10(&paper_sweep(PaperPattern::Triangular, &cli.options, false))
    });
}
