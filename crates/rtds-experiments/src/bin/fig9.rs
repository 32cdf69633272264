//! Regenerates the paper's Fig9 (evaluation sweep).
fn main() {
    rtds_experiments::cli::run_figure_main(|cli| {
        use rtds_experiments::figures::eval::{fig9, paper_sweep, PaperPattern};
        fig9(&paper_sweep(PaperPattern::Triangular, &cli.options, false))
    });
}
