//! Regenerates the figures of the paper's evaluation section and the
//! design ablations: `all-figures [fig3 … fig9 | ablations]…`. Without an
//! argument: all seven figures.
use tvs_pipelines::report::Figure;

type FigureFn = fn() -> Vec<Figure>;

const FIGURES: [(&str, FigureFn); 7] = [
    ("fig3", tvs_bench::fig3),
    ("fig4", tvs_bench::fig4),
    ("fig5", tvs_bench::fig5),
    ("fig6", tvs_bench::fig6),
    ("fig7", tvs_bench::fig7),
    ("fig8", tvs_bench::fig8),
    ("fig9", tvs_bench::fig9),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |arg: &String| arg == "ablations" || FIGURES.iter().any(|(name, _)| name == arg);
    if let Some(bad) = args.iter().find(|arg| !known(arg)) {
        eprintln!("unknown target '{bad}': all-figures [fig3 … fig9 | ablations]…");
        std::process::exit(2);
    }
    for (name, figure) in FIGURES {
        if args.is_empty() || args.iter().any(|arg| arg == name) {
            let dir = tvs_bench::results_dir().join(name);
            tvs_bench::emit(&figure(), &dir).expect("write results");
        }
    }
    if args.iter().any(|arg| arg == "ablations") {
        tvs_bench::ablations::run();
    }
}
