//! Regenerates every figure in one pass, sharing the GUPS sweep between
//! Figures 1/2 and 5/6. Pass `--quick` (or set `COLLOID_QUICK=1`) for the
//! reduced sweeps, and `--fig N` to regenerate only figure `N` (`1`–`11`,
//! or `ext` for the extended-version sensitivity analyses).

use experiments::figures;

fn main() {
    let quick = experiments::quick_requested();
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--fig") {
        match figures::select(args.get(i + 1).map_or("", String::as_str)) {
            Ok(run) => run(quick),
            Err(e) => {
                eprintln!("all-figs: {e}");
                std::process::exit(2);
            }
        };
        return;
    }
    let intensities: Vec<usize> = if quick { vec![0, 3] } else { vec![0, 1, 2, 3] };

    // One grid serves figures 1, 2, 5 and 6.
    let grid =
        figures::collect_gups_grid(&figures::all_system_policies(), &intensities, true, quick);
    println!("{}", figures::fig1::render(&grid));
    println!("{}", figures::fig2::render(&grid));
    figures::fig4::run(quick);
    println!("{}", figures::fig5::render(&grid));
    println!("{}", figures::fig6::render(&grid));
    figures::fig7::run(quick);
    figures::fig8::run(quick);
    figures::fig9::run(quick);
    figures::fig10::run(quick);
    figures::fig11::run(quick);
}
