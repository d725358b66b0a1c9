//! Runs one experiment harness through the shared grid driver, or checks
//! the committed bench baselines for drift (`experiments::grid`).
//!
//! ```text
//! grid <harness> [--quick] [--smoke] [--bench] [--regen] [--replay <path>]
//! grid --drift [harness]
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(experiments::grid::main(&args));
}
