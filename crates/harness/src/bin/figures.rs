//! Regenerates the paper's figures: `figures <fig2|…|fig8|all>`.
//!
//! A line figure (2–7) prints its table and CSV, `fig8` the per-member
//! goodput series, `all` the six tables and the goodput series.
//! `AG_SEEDS` / `AG_SIM_SECS` scale the sweep; seeds of each sweep point
//! run on a worker pool sized by `AG_THREADS` (default: all cores), and
//! stdout is identical for every thread count. A bad knob or scenario
//! ends the process with status 2 and one line before any run.

use ag_harness::{figures, report, Parallelism};

fn main() {
    let id = std::env::args().nth(1).unwrap_or_default();
    let (seeds, secs) = (report::env_seeds(), report::env_sim_secs());
    let all = id == "all";
    let specs: Vec<_> = figures::all_line_figures()
        .into_iter()
        .filter(|spec| all || spec.id == id)
        .map(|spec| spec.with_duration_secs(secs))
        .collect();
    let goodput = all || id == "fig8";
    if specs.is_empty() && !goodput {
        eprintln!("usage: figures <fig2|fig3|fig4|fig5|fig6|fig7|fig8|all>");
        std::process::exit(2);
    }
    for spec in &specs {
        report::or_exit(spec.scenarios());
    }
    if goodput {
        report::or_exit(figures::fig8_scenarios(secs));
    }
    let par = Parallelism::auto();
    eprintln!(
        "{seeds} seeds/point, {secs} s simulated, {} worker thread(s)",
        par.threads()
    );
    for spec in specs {
        eprintln!("running {}...", spec.id);
        let points = report::or_exit(spec.run(seeds, par));
        println!("{}", report::render_table(spec.title, spec.xlabel, &points));
        if !all {
            println!("{}", report::render_csv(&points));
        }
    }
    if goodput {
        eprintln!("running fig8...");
        let series = report::or_exit(figures::fig8(seeds, secs, par));
        println!("{}", report::render_goodput(&series));
    }
}
