//! `agbench` command line. See the crate's README.
//!
//! ```text
//! agbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!         [--quick] [--stride <n>] [--out <file>] [--trace-out <file>]
//! agbench --seed <u64> ...            every workload, one child process each
//! agbench --compare <a> <b> [--benchmark <BENCHMARK.json>]
//! agbench --list
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use agbench::run::{run, Options};
use agbench::workload::{pool_size, Workload};
use agbench::{compare, names, report};

#[global_allocator]
static ALLOC: agbench::alloc::ThreadCountingAllocator = agbench::alloc::ThreadCountingAllocator;

const USAGE: &str = "usage: agbench [--workload <paper_sweep|stress_harsh|city_20k|city_20k_nt>] \
--seed <u64> [--seconds <n>] [--trace <0|1>] [--quick] [--stride <n>] [--out <file>] \
[--trace-out <file>]\n       agbench --compare <a> <b> [--benchmark <file>]\n       agbench --list";

/// The parsed command line.
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    stride: Option<u64>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
    list: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: 20.0,
        trace: false,
        quick: false,
        stride: None,
        out: None,
        trace_out: None,
        compare: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
        list: false,
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                cli.seed = num(flag, value()?)?;
                seed_given = true;
            }
            "--seconds" => {
                cli.seconds = num(flag, value()?)?;
                if !(cli.seconds.is_finite() && (0.0..=60.0).contains(&cli.seconds)) {
                    return Err("--seconds must lie in 0..=60".into());
                }
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--quick" => cli.quick = true,
            "--stride" => {
                let stride: u64 = num(flag, value()?)?;
                if stride == 0 {
                    return Err("--stride must be at least 1".into());
                }
                cli.stride = Some(stride);
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value()?)),
            "--compare" => {
                cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)));
            }
            "--benchmark" => cli.benchmark = PathBuf::from(value()?),
            "--list" => cli.list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.compare.is_none() && !cli.list && !seed_given {
        return Err("--seed is required".into());
    }
    Ok(cli)
}

/// Runs every workload in a child process of its own (so peak RSS is
/// per workload), forwarding the arguments.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("agbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut clean = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(args)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("agbench: workload {} ended with {s}", w.name());
                clean = false;
            }
            Err(e) => {
                eprintln!("agbench: cannot start workload {}: {e}", w.name());
                clean = false;
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() {
    println!("end-to-end (every workload reports each):");
    for m in names::END_TO_END {
        println!(
            "  {:<38} {:<8} better={:<6} bound={}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per-layer (--trace 1):");
    for m in names::PER_LAYER {
        println!(
            "  {:<38} {:<8} better={:<6} {:<6} layer={:<8} moves: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            if m.exact { "exact" } else { "timing" },
            m.layer(),
            m.moves
        );
    }
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<14} {}", w.name(), w.why());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("agbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        list();
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.compare {
        return match compare::compare_files(a, b, &cli.benchmark) {
            Ok(outcome) => {
                print!("{}", outcome.text);
                if outcome.clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("agbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = cli.workload else {
        return run_all(&args);
    };

    // `ag_harness::run_*` arms every engine from `AG_THREADS` (or the
    // host's core count); pin it before any thread exists so no
    // measurement depends on the ambient environment.
    std::env::set_var("AG_THREADS", workload.threads(pool_size()).to_string());

    let opts = Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        stride: cli.stride,
    };
    let rep = run(&opts);
    eprint!("{}", report::table(&rep));

    if let Some(trace) = &rep.trace {
        let path = cli.trace_out.clone().unwrap_or_else(|| {
            // Beside the executable: inside the build directory, which
            // the checkout ignores.
            let mut p = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("agbench"));
            p.set_file_name(format!("trace-{}.json", workload.name()));
            p
        });
        match std::fs::write(&path, report::trace_document(&rep, trace)) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => eprintln!("agbench: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(out) = &cli.out {
        if let Err(e) = report::append_line(out, &report::record_line(&rep)) {
            eprintln!("agbench: cannot append to {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", report::result_line(&rep));
    ExitCode::SUCCESS
}
