//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's metrics as a table, then one JSON result line.
//! Exits 0 when every output check passed, 1 when a check failed or
//! the run could not complete, 2 on a bad command line.

use std::process::ExitCode;

use perfbench::{Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} ({cpus} cpus)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match perfbench::run(&args) {
        Ok(outcome) => {
            print!("{}", outcome.table());
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(1)
        }
    }
}
