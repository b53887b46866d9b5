//! `pipe-sim` — assemble and run a PIPE program. See `--help`.

use std::process::ExitCode;

use pipe_cli::{parse_sim_args, SimOptions, SIM_USAGE};
use pipe_core::{Processor, TextTrace, TraceSink};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `run` is an explicit alias for the default mode.
    if args.first().map(String::as_str) == Some("run") {
        args.remove(0);
    }

    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{SIM_USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_sim_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipe-sim: {e}\n\n{SIM_USAGE}");
            return ExitCode::from(2);
        }
    };

    let program = if opts.livermore {
        let suite = pipe_workloads::livermore_benchmark();
        println!(
            "running the Livermore benchmark ({} instructions)",
            suite.expected_instructions()
        );
        suite.program().clone()
    } else {
        let path = opts.input.as_deref().expect("validated");
        match pipe_cli::load_program(path, opts.format) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("pipe-sim: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    if opts.compare {
        let rows =
            pipe_cli::run_comparison(&program, &opts.config, opts.cache_bytes, opts.line_bytes);
        print!("{}", pipe_cli::render_comparison(&rows));
        return ExitCode::SUCCESS;
    }

    let proc = match Processor::new(&program, &opts.config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipe-sim: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Without --trace, run the monomorphized no-trace processor.
    if opts.trace {
        run_and_report(proc.with_trace(TextTrace::new(std::io::stderr())), &opts)
    } else {
        run_and_report(proc, &opts)
    }
}

fn run_and_report<S: TraceSink>(mut proc: Processor<S>, opts: &SimOptions) -> ExitCode {
    match proc.run() {
        Ok(()) => {
            let stats = proc.stats();
            if opts.json {
                println!("{}", pipe_cli::stats_json(stats));
            } else {
                println!("{stats}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipe-sim: {e}");
            let [laq, ldq, saq, sdq, inflight, fpu] = proc.queue_snapshot();
            eprintln!(
                "state at abort: LAQ {laq}, LDQ {ldq}, SAQ {saq}, SDQ {sdq}, \
                 in-flight loads {inflight}, pending FPU {fpu}"
            );
            eprintln!("{}", proc.stats());
            ExitCode::FAILURE
        }
    }
}
