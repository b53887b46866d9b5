//! `pipe-sim` — assemble and run a PIPE program. See `--help`.

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;

use pipe_cli::{parse_sim_args, SimOptions, REPLAY_USAGE, SIM_USAGE};
use pipe_core::{MultiSink, Processor, TextTrace, TraceSink};
use pipe_trace::{TraceMeta, TraceRecorder};

type FileRecorder = Rc<RefCell<TraceRecorder<std::io::BufWriter<std::fs::File>>>>;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // Subcommands first, so `pipe-sim replay --help` shows the replay
    // usage rather than the run usage.
    match args.first().map(String::as_str) {
        Some("replay") => return replay_main(&args[1..]),
        // `run` is an explicit alias for the default mode.
        Some("run") => {
            args.remove(0);
        }
        _ => {}
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

    let (program, workload_key) = if opts.livermore {
        let suite = pipe_workloads::livermore_benchmark();
        println!(
            "running the Livermore benchmark ({} instructions)",
            suite.expected_instructions()
        );
        let key = pipe_experiments::WorkloadSpec::livermore().key();
        (suite.program().clone(), key)
    } else {
        let path = opts.input.as_deref().expect("validated");
        match pipe_cli::load_program(path, opts.format) {
            Ok(p) => (p, format!("file:{path}")),
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

    let recorder = match &opts.record_trace {
        Some(path) => {
            let meta = TraceMeta {
                workload: workload_key,
                program_fnv: pipe_trace::program_fnv(&program),
                entry_pc: program.entry(),
                fetch_key: opts.config.fetch.cache_key(),
                mem_key: pipe_experiments::mem_key(&opts.config.mem),
            };
            match TraceRecorder::create(std::path::Path::new(path), &meta) {
                Ok(rec) => Some(Rc::new(RefCell::new(rec))),
                Err(e) => {
                    eprintln!("pipe-sim: cannot record to {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    // With no sink requested, run the monomorphized no-trace processor;
    // otherwise switch to a boxed sink chosen at runtime.
    let sink: Option<Box<dyn TraceSink>> = match (&recorder, opts.trace) {
        (Some(rec), true) => {
            let mut sink = MultiSink::new();
            sink.push(Box::new(Rc::clone(rec)));
            sink.push(Box::new(TextTrace::new(std::io::stderr())));
            Some(Box::new(sink))
        }
        (Some(rec), false) => Some(Box::new(Rc::clone(rec))),
        (None, true) => Some(Box::new(TextTrace::new(std::io::stderr()))),
        (None, false) => None,
    };
    match sink {
        Some(sink) => run_and_report(proc.with_trace(sink), &recorder, &opts),
        None => run_and_report(proc, &recorder, &opts),
    }
}

fn run_and_report<S: TraceSink>(
    mut proc: Processor<S>,
    recorder: &Option<FileRecorder>,
    opts: &SimOptions,
) -> ExitCode {
    match proc.run() {
        Ok(()) => {
            let stats = proc.stats();
            if let (Some(rec), Some(path)) = (recorder, &opts.record_trace) {
                match rec.borrow_mut().finish(stats.cycles) {
                    Ok((_, summary)) => {
                        println!("recorded {} instructions to {path}", summary.instructions);
                    }
                    Err(e) => {
                        eprintln!("pipe-sim: cannot finish trace {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
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

fn replay_main(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{REPLAY_USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match pipe_cli::parse_replay_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipe-sim replay: {e}\n\n{REPLAY_USAGE}");
            return ExitCode::from(2);
        }
    };
    match pipe_cli::run_replay(&opts) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipe-sim replay: {e}");
            ExitCode::FAILURE
        }
    }
}
