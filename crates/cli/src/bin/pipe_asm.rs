//! `pipe-asm` — assemble a PIPE program; print disassembly or hex.

use std::process::ExitCode;

use pipe_cli::{hex_dump, parse_asm_args, ASM_USAGE};
use pipe_isa::{disassemble, Assembler};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{ASM_USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_asm_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipe-asm: {e}\n\n{ASM_USAGE}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&opts.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pipe-asm: cannot read {}: {e}", opts.input);
            return ExitCode::FAILURE;
        }
    };
    let program = match Assembler::new(opts.format).assemble(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipe-asm: {}: {e}", opts.input);
            return ExitCode::FAILURE;
        }
    };
    if opts.hex {
        print!("{}", hex_dump(&program));
    } else {
        print!("{}", disassemble(&program));
    }
    println!(
        "; {} instructions, {} bytes",
        program.static_count(),
        program.code_bytes()
    );
    ExitCode::SUCCESS
}
