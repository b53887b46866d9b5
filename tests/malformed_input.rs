//! Malformed assembly is a typed error at the offending source line,
//! never a panic and never a silently mis-assembled program, in both
//! instruction formats.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pipe_repro::isa::asm::AsmErrorKind;
use pipe_repro::isa::program::BuildError;
use pipe_repro::isa::{Assembler, InstrFormat};

/// The error category a case must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mnemonic,
    Operands,
    Immediate,
    Register,
    Build,
}

fn kind_of(kind: &AsmErrorKind) -> Kind {
    match kind {
        AsmErrorKind::UnknownMnemonic(_) => Kind::Mnemonic,
        AsmErrorKind::BadOperands(_) => Kind::Operands,
        AsmErrorKind::BadImmediate(_) => Kind::Immediate,
        AsmErrorKind::BadRegister(_) => Kind::Register,
        AsmErrorKind::Build(_) => Kind::Build,
    }
}

/// `(source, 1-based line of the error, category)`.
const CASES: &[(&str, usize, Kind)] = &[
    ("nop\nbogus r1\n", 2, Kind::Mnemonic),
    ("pbr.sometimes b0, r0, 0\n", 1, Kind::Mnemonic),
    ("nop\nadd r1, r2\n", 2, Kind::Operands),
    ("add r1, , r2\n", 1, Kind::Register),
    ("add r9, r1, r2\n", 1, Kind::Register),
    ("lbr b8, 0\n", 1, Kind::Register),
    ("lim r1, 0x10000\n", 1, Kind::Immediate),
    ("lim r1, -\n", 1, Kind::Immediate),
    ("lim r1, ５\n", 1, Kind::Immediate),
    ("pbr b0, r0, 8\n", 1, Kind::Immediate),
    ("li32 r1, 0x100000000\n", 1, Kind::Immediate),
    (".equ 9lives, 1\n", 1, Kind::Operands),
    (".equ X\n", 1, Kind::Operands),
    // Operands that do not fit their field are rejected, not truncated.
    (".align 4294967300\nhalt\n", 1, Kind::Immediate),
    ("nop\n.align 4294967296\n", 2, Kind::Immediate),
    (".align -4\n", 1, Kind::Immediate),
    (".data 0x100000000, 1\n", 1, Kind::Immediate),
    (".data 0, 0x100000000\n", 1, Kind::Immediate),
    ("lbr b0, 0x20000\n", 1, Kind::Immediate),
    ("lbr b0, -2\n", 1, Kind::Immediate),
    // Errors found while laying out the program carry the line that
    // caused them.
    ("nop\nlbr b0, gone\nlbr b1, gone\n", 2, Kind::Build),
    ("x: nop\nnop\nx: halt\n", 3, Kind::Build),
    ("a: b: nop\nb: halt\n", 2, Kind::Build),
    ("nop\n.align 4\n\n.align 6\nhalt\n", 4, Kind::Build),
    ("nop\n.align 0\n", 2, Kind::Build),
];

#[test]
fn malformed_sources_are_typed_errors_at_their_line() {
    for format in [InstrFormat::Fixed32, InstrFormat::Mixed] {
        for &(source, line, kind) in CASES {
            let result = catch_unwind(AssertUnwindSafe(|| Assembler::new(format).assemble(source)));
            let Ok(result) = result else {
                panic!("{format}: assembler panicked on {source:?}");
            };
            let Err(e) = result else {
                panic!("{format}: {source:?} assembled instead of failing");
            };
            assert!(e.line() >= 1, "{format}: {source:?}: {e}");
            assert_eq!(e.line(), line, "{format}: {source:?}: {e}");
            assert_eq!(kind_of(e.kind()), kind, "{format}: {source:?}: {e}");
            assert!(e.to_string().starts_with(&format!("line {line}: ")), "{e}");
        }
    }
}

#[test]
fn duplicate_label_names_the_label() {
    let e = Assembler::new(InstrFormat::Fixed32)
        .assemble("x: nop\nx: halt\n")
        .unwrap_err();
    assert_eq!(
        e.kind(),
        &AsmErrorKind::Build(BuildError::DuplicateLabel("x".into()))
    );
}
