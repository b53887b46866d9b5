//! Malformed assembly is a typed error at the offending source line,
//! never a panic and never a silently mis-assembled program, in both
//! instruction formats. A malformed binary program container is a typed
//! [`BinError`], never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pipe_repro::isa::asm::AsmErrorKind;
use pipe_repro::isa::program::BuildError;
use pipe_repro::isa::{read_program, write_program, Assembler, BinError, InstrFormat, Program};

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

/// Reads `bytes` as a binary program container, failing the test if the
/// reader panics.
fn read_container(bytes: &[u8]) -> Result<Program, BinError> {
    catch_unwind(|| read_program(bytes))
        .unwrap_or_else(|_| panic!("read_program panicked on {bytes:02x?}"))
}

#[test]
fn malformed_containers_are_typed_errors() {
    let program = Assembler::new(InstrFormat::Mixed)
        .assemble("top: lim r1, 5\nlbr b0, top\npbr.nez b0, r1, 0\nhalt\n.data 0x1000, 42\n")
        .unwrap();
    let good = write_program(&program);
    assert!(read_container(&good).is_ok());

    for cut in 0..good.len() {
        assert_eq!(
            read_container(&good[..cut]).unwrap_err(),
            BinError::Truncated,
            "cut at {cut}"
        );
    }

    // `(byte offset, value, expected error)`: magic, version, format,
    // then the low byte of the base and entry addresses.
    for (offset, value, expected) in [
        (0, b'X', BinError::BadMagic),
        (4, 2, BinError::BadVersion(2)),
        (5, 2, BinError::BadFormat(2)),
        (8, 1, BinError::MisalignedBase(1)),
        (12, 3, BinError::MisalignedEntry(3)),
    ] {
        let mut bytes = good.clone();
        bytes[offset] = value;
        assert_eq!(
            read_container(&bytes).unwrap_err(),
            expected,
            "byte {offset}"
        );
    }

    // A parcel, symbol or data-word count larger than the file can hold
    // is truncation, not an attempt to allocate for it.
    let symbol_count = 20 + 2 * program.parcels().len();
    let data_count = good.len() - 4 - 8 * program.data().len();
    for offset in [16, symbol_count, data_count] {
        let mut bytes = good.clone();
        bytes[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_container(&bytes).unwrap_err(),
            BinError::Truncated,
            "count at byte {offset}"
        );
    }
}
