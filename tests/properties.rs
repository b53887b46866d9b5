//! Property-style tests over core data structures and cross-engine
//! architectural equivalence.
//!
//! Inputs are generated with a small deterministic PRNG (SplitMix64)
//! rather than an external property-testing crate, so the suite runs with
//! no registry dependencies and every failure is reproducible from the
//! fixed seeds below.

mod common;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use pipe_repro::core::{FetchStrategy, Interpreter, IssueTrace, Processor, SimConfig, SimStats};
use pipe_repro::icache::repeat::RepeatCounts;
use pipe_repro::icache::{CacheConfig, InstructionCache, PipeFetchConfig};
use pipe_repro::isa::{
    decode, encode, AluOp, BranchReg, Cond, InstrFormat, Instruction, ProgramBuilder, Reg,
};
use pipe_repro::mem::{
    BeatSource, ExternalCacheConfig, MemConfig, MemRequest, MemorySystem, ReqClass, FPU_BASE,
};

// ---------------------------------------------------------------------
// Deterministic generation.
// ---------------------------------------------------------------------

/// SplitMix64: tiny, seedable, and statistically good enough for test
/// input generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn range_u32(&mut self, lo: u32, hi_exclusive: u32) -> u32 {
        lo + self.below((hi_exclusive - lo) as u64) as u32
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn i16(&mut self) -> i16 {
        self.next() as i16
    }

    fn u16(&mut self) -> u16 {
        self.next() as u16
    }

    fn reg(&mut self) -> Reg {
        Reg::new(self.below(8) as u8)
    }

    fn breg(&mut self) -> BranchReg {
        BranchReg::new(self.below(8) as u8)
    }

    fn alu_op(&mut self) -> AluOp {
        const OPS: [AluOp; 8] = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Sll,
            AluOp::Srl,
            AluOp::Sra,
        ];
        OPS[self.below(8) as usize]
    }

    fn cond(&mut self) -> Cond {
        const CONDS: [Cond; 6] = [
            Cond::Always,
            Cond::Eqz,
            Cond::Nez,
            Cond::Gtz,
            Cond::Ltz,
            Cond::Never,
        ];
        CONDS[self.below(6) as usize]
    }

    fn instruction(&mut self) -> Instruction {
        match self.below(12) {
            0 => Instruction::Nop,
            1 => Instruction::Halt,
            2 => Instruction::Xchg,
            3 => Instruction::Alu {
                op: self.alu_op(),
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            4 => Instruction::AluImm {
                op: self.alu_op(),
                rd: self.reg(),
                rs1: self.reg(),
                imm: self.i16(),
            },
            5 => Instruction::Lim {
                rd: self.reg(),
                imm: self.i16(),
            },
            6 => Instruction::Lui {
                rd: self.reg(),
                imm: self.u16(),
            },
            7 => Instruction::Load {
                base: self.reg(),
                disp: self.i16(),
            },
            8 => Instruction::StoreAddr {
                base: self.reg(),
                disp: self.i16(),
            },
            9 => Instruction::Lbr {
                br: self.breg(),
                target_parcel: self.u16(),
            },
            10 => Instruction::LbrReg {
                br: self.breg(),
                rs1: self.reg(),
            },
            _ => Instruction::Pbr {
                cond: self.cond(),
                br: self.breg(),
                rs: self.reg(),
                delay: self.below(8) as u8,
            },
        }
    }

    fn instructions(&mut self, lo: usize, hi: usize) -> Vec<Instruction> {
        let n = lo + self.below((hi - lo) as u64) as usize;
        (0..n).map(|_| self.instruction()).collect()
    }

    fn format(&mut self) -> InstrFormat {
        if self.bool() {
            InstrFormat::Fixed32
        } else {
            InstrFormat::Mixed
        }
    }
}

// ---------------------------------------------------------------------
// ISA: encode/decode round-trip over the full instruction space.
// ---------------------------------------------------------------------

/// Ties the whole ISA toolchain together: the `Display` form of any
/// instruction is valid assembler syntax that round-trips through the
/// text assembler, the encoder, and the decoder.
#[test]
fn display_assembles_back_to_the_same_instruction() {
    let mut rng = Rng::new(0x1501);
    for _ in 0..256 {
        let instrs = rng.instructions(1, 40);
        let format = rng.format();
        let source: String = instrs.iter().map(|i| format!("{i}\n")).collect();
        let program = pipe_repro::isa::Assembler::new(format)
            .assemble(&source)
            .expect("display output assembles");
        let decoded: Vec<Instruction> = program.instructions().map(|(_, i)| i).collect();
        assert_eq!(decoded, instrs, "source:\n{source}");
    }
}

#[test]
fn encode_decode_roundtrip() {
    let mut rng = Rng::new(0x1503);
    for _ in 0..2048 {
        let instr = rng.instruction();
        let format = rng.format();
        let e = encode(&instr, format);
        let p = e.parcels();
        let decoded = decode(p[0], p.get(1).copied()).expect("decodes");
        assert_eq!(decoded, instr);
    }
}

#[test]
fn encoded_size_matches_declared_size() {
    let mut rng = Rng::new(0x1504);
    for _ in 0..2048 {
        let instr = rng.instruction();
        for format in InstrFormat::ALL {
            let e = encode(&instr, format);
            assert_eq!(e.len() as u32, instr.size_parcels(format), "{instr}");
        }
    }
}

#[test]
fn branch_bit_iff_pbr() {
    let mut rng = Rng::new(0x1505);
    for _ in 0..2048 {
        let instr = rng.instruction();
        let e = encode(&instr, InstrFormat::Fixed32);
        assert_eq!(
            pipe_repro::isa::encode::parcel_is_branch(e.parcels()[0]),
            instr.is_branch(),
            "{instr}"
        );
    }
}

// ---------------------------------------------------------------------
// Cache: model equivalence against a naive reference.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    Fill { addr: u32, bytes: u32 },
    Check { addr: u32, bytes: u32 },
}

/// Naive reference: per 4-byte sub-block, remember which tag is valid.
#[derive(Default)]
struct RefCache {
    // line index -> (tag, set of valid sub-block offsets)
    lines: std::collections::HashMap<u32, (u32, std::collections::HashSet<u32>)>,
}

impl RefCache {
    fn fill(&mut self, cfg: &CacheConfig, addr: u32, bytes: u32) {
        let mut a = addr & !3;
        while a < addr + bytes {
            let idx = cfg.line_index(a);
            let tag = cfg.tag_of(a);
            let entry = self.lines.entry(idx).or_insert((tag, Default::default()));
            if entry.0 != tag {
                *entry = (tag, Default::default());
            }
            entry.1.insert((a - cfg.line_base(a)) / 4);
            a += 4;
        }
    }

    fn contains(&self, cfg: &CacheConfig, addr: u32, bytes: u32) -> bool {
        let mut a = addr & !3;
        let end = addr + bytes;
        while a < end {
            let idx = cfg.line_index(a);
            match self.lines.get(&idx) {
                Some((tag, subs))
                    if *tag == cfg.tag_of(a) && subs.contains(&((a - cfg.line_base(a)) / 4)) => {}
                _ => return false,
            }
            a += 4;
        }
        true
    }
}

#[test]
fn cache_matches_reference_model() {
    let mut rng = Rng::new(0x1506);
    for _ in 0..64 {
        let size = 1u32 << rng.range_u32(4, 10);
        let line = (1u32 << rng.range_u32(3, 6)).min(size);
        let cfg = CacheConfig::new(size, line);
        let mut cache = InstructionCache::new(cfg);
        let mut reference = RefCache::default();
        let ops: Vec<CacheOp> = (0..rng.range_u32(1, 200))
            .map(|_| {
                if rng.bool() {
                    CacheOp::Fill {
                        addr: rng.range_u32(0, 1024) * 2,
                        bytes: rng.range_u32(1, 4) * 4,
                    }
                } else {
                    CacheOp::Check {
                        addr: rng.range_u32(0, 1024) * 2,
                        bytes: rng.range_u32(1, 3) * 2,
                    }
                }
            })
            .collect();
        for op in &ops {
            match *op {
                CacheOp::Fill { addr, bytes } => {
                    cache.fill(addr, bytes);
                    reference.fill(&cfg, addr, bytes);
                }
                CacheOp::Check { addr, bytes } => {
                    // Keep the probe within one line, as the cache requires.
                    let line_end = cfg.line_base(addr) + cfg.line_bytes;
                    let bytes = bytes.min(line_end - addr);
                    assert_eq!(
                        cache.contains(addr, bytes),
                        reference.contains(&cfg, addr, bytes),
                        "at {addr:#x}+{bytes} ({size}B cache, {line}B lines)"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Memory system: conservation and completeness of responses.
// ---------------------------------------------------------------------

/// Memory carries no tags: it answers reads in acceptance order, each
/// response's beats back to back, and FPU results in operation order.
/// Random mixes of every request class, including FPU stores, with and
/// without pipelining and an external cache, check that contract beat by
/// beat: every beat continues the oldest response owed of its kind, its
/// address continues its request, `last` marks exactly the final beat,
/// and every accepted read and FPU operation is answered in full.
#[test]
fn every_accepted_read_is_fully_delivered() {
    let mut rng = Rng::new(0x1507);
    for trial in 0..64 {
        let in_bus = if rng.bool() { 8 } else { 4 };
        let mut mem = MemorySystem::new(MemConfig {
            access_cycles: rng.range_u32(1, 7),
            pipelined: rng.bool(),
            in_bus_bytes: in_bus,
            external_cache: rng.bool().then_some(ExternalCacheConfig {
                size_bytes: 256,
                line_bytes: 32,
                miss_penalty: 3,
            }),
            ..MemConfig::default()
        });
        // Requests waiting to be offered, per class.
        let mut waiting: [VecDeque<MemRequest>; 4] = Default::default();
        for _ in 0..rng.range_u32(1, 40) {
            let req = match rng.below(5) {
                0 => MemRequest::load(ReqClass::DataLoad, 4 * rng.range_u32(0, 256), 4),
                1 => MemRequest::store(4 * rng.range_u32(0, 256)),
                // The operand latch, the operations and an unmapped offset.
                2 => MemRequest::store(FPU_BASE + 4 * rng.range_u32(0, 6)),
                class => MemRequest::load(
                    [ReqClass::IFetch, ReqClass::IPrefetch][class as usize - 3],
                    2 * rng.range_u32(0, 512),
                    2 * rng.range_u32(1, 9),
                ),
            };
            waiting[req.class.index()].push_back(req);
        }
        // Responses owed, as (source, next beat address, bytes to come):
        // reads in acceptance order, and FPU results.
        let mut owed: [VecDeque<(BeatSource, u32, u32)>; 2] = Default::default();
        let mut streaming = false;
        for cycle in 0..5000 {
            for req in waiting.iter().filter_map(|w| w.front()) {
                mem.offer(*req);
            }
            let out = mem.tick();
            if let Some(class) = out.accepted {
                let req = waiting[class.index()].pop_front().expect("offered");
                let source = match class {
                    ReqClass::DataLoad => BeatSource::DataLoad,
                    ReqClass::IFetch => BeatSource::IFetch,
                    ReqClass::IPrefetch => BeatSource::IPrefetch,
                    ReqClass::DataStore => BeatSource::FpuResult,
                };
                if source != BeatSource::FpuResult {
                    let addr = if class.is_instruction() { req.addr } else { 0 };
                    owed[0].push_back((source, addr, req.bytes));
                } else if matches!(req.addr.wrapping_sub(FPU_BASE), 4 | 8 | 12 | 16) {
                    owed[1].push_back((source, 0, 4));
                }
            }
            let context = format!("trial {trial}, cycle {cycle}");
            let Some(beat) = out.beats else {
                assert!(!streaming, "{context}: a response paused");
                if waiting.iter().all(VecDeque::is_empty) && mem.is_idle() {
                    break;
                }
                continue;
            };
            let owed = &mut owed[usize::from(beat.source == BeatSource::FpuResult)];
            let (source, addr, remaining) = owed.front_mut().expect(&context);
            assert_eq!(beat.source, *source, "{context}");
            assert_eq!(beat.addr, *addr, "{context}");
            assert_eq!(beat.bytes, in_bus.min(*remaining), "{context}");
            *remaining -= beat.bytes;
            if matches!(beat.source, BeatSource::IFetch | BeatSource::IPrefetch) {
                *addr += beat.bytes;
            }
            assert_eq!(beat.last, *remaining == 0, "{context}");
            if beat.last {
                owed.pop_front();
            }
            streaming = !beat.last;
        }
        assert!(mem.is_idle(), "trial {trial}: memory never drained");
        assert!(waiting.iter().all(VecDeque::is_empty), "trial {trial}");
        assert!(
            owed.iter().all(VecDeque::is_empty),
            "trial {trial}: shorted"
        );
    }
}

// ---------------------------------------------------------------------
// Random queue-disciplined kernels: interpreter vs timed processor.
// ---------------------------------------------------------------------

use pipe_repro::core::interpret;
use pipe_repro::isa::Program;
use pipe_repro::workloads::codegen::STREAM_STRIDE;
use pipe_repro::workloads::livermore::DATA_BASE;
use pipe_repro::workloads::{kernel_program, FpKind, Kernel, KernelOp, Src};

/// Balanced op groups: each leaves the LDQ empty, so any concatenation
/// satisfies the queue discipline by construction.
fn kernel_group(rng: &mut Rng) -> Vec<KernelOp> {
    let load = |s: u32, off: i16| KernelOp::Load {
        stream: s,
        elem_off: off,
    };
    match rng.below(7) {
        // load; acc op; store result
        0 => {
            let s = rng.range_u32(0, 7);
            let off = rng.below(4) as i16;
            vec![
                load(s, off),
                KernelOp::Fp {
                    kind: FpKind::Add,
                    a: Src::Queue,
                    b: Src::Acc,
                },
                KernelOp::Store {
                    stream: (s + 1) % 7,
                },
            ]
        }
        // two loads; multiply; store
        1 => {
            let a = rng.range_u32(0, 6);
            let b = rng.range_u32(0, 6);
            vec![
                load(a, 0),
                load(b, 1),
                KernelOp::Fp {
                    kind: FpKind::Mul,
                    a: Src::Queue,
                    b: Src::Queue,
                },
                KernelOp::Store { stream: 6 },
            ]
        }
        // multiply-accumulate
        2 => {
            let a = rng.range_u32(0, 6);
            vec![
                load(a, 0),
                load((a + 2) % 6, 0),
                KernelOp::Fp {
                    kind: FpKind::Sub,
                    a: Src::Queue,
                    b: Src::Queue,
                },
                KernelOp::Fp {
                    kind: FpKind::Add,
                    a: Src::Acc,
                    b: Src::Queue,
                },
                KernelOp::PopAcc,
            ]
        }
        // constant consumption
        3 => vec![
            KernelOp::LoadConst {
                idx: rng.below(4) as u16,
            },
            KernelOp::PopAcc,
        ],
        // store the accumulator
        4 => vec![KernelOp::StoreAcc {
            stream: rng.range_u32(0, 7),
        }],
        // load an element, overwrite it, then copy the loaded word to the
        // next stream: a pipelined memory accepts the overwrite before the
        // load returns, and the copy must still hold the old word
        5 => {
            let s = rng.range_u32(0, 7);
            vec![
                load(s, 0),
                KernelOp::StoreAcc { stream: s },
                KernelOp::Store {
                    stream: (s + 1) % 7,
                },
            ]
        }
        _ => vec![KernelOp::Pad],
    }
}

/// `program` with every stream element and constant a `trips`-trip
/// kernel can read set to a distinct nonzero float, so that wrong values
/// show in memory instead of every word staying zero.
fn with_stream_data(program: Program, trips: u32) -> Program {
    let mut data = program.data().to_vec();
    // Streams 0..=6, then the constant area at stream slot 7.
    for s in 0..8 {
        for i in 0..trips + 4 {
            let addr = DATA_BASE + s * STREAM_STRIDE as u32 + 4 * i;
            data.push((addr, ((s * 100 + i + 1) as f32).to_bits()));
        }
    }
    Program::from_raw(
        program.parcels().to_vec(),
        program.base(),
        program.entry(),
        program.format(),
        program.symbols().clone(),
        data,
    )
}

/// Over random kernels, random program bases, every engine and random
/// memory timings, the addresses a trace sink sees issue are the
/// interpreter's executed addresses, in order, and the counts agree.
#[test]
fn random_kernels_agree_between_interpreter_and_processor() {
    let mut rng = Rng::new(0x1508);
    for trial in 0..16 {
        let groups = rng.range_u32(1, 8);
        let ops: Vec<KernelOp> = (0..groups).flat_map(|_| kernel_group(&mut rng)).collect();
        let trips = rng.range_u32(2, 30);
        let pads = rng.range_u32(3, 8);
        let cost: u32 = ops.iter().map(|o| o.cost()).sum();
        let kernel = Kernel {
            index: 99,
            name: "fuzz",
            ops,
            target_instructions: cost + 3 + pads,
        };
        let program = kernel_program(&kernel, trips, InstrFormat::Fixed32)
            .expect("balanced groups satisfy the discipline");
        let program = at_base(&with_stream_data(program, trips), random_base(&mut rng));
        let reference = interpret(&program, 1_000_000).expect("interprets");
        let expected = executed(&program);
        for fetch in every_engine(&mut rng) {
            let cfg = SimConfig {
                fetch,
                mem: MemConfig {
                    access_cycles: rng.range_u32(1, 9),
                    pipelined: rng.bool(),
                    in_bus_bytes: if rng.bool() { 8 } else { 4 },
                    ..MemConfig::default()
                },
                max_cycles: 50_000_000,
            };
            let (addrs, stats) = issued(&program, &cfg);
            assert_eq!(stats.instructions_issued, reference.instructions);
            assert_eq!(stats.fpu_ops, reference.fpu_ops);
            assert_eq!(stats.loads, reference.loads);
            assert!(
                addrs == expected,
                "trial {trial}: issue order under {fetch} at base {:#x}",
                program.base()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Random straight-line ALU programs.
// ---------------------------------------------------------------------

fn branchless_instruction(rng: &mut Rng) -> Instruction {
    match rng.below(6) {
        0 => Instruction::Nop,
        1 => Instruction::Xchg,
        2 => Instruction::Alu {
            op: rng.alu_op(),
            rd: Reg::new(rng.below(7) as u8),
            rs1: Reg::new(rng.below(7) as u8),
            rs2: Reg::new(rng.below(7) as u8),
        },
        3 => Instruction::AluImm {
            op: rng.alu_op(),
            rd: Reg::new(rng.below(7) as u8),
            rs1: Reg::new(rng.below(7) as u8),
            imm: rng.i16(),
        },
        4 => Instruction::Lim {
            rd: Reg::new(rng.below(7) as u8),
            imm: rng.i16(),
        },
        _ => Instruction::Lui {
            rd: Reg::new(rng.below(7) as u8),
            imm: rng.u16(),
        },
    }
}

// ---------------------------------------------------------------------
// Every engine against the interpreter.
// ---------------------------------------------------------------------

/// The addresses `config` issues on `program`, in order, with the run's
/// statistics. With a trace sink attached, the run ticks every cycle.
fn issued(program: &Program, config: &SimConfig) -> (Vec<u32>, SimStats) {
    let sink = Rc::new(RefCell::new(IssueTrace::default()));
    let proc = Processor::new(program, config).expect("valid");
    let mut proc = proc.with_trace(Rc::clone(&sink));
    proc.run()
        .unwrap_or_else(|e| panic!("{}: {e}", config.fetch));
    let addrs = std::mem::take(&mut sink.borrow_mut().0);
    (addrs, proc.into_stats())
}

/// The addresses the interpreter executes on `program`, in order.
fn executed(program: &Program) -> Vec<u32> {
    let mut interp = Interpreter::new(&Arc::new(DecodedProgram::new(program.clone())));
    std::iter::from_fn(|| interp.step().expect("interprets"))
        .map(|step| step.addr)
        .collect()
}

/// `program` laid out from byte address `base` instead of 0, every `lbr`
/// target moved with the code.
fn at_base(program: &Program, base: u32) -> Program {
    let mut b = ProgramBuilder::with_base(program.format(), base);
    b.extend(program.instructions().map(|(_, instr)| match instr {
        Instruction::Lbr { br, target_parcel } => Instruction::Lbr {
            br,
            target_parcel: target_parcel + (base / 2) as u16,
        },
        instr => instr,
    }));
    let moved = b.build().expect("builds");
    Program::from_raw(
        moved.parcels().to_vec(),
        base,
        base,
        moved.format(),
        moved.symbols().clone(),
        program.data().to_vec(),
    )
}

/// A random parcel-aligned program base: 0, 2, …, 30. A Fixed32
/// program at a base of 2 mod 4 has instructions that straddle cache
/// lines and sub-blocks.
fn random_base(rng: &mut Rng) -> u32 {
    2 * rng.range_u32(0, 16)
}

/// The processor issues from the predecoded table at the image parcel
/// index the fetch engine names. An engine that names the wrong index
/// executes the wrong instructions, so running every engine over
/// randomized programs, program bases and memory timings, straight-line
/// and branchy, must issue exactly the instructions the timing-free
/// interpreter executes, in its order.
#[test]
fn every_engine_matches_the_interpreter_on_random_programs() {
    let mut rng = Rng::new(0x150a);
    for trial in 0..24 {
        // Alternate between straight-line ALU programs and branchy
        // load/store/FPU kernels so both control-flow shapes are covered.
        let program = if trial % 2 == 0 {
            let n = rng.range_u32(1, 120) as usize;
            let mut b = ProgramBuilder::new(InstrFormat::Fixed32);
            b.extend((0..n).map(|_| branchless_instruction(&mut rng)));
            b.push(Instruction::Halt);
            b.build().expect("builds")
        } else {
            let groups = rng.range_u32(1, 8);
            let ops: Vec<KernelOp> = (0..groups).flat_map(|_| kernel_group(&mut rng)).collect();
            let cost: u32 = ops.iter().map(|o| o.cost()).sum();
            let pads = rng.range_u32(3, 8);
            let trips = rng.range_u32(2, 8);
            let kernel = Kernel {
                index: 98,
                name: "parity",
                ops,
                target_instructions: cost + 3 + pads,
            };
            let program = kernel_program(&kernel, trips, InstrFormat::Fixed32)
                .expect("balanced groups satisfy the discipline");
            with_stream_data(program, trips)
        };
        let program = at_base(&program, random_base(&mut rng));
        let reference = interpret(&program, 1_000_000).expect("interprets");
        let expected = executed(&program);
        let access = rng.range_u32(1, 7);
        for fetch in every_engine(&mut rng) {
            let cfg = SimConfig {
                fetch,
                mem: MemConfig {
                    access_cycles: access,
                    ..MemConfig::default()
                },
                max_cycles: 50_000_000,
            };
            let (addrs, stats) = issued(&program, &cfg);
            assert_eq!(
                stats.instructions_issued, reference.instructions,
                "trial {trial}: instruction count under {fetch}"
            );
            assert!(
                addrs == expected,
                "trial {trial}: issue order under {fetch} at base {:#x}",
                program.base()
            );
        }
    }
}

// ---------------------------------------------------------------------
// `Processor::run` and its skips: bit-identical to ticking cycle by cycle.
// ---------------------------------------------------------------------

use std::sync::Arc;

use pipe_repro::core::{Region, RegionProfiler, SimError};
use pipe_repro::icache::{
    BufferConfig, ConvPrefetch, ConventionalConfig, PrefetchPolicy, TibConfig,
};
use pipe_repro::isa::DecodedProgram;

/// Every fetch engine, at a random cache size and prefetch variant.
fn every_engine(rng: &mut Rng) -> [FetchStrategy; 5] {
    let cache_bytes = 1u32 << rng.range_u32(5, 10);
    let prefetch = match rng.below(3) {
        0 => ConvPrefetch::Always,
        1 => ConvPrefetch::OnMissOnly,
        _ => ConvPrefetch::Tagged,
    };
    let mut pipe = PipeFetchConfig::table2(cache_bytes, 16, 16, 16);
    if rng.bool() {
        pipe.policy = PrefetchPolicy::GuaranteedOnly;
    }
    [
        FetchStrategy::Perfect,
        FetchStrategy::Conventional(ConventionalConfig {
            cache: CacheConfig::new(cache_bytes, 16),
            prefetch,
        }),
        FetchStrategy::Pipe(pipe),
        FetchStrategy::Tib(TibConfig::with_budget(cache_bytes, 16)),
        FetchStrategy::Buffers(BufferConfig {
            buffers: rng.range_u32(1, 5),
            cache: rng.bool().then(|| CacheConfig::new(cache_bytes, 16)),
        }),
    ]
}

/// Runs `config` on `decoded` through `Processor::run` and through the
/// reference cycle loop, `Processor::step` until done or out of budget
/// with no skipping of any kind, and asserts that the two agree on the
/// outcome (a timeout with its cycle) and the statistics. `run` on the
/// ticked processor issues no cycle: it finalizes the statistics, and at
/// the budget times out at once. With a `course`, a run that reads it
/// (and jumps past whole runs of it) must agree too, and apply as many
/// iterations as the run that interprets. Returns the outcome with what
/// the loop skip applied.
fn run_matches_ticking(
    decoded: &Arc<DecodedProgram>,
    course: Option<&Arc<Course>>,
    config: &SimConfig,
    context: &str,
) -> Result<RepeatCounts, SimError> {
    let mut ticked = Processor::from_decoded(decoded, config).expect("valid");
    while !ticked.is_done() && ticked.cycle() < config.max_cycles {
        ticked.step().expect("step");
    }
    let expected = ticked.run();
    let mut proc = Processor::from_decoded(decoded, config).expect("valid");
    let result = proc.run_counting_repeats();
    assert_eq!(result.clone().map(drop), expected, "{context}");
    assert_eq!(proc.stats(), ticked.stats(), "{context}");
    if let Some(course) = course {
        let mut shared = Processor::from_course(course, config).expect("valid");
        assert_eq!(shared.run_counting_repeats(), result, "{context}, shared");
        assert_eq!(shared.stats(), ticked.stats(), "{context}, shared");
    }
    result
}

/// `Processor::run` applies repeating loop iterations and stops a frozen
/// machine at the budget; ticking `step` does neither. Over random
/// programs at random bases, all five engines, access 1–8, bus 4/8,
/// pipelined on/off and small cycle budgets, the two must agree bit for
/// bit, and so must a run over the program's course. The kernels run 2–7
/// trips, so the skip often first applies the loop's last taken trip,
/// right before a course run of another block of the same length.
#[test]
fn run_matches_ticking_on_random_programs() {
    let mut rng = Rng::new(0x150b);
    let mut timeouts = 0;
    for trial in 0..24 {
        let program = if trial % 2 == 0 {
            let n = rng.range_u32(1, 120) as usize;
            let mut b = ProgramBuilder::new(InstrFormat::Fixed32);
            b.extend((0..n).map(|_| branchless_instruction(&mut rng)));
            b.push(Instruction::Halt);
            b.build().expect("builds")
        } else {
            let groups = rng.range_u32(1, 8);
            let ops: Vec<KernelOp> = (0..groups).flat_map(|_| kernel_group(&mut rng)).collect();
            let cost: u32 = ops.iter().map(|o| o.cost()).sum();
            let pads = rng.range_u32(3, 8);
            let kernel = Kernel {
                index: 97,
                name: "ff-parity",
                ops,
                target_instructions: cost + 3 + pads,
            };
            kernel_program(&kernel, rng.range_u32(2, 8), InstrFormat::Fixed32)
                .expect("balanced groups satisfy the discipline")
        };
        let decoded = Arc::new(DecodedProgram::new(at_base(
            &program,
            random_base(&mut rng),
        )));
        let course = Course::record(&decoded);
        for fetch in every_engine(&mut rng) {
            for access_cycles in 1..=8 {
                let config = SimConfig {
                    fetch,
                    mem: MemConfig {
                        access_cycles,
                        pipelined: rng.bool(),
                        in_bus_bytes: if rng.bool() { 8 } else { 4 },
                        ..MemConfig::default()
                    },
                    max_cycles: if rng.below(4) == 0 {
                        u64::from(rng.range_u32(20, 400))
                    } else {
                        50_000_000
                    },
                };
                let context = format!("trial {trial}: {fetch} at {:?}", config.mem);
                let result = run_matches_ticking(&decoded, Some(&course), &config, &context);
                timeouts += usize::from(matches!(result, Err(SimError::Timeout { .. })));
            }
        }
    }
    assert!(timeouts > 0, "the small budgets must exercise timeouts");
}

/// `Processor::run` applies repeating loop iterations in one step;
/// ticking `step` never does. Over random kernels whose loops run long
/// enough to repeat, random program bases, every engine, random access
/// times, bus 4/8, pipelined on/off and some small cycle budgets, the two
/// must agree on the statistics — or on the error and its cycle. So must
/// a run over the program's shared course, which jumps past the rest of
/// a course run once it has applied one repeat, also at a budget that
/// ends inside the loop. Every other kernel has a second PBR inside its
/// loop body, so that an iteration spans two blocks of the course.
#[test]
fn loop_skip_matches_ticking_on_random_kernels() {
    let mut rng = Rng::new(0x1519);
    let (mut timeouts, mut applied) = (0, 0);
    for trial in 0..10 {
        let groups = rng.range_u32(1, 6);
        let ops: Vec<KernelOp> = (0..groups).flat_map(|_| kernel_group(&mut rng)).collect();
        let cost: u32 = ops.iter().map(|o| o.cost()).sum();
        let pads = rng.range_u32(3, 8);
        let trips = rng.range_u32(20, 60);
        let kernel = Kernel {
            index: 96,
            name: "repeat-parity",
            ops,
            target_instructions: cost + 3 + pads,
        };
        let mut program = kernel_program(&kernel, trips, InstrFormat::Fixed32)
            .expect("balanced groups satisfy the discipline");
        if trial % 2 == 1 {
            program = with_inner_pbr(&program, &mut rng);
        }
        let program = at_base(&with_stream_data(program, trips), random_base(&mut rng));
        let decoded = Arc::new(DecodedProgram::new(program));
        let course = Course::record(&decoded);
        for fetch in every_engine(&mut rng) {
            let mem = MemConfig {
                access_cycles: rng.range_u32(1, 9),
                pipelined: rng.bool(),
                in_bus_bytes: if rng.bool() { 8 } else { 4 },
                ..MemConfig::default()
            };
            let mut whole = Processor::from_decoded(
                &decoded,
                &SimConfig {
                    fetch,
                    mem,
                    ..SimConfig::default()
                },
            )
            .expect("valid");
            whole.run().expect("runs");
            let cycles = whole.stats().cycles;
            for _ in 0..3 {
                let config = SimConfig {
                    fetch,
                    mem: MemConfig {
                        access_cycles: rng.range_u32(1, 9),
                        pipelined: rng.bool(),
                        in_bus_bytes: if rng.bool() { 8 } else { 4 },
                        ..MemConfig::default()
                    },
                    max_cycles: if rng.below(4) == 0 {
                        u64::from(rng.range_u32(100, 3000))
                    } else {
                        50_000_000
                    },
                };
                let context = format!("trial {trial}: {fetch} at {:?}", config.mem);
                let result = run_matches_ticking(&decoded, Some(&course), &config, &context);
                timeouts += usize::from(matches!(result, Err(SimError::Timeout { .. })));
                applied += result.map_or(0, |counts| counts.iterations);
            }
            // A budget that runs out a third to nine tenths of the way
            // through, inside the loop.
            let config = SimConfig {
                fetch,
                mem,
                max_cycles: cycles / 3 + rng.below(cycles * 9 / 10 - cycles / 3),
            };
            let context = format!(
                "trial {trial}: {fetch} at {mem:?} to cycle {}",
                config.max_cycles
            );
            let result = run_matches_ticking(&decoded, Some(&course), &config, &context);
            assert_eq!(
                result,
                Err(SimError::Timeout {
                    cycles: config.max_cycles
                }),
                "{context}"
            );
        }
    }
    assert!(timeouts > 0, "the small budgets must exercise timeouts");
    assert!(applied > 0, "the skip never fired");
}

/// `program`, a kernel at base 0, with a second PBR in its loop body
/// before the loop's own, at a random place: always taken to the next
/// instruction, or never taken. Each trip is then two blocks of the
/// program's course.
fn with_inner_pbr(program: &Program, rng: &mut Rng) -> Program {
    let instrs: Vec<(u32, Instruction)> = program.instructions().collect();
    let top = instrs.iter().find_map(|&(_, i)| match i {
        Instruction::Lbr { target_parcel, .. } => Some(u32::from(target_parcel) * 2),
        _ => None,
    });
    let top = top.expect("the kernel loads its loop's target");
    let first = instrs
        .iter()
        .position(|&(a, _)| a == top)
        .expect("the loop's top");
    let pbr = instrs
        .iter()
        .position(|(_, i)| i.is_branch())
        .expect("the loop's PBR");
    let inner = rng.range_u32(first as u32 + 1, pbr as u32 + 1) as usize;
    let cond = if rng.bool() {
        Cond::Always
    } else {
        Cond::Never
    };
    let b1 = BranchReg::new(1);
    let mut b = ProgramBuilder::new(program.format());
    for (k, &(_, instr)) in instrs.iter().enumerate() {
        if k == inner {
            b.lbr_label(b1, "inner");
            b.push(Instruction::Pbr {
                cond,
                br: b1,
                rs: Reg::new(0),
                delay: 0,
            });
            b.label("inner");
        }
        b.push(instr);
    }
    let built = b.build().expect("builds");
    Program::from_raw(
        built.parcels().to_vec(),
        built.base(),
        built.entry(),
        built.format(),
        built.symbols().clone(),
        program.data().to_vec(),
    )
}

/// Profiles `config` on `decoded` over `regions` through
/// `Processor::run`, whose loop skip hands the profiler whole iterations,
/// and through ticking `step`, which never skips, and asserts that the
/// two agree on every region's cycles and instructions, the cycles
/// outside all regions and the statistics. Returns how many iterations
/// `run` applied.
fn profile_matches_ticking(
    decoded: &Arc<DecodedProgram>,
    config: &SimConfig,
    regions: &[Region],
    context: &str,
) -> u64 {
    let profile = |skip: bool| {
        let profiler = Rc::new(RefCell::new(RegionProfiler::new(regions.to_vec())));
        let proc = Processor::from_decoded(decoded, config).expect("valid");
        let mut proc = proc.with_trace(Rc::clone(&profiler));
        let applied = if skip {
            proc.run_counting_repeats().expect("runs").iterations
        } else {
            while !proc.is_done() {
                proc.step().expect("step");
            }
            proc.run().expect("finalizes");
            0
        };
        let p = profiler.borrow();
        let per_region: Vec<(u64, u64)> = p.results().map(|(_, c, i)| (c, i)).collect();
        (per_region, p.other_cycles(), proc.into_stats(), applied)
    };
    let (regions_run, other_run, stats_run, applied) = profile(true);
    let (regions_ticked, other_ticked, stats_ticked, _) = profile(false);
    assert_eq!(regions_run, regions_ticked, "{context}");
    assert_eq!(other_run, other_ticked, "{context}");
    assert_eq!(stats_run, stats_ticked, "{context}");
    applied
}

/// A region named `name` over `start..end`.
fn region(name: &str, start: u32, end: u32) -> Region {
    Region {
        name: name.into(),
        start,
        end,
    }
}

/// A `RegionProfiler` takes whole loop iterations from `Processor::run`
/// and must charge them exactly as ticking does. Over random kernels at
/// random bases, every engine, random access times, bus 4/8 and
/// pipelined on/off, three region layouts: the loop body in one region
/// (the profiler takes its iterations), the body cut in two at a random
/// instruction (it declines them: the PBR's region does not hold the
/// whole iteration) and the PBR outside every region (it declines them).
#[test]
fn region_profile_with_the_loop_skip_matches_ticking_on_random_kernels() {
    let mut rng = Rng::new(0x1540);
    let (mut taken, mut declined) = (0, 0);
    for trial in 0..8 {
        let groups = rng.range_u32(1, 6);
        let ops: Vec<KernelOp> = (0..groups).flat_map(|_| kernel_group(&mut rng)).collect();
        let cost: u32 = ops.iter().map(|o| o.cost()).sum();
        let pads = rng.range_u32(3, 8);
        let trips = rng.range_u32(20, 60);
        let kernel = Kernel {
            index: 93,
            name: "profile-parity",
            ops,
            target_instructions: cost + 3 + pads,
        };
        let program = kernel_program(&kernel, trips, InstrFormat::Fixed32)
            .expect("balanced groups satisfy the discipline");
        let program = at_base(&with_stream_data(program, trips), random_base(&mut rng));
        // The loop body runs from the `lbr` target to the `halt` after
        // the PBR's delay slots.
        let addrs: Vec<(u32, Instruction)> = program.instructions().collect();
        let address_of = |pick: fn(&Instruction) -> bool| {
            let found = addrs.iter().find(|(_, i)| pick(i));
            found.expect("the kernel has it").0
        };
        let top = addrs.iter().find_map(|&(_, i)| match i {
            Instruction::Lbr { target_parcel, .. } => Some(u32::from(target_parcel) * 2),
            _ => None,
        });
        let top = top.expect("the kernel loads its loop's target");
        let pbr = address_of(|i| matches!(i, Instruction::Pbr { .. }));
        let halt = address_of(|i| *i == Instruction::Halt);
        let body: Vec<u32> = addrs
            .iter()
            .map(|&(a, _)| a)
            .filter(|a| (top..halt).contains(a))
            .collect();
        let cut = body[rng.range_u32(1, body.len() as u32) as usize];
        // The whole body first: the other two layouts are offered
        // iterations only at timings where it takes some.
        let whole_body = vec![
            region("prologue", program.base(), top),
            region("body", top, halt),
        ];
        let cut_in_two = vec![region("head", top, cut), region("tail", cut, halt)];
        let pbr_outside = vec![
            region("prologue", program.base(), top),
            region("before PBR", top, pbr),
        ];
        let decoded = Arc::new(DecodedProgram::new(program));
        for fetch in every_engine(&mut rng) {
            let config = SimConfig {
                fetch,
                mem: MemConfig {
                    access_cycles: rng.range_u32(1, 9),
                    pipelined: rng.bool(),
                    in_bus_bytes: if rng.bool() { 8 } else { 4 },
                    ..MemConfig::default()
                },
                ..SimConfig::default()
            };
            let context = |regions: &[Region]| {
                format!(
                    "trial {trial}: {fetch} at {:?} over {regions:?}",
                    config.mem
                )
            };
            let applied =
                profile_matches_ticking(&decoded, &config, &whole_body, &context(&whole_body));
            taken += applied;
            for regions in [&cut_in_two, &pbr_outside] {
                let context = context(regions);
                let declining = profile_matches_ticking(&decoded, &config, regions, &context);
                assert_eq!(declining, 0, "{context}: a declined iteration was applied");
                declined += usize::from(applied > 0);
            }
        }
    }
    assert!(taken > 0, "the profiler never took an iteration");
    assert!(
        declined > 0,
        "the profiler was never offered one to decline"
    );
}

/// Trace replay applies repeating loop iterations in one step; a
/// step-by-step replay never does. Random kernels at random bases,
/// recorded once, replay through every engine at random access times, bus widths and
/// pipelining, half of the time with random steps given extra waits (so
/// look-ahead iterations diverge), and the two replays must agree on
/// every statistic, or on the error.
#[test]
fn loop_skip_replay_matches_ticked_replay_on_random_kernels() {
    use pipe_repro::icache::ReplayHarness;

    let mut rng = Rng::new(0x1520);
    let mut applied = 0;
    for trial in 0..10 {
        let groups = rng.range_u32(1, 6);
        let ops: Vec<KernelOp> = (0..groups).flat_map(|_| kernel_group(&mut rng)).collect();
        let cost: u32 = ops.iter().map(|o| o.cost()).sum();
        let pads = rng.range_u32(3, 8);
        let trips = rng.range_u32(20, 60);
        let kernel = Kernel {
            index: 95,
            name: "replay-parity",
            ops,
            target_instructions: cost + 3 + pads,
        };
        let program = kernel_program(&kernel, trips, InstrFormat::Fixed32)
            .expect("balanced groups satisfy the discipline");
        let program = at_base(&with_stream_data(program, trips), random_base(&mut rng));
        let steps = common::steps(&common::record(&program, &SimConfig::default()).0);
        for fetch in every_engine(&mut rng) {
            for _ in 0..3 {
                let mem = MemConfig {
                    access_cycles: rng.range_u32(1, 9),
                    pipelined: rng.bool(),
                    in_bus_bytes: if rng.bool() { 8 } else { 4 },
                    ..MemConfig::default()
                };
                let mut schedule = steps.clone();
                if rng.bool() {
                    for step in &mut schedule {
                        if rng.below(40) == 0 {
                            step.waits += rng.range_u32(1, 4);
                        }
                    }
                }
                let engine = fetch.build(&program).expect("engine builds");
                let mut harness = ReplayHarness::new(engine, MemorySystem::new(mem));
                let skipped = harness.run(schedule.clone());
                applied += harness.repeats().iterations;
                let ticked = common::replay_ticked(schedule, &program, &fetch, &mem);
                assert_eq!(skipped, ticked, "trial {trial}: {fetch} at {mem:?}");
            }
        }
    }
    assert!(applied > 0, "the skip never fired");
}

// ---------------------------------------------------------------------
// The course: the interpreter's steps, recorded once and shared.
// ---------------------------------------------------------------------

use pipe_repro::core::{Course, Cursor, DataOp, Step, TraceEvent, TraceSink};
use pipe_repro::experiments::figures::figure_mem;
use pipe_repro::experiments::runner::point_config;
use pipe_repro::mem::is_fpu_address;
use pipe_repro::workloads::LivermoreSuite;

/// A random straight-line ALU program, or a random kernel of `trips`
/// trips over stream data, at a random even base.
fn random_program(rng: &mut Rng, kernel: bool, trips: u32) -> Program {
    let program = if kernel {
        let groups = rng.range_u32(1, 6);
        let ops: Vec<KernelOp> = (0..groups).flat_map(|_| kernel_group(rng)).collect();
        let cost: u32 = ops.iter().map(|o| o.cost()).sum();
        let pads = rng.range_u32(3, 8);
        let kernel = Kernel {
            index: 94,
            name: "course-parity",
            ops,
            target_instructions: cost + 3 + pads,
        };
        let program = kernel_program(&kernel, trips, InstrFormat::Fixed32)
            .expect("balanced groups satisfy the discipline");
        with_stream_data(program, trips)
    } else {
        let n = rng.range_u32(1, 120) as usize;
        let mut b = ProgramBuilder::new(InstrFormat::Fixed32);
        b.extend((0..n).map(|_| branchless_instruction(rng)));
        b.push(Instruction::Halt);
        b.build().expect("builds")
    };
    at_base(&program, random_base(rng))
}

/// A cursor over a recorded course yields exactly the interpreter's steps
/// with the data addresses outside the FPU window and the store values
/// erased, on random programs and random kernels at random even bases
/// 0–30.
#[test]
fn a_course_yields_the_interpreters_steps() {
    let mut rng = Rng::new(0x1530);
    let mut fpu_addresses = 0;
    for trial in 0..24 {
        let trips = rng.range_u32(2, 40);
        let program = random_program(&mut rng, trial % 2 == 1, trips);
        let decoded = Arc::new(DecodedProgram::new(program));
        let mut interp = Interpreter::new(&decoded);
        let steps: Vec<Step> = std::iter::from_fn(|| interp.step().expect("interprets")).collect();
        let expected: Vec<Step> = steps.iter().copied().map(Step::timed).collect();
        for (step, timed) in steps.iter().zip(&expected) {
            match (step.data, timed.data) {
                (Some(DataOp::Load { addr }), Some(DataOp::Load { addr: kept }))
                | (Some(DataOp::StoreAddr { addr }), Some(DataOp::StoreAddr { addr: kept })) => {
                    let fpu = is_fpu_address(addr);
                    fpu_addresses += usize::from(fpu);
                    assert_eq!(kept, if fpu { addr } else { 0 });
                }
                (Some(DataOp::StoreData { .. }), Some(DataOp::StoreData { value })) => {
                    assert_eq!(value, 0)
                }
                (data, kept) => assert_eq!(data, kept),
            }
        }
        let read: Vec<Step> = Cursor::new(Course::record(&decoded)).collect();
        assert!(read == expected, "trial {trial}");
    }
    assert!(fpu_addresses > 0, "the kernels must use the FPU");
}

/// One course recorded up front and shared by every engine, at random
/// memory timings and some small cycle budgets, gives each run the
/// outcome, the statistics and the applied loop iterations of a run that
/// interprets the program itself.
#[test]
fn a_shared_course_times_every_engine_as_a_private_one() {
    let mut rng = Rng::new(0x1531);
    for trial in 0..12 {
        let trips = rng.range_u32(20, 60);
        let program = random_program(&mut rng, trial % 2 == 1, trips);
        let decoded = Arc::new(DecodedProgram::new(program));
        let course = Course::record(&decoded);
        for fetch in every_engine(&mut rng) {
            let config = SimConfig {
                fetch,
                mem: MemConfig {
                    access_cycles: rng.range_u32(1, 9),
                    pipelined: rng.bool(),
                    in_bus_bytes: if rng.bool() { 8 } else { 4 },
                    ..MemConfig::default()
                },
                max_cycles: if rng.below(4) == 0 {
                    u64::from(rng.range_u32(100, 3000))
                } else {
                    50_000_000
                },
            };
            let mut shared = Processor::from_course(&course, &config).expect("valid");
            let mut private = Processor::from_decoded(&decoded, &config).expect("valid");
            let context = format!("trial {trial}: {fetch} at {:?}", config.mem);
            assert_eq!(
                shared.run_counting_repeats(),
                private.run_counting_repeats(),
                "{context}"
            );
            assert_eq!(shared.stats(), private.stats(), "{context}");
        }
    }
}

/// A trace sink that keeps the cycle `halt` issued on.
#[derive(Debug, Default)]
struct HaltCycle(Option<u64>);

impl TraceSink for HaltCycle {
    fn event(&mut self, event: &TraceEvent) {
        if let TraceEvent::Halted { cycle } = event {
            self.0 = Some(*cycle);
        }
    }
}

/// Every cycle up to the one `halt` issues on either issues or stalls, so
/// the cycles counted as neither are the drain after `halt`: on the
/// Livermore benchmark (trips divided by 10), every engine and PIPE 32-32
/// at 64 B, at Figure 4a and 5b timing, `cycles − instructions − stalls`
/// equals the cycles after the `Halted` event, with the loop skip on (the
/// statistics) and off (the traced run).
#[test]
fn cycles_neither_issued_nor_stalled_are_the_post_halt_drain() {
    let suite = LivermoreSuite::build_scaled(InstrFormat::Fixed32, 10).expect("builds");
    let mut rng = Rng::new(0x1532);
    let mut drained = 0;
    for id in ["4a", "5b"] {
        let (mem, _) = figure_mem(id);
        let pipe_32_32 = FetchStrategy::Pipe(PipeFetchConfig::table2(64, 32, 32, 32));
        for fetch in every_engine(&mut rng).into_iter().chain([pipe_32_32]) {
            let config = point_config(fetch, &mem);
            let stats = pipe_repro::core::run_program(suite.program(), &config).expect("runs");
            let halt = Rc::new(RefCell::new(HaltCycle::default()));
            let mut traced = Processor::new(suite.program(), &config)
                .expect("valid")
                .with_trace(Rc::clone(&halt));
            traced.run().expect("runs");
            assert_eq!(traced.stats(), &stats, "fig{id}: {fetch}");
            let halted_on = halt.borrow().0.expect("halt issued");
            let gap = stats.cycles - stats.instructions_issued - stats.stalls.total();
            assert_eq!(gap, stats.cycles - (halted_on + 1), "fig{id}: {fetch}");
            println!("fig{id}: {fetch}: {gap} cycles after halt");
            drained += gap;
        }
    }
    assert!(drained > 0, "some run must drain after halt");
}
