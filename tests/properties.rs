//! Property-style tests over core data structures and cross-engine
//! architectural equivalence.
//!
//! Inputs are generated with a small deterministic PRNG (SplitMix64)
//! rather than an external property-testing crate, so the suite runs with
//! no registry dependencies and every failure is reproducible from the
//! fixed seeds below.

mod common;

use pipe_repro::core::{FetchStrategy, Processor, SimConfig};
use pipe_repro::icache::{CacheConfig, InstructionCache, PipeFetchConfig};
use pipe_repro::isa::{
    decode, encode, AluOp, BranchReg, Cond, InstrFormat, Instruction, ProgramBuilder, Reg,
};
use pipe_repro::mem::{MemConfig, MemRequest, MemorySystem, ReqClass};

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

#[test]
fn every_accepted_read_is_fully_delivered() {
    let mut rng = Rng::new(0x1507);
    for _ in 0..64 {
        let access = rng.range_u32(1, 7);
        let pipelined = rng.bool();
        let wide_bus = rng.bool();
        let sizes: Vec<u32> = (0..rng.range_u32(1, 20))
            .map(|_| rng.range_u32(1, 9))
            .collect();

        let mut mem = MemorySystem::new(MemConfig {
            access_cycles: access,
            pipelined,
            in_bus_bytes: if wide_bus { 8 } else { 4 },
            ..MemConfig::default()
        });
        let mut queue: Vec<(u64, u32)> = Vec::new();
        for (i, &parcels) in sizes.iter().enumerate() {
            let tag = mem.new_tag();
            queue.push((tag, parcels * 2));
            // Re-offer until accepted.
            let mut accepted = false;
            for _ in 0..200 {
                mem.offer(MemRequest::load(
                    ReqClass::IFetch,
                    (i as u32) * 64,
                    parcels * 2,
                    tag,
                ));
                let out = mem.tick();
                if out.accepted == Some(tag) {
                    accepted = true;
                }
                if let Some(b) = &out.beats {
                    if let Some(entry) = queue.iter_mut().find(|(t, _)| *t == b.tag) {
                        entry.1 = entry.1.saturating_sub(b.bytes);
                        if b.last {
                            assert_eq!(entry.1, 0, "last beat must complete the transfer");
                        }
                    }
                }
                if accepted {
                    break;
                }
            }
            assert!(accepted, "request {i} never accepted");
        }
        // Drain everything.
        for _ in 0..2000 {
            if mem.is_idle() {
                break;
            }
            let out = mem.tick();
            if let Some(b) = &out.beats {
                if let Some(entry) = queue.iter_mut().find(|(t, _)| *t == b.tag) {
                    entry.1 = entry.1.saturating_sub(b.bytes);
                }
            }
        }
        assert!(mem.is_idle(), "memory never drained");
        for (tag, remaining) in queue {
            assert_eq!(remaining, 0, "tag {tag} shorted");
        }
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

#[test]
fn random_kernels_agree_between_interpreter_and_processor() {
    let mut rng = Rng::new(0x1508);
    for _ in 0..24 {
        let groups = rng.range_u32(1, 8);
        let ops: Vec<KernelOp> = (0..groups).flat_map(|_| kernel_group(&mut rng)).collect();
        let trips = rng.range_u32(2, 8);
        let pads = rng.range_u32(3, 8);
        let access = rng.range_u32(1, 7);
        let cost: u32 = ops.iter().map(|o| o.cost()).sum();
        let kernel = Kernel {
            index: 99,
            name: "fuzz",
            ops,
            target_instructions: cost + 3 + pads,
        };
        let program = kernel_program(&kernel, trips, InstrFormat::Fixed32)
            .expect("balanced groups satisfy the discipline");
        let program = with_stream_data(program, trips);

        let reference = interpret(&program, 1_000_000).expect("interprets");
        for (fetch, pipelined) in [
            FetchStrategy::Pipe(PipeFetchConfig::table2(32, 16, 16, 16)),
            FetchStrategy::conventional(CacheConfig::new(32, 16)),
        ]
        .into_iter()
        .flat_map(|f| [(f, false), (f, true)])
        {
            let cfg = SimConfig {
                fetch,
                mem: MemConfig {
                    access_cycles: access,
                    pipelined,
                    ..MemConfig::default()
                },
                max_cycles: 50_000_000,
                ..SimConfig::default()
            };
            let mut proc = Processor::new(&program, &cfg).expect("valid");
            proc.run().expect("runs");
            let stats = proc.stats();
            assert_eq!(stats.instructions_issued, reference.instructions);
            assert_eq!(stats.fpu_ops, reference.fpu_ops);
            assert_eq!(stats.loads, reference.loads);
            assert!(proc.data() == &reference.memory, "memory diverged");
        }
    }
}

// ---------------------------------------------------------------------
// Cross-engine architectural equivalence on random ALU programs.
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

#[test]
fn engines_agree_on_random_alu_programs() {
    let mut rng = Rng::new(0x1509);
    for _ in 0..48 {
        let n = rng.range_u32(1, 120) as usize;
        let instrs: Vec<Instruction> = (0..n).map(|_| branchless_instruction(&mut rng)).collect();
        let access = rng.range_u32(1, 7);
        let mut b = ProgramBuilder::new(InstrFormat::Fixed32);
        b.extend(instrs.iter().copied());
        b.push(Instruction::Halt);
        let program = b.build().expect("builds");

        let mut results: Vec<Vec<u32>> = Vec::new();
        for fetch in [
            FetchStrategy::Perfect,
            FetchStrategy::conventional(CacheConfig::new(64, 16)),
            FetchStrategy::Pipe(PipeFetchConfig::table2(64, 16, 16, 16)),
        ] {
            let cfg = SimConfig {
                fetch,
                mem: MemConfig {
                    access_cycles: access,
                    ..MemConfig::default()
                },
                max_cycles: 10_000_000,
                ..SimConfig::default()
            };
            let mut proc = Processor::new(&program, &cfg).expect("valid");
            proc.run().expect("runs");
            let stats = proc.stats();
            assert_eq!(stats.instructions_issued, instrs.len() as u64 + 1);
            results.push((0..7).map(|i| proc.regs().read(Reg::new(i))).collect());
        }
        assert_eq!(&results[0], &results[1]);
        assert_eq!(&results[0], &results[2]);
    }
}

// ---------------------------------------------------------------------
// Every engine against the interpreter.
// ---------------------------------------------------------------------

/// The processor issues from the predecoded table at the image parcel
/// index the fetch engine names. An engine that names the wrong index
/// executes the wrong instructions, so running every engine over
/// randomized programs and memory timings, straight-line and branchy,
/// must end with the registers, data memory and instruction count of the
/// timing-free interpreter.
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
        let reference = interpret(&program, 1_000_000).expect("interprets");
        let access = rng.range_u32(1, 7);
        for fetch in every_engine(&mut rng) {
            let cfg = SimConfig {
                fetch,
                mem: MemConfig {
                    access_cycles: access,
                    ..MemConfig::default()
                },
                max_cycles: 50_000_000,
                ..SimConfig::default()
            };
            let mut proc = Processor::new(&program, &cfg).expect("valid");
            proc.run().unwrap_or_else(|e| panic!("{fetch}: {e}"));
            assert_eq!(
                proc.stats().instructions_issued,
                reference.instructions,
                "trial {trial}: instruction count under {fetch}"
            );
            for i in 0..7u8 {
                assert_eq!(
                    proc.regs().read(Reg::new(i)),
                    reference.regs[usize::from(i)],
                    "trial {trial}: r{i} under {fetch}"
                );
            }
            assert!(
                *proc.data() == reference.memory,
                "trial {trial}: data memory under {fetch}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// `Processor::run` and its skips: bit-identical to ticking cycle by cycle.
// ---------------------------------------------------------------------

use std::sync::Arc;

use pipe_repro::core::SimError;
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
/// outcome (a timeout with its cycle), statistics, registers and data
/// memory. `run` on the ticked processor issues no cycle: it finalizes the
/// statistics, and at the budget times out at once. Returns the outcome.
fn run_matches_ticking(
    decoded: &Arc<DecodedProgram>,
    config: &SimConfig,
    context: &str,
) -> Result<(), SimError> {
    let mut ticked = Processor::from_decoded(decoded, config).expect("valid");
    while !ticked.is_done() && ticked.cycle() < config.max_cycles {
        ticked.step().expect("step");
    }
    let expected = ticked.run();
    let mut proc = Processor::from_decoded(decoded, config).expect("valid");
    let result = proc.run();
    assert_eq!(result, expected, "{context}");
    assert_eq!(proc.stats(), ticked.stats(), "{context}");
    assert_eq!(proc.regs(), ticked.regs(), "{context}");
    assert!(proc.data() == ticked.data(), "{context}: memory diverged");
    result
}

/// `Processor::run` applies repeating loop iterations and stops a frozen
/// machine at the budget; ticking `step` does neither. Over random
/// programs, all five engines, access 1–8, bus 4/8, pipelined on/off and
/// small cycle budgets, the two must agree bit for bit.
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
        let decoded = Arc::new(DecodedProgram::new(program));
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
                    ..SimConfig::default()
                };
                let context = format!("trial {trial}: {fetch} at {:?}", config.mem);
                let result = run_matches_ticking(&decoded, &config, &context);
                timeouts += usize::from(matches!(result, Err(SimError::Timeout { .. })));
            }
        }
    }
    assert!(timeouts > 0, "the small budgets must exercise timeouts");
}

/// `Processor::run` applies repeating loop iterations in one step;
/// ticking `step` never does. Over random kernels whose loops run long
/// enough to repeat, every engine, random access times, bus 4/8,
/// pipelined on/off and some small cycle budgets, the two must agree on
/// statistics, registers and data memory — or on the error and its cycle.
#[test]
fn loop_skip_matches_ticking_on_random_kernels() {
    let mut rng = Rng::new(0x1519);
    let mut timeouts = 0;
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
        let program = kernel_program(&kernel, trips, InstrFormat::Fixed32)
            .expect("balanced groups satisfy the discipline");
        let decoded = Arc::new(DecodedProgram::new(with_stream_data(program, trips)));
        for fetch in every_engine(&mut rng) {
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
                    ..SimConfig::default()
                };
                let context = format!("trial {trial}: {fetch} at {:?}", config.mem);
                let result = run_matches_ticking(&decoded, &config, &context);
                timeouts += usize::from(matches!(result, Err(SimError::Timeout { .. })));
            }
        }
    }
    assert!(timeouts > 0, "the small budgets must exercise timeouts");
}

/// Trace replay applies repeating loop iterations in one step; a
/// step-by-step replay never does. Random kernels recorded once replay
/// through every engine at random access times, bus widths and
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
        let program = with_stream_data(program, trips);
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
