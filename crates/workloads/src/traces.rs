//! Synthetic instruction-address traces for trace-driven replay.
//!
//! [`loop_nest`] produces a fetch-address *sequence* (not a program): the
//! raw stimulus for `pipe-trace`'s address-trace replay path, which backs
//! it with a synthetic `nop` image and models every discontinuity as a
//! taken branch.
//!
//! All addresses are 4-byte aligned (the fixed-32 instruction granule)
//! and generation is deterministic: the same parameters always yield the
//! same trace.

/// Instruction granule: fixed-32 instructions are 4 bytes.
const STEP: u32 = 4;

/// A nest of `depth` counted loops, innermost first: each level runs
/// `body` sequential instructions and `trips` iterations per entry of
/// its enclosing level. Models the paper's own workload shape (nested
/// numeric kernels) with controllable depth — high spatial locality,
/// regular backward branches.
///
/// `base` is the first instruction address. The trace length is
/// `body * trips^depth + O(trips^depth)`; keep `trips.pow(depth)`
/// modest.
pub fn loop_nest(base: u32, depth: u32, body: u32, trips: u32) -> Vec<u32> {
    let depth = depth.max(1);
    let body = body.max(1);
    let trips = trips.max(1);
    let mut addrs = Vec::new();
    // Each nesting level occupies its own code range: level 0 (the
    // innermost body) at `base`, each outer level's loop-control code
    // after it.
    let level_bytes = body * STEP;
    emit_level(&mut addrs, base, depth, level_bytes, trips);
    addrs
}

fn emit_level(addrs: &mut Vec<u32>, base: u32, level: u32, level_bytes: u32, trips: u32) {
    let my_base = base + (level - 1) * level_bytes;
    for _ in 0..trips {
        if level == 1 {
            for i in 0..level_bytes / STEP {
                addrs.push(base + i * STEP);
            }
        } else {
            emit_level(addrs, base, level - 1, level_bytes, trips);
        }
        // The level's own loop-control instruction (test + branch back).
        addrs.push(my_base + level_bytes - STEP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aligned(addrs: &[u32]) -> bool {
        addrs.iter().all(|a| a % STEP == 0)
    }

    #[test]
    fn loop_nest_shape() {
        let t = loop_nest(0x100, 2, 4, 3);
        // Inner body of 4 instrs runs 3*3 times, plus 3 inner loop-control
        // per outer trip and 3 outer loop-control.
        assert_eq!(t.len(), 4 * 9 + 3 * 3 + 3);
        assert!(aligned(&t));
        assert_eq!(t[0], 0x100);
        // Deterministic.
        assert_eq!(t, loop_nest(0x100, 2, 4, 3));
    }
}
