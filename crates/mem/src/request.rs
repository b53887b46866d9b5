//! Memory requests and response beats.

use std::fmt;

/// The class of a memory request, which determines its arbitration
/// priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqClass {
    /// A data load issued from the load address queue.
    DataLoad,
    /// A data store (address + value pair from the SAQ/SDQ heads). Stores
    /// to the FPU window trigger floating-point operations.
    DataStore,
    /// A demand instruction fetch — the processor is (or will shortly be)
    /// waiting on it.
    IFetch,
    /// A speculative instruction prefetch — lowest priority.
    IPrefetch,
}

impl ReqClass {
    /// All classes, for stats tables.
    pub const ALL: [ReqClass; 4] = [
        ReqClass::DataLoad,
        ReqClass::DataStore,
        ReqClass::IFetch,
        ReqClass::IPrefetch,
    ];

    /// Dense index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            ReqClass::DataLoad => 0,
            ReqClass::DataStore => 1,
            ReqClass::IFetch => 2,
            ReqClass::IPrefetch => 3,
        }
    }

    /// Returns `true` for the instruction-side classes.
    pub fn is_instruction(self) -> bool {
        matches!(self, ReqClass::IFetch | ReqClass::IPrefetch)
    }
}

impl fmt::Display for ReqClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReqClass::DataLoad => "data-load",
            ReqClass::DataStore => "data-store",
            ReqClass::IFetch => "ifetch",
            ReqClass::IPrefetch => "iprefetch",
        };
        f.write_str(s)
    }
}

/// A request offered to the memory system for one cycle.
///
/// Clients re-offer a request each cycle until [`crate::TickOutput`]
/// reports its class as accepted. Memory answers reads in acceptance
/// order, so a request needs no identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Arbitration class.
    pub class: ReqClass,
    /// Starting byte address.
    pub addr: u32,
    /// Transfer size in bytes (4 for data and conventional instruction
    /// fetches; a cache line for PIPE line fetches).
    pub bytes: u32,
}

impl MemRequest {
    /// Builds a (data or instruction) read request.
    pub fn load(class: ReqClass, addr: u32, bytes: u32) -> MemRequest {
        debug_assert!(!matches!(class, ReqClass::DataStore));
        MemRequest { class, addr, bytes }
    }

    /// Builds a data store request. The stored value stays with the
    /// client: the memory system models timing only.
    pub fn store(addr: u32) -> MemRequest {
        MemRequest {
            class: ReqClass::DataStore,
            addr,
            bytes: 4,
        }
    }
}

/// The source of a response beat on the input bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeatSource {
    /// Response to a [`ReqClass::DataLoad`].
    DataLoad,
    /// A floating-point result pushed back by the FPU.
    FpuResult,
    /// Response to a demand instruction fetch.
    IFetch,
    /// Response to an instruction prefetch.
    IPrefetch,
}

/// One input-bus beat: up to `in_bus_bytes` of a response. Beats carry
/// timing only: the interpreter computes every value. A response's beats
/// arrive back to back, and responses of one source in the order memory
/// accepted their requests (FPU results in operation order), so a client
/// routes a beat to its oldest accepted request of that source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Beat {
    /// What kind of response this beat belongs to.
    pub source: BeatSource,
    /// Byte address of the first byte in this beat, for instruction
    /// beats; 0 for data-load and FPU-result beats.
    pub addr: u32,
    /// Bytes carried by this beat.
    pub bytes: u32,
    /// `true` when this is the final beat of its response.
    pub last: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_dense_and_unique() {
        let mut seen = [false; 4];
        for c in ReqClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn instruction_classification() {
        assert!(ReqClass::IFetch.is_instruction());
        assert!(ReqClass::IPrefetch.is_instruction());
        assert!(!ReqClass::DataLoad.is_instruction());
        assert!(!ReqClass::DataStore.is_instruction());
    }

    #[test]
    fn constructors() {
        let r = MemRequest::load(ReqClass::IFetch, 0x40, 16);
        assert_eq!(r.bytes, 16);
        let s = MemRequest::store(0x100);
        assert_eq!(s.class, ReqClass::DataStore);
        assert_eq!((s.addr, s.bytes), (0x100, 4));
    }
}
