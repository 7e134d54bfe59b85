//! Trace record types.
//!
//! A trace is a sequence of retired-order instructions. Each instruction is
//! either pure compute or a memory operation carrying a byte address, and
//! may name one *register dependence*: the instruction `dep` positions
//! earlier whose result it consumes. Dependences are what limit issue
//! concurrency in the out-of-order core and therefore shape the CH/CM
//! values the analyzer observes — a pointer chase is simply a trace where
//! every load depends on the previous load.

use std::sync::Arc;

/// Operation kind of one trace instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A non-memory instruction (ALU/FPU work).
    Compute,
    /// A load from the given byte address.
    Load(u64),
    /// A store to the given byte address.
    Store(u64),
}

impl Op {
    /// Whether this is a memory operation.
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::Load(_) | Op::Store(_))
    }

    /// The byte address, if this is a memory operation.
    pub fn addr(&self) -> Option<u64> {
        match self {
            Op::Load(a) | Op::Store(a) => Some(*a),
            Op::Compute => None,
        }
    }
}

/// One instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// What the instruction does.
    pub op: Op,
    /// Backward dependence distance: this instruction consumes the result
    /// of the instruction `dep` positions before it (0 = no dependence).
    /// A distance pointing before the start of the trace is treated as
    /// already satisfied.
    pub dep: u32,
}

impl Instr {
    /// A compute instruction with no dependence.
    pub fn compute() -> Self {
        Instr {
            op: Op::Compute,
            dep: 0,
        }
    }

    /// A dependence-free load.
    pub fn load(addr: u64) -> Self {
        Instr {
            op: Op::Load(addr),
            dep: 0,
        }
    }

    /// A dependence-free store.
    pub fn store(addr: u64) -> Self {
        Instr {
            op: Op::Store(addr),
            dep: 0,
        }
    }

    /// Attach a backward dependence distance.
    pub fn depending_on(mut self, dep: u32) -> Self {
        self.dep = dep;
        self
    }
}

/// The most instructions one trace can hold: a `Vec<Instr>` spans at
/// most `isize::MAX` bytes, and a longer one cannot even be sized.
pub const MAX_TRACE_LEN: usize = isize::MAX as usize / std::mem::size_of::<Instr>();

/// Check an instruction count from outside the program: `Ok` with the
/// count when a trace of that length can be sized, an error naming
/// the limit when it cannot. A count under [`MAX_TRACE_LEN`] can
/// still exceed the host's memory; that is a resource limit, not a
/// malformed count.
pub fn check_trace_len(n: u64) -> Result<usize, String> {
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= MAX_TRACE_LEN)
        .ok_or_else(|| {
            format!("{n} instructions do not fit in one trace (at most {MAX_TRACE_LEN})")
        })
}

/// An instruction trace in program (retire) order.
///
/// The instructions live in one immutable, reference-counted buffer:
/// `clone` shares it rather than copying it, so every core, perfect-cache
/// run and profile point that executes the same program reads the same
/// memory. Build a trace from a finished `Vec` ([`Trace::from_vec`]) or
/// an iterator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    // `Arc<Vec<_>>`, not `Arc<[_]>`: moving a `Vec` into an `Arc<[_]>`
    // copies the whole buffer, and that transient second copy of every
    // generated trace doubled a 400-point sweep's peak RSS (glibc malloc).
    instrs: Arc<Vec<Instr>>,
}

impl Trace {
    /// Build from a vector of instructions.
    pub fn from_vec(instrs: Vec<Instr>) -> Self {
        Self {
            instrs: Arc::new(instrs),
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instructions, in program order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Iterate over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }

    /// Number of memory operations.
    pub fn mem_ops(&self) -> usize {
        self.instrs.iter().filter(|i| i.op.is_mem()).count()
    }
}

impl FromIterator<Instr> for Trace {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        Trace::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;
    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(Op::Load(0).is_mem());
        assert!(Op::Store(8).is_mem());
        assert!(!Op::Compute.is_mem());
        assert_eq!(Op::Load(64).addr(), Some(64));
        assert_eq!(Op::Compute.addr(), None);
    }

    #[test]
    fn builders() {
        let i = Instr::load(128).depending_on(3);
        assert_eq!(i.op, Op::Load(128));
        assert_eq!(i.dep, 3);
        assert_eq!(Instr::compute().dep, 0);
    }

    #[test]
    fn trace_len_and_count() {
        assert!(Trace::default().is_empty());
        let t = Trace::from_vec(vec![Instr::compute(), Instr::load(0), Instr::store(64)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.mem_ops(), 2);
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = Trace::from_vec(vec![Instr::compute(), Instr::load(100)]);
        let b = a.clone();
        assert_eq!(a.instrs().as_ptr(), b.instrs().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn from_iterator() {
        let t: Trace = (0..4u64).map(|i| Instr::load(i * 64)).collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t.mem_ops(), 4);
    }
}
