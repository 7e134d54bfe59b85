//! Plain-text trace serialization.
//!
//! Traces are exchangeable artifacts: dump a generated workload once, rerun
//! experiments on the exact same instruction stream later, or hand-write
//! micro-traces for debugging. The format is one instruction per line:
//!
//! ```text
//! # anything after '#' is a comment
//! C            compute
//! C 3          compute depending on the instruction 3 back
//! L 1a40       load from hex address 0x1a40
//! L 1a40 2     …with a dependence distance of 2
//! S 80         store to 0x80
//! ```

use std::io::{self, BufRead, Write};

use crate::record::{Instr, Op, Trace};

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line number of the offending input.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Trace {
    /// Write the trace in the plain-text format.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "# lpm trace v1: {} instructions", self.len())?;
        for i in self.iter() {
            match i.op {
                Op::Compute => {
                    if i.dep > 0 {
                        writeln!(w, "C {}", i.dep)?;
                    } else {
                        writeln!(w, "C")?;
                    }
                }
                Op::Load(a) => {
                    if i.dep > 0 {
                        writeln!(w, "L {a:x} {}", i.dep)?;
                    } else {
                        writeln!(w, "L {a:x}")?;
                    }
                }
                Op::Store(a) => {
                    if i.dep > 0 {
                        writeln!(w, "S {a:x} {}", i.dep)?;
                    } else {
                        writeln!(w, "S {a:x}")?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Parse a trace from the plain-text format.
    pub fn read_from(r: impl BufRead) -> Result<Trace, ParseError> {
        let mut instrs = Vec::new();
        for (idx, line) in r.lines().enumerate() {
            let lineno = idx + 1;
            let line = line.map_err(|e| ParseError {
                line: lineno,
                message: format!("I/O error: {e}"),
            })?;
            let body = line.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let mut parts = body.split_whitespace();
            // `body` is non-empty, so the iterator yields at least once;
            // routing through let-else keeps the parser panic-free anyway.
            let Some(kind) = parts.next() else { continue };
            let err = |message: String| ParseError {
                line: lineno,
                message,
            };
            let instr = match kind {
                "C" | "c" => {
                    let dep = match parts.next() {
                        None => 0,
                        Some(d) => d
                            .parse::<u32>()
                            .map_err(|_| err(format!("bad dependence {d:?}")))?,
                    };
                    Instr {
                        op: Op::Compute,
                        dep,
                    }
                }
                "L" | "l" | "S" | "s" => {
                    let addr_s = parts
                        .next()
                        .ok_or_else(|| err("memory op needs an address".into()))?;
                    let addr = u64::from_str_radix(addr_s, 16)
                        .map_err(|_| err(format!("bad hex address {addr_s:?}")))?;
                    let dep = match parts.next() {
                        None => 0,
                        Some(d) => d
                            .parse::<u32>()
                            .map_err(|_| err(format!("bad dependence {d:?}")))?,
                    };
                    let op = if kind.eq_ignore_ascii_case("L") {
                        Op::Load(addr)
                    } else {
                        Op::Store(addr)
                    };
                    Instr { op, dep }
                }
                other => return Err(err(format!("unknown opcode {other:?}"))),
            };
            if parts.next().is_some() {
                return Err(err("trailing tokens".into()));
            }
            instrs.push(instr);
        }
        Ok(Trace::from_vec(instrs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Generator;
    use crate::spec::SpecWorkload;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let t = Trace::from_vec(vec![
            Instr::compute(),
            Instr::compute().depending_on(1),
            Instr::load(0x1a40),
            Instr::load(0x1a40).depending_on(2),
            Instr::store(0x80),
        ]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_generated_workload() {
        let t = SpecWorkload::GccLike.generator().generate(5_000, 9);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\nC\n  # indented comment\nL 40 # trailing comment\n\n";
        let t = Trace::read_from(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.instrs()[1].op, Op::Load(0x40));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("C\nX\n", 2, "unknown opcode"),
            ("L\n", 1, "needs an address"),
            ("L zz\n", 1, "bad hex address"),
            ("C 1 2\n", 1, "trailing"),
            ("L 40 xx\n", 1, "bad dependence"),
        ];
        for (text, line, needle) in cases {
            let e = Trace::read_from(text.as_bytes()).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.message.contains(needle), "{e}");
        }
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            spec in proptest::collection::vec((0u8..3, 0u64..(1u64 << 40), 0u32..100), 0..200),
        ) {
            let t: Trace = spec
                .into_iter()
                .map(|(k, a, d)| {
                    let op = match k {
                        0 => Op::Compute,
                        1 => Op::Load(a),
                        _ => Op::Store(a),
                    };
                    Instr { op, dep: d }
                })
                .collect();
            let mut buf = Vec::new();
            t.write_to(&mut buf).unwrap();
            let back = Trace::read_from(buf.as_slice()).unwrap();
            prop_assert_eq!(t, back);
        }
    }
}
