//! A small two-pass assembler for RV64IM + xBGAS.
//!
//! The paper's workloads are compiled with a modified riscv64 GNU toolchain;
//! our reproduction does not need a C compiler, only a way to author kernels
//! that exercise the xBGAS instruction paths. This assembler accepts the
//! GNU-flavoured syntax used throughout the paper (`eld rd, imm(rs1)`,
//! `erld rd, rs1, ext2`, …) plus the usual label, directive and
//! pseudo-instruction conveniences.
//!
//! Supported directives: `.word`, `.dword`, `.byte`, `.zero`, `.align`,
//! `.ascii`. Supported pseudo-instructions: `nop`, `mv`, `li` (up to 32-bit
//! immediates), `la`, `j`, `jal label`, `call`, `ret`, `beqz`, `bnez`,
//! `eset` (set an e-register to an object ID).
//!
//! ```
//! use xbgas_sim::asm::assemble;
//! let img = assemble(0x1000, r#"
//!     li   t0, 3          # object ID for PE 2
//!     eset e6, 3          # e6 pairs with t1 (x6)
//! loop:
//!     addi t0, t0, -1
//!     bnez t0, loop
//!     ecall
//! "#).unwrap();
//! assert_eq!(img.words.len(), 5);
//! ```

use std::collections::HashMap;
use std::fmt;
use xbgas_isa::{encode, inst, Inst, *};

/// An assembled image: encoded words and the resolved label table.
#[derive(Clone, Debug)]
pub struct Image {
    /// Base address the image was assembled at.
    pub base: u64,
    /// Encoded 32-bit words (instructions and data).
    pub words: Vec<u32>,
    /// Label name → absolute address.
    pub labels: HashMap<String, u64>,
}

impl Image {
    /// Look up a label's absolute address.
    pub fn label(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }
}

/// An assembly error, with the 1-based source line that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

/// One parsed source statement, pre-resolution.
#[derive(Clone, Debug)]
enum Stmt {
    /// A machine instruction; branch/jump targets may be labels.
    Inst { mnemonic: String, ops: Vec<String> },
    /// Raw 32-bit data words.
    Words(Vec<u32>),
    /// `li rd, imm` (may expand to 1 or 2 instructions).
    Li { rd: XReg, imm: i64 },
    /// `la rd, label` (always 2 instructions).
    La { rd: XReg, label: String },
}

struct Line {
    number: usize,
    stmt: Stmt,
    /// Size in 32-bit words.
    size: usize,
}

fn parse_int(s: &str, line: usize) -> Result<i64, AsmError> {
    let t = s.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map(|v| v as i64)
    } else if let Some(bin) = t.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).map(|v| v as i64)
    } else {
        t.parse::<i64>()
    };
    match v {
        Ok(v) => Ok(if neg { -v } else { v }),
        Err(_) => err(line, format!("invalid integer literal `{s}`")),
    }
}

fn xreg(s: &str, line: usize) -> Result<XReg, AsmError> {
    XReg::parse(s.trim()).ok_or(AsmError {
        line,
        message: format!("unknown x-register `{s}`"),
    })
}

fn ereg(s: &str, line: usize) -> Result<EReg, AsmError> {
    EReg::parse(s.trim()).ok_or(AsmError {
        line,
        message: format!("unknown e-register `{s}`"),
    })
}

/// Split `imm(base)` into its parts.
fn mem_operand(s: &str, line: usize) -> Result<(String, String), AsmError> {
    let s = s.trim();
    let open = s.find('(').ok_or(AsmError {
        line,
        message: format!("expected `imm(reg)` operand, got `{s}`"),
    })?;
    if !s.ends_with(')') {
        return err(line, format!("unterminated memory operand `{s}`"));
    }
    let imm = s[..open].trim();
    let base = s[open + 1..s.len() - 1].trim();
    let imm = if imm.is_empty() { "0" } else { imm };
    Ok((imm.to_string(), base.to_string()))
}

fn split_operands(rest: &str) -> Vec<String> {
    // Commas inside parentheses never occur in our syntax, so a plain split
    // suffices.
    rest.split(',')
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect()
}

/// First pass: parse every line into a sized statement and collect labels.
fn parse(base: u64, source: &str) -> Result<(Vec<Line>, HashMap<String, u64>), AsmError> {
    let mut lines = Vec::new();
    // `Image::labels` is public API typed on std's hasher; nothing
    // iterates it or keeps it past the assembly.
    #[allow(clippy::disallowed_methods)]
    let mut labels = HashMap::new();
    let mut offset_words = 0usize;

    for (idx, raw) in source.lines().enumerate() {
        let number = idx + 1;
        // Strip comments.
        let mut text = raw;
        for marker in ["#", "//", ";"] {
            if let Some(pos) = text.find(marker) {
                text = &text[..pos];
            }
        }
        let mut text = text.trim();

        // Peel off any leading labels.
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty()
                || !label
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                break; // not a label — let instruction parsing report it
            }
            if labels
                .insert(label.to_string(), base + 4 * offset_words as u64)
                .is_some()
            {
                return err(number, format!("duplicate label `{label}`"));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }

        let (head, rest) = match text.find(char::is_whitespace) {
            Some(pos) => (&text[..pos], text[pos..].trim()),
            None => (text, ""),
        };
        let mnemonic = head.to_ascii_lowercase();

        let stmt = if let Some(directive) = mnemonic.strip_prefix('.') {
            match directive {
                "word" => {
                    let words = split_operands(rest)
                        .iter()
                        .map(|o| parse_int(o, number).map(|v| v as u32))
                        .collect::<Result<Vec<_>, _>>()?;
                    Stmt::Words(words)
                }
                "dword" => {
                    let mut words = Vec::new();
                    for o in split_operands(rest) {
                        let v = parse_int(&o, number)? as u64;
                        words.push(v as u32);
                        words.push((v >> 32) as u32);
                    }
                    Stmt::Words(words)
                }
                "byte" | "ascii" | "zero" => {
                    // Gather bytes, then pad to word granularity.
                    let mut bytes = Vec::new();
                    match directive {
                        "byte" => {
                            for o in split_operands(rest) {
                                bytes.push(parse_int(&o, number)? as u8);
                            }
                        }
                        "zero" => {
                            let n = parse_int(rest, number)?;
                            if n < 0 {
                                return err(number, ".zero size must be non-negative");
                            }
                            bytes.resize(n as usize, 0);
                        }
                        _ => {
                            let r = rest.trim();
                            if !(r.starts_with('"') && r.ends_with('"') && r.len() >= 2) {
                                return err(number, ".ascii expects a quoted string");
                            }
                            bytes.extend_from_slice(&r.as_bytes()[1..r.len() - 1]);
                        }
                    }
                    while bytes.len() % 4 != 0 {
                        bytes.push(0);
                    }
                    let words = bytes
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect();
                    Stmt::Words(words)
                }
                "align" => {
                    let n = parse_int(rest, number)?;
                    if n < 2 {
                        Stmt::Words(vec![])
                    } else {
                        let align_words = (1usize << n) / 4;
                        let pad = (align_words - offset_words % align_words) % align_words;
                        Stmt::Words(vec![0x13; pad]) // nop padding
                    }
                }
                other => return err(number, format!("unknown directive `.{other}`")),
            }
        } else {
            let ops = split_operands(rest);
            match mnemonic.as_str() {
                "li" => {
                    if ops.len() != 2 {
                        return err(number, "li expects `rd, imm`");
                    }
                    Stmt::Li {
                        rd: xreg(&ops[0], number)?,
                        imm: parse_int(&ops[1], number)?,
                    }
                }
                "la" => {
                    if ops.len() != 2 {
                        return err(number, "la expects `rd, label`");
                    }
                    Stmt::La {
                        rd: xreg(&ops[0], number)?,
                        label: ops[1].clone(),
                    }
                }
                _ => Stmt::Inst { mnemonic, ops },
            }
        };

        let size = match &stmt {
            Stmt::Words(w) => w.len(),
            Stmt::Li { imm, .. } => {
                if (-2048..=2047).contains(imm) {
                    1
                } else if (i32::MIN as i64..=i32::MAX as i64).contains(imm) {
                    2
                } else {
                    return err(number, format!("li immediate {imm} exceeds 32 bits"));
                }
            }
            Stmt::La { .. } => 2,
            Stmt::Inst { .. } => 1,
        };

        offset_words += size;
        lines.push(Line { number, stmt, size });
    }
    Ok((lines, labels))
}

/// Resolve an operand that may be a label or an integer into an i64.
fn value_of(op: &str, labels: &HashMap<String, u64>, line: usize) -> Result<i64, AsmError> {
    if let Some(&addr) = labels.get(op.trim()) {
        return Ok(addr as i64);
    }
    parse_int(op, line)
}

/// Resolve a branch/jump target into a pc-relative offset.
fn offset_of(
    op: &str,
    labels: &HashMap<String, u64>,
    pc: u64,
    line: usize,
) -> Result<i32, AsmError> {
    let target = value_of(op, labels, line)?;
    // A bare integer is taken as an absolute address only if it matches a
    // label-resolved value; otherwise interpret integers as relative.
    if labels.contains_key(op.trim()) {
        Ok((target - pc as i64) as i32)
    } else {
        Ok(target as i32)
    }
}

fn li_words(rd: XReg, imm: i64, line: usize) -> Result<Vec<Inst>, AsmError> {
    if (-2048..=2047).contains(&imm) {
        return Ok(vec![Inst::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1: XReg::ZERO,
            imm: imm as i32,
        }]);
    }
    // 32-bit path: lui + addiw, with carry correction for a negative low part.
    let imm = imm as i32;
    let low = (imm << 20) >> 20; // sign-extended low 12 bits
    let high = (imm.wrapping_sub(low)) >> 12;
    if !(-524288..=524287).contains(&high) {
        return err(line, format!("li immediate {imm} exceeds lui range"));
    }
    Ok(vec![
        Inst::Lui { rd, imm20: high },
        Inst::OpImm {
            op: AluImmOp::Addiw,
            rd,
            rs1: rd,
            imm: low,
        },
    ])
}

/// Second pass: emit encoded words.
fn emit(base: u64, lines: &[Line], labels: &HashMap<String, u64>) -> Result<Vec<u32>, AsmError> {
    let mut words: Vec<u32> = Vec::new();

    for line in lines {
        let pc = base + 4 * words.len() as u64;
        let n = line.number;
        let emitted: Vec<u32> = match &line.stmt {
            Stmt::Words(w) => w.clone(),
            Stmt::Li { rd, imm } => li_words(*rd, *imm, n)?
                .iter()
                .map(|i| {
                    encode(i).map_err(|e| AsmError {
                        line: n,
                        message: e.to_string(),
                    })
                })
                .collect::<Result<_, _>>()?,
            Stmt::La { rd, label } => {
                let addr = *labels.get(label).ok_or(AsmError {
                    line: n,
                    message: format!("undefined label `{label}`"),
                })? as i64;
                li_words(*rd, addr, n)?
                    .iter()
                    .map(|i| {
                        encode(i).map_err(|e| AsmError {
                            line: n,
                            message: e.to_string(),
                        })
                    })
                    .collect::<Result<_, _>>()?
            }
            Stmt::Inst { mnemonic, ops } => {
                let inst = build_inst(mnemonic, ops, labels, pc, n)?;
                vec![encode(&inst).map_err(|e| AsmError {
                    line: n,
                    message: format!("{mnemonic}: {e}"),
                })?]
            }
        };
        if emitted.len() != line.size {
            // Internal invariant: pass-1 sizing must match pass-2 emission.
            return err(
                n,
                format!(
                    "internal sizing bug: planned {} words, emitted {}",
                    line.size,
                    emitted.len()
                ),
            );
        }
        words.extend(emitted);
    }
    Ok(words)
}

/// Build a single (non-pseudo-expanding) instruction from its mnemonic.
fn build_inst(
    mnemonic: &str,
    ops: &[String],
    labels: &HashMap<String, u64>,
    pc: u64,
    n: usize,
) -> Result<Inst, AsmError> {
    let need = |count: usize| -> Result<(), AsmError> {
        if ops.len() != count {
            err(
                n,
                format!("`{mnemonic}` expects {count} operands, got {}", ops.len()),
            )
        } else {
            Ok(())
        }
    };

    // Register-register ALU ops.
    if let Some(op) = AluOp::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
        need(3)?;
        return Ok(Inst::Op {
            op: *op,
            rd: xreg(&ops[0], n)?,
            rs1: xreg(&ops[1], n)?,
            rs2: xreg(&ops[2], n)?,
        });
    }
    // Register-immediate ALU ops.
    if let Some(op) = AluImmOp::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
        need(3)?;
        return Ok(Inst::OpImm {
            op: *op,
            rd: xreg(&ops[0], n)?,
            rs1: xreg(&ops[1], n)?,
            imm: parse_int(&ops[2], n)? as i32,
        });
    }
    // Branches.
    if let Some(cond) = BranchCond::ALL.iter().find(|c| c.mnemonic() == mnemonic) {
        need(3)?;
        return Ok(Inst::Branch {
            cond: *cond,
            rs1: xreg(&ops[0], n)?,
            rs2: xreg(&ops[1], n)?,
            offset: offset_of(&ops[2], labels, pc, n)?,
        });
    }
    // Loads / stores, local and extended.
    for w in LoadWidth::ALL {
        if mnemonic == format!("l{}", w.suffix()) || mnemonic == format!("el{}", w.suffix()) {
            need(2)?;
            let (imm, base_reg) = mem_operand(&ops[1], n)?;
            let rd = xreg(&ops[0], n)?;
            let rs1 = xreg(&base_reg, n)?;
            let imm = parse_int(&imm, n)? as i32;
            return Ok(if mnemonic.starts_with('e') {
                Inst::ELoad {
                    width: w,
                    rd,
                    rs1,
                    imm,
                }
            } else {
                Inst::Load {
                    width: w,
                    rd,
                    rs1,
                    imm,
                }
            });
        }
        if mnemonic == format!("erl{}", w.suffix()) {
            need(3)?;
            return Ok(Inst::ERLoad {
                width: w,
                rd: xreg(&ops[0], n)?,
                rs1: xreg(&ops[1], n)?,
                ext2: ereg(&ops[2], n)?,
            });
        }
    }
    for w in StoreWidth::ALL {
        if mnemonic == format!("s{}", w.suffix()) || mnemonic == format!("es{}", w.suffix()) {
            need(2)?;
            let (imm, base_reg) = mem_operand(&ops[1], n)?;
            let rs2 = xreg(&ops[0], n)?;
            let rs1 = xreg(&base_reg, n)?;
            let imm = parse_int(&imm, n)? as i32;
            return Ok(if mnemonic.starts_with('e') {
                Inst::EStore {
                    width: w,
                    rs1,
                    rs2,
                    imm,
                }
            } else {
                Inst::Store {
                    width: w,
                    rs1,
                    rs2,
                    imm,
                }
            });
        }
        if mnemonic == format!("ers{}", w.suffix()) {
            need(3)?;
            return Ok(Inst::ERStore {
                width: w,
                rs2: xreg(&ops[0], n)?,
                rs1: xreg(&ops[1], n)?,
                ext3: ereg(&ops[2], n)?,
            });
        }
    }

    Ok(match mnemonic {
        "lui" => {
            need(2)?;
            Inst::Lui {
                rd: xreg(&ops[0], n)?,
                imm20: parse_int(&ops[1], n)? as i32,
            }
        }
        "auipc" => {
            need(2)?;
            Inst::Auipc {
                rd: xreg(&ops[0], n)?,
                imm20: parse_int(&ops[1], n)? as i32,
            }
        }
        "jal" => match ops.len() {
            1 => Inst::Jal {
                rd: XReg::RA,
                offset: offset_of(&ops[0], labels, pc, n)?,
            },
            2 => Inst::Jal {
                rd: xreg(&ops[0], n)?,
                offset: offset_of(&ops[1], labels, pc, n)?,
            },
            _ => return err(n, "jal expects `label` or `rd, label`"),
        },
        "jalr" => {
            need(2)?;
            let (imm, base_reg) = mem_operand(&ops[1], n)?;
            Inst::Jalr {
                rd: xreg(&ops[0], n)?,
                rs1: xreg(&base_reg, n)?,
                imm: parse_int(&imm, n)? as i32,
            }
        }
        "j" => {
            need(1)?;
            Inst::Jal {
                rd: XReg::ZERO,
                offset: offset_of(&ops[0], labels, pc, n)?,
            }
        }
        "call" => {
            need(1)?;
            Inst::Jal {
                rd: XReg::RA,
                offset: offset_of(&ops[0], labels, pc, n)?,
            }
        }
        "ret" => {
            need(0)?;
            pseudo::ret()
        }
        "nop" => {
            need(0)?;
            pseudo::nop()
        }
        "mv" => {
            need(2)?;
            pseudo::mv(xreg(&ops[0], n)?, xreg(&ops[1], n)?)
        }
        "beqz" => {
            need(2)?;
            Inst::Branch {
                cond: BranchCond::Eq,
                rs1: xreg(&ops[0], n)?,
                rs2: XReg::ZERO,
                offset: offset_of(&ops[1], labels, pc, n)?,
            }
        }
        "bnez" => {
            need(2)?;
            Inst::Branch {
                cond: BranchCond::Ne,
                rs1: xreg(&ops[0], n)?,
                rs2: XReg::ZERO,
                offset: offset_of(&ops[1], labels, pc, n)?,
            }
        }
        "fence" => Inst::Fence,
        "ecall" => Inst::Ecall,
        "ebreak" => Inst::Ebreak,
        "csrrw" | "csrrs" | "csrrc" => {
            need(3)?;
            let op = match mnemonic {
                "csrrw" => inst::CsrOp::Rw,
                "csrrs" => inst::CsrOp::Rs,
                _ => inst::CsrOp::Rc,
            };
            let csr_name = ops[1].trim();
            let csr = match csr_name {
                "cycle" => inst::csr::CYCLE,
                "time" => inst::csr::TIME,
                "instret" => inst::csr::INSTRET,
                other => parse_int(other, n)? as u16,
            };
            Inst::Csr {
                op,
                rd: xreg(&ops[0], n)?,
                rs1: xreg(&ops[2], n)?,
                csr,
            }
        }
        "rdcycle" => {
            need(1)?;
            pseudo::rdcycle(xreg(&ops[0], n)?)
        }
        "rdinstret" => {
            need(1)?;
            pseudo::rdinstret(xreg(&ops[0], n)?)
        }
        "erse" => {
            need(3)?;
            Inst::ERse {
                ext1: ereg(&ops[0], n)?,
                rs1: xreg(&ops[1], n)?,
                ext2: ereg(&ops[2], n)?,
            }
        }
        "erle" => {
            need(3)?;
            Inst::ERle {
                ext1: ereg(&ops[0], n)?,
                rs1: xreg(&ops[1], n)?,
                ext2: ereg(&ops[2], n)?,
            }
        }
        "eaddi" => {
            need(3)?;
            Inst::Eaddi {
                rd: xreg(&ops[0], n)?,
                ext1: ereg(&ops[1], n)?,
                imm: parse_int(&ops[2], n)? as i32,
            }
        }
        "eaddie" => {
            need(3)?;
            Inst::Eaddie {
                ext: ereg(&ops[0], n)?,
                rs1: xreg(&ops[1], n)?,
                imm: parse_int(&ops[2], n)? as i32,
            }
        }
        "eaddix" => {
            need(3)?;
            Inst::Eaddix {
                ext1: ereg(&ops[0], n)?,
                ext2: ereg(&ops[1], n)?,
                imm: parse_int(&ops[2], n)? as i32,
            }
        }
        "eset" => {
            need(2)?;
            pseudo::eset(ereg(&ops[0], n)?, parse_int(&ops[1], n)? as i32)
        }
        other => return err(n, format!("unknown mnemonic `{other}`")),
    })
}

/// Assemble a source string at `base`; returns the encoded image.
pub fn assemble(base: u64, source: &str) -> Result<Image, AsmError> {
    let (lines, labels) = parse(base, source)?;
    let words = emit(base, &lines, &labels)?;
    Ok(Image {
        base,
        words,
        labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgas_isa::decode;

    #[test]
    fn basic_program() {
        let img = assemble(
            0x1000,
            r#"
            # compute 5 + 6
            li   a0, 5
            li   a1, 6
            add  a0, a0, a1
            ecall
            "#,
        )
        .unwrap();
        assert_eq!(img.words.len(), 4);
        assert_eq!(
            decode(img.words[2]).unwrap(),
            Inst::Op {
                op: AluOp::Add,
                rd: XReg::A0,
                rs1: XReg::A0,
                rs2: XReg::A1
            }
        );
    }

    #[test]
    fn labels_and_branches() {
        let img = assemble(
            0x1000,
            r#"
            li t0, 10
        loop:
            addi t0, t0, -1
            bnez t0, loop
            j    done
            nop
        done:
            ecall
            "#,
        )
        .unwrap();
        assert_eq!(img.label("loop"), Some(0x1004));
        assert_eq!(img.label("done"), Some(0x1014));
        // bnez at 0x1008 targeting 0x1004 → offset -4.
        match decode(img.words[2]).unwrap() {
            Inst::Branch { offset, .. } => assert_eq!(offset, -4),
            other => panic!("{other:?}"),
        }
        // j at 0x100c targeting 0x1014 → offset +8.
        match decode(img.words[3]).unwrap() {
            Inst::Jal { rd, offset } => {
                assert_eq!(rd, XReg::ZERO);
                assert_eq!(offset, 8);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn li_expansion() {
        // Small: 1 word.
        assert_eq!(assemble(0, "li a0, -2048").unwrap().words.len(), 1);
        // 32-bit: 2 words (lui+addiw), incl. negative-low carry correction.
        let img = assemble(0, "li a0, 0x12345").unwrap();
        assert_eq!(img.words.len(), 2);
        // Verify semantics: lui high + addiw low == 0x12345.
        let (hi, lo) = match (decode(img.words[0]).unwrap(), decode(img.words[1]).unwrap()) {
            (Inst::Lui { imm20, .. }, Inst::OpImm { imm, .. }) => (imm20, imm),
            other => panic!("{other:?}"),
        };
        assert_eq!(((hi as i64) << 12) + lo as i64, 0x12345);

        // Low part with bit 11 set requires carry correction.
        let img = assemble(0, "li a0, 0x12FFF").unwrap();
        let (hi, lo) = match (decode(img.words[0]).unwrap(), decode(img.words[1]).unwrap()) {
            (Inst::Lui { imm20, .. }, Inst::OpImm { imm, .. }) => (imm20, imm),
            other => panic!("{other:?}"),
        };
        assert_eq!(((hi as i64) << 12) + lo as i64, 0x12FFF);
    }

    #[test]
    fn xbgas_mnemonics() {
        let img = assemble(
            0x1000,
            r#"
            eset  e5, 2
            eld   a0, 8(t0)
            esd   a1, -8(t0)
            erld  a2, t0, e9
            ersw  a3, t0, e9
            erse  e3, t0, e9
            eaddi a4, e3, 1
            eaddie e7, a0, 0
            eaddix e8, e7, -1
            "#,
        )
        .unwrap();
        assert_eq!(img.words.len(), 9);
        assert!(matches!(
            decode(img.words[1]).unwrap(),
            Inst::ELoad {
                width: LoadWidth::D,
                imm: 8,
                ..
            }
        ));
        assert!(matches!(
            decode(img.words[4]).unwrap(),
            Inst::ERStore {
                width: StoreWidth::W,
                ..
            }
        ));
        assert!(matches!(decode(img.words[5]).unwrap(), Inst::ERse { .. }));
    }

    #[test]
    fn data_directives() {
        let img = assemble(
            0x2000,
            r#"
        data:
            .word  0xDEADBEEF, 1
            .dword 0x0123456789ABCDEF
            .byte  1, 2, 3
            .ascii "hi"
            .zero  4
            "#,
        )
        .unwrap();
        assert_eq!(img.words[0], 0xDEAD_BEEF);
        assert_eq!(img.words[1], 1);
        assert_eq!(img.words[2], 0x89AB_CDEF);
        assert_eq!(img.words[3], 0x0123_4567);
        assert_eq!(img.words[4], u32::from_le_bytes([1, 2, 3, 0]));
        assert_eq!(img.words[5], u32::from_le_bytes([b'h', b'i', 0, 0]));
        assert_eq!(img.words[6], 0);
        assert_eq!(img.label("data"), Some(0x2000));
    }

    #[test]
    fn la_resolves_absolute() {
        let img = assemble(
            0x1000,
            r#"
            la a0, buf
            ecall
        buf:
            .dword 0
            "#,
        )
        .unwrap();
        // la = lui+addiw (2 words), ecall (1) → buf at 0x100c.
        assert_eq!(img.label("buf"), Some(0x100C));
        let (hi, lo) = match (decode(img.words[0]).unwrap(), decode(img.words[1]).unwrap()) {
            (Inst::Lui { imm20, .. }, Inst::OpImm { imm, .. }) => (imm20, imm),
            other => panic!("{other:?}"),
        };
        assert_eq!(((hi as i64) << 12) + lo as i64, 0x100C);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble(0, "nop\nbogus a0, a1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = assemble(0, "li a0, 99999999999999").unwrap_err();
        assert!(e.message.contains("exceeds 32 bits"));

        let e = assemble(0, "x: nop\nx: nop").unwrap_err();
        assert!(e.message.contains("duplicate label"));

        let e = assemble(0, "beq a0, a1, nowhere").unwrap_err();
        assert!(e.message.contains("invalid integer"));
    }

    #[test]
    fn align_pads_with_nops() {
        let img = assemble(0x1000, "nop\n.align 4\nhere: nop").unwrap();
        assert_eq!(img.label("here"), Some(0x1010));
        for w in &img.words[1..4] {
            assert_eq!(*w, 0x13); // nop
        }
    }
}
