//! TRPLA: the microprogrammed Test and Repair Controller.
//!
//! Paper §V: "the microprogrammed control unit is called Test and Repair
//! Controller PLA (TRPLA) ... implemented as a pseudo-NMOS NOR-NOR PLA
//! loaded with the control code. During layout synthesis the control code
//! is read in at runtime by BISRAMGEN from two input files (one for the
//! AND plane, the other for the OR plane). Changing these files to
//! implement a different test algorithm is a simple and straightforward
//! matter."
//!
//! This module contains the full path:
//!
//! 1. [`assemble`] compiles a [`MarchTest`] into a two-pass control
//!    program (pass 1 captures faulty rows, pass 2 re-tests through the
//!    repair mapping and raises *Repair Unsuccessful* on any mismatch),
//! 2. [`ControlProgram::synthesize_pla`] lowers the program onto PLA
//!    personality matrices (the NOR–NOR planes, logically AND–OR),
//! 3. [`Pla::export_planes`] / [`Pla::import_planes`] are the two-file
//!    interchange format,
//! 4. [`PlaFsm`] is the flip-flop + PLA hardware model, proven equivalent
//!    to the microinstruction interpreter in the test suite,
//! 5. [`ControllerSim`] executes the program cycle by cycle against a
//!    [`bisram_mem::SramModel`].

use crate::datagen;
use crate::march::{MarchElement, MarchTest};
use crate::RowMap;
use bisram_mem::{SramModel, Word};

/// The control signals a TRPLA state asserts (the OR-plane outputs other
/// than the next-state field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlWord {
    /// Perform a read this cycle.
    pub read: bool,
    /// Perform a write this cycle.
    pub write: bool,
    /// The data for the access is the complemented background.
    pub invert: bool,
    /// Advance the address counter (gated: only asserted on the
    /// loop-back product term, i.e. when the terminal count is false).
    pub count_en: bool,
    /// Count direction is down.
    pub count_down: bool,
    /// Load the address counter with zero.
    pub addr_load_zero: bool,
    /// Load the address counter with the terminal (all-ones) address.
    pub addr_load_max: bool,
    /// Step the DATAGEN Johnson counter to the next background.
    pub bg_step: bool,
    /// Reset DATAGEN to the first background.
    pub bg_reset: bool,
    /// Pass-1 mismatch action: capture the failing row into the TLB.
    pub capture: bool,
    /// Pass-2 mismatch action: raise the Repair Unsuccessful status.
    pub flag_unrepairable: bool,
    /// Request the processor-mediated retention pause.
    pub request_delay: bool,
    /// Route accesses through the repair mapping (pass 2 onward).
    pub enable_mapping: bool,
    /// Self-test complete, repair (if any) successful.
    pub done: bool,
    /// Terminal failure state (Repair Unsuccessful).
    pub fail: bool,
}

/// Number of control-signal outputs in the OR plane.
pub const CONTROL_BITS: usize = 15;

impl ControlWord {
    /// Encodes the word as OR-plane output bits (fixed order).
    pub fn to_bits(self) -> [bool; CONTROL_BITS] {
        [
            self.read,
            self.write,
            self.invert,
            self.count_en,
            self.count_down,
            self.addr_load_zero,
            self.addr_load_max,
            self.bg_step,
            self.bg_reset,
            self.capture,
            self.flag_unrepairable,
            self.request_delay,
            self.enable_mapping,
            self.done,
            self.fail,
        ]
    }

    /// Decodes OR-plane output bits.
    ///
    /// # Panics
    ///
    /// Panics if fewer than [`CONTROL_BITS`] bits are supplied.
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(bits.len() >= CONTROL_BITS, "not enough control bits");
        ControlWord {
            read: bits[0],
            write: bits[1],
            invert: bits[2],
            count_en: bits[3],
            count_down: bits[4],
            addr_load_zero: bits[5],
            addr_load_max: bits[6],
            bg_step: bits[7],
            bg_reset: bits[8],
            capture: bits[9],
            flag_unrepairable: bits[10],
            request_delay: bits[11],
            enable_mapping: bits[12],
            done: bits[13],
            fail: bits[14],
        }
    }
}

/// Next-state selection of a microinstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Unconditional successor.
    Step(usize),
    /// Branch on the address counter's terminal count. The loop-back
    /// (`else_`) edge is the one that counts.
    IfAddrTc {
        /// Successor when the terminal count is reached.
        then: usize,
        /// Successor (loop) otherwise.
        else_: usize,
    },
    /// Branch on the background schedule being exhausted.
    IfBgLast {
        /// Successor when the last background has been applied.
        then: usize,
        /// Successor (loop to re-run the march) otherwise.
        else_: usize,
    },
}

/// One microinstruction: the asserted control word plus sequencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroInstr {
    /// Control outputs.
    pub ctrl: ControlWord,
    /// Next-state selection.
    pub next: Next,
}

/// A complete control program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlProgram {
    name: String,
    instrs: Vec<MicroInstr>,
}

impl ControlProgram {
    /// Program name (derives from the march test).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The microinstructions; state `i` is `instrs[i]`, reset state is 0.
    pub fn instrs(&self) -> &[MicroInstr] {
        &self.instrs
    }

    /// Number of controller states.
    pub fn state_count(&self) -> usize {
        self.instrs.len()
    }

    /// Flip-flops needed to encode the states.
    pub fn flip_flops(&self) -> u32 {
        (usize::BITS - (self.state_count() - 1).leading_zeros()).max(1)
    }

    /// Lowers the program to PLA personality matrices.
    ///
    /// Inputs: the state register bits, then `addr_tc`, then `bg_last`.
    /// Outputs: the [`CONTROL_BITS`] control signals, then the next-state
    /// bits. Each state contributes one product term (two for branches).
    pub fn synthesize_pla(&self) -> Pla {
        let sbits = self.flip_flops() as usize;
        let inputs = sbits + 2; // + addr_tc + bg_last
        let outputs = CONTROL_BITS + sbits;
        let mut and_plane: Vec<Vec<Tri>> = Vec::new();
        let mut or_plane: Vec<Vec<bool>> = Vec::new();

        let mut push_term =
            |state: usize, addr_tc: Tri, bg_last: Tri, ctrl: ControlWord, next: usize| {
                let mut term = Vec::with_capacity(inputs);
                for b in 0..sbits {
                    term.push(if (state >> b) & 1 == 1 {
                        Tri::One
                    } else {
                        Tri::Zero
                    });
                }
                term.push(addr_tc);
                term.push(bg_last);
                and_plane.push(term);
                let mut out = ctrl.to_bits().to_vec();
                for b in 0..sbits {
                    out.push((next >> b) & 1 == 1);
                }
                or_plane.push(out);
            };

        for (state, mi) in self.instrs.iter().enumerate() {
            match mi.next {
                Next::Step(next) => {
                    push_term(state, Tri::DontCare, Tri::DontCare, mi.ctrl, next);
                }
                Next::IfAddrTc { then, else_ } => {
                    // The loop-back edge counts; the exit edge does not.
                    let mut exit_ctrl = mi.ctrl;
                    exit_ctrl.count_en = false;
                    push_term(state, Tri::One, Tri::DontCare, exit_ctrl, then);
                    push_term(state, Tri::Zero, Tri::DontCare, mi.ctrl, else_);
                }
                Next::IfBgLast { then, else_ } => {
                    // Only the loop-back edge steps the background.
                    let mut exit_ctrl = mi.ctrl;
                    exit_ctrl.bg_step = false;
                    push_term(state, Tri::DontCare, Tri::One, exit_ctrl, then);
                    push_term(state, Tri::DontCare, Tri::Zero, mi.ctrl, else_);
                }
            }
        }
        Pla {
            inputs,
            outputs,
            and_plane,
            or_plane,
        }
    }
}

/// Assembles a march test into the two-pass test-and-repair control
/// program of paper §V/§VI:
///
/// * **Pass 1** runs the march over the regular array; every read
///   mismatch asserts `capture`, registering the failing row in the TLB.
/// * **Pass 2** re-runs the march with `enable_mapping` asserted, so
///   faulty rows divert to their spares; any mismatch asserts
///   `flag_unrepairable` (too many faults, or faulty spares).
///
/// The resulting program ends in a `done` state (repair successful) and
/// contains a `fail` sink reachable from pass 2.
pub fn assemble(test: &MarchTest) -> ControlProgram {
    let mut instrs: Vec<MicroInstr> = Vec::new();
    // Forward references are resolved by construction: we lay out states
    // sequentially and know each block's successor as we emit it.

    // State 0: global init.
    instrs.push(MicroInstr {
        ctrl: ControlWord {
            bg_reset: true,
            addr_load_zero: true,
            ..ControlWord::default()
        },
        next: Next::Step(1),
    });

    let pass1_start = instrs.len();
    emit_pass(&mut instrs, test, Pass::Capture);
    // Background check for pass 1 was emitted by emit_pass pointing at
    // instrs.len() as its exit — which is the pass-2 entry we emit now.
    let pass2_entry = instrs.len();
    debug_assert_eq!(pass2_entry, pass1_start + pass_len(test));
    instrs.push(MicroInstr {
        ctrl: ControlWord {
            bg_reset: true,
            addr_load_zero: true,
            enable_mapping: true,
            ..ControlWord::default()
        },
        next: Next::Step(pass2_entry + 1),
    });
    emit_pass(&mut instrs, test, Pass::Verify);
    // Done state.
    let done = instrs.len();
    instrs.push(MicroInstr {
        ctrl: ControlWord {
            done: true,
            enable_mapping: true,
            ..ControlWord::default()
        },
        next: Next::Step(done),
    });
    // Fail sink (Repair Unsuccessful). The mismatch signal routes here in
    // hardware; in the program it is a self-looping terminal state.
    let fail = instrs.len();
    instrs.push(MicroInstr {
        ctrl: ControlWord {
            fail: true,
            ..ControlWord::default()
        },
        next: Next::Step(fail),
    });

    ControlProgram {
        name: format!("TRPLA({})", test.name()),
        instrs,
    }
}

/// Which pass a block of states belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    Capture,
    Verify,
}

/// Number of states one pass occupies (setup/ops/delay states + the
/// background-check state).
fn pass_len(test: &MarchTest) -> usize {
    let mut n = 0;
    for e in test.elements() {
        n += match e {
            MarchElement::Sweep { ops, .. } => 1 + ops.len(),
            MarchElement::Delay => 1,
        };
    }
    n + 1 // background check
}

fn emit_pass(instrs: &mut Vec<MicroInstr>, test: &MarchTest, pass: Pass) {
    let mapping = pass == Pass::Verify;
    let base = instrs.len();
    let first_element = base;
    // Pre-compute element entry offsets.
    let mut entries = Vec::new();
    let mut cursor = base;
    for e in test.elements() {
        entries.push(cursor);
        cursor += match e {
            MarchElement::Sweep { ops, .. } => 1 + ops.len(),
            MarchElement::Delay => 1,
        };
    }
    let bg_check = cursor;
    let pass_exit = bg_check + 1; // next block after this pass

    for (i, e) in test.elements().iter().enumerate() {
        let next_entry = if i + 1 < entries.len() {
            entries[i + 1]
        } else {
            bg_check
        };
        match e {
            MarchElement::Delay => {
                instrs.push(MicroInstr {
                    ctrl: ControlWord {
                        request_delay: true,
                        enable_mapping: mapping,
                        ..ControlWord::default()
                    },
                    next: Next::Step(next_entry),
                });
            }
            MarchElement::Sweep { order, ops } => {
                let down = !order.effective_up();
                // Setup state: load the start address.
                instrs.push(MicroInstr {
                    ctrl: ControlWord {
                        addr_load_zero: !down,
                        addr_load_max: down,
                        enable_mapping: mapping,
                        ..ControlWord::default()
                    },
                    next: Next::Step(instrs.len() + 1 - base + base),
                });
                let first_op = instrs.len();
                for (j, op) in ops.iter().enumerate() {
                    let is_last = j + 1 == ops.len();
                    let ctrl = ControlWord {
                        read: op.is_read(),
                        write: !op.is_read(),
                        invert: op.is_inverse(),
                        capture: op.is_read() && pass == Pass::Capture,
                        flag_unrepairable: op.is_read() && pass == Pass::Verify,
                        enable_mapping: mapping,
                        count_en: is_last,
                        count_down: is_last && down,
                        ..ControlWord::default()
                    };
                    let next = if is_last {
                        Next::IfAddrTc {
                            then: next_entry,
                            else_: first_op,
                        }
                    } else {
                        Next::Step(instrs.len() + 1)
                    };
                    instrs.push(MicroInstr { ctrl, next });
                }
            }
        }
    }
    // Background check: exhausted → leave the pass, otherwise step the
    // background and re-run the march from the first element.
    debug_assert_eq!(instrs.len(), bg_check);
    instrs.push(MicroInstr {
        ctrl: ControlWord {
            bg_step: true,
            addr_load_zero: true,
            enable_mapping: mapping,
            ..ControlWord::default()
        },
        next: Next::IfBgLast {
            then: pass_exit,
            else_: first_element,
        },
    });
}

/// Ternary AND-plane entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tri {
    /// Input must be 1.
    One,
    /// Input must be 0.
    Zero,
    /// Input ignored.
    DontCare,
}

/// Errors from [`Pla::import_planes`] — the two-file control-code
/// interchange is the one externally-writable input of the compiler, so
/// its failures are typed rather than stringly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaneParseError {
    /// A character outside the plane alphabet (`1`/`0`/`-` for the AND
    /// plane, `1`/`0` for the OR plane).
    BadChar {
        /// Which plane file (`"AND"` or `"OR"`).
        plane: &'static str,
        /// 1-based line number.
        line: usize,
        /// The offending character.
        ch: char,
    },
    /// The two files disagree on the number of product terms.
    TermCountMismatch {
        /// Rows in the AND plane.
        and_terms: usize,
        /// Rows in the OR plane.
        or_terms: usize,
    },
    /// Rows within one plane have differing widths.
    Ragged {
        /// Which plane file (`"AND"` or `"OR"`).
        plane: &'static str,
    },
}

impl std::fmt::Display for PlaneParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaneParseError::BadChar { plane, line, ch } => {
                write!(f, "{plane} plane line {line}: bad char {ch:?}")
            }
            PlaneParseError::TermCountMismatch {
                and_terms,
                or_terms,
            } => write!(
                f,
                "term count mismatch: {and_terms} AND rows vs {or_terms} OR rows"
            ),
            PlaneParseError::Ragged { plane } => write!(f, "ragged {plane} plane"),
        }
    }
}

impl std::error::Error for PlaneParseError {}

/// A two-level PLA: personality matrices for the AND and OR planes.
///
/// Electrically a pseudo-NMOS NOR–NOR structure; logically, each product
/// term is the AND of its care inputs and each output is the OR of its
/// connected product terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pla {
    /// Number of PLA inputs (state bits + condition bits).
    pub inputs: usize,
    /// Number of PLA outputs (control bits + next-state bits).
    pub outputs: usize,
    /// `and_plane[t][i]` — term `t`'s requirement on input `i`.
    pub and_plane: Vec<Vec<Tri>>,
    /// `or_plane[t][o]` — whether term `t` drives output `o`.
    pub or_plane: Vec<Vec<bool>>,
}

impl Pla {
    /// Number of product terms.
    pub fn terms(&self) -> usize {
        self.and_plane.len()
    }

    /// Evaluates the PLA.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.inputs, "PLA input width mismatch");
        let mut out = vec![false; self.outputs];
        for (term, outs) in self.and_plane.iter().zip(self.or_plane.iter()) {
            let active = term.iter().zip(inputs.iter()).all(|(t, &v)| match t {
                Tri::One => v,
                Tri::Zero => !v,
                Tri::DontCare => true,
            });
            if active {
                for (o, drive) in out.iter_mut().zip(outs.iter()) {
                    *o |= drive;
                }
            }
        }
        out
    }

    /// Exports the personality as the paper's two control-code files:
    /// `(and_plane, or_plane)`. AND-plane rows use `1`/`0`/`-` per input;
    /// OR-plane rows use `1`/`0` per output.
    pub fn export_planes(&self) -> (String, String) {
        let mut and_s = String::new();
        for term in &self.and_plane {
            for t in term {
                and_s.push(match t {
                    Tri::One => '1',
                    Tri::Zero => '0',
                    Tri::DontCare => '-',
                });
            }
            and_s.push('\n');
        }
        let mut or_s = String::new();
        for outs in &self.or_plane {
            for &b in outs {
                or_s.push(if b { '1' } else { '0' });
            }
            or_s.push('\n');
        }
        (and_s, or_s)
    }

    /// Imports a personality from the two-file format.
    ///
    /// # Errors
    ///
    /// Returns a [`PlaneParseError`] when the files are malformed
    /// (ragged rows, unknown characters, mismatched term counts).
    pub fn import_planes(and_plane: &str, or_plane: &str) -> Result<Pla, PlaneParseError> {
        let mut and_rows: Vec<Vec<Tri>> = Vec::new();
        for (ln, line) in and_plane.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut row = Vec::new();
            for ch in line.chars() {
                row.push(match ch {
                    '1' => Tri::One,
                    '0' => Tri::Zero,
                    '-' => Tri::DontCare,
                    c => {
                        return Err(PlaneParseError::BadChar {
                            plane: "AND",
                            line: ln + 1,
                            ch: c,
                        })
                    }
                });
            }
            and_rows.push(row);
        }
        let mut or_rows: Vec<Vec<bool>> = Vec::new();
        for (ln, line) in or_plane.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut row = Vec::new();
            for ch in line.chars() {
                row.push(match ch {
                    '1' => true,
                    '0' => false,
                    c => {
                        return Err(PlaneParseError::BadChar {
                            plane: "OR",
                            line: ln + 1,
                            ch: c,
                        })
                    }
                });
            }
            or_rows.push(row);
        }
        if and_rows.len() != or_rows.len() {
            return Err(PlaneParseError::TermCountMismatch {
                and_terms: and_rows.len(),
                or_terms: or_rows.len(),
            });
        }
        let inputs = and_rows.first().map_or(0, |r| r.len());
        let outputs = or_rows.first().map_or(0, |r| r.len());
        if and_rows.iter().any(|r| r.len() != inputs) {
            return Err(PlaneParseError::Ragged { plane: "AND" });
        }
        if or_rows.iter().any(|r| r.len() != outputs) {
            return Err(PlaneParseError::Ragged { plane: "OR" });
        }
        Ok(Pla {
            inputs,
            outputs,
            and_plane: and_rows,
            or_plane: or_rows,
        })
    }
}

/// The hardware FSM: a state register of [`ControlProgram::flip_flops`]
/// bits clocked from the PLA's next-state outputs.
#[derive(Debug, Clone)]
pub struct PlaFsm {
    pla: Pla,
    state_bits: usize,
    state: usize,
}

impl PlaFsm {
    /// Builds the FSM from a synthesized PLA.
    pub fn new(pla: Pla, state_bits: usize) -> Self {
        PlaFsm {
            pla,
            state_bits,
            state: 0,
        }
    }

    /// Current state code.
    pub fn state(&self) -> usize {
        self.state
    }

    /// One clock: evaluates the PLA at the current state with the given
    /// condition inputs, latches the next state, and returns the control
    /// word asserted *this* cycle.
    pub fn step(&mut self, addr_tc: bool, bg_last: bool) -> ControlWord {
        let mut inputs = Vec::with_capacity(self.pla.inputs);
        for b in 0..self.state_bits {
            inputs.push((self.state >> b) & 1 == 1);
        }
        inputs.push(addr_tc);
        inputs.push(bg_last);
        let out = self.pla.eval(&inputs);
        let ctrl = ControlWord::from_bits(&out);
        let mut next = 0usize;
        for b in 0..self.state_bits {
            if out[CONTROL_BITS + b] {
                next |= 1 << b;
            }
        }
        self.state = next;
        ctrl
    }
}

/// Outcome of a full controller-driven self-test/self-repair session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerOutcome {
    /// Rows captured during pass 1, in capture order (deduplicated).
    pub captured_rows: Vec<usize>,
    /// True when pass 2 saw any mismatch — Repair Unsuccessful.
    pub repair_unsuccessful: bool,
    /// Clock cycles consumed.
    pub cycles: u64,
}

/// Cycle-level execution of a control program against a memory.
///
/// The datapath around the controller — ADDGEN, DATAGEN, the comparator
/// and the capture register — is modelled here; the row mapping for pass
/// 2 is provided by the caller (the repair crate's TLB implements
/// [`RowMap`]).
#[derive(Debug)]
pub struct ControllerSim<'a> {
    program: &'a ControlProgram,
    backgrounds: Vec<Word>,
}

impl<'a> ControllerSim<'a> {
    /// Prepares a simulation for a memory of the given word width.
    pub fn new(program: &'a ControlProgram, bpw: usize) -> Self {
        ControllerSim {
            program,
            backgrounds: datagen::backgrounds(bpw),
        }
    }

    /// Runs the program to its `done`/`fail` state. `map` translates rows
    /// while the controller asserts `enable_mapping`; `on_capture` is
    /// invoked for each captured failing row (the TLB load path).
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds a generous cycle budget (runaway
    /// microcode — indicates an assembler bug, only reachable through
    /// internal errors).
    pub fn run(
        &self,
        ram: &mut SramModel,
        map: &dyn RowMap,
        mut on_capture: impl FnMut(usize),
    ) -> ControllerOutcome {
        let words = ram.org().words();
        let bpc = ram.org().bpc();
        let mut addr: usize = 0;
        let mut bg_idx: usize = 0;
        let mut captured: Vec<usize> = Vec::new();
        let mut unrepairable = false;
        let mut cycles: u64 = 0;
        let mut state = 0usize;
        // Generous budget: ops/address × words × backgrounds × passes ×
        // slack.
        let budget: u64 = 64 * (words as u64) * (self.backgrounds.len() as u64) * 2 + 4096;

        loop {
            cycles += 1;
            assert!(cycles < budget, "runaway microprogram");
            let mi = &self.program.instrs()[state];
            let ctrl = mi.ctrl;

            // Datapath actions.
            if ctrl.bg_reset {
                bg_idx = 0;
            }
            if ctrl.addr_load_zero {
                addr = 0;
            }
            if ctrl.addr_load_max {
                addr = words - 1;
            }
            if ctrl.request_delay {
                ram.retention_pause();
            }
            let bg = &self.backgrounds[bg_idx];
            let data = if ctrl.invert { !bg.clone() } else { bg.clone() };
            let row = addr / bpc;
            let col = addr % bpc;
            let phys_row = if ctrl.enable_mapping {
                map.map_row(row)
            } else {
                row
            };
            if ctrl.write {
                ram.write_word_at(phys_row, col, data.clone());
            }
            if ctrl.read {
                let got = ram.read_word_at(phys_row, col);
                if datagen::mismatch(&got, &data) {
                    if ctrl.capture && !captured.contains(&row) {
                        captured.push(row);
                        on_capture(row);
                    }
                    if ctrl.flag_unrepairable {
                        unrepairable = true;
                    }
                }
            }

            // Sequencing.
            let addr_tc = if ctrl.count_down {
                addr == 0
            } else {
                addr == words - 1
            };
            let bg_last = bg_idx + 1 >= self.backgrounds.len();
            let next = match mi.next {
                Next::Step(n) => n,
                Next::IfAddrTc { then, else_ } => {
                    if addr_tc {
                        then
                    } else {
                        // The loop-back edge counts.
                        if ctrl.count_en {
                            if ctrl.count_down {
                                addr -= 1;
                            } else {
                                addr += 1;
                            }
                        }
                        else_
                    }
                }
                Next::IfBgLast { then, else_ } => {
                    if bg_last {
                        then
                    } else {
                        if ctrl.bg_step {
                            bg_idx += 1;
                        }
                        else_
                    }
                }
            };
            if ctrl.done || ctrl.fail {
                return ControllerOutcome {
                    captured_rows: captured,
                    repair_unsuccessful: unrepairable || ctrl.fail,
                    cycles,
                };
            }
            state = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::march;
    use crate::IdentityMap;
    use bisram_mem::{ArrayOrg, Fault, FaultKind};

    #[test]
    fn assembled_program_shape() {
        let p = assemble(&march::ifa9());
        // IFA-9: init + 2 passes × (7 setups + 12 ops + 2 delays + 1 bg
        // check) + pass-2 entry + done + fail = 1 + 44 + 3 = 48.
        assert_eq!(p.state_count(), 48);
        assert_eq!(p.flip_flops(), 6, "fits the paper's 6 flip-flops");
        assert!(p.name().contains("IFA-9"));
    }

    #[test]
    fn pla_synthesis_term_count() {
        let p = assemble(&march::ifa9());
        let pla = p.synthesize_pla();
        // One term per Step state, two per branch state.
        let branches = p
            .instrs()
            .iter()
            .filter(|i| !matches!(i.next, Next::Step(_)))
            .count();
        assert_eq!(pla.terms(), p.state_count() + branches);
        assert_eq!(pla.inputs, 6 + 2);
        assert_eq!(pla.outputs, CONTROL_BITS + 6);
    }

    #[test]
    fn pla_fsm_is_equivalent_to_microcode() {
        let p = assemble(&march::ifa9());
        let pla = p.synthesize_pla();
        let sbits = p.flip_flops() as usize;
        // For every state and condition combination the PLA must produce
        // the interpreter's control word (with the documented gating) and
        // next state.
        for (s, mi) in p.instrs().iter().enumerate() {
            for addr_tc in [false, true] {
                for bg_last in [false, true] {
                    let mut fsm = PlaFsm::new(pla.clone(), sbits);
                    // Force the FSM into state s.
                    fsm.state = s;
                    let ctrl = fsm.step(addr_tc, bg_last);
                    let (expect_ctrl, expect_next) = match mi.next {
                        Next::Step(n) => (mi.ctrl, n),
                        Next::IfAddrTc { then, else_ } => {
                            let mut c = mi.ctrl;
                            if addr_tc {
                                c.count_en = false;
                                (c, then)
                            } else {
                                (c, else_)
                            }
                        }
                        Next::IfBgLast { then, else_ } => {
                            let mut c = mi.ctrl;
                            if bg_last {
                                c.bg_step = false;
                                (c, then)
                            } else {
                                (c, else_)
                            }
                        }
                    };
                    assert_eq!(ctrl, expect_ctrl, "state {s} tc={addr_tc} bg={bg_last}");
                    assert_eq!(fsm.state(), expect_next, "state {s} next");
                }
            }
        }
    }

    #[test]
    fn plane_files_roundtrip() {
        let p = assemble(&march::mats_plus());
        let pla = p.synthesize_pla();
        let (and_s, or_s) = pla.export_planes();
        let back = Pla::import_planes(&and_s, &or_s).expect("roundtrip parses");
        assert_eq!(back, pla);
    }

    #[test]
    fn plane_import_rejects_garbage() {
        assert!(Pla::import_planes("10x\n", "11\n").is_err());
        assert!(Pla::import_planes("10-\n", "1x\n").is_err());
        assert!(Pla::import_planes("10-\n10-\n", "11\n").is_err());
        assert!(Pla::import_planes("10-\n1-\n", "11\n11\n").is_err());
    }

    #[test]
    fn controller_passes_clean_memory() {
        let org = ArrayOrg::new(64, 8, 4, 2).unwrap();
        let mut ram = SramModel::new(org);
        let p = assemble(&march::ifa9());
        let sim = ControllerSim::new(&p, 8);
        let out = sim.run(&mut ram, &IdentityMap, |_| {});
        assert!(!out.repair_unsuccessful);
        assert!(out.captured_rows.is_empty());
        assert!(out.cycles > 0);
    }

    #[test]
    fn controller_captures_faulty_row_in_pass1() {
        let org = ArrayOrg::new(64, 8, 4, 2).unwrap();
        let mut ram = SramModel::new(org);
        ram.inject(Fault::new(org.cell_at(3, 1, 0), FaultKind::StuckAt(true)));
        let p = assemble(&march::ifa9());
        let sim = ControllerSim::new(&p, 8);
        let mut captured_cb = Vec::new();
        let out = sim.run(&mut ram, &IdentityMap, |r| captured_cb.push(r));
        assert_eq!(out.captured_rows, vec![3]);
        assert_eq!(captured_cb, vec![3]);
        // No mapping supplied → pass 2 sees the same fault: unrepaired.
        assert!(out.repair_unsuccessful);
    }

    #[test]
    fn controller_agrees_with_functional_engine() {
        use crate::engine::{run_march, MarchConfig};
        let org = ArrayOrg::new(64, 8, 4, 0).unwrap();
        let fault = Fault::new(org.cell_at(9, 2, 4), FaultKind::TransitionUp);

        let mut m1 = SramModel::new(org);
        m1.inject(fault);
        let functional = run_march(&march::ifa9(), &mut m1, &MarchConfig::default(), None);

        let mut m2 = SramModel::new(org);
        m2.inject(fault);
        let p = assemble(&march::ifa9());
        let out = ControllerSim::new(&p, 8).run(&mut m2, &IdentityMap, |_| {});

        assert_eq!(functional.faulty_rows(), out.captured_rows);
    }

    #[test]
    fn control_word_bits_roundtrip() {
        let c = ControlWord {
            read: true,
            capture: true,
            done: true,
            ..Default::default()
        };
        let bits = c.to_bits();
        assert_eq!(ControlWord::from_bits(&bits), c);
    }
}
