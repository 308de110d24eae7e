//! The instruction-execution engine (scalar part) and the [`Emulator`]
//! front door.

use crate::blockcache::{self, BlockCache, BlockEntry, CacheStats, Cursor, DecodedBlock};
use crate::cpu::{Cpu, PrivMode};
use crate::gmem::GuestMem;
use crate::mmu::{self, Access};
use crate::platform::Platform;
use crate::pmp::Pmp;
use crate::softfp;
use crate::trace::{DynInst, MemAccess};
use crate::vecexec;
use xt_asm::{Program, HALT_ADDR};
use xt_isa::{csr, decode, decode_compressed, ExecClass, Inst, Op};

/// MMIO address: a byte stored here is appended to the console buffer.
pub const CONSOLE_ADDR: u64 = HALT_ADDR + 8;

/// A trap condition raised during execution.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Trap {
    /// RISC-V exception cause code.
    pub cause: u64,
    /// Trap value (faulting address or instruction bits).
    pub tval: u64,
}

/// The error of the emulator's per-instruction execute: a trap was
/// raised, and the [`Trap`] waits in the emulator's trap scratch field
/// until the caller's trap path reads it, straight after the call. Being
/// empty, it keeps the execute's `Result<u64, Raised>` to 16 bytes, which
/// come back in two registers; a `Result<u64, Trap>` is 24 bytes and
/// comes back through memory (docs/FASTPATH.md, "Step driver").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Raised;

/// How one block step ([`Emulator::step_slice`]) ended: the payloads
/// stay where they already are — the records in the caller's slice, the
/// exit code in [`Emulator::halted`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StepStatus {
    /// At least one instruction retired into the caller's records.
    Retired,
    /// The guest has halted; no record was touched.
    Halted,
    /// Cluster mode only: the next instruction is globally visible (an
    /// AMO, LR/SC, or fence) and must wait for the epoch barrier. The PC
    /// did not advance and no record was touched; the instruction
    /// executes on the step after the barrier sets
    /// [`ClusterCtl::release_one`].
    NeedsBarrier,
}

/// One plain-memory store, logged for cross-core propagation at the
/// cluster epoch barrier (MMIO stores — halt, console — are never
/// logged: they are core-local by definition).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StoreRec {
    /// Physical address.
    pub pa: u64,
    /// Value stored (low `size` bytes significant).
    pub val: u64,
    /// Size in bytes (1..=8).
    pub size: u8,
}

/// Cluster-mode hooks on the emulator (see `xt-soc`'s epoch engine).
///
/// While attached, every plain-memory store is appended to `store_log`
/// (the engine drains and applies it to the other cores' memories at
/// each barrier), and, when `gate` is set, the emulator parks in front
/// of globally visible operations — AMOs, LR/SC, fences — retiring
/// nothing ([`TraceSource::fill`](crate::TraceSource::fill) returns 0)
/// until the engine grants one execution via `release_one`. Deferring
/// store visibility to barriers gives each core an unbounded store
/// buffer; serializing the gated ops at the barrier in core-index order
/// keeps AMOs globally atomic. Both are RVWMO-legal (see
/// docs/CLUSTER.md).
#[derive(Clone, Debug, Default)]
pub struct ClusterCtl {
    /// Plain-memory stores since the last drain, in program order.
    pub store_log: Vec<StoreRec>,
    /// Park in front of AMO/LR/SC/fence until released.
    pub gate: bool,
    /// One-shot grant: the next gated instruction may execute.
    pub release_one: bool,
}

/// Operations that must rendezvous at the cluster barrier: all AMOs and
/// LR/SC (`ExecClass::Amo`) plus fences and the sync extension
/// (`ExecClass::Fence`).
fn is_barrier_op(op: Op) -> bool {
    matches!(op.exec_class(), ExecClass::Amo | ExecClass::Fence)
}

/// Fatal simulation errors (as opposed to architectural traps, which are
/// handled by the guest's trap vector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Instruction word failed to decode.
    Decode {
        /// PC of the undecodable word.
        pc: u64,
        /// The raw bits.
        word: u32,
    },
    /// A trap was raised but no trap vector is installed.
    UnhandledTrap {
        /// PC at the trap.
        pc: u64,
        /// Cause code.
        cause: u64,
    },
    /// `run` exhausted its fuel before the program halted.
    OutOfFuel,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Decode { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#x}")
            }
            ExecError::UnhandledTrap { pc, cause } => {
                write!(f, "unhandled trap cause {cause} at pc {pc:#x}")
            }
            ExecError::OutOfFuel => write!(f, "instruction budget exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Functional emulator: one hart plus guest memory.
///
/// See the [crate-level docs](crate) for an example.
#[derive(Debug)]
pub struct Emulator {
    /// Architectural state.
    pub cpu: Cpu,
    /// Guest physical memory.
    pub mem: GuestMem,
    /// Exit code once halted.
    pub halted: Option<u64>,
    /// Bytes written to the console MMIO address.
    pub console: Vec<u8>,
    /// Physical memory protection (paper SII: 8-16 regions).
    pub pmp: Pmp,
    /// Cluster-mode hooks (store logging, barrier gating). `None` for
    /// ordinary single-core use.
    pub cluster: Option<ClusterCtl>,
    /// The MMIO device platform (bus), if attached: device-window
    /// loads/stores route through it, `mtime` ticks per retired
    /// instruction, and its interrupt lines are polled before every
    /// instruction (see [`crate::platform`] and docs/INTERRUPTS.md).
    pub platform: Option<Box<dyn Platform>>,
    /// Decoded-block fast path enabled (default: on; see
    /// [`Emulator::set_fastpath`]).
    fastpath: bool,
    /// The decoded-block cache (see [`crate::blockcache`]).
    icache: BlockCache,
    /// Resumption point inside the block being executed, if any.
    cursor: Option<Cursor>,
    /// Scratch: the trap behind the last [`Raised`], read by the trap
    /// path right after the execute that raised it. Not architectural
    /// state, so not part of any frame.
    trap: Trap,
}

impl Default for Emulator {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `prog` on both engines from fresh emulators: the decoded blocks
/// first, the reference interpreter second. Each loads `prog`, gets
/// `setup` (a device bus, say) and runs at most `max_insts`
/// instructions; the two must end with the same outcome and byte-equal
/// [`Emulator::frame`]s. Every engine differential is this function.
///
/// # Errors
///
/// The first difference: the two outcomes, or where the frames part.
pub fn run_both_engines(
    prog: &Program,
    max_insts: u64,
    setup: impl Fn(&mut Emulator),
) -> Result<[Emulator; 2], String> {
    let mut emus = [true, false].map(|fastpath| {
        let mut emu = Emulator::new();
        emu.set_fastpath(fastpath);
        emu.load(prog);
        setup(&mut emu);
        emu
    });
    let [fast, slow] = &mut emus;
    let (got, want) = (fast.run(max_insts), slow.run(max_insts));
    if got != want {
        return Err(format!(
            "outcome: decoded blocks {got:?}, reference interpreter {want:?}"
        ));
    }
    match xt_snapshot::first_difference(&fast.frame(), &slow.frame()) {
        Some(d) => Err(format!("decoded blocks vs reference interpreter: {d}")),
        None => Ok(emus),
    }
}

impl Emulator {
    /// Creates an emulator with empty memory, on the decoded-block fast
    /// path.
    pub fn new() -> Self {
        Emulator {
            cpu: Cpu::new(0),
            mem: GuestMem::new(),
            halted: None,
            console: Vec::new(),
            pmp: Pmp::new(16),
            cluster: None,
            platform: None,
            fastpath: true,
            icache: BlockCache::new(),
            cursor: None,
            trap: Trap::default(),
        }
    }

    /// The snapshot frame of the architectural state (registers of every
    /// file, CSRs, privilege mode, LR reservation, memory, PMP, halt and
    /// console latches). It holds nothing of the engine, so two engines
    /// that agree produce the same bytes.
    pub fn frame(&mut self) -> Vec<u8> {
        let mut e = xt_snapshot::Enc::new();
        xt_snapshot::SnapshotState::save(self, &mut e);
        e.into_bytes()
    }

    /// Enables or disables the decoded-block fast path (see
    /// [`crate::blockcache`] and docs/FASTPATH.md). Both settings are
    /// architecturally identical; disabling forces the per-step
    /// fetch-decode reference path. Safe mid-run: disabling drops every
    /// cached block.
    pub fn set_fastpath(&mut self, on: bool) {
        if !on {
            self.icache.invalidate_all();
            self.cursor = None;
        }
        self.fastpath = on;
    }

    /// Whether the decoded-block fast path is enabled.
    pub fn fastpath(&self) -> bool {
        self.fastpath
    }

    /// Attaches an MMIO device platform (see [`crate::platform`]).
    pub fn attach_platform(&mut self, p: Box<dyn Platform>) {
        self.platform = Some(p);
    }

    /// Whether physical address `pa` falls in an attached device window.
    pub fn mmio_contains(&self, pa: u64) -> bool {
        self.platform.as_ref().is_some_and(|p| p.contains(pa))
    }

    /// Decoded-block cache hit/miss/invalidation telemetry.
    pub fn cache_stats(&self) -> CacheStats {
        self.icache.stats
    }

    /// Loads a program image and points the PC at its entry.
    ///
    /// Drops every cached decoded block: the image may overwrite pages
    /// that were executed before.
    pub fn load(&mut self, prog: &Program) {
        for (addr, bytes) in prog.load_chunks() {
            self.mem.write_slice(addr, bytes);
        }
        self.icache.invalidate_all();
        self.cursor = None;
        self.cpu.pc = prog.entry;
        // Give the guest a stack well away from text/data.
        self.cpu.wx(2, 0x8f00_0000);
    }

    /// Applies a store that originated outside this hart — the cluster
    /// barrier propagating another core's buffered stores — keeping the
    /// decoded-block cache coherent. Cross-core stores MUST come through
    /// here, not `mem.write_bytes`, or stale blocks would keep executing
    /// overwritten code (see docs/FASTPATH.md).
    /// Returns `false` when a page it touches is left to the shared
    /// [`crate::PublishedPages`] ([`GuestMem::write_held`]).
    pub fn apply_external_store(&mut self, pa: u64, val: u64, size: usize) -> bool {
        if let Some(p) = self.platform.as_mut() {
            if p.contains(pa) {
                // Another core's device store (e.g. an MSIP IPI doorbell)
                // lands on this core's bus replica. A denied width was
                // already faulted on the source core; here it only drops.
                let _ = p.write(pa, val, size);
                return true;
            }
        }
        let landed = self.mem.write_held(pa, val, size);
        if self.fastpath {
            self.icache.invalidate_span(pa, size);
        }
        landed
    }

    /// Runs until halt, returning the exit code.
    ///
    /// When the decoded-block fast path is eligible (and no cluster
    /// hooks are attached), whole cached blocks execute in a batched
    /// inner loop that builds no retired record. The architectural
    /// effect is identical to stepping.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::OutOfFuel`] after `fuel` instructions, or any
    /// fatal decode/trap error.
    pub fn run(&mut self, fuel: u64) -> Result<u64, ExecError> {
        let mut left = fuel;
        let mut rec = DynInst::trap_entry(0, 0);
        while left > 0 {
            if let Some(code) = self.halted {
                return Ok(code);
            }
            if !self.fetch_is_physical() || self.cluster.is_some() {
                let (n, status) = self.step_slice(std::slice::from_mut(&mut rec));
                match status? {
                    StepStatus::Retired => left -= n as u64,
                    StepStatus::Halted => unreachable!("`halted` was checked above"),
                    StepStatus::NeedsBarrier => {
                        unreachable!("Emulator::run is not cluster-aware; clear ClusterCtl::gate")
                    }
                }
                continue;
            }
            left = self.run_block(left)?;
        }
        Err(ExecError::OutOfFuel)
    }

    /// Whether the decoded-block engine may execute the instruction at
    /// the PC: it is enabled, and the fetch is neither translated (Sv39
    /// applies below machine mode only) nor checked (no PMP region), so
    /// `pc == fetch_pa` and the fetch cannot fault.
    #[inline]
    fn fetch_is_physical(&self) -> bool {
        self.fastpath && self.pmp.is_empty() && !self.cpu.translation_on()
    }

    /// Batched fast path for [`Emulator::run`]: executes (up to) one
    /// cached block with `left` fuel remaining, returning the fuel left
    /// over. Caller guarantees eligibility ([`Self::fetch_is_physical`],
    /// no cluster hooks, not halted), so `pc == fetch_pa`. A tight loop
    /// (a branch back to the same block) finds its block in the cache's
    /// jump table like any other edge.
    fn run_block(&mut self, mut left: u64) -> Result<u64, ExecError> {
        let pc0 = self.cpu.pc;
        let (slot, epoch) = match self.icache.lookup(pc0) {
            Some(se) => se,
            None => {
                self.icache.stats.misses += 1;
                match self.build_block(pc0) {
                    Some(se) => se,
                    // undecodable or page-straddling first instruction:
                    // one reference step for the exact error/trap shape
                    None => {
                        let mut rec = DynInst::trap_entry(0, 0);
                        if self.step_slow(&mut rec)? == StepStatus::Retired {
                            left -= 1;
                        }
                        return Ok(left);
                    }
                }
            }
        };
        let len = self.icache.block_len(slot);
        if left >= len as u64 && self.platform.is_none() && !self.icache.block_stores(slot) {
            return self.run_store_free(slot, len, left);
        }
        // The entries are read in place, one copy per instruction. A store
        // inside the block may invalidate the very slot that holds it; no
        // block dies without this counter moving, so while it stands still
        // the slot needs no look.
        let invalidations = self.icache.invalidations();
        let mut pc = pc0;
        let mut executed = 0u64;
        let mut fatal = None;
        for idx in 0..len {
            if left == 0 {
                break;
            }
            // Same delivery point as the step engines: poll before every
            // instruction, not just at block boundaries — a store inside
            // this very block may have raised a line (msip doorbell,
            // mtimecmp crossing), and per-step delivery would preempt the
            // following instruction.
            if self.platform.is_some() && self.poll_interrupt().is_some() {
                left -= 1;
                break;
            }
            let inst = self.icache.entry(slot, idx).inst;
            match self.exec(pc, inst, &mut None) {
                Ok(next_pc) => {
                    self.cpu.instret += 1;
                    if let Some(p) = self.platform.as_mut() {
                        p.tick(1);
                    }
                    left -= 1;
                    executed += 1;
                    pc = next_pc;
                    self.cpu.pc = pc;
                    if self.halted.is_some() {
                        break;
                    }
                    // self-modifying code dropped this block: its entries
                    // are gone, what follows in memory is new bytes
                    if self.icache.invalidations() != invalidations
                        && !self.icache.slot_live(slot, epoch)
                    {
                        break;
                    }
                }
                Err(Raised) => {
                    left -= 1;
                    executed += 1;
                    match self.take_trap(pc, self.trap) {
                        Ok(target) => self.cpu.pc = target,
                        Err(e) => fatal = Some(e),
                    }
                    break;
                }
            }
        }
        self.icache.stats.hits += executed;
        match fatal {
            Some(e) => Err(e),
            None => Ok(left),
        }
    }

    /// [`Self::run_block`] for a block with no entry that may store,
    /// with fuel for all `len` entries and no platform attached. Only
    /// the store path halts the guest or drops a block, and only a
    /// platform raises an interrupt, so no entry needs the halt, the
    /// invalidation or the interrupt check. `instret` and the PC still
    /// move per entry: a CSR read ending the block reads both.
    fn run_store_free(&mut self, slot: u32, len: u32, left: u64) -> Result<u64, ExecError> {
        // nothing here reaches the block cache: its entries can be lent out
        let entries = self.icache.lend(slot);
        let mut pc = self.cpu.pc;
        let mut done = Ok(());
        for (idx, e) in entries.iter().enumerate() {
            match self.exec(pc, e.inst, &mut None) {
                Ok(next_pc) => {
                    self.cpu.instret += 1;
                    pc = next_pc;
                    self.cpu.pc = pc;
                }
                Err(Raised) => {
                    done = Err((idx as u64 + 1, pc, self.trap));
                    break;
                }
            }
        }
        self.icache.give_back(slot, entries);
        match done {
            Ok(()) => {
                self.icache.stats.hits += len as u64;
                Ok(left - len as u64)
            }
            Err((executed, pc, trap)) => {
                self.icache.stats.hits += executed;
                self.cpu.pc = self.take_trap(pc, trap)?;
                Ok(left - executed)
            }
        }
    }

    fn translate(&mut self, va: u64, access: Access) -> Result<u64, Trap> {
        let pa = if !self.cpu.translation_on() {
            va
        } else {
            let root = csr::satp::ppn(self.cpu.satp());
            mmu::walk(&mut self.mem, root, va, access)
                .map(|t| t.pa)
                .map_err(|f| Trap {
                    cause: f.cause(),
                    tval: f.va,
                })?
        };
        // PMP check on the physical address (access faults 1/5/7)
        if !self.pmp.is_empty()
            && !self
                .pmp
                .check(pa, access, self.cpu.mode == PrivMode::Machine)
        {
            return Err(Trap {
                cause: match access {
                    Access::Fetch => 1,
                    Access::Load => 5,
                    Access::Store => 7,
                },
                tval: va,
            });
        }
        Ok(pa)
    }

    /// Loads `size` bytes from virtual address `va`, handling MMIO.
    fn load_mem(&mut self, va: u64, size: usize) -> Result<(u64, u64), Trap> {
        let pa = self.translate(va, Access::Load)?;
        if let Some(p) = self.platform.as_mut() {
            if p.contains(pa) {
                // Denied device reads (bad width, unmapped hole) raise a
                // load access fault; the bus records the diagnostic.
                let v = p.read(pa, size).map_err(|_| Trap { cause: 5, tval: va })?;
                return Ok((v, pa));
            }
        }
        Ok((self.mem.read_bytes(pa, size), pa))
    }

    /// Stores `size` bytes to virtual address `va`, handling MMIO.
    fn store_mem(&mut self, va: u64, val: u64, size: usize) -> Result<u64, Trap> {
        let pa = self.translate(va, Access::Store)?;
        if pa == HALT_ADDR {
            self.halted = Some(val);
            return Ok(pa);
        }
        if pa == CONSOLE_ADDR {
            self.console.push(val as u8);
            return Ok(pa);
        }
        if let Some(p) = self.platform.as_mut() {
            if p.contains(pa) {
                p.write(pa, val, size)
                    .map_err(|_| Trap { cause: 7, tval: va })?;
                // Device stores are logged like plain stores so the
                // cluster barrier forwards them to the other cores' bus
                // replicas — that is the MSIP IPI delivery path.
                if let Some(ctl) = self.cluster.as_mut() {
                    ctl.store_log.push(StoreRec {
                        pa,
                        val,
                        size: size as u8,
                    });
                }
                return Ok(pa);
            }
        }
        self.mem.write_bytes(pa, val, size);
        // Store-to-code: drop any decoded blocks on the touched page(s)
        // so the next fetch re-decodes the new bytes — this is what
        // keeps the fast path byte-identical to per-step decode, which
        // sees self-modifying code immediately.
        if self.fastpath {
            self.icache.invalidate_span(pa, size);
        }
        if let Some(ctl) = self.cluster.as_mut() {
            ctl.store_log.push(StoreRec {
                pa,
                val,
                size: size as u8,
            });
        }
        Ok(pa)
    }

    /// Pushes the M-mode interrupt-enable stack on trap entry
    /// (privileged spec §3.1.6.1): `MPIE <- MIE`, `MIE <- 0`,
    /// `MPP <- `interrupted mode. Must run *before* the mode switch.
    fn push_mstatus_stack(&mut self) {
        let mut mstatus = self.cpu.read_csr(csr::MSTATUS);
        mstatus &= !(csr::mstatus::MPIE | csr::mstatus::MPP_MASK);
        if mstatus & csr::mstatus::MIE != 0 {
            mstatus |= csr::mstatus::MPIE;
        }
        mstatus &= !csr::mstatus::MIE;
        mstatus |= (self.cpu.mode as u64) << csr::mstatus::MPP_SHIFT;
        self.cpu.write_csr(csr::MSTATUS, mstatus);
    }

    fn take_trap(&mut self, pc: u64, trap: Trap) -> Result<u64, ExecError> {
        let mtvec = self.cpu.read_csr(csr::MTVEC);
        if mtvec == 0 {
            return Err(ExecError::UnhandledTrap {
                pc,
                cause: trap.cause,
            });
        }
        self.cpu.write_csr(csr::MEPC, pc);
        self.cpu.write_csr(csr::MCAUSE, trap.cause);
        self.cpu.write_csr(csr::MTVAL, trap.tval);
        self.push_mstatus_stack();
        self.cpu.mode = PrivMode::Machine;
        // Synchronous exceptions always enter at the vector base; only
        // interrupts steer by cause in vectored mode (§3.1.7).
        Ok(csr::mtvec::base(mtvec))
    }

    /// Delivers the pending interrupt `cause` (the `mip` bit number)
    /// before the instruction at `pc` executes: `mepc` gets the first
    /// unexecuted instruction, `mcause` the interrupt bit plus cause,
    /// and vectored `mtvec` steers to `base + 4*cause`.
    fn take_interrupt(&mut self, pc: u64, cause: u64) -> u64 {
        self.cpu.write_csr(csr::MEPC, pc);
        self.cpu.write_csr(csr::MCAUSE, csr::mcause::INTERRUPT | cause);
        self.cpu.write_csr(csr::MTVAL, 0);
        self.push_mstatus_stack();
        self.cpu.mode = PrivMode::Machine;
        let mtvec = self.cpu.read_csr(csr::MTVEC);
        if csr::mtvec::mode(mtvec) == csr::mtvec::MODE_VECTORED {
            csr::mtvec::base(mtvec) + 4 * cause
        } else {
            csr::mtvec::base(mtvec)
        }
    }

    /// The highest-priority deliverable machine interrupt, if any:
    /// `mip & mie` gated by `mstatus.MIE` in M-mode (interrupts to a
    /// higher privilege are always deliverable from U/S — no delegation
    /// is modeled), priority MEI > MSI > MTI (§3.1.9). Requires an
    /// installed `mtvec` — without a vector nothing is deliverable.
    fn pending_interrupt(&self) -> Option<u64> {
        let p = self.platform.as_ref()?;
        let mip = p.irq_lines(self.cpu.hart_id).as_mip();
        if mip == 0 {
            return None;
        }
        let ready = mip & self.cpu.read_csr(csr::MIE);
        if ready == 0 {
            return None;
        }
        if self.cpu.mode == PrivMode::Machine
            && self.cpu.read_csr(csr::MSTATUS) & csr::mstatus::MIE == 0
        {
            return None;
        }
        if self.cpu.read_csr(csr::MTVEC) == 0 {
            return None;
        }
        [csr::irq::MEI, csr::irq::MSI, csr::irq::MTI]
            .into_iter()
            .find(|&cause| ready & (1 << cause) != 0)
    }

    /// Polls the attached platform and, when an interrupt is
    /// deliverable, redirects the PC to the handler and returns the
    /// trap-entry record (`trapped` set, no instret increment). Runs
    /// before *every* instruction on both execution engines, which is
    /// what keeps the fast path bit-identical to per-step delivery
    /// (docs/INTERRUPTS.md).
    fn poll_interrupt(&mut self) -> Option<DynInst> {
        let cause = self.pending_interrupt()?;
        let pc = self.cpu.pc;
        let target = self.take_interrupt(pc, cause);
        self.cpu.pc = target;
        self.cursor = None;
        Some(DynInst::trap_entry(pc, target))
    }

    /// Retires instructions into the caller's non-empty `recs`, front
    /// first, and returns how many it wrote with how the call ended.
    ///
    /// Dispatches to the decoded-block fast path when it is enabled and
    /// the step is eligible (instruction fetch untranslated — machine
    /// mode, or bare `satp` — and no PMP regions configured); otherwise takes
    /// the per-step fetch-decode reference path. Both paths produce
    /// bit-identical architectural state, retired records and traps. The
    /// fast path retires the rest of the current block, up to the slice's
    /// length, when neither a platform nor cluster hooks are attached;
    /// every other step retires one record. `Ok(Retired)` comes with at
    /// least one record, `Ok(Halted)` and `Ok(NeedsBarrier)` with none,
    /// and a fatal error with the records retired before it.
    ///
    /// Forced inline, with the cached step under it, so that
    /// [`TraceSource::fill`](crate::TraceSource::fill) branches on the
    /// status instead of reading a 32-byte return value back from
    /// memory: left to the compiler, it stayed a call under `fill`, and
    /// a one-record pull took a quarter longer a record.
    #[inline(always)]
    pub(crate) fn step_slice(
        &mut self,
        recs: &mut [DynInst],
    ) -> (usize, Result<StepStatus, ExecError>) {
        if self.halted.is_some() {
            return (0, Ok(StepStatus::Halted));
        }
        if self.fetch_is_physical() {
            if let Some(done) = self.step_cached(recs) {
                return done;
            }
        }
        let status = self.step_slow(&mut recs[0]);
        (usize::from(status == Ok(StepStatus::Retired)), status)
    }

    /// The decoded-block fast path. Eligibility (untranslated fetch, no
    /// PMP) was checked by [`Emulator::step_slice`], so `pc == fetch_pa`
    /// and the fetch can neither fault nor be translated.
    ///
    /// It resumes at the cursor or looks the block up (building it on a
    /// miss), then retires entries into `recs` until the block ends, an
    /// entry traps, halts the guest, leaves the block or drops it (a
    /// store over its own code), a cluster gate parks it, or `recs` is
    /// full. Each of those is where the one-record step would next miss
    /// its cursor or stop, so the cache sees the same lookups, builds
    /// and hits whatever the slice's length. `None` when the first
    /// instruction at the PC is undecodable or straddles the page: the
    /// caller takes one reference step for the exact error or trap.
    #[inline(always)]
    fn step_cached(
        &mut self,
        recs: &mut [DynInst],
    ) -> Option<(usize, Result<StepStatus, ExecError>)> {
        if self.platform.is_some() {
            if let Some(d) = self.poll_interrupt() {
                recs[0] = d;
                return Some((1, Ok(StepStatus::Retired)));
            }
        }
        let mut pc = self.cpu.pc;
        // Cursor hit: the previous call retired entry `idx-1` of this
        // block and fell through. Validity is address + epoch based, so
        // branches out of the block and invalidations both miss here.
        let (slot, epoch, mut idx) = match self.cursor {
            Some(c) if c.next_va == pc && self.icache.slot_live(c.slot, c.epoch) => {
                (c.slot, c.epoch, c.idx)
            }
            _ => match self.icache.lookup(pc) {
                Some((slot, epoch)) => (slot, epoch, 0),
                None => {
                    self.icache.stats.misses += 1;
                    match self.build_block(pc) {
                        Some((slot, epoch)) => (slot, epoch, 0),
                        None => {
                            self.cursor = None;
                            return None;
                        }
                    }
                }
            },
        };
        self.cursor = None;
        // A platform polls and ticks, and a cluster core must not run
        // ahead of its gate: one record per call for both.
        let cap = if self.platform.is_none() && self.cluster.is_none() {
            recs.len()
        } else {
            1
        };
        let len = self.icache.block_len(slot);
        // As in `run_block`: no block dies without this counter moving.
        let invalidations = self.icache.invalidations();
        let mut n = 0;
        loop {
            let BlockEntry { inst, barrier } = self.icache.entry(slot, idx);
            // Cluster gating, identical to the reference path but on the
            // precomputed flag. The cursor is parked *at* the gated entry:
            // the PC does not advance, and the post-release step re-enters
            // the block right here. After a record, the next call parks.
            if barrier && self.gated() {
                if n == 0 {
                    self.icache.stats.hits += 1;
                    self.cursor = Some(Cursor {
                        slot,
                        epoch,
                        idx,
                        next_va: pc,
                    });
                    return Some((0, Ok(StepStatus::NeedsBarrier)));
                }
                break;
            }
            let rec = &mut recs[n];
            let done = self.exec(pc, inst, &mut rec.mem);
            if let Err(e) = self.retire(rec, pc, pc, inst, done) {
                self.icache.stats.hits += n as u64 + 1;
                return Some((n, Err(e)));
            }
            n += 1;
            idx += 1;
            pc = pc.wrapping_add(inst.len as u64);
            if rec.trapped
                || rec.next_pc != pc
                || idx == len
                || n == cap
                || self.halted.is_some()
                || (self.icache.invalidations() != invalidations
                    && !self.icache.slot_live(slot, epoch))
            {
                break;
            }
        }
        self.icache.stats.hits += n as u64;
        // Fall-through entries re-arm the cursor; block ends (and
        // mid-block stores that bumped the epoch) resolve on the next
        // call's validity check. A call that breaks retired a record.
        if idx < len && !recs[n - 1].trapped {
            self.cursor = Some(Cursor {
                slot,
                epoch,
                idx,
                next_va: pc,
            });
        }
        Some((n, Ok(StepStatus::Retired)))
    }

    /// Whether cluster gating parks the core in front of a globally
    /// visible entry; a pending one-shot grant is used up instead.
    #[inline]
    fn gated(&mut self) -> bool {
        match self.cluster.as_mut() {
            Some(ctl) if ctl.gate => !std::mem::take(&mut ctl.release_one),
            _ => false,
        }
    }

    /// Commits what [`Emulator::exec`] returned for `inst` and finishes
    /// the retired record: `exec` wrote `rec.mem`, every other field is
    /// written here, so nothing of the record's previous occupant (a
    /// vector op's `vl`, a trap's `trapped`) survives.
    #[inline(always)]
    fn retire(
        &mut self,
        rec: &mut DynInst,
        pc: u64,
        fetch_pa: u64,
        inst: Inst,
        done: Result<u64, Raised>,
    ) -> Result<(), ExecError> {
        match done {
            Ok(next_pc) => {
                self.cpu.instret += 1;
                if let Some(p) = self.platform.as_mut() {
                    p.tick(1);
                }
                self.cpu.pc = next_pc;
                rec.pc = pc;
                rec.fetch_pa = fetch_pa;
                rec.inst = inst;
                rec.next_pc = next_pc;
                rec.trapped = false;
                (rec.vl, rec.sew_bits) = if inst.op.is_vector() {
                    let vl = self.cpu.vl.min(u16::MAX as u64) as u16;
                    (vl, self.cpu.vtype.sew.bits() as u8)
                } else {
                    (0, 0)
                };
            }
            Err(Raised) => {
                let target = self.take_trap(pc, self.trap)?;
                self.cpu.pc = target;
                *rec = DynInst {
                    fetch_pa,
                    ..DynInst::trapping(pc, inst, target)
                };
            }
        }
        Ok(())
    }

    /// Lowers the straight-line run starting at `pa` into a cached
    /// [`DecodedBlock`]. Returns `None` when the first instruction does
    /// not decode or straddles the page end (those execute via the
    /// reference path, one step at a time).
    fn build_block(&mut self, pa: u64) -> Option<(u32, u64)> {
        // last byte of the page (`+ 1` would overflow on the top page)
        let last = pa | (blockcache::PAGE_SIZE - 1);
        let mut entries = Vec::new();
        let mut stores = false;
        let mut addr = pa;
        loop {
            let lo = self.mem.read_u16(addr);
            let inst = if lo & 3 == 3 {
                if last - addr < 3 {
                    // 4-byte instruction straddling the page: never
                    // cached (its tail lives on a page this block's
                    // invalidation would not cover).
                    break;
                }
                match decode(self.mem.read_u32(addr)) {
                    Ok(i) => i,
                    Err(_) => break,
                }
            } else {
                match decode_compressed(lo) {
                    Ok(i) => i,
                    Err(_) => break,
                }
            };
            stores |= blockcache::stores(inst.op);
            entries.push(BlockEntry {
                inst,
                barrier: is_barrier_op(inst.op),
            });
            if blockcache::ends_block(inst.op) || last - addr < inst.len as u64 {
                break;
            }
            addr += inst.len as u64;
        }
        if entries.is_empty() {
            return None;
        }
        Some(self.icache.insert(DecodedBlock {
            base_pa: pa,
            entries,
            stores,
        }))
    }

    /// The per-step fetch-translate-decode reference path (the seed
    /// interpreter, unchanged) — also the differential oracle the fast
    /// path is tested against.
    fn step_slow(&mut self, rec: &mut DynInst) -> Result<StepStatus, ExecError> {
        if self.platform.is_some() {
            if let Some(d) = self.poll_interrupt() {
                *rec = d;
                return Ok(StepStatus::Retired);
            }
        }
        let pc = self.cpu.pc;
        let fetch_pa = match self.translate(pc, Access::Fetch) {
            Ok(pa) => pa,
            Err(trap) => {
                let target = self.take_trap(pc, trap)?;
                self.cpu.pc = target;
                *rec = DynInst::trap_entry(pc, target);
                return Ok(StepStatus::Retired);
            }
        };
        let lo = self.mem.read_u16(fetch_pa);
        let inst = if lo & 3 == 3 {
            let word = self.mem.read_u32(fetch_pa);
            decode(word).map_err(|_| ExecError::Decode { pc, word })?
        } else {
            decode_compressed(lo).map_err(|_| ExecError::Decode {
                pc,
                word: lo as u32,
            })?
        };
        // Cluster gating: globally visible ops wait for the epoch barrier.
        if is_barrier_op(inst.op) && self.gated() {
            return Ok(StepStatus::NeedsBarrier);
        }
        let done = self.exec(pc, inst, &mut rec.mem);
        self.retire(rec, pc, fetch_pa, inst, done)?;
        Ok(StepStatus::Retired)
    }

    /// Stores `trap` in the trap scratch field for the caller's trap path.
    pub(crate) fn raise(&mut self, trap: Trap) -> Raised {
        self.trap = trap;
        Raised
    }

    /// Executes a decoded instruction at `pc`; returns the architectural
    /// next PC and writes the data access it made (or `None`) to `mem`,
    /// which the step bodies point at the caller's record. A trap comes
    /// back as [`Raised`], the trap itself in `self.trap`. One body for
    /// both engines, kept out of line: its callers are the engines'
    /// loops, and what it returns fits in two registers.
    #[inline(never)]
    fn exec(&mut self, pc: u64, inst: Inst, mem: &mut Option<MemAccess>) -> Result<u64, Raised> {
        use Op::*;

        let step = pc.wrapping_add(inst.len as u64);
        let rs1 = self.cpu.rx(inst.rs1);
        let rs2 = self.cpu.rx(inst.rs2);
        let imm = inst.imm;
        let mut next = step;
        *mem = None;

        macro_rules! wd {
            ($v:expr) => {{
                let v = $v;
                self.cpu.wx(inst.rd, v)
            }};
        }
        macro_rules! load {
            ($va:expr, $n:expr, $sext:expr) => {{
                let va = $va;
                let (raw, pa) = self.load_mem(va, $n).map_err(|t| self.raise(t))?;
                *mem = Some(MemAccess::load(va, pa, $n as u16));
                if $sext {
                    let sh = 64 - 8 * $n as u32;
                    (((raw as i64) << sh) >> sh) as u64
                } else {
                    raw
                }
            }};
        }
        macro_rules! store {
            ($va:expr, $v:expr, $n:expr) => {{
                let va = $va;
                let v = $v;
                let pa = self.store_mem(va, v, $n).map_err(|t| self.raise(t))?;
                *mem = Some(MemAccess::store(va, pa, $n as u16));
            }};
        }

        match inst.op {
            Lui => wd!(imm as u64),
            Auipc => wd!(pc.wrapping_add(imm as u64)),
            Jal => {
                wd!(step);
                next = pc.wrapping_add(imm as u64);
            }
            Jalr => {
                let target = rs1.wrapping_add(imm as u64) & !1;
                wd!(step);
                next = target;
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let taken = match inst.op {
                    Beq => rs1 == rs2,
                    Bne => rs1 != rs2,
                    Blt => (rs1 as i64) < (rs2 as i64),
                    Bge => (rs1 as i64) >= (rs2 as i64),
                    Bltu => rs1 < rs2,
                    _ => rs1 >= rs2,
                };
                if taken {
                    next = pc.wrapping_add(imm as u64);
                }
            }
            Lb => wd!(load!(rs1.wrapping_add(imm as u64), 1, true)),
            Lh => wd!(load!(rs1.wrapping_add(imm as u64), 2, true)),
            Lw => wd!(load!(rs1.wrapping_add(imm as u64), 4, true)),
            Ld => wd!(load!(rs1.wrapping_add(imm as u64), 8, false)),
            Lbu => wd!(load!(rs1.wrapping_add(imm as u64), 1, false)),
            Lhu => wd!(load!(rs1.wrapping_add(imm as u64), 2, false)),
            Lwu => wd!(load!(rs1.wrapping_add(imm as u64), 4, false)),
            Sb => store!(rs1.wrapping_add(imm as u64), rs2, 1),
            Sh => store!(rs1.wrapping_add(imm as u64), rs2, 2),
            Sw => store!(rs1.wrapping_add(imm as u64), rs2, 4),
            Sd => store!(rs1.wrapping_add(imm as u64), rs2, 8),
            Addi => wd!(rs1.wrapping_add(imm as u64)),
            Slti => wd!(((rs1 as i64) < imm) as u64),
            Sltiu => wd!((rs1 < imm as u64) as u64),
            Xori => wd!(rs1 ^ imm as u64),
            Ori => wd!(rs1 | imm as u64),
            Andi => wd!(rs1 & imm as u64),
            Slli => wd!(rs1 << (imm & 63)),
            Srli => wd!(rs1 >> (imm & 63)),
            Srai => wd!(((rs1 as i64) >> (imm & 63)) as u64),
            Add => wd!(rs1.wrapping_add(rs2)),
            Sub => wd!(rs1.wrapping_sub(rs2)),
            Sll => wd!(rs1 << (rs2 & 63)),
            Slt => wd!(((rs1 as i64) < (rs2 as i64)) as u64),
            Sltu => wd!((rs1 < rs2) as u64),
            Xor => wd!(rs1 ^ rs2),
            Srl => wd!(rs1 >> (rs2 & 63)),
            Sra => wd!(((rs1 as i64) >> (rs2 & 63)) as u64),
            Or => wd!(rs1 | rs2),
            And => wd!(rs1 & rs2),
            Fence | FenceI | SfenceVma | XSync => {}
            Ecall => {
                let cause = match self.cpu.mode {
                    PrivMode::User => 8,
                    PrivMode::Supervisor => 9,
                    PrivMode::Machine => 11,
                };
                return Err(self.raise(Trap { cause, tval: 0 }));
            }
            Ebreak => return Err(self.raise(Trap { cause: 3, tval: pc })),
            Addiw => wd!(sext32(rs1.wrapping_add(imm as u64))),
            Slliw => wd!(sext32(rs1 << (imm & 31))),
            Srliw => wd!(sext32(((rs1 as u32) >> (imm & 31)) as u64)),
            Sraiw => wd!((((rs1 as i32) >> (imm & 31)) as i64) as u64),
            Addw => wd!(sext32(rs1.wrapping_add(rs2))),
            Subw => wd!(sext32(rs1.wrapping_sub(rs2))),
            Sllw => wd!(sext32(rs1 << (rs2 & 31))),
            Srlw => wd!(sext32(((rs1 as u32) >> (rs2 & 31)) as u64)),
            Sraw => wd!((((rs1 as i32) >> (rs2 & 31)) as i64) as u64),
            Mul => wd!(rs1.wrapping_mul(rs2)),
            Mulh => wd!((((rs1 as i64 as i128) * (rs2 as i64 as i128)) >> 64) as u64),
            Mulhsu => wd!((((rs1 as i64 as i128) * (rs2 as u128 as i128)) >> 64) as u64),
            Mulhu => wd!((((rs1 as u128) * (rs2 as u128)) >> 64) as u64),
            Div => wd!(div_s(rs1 as i64, rs2 as i64) as u64),
            Divu => wd!(rs1.checked_div(rs2).unwrap_or(u64::MAX)),
            Rem => wd!(rem_s(rs1 as i64, rs2 as i64) as u64),
            Remu => wd!(if rs2 == 0 { rs1 } else { rs1 % rs2 }),
            Mulw => wd!(sext32(rs1.wrapping_mul(rs2))),
            Divw => wd!(div_s(rs1 as i32 as i64, rs2 as i32 as i64) as i32 as i64 as u64),
            Divuw => {
                let (a, b) = (rs1 as u32, rs2 as u32);
                wd!(match a.checked_div(b) {
                    Some(q) => q as i32 as i64 as u64,
                    None => u64::MAX,
                })
            }
            Remw => wd!(rem_s(rs1 as i32 as i64, rs2 as i32 as i64) as i32 as i64 as u64),
            Remuw => {
                let (a, b) = (rs1 as u32, rs2 as u32);
                wd!(if b == 0 {
                    rs1 as i32 as i64 as u64
                } else {
                    (a % b) as i32 as i64 as u64
                })
            }
            LrW => {
                check_aligned(rs1, 4, CAUSE_LOAD_MISALIGNED).map_err(|t| self.raise(t))?;
                let v = load!(rs1, 4, true);
                self.cpu.reservation = Some(rs1);
                wd!(v);
            }
            LrD => {
                check_aligned(rs1, 8, CAUSE_LOAD_MISALIGNED).map_err(|t| self.raise(t))?;
                let v = load!(rs1, 8, false);
                self.cpu.reservation = Some(rs1);
                wd!(v);
            }
            ScW | ScD => {
                let size = if inst.op == ScW { 4 } else { 8 };
                check_aligned(rs1, size, CAUSE_STORE_MISALIGNED).map_err(|t| self.raise(t))?;
                if self.cpu.reservation == Some(rs1) {
                    store!(rs1, rs2, size as usize);
                    self.cpu.reservation = None;
                    wd!(0);
                } else {
                    wd!(1);
                }
            }
            AmoSwapW | AmoAddW | AmoXorW | AmoAndW | AmoOrW | AmoMinW | AmoMaxW | AmoMinuW
            | AmoMaxuW => {
                check_aligned(rs1, 4, CAUSE_STORE_MISALIGNED).map_err(|t| self.raise(t))?;
                let old = {
                    let (raw, _pa) = self.load_mem(rs1, 4).map_err(|t| self.raise(t))?;
                    sext32(raw)
                };
                let new = amo_op(inst.op, old, rs2, true);
                store!(rs1, new, 4);
                wd!(old);
            }
            AmoSwapD | AmoAddD | AmoXorD | AmoAndD | AmoOrD | AmoMinD | AmoMaxD | AmoMinuD
            | AmoMaxuD => {
                check_aligned(rs1, 8, CAUSE_STORE_MISALIGNED).map_err(|t| self.raise(t))?;
                let old = {
                    let (raw, _pa) = self.load_mem(rs1, 8).map_err(|t| self.raise(t))?;
                    raw
                };
                let new = amo_op(inst.op, old, rs2, false);
                store!(rs1, new, 8);
                wd!(old);
            }
            // ---- F/D ----
            Flw => {
                let v = load!(rs1.wrapping_add(imm as u64), 4, false);
                self.cpu.wf(inst.rd, 0xffff_ffff_0000_0000 | v);
            }
            Fld => {
                let v = load!(rs1.wrapping_add(imm as u64), 8, false);
                self.cpu.wf(inst.rd, v);
            }
            Fsw => store!(rs1.wrapping_add(imm as u64), self.cpu.rf(inst.rs2) & 0xffff_ffff, 4),
            Fsd => store!(rs1.wrapping_add(imm as u64), self.cpu.rf(inst.rs2), 8),
            FmaddS | FmsubS | FnmsubS | FnmaddS => {
                let (a, b, d) = (self.cpu.rf_s(inst.rs1), self.cpu.rf_s(inst.rs2), self.cpu.rf_s(inst.rs3));
                let v = match inst.op {
                    FmaddS => a.mul_add(b, d),
                    FmsubS => a.mul_add(b, -d),
                    FnmsubS => (-a).mul_add(b, d),
                    _ => (-a).mul_add(b, -d),
                };
                self.cpu.wf_s(inst.rd, v);
            }
            FmaddD | FmsubD | FnmsubD | FnmaddD => {
                let (a, b, d) = (self.cpu.rf_d(inst.rs1), self.cpu.rf_d(inst.rs2), self.cpu.rf_d(inst.rs3));
                let v = match inst.op {
                    FmaddD => a.mul_add(b, d),
                    FmsubD => a.mul_add(b, -d),
                    FnmsubD => (-a).mul_add(b, d),
                    _ => (-a).mul_add(b, -d),
                };
                self.cpu.wf_d(inst.rd, v);
            }
            FaddS | FsubS | FmulS | FdivS => {
                let (a, b) = (self.cpu.rf_s(inst.rs1), self.cpu.rf_s(inst.rs2));
                let v = match inst.op {
                    FaddS => a + b,
                    FsubS => a - b,
                    FmulS => a * b,
                    _ => a / b,
                };
                self.cpu.wf_s(inst.rd, v);
            }
            FminS | FmaxS => {
                // IEEE minimumNumber/maximumNumber on raw bits (softfp):
                // canonical NaN, NV on signaling NaN, -0.0 < +0.0
                let (a, b) = (self.cpu.rf(inst.rs1) as u32, self.cpu.rf(inst.rs2) as u32);
                let mut fflags = 0;
                let v = softfp::minmax_f32(a, b, inst.op == FmaxS, &mut fflags);
                self.cpu.set_fflags(fflags);
                self.cpu.wf(inst.rd, 0xffff_ffff_0000_0000 | v as u64);
            }
            FaddD | FsubD | FmulD | FdivD => {
                let (a, b) = (self.cpu.rf_d(inst.rs1), self.cpu.rf_d(inst.rs2));
                let v = match inst.op {
                    FaddD => a + b,
                    FsubD => a - b,
                    FmulD => a * b,
                    _ => a / b,
                };
                self.cpu.wf_d(inst.rd, v);
            }
            FminD | FmaxD => {
                let (a, b) = (self.cpu.rf(inst.rs1), self.cpu.rf(inst.rs2));
                let mut fflags = 0;
                let v = softfp::minmax_f64(a, b, inst.op == FmaxD, &mut fflags);
                self.cpu.set_fflags(fflags);
                self.cpu.wf(inst.rd, v);
            }
            FsqrtS => {
                let v = self.cpu.rf_s(inst.rs1).sqrt();
                self.cpu.wf_s(inst.rd, v);
            }
            FsqrtD => {
                let v = self.cpu.rf_d(inst.rs1).sqrt();
                self.cpu.wf_d(inst.rd, v);
            }
            FsgnjS | FsgnjnS | FsgnjxS => {
                let (a, b) = (self.cpu.rf(inst.rs1) as u32, self.cpu.rf(inst.rs2) as u32);
                let sign = match inst.op {
                    FsgnjS => b & 0x8000_0000,
                    FsgnjnS => !b & 0x8000_0000,
                    _ => (a ^ b) & 0x8000_0000,
                };
                self.cpu
                    .wf(inst.rd, 0xffff_ffff_0000_0000 | ((a & 0x7fff_ffff) | sign) as u64);
            }
            FsgnjD | FsgnjnD | FsgnjxD => {
                let (a, b) = (self.cpu.rf(inst.rs1), self.cpu.rf(inst.rs2));
                let sign = match inst.op {
                    FsgnjD => b & (1 << 63),
                    FsgnjnD => !b & (1 << 63),
                    _ => (a ^ b) & (1 << 63),
                };
                self.cpu.wf(inst.rd, (a & !(1 << 63)) | sign);
            }
            FeqS | FltS | FleS => {
                let (a, b) = (self.cpu.rf_s(inst.rs1), self.cpu.rf_s(inst.rs2));
                let v = match inst.op {
                    FeqS => a == b,
                    FltS => a < b,
                    _ => a <= b,
                };
                wd!(v as u64);
            }
            FeqD | FltD | FleD => {
                let (a, b) = (self.cpu.rf_d(inst.rs1), self.cpu.rf_d(inst.rs2));
                let v = match inst.op {
                    FeqD => a == b,
                    FltD => a < b,
                    _ => a <= b,
                };
                wd!(v as u64);
            }
            FclassS => wd!(fclass(self.cpu.rf_s(inst.rs1) as f64, self.cpu.rf(inst.rs1) as u32 as u64, 31)),
            FclassD => wd!(fclass(self.cpu.rf_d(inst.rs1), self.cpu.rf(inst.rs1), 63)),
            FcvtWS => wd!(cvt_f2i(self.cpu.rf_s(inst.rs1) as f64, i32::MIN as i64, i32::MAX as i64) as i32 as i64 as u64),
            FcvtWuS => wd!(cvt_f2u(self.cpu.rf_s(inst.rs1) as f64, u32::MAX as u64) as i32 as i64 as u64),
            FcvtLS => wd!(cvt_f2i(self.cpu.rf_s(inst.rs1) as f64, i64::MIN, i64::MAX) as u64),
            FcvtLuS => wd!(cvt_f2u(self.cpu.rf_s(inst.rs1) as f64, u64::MAX)),
            FcvtWD => wd!(cvt_f2i(self.cpu.rf_d(inst.rs1), i32::MIN as i64, i32::MAX as i64) as i32 as i64 as u64),
            FcvtWuD => wd!(cvt_f2u(self.cpu.rf_d(inst.rs1), u32::MAX as u64) as i32 as i64 as u64),
            FcvtLD => wd!(cvt_f2i(self.cpu.rf_d(inst.rs1), i64::MIN, i64::MAX) as u64),
            FcvtLuD => wd!(cvt_f2u(self.cpu.rf_d(inst.rs1), u64::MAX)),
            FcvtSW => {
                let v = rs1 as i32 as f32;
                self.cpu.wf_s(inst.rd, v);
            }
            FcvtSWu => {
                let v = rs1 as u32 as f32;
                self.cpu.wf_s(inst.rd, v);
            }
            FcvtSL => {
                let v = rs1 as i64 as f32;
                self.cpu.wf_s(inst.rd, v);
            }
            FcvtSLu => {
                let v = rs1 as f32;
                self.cpu.wf_s(inst.rd, v);
            }
            FcvtDW => {
                let v = rs1 as i32 as f64;
                self.cpu.wf_d(inst.rd, v);
            }
            FcvtDWu => {
                let v = rs1 as u32 as f64;
                self.cpu.wf_d(inst.rd, v);
            }
            FcvtDL => {
                let v = rs1 as i64 as f64;
                self.cpu.wf_d(inst.rd, v);
            }
            FcvtDLu => {
                let v = rs1 as f64;
                self.cpu.wf_d(inst.rd, v);
            }
            FcvtSD => {
                let v = self.cpu.rf_d(inst.rs1) as f32;
                self.cpu.wf_s(inst.rd, v);
            }
            FcvtDS => {
                let v = self.cpu.rf_s(inst.rs1) as f64;
                self.cpu.wf_d(inst.rd, v);
            }
            FmvXW => wd!(self.cpu.rf(inst.rs1) as u32 as i32 as i64 as u64),
            FmvWX => {
                let bits = 0xffff_ffff_0000_0000 | (rs1 & 0xffff_ffff);
                self.cpu.wf(inst.rd, bits);
            }
            FmvXD => wd!(self.cpu.rf(inst.rs1)),
            FmvDX => self.cpu.wf(inst.rd, rs1),
            // ---- Zicsr ----
            Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci => {
                let addr = imm as u16;
                // With a platform attached, mip is a live view of the
                // device interrupt lines (clear at the source: CLINT
                // msip/mtimecmp, PLIC claim); guest writes are dropped.
                let platform_mip = addr == csr::MIP && self.platform.is_some();
                let old = if platform_mip {
                    self.platform
                        .as_ref()
                        .map(|p| p.irq_lines(self.cpu.hart_id).as_mip())
                        .unwrap_or(0)
                } else {
                    self.cpu.read_csr(addr)
                };
                let operand = match inst.op {
                    Csrrw | Csrrs | Csrrc => rs1,
                    _ => inst.rs1 as u64, // zimm
                };
                let new = match inst.op {
                    Csrrw | Csrrwi => operand,
                    Csrrs | Csrrsi => old | operand,
                    _ => old & !operand,
                };
                let write = match inst.op {
                    Csrrw | Csrrwi => true,
                    _ => operand != 0 || inst.rs1 != 0,
                };
                if write && !platform_mip {
                    self.cpu.write_csr(addr, new);
                }
                wd!(old);
            }
            Mret => {
                // Pop the interrupt-enable stack (§3.1.6.1): mode from
                // MPP, MIE from MPIE, then MPIE <- 1 and MPP <- U.
                let mut mstatus = self.cpu.read_csr(csr::MSTATUS);
                let mpp = (mstatus & csr::mstatus::MPP_MASK) >> csr::mstatus::MPP_SHIFT;
                self.cpu.mode = match mpp {
                    0 => PrivMode::User,
                    1 => PrivMode::Supervisor,
                    _ => PrivMode::Machine,
                };
                mstatus &= !csr::mstatus::MIE;
                if mstatus & csr::mstatus::MPIE != 0 {
                    mstatus |= csr::mstatus::MIE;
                }
                mstatus |= csr::mstatus::MPIE;
                mstatus &= !csr::mstatus::MPP_MASK;
                self.cpu.write_csr(csr::MSTATUS, mstatus);
                next = self.cpu.read_csr(csr::MEPC);
            }
            Sret => {
                // Return mode comes from sstatus.SPP (S or U), and the
                // supervisor enable stack pops: SIE <- SPIE, SPIE <- 1,
                // SPP <- U (§3.3.2) — not an unconditional drop to User.
                let mut sstatus = self.cpu.read_csr(csr::SSTATUS);
                self.cpu.mode = if sstatus & csr::mstatus::SPP != 0 {
                    PrivMode::Supervisor
                } else {
                    PrivMode::User
                };
                sstatus &= !csr::mstatus::SIE;
                if sstatus & csr::mstatus::SPIE != 0 {
                    sstatus |= csr::mstatus::SIE;
                }
                sstatus |= csr::mstatus::SPIE;
                sstatus &= !csr::mstatus::SPP;
                self.cpu.write_csr(csr::SSTATUS, sstatus);
                next = self.cpu.read_csr(csr::SEPC);
            }
            Wfi => {
                // WFI retires as a hint. On a single core with a
                // platform attached, park by fast-forwarding mtime to
                // the next armed timer event when nothing is deliverable
                // yet — wakeup needs only `mip & mie` (mstatus.MIE is
                // ignored, §3.6.1). With no wake source armed, or in
                // cluster mode (replica time stays in lockstep with the
                // epoch barrier), WFI falls back to a legal nop and the
                // surrounding guest loop spins.
                if self.cluster.is_none() {
                    if let Some(p) = self.platform.as_mut() {
                        let hart = self.cpu.hart_id;
                        let mie = self.cpu.read_csr(csr::MIE);
                        if p.irq_lines(hart).as_mip() & mie == 0
                            && mie & (1 << csr::irq::MTI) != 0
                        {
                            if let Some(dt) = p.ticks_to_timer(hart) {
                                p.tick(dt);
                            }
                        }
                    }
                }
            }
            // ---- vector ----
            op if op.is_vector() => vecexec::exec_vector(self, inst, mem)?,
            // ---- XT-910 custom extensions ----
            XLrb | XLrbu | XLrh | XLrhu | XLrw | XLrwu | XLrd => {
                let va = rs1.wrapping_add(rs2 << (imm & 3));
                let (n, s) = match inst.op {
                    XLrb => (1, true),
                    XLrbu => (1, false),
                    XLrh => (2, true),
                    XLrhu => (2, false),
                    XLrw => (4, true),
                    XLrwu => (4, false),
                    _ => (8, false),
                };
                let v = if s {
                    load!(va, n, true)
                } else {
                    load!(va, n, false)
                };
                wd!(v);
            }
            XLurw | XLurd => {
                let idx = rs2 & 0xffff_ffff;
                let va = rs1.wrapping_add(idx << (imm & 3));
                let n = if inst.op == XLurw { 4 } else { 8 };
                let v = load!(va, n, inst.op == XLurw);
                wd!(v);
            }
            XSrb | XSrh | XSrw | XSrd => {
                let va = rs1.wrapping_add(rs2 << (imm & 3));
                let data = self.cpu.rx(inst.rs3);
                let n = match inst.op {
                    XSrb => 1,
                    XSrh => 2,
                    XSrw => 4,
                    _ => 8,
                };
                store!(va, data, n);
            }
            XAddsl => wd!(rs1.wrapping_add(rs2 << (imm & 3))),
            XAdduw => wd!(rs1.wrapping_add(rs2 & 0xffff_ffff)),
            XZextw => wd!(rs1 & 0xffff_ffff),
            XExt | XExtu => {
                let (msb, lsb) = inst.ext_bounds();
                let (msb, lsb) = (msb.max(lsb), msb.min(lsb));
                let width = msb - lsb + 1;
                let field = (rs1 >> lsb) & mask64(width);
                let v = if inst.op == XExt {
                    (((field << (64 - width)) as i64) >> (64 - width)) as u64
                } else {
                    field
                };
                wd!(v);
            }
            XFf0 => wd!((!rs1).leading_zeros() as u64),
            XFf1 => wd!(rs1.leading_zeros() as u64),
            XRev => wd!(rs1.swap_bytes()),
            XTst => wd!((rs1 >> (imm & 63)) & 1),
            XSrri => wd!(rs1.rotate_right((imm & 63) as u32)),
            XMveqz => {
                if rs2 == 0 {
                    wd!(rs1);
                }
            }
            XMvnez => {
                if rs2 != 0 {
                    wd!(rs1);
                }
            }
            XMula => wd!(self.cpu.rx(inst.rd).wrapping_add(rs1.wrapping_mul(rs2))),
            XMuls => wd!(self.cpu.rx(inst.rd).wrapping_sub(rs1.wrapping_mul(rs2))),
            XMulaw => wd!(sext32(self.cpu.rx(inst.rd).wrapping_add(rs1.wrapping_mul(rs2)))),
            XMulsw => wd!(sext32(self.cpu.rx(inst.rd).wrapping_sub(rs1.wrapping_mul(rs2)))),
            XMulah => {
                let prod = ((rs1 as i16 as i64).wrapping_mul(rs2 as i16 as i64)) as u64;
                wd!(self.cpu.rx(inst.rd).wrapping_add(prod))
            }
            XMulsh => {
                let prod = ((rs1 as i16 as i64).wrapping_mul(rs2 as i16 as i64)) as u64;
                wd!(self.cpu.rx(inst.rd).wrapping_sub(prod))
            }
            XDcacheCall | XDcacheCva | XIcacheIall | XTlbBroadcast => {
                // Architecturally a no-op in the functional model; the
                // timing model and the SoC coherence layer interpret them.
            }
            other => {
                debug_assert!(false, "unhandled op {other:?}");
            }
        }
        Ok(next)
    }
}

#[inline]
fn sext32(v: u64) -> u64 {
    v as u32 as i32 as i64 as u64
}

#[inline]
fn mask64(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Load-address-misaligned exception cause.
const CAUSE_LOAD_MISALIGNED: u64 = 4;
/// Store/AMO-address-misaligned exception cause.
const CAUSE_STORE_MISALIGNED: u64 = 6;

/// LR/SC/AMO require natural alignment (RISC-V A-extension §8.2/§8.4);
/// plain loads and stores may be misaligned on the XT-910.
fn check_aligned(va: u64, size: u64, cause: u64) -> Result<(), Trap> {
    if !va.is_multiple_of(size) {
        Err(Trap { cause, tval: va })
    } else {
        Ok(())
    }
}

fn div_s(a: i64, b: i64) -> i64 {
    if b == 0 {
        -1
    } else if a == i64::MIN && b == -1 {
        i64::MIN
    } else {
        a / b
    }
}

fn rem_s(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else if a == i64::MIN && b == -1 {
        0
    } else {
        a % b
    }
}

fn amo_op(op: Op, old: u64, rs2: u64, word: bool) -> u64 {
    use Op::*;
    let v = match op {
        AmoSwapW | AmoSwapD => rs2,
        AmoAddW | AmoAddD => old.wrapping_add(rs2),
        AmoXorW | AmoXorD => old ^ rs2,
        AmoAndW | AmoAndD => old & rs2,
        AmoOrW | AmoOrD => old | rs2,
        AmoMinW => ((old as i32).min(rs2 as i32)) as u64,
        AmoMaxW => ((old as i32).max(rs2 as i32)) as u64,
        AmoMinuW => ((old as u32).min(rs2 as u32)) as u64,
        AmoMaxuW => ((old as u32).max(rs2 as u32)) as u64,
        AmoMinD => ((old as i64).min(rs2 as i64)) as u64,
        AmoMaxD => ((old as i64).max(rs2 as i64)) as u64,
        AmoMinuD => old.min(rs2),
        _ => old.max(rs2),
    };
    if word {
        v & 0xffff_ffff
    } else {
        v
    }
}

fn cvt_f2i(v: f64, min: i64, max: i64) -> i64 {
    if v.is_nan() {
        max
    } else if v <= min as f64 {
        min
    } else if v >= max as f64 {
        max
    } else {
        v as i64
    }
}

fn cvt_f2u(v: f64, max: u64) -> u64 {
    if v.is_nan() || v >= max as f64 {
        max
    } else if v <= 0.0 {
        0
    } else {
        v as u64
    }
}

fn fclass(v: f64, bits: u64, sign_bit: u32) -> u64 {
    let neg = bits >> sign_bit & 1 == 1;
    let class = if v.is_nan() {
        if bits & (1 << (sign_bit - 9)) != 0 {
            9 // quiet NaN
        } else {
            8 // signaling NaN
        }
    } else if v.is_infinite() {
        if neg {
            0
        } else {
            7
        }
    } else if v == 0.0 {
        if neg {
            3
        } else {
            4
        }
    } else if v.is_subnormal() {
        if neg {
            2
        } else {
            5
        }
    } else if neg {
        1
    } else {
        6
    };
    1 << class
}

impl Emulator {
    /// Crate-internal memory access for the vector engine.
    pub(crate) fn load_mem_pub(&mut self, va: u64, size: usize) -> Result<(u64, u64), Trap> {
        self.load_mem(va, size)
    }

    /// Crate-internal memory access for the vector engine.
    pub(crate) fn store_mem_pub(&mut self, va: u64, val: u64, size: usize) -> Result<u64, Trap> {
        self.store_mem(va, val, size)
    }
}

impl xt_snapshot::SnapshotState for ClusterCtl {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.vec(&mut self.store_log, 17, |s, rec| {
            s.u64(&mut rec.pa)?;
            s.u64(&mut rec.val)?;
            s.u8(&mut rec.size)?;
            s.check((1..=8).contains(&rec.size), "store size")
        })?;
        s.bool(&mut self.gate)?;
        s.bool(&mut self.release_one)
    }
}

impl xt_snapshot::SnapshotState for Emulator {
    /// Captures the architectural state (CPU, memory, PMP, halt/console
    /// latches, cluster hooks). The decoded-block cache and its cursor
    /// are *recomputed*: restore drops every cached block, so the next
    /// step re-decodes from (restored) guest memory — this keeps the
    /// snapshot independent of the fast-path setting and of how many
    /// blocks happened to be cached. The attached [`Platform`] is NOT
    /// captured here (a trait object); `xt-soc` serializes its concrete
    /// devices alongside this payload.
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        self.cpu.transfer(s)?;
        self.mem.transfer(s)?;
        s.opt(&mut self.halted, S::u64)?;
        s.bytes(&mut self.console)?;
        self.pmp.transfer(s)?;
        s.opt(&mut self.cluster, |s, ctl| ctl.transfer(s))?;
        if S::DECODING {
            // Decoded blocks may describe pre-restore code bytes: drop them
            // all and re-enter the interpreter cleanly.
            self.icache.invalidate_all();
            self.cursor = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::Asm;
    use xt_isa::reg::Gpr;

    /// Runs the program `build` writes on both engines and returns the
    /// decoded-block one.
    fn run_prog(build: impl FnOnce(&mut Asm)) -> Emulator {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let p = a.finish().unwrap();
        let [emu, _] = run_both_engines(&p, 10_000_000, |_| {}).unwrap_or_else(|e| panic!("{e}"));
        assert!(emu.halted.is_some(), "halts");
        emu
    }

    #[test]
    fn arith_loop_sum() {
        let emu = run_prog(|a| {
            // sum 1..=100 into a1, move to a0
            a.li(Gpr::A0, 100);
            a.li(Gpr::A1, 0);
            let top = a.here();
            a.add(Gpr::A1, Gpr::A1, Gpr::A0);
            a.addi(Gpr::A0, Gpr::A0, -1);
            a.bnez(Gpr::A0, top);
            a.mv(Gpr::A0, Gpr::A1);
        });
        assert_eq!(emu.halted, Some(5050));
    }

    #[test]
    fn div_by_zero_semantics() {
        let emu = run_prog(|a| {
            a.li(Gpr::A1, 42);
            a.li(Gpr::A2, 0);
            a.div(Gpr::A0, Gpr::A1, Gpr::A2);
        });
        assert_eq!(emu.halted, Some(u64::MAX));
    }

    #[test]
    fn memory_roundtrip_unaligned() {
        let emu = run_prog(|a| {
            let buf = a.data_zeros("buf", 64);
            a.la(Gpr::A1, buf);
            a.li(Gpr::A2, 0x1234_5678_9abc_def0);
            a.sd(Gpr::A2, Gpr::A1, 3); // unaligned store
            a.ld(Gpr::A0, Gpr::A1, 3); // unaligned load
        });
        assert_eq!(emu.halted, Some(0x1234_5678_9abc_def0));
    }

    #[test]
    fn fp_double_math() {
        let emu = run_prog(|a| {
            let x = a.data_f64("x", &[1.5, 2.5]);
            a.la(Gpr::A1, x);
            a.fld(xt_isa::Fpr::new(0), Gpr::A1, 0);
            a.fld(xt_isa::Fpr::new(1), Gpr::A1, 8);
            a.fmul_d(xt_isa::Fpr::new(2), xt_isa::Fpr::new(0), xt_isa::Fpr::new(1));
            a.fcvt_l_d(Gpr::A0, xt_isa::Fpr::new(2));
        });
        assert_eq!(emu.halted, Some(3)); // 3.75 -> 3
    }

    #[test]
    fn custom_indexed_load() {
        let emu = run_prog(|a| {
            let arr = a.data_u64("arr", &[10, 20, 30, 40]);
            a.la(Gpr::A1, arr);
            a.li(Gpr::A2, 3);
            a.xlrd(Gpr::A0, Gpr::A1, Gpr::A2, 3); // arr[3]
        });
        assert_eq!(emu.halted, Some(40));
    }

    #[test]
    fn custom_bitfield_and_mac() {
        let emu = run_prog(|a| {
            a.li(Gpr::A1, 0x0000_ABCD_0000_0000);
            a.xextu(Gpr::A3, Gpr::A1, 47, 32); // 0xABCD
            a.li(Gpr::A0, 100);
            a.li(Gpr::A2, 2);
            a.xmula(Gpr::A0, Gpr::A3, Gpr::A2); // 100 + 0xABCD*2
        });
        assert_eq!(emu.halted, Some(100 + 0xABCD * 2));
    }

    #[test]
    fn ecall_traps_to_mtvec() {
        let mut a = Asm::new();
        let handler = a.new_label();
        // set mtvec
        let h = a.new_label();
        a.jump(h);
        a.bind(handler).unwrap();
        a.li(Gpr::A0, 77);
        a.halt();
        a.bind(h).unwrap();
        // mtvec must be the handler's absolute address
        let handler_off = 0u64; // patched below via la: we instead compute
        let _ = handler_off;
        // Build differently: compute handler address with auipc-free li.
        let p_text_base = xt_asm::DEFAULT_TEXT_BASE;
        let _ = p_text_base;
        a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64); // handler right after the 4-byte jump
        a.csrw(xt_isa::csr::MTVEC, Gpr::T0);
        a.ecall();
        a.li(Gpr::A0, 1); // skipped by trap
        a.halt();
        let p = a.finish().unwrap();
        let [emu, _] = run_both_engines(&p, 100_000, |_| {}).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(emu.halted, Some(77));
    }

    #[test]
    fn amo_and_lrsc() {
        let emu = run_prog(|a| {
            let cell = a.data_u64("cell", &[5]);
            a.la(Gpr::A1, cell);
            a.li(Gpr::A2, 10);
            a.amoadd_d(Gpr::A3, Gpr::A2, Gpr::A1); // old=5, mem=15
            a.lr_d(Gpr::A4, Gpr::A1); // 15
            a.li(Gpr::A5, 99);
            a.sc_d(Gpr::A6, Gpr::A5, Gpr::A1); // success -> 0, mem=99
            a.ld(Gpr::A0, Gpr::A1, 0);
            a.add(Gpr::A0, Gpr::A0, Gpr::A3); // 99+5
            a.add(Gpr::A0, Gpr::A0, Gpr::A6); // +0
        });
        assert_eq!(emu.halted, Some(104));
    }

    #[test]
    fn csr_read_write() {
        let emu = run_prog(|a| {
            a.li(Gpr::A1, 0x1234);
            a.csrw(xt_isa::csr::MSCRATCH, Gpr::A1);
            a.csrr(Gpr::A0, xt_isa::csr::MSCRATCH);
        });
        assert_eq!(emu.halted, Some(0x1234));
    }

    #[test]
    fn conditional_move() {
        let emu = run_prog(|a| {
            a.li(Gpr::A0, 1);
            a.li(Gpr::A1, 42);
            a.li(Gpr::A2, 0);
            a.xmveqz(Gpr::A0, Gpr::A1, Gpr::A2); // a2==0 -> a0=42
        });
        assert_eq!(emu.halted, Some(42));
    }

    #[test]
    fn fmin_fmax_signed_zeros() {
        // fmin(-0.0, +0.0) must be -0.0 and fmax must be +0.0.
        let emu = run_prog(|a| {
            use xt_isa::reg::Fpr;
            a.li(Gpr::A1, (-0.0f64).to_bits() as i64);
            a.li(Gpr::A2, 0.0f64.to_bits() as i64);
            a.fmv_d_x(Fpr::new(10), Gpr::A1);
            a.fmv_d_x(Fpr::new(11), Gpr::A2);
            a.fmin_d(Fpr::new(12), Fpr::new(10), Fpr::new(11));
            a.fmax_d(Fpr::new(13), Fpr::new(10), Fpr::new(11));
            a.fmv_x_d(Gpr::A3, Fpr::new(12));
            a.fmv_x_d(Gpr::A4, Fpr::new(13));
            // pack: min must have the sign bit, max must not
            a.srli(Gpr::A3, Gpr::A3, 63);
            a.srli(Gpr::A4, Gpr::A4, 62);
            a.add(Gpr::A0, Gpr::A3, Gpr::A4);
        });
        assert_eq!(emu.halted, Some(1), "fmin keeps -0.0, fmax drops it");
    }

    #[test]
    fn fmin_both_nan_gives_canonical() {
        // A payload-carrying qNaN input must not leak into the result.
        let emu = run_prog(|a| {
            use xt_isa::reg::Fpr;
            a.li(Gpr::A1, 0x7ff8_0000_dead_beefu64 as i64);
            a.li(Gpr::A2, 0x7ff8_1234_0000_0000u64 as i64);
            a.fmv_d_x(Fpr::new(10), Gpr::A1);
            a.fmv_d_x(Fpr::new(11), Gpr::A2);
            a.fmin_d(Fpr::new(12), Fpr::new(10), Fpr::new(11));
            a.fmv_x_d(Gpr::A0, Fpr::new(12));
        });
        assert_eq!(emu.halted, Some(crate::softfp::CANONICAL_NAN_F64));
    }

    #[test]
    fn fmin_snan_sets_nv_flag() {
        // sNaN operand: result is the other operand, NV accumulates in
        // fflags, and fcsr mirrors it.
        let emu = run_prog(|a| {
            use xt_isa::reg::Fpr;
            a.li(Gpr::A1, 0x7ff0_0000_0000_0001u64 as i64); // sNaN
            a.li(Gpr::A2, 2.5f64.to_bits() as i64);
            a.fmv_d_x(Fpr::new(10), Gpr::A1);
            a.fmv_d_x(Fpr::new(11), Gpr::A2);
            a.fmin_d(Fpr::new(12), Fpr::new(10), Fpr::new(11));
            a.fmv_x_d(Gpr::A3, Fpr::new(12));
            a.csrr(Gpr::A4, xt_isa::csr::FFLAGS);
            a.csrr(Gpr::A5, xt_isa::csr::FCSR);
            // a0 = fflags<<8 | fcsr<<4 | (result == 2.5)
            a.li(Gpr::A6, 2.5f64.to_bits() as i64);
            a.sltu(Gpr::A7, Gpr::A3, Gpr::A6);
            a.sltu(Gpr::T0, Gpr::A6, Gpr::A3);
            a.or_(Gpr::A7, Gpr::A7, Gpr::T0);
            a.xori(Gpr::A7, Gpr::A7, 1); // 1 when equal
            a.slli(Gpr::A4, Gpr::A4, 8);
            a.slli(Gpr::A5, Gpr::A5, 4);
            a.add(Gpr::A0, Gpr::A4, Gpr::A5);
            a.add(Gpr::A0, Gpr::A0, Gpr::A7);
        });
        assert_eq!(emu.halted, Some((0x10 << 8) | (0x10 << 4) | 1));
    }

    #[test]
    fn fmin_s_single_precision_spec() {
        // single precision path: both-NaN canonicalizes, sNaN sets NV
        let emu = run_prog(|a| {
            use xt_isa::reg::Fpr;
            a.li(Gpr::A1, 0x7f80_0001); // sNaN (f32)
            a.li(Gpr::A2, 0x7fc0_1234); // qNaN with payload
            a.fmv_w_x(Fpr::new(10), Gpr::A1);
            a.fmv_w_x(Fpr::new(11), Gpr::A2);
            a.fmax_s(Fpr::new(12), Fpr::new(10), Fpr::new(11));
            a.fmv_x_w(Gpr::A3, Fpr::new(12));
            a.csrr(Gpr::A4, xt_isa::csr::FFLAGS);
            // a0 = fflags<<32 | low-32 of result (fmv.x.w sign-extends;
            // canonical NaN has bit31 clear so no masking needed)
            a.slli(Gpr::A4, Gpr::A4, 32);
            a.add(Gpr::A0, Gpr::A3, Gpr::A4);
        });
        assert_eq!(
            emu.halted,
            Some((0x10u64 << 32) | crate::softfp::CANONICAL_NAN_F32 as u64)
        );
    }

    #[test]
    fn compressed_program_runs() {
        let mut a = Asm::new().with_compression();
        a.li(Gpr::A0, 0);
        for _ in 0..5 {
            a.addi(Gpr::A0, Gpr::A0, 1);
        }
        a.halt();
        let p = a.finish().unwrap();
        let [emu, _] = run_both_engines(&p, 1000, |_| {}).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(emu.halted, Some(5));
    }

    /// `vill` travels with a frame: a restored emulator keeps refusing
    /// vector instructions rather than running them at e8/m1.
    #[test]
    fn vill_survives_save_restore() {
        use xt_snapshot::SnapshotState;
        let mut emu = Emulator::new();
        emu.cpu.vtype = xt_isa::vector::VType {
            vill: true,
            ..Default::default()
        };
        let mut e = xt_snapshot::Enc::new();
        emu.save(&mut e);
        let mut back = Emulator::new();
        let mut d = xt_snapshot::Dec::new(e.bytes());
        back.restore(&mut d).and_then(|()| d.finish()).expect("restore");
        assert!(back.cpu.vtype.vill, "a vill vtype restores as vill");
        assert_eq!(back.cpu.vtype, emu.cpu.vtype);
    }
}
