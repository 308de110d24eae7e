//! Error paths of the snapshot codec at the file level: damaged frames
//! must surface typed [`SnapshotError`]s — never panics, never huge
//! allocations, never a partially-applied restore that claims success.
//!
//! [`SnapshotError`]: xt_snapshot::SnapshotError

use xt_asm::{Asm, Program};
use xt_core::{CoreConfig, OooSession};
use xt_isa::reg::Gpr;
use xt_snapshot::SnapshotError;

const MAX_INSTS: u64 = 100_000;

fn prog() -> Program {
    let mut a = Asm::new();
    a.li(Gpr::A0, 200);
    let top = a.here();
    a.addi(Gpr::A0, Gpr::A0, -1);
    a.bnez(Gpr::A0, top);
    a.li(Gpr::A0, 7);
    a.halt();
    a.finish().unwrap()
}

fn frame() -> Vec<u8> {
    let mut s = OooSession::new(&prog(), &CoreConfig::xt910(), MAX_INSTS);
    s.run_insts(50);
    s.save()
}

fn restore(bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut s = OooSession::new(&prog(), &CoreConfig::xt910(), MAX_INSTS);
    s.restore(bytes)
}

#[test]
fn truncated_frames_report_truncated() {
    let good = frame();
    // every prefix shorter than the header, plus a cut mid-payload and
    // a cut inside the trailing checksum
    for cut in [0usize, 1, 7, 14, 22, good.len() / 2, good.len() - 1] {
        match restore(&good[..cut]) {
            Err(SnapshotError::Truncated { need, have }) => {
                assert_eq!(have, cut);
                assert!(need > have, "need {need} must exceed have {have}");
            }
            other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_reports_bad_magic() {
    let mut bad = frame();
    bad[0] = b'Z';
    assert!(matches!(
        restore(&bad),
        Err(SnapshotError::BadMagic { found }) if found[0] == b'Z'
    ));
}

#[test]
fn wrong_version_reports_bad_version() {
    let mut bad = frame();
    let bumped = xt_snapshot::VERSION + 1;
    bad[4..6].copy_from_slice(&bumped.to_le_bytes());
    assert!(matches!(
        restore(&bad),
        Err(SnapshotError::BadVersion { found, expect })
            if found == bumped && expect == xt_snapshot::VERSION
    ));
}

#[test]
fn wrong_kind_is_rejected() {
    // a KIND_CORE frame offered where the payload says otherwise
    let mut bad = frame();
    bad[6] = xt_snapshot::KIND_CLUSTER;
    assert!(matches!(restore(&bad), Err(SnapshotError::Corrupt { .. })));
}

#[test]
fn flipped_payload_byte_fails_the_checksum() {
    let mut bad = frame();
    let mid = 15 + (bad.len() - 23) / 2;
    bad[mid] ^= 0xFF;
    assert!(matches!(restore(&bad), Err(SnapshotError::Corrupt { .. })));
}

/// A syntactically valid frame whose payload claims an absurd element
/// count (the classic corrupted-page-count file): restore must fail
/// with a typed error before attempting the allocation.
#[test]
fn corrupted_page_count_fails_without_allocating() {
    let mut e = xt_snapshot::Enc::new();
    // TraceSource's payload begins with the emulator; lie about a
    // gigantic collection right away
    e.u64(u64::MAX);
    let bogus = xt_snapshot::seal(xt_snapshot::KIND_CORE, e.bytes());
    match restore(&bogus) {
        Err(
            SnapshotError::Truncated { .. }
            | SnapshotError::Corrupt { .. }
            | SnapshotError::Mismatch { .. },
        ) => {}
        other => panic!("bogus count: expected a typed error, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let good = frame();
    // extend the *payload* with an extra byte and re-seal so the
    // header and checksum are self-consistent — only the layout check
    // can catch it
    let payload = xt_snapshot::open(&good, xt_snapshot::KIND_CORE).unwrap();
    let mut longer = payload.to_vec();
    longer.push(0);
    let resealed = xt_snapshot::seal(xt_snapshot::KIND_CORE, &longer);
    assert!(matches!(
        restore(&resealed),
        Err(SnapshotError::TrailingBytes { extra: 1 })
    ));
}

#[test]
fn empty_and_tiny_inputs_never_panic() {
    for bytes in [&[][..], &[0x58][..], b"XTSN", b"XTSN\x01\x00\x01"] {
        assert!(restore(bytes).is_err(), "{} bytes must error", bytes.len());
    }
}

/// A frame from a differently-configured machine is refused with
/// `Mismatch`, leaving no doubt the restore did not partially apply.
#[test]
fn cross_config_restore_reports_mismatch() {
    let snap = frame();
    let mut other = OooSession::new(&prog(), &CoreConfig::a73_like(), MAX_INSTS);
    assert!(matches!(
        other.restore(&snap),
        Err(SnapshotError::Mismatch { .. })
    ));
}

// ---- the miss classifier's shadow LRU list ----

/// Stores to four distinct lines, then halts: the L1D miss classifier's
/// shadow store ends up with at least four residents.
fn four_line_prog() -> Program {
    let mut a = Asm::new();
    let buf = a.data_zeros("buf", 4 * 64);
    a.la(Gpr::A1, buf);
    for k in 0..4 {
        a.sd(Gpr::ZERO, Gpr::A1, k * 64);
    }
    a.li(Gpr::A0, 7);
    a.halt();
    a.finish().unwrap()
}

fn field(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
}

fn set_field(payload: &mut [u8], at: usize, v: u64) {
    payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// The payload of a session frame taken after `four_line_prog` ran, the
/// offset of the shadow list's `cap` field in it, and the resident count.
///
/// The memory system is the last part of a session payload, the one
/// core's classifier the last part of that but for the "no tracer" byte,
/// and a classifier ends `cap, n, n × (stamp, line), next_stamp`.
fn shadow_payload() -> (Vec<u8>, usize, usize) {
    let mut s = OooSession::new(&four_line_prog(), &CoreConfig::xt910(), MAX_INSTS);
    s.run_to_end();
    let frame = s.save();
    let payload = xt_snapshot::open(&frame, xt_snapshot::KIND_CORE)
        .unwrap()
        .to_vec();
    let pairs_end = payload.len() - 1 - 8;
    // walking back over the pairs, the would-be `n` field lands on line
    // addresses (never small numbers) until it is the real one
    let (n, cap_at) = (0..64usize)
        .map(|n| (n, pairs_end - n * 16 - 16))
        .find(|&(n, cap_at)| field(&payload, cap_at + 8) == n as u64)
        .expect("shadow list at the end of the payload");
    assert!(n >= 4, "four stored lines are resident: {n}");
    (payload, cap_at, n)
}

/// Frames whose checksum is right but whose shadow LRU list no save
/// could have written: the map-based restore took all of them; the
/// linked list must refuse them instead of mis-linking or panicking.
#[test]
fn inconsistent_shadow_lru_is_rejected() {
    let (good, cap_at, n) = shadow_payload();
    let pair = |k: usize| cap_at + 16 + k * 16; // (stamp, line) number k
    let next_stamp_at = pair(n);
    let restore_payload = |payload: &[u8]| {
        let mut s = OooSession::new(&four_line_prog(), &CoreConfig::xt910(), MAX_INSTS);
        s.restore(&xt_snapshot::seal(xt_snapshot::KIND_CORE, payload))
    };
    restore_payload(&good).expect("the untouched payload restores");

    let mut hostile: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut p = good.clone();
    let (s1, s2) = (field(&p, pair(1)), field(&p, pair(2)));
    set_field(&mut p, pair(1), s2);
    set_field(&mut p, pair(2), s1);
    hostile.push(("stamps not ascending", p));
    let mut p = good.clone();
    let line = field(&p, pair(0) + 8);
    set_field(&mut p, pair(n - 1) + 8, line);
    hostile.push(("duplicate line", p));
    let mut p = good.clone();
    set_field(&mut p, cap_at, n as u64 - 1);
    hostile.push(("more residents than cap", p));
    let mut p = good.clone();
    let last = field(&p, pair(n - 1));
    set_field(&mut p, next_stamp_at, last);
    hostile.push(("stamp not below next_stamp", p));

    for (name, payload) in &hostile {
        match restore_payload(payload) {
            Err(SnapshotError::Corrupt { what: "shadow lru" }) => {}
            other => panic!("{name}: expected Corrupt(shadow lru), got {other:?}"),
        }
    }
}

// ---- the memory system's counter table ----

/// Frames with a valid checksum whose counter table claims another
/// shape than the restoring hierarchy's. The table is written `cores,
/// slots` and then bare words the instance indexes by its own cores and
/// slots, so a wrong shape must be refused up front — `Mismatch`, or
/// `Corrupt`/`Truncated` once the bytes behind it stop making sense —
/// never restored into a table that a later event indexes past the end
/// of, and never sized from the frame.
#[test]
fn forged_counter_table_shape_is_rejected() {
    use xt_snapshot::SnapshotState;
    let mut s = OooSession::new(&four_line_prog(), &CoreConfig::xt910(), MAX_INSTS);
    s.run_to_end();
    let good = xt_snapshot::open(&s.save(), xt_snapshot::KIND_CORE)
        .unwrap()
        .to_vec();
    // the table's own encoding is long and unlike anything else in the
    // payload: find it there
    let stats = s.mem().stats();
    let mut e = xt_snapshot::Enc::new();
    stats.save(&mut e);
    let table = e.into_bytes();
    let slots = stats.pf_scorecard[0].len() as u64;
    let at = good
        .windows(table.len())
        .position(|w| w == table)
        .expect("the counter table is in the payload");
    assert_eq!((field(&good, at), field(&good, at + 8)), (1, slots));

    let restore_payload = |payload: &[u8]| {
        let mut s = OooSession::new(&four_line_prog(), &CoreConfig::xt910(), MAX_INSTS);
        s.restore(&xt_snapshot::seal(xt_snapshot::KIND_CORE, payload))
    };
    restore_payload(&good).expect("the untouched payload restores");
    for (what, offset, forged) in [
        ("no core", 0, 0),
        ("a core too many", 0, 2),
        ("an absurd core count", 0, 1 << 40),
        ("no slot", 8, 0),
        ("a slot too few", 8, slots - 1),
        ("a slot too many", 8, slots + 1),
        ("an absurd slot count", 8, u64::MAX),
    ] {
        let mut p = good.clone();
        set_field(&mut p, at + offset, forged);
        match restore_payload(&p) {
            Err(SnapshotError::Mismatch { what }) if what.starts_with("counter table") => {}
            other => panic!("{what}: expected Mismatch(counter table …), got {other:?}"),
        }
    }
    // a table cut short is a table of the right shape with the next
    // section's bytes read as counters: the layout check catches it
    let mut p = good.clone();
    p.drain(at + 16..at + 24);
    assert!(
        matches!(
            restore_payload(&p),
            Err(SnapshotError::Corrupt { .. }
                | SnapshotError::Truncated { .. }
                | SnapshotError::Mismatch { .. })
        ),
        "a table one word short"
    );
}

// ---------------------------------------------------------------------
// the core's fixed-size structural resources
// ---------------------------------------------------------------------

/// The payload of [`frame`] and the offset of the ROB window in it. A
/// window is written `cap, n, n × release, stall_cycles`; the ROB is the
/// one with 192 entries that the 48-entry issue queue follows.
fn rob_payload() -> (Vec<u8>, usize, usize) {
    let cfg = CoreConfig::xt910();
    let payload = xt_snapshot::open(&frame(), xt_snapshot::KIND_CORE)
        .unwrap()
        .to_vec();
    let (at, n) = (0..payload.len() - 24)
        .filter(|&at| field(&payload, at) == cfg.rob_entries as u64)
        .map(|at| (at, field(&payload, at + 8) as usize))
        .find(|&(at, n)| {
            let next = at + 16 + 8 * n + 8;
            n <= cfg.rob_entries
                && next + 8 <= payload.len()
                && field(&payload, next) == cfg.iq_entries as u64
        })
        .expect("a 192-entry window followed by a 48-entry one");
    assert!(n >= 2, "fifty instructions in, the ROB holds some: {n}");
    (payload, at, n)
}

/// Skips the window at `at`; returns the offset just past it.
fn past_window(payload: &[u8], at: usize) -> usize {
    at + 16 + 8 * field(payload, at + 8) as usize + 8
}

/// Core frames with a valid checksum that no save could have written.
/// The windows and pipe groups are fixed-size now: a count the
/// `VecDeque` would have swallowed must come back as a typed error
/// before anything is written past the end of a ring.
#[test]
fn forged_core_resources_are_rejected_or_repaired() {
    let (good, rob_at, n) = rob_payload();
    let restore_payload = |payload: &[u8]| {
        let mut s = OooSession::new(&prog(), &CoreConfig::xt910(), MAX_INSTS);
        s.restore(&xt_snapshot::seal(xt_snapshot::KIND_CORE, payload))
            .map(|()| s)
    };
    restore_payload(&good).expect("the untouched payload restores");

    for occupancy in [CoreConfig::xt910().rob_entries as u64 + 1, 1 << 32] {
        let mut p = good.clone();
        set_field(&mut p, rob_at + 8, occupancy);
        match restore_payload(&p) {
            Err(SnapshotError::Corrupt {
                what: "window occupancy",
            }) => {}
            other => panic!("ROB occupancy {occupancy}: got {:?}", other.map(|_| ())),
        }
    }

    // rob, iq, three register files, then the ALU pipe group's count
    let alu_at = (0..5).fold(rob_at, |at, _| past_window(&good, at));
    assert_eq!(field(&good, alu_at), CoreConfig::xt910().alu_pipes as u64);
    for pipes in [1, 3] {
        let mut p = good.clone();
        set_field(&mut p, alu_at, pipes);
        match restore_payload(&p) {
            Err(SnapshotError::Mismatch { what: "pipe count" }) => {}
            other => panic!("{pipes} ALU pipes: got {:?}", other.map(|_| ())),
        }
    }

    // four pipe groups, each `n, n × next_free`, then the integer
    // scoreboard: x0 is ready at cycle 0 in every run, and the operand
    // read relies on it
    let x0_at = (0..4).fold(alu_at, |at, _| at + 8 + 8 * field(&good, at) as usize) + 8;
    assert_eq!((field(&good, x0_at - 8), field(&good, x0_at)), (32, 0));
    let mut p = good.clone();
    set_field(&mut p, x0_at, 1 << 20);
    match restore_payload(&p) {
        Err(SnapshotError::Corrupt {
            what: "scoreboard x0",
        }) => {}
        other => panic!("x0 ready at cycle 2^20: got {:?}", other.map(|_| ())),
    }

    // an entry held to retirement cannot release after the last
    // retirement: the core would retire before it next
    let mut p = good.clone();
    set_field(&mut p, rob_at + 16 + 8 * (n - 1), u64::MAX);
    match restore_payload(&p) {
        Err(SnapshotError::Corrupt {
            what: "window release after the last retirement",
        }) => {}
        other => panic!("a ROB entry released at the end of time: got {:?}", other.map(|_| ())),
    }

    // releases out of order are put back in order, as they always were:
    // the session that took them writes the frame a save would have
    let mut p = good.clone();
    let (first, last) = (rob_at + 16, rob_at + 16 + 8 * (n - 1));
    let (lo, hi) = (field(&p, first), field(&p, last));
    assert!(lo < hi, "distinct release cycles to swap: {lo} {hi}");
    set_field(&mut p, first, hi);
    set_field(&mut p, last, lo);
    let repaired = restore_payload(&p).expect("unsorted releases restore");
    assert_eq!(repaired.save(), frame(), "and are re-sorted");
}

/// A core frame whose issue-slot limiter remembers more cycles than its
/// ring of 64 holds: no save writes one, and restored it would stay
/// over-long for ever (one eviction per insertion) — or, the ring being a
/// fixed array, be written past its end. The limiter is written `width:
/// u32, n, n × (cycle, used: u32)` right before the ROB window.
#[test]
fn forged_slot_limiter_ring_is_rejected() {
    const RING: usize = 64;
    let (good, rob_at, _) = rob_payload();
    let width = CoreConfig::xt910().issue_width as u32;
    let width_at = |n: usize| rob_at - 12 * n - 8 - 4;
    let n = (0..=RING)
        .find(|&n| {
            let at = width_at(n);
            good[at..at + 4] == width.to_le_bytes() && field(&good, at + 4) == n as u64
        })
        .expect("the limiter's ring right before the ROB");
    assert!(n >= 2, "fifty instructions in, some cycles are remembered: {n}");
    let restore_payload = |payload: &[u8]| {
        let mut s = OooSession::new(&prog(), &CoreConfig::xt910(), MAX_INSTS);
        s.restore(&xt_snapshot::seal(xt_snapshot::KIND_CORE, payload))
    };
    restore_payload(&good).expect("the untouched payload restores");

    // a well-formed ring of `len` entries: the youngest one repeated
    let ring_of = |len: usize| {
        let mut p = good.clone();
        set_field(&mut p, width_at(n) + 4, len as u64);
        let youngest = good[rob_at - 12..rob_at].to_vec();
        for _ in n..len {
            p.splice(rob_at..rob_at, youngest.iter().copied());
        }
        p
    };
    restore_payload(&ring_of(RING)).expect("a full ring restores");
    for len in [RING + 1, 4 * RING] {
        match restore_payload(&ring_of(len)) {
            Err(SnapshotError::Corrupt {
                what: "slot limiter ring",
            }) => {}
            other => panic!("{len} remembered cycles: expected a corrupt ring, got {other:?}"),
        }
    }
    // a count no payload could hold is refused before it is believed
    let mut p = good.clone();
    set_field(&mut p, width_at(n) + 4, 1 << 40);
    assert!(
        matches!(restore_payload(&p), Err(SnapshotError::Corrupt { .. })),
        "an absurd ring length"
    );
}

// ---------------------------------------------------------------------
// a cluster frame's recorded memory traffic
// ---------------------------------------------------------------------

const STREAM_BASE: u64 = 0x8100_0000;

/// Core `id` walks its own 32 KiB buffer one line at a time: a
/// confirmed stream, so the recorded loads carry prefetch bursts.
fn stream_prog(id: u64) -> Program {
    let mut a = Asm::new().with_data_base(STREAM_BASE + id * 0x0010_0000);
    let buf = a.data_zeros("buf", 32 * 1024);
    a.la(Gpr::A1, buf);
    a.li(Gpr::A2, 512);
    let top = a.here();
    a.ld(Gpr::A4, Gpr::A1, 0);
    a.addi(Gpr::A1, Gpr::A1, 64);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.halt();
    a.finish().unwrap()
}

fn stream_cluster() -> xt_soc::ClusterSim {
    let progs: Vec<Program> = (0..2).map(stream_prog).collect();
    let mem_cfg = xt_mem::MemConfig {
        cores: 2,
        ..xt_mem::MemConfig::default()
    };
    xt_soc::ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, MAX_INSTS).with_epoch(512)
}

/// Offsets of the `Front` records of the data loads in `payload` that
/// issued a prefetch burst. A load is written `1u8, cycle, va, pa` and
/// then its front end's verdict `first va, byte step, count: u16,
/// slot: u16, confirmed: u16, tlb: u8`; these guests run untranslated,
/// so `va == pa`, both inside core 0's buffer.
fn burst_fronts(payload: &[u8]) -> Vec<usize> {
    let u16_at = |at: usize| u16::from_le_bytes(payload[at..at + 2].try_into().unwrap());
    (9..payload.len() - 16 - 23)
        .filter(|&at| {
            let va = field(payload, at);
            (STREAM_BASE..STREAM_BASE + 32 * 1024).contains(&va)
                && field(payload, at + 8) == va
                && payload[at - 9] == 1
        })
        .map(|at| at + 16)
        .filter(|&front| {
            let (first, count) = (field(payload, front), u16_at(front + 16));
            (1..=64).contains(&count) && first > STREAM_BASE && payload[front + 22] <= 4
        })
        .collect()
}

/// Cluster frames with a valid checksum whose pending logs carry a
/// front-end verdict no instance of this shape could have recorded.
/// Replay indexes the master's scorecard by the slot and loops over the
/// count, so each must come back `Corrupt` from `restore` — not as a
/// panic or an out-of-bounds index at the next barrier.
#[test]
fn forged_mem_op_front_is_rejected() {
    let mut sim = stream_cluster();
    sim.step_epochs(3, 1);
    assert!(!sim.finished(), "cut mid-run, with resync logs pending");
    let good = xt_snapshot::open(&sim.save(), xt_snapshot::KIND_CLUSTER)
        .unwrap()
        .to_vec();
    let restore_payload = |payload: &[u8]| {
        stream_cluster().restore(&xt_snapshot::seal(xt_snapshot::KIND_CLUSTER, payload))
    };
    restore_payload(&good).expect("the untouched payload restores");

    let fronts = burst_fronts(&good);
    assert!(
        !fronts.is_empty(),
        "the pending logs hold prefetching loads"
    );
    let pf = xt_mem::MemConfig::default().prefetch;
    // core 0's log is pending on both cores: one record in each copy
    for &front in [fronts[0], fronts[fronts.len() - 1]].iter() {
        let forge = |at: usize, bytes: &[u8]| {
            let mut p = good.clone();
            p[front + at..front + at + bytes.len()].copy_from_slice(bytes);
            p
        };
        let hostile = [
            (
                "count above max_depth",
                forge(16, &(pf.max_depth as u16 + 1).to_le_bytes()),
            ),
            ("count 65535", forge(16, &u16::MAX.to_le_bytes())),
            (
                "slot past max_streams",
                forge(18, &(pf.max_streams as u16).to_le_bytes()),
            ),
            (
                "confirmed slot past max_streams",
                forge(20, &(pf.max_streams as u16).to_le_bytes()),
            ),
            ("tlb outcome 5", forge(22, &[5])),
        ];
        for (name, payload) in &hostile {
            match restore_payload(payload) {
                Err(SnapshotError::Corrupt {
                    what: "mem op front",
                }) => {}
                other => panic!("{name} at {front}: expected Corrupt(mem op front), got {other:?}"),
            }
        }
    }
}
