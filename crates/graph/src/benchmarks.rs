//! The benchmark applications evaluated in the SRing paper.
//!
//! Four large-scale, low-communication-density multimedia systems (MWD,
//! VOPD, MPEG, D26) and three small-scale, high-density processor-memory
//! networks (8PM-24, 8PM-32, 8PM-44), plus the six-node DSP example used to
//! illustrate the clustering algorithm (paper Fig. 5).
//!
//! The exact message lists of the original third-party benchmarks are not
//! published with the SRing paper; these instances are reconstructed to
//! match the paper's `#N`/`#M` counts and structural properties exactly
//! (see `DESIGN.md` §3.2 and §5). Node placements use a regular grid with
//! the default 0.26 mm tile pitch of
//! [`TechnologyParameters`](onoc_units::TechnologyParameters).

use crate::comm::{CommGraph, CommGraphBuilder};
use crate::placement::GridPlacement;
use onoc_units::Millimeters;

/// Default tile pitch used by all benchmark instances.
pub const DEFAULT_PITCH: Millimeters = Millimeters(0.26);

/// One of the seven benchmark applications of the paper's Table I.
///
/// # Examples
///
/// ```
/// use onoc_graph::benchmarks::Benchmark;
///
/// for b in Benchmark::ALL {
///     let g = b.graph();
///     assert_eq!(g.node_count(), b.node_count());
///     assert_eq!(g.message_count(), b.message_count());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Multi-window display, 12 nodes / 13 messages \[17\].
    Mwd,
    /// Video object plane decoder, 16 nodes / 21 messages \[19\].
    Vopd,
    /// MPEG-4 decoder, 12 nodes / 26 messages \[29\].
    Mpeg,
    /// D26_media multimedia system, 26 nodes / 68 messages \[21\].
    D26,
    /// 8-node processor-memory network, 24 messages \[30\].
    Pm8x24,
    /// 8-node processor-memory network, 32 messages \[12\].
    Pm8x32,
    /// 8-node processor-memory network, 44 messages \[18\].
    Pm8x44,
}

impl Benchmark {
    /// All seven benchmarks in the paper's Table I column order.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::Mwd,
        Benchmark::Vopd,
        Benchmark::Mpeg,
        Benchmark::D26,
        Benchmark::Pm8x24,
        Benchmark::Pm8x32,
        Benchmark::Pm8x44,
    ];

    /// The four multimedia benchmarks of Fig. 7(a).
    pub const MULTIMEDIA: [Benchmark; 4] = [
        Benchmark::Mwd,
        Benchmark::Vopd,
        Benchmark::Mpeg,
        Benchmark::D26,
    ];

    /// The three processor-memory benchmarks of Fig. 7(b).
    pub const PROCESSOR_MEMORY: [Benchmark; 3] =
        [Benchmark::Pm8x24, Benchmark::Pm8x32, Benchmark::Pm8x44];

    /// The paper's name for this benchmark.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Mwd => "MWD",
            Benchmark::Vopd => "VOPD",
            Benchmark::Mpeg => "MPEG",
            Benchmark::D26 => "D26",
            Benchmark::Pm8x24 => "8PM-24",
            Benchmark::Pm8x32 => "8PM-32",
            Benchmark::Pm8x44 => "8PM-44",
        }
    }

    /// `#N` of Table I.
    #[must_use]
    pub fn node_count(self) -> usize {
        match self {
            Benchmark::Mwd | Benchmark::Mpeg => 12,
            Benchmark::Vopd => 16,
            Benchmark::D26 => 26,
            Benchmark::Pm8x24 | Benchmark::Pm8x32 | Benchmark::Pm8x44 => 8,
        }
    }

    /// `#M` of Table I.
    #[must_use]
    pub fn message_count(self) -> usize {
        match self {
            Benchmark::Mwd => 13,
            Benchmark::Vopd => 21,
            Benchmark::Mpeg => 26,
            Benchmark::D26 => 68,
            Benchmark::Pm8x24 => 24,
            Benchmark::Pm8x32 => 32,
            Benchmark::Pm8x44 => 44,
        }
    }

    /// Instantiates the benchmark with the default tile pitch.
    #[must_use]
    pub fn graph(self) -> CommGraph {
        self.graph_with_pitch(DEFAULT_PITCH)
    }

    /// Instantiates the benchmark with a custom tile pitch.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not positive.
    #[must_use]
    pub fn graph_with_pitch(self, pitch: Millimeters) -> CommGraph {
        match self {
            Benchmark::Mwd => mwd_with_pitch(pitch),
            Benchmark::Vopd => vopd_with_pitch(pitch),
            Benchmark::Mpeg => mpeg_with_pitch(pitch),
            Benchmark::D26 => d26_with_pitch(pitch),
            Benchmark::Pm8x24 => pm8_with_pitch(24, pitch),
            Benchmark::Pm8x32 => pm8_with_pitch(32, pitch),
            Benchmark::Pm8x44 => pm8_with_pitch(44, pitch),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn grid_builder(
    name: &str,
    grid: GridPlacement,
    nodes: &[(&str, usize, usize)],
) -> CommGraphBuilder {
    let mut b = CommGraph::builder().name(name);
    for &(node, col, row) in nodes {
        b = b.node(node, grid.position(col, row));
    }
    b
}

/// Multi-window display (MWD): 12 nodes, 13 messages, default pitch.
///
/// A display pipeline: input, noise reduction, horizontal/vertical scaling,
/// juggling stages, three frame memories, sampling and blending. Node `mem3`
/// sends to a single node, mirroring the paper's node-3 discussion, and
/// `se -> hs` is the long-range message the sub-ring construction shortens.
#[must_use]
pub fn mwd() -> CommGraph {
    mwd_with_pitch(DEFAULT_PITCH)
}

/// [`mwd`] with a custom tile pitch.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "a fixed benchmark table; every benchmark is built under test"
)]
pub fn mwd_with_pitch(pitch: Millimeters) -> CommGraph {
    let grid = GridPlacement::new(4, 3, pitch);
    // Layout (col,row), row 0 at the bottom:
    //   row 2:  jug2  hvs   se    blend
    //   row 1:  jug1  mem2  mem3  hs
    //   row 0:  in    nr    mem1  vs
    let nodes = [
        ("in", 0, 0),
        ("nr", 1, 0),
        ("mem1", 2, 0),
        ("vs", 3, 0),
        ("jug1", 0, 1),
        ("mem2", 1, 1),
        ("mem3", 2, 1),
        ("hs", 3, 1),
        ("jug2", 0, 2),
        ("hvs", 1, 2),
        ("se", 2, 2),
        ("blend", 3, 2),
    ];
    grid_builder("MWD", grid, &nodes)
        .message_by_name("in", "nr")
        .message_by_name("nr", "mem1")
        .message_by_name("mem1", "hs")
        .message_by_name("hs", "vs")
        .message_by_name("vs", "mem2")
        .message_by_name("mem2", "jug1")
        .message_by_name("jug1", "hvs")
        .message_by_name("hvs", "jug2")
        .message_by_name("jug2", "mem3")
        .message_by_name("mem3", "se")
        .message_by_name("se", "hs")
        .message_by_name("se", "blend")
        .message_by_name("hvs", "blend")
        .build()
        .expect("MWD benchmark is valid")
}

/// Video object plane decoder (VOPD): 16 nodes, 21 messages, default pitch.
#[must_use]
pub fn vopd() -> CommGraph {
    vopd_with_pitch(DEFAULT_PITCH)
}

/// [`vopd`] with a custom tile pitch.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "a fixed benchmark table; every benchmark is built under test"
)]
pub fn vopd_with_pitch(pitch: Millimeters) -> CommGraph {
    let grid = GridPlacement::new(4, 4, pitch);
    let nodes = [
        ("vld", 0, 0),
        ("run_le_dec", 1, 0),
        ("inv_scan", 2, 0),
        ("acdc_pred", 3, 0),
        ("stripe_mem", 3, 1),
        ("iquan", 2, 1),
        ("idct", 1, 1),
        ("upsamp", 0, 1),
        ("vop_rec", 0, 2),
        ("pad", 1, 2),
        ("vop_mem", 2, 2),
        ("arm", 3, 2),
        ("mem_ctrl1", 0, 3),
        ("mem_ctrl2", 1, 3),
        ("dsp", 2, 3),
        ("risc", 3, 3),
    ];
    grid_builder("VOPD", grid, &nodes)
        .message_by_name("vld", "run_le_dec")
        .message_by_name("run_le_dec", "inv_scan")
        .message_by_name("inv_scan", "acdc_pred")
        .message_by_name("acdc_pred", "stripe_mem")
        .message_by_name("stripe_mem", "acdc_pred")
        .message_by_name("acdc_pred", "iquan")
        .message_by_name("iquan", "idct")
        .message_by_name("idct", "upsamp")
        .message_by_name("upsamp", "vop_rec")
        .message_by_name("vop_rec", "pad")
        .message_by_name("pad", "vop_mem")
        .message_by_name("vop_mem", "pad")
        .message_by_name("vop_mem", "arm")
        .message_by_name("arm", "vld")
        .message_by_name("arm", "idct")
        .message_by_name("mem_ctrl1", "vld")
        .message_by_name("dsp", "mem_ctrl1")
        .message_by_name("risc", "dsp")
        .message_by_name("mem_ctrl2", "risc")
        .message_by_name("dsp", "arm")
        .message_by_name("pad", "mem_ctrl2")
        .build()
        .expect("VOPD benchmark is valid")
}

/// MPEG-4 decoder: 12 nodes, 26 messages, default pitch.
///
/// `sdram1` is the memory hub that exchanges data with eight of the eleven
/// other nodes — the "node \[that\] needs to talk to almost all other nodes"
/// the paper cites when discussing MPEG's wavelength usage.
#[must_use]
pub fn mpeg() -> CommGraph {
    mpeg_with_pitch(DEFAULT_PITCH)
}

/// [`mpeg`] with a custom tile pitch.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "a fixed benchmark table; every benchmark is built under test"
)]
pub fn mpeg_with_pitch(pitch: Millimeters) -> CommGraph {
    let grid = GridPlacement::new(4, 3, pitch);
    let nodes = [
        ("vu", 0, 0),
        ("au", 1, 0),
        ("med_cpu", 2, 0),
        ("idct", 3, 0),
        ("sdram1", 1, 1),
        ("sdram2", 2, 1),
        ("sram", 0, 1),
        ("upsamp", 3, 1),
        ("bab", 0, 2),
        ("risc", 1, 2),
        ("rast", 2, 2),
        ("adsp", 3, 2),
    ];
    let hub1 = [
        "vu", "au", "med_cpu", "idct", "upsamp", "bab", "rast", "adsp",
    ];
    let hub2 = ["vu", "med_cpu", "risc", "rast"];
    let mut b = grid_builder("MPEG", grid, &nodes);
    for n in hub1 {
        b = b.message_by_name(n, "sdram1").message_by_name("sdram1", n);
    }
    for n in hub2 {
        b = b.message_by_name(n, "sdram2").message_by_name("sdram2", n);
    }
    b.message_by_name("vu", "au")
        .message_by_name("idct", "upsamp")
        .build()
        .expect("MPEG benchmark is valid")
}

/// D26_media: 26 nodes, 68 messages, default pitch.
///
/// A realistic multimedia communication system: a nine-stage video pipeline,
/// a six-stage audio pipeline, a seven-node system/communication subsystem
/// with a control hub, and four shared memories, plus cross-subsystem and
/// DMA traffic. Largest benchmark of the paper; SRing reduces its total
/// laser power by more than 64 %.
#[must_use]
pub fn d26() -> CommGraph {
    d26_with_pitch(DEFAULT_PITCH)
}

/// [`d26`] with a custom tile pitch.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "a fixed benchmark table; every benchmark is built under test"
)]
pub fn d26_with_pitch(pitch: Millimeters) -> CommGraph {
    let grid = GridPlacement::new(6, 5, pitch);
    // SunFloor-style co-designed placement: the video pipeline snakes up
    // the left columns with its frame memories embedded, the audio
    // pipeline loops through the right columns with its sample memory,
    // and the system subsystem sits on the bottom row around the control
    // hub s0 with its scratchpad m3 directly above.
    let nodes = [
        // video v0..v8, snaking up the left columns
        ("v0", 0, 1),
        ("v1", 0, 2),
        ("v2", 0, 3),
        ("v3", 0, 4),
        ("v4", 1, 4),
        ("v5", 2, 4),
        ("v6", 1, 3),
        ("v7", 2, 2),
        ("v8", 1, 1),
        // audio a0..a5, looping through the right columns
        ("a0", 3, 1),
        ("a1", 4, 1),
        ("a2", 4, 2),
        ("a3", 5, 2),
        ("a4", 4, 3),
        ("a5", 3, 3),
        // system s0..s6 on the bottom row
        ("s0", 2, 0),
        ("s1", 0, 0),
        ("s2", 1, 0),
        ("s3", 3, 0),
        ("s4", 4, 0),
        ("s5", 5, 0),
        ("s6", 5, 1),
        // memories embedded next to their client subsystems
        ("m0", 1, 2),
        ("m1", 2, 3),
        ("m2", 3, 2),
        ("m3", 2, 1),
    ];
    let mut b = grid_builder("D26", grid, &nodes);
    // Video pipeline chain + feedback (9 messages).
    for i in 0..8 {
        b = b.message_by_name(format!("v{i}"), format!("v{}", i + 1));
    }
    b = b.message_by_name("v8", "v0");
    // Audio pipeline chain + feedback (6 messages).
    for i in 0..5 {
        b = b.message_by_name(format!("a{i}"), format!("a{}", i + 1));
    }
    b = b.message_by_name("a5", "a0");
    // System subsystem: control hub over its three neighbours plus a
    // peripheral chain (12 messages).
    for s in ["s1", "s2", "s3"] {
        b = b.message_by_name("s0", s).message_by_name(s, "s0");
    }
    for (x, y) in [("s3", "s4"), ("s4", "s5"), ("s5", "s6")] {
        b = b.message_by_name(x, y).message_by_name(y, x);
    }
    // Memory traffic follows the pipelines: a producer stage writes a
    // buffer, a later stage reads it (writer -> memory -> reader flows,
    // 6 messages per memory). Double-buffered video frames alternate
    // between m0 and m1.
    for (w, m, r) in [
        ("v0", "m0", "v2"),
        ("v2", "m0", "v4"),
        ("v4", "m0", "v6"),
        ("v1", "m1", "v3"),
        ("v3", "m1", "v5"),
        ("v5", "m1", "v7"),
        ("a0", "m2", "a2"),
        ("a2", "m2", "a4"),
        ("a4", "m2", "a5"),
        ("s1", "m3", "s2"),
        ("s2", "m3", "s3"),
        ("s3", "m3", "s1"),
    ] {
        b = b.message_by_name(w, m).message_by_name(m, r);
    }
    // Feed-forward skip connections inside the pipelines (6 messages).
    for (x, y) in [
        ("v0", "v2"),
        ("v2", "v4"),
        ("v4", "v6"),
        ("a0", "a2"),
        ("a2", "a4"),
        ("s1", "s2"),
    ] {
        b = b.message_by_name(x, y);
    }
    // Cross-subsystem control and synchronization (4 messages): the hub
    // starts both pipelines and is notified on completion.
    b = b
        .message_by_name("s0", "v0")
        .message_by_name("v8", "s0")
        .message_by_name("s0", "a0")
        .message_by_name("a0", "s0");
    // DMA and A/V sync traffic (7 messages); the A/V synchronization taps
    // the end of the video pipeline.
    b = b
        .message_by_name("s2", "m0")
        .message_by_name("m0", "s2")
        .message_by_name("s4", "m2")
        .message_by_name("m2", "s4")
        .message_by_name("v8", "a0")
        .message_by_name("a0", "v8")
        .message_by_name("s6", "m3");
    b.build().expect("D26 benchmark is valid")
}

/// 8-node processor-memory network with 24 messages, default pitch.
#[must_use]
pub fn pm8_24() -> CommGraph {
    pm8_with_pitch(24, DEFAULT_PITCH)
}

/// 8-node processor-memory network with 32 messages, default pitch.
#[must_use]
pub fn pm8_32() -> CommGraph {
    pm8_with_pitch(32, DEFAULT_PITCH)
}

/// 8-node processor-memory network with 44 messages, default pitch.
#[must_use]
pub fn pm8_44() -> CommGraph {
    pm8_with_pitch(44, DEFAULT_PITCH)
}

/// The 8-node processor-memory family: four processors `p0..p3`, four
/// memories `m0..m3` on a 4×2 grid, organized as two processor-memory
/// banks (left: `p0, p1, m0, m1`; right: `p2, p3, m2, m3`) with traffic
/// density growing across the three variants:
///
/// * 24 messages: full bidirectional PM connectivity inside each bank,
///   intra-bank processor pairs, plus two bidirectional cross-bank links
///   (`p1 ↔ m3`, `p2 ↔ m0`).
/// * 32 messages: 24 plus a far memory for every processor
///   (`p0 ↔ m3`, `p1 ↔ m2`, `p2 ↔ m1`, `p3 ↔ m0`).
/// * 44 messages: 32 plus all remaining processor pairs (coherence
///   traffic) and the intra-bank memory pairs, approaching full
///   connectivity.
///
/// # Panics
///
/// Panics if `messages` is not 24, 32 or 44.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "a fixed benchmark table; every benchmark is built under test"
)]
pub fn pm8_with_pitch(messages: usize, pitch: Millimeters) -> CommGraph {
    assert!(
        matches!(messages, 24 | 32 | 44),
        "8PM family supports 24, 32 or 44 messages"
    );
    let grid = GridPlacement::new(4, 2, pitch);
    // Banks occupy 2×2 blocks: left = {p0, m0, m1, p1}, right = {p2, m2,
    // m3, p3}; the cross-linked nodes (p1, m3, p2, m0) sit in the middle.
    let nodes = [
        ("p0", 0, 0),
        ("m0", 1, 0),
        ("p2", 2, 0),
        ("m2", 3, 0),
        ("m1", 0, 1),
        ("p1", 1, 1),
        ("m3", 2, 1),
        ("p3", 3, 1),
    ];
    let mut b = grid_builder(
        match messages {
            24 => "8PM-24",
            32 => "8PM-32",
            _ => "8PM-44",
        },
        grid,
        &nodes,
    );
    let both = |builder: CommGraphBuilder, x: &str, y: &str| {
        builder.message_by_name(x, y).message_by_name(y, x)
    };
    // Intra-bank PM connectivity (16 messages).
    for p in ["p0", "p1"] {
        for m in ["m0", "m1"] {
            b = both(b, p, m);
        }
    }
    for p in ["p2", "p3"] {
        for m in ["m2", "m3"] {
            b = both(b, p, m);
        }
    }
    // Intra-bank processor pairs (4) and cross-bank links (4).
    b = both(b, "p0", "p1");
    b = both(b, "p2", "p3");
    b = both(b, "p1", "m3");
    b = both(b, "p2", "m0");
    if messages >= 32 {
        // A far memory per processor (8 messages).
        b = both(b, "p0", "m3");
        b = both(b, "p1", "m2");
        b = both(b, "p2", "m1");
        b = both(b, "p3", "m0");
    }
    if messages == 44 {
        // Remaining processor pairs (8) and intra-bank memory pairs (4).
        b = both(b, "p0", "p2");
        b = both(b, "p0", "p3");
        b = both(b, "p1", "p2");
        b = both(b, "p1", "p3");
        b = both(b, "m0", "m1");
        b = both(b, "m2", "m3");
    }
    b.build().expect("8PM benchmark is valid")
}

/// The six-node DSP network of the paper's Fig. 5, used to illustrate the
/// intra-cluster absorption method. Positions are in abstract units (pitch
/// 1 mm) to keep the worked example's arithmetic readable.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "a fixed benchmark table; every benchmark is built under test"
)]
pub fn dsp_example() -> CommGraph {
    CommGraph::builder()
        .name("DSP-6")
        .node("v1", crate::node::Point::new(1.0, 0.0))
        .node("v2", crate::node::Point::new(1.0, 1.0))
        .node("v3", crate::node::Point::new(2.0, 0.0))
        .node("v4", crate::node::Point::new(3.0, 1.0))
        .node("v5", crate::node::Point::new(0.0, 3.0))
        .node("v6", crate::node::Point::new(3.0, 3.0))
        .message_by_name("v1", "v2")
        .message_by_name("v2", "v3")
        .message_by_name("v3", "v1")
        .message_by_name("v2", "v5")
        .message_by_name("v3", "v4")
        .message_by_name("v4", "v6")
        .message_by_name("v6", "v5")
        .build()
        .expect("DSP example is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts_match_paper() {
        for b in Benchmark::ALL {
            let g = b.graph();
            assert_eq!(g.node_count(), b.node_count(), "{b} node count");
            assert_eq!(g.message_count(), b.message_count(), "{b} message count");
            assert_eq!(g.name(), b.name());
        }
    }

    #[test]
    fn mwd_matches_paper_narrative() {
        let g = mwd();
        // mem3 (paper's "node 3") sends to exactly one node.
        let mem3 = g.node_by_name("mem3").unwrap();
        let sends = g.messages().iter().filter(|m| m.src == mem3).count();
        assert_eq!(sends, 1);
        // se and hs communicate although distant on a conventional ring.
        let se = g.node_by_name("se").unwrap();
        let hs = g.node_by_name("hs").unwrap();
        assert!(g.neighbors(se).contains(&hs));
    }

    #[test]
    fn mpeg_has_a_dominant_hub() {
        let g = mpeg();
        let hub = g.node_by_name("sdram1").unwrap();
        assert_eq!(g.neighbors(hub).len(), 8, "hub talks to almost all nodes");
    }

    #[test]
    fn pm8_44_is_dense() {
        let g = pm8_44();
        // Density #M/#N = 5.5 — the paper's "high communication density".
        assert!((g.density() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn pm8_24_is_bank_local() {
        let g = pm8_24();
        // p0 stays inside the left bank: it talks to m0, m1 and p1 only.
        let p0 = g.node_by_name("p0").unwrap();
        let partners: Vec<_> = g.neighbors(p0).iter().map(|&n| g.node_name(n)).collect();
        assert_eq!(partners, vec!["m0", "m1", "p1"]);
        // The denser variants add the far memory.
        let g32 = pm8_32();
        let p0 = g32.node_by_name("p0").unwrap();
        let m3 = g32.node_by_name("m3").unwrap();
        assert!(g32.neighbors(p0).contains(&m3));
    }

    #[test]
    #[should_panic(expected = "8PM family supports")]
    fn pm8_rejects_bad_count() {
        let _ = pm8_with_pitch(30, DEFAULT_PITCH);
    }

    #[test]
    fn density_ordering_follows_paper() {
        // Paper: MWD/VOPD low density, 8PM-24/32 medium, 8PM-44/MPEG high.
        assert!(mwd().density() < pm8_24().density());
        assert!(vopd().density() < pm8_24().density());
        assert!(pm8_32().density() < pm8_44().density());
        assert!(mpeg().density() > vopd().density());
    }

    #[test]
    fn pitch_scales_positions() {
        let small = mwd_with_pitch(Millimeters(0.1));
        let large = mwd_with_pitch(Millimeters(1.0));
        let a = crate::node::NodeId(0);
        let b = crate::node::NodeId(11);
        assert!(large.manhattan(a, b).0 > small.manhattan(a, b).0 * 9.9);
    }

    #[test]
    fn dsp_example_shape() {
        let g = dsp_example();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.message_count(), 7);
        let v2 = g.node_by_name("v2").unwrap();
        let v1 = g.node_by_name("v1").unwrap();
        // v1 is the closest communication partner of v2 (paper Fig. 5(c)).
        let closest = g
            .neighbors(v2)
            .iter()
            .copied()
            .min_by(|&a, &b| g.manhattan(v2, a).0.total_cmp(&g.manhattan(v2, b).0))
            .unwrap();
        assert_eq!(closest, v1);
    }

    #[test]
    fn all_benchmarks_have_connected_message_endpoints() {
        for b in Benchmark::ALL {
            let g = b.graph();
            for m in g.messages() {
                assert!(m.src.index() < g.node_count());
                assert!(m.dst.index() < g.node_count());
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Benchmark::Pm8x44.to_string(), "8PM-44");
        assert_eq!(Benchmark::D26.to_string(), "D26");
    }
}
