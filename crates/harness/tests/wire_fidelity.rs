//! Print → parse fidelity for every benchmark module.
//!
//! The disk artifact cache stores optimized modules as printed IR and
//! parses them back on a hit, so the round trip must preserve everything
//! the optimizer and simulator can observe: SSA id numbering (pass
//! tie-breaks are id-order-sensitive) and `restrict` qualifiers (GVN's
//! load elimination consults them). Both were once lost in the round
//! trip: rainflow drifted by fractions of a percent because its
//! `__restrict__` arrays came back unqualified and its phi ids
//! renumbered. These tests pin the fix.

use uu_core::{compile, PipelineOptions, Transform};

/// Printed text must be a parse/print fixpoint for every benchmark: the
/// parser honors printed ids (void instructions slot into the unused
/// numbers), so nothing is renumbered on the way through a disk artifact.
#[test]
fn every_benchmark_module_round_trips_to_identical_text() {
    for b in uu_kernels::all_benchmarks() {
        let m = (b.build)();
        let text = m.to_string();
        let reparsed = uu_ir::parse_module(&text)
            .unwrap_or_else(|e| panic!("{}: printed IR must parse: {e}", b.info.name));
        assert_eq!(
            reparsed.to_string(),
            text,
            "{}: print -> parse -> print is not a fixpoint",
            b.info.name
        );
    }
}

/// The optimizer must not be able to tell a round-tripped module from
/// the original. rainflow is the canary: it is `restrict`-qualified and
/// its builder allocates phi ids out of textual order, so it catches
/// both a dropped qualifier and renumbering-sensitive tie-breaks.
#[test]
fn rainflow_round_trip_optimizes_identically() {
    let b = uu_kernels::all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == "rainflow")
        .unwrap();
    let mut built = (b.build)();
    let mut reparsed = uu_ir::parse_module(&built.to_string()).unwrap();
    let opts = || PipelineOptions {
        transform: Transform::Uu {
            factor: 4,
            unmerge: Default::default(),
        },
        ..Default::default()
    };
    let o1 = compile(&mut built, &opts());
    let o2 = compile(&mut reparsed, &opts());
    assert_eq!(o1.work, o2.work, "pipeline work diverged across the round trip");
    assert_eq!(
        built.to_string(),
        reparsed.to_string(),
        "optimized IR diverged across the round trip"
    );
}

/// `restrict` itself must survive the trip — parameter-level check,
/// independent of what any pass does with it.
#[test]
fn restrict_qualifier_survives_print_and_parse() {
    let text = "; module r\nfn @k(ptr restrict %x, ptr %y, i64 %n) -> void {\nbb0:\n  ret void\n}\n";
    let m = uu_ir::parse_module(text).unwrap();
    let f = m.iter().next().unwrap().1;
    assert!(f.params()[0].restrict);
    assert!(!f.params()[1].restrict);
    let printed = m.to_string();
    assert!(
        printed.contains("ptr restrict %x"),
        "restrict must print back in place"
    );
    let reparsed = uu_ir::parse_module(&printed).unwrap();
    assert_eq!(reparsed.to_string(), printed, "printed form must be a fixpoint");
    assert!(reparsed.iter().next().unwrap().1.params()[0].restrict);
}
