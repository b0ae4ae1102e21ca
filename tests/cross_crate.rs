//! Cross-crate integration: every benchmark application, compiled under
//! every configuration, must execute correctly on the simulator; the
//! heuristic must make the decisions the paper describes; and the compile
//! pipeline must stay within its block/timeout budgets.

use uu_core::{
    compile, HeuristicOptions, LoopFilter, PipelineOptions, Transform, UnmergeOptions,
};
use uu_harness::{measure, measure_baseline};
use uu_kernels::{all_benchmarks, count_loops, Benchmark};
use uu_simt::Gpu;

fn bench(name: &str) -> Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == name)
        .unwrap()
}

/// Every application, under every configuration: verifier-clean IR and a
/// checksum equal to the baseline's.
#[test]
fn all_benchmarks_all_configs_preserve_checksums() {
    for b in all_benchmarks() {
        let base = measure_baseline(&b).unwrap_or_else(|e| panic!("{}: {e}", b.info.name));
        for (name, t) in [
            ("unroll4", Transform::Unroll { factor: 4 }),
            ("unmerge", Transform::Unmerge),
            (
                "uu4",
                Transform::Uu {
                    factor: 4,
                    unmerge: UnmergeOptions::default(),
                },
            ),
            (
                "heuristic",
                Transform::UuHeuristic(HeuristicOptions::default()),
            ),
        ] {
            let m = measure(&b, t, LoopFilter::All, None, None, None)
                .unwrap_or_else(|e| panic!("{}/{name}: {e}", b.info.name));
            assert_eq!(
                m.checksum, base.checksum,
                "{}/{name} changed the output",
                b.info.name
            );
        }
    }
}

/// The module loop counts equal Table I's `L` column and survive the full
/// baseline pipeline without verifier complaints.
#[test]
fn loop_population_and_pipeline_hygiene() {
    for b in all_benchmarks() {
        let mut m = (b.build)();
        assert_eq!(count_loops(&m), b.info.table_loops, "{}", b.info.name);
        let out = compile(&mut m, &PipelineOptions::default());
        assert!(!out.timed_out, "{} baseline timed out", b.info.name);
        uu_ir::verify_module(&m).unwrap_or_else(|e| panic!("{}: {e}", b.info.name));
    }
}

/// The heuristic respects the paper's skip rules on real kernels: the
/// convergent/divergent/pragma machinery is exercised by synthetic loops in
/// unit tests; here we check the decisions recorded for the complex
/// benchmark with the divergence guard enabled.
#[test]
fn heuristic_guard_skips_complex() {
    let b = bench("complex");
    let mut m = (b.build)();
    let out = compile(
        &mut m,
        &PipelineOptions {
            transform: Transform::UuHeuristic(HeuristicOptions {
                divergence_guard: true,
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    let divergent_skips = out
        .decisions
        .iter()
        .filter(|(f, d)| f == "complex_pow" && d.decision == uu_core::Decision::Divergent)
        .count();
    assert_eq!(divergent_skips, 1, "decisions: {:?}", out.decisions);
}

/// Per-loop filters only touch the named loop's function: transforming a
/// cold auxiliary loop never changes the hot kernels' code.
#[test]
fn loop_filter_is_surgical() {
    let b = bench("bezier-surface");
    let mk = |filter: LoopFilter| -> String {
        let mut m = (b.build)();
        compile(
            &mut m,
            &PipelineOptions {
                transform: Transform::Uu {
                    factor: 4,
                    unmerge: UnmergeOptions::default(),
                },
                filter,
                ..Default::default()
            },
        );
        let id = m.find("bezier_blend").unwrap();
        m.function(id).to_string()
    };
    let untouched = mk(LoopFilter::Only {
        func: "aux_counted_0".into(),
        loop_id: 0,
    });
    let baseline_only = {
        let mut m = (b.build)();
        compile(&mut m, &PipelineOptions::default());
        let id = m.find("bezier_blend").unwrap();
        m.function(id).to_string()
    };
    assert_eq!(
        untouched, baseline_only,
        "transforming an aux loop must not perturb the hot kernel"
    );
}

/// The compile-time accounting covers the expensive passes, and transformed
/// compiles cost more than baseline ones (Figure 6c's premise).
#[test]
fn compile_time_accounting() {
    let b = bench("rainflow");
    let mut m1 = (b.build)();
    let base = compile(&mut m1, &PipelineOptions::default());
    let mut m2 = (b.build)();
    let uu = compile(
        &mut m2,
        &PipelineOptions {
            transform: Transform::Uu {
                factor: 4,
                unmerge: UnmergeOptions::default(),
            },
            ..Default::default()
        },
    );
    for name in ["sccp", "gvn", "simplifycfg", "dce", "condprop", "instsimplify"] {
        assert!(
            uu.timings.iter().any(|t| t.name == name),
            "missing timing for {name}"
        );
    }
    assert!(uu.total >= base.total / 2, "accounting looks broken");
}

/// The simulator rejects transformed modules that would read undefined
/// values — i.e. the differential harness would catch a broken transform.
/// (Constructively: break an IR module by hand and watch it trip.)
#[test]
fn simulator_catches_undefined_reads() {
    use uu_ir::{Function, FunctionBuilder, Inst, InstKind, Param, Type, Value};
    let mut f = Function::new("bad", vec![Param::new("out", Type::Ptr)], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    b.switch_to(entry);
    b.ret(None);
    // Manufacture a store whose value is an unlinked instruction result.
    let ghost = f.create_inst(Inst::new(
        InstKind::Bin {
            op: uu_ir::BinOp::Add,
            lhs: Value::imm(1i64),
            rhs: Value::imm(2i64),
        },
        Type::I64,
    ));
    let st = f.create_inst(Inst::new(
        InstKind::Store {
            ptr: Value::Arg(0),
            value: Value::Inst(ghost),
        },
        Type::Void,
    ));
    f.block_mut(entry).insts.insert(0, st);
    let mut gpu = Gpu::new();
    let buf = gpu.mem.alloc_i64(&[0]).unwrap();
    let err = gpu
        .launch(
            &f,
            uu_simt::LaunchConfig::new(1, 1),
            &[uu_simt::KernelArg::Buffer(buf)],
        )
        .unwrap_err();
    assert!(matches!(err, uu_simt::ExecError::UndefinedValue { .. }));
}
