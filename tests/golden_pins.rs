//! Golden pins for the synth layer's outputs on the Table-1 suite.
//!
//! Two results are pinned exactly, so that any change to how they are
//! computed (single-pass rewriting, one-shot occurrence enumeration in
//! the coverage study, evaluation against the profile) must reproduce
//! them bit for bit:
//!
//! - per benchmark, the default session's design applied by the
//!   rewriter: fused chains, a digest of the rewritten program text,
//!   `next_inst_id`, and the evaluated baseline and ASIP cycles;
//! - per benchmark and optimization level, the default coverage study:
//!   each entry's signature, frequency bit pattern and occurrence count.
//!
//! On a mismatch the test prints the full recomputed table, which is the
//! replacement text for the pins if a change is meant to move them.

use asip_explorer::prelude::*;
use asip_explorer::store::StableHasher;
use asip_explorer::synth::Rewriter;

/// `name fused=N text=DIGEST next=ID base=CYCLES asip=CYCLES` per
/// Table-1 benchmark, in registry order.
const REWRITE_PINS: &[&str] = &[
    "fir fused=1 text=3ea437ec78c879fc next=67 base=51827 asip=48922",
    "iir fused=11 text=9e664609b0cd91da next=63 base=4209 asip=3109",
    "pse fused=28 text=7d15ebe320d19aa4 next=197 base=68815 asip=55705",
    "intfft fused=60 text=d2588d61909c2e1d next=427 base=101603 asip=81814",
    "compress fused=10 text=ba6ae82d47ad853e next=174 base=559369 asip=529480",
    "flatten fused=14 text=68457aa35b932341 next=106 base=27410 asip=22353",
    "smooth fused=20 text=1324e2f73c4c54ea next=105 base=33587 asip=24415",
    "edge fused=3 text=a8032f74aba5d6e4 next=108 base=41917 asip=40189",
    "sewha fused=3 text=34dd8253dc2ce210 next=45 base=14611 asip=12911",
    "dft fused=2 text=f2b65c01a0c0e558 next=44 base=1510660 asip=1379588",
    "bspline fused=3 text=3dbb482f62214841 next=49 base=25114 asip=22298",
    "feowf fused=6 text=d227227b274352cd next=57 base=10760 asip=9224",
];

/// `name level: signature/frequency-bits/occurrences ...` per Table-1
/// benchmark and level, in registry and paper order.
const COVERAGE_PINS: &[&str] = &[
    "fir None: multiply-add-fload/4040d0c8812d9635/2 add-compare/402c0e0c4795589a/3 subtract-compare/402b03507d441756/1 fmultiply-fadd/40266bb601921d9c/1",
    "fir Pipelined: multiply-add-fload/4040d0c8812d9635/2 add-subtract-compare/4033b26ab0ac5105/1 fmultiply-fadd/40266bb601921d9c/1",
    "fir PipelinedRenamed: multiply-add-fload/4040d0c8812d9635/2 add-compare/402c0e0c4795589a/5 subtract-compare/402b03507d441757/2 fmultiply-fadd/40266bb601921d9c/1",
    "iir None: fmultiply-fadd/404561fbfc59c5fa/9 fmultiply-fsub-fmultiply/403561fbfc59c5fa/3 multiply-add/402301c38afa7717/2 add-compare/401301c38afa7717/1",
    "iir Pipelined: fmultiply-fadd/404561fbfc59c5f8/18 fmultiply-fsub-fmultiply/403561fbfc59c5f9/6 multiply-add/402301c38afa7717/4 add-compare/401301c38afa7717/2",
    "iir PipelinedRenamed: fmultiply-fadd/404561fbfc59c5f8/18 fmultiply-fsub-fmultiply/403561fbfc59c5f9/6 multiply-add/402301c38afa7717/4 add-compare/401301c38afa7717/2",
    "pse None: multiply-add/404252538444d278/26 fload-fmultiply/402ac8ec7365e9a4/7 fadd-fstore/4017cf0b113e2504/2 fsub-fstore/4017cf0b113e2504/2 add-compare/40164c269d65f32a/5",
    "pse Pipelined: multiply-add/404225dbf3b93e47/44 fload-fmultiply/402ac8ec7365e9a4/14 fload-fadd-fstore/4021db484cee9bc3/4 add-compare/4019401736aaca69/9 fsub-fstore/4017cf0b113e2504/4",
    "pse PipelinedRenamed: multiply-add/40425226e0101223/44 fload-fmultiply/402ac8ec7365e9a4/14 fload-fadd-fstore/4021db484cee9bc3/4 fsub-fstore/4017cf0b113e2504/4 add-compare/4013553f1ca0564e/9",
    "intfft None: multiply-add/4042bd56b2811c23/56 fload-fmultiply/40283031f2e20631/9 fsub-fstore/40173033e2422e1a/5 fadd-fstore/40172e2fde189b44/4 add-compare/4016a722c7372d4e/10",
    "intfft Pipelined: multiply-add/4042783897c6c8cc/93 fload-fmultiply/40283031f2e20630/18 fload-fadd-fstore/402162a3e6927473/8 add-compare/401ca71d3702ba90/21 fsub-fstore/40173033e2422e1a/9",
    "intfft PipelinedRenamed: multiply-add/40429106cafff293/93 fload-fmultiply/40283031f2e20630/18 fload-fadd-fstore/402162a3e6927473/8 fsub-fstore/40173033e2422e1a/9 add-compare/4016a722c7372d4c/21",
    "compress None: fmultiply-fadd/4033fa0f416e54f5/7 multiply-add/40254538a7e51064/9 add-compare/402040aa527bda3b/10 fmultiply-fdivide/401ac5e4f0c35f62/4",
    "compress Pipelined: fmultiply-fadd-fmultiply/4034049aa2b002ca/9 multiply-add/402542d06422bc7c/14 fmultiply-fmultiply/4020942469c3cfbe/6 add-compare/402040aa527bda3b/12 fmultiply-fdivide/401abb598f81b18d/6",
    "compress PipelinedRenamed: fmultiply-fadd/4033fa0f416e54f5/14 multiply-add/402544cf36187f9b/14 fmultiply-fdivide-fmultiply/4023c5565b25efcb/4 add-compare/402040aa527bda3b/20 fmultiply-fmultiply-fmultiply/4014146bb492878a/3",
    "flatten None: multiply-add-load/4042916b2038c8fe/9 add-compare/402c04db4b8ecda8/5 multiply-add/40284879ca044bd6/5 divide-add-divide-store/4020cfb6c6ef4832/1 add-store/4010cfb6c6ef4832/1",
    "flatten Pipelined: multiply-add/40448d0760da2ca1/25 add-compare/402c04db4b8ecda8/10 load-add-store/4022365b578338e1/4 load-subtract/4010d72818a0abd2/3 divide-store/4010cfb6c6ef4832/1",
    "flatten PipelinedRenamed: multiply-add/40448d0760da2ca1/25 add-compare/402c04db4b8ecda8/10 load-add-store/4022365b578338e1/4 divide-store/4010cfb6c6ef4832/1 load-subtract/4010cfb6c6ef4832/1",
    "smooth None: multiply-add/404629d074385f4f/17 compare-logic/40249452f5331b02/3 load-add/40214adb0a7af15c/3",
    "smooth Pipelined: multiply-add/404629d074385f4f/17 compare-logic/40249452f5331b02/3 load-add/40214adb0a7af15c/3",
    "smooth PipelinedRenamed: multiply-add/404629d074385f4f/17 compare-logic/40249452f5331b02/3 load-add/40214adb0a7af15c/3",
    "edge None: multiply-add-load/4044c8afa56a9a60/12 compare-logic/40207d5eed064bf0/3 subtract-subtract/4012797faf7b33e5/2 multiply-add-store/40107d5eed064bf0/2",
    "edge Pipelined: multiply-add-load/4044c8afa56a9a60/12 add-add-subtract-subtract-subtract/402717df9b5a00de/2 compare-logic/40207d5eed064bf0/3",
    "edge PipelinedRenamed: multiply-add-load/4044c8afa56a9a60/12 add-add-subtract-subtract-subtract/402717df9b5a00de/2 compare-logic/40207d5eed064bf0/3",
    "sewha None: multiply-add-load/40406d0d0d9d2571/2 add-compare/4028a393946bb82a/2 subtract-compare/4025e6bc1226dc97/1",
    "sewha Pipelined: multiply-add/4040eb33d8432402/9 add-compare/4028a393946bb82a/3 subtract-compare/4025e6bc1226dc97/2",
    "sewha PipelinedRenamed: multiply-add/4040eb33d8432402/9 add-compare/4028a393946bb82a/3 subtract-compare/4025e6bc1226dc97/2",
    "dft None: multiply-add-load/403a0787e985c36f/2 fmultiply-fadd/40315a5a9bae824a/2 fmultiply-fdivide-fsub/402a0787e985c36f/1 add-compare/40216bb4f64a30cc/2",
    "dft Pipelined: multiply-add-load/403a0787e985c36f/4 fmultiply-fadd/40315a5a9bae824a/4 fmultiply-fmultiply-fdivide-fsub/40315a5a9bae824a/2 add-compare/40216bb4f64a30cc/3",
    "dft PipelinedRenamed: multiply-add-load/403a0787e985c36f/4 fmultiply-fadd/40315a5a9bae824a/4 fmultiply-fmultiply-fdivide-fsub/40315a5a9bae824a/2 add-compare/40216bb4f64a30cc/3",
    "bspline None: multiply-add-load/403e949f19b542d9/2 add-subtract-compare/402e949f19b542d9/1 add-compare/402876e5ae2a9be1/2",
    "bspline Pipelined: multiply-add/40404f43c971bd41/9 add-subtract-compare/402e949f19b542d9/2 add-compare/402876e5ae2a9be1/3",
    "bspline PipelinedRenamed: multiply-add/40404f43c971bd41/9 add-subtract-compare/402e949f19b542d9/2 add-compare/402876e5ae2a9be1/3",
    "feowf None: multiply-add/403c8cd8fb3ddbd7/6 multiply-divide/40330890a77e928f/4 subtract-multiply/40230890a77e928f/2 subtract-divide-add/401c8cd8fb3ddbd6/1 add-compare/40130890a77e928f/1 shift-store/40130890a77e928f/1 load-shift/40130890a77e928f/1",
    "feowf Pipelined: multiply-add/403c8cd8fb3ddbd7/12 multiply-divide-add-subtract-multiply/4037cab4d15e3732/4 subtract-divide-add-shift-store/4027cab4d15e3732/2 multiply-divide/40230890a77e928f/4 add-compare/40130890a77e928f/2 load-shift/40130890a77e928f/2",
    "feowf PipelinedRenamed: multiply-add/403c8cd8fb3ddbd7/12 multiply-divide-add-subtract-multiply/4037cab4d15e3732/4 subtract-divide-add-shift-store/4027cab4d15e3732/2 multiply-divide/40230890a77e928f/4 add-compare/40130890a77e928f/2 load-shift/40130890a77e928f/2",
];

fn rewrite_lines(explorer: &Explorer) -> Vec<String> {
    explorer
        .registry()
        .iter()
        .map(|b| {
            let compiled = explorer.compile(b.name).expect("compiles");
            let designed = explorer.design(b.name).expect("designs");
            let mut program = (*compiled.program).clone();
            let stats = Rewriter::new((*designed.design).clone()).apply(&mut program);
            let mut h = StableHasher::new();
            h.write_str(&program.to_string());
            let eval = explorer.evaluate(b.name).expect("evaluates").evaluation;
            assert_eq!(eval.fused_chains, stats.fused_chains, "{}", b.name);
            format!(
                "{} fused={} text={:016x} next={} base={} asip={}",
                b.name,
                stats.fused_chains,
                h.finish(),
                program.next_inst_id,
                eval.base_cycles,
                eval.asip_cycles
            )
        })
        .collect()
}

fn coverage_lines(explorer: &Explorer) -> Vec<String> {
    let analyzer = CoverageAnalyzer::new(DetectorConfig::default());
    let mut lines = Vec::new();
    for b in explorer.registry().iter() {
        for level in OptLevel::all() {
            let graph = explorer.schedule(b.name, level).expect("schedules").graph;
            let report = analyzer.analyze(&graph);
            let mut line = format!("{} {level:?}:", b.name);
            for e in &report.entries {
                line.push_str(&format!(
                    " {}/{:016x}/{}",
                    e.signature,
                    e.frequency.to_bits(),
                    e.occurrences
                ));
            }
            lines.push(line);
        }
    }
    lines
}

fn check(what: &str, got: &[String], pins: &[&str]) {
    if got.iter().map(String::as_str).ne(pins.iter().copied()) {
        let table: String = got.iter().map(|l| format!("    \"{l}\",\n")).collect();
        panic!("{what} pins differ; recomputed:\n{table}");
    }
}

#[test]
fn table1_rewrites_match_their_pins() {
    let explorer = Explorer::new();
    check("rewrite", &rewrite_lines(&explorer), REWRITE_PINS);
}

#[test]
fn table1_coverage_reports_match_their_pins() {
    let explorer = Explorer::new();
    check("coverage", &coverage_lines(&explorer), COVERAGE_PINS);
}
