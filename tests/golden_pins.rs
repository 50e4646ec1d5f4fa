//! Golden pins for the optimizer's, the chain detector's and the synth
//! layer's outputs.
//!
//! Three results are pinned exactly, so that any change to how they are
//! computed (single-pass rewriting, one-shot occurrence enumeration in
//! the coverage study, evaluation against the profile, allocation-free
//! operand walks, per-op successor tables) must reproduce them bit for
//! bit:
//!
//! - per Table-1 benchmark, the default session's design applied by the
//!   rewriter: fused chains, a digest of the rewritten program text,
//!   `next_inst_id`, and the evaluated baseline and ASIP cycles;
//! - per Table-1 benchmark and optimization level, the default coverage
//!   study: each entry's signature, frequency bit pattern and occurrence
//!   count;
//! - per program of the full corpus (Table-1 and generated) and
//!   optimization level, a digest of the scheduled graph's encoding and
//!   a digest of the default analyze-stage sequence report.
//!
//! On a mismatch the test prints the full recomputed table, which is the
//! replacement text for the pins if a change is meant to move them.

use asip_explorer::prelude::*;
use asip_explorer::store::StableHasher;
use asip_explorer::synth::Rewriter;
use asip_explorer::ArtifactCodec;

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

/// `name level: schedule=DIGEST report=DIGEST entries=N` per program of
/// the full registry and level, in registry and paper order.
const ANALYZE_PINS: &[&str] = &[
    "fir None: schedule=65d4624f2d886a46 report=8ea43f9cbe159fd8 entries=28",
    "fir Pipelined: schedule=b305080dc5ecf252 report=03512a76bb968efa entries=31",
    "fir PipelinedRenamed: schedule=9c20062ae9839c3a report=02ea420f2f89d6d1 entries=27",
    "iir None: schedule=1ff6fdaa36bc1e09 report=0bf12042332a8750 entries=10",
    "iir Pipelined: schedule=85035e0b0b705cb8 report=469440b142c11fd7 entries=55",
    "iir PipelinedRenamed: schedule=a538aa4bd6588831 report=38aea0a8db3bfec0 entries=48",
    "pse None: schedule=4279801acde52dea report=212f156c9491ffc9 entries=40",
    "pse Pipelined: schedule=096f94ad60861053 report=ad15bee7086018e1 entries=114",
    "pse PipelinedRenamed: schedule=d3935ee0f0d8445a report=78b6437262dabbe5 entries=100",
    "intfft None: schedule=1cec3d2d94ec2fc8 report=cd80368663a15969 entries=43",
    "intfft Pipelined: schedule=1e2d265f56f24270 report=7d7a44dbdc0b6550 entries=109",
    "intfft PipelinedRenamed: schedule=2b3629a54511871b report=879d7063a30cd121 entries=94",
    "compress None: schedule=ccd20b662248c532 report=ecc07fd0d41cb88b entries=25",
    "compress Pipelined: schedule=19490edb520999f2 report=caf5837570dc9d0a entries=64",
    "compress PipelinedRenamed: schedule=caafa873f3f5a1d3 report=ab8024fe027dcb33 entries=44",
    "flatten None: schedule=b0039e27b6b2039d report=c4781ddd8d07d451 entries=35",
    "flatten Pipelined: schedule=ce651403b2cda721 report=91ad4247131c29b6 entries=68",
    "flatten PipelinedRenamed: schedule=d2db7778b52480f5 report=9a417a66c5ca4290 entries=42",
    "smooth None: schedule=e342bce2ccbee2a7 report=310316dff7256655 entries=19",
    "smooth Pipelined: schedule=811e38e4e7e4852c report=ec71552314f2819b entries=68",
    "smooth PipelinedRenamed: schedule=c6e28cb3fca0ed63 report=1f2387cf17ce6577 entries=67",
    "edge None: schedule=e145c344875ac01c report=35bc4b293829d7ee entries=24",
    "edge Pipelined: schedule=e49b3557cebdc24f report=50b397aabee11b15 entries=105",
    "edge PipelinedRenamed: schedule=92c789631de2eacc report=a601d2bb36fe69dd entries=104",
    "sewha None: schedule=fec3ced3168abc13 report=009d23904e37bd71 entries=9",
    "sewha Pipelined: schedule=96066897395ccf44 report=4656eefe853c33c2 entries=35",
    "sewha PipelinedRenamed: schedule=2e9f98b96ccb4816 report=662abea544653219 entries=12",
    "dft None: schedule=1ccab180b9e2054a report=40e4b944ab64d8bc entries=10",
    "dft Pipelined: schedule=57dfaadeb7b140b4 report=8d64fe0cf80d9dc6 entries=20",
    "dft PipelinedRenamed: schedule=da55e4ec0cdf0534 report=2c37b363ab38f7d8 entries=13",
    "bspline None: schedule=60aa85bff50f9974 report=a17bdbb4c2ccb0bf entries=11",
    "bspline Pipelined: schedule=39313a1af6cf954f report=4b3f7cfa054335d6 entries=25",
    "bspline PipelinedRenamed: schedule=daade1e6b7b60a86 report=8936e5a50402ec7d entries=14",
    "feowf None: schedule=3e00484c514f19e8 report=3b4c00003d64da61 entries=20",
    "feowf Pipelined: schedule=23c38bed9b0b5f74 report=ae584a05179161a2 entries=98",
    "feowf PipelinedRenamed: schedule=a53f0c66d992a849 report=6c2a21891d237e53 entries=76",
    "gen-s-d1-int-lo None: schedule=1770702acfc04bb1 report=2272cfb686d3c623 entries=55",
    "gen-s-d1-int-lo Pipelined: schedule=9b2f8f6488a41eef report=63e438c25233eba6 entries=112",
    "gen-s-d1-int-lo PipelinedRenamed: schedule=5295874667e3fa3e report=391b95a9a1fc2188 entries=79",
    "gen-s-d1-int-hi None: schedule=b806346af89a30ff report=29c52d59ce639a5f entries=54",
    "gen-s-d1-int-hi Pipelined: schedule=e856dedfd05d8cf5 report=da65d05033d25c24 entries=213",
    "gen-s-d1-int-hi PipelinedRenamed: schedule=bccb5cbabb40291b report=39bc76b9fc7d9783 entries=106",
    "gen-s-d1-fp-lo None: schedule=46b9d279c2a5cea1 report=95dd84a026b51cad entries=82",
    "gen-s-d1-fp-lo Pipelined: schedule=ad9ae5e1afbc6e2e report=179edccc13793e79 entries=162",
    "gen-s-d1-fp-lo PipelinedRenamed: schedule=29b0cccd6820e475 report=c11c60b4ce48f34f entries=125",
    "gen-s-d1-fp-hi None: schedule=01140a96c5df6664 report=f5b4df0de762acb9 entries=74",
    "gen-s-d1-fp-hi Pipelined: schedule=5cfea07f2929d599 report=0601ecede47c50d6 entries=139",
    "gen-s-d1-fp-hi PipelinedRenamed: schedule=0fde7cfb0c20d181 report=5850a8998b9feb9f entries=107",
    "gen-s-d3-int-lo None: schedule=6b5e5815268560ef report=ca923f273a904d82 entries=53",
    "gen-s-d3-int-lo Pipelined: schedule=ecf9e53c5d309dc9 report=2edb3fc3025f8272 entries=131",
    "gen-s-d3-int-lo PipelinedRenamed: schedule=4089522a4baa9c56 report=a7155a2a6d9a3905 entries=106",
    "gen-s-d3-int-hi None: schedule=152ccc101986f93a report=bf5c24d60d6a51ba entries=50",
    "gen-s-d3-int-hi Pipelined: schedule=f119c722928134dc report=62952d796b2e48dd entries=175",
    "gen-s-d3-int-hi PipelinedRenamed: schedule=1e10a81459a2dbc3 report=2d35c3f815c167b8 entries=119",
    "gen-s-d3-fp-lo None: schedule=49a42d7b0d1765b7 report=debe7954395ea7fc entries=94",
    "gen-s-d3-fp-lo Pipelined: schedule=96b7653aadc3e11e report=eaa0c721edb3e92a entries=227",
    "gen-s-d3-fp-lo PipelinedRenamed: schedule=33ca3f6b2ba926fa report=6a6640cef2e07b8c entries=176",
    "gen-s-d3-fp-hi None: schedule=5539cf69e6179e3d report=85fa5d1d9d6d5a9f entries=62",
    "gen-s-d3-fp-hi Pipelined: schedule=fd05dd439b4bea76 report=40971e0707a8a303 entries=77",
    "gen-s-d3-fp-hi PipelinedRenamed: schedule=62b45bd40c376601 report=1d31e3a099aeb363 entries=73",
    "gen-m-d1-int-lo None: schedule=6888226d8e16fd14 report=27d5faf8e1c90dbc entries=59",
    "gen-m-d1-int-lo Pipelined: schedule=d2d2417e31046b56 report=755a3a384020d7aa entries=132",
    "gen-m-d1-int-lo PipelinedRenamed: schedule=0a4de779295dc8eb report=8790662cd7d202a8 entries=85",
    "gen-m-d1-int-hi None: schedule=244f77edc0f883a7 report=fe265075608c8ee2 entries=45",
    "gen-m-d1-int-hi Pipelined: schedule=9d7ebec823ab07e6 report=2af47a4cd50659b6 entries=127",
    "gen-m-d1-int-hi PipelinedRenamed: schedule=8f5f77c79cecf231 report=6eb49daf2bfc6b69 entries=73",
    "gen-m-d1-fp-lo None: schedule=7095f47116612e85 report=5807eed5829ae2cc entries=75",
    "gen-m-d1-fp-lo Pipelined: schedule=5d20b28d334094f6 report=972ebb8709920089 entries=109",
    "gen-m-d1-fp-lo PipelinedRenamed: schedule=e6af3ec5ebd0414e report=ae66dc768b2cea07 entries=100",
    "gen-m-d1-fp-hi None: schedule=9da41f9e94873c82 report=65f76f941ae4310a entries=72",
    "gen-m-d1-fp-hi Pipelined: schedule=d76739c9eeeff1d3 report=85c6ed486e474e22 entries=165",
    "gen-m-d1-fp-hi PipelinedRenamed: schedule=2787713e35df726b report=5aee2b96330b4613 entries=120",
    "gen-m-d3-int-lo None: schedule=3e13d52c35d24811 report=d20e7ecd118c3a73 entries=63",
    "gen-m-d3-int-lo Pipelined: schedule=6dfa41c05042613f report=d70165a1c29e1e98 entries=101",
    "gen-m-d3-int-lo PipelinedRenamed: schedule=d6759da4c7e7f08a report=4ecae224018d2c8b entries=81",
    "gen-m-d3-int-hi None: schedule=5ba4f5524dd1ed1b report=33335b4f237b8ac6 entries=45",
    "gen-m-d3-int-hi Pipelined: schedule=1317f635c6e6cc57 report=e0c76e6b8415a769 entries=159",
    "gen-m-d3-int-hi PipelinedRenamed: schedule=1f2eee1b6dfdc554 report=384aec92424d2d84 entries=102",
    "gen-m-d3-fp-lo None: schedule=9b0dea30fdcbd18d report=619e195712ecb116 entries=70",
    "gen-m-d3-fp-lo Pipelined: schedule=6480576d53f650d8 report=d32d6faf21b32d1e entries=107",
    "gen-m-d3-fp-lo PipelinedRenamed: schedule=0400bfa96b9bc9e5 report=53cd4f518965a5ef entries=104",
    "gen-m-d3-fp-hi None: schedule=fcce77add27b803f report=9196f223de3a5201 entries=91",
    "gen-m-d3-fp-hi Pipelined: schedule=b889d23e6a3dc750 report=a88c2b48fb0bf56f entries=240",
    "gen-m-d3-fp-hi PipelinedRenamed: schedule=1cfd71fd6ac9255e report=a4b5b0b6baec6e67 entries=157",
    "gen-l-d1-int-lo None: schedule=bd322bb3523b4613 report=e1892ebe8afa377c entries=83",
    "gen-l-d1-int-lo Pipelined: schedule=7fba2c19ba06ecdc report=680be4a7676ea635 entries=211",
    "gen-l-d1-int-lo PipelinedRenamed: schedule=74e59441e720175f report=a314476c143cb638 entries=131",
    "gen-l-d1-int-hi None: schedule=d9ff43df71756c43 report=d0dea19e055d7be0 entries=77",
    "gen-l-d1-int-hi Pipelined: schedule=6500b6c23eba533f report=a4934ea943f867ec entries=238",
    "gen-l-d1-int-hi PipelinedRenamed: schedule=9ad3a1cb5f07848b report=8c97c637c3a3c07f entries=143",
    "gen-l-d1-fp-lo None: schedule=a1f93142199fd9ea report=bc3aaf0cbc0d1f1a entries=94",
    "gen-l-d1-fp-lo Pipelined: schedule=e38b8a54955e1e10 report=f0ebfda95a2d1b2a entries=159",
    "gen-l-d1-fp-lo PipelinedRenamed: schedule=58fa79b436fadca2 report=6e36444405e4c860 entries=124",
    "gen-l-d1-fp-hi None: schedule=c0cf827a6e236f66 report=e68c2547f77b8859 entries=75",
    "gen-l-d1-fp-hi Pipelined: schedule=63c9613c194ed725 report=7ddb10dcb35ebe85 entries=201",
    "gen-l-d1-fp-hi PipelinedRenamed: schedule=af36404addacb94a report=6c6deab614145af3 entries=136",
    "gen-l-d3-int-lo None: schedule=54b924db456bb49a report=c9a04ff170f473d0 entries=71",
    "gen-l-d3-int-lo Pipelined: schedule=9f9bd3831ac90b34 report=6f49409d55344e32 entries=139",
    "gen-l-d3-int-lo PipelinedRenamed: schedule=37420f3f596ca305 report=8d7dce52df51e833 entries=103",
    "gen-l-d3-int-hi None: schedule=9c231bedb78e41c0 report=1ab4053a948dc517 entries=65",
    "gen-l-d3-int-hi Pipelined: schedule=327d58944a65f32d report=8484b5e3a8bbf6dd entries=260",
    "gen-l-d3-int-hi PipelinedRenamed: schedule=8ea9f8fc5539fea5 report=ace5d922183e36c1 entries=169",
    "gen-l-d3-fp-lo None: schedule=9707f83c090283b0 report=fe6bed4b0a4a80c1 entries=67",
    "gen-l-d3-fp-lo Pipelined: schedule=9dcaf21978eab705 report=abdb7c5573197d6a entries=139",
    "gen-l-d3-fp-lo PipelinedRenamed: schedule=a2a2687e926b3d8e report=ca1ce5cec5b058ef entries=89",
    "gen-l-d3-fp-hi None: schedule=4a5c148822e299dd report=204db7d63d618127 entries=95",
    "gen-l-d3-fp-hi Pipelined: schedule=cc2f43a620c220d2 report=04abb376a7abeb1d entries=165",
    "gen-l-d3-fp-hi PipelinedRenamed: schedule=aed09f3c8f583a8c report=1d35a58e3c2b1327 entries=134",
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

fn analyze_lines(explorer: &Explorer) -> Vec<String> {
    let mut lines = Vec::new();
    for b in explorer.registry().iter() {
        for level in OptLevel::all() {
            let graph = explorer.schedule(b.name, level).expect("schedules").graph;
            let mut schedule = StableHasher::new();
            schedule.write(&graph.to_bytes());
            let report = explorer.analyze(b.name, level).expect("analyzes").report;
            let mut digest = StableHasher::new();
            for (sig, stats) in report.entries() {
                digest.write_str(&sig.to_string());
                digest.write_u64(stats.frequency.to_bits());
                digest.write_usize(stats.occurrences);
            }
            lines.push(format!(
                "{} {level:?}: schedule={:016x} report={:016x} entries={}",
                b.name,
                schedule.finish(),
                digest.finish(),
                report.entries().len()
            ));
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

#[test]
fn full_corpus_schedules_and_reports_match_their_pins() {
    let explorer = Explorer::new().with_registry(full_registry());
    check("analyze", &analyze_lines(&explorer), ANALYZE_PINS);
}
