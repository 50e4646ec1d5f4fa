//! Robustness properties of the front end: arbitrary input never
//! panics, and structurally valid random programs always compile to
//! valid IR that simulates deterministically.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer+parser+sema pipeline returns Ok or Err — never panics —
    /// on arbitrary byte soup.
    #[test]
    fn compiler_never_panics_on_arbitrary_input(src in ".{0,200}") {
        let _ = asip_explorer::frontend::compile("fuzz", &src);
    }

    /// Same, biased toward token-shaped noise so the parser gets deeper.
    #[test]
    fn compiler_never_panics_on_token_soup(
        words in prop::collection::vec(
            prop_oneof![
                Just("int".to_string()),
                Just("float".to_string()),
                Just("void".to_string()),
                Just("if".to_string()),
                Just("for".to_string()),
                Just("while".to_string()),
                Just("return".to_string()),
                Just("main".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("[".to_string()),
                Just("]".to_string()),
                Just(";".to_string()),
                Just("=".to_string()),
                Just("+".to_string()),
                Just("*".to_string()),
                Just("x".to_string()),
                Just("42".to_string()),
                Just("1.5".to_string()),
            ],
            0..60
        )
    ) {
        let src = words.join(" ");
        let _ = asip_explorer::frontend::compile("fuzz", &src);
    }
}

/// Generated well-formed kernels: vary loop bounds, constants and the
/// expression mix, and check the whole pipeline end to end.
#[derive(Debug, Clone)]
struct KernelShape {
    n: usize,
    scale: i64,
    offset: i64,
    use_float: bool,
    taps: usize,
}

fn kernel_shape() -> impl Strategy<Value = KernelShape> {
    (2usize..32, 1i64..9, 0i64..5, any::<bool>(), 1usize..4).prop_map(
        |(n, scale, offset, use_float, taps)| KernelShape {
            n,
            scale,
            offset,
            use_float,
            taps,
        },
    )
}

fn render(shape: &KernelShape) -> String {
    let KernelShape {
        n,
        scale,
        offset,
        use_float,
        taps,
    } = shape;
    if *use_float {
        let terms: Vec<String> = (0..*taps)
            .map(|t| format!("x[(i + {t}) % {n}] * {scale}.5"))
            .collect();
        format!(
            r#"
            input float x[{n}];
            output float y[{n}];
            void main() {{
                int i;
                for (i = 0; i < {n}; i = i + 1) {{
                    y[i] = {} + {offset}.0;
                }}
            }}
            "#,
            terms.join(" + ")
        )
    } else {
        let terms: Vec<String> = (0..*taps)
            .map(|t| format!("x[(i + {t}) % {n}] * {scale}"))
            .collect();
        format!(
            r#"
            input int x[{n}];
            output int y[{n}];
            void main() {{
                int i;
                for (i = 0; i < {n}; i = i + 1) {{
                    y[i] = {} + {offset};
                }}
            }}
            "#,
            terms.join(" + ")
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_kernels_run_the_full_pipeline(shape in kernel_shape()) {
        use asip_explorer::prelude::*;
        use asip_explorer::sim::{DataGen, DataSet, Simulator};

        let src = render(&shape);
        let program = asip_explorer::frontend::compile("gen", &src).expect("well-formed source");
        program.validate().expect("valid IR");

        let mut data = DataSet::new();
        let mut gen = DataGen::new(11);
        if shape.use_float {
            data.bind_floats("x", gen.floats(shape.n, -1.0, 1.0));
        } else {
            data.bind_ints("x", gen.ints(shape.n, -100, 100));
        }
        let exec = Simulator::new(&program).run(&data).expect("simulates");
        prop_assert!(exec.profile.total_ops() > 0);

        for level in OptLevel::all() {
            let graph = Optimizer::new(level).run(&program, &exec.profile);
            graph.check_invariants().expect("graph invariants");
            let report = SequenceDetector::new(DetectorConfig::default()).analyze(&graph);
            for (_, stats) in report.entries() {
                prop_assert!(stats.frequency <= 100.0 + 1e-9);
            }
        }
    }
}

/// Compile `src` on a fresh thread with a 2 MiB stack, the default
/// size of a spawned thread, so a deep recursion would abort the test
/// process instead of passing on the larger main-thread stack.
fn compile_on_small_stack(src: String) -> Result<(), asip_explorer::frontend::FrontendError> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || asip_explorer::frontend::compile("deep", &src).map(drop))
        .expect("spawns")
        .join()
        .expect("compile does not panic")
}

/// The four ways to nest: parentheses, unary operators, a binary
/// chain and statement bodies, each `depth` levels deep.
fn nested_sources(depth: usize) -> [String; 4] {
    let main =
        |body: String| format!("output int y[1]; void main() {{ int x; x = 1; {body} y[0] = x; }}");
    [
        main(format!("x = {}x{};", "(".repeat(depth), ")".repeat(depth))),
        main(format!("x = {}x;", "-".repeat(depth))),
        main(format!("x = x{};", " + 1".repeat(depth))),
        main(format!("{}x = 2;", "if (x) ".repeat(depth))),
    ]
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    for src in nested_sources(100_000) {
        let err = compile_on_small_stack(src).expect_err("over the depth budget");
        assert!(
            matches!(err, asip_explorer::frontend::FrontendError::Parse { .. }),
            "got {err}"
        );
    }
    // the budget, not the stack, is the binding limit: nesting just
    // inside it still compiles on the same small thread
    for src in nested_sources(250) {
        compile_on_small_stack(src).expect("within the depth budget");
    }
}
