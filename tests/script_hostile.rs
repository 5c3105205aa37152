//! Hostile scripts: every way the grammar nests, at the parser's nesting
//! limit and one level past it. At the limit a script parses, lints,
//! compiles and runs on a thread with `SCRIPT_STACK_BYTES` of stack (what
//! `limad` gives each connection); one level deeper it is an `L0004`
//! diagnostic anchored at the token that would open the extra level, not a
//! stack overflow. Flat chains of operators get the same treatment at the
//! per-statement chain limit (`L0005`).

use lima_core::LimaConfig;
use lima_lang::{
    compile_script, lint_script, CompileError, MAX_CHAIN, MAX_NESTING, SCRIPT_STACK_BYTES,
};
use lima_runtime::{execute_program, ExecutionContext};

/// A script whose deepest point is `levels` levels of `shape` deep, and the
/// token that opens the innermost level. Every script prints `1`.
fn script(shape: &str, levels: usize) -> (String, &'static str) {
    let d = levels;
    let src = match shape {
        "parentheses" => format!("x = {}1{};", "(".repeat(d), ")".repeat(d)),
        "negation" => format!("x = {}1;", "- ".repeat(d)),
        "not" => format!("x = {}TRUE;", "!".repeat(d)),
        "power" => format!("x = {}1;", "1^".repeat(d)),
        "call" => format!("x = {}1{};", "abs(".repeat(d), ")".repeat(d)),
        "index" => format!(
            "M = matrix(1, 2, 2);\nx = {}1{};",
            "M[".repeat(d),
            ", 1]".repeat(d)
        ),
        "if" => format!("{}x = 1;{}", "if (TRUE) { ".repeat(d), " }".repeat(d)),
        "else if" => format!(
            "if (FALSE) {{ x = 2; }} {}else {{ x = 1; }}",
            "else if (FALSE) { x = 2; } ".repeat(d - 1)
        ),
        "for" => {
            let heads: String = (0..d).map(|k| format!("for (i{k} in 1:1) {{ ")).collect();
            format!("x = 0;\n{heads}x = x + 1;{}", " }".repeat(d))
        }
        _ => unreachable!("unknown shape {shape}"),
    };
    let opener = match shape {
        "parentheses" | "call" => "(",
        "negation" => "-",
        "not" => "!",
        "power" => "^",
        "index" => "[",
        _ => "{",
    };
    (src + "\nprint(x);", opener)
}

const SHAPES: [&str; 9] = [
    "parentheses",
    "negation",
    "not",
    "power",
    "call",
    "index",
    "if",
    "else if",
    "for",
];

/// Runs `f` on a thread with the stack `limad` gives a connection.
fn on_script_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(SCRIPT_STACK_BYTES)
        .spawn(f)
        .expect("thread starts")
        .join()
        .expect("no stack overflow or panic")
}

#[test]
fn scripts_at_the_nesting_limit_compile_and_run() {
    for shape in SHAPES {
        let (src, _) = script(shape, MAX_NESTING as usize);
        let stdout = on_script_stack(move || {
            let lints = lint_script(&src, &LimaConfig::lima());
            assert!(lints.iter().all(|d| d.code != "L0004"), "{src}: {lints:?}");
            let program = compile_script(&src, &LimaConfig::lima()).expect("compiles");
            let mut ctx = ExecutionContext::new(LimaConfig::lima());
            execute_program(&program, &mut ctx).expect("runs");
            ctx.stdout
        });
        assert_eq!(stdout, vec!["1".to_string()], "{shape}");
    }
}

#[test]
fn one_level_past_the_limit_is_a_coded_error_at_the_opening_token() {
    for shape in SHAPES {
        let (src, opener) = script(shape, MAX_NESTING as usize + 1);
        let (compiled, lints) = on_script_stack({
            let src = src.clone();
            move || {
                let compiled = match compile_script(&src, &LimaConfig::lima()) {
                    Err(CompileError::Parse(e)) => Some(e.diagnostic()),
                    _ => None,
                };
                (compiled, lint_script(&src, &LimaConfig::lima()))
            }
        });
        let d = compiled.unwrap_or_else(|| panic!("{shape}: expected a parse error"));
        assert_eq!(d.code, "L0004", "{shape}: {d:?}");
        assert_eq!(
            lints,
            vec![d.clone()],
            "{shape}: lint reports the same error"
        );
        let span = d.primary.expect("span");
        assert_eq!(
            &src[span.start as usize..span.end as usize],
            opener,
            "{shape}"
        );
    }
}

/// A statement of `links` chained links of `shape`, and the operator token
/// that adds the last one. Every script prints `1`.
fn chain(shape: &str, links: usize) -> (String, &'static str) {
    let n = links;
    let m = "M = matrix(1, 1, 1);\n";
    let (src, op) = match shape {
        "sum" => (format!("x = 1{};", " + 0".repeat(n)), "+"),
        "product" => (format!("x = 1{};", " * 1".repeat(n)), "*"),
        "and" => (format!("x = TRUE{};", " & TRUE".repeat(n)), "&"),
        "matmul" => (format!("{m}x = sum(M{});", " %*% M".repeat(n)), "%*%"),
        "index" => (format!("{m}x = sum(M{});", "[1, 1]".repeat(n)), "["),
        // The deepest call nesting around the costliest chain.
        "nested index" => {
            let d = MAX_NESTING as usize - 1;
            let src = format!(
                "{m}x = sum({}M{}{});",
                "abs(".repeat(d - 1),
                "[1, 1]".repeat(n),
                ")".repeat(d - 1)
            );
            (src, "[")
        }
        _ => unreachable!("unknown shape {shape}"),
    };
    (src + "\nprint(x);", op)
}

const CHAINS: [&str; 6] = ["sum", "product", "and", "matmul", "index", "nested index"];

#[test]
fn statements_at_the_chain_limit_compile_and_run() {
    for shape in CHAINS {
        let (src, _) = chain(shape, MAX_CHAIN as usize);
        let stdout = on_script_stack(move || {
            let lints = lint_script(&src, &LimaConfig::lima());
            assert!(lints.iter().all(|d| d.code != "L0005"), "{lints:?}");
            let program = compile_script(&src, &LimaConfig::lima()).expect("compiles");
            let mut ctx = ExecutionContext::new(LimaConfig::lima());
            execute_program(&program, &mut ctx).expect("runs");
            ctx.stdout
        });
        assert_eq!(stdout, vec!["1".to_string()], "{shape}");
    }
}

#[test]
fn one_link_past_the_chain_limit_is_a_coded_error_at_its_operator() {
    for shape in CHAINS {
        let (src, op) = chain(shape, MAX_CHAIN as usize + 1);
        let (compiled, lints) = on_script_stack({
            let src = src.clone();
            move || {
                let compiled = match compile_script(&src, &LimaConfig::lima()) {
                    Err(CompileError::Parse(e)) => Some(e.diagnostic()),
                    _ => None,
                };
                (compiled, lint_script(&src, &LimaConfig::lima()))
            }
        });
        let d = compiled.unwrap_or_else(|| panic!("{shape}: expected a parse error"));
        assert_eq!(d.code, "L0005", "{shape}: {d:?}");
        assert_eq!(
            lints,
            vec![d.clone()],
            "{shape}: lint reports the same error"
        );
        let span = d.primary.expect("span");
        assert_eq!(&src[span.start as usize..span.end as usize], op, "{shape}");
        // The refused link is the last one.
        assert!(!src[span.end as usize..].contains(op), "{shape}");
    }
}
