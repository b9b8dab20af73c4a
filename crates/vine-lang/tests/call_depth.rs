//! The call-depth limit. Unbounded recursion must end in an error on both
//! engines, not in a stack overflow that aborts the process, on a thread
//! with the stack size the runtime gives threads that run user code; and
//! recursion just inside the limit must succeed. Debug and release builds
//! lay out stack frames differently, so CI runs this file in both.

use vine_lang::interp::{MAX_CALL_DEPTH, USER_STACK_BYTES};
use vine_lang::{Engine, Interp, Value};

const SRC: &str = "
def down(n) {
    if n == 0 { return 0 }
    return 1 + down(n - 1)
}
def forever(n) { return forever(n + 1) }
";

fn on_user_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(USER_STACK_BYTES)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

fn boot(engine: Engine) -> Interp {
    let mut interp = Interp::new();
    interp.engine = engine;
    interp.exec_source(SRC).unwrap();
    interp
}

fn depth_error(result: vine_core::Result<Value>) -> String {
    let err = result.unwrap_err().to_string();
    assert!(err.contains("call depth limit exceeded"), "{err}");
    err
}

#[test]
fn unbounded_recursion_fails_with_one_error_on_both_engines() {
    on_user_stack(|| {
        let mut errors = Vec::new();
        for engine in [Engine::Tree, Engine::Vm] {
            let mut interp = boot(engine);
            errors.push(depth_error(interp.call_global("forever", &[Value::Int(0)])));
            errors.push(depth_error(
                interp.exec_source("forever(0)").map(|()| Value::None),
            ));
            // the failed calls unwound their depth: the interpreter serves on
            let back = interp.call_global("down", &[Value::Int(3)]).unwrap();
            assert_eq!(back, Value::Int(3), "{engine:?}");
        }
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    });
}

#[test]
fn recursion_just_inside_the_limit_succeeds() {
    on_user_stack(|| {
        // down(n) makes n + 1 activations
        let deepest = i64::from(MAX_CALL_DEPTH) - 1;
        for engine in [Engine::Tree, Engine::Vm] {
            let mut interp = boot(engine);
            let out = interp.call_global("down", &[Value::Int(deepest)]);
            assert_eq!(out.unwrap(), Value::Int(deepest), "{engine:?}");
            depth_error(interp.call_global("down", &[Value::Int(deepest + 1)]));
        }
    });
}
