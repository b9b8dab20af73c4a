//! The interpreter: one [`Interp`] is one "interpreter process".
//!
//! In the live runtime, each library daemon owns one, executes its
//! context-setup function once, and then serves invocations against the
//! retained global namespace — the paper's L3 retain mechanism (§2.2.3).
//! Wrapped tasks (L1/L2) instead build a fresh `Interp` per execution,
//! paying context reconstruction every time.
//!
//! Every program, function body, `eval` and source-module import runs on
//! the bytecode VM (`vm.rs`). The tree-walker in `reference.rs` is kept
//! only as the VM's differential oracle; [`Engine::Tree`] selects it.
//! Both engines enter user functions through one place,
//! `Interp::call_function`, which checks arity and the
//! [`MAX_CALL_DEPTH`] limit for both.

use crate::ast::{BinOp, FuncDef, Program, Stmt, StmtKind, UnOp};
use crate::bytecode::{CompiledFn, CompiledModule};
use crate::modules::ModuleRegistry;
use crate::value::{Function, Value};
use crate::{compile, reference, vm};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use vine_core::{Result, VineError};

/// Most user-function activations one interpreter may have live at once.
/// A call past it fails with an error, as Python's `RecursionError` does,
/// instead of overflowing the thread's stack and aborting the process.
pub const MAX_CALL_DEPTH: u32 = 800;

/// Stack size for threads that run user code (library daemons, fork-mode
/// children, worker pool threads). It fits [`MAX_CALL_DEPTH`] activations of
/// either engine in debug builds, which need ~18 KiB per level (~920
/// levels fit); release builds need ~2 KiB. Thread spawns cost more with
/// larger stacks, so it is no larger than that.
pub const USER_STACK_BYTES: usize = 16 << 20;

/// Which engine runs programs and function bodies. Both share all other
/// interpreter state (globals, modules, output, step budget, call depth)
/// and are semantically identical. Production code runs the VM, the
/// default; `Tree` selects the tree-walking reference, which differential
/// tests and `repro perf --lang` compare it against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    Tree,
    #[default]
    Vm,
}

/// An interpreter instance: globals + module registry + captured output.
pub struct Interp {
    /// Module-level namespace. Shared (by `Rc`) with every function defined
    /// in it, so `global` writes from context setup are visible to later
    /// invocations.
    pub globals: Rc<RefCell<BTreeMap<String, Value>>>,
    registry: ModuleRegistry,
    /// Cache of already-imported modules.
    loaded: BTreeMap<String, Value>,
    /// Source modules whose import is running this interpreter, outermost
    /// first: an import of any of them again is a cycle.
    importing: Vec<String>,
    /// Captured `print` output.
    pub output: Vec<String>,
    steps: u64,
    /// Abort execution after this many evaluation steps (guards tests and
    /// fuzzing against runaway loops).
    pub step_limit: u64,
    /// Live user-function activations (bounded by [`MAX_CALL_DEPTH`]).
    depth: u32,
    /// Which engine executes programs and function bodies.
    pub engine: Engine,
    /// Recycled VM local-slot buffers, so steady-state calls allocate
    /// nothing.
    slot_pool: Vec<Vec<Option<Value>>>,
    /// Recycled VM operand stacks.
    stack_pool: Vec<Vec<Value>>,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    pub fn new() -> Interp {
        Interp::with_registry(ModuleRegistry::new())
    }

    pub fn with_registry(registry: ModuleRegistry) -> Interp {
        Interp {
            globals: Rc::new(RefCell::new(BTreeMap::new())),
            registry,
            loaded: BTreeMap::new(),
            importing: Vec::new(),
            output: Vec::new(),
            steps: 0,
            step_limit: 200_000_000,
            depth: 0,
            engine: Engine::Vm,
            slot_pool: Vec::new(),
            stack_pool: Vec::new(),
        }
    }

    pub fn registry(&self) -> &ModuleRegistry {
        &self.registry
    }

    /// Parse and execute source at module level.
    pub fn exec_source(&mut self, src: &str) -> Result<()> {
        let prog = crate::parse(src)?;
        self.exec_program(&prog)
    }

    /// Execute a parsed program at module level.
    pub fn exec_program(&mut self, prog: &Program) -> Result<()> {
        match self.engine {
            Engine::Vm => vm::run_toplevel(self, &compile::compile_program(prog)).map(|_| ()),
            Engine::Tree => reference::exec_program(self, prog),
        }
    }

    /// Execute an already-compiled module image at module level, skipping
    /// parse and compile entirely — the install-once/invoke-many path for
    /// shipped library contexts.
    pub fn exec_compiled(&mut self, module: &CompiledModule) -> Result<()> {
        vm::run_toplevel(self, &module.top).map(|_| ())
    }

    /// Evaluate a single expression in the global scope.
    pub fn eval_source(&mut self, src: &str) -> Result<Value> {
        let prog = crate::parse(src)?;
        match prog.as_slice() {
            [Stmt {
                kind: StmtKind::Expr(e),
                ..
            }] => match self.engine {
                Engine::Vm => vm::run_toplevel(self, &compile::compile_expr(e)),
                Engine::Tree => reference::eval_expr(self, e),
            },
            _ => Err(VineError::Lang(
                "eval_source expects exactly one expression".into(),
            )),
        }
    }

    /// Look up a global by name.
    pub fn get_global(&self, name: &str) -> Option<Value> {
        self.globals.borrow().get(name).cloned()
    }

    /// Set a global.
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        self.globals.borrow_mut().insert(name.into(), value);
    }

    /// Every bound global name, sorted. Differential tests use this to
    /// compare whole namespaces between execution variants.
    pub fn global_names(&self) -> Vec<String> {
        self.globals.borrow().keys().cloned().collect()
    }

    /// Call a function bound in globals with the given arguments.
    pub fn call_global(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        let f = self
            .get_global(name)
            .ok_or_else(|| VineError::Lang(format!("undefined function: {name}")))?;
        self.call_value(&f, args)
    }

    /// Call any callable value.
    pub fn call_value(&mut self, callee: &Value, args: &[Value]) -> Result<Value> {
        match callee {
            Value::Func(f) => self.call_function(f, args),
            Value::Native(n) => (n.f)(args),
            other => Err(VineError::Lang(format!(
                "{} is not callable",
                other.type_name()
            ))),
        }
    }

    fn call_function(&mut self, f: &Rc<Function>, args: &[Value]) -> Result<Value> {
        if args.len() != f.def.params.len() {
            return Err(VineError::Lang(format!(
                "function {} takes {} arguments, got {}",
                if f.def.name.is_empty() {
                    "<lambda>"
                } else {
                    &f.def.name
                },
                f.def.params.len(),
                args.len()
            )));
        }
        if self.depth >= MAX_CALL_DEPTH {
            return Err(VineError::Lang(format!(
                "call depth limit exceeded ({MAX_CALL_DEPTH} nested calls)"
            )));
        }
        // the function executes against its *defining* globals, which may
        // belong to a different interpreter than `self` (e.g. a deserialized
        // function re-bound on a worker)
        let saved = Rc::clone(&self.globals);
        self.globals = Rc::clone(&f.globals);
        self.depth += 1;
        let result = match self.engine {
            Engine::Vm => {
                let code = compiled_for(f);
                vm::run_function(self, &code, args)
            }
            Engine::Tree => reference::call_function(self, f, args),
        };
        self.depth -= 1;
        self.globals = saved;
        result
    }

    pub(crate) fn take_slot_buf(&mut self) -> Vec<Option<Value>> {
        self.slot_pool.pop().unwrap_or_default()
    }

    pub(crate) fn put_slot_buf(&mut self, mut buf: Vec<Option<Value>>) {
        buf.clear();
        if self.slot_pool.len() < 64 {
            self.slot_pool.push(buf);
        }
    }

    pub(crate) fn take_stack_buf(&mut self) -> Vec<Value> {
        self.stack_pool.pop().unwrap_or_default()
    }

    pub(crate) fn put_stack_buf(&mut self, mut buf: Vec<Value>) {
        buf.clear();
        if self.stack_pool.len() < 64 {
            self.stack_pool.push(buf);
        }
    }

    /// Global write that overwrites in place when the key exists, cloning
    /// the name only for genuinely new bindings.
    #[inline]
    pub(crate) fn set_global_fast(&self, name: &str, value: Value) {
        let mut globals = self.globals.borrow_mut();
        match globals.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                globals.insert(name.to_string(), value);
            }
        }
    }

    #[inline]
    pub(crate) fn tick(&mut self) -> Result<()> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(VineError::Lang(format!(
                "step limit exceeded ({} steps)",
                self.step_limit
            )));
        }
        Ok(())
    }

    pub(crate) fn index_assign(&mut self, obj: &Value, idx: &Value, value: Value) -> Result<()> {
        match obj {
            Value::List(items) => {
                let i = idx.as_int()?;
                let mut items = items.borrow_mut();
                let len = items.len() as i64;
                let i = if i < 0 { i + len } else { i };
                if i < 0 || i >= len {
                    return Err(VineError::Lang(format!(
                        "list index {i} out of range (len {len})"
                    )));
                }
                items[i as usize] = value;
                Ok(())
            }
            Value::Dict(d) => {
                let k = idx.as_str()?.to_string();
                d.borrow_mut().insert(k, value);
                Ok(())
            }
            other => Err(VineError::Lang(format!(
                "{} does not support item assignment",
                other.type_name()
            ))),
        }
    }

    /// Import a module by name, as an `import` statement does: native
    /// modules are built from the registry, source modules executed in a
    /// fresh namespace on this interpreter's engine. Each module is
    /// imported once per interpreter. A source module that imports itself,
    /// directly or through others, fails with the cycle named.
    pub fn import_module(&mut self, name: &str) -> Result<Value> {
        if let Some(m) = self.loaded.get(name) {
            return Ok(m.clone());
        }
        let module = if let Some(m) = self.registry.build_native(name) {
            m
        } else if let Some(src) = self.registry.source_module(name).map(str::to_string) {
            if let Some(first) = self.importing.iter().position(|m| m == name) {
                let cycle = self.importing[first..].join(" -> ");
                return Err(VineError::Lang(format!("import cycle: {cycle} -> {name}")));
            }
            // execute the module source in a fresh namespace sharing this
            // registry, then adopt its globals map *as* the module's member
            // table — the functions defined in it close over the same map,
            // so no copy is needed (or wanted)
            let mut sub = Interp::with_registry(self.registry.clone());
            sub.engine = self.engine;
            sub.importing = self.importing.clone();
            sub.importing.push(name.to_string());
            sub.exec_source(&src)?;
            Value::Module(Rc::new(crate::value::ModuleObj {
                name: name.to_string(),
                members: Rc::clone(&sub.globals),
            }))
        } else {
            return Err(self.registry.missing(name));
        };
        self.loaded.insert(name.to_string(), module.clone());
        Ok(module)
    }

    /// Where an imported value came from, so that another interpreter over
    /// the same registry can rebuild it with [`Interp::import_module`]: the
    /// module's name, plus the member's name for a native bound on its own
    /// (as in `sq = mathx.square`). `None` for anything else.
    pub fn import_origin(&self, v: &Value) -> Option<(String, Option<String>)> {
        match v {
            Value::Module(m) => Some((m.name.clone(), None)),
            Value::Native(n) => self.loaded.iter().find_map(|(module, loaded)| {
                let Value::Module(m) = loaded else {
                    return None;
                };
                let members = m.members.borrow();
                let (member, _) = members
                    .iter()
                    .find(|(_, v)| matches!(v, Value::Native(x) if Rc::ptr_eq(x, n)))?;
                Some((module.clone(), Some(member.clone())))
            }),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn index_get(&self, obj: &Value, idx: &Value) -> Result<Value> {
        match obj {
            Value::List(items) => {
                let items = items.borrow();
                let len = items.len() as i64;
                let i = idx.as_int()?;
                let i = if i < 0 { i + len } else { i };
                if i < 0 || i >= len {
                    return Err(VineError::Lang(format!(
                        "list index {i} out of range (len {len})"
                    )));
                }
                Ok(items[i as usize].clone())
            }
            Value::Dict(d) => {
                let k = idx.as_str()?;
                d.borrow()
                    .get(k)
                    .cloned()
                    .ok_or_else(|| VineError::Lang(format!("key not found: {k}")))
            }
            Value::Str(s) => {
                // iterate once instead of materializing a Vec<char> per index
                let len = s.chars().count() as i64;
                let i = idx.as_int()?;
                let i = if i < 0 { i + len } else { i };
                if i < 0 || i >= len {
                    return Err(VineError::Lang(format!(
                        "string index {i} out of range (len {len})"
                    )));
                }
                let c = s.chars().nth(i as usize).expect("index checked in range");
                Ok(Value::str(c.to_string()))
            }
            Value::Tensor(t) => {
                let i = idx.as_int()?;
                let len = t.data.len() as i64;
                let i = if i < 0 { i + len } else { i };
                if i < 0 || i >= len {
                    return Err(VineError::Lang(format!(
                        "tensor index {i} out of range (len {len})"
                    )));
                }
                Ok(Value::Float(t.data[i as usize]))
            }
            other => Err(VineError::Lang(format!(
                "{} is not indexable",
                other.type_name()
            ))),
        }
    }

    /// Bind a function definition into this interpreter's globals, attaching
    /// it to *these* globals — used when reconstructing shipped functions on
    /// a worker.
    pub fn bind_function(&mut self, def: Rc<FuncDef>) {
        let name = def.name.clone();
        let func = Value::Func(Rc::new(Function::new(def, Rc::clone(&self.globals))));
        self.globals.borrow_mut().insert(name, func);
    }

    /// Make this interpreter usable again after a panic unwound out of
    /// it. The calls the panic crossed never returned, so their depth
    /// count, import chain and swapped-in callee globals are still set;
    /// `globals` is the namespace that was current when the outermost of
    /// them began.
    pub fn recover(&mut self, globals: Rc<RefCell<BTreeMap<String, Value>>>) {
        self.globals = globals;
        self.depth = 0;
        self.importing.clear();
    }

    /// Drop this interpreter and free its namespace. Every function bound
    /// in `globals` holds an `Rc` to `globals`, so a plain drop leaves that
    /// cycle alive; emptying the map first breaks it. Call this only where
    /// no value of the namespace escapes the interpreter.
    pub fn release(self) {
        let namespace = std::mem::take(&mut *self.globals.borrow_mut());
        drop(namespace);
    }
}

/// The bytecode for a function value, compiled on its first call and kept
/// in the function's own cache. Functions created by VM `MakeFunc`
/// (including ones decoded from a shipped image) come pre-seeded.
fn compiled_for(f: &Function) -> Rc<CompiledFn> {
    let mut cached = f.compiled.borrow_mut();
    Rc::clone(cached.get_or_insert_with(|| Rc::new(compile::compile_function(&f.def))))
}

/// Apply a unary operator to an already-evaluated value. Public for the
/// same reason as [`binary_op`]: constant folding must share the runtime's
/// exact semantics.
#[inline]
pub fn unary_op(op: UnOp, v: &Value) -> Result<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Int(x) => Ok(Value::Int(x.checked_neg().ok_or_else(overflow)?)),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(VineError::Lang(format!(
                "cannot negate {}",
                other.type_name()
            ))),
        },
        UnOp::Not => Ok(Value::Bool(!v.truthy())),
    }
}

/// Apply a (non-short-circuit) binary operator to two already-evaluated
/// values. Public so static analyses (vine-flow constant propagation) can
/// fold operators with *exactly* the runtime semantics — same overflow
/// checks, same division rules — guaranteeing fold-then-run never diverges
/// from run. `And`/`Or` are short-circuited in `eval` and must not be
/// passed here.
#[inline]
pub fn binary_op(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    use Value::*;
    match op {
        Add => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.checked_add(*b).ok_or_else(overflow)?)),
            (Str(a), Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            (List(a), List(b)) => {
                let mut out = a.borrow().clone();
                out.extend(b.borrow().iter().cloned());
                Ok(Value::list(out))
            }
            _ => num_op(l, r, |a, b| a + b),
        },
        Sub => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.checked_sub(*b).ok_or_else(overflow)?)),
            _ => num_op(l, r, |a, b| a - b),
        },
        Mul => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.checked_mul(*b).ok_or_else(overflow)?)),
            (Str(a), Int(n)) => Ok(Value::str(a.repeat((*n).max(0) as usize))),
            _ => num_op(l, r, |a, b| a * b),
        },
        Div => match (l, r) {
            (Int(a), Int(b)) => {
                if *b == 0 {
                    Err(VineError::Lang("division by zero".into()))
                } else {
                    Ok(Int(a / b))
                }
            }
            _ => {
                let b = r.as_float()?;
                if b == 0.0 {
                    Err(VineError::Lang("division by zero".into()))
                } else {
                    Ok(Float(l.as_float()? / b))
                }
            }
        },
        Mod => match (l, r) {
            (Int(a), Int(b)) => {
                if *b == 0 {
                    Err(VineError::Lang("modulo by zero".into()))
                } else {
                    Ok(Int(a.rem_euclid(*b)))
                }
            }
            _ => Err(VineError::Lang("modulo requires integers".into())),
        },
        Eq => Ok(Bool(l == r)),
        Ne => Ok(Bool(l != r)),
        Lt | Le | Gt | Ge => {
            let ord = compare(l, r)?;
            Ok(Bool(match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }))
        }
        And | Or => unreachable!("short-circuited in eval"),
    }
}

fn overflow() -> VineError {
    VineError::Lang("integer overflow".into())
}

fn num_op(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    Ok(Value::Float(f(l.as_float()?, r.as_float()?)))
}

fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    use Value::*;
    match (l, r) {
        (Int(a), Int(b)) => Ok(a.cmp(b)),
        (Str(a), Str(b)) => Ok(a.cmp(b)),
        _ => {
            let (a, b) = (l.as_float()?, r.as_float()?);
            a.partial_cmp(&b)
                .ok_or_else(|| VineError::Lang("cannot compare NaN".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::modules::native;

    fn run(src: &str) -> Interp {
        let mut interp = Interp::new();
        interp.exec_source(src).unwrap();
        interp
    }

    fn eval_global(src: &str, name: &str) -> Value {
        run(src).get_global(name).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_global("x = 2 + 3 * 4", "x"), Value::Int(14));
        assert_eq!(eval_global("x = (2 + 3) * 4", "x"), Value::Int(20));
        assert_eq!(eval_global("x = 7 / 2", "x"), Value::Int(3));
        assert_eq!(eval_global("x = 7.0 / 2", "x"), Value::Float(3.5));
        assert_eq!(eval_global("x = 7 % 3", "x"), Value::Int(1));
        assert_eq!(eval_global("x = -7 % 3", "x"), Value::Int(2)); // euclidean
        assert_eq!(eval_global("x = -(3 + 4)", "x"), Value::Int(-7));
    }

    #[test]
    fn string_ops() {
        assert_eq!(eval_global(r#"x = "ab" + "cd""#, "x"), Value::str("abcd"));
        assert_eq!(eval_global(r#"x = "ab" * 3"#, "x"), Value::str("ababab"));
        assert_eq!(eval_global(r#"x = "abc"[1]"#, "x"), Value::str("b"));
        assert_eq!(eval_global(r#"x = "abc"[-1]"#, "x"), Value::str("c"));
    }

    #[test]
    fn functions_and_recursion() {
        let src = r#"
            def fib(n) {
                if n < 2 { return n }
                return fib(n - 1) + fib(n - 2)
            }
            x = fib(15)
        "#;
        assert_eq!(eval_global(src, "x"), Value::Int(610));
    }

    #[test]
    fn closures_see_defining_globals() {
        let src = r#"
            base = 100
            def f(x) { return base + x }
            y = f(5)
            base = 200
            z = f(5)
        "#;
        let interp = run(src);
        assert_eq!(interp.get_global("y").unwrap(), Value::Int(105));
        // late binding: the global's current value is read at call time
        assert_eq!(interp.get_global("z").unwrap(), Value::Int(205));
    }

    #[test]
    fn global_statement_publishes_state() {
        // the paper's Fig 4 pattern: context setup registers a model in the
        // global namespace, the work function reads it
        let src = r#"
            def context_setup(params) {
                global model
                model = params * 2
            }
            def infer(x) { return model + x }
            context_setup(50)
            result = infer(1)
        "#;
        assert_eq!(eval_global(src, "result"), Value::Int(101));
    }

    #[test]
    fn locals_do_not_leak_without_global() {
        let src = r#"
            def f() { temp = 42 }
            f()
        "#;
        let interp = run(src);
        assert!(interp.get_global("temp").is_none());
    }

    #[test]
    fn loops_and_control_flow() {
        let src = r#"
            s = 0
            for i in range(10) {
                if i % 2 == 0 { continue }
                if i > 7 { break }
                s += i
            }
            n = 0
            while n < 5 { n += 1 }
        "#;
        let interp = run(src);
        assert_eq!(interp.get_global("s").unwrap(), Value::Int(1 + 3 + 5 + 7));
        assert_eq!(interp.get_global("n").unwrap(), Value::Int(5));
    }

    #[test]
    fn list_and_dict_manipulation() {
        let src = r#"
            xs = [1, 2, 3]
            xs[0] = 10
            push(xs, 4)
            d = {"a": 1}
            d["b"] = 2
            total = xs[0] + xs[3] + d["b"]
        "#;
        assert_eq!(eval_global(src, "total"), Value::Int(16));
    }

    #[test]
    fn lambda_values() {
        let src = r#"
            double = fn (x) { return x * 2 }
            y = double(21)
        "#;
        assert_eq!(eval_global(src, "y"), Value::Int(42));
    }

    #[test]
    fn higher_order_functions() {
        let src = r#"
            def apply(f, x) { return f(x) }
            y = apply(fn (v) { return v + 1 }, 41)
        "#;
        assert_eq!(eval_global(src, "y"), Value::Int(42));
    }

    #[test]
    fn import_native_module() {
        let mut reg = ModuleRegistry::new();
        reg.register_native("mathx", || {
            vec![native("square", |args| {
                let x = args[0].as_int()?;
                Ok(Value::Int(x * x))
            })]
        });
        let mut interp = Interp::with_registry(reg);
        interp
            .exec_source("import mathx\ny = mathx.square(9)")
            .unwrap();
        assert_eq!(interp.get_global("y").unwrap(), Value::Int(81));
    }

    #[test]
    fn import_source_module() {
        let mut reg = ModuleRegistry::new();
        reg.register_source("helpers", "def triple(x) { return x * 3 }");
        let mut interp = Interp::with_registry(reg);
        interp
            .exec_source("import helpers\ny = helpers.triple(14)")
            .unwrap();
        assert_eq!(interp.get_global("y").unwrap(), Value::Int(42));
    }

    #[test]
    fn missing_import_is_dependency_error() {
        let mut interp = Interp::new();
        let e = interp.exec_source("import numpy").unwrap_err();
        assert!(matches!(e, VineError::Dependency(_)), "{e:?}");
    }

    #[test]
    fn short_circuit_evaluation() {
        // rhs would divide by zero if evaluated
        let src = "x = false and 1 / 0\ny = true or 1 / 0";
        let interp = run(src);
        assert_eq!(interp.get_global("x").unwrap(), Value::Bool(false));
        assert_eq!(interp.get_global("y").unwrap(), Value::Bool(true));
    }

    #[test]
    fn runtime_errors() {
        let cases = [
            ("x = 1 / 0", "division by zero"),
            ("x = [1][5]", "out of range"),
            ("x = {\"a\": 1}[\"b\"]", "key not found"),
            ("undefined_fn(1)", "undefined"),
            ("x = nosuchvar", "undefined variable"),
            ("x = 1 + \"s\"", "expected float"),
        ];
        for (src, needle) in cases {
            let mut interp = Interp::new();
            let e = interp.exec_source(src).unwrap_err().to_string();
            assert!(e.contains(needle), "{src}: {e}");
        }
    }

    #[test]
    fn integer_overflow_is_caught() {
        let mut interp = Interp::new();
        let e = interp
            .exec_source("x = 9223372036854775807 + 1")
            .unwrap_err();
        assert!(e.to_string().contains("overflow"));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut interp = Interp::new();
        interp.step_limit = 10_000;
        let e = interp.exec_source("while true { }").unwrap_err();
        assert!(e.to_string().contains("step limit"));
    }

    #[test]
    fn builtin_shadowing_by_user_definition() {
        // user-defined len replaces the builtin
        let src = r#"
            def len(x) { return 999 }
            y = len([1, 2, 3])
        "#;
        assert_eq!(eval_global(src, "y"), Value::Int(999));
    }

    #[test]
    fn for_over_dict_iterates_keys() {
        let src = r#"
            d = {"b": 2, "a": 1}
            ks = []
            for k in d { push(ks, k) }
        "#;
        let interp = run(src);
        // BTreeMap iteration: sorted keys — deterministic
        assert_eq!(
            interp.get_global("ks").unwrap(),
            Value::list(vec![Value::str("a"), Value::str("b")])
        );
    }

    #[test]
    fn bind_function_attaches_to_new_globals() {
        let def = Rc::new(crate::ast::FuncDef::new(
            "probe",
            vec![],
            vec![Stmt::dummy(StmtKind::Return(Some(Expr::Var(
                "state".into(),
            ))))],
        ));
        let mut interp = Interp::new();
        interp.set_global("state", Value::Int(7));
        interp.bind_function(def);
        assert_eq!(interp.call_global("probe", &[]).unwrap(), Value::Int(7));
    }

    #[test]
    fn deserialized_function_argument_is_freed_after_the_call() {
        // a function value decoded per invocation compiles into its own
        // cache, so the interpreter keeps nothing of it once the call ends
        let mut origin = Interp::new();
        origin.exec_source("def inc(v) { return v + 1 }").unwrap();
        let blob =
            crate::pickle::serialize_args(&[origin.get_global("inc").unwrap(), Value::Int(41)])
                .unwrap();
        let mut interp = Interp::new();
        interp.engine = Engine::Vm;
        interp
            .exec_source("def apply(f, x) { return f(x) }")
            .unwrap();
        let args = crate::pickle::deserialize_args(&blob, &interp.globals).unwrap();
        let def = match &args[0] {
            Value::Func(f) => Rc::downgrade(&f.def),
            other => panic!("expected a function, got {other:?}"),
        };
        assert_eq!(interp.call_global("apply", &args).unwrap(), Value::Int(42));
        drop(args);
        assert!(
            def.upgrade().is_none(),
            "the interpreter kept the definition"
        );
    }

    #[test]
    fn wrong_arity_is_error() {
        let mut interp = Interp::new();
        interp.exec_source("def f(a, b) { return a }").unwrap();
        let e = interp.call_global("f", &[Value::Int(1)]).unwrap_err();
        assert!(e.to_string().contains("takes 2 arguments"));
    }

    #[test]
    fn import_cycles_fail_with_the_cycle_named() {
        // a cycle must fail, not re-run its modules in fresh interpreters
        // until the stack overflows
        let (own, pair, diamond) = crate::wire::on_small_stack(|| {
            let import = |modules: &[(&str, &str)], name: &str| {
                let mut registry = ModuleRegistry::new();
                for (m, src) in modules {
                    registry.register_source(*m, *src);
                }
                Interp::with_registry(registry)
                    .exec_source(&format!("import {name}"))
                    .map_err(|e| e.to_string())
            };
            let own = import(&[("a", "import a\nx = 1")], "a");
            let pair = import(&[("a", "import b"), ("b", "import a")], "a");
            // two modules importing a third is a diamond, not a cycle
            let diamond = import(
                &[
                    ("top", "import left\nimport right\nv = left.v + right.v"),
                    ("left", "import base\nv = base.v"),
                    ("right", "import base\nv = base.v * 2"),
                    ("base", "v = 1"),
                ],
                "top",
            );
            (own, pair, diamond)
        });
        assert!(own.unwrap_err().contains("import cycle: a -> a"));
        assert!(pair.unwrap_err().contains("import cycle: a -> b -> a"));
        diamond.expect("a diamond loads");
    }
}
