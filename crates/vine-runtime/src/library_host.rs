//! The library daemon: one thread, one interpreter, one retained context.
//!
//! A daemon reports `Ready`, `StartupFailed` and each `ResultReady`
//! through a reply function that runs on the daemon's own thread. The
//! worker's function maps the reply to the manager protocol and sends it
//! itself, onto the transport's event channel or as a frame written to
//! the socket, so no thread sits between a daemon and the manager. A
//! panic in user code, during boot or in one invocation, is caught and
//! reported like any other failure, and the daemon keeps serving.
//!
//! A daemon boots from the image's compiled module alone: no worker
//! parses library source.

use crossbeam::channel::{Receiver, Sender};
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::thread::JoinHandle;
use vine_core::context::SetupSpec;
use vine_core::ids::{LibraryInstanceId, WorkerId};
use vine_core::task::ExecMode;
use vine_lang::interp::USER_STACK_BYTES;
use vine_lang::pickle;
use vine_lang::{Interp, ModuleRegistry, Value};
use vine_proto::{CompiledBlob, LibraryToWorker, WorkerToLibrary};

pub use vine_proto::LibraryImage;

/// The image of a library whose module is `source`, compiled here, with
/// no serialized functions: what a daemon boots when no manager built
/// the image.
pub fn compile_image(
    instance: LibraryInstanceId,
    source: &str,
    setup: Option<SetupSpec>,
    default_mode: ExecMode,
) -> vine_core::Result<LibraryImage> {
    let module = vine_lang::compile_module(&vine_lang::parse(source)?, source);
    Ok(LibraryImage {
        instance,
        source: source.to_string(),
        serialized_functions: vec![],
        setup,
        default_mode,
        compiled: Some(CompiledBlob {
            source_digest: module.source_digest,
            bytes: module.to_bytes(),
        }),
    })
}

/// A running daemon: its thread and command channel.
pub struct LibraryHost {
    pub instance: LibraryInstanceId,
    /// Execution option used when an invocation does not specify one.
    pub default_mode: ExecMode,
    pub tx: Sender<WorkerToLibrary>,
    /// `None` once the daemon panicked and was reaped, or when its thread
    /// could not be spawned.
    pub thread: Option<JoinHandle<()>>,
}

/// Boot a library daemon thread. Replies (Ready / StartupFailed /
/// ResultReady) flow to `events` tagged with the owning worker and
/// instance.
pub fn spawn_library(
    worker: WorkerId,
    image: LibraryImage,
    registry: ModuleRegistry,
    events: Sender<(WorkerId, LibraryInstanceId, LibraryToWorker)>,
) -> LibraryHost {
    let instance = image.instance;
    spawn_daemon(image, registry, move |msg| {
        let _ = events.send((worker, instance, msg));
    })
}

/// Boot a library daemon thread that hands each reply to `reply` on its
/// own thread. A thread the OS refuses to spawn is reported as
/// `StartupFailed`, and the host comes back without a thread.
pub(crate) fn spawn_daemon<R>(
    image: LibraryImage,
    registry: ModuleRegistry,
    reply: R,
) -> LibraryHost
where
    R: Fn(LibraryToWorker) + Clone + Send + 'static,
{
    let (tx, rx) = crossbeam::channel::unbounded::<WorkerToLibrary>();
    let instance = image.instance;
    let default_mode = image.default_mode;
    let daemon_reply = reply.clone();
    let thread = spawn_user_thread(format!("library-{instance}"), move || {
        daemon_main(image, registry, rx, daemon_reply)
    })
    .map_err(|e| {
        reply(LibraryToWorker::StartupFailed {
            error: format!("spawning library thread: {e}"),
        })
    })
    .ok();
    LibraryHost {
        instance,
        default_mode,
        tx,
        thread,
    }
}

/// Spawn a thread that runs user code: named `name`, on a
/// [`USER_STACK_BYTES`] stack. Library daemons, fork-mode children and the
/// worker's pool threads all start here, so a test can make the OS refuse
/// any of them (`tests::refuse_spawn`).
pub(crate) fn spawn_user_thread<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<JoinHandle<T>> {
    #[cfg(test)]
    tests::refused(&name)?;
    std::thread::Builder::new()
        .name(name)
        .stack_size(USER_STACK_BYTES)
        .spawn(f)
}

/// Run `f`, turning a panic into an error that names it, so a bug that
/// user code trips fails one unit instead of killing its thread.
pub(crate) fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(panicked)
}

/// The error a caught panic becomes, with the panic's message.
fn panicked(payload: Box<dyn Any + Send>) -> String {
    let what = match payload.downcast_ref::<&str>() {
        Some(s) => s.to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "a non-string payload".to_string(),
        },
    };
    format!("panicked: {what}")
}

fn daemon_main(
    image: LibraryImage,
    registry: ModuleRegistry,
    rx: Receiver<WorkerToLibrary>,
    reply: impl Fn(LibraryToWorker),
) {
    // §3.4 step 2: boot, reconstruct code, run all context setup, report.
    let mut interp = Interp::with_registry(registry);
    match catch_panic(|| boot(&mut interp, &image)).and_then(|booted| booted) {
        Ok(()) => reply(LibraryToWorker::Ready),
        Err(error) => {
            reply(LibraryToWorker::StartupFailed { error });
            interp.release();
            return;
        }
    }

    // §3.4 steps 3–4: serve invocations until shutdown
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerToLibrary::Shutdown => break,
            WorkerToLibrary::Invoke {
                id,
                function,
                args_blob,
                sandbox: _,
                mode,
            } => {
                let globals = Rc::clone(&interp.globals);
                let result = catch_panic(|| match mode {
                    ExecMode::Direct => run_direct(&mut interp, &function, &args_blob),
                    ExecMode::Fork => run_forked(&interp, &function, &args_blob),
                })
                .unwrap_or_else(|panic| {
                    interp.recover(globals);
                    Err(panic)
                });
                reply(LibraryToWorker::ResultReady { id, result });
            }
        }
    }
    // the retained context dies with the daemon: free it
    interp.release();
}

/// Build the daemon's context from its image: the compiled module, shipped
/// code objects, then the context-setup call. The source is never a way
/// in: an image whose module fails to decode fails the boot, and one that
/// has source but no compiled module is refused.
fn boot(interp: &mut Interp, image: &LibraryImage) -> Result<(), String> {
    match &image.compiled {
        Some(blob) => {
            let top = vine_lang::bytecode::from_bytes(&blob.bytes)
                .map_err(|e| format!("compiled image: {e}"))?;
            interp
                .exec_compiled(&vine_lang::CompiledModule {
                    top,
                    source_digest: blob.source_digest,
                })
                .map_err(|e| format!("library module: {e}"))?;
        }
        None if !image.source.is_empty() => {
            return Err("library image has source but no compiled module".to_string())
        }
        None => {}
    }
    for blob in &image.serialized_functions {
        let def = pickle::deserialize_funcdef(blob).map_err(|e| format!("code object: {e}"))?;
        interp.bind_function(def);
    }
    if let Some(setup) = &image.setup {
        let args = pickle::deserialize_args(&setup.args_blob, &interp.globals)
            .map_err(|e| format!("setup args: {e}"))?;
        interp
            .call_global(&setup.function, &args)
            .map_err(|e| format!("context setup: {e}"))?;
    }
    Ok(())
}

/// Direct option: execute synchronously inside the daemon's own memory
/// space; invocations may mutate the shared context.
fn run_direct(interp: &mut Interp, function: &str, args_blob: &[u8]) -> Result<Vec<u8>, String> {
    let args = pickle::deserialize_args(args_blob, &interp.globals).map_err(|e| e.to_string())?;
    let out = interp
        .call_global(function, &args)
        .map_err(|e| e.to_string())?;
    pickle::serialize_value(&out).map_err(|e| e.to_string())
}

/// Fork option: the "child" gets a copy of the namespace (fork's
/// copy-on-write semantics) and runs on its own thread; mutations stay in
/// the child (§2.1.4: invocations "can freely mutate the environment in
/// its memory space" without corrupting the shared context).
fn run_forked(interp: &Interp, function: &str, args_blob: &[u8]) -> Result<Vec<u8>, String> {
    // snapshot the namespace as bytes: plain values serialize; functions
    // are re-serialized so the child rebinds them to ITS globals, not the
    // parent's; imported modules and their native members are re-imported
    // in the child from the same registry
    let mut plain = Vec::new();
    let mut funcs = Vec::new();
    let mut imports = Vec::new();
    for (k, v) in interp.globals.borrow().iter() {
        match v {
            Value::Module(_) | Value::Native(_) => {
                if let Some(origin) = interp.import_origin(v) {
                    imports.push((k.clone(), origin));
                }
            }
            Value::Func(_) => funcs.push(pickle::serialize_value(v).map_err(|e| e.to_string())?),
            _ => plain.push((
                k.clone(),
                pickle::serialize_value(v).map_err(|e| e.to_string())?,
            )),
        }
    }
    let registry = interp.registry().clone();
    let function = function.to_string();
    let args_blob = args_blob.to_vec();

    // Values are thread-local (Rc), so the "fork" moves only bytes —
    // exactly like a real fork boundary
    let child = spawn_user_thread("library-fork".into(), move || -> Result<Vec<u8>, String> {
        let mut child_interp = Interp::with_registry(registry);
        let result = (|| {
            for (k, (module, member)) in imports {
                let v = reimport(&mut child_interp, &module, member.as_deref())?;
                child_interp.set_global(k, v);
            }
            for (k, blob) in plain {
                let v = pickle::deserialize_value(&blob, &child_interp.globals)
                    .map_err(|e| e.to_string())?;
                child_interp.set_global(k, v);
            }
            for blob in funcs {
                let v = pickle::deserialize_value(&blob, &child_interp.globals)
                    .map_err(|e| e.to_string())?;
                if let Value::Func(f) = &v {
                    let name = f.def.name.clone();
                    if !name.is_empty() {
                        child_interp.set_global(name, v);
                    }
                }
            }
            let args = pickle::deserialize_args(&args_blob, &child_interp.globals)
                .map_err(|e| e.to_string())?;
            let out = child_interp
                .call_global(&function, &args)
                .map_err(|e| e.to_string())?;
            pickle::serialize_value(&out).map_err(|e| e.to_string())
        })();
        // only the result bytes leave the child: free its namespace
        child_interp.release();
        result
    })
    .map_err(|e| format!("fork failed: {e}"))?;
    child.join().map_err(panicked)?
}

/// Import `module` into a fork child, or one `member` of it: the value an
/// [`Interp::import_origin`] of the parent names.
fn reimport(interp: &mut Interp, module: &str, member: Option<&str>) -> Result<Value, String> {
    let m = interp.import_module(module).map_err(|e| e.to_string())?;
    let Some(member) = member else {
        return Ok(m);
    };
    match &m {
        Value::Module(obj) => obj.members.borrow().get(member).cloned(),
        _ => None,
    }
    .ok_or_else(|| format!("module {module} has no member {member}"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// Names of threads whose next spawn fails: each entry refuses one.
    static REFUSED: Mutex<Vec<String>> = Mutex::new(Vec::new());

    /// Make the next spawn of a thread named `name` fail, as it does when
    /// the OS is out of threads or memory.
    pub(crate) fn refuse_spawn(name: &str) {
        REFUSED
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(name.to_string());
    }

    /// The refusal [`refuse_spawn`] left for a thread named `name`, if any,
    /// taken.
    pub(super) fn refused(name: &str) -> std::io::Result<()> {
        let mut refused = REFUSED.lock().unwrap_or_else(PoisonError::into_inner);
        match refused.iter().position(|n| n == name) {
            Some(i) => {
                refused.remove(i);
                Err(std::io::Error::other("refused by a test"))
            }
            None => Ok(()),
        }
    }

    const SRC: &str = r#"
        def context_setup(base) {
            global counter, offset
            counter = 0
            offset = base
        }
        def bump(x) {
            global counter
            counter = counter + 1
            return offset + counter + x
        }
        def read_counter() { return counter }
    "#;

    /// `context_setup(1000)`, the setup [`SRC`] declares.
    fn setup() -> SetupSpec {
        SetupSpec {
            function: "context_setup".into(),
            args_blob: pickle::serialize_args(&[Value::Int(1000)]).unwrap(),
        }
    }

    fn boot(
        mode: ExecMode,
    ) -> (
        LibraryHost,
        Receiver<(WorkerId, LibraryInstanceId, LibraryToWorker)>,
    ) {
        let (etx, erx) = crossbeam::channel::unbounded();
        let image = compile_image(LibraryInstanceId(1), SRC, Some(setup()), mode).unwrap();
        let host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        match erx.recv().unwrap() {
            (_, _, LibraryToWorker::Ready) => {}
            other => panic!("expected Ready, got {other:?}"),
        }
        (host, erx)
    }

    fn invoke(
        host: &LibraryHost,
        erx: &Receiver<(WorkerId, LibraryInstanceId, LibraryToWorker)>,
        id: u64,
        function: &str,
        args: &[Value],
        mode: ExecMode,
    ) -> Result<Value, String> {
        host.tx
            .send(WorkerToLibrary::Invoke {
                id: vine_core::ids::InvocationId(id),
                function: function.into(),
                args_blob: pickle::serialize_args(args).unwrap(),
                sandbox: format!("sandbox/i{id}"),
                mode,
            })
            .unwrap();
        match erx.recv().unwrap() {
            (_, _, LibraryToWorker::ResultReady { result, .. }) => result.map(|blob| {
                let g = std::rc::Rc::new(std::cell::RefCell::new(Default::default()));
                pickle::deserialize_value(&blob, &g).unwrap()
            }),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn direct_mode_retains_state_across_invocations() {
        let (host, erx) = boot(ExecMode::Direct);
        // context setup ran once: offset=1000, counter=0
        let a = invoke(&host, &erx, 1, "bump", &[Value::Int(5)], ExecMode::Direct).unwrap();
        assert_eq!(a, Value::Int(1006)); // 1000 + 1 + 5
        let b = invoke(&host, &erx, 2, "bump", &[Value::Int(5)], ExecMode::Direct).unwrap();
        assert_eq!(b, Value::Int(1007), "counter retained between invocations");
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn fork_mode_isolates_mutation() {
        let (host, erx) = boot(ExecMode::Fork);
        let a = invoke(&host, &erx, 1, "bump", &[Value::Int(0)], ExecMode::Fork).unwrap();
        assert_eq!(a, Value::Int(1001));
        let b = invoke(&host, &erx, 2, "bump", &[Value::Int(0)], ExecMode::Fork).unwrap();
        assert_eq!(
            b,
            Value::Int(1001),
            "each fork sees the pristine parent context"
        );
        // the parent daemon's counter is untouched
        let c = invoke(&host, &erx, 3, "read_counter", &[], ExecMode::Direct).unwrap();
        assert_eq!(c, Value::Int(0));
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn invocation_failure_does_not_kill_library() {
        let (host, erx) = boot(ExecMode::Direct);
        let err = invoke(&host, &erx, 1, "no_such_fn", &[], ExecMode::Direct).unwrap_err();
        assert!(err.contains("undefined"), "{err}");
        // the daemon still serves
        let ok = invoke(&host, &erx, 2, "bump", &[Value::Int(0)], ExecMode::Direct).unwrap();
        assert_eq!(ok, Value::Int(1001));
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn startup_failure_reports() {
        let (etx, erx) = crossbeam::channel::unbounded();
        let image = compile_image(
            LibraryInstanceId(2),
            "import missing_module",
            None,
            ExecMode::Direct,
        )
        .unwrap();
        let host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        match erx.recv().unwrap() {
            (_, _, LibraryToWorker::StartupFailed { error }) => {
                assert!(error.contains("missing_module"), "{error}");
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(host);
    }

    #[test]
    fn source_without_a_compiled_module_fails_startup() {
        // the daemon never parses: source alone is not a way to boot
        let (etx, erx) = crossbeam::channel::unbounded();
        let mut image = compile_image(LibraryInstanceId(3), SRC, None, ExecMode::Direct).unwrap();
        image.compiled = None;
        let mut host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        match erx.recv().unwrap() {
            (_, _, LibraryToWorker::StartupFailed { error }) => {
                assert_eq!(error, "library image has source but no compiled module");
            }
            other => panic!("expected StartupFailed, got {other:?}"),
        }
        host.thread.take().unwrap().join().unwrap();
    }

    #[test]
    fn serialized_lambda_functions_bind_on_boot() {
        // a function with no source form travels as a code object
        let mut origin = Interp::new();
        origin
            .exec_source("def mystery(x) { return x * 41 + 1 }")
            .unwrap();
        let blob = pickle::serialize_value(&origin.get_global("mystery").unwrap()).unwrap();

        let (etx, erx) = crossbeam::channel::unbounded();
        let image = LibraryImage {
            instance: LibraryInstanceId(3),
            source: String::new(),
            serialized_functions: vec![match pickle::deserialize_value(&blob, &origin.globals)
                .unwrap()
            {
                Value::Func(f) => pickle::serialize_funcdef(&f.def),
                _ => unreachable!(),
            }],
            setup: None,
            default_mode: ExecMode::Direct,
            compiled: None,
        };
        let host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        assert!(matches!(erx.recv().unwrap().2, LibraryToWorker::Ready));
        let out = invoke(
            &host,
            &erx,
            1,
            "mystery",
            &[Value::Int(2)],
            ExecMode::Direct,
        )
        .unwrap();
        assert_eq!(out, Value::Int(83));
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn compiled_image_boots_and_serves() {
        // the compiled module is all a daemon needs: without its source
        // the image boots and keeps its context like any other
        let mut image =
            compile_image(LibraryInstanceId(4), SRC, Some(setup()), ExecMode::Direct).unwrap();
        image.source.clear();
        let (etx, erx) = crossbeam::channel::unbounded();
        let host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        assert!(matches!(erx.recv().unwrap().2, LibraryToWorker::Ready));
        let a = invoke(&host, &erx, 1, "bump", &[Value::Int(5)], ExecMode::Direct).unwrap();
        assert_eq!(a, Value::Int(1006));
        let b = invoke(&host, &erx, 2, "bump", &[Value::Int(5)], ExecMode::Direct).unwrap();
        assert_eq!(b, Value::Int(1007), "retained context, VM engine");
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn corrupt_compiled_image_fails_startup() {
        // `x = 7` with its `const 0` patched to `const 999`: well-formed
        // bytes whose operand points past the constant pool
        let mut patched =
            vine_lang::compile_module(&vine_lang::parse("x = 7").unwrap(), "x = 7").to_bytes();
        let at = patched.len() - 10; // code: const 0; store_glb 0
        assert_eq!(patched[at..at + 5], [0, 0, 0, 0, 0]);
        patched[at + 1..at + 5].copy_from_slice(&999u32.to_le_bytes());
        for bytes in [vec![0xde, 0xad], patched] {
            let (etx, erx) = crossbeam::channel::unbounded();
            let mut image =
                compile_image(LibraryInstanceId(5), SRC, Some(setup()), ExecMode::Direct).unwrap();
            image.compiled.as_mut().unwrap().bytes = bytes;
            // the intact source alongside must not boot the daemon instead
            let mut host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
            match erx.recv().unwrap() {
                (_, _, LibraryToWorker::StartupFailed { error }) => {
                    assert!(error.contains("compiled image"), "{error}");
                }
                other => panic!("expected StartupFailed, got {other:?}"),
            }
            host.thread.take().unwrap().join().unwrap();
        }
    }

    /// A registry whose native `boom.explode()` panics, the way an
    /// interpreter bug that user code trips would.
    fn panicking_registry() -> ModuleRegistry {
        let mut registry = ModuleRegistry::new();
        registry.register_native("boom", || {
            vec![vine_lang::modules::native("explode", |_| panic!("kaboom"))]
        });
        // the panic unwinds through a call into another module's globals
        registry.register_source("helpers", "import boom\ndef go() { return boom.explode() }");
        registry
    }

    #[test]
    fn a_panicking_invocation_fails_and_the_daemon_keeps_serving() {
        let (etx, erx) = crossbeam::channel::unbounded();
        let image = compile_image(
            LibraryInstanceId(8),
            "import helpers\ndef bad() { return helpers.go() }\n\
             def good(x) { return x + 1 }",
            None,
            ExecMode::Direct,
        )
        .unwrap();
        let host = spawn_library(WorkerId(0), image, panicking_registry(), etx);
        let reply = |erx: &Receiver<_>| {
            erx.recv_timeout(std::time::Duration::from_secs(30))
                .expect("a reply within the timeout")
        };
        assert!(matches!(reply(&erx), (_, _, LibraryToWorker::Ready)));
        for (id, mode) in [(1, ExecMode::Direct), (3, ExecMode::Fork)] {
            host.tx
                .send(WorkerToLibrary::Invoke {
                    id: vine_core::ids::InvocationId(id),
                    function: "bad".into(),
                    args_blob: pickle::serialize_args(&[]).unwrap(),
                    sandbox: String::new(),
                    mode,
                })
                .unwrap();
            match reply(&erx) {
                (_, _, LibraryToWorker::ResultReady { result: Err(e), .. }) => {
                    assert_eq!(e, "panicked: kaboom", "{mode:?}");
                }
                other => panic!("expected a failed result, got {other:?}"),
            }
            // the next invocation runs against the daemon's own globals
            let ok = invoke(
                &host,
                &erx,
                id + 1,
                "good",
                &[Value::Int(41)],
                ExecMode::Direct,
            );
            assert_eq!(ok, Ok(Value::Int(42)), "{mode:?}");
        }
        host.tx.send(WorkerToLibrary::Shutdown).unwrap();
    }

    #[test]
    fn a_decodable_image_that_panics_the_vm_fails_startup() {
        // one instruction with in-range operands: the image decodes, and
        // running it pops an empty operand stack
        let top = vine_lang::CompiledFn {
            def: None,
            name: "<module>".into(),
            n_params: 0,
            n_slots: 0,
            slot_names: vec![],
            names: vec![],
            consts: vec![],
            funcs: vec![],
            code: vec![vine_lang::bytecode::Instr::MakeList(5)],
        };
        let bytes = vine_lang::bytecode::to_bytes(&top);
        assert!(vine_lang::bytecode::from_bytes(&bytes).is_ok());
        let (etx, erx) = crossbeam::channel::unbounded();
        let image = LibraryImage {
            instance: LibraryInstanceId(9),
            source: String::new(),
            serialized_functions: vec![],
            setup: None,
            default_mode: ExecMode::Direct,
            compiled: Some(vine_proto::CompiledBlob {
                source_digest: vine_core::ids::ContentHash::of_str(""),
                bytes,
            }),
        };
        let mut host = spawn_library(WorkerId(0), image, ModuleRegistry::new(), etx);
        match erx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok((_, _, LibraryToWorker::StartupFailed { error })) => {
                assert!(error.contains("panicked"), "{error}");
            }
            other => panic!("expected StartupFailed, got {other:?}"),
        }
        host.thread.take().unwrap().join().unwrap();
    }

    #[test]
    fn fork_mode_reimports_module_scope_imports() {
        // modules imported at module scope, a native member bound on its
        // own, and a module that context setup imports and publishes with
        // `global` must all resolve in every forked child as in the parent
        let mut registry = vine_apps::modules::full_registry();
        registry.register_source("helpers", "def triple(x) { return x * 3 }");
        registry.register_native("mathx", || {
            vec![vine_lang::modules::native("square", |args| {
                let x = args[0].as_int()?;
                Ok(Value::Int(x * x))
            })]
        });
        let mut local = vine_lang::Interp::with_registry(registry.clone());
        local.exec_source("import nn").unwrap();
        let served = local
            .eval_source("nn.forward(nn.load_model(2, 4), 5)")
            .unwrap();
        let module_scope = compile_image(
            LibraryInstanceId(6),
            "import helpers\nimport mathx\nsq = mathx.square\n\
             def work(x) { return helpers.triple(x) + sq(x) + mathx.square(1) }",
            None,
            ExecMode::Fork,
        )
        .unwrap();
        let published_by_setup = compile_image(
            LibraryInstanceId(7),
            "def context_setup() {\n    global nn\n    import nn\n}\n\
             def work(x) { return nn.forward(nn.load_model(2, 4), x) }",
            Some(SetupSpec {
                function: "context_setup".into(),
                args_blob: pickle::serialize_args(&[]).unwrap(),
            }),
            ExecMode::Fork,
        )
        .unwrap();
        for (image, arg, expected) in [
            (module_scope, 4, Value::Int(12 + 16 + 1)),
            (published_by_setup, 5, served),
        ] {
            let (etx, erx) = crossbeam::channel::unbounded();
            let host = spawn_library(WorkerId(0), image, registry.clone(), etx);
            assert!(matches!(erx.recv().unwrap().2, LibraryToWorker::Ready));
            for (id, mode) in [(1, ExecMode::Direct), (2, ExecMode::Fork)] {
                let out = invoke(&host, &erx, id, "work", &[Value::Int(arg)], mode);
                assert_eq!(out, Ok(expected.clone()), "{mode:?}");
            }
            host.tx.send(WorkerToLibrary::Shutdown).unwrap();
        }
    }
}
